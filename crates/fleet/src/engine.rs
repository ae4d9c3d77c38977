//! The epoch-batched fleet scheduler.
//!
//! A [`Fleet`] owns one [`MemconEngine`] per shard, each one run over its
//! shard's trace: construction starts it, [`MemconEngine::advance_until`]
//! steps it, and [`MemconEngine::run`] finishes it at the step whose epoch
//! limit reaches the trace horizon. Every [`Fleet::run_epoch`] call
//! advances **all** shards to the next epoch boundary — `epoch ×
//! epoch_quanta × quantum` on the shared fleet clock — fanning the
//! per-shard work across the [`memutil::par`] pool, then applies
//! cross-shard bookkeeping in deterministic shard order.
//!
//! Shards live behind per-shard mutexes so the pool's `Fn` closures can
//! step them; `ordered_map_with` hands each index to exactly one worker
//! per epoch, so the locks are uncontended — they exist to satisfy the
//! shared-reference contract, not to serialize.

use std::sync::{Arc, Mutex};

use faultinject::FaultSession;
use memcon::engine::{EngineStats, MemconEngine, MemconReport};
use memcon::refreshmgr::PageState;
use memcon::testengine::RateOracle;
use memutil::codec;
use memutil::par;
use store::{Store, StoreError};

use crate::durable::{self, EpochEntry, FleetMeta, FleetRecovery};
use crate::report::{FleetReport, LatencySummary, ShardSummary};
use crate::{FleetPlan, ShardSpec};

/// Microsecond-scale bucket edges of the per-shard step-latency histogram
/// (`fleet.step.latency_us`, timing class).
pub const STEP_LATENCY_EDGES_US: [u64; 9] = [50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000];

/// One simulated DIMM mid-run.
#[derive(Debug)]
struct Shard {
    spec: ShardSpec,
    engine: MemconEngine,
    /// Set once the shard's trace horizon is reached and its run finished.
    report: Option<MemconReport>,
    /// Epoch whose step finished the shard's run.
    done_epoch: Option<u64>,
    /// Wall-clock nanoseconds of each epoch step (timing class only).
    step_latency_ns: Vec<u64>,
    /// The engine's stats at the previous epoch barrier, so the
    /// post-barrier observability flush emits per-epoch deltas.
    last_stats: EngineStats,
}

impl Shard {
    fn new(spec: &ShardSpec, engine: MemconEngine) -> Shard {
        Shard {
            spec: spec.clone(),
            last_stats: engine.stats(),
            engine,
            report: None,
            done_epoch: None,
            step_latency_ns: Vec::new(),
        }
    }
}

/// A running fleet: per-shard engines plus the epoch clock.
#[derive(Debug)]
pub struct Fleet {
    shards: Vec<Mutex<Shard>>,
    /// Epochs completed so far.
    epoch: u64,
    /// Fleet-clock nanoseconds per epoch.
    epoch_ns: u64,
    /// Longest shard trace horizon, ns.
    horizon_ns: u64,
    seed: u64,
    epoch_quanta: u64,
    /// Armed SLO monitor, evaluated post-barrier on every epoch sample.
    /// Shared behind a mutex so a scrape endpoint can serve `HEALTH`
    /// while the fleet runs.
    health: Option<Arc<Mutex<telemetry::HealthMonitor>>>,
    /// The fleet's store (one image per epoch barrier), when the fleet
    /// is durable.
    store: Option<Store>,
    /// First store failure: the durability plane goes quiet from that
    /// point while the simulation continues.
    store_error: Option<StoreError>,
    /// Per-epoch observability entries — the durable epoch log.
    epoch_log: Vec<EpochEntry>,
}

impl Fleet {
    /// Instantiates engines for every shard of `plan`, which starts their
    /// runs. Cheap relative to [`FleetPlan::expand`]: traces are shared by
    /// `Arc`, and each shard engine runs the rate oracle at
    /// [`memcon::engine::DEFAULT_FAIL_RATE`], seeded by its chip seed. A
    /// durable fleet publishes its anchor image (epoch 0) before returning;
    /// its store draws the `store.*` fault sites from the config's fault
    /// plan.
    ///
    /// # Panics
    ///
    /// Panics if the plan is empty (checked at expansion), or if the
    /// configured store cannot be created or take its anchor image (an
    /// environment failure, like the trace-synthesis panics at expansion).
    #[must_use]
    pub fn new(plan: &FleetPlan) -> Fleet {
        let config = &plan.config;
        let shards: Vec<Mutex<Shard>> = plan
            .shards
            .iter()
            .map(|spec| {
                let oracle = RateOracle::new(memcon::engine::DEFAULT_FAIL_RATE, spec.chip_seed);
                let mut engine = MemconEngine::with_oracle(
                    config.engine,
                    Arc::clone(&spec.trace),
                    Box::new(oracle),
                );
                engine.set_fault_plan(spec.fault_plan.clone());
                Mutex::new(Shard::new(spec, engine))
            })
            .collect();
        let store = config.store_dir.as_ref().map(|dir| {
            let mut store = Store::create(dir, config.durability)
                // memlint: allow(no-unwrap): an uncreatable store directory is an environment failure, like trace synthesis
                .expect("fleet store directory must be creatable");
            store.set_fault_session(config.fault_plan.clone().map(FaultSession::with_plan));
            store
        });
        let mut fleet = Fleet::assemble(plan, shards, 0, store, Vec::new());
        // Anchor image: a crash before the first barrier still recovers.
        fleet.persist_barrier(0);
        if let Some(err) = &fleet.store_error {
            // memlint: allow(no-panic): a store that cannot take its first image is unusable — die loudly
            panic!("anchor fleet image must publish: {err}");
        }
        fleet
    }

    /// The fleet around `shards` at `epoch`, with its clock derived from
    /// `plan`.
    fn assemble(
        plan: &FleetPlan,
        shards: Vec<Mutex<Shard>>,
        epoch: u64,
        store: Option<Store>,
        epoch_log: Vec<EpochEntry>,
    ) -> Fleet {
        let config = &plan.config;
        let quantum_ns = (config.engine.quantum_ms * 1e6) as u64;
        let horizon_ns = plan
            .shards
            .iter()
            .map(|s| s.trace.duration_ns())
            .max()
            .unwrap_or(0);
        Fleet {
            shards,
            epoch,
            epoch_ns: quantum_ns.saturating_mul(config.epoch_quanta).max(1),
            horizon_ns,
            seed: config.seed,
            epoch_quanta: config.epoch_quanta,
            health: None,
            store,
            store_error: None,
            epoch_log,
        }
    }

    /// Recovers a durable fleet from `plan.config.store_dir` at its last
    /// epoch barrier: opens the store (drawing the `store.*` fault sites
    /// from the config's fault plan), restores every shard engine from
    /// the newest valid image across `jobs` workers, then replays the
    /// epoch log through the telemetry registry (restoring the
    /// `fleet.obs.*` counters and the time-series ring byte-identically).
    /// The caller resumes with [`Fleet::run_epoch`] /
    /// [`Fleet::run_to_completion`] exactly as the crashed process would
    /// have; the health monitor is not restored — re-arm one with
    /// [`Fleet::set_health_monitor`].
    ///
    /// `plan` must be the same expansion the crashed fleet ran (plans are
    /// pure functions of the config, so re-expanding the config is
    /// enough); recovery checks its shard count, epoch length, engine
    /// config and every shard's trace against what the image recorded.
    ///
    /// # Errors
    ///
    /// [`StoreError::Unsupported`] when the config names no store
    /// directory or the image's fleet already finished its runs;
    /// [`StoreError::Corrupt`] when the image disagrees with the plan's
    /// shard count or `epoch_quanta`, or a shard's checkpoint fails
    /// [`MemconEngine::restore`] against the shard's trace or ran another
    /// engine config; any [`StoreError`] from [`Store::open`] (a missing
    /// directory, or no usable image).
    pub fn recover(plan: &FleetPlan, jobs: usize) -> Result<(Fleet, FleetRecovery), StoreError> {
        let config = &plan.config;
        let Some(dir) = &config.store_dir else {
            return Err(StoreError::Unsupported(
                "fleet config names no durable store directory".to_string(),
            ));
        };
        let (store, found) = Store::open(dir, config.durability, config.fault_plan.clone())?;
        let mut meta = FleetMeta::default();
        codec::decode(
            &found.snapshot.payload,
            &mut meta,
            "fleet image",
            FleetMeta::fields,
        )
        .map_err(StoreError::Corrupt)?;
        if meta.shards.len() != plan.shards.len() {
            return Err(StoreError::Corrupt(format!(
                "the image holds {} shards but the plan expands {}",
                meta.shards.len(),
                plan.shards.len()
            )));
        }
        if meta.epoch_quanta != config.epoch_quanta {
            return Err(StoreError::Corrupt(format!(
                "the image ran {} quanta per epoch but the plan asks for {}",
                meta.epoch_quanta, config.epoch_quanta
            )));
        }
        let restored: Vec<Result<MemconEngine, StoreError>> =
            par::ordered_map_with(jobs, plan.shards.len(), |i| {
                MemconEngine::restore(&meta.shards[i], Arc::clone(&plan.shards[i].trace))
            });
        let mut shards = Vec::with_capacity(plan.shards.len());
        for (i, (result, spec)) in restored.into_iter().zip(&plan.shards).enumerate() {
            let engine = result.map_err(|e| match e {
                StoreError::Corrupt(m) => StoreError::Corrupt(format!("shard {i}: {m}")),
                other => other,
            })?;
            if *engine.config() != config.engine {
                return Err(StoreError::Corrupt(format!(
                    "shard {i}'s checkpoint ran engine config {:?}, not the plan's {:?}",
                    engine.config(),
                    config.engine
                )));
            }
            if !engine.mid_run() {
                return Err(StoreError::Unsupported(format!(
                    "shard {i} already finished its run; a completed fleet cannot resume"
                )));
            }
            shards.push(Mutex::new(Shard::new(spec, engine)));
        }
        // Replay the epoch log through the *same* emission path the live
        // barriers use, once every input check passed and before any
        // fresh barrier runs.
        for entry in &meta.entries {
            let _ = durable::emit_epoch_entry(entry);
        }
        let recovery = FleetRecovery {
            epochs_replayed: meta.entries.len() as u64,
            shards_recovered: shards.len() as u64,
            replayed_records: 0,
            truncated_bytes: found.truncated_bytes,
            snapshots_skipped: found.snapshots_skipped,
        };
        let fleet = Fleet::assemble(plan, shards, meta.epoch, Some(store), meta.entries);
        Ok((fleet, recovery))
    }

    /// The first failure of the fleet's store, if any.
    #[must_use]
    pub fn meta_store_error(&self) -> Option<&StoreError> {
        self.store_error.as_ref()
    }

    /// Arms an SLO monitor: every epoch's post-barrier sample point is
    /// evaluated against its rules. Pass a shared handle when a scrape
    /// endpoint should serve `HEALTH` concurrently.
    pub fn set_health_monitor(&mut self, monitor: Arc<Mutex<telemetry::HealthMonitor>>) {
        self.health = Some(monitor);
    }

    /// Number of shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Whether the fleet has no shards (never true for expanded plans).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// Epochs completed so far.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether every shard has finished its run.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.epoch > 0 && self.epoch.saturating_mul(self.epoch_ns) >= self.horizon_ns
    }

    /// Advances every shard one epoch across `jobs` workers (`0` =
    /// resolve automatically), then runs the epoch barrier in shard
    /// order. Returns `true` while work remains.
    ///
    /// Shard advancement commutes (disjoint state; telemetry adds are
    /// atomic), so results are byte-identical at any `jobs` value.
    ///
    /// # Panics
    ///
    /// Panics if a shard engine panics (poisoned shard lock).
    pub fn run_epoch(&mut self, jobs: usize) -> bool {
        if self.is_done() {
            return false;
        }
        self.epoch += 1;
        let _epoch_span = telemetry::tree_span("fleet.epoch");
        telemetry::annotate("epoch", self.epoch);
        let limit = self.epoch.saturating_mul(self.epoch_ns);
        par::ordered_map_with(jobs, self.shards.len(), |i| {
            let mut shard = self.shards[i].lock().expect("shard engine panicked");
            let shard = &mut *shard;
            if shard.report.is_some() {
                return;
            }
            // Nested under `fleet.epoch` at jobs=1 (same thread); a root
            // span on pool workers — tree shape is timing-class data.
            let _step_span = telemetry::tree_span("fleet.shard_step");
            telemetry::annotate("shard", i as u64);
            let ((), elapsed_ns) = telemetry::time_ns(|| {
                if limit >= shard.spec.trace.duration_ns() {
                    shard.report = Some(shard.engine.run());
                    shard.done_epoch = Some(self.epoch);
                } else {
                    shard.engine.advance_until(limit);
                }
            });
            shard.step_latency_ns.push(elapsed_ns);
            telemetry::observe_timing(
                "fleet.step.latency_us",
                &STEP_LATENCY_EDGES_US,
                elapsed_ns / 1_000,
            );
        });
        self.epoch_barrier(jobs);
        !self.is_done()
    }

    /// Post-epoch barrier bookkeeping, in deterministic shard order:
    /// folds every shard's [`EngineStats`] delta since the previous epoch
    /// into an [`EpochEntry`], emits it through the `fleet.obs.*` counters
    /// and the registry's time-series ring (tick = epoch), evaluates the
    /// armed health monitor (if any) against the fresh point, and — on a
    /// durable fleet — appends the entry to the epoch log and publishes
    /// the barrier image.
    ///
    /// Runs single-threaded after the epoch barrier, so the sampled deltas
    /// are a function of simulation state only — the series is
    /// deterministic and byte-identical at any `jobs` value.
    fn epoch_barrier(&mut self, jobs: usize) {
        if !telemetry::enabled() && self.store.is_none() {
            return;
        }
        let mut entry = EpochEntry {
            epoch: self.epoch,
            ..EpochEntry::default()
        };
        for slot in &self.shards {
            // memlint: allow(no-unwrap): poisoned shard lock means an engine panicked — propagate
            let mut shard = slot.lock().expect("shard engine panicked");
            let now = shard.engine.stats();
            let prev = std::mem::replace(&mut shard.last_stats, now);
            let delta = |count: fn(&EngineStats) -> u64| count(&now).saturating_sub(count(&prev));
            entry.faults_injected += delta(|s| s.faults_injected.iter().sum());
            entry.aborts += delta(|s| s.tests.aborted);
            entry.retries += delta(|s| s.counters.retries);
            entry.backoffs_scheduled += delta(|s| s.counters.backoffs_scheduled);
            entry.backoff_ceiling_hits += delta(|s| s.counters.backoff_ceiling_hits);
            entry.escapes += delta(|s| s.counters.uncorrectable_escapes);
            entry.pinned_pages += now.pinned_pages;
            entry.pages += shard.spec.trace.n_pages();
            entry.pril_buffered += now.pril_buffered;
            entry.pril_capacity += shard.engine.config().write_buffer_capacity as u64;
            entry.shards_done += u64::from(shard.report.is_some());
        }
        if telemetry::enabled() {
            let point = durable::emit_epoch_entry(&entry);
            if let (Some(monitor), Some(point)) = (&self.health, point) {
                monitor
                    .lock()
                    // memlint: allow(no-unwrap): a poisoned monitor must fail the run, not go silent
                    .expect("health monitor poisoned")
                    .evaluate(&point);
            }
        }
        if self.store.is_some() {
            self.epoch_log.push(entry);
            self.persist_barrier(jobs);
        }
    }

    /// Publishes the current barrier as one [`FleetMeta`] image, taking
    /// the shard checkpoints across `jobs` workers. The first failure
    /// latches into `store_error`: the fleet keeps simulating, but no
    /// further images are attempted.
    fn persist_barrier(&mut self, jobs: usize) {
        let Some(store) = self.store.as_mut() else {
            return;
        };
        if self.store_error.is_some() {
            return;
        }
        let shards = par::ordered_map_with(jobs, self.shards.len(), |i| {
            // memlint: allow(no-unwrap): poisoned shard lock means an engine panicked — propagate
            let mut shard = self.shards[i].lock().expect("shard engine panicked");
            shard.engine.checkpoint()
        });
        let mut image = FleetMeta {
            epoch: self.epoch,
            epoch_quanta: self.epoch_quanta,
            entries: self.epoch_log.clone(),
            shards,
        };
        if let Err(err) = store.publish_snapshot(&codec::encode(&mut image, FleetMeta::fields)) {
            self.store_error = Some(err);
        }
    }

    /// Runs epochs until every shard completes, then rolls up and returns
    /// the fleet report (also flushing the fleet-level roll-ups through
    /// the telemetry registry).
    pub fn run_to_completion(&mut self, jobs: usize) -> FleetReport {
        while self.run_epoch(jobs) {}
        self.report()
    }

    /// Rolls the per-shard results up into a [`FleetReport`] and flushes
    /// the fleet-level aggregates through [`telemetry`]. Call after the
    /// fleet is done; shards still mid-run contribute no summary.
    ///
    /// # Panics
    ///
    /// Panics if a shard engine panicked (poisoned shard lock).
    #[must_use]
    pub fn report(&self) -> FleetReport {
        let mut shards = Vec::with_capacity(self.shards.len());
        let mut latencies: Vec<u64> = Vec::new();
        for slot in &self.shards {
            let shard = slot.lock().expect("shard engine panicked");
            latencies.extend_from_slice(&shard.step_latency_ns);
            let Some(report) = shard.report else { continue };
            let stats = shard.engine.stats();
            let final_hi = shard
                .engine
                .final_states()
                .iter()
                .filter(|s| **s != PageState::LoRef)
                .count() as u64;
            shards.push(ShardSummary {
                node: shard.spec.node,
                profile: shard.spec.profile.clone(),
                n_pages: shard.spec.trace.n_pages(),
                done_epoch: shard.done_epoch.unwrap_or(self.epoch),
                refresh_reduction: report.refresh_reduction,
                lo_coverage: report.lo_coverage,
                refresh_ops: report.refresh_ops,
                baseline_ops: report.baseline_ops,
                tests_correct: stats.counters.tests_correct,
                tests_mispredicted: stats.counters.tests_mispredicted,
                failing_tests: stats.tests.failed,
                final_hi_pages: final_hi,
                faults_injected: stats.faults_injected.iter().sum(),
                uncorrectable_escapes: stats.counters.uncorrectable_escapes,
            });
        }
        latencies.sort_unstable();
        let percentile = |q: f64| -> u64 {
            if latencies.is_empty() {
                return 0;
            }
            let idx = ((latencies.len() - 1) as f64 * q).round() as usize;
            latencies[idx.min(latencies.len() - 1)]
        };
        let report = FleetReport::new(
            self.shards.len() as u64,
            self.seed,
            self.epoch,
            self.epoch_quanta,
            shards,
            LatencySummary {
                samples: latencies.len() as u64,
                p50_ns: percentile(0.50),
                p99_ns: percentile(0.99),
                max_ns: latencies.last().copied().unwrap_or(0),
            },
        );
        report.flush_telemetry();
        report
    }

    /// Checks the refresh-correctness invariant on every finished shard.
    ///
    /// # Errors
    ///
    /// Returns the first violating shard and its engine's description.
    ///
    /// # Panics
    ///
    /// Panics if a shard engine panicked (poisoned shard lock).
    pub fn verify_refresh_correctness(&self) -> Result<(), String> {
        for (i, slot) in self.shards.iter().enumerate() {
            let shard = slot.lock().expect("shard engine panicked");
            if shard.report.is_some() {
                shard
                    .engine
                    .verify_refresh_correctness()
                    .map_err(|e| format!("shard {i}: {e}"))?;
            }
        }
        Ok(())
    }
}

/// Convenience: expand + instantiate + run to completion at `jobs`.
#[must_use]
pub fn run_fleet(config: &crate::FleetConfig, jobs: usize) -> FleetReport {
    let plan = FleetPlan::expand(config, jobs);
    let mut fleet = Fleet::new(&plan);
    fleet.run_to_completion(jobs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FleetConfig;
    use telemetry::collect;

    // A stepped fleet counts into whichever registry is current, so every
    // test here steps its fleets (and engines) inside `collect`, which
    // serializes them.

    #[test]
    fn epoch_stepping_matches_whole_runs() {
        // The fleet's epoch-sliced engines must report exactly what one
        // whole-trace run of the same engine reports.
        let config = FleetConfig::small(6, 42);
        let plan = FleetPlan::expand(&config, 1);
        let _ = collect(|| {
            let mut fleet = Fleet::new(&plan);
            let fleet_report = fleet.run_to_completion(1);
            for (spec, summary) in plan.shards.iter().zip(&fleet_report.shards) {
                let mut engine = MemconEngine::with_oracle(
                    config.engine,
                    Arc::clone(&spec.trace),
                    Box::new(RateOracle::new(
                        memcon::engine::DEFAULT_FAIL_RATE,
                        spec.chip_seed,
                    )),
                );
                let solo = engine.run();
                let counters = engine.stats().counters;
                assert_eq!(summary.refresh_reduction, solo.refresh_reduction);
                assert_eq!(summary.lo_coverage, solo.lo_coverage);
                assert_eq!(summary.tests_correct, counters.tests_correct);
                assert_eq!(summary.tests_mispredicted, counters.tests_mispredicted);
            }
            assert!(fleet.is_done());
            assert!(!fleet.run_epoch(1), "done fleet refuses further epochs");
            fleet.verify_refresh_correctness().unwrap();
        });
    }

    #[test]
    fn step_latencies_are_recorded_per_epoch() {
        let config = FleetConfig::small(3, 5);
        let plan = FleetPlan::expand(&config, 1);
        let (report, _) = collect(|| Fleet::new(&plan).run_to_completion(1));
        assert!(
            report.step_latency.samples >= 3,
            "one sample per shard-epoch"
        );
        assert!(report.step_latency.max_ns >= report.step_latency.p50_ns);
    }

    /// Engine-plane fault plan: preempted tests and torn read-backs, each
    /// firing at `rate`.
    fn engine_plan(seed: u64, rate: f64) -> Arc<faultinject::FaultPlan> {
        use faultinject::{Site, SiteSpec};
        Arc::new(
            faultinject::FaultPlan::new(seed)
                .with_site(Site::TestPreempt, SiteSpec::rate(rate))
                .with_site(Site::TornRead, SiteSpec::rate(rate)),
        )
    }

    /// Every shard engine's checkpoint, in node order.
    fn checkpoints(fleet: &Fleet) -> Vec<Vec<u8>> {
        fleet
            .shards
            .iter()
            .map(|slot| slot.lock().unwrap().engine.checkpoint())
            .collect()
    }

    /// The newest image file in a fleet store directory.
    fn newest_image(dir: &std::path::Path) -> std::path::PathBuf {
        let mut images: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|entry| entry.unwrap().path())
            .collect();
        images.sort();
        images.pop().expect("the store holds an image")
    }

    /// The deterministic report of `plan` run to completion at jobs 1.
    fn reference_emit(plan: &FleetPlan) -> String {
        collect(|| Fleet::new(plan).run_to_completion(1))
            .0
            .deterministic_emit()
    }

    #[test]
    fn recovered_fleet_is_jobs_invariant_and_matches_uninterrupted() {
        // Reference: the same fleet with no store at all.
        let mut config = FleetConfig::small(4, 99);
        config.fault_plan = Some(engine_plan(0xF1EE7, 0.05));
        let reference = reference_emit(&FleetPlan::expand(&config, 1));
        let mut det_sections: Vec<String> = Vec::new();
        let mut crash_images: Vec<Vec<u8>> = Vec::new();
        for jobs in [1usize, 2, 8] {
            let dir = store::scratch_dir(&format!("fleet-recover-j{jobs}"));
            let mut durable = config.clone();
            durable.store_dir = Some(dir.clone());
            let plan = FleetPlan::expand(&durable, jobs);
            // Pre-crash phase under a throwaway registry: the process that
            // crashes takes its registry with it.
            let _ = collect(|| {
                let mut fleet = Fleet::new(&plan);
                assert!(fleet.run_epoch(jobs));
                assert!(fleet.run_epoch(jobs));
                // Crash at the barrier: drop the fleet mid-run.
            });
            crash_images.push(std::fs::read(newest_image(&dir)).unwrap());
            let (report, registry) = collect(|| {
                let (mut fleet, rec) = Fleet::recover(&plan, jobs).expect("fleet recovers");
                assert_eq!(fleet.epoch(), 2, "fleet resumes at the crashed barrier");
                assert_eq!(rec.shards_recovered, 4);
                assert_eq!(rec.epochs_replayed, 2);
                assert!(fleet.meta_store_error().is_none());
                fleet.run_to_completion(jobs)
            });
            assert_eq!(
                report.deterministic_emit(),
                reference,
                "resumed fleet must report exactly what an uninterrupted storeless run does"
            );
            det_sections.push(registry.deterministic().emit());
            let _ = std::fs::remove_dir_all(&dir);
        }
        assert_eq!(
            det_sections[0], det_sections[1],
            "recovered deterministic telemetry diverges between jobs 1 and 2"
        );
        assert_eq!(
            det_sections[0], det_sections[2],
            "recovered deterministic telemetry diverges between jobs 1 and 8"
        );
        assert!(
            crash_images.iter().all(|image| *image == crash_images[0]),
            "the crash image differs between jobs values"
        );
    }

    #[test]
    fn fleet_recovers_from_a_crash_before_the_first_barrier() {
        let mut config = FleetConfig::small(2, 31);
        let reference = reference_emit(&FleetPlan::expand(&config, 1));
        let dir = store::scratch_dir("fleet-recover-epoch0");
        config.store_dir = Some(dir.clone());
        let plan = FleetPlan::expand(&config, 1);
        let (report, _) = collect(|| {
            drop(Fleet::new(&plan)); // crash before any epoch runs
            let (mut fleet, rec) = Fleet::recover(&plan, 1).expect("anchor snapshot recovers");
            assert_eq!(fleet.epoch(), 0);
            assert_eq!(rec.epochs_replayed, 0);
            assert_eq!(rec.shards_recovered, 2);
            fleet.run_to_completion(1)
        });
        assert_eq!(report.deterministic_emit(), reference);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_fleets_write_only_barrier_images() {
        // Whatever the epoch length, the fleet store publishes the anchor
        // and one image per barrier, and its directory holds nothing else.
        for epoch_quanta in [1, 2] {
            let mut config = FleetConfig::small(3, 0x0A1);
            config.epoch_quanta = epoch_quanta;
            let dir = store::scratch_dir(&format!("fleet-images-only-q{epoch_quanta}"));
            config.store_dir = Some(dir.clone());
            let plan = FleetPlan::expand(&config, 1);
            let (fleet, registry) = collect(|| {
                let mut fleet = Fleet::new(&plan);
                for _ in 0..3 {
                    assert!(fleet.run_epoch(2));
                }
                fleet
            });
            assert!(fleet.meta_store_error().is_none());
            let count = |name| {
                registry
                    .counter(name, telemetry::Class::Deterministic)
                    .get()
            };
            assert_eq!(count("store.snap.published"), 4, "{epoch_quanta} quanta");
            for entry in std::fs::read_dir(&dir).unwrap() {
                let name = entry.unwrap().file_name().into_string().unwrap();
                assert!(
                    name.starts_with("snap-") && name.ends_with(".snap"),
                    "{epoch_quanta} quanta: unexpected store file {name}"
                );
            }
            drop(fleet);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn a_corrupt_newest_image_resumes_from_the_barrier_before() {
        let mut config = FleetConfig::small(3, 0xC0DE);
        let plan = FleetPlan::expand(&config, 1);
        let dir = store::scratch_dir("fleet-corrupt-image");
        let _ = collect(|| {
            let mut reference = Fleet::new(&plan);
            assert!(reference.run_epoch(1));
            let at_epoch_1 = checkpoints(&reference);
            let reference = reference.run_to_completion(1).deterministic_emit();
            config.store_dir = Some(dir.clone());
            let plan = FleetPlan::expand(&config, 1);
            {
                let mut fleet = Fleet::new(&plan);
                assert!(fleet.run_epoch(1));
                assert!(fleet.run_epoch(1));
            }
            let newest = newest_image(&dir);
            let mut bytes = std::fs::read(&newest).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x01;
            std::fs::write(&newest, bytes).unwrap();
            let (mut fleet, rec) = Fleet::recover(&plan, 1).expect("the epoch-1 image recovers");
            assert_eq!(rec.snapshots_skipped, 1);
            assert_eq!(rec.epochs_replayed, 1);
            assert_eq!(fleet.epoch(), 1);
            assert_eq!(
                checkpoints(&fleet),
                at_epoch_1,
                "every shard resumes at epoch 1"
            );
            let report = fleet.run_to_completion(1);
            assert_eq!(report.deterministic_emit(), reference);
        });
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_injected_torn_publish_latches_and_the_directory_still_recovers() {
        use faultinject::{FaultPlan, Schedule, Site, SiteSpec};
        // Store decisions are keyed by image sequence number, and the
        // anchor is image 0, so the tear hits the epoch-2 image; every
        // other site stays quiet.
        let mut config = FleetConfig::small(3, 0x7042);
        config.fault_plan = Some(Arc::new(FaultPlan::new(0x7042).with_site(
            Site::StoreTornWrite,
            SiteSpec {
                rate: 1.0,
                schedule: Schedule::OneShot { at: 2 },
            },
        )));
        let reference = reference_emit(&FleetPlan::expand(&config, 1));
        let dir = store::scratch_dir("fleet-torn-publish");
        config.store_dir = Some(dir.clone());
        let plan = FleetPlan::expand(&config, 1);
        let _ = collect(|| {
            let mut fleet = Fleet::new(&plan);
            let report = fleet.run_to_completion(1);
            assert_eq!(fleet.meta_store_error(), Some(&StoreError::TornWrite));
            assert_eq!(
                report.deterministic_emit(),
                reference,
                "store faults stay on the durability plane"
            );
            drop(fleet);
            let (mut fleet, rec) = Fleet::recover(&plan, 1).expect("the image before the tear");
            assert_eq!(
                fleet.epoch(),
                1,
                "resumes at the last image published whole"
            );
            assert!(rec.truncated_bytes > 0, "the torn temp image is discarded");
            assert_eq!(rec.snapshots_skipped, 0);
            assert_eq!(fleet.run_to_completion(1).deterministic_emit(), reference);
        });
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_faults_replay_across_recovery() {
        use faultinject::{FaultPlan, Schedule, SiteSpec};
        // The recovered store tears the epoch-3 image, as the store that
        // never crashed would have: its decisions follow the image
        // sequence number, not a count restarted at recovery.
        let mut config = FleetConfig::small(3, 0x7043);
        config.fault_plan = Some(Arc::new(FaultPlan::new(0x7043).with_site(
            faultinject::Site::StoreTornWrite,
            SiteSpec {
                rate: 1.0,
                schedule: Schedule::OneShot { at: 3 },
            },
        )));
        let dir = store::scratch_dir("fleet-store-fault-replay");
        config.store_dir = Some(dir.clone());
        let plan = FleetPlan::expand(&config, 1);
        let _ = collect(|| {
            {
                let mut fleet = Fleet::new(&plan);
                assert!(fleet.run_epoch(1));
                assert!(fleet.run_epoch(1));
                assert!(fleet.meta_store_error().is_none());
            }
            let (mut fleet, _) = Fleet::recover(&plan, 1).expect("fleet recovers");
            assert_eq!(fleet.epoch(), 2);
            assert!(fleet.run_epoch(1));
            assert_eq!(fleet.meta_store_error(), Some(&StoreError::TornWrite));
        });
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovered_fleet_telemetry_matches_an_uninterrupted_run() {
        // The first resumed epoch's `fleet.obs.*` deltas start from the
        // restored engines' cursors, so the crash must follow the first
        // injected faults.
        const CRASH_EPOCH: u64 = 4;
        const OBS: [&str; 6] = [
            "fleet.obs.faults_injected",
            "fleet.obs.aborts",
            "fleet.obs.retries",
            "fleet.obs.backoffs_scheduled",
            "fleet.obs.backoff_ceiling_hits",
            "fleet.obs.escapes",
        ];
        let mut config = FleetConfig::small(8, 0x7E1E);
        config.epoch_quanta = 1;
        config.fault_plan = Some(engine_plan(0x0B5E, 0.5));
        let observed = |registry: &telemetry::Registry| -> Vec<(u64, Vec<(u64, u64)>)> {
            OBS.iter()
                .map(|name| {
                    let total = registry
                        .counter(name, telemetry::Class::Deterministic)
                        .get();
                    (total, registry.series(name))
                })
                .collect()
        };
        let plan = FleetPlan::expand(&config, 1);
        let reference = observed(&collect(|| Fleet::new(&plan).run_to_completion(1)).1);
        let faults = &reference[0].1;
        assert!(
            faults
                .iter()
                .any(|&(epoch, n)| epoch < CRASH_EPOCH && n > 0),
            "faults fire before the crash: {faults:?}"
        );
        let dir = store::scratch_dir("fleet-recover-telemetry");
        config.store_dir = Some(dir.clone());
        let plan = FleetPlan::expand(&config, 1);
        let _ = collect(|| {
            let mut fleet = Fleet::new(&plan);
            for _ in 0..CRASH_EPOCH {
                assert!(fleet.run_epoch(1));
            }
        });
        let ((), registry) = collect(|| {
            let (mut fleet, _) = Fleet::recover(&plan, 1).expect("fleet recovers");
            assert_eq!(fleet.epoch(), CRASH_EPOCH);
            let _ = fleet.run_to_completion(1);
        });
        for (name, (want, got)) in OBS.iter().zip(reference.iter().zip(observed(&registry))) {
            assert_eq!(&got, want, "{name}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn epoch_telemetry_sums_the_shards_final_stats() {
        // Each barrier emits every shard's stats delta since the last one,
        // so the `fleet.obs.*` totals are the shards' final views summed,
        // and the last epoch's gauges are the final gauges summed. An
        // 8 ms quantum puts boundaries inside every 64 ms test window, so
        // injected preemptions abort tests.
        let mut config = FleetConfig::small(6, 0x0B5E);
        config.engine = config.engine.with_quantum_ms(8.0);
        config.fault_plan = Some(engine_plan(0x0B5E, 0.05));
        for jobs in [1, 4] {
            let plan = FleetPlan::expand(&config, jobs);
            let (fleet, registry) = collect(|| {
                let mut fleet = Fleet::new(&plan);
                let _ = fleet.run_to_completion(jobs);
                fleet
            });
            let stats: Vec<EngineStats> = fleet
                .shards
                .iter()
                .map(|slot| slot.lock().unwrap().engine.stats())
                .collect();
            let sum = |field: fn(&EngineStats) -> u64| stats.iter().map(field).sum::<u64>();
            assert!(sum(|s| s.tests.aborted) > 0, "jobs {jobs}: no test aborted");
            assert!(sum(|s| s.counters.retries) > 0, "jobs {jobs}: no retry");
            for (name, want) in [
                (
                    "fleet.obs.faults_injected",
                    sum(|s| s.faults_injected.iter().sum()),
                ),
                ("fleet.obs.aborts", sum(|s| s.tests.aborted)),
                ("fleet.obs.retries", sum(|s| s.counters.retries)),
                (
                    "fleet.obs.backoffs_scheduled",
                    sum(|s| s.counters.backoffs_scheduled),
                ),
                (
                    "fleet.obs.backoff_ceiling_hits",
                    sum(|s| s.counters.backoff_ceiling_hits),
                ),
                (
                    "fleet.obs.escapes",
                    sum(|s| s.counters.uncorrectable_escapes),
                ),
            ] {
                let got = registry
                    .counter(name, telemetry::Class::Deterministic)
                    .get();
                assert_eq!(got, want, "jobs {jobs}: {name}");
            }
            let shards = plan.shards.len() as u64;
            for (name, want) in [
                ("fleet.gauge.pinned_pages", sum(|s| s.pinned_pages)),
                (
                    "fleet.gauge.pages",
                    plan.shards.iter().map(|s| s.trace.n_pages()).sum(),
                ),
                ("fleet.gauge.pril_buffered", sum(|s| s.pril_buffered)),
                (
                    "fleet.gauge.pril_capacity",
                    shards * config.engine.write_buffer_capacity as u64,
                ),
                ("fleet.gauge.shards_done", shards),
            ] {
                let last = registry.series(name).last().copied();
                assert_eq!(last, Some((fleet.epoch(), want)), "jobs {jobs}: {name}");
            }
        }
    }

    #[test]
    fn recover_refuses_an_epoch_log_that_disagrees_with_the_clock() {
        let mut config = FleetConfig::small(2, 0x106);
        let dir = store::scratch_dir("fleet-bad-epoch-log");
        config.store_dir = Some(dir.clone());
        let plan = FleetPlan::expand(&config, 1);
        // The store counts its opens and publishes too.
        let _ = collect(|| {
            {
                let mut fleet = Fleet::new(&plan);
                assert!(fleet.run_epoch(1));
                assert!(fleet.run_epoch(1));
            }
            let (_, found) = Store::open(&dir, config.durability, None).unwrap();
            let mut image = FleetMeta::default();
            codec::decode(
                &found.snapshot.payload,
                &mut image,
                "image",
                FleetMeta::fields,
            )
            .unwrap();
            let mut short = image.clone();
            short.entries.pop();
            let mut renumbered = image;
            renumbered.entries.swap(0, 1);
            for (what, mut bad) in [("short", short), ("renumbered", renumbered)] {
                let (mut store, _) = Store::open(&dir, config.durability, None).unwrap();
                store
                    .publish_snapshot(&codec::encode(&mut bad, FleetMeta::fields))
                    .unwrap();
                drop(store);
                assert!(
                    matches!(
                        Fleet::recover(&plan, 1),
                        Err(StoreError::Corrupt(msg)) if msg.contains("epoch log")
                    ),
                    "a {what} epoch log must be refused"
                );
            }
        });
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_refuses_a_plan_other_than_the_checkpointed_one() {
        let mut config = FleetConfig::small(3, 0x5EED);
        let reference = reference_emit(&FleetPlan::expand(&config, 1));
        let dir = store::scratch_dir("fleet-recover-changed-plan");
        config.store_dir = Some(dir.clone());
        let plan = FleetPlan::expand(&config, 1);
        let _ = collect(|| {
            let mut fleet = Fleet::new(&plan);
            assert!(fleet.run_epoch(1));
        });
        let mut quantum = config.clone();
        quantum.engine = quantum.engine.with_quantum_ms(512.0);
        let mut epoch = config.clone();
        epoch.epoch_quanta = 1;
        let mut seed = config.clone();
        seed.seed ^= 1;
        let mut fewer = config.clone();
        fewer.nodes = 2;
        let mut more = config.clone();
        more.nodes = 4;
        for (what, changed) in [
            ("engine quantum", quantum),
            ("epoch length", epoch),
            ("seed (other traces)", seed),
            ("shard count (fewer)", fewer),
            ("shard count (more)", more),
        ] {
            let changed = FleetPlan::expand(&changed, 1);
            assert!(
                matches!(
                    collect(|| Fleet::recover(&changed, 1)).0,
                    Err(StoreError::Corrupt(_))
                ),
                "a changed {what} must be refused"
            );
        }
        let (report, _) = collect(|| {
            let (mut fleet, rec) = Fleet::recover(&plan, 1).expect("the matching plan recovers");
            assert_eq!(rec.shards_recovered, 3);
            fleet.run_to_completion(1)
        });
        assert_eq!(report.deterministic_emit(), reference);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_refuses_a_storeless_config_and_a_finished_fleet() {
        let mut config = FleetConfig::small(2, 8);
        let plan = FleetPlan::expand(&config, 1);
        assert!(matches!(
            Fleet::recover(&plan, 1),
            Err(StoreError::Unsupported(_))
        ));
        let dir = store::scratch_dir("fleet-recover-finished");
        config.store_dir = Some(dir.clone());
        let plan = FleetPlan::expand(&config, 1);
        let (recovered, _) = collect(|| {
            let _ = Fleet::new(&plan).run_to_completion(1);
            Fleet::recover(&plan, 1)
        });
        assert!(
            matches!(recovered, Err(StoreError::Unsupported(_))),
            "a finished fleet must refuse to resume"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
