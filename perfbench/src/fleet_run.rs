//! `fleet`: 256 DIMM shards running Table-1 workloads with the rate
//! oracle, held in memory and stepped with `Fleet::run_epoch` to
//! completion.
//!
//! The traced run adds a durable leg: the identical fleet on a `Buffered`
//! store in the working directory, crashed at a seeded epoch barrier by
//! dropping it unfinished, recovered with `Fleet::recover` and resumed to
//! completion; the resumed report must be byte-identical to the in-memory
//! one. It gives the store layer's metrics. It is not timed end to end:
//! on a disk file system the store's per-epoch snapshot files make its
//! stepping time drift several-fold between back-to-back runs.

use std::path::{Path, PathBuf};
use std::time::Instant;

use fleet::{Fleet, FleetConfig, FleetPlan, FleetRecovery, FleetReport};
use telemetry::Class;

use crate::measure::{self, Checks, Metrics, Opts, Outcome, Unit};
use crate::trace::{self, Tracer, ROOT};

const NODES: u64 = 256;
/// Footprint scale and simulated window per node: ~10 M trace write
/// events over 55 one-quantum epochs.
const SCALE: f64 = 0.1;
const WINDOW_S: f64 = 56.0;
const SETUPS: usize = 5;
/// Epochs a run measures at least: ten beyond p99.
const MIN_EPOCHS: usize = 1_000;
/// Paper Fig. 14: MEMCON's refresh reduction across workloads.
const FIG14_BAND: (f64, f64) = (0.647, 0.745);

fn config(seed: u64) -> FleetConfig {
    let mut c = FleetConfig::small(NODES, seed);
    c.scale = SCALE;
    c.window_s = WINDOW_S;
    c.epoch_quanta = 1;
    c
}

/// One fleet run to completion.
struct FleetRun {
    wall_s: f64,
    /// Host time inside `run_epoch`, summed.
    epoch_s: f64,
    epoch_ms: Vec<f64>,
    report: FleetReport,
    verify: Result<(), String>,
    done: bool,
    crash: Option<Crash>,
}

/// What the crash-recover leg of a durable run saw.
struct Crash {
    epoch: u64,
    resumed_at: u64,
    disk_bytes: u64,
    recover_s: f64,
    recovery: FleetRecovery,
    meta_error: bool,
}

/// Steps `fleet` until epoch `until` (or completion), timing every epoch.
fn step(
    fleet: &mut Fleet,
    jobs: usize,
    tracer: &Tracer,
    until: Option<u64>,
    epoch_ms: &mut Vec<f64>,
) {
    while until.is_none_or(|e| fleet.epoch() < e) && !fleet.is_done() {
        let (_, s) = measure::timed(|| tracer.span("fleet.epoch", ROOT, |_| fleet.run_epoch(jobs)));
        epoch_ms.push(s * 1e3);
    }
}

/// Runs `plan` to completion; with `crash_at`, drops the fleet at that
/// epoch barrier, recovers it from `plan`'s store and resumes it.
fn run_fleet(
    plan: &FleetPlan,
    jobs: usize,
    tracer: &Tracer,
    crash_at: Option<u64>,
) -> Result<FleetRun, String> {
    let start = Instant::now();
    let mut fleet = tracer.span("fleet.new", ROOT, |_| Fleet::new(plan));
    let mut epoch_ms = Vec::new();
    let mut crash = None;
    if let Some(epoch) = crash_at {
        step(&mut fleet, jobs, tracer, Some(epoch), &mut epoch_ms);
        tracer.span("fleet.drop", ROOT, |_| drop(fleet));
        let dir = plan
            .config
            .store_dir
            .as_deref()
            .expect("durable plans name a store");
        let disk_bytes = dir_bytes(dir).map_err(|e| format!("size of {}: {e}", dir.display()))?;
        let (recovered, recover_s) =
            measure::timed(|| tracer.span("store.recover", ROOT, |_| Fleet::recover(plan, jobs)));
        let (resumed, recovery) = recovered.map_err(|e| format!("Fleet::recover: {e}"))?;
        fleet = resumed;
        crash = Some(Crash {
            epoch,
            resumed_at: fleet.epoch(),
            disk_bytes,
            recover_s,
            recovery,
            meta_error: false,
        });
    }
    step(&mut fleet, jobs, tracer, None, &mut epoch_ms);
    let report = tracer.span("fleet.report", ROOT, |_| fleet.report());
    let verify = tracer.span("fleet.verify", ROOT, |_| fleet.verify_refresh_correctness());
    let done = fleet.is_done();
    if let Some(crash) = crash.as_mut() {
        crash.meta_error = fleet.meta_store_error().is_some();
    }
    tracer.span("fleet.drop", ROOT, |_| drop(fleet));
    Ok(FleetRun {
        wall_s: start.elapsed().as_secs_f64(),
        epoch_s: epoch_ms.iter().sum::<f64>() / 1e3,
        epoch_ms,
        report,
        verify,
        done,
        crash,
    })
}

fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

/// The durable run's store root: created fresh for the run, refused if it
/// already exists, removed when the run ends, also when it fails.
struct StoreRoot(PathBuf);

impl StoreRoot {
    fn create() -> Result<StoreRoot, String> {
        let root = Path::new(measure::OUT_DIR).join(format!("store-{}", std::process::id()));
        if root.exists() {
            return Err(format!("store directory {} already exists", root.display()));
        }
        std::fs::create_dir_all(&root).map_err(|e| format!("create {}: {e}", root.display()))?;
        Ok(StoreRoot(root))
    }

    /// The fleet's store directory inside the root; each fleet run
    /// removes it afterwards so the next one starts fresh.
    fn fleet_dir(&self) -> PathBuf {
        self.0.join("fleet")
    }

    fn clear(&self) -> Result<(), String> {
        let dir = self.fleet_dir();
        match std::fs::remove_dir_all(&dir) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(format!("remove {}: {e}", dir.display())),
        }
    }
}

impl Drop for StoreRoot {
    fn drop(&mut self) {
        // Errors cannot be returned from here; a leftover directory is
        // reported by the next run refusing it.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let jobs = opts.jobs;
    let tracer = Tracer::new();
    let config = config(opts.seed);

    // Set-up, repeated: trace synthesis plus fleet construction. The last
    // plan is the one the units run.
    let mut synth_s = Vec::new();
    let mut new_s = Vec::new();
    let mut plan = None;
    for _ in 0..SETUPS {
        // Free the previous plan before synthesizing the next.
        drop(plan.take());
        let build = || {
            let (plan, synth) = measure::timed(|| {
                tracer.span("memtrace.expand", ROOT, |_| {
                    FleetPlan::expand(&config, jobs)
                })
            });
            let (fleet, new) =
                measure::timed(|| tracer.span("fleet.new", ROOT, |_| Fleet::new(&plan)));
            tracer.span("fleet.drop", ROOT, |_| drop(fleet));
            (plan, synth, new)
        };
        let (built, synth, new) = if opts.traced {
            tracer.window(build)
        } else {
            build()
        };
        synth_s.push(synth);
        new_s.push(new);
        plan = Some(built);
    }
    let plan = plan.expect("at least one set-up");
    let setup_s: Vec<f64> = synth_s.iter().zip(&new_s).map(|(a, b)| a + b).collect();
    let events = plan
        .shards
        .iter()
        .map(|s| s.trace.len() as u64)
        .sum::<u64>() as f64;
    let epochs = plan
        .shards
        .iter()
        .map(|s| s.trace.duration_ns())
        .max()
        .unwrap_or(0)
        .div_ceil((config.engine.quantum_ms * 1e6) as u64 * config.epoch_quanta);

    let mut checks = Checks::default();
    let mut first_emit: Option<String> = None;
    let min_units = MIN_EPOCHS.div_ceil(epochs.max(1) as usize);
    let units = measure::repeat(opts, min_units, &tracer, |_| {
        let run =
            run_fleet(&plan, jobs, &tracer, None).expect("an in-memory fleet run cannot fail");
        check_run(&mut checks, &run, &mut first_emit);
        run
    });

    let untraced = measure::of_kind(&units, false);
    let last = &units.last().expect("at least one unit").out;
    let mut out = Outcome {
        checks,
        metrics: Metrics::new(),
        lines: vec![
            format!(
                "fleet: {NODES} DIMMs, {events} trace write events, {epochs} epochs, {} units, jobs {jobs}",
                units.len()
            ),
            format!(
                "refresh_reduction (simulated) {:.6} - paper Fig. 14 band {:.1}-{:.1} %",
                last.report.refresh_reduction,
                FIG14_BAND.0 * 100.0,
                FIG14_BAND.1 * 100.0
            ),
        ],
        tracer: None,
        store_fs: None,
    };
    let m = &mut out.metrics;
    if opts.traced {
        let traced = measure::of_kind(&units, true);
        layer_metrics(m, &traced, jobs);
        m.insert("memtrace.synth_s", trace::median(&synth_s));
        m.insert(
            "memtrace.ns_per_event",
            trace::median(&synth_s) * 1e9 / events,
        );
        m.insert("fleet.new_s", trace::median(&new_s));
        let walls: Vec<(bool, f64)> = units.iter().map(|u| (u.traced, u.out.wall_s)).collect();
        m.insert("telemetry.overhead_ratio", measure::overhead_ratio(&walls));
        let memory_epoch_s = measure::median_of(&untraced, |u| u.out.epoch_s);
        let reference = first_emit.expect("at least one unit was checked");
        durable_leg(opts, &plan, epochs, &reference, memory_epoch_s, &mut out)?;
        out.tracer = Some(tracer);
    } else {
        let tail = trace::tail_percentile(MIN_EPOCHS).expect("enough epochs for a tail");
        let epoch_ms: Vec<f64> = untraced
            .iter()
            .flat_map(|u| u.out.epoch_ms.iter().copied())
            .collect();
        m.insert("setup_s", trace::median(&setup_s));
        m.insert(
            "events_per_s",
            measure::median_of(&untraced, |u| events / u.out.epoch_s),
        );
        m.insert("epoch_ms_p50", trace::percentile(&epoch_ms, 50.0));
        m.insert("epoch_ms_tail", trace::percentile(&epoch_ms, tail));
        out.lines.push(format!(
            "events are trace write events; epoch_ms_tail is p{tail} of {} epochs",
            epoch_ms.len()
        ));
    }
    Ok(out)
}

/// The durable leg of a traced run: the same fleet on a `Buffered` store,
/// crashed at a seeded epoch barrier, recovered and resumed, twice: once
/// with telemetry disabled for its times, once enabled for its counts.
fn durable_leg(
    opts: &Opts,
    plan: &FleetPlan,
    epochs: u64,
    reference: &str,
    memory_epoch_s: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    let store = StoreRoot::create()?;
    let fs = measure::fs_type(&store.0);
    let mut plan = plan.clone();
    plan.config.store_dir = Some(store.fleet_dir());
    // A barrier after the first epoch and before the last, chosen by the seed.
    let crash_at = 1 + opts.seed % epochs.saturating_sub(2).max(1);
    let untraced = Tracer::new();
    let timed = run_fleet(&plan, opts.jobs, &untraced, Some(crash_at));
    store.clear()?;
    let timed = timed?;
    let registry = std::sync::Arc::new(telemetry::Registry::new());
    registry.set_enabled(true);
    let counted = {
        let _scope = telemetry::install(std::sync::Arc::clone(&registry));
        run_fleet(&plan, opts.jobs, &untraced, Some(crash_at))
    };
    store.clear()?;
    let counted = counted?;
    for run in [&timed, &counted] {
        check_durable(&mut out.checks, run, reference);
    }
    let crash = counted.crash.as_ref().expect("durable runs crash");
    let recovery = &crash.recovery;
    let recover_s = timed.crash.as_ref().map_or(0.0, |c| c.recover_s);
    let events = plan
        .shards
        .iter()
        .map(|s| s.trace.len() as u64)
        .sum::<u64>() as f64;
    let added = (timed.epoch_s - memory_epoch_s) * 1e9 / events;
    let count = |name: &str| registry.counter(name, Class::Deterministic).get() as f64;
    let m = &mut out.metrics;
    for name in [
        "store.wal.appends",
        "store.wal.bytes",
        "store.snap.published",
    ] {
        m.insert(name, count(name));
    }
    m.insert("store.disk_bytes", crash.disk_bytes as f64);
    m.insert("store.recovery.shards", recovery.shards_recovered as f64);
    m.insert(
        "store.recovery.replayed_records",
        recovery.replayed_records as f64,
    );
    m.insert(
        "store.recovery.truncated_bytes",
        recovery.truncated_bytes as f64,
    );
    m.insert("recover_s", recover_s);
    m.insert("store.added_ns_per_event", added);
    out.lines.push(format!(
        "durable leg ({fs}): crash at epoch {crash_at}, store {} bytes, recover {recover_s:.6} s, \
         stepping {:.6} s vs {memory_epoch_s:.6} s in memory ({added:.1} ns/event added)",
        crash.disk_bytes, timed.epoch_s
    ));
    out.store_fs = Some(fs);
    Ok(())
}

fn check_run(checks: &mut Checks, run: &FleetRun, first_emit: &mut Option<String>) {
    let report = &run.report;
    checks.check(run.verify.is_ok(), || {
        format!("refresh correctness: {:?}", run.verify)
    });
    checks.check(report.uncorrectable_escapes == 0, || {
        format!("{} uncorrectable escapes", report.uncorrectable_escapes)
    });
    checks.check(run.done && report.shards.len() as u64 == NODES, || {
        format!("{} of {NODES} shards done", report.shards.len())
    });
    checks.check(
        (FIG14_BAND.0..=FIG14_BAND.1).contains(&report.refresh_reduction),
        || {
            format!(
                "refresh reduction {} outside the Fig. 14 band",
                report.refresh_reduction
            )
        },
    );
    let emit = report.deterministic_emit();
    let first = first_emit.get_or_insert_with(|| emit.clone());
    checks.check(*first == emit, || {
        "fleet report differs between units".to_string()
    });
}

/// A resumed durable run must report exactly what the in-memory fleet did.
fn check_durable(checks: &mut Checks, run: &FleetRun, reference: &str) {
    let crash = run.crash.as_ref().expect("durable runs crash");
    checks.check(run.report.deterministic_emit() == reference, || {
        "resumed fleet report differs from the in-memory fleet's".to_string()
    });
    checks.check(
        crash.resumed_at == crash.epoch
            && crash.recovery.shards_recovered == NODES
            && !crash.meta_error,
        || {
            format!(
                "recovery resumed at epoch {} (crashed at {}), {} shards, meta error {}",
                crash.resumed_at, crash.epoch, crash.recovery.shards_recovered, crash.meta_error
            )
        },
    );
}

/// Per-layer metrics of the traced in-memory units: medians over units;
/// counts are deterministic and read from the last traced unit.
fn layer_metrics(m: &mut Metrics, traced: &[&Unit<FleetRun>], jobs: usize) {
    let last = traced.last().expect("traced runs have traced units");
    let shard_step_s = |u: &Unit<FleetRun>| {
        u.registry.as_ref().map_or(0.0, |r| {
            r.histogram(
                "fleet.step.latency_us",
                Class::Timing,
                &fleet::engine::STEP_LATENCY_EDGES_US,
            )
            .sum() as f64
                / 1e6
        })
    };
    let epoch_s = measure::median_of(traced, |u| u.out.epoch_s);
    let step_s = measure::median_of(traced, shard_step_s);
    let writes = last.count("memcon.pril.writes");
    m.insert("fleet.epoch_s", epoch_s);
    m.insert("fleet.shard_step_s", step_s);
    m.insert(
        "fleet.parallel_efficiency",
        step_s / (epoch_s * jobs as f64),
    );
    m.insert(
        "fleet.shard_step_us_p50",
        measure::median_of(traced, |u| u.out.report.step_latency.p50_ns as f64 / 1e3),
    );
    m.insert(
        "fleet.shard_step_us_p99",
        measure::median_of(traced, |u| u.out.report.step_latency.p99_ns as f64 / 1e3),
    );
    m.insert("memutil.par.steal_ratio", measure::steal_ratio(traced));
    m.insert(
        "memcon.ns_per_write",
        if writes > 0.0 {
            step_s * 1e9 / writes
        } else {
            0.0
        },
    );
    for name in [
        "memcon.pril.writes",
        "memcon.pril.candidates",
        "memcon.pril.overflowed",
        "memcon.tests.started",
        "memcon.tests.aborted",
    ] {
        m.insert(name, last.count(name));
    }
    m.insert(
        "memcon.refresh.transitions",
        [
            "memcon.refresh.to_hi",
            "memcon.refresh.to_testing",
            "memcon.refresh.to_lo",
        ]
        .iter()
        .map(|n| last.count(n))
        .sum(),
    );
    let report = &last.out.report;
    let tests = (report.tests_correct + report.tests_mispredicted) as f64;
    m.insert(
        "memcon.tests.mispredicted_ratio",
        if tests > 0.0 {
            report.tests_mispredicted as f64 / tests
        } else {
            0.0
        },
    );
    m.insert("refresh_reduction", report.refresh_reduction);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(reduction_ops: f64) -> FleetRun {
        let summary = fleet::ShardSummary {
            node: 0,
            profile: "Netflix".to_string(),
            n_pages: 64,
            done_epoch: 3,
            refresh_reduction: 0.7,
            lo_coverage: 0.9,
            refresh_ops: reduction_ops,
            baseline_ops: 100.0,
            tests_correct: 5,
            tests_mispredicted: 0,
            failing_tests: 0,
            final_hi_pages: 1,
            faults_injected: 0,
            uncorrectable_escapes: 0,
        };
        FleetRun {
            wall_s: 0.0,
            epoch_s: 0.0,
            epoch_ms: Vec::new(),
            report: FleetReport::new(
                NODES,
                1,
                3,
                1,
                vec![summary; NODES as usize],
                Default::default(),
            ),
            verify: Ok(()),
            done: true,
            crash: Some(Crash {
                epoch: 2,
                resumed_at: 2,
                disk_bytes: 0,
                recover_s: 0.0,
                recovery: FleetRecovery {
                    shards_recovered: NODES,
                    ..FleetRecovery::default()
                },
                meta_error: false,
            }),
        }
    }

    #[test]
    fn a_wrong_fleet_output_is_counted_as_a_failure() {
        let mut checks = Checks::default();
        let mut first = None;
        check_run(&mut checks, &run(30.0), &mut first);
        assert_eq!((checks.attempted, checks.failed), (5, 0));
        // One deliberately wrong output: a fleet refreshing as much as the
        // baseline, outside the Fig. 14 band and unlike the first unit.
        check_run(&mut checks, &run(100.0), &mut first);
        assert_eq!((checks.attempted, checks.failed), (10, 2));
    }

    #[test]
    fn a_resumed_report_unlike_the_reference_is_counted_as_a_failure() {
        let reference = run(30.0).report.deterministic_emit();
        let mut checks = Checks::default();
        check_durable(&mut checks, &run(30.0), &reference);
        assert_eq!(checks.failed, 0);
        check_durable(&mut checks, &run(31.0), &reference);
        assert_eq!((checks.attempted, checks.failed), (4, 1));
    }

    #[test]
    fn the_store_root_is_fresh_and_removed_afterwards() {
        let root = StoreRoot::create().unwrap();
        let path = root.0.clone();
        std::fs::create_dir_all(root.fleet_dir()).unwrap();
        assert!(
            StoreRoot::create().is_err(),
            "an existing store directory is refused"
        );
        drop(root);
        assert!(!path.exists(), "the store directory is removed on drop");
    }
}
