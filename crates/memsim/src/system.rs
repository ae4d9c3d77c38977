//! System glue: cores + controller + refresh + test injection.
//!
//! [`System::run`] advances the whole machine cycle-by-cycle (DRAM
//! controller cycles; each covers 5 CPU cycles at Table-2 clocks) until
//! every core retires its instruction target, then reports per-core cycle
//! counts and IPC plus the DRAM statistics the experiments aggregate.
//!
//! The one exception is the rest of a refresh blackout in which nothing
//! can act: every core waits on an outstanding load at its window head
//! with nothing it can fetch, no completion or test emission falls due
//! before the blackout ends, and no rejected test request waits for
//! retry. Each of those cycles would only count a blackout cycle, so the
//! loop credits them in one step and resumes at the blackout's end.

use memtrace::cpu::{AccessTraceGenerator, CpuWorkloadProfile};

use crate::config::SystemConfig;
use crate::controller::{CtrlStats, MemoryController};
use crate::core::{AddressMap, OooCore};
use crate::request::{Completion, Requester};
use crate::testinject::{TestInjectConfig, TestTrafficInjector};

/// Results of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimStats {
    /// DRAM cycle at which each core reached its instruction target.
    pub per_core_cycles: Vec<u64>,
    /// Per-core IPC in CPU cycles.
    pub per_core_ipc: Vec<f64>,
    /// Controller statistics at the end of the run.
    pub ctrl: CtrlStats,
    /// Total DRAM cycles simulated.
    pub total_cycles: u64,
    /// Test requests injected (0 when injection is off).
    pub test_requests: u64,
}

impl SimStats {
    /// Arithmetic-mean per-core speedup of `self` over `baseline`
    /// (cycle-count ratio per core, averaged) — the metric Figs. 15/16
    /// report.
    ///
    /// # Panics
    ///
    /// Panics if core counts differ.
    #[must_use]
    pub fn speedup_over(&self, baseline: &SimStats) -> f64 {
        assert_eq!(
            self.per_core_cycles.len(),
            baseline.per_core_cycles.len(),
            "core-count mismatch"
        );
        let n = self.per_core_cycles.len() as f64;
        self.per_core_cycles
            .iter()
            .zip(&baseline.per_core_cycles)
            .map(|(&a, &b)| b as f64 / a as f64)
            .sum::<f64>()
            / n
    }
}

/// A complete simulated machine.
#[derive(Debug)]
pub struct System {
    config: SystemConfig,
    controller: MemoryController,
    cores: Vec<OooCore>,
    injector: Option<TestTrafficInjector>,
    next_id: u64,
    seed: u64,
    profiles: Vec<CpuWorkloadProfile>,
}

impl System {
    /// Builds a system running one profile per core.
    ///
    /// # Panics
    ///
    /// Panics if the profile count does not match `config.cores` or the
    /// configuration is invalid.
    #[must_use]
    pub fn new(config: SystemConfig, profiles: Vec<CpuWorkloadProfile>, seed: u64) -> Self {
        config.validate().expect("invalid system configuration");
        assert_eq!(
            profiles.len(),
            config.cores,
            "need exactly one profile per core"
        );
        let controller = MemoryController::new(&config);
        System {
            controller,
            cores: Vec::new(),
            injector: None,
            next_id: 0,
            seed,
            profiles,
            config,
        }
    }

    /// Enables MEMCON test-traffic injection (Table 3).
    #[must_use]
    pub fn with_test_injection(mut self, inject: TestInjectConfig) -> Self {
        let n_banks = self.controller.n_banks();
        self.injector = Some(TestTrafficInjector::new(
            inject,
            n_banks,
            self.config.geometry.rows_per_bank,
            self.config.timing.tck_ns,
            self.seed ^ 0xDEAD_BEEF,
        ));
        self
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The memory controller, e.g. to install a fault session or record
    /// its command bus before a run.
    pub fn controller_mut(&mut self) -> &mut MemoryController {
        &mut self.controller
    }

    fn build_cores(&mut self, instructions_per_core: u64) {
        let n_banks = self.controller.n_banks();
        let rows = self.config.geometry.rows_per_bank;
        self.cores = self
            .profiles
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let map = AddressMap {
                    n_banks,
                    rows_per_bank: rows,
                    // Spread cores across the row space to avoid aliasing.
                    row_base: (u64::from(rows) * i as u64 / self.profiles.len() as u64) as u32,
                };
                let gen = AccessTraceGenerator::new(
                    p,
                    self.config.geometry.blocks_per_row(),
                    self.seed.wrapping_add(i as u64 * 0x9E37_79B9),
                );
                OooCore::new(
                    i as u8,
                    gen,
                    map,
                    u64::from(self.config.window),
                    instructions_per_core,
                )
            })
            .collect();
    }

    /// Runs until every core retires `instructions_per_core` instructions.
    /// A system simulates one run: the clock starts at cycle 0 over the
    /// controller's fresh state, so a second run needs a fresh system.
    /// The system stays borrowable afterwards, e.g. to audit its recorded
    /// command bus.
    ///
    /// # Panics
    ///
    /// Panics if the system has already run, or if the run exceeds a
    /// generous safety bound (pathological IPC below ~0.01), indicating a
    /// deadlock bug rather than a slow workload.
    pub fn run(&mut self, instructions_per_core: u64) -> SimStats {
        assert!(
            self.cores.is_empty(),
            "a System runs once: its controller state is stamped with the first run's cycles, \
             so build a fresh System for each run"
        );
        let _run_span = telemetry::tree_span("memsim.run");
        self.build_cores(instructions_per_core);
        let budget = self.config.retire_budget_per_dram_cycle();
        let max_cycles = instructions_per_core.max(1_000) * 120;
        let mut now = 0u64;
        // Completions carry a future done_cycle (data-return time); hold
        // them until then so loads observe their real latency.
        let mut in_flight: Vec<Completion> = Vec::new();
        while now < max_cycles {
            self.controller.tick(now);
            in_flight.extend(self.controller.drain_completions());
            in_flight.retain(|c| {
                if c.done_cycle > now {
                    return true;
                }
                if let Requester::Core(id) = c.requester {
                    if !c.is_write {
                        self.cores[usize::from(id)].on_completion(c.id);
                    }
                }
                false
            });
            if let Some(inj) = &mut self.injector {
                inj.step(now, &mut self.controller, &mut self.next_id);
            }
            let mut all_done = true;
            for core in &mut self.cores {
                core.step(now, budget, &mut self.controller, &mut self.next_id);
                all_done &= core.done();
            }
            if all_done {
                break;
            }
            let end = self.controller.blackout_end().min(max_cycles);
            if now + 1 < end && self.idle_before(end, &in_flight) {
                self.controller.tick_blackout(now + 1, end);
                now = end;
            } else {
                now += 1;
            }
        }
        assert!(
            self.cores.iter().all(OooCore::done),
            "simulation exceeded {max_cycles} cycles without finishing — deadlock?"
        );
        let cpu_per_dram = self.config.cpu_cycles_per_dram_cycle();
        let per_core_cycles: Vec<u64> = self
            .cores
            .iter()
            .map(|c| c.finished_at.expect("all cores done") + 1)
            .collect();
        let per_core_ipc = per_core_cycles
            .iter()
            .map(|&c| instructions_per_core as f64 / (c * cpu_per_dram) as f64)
            .collect();
        let test_requests = self.injector.as_ref().map_or(0, |i| i.injected);
        if telemetry::enabled() {
            flush_ctrl_telemetry(&self.controller.stats, now, test_requests);
        }
        SimStats {
            per_core_cycles,
            per_core_ipc,
            ctrl: self.controller.stats,
            total_cycles: now,
            test_requests,
        }
    }

    /// Whether every cycle from the next one up to `end` would change
    /// nothing: each core is quiescent, no completion in `in_flight` falls
    /// due, and the injector has nothing to emit or retry.
    fn idle_before(&self, end: u64, in_flight: &[Completion]) -> bool {
        self.cores.iter().all(|c| c.quiescent(&self.controller))
            && in_flight.iter().all(|c| c.done_cycle >= end)
            && self.injector.as_ref().is_none_or(|i| i.idle_before(end))
    }
}

/// Folds one run's controller statistics into the current telemetry
/// registry. Everything here derives from simulated cycles, so the values
/// are deterministic; called once per [`System::run`] to keep the per-cycle
/// loop telemetry-free.
fn flush_ctrl_telemetry(stats: &CtrlStats, cycles: u64, injected: u64) {
    for (name, value) in [
        ("memsim.ctrl.reads", stats.reads),
        ("memsim.ctrl.writes", stats.writes),
        ("memsim.ctrl.acts", stats.acts),
        ("memsim.ctrl.column_accesses", stats.column_accesses),
        ("memsim.ctrl.refreshes", stats.refreshes),
        (
            "memsim.ctrl.refresh_blackout_cycles",
            stats.refresh_blackout_cycles,
        ),
        ("memsim.ctrl.rejected", stats.rejected),
        ("memsim.ctrl.trrd_stalls", stats.trrd_stalls),
        ("memsim.ctrl.tfaw_stalls", stats.tfaw_stalls),
        ("fault.memsim.cmd_drop", stats.faults_dropped),
        ("fault.memsim.cmd_dup", stats.faults_duplicated),
        ("fault.memsim.timing_violation", stats.faults_timing),
        (
            "fault.memsim.refresh_overrun",
            stats.faults_refresh_overrun_cycles,
        ),
    ] {
        telemetry::count(name, value);
    }
    telemetry::count("memsim.sim.cycles", cycles);
    telemetry::count("memsim.sim.test_requests", injected);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RefreshPolicy;
    use dram::geometry::ChipDensity;
    use memtrace::cpu::spec_tpc_pool;

    const INST: u64 = 200_000;

    fn run_with(policy: RefreshPolicy, density: ChipDensity, profile_idx: usize) -> SimStats {
        let config = SystemConfig::new(1, density, policy);
        let mut sys = System::new(config, vec![spec_tpc_pool()[profile_idx]], 7);
        sys.run(INST)
    }

    #[test]
    fn run_produces_sane_ipc() {
        let stats = run_with(RefreshPolicy::None, ChipDensity::Gb8, 0);
        assert_eq!(stats.per_core_cycles.len(), 1);
        let ipc = stats.per_core_ipc[0];
        assert!(ipc > 0.05 && ipc <= 4.0, "IPC {ipc}");
        assert!(stats.ctrl.reads > 0);
        assert!(stats.ctrl.writes > 0);
    }

    #[test]
    fn refresh_slows_execution() {
        // mcf (memory-intensive): the aggressive 16 ms baseline must cost
        // performance vs no refresh.
        let no_ref = run_with(RefreshPolicy::None, ChipDensity::Gb8, 0);
        let base = run_with(RefreshPolicy::baseline_16ms(), ChipDensity::Gb8, 0);
        assert!(
            base.per_core_cycles[0] > no_ref.per_core_cycles[0],
            "refresh should add cycles: {} vs {}",
            base.per_core_cycles[0],
            no_ref.per_core_cycles[0]
        );
        assert!(base.ctrl.refreshes > 0);
    }

    #[test]
    fn reduced_refresh_recovers_performance() {
        let base = run_with(RefreshPolicy::baseline_16ms(), ChipDensity::Gb32, 0);
        let reduced = run_with(
            RefreshPolicy::Reduced {
                baseline_interval_ms: 16.0,
                reduction: 0.75,
            },
            ChipDensity::Gb32,
            0,
        );
        let speedup = reduced.speedup_over(&base);
        assert!(
            speedup > 1.05,
            "75% refresh reduction at 32 Gb should speed up mcf, got {speedup}"
        );
    }

    #[test]
    fn denser_chips_suffer_more_from_refresh() {
        let cost = |d: ChipDensity| {
            let no_ref = run_with(RefreshPolicy::None, d, 0);
            let base = run_with(RefreshPolicy::baseline_16ms(), d, 0);
            base.per_core_cycles[0] as f64 / no_ref.per_core_cycles[0] as f64
        };
        let c8 = cost(ChipDensity::Gb8);
        let c32 = cost(ChipDensity::Gb32);
        assert!(
            c32 > c8,
            "32 Gb refresh cost ({c32}) should exceed 8 Gb ({c8})"
        );
    }

    #[test]
    fn four_core_run_completes() {
        let config = SystemConfig::new(4, ChipDensity::Gb8, RefreshPolicy::baseline_16ms());
        let pool = spec_tpc_pool();
        let mut sys = System::new(config, vec![pool[0], pool[4], pool[8], pool[12]], 11);
        let stats = sys.run(50_000);
        assert_eq!(stats.per_core_cycles.len(), 4);
        assert!(stats.per_core_ipc.iter().all(|&i| i > 0.0));
    }

    #[test]
    fn test_injection_adds_modest_overhead() {
        let config = SystemConfig::new(1, ChipDensity::Gb8, RefreshPolicy::baseline_16ms());
        let mut plain = System::new(config.clone(), vec![spec_tpc_pool()[0]], 7);
        let base = plain.run(INST);
        let mut injected = System::new(config, vec![spec_tpc_pool()[0]], 7)
            .with_test_injection(crate::testinject::TestInjectConfig::read_and_compare(256));
        let with_tests = injected.run(INST);
        assert!(with_tests.test_requests > 0);
        let slowdown = with_tests.per_core_cycles[0] as f64 / base.per_core_cycles[0] as f64 - 1.0;
        // Paper Table 3: ~0.5% at 256 tests; allow generous headroom but it
        // must stay small.
        assert!(
            (0.0..0.10).contains(&slowdown),
            "testing overhead {slowdown}"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run_with(RefreshPolicy::baseline_16ms(), ChipDensity::Gb8, 2);
        let b = run_with(RefreshPolicy::baseline_16ms(), ChipDensity::Gb8, 2);
        assert_eq!(a.per_core_cycles, b.per_core_cycles);
    }

    #[test]
    #[should_panic(expected = "a System runs once")]
    fn a_second_run_panics() {
        let config = SystemConfig::new(1, ChipDensity::Gb8, RefreshPolicy::baseline_16ms());
        let mut sys = System::new(config, vec![spec_tpc_pool()[0]], 7);
        let _ = sys.run(10_000);
        let _ = sys.run(10_000);
    }

    #[test]
    #[should_panic(expected = "one profile per core")]
    fn profile_count_must_match_cores() {
        let config = SystemConfig::four_core_baseline();
        let _ = System::new(config, vec![spec_tpc_pool()[0]], 0);
    }

    /// FNV-1a over the little-endian bytes of `words`, continuing `hash`.
    fn fnv1a(hash: u64, words: impl IntoIterator<Item = u64>) -> u64 {
        words
            .into_iter()
            .flat_map(u64::to_le_bytes)
            .fold(hash, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
            })
    }

    const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

    fn stats_hash(s: &SimStats) -> u64 {
        let CtrlStats {
            reads,
            writes,
            acts,
            column_accesses,
            refreshes,
            refresh_blackout_cycles,
            rejected,
            trrd_stalls,
            tfaw_stalls,
            faults_dropped,
            faults_duplicated,
            faults_timing,
            faults_refresh_overrun_cycles,
        } = s.ctrl;
        let h = fnv1a(FNV_OFFSET, s.per_core_cycles.iter().copied());
        let h = fnv1a(h, s.per_core_ipc.iter().map(|ipc| ipc.to_bits()));
        fnv1a(
            h,
            [
                reads,
                writes,
                acts,
                column_accesses,
                refreshes,
                refresh_blackout_cycles,
                rejected,
                trrd_stalls,
                tfaw_stalls,
                faults_dropped,
                faults_duplicated,
                faults_timing,
                faults_refresh_overrun_cycles,
                s.total_cycles,
                s.test_requests,
            ],
        )
    }

    fn commands_hash(trace: &[crate::protocol::CmdRecord]) -> u64 {
        trace.iter().fold(FNV_OFFSET, |h, r| {
            let bank = r.bank.map_or(u64::MAX, |b| b as u64);
            fnv1a(h, [r.cycle, bank, u64::from(r.row), r.command as u64])
        })
    }

    /// `(SimStats, command stream)` FNV-1a hashes of every case of
    /// `simulated_outputs_are_pinned`, in its loop order: the outputs of a
    /// loop that ticks every cycle and rescans every queue, which the
    /// blackout skip and the cached scheduling state must reproduce.
    const PINNED: [(u64, u64); 28] = [
        (0xB7E29D482A6AD1EC, 0x5CA3CBB0A6EE1B21),
        (0x9DA41E69387B7CEE, 0x8A12B4249581F040),
        (0xAD8224AB77357828, 0xBF106B6052C08AEA),
        (0x81F7152F28A93B49, 0x0EC43CD4FDE96A51),
        (0x972B89C090C24797, 0x81BA84DD2FC4589A),
        (0xC3CC6B3086A72ED1, 0xDDCF522740888CE2),
        (0x89E2F98AFD04A53E, 0xE80B7197DE0DCF86),
        (0x9154245CE57BB8BF, 0x384A5652C911380E),
        (0x336BA538635FDDB0, 0xEBFCA4CB2A5F1E96),
        (0x471F099F4D43190F, 0xCD43BE18DDB0333F),
        (0xC478D5D8FABDF193, 0xDC7056302DA42280),
        (0x7C6CCC7852448568, 0xD6FF6CE66BC5FB9B),
        (0xDA562AA6BCCE3DC9, 0x120C65B44E16EC57),
        (0x9159530516B04B37, 0x47CC5CBD8EC9A6BC),
        (0xD1059A2B469B74FA, 0xE654937F9C39E2A8),
        (0x6E5B21E825F2FECB, 0x99769FAB485BA1A3),
        (0x9A07ECC0CFDC5441, 0xF7A9F80290422996),
        (0x9EC127EB0B26234D, 0x393B9347903EC986),
        (0xE8AE39088BEA948E, 0xA7BCBC4789DAC19A),
        (0x38077144CC395E84, 0x410006AE1F79DD56),
        (0x4C3E1FADB6DB3E62, 0xAEAA88878C64936C),
        (0xB944B7F09DED0B81, 0x8E482F053AA00A4B),
        (0x43193903D7C646D4, 0x4718E7A6610CB9EC),
        (0x37901A87696F262E, 0x73A0FD2B67569479),
        (0xDF95A0C37B2CC9EC, 0x1CDAD3495924719C),
        (0x57C0EB3A382C55B1, 0x68C5E600F3DC5BF4),
        (0x23FF80E1A9CDA531, 0x82417E8C121197AB),
        (0x39AA5136FE00AB59, 0x8F66BEC978EA33AB),
    ];

    #[test]
    fn simulated_outputs_are_pinned() {
        use crate::testinject::TestInjectConfig;
        use faultinject::{FaultPlan, FaultSession, Site, SiteSpec};
        use std::sync::Arc;

        // Every site the controller draws in both builds (the timing
        // violation site is compiled out under strict invariants).
        let plan = Arc::new(
            FaultPlan::new(0x5EED)
                .with_site(Site::SimCmdDrop, SiteSpec::rate(0.05))
                .with_site(Site::SimCmdDup, SiteSpec::rate(0.5))
                .with_site(Site::SimRefreshOverrun, SiteSpec::rate(0.20)),
        );
        let reduced = RefreshPolicy::Reduced {
            baseline_interval_ms: 16.0,
            reduction: 0.75,
        };
        let mut cases = Vec::new();
        for density in [ChipDensity::Gb8, ChipDensity::Gb32] {
            for (policy, tests) in [
                (RefreshPolicy::baseline_16ms(), None),
                (reduced, Some(TestInjectConfig::read_and_compare(256))),
                (reduced, Some(TestInjectConfig::copy_and_compare(1024))),
            ] {
                cases.push((SystemConfig::new(4, density, policy), tests));
            }
        }
        // Eight rows per bank: test requests, drawn uniformly over the rows,
        // now land on an open row, so duplicated ones are open-row hits.
        let mut small = SystemConfig::new(4, ChipDensity::Gb8, reduced);
        small.geometry.rows_per_bank = 8;
        cases.push((small, Some(TestInjectConfig::copy_and_compare(1024))));
        let pool = spec_tpc_pool();
        let mut got = Vec::new();
        for (config, tests) in cases {
            for seed in [3, 1009] {
                for faulted in [false, true] {
                    let mix = vec![pool[0], pool[5], pool[10], pool[15]];
                    let mut sys = System::new(config.clone(), mix, seed);
                    if let Some(tests) = tests {
                        sys = sys.with_test_injection(tests);
                    }
                    if faulted {
                        let session = FaultSession::with_plan(Arc::clone(&plan));
                        sys.controller.set_fault_session(Some(session));
                    }
                    sys.controller.record_commands(true);
                    let stats = sys.run(100_000);
                    assert!(stats.ctrl.refreshes >= 6, "{config:?}");
                    let c = &stats.ctrl;
                    assert_eq!(
                        faulted,
                        c.faults_dropped > 0
                            && (tests.is_none() || c.faults_duplicated > 0)
                            && c.faults_refresh_overrun_cycles > 0,
                        "the plan must fire on every armed site"
                    );
                    let trace = sys.controller.take_command_trace();
                    got.push((stats_hash(&stats), commands_hash(&trace)));
                }
            }
        }
        for (i, (got, want)) in got.iter().zip(&PINNED).enumerate() {
            assert_eq!(got, want, "case {i}: (stats, commands) hashes moved");
        }
    }

    #[test]
    fn speedup_metric() {
        let a = SimStats {
            per_core_cycles: vec![100],
            per_core_ipc: vec![1.0],
            ctrl: CtrlStats::default(),
            total_cycles: 100,
            test_requests: 0,
        };
        let b = SimStats {
            per_core_cycles: vec![80],
            per_core_ipc: vec![1.25],
            ctrl: CtrlStats::default(),
            total_cycles: 80,
            test_requests: 0,
        };
        assert!((b.speedup_over(&a) - 1.25).abs() < 1e-12);
    }
}
