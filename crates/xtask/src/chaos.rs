//! `xtask chaos` — the seeded fault-injection soak gate.
//!
//! Each soak plan is one [`FaultPlan`] (every site armed at a moderate
//! rate) driven through two independent legs:
//!
//! * **MEMCON leg** — the fig9-style workload set (all twelve profiles)
//!   runs through one [`MemconEngine`] per workload, fanned out across the
//!   [`memutil::par`] pool at `--jobs 1` and `--jobs 4` under fresh
//!   telemetry registries. The gate asserts: no panic, zero
//!   `uncorrectable_escapes`, the refresh-correctness invariant holds on
//!   every engine, the plan actually fired, and both the per-engine
//!   stats and the telemetry `deterministic` sections are byte-identical
//!   across worker counts.
//! * **memsim leg** — a controller under dense test traffic, and a
//!   4-core [`memsim::system::System`] mix (32 Gb, 75 % refresh
//!   reduction, 256 injected tests) whose cores, injector and
//!   refresh-blackout skip run as in the figures, each with the same plan,
//!   its command bus recorded and replayed through the offline
//!   [`memsim::protocol::ProtocolChecker::audit`]. Each faults-off control
//!   run must audit clean; every injected `tRRD`/`tFAW` violation must be
//!   flagged by the audit (detection completeness).
//!
//! `chaos health` is the observable variant of the soak: a faulted fleet
//! runs with the SLO monitor armed, the gate asserts prompt alerting
//! (within two epochs of the first injected fault), dumps the
//! `memcon-flightrec/v1` flight record, and byte-compares the series and
//! alert log across worker counts; `--serve` exposes the live scrape
//! endpoint while it runs.
//!
//! `chaos overhead` is the faults-disabled cost gate: it measures the
//! `evaluate_module_1bank` kernel with no plan installed against a
//! zero-rate plan installed (the injector's worst idle case — gate check
//! plus keyed-hash draw, nothing firing), in alternating rounds with the
//! same noise philosophy as `obs overhead`, and fails when every round
//! shows both the median and the minimum more than 2 % apart.

use std::sync::Arc;

use faultinject::{FaultPlan, FaultSession, Site, SiteSpec};
use memcon::config::MemconConfig;
use memcon::engine::{EngineStats, MemconEngine};
use memcon::refreshmgr::PageState;
use memsim::protocol::ProtocolViolation;
use memtrace::workload::WorkloadProfile;
use memutil::json::Json;

/// Base seed of soak plan `i` (plan seed = base + i).
const PLAN_SEED_BASE: u64 = 0xC4A0_5000;

/// Entry point for `xtask chaos <args>`; returns a process exit code.
#[must_use]
pub fn chaos_cmd(args: &[String]) -> i32 {
    if args.first().map(String::as_str) == Some("overhead") {
        return overhead_cmd();
    }
    if args.first().map(String::as_str) == Some("health") {
        return health_cmd(&args[1..]);
    }
    let (plans, flags) = match crate::parse_plans(
        "chaos",
        args,
        &["--quick"],
        "--plans N, --quick, health, overhead",
    ) {
        Ok(parsed) => parsed,
        Err(code) => return code,
    };
    let quick = !flags.is_empty();
    if crate::run_plans("chaos", "plan", plans, PLAN_SEED_BASE, |seed| {
        soak_plan(seed, quick)
    }) {
        println!("chaos: all {plans} plan(s) passed");
        0
    } else {
        eprintln!("chaos: FAILED");
        1
    }
}

/// An all-sites plan at moderate rates: high enough that a quick soak
/// still fires every layer, low enough that most tests complete.
fn chaos_plan(seed: u64) -> Arc<FaultPlan> {
    Arc::new(
        FaultPlan::new(seed)
            .with_site(Site::SimCmdDrop, SiteSpec::rate(0.05))
            .with_site(Site::SimCmdDup, SiteSpec::rate(0.05))
            .with_site(Site::SimTimingViolation, SiteSpec::rate(0.05))
            .with_site(Site::SimRefreshOverrun, SiteSpec::rate(0.20))
            .with_site(Site::DramBitFlip, SiteSpec::rate(0.01))
            .with_site(Site::DramVrt, SiteSpec::rate(0.01))
            .with_site(Site::TestPreempt, SiteSpec::rate(0.10))
            .with_site(Site::TornRead, SiteSpec::rate(0.10))
            .with_site(Site::OracleDisagree, SiteSpec::rate(0.10))
            .with_site(Site::EccCorrectable, SiteSpec::rate(0.20))
            .with_site(Site::EccUncorrectable, SiteSpec::rate(0.05))
            // The store sites stay cold in this soak (no store attached)
            // but are armed so every registered site is covered; the
            // store's tests and `xtask crash` fire them on the snapshot
            // publish and open paths.
            .with_site(Site::StoreTornWrite, SiteSpec::rate(0.02))
            .with_site(Site::StoreShortRead, SiteSpec::rate(0.05))
            .with_site(Site::StoreCorruptRecord, SiteSpec::rate(0.02)),
    )
}

/// What one engine run contributes to the cross-jobs comparison.
type EngineOutcome = (Result<(), String>, EngineStats, Vec<PageState>);

/// Runs both soak legs for one plan; `Ok` carries a one-line summary.
fn soak_plan(seed: u64, quick: bool) -> Result<String, String> {
    let plan = chaos_plan(seed);
    let scale = if quick { 0.01 } else { 0.05 };
    let traces: Vec<_> = WorkloadProfile::all()
        .into_iter()
        .map(|w| w.scaled(scale).generate(seed))
        .collect();

    // One engine per workload, each owning its plan (and therefore its
    // decision streams), fanned across the pool. The registry is fresh per
    // worker count so the deterministic sections compare exactly.
    let run_fleet = |jobs: usize| -> (String, Vec<EngineOutcome>) {
        let (results, registry) = telemetry::collect(|| {
            memutil::par::ordered_map_with(jobs, traces.len(), |i| {
                let mut engine =
                    MemconEngine::new(MemconConfig::paper_default(), traces[i].n_pages());
                engine.set_fault_plan(Some(Arc::clone(&plan)));
                let _ = engine.run(&traces[i]);
                (
                    engine.verify_refresh_correctness(),
                    engine.stats(),
                    engine.final_states().to_vec(),
                )
            })
        });
        (registry.deterministic().emit(), results)
    };
    let (det_seq, seq) = run_fleet(1);
    let (det_par, par) = run_fleet(4);

    for (i, (invariant, _, _)) in seq.iter().enumerate() {
        if let Err(e) = invariant {
            return Err(format!(
                "workload #{i}: refresh-correctness invariant violated: {e}"
            ));
        }
    }
    if seq != par {
        return Err(
            "engine stats / final refresh bins diverge between --jobs 1 and --jobs 4".to_string(),
        );
    }
    if det_seq != det_par {
        return Err(
            "telemetry deterministic sections diverge between --jobs 1 and --jobs 4".to_string(),
        );
    }
    let injected: u64 = seq
        .iter()
        .map(|(_, r, _)| r.faults_injected.iter().sum::<u64>())
        .sum();
    if injected == 0 {
        return Err("plan never fired in the MEMCON leg (soak proved nothing)".to_string());
    }
    let escapes: u64 = seq
        .iter()
        .map(|(_, r, _)| r.counters.uncorrectable_escapes)
        .sum();
    if escapes != 0 {
        return Err(format!(
            "{escapes} uncorrectable ECC error(s) escaped without pinning their page"
        ));
    }
    let degraded: u64 = seq.iter().map(|(_, r, _)| r.pin_events).sum();

    let memsim = memsim_leg(&plan, quick)?;
    Ok(format!(
        "{injected} engine faults, {degraded} rows degraded, 0 escapes, \
         jobs 1 vs 4 byte-identical; {memsim}"
    ))
}

/// Drives a faulted controller under dense test traffic, and a faulted
/// 4-core system, and audits each recorded command bus offline; the
/// faults-off control runs must stay clean.
fn memsim_leg(plan: &Arc<FaultPlan>, quick: bool) -> Result<String, String> {
    use dram::geometry::ChipDensity;
    use memsim::config::{RefreshPolicy, SystemConfig};
    use memsim::controller::MemoryController;
    use memsim::protocol::ProtocolChecker;
    use memsim::system::System;
    use memsim::testinject::{TestInjectConfig, TestTrafficInjector};
    use memtrace::cpu::spec_tpc_pool;

    let audit = |ctrl: &mut MemoryController| {
        let trace = ctrl.take_command_trace();
        ProtocolChecker::audit(*ctrl.timing(), ctrl.n_banks(), ctrl.trefi_cycles(), &trace)
    };

    let cycles: u64 = if quick { 120_000 } else { 400_000 };
    let cfg = SystemConfig::new(1, ChipDensity::Gb8, RefreshPolicy::baseline_16ms());
    // Much denser than the paper's Table-3 rates on purpose: back-to-back
    // activates are what give the tRRD/tFAW sites something to violate.
    let traffic = TestInjectConfig {
        concurrent_tests: 8192,
        window_ms: 64.0,
        read_blocks_per_test: 256,
        write_blocks_per_test: 128,
    };
    let drive = |session: Option<FaultSession>| {
        let mut ctrl = MemoryController::new(&cfg);
        ctrl.set_fault_session(session);
        ctrl.record_commands(true);
        let mut injector = TestTrafficInjector::new(
            traffic,
            ctrl.n_banks(),
            cfg.geometry.rows_per_bank,
            cfg.timing.tck_ns,
            11,
        );
        let mut next_id = 0;
        for now in 0..cycles {
            ctrl.tick(now);
            let _ = ctrl.drain_completions();
            injector.step(now, &mut ctrl, &mut next_id);
        }
        (ctrl.stats, audit(&mut ctrl))
    };
    let instructions: u64 = if quick { 100_000 } else { 200_000 };
    let run_system = |session: Option<FaultSession>| {
        let pool = spec_tpc_pool();
        let config = SystemConfig::new(
            4,
            ChipDensity::Gb32,
            RefreshPolicy::Reduced {
                baseline_interval_ms: 16.0,
                reduction: 0.75,
            },
        );
        let mut sys = System::new(config, vec![pool[0], pool[5], pool[10], pool[15]], 11)
            .with_test_injection(TestInjectConfig::read_and_compare(256));
        let ctrl = sys.controller_mut();
        ctrl.set_fault_session(session);
        ctrl.record_commands(true);
        let stats = sys.run(instructions).ctrl;
        (stats, audit(sys.controller_mut()))
    };

    let controller = memsim_gate("controller", plan, drive)?;
    let system = memsim_gate("system", plan, run_system)?;
    Ok(format!("memsim: {controller}; {system}"))
}

/// Runs one memsim leg without faults and under `plan`: the control run
/// must audit clean, the plan must fire, and the audit must flag every
/// forced-through `ACT`.
fn memsim_gate(
    what: &str,
    plan: &Arc<FaultPlan>,
    run: impl Fn(Option<FaultSession>) -> (memsim::controller::CtrlStats, Vec<ProtocolViolation>),
) -> Result<String, String> {
    let (_, control_violations) = run(None);
    if let Some(v) = control_violations.first() {
        return Err(format!(
            "memsim {what}: faults-off control run failed the audit: {v}"
        ));
    }
    let (stats, violations) = run(Some(FaultSession::with_plan(Arc::clone(plan))));
    let injected = stats.faults_dropped
        + stats.faults_duplicated
        + stats.faults_timing
        + u64::from(stats.faults_refresh_overrun_cycles > 0);
    if injected == 0 {
        return Err(format!(
            "plan never fired in the memsim {what} run (soak proved nothing)"
        ));
    }
    // Detection completeness: every forced-through ACT broke a rank
    // constraint at issue time, so the offline audit must flag each one.
    if (violations.len() as u64) < stats.faults_timing {
        return Err(format!(
            "memsim {what}: injected {} tRRD/tFAW violations but the offline audit flagged \
             only {}",
            stats.faults_timing,
            violations.len()
        ));
    }
    Ok(format!(
        "{what} {} dropped, {} duplicated, {} timing faults ({} flagged by audit), \
         {} overrun cycles",
        stats.faults_dropped,
        stats.faults_duplicated,
        stats.faults_timing,
        violations.len(),
        stats.faults_refresh_overrun_cycles
    ))
}

/// Maximum epochs the health monitor may lag the first injected fault
/// before the gate fails.
const ALERT_LAG_EPOCHS: u64 = 2;

/// `chaos health` — the observable chaos soak: a faulted fleet runs with
/// the SLO monitor armed (default rules plus a fault-activity rule over
/// `fleet.obs.faults_injected`); the gate asserts an alert fires within
/// [`ALERT_LAG_EPOCHS`] epochs of the first injected fault, writes the
/// `memcon-flightrec/v1` dump to `target/FLIGHTREC_chaos.json`, and
/// byte-compares the deterministic time-series and the alert log at
/// jobs 1 vs 4. `--serve[=ADDR]` additionally exposes the jobs-1 run's
/// registry and monitor on a live scrape endpoint while it runs.
fn health_cmd(args: &[String]) -> i32 {
    let mut serve: Option<String> = None;
    for arg in args {
        if arg == "--serve" {
            serve = Some("127.0.0.1:0".to_string());
        } else if let Some(addr) = arg.strip_prefix("--serve=") {
            serve = Some(addr.to_string());
        } else {
            eprintln!("chaos: unknown argument {arg:?} (expected --serve[=ADDR])");
            return 2;
        }
    }
    match health_soak(serve.as_deref()) {
        Ok(summary) => {
            println!("chaos: health soak: {summary}");
            0
        }
        Err(e) => {
            eprintln!("chaos: health soak FAILED: {e}");
            1
        }
    }
}

/// What one armed fleet run contributes to the jobs comparison and the
/// alert-latency check.
struct HealthRun {
    /// Serialized deterministic telemetry section (time-series included).
    det: String,
    /// Rendered alert lines in firing order.
    alerts: Vec<String>,
    /// Epoch of the first alert, if any.
    first_alert_epoch: Option<u64>,
    /// Epoch of the first nonzero `fleet.obs.faults_injected` delta.
    first_fault_epoch: Option<u64>,
    /// `memcon-flightrec/v1` dump taken at run end.
    flightrec: Json,
}

fn health_soak(serve: Option<&str>) -> Result<String, String> {
    let plan = chaos_plan(PLAN_SEED_BASE + 0x5EA1);
    let mut config = ::fleet::FleetConfig::small(8, 0x5E_A17B);
    config.fault_plan = Some(plan);

    let run = |jobs: usize| -> Result<HealthRun, String> {
        let (monitor, registry) = telemetry::collect(|| {
            let registry = telemetry::current();
            registry.set_timeseries_capacity(1024);
            let fleet_plan = ::fleet::FleetPlan::expand(&config, jobs);
            let mut fleet = ::fleet::Fleet::new(&fleet_plan);
            let mut monitor = telemetry::HealthMonitor::with_default_rules();
            monitor.add_rule(telemetry::health::Rule::delta_above(
                "fault-activity",
                telemetry::health::Severity::Warning,
                "fleet.obs.faults_injected",
                0,
            ));
            let monitor = Arc::new(std::sync::Mutex::new(monitor));
            fleet.set_health_monitor(Arc::clone(&monitor));
            // Live scrape endpoint over this run's registry + monitor; only
            // meaningful on the serial leg (the jobs-4 leg reruns the same
            // deterministic soak).
            let server = match (serve, jobs) {
                (Some(addr), 1) => {
                    let s =
                        telemetry::ScrapeServer::start(registry, Some(Arc::clone(&monitor)), addr)
                            .map_err(|e| format!("scrape endpoint: {e}"))?;
                    println!(
                        "chaos: scrape endpoint live at {} (METRICS | HEALTH | SERIES <name>)",
                        s.local_addr()
                    );
                    Some(s)
                }
                _ => None,
            };
            let _ = fleet.run_to_completion(jobs);
            if let Some(s) = server {
                s.shutdown();
            }
            Ok::<_, String>(monitor)
        });
        let monitor = monitor?;
        let det = registry.deterministic().emit();
        let first_fault_epoch = registry
            .series("fleet.obs.faults_injected")
            .iter()
            .find(|(_, v)| *v > 0)
            .map(|(t, _)| *t);
        // memlint: allow(no-unwrap): a poisoned monitor must fail the gate, not go silent
        let monitor = monitor.lock().expect("monitor poisoned");
        Ok(HealthRun {
            det,
            alerts: monitor
                .alerts()
                .iter()
                .map(telemetry::health::Alert::line)
                .collect(),
            first_alert_epoch: monitor.first_alert_epoch(),
            first_fault_epoch,
            flightrec: telemetry::flight_record(&registry, &monitor, 16),
        })
    };

    let serial = run(1)?;
    let parallel = run(4)?;
    if serial.det != parallel.det {
        return Err("telemetry deterministic sections diverge at jobs 1 vs 4".into());
    }
    if serial.alerts != parallel.alerts {
        return Err("health alert logs diverge at jobs 1 vs 4".into());
    }
    let first_fault = serial
        .first_fault_epoch
        .ok_or("plan never fired (health soak proved nothing)")?;
    let first_alert = serial
        .first_alert_epoch
        .ok_or("faults injected but the armed monitor never alerted")?;
    if first_alert > first_fault + ALERT_LAG_EPOCHS {
        return Err(format!(
            "monitor too slow: first fault at epoch {first_fault}, first alert at epoch \
             {first_alert} (allowed lag {ALERT_LAG_EPOCHS})"
        ));
    }
    let path = crate::workspace_root().join("target/FLIGHTREC_chaos.json");
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    std::fs::write(&path, serial.flightrec.emit() + "\n")
        .map_err(|e| format!("could not write {}: {e}", path.display()))?;
    Ok(format!(
        "first fault epoch {first_fault}, first alert epoch {first_alert} \
         (lag {} <= {ALERT_LAG_EPOCHS}), {} alert(s), jobs 1 vs 4 identical, \
         flight record at {}",
        first_alert.saturating_sub(first_fault),
        serial.alerts.len(),
        path.display()
    ))
}

/// Gates the installed-but-idle injector on the `evaluate_module_1bank`
/// kernel (see `kernel_overhead_gate`): a plan that arms the evaluation's
/// site at rate 0, so the gate check and the per-row keyed draw both run
/// and nothing ever fires — the injector's worst idle case.
fn overhead_cmd() -> i32 {
    let idle_plan =
        Arc::new(FaultPlan::new(0xC4A0).with_site(Site::DramBitFlip, SiteSpec::rate(0.0)));
    let idle = |measure: &mut dyn FnMut()| {
        let _guard = faultinject::install(Arc::clone(&idle_plan));
        measure();
    };
    crate::kernel_overhead_gate("chaos", "injector", &[("idle", &idle)])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_plan_arms_every_site() {
        let plan = chaos_plan(1);
        for site in Site::ALL {
            assert!(plan.site(site).is_some(), "{} not armed", site.name());
        }
    }

    #[test]
    fn plan_seeds_differ_per_index() {
        // Same site decisions under different seeds must diverge somewhere;
        // a constant plan would make `--plans N` meaningless.
        let a = chaos_plan(PLAN_SEED_BASE);
        let b = chaos_plan(PLAN_SEED_BASE + 1);
        let diverges = (0..10_000)
            .any(|i| a.fires(Site::EccCorrectable, i) != b.fires(Site::EccCorrectable, i));
        assert!(diverges);
    }
}
