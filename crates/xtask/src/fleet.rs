//! `xtask fleet` — fleet-scale simulation driver and CI gates.
//!
//! * `fleet run` — expand and run a fleet, printing the roll-up summary
//!   (or the full `memcon-fleet/v1` JSON with `--json`).
//! * `fleet bench` — the scaling gate: one 64-DIMM fleet stepped at
//!   `--jobs 1` and `--jobs 4`; on hosts with ≥ 4 CPUs the parallel run
//!   must be ≥ 2.5× faster (explicitly marked `gate skipped (cpus=N)`
//!   elsewhere). Both runs must also be byte-identical, so the gate
//!   doubles as a determinism check. The outcome lands in
//!   `target/FLEET_bench.json` (`memcon-fleetbench/v1`) with the gate
//!   disposition recorded as `passed` / `failed` / `skipped`.
//! * `fleet soak` — chaos soak: seeded all-site fault plans over a fleet,
//!   asserting no panic, zero uncorrectable escapes, refresh-correctness
//!   on every shard, and jobs 1-vs-4 byte-identical results.
//! * `fleet --smoke` — the quick CI leg: a small fleet (fault-free and
//!   faulted) byte-diffed at jobs 1 vs 3 and 1 vs 4, fleet report and
//!   telemetry deterministic section both.

use std::sync::Arc;

use ::fleet::engine::run_fleet;
use ::fleet::{FleetConfig, FleetReport};
use faultinject::FaultPlan;

/// Base seed of fleet soak plan `i` (plan seed = base + i).
const PLAN_SEED_BASE: u64 = 0xF1EE_7000;

/// Required jobs-4-over-jobs-1 speedup of the 64-DIMM bench on hosts with
/// at least [`GATE_MIN_CPUS`] CPUs.
const GATE_SPEEDUP: f64 = 2.5;

/// CPU count below which the bench speedup gate is informational only.
const GATE_MIN_CPUS: usize = 4;

/// Schema tag of the `fleet bench` JSON report written to
/// `target/FLEET_bench.json`.
const FLEET_BENCH_SCHEMA: &str = "memcon-fleetbench/v1";

/// Entry point for `xtask fleet <args>`; returns a process exit code.
#[must_use]
pub fn fleet_cmd(args: &[String]) -> i32 {
    match args.first().map(String::as_str) {
        Some("--smoke") => smoke_cmd(),
        Some("run") => run_cmd(&args[1..]),
        Some("bench") => bench_cmd(),
        Some("soak") => soak_cmd(&args[1..]),
        other => {
            eprintln!("fleet: unknown subcommand {other:?} (expected run, bench, soak, --smoke)");
            2
        }
    }
}

/// Runs `config` at `jobs` under [`telemetry::collect`] and returns the
/// report plus the byte-stable pair the determinism gates compare: (fleet
/// report deterministic section, telemetry deterministic section).
fn run_instrumented(config: &FleetConfig, jobs: usize) -> (FleetReport, String, String) {
    let (report, registry) = telemetry::collect(|| run_fleet(config, jobs));
    let report_det = report.deterministic_emit();
    (report, report_det, registry.deterministic().emit())
}

fn print_summary(report: &FleetReport) {
    println!(
        "fleet: {} shards, {} epochs x {} quanta, seed {:#x}",
        report.shards_total, report.epochs, report.epoch_quanta, report.seed
    );
    println!(
        "fleet: refresh reduction {:.2}% (ops {:.0} vs baseline {:.0}), lo coverage {:.2}%",
        report.refresh_reduction * 100.0,
        report.refresh_ops,
        report.baseline_ops,
        report.lo_coverage * 100.0
    );
    println!(
        "fleet: tests {} correct / {} mispredicted, {} failing, {} final hi pages, {} faults",
        report.tests_correct,
        report.tests_mispredicted,
        report.failing_tests,
        report.final_hi_pages,
        report.faults_injected
    );
    let lat = &report.step_latency;
    println!(
        "fleet: step latency over {} samples: p50 {}us p99 {}us max {}us",
        lat.samples,
        lat.p50_ns / 1_000,
        lat.p99_ns / 1_000,
        lat.max_ns / 1_000
    );
}

fn run_cmd(args: &[String]) -> i32 {
    let mut nodes = 64u64;
    let mut seed = 0xF1EE7u64;
    let mut jobs = 0usize;
    let mut json = false;
    let mut faults = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let take = |it: &mut std::slice::Iter<'_, String>, what: &str| {
            let v = it.next().and_then(|v| v.parse::<u64>().ok());
            if v.is_none() {
                eprintln!("fleet: {what} expects a number");
            }
            v
        };
        match arg.as_str() {
            "--nodes" => match take(&mut it, "--nodes") {
                Some(n) => nodes = n,
                None => return 2,
            },
            "--seed" => match take(&mut it, "--seed") {
                Some(s) => seed = s,
                None => return 2,
            },
            "--jobs" => match take(&mut it, "--jobs") {
                Some(j) => jobs = j as usize,
                None => return 2,
            },
            "--json" => json = true,
            "--faults" => faults = true,
            other => {
                eprintln!(
                    "fleet: unknown argument {other:?} \
                     (expected --nodes N, --seed S, --jobs J, --json, --faults)"
                );
                return 2;
            }
        }
    }
    let mut config = FleetConfig::small(nodes, seed);
    if faults {
        config.fault_plan = Some(soak_plan(PLAN_SEED_BASE));
    }
    if let Err(e) = config.validate() {
        eprintln!("fleet: invalid configuration: {e}");
        return 2;
    }
    let (report, _, _) = run_instrumented(&config, jobs);
    if json {
        println!("{}", report.to_json().emit());
    } else {
        print_summary(&report);
    }
    if report.uncorrectable_escapes > 0 {
        eprintln!(
            "fleet: FAILED: {} uncorrectable escapes",
            report.uncorrectable_escapes
        );
        return 1;
    }
    0
}

/// An all-sites fault plan at a moderate rate (the chaos-soak shape).
fn soak_plan(seed: u64) -> Arc<FaultPlan> {
    Arc::new(FaultPlan::uniform(seed, 0.05))
}

/// Worker counts the smoke leg byte-compares against jobs 1. Three
/// workers split the 8-shard fleet into uneven ranges.
const SMOKE_JOBS: [usize; 2] = [3, 4];

/// The quick CI leg: a small fleet byte-diffed at jobs 1 vs each of
/// [`SMOKE_JOBS`], fault-free and with a fault plan armed.
fn smoke_cmd() -> i32 {
    let mut failed = false;
    for faults in [false, true] {
        let mut config = FleetConfig::small(8, 0x540CE);
        if faults {
            config.fault_plan = Some(soak_plan(PLAN_SEED_BASE));
        }
        let label = if faults { "faulted" } else { "fault-free" };
        let (report_1, det_1, tel_1) = run_instrumented(&config, 1);
        for jobs in SMOKE_JOBS {
            let (_, det_j, tel_j) = run_instrumented(&config, jobs);
            if det_1 != det_j {
                eprintln!(
                    "fleet: smoke FAILED ({label}): fleet report diverges at jobs 1 vs {jobs}"
                );
                failed = true;
            }
            if tel_1 != tel_j {
                eprintln!(
                    "fleet: smoke FAILED ({label}): telemetry deterministic section diverges \
                     at jobs 1 vs {jobs}"
                );
                failed = true;
            }
        }
        if report_1.uncorrectable_escapes > 0 {
            eprintln!(
                "fleet: smoke FAILED ({label}): {} uncorrectable escapes",
                report_1.uncorrectable_escapes
            );
            failed = true;
        }
        if faults && report_1.faults_injected == 0 {
            eprintln!("fleet: smoke FAILED ({label}): fault plan armed but nothing fired");
            failed = true;
        }
        if !failed {
            println!(
                "fleet: smoke {label}: jobs 1, 3 and 4 byte-identical \
                 ({} report bytes, {} telemetry bytes)",
                det_1.len(),
                tel_1.len()
            );
        }
    }
    if failed {
        1
    } else {
        println!("fleet: smoke passed");
        0
    }
}

/// The 64-DIMM scaling gate: same fleet plan stepped at jobs 1 and 4,
/// byte-compared, with the ≥ 2.5× speedup requirement enforced on hosts
/// with ≥ 4 CPUs.
fn bench_cmd() -> i32 {
    if cfg!(debug_assertions) {
        println!(
            "fleet: NOTE: xtask built without optimizations; prefer \
             `cargo run --release -p xtask -- fleet bench`"
        );
    }
    let config = FleetConfig::small(64, 0xBE7C4);
    let plan = ::fleet::FleetPlan::expand(&config, 0);
    let time_run = |jobs: usize| -> (String, u64) {
        // Best of 3: the gate compares compute scaling, not scheduler
        // noise; the minimum is the standard noise-robust statistic here
        // (same philosophy as `bench compare`'s min check).
        let mut best_ns = u64::MAX;
        let mut det = String::new();
        for _ in 0..3 {
            let mut fleet = ::fleet::Fleet::new(&plan);
            let (report, elapsed_ns) = telemetry::time_ns(|| fleet.run_to_completion(jobs));
            best_ns = best_ns.min(elapsed_ns);
            det = report.deterministic_emit();
        }
        (det, best_ns)
    };
    let (det_1, ns_1) = time_run(1);
    let (det_4, ns_4) = time_run(4);
    if det_1 != det_4 {
        eprintln!("fleet: bench FAILED: jobs 1 vs 4 results diverge");
        return 1;
    }
    let speedup = ns_1 as f64 / ns_4.max(1) as f64;
    println!(
        "fleet: 64-DIMM step: jobs 1 {}ms, jobs 4 {}ms, speedup {speedup:.2}x",
        ns_1 / 1_000_000,
        ns_4 / 1_000_000
    );
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let gate = if cpus < GATE_MIN_CPUS {
        "skipped"
    } else if speedup < GATE_SPEEDUP {
        "failed"
    } else {
        "passed"
    };
    write_bench_report(ns_1, ns_4, speedup, cpus, gate);
    match gate {
        "skipped" => {
            // The explicit marker a CI log scraper can key on: the speedup
            // requirement was NOT evaluated, it did not vacuously pass.
            println!("fleet: gate skipped (cpus={cpus}): host below {GATE_MIN_CPUS} CPUs, {GATE_SPEEDUP}x speedup gate is informational only");
            0
        }
        "failed" => {
            eprintln!(
                "fleet: bench FAILED: speedup {speedup:.2}x below the {GATE_SPEEDUP}x gate \
                 on a {cpus}-CPU host"
            );
            1
        }
        _ => {
            println!("fleet: speedup gate passed ({speedup:.2}x >= {GATE_SPEEDUP}x)");
            0
        }
    }
}

/// Writes the machine-readable `fleet bench` outcome (including a gate
/// disposition of `passed` / `failed` / `skipped`, so a low-CPU host's
/// skip is recorded rather than indistinguishable from a pass) to
/// `target/FLEET_bench.json`.
fn write_bench_report(ns_1: u64, ns_4: u64, speedup: f64, cpus: usize, gate: &str) {
    let report = memutil::json::Json::obj()
        .field("schema", FLEET_BENCH_SCHEMA)
        .field("nodes", 64u64)
        .field("ns_jobs1", ns_1)
        .field("ns_jobs4", ns_4)
        .field("speedup", speedup)
        .field("cpus", cpus as u64)
        .field("gate_min_cpus", GATE_MIN_CPUS as u64)
        .field("gate_speedup", GATE_SPEEDUP)
        .field("gate", gate)
        .field(
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        )
        .emit();
    let path = crate::workspace_root().join("target/FLEET_bench.json");
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    match std::fs::write(&path, report + "\n") {
        Ok(()) => println!("fleet: bench report written to {}", path.display()),
        Err(e) => eprintln!("fleet: could not write {}: {e}", path.display()),
    }
}

fn soak_cmd(args: &[String]) -> i32 {
    let (plans, _) = match crate::parse_plans("fleet", args, &[], "--plans N") {
        Ok(parsed) => parsed,
        Err(code) => return code,
    };
    if crate::run_plans("fleet", "soak plan", plans, PLAN_SEED_BASE, soak_one) {
        println!("fleet: soak passed ({plans} plan(s))");
        0
    } else {
        eprintln!("fleet: soak FAILED");
        1
    }
}

/// One soak plan: a 16-shard faulted fleet at jobs 1 vs 4.
fn soak_one(seed: u64) -> Result<String, String> {
    let mut config = FleetConfig::small(16, seed ^ 0xBAD5EED);
    config.fault_plan = Some(soak_plan(seed));
    let run = |jobs: usize| -> (FleetReport, String, String) { run_instrumented(&config, jobs) };
    let (report, det_1, tel_1) = run(1);
    let (_, det_4, tel_4) = run(4);
    if det_1 != det_4 {
        return Err("fleet report diverges at jobs 1 vs 4".into());
    }
    if tel_1 != tel_4 {
        return Err("telemetry deterministic section diverges at jobs 1 vs 4".into());
    }
    if report.faults_injected == 0 {
        return Err("plan armed but no fault fired".into());
    }
    if report.uncorrectable_escapes > 0 {
        return Err(format!(
            "{} uncorrectable escapes",
            report.uncorrectable_escapes
        ));
    }
    Ok(format!(
        "{} faults over {} shards, reduction {:.2}%, jobs 1-vs-4 identical",
        report.faults_injected,
        report.shards_total,
        report.refresh_reduction * 100.0
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_gate_passes() {
        assert_eq!(smoke_cmd(), 0);
    }

    #[test]
    fn soak_plan_arms_every_site() {
        let plan = soak_plan(PLAN_SEED_BASE);
        for site in faultinject::Site::ALL {
            assert!(plan.site(site).is_some(), "{} not armed", site.name());
        }
    }

    #[test]
    fn run_cmd_rejects_bad_flags() {
        assert_eq!(run_cmd(&["--bogus".to_string()]), 2);
        assert_eq!(fleet_cmd(&["frobnicate".to_string()]), 2);
    }
}
