//! Fleet jobs-invariance property tests.
//!
//! The fleet contract: for a fixed [`FleetConfig`], the fleet report's
//! deterministic section AND the telemetry registry's deterministic
//! section are byte-identical at any `--jobs` value — with or without a
//! fault plan armed. These tests pin that over fleet sizes {4, 64},
//! multiple seeds, jobs {1, 2, 3, 8} (3 workers split the shards into
//! uneven ranges, which invites steals), three chaos fault plans, and one
//! fleet whose `jobs` changes between epochs (each change rebuilds its
//! pool).

use std::sync::Arc;

use faultinject::FaultPlan;
use fleet::engine::{run_fleet, Fleet};
use fleet::{FleetConfig, FleetPlan};

/// Runs the fleet once at `jobs` under `telemetry::collect`, returning the
/// byte-stable pair the contract is defined over: (fleet report
/// deterministic section, telemetry deterministic section).
fn run_once(config: &FleetConfig, jobs: usize) -> (String, String) {
    let (report, registry) = telemetry::collect(|| run_fleet(config, jobs));
    (report.deterministic_emit(), registry.deterministic().emit())
}

fn assert_jobs_invariant(config: &FleetConfig, label: &str) {
    let (report_1, telemetry_1) = run_once(config, 1);
    for jobs in [2, 3, 8] {
        let (report_j, telemetry_j) = run_once(config, jobs);
        assert_eq!(
            report_1, report_j,
            "{label}: fleet report diverged at jobs={jobs}"
        );
        assert_eq!(
            telemetry_1, telemetry_j,
            "{label}: telemetry deterministic section diverged at jobs={jobs}"
        );
    }
}

#[test]
fn small_fleets_are_jobs_invariant_across_seeds() {
    for seed in [0xA5, 0x1CEB00DA] {
        let config = FleetConfig::small(4, seed);
        assert_jobs_invariant(&config, &format!("4 nodes, seed {seed:#x}"));
    }
}

#[test]
fn large_fleet_is_jobs_invariant() {
    // 64 shards over a shortened window: still dozens of epochs of real
    // engine work per shard, but fast enough to run at three jobs levels.
    let mut config = FleetConfig::small(64, 0xF1EE7);
    config.window_s = 2.0;
    assert_jobs_invariant(&config, "64 nodes");
}

#[test]
fn chaos_fleets_are_jobs_invariant() {
    // Three distinct fault plans, every site armed: per-shard fault
    // streams derive from (plan seed, node), never from thread schedule.
    const PLAN_SEED_BASE: u64 = 0xF1EE_7C4A_0500_0000;
    for plan_idx in 0..3u64 {
        let mut config = FleetConfig::small(4, 0xBAD5EED + plan_idx);
        config.fault_plan = Some(Arc::new(FaultPlan::uniform(
            PLAN_SEED_BASE + plan_idx,
            0.05,
        )));
        assert_jobs_invariant(&config, &format!("chaos plan {plan_idx}"));
    }
}

#[test]
fn jobs_may_change_between_epochs() {
    // One fleet stepped at jobs 1, 2, 8, 2, 0 (automatic), round and
    // round: every change of the resolved count rebuilds the fleet's
    // pool mid-run, and the result is still the jobs-1 run's.
    let mut config = FleetConfig::small(8, 0x5EED_CAFE);
    config.epoch_quanta = 1;
    config.fault_plan = Some(Arc::new(FaultPlan::uniform(0xF1EE_7C4A, 0.05)));
    let (report_1, telemetry_1) = run_once(&config, 1);
    let plan = FleetPlan::expand(&config, 1);
    let (report, registry) = telemetry::collect(|| {
        let mut fleet = Fleet::new(&plan);
        let mut epochs = 0;
        for jobs in [1, 2, 8, 2, 0].into_iter().cycle() {
            epochs += 1;
            if !fleet.run_epoch(jobs) {
                break;
            }
        }
        assert!(epochs > 5, "the jobs cycle comes round: {epochs} epochs");
        fleet.report()
    });
    assert_eq!(report.deterministic_emit(), report_1, "fleet report");
    assert_eq!(
        registry.deterministic().emit(),
        telemetry_1,
        "telemetry deterministic section"
    );
}

#[test]
fn faults_actually_fire_under_chaos_config() {
    // Guard against the chaos variant silently degenerating into the
    // fault-free case (e.g. a plan that never fires).
    let mut config = FleetConfig::small(4, 0xBAD5EED);
    config.fault_plan = Some(Arc::new(FaultPlan::uniform(0xD15EA5E, 0.2)));
    let (report, _) = telemetry::collect(|| run_fleet(&config, 2));
    assert!(
        report.faults_injected > 0,
        "chaos config must inject faults somewhere in the fleet"
    );
    assert_eq!(report.uncorrectable_escapes, 0, "chaos invariant");
}
