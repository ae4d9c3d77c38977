//! Recovery-path determinism under a fixed fault plan.
//!
//! The chaos gate's core contract, stated as a property: for any plan
//! seed, fanning a workload fleet across the worker pool must leave
//! every engine's [`EngineStats`] and the final refresh-bin distribution
//! bit-identical at any worker count, because every engine owns its plan and therefore
//! its fault-decision streams (`MemconEngine::set_fault_plan`), never a
//! shared global one.

use std::sync::Arc;

use faultinject::{FaultPlan, Site, SiteSpec};
use memcon::config::MemconConfig;
use memcon::engine::{EngineStats, MemconEngine};
use memcon::refreshmgr::PageState;
use memtrace::workload::WorkloadProfile;

/// Runs one engine per workload at the given worker count and returns
/// each engine's stats and final refresh bins, in fleet order.
fn run_fleet(
    plan: &Arc<FaultPlan>,
    traces: &[memtrace::trace::WriteTrace],
    jobs: usize,
) -> Vec<(EngineStats, Vec<PageState>)> {
    memutil::par::ordered_map_with(jobs, traces.len(), |i| {
        let mut engine = MemconEngine::new(MemconConfig::paper_default(), traces[i].clone());
        engine.set_fault_plan(Some(Arc::clone(plan)));
        let _ = engine.run();
        engine.verify_refresh_correctness().unwrap();
        (engine.stats(), engine.final_states().to_vec())
    })
}

#[test]
fn recovery_stats_and_refresh_bins_are_jobs_invariant() {
    let workloads = [
        WorkloadProfile::netflix(),
        WorkloadProfile::ac_brotherhood(),
        WorkloadProfile::system_mgt(),
        WorkloadProfile::all().swap_remove(7),
    ];
    for seed in [1u64, 0xBAD_5EED, 0xC4A0_5000] {
        let plan = Arc::new(
            FaultPlan::new(seed)
                .with_site(Site::TestPreempt, SiteSpec::rate(0.10))
                .with_site(Site::TornRead, SiteSpec::rate(0.10))
                .with_site(Site::EccCorrectable, SiteSpec::rate(0.20))
                .with_site(Site::EccUncorrectable, SiteSpec::rate(0.03)),
        );
        let traces: Vec<_> = workloads
            .iter()
            .map(|w| w.clone().scaled(0.01).generate(seed))
            .collect();
        let baseline = run_fleet(&plan, &traces, 1);
        // The plan must actually exercise the recovery machinery, or the
        // property is vacuous.
        let injected: u64 = baseline
            .iter()
            .map(|(r, _)| r.faults_injected.iter().sum::<u64>())
            .sum();
        assert!(injected > 0, "seed {seed:#x}: plan never fired");
        for jobs in [2usize, 8] {
            assert_eq!(
                baseline,
                run_fleet(&plan, &traces, jobs),
                "seed {seed:#x}: fleet diverged at jobs={jobs}"
            );
        }
    }
}
