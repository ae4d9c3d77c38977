//! Cross-crate integration: the full MEMCON pipeline — workload trace →
//! PRIL → online content tests against a simulated chip → multi-rate
//! refresh — with the real coupling-physics oracle in the loop.

use memcon_suite::dram::geometry::{ChipDensity, DramGeometry};
use memcon_suite::dram::module::DramModule;
use memcon_suite::dram::timing::TimingParams;
use memcon_suite::failure_model::content::ContentProfile;
use memcon_suite::failure_model::model::CouplingFailureModel;
use memcon_suite::failure_model::params::FailureModelParams;
use memcon_suite::memcon::config::MemconConfig;
use memcon_suite::memcon::engine::MemconEngine;
use memcon_suite::memcon::testengine::ContentOracle;
use memcon_suite::memtrace::workload::WorkloadProfile;

fn small_chip(pages: u64) -> (DramModule, CouplingFailureModel) {
    let rows_per_bank = pages.div_ceil(4).next_power_of_two().max(64) as u32;
    let geometry = DramGeometry {
        ranks: 1,
        chips_per_rank: 1,
        banks: 4,
        rows_per_bank,
        row_bytes: 8192,
        block_bytes: 64,
        density: ChipDensity::Gb8,
    };
    let module = DramModule::new(geometry, TimingParams::ddr3_1600(), 0xFEED);
    // Anchor the failure physics at the LO-REF interval the engine tests at.
    let model = CouplingFailureModel::new(FailureModelParams::calibrated_at(64.0));
    (module, model)
}

#[test]
fn memcon_with_physics_oracle_reduces_refreshes() {
    let trace = WorkloadProfile::netflix().scaled(0.1).generate(42);
    let (module, model) = small_chip(trace.n_pages());
    let oracle = ContentOracle::new(module, model, WorkloadProfileContent::netflix(), 64.0, 7);
    let config = MemconConfig::paper_default();
    let mut engine = MemconEngine::with_oracle(config, trace, Box::new(oracle));
    let report = engine.run();

    assert!(
        report.refresh_reduction > 0.5,
        "reduction {}",
        report.refresh_reduction
    );
    assert!(report.refresh_reduction < report.upper_bound);
    assert!(report.lo_coverage > 0.7, "coverage {}", report.lo_coverage);
    // Accounting consistency: reduction follows from LO coverage and the
    // 4x interval ratio (testing time is unrefreshed, so reduction can
    // slightly exceed 0.75 x coverage).
    let implied = 0.75 * report.lo_coverage;
    assert!(
        (report.refresh_reduction - implied).abs() < 0.05,
        "reduction {} vs implied {}",
        report.refresh_reduction,
        implied
    );
}

/// A stand-in content profile per workload (program images are orthogonal
/// to write timing; any profile works — this keeps the oracle content
/// deterministic per test).
struct WorkloadProfileContent;
impl WorkloadProfileContent {
    fn netflix() -> ContentProfile {
        ContentProfile {
            zero: 0.4,
            random: 0.4,
            pointer: 0.1,
            small_int: 0.1,
            text: 0.0,
        }
    }
}

#[test]
fn report_arithmetic_is_consistent() {
    let trace = WorkloadProfile::ac_brotherhood().scaled(0.1).generate(1);
    let mut engine = MemconEngine::new(MemconConfig::paper_default(), trace);
    let r = engine.run();
    // Shares sum to one.
    let hi_share = 1.0 - r.lo_coverage - r.testing_fraction;
    assert!((0.0..=1.0).contains(&hi_share), "hi share {hi_share}");
    // Ops are consistent with the time integrals: baseline - memcon ops
    // equals reduction x baseline.
    let expect = r.baseline_ops * (1.0 - r.refresh_reduction);
    assert!(
        (r.refresh_ops - expect).abs() / r.baseline_ops < 1e-9,
        "ops {} vs {}",
        r.refresh_ops,
        expect
    );
    // Time = ops x 39 ns.
    assert!((r.refresh_time_ns - r.refresh_ops * 39.0).abs() < 1.0);
    // Test accounting: correct + mispredicted equals completed + aborted.
    let stats = engine.stats();
    assert_eq!(
        stats.counters.tests_correct + stats.counters.tests_mispredicted,
        stats.tests.completed + stats.tests.aborted,
        "every finished or aborted test must be classified"
    );
}

#[test]
fn quanta_sweep_is_stable_end_to_end() {
    let trace = WorkloadProfile::system_mgt().scaled(0.1).generate(3);
    let mut last = None;
    for quantum in [512.0, 1024.0, 2048.0] {
        let config = MemconConfig::paper_default().with_quantum_ms(quantum);
        let mut engine = MemconEngine::new(config, trace.clone());
        let r = engine.run();
        if let Some(prev) = last {
            let delta: f64 = r.refresh_reduction - prev;
            assert!(
                delta.abs() < 0.08,
                "reduction moved {delta} between quanta (paper: CIL-insensitive)"
            );
        }
        last = Some(r.refresh_reduction);
    }
}
