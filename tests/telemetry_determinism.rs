//! Property tests for the telemetry determinism contract: every value in a
//! report's `deterministic` section derives from simulation state only, so
//! the same workload must produce a byte-identical deterministic section at
//! any worker count.
//!
//! The registry's `CURRENT` slot is process-global (so pool workers resolve
//! the same registry as the installer); every workload here runs inside
//! `telemetry::collect`, which serializes the scoped registries.

use memcon_suite::dram::cell::RowContent;
use memcon_suite::dram::geometry::{ChipDensity, DramGeometry};
use memcon_suite::dram::module::DramModule;
use memcon_suite::dram::timing::TimingParams;
use memcon_suite::failure_model::model::CouplingFailureModel;
use memcon_suite::memcon::config::MemconConfig;
use memcon_suite::memcon::engine::MemconEngine;
use memcon_suite::memtrace::workload::WorkloadProfile;
use memcon_suite::telemetry;
use memutil::rng::{Rng, SeedableRng, SmallRng};

/// Runs `workload` under `telemetry::collect` and returns the canonical
/// emission of the registry's `deterministic` section.
fn deterministic_section(workload: impl FnOnce()) -> String {
    telemetry::collect(workload).1.deterministic().emit()
}

fn filled_module() -> DramModule {
    let geometry = DramGeometry {
        ranks: 1,
        chips_per_rank: 1,
        banks: 2,
        rows_per_bank: 128,
        row_bytes: 1024,
        block_bytes: 64,
        density: ChipDensity::Gb8,
    };
    let mut module = DramModule::new(geometry, TimingParams::ddr3_1600(), 0xD15C);
    let words = geometry.words_per_row();
    let mut rng = SmallRng::seed_from_u64(21);
    module.fill_with(|_| RowContent::from_words((0..words).map(|_| rng.gen()).collect()));
    module
}

#[test]
fn module_eval_counters_identical_across_jobs() {
    // Fig. 4-style sweep: the evaluation fans out per bank; cold fills,
    // warm hits, rows, and failures must sum identically at any worker
    // count (each model is fresh, so each run pays its own cold fills).
    let sections: Vec<String> = [1usize, 2, 8]
        .iter()
        .map(|&jobs| {
            deterministic_section(|| {
                let module = filled_module();
                let model = CouplingFailureModel::default();
                let _ = model.evaluate_module_with_jobs(&module, 328.0, jobs);
                let _ = model.evaluate_module_with_jobs(&module, 512.0, jobs);
            })
        })
        .collect();
    assert_eq!(sections[0], sections[1], "jobs 1 vs 2");
    assert_eq!(sections[0], sections[2], "jobs 1 vs 8");
    assert!(
        sections[0].contains("failure_model.eval.rows"),
        "eval counters present: {}",
        sections[0]
    );
}

#[test]
fn engine_counters_identical_across_repeats() {
    // The TestEngine workload is sequential, but its flush must be
    // reproducible run-to-run (fresh engine each time) — this pins the
    // whole memcon counter set, including the refresh-state machine.
    let trace = WorkloadProfile::netflix().scaled(0.02).generate(5);
    let run = || {
        deterministic_section(|| {
            let mut engine = MemconEngine::new(MemconConfig::paper_default(), trace.n_pages());
            let _ = engine.run(&trace);
        })
    };
    let a = run();
    let b = run();
    assert_eq!(a, b);
    for key in [
        "memcon.pril.writes",
        "memcon.tests.started",
        "memcon.refresh.to_lo",
        "memcon.pril.quantum_candidates",
    ] {
        assert!(a.contains(key), "{key} missing from {a}");
    }
}

#[test]
fn combined_workload_identical_across_jobs() {
    // Both layers together, mirroring the experiments CLI: parallel module
    // sweeps feeding the same registry as an engine run.
    let trace = WorkloadProfile::all_sysmark().scaled(0.02).generate(9);
    let section = |jobs: usize| {
        deterministic_section(|| {
            let module = filled_module();
            let model = CouplingFailureModel::default();
            let _ = model.evaluate_module_with_jobs(&module, 328.0, jobs);
            let mut engine = MemconEngine::new(MemconConfig::paper_default(), trace.n_pages());
            let _ = engine.run(&trace);
        })
    };
    let base = section(1);
    assert_eq!(base, section(2));
    assert_eq!(base, section(8));
}

#[test]
fn disabled_registry_records_nothing() {
    let section = deterministic_section(|| {
        // Collected, but switched off before anything records.
        telemetry::current().set_enabled(false);
        let module = filled_module();
        let model = CouplingFailureModel::default();
        let _ = model.evaluate_module_with_jobs(&module, 328.0, 2);
    });
    // The empty skeleton: no counters, no histograms, and a time-series
    // ring that never sampled a point.
    assert_eq!(
        section,
        r#"{"counters":{},"histograms":{},"figures":[],"timeseries":{"schema":"memcon-timeseries/v1","capacity":64,"dropped_points":0,"points":[]}}"#
    );
}
