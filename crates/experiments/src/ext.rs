//! Extension experiments beyond the paper's figures: the quantified versions
//! of claims the paper makes in prose or leaves to future work.
//!
//! * **Energy** — the abstract claims refresh reduction "improves energy
//!   efficiency"; we quantify DRAM energy per density and refresh policy.
//! * **RowClone Copy-and-Compare** (footnote 6) — in-DRAM copy shrinks the
//!   Copy-and-Compare cost and its MinWriteInterval.
//! * **Storage overhead** (Section 6.4) — PRIL SRAM and staging-region
//!   arithmetic for real module sizes.
//! * **Fault overhead** — MEMCON's refresh+test overhead as injected fault
//!   rates rise: aborts, torn reads, and ECC errors trigger the
//!   abort/retry backoff and the fail-safe high-refresh degradation, so
//!   overhead grows and LO-REF coverage shrinks with the fault rate.
//! * **Fleet scaling** — the paper's economic argument is per-module; the
//!   operator-level case multiplies across a rack. We sweep fleet sizes
//!   and roll up the aggregate refresh-operation savings.

use std::sync::Arc;

use dram::geometry::{ChipDensity, DramGeometry};
use faultinject::{FaultPlan, Site, SiteSpec};
use memcon::config::MemconConfig;
use memcon::cost::{CostModel, TestMode};
use memcon::engine::{EngineStats, MemconEngine, MemconReport};
use memcon::overhead::storage_overhead;
use memsim::config::{RefreshPolicy, SystemConfig};
use memsim::energy::EnergyReport;
use memsim::system::System;
use memtrace::cpu::spec_tpc_pool;
use memtrace::workload::WorkloadProfile;

use crate::output::{heading, pct, RunOptions, TextTable};

/// Energy per (density, policy): total and refresh share.
#[derive(Debug, Clone)]
pub struct EnergyRow {
    /// Chip density.
    pub density: ChipDensity,
    /// Policy label.
    pub policy: &'static str,
    /// Energy breakdown.
    pub report: EnergyReport,
}

/// Runs the energy sweep on a memory-intensive single-core workload.
#[must_use]
pub fn compute_energy(opts: &RunOptions) -> Vec<EnergyRow> {
    let mut rows = Vec::new();
    for density in ChipDensity::ALL {
        for (policy, label) in [
            (RefreshPolicy::baseline_16ms(), "16 ms baseline"),
            (
                RefreshPolicy::Reduced {
                    baseline_interval_ms: 16.0,
                    reduction: 0.70,
                },
                "MEMCON (70% red)",
            ),
        ] {
            let config = SystemConfig::new(1, density, policy);
            let mut sys = System::new(config.clone(), vec![spec_tpc_pool()[0]], opts.seed);
            let stats = sys.run(opts.instructions);
            rows.push(EnergyRow {
                density,
                policy: label,
                report: EnergyReport::from_stats(&stats.ctrl, stats.total_cycles, &config.timing),
            });
        }
    }
    rows
}

/// Injected fault rates swept by the fault-overhead experiment.
pub const FAULT_RATES: [f64; 4] = [0.0, 0.01, 0.05, 0.20];

/// One point of the overhead-vs-fault-rate curve.
#[derive(Debug, Clone)]
pub struct FaultOverheadRow {
    /// Per-site injection rate of this run's plan (0 = no plan).
    pub rate: f64,
    /// The engine's report at that rate.
    pub report: MemconReport,
    /// Everything the run counted at that rate, recovery included.
    pub stats: EngineStats,
}

/// Sweeps the netflix trace through MEMCON at rising fault rates.
///
/// Each engine owns its plan explicitly ([`MemconEngine::set_fault_plan`]
/// rather than the process-global installer), so the sweep stays
/// bit-reproducible under figure-level fan-out. Rate 0 runs with no plan
/// at all — the organic baseline row.
#[must_use]
pub fn compute_fault_overhead(opts: &RunOptions) -> Vec<FaultOverheadRow> {
    let trace = crate::output::cached_trace(&WorkloadProfile::netflix(), opts);
    FAULT_RATES
        .iter()
        .map(|&rate| {
            let mut engine = MemconEngine::new(MemconConfig::paper_default(), Arc::clone(&trace));
            if rate > 0.0 {
                // The sites that exercise the recovery machinery: aborts,
                // torn read-backs, and ECC errors (uncorrectables kept an
                // order of magnitude rarer, as in real modules).
                let plan = FaultPlan::new(0x0EC7)
                    .with_site(Site::TestPreempt, SiteSpec::rate(rate))
                    .with_site(Site::TornRead, SiteSpec::rate(rate))
                    .with_site(Site::EccCorrectable, SiteSpec::rate(rate))
                    .with_site(Site::EccUncorrectable, SiteSpec::rate(rate / 10.0));
                engine.set_fault_plan(Some(Arc::new(plan)));
            }
            let report = engine.run();
            FaultOverheadRow {
                rate,
                report,
                stats: engine.stats(),
            }
        })
        .collect()
}

/// Fleet sizes swept by the fleet-scaling experiment.
pub const FLEET_SIZES: [u64; 3] = [4, 16, 64];

/// One point of the savings-vs-fleet-size curve.
#[derive(Debug, Clone)]
pub struct FleetScalingRow {
    /// Shards in the fleet.
    pub nodes: u64,
    /// The fleet roll-up at that size.
    pub report: fleet::FleetReport,
}

/// Sweeps [`FLEET_SIZES`] through the sharded fleet scheduler. Every row
/// is a pure function of `(opts.seed, nodes)` — `opts.jobs` only
/// schedules — so the rendered table is bit-identical at any `--jobs`.
#[must_use]
pub fn compute_fleet_scaling(opts: &RunOptions) -> Vec<FleetScalingRow> {
    FLEET_SIZES
        .iter()
        .map(|&nodes| {
            let config = fleet::FleetConfig::small(nodes, opts.seed);
            let report = fleet::engine::run_fleet(&config, opts.jobs);
            FleetScalingRow { nodes, report }
        })
        .collect()
}

/// Renders all extension experiments.
#[must_use]
pub fn render(opts: &RunOptions) -> String {
    let mut out = heading("Ext", "Extension experiments (energy, RowClone, storage)");

    // Energy.
    let mut t = TextTable::new(vec![
        "Density",
        "Policy",
        "Total (uJ)",
        "Refresh (uJ)",
        "Refresh share",
    ]);
    let energy = compute_energy(opts);
    for r in &energy {
        t.row(vec![
            r.density.to_string(),
            r.policy.to_string(),
            format!("{:.1}", r.report.total_nj() / 1000.0),
            format!("{:.1}", r.report.refresh_nj / 1000.0),
            pct(r.report.refresh_share()),
        ]);
    }
    out.push_str("\nDRAM energy (mcf, single core):\n");
    out.push_str(&t.render());

    // RowClone.
    let m = CostModel::paper_default();
    let mut t = TextTable::new(vec![
        "Copy-and-Compare variant",
        "Test cost",
        "MinWriteInterval",
    ]);
    t.row(vec![
        "through controller (paper)".to_string(),
        format!("{:.0} ns", m.test_cost_ns(TestMode::CopyAndCompare)),
        format!(
            "{:.0} ms",
            m.min_write_interval_ms(TestMode::CopyAndCompare)
        ),
    ]);
    t.row(vec![
        "in-DRAM copy (RowClone, footnote 6)".to_string(),
        format!("{:.0} ns", m.copy_and_compare_rowclone_ns()),
        format!("{:.0} ms", m.min_write_interval_rowclone_ms()),
    ]);
    out.push_str("\nRowClone-accelerated Copy-and-Compare:\n");
    out.push_str(&t.render());

    // Storage overhead.
    let mut t = TextTable::new(vec![
        "Memory",
        "Pages",
        "Write-map",
        "Write-buffer",
        "Staging",
    ]);
    for gb in [2u64, 8, 32] {
        let config = MemconConfig::paper_default().with_test_mode(TestMode::CopyAndCompare);
        let o = storage_overhead(&config, &DramGeometry::module_2gb(), gb << 30, 8192);
        t.row(vec![
            format!("{gb} GB"),
            o.pages.to_string(),
            format!("{} KB", o.write_map_bytes / 1024),
            format!("{:.1} KB", o.write_buffer_bytes as f64 / 1024.0),
            format!("{:.2}%", o.staging_fraction * 100.0),
        ]);
    }
    out.push_str("\nPRIL storage overhead (Section 6.4 arithmetic):\n");
    out.push_str(&t.render());

    // Fault overhead.
    let mut t = TextTable::new(vec![
        "Fault rate",
        "Norm. overhead",
        "LO-REF coverage",
        "Faults",
        "Retries",
        "Degraded rows",
    ]);
    for r in &compute_fault_overhead(opts) {
        t.row(vec![
            format!("{:.2}", r.rate),
            format!("{:.4}", r.report.normalized_refresh_and_test_time()),
            pct(r.report.lo_coverage),
            r.stats.faults_injected.iter().sum::<u64>().to_string(),
            r.stats.counters.retries.to_string(),
            r.stats.pin_events.to_string(),
        ]);
    }
    out.push_str("\nMEMCON overhead vs injected fault rate (netflix):\n");
    out.push_str(&t.render());

    // Fleet scaling.
    let mut t = TextTable::new(vec![
        "Fleet size",
        "Refresh ops",
        "Baseline ops",
        "Ops saved",
        "Reduction",
        "LO-REF coverage",
        "Failing tests",
    ]);
    for r in &compute_fleet_scaling(opts) {
        t.row(vec![
            r.nodes.to_string(),
            format!("{:.0}", r.report.refresh_ops),
            format!("{:.0}", r.report.baseline_ops),
            format!("{:.0}", r.report.baseline_ops - r.report.refresh_ops),
            pct(r.report.refresh_reduction),
            pct(r.report.lo_coverage),
            r.report.failing_tests.to_string(),
        ]);
    }
    out.push_str("\nAggregate refresh savings vs fleet size (Table-1 mix per node):\n");
    out.push_str(&t.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memcon_saves_energy_at_every_density() {
        let rows = compute_energy(&RunOptions::quick());
        for density in ChipDensity::ALL {
            let base = rows
                .iter()
                .find(|r| r.density == density && r.policy.contains("baseline"))
                .unwrap();
            let memcon = rows
                .iter()
                .find(|r| r.density == density && r.policy.contains("MEMCON"))
                .unwrap();
            assert!(
                memcon.report.total_nj() < base.report.total_nj(),
                "{density}: MEMCON {} >= baseline {}",
                memcon.report.total_nj(),
                base.report.total_nj()
            );
            assert!(memcon.report.refresh_nj < 0.5 * base.report.refresh_nj);
        }
    }

    #[test]
    fn render_contains_all_five_sections() {
        let s = render(&RunOptions::quick());
        assert!(s.contains("DRAM energy"));
        assert!(s.contains("RowClone"));
        assert!(s.contains("storage overhead"));
        assert!(s.contains("fault rate"));
        assert!(s.contains("fleet size"));
    }

    #[test]
    fn faults_degrade_coverage_and_raise_overhead() {
        let rows = compute_fault_overhead(&RunOptions::quick());
        assert_eq!(rows.len(), FAULT_RATES.len());
        let first = &rows[0];
        let last = rows.last().unwrap();
        assert_eq!(first.stats.faults_injected.iter().sum::<u64>(), 0);
        assert!(last.stats.faults_injected.iter().sum::<u64>() > 0);
        assert!(last.stats.pin_events > 0, "no row was ever pinned");
        // More faults mean more retry/pin work and less LO-REF residency.
        assert!(
            last.report.lo_coverage < first.report.lo_coverage,
            "coverage {} !< {}",
            last.report.lo_coverage,
            first.report.lo_coverage
        );
        assert!(
            last.report.normalized_refresh_and_test_time()
                >= first.report.normalized_refresh_and_test_time(),
            "overhead did not grow with the fault rate"
        );
        // Nothing must ever escape, at any rate.
        for r in &rows {
            assert_eq!(r.stats.counters.uncorrectable_escapes, 0);
        }
    }

    #[test]
    fn fleet_savings_grow_with_fleet_size() {
        let rows = compute_fleet_scaling(&RunOptions::quick());
        assert_eq!(rows.len(), FLEET_SIZES.len());
        let saved = |r: &FleetScalingRow| r.report.baseline_ops - r.report.refresh_ops;
        for pair in rows.windows(2) {
            assert!(
                saved(&pair[1]) > saved(&pair[0]),
                "aggregate savings must grow with fleet size ({} vs {} nodes)",
                pair[1].nodes,
                pair[0].nodes
            );
        }
        for r in &rows {
            assert!(r.report.refresh_reduction > 0.3, "{} nodes", r.nodes);
            assert_eq!(r.report.uncorrectable_escapes, 0);
        }
    }
}
