//! Fleet-level roll-ups of per-shard MEMCON reports.
//!
//! A [`FleetReport`] aggregates every shard's [`memcon::engine::MemconReport`]
//! into fleet totals (refresh-ops savings, prediction quality, failing-row
//! distribution) plus a step-latency summary. The totals and per-shard rows
//! are pure functions of simulation state, so [`FleetReport::deterministic_emit`]
//! is byte-identical at any `--jobs` value; only the latency summary is
//! wall-clock data, and it is confined to the report's `timing` section.

use memutil::json::Json;

/// Report schema identifier emitted by [`FleetReport::to_json`].
pub const SCHEMA: &str = "memcon-fleet/v1";

/// Bucket edges (failing pages) of the `fleet.rollup.final_hi_per_shard`
/// roll-up histogram.
pub const FINAL_HI_EDGES: [u64; 8] = [0, 1, 2, 4, 8, 16, 64, 256];

/// Bucket edges (percent) of the `fleet.rollup.reduction_pct` roll-up
/// histogram.
pub const REDUCTION_PCT_EDGES: [u64; 7] = [10, 25, 40, 55, 70, 85, 100];

/// One shard's contribution to the fleet report, in node order.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSummary {
    /// Node index (= shard index).
    pub node: u64,
    /// Table-1 display name of the shard's workload.
    pub profile: String,
    /// Pages the shard's engine tracked.
    pub n_pages: u64,
    /// Epoch at which the shard's run finished.
    pub done_epoch: u64,
    /// Refresh-operation reduction vs the all-HI-REF baseline.
    pub refresh_reduction: f64,
    /// Fraction of page-time at LO-REF.
    pub lo_coverage: f64,
    /// Refresh operations the shard performed.
    pub refresh_ops: f64,
    /// Refresh operations the baseline would have performed.
    pub baseline_ops: f64,
    /// Tests whose LO-REF residency amortized the cost.
    pub tests_correct: u64,
    /// Tests whose page was rewritten too soon.
    pub tests_mispredicted: u64,
    /// Completed tests that found a failing row.
    pub failing_tests: u64,
    /// Pages left outside LO-REF at the horizon (failing + pinned rows).
    pub final_hi_pages: u64,
    /// Faults injected across all sites, when a plan was armed.
    pub faults_injected: u64,
    /// Uncorrectable ECC escapes — must be 0 (chaos invariant).
    pub uncorrectable_escapes: u64,
}

impl ShardSummary {
    fn to_json(&self) -> Json {
        Json::obj()
            .field("node", self.node)
            .field("profile", self.profile.as_str())
            .field("n_pages", self.n_pages)
            .field("done_epoch", self.done_epoch)
            .field("refresh_reduction", self.refresh_reduction)
            .field("lo_coverage", self.lo_coverage)
            .field("refresh_ops", self.refresh_ops)
            .field("baseline_ops", self.baseline_ops)
            .field("tests_correct", self.tests_correct)
            .field("tests_mispredicted", self.tests_mispredicted)
            .field("failing_tests", self.failing_tests)
            .field("final_hi_pages", self.final_hi_pages)
            .field("faults_injected", self.faults_injected)
            .field("uncorrectable_escapes", self.uncorrectable_escapes)
    }
}

/// Wall-clock summary of per-shard epoch-step latencies ([`telemetry`]
/// `Timing` class: excluded from determinism byte-diffs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Number of (shard, epoch) step samples.
    pub samples: u64,
    /// Median step latency, ns.
    pub p50_ns: u64,
    /// 99th-percentile step latency, ns.
    pub p99_ns: u64,
    /// Slowest step, ns.
    pub max_ns: u64,
}

/// Fleet-level aggregates over every shard's run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Shards simulated.
    pub shards_total: u64,
    /// Master fleet seed.
    pub seed: u64,
    /// Scheduler epochs run.
    pub epochs: u64,
    /// PRIL quanta per epoch.
    pub epoch_quanta: u64,
    /// Per-shard rows, in node order.
    pub shards: Vec<ShardSummary>,
    /// Sum of per-shard refresh operations performed.
    pub refresh_ops: f64,
    /// Sum of per-shard baseline refresh operations.
    pub baseline_ops: f64,
    /// Fleet-wide refresh-ops reduction: `1 - refresh_ops / baseline_ops`.
    pub refresh_reduction: f64,
    /// Page-weighted mean LO-REF coverage.
    pub lo_coverage: f64,
    /// Total correctly amortized tests.
    pub tests_correct: u64,
    /// Total mispredicted tests.
    pub tests_mispredicted: u64,
    /// Total tests that found a failing row.
    pub failing_tests: u64,
    /// Total pages left outside LO-REF at the horizon.
    pub final_hi_pages: u64,
    /// Total injected faults.
    pub faults_injected: u64,
    /// Total uncorrectable ECC escapes (must be 0).
    pub uncorrectable_escapes: u64,
    /// Step-latency summary (wall-clock; `timing` section only).
    pub step_latency: LatencySummary,
}

impl FleetReport {
    /// Folds `shards` (already in node order) into fleet totals. The fold
    /// is sequential in shard order, so the f64 sums are bit-reproducible.
    #[must_use]
    pub fn new(
        shards_total: u64,
        seed: u64,
        epochs: u64,
        epoch_quanta: u64,
        shards: Vec<ShardSummary>,
        step_latency: LatencySummary,
    ) -> FleetReport {
        let mut refresh_ops = 0.0;
        let mut baseline_ops = 0.0;
        let mut weighted_lo = 0.0;
        let mut pages = 0u64;
        let mut tests_correct = 0;
        let mut tests_mispredicted = 0;
        let mut failing_tests = 0;
        let mut final_hi_pages = 0;
        let mut faults_injected = 0;
        let mut uncorrectable_escapes = 0;
        for s in &shards {
            refresh_ops += s.refresh_ops;
            baseline_ops += s.baseline_ops;
            weighted_lo += s.lo_coverage * s.n_pages as f64;
            pages += s.n_pages;
            tests_correct += s.tests_correct;
            tests_mispredicted += s.tests_mispredicted;
            failing_tests += s.failing_tests;
            final_hi_pages += s.final_hi_pages;
            faults_injected += s.faults_injected;
            uncorrectable_escapes += s.uncorrectable_escapes;
        }
        let refresh_reduction = if baseline_ops > 0.0 {
            1.0 - refresh_ops / baseline_ops
        } else {
            0.0
        };
        let lo_coverage = if pages > 0 {
            weighted_lo / pages as f64
        } else {
            0.0
        };
        FleetReport {
            shards_total,
            seed,
            epochs,
            epoch_quanta,
            shards,
            refresh_ops,
            baseline_ops,
            refresh_reduction,
            lo_coverage,
            tests_correct,
            tests_mispredicted,
            failing_tests,
            final_hi_pages,
            faults_injected,
            uncorrectable_escapes,
            step_latency,
        }
    }

    /// The deterministic half of the report (everything except the
    /// wall-clock latency summary) as JSON — the object byte-compared by
    /// the fleet determinism tests and the `xtask fleet --smoke` gate.
    #[must_use]
    pub fn deterministic_json(&self) -> Json {
        let mut shards = Json::arr();
        for s in &self.shards {
            shards = shards.push(s.to_json());
        }
        Json::obj()
            .field("shards_total", self.shards_total)
            .field("seed", self.seed)
            .field("epochs", self.epochs)
            .field("epoch_quanta", self.epoch_quanta)
            .field("refresh_ops", self.refresh_ops)
            .field("baseline_ops", self.baseline_ops)
            .field("refresh_reduction", self.refresh_reduction)
            .field("lo_coverage", self.lo_coverage)
            .field("tests_correct", self.tests_correct)
            .field("tests_mispredicted", self.tests_mispredicted)
            .field("failing_tests", self.failing_tests)
            .field("final_hi_pages", self.final_hi_pages)
            .field("faults_injected", self.faults_injected)
            .field("uncorrectable_escapes", self.uncorrectable_escapes)
            .field("shards", shards)
    }

    /// Byte-stable serialization of the deterministic section — equal
    /// strings across `--jobs` values is the fleet determinism contract.
    #[must_use]
    pub fn deterministic_emit(&self) -> String {
        self.deterministic_json().emit()
    }

    /// The full report: schema + deterministic section + `timing` section
    /// (step-latency percentiles, excluded from determinism diffs).
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("schema", SCHEMA)
            .field("deterministic", self.deterministic_json())
            .field(
                "timing",
                Json::obj().field(
                    "step_latency",
                    Json::obj()
                        .field("samples", self.step_latency.samples)
                        .field("p50_ns", self.step_latency.p50_ns)
                        .field("p99_ns", self.step_latency.p99_ns)
                        .field("max_ns", self.step_latency.max_ns),
                ),
            )
    }

    /// Flushes the fleet aggregates through the current [`telemetry`]
    /// registry: deterministic `fleet.rollup.*` counters and histograms
    /// (fractional ops totals rounded to whole operations). No-op when
    /// telemetry is disabled.
    pub fn flush_telemetry(&self) {
        if !telemetry::enabled() {
            return;
        }
        telemetry::count("fleet.rollup.shards", self.shards_total);
        telemetry::count("fleet.rollup.epochs", self.epochs);
        telemetry::count("fleet.rollup.tests_correct", self.tests_correct);
        telemetry::count("fleet.rollup.tests_mispredicted", self.tests_mispredicted);
        telemetry::count("fleet.rollup.failing_tests", self.failing_tests);
        telemetry::count("fleet.rollup.final_hi_pages", self.final_hi_pages);
        telemetry::count("fleet.rollup.refresh_ops", self.refresh_ops.round() as u64);
        telemetry::count(
            "fleet.rollup.baseline_ops",
            self.baseline_ops.round() as u64,
        );
        telemetry::count("fleet.rollup.faults_injected", self.faults_injected);
        for s in &self.shards {
            telemetry::observe(
                "fleet.rollup.final_hi_per_shard",
                &FINAL_HI_EDGES,
                s.final_hi_pages,
            );
            telemetry::observe(
                "fleet.rollup.reduction_pct",
                &REDUCTION_PCT_EDGES,
                (s.refresh_reduction * 100.0).clamp(0.0, 100.0) as u64,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard(node: u64, refresh_ops: f64, baseline_ops: f64) -> ShardSummary {
        ShardSummary {
            node,
            profile: "netflix".into(),
            n_pages: 100,
            done_epoch: 3,
            refresh_reduction: 1.0 - refresh_ops / baseline_ops,
            lo_coverage: 0.5,
            refresh_ops,
            baseline_ops,
            tests_correct: 10,
            tests_mispredicted: 2,
            failing_tests: 1,
            final_hi_pages: 4,
            faults_injected: 0,
            uncorrectable_escapes: 0,
        }
    }

    #[test]
    fn totals_fold_in_shard_order() {
        let report = FleetReport::new(
            2,
            7,
            3,
            2,
            vec![shard(0, 100.0, 400.0), shard(1, 50.0, 400.0)],
            LatencySummary::default(),
        );
        assert_eq!(report.refresh_ops, 150.0);
        assert_eq!(report.baseline_ops, 800.0);
        assert!((report.refresh_reduction - (1.0 - 150.0 / 800.0)).abs() < 1e-12);
        assert_eq!(report.tests_correct, 20);
        assert_eq!(report.final_hi_pages, 8);
        assert!((report.lo_coverage - 0.5).abs() < 1e-12);
    }

    #[test]
    fn deterministic_emit_excludes_wall_clock() {
        let shards = vec![shard(0, 10.0, 40.0)];
        let a = FleetReport::new(
            1,
            1,
            2,
            2,
            shards.clone(),
            LatencySummary {
                samples: 2,
                p50_ns: 10,
                p99_ns: 20,
                max_ns: 30,
            },
        );
        let b = FleetReport::new(1, 1, 2, 2, shards, LatencySummary::default());
        assert_eq!(a.deterministic_emit(), b.deterministic_emit());
        assert_ne!(a.to_json().emit(), b.to_json().emit());
        assert_eq!(
            a.to_json().get("schema").and_then(Json::as_str),
            Some(SCHEMA)
        );
    }

    #[test]
    fn flush_records_rollup_counters() {
        let report = FleetReport::new(
            2,
            7,
            3,
            2,
            vec![shard(0, 100.0, 400.0), shard(1, 50.0, 400.0)],
            LatencySummary::default(),
        );
        let ((), registry) = telemetry::collect(|| report.flush_telemetry());
        assert_eq!(
            registry
                .counter("fleet.rollup.shards", telemetry::Class::Deterministic)
                .get(),
            2
        );
        assert_eq!(
            registry
                .counter("fleet.rollup.refresh_ops", telemetry::Class::Deterministic)
                .get(),
            150
        );
        assert_eq!(
            registry
                .histogram(
                    "fleet.rollup.final_hi_per_shard",
                    telemetry::Class::Deterministic,
                    &FINAL_HI_EDGES
                )
                .count(),
            2
        );
    }
}
