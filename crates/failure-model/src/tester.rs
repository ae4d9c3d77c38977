//! SoftMC-like chip tester: fill → idle → read back.
//!
//! [`ChipTester`] reproduces the paper's FPGA test loop (Section 5):
//!
//! 1. **fill** the module with content (a test pattern or a program image),
//! 2. **idle** for a refresh interval at the ambient temperature — the
//!    failure model decides which cells leak past recovery,
//! 3. **read back** and diff against the content as written.
//!
//! Like the real instrument, the tester only manipulates *system* addresses;
//! the internal scrambling/remapping/polarity stay hidden inside the module
//! and the failure physics.

use dram::address::RowAddr;
use dram::cell::RowContent;
use dram::module::DramModule;

use crate::model::{CellFailure, CouplingFailureModel};
use crate::params::FailureModelParams;
use crate::patterns::TestPattern;
use crate::temperature::Celsius;

/// Result of a read-back comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadBackReport {
    /// Rows that changed since the fill, with the flipped bit offsets.
    pub failing_rows: Vec<(RowAddr, Vec<u64>)>,
    /// Total rows compared.
    pub total_rows: u64,
}

impl ReadBackReport {
    /// Total number of flipped bits.
    #[must_use]
    pub fn flipped_bits(&self) -> u64 {
        self.failing_rows
            .iter()
            .map(|(_, bits)| bits.len() as u64)
            .sum()
    }

    /// Number of rows containing at least one flip.
    #[must_use]
    pub fn failing_row_count(&self) -> u64 {
        self.failing_rows.len() as u64
    }

    /// Fraction of rows containing at least one flip.
    #[must_use]
    pub fn failing_row_fraction(&self) -> f64 {
        if self.total_rows == 0 {
            0.0
        } else {
            self.failing_row_count() as f64 / self.total_rows as f64
        }
    }

    /// Whether the test observed no failures at all.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.failing_rows.is_empty()
    }
}

/// The fill → idle → read-back instrument.
#[derive(Debug, Clone)]
pub struct ChipTester {
    module: DramModule,
    model: CouplingFailureModel,
    temperature: Celsius,
    golden: Vec<RowContent>,
    /// Worker count for the idle/read-back sweeps (0 = resolve via
    /// [`memutil::par::jobs`]).
    jobs: usize,
}

impl ChipTester {
    /// Wraps a module with the given failure-model parameters at the 85 °C
    /// reference temperature.
    #[must_use]
    pub fn new(module: DramModule, params: FailureModelParams) -> Self {
        ChipTester::with_model(module, CouplingFailureModel::new(params))
    }

    /// Wraps a module with an existing model, sharing its vulnerable-cell
    /// cache — use this when an oracle or a prior sweep has already paid
    /// for the chip's cell structure.
    #[must_use]
    pub fn with_model(module: DramModule, model: CouplingFailureModel) -> Self {
        let golden = golden_image(&module);
        ChipTester {
            module,
            model,
            temperature: Celsius::REFERENCE,
            golden,
            jobs: 0,
        }
    }

    /// Sets the ambient test temperature (the paper tests at 45 °C with a
    /// 4 s interval, equivalent to 328 ms at 85 °C).
    #[must_use]
    pub fn with_temperature(mut self, temperature: Celsius) -> Self {
        self.temperature = temperature;
        self
    }

    /// Sets the worker count for the idle/read-back sweeps (`0` resolves
    /// via [`memutil::par::jobs`], `1` is the exact sequential path). The
    /// reports are bit-identical at any value — see [`memutil::par`].
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// The module under test.
    #[must_use]
    pub fn module(&self) -> &DramModule {
        &self.module
    }

    /// The failure model in use.
    #[must_use]
    pub fn model(&self) -> &CouplingFailureModel {
        &self.model
    }

    /// Fills the module with a test pattern and snapshots it as the golden
    /// image.
    pub fn fill_pattern(&mut self, pattern: &TestPattern) {
        let words = self.module.geometry().words_per_row();
        self.fill_with(|id| pattern.row_content(id, words));
    }

    /// Fills the module with arbitrary per-row content and snapshots it.
    /// The old golden image is dropped first: the fill replaces every row,
    /// so each old row is freed as its replacement lands instead of
    /// outliving the fill.
    pub fn fill_with(&mut self, f: impl FnMut(u64) -> RowContent) {
        self.golden = Vec::new();
        self.module.fill_with(f);
        self.golden = golden_image(&self.module);
    }

    /// Lets the module sit unrefreshed for `interval_ms` of wall time at the
    /// ambient temperature. Failing cells flip in the module content; the
    /// failures are also returned directly (the physics-side view — a real
    /// instrument would only learn them from [`ChipTester::read_back`]).
    pub fn idle_ms(&mut self, interval_ms: f64) -> Vec<CellFailure> {
        let equivalent = self.temperature.equivalent_interval_ms(interval_ms);
        let failures = self
            .model
            .evaluate_module_with_jobs(&self.module, equivalent, self.jobs);
        self.model.apply(&mut self.module, &failures);
        failures
    }

    /// Reads every row back and diffs against the golden image.
    ///
    /// The golden image shares each row's storage with the module as
    /// filled (see [`RowContent`]), so a row nothing has written since the
    /// fill diffs empty at once; a row the failure model flipped owns a
    /// buffer of its own and is compared word by word, as is every row
    /// written through any other path.
    ///
    /// The golden-vs-readback diff fans out over chunked row ranges on the
    /// [`memutil::par`] pool; rows are reduced in row-id order, so the
    /// report is bit-identical to the sequential sweep at any worker count.
    #[must_use]
    pub fn read_back(&self) -> ReadBackReport {
        let g = *self.module.geometry();
        let per_row = memutil::par::ordered_map_with(self.jobs, g.total_rows() as usize, |i| {
            let id = i as u64;
            let diff = self.golden[i].diff_bits(self.module.read_row_id(id));
            (!diff.is_empty()).then(|| (RowAddr::from_row_id(id, &g), diff))
        });
        ReadBackReport {
            failing_rows: per_row.into_iter().flatten().collect(),
            total_rows: g.total_rows(),
        }
    }

    /// Restores the golden image (models refreshing/rewriting the rows
    /// before the next test).
    pub fn restore(&mut self) {
        let golden = &self.golden;
        self.module.fill_with(|id| golden[id as usize].clone());
    }

    /// Runs a whole pattern suite: for each pattern, fill → idle →
    /// read back, returning the per-pattern report.
    ///
    /// Patterns fan out across the pool, each on its own tester clone —
    /// sound because `fill` overwrites every row, so each pattern's report
    /// depends only on the pattern and the chip identity, never on the
    /// previous pattern's residue. The tester is left in the last
    /// pattern's post-test state, exactly as the sequential loop leaves it.
    pub fn run_suite(
        &mut self,
        patterns: &[TestPattern],
        interval_ms: f64,
    ) -> Vec<(TestPattern, ReadBackReport)> {
        let mut runs = memutil::par::ordered_map_with(self.jobs, patterns.len(), |i| {
            let mut tester = self.clone().with_jobs(1);
            tester.fill_pattern(&patterns[i]);
            let _ = tester.idle_ms(interval_ms);
            let report = tester.read_back();
            (tester, (patterns[i], report))
        });
        let mut out = Vec::with_capacity(runs.len());
        if let Some((last, _)) = runs.last_mut() {
            std::mem::swap(&mut self.module, &mut last.module);
            std::mem::swap(&mut self.golden, &mut last.golden);
        }
        for (_, result) in runs {
            out.push(result);
        }
        out
    }
}

/// Every row of `module`, sharing each row's storage.
fn golden_image(module: &DramModule) -> Vec<RowContent> {
    (0..module.geometry().total_rows())
        .map(|id| module.read_row_id(id).clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram::geometry::DramGeometry;
    use dram::timing::TimingParams;

    fn tester(seed: u64) -> ChipTester {
        let module = DramModule::new(DramGeometry::tiny(), TimingParams::ddr3_1600(), seed);
        ChipTester::new(module, FailureModelParams::calibrated())
    }

    #[test]
    fn clean_before_idle() {
        let mut t = tester(1);
        t.fill_pattern(&TestPattern::Random(0));
        let report = t.read_back();
        assert!(report.is_clean());
        assert_eq!(report.total_rows, 128);
    }

    #[test]
    fn readback_matches_physics_failures() {
        let mut t = tester(2);
        t.fill_pattern(&TestPattern::Random(1));
        // Long idle at reference temperature to force failures on the tiny
        // module.
        let failures = t.idle_ms(60_000.0);
        let report = t.read_back();
        assert_eq!(report.flipped_bits(), failures.len() as u64);
        if !failures.is_empty() {
            assert!(!report.is_clean());
        }
    }

    #[test]
    fn restore_clears_failures() {
        let mut t = tester(3);
        t.fill_pattern(&TestPattern::Random(2));
        let _ = t.idle_ms(120_000.0);
        t.restore();
        assert!(t.read_back().is_clean());
    }

    #[test]
    fn temperature_scales_failure_count() {
        // The same wall-clock idle produces fewer failures when cooler.
        let mut hot = tester(4);
        hot.fill_pattern(&TestPattern::Random(3));
        let hot_fail = hot.idle_ms(120_000.0).len();

        let mut cold = tester(4).with_temperature(Celsius(45.0));
        cold.fill_pattern(&TestPattern::Random(3));
        let cold_fail = cold.idle_ms(120_000.0).len();
        assert!(
            cold_fail <= hot_fail,
            "cold {cold_fail} should not exceed hot {hot_fail}"
        );
    }

    #[test]
    fn suite_runs_all_patterns() {
        let mut t = tester(5);
        let patterns = TestPattern::suite(2);
        let results = t.run_suite(&patterns, 30_000.0);
        assert_eq!(results.len(), 10);
        for (_, report) in &results {
            assert_eq!(report.total_rows, 128);
        }
    }

    #[test]
    fn failing_row_fraction_bounds() {
        let mut t = tester(6);
        t.fill_pattern(&TestPattern::Random(7));
        let _ = t.idle_ms(500_000.0);
        let r = t.read_back();
        let f = r.failing_row_fraction();
        assert!((0.0..=1.0).contains(&f));
        assert_eq!(r.failing_row_count() == 0, r.is_clean());
    }

    #[test]
    fn reports_are_jobs_invariant() {
        // fill → idle → read back must yield bit-identical reports at any
        // worker count, including the whole-suite sweep.
        let patterns = TestPattern::suite(1);
        let run = |jobs: usize| {
            let mut t = tester(8).with_jobs(jobs);
            let suite = t.run_suite(&patterns, 60_000.0);
            t.fill_pattern(&TestPattern::Random(9));
            let failures = t.idle_ms(60_000.0);
            (suite, failures, t.read_back())
        };
        let sequential = run(1);
        for jobs in [2usize, 8] {
            assert_eq!(sequential, run(jobs), "diverged at jobs={jobs}");
        }
    }

    #[test]
    fn with_model_shares_the_cell_cache() {
        let module = DramModule::new(DramGeometry::tiny(), TimingParams::ddr3_1600(), 12);
        let model = crate::model::CouplingFailureModel::new(FailureModelParams::calibrated());
        // Pay for the chip structure up front, as an oracle would.
        let _ = model.worst_case_failing_row_fraction(&module, 60_000.0);
        let t = ChipTester::with_model(module, model.clone());
        assert_eq!(t.model().cell_cache().chip_count(), 1);
        assert_eq!(model.cell_cache().chip_count(), 1);
    }

    #[test]
    fn hot_charge_images_never_leak_across_writes() {
        // Writes land on the module mid-suite (fill, idle's apply, restore)
        // after repeated sweeps of unchanged content; every report must
        // match a tester that never swept before the suite.
        let patterns = TestPattern::suite(4);
        let mut heated = tester(31);
        heated.fill_pattern(&TestPattern::Random(5));
        for _ in 0..4 {
            let _ = heated.model().evaluate_module(heated.module(), 60_000.0);
        }
        let mut cold = tester(31);
        cold.fill_pattern(&TestPattern::Random(5));
        assert_eq!(
            heated.run_suite(&patterns, 60_000.0),
            cold.run_suite(&patterns, 60_000.0),
            "heated tester diverged from cold across a suite"
        );
        // And the classic stale-read sequence: idle → restore → idle must
        // reproduce the first result exactly.
        heated.fill_pattern(&TestPattern::Random(6));
        let first = heated.idle_ms(60_000.0);
        heated.restore();
        let second = heated.idle_ms(60_000.0);
        assert_eq!(first, second, "restore left stale charge state behind");
    }

    /// A 512-row tester of 8 KB rows, where random content fails some
    /// tens of cells at the 328 ms interval.
    fn wide_tester(seed: u64) -> ChipTester {
        let geometry = DramGeometry {
            rows_per_bank: 64,
            ..DramGeometry::module_2gb()
        };
        let module = DramModule::new(geometry, TimingParams::ddr3_1600(), seed);
        ChipTester::new(module, FailureModelParams::calibrated())
    }

    fn module_rows(m: &DramModule) -> Vec<RowContent> {
        (0..m.geometry().total_rows())
            .map(|id| m.read_row_id(id).clone())
            .collect()
    }

    /// Copies of `rows` in fresh buffers, sharing storage with nothing.
    fn deep_copy(rows: &[RowContent]) -> Vec<RowContent> {
        rows.iter()
            .map(|r| RowContent::from_words(r.as_words().to_vec()))
            .collect()
    }

    #[test]
    fn a_clones_fill_and_idle_leave_the_parent_untouched() {
        let mut parent = wide_tester(9);
        parent.fill_pattern(&TestPattern::Random(4));
        let before = deep_copy(&module_rows(parent.module()));
        // One clone idles on the rows it shares with the parent; the other
        // fills content of its own first.
        let mut shared = parent.clone();
        assert!(!shared.idle_ms(328.0).is_empty());
        let mut refilled = parent.clone();
        refilled.fill_pattern(&TestPattern::Random(5));
        assert!(!refilled.idle_ms(328.0).is_empty());
        assert!(parent.read_back().is_clean());
        assert_eq!(
            module_rows(parent.module()),
            before,
            "a clone's flips reached the parent's rows"
        );
    }

    /// Read-back against the shared golden reports what a diff against a
    /// deep-copied golden reports, where no row shares storage and every
    /// row takes the full word-by-word path: exactly the model's failures.
    #[test]
    fn read_back_matches_a_deep_copied_golden() {
        for jobs in [1usize, 2, 8] {
            let mut t = wide_tester(10).with_jobs(jobs);
            t.fill_pattern(&TestPattern::Random(8));
            // Keeps every golden buffer shared while `t` idles.
            let _witness = t.clone();
            let failures = t.idle_ms(328.0);
            assert!(!failures.is_empty());
            let g = *t.module().geometry();
            let full: Vec<(RowAddr, Vec<u64>)> = deep_copy(&t.golden)
                .iter()
                .zip(module_rows(t.module()))
                .enumerate()
                .filter_map(|(id, (golden, row))| {
                    let diff = golden.diff_bits(&row);
                    (!diff.is_empty()).then(|| (RowAddr::from_row_id(id as u64, &g), diff))
                })
                .collect();
            let report = t.read_back();
            assert_eq!(report.failing_rows, full, "jobs={jobs}");
            assert_eq!(report.flipped_bits(), failures.len() as u64, "jobs={jobs}");
        }
    }

    #[test]
    fn empty_report_fraction_is_zero() {
        let r = ReadBackReport {
            failing_rows: vec![],
            total_rows: 0,
        };
        assert_eq!(r.failing_row_fraction(), 0.0);
    }
}
