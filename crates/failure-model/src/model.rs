//! The bitline-coupling data-dependent failure model.
//!
//! Every DRAM cell has a *base retention time* drawn from the tail of a
//! lognormal distribution. Neighbouring cells that hold the opposite
//! **charge** act as aggressors: parasitic bitline (horizontal) and wordline
//! (vertical) coupling accelerates the victim's leakage by a per-cell weight.
//! A charged cell loses its data during a refresh interval `R` iff
//!
//! ```text
//! retention / (1 + Σ aggressor weights) < R
//! ```
//!
//! Because aggressor geometry lives in the chip's *internal* space — after
//! vendor scrambling ([`dram::scramble`]), column repair ([`dram::remap`]),
//! and true/anti-cell polarity ([`dram::cell`]) — the same system-level data
//! pattern excites different cells on every chip, which is precisely the
//! property that motivates MEMCON.
//!
//! Cells with retention far above any interval of interest can never fail,
//! so only the sparse "band" of potentially vulnerable cells is materialized,
//! deterministically per `(chip seed, rank, bank, row)`: the model is a pure
//! function of the chip identity, like real silicon.
//!
//! # Evaluation kernel
//!
//! Evaluation runs through a two-level fast path that is bit-identical to
//! the definitional one (`CouplingFailureModel::evaluate_row_reference`,
//! kept for the equivalence tests and the `slow-reference` feature):
//!
//! * the [`crate::cache::VulnerableCellCache`] materializes each row's
//!   cells once per chip — with remap neighbours and system attribution
//!   precomputed — so a sweep pays the Poisson/RNG sampling only on its
//!   first pass and skips empty rows (the vast majority) outright;
//! * charge reads go through three [`DramModule::charge_row`] views per
//!   row (victim, up, down), which resolve each row's system row and
//!   true/anti polarity once, so a cell's charge costs two indexed loads
//!   instead of a scramble/polarity walk. The views read the content
//!   stored now, so one-shot and repeated sweeps take the same path.

use std::cell::RefCell;
use std::sync::Arc;

use memutil::rng::SmallRng;
use memutil::rng::{Rng, SeedableRng};

use dram::address::RowAddr;
use dram::module::DramModule;

use crate::cache::VulnerableCellCache;
use crate::math::poisson_sample;
use crate::params::FailureModelParams;

/// One materialized potentially-vulnerable cell within a row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VulnerableCell {
    /// Internal (post-scramble, pre-remap) bitline index within the row.
    pub internal_bit: u64,
    /// Base retention time in seconds at the 85 °C reference.
    pub retention_s: f64,
    /// Aggressor weight of the left bitline neighbour.
    pub w_left: f64,
    /// Aggressor weight of the right bitline neighbour.
    pub w_right: f64,
    /// Aggressor weight of the wordline neighbour above.
    pub w_up: f64,
    /// Aggressor weight of the wordline neighbour below.
    pub w_down: f64,
}

impl VulnerableCell {
    /// Maximum possible aggressor sum for this cell.
    #[must_use]
    pub fn max_sum(&self) -> f64 {
        self.w_left + self.w_right + self.w_up + self.w_down
    }

    /// Whether the cell fails at `interval_ms` (85 °C-equivalent) with
    /// aggressor sum `sum`.
    #[must_use]
    pub fn fails(&self, interval_ms: f64, sum: f64) -> bool {
        self.retention_s / (1.0 + sum) * 1000.0 < interval_ms
    }

    /// Whether the cell is *weak*: it fails at `interval_ms` even with no
    /// aggressors (data-independently). The paper's footnote 1 notes these
    /// are trivially detectable; the model tracks them separately.
    #[must_use]
    pub fn is_weak(&self, interval_ms: f64) -> bool {
        self.fails(interval_ms, 0.0)
    }
}

/// One observed cell failure, in both internal and system coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CellFailure {
    /// Rank of the failing cell.
    pub rank: u8,
    /// Bank of the failing cell.
    pub bank: u8,
    /// Internal row index.
    pub internal_row: u32,
    /// Internal bitline index.
    pub internal_bit: u64,
    /// System-visible row address (what the memory controller sees flip).
    pub system_row: RowAddr,
    /// System-visible bit offset within the row.
    pub system_bit: u64,
}

fn row_seed(chip_seed: u64, rank: u8, bank: u8, internal_row: u32) -> u64 {
    // splitmix64-style mixing of the coordinates.
    let mut z =
        chip_seed ^ (u64::from(rank) << 56) ^ (u64::from(bank) << 48) ^ u64::from(internal_row);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Samples the vulnerable cells of one internal row, in generation order.
/// Deterministic in `(chip_seed, rank, bank, internal_row)`; this is the
/// single source of truth both [`CouplingFailureModel::vulnerable_cells`]
/// and the [`VulnerableCellCache`] draw from.
pub(crate) fn sample_row_cells(
    params: &FailureModelParams,
    chip_seed: u64,
    rank: u8,
    bank: u8,
    internal_row: u32,
    bits_per_row: u64,
) -> Vec<VulnerableCell> {
    let mut rng = SmallRng::seed_from_u64(row_seed(chip_seed, rank, bank, internal_row));
    let lambda = params.cells_per_row(bits_per_row);
    let count = poisson_sample(&mut rng, lambda);
    let r_cal_s = params.calibration_interval_ms / 1000.0;
    let (h_lo, h_hi) = params.horizontal_weight;
    let (v_lo, v_hi) = params.vertical_weight;
    (0..count)
        .map(|_| {
            let internal_bit = rng.gen_range(0..bits_per_row);
            let w_left = rng.gen_range(h_lo..=h_hi);
            let w_right = rng.gen_range(h_lo..=h_hi);
            let w_up = rng.gen_range(v_lo..=v_hi);
            let w_down = rng.gen_range(v_lo..=v_hi);
            let retention_s = if rng.gen::<f64>() < params.weak_fraction {
                // Weak cell: retention just below the calibration
                // interval; fails data-independently.
                r_cal_s * rng.gen_range(0.6..1.0)
            } else {
                let max_sum = w_left + w_right + w_up + w_down;
                let u: f64 = rng.gen();
                let theta = max_sum * u.powf(params.threshold_shape);
                r_cal_s * (1.0 + theta)
            };
            VulnerableCell {
                internal_bit,
                retention_s,
                w_left,
                w_right,
                w_up,
                w_down,
            }
        })
        .collect()
}

/// Telemetry handles for one module sweep, bound before the per-bank
/// fan-out. All deterministic class: rows/banks/failure totals are pure
/// simulation state, and cold/warm fill counts come from once-only
/// `OnceLock` initialization, so summed values are independent of worker
/// interleaving.
struct EvalTelemetry {
    banks: Arc<telemetry::Counter>,
    rows: Arc<telemetry::Counter>,
    cold_fills: Arc<telemetry::Counter>,
    warm_hits: Arc<telemetry::Counter>,
    failures: Arc<telemetry::Counter>,
    bank_failures: Arc<telemetry::Histogram>,
}

impl EvalTelemetry {
    /// Bucket edges for the per-bank failure-count histogram.
    const BANK_FAILURE_EDGES: [u64; 9] = [0, 1, 2, 4, 8, 16, 32, 64, 128];

    /// Binds handles on the current registry, or `None` when telemetry is
    /// disabled (the sweep then runs the uninstrumented path).
    ///
    /// The six registry lookups (mutex + name maps) cost ~300 ns — real
    /// money against a single-bank sweep — so the bound handles are
    /// memoized per thread and revalidated by registry identity: repeat
    /// sweeps under the same registry pay one `current()` resolution, an
    /// identity check, and a single `Arc` bump, while a scoped-registry
    /// swap (tests, `xtask obs`) rebinds on first use.
    fn bind() -> Option<Arc<EvalTelemetry>> {
        thread_local! {
            static CACHE: RefCell<Option<(Arc<telemetry::Registry>, Arc<EvalTelemetry>)>> =
                const { RefCell::new(None) };
        }
        let r = telemetry::current();
        if !r.is_enabled() {
            return None;
        }
        CACHE.with(|slot| {
            let mut slot = slot.borrow_mut();
            if let Some((bound, tm)) = slot.as_ref() {
                if Arc::ptr_eq(bound, &r) {
                    return Some(Arc::clone(tm));
                }
            }
            let tm = Arc::new(EvalTelemetry::bind_on(&r));
            *slot = Some((r, Arc::clone(&tm)));
            Some(tm)
        })
    }

    /// Uncached handle binding against one specific registry.
    fn bind_on(r: &telemetry::Registry) -> EvalTelemetry {
        let det = telemetry::Class::Deterministic;
        EvalTelemetry {
            banks: r.counter("failure_model.eval.banks", det),
            rows: r.counter("failure_model.eval.rows", det),
            cold_fills: r.counter("failure_model.cache.cold_fills", det),
            warm_hits: r.counter("failure_model.cache.warm_hits", det),
            failures: r.counter("failure_model.eval.failures", det),
            bank_failures: r.histogram(
                "failure_model.eval.bank_failures",
                det,
                &Self::BANK_FAILURE_EDGES,
            ),
        }
    }

    /// Batched per-bank update: one call per `(rank, bank)` sweep leg.
    fn note_bank(&self, rows: u64, cold: u64, failures: u64) {
        self.banks.incr();
        self.rows.add(rows);
        self.cold_fills.add(cold);
        self.warm_hits.add(rows.saturating_sub(cold));
        self.failures.add(failures);
        self.bank_failures.record(failures);
    }
}

/// The coupling failure model: the parameters plus a shared, lazily built
/// [`VulnerableCellCache`] of per-chip cell structure. Cloning shares the
/// cache; equality compares parameters only (the cache is pure memoization
/// and never affects results).
#[derive(Debug, Clone)]
pub struct CouplingFailureModel {
    params: FailureModelParams,
    cache: VulnerableCellCache,
}

impl PartialEq for CouplingFailureModel {
    fn eq(&self, other: &Self) -> bool {
        self.params == other.params
    }
}

impl CouplingFailureModel {
    /// Creates a model with the given parameters.
    ///
    /// # Panics
    ///
    /// Panics if `params` fails validation.
    #[must_use]
    pub fn new(params: FailureModelParams) -> Self {
        params.validate().expect("invalid failure-model parameters");
        CouplingFailureModel {
            params,
            cache: VulnerableCellCache::default(),
        }
    }

    /// The model parameters.
    #[must_use]
    pub fn params(&self) -> &FailureModelParams {
        &self.params
    }

    /// The model's vulnerable-cell cache (shared across clones).
    #[must_use]
    pub fn cell_cache(&self) -> &VulnerableCellCache {
        &self.cache
    }

    /// The materialized vulnerable cells of one internal row. Deterministic
    /// in `(chip_seed, rank, bank, internal_row)`.
    ///
    /// Each non-weak cell's retention is `R_cal · (1 + θ)` with aggression
    /// threshold `θ = Σmax_cell · u^shape`: at the calibration interval the
    /// cell fails exactly when its hostile-neighbour weight sum exceeds `θ`.
    /// Weak cells get retention just below `R_cal` and fail unconditionally
    /// (when charged).
    #[must_use]
    pub fn vulnerable_cells(
        &self,
        chip_seed: u64,
        rank: u8,
        bank: u8,
        internal_row: u32,
        bits_per_row: u64,
    ) -> Vec<VulnerableCell> {
        sample_row_cells(
            &self.params,
            chip_seed,
            rank,
            bank,
            internal_row,
            bits_per_row,
        )
    }

    /// Evaluates one internal row of `module` against the current content at
    /// an (85 °C-equivalent) refresh interval, returning the failures.
    ///
    /// Does not modify the module; see [`CouplingFailureModel::apply`] for
    /// committing the flips.
    #[must_use]
    pub fn evaluate_row(
        &self,
        module: &DramModule,
        rank: u8,
        bank: u8,
        internal_row: u32,
        interval_ms: f64,
    ) -> Vec<CellFailure> {
        let mut out = Vec::new();
        self.evaluate_row_into(module, rank, bank, internal_row, interval_ms, &mut out);
        out
    }

    /// [`CouplingFailureModel::evaluate_row`] into a caller-owned scratch
    /// vector: **appends** this row's failures to `out` (clear it first for
    /// a fresh result). Lets sweeps and oracles reuse one allocation.
    pub fn evaluate_row_into(
        &self,
        module: &DramModule,
        rank: u8,
        bank: u8,
        internal_row: u32,
        interval_ms: f64,
        out: &mut Vec<CellFailure>,
    ) {
        let chip = self.cache.chip(module);
        let row = chip.row(&self.params, module, rank, bank, internal_row);
        self.eval_row_cells(row, module, rank, bank, internal_row, interval_ms, out);
    }

    /// The evaluation kernel, on one row's cached cells. Bit-identical to
    /// [`CouplingFailureModel::evaluate_row_reference`]: cells are walked in
    /// generation order (via the cache's `by_gen` permutation) and aggressor
    /// weights are summed left, right, up, down, so both the failure list
    /// and every f64 accumulation match the definitional path exactly.
    #[allow(clippy::too_many_arguments)]
    fn eval_row_cells(
        &self,
        row: &crate::cache::RowCells,
        module: &DramModule,
        rank: u8,
        bank: u8,
        internal_row: u32,
        interval_ms: f64,
        out: &mut Vec<CellFailure>,
    ) {
        if row.cells.is_empty() {
            return; // most rows: no vulnerable cells, no content probes
        }
        let rows_per_bank = module.geometry().rows_per_bank;
        let victim = module.charge_row(rank, bank, internal_row);
        let up = (internal_row > 0).then(|| module.charge_row(rank, bank, internal_row - 1));
        let down = (internal_row + 1 < rows_per_bank)
            .then(|| module.charge_row(rank, bank, internal_row + 1));
        for &pos in row.by_gen.iter() {
            let c = &row.cells[pos];
            let bit = c.cell.internal_bit;
            let victim_charged = victim.charge(bit);
            if !victim_charged {
                continue; // only charged cells leak to a flip
            }
            let mut sum = 0.0;
            if let Some(lb) = c.left {
                if victim.charge(lb) != victim_charged {
                    sum += c.cell.w_left;
                }
            }
            if let Some(rb) = c.right {
                if victim.charge(rb) != victim_charged {
                    sum += c.cell.w_right;
                }
            }
            if let Some(up) = &up {
                if up.charge(bit) != victim_charged {
                    sum += c.cell.w_up;
                }
            }
            if let Some(down) = &down {
                if down.charge(bit) != victim_charged {
                    sum += c.cell.w_down;
                }
            }
            if c.cell.fails(interval_ms, sum) {
                out.push(CellFailure {
                    rank,
                    bank,
                    internal_row,
                    internal_bit: bit,
                    system_row: RowAddr::new(rank, bank, row.sys_row),
                    system_bit: c.sys_bit,
                });
            }
        }
    }

    /// The definitional (uncached, probe-at-a-time) row evaluation the
    /// kernel is tested against. Kept under `cfg(test)` and the
    /// `slow-reference` feature so external users can cross-check too.
    #[cfg(any(test, feature = "slow-reference"))]
    #[must_use]
    pub fn evaluate_row_reference(
        &self,
        module: &DramModule,
        rank: u8,
        bank: u8,
        internal_row: u32,
        interval_ms: f64,
    ) -> Vec<CellFailure> {
        let g = *module.geometry();
        let bits = g.bits_per_row();
        let rows = g.rows_per_bank;
        let probe_addr = RowAddr::new(rank, bank, 0);
        let remap = module.remap_for(probe_addr);
        let mut out = Vec::new();
        for cell in self.vulnerable_cells(module.chip_seed(), rank, bank, internal_row, bits) {
            let victim_charged =
                module.charge_at_internal(rank, bank, internal_row, cell.internal_bit);
            if !victim_charged {
                continue; // only charged cells leak to a flip
            }
            let phys = remap.physical_of(cell.internal_bit);
            let (left, right) = remap.live_neighbors(phys);
            let mut sum = 0.0;
            if let Some(lb) = left {
                if module.charge_at_internal(rank, bank, internal_row, lb) != victim_charged {
                    sum += cell.w_left;
                }
            }
            if let Some(rb) = right {
                if module.charge_at_internal(rank, bank, internal_row, rb) != victim_charged {
                    sum += cell.w_right;
                }
            }
            if internal_row > 0
                && module.charge_at_internal(rank, bank, internal_row - 1, cell.internal_bit)
                    != victim_charged
            {
                sum += cell.w_up;
            }
            if internal_row + 1 < rows
                && module.charge_at_internal(rank, bank, internal_row + 1, cell.internal_bit)
                    != victim_charged
            {
                sum += cell.w_down;
            }
            if cell.fails(interval_ms, sum) {
                let (system_row, system_bit) =
                    module.internal_to_system(rank, bank, internal_row, cell.internal_bit);
                out.push(CellFailure {
                    rank,
                    bank,
                    internal_row,
                    internal_bit: cell.internal_bit,
                    system_row,
                    system_bit,
                });
            }
        }
        out
    }

    /// Evaluates the *system-addressed* row `addr` (translating through the
    /// chip's scrambler to the internal row) against the current content at
    /// `interval_ms` — the view an online tester like MEMCON has.
    #[must_use]
    pub fn evaluate_system_row(
        &self,
        module: &DramModule,
        addr: RowAddr,
        interval_ms: f64,
    ) -> Vec<CellFailure> {
        let internal_row = module.scrambler_for(addr).to_internal_row(addr.row);
        self.evaluate_row(module, addr.rank, addr.bank, internal_row, interval_ms)
    }

    /// Evaluates every row of the module, returning all failures for the
    /// current content at `interval_ms`.
    ///
    /// Runs on the [`memutil::par`] pool at the globally resolved worker
    /// count; see [`CouplingFailureModel::evaluate_module_with_jobs`] for
    /// the determinism contract.
    #[must_use]
    pub fn evaluate_module(&self, module: &DramModule, interval_ms: f64) -> Vec<CellFailure> {
        self.evaluate_module_with_jobs(module, interval_ms, 0)
    }

    /// [`CouplingFailureModel::evaluate_module`] with an explicit worker
    /// count (`jobs = 0` resolves automatically, `jobs = 1` is the plain
    /// sequential loop).
    ///
    /// The sweep fans out per `(rank, bank)` — over the chip cache's
    /// prebuilt bank list — and reduces the per-bank failure lists in
    /// rank-major order, so the result is bit-identical to the sequential
    /// rank → bank → row iteration at any `jobs`.
    #[must_use]
    pub fn evaluate_module_with_jobs(
        &self,
        module: &DramModule,
        interval_ms: f64,
        jobs: usize,
    ) -> Vec<CellFailure> {
        let rows_per_bank = module.geometry().rows_per_bank;
        let chip = self.cache.chip(module);
        let banks = chip.bank_list();
        // Telemetry handles are bound once, outside the fan-out (pool
        // workers must not consult the process-wide current registry).
        // Both arms run the same row loop: enabled telemetry adds only the
        // per-bank flush.
        let tm = EvalTelemetry::bind();
        // The fault plan is likewise hoisted: when disabled this is one
        // relaxed atomic load and no flip is drawn. Injection is *keyed*
        // per (rank, bank, row) — a pure hash of the plan seed — so the
        // result stays bit-identical at any `jobs`.
        let fault_plan = if faultinject::enabled() {
            faultinject::active_plan()
        } else {
            None
        };
        let bits_per_row = module.geometry().words_per_row() as u64 * 64;
        memutil::par::ordered_flat_map_with(jobs, banks.len(), |i| {
            let (rank, bank) = banks[i];
            let key = |row: u32| (u64::from(rank) << 44) | (u64::from(bank) << 36) | u64::from(row);
            // The bank's transient flips, drawn in one pass before the row
            // loop: a draw inside the loop costs more than 2 % of the kernel
            // even when nothing fires.
            let flips: Vec<u32> = match &fault_plan {
                Some(plan) => (0..rows_per_bank)
                    .filter(|&row| plan.fires(faultinject::Site::DramBitFlip, key(row)))
                    .collect(),
                None => Vec::new(),
            };
            let mut flips = flips.into_iter().peekable();
            let mut out = Vec::new();
            let mut cold = 0u64;
            for row in 0..rows_per_bank {
                let cells = chip.row_counted(&self.params, module, rank, bank, row, &mut cold);
                self.eval_row_cells(cells, module, rank, bank, row, interval_ms, &mut out);
                if flips.next_if_eq(&row).is_some() {
                    // A transient flip manifests as one extra failing cell.
                    let internal_bit = key(row).wrapping_mul(0x9E37_79B9_7F4A_7C15) % bits_per_row;
                    let (system_row, system_bit) =
                        module.internal_to_system(rank, bank, row, internal_bit);
                    out.push(CellFailure {
                        rank,
                        bank,
                        internal_row: row,
                        internal_bit,
                        system_row,
                        system_bit,
                    });
                }
            }
            if let Some(tm) = &tm {
                tm.note_bank(u64::from(rows_per_bank), cold, out.len() as u64);
            }
            out
        })
    }

    /// Commits a set of failures to the module content: each failing
    /// (charged) cell discharges, flipping its system-visible bit.
    pub fn apply(&self, module: &mut DramModule, failures: &[CellFailure]) {
        for f in failures {
            module
                .row_mut(f.system_row)
                .expect("failure address must be valid")
                .flip_bit(f.system_bit);
        }
    }

    /// Physics-side oracle: can this internal row fail at `interval_ms` with
    /// *some* data content (the paper's "ALL FAIL" reference)? True iff some
    /// vulnerable cell fails under maximal aggression.
    #[must_use]
    pub fn row_can_fail(
        &self,
        chip_seed: u64,
        rank: u8,
        bank: u8,
        internal_row: u32,
        bits_per_row: u64,
        interval_ms: f64,
    ) -> bool {
        self.vulnerable_cells(chip_seed, rank, bank, internal_row, bits_per_row)
            .iter()
            .any(|c| c.fails(interval_ms, c.max_sum()))
    }

    /// Physics-side oracle: fraction of rows in the module that can fail at
    /// `interval_ms` with some content.
    #[must_use]
    pub fn worst_case_failing_row_fraction(&self, module: &DramModule, interval_ms: f64) -> f64 {
        self.worst_case_failing_row_fraction_with_jobs(module, interval_ms, 0)
    }

    /// [`CouplingFailureModel::worst_case_failing_row_fraction`] with an
    /// explicit worker count (`jobs = 0` resolves automatically). Fans out
    /// per `(rank, bank)` over the cached cells (content never matters
    /// here, so the cache answers directly); the per-bank failing-row
    /// counts are integers, so the reduction is exact at any `jobs`.
    #[must_use]
    pub fn worst_case_failing_row_fraction_with_jobs(
        &self,
        module: &DramModule,
        interval_ms: f64,
        jobs: usize,
    ) -> f64 {
        let g = *module.geometry();
        let chip = self.cache.chip(module);
        let banks = chip.bank_list();
        let per_bank = memutil::par::ordered_map_with(jobs, banks.len(), |i| {
            let (rank, bank) = banks[i];
            (0..g.rows_per_bank)
                .filter(|&row| {
                    chip.row(&self.params, module, rank, bank, row)
                        .cells
                        .iter()
                        .any(|c| c.cell.fails(interval_ms, c.cell.max_sum()))
                })
                .count() as u64
        });
        per_bank.iter().sum::<u64>() as f64 / g.total_rows() as f64
    }
}

impl Default for CouplingFailureModel {
    fn default() -> Self {
        CouplingFailureModel::new(FailureModelParams::calibrated())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram::cell::RowContent;
    use dram::geometry::DramGeometry;
    use dram::timing::TimingParams;
    use memutil::rng::SeedableRng;
    use memutil::rng::SmallRng;

    fn test_module(seed: u64) -> DramModule {
        // 2 banks x 64 rows x 256 B rows (2048 bits): small but non-trivial.
        DramModule::new(DramGeometry::tiny(), TimingParams::ddr3_1600(), seed)
    }

    #[test]
    fn vulnerable_cells_are_deterministic() {
        let m = CouplingFailureModel::default();
        let a = m.vulnerable_cells(7, 0, 1, 33, 65_536);
        let b = m.vulnerable_cells(7, 0, 1, 33, 65_536);
        assert_eq!(a, b);
    }

    #[test]
    fn vulnerable_cells_differ_across_rows_and_chips() {
        let m = CouplingFailureModel::default();
        // Over many rows, at least some must have distinct cell sets per chip.
        let count = |seed: u64| -> usize {
            (0..2000u32)
                .map(|r| m.vulnerable_cells(seed, 0, 0, r, 65_536).len())
                .sum()
        };
        let a = count(1);
        let b = count(2);
        // Poisson sums with different seeds virtually never collide exactly
        // AND have identical per-row layouts; compare layouts directly.
        let la: Vec<_> = (0..2000u32)
            .map(|r| m.vulnerable_cells(1, 0, 0, r, 65_536))
            .collect();
        let lb: Vec<_> = (0..2000u32)
            .map(|r| m.vulnerable_cells(2, 0, 0, r, 65_536))
            .collect();
        assert_ne!(la, lb, "counts were {a} vs {b}");
    }

    #[test]
    fn cell_count_matches_poisson_rate() {
        let m = CouplingFailureModel::default();
        let bits = 65_536u64;
        let rows = 20_000u32;
        let total: usize = (0..rows)
            .map(|r| m.vulnerable_cells(99, 0, 0, r, bits).len())
            .sum();
        let expected = m.params().cells_per_row(bits) * f64::from(rows);
        let got = total as f64;
        assert!(
            (got - expected).abs() < 4.0 * expected.sqrt().max(1.0),
            "got {got}, expected {expected}"
        );
    }

    #[test]
    fn retention_samples_stay_in_band() {
        let m = CouplingFailureModel::default();
        let r_cal = m.params().calibration_interval_ms / 1000.0;
        let max = r_cal * (1.0 + m.params().max_aggressor_sum());
        for r in 0..5000u32 {
            for c in m.vulnerable_cells(3, 0, 0, r, 65_536) {
                assert!(c.retention_s > 0.0);
                assert!(
                    c.retention_s <= max * 1.0001,
                    "retention {} above band",
                    c.retention_s
                );
                if c.is_weak(m.params().calibration_interval_ms) {
                    assert!(c.retention_s < r_cal);
                } else {
                    assert!(c.retention_s >= r_cal);
                    // Threshold semantics: fails at calibration interval
                    // under maximal aggression.
                    assert!(c.fails(m.params().calibration_interval_ms, c.max_sum() + 1e-9));
                }
            }
        }
    }

    #[test]
    fn weak_cells_are_rare_compared_to_band() {
        let m = CouplingFailureModel::default();
        let mut band = 0u64;
        let mut weak = 0u64;
        for r in 0..50_000u32 {
            for c in m.vulnerable_cells(5, 0, 0, r, 65_536) {
                band += 1;
                if c.is_weak(328.0) {
                    weak += 1;
                }
            }
        }
        assert!(band > 0);
        assert!(
            (weak as f64) < 0.25 * band as f64,
            "weak {weak} of {band} band cells"
        );
    }

    #[test]
    fn no_failures_with_zero_interval() {
        let m = CouplingFailureModel::default();
        let module = test_module(11);
        assert!(m.evaluate_module(&module, 0.0).is_empty());
    }

    #[test]
    fn failures_monotone_in_interval() {
        let m = CouplingFailureModel::default();
        let mut module = test_module(13);
        // Random content maximizes aggressor excitation.
        let words = module.geometry().words_per_row();
        let mut rng = SmallRng::seed_from_u64(0);
        module.fill_with(|_| RowContent::from_words((0..words).map(|_| rng.gen()).collect()));
        let mut last = 0;
        for interval in [64.0, 328.0, 1000.0, 4000.0, 16_000.0] {
            let n = m.evaluate_module(&module, interval).len();
            assert!(
                n >= last,
                "failure count must grow with interval: {n} < {last} at {interval}"
            );
            last = n;
        }
    }

    #[test]
    fn worst_case_dominates_any_content() {
        let m = CouplingFailureModel::default();
        let mut module = test_module(17);
        let words = module.geometry().words_per_row();
        let mut rng = SmallRng::seed_from_u64(1);
        module.fill_with(|_| RowContent::from_words((0..words).map(|_| rng.gen()).collect()));
        let interval = 4000.0;
        let failures = m.evaluate_module(&module, interval);
        for f in &failures {
            assert!(
                m.row_can_fail(
                    module.chip_seed(),
                    f.rank,
                    f.bank,
                    f.internal_row,
                    module.geometry().bits_per_row(),
                    interval
                ),
                "observed failure in a row the oracle says cannot fail"
            );
        }
    }

    #[test]
    fn apply_flips_exactly_the_failing_bits() {
        let m = CouplingFailureModel::default();
        let mut module = test_module(19);
        let words = module.geometry().words_per_row();
        let mut rng = SmallRng::seed_from_u64(2);
        module.fill_with(|_| RowContent::from_words((0..words).map(|_| rng.gen()).collect()));
        let golden = module.clone();
        let failures = m.evaluate_module(&module, 16_000.0);
        let unique: std::collections::HashSet<_> = failures
            .iter()
            .map(|f| (f.system_row, f.system_bit))
            .collect();
        assert_eq!(unique.len(), failures.len(), "duplicate failure records");
        m.apply(&mut module, &failures);
        let mut flipped = 0u64;
        for id in 0..module.geometry().total_rows() {
            flipped += golden
                .read_row_id(id)
                .hamming_distance(module.read_row_id(id));
        }
        assert_eq!(flipped, failures.len() as u64);
    }

    #[test]
    fn evaluate_module_is_jobs_invariant() {
        // The parallel engine's determinism contract: bit-identical output
        // at any worker count, across several chip seeds and contents.
        let m = CouplingFailureModel::default();
        for seed in [11u64, 29, 47] {
            let mut module = test_module(seed);
            let words = module.geometry().words_per_row();
            let mut rng = SmallRng::seed_from_u64(seed ^ 0xABCD);
            module.fill_with(|_| RowContent::from_words((0..words).map(|_| rng.gen()).collect()));
            let sequential = m.evaluate_module_with_jobs(&module, 16_000.0, 1);
            for jobs in [2usize, 8] {
                let parallel = m.evaluate_module_with_jobs(&module, 16_000.0, jobs);
                assert_eq!(sequential, parallel, "seed {seed} diverged at jobs={jobs}");
            }
            let frac1 = m.worst_case_failing_row_fraction_with_jobs(&module, 16_000.0, 1);
            for jobs in [2usize, 8] {
                let fracn = m.worst_case_failing_row_fraction_with_jobs(&module, 16_000.0, jobs);
                assert_eq!(
                    frac1.to_bits(),
                    fracn.to_bits(),
                    "seed {seed}: fraction diverged at jobs={jobs}"
                );
            }
        }
    }

    #[test]
    fn failures_are_content_dependent() {
        // The headline property (paper Fig. 3): the same chip fails in
        // different cells under different content. Use a module large enough
        // to hold a few dozen vulnerable cells.
        let m = CouplingFailureModel::default();
        let g = dram::geometry::DramGeometry {
            ranks: 1,
            chips_per_rank: 1,
            banks: 2,
            rows_per_bank: 512,
            row_bytes: 1024,
            block_bytes: 64,
            density: dram::geometry::ChipDensity::Gb8,
        };
        let mut module = DramModule::new(g, TimingParams::ddr3_1600(), 23);
        let words = module.geometry().words_per_row();
        let mut rng = SmallRng::seed_from_u64(3);
        module.fill_with(|_| RowContent::from_words((0..words).map(|_| rng.gen()).collect()));
        let a: std::collections::HashSet<_> = m
            .evaluate_module(&module, 60_000.0)
            .into_iter()
            .map(|f| (f.system_row, f.system_bit))
            .collect();
        module.fill_with(|_| RowContent::zeroed(words));
        let b: std::collections::HashSet<_> = m
            .evaluate_module(&module, 60_000.0)
            .into_iter()
            .map(|f| (f.system_row, f.system_bit))
            .collect();
        assert!(!a.is_empty(), "random content should trigger failures");
        assert_ne!(a, b, "failure sets should depend on content");
    }

    /// Reference sweep in the exact order `evaluate_module_with_jobs`
    /// promises: rank-major banks, then rows.
    fn reference_sweep(
        m: &CouplingFailureModel,
        module: &DramModule,
        interval_ms: f64,
    ) -> Vec<CellFailure> {
        let g = *module.geometry();
        let mut out = Vec::new();
        for rank in 0..g.ranks {
            for bank in 0..g.banks {
                for row in 0..g.rows_per_bank {
                    out.extend(m.evaluate_row_reference(module, rank, bank, row, interval_ms));
                }
            }
        }
        out
    }

    #[test]
    fn cached_kernel_matches_reference_exactly() {
        // The kernel's equivalence contract: across seeds, content
        // profiles, intervals, worker counts, and repeated passes, the
        // cached kernel returns a byte-identical Vec<CellFailure> — order
        // included — to the definitional probe-at-a-time path. The 512-row
        // banks put rows on both sides of the true/anti midpoint, where the
        // up/down views differ in polarity from the victim's.
        let g = DramGeometry {
            ranks: 1,
            chips_per_rank: 1,
            banks: 2,
            rows_per_bank: 512,
            row_bytes: 1024,
            block_bytes: 64,
            density: dram::geometry::ChipDensity::Gb8,
        };
        for seed in [5u64, 21] {
            for profile in 0..3u8 {
                let mut module = DramModule::new(g, TimingParams::ddr3_1600(), seed);
                let words = module.geometry().words_per_row();
                let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EED);
                match profile {
                    0 => module.fill_with(|_| RowContent::zeroed(words)),
                    1 => module.fill_with(|_| {
                        RowContent::from_words((0..words).map(|_| rng.gen()).collect())
                    }),
                    _ => module
                        .fill_with(|_| RowContent::from_words(vec![0xAAAA_AAAA_AAAA_AAAA; words])),
                }
                let m = CouplingFailureModel::default();
                for interval_ms in [328.0, 60_000.0] {
                    let expect = reference_sweep(&m, &module, interval_ms);
                    for pass in 0..5 {
                        for jobs in [1usize, 2, 8] {
                            let got = m.evaluate_module_with_jobs(&module, interval_ms, jobs);
                            assert_eq!(
                                got, expect,
                                "seed {seed} profile {profile} interval {interval_ms} \
                                 pass {pass} jobs {jobs} diverged from reference"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn evaluate_row_into_appends() {
        let m = CouplingFailureModel::default();
        let g = DramGeometry {
            ranks: 1,
            chips_per_rank: 1,
            banks: 2,
            rows_per_bank: 512,
            row_bytes: 1024,
            block_bytes: 64,
            density: dram::geometry::ChipDensity::Gb8,
        };
        let mut module = DramModule::new(g, TimingParams::ddr3_1600(), 23);
        let words = module.geometry().words_per_row();
        let mut rng = SmallRng::seed_from_u64(3);
        module.fill_with(|_| RowContent::from_words((0..words).map(|_| rng.gen()).collect()));
        let mut out = Vec::new();
        let mut expect = Vec::new();
        for bank in 0..module.geometry().banks {
            for row in 0..module.geometry().rows_per_bank {
                m.evaluate_row_into(&module, 0, bank, row, 60_000.0, &mut out);
                expect.extend(m.evaluate_row(&module, 0, bank, row, 60_000.0));
            }
        }
        assert!(!out.is_empty(), "expected some failures at 60 s");
        assert_eq!(out, expect);
    }

    #[test]
    fn kernel_tracks_writes_between_sweeps() {
        // A write landing between repeated sweeps must be visible to the
        // kernel (the cell cache is content-independent by construction).
        let m = CouplingFailureModel::default();
        let mut module = test_module(29);
        let words = module.geometry().words_per_row();
        let mut rng = SmallRng::seed_from_u64(7);
        module.fill_with(|_| RowContent::from_words((0..words).map(|_| rng.gen()).collect()));
        for _ in 0..4 {
            let _ = m.evaluate_module(&module, 16_000.0);
        }
        module.fill_with(|_| RowContent::zeroed(words));
        let got = m.evaluate_module_with_jobs(&module, 16_000.0, 1);
        let expect = reference_sweep(&m, &module, 16_000.0);
        assert_eq!(got, expect, "kernel served stale content after a write");
    }
}
