//! Synthetic CPU memory-access traces for the performance simulator.
//!
//! The paper's performance evaluation (Figs. 15, 16; Table 3) drives
//! Ramulator with Pin-captured SPEC CPU2006 and TPC traces, combined into 30
//! random 4-application mixes. We synthesize statistically similar access
//! streams instead: each profile specifies DRAM accesses per kilo-instruction
//! (post-cache MPKI), the write fraction, row-buffer locality, and footprint.
//! The generator yields an infinite instruction-annotated access stream the
//! core model consumes.

use memutil::rng::SliceRandom;
use memutil::rng::SmallRng;
use memutil::rng::{Rng, SeedableRng};

/// One application's memory behaviour at the DRAM interface.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuWorkloadProfile {
    /// Display name.
    pub name: &'static str,
    /// DRAM accesses per 1000 retired instructions (post-LLC misses plus
    /// writebacks).
    pub mpki: f64,
    /// Fraction of accesses that are writes (writebacks).
    pub write_frac: f64,
    /// Probability that the next access falls in the same DRAM row.
    pub row_locality: f64,
    /// Number of distinct rows the workload touches.
    pub footprint_rows: u64,
}

/// The SPEC CPU2006 / TPC profile pool the paper's 30 mixes draw from.
#[must_use]
pub fn spec_tpc_pool() -> Vec<CpuWorkloadProfile> {
    fn p(
        name: &'static str,
        mpki: f64,
        write_frac: f64,
        row_locality: f64,
        footprint_rows: u64,
    ) -> CpuWorkloadProfile {
        CpuWorkloadProfile {
            name,
            mpki,
            write_frac,
            row_locality,
            footprint_rows,
        }
    }
    vec![
        p("mcf", 25.0, 0.25, 0.20, 200_000),
        p("lbm", 30.0, 0.45, 0.65, 100_000),
        p("milc", 18.0, 0.30, 0.45, 120_000),
        p("soplex", 21.0, 0.25, 0.40, 80_000),
        p("libquantum", 25.0, 0.30, 0.95, 8_000),
        p("omnetpp", 10.0, 0.30, 0.25, 60_000),
        p("gems", 15.0, 0.35, 0.50, 150_000),
        p("leslie3d", 12.0, 0.35, 0.55, 90_000),
        p("astar", 5.0, 0.25, 0.30, 40_000),
        p("zeusmp", 6.0, 0.30, 0.50, 70_000),
        p("cactus", 4.0, 0.30, 0.45, 50_000),
        p("gcc", 2.0, 0.30, 0.35, 30_000),
        p("h264ref", 1.5, 0.25, 0.60, 10_000),
        p("perlbench", 1.0, 0.30, 0.40, 15_000),
        p("tpcc", 12.0, 0.35, 0.25, 250_000),
        p("tpch", 18.0, 0.20, 0.50, 300_000),
    ]
}

/// Draws `n_mixes` random `cores`-application mixes from the pool, as the
/// paper does for its 30 four-core workloads.
#[must_use]
pub fn random_mixes(n_mixes: usize, cores: usize, seed: u64) -> Vec<Vec<CpuWorkloadProfile>> {
    let pool = spec_tpc_pool();
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n_mixes)
        .map(|_| {
            (0..cores)
                .map(|_| *pool.choose(&mut rng).expect("pool is non-empty"))
                .collect()
        })
        .collect()
}

/// One memory access annotated with the number of non-memory instructions
/// retired before it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuAccess {
    /// Non-memory instructions preceding this access.
    pub inst_gap: u64,
    /// Target row (workload-local; the simulator maps it onto banks).
    pub row: u64,
    /// Cache-block index within the row.
    pub block: u32,
    /// Whether this is a write (writeback).
    pub is_write: bool,
}

/// Infinite, deterministic access-stream generator for one profile.
#[derive(Debug, Clone)]
pub struct AccessTraceGenerator {
    profile: CpuWorkloadProfile,
    rng: SmallRng,
    row: u64,
    block: u32,
    blocks_per_row: u32,
}

impl AccessTraceGenerator {
    /// Creates a generator with the given block-per-row geometry (128 for
    /// 8 KB rows of 64-byte blocks).
    ///
    /// # Panics
    ///
    /// Panics if the profile is degenerate (zero MPKI or footprint).
    #[must_use]
    pub fn new(profile: CpuWorkloadProfile, blocks_per_row: u32, seed: u64) -> Self {
        assert!(profile.mpki > 0.0, "mpki must be positive");
        assert!(profile.footprint_rows > 0, "footprint must be non-empty");
        assert!(blocks_per_row > 0);
        let mut rng = SmallRng::seed_from_u64(seed);
        let row = rng.gen_range(0..profile.footprint_rows);
        AccessTraceGenerator {
            profile,
            rng,
            row,
            block: 0,
            blocks_per_row,
        }
    }

    /// The profile this generator follows.
    #[must_use]
    pub fn profile(&self) -> &CpuWorkloadProfile {
        &self.profile
    }

    /// The next access of the stream, which never ends.
    pub fn next_access(&mut self) -> CpuAccess {
        // Geometric-ish instruction gap with mean 1000/mpki (exponential
        // rounding keeps the mean while allowing zero gaps in bursts).
        let mean_gap = 1000.0 / self.profile.mpki;
        let u: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
        let inst_gap = (-u.ln() * mean_gap) as u64;
        if self.rng.gen::<f64>() < self.profile.row_locality {
            // Stay in the open row, advance sequentially.
            self.block = (self.block + 1) % self.blocks_per_row;
        } else {
            self.row = self.rng.gen_range(0..self.profile.footprint_rows);
            self.block = self.rng.gen_range(0..self.blocks_per_row);
        }
        let is_write = self.rng.gen::<f64>() < self.profile.write_frac;
        CpuAccess {
            inst_gap,
            row: self.row,
            block: self.block,
            is_write,
        }
    }
}

impl Iterator for AccessTraceGenerator {
    type Item = CpuAccess;

    fn next(&mut self) -> Option<CpuAccess> {
        Some(self.next_access())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_has_varied_intensity() {
        let pool = spec_tpc_pool();
        assert!(pool.len() >= 12);
        let max = pool.iter().map(|p| p.mpki).fold(0.0, f64::max);
        let min = pool.iter().map(|p| p.mpki).fold(f64::INFINITY, f64::min);
        assert!(max / min > 10.0, "pool should span memory intensities");
        let names: std::collections::HashSet<_> = pool.iter().map(|p| p.name).collect();
        assert_eq!(names.len(), pool.len());
    }

    #[test]
    fn mixes_are_deterministic_and_sized() {
        let a = random_mixes(30, 4, 99);
        let b = random_mixes(30, 4, 99);
        assert_eq!(a.len(), 30);
        assert!(a.iter().all(|m| m.len() == 4));
        assert_eq!(a, b);
        assert_ne!(a, random_mixes(30, 4, 100));
    }

    #[test]
    fn generator_respects_mpki() {
        let profile = spec_tpc_pool()[0]; // mcf, mpki 25
        let gen = AccessTraceGenerator::new(profile, 128, 1);
        let n = 50_000;
        let total_inst: u64 = gen
            .take(n)
            .map(|a| a.inst_gap + 1) // the access itself is an instruction
            .sum();
        let mpki = n as f64 * 1000.0 / total_inst as f64;
        assert!(
            (mpki / profile.mpki - 1.0).abs() < 0.1,
            "empirical mpki {mpki} vs {}",
            profile.mpki
        );
    }

    #[test]
    fn generator_respects_write_fraction_and_bounds() {
        let profile = spec_tpc_pool()[1]; // lbm
        let gen = AccessTraceGenerator::new(profile, 128, 2);
        let n = 50_000;
        let mut writes = 0u64;
        for a in gen.take(n) {
            assert!(a.row < profile.footprint_rows);
            assert!(a.block < 128);
            if a.is_write {
                writes += 1;
            }
        }
        let wf = writes as f64 / n as f64;
        assert!(
            (wf - profile.write_frac).abs() < 0.02,
            "write fraction {wf} vs {}",
            profile.write_frac
        );
    }

    #[test]
    fn locality_produces_row_runs() {
        let profile = CpuWorkloadProfile {
            name: "loc",
            mpki: 10.0,
            write_frac: 0.3,
            row_locality: 0.9,
            footprint_rows: 10_000,
        };
        let accesses: Vec<CpuAccess> = AccessTraceGenerator::new(profile, 128, 3)
            .take(10_000)
            .collect();
        let same_row = accesses.windows(2).filter(|w| w[0].row == w[1].row).count();
        let frac = same_row as f64 / (accesses.len() - 1) as f64;
        assert!(frac > 0.85, "same-row fraction {frac}");
    }

    #[test]
    fn generator_is_deterministic() {
        let profile = spec_tpc_pool()[4];
        let a: Vec<_> = AccessTraceGenerator::new(profile, 128, 7)
            .take(100)
            .collect();
        let b: Vec<_> = AccessTraceGenerator::new(profile, 128, 7)
            .take(100)
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "mpki must be positive")]
    fn rejects_zero_mpki() {
        let mut p = spec_tpc_pool()[0];
        p.mpki = 0.0;
        let _ = AccessTraceGenerator::new(p, 128, 0);
    }
}
