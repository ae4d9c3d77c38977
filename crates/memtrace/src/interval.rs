//! The write-interval distribution: a short-burst / bounded-Pareto mixture.
//!
//! Paper Section 4.1: write intervals are bimodal — the overwhelming
//! majority are sub-millisecond (bursts of writes to a hot page), while the
//! remainder follow a heavy Pareto tail `P(X > x) = k·x^(−α)` whose rare,
//! very long intervals dominate total time. The mixture here is:
//!
//! * with probability `p_short`: a log-uniform interval in
//!   `[short_lo_ms, short_hi_ms)` (< 1 ms),
//! * otherwise: a [`BoundedPareto`] interval starting at 1 ms.
//!
//! The bounded Pareto keeps every moment finite (α ≤ 1 has infinite mean
//! unbounded) and models the fact that a trace of finite length cannot
//! contain hour-long intervals.

use memutil::rng::Rng;

/// A Pareto distribution truncated to `[xm_ms, cap_ms]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundedPareto {
    /// Scale (minimum value), in milliseconds.
    pub xm_ms: f64,
    /// Tail index α; smaller = heavier tail.
    pub alpha: f64,
    /// Upper truncation, in milliseconds.
    pub cap_ms: f64,
}

impl BoundedPareto {
    /// Creates a bounded Pareto distribution.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < xm_ms < cap_ms` and `alpha > 0`.
    #[must_use]
    pub fn new(xm_ms: f64, alpha: f64, cap_ms: f64) -> Self {
        assert!(xm_ms > 0.0 && cap_ms > xm_ms, "need 0 < xm < cap");
        assert!(alpha > 0.0, "alpha must be positive");
        BoundedPareto {
            xm_ms,
            alpha,
            cap_ms,
        }
    }

    /// Complementary CDF `P(X > x)`.
    #[must_use]
    pub fn ccdf(&self, x_ms: f64) -> f64 {
        if x_ms <= self.xm_ms {
            return 1.0;
        }
        if x_ms >= self.cap_ms {
            return 0.0;
        }
        let num =
            (self.xm_ms / x_ms).powf(self.alpha) - (self.xm_ms / self.cap_ms).powf(self.alpha);
        let den = 1.0 - (self.xm_ms / self.cap_ms).powf(self.alpha);
        num / den
    }

    /// Inverse-CDF sample. One-shot convenience over [`BoundedPareto::sampler`];
    /// draws exactly one uniform.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> f64 {
        self.sampler().sample(rng)
    }

    /// A sampler with the distribution constants (truncation ratio, inverse
    /// tail index) hoisted out of the per-sample path. Bit-identical to the
    /// pre-hoisting inline computation.
    #[must_use]
    pub fn sampler(&self) -> ParetoSampler {
        ParetoSampler {
            xm_ms: self.xm_ms,
            one_minus_ratio: 1.0 - (self.xm_ms / self.cap_ms).powf(self.alpha),
            inv_alpha: 1.0 / self.alpha,
        }
    }

    /// Expected fraction of *time* spent in intervals of at least
    /// `threshold_ms` (partial expectation over the tail divided by the
    /// mean).
    #[must_use]
    pub fn time_fraction_ge(&self, threshold_ms: f64) -> f64 {
        let t = threshold_ms.max(self.xm_ms);
        if t >= self.cap_ms {
            return 0.0;
        }
        let a = self.alpha;
        let (xm, h) = (self.xm_ms, self.cap_ms);
        let norm = 1.0 - (xm / h).powf(a);
        let partial = if (a - 1.0).abs() < 1e-12 {
            a * xm * (h / t).ln() / norm
        } else {
            a * xm.powf(a) * (h.powf(1.0 - a) - t.powf(1.0 - a)) / ((1.0 - a) * norm)
        };
        partial / self.mean_ms()
    }

    /// Mean of the truncated distribution, in milliseconds.
    #[must_use]
    pub fn mean_ms(&self) -> f64 {
        let a = self.alpha;
        let (xm, h) = (self.xm_ms, self.cap_ms);
        let norm = 1.0 - (xm / h).powf(a);
        if (a - 1.0).abs() < 1e-12 {
            xm * (h / xm).ln() / norm * a
        } else {
            a * xm.powf(a) * (h.powf(1.0 - a) - xm.powf(1.0 - a)) / ((1.0 - a) * norm)
        }
    }
}

/// [`BoundedPareto`] with per-sample constants precomputed — the hot-path
/// form used by trace synthesis, which draws millions of tail intervals
/// from an unchanging distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParetoSampler {
    xm_ms: f64,
    one_minus_ratio: f64,
    inv_alpha: f64,
}

impl ParetoSampler {
    /// Maps one uniform draw `u ∈ [0, 1)` through the inverse truncated
    /// CCDF.
    #[inline]
    #[must_use]
    pub fn sample_u(&self, u: f64) -> f64 {
        self.xm_ms / (1.0 - u * self.one_minus_ratio).powf(self.inv_alpha)
    }

    /// Inverse-CDF sample; draws exactly one uniform.
    #[inline]
    pub fn sample<R: Rng>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.gen();
        self.sample_u(u)
    }
}

/// The full per-page write-interval mixture.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WriteIntervalModel {
    /// Probability that an interval is a short burst gap.
    pub p_short: f64,
    /// Log-uniform short-interval range, in milliseconds.
    pub short_range_ms: (f64, f64),
    /// The heavy tail.
    pub tail: BoundedPareto,
}

impl WriteIntervalModel {
    /// A representative default: 96 % sub-millisecond bursts, tail index
    /// 0.55, intervals capped at 2 minutes.
    #[must_use]
    pub fn typical() -> Self {
        WriteIntervalModel {
            p_short: 0.96,
            short_range_ms: (0.01, 1.0),
            tail: BoundedPareto::new(1.0, 0.55, 120_000.0),
        }
    }

    /// Validates parameter sanity.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.p_short) {
            return Err("p_short must be in [0, 1]".into());
        }
        let (lo, hi) = self.short_range_ms;
        if !(0.0 < lo && lo < hi) {
            return Err(format!("short range [{lo}, {hi}) is invalid"));
        }
        if hi > self.tail.xm_ms + 1e-9 {
            return Err("short range must not overlap the Pareto tail".into());
        }
        Ok(())
    }

    /// Samples one interval, in milliseconds. One-shot convenience over
    /// [`WriteIntervalModel::sampler`]; draws exactly two uniforms (branch,
    /// value) on either path.
    pub fn sample_ms<R: Rng>(&self, rng: &mut R) -> f64 {
        self.sampler().sample_ms(rng)
    }

    /// A sampler with the mixture constants (log-range endpoints, Pareto
    /// truncation ratio) hoisted out of the per-sample path. Bit-identical
    /// to the pre-hoisting inline computation.
    #[must_use]
    pub fn sampler(&self) -> IntervalSampler {
        let (lo, hi) = self.short_range_ms;
        IntervalSampler {
            p_short: self.p_short,
            ln_lo: lo.ln(),
            ln_span: hi.ln() - lo.ln(),
            tail: self.tail.sampler(),
        }
    }

    /// Complementary CDF of the mixture, `P(X > x)`.
    #[must_use]
    pub fn ccdf(&self, x_ms: f64) -> f64 {
        let (lo, hi) = self.short_range_ms;
        let short_ccdf = if x_ms <= lo {
            1.0
        } else if x_ms >= hi {
            0.0
        } else {
            1.0 - (x_ms.ln() - lo.ln()) / (hi.ln() - lo.ln())
        };
        self.p_short * short_ccdf + (1.0 - self.p_short) * self.tail.ccdf(x_ms)
    }

    /// Mean interval, in milliseconds.
    #[must_use]
    pub fn mean_ms(&self) -> f64 {
        let (lo, hi) = self.short_range_ms;
        // Mean of a log-uniform on [lo, hi): (hi - lo) / ln(hi/lo).
        let short_mean = (hi - lo) / (hi / lo).ln();
        self.p_short * short_mean + (1.0 - self.p_short) * self.tail.mean_ms()
    }

    /// Expected fraction of *time* spent in intervals longer than
    /// `threshold_ms` — the quantity behind paper Fig. 9. Valid for
    /// thresholds at or above the tail scale (1 ms): below that, the
    /// short-burst branch's own time above the threshold is not counted.
    #[must_use]
    pub fn expected_time_fraction_ge(&self, threshold_ms: f64) -> f64 {
        debug_assert!(
            threshold_ms >= self.tail.xm_ms,
            "threshold below tail scale"
        );
        // Tail partial expectation E[X·1(X>t)] = time_fraction_ge · E[tail],
        // weighted by the tail branch probability over the mixture mean.
        let partial = self.tail.time_fraction_ge(threshold_ms) * self.tail.mean_ms();
        (1.0 - self.p_short) * partial / self.mean_ms()
    }
}

impl Default for WriteIntervalModel {
    fn default() -> Self {
        WriteIntervalModel::typical()
    }
}

/// [`WriteIntervalModel`] with per-sample constants precomputed, plus a
/// word-parallel batch fill. Every sample consumes exactly two uniforms —
/// one branch draw, one value draw — whichever branch it takes, so the RNG
/// stream position after `n` samples is draw `2n` regardless of outcomes.
/// That fixed draw layout is what lets [`IntervalSampler::fill_ms`] split a
/// block's RNG draws from its transcendental math (the lanes become
/// independent straight-line FP code) while staying bit-identical to `n`
/// scalar [`IntervalSampler::sample_ms`] calls.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntervalSampler {
    p_short: f64,
    ln_lo: f64,
    ln_span: f64,
    tail: ParetoSampler,
}

impl IntervalSampler {
    /// Maps a (branch, value) uniform pair to one interval in milliseconds.
    #[inline]
    #[must_use]
    pub fn sample_uu(&self, u_branch: f64, u_value: f64) -> f64 {
        if u_branch < self.p_short {
            // Log-uniform across the burst range.
            (self.ln_lo + u_value * self.ln_span).exp()
        } else {
            self.tail.sample_u(u_value)
        }
    }

    /// Samples one interval, in milliseconds (two uniform draws).
    #[inline]
    pub fn sample_ms<R: Rng>(&self, rng: &mut R) -> f64 {
        let u_branch: f64 = rng.gen();
        let u_value: f64 = rng.gen();
        self.sample_uu(u_branch, u_value)
    }

    /// Fills `out` with samples, block-wise: the RNG draws for a block are
    /// materialized first, then the lanes are evaluated as branch-free
    /// straight-line math over the buffered uniforms. Bit-identical to
    /// calling [`IntervalSampler::sample_ms`] once per slot.
    pub fn fill_ms<R: Rng>(&self, rng: &mut R, out: &mut [f64]) {
        const BLOCK: usize = 8;
        let mut u = [0.0f64; 2 * BLOCK];
        for chunk in out.chunks_mut(BLOCK) {
            for slot in u.iter_mut().take(2 * chunk.len()) {
                *slot = rng.gen();
            }
            for (i, lane) in chunk.iter_mut().enumerate() {
                *lane = self.sample_uu(u[2 * i], u[2 * i + 1]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memutil::rng::SeedableRng;
    use memutil::rng::SmallRng;

    #[test]
    fn pareto_ccdf_endpoints() {
        let p = BoundedPareto::new(1.0, 0.55, 120_000.0);
        assert_eq!(p.ccdf(0.5), 1.0);
        assert_eq!(p.ccdf(1.0), 1.0);
        assert_eq!(p.ccdf(120_000.0), 0.0);
        let mid = p.ccdf(1024.0);
        assert!(mid > 0.0 && mid < 1.0);
    }

    #[test]
    fn pareto_samples_within_bounds_and_match_ccdf() {
        let p = BoundedPareto::new(1.0, 0.55, 120_000.0);
        let mut rng = SmallRng::seed_from_u64(1);
        let n = 200_000;
        let mut above_1024 = 0u32;
        for _ in 0..n {
            let x = p.sample(&mut rng);
            assert!((1.0..=120_000.0).contains(&x), "sample {x} out of bounds");
            if x > 1024.0 {
                above_1024 += 1;
            }
        }
        let emp = f64::from(above_1024) / f64::from(n);
        let theory = p.ccdf(1024.0);
        assert!(
            (emp - theory).abs() < 0.005,
            "empirical {emp} vs theoretical {theory}"
        );
    }

    #[test]
    fn pareto_mean_matches_samples() {
        let p = BoundedPareto::new(1.0, 0.7, 60_000.0);
        let mut rng = SmallRng::seed_from_u64(2);
        let n = 300_000;
        let sum: f64 = (0..n).map(|_| p.sample(&mut rng)).sum();
        let emp = sum / f64::from(n);
        let theory = p.mean_ms();
        assert!(
            (emp / theory - 1.0).abs() < 0.1,
            "empirical {emp} vs theoretical {theory}"
        );
    }

    #[test]
    fn mixture_respects_burst_dominance() {
        let m = WriteIntervalModel::typical();
        assert!(m.validate().is_ok());
        let mut rng = SmallRng::seed_from_u64(3);
        let n = 100_000;
        let sub_ms = (0..n).filter(|_| m.sample_ms(&mut rng) < 1.0).count();
        let frac = sub_ms as f64 / f64::from(n);
        // Paper: >95% of writes within 1 ms.
        assert!(frac > 0.95, "sub-ms fraction {frac}");
    }

    #[test]
    fn long_intervals_are_rare_but_dominate_time() {
        let m = WriteIntervalModel::typical();
        // Paper: <0.43% of writes but ~89.5% of interval time at >=1024 ms.
        let p_long = m.ccdf(1024.0);
        assert!(p_long < 0.0043, "P(X>1024ms) = {p_long}");
        let t_frac = m.expected_time_fraction_ge(1024.0);
        assert!(
            (0.7..0.97).contains(&t_frac),
            "time fraction in long intervals = {t_frac}"
        );
    }

    #[test]
    fn dhr_property() {
        // Decreasing hazard rate: P(X > c + 1024 | X > c) grows with c.
        let m = WriteIntervalModel::typical();
        let cond = |c: f64| m.ccdf(c + 1024.0) / m.ccdf(c);
        let mut last = 0.0;
        for c in [1.0, 16.0, 128.0, 512.0, 2048.0, 16_384.0] {
            let p = cond(c);
            assert!(
                p >= last - 1e-9,
                "hazard not decreasing at {c}: {p} < {last}"
            );
            last = p;
        }
        // Paper Fig. 11: around 0.5-0.8 at CIL = 512 ms.
        let at512 = cond(512.0);
        assert!((0.4..0.9).contains(&at512), "P at CIL 512 = {at512}");
    }

    #[test]
    fn validate_rejects_overlap() {
        let mut m = WriteIntervalModel::typical();
        m.short_range_ms = (0.01, 5.0);
        assert!(m.validate().is_err());
        m.short_range_ms = (1.0, 0.5);
        assert!(m.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "alpha must be positive")]
    fn pareto_rejects_bad_alpha() {
        let _ = BoundedPareto::new(1.0, 0.0, 10.0);
    }

    /// Seeded property loop: the CCDF is monotone non-increasing for random
    /// shape parameters and argument pairs.
    #[test]
    fn prop_ccdf_monotone() {
        let mut rng = SmallRng::seed_from_u64(0x1A1);
        for _ in 0..512 {
            let a = rng.gen_range(0.2f64..1.5);
            let p = BoundedPareto::new(1.0, a, 120_000.0);
            let x = rng.gen_range(1.0f64..100_000.0);
            let y = rng.gen_range(1.0f64..100_000.0);
            let (lo, hi) = if x < y { (x, y) } else { (y, x) };
            assert!(p.ccdf(lo) >= p.ccdf(hi), "a={a} lo={lo} hi={hi}");
        }
    }

    /// Seeded equivalence property: the hoisted samplers are bit-identical
    /// to the pre-hoisting inline formulas, and the block fill is
    /// bit-identical to the scalar loop, at every buffer length (partial
    /// trailing blocks included).
    #[test]
    fn prop_samplers_bit_identical() {
        let mut seeds = SmallRng::seed_from_u64(0x5A3);
        for _ in 0..32 {
            let seed: u64 = seeds.gen();
            let a = seeds.gen_range(0.2f64..1.5);
            let m = WriteIntervalModel {
                p_short: seeds.gen_range(0.5f64..0.99),
                short_range_ms: (0.01, 1.0),
                tail: BoundedPareto::new(1.0, a, 120_000.0),
            };
            // Inline formulas as written before the hoist.
            let inline_sample = |rng: &mut SmallRng| -> f64 {
                if rng.gen::<f64>() < m.p_short {
                    let (lo, hi) = m.short_range_ms;
                    (lo.ln() + rng.gen::<f64>() * (hi.ln() - lo.ln())).exp()
                } else {
                    let ratio = (m.tail.xm_ms / m.tail.cap_ms).powf(m.tail.alpha);
                    let u: f64 = rng.gen();
                    m.tail.xm_ms / (1.0 - u * (1.0 - ratio)).powf(1.0 / m.tail.alpha)
                }
            };
            let sampler = m.sampler();
            for len in [0usize, 1, 3, 8, 13, 64] {
                let mut a_rng = SmallRng::seed_from_u64(seed);
                let mut b_rng = SmallRng::seed_from_u64(seed);
                let mut c_rng = SmallRng::seed_from_u64(seed);
                let inline: Vec<f64> = (0..len).map(|_| inline_sample(&mut a_rng)).collect();
                let scalar: Vec<f64> = (0..len).map(|_| sampler.sample_ms(&mut b_rng)).collect();
                let mut block = vec![0.0f64; len];
                sampler.fill_ms(&mut c_rng, &mut block);
                assert!(
                    inline
                        .iter()
                        .zip(&scalar)
                        .all(|(x, y)| x.to_bits() == y.to_bits()),
                    "hoisted sampler diverged (seed={seed} len={len})"
                );
                assert!(
                    inline
                        .iter()
                        .zip(&block)
                        .all(|(x, y)| x.to_bits() == y.to_bits()),
                    "block fill diverged (seed={seed} len={len})"
                );
                // All three leave the RNG at the same stream position.
                let next: u64 = a_rng.gen();
                assert_eq!(next, b_rng.gen::<u64>());
                assert_eq!(next, c_rng.gen::<u64>());
            }
        }
    }

    /// Seeded property loop: samples always land inside [lower, upper].
    #[test]
    fn prop_samples_in_bounds() {
        let mut seeds = SmallRng::seed_from_u64(0x1A2);
        for _ in 0..64 {
            let seed: u64 = seeds.gen();
            let a = seeds.gen_range(0.2f64..1.5);
            let p = BoundedPareto::new(2.0, a, 50_000.0);
            let mut rng = SmallRng::seed_from_u64(seed);
            for _ in 0..100 {
                let x = p.sample(&mut rng);
                assert!((2.0..=50_000.0).contains(&x), "seed={seed} a={a} x={x}");
            }
        }
    }
}
