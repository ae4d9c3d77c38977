//! Normal-distribution numerics used by the retention model.
//!
//! The failure model samples cell retention times from the far tail of a
//! lognormal distribution. Sampling the tail by rejection would be hopeless
//! (acceptance ≈ 10⁻⁶), so we sample by inverse CDF, conditioned on the tail,
//! which needs an accurate standard-normal CDF `Φ` and quantile `Φ⁻¹`.
//!
//! * [`norm_cdf`] uses the complementary error function via the
//!   Abramowitz–Stegun 7.1.26 rational approximation (|ε| < 1.5 × 10⁻⁷),
//! * [`norm_ppf`] uses Acklam's rational approximation (relative |ε| <
//!   1.15 × 10⁻⁹) refined with one Halley step,
//! * [`poisson_sample`] draws Poisson counts for the sparse per-row
//!   vulnerable-cell sets (λ is always small here, so Knuth's method is
//!   exact and fast).

use memutil::rng::Rng;

/// Complementary error function, rational Chebyshev approximation
/// (Numerical Recipes `erfcc`), with *fractional* error below 1.2 × 10⁻⁷
/// everywhere — including deep tails, which the retention sampler lives in.
#[must_use]
pub fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let ans = t
        * (-z * z - 1.265_512_23
            + t * (1.000_023_68
                + t * (0.374_091_96
                    + t * (0.096_784_18
                        + t * (-0.186_288_06
                            + t * (0.278_868_07
                                + t * (-1.135_203_98
                                    + t * (1.488_515_87
                                        + t * (-0.822_152_23 + t * 0.170_872_77)))))))))
            .exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

/// Error function `erf(x) = 1 − erfc(x)`.
#[must_use]
pub fn erf(x: f64) -> f64 {
    1.0 - erfc(x)
}

/// Standard normal cumulative distribution function `Φ(x)`, with relative
/// accuracy preserved in the deep negative tail (via [`erfc`]).
#[must_use]
pub fn norm_cdf(x: f64) -> f64 {
    0.5 * erfc(-x / std::f64::consts::SQRT_2)
}

/// Standard normal quantile `Φ⁻¹(p)` (Acklam's algorithm plus one Halley
/// refinement step).
///
/// # Panics
///
/// Panics if `p` is outside `(0, 1)`.
#[must_use]
pub fn norm_ppf(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "quantile requires p in (0,1), got {p}");

    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.024_25;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };

    // One Halley refinement against the high-accuracy CDF.
    let e = norm_cdf(x) - p;
    let pdf = (-0.5 * x * x).exp() / (2.0 * std::f64::consts::PI).sqrt();
    let u = e / pdf;
    x - u / (1.0 + x * u / 2.0)
}

/// Draws a Poisson(λ) sample with Knuth's multiplication method.
///
/// Exact for any λ, efficient for the small λ (< 10) this crate uses.
///
/// # Panics
///
/// Panics if `lambda` is negative or not finite.
#[must_use]
pub fn poisson_sample<R: Rng>(rng: &mut R, lambda: f64) -> u32 {
    assert!(
        lambda >= 0.0 && lambda.is_finite(),
        "lambda must be non-negative and finite, got {lambda}"
    );
    if lambda == 0.0 {
        return 0;
    }
    let l = (-lambda).exp();
    let mut k = 0u32;
    let mut p = 1.0;
    loop {
        p *= rng.gen::<f64>();
        if p <= l {
            return k;
        }
        k += 1;
        if k > 10_000 {
            // Defensive: λ large enough to loop this long should use a
            // different sampler; the model never gets here.
            return k;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memutil::rng::SeedableRng;
    use memutil::rng::SmallRng;

    #[test]
    fn erf_known_values() {
        // The A&S 7.1.26 coefficients sum to 1 only to ~1e-9 at x = 0.
        assert!((erf(0.0)).abs() < 1e-6);
        assert!((erf(1.0) - 0.842_700_79).abs() < 1e-6);
        assert!((erf(-1.0) + 0.842_700_79).abs() < 1e-6);
        assert!((erf(3.0) - 0.999_977_9).abs() < 1e-6);
    }

    #[test]
    fn cdf_known_values() {
        // erfc carries ~1.2e-7 fractional error, so ~6e-8 here.
        assert!((norm_cdf(0.0) - 0.5).abs() < 1e-6);
        assert!((norm_cdf(1.0) - 0.841_344_7).abs() < 1e-6);
        assert!((norm_cdf(-1.96) - 0.024_997_9).abs() < 1e-6);
        assert!((norm_cdf(2.0) - 0.977_249_9).abs() < 1e-6);
    }

    #[test]
    fn cdf_deep_tail_is_positive_and_monotone() {
        let p8 = norm_cdf(-8.0);
        let p7 = norm_cdf(-7.0);
        assert!(p8 > 0.0 && p8 < p7);
        // Reference: Φ(-8) ≈ 6.22e-16.
        assert!((p8 / 6.22e-16 - 1.0).abs() < 0.05, "got {p8}");
        // Reference: Φ(-7) ≈ 1.28e-12.
        assert!((p7 / 1.28e-12 - 1.0).abs() < 0.05, "got {p7}");
    }

    #[test]
    fn ppf_known_values() {
        assert!(norm_ppf(0.5).abs() < 1e-6);
        assert!((norm_ppf(0.975) - 1.959_964).abs() < 1e-5);
        assert!((norm_ppf(0.025) + 1.959_964).abs() < 1e-5);
        assert!((norm_ppf(1e-6) + 4.753_424).abs() < 1e-4);
    }

    #[test]
    #[should_panic(expected = "p in (0,1)")]
    fn ppf_rejects_out_of_range() {
        let _ = norm_ppf(1.0);
    }

    #[test]
    fn poisson_mean_matches_lambda() {
        let mut rng = SmallRng::seed_from_u64(1);
        let lambda = 0.4;
        let n = 100_000;
        let sum: u64 = (0..n)
            .map(|_| u64::from(poisson_sample(&mut rng, lambda)))
            .sum();
        let mean = sum as f64 / n as f64;
        assert!(
            (mean - lambda).abs() < 0.01,
            "sample mean {mean} too far from {lambda}"
        );
    }

    #[test]
    fn poisson_zero_lambda() {
        let mut rng = SmallRng::seed_from_u64(2);
        assert_eq!(poisson_sample(&mut rng, 0.0), 0);
    }

    /// Seeded property loop: the quantile function inverts the CDF to 0.1 %
    /// relative accuracy in probability space. Probabilities are drawn
    /// log-uniformly so the deep tail gets exercised, mirroring the original
    /// proptest range `1e-9..0.999_999`.
    #[test]
    fn prop_ppf_inverts_cdf() {
        use memutil::rng::Rng;
        let mut rng = SmallRng::seed_from_u64(0x3A7_0001);
        for _ in 0..512 {
            let exp = rng.gen_range(-9.0f64..-1e-7);
            let p = 10f64.powf(exp).min(0.999_999);
            let x = norm_ppf(p);
            let back = norm_cdf(x);
            assert!(
                (back - p).abs() / p.max(1e-9) < 1e-3,
                "p={p} x={x} back={back}"
            );
        }
    }

    /// Seeded property loop: the CDF is monotone non-decreasing.
    #[test]
    fn prop_cdf_monotone() {
        use memutil::rng::Rng;
        let mut rng = SmallRng::seed_from_u64(0x3A7_0002);
        for _ in 0..512 {
            let a = rng.gen_range(-10.0f64..10.0);
            let b = rng.gen_range(-10.0f64..10.0);
            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
            assert!(norm_cdf(lo) <= norm_cdf(hi) + 1e-12, "lo={lo} hi={hi}");
        }
    }
}
