//! Interval statistics behind paper Figs. 7, 8, 9, 11, 12, and 19.
//!
//! All functions operate on extracted [`Interval`]s (see
//! [`WriteTrace::closed_intervals`](crate::trace::WriteTrace::closed_intervals))
//! and return plain numbers/series, so the experiment harness can print them
//! in the paper's layout directly.

use crate::trace::Interval;

/// One bucket of the Fig. 7 write-interval histogram.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramBucket {
    /// Inclusive lower bound of the bucket in milliseconds (the `< 1 ms`
    /// bucket has `lo_ms == 0.0`).
    pub lo_ms: f64,
    /// Exclusive upper bound in milliseconds.
    pub hi_ms: f64,
    /// Fraction of all intervals landing in the bucket (0–1).
    pub fraction: f64,
}

/// Fig. 7: distribution of write-interval lengths over power-of-two buckets
/// `[1, 2), [2, 4), … [32768, ∞)` ms plus a leading `< 1 ms` bucket.
#[must_use]
pub fn log2_histogram(intervals: &[Interval]) -> Vec<HistogramBucket> {
    const TOP: f64 = 32_768.0;
    let mut counts = [0u64; 17]; // <1, 1..2, …, 16384..32768, >=32768
    for iv in intervals {
        let ms = iv.len_ms();
        let idx = if ms < 1.0 {
            0
        } else if ms >= TOP {
            16
        } else {
            1 + ms.log2().floor() as usize
        };
        counts[idx] += 1;
    }
    let total = intervals.len().max(1) as f64;
    counts
        .iter()
        .enumerate()
        .map(|(i, &c)| {
            let (lo, hi) = match i {
                0 => (0.0, 1.0),
                16 => (TOP, f64::INFINITY),
                _ => (2f64.powi(i as i32 - 1), 2f64.powi(i as i32)),
            };
            HistogramBucket {
                lo_ms: lo,
                hi_ms: hi,
                fraction: c as f64 / total,
            }
        })
        .collect()
}

/// Empirical complementary CDF `P(len > x)` at the given abscissae.
#[must_use]
pub fn ccdf_points(intervals: &[Interval], xs_ms: &[f64]) -> Vec<(f64, f64)> {
    let mut lens: Vec<f64> = intervals.iter().map(Interval::len_ms).collect();
    lens.sort_by(f64::total_cmp);
    let n = lens.len().max(1) as f64;
    xs_ms
        .iter()
        .map(|&x| {
            let above = lens.partition_point(|&l| l <= x);
            (x, (lens.len() - above) as f64 / n)
        })
        .collect()
}

/// Result of fitting `P(len > x) = k · x^(−α)` by least squares on the
/// log-log plane (paper Fig. 8).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParetoFit {
    /// Fitted tail index α.
    pub alpha: f64,
    /// Fitted scale k.
    pub k: f64,
    /// Coefficient of determination of the log-log regression.
    pub r2: f64,
    /// Number of (x, p) points used.
    pub points: usize,
}

/// Fits the Pareto tail of the interval distribution over logarithmically
/// spaced abscissae in `[x_min_ms, x_max_ms]`.
///
/// Returns `None` if fewer than three abscissae carry positive probability
/// mass (nothing to regress on).
#[must_use]
pub fn pareto_fit(intervals: &[Interval], x_min_ms: f64, x_max_ms: f64) -> Option<ParetoFit> {
    let n_points = 24;
    let xs: Vec<f64> = (0..n_points)
        .map(|i| {
            (x_min_ms.ln() + (x_max_ms.ln() - x_min_ms.ln()) * i as f64 / (n_points - 1) as f64)
                .exp()
        })
        .collect();
    // Require a minimum tail sample behind each point: CCDF estimates backed
    // by a handful of intervals are log-noise and would corrupt the fit.
    let min_tail_count = 10.0;
    let n_intervals = intervals.len() as f64;
    let pts: Vec<(f64, f64)> = ccdf_points(intervals, &xs)
        .into_iter()
        .filter(|&(_, p)| p * n_intervals >= min_tail_count)
        .map(|(x, p)| (x.ln(), p.ln()))
        .collect();
    if pts.len() < 3 {
        return None;
    }
    let n = pts.len() as f64;
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return None;
    }
    let slope = (n * sxy - sx * sy) / denom;
    let intercept = (sy - slope * sx) / n;
    let mean_y = sy / n;
    let ss_tot: f64 = pts.iter().map(|p| (p.1 - mean_y).powi(2)).sum();
    let ss_res: f64 = pts
        .iter()
        .map(|p| (p.1 - (slope * p.0 + intercept)).powi(2))
        .sum();
    let r2 = if ss_tot <= 0.0 {
        1.0
    } else {
        1.0 - ss_res / ss_tot
    };
    Some(ParetoFit {
        alpha: -slope,
        k: intercept.exp(),
        r2,
        points: pts.len(),
    })
}

/// Fig. 9: fraction of total interval *time* spent in intervals at least
/// `threshold_ms` long.
#[must_use]
pub fn time_fraction_ge_ms(intervals: &[Interval], threshold_ms: f64) -> f64 {
    let total: f64 = intervals.iter().map(|i| i.len_ns as f64).sum();
    if total <= 0.0 {
        return 0.0;
    }
    let long: f64 = intervals
        .iter()
        .filter(|i| i.len_ms() >= threshold_ms)
        .map(|i| i.len_ns as f64)
        .sum();
    long / total
}

/// Fig. 11: for each current-interval length `c`, the probability that the
/// remaining interval length exceeds `ril_ms`, i.e.
/// `P(len > c + ril | len > c)` over closed intervals.
#[must_use]
pub fn p_ril_gt_given_cil(intervals: &[Interval], ril_ms: f64, cils_ms: &[f64]) -> Vec<(f64, f64)> {
    let mut lens: Vec<f64> = intervals
        .iter()
        .filter(|i| i.closed)
        .map(Interval::len_ms)
        .collect();
    lens.sort_by(f64::total_cmp);
    cils_ms
        .iter()
        .map(|&c| {
            let alive = lens.len() - lens.partition_point(|&l| l <= c);
            let long = lens.len() - lens.partition_point(|&l| l <= c + ril_ms);
            let p = if alive == 0 {
                0.0
            } else {
                long as f64 / alive as f64
            };
            (c, p)
        })
        .collect()
}

/// Fig. 12: time coverage of predicting at current-interval length `c`.
/// A prediction at `c` is *correct* when the interval indeed continues for
/// more than `ril_ms`; the covered time is the remainder `(len − c)` of each
/// correctly predicted interval, normalized by total interval time.
#[must_use]
pub fn coverage_given_cil(intervals: &[Interval], ril_ms: f64, cils_ms: &[f64]) -> Vec<(f64, f64)> {
    let total: f64 = intervals.iter().map(|i| i.len_ns as f64 / 1e6).sum();
    cils_ms
        .iter()
        .map(|&c| {
            if total <= 0.0 {
                return (c, 0.0);
            }
            let covered: f64 = intervals
                .iter()
                .filter(|i| i.len_ms() > c + ril_ms)
                .map(|i| i.len_ms() - c)
                .sum();
            (c, covered / total)
        })
        .collect()
}

/// The standard CIL abscissae of Figs. 11 and 12: 1, 2, 4, … 32768 ms.
#[must_use]
pub fn standard_cils_ms() -> Vec<f64> {
    (0..16).map(|i| 2f64.powi(i)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadProfile;

    fn iv(len_ms: f64) -> Interval {
        Interval {
            page: 0,
            start_ns: 0,
            len_ns: (len_ms * 1e6) as u64,
            closed: true,
        }
    }

    #[test]
    fn histogram_buckets_sum_to_one() {
        let intervals: Vec<Interval> = [0.5, 0.7, 1.5, 3.0, 100.0, 40_000.0]
            .iter()
            .map(|&l| iv(l))
            .collect();
        let h = log2_histogram(&intervals);
        assert_eq!(h.len(), 17);
        let sum: f64 = h.iter().map(|b| b.fraction).sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert!((h[0].fraction - 2.0 / 6.0).abs() < 1e-9, "sub-ms bucket");
        assert!((h[16].fraction - 1.0 / 6.0).abs() < 1e-9, "overflow bucket");
    }

    #[test]
    fn histogram_bucket_edges() {
        let h = log2_histogram(&[iv(2.0)]);
        // 2.0 ms falls in [2,4).
        let idx = h.iter().position(|b| b.fraction > 0.0).unwrap();
        assert_eq!(h[idx].lo_ms, 2.0);
        assert_eq!(h[idx].hi_ms, 4.0);
    }

    #[test]
    fn ccdf_is_monotone_and_correct() {
        let intervals: Vec<Interval> = [1.0, 2.0, 3.0, 4.0].iter().map(|&l| iv(l)).collect();
        let pts = ccdf_points(&intervals, &[0.5, 1.0, 2.5, 4.0, 5.0]);
        let ps: Vec<f64> = pts.iter().map(|p| p.1).collect();
        assert_eq!(ps, vec![1.0, 0.75, 0.5, 0.0, 0.0]);
    }

    #[test]
    fn pareto_fit_recovers_alpha() {
        // Synthesize a clean Pareto sample and check recovery.
        use memutil::rng::SeedableRng;
        use memutil::rng::SmallRng;
        let p = crate::interval::BoundedPareto::new(1.0, 0.6, 1.0e7);
        let mut rng = SmallRng::seed_from_u64(7);
        let intervals: Vec<Interval> = (0..100_000).map(|_| iv(p.sample(&mut rng))).collect();
        let fit = pareto_fit(&intervals, 1.0, 10_000.0).unwrap();
        assert!(
            (fit.alpha - 0.6).abs() < 0.05,
            "alpha {} (expected 0.6)",
            fit.alpha
        );
        assert!(fit.r2 > 0.99, "r2 {}", fit.r2);
    }

    #[test]
    fn pareto_fit_on_generated_workloads_matches_fig8() {
        // Paper Fig. 8: R² between 0.93 and 0.99 over the tail region.
        for w in [
            WorkloadProfile::ac_brotherhood(),
            WorkloadProfile::netflix(),
            WorkloadProfile::system_mgt(),
        ] {
            let t = w.clone().scaled(0.3).with_window(60.0).generate(11);
            let intervals = t.closed_intervals();
            let fit = pareto_fit(&intervals, 1.0, 10_000.0).unwrap();
            assert!(fit.r2 > 0.8, "{}: r2 {}", w.name, fit.r2);
            assert!(
                fit.alpha > 0.2 && fit.alpha < 1.2,
                "{}: alpha {}",
                w.name,
                fit.alpha
            );
        }
    }

    #[test]
    fn time_fraction_simple() {
        let intervals = vec![iv(1.0), iv(999.0), iv(2000.0)];
        let f = time_fraction_ge_ms(&intervals, 1024.0);
        assert!((f - 2000.0 / 3000.0).abs() < 1e-9);
        assert_eq!(time_fraction_ge_ms(&[], 1.0), 0.0);
    }

    #[test]
    fn ril_conditional_increases_with_cil() {
        let w = WorkloadProfile::netflix().scaled(0.5).with_window(120.0);
        let t = w.generate(13);
        let intervals = t.closed_intervals();
        let pts = p_ril_gt_given_cil(&intervals, 1024.0, &standard_cils_ms());
        // Probability at tiny CIL is small (burst intervals dominate); at
        // 512 ms it is substantial (paper: 50-80%); it rises with CIL up to
        // the region where few intervals survive and sampling noise sets in.
        let at_1 = pts[0].1;
        let at_512 = pts.iter().find(|p| p.0 == 512.0).unwrap().1;
        assert!(at_1 < 0.25, "P at CIL=1: {at_1}");
        assert!((0.35..1.0).contains(&at_512), "P at CIL=512: {at_512}");
        assert!(at_512 > 2.0 * at_1, "DHR growth from CIL 1 to 512");
        for w in pts.windows(2).take_while(|w| w[1].0 <= 1024.0) {
            if w[0].1 > 0.0 && w[1].1 > 0.0 {
                assert!(w[1].1 > w[0].1 - 0.1, "non-monotone: {w:?}");
            }
        }
    }

    #[test]
    fn coverage_decreases_with_cil() {
        let w = WorkloadProfile::ac_brotherhood()
            .scaled(0.02)
            .with_window(120.0);
        let t = w.generate(17);
        let intervals = t.intervals_with_tail();
        let pts = coverage_given_cil(&intervals, 1024.0, &standard_cils_ms());
        for w in pts.windows(2) {
            assert!(w[1].1 <= w[0].1 + 1e-9, "coverage must not increase");
        }
        // Paper Fig. 12: still substantial at 512-2048 ms.
        let at_1024 = pts.iter().find(|p| p.0 == 1024.0).unwrap().1;
        assert!(at_1024 > 0.5, "coverage at CIL 1024: {at_1024}");
    }

    #[test]
    fn empty_inputs_do_not_panic() {
        assert_eq!(log2_histogram(&[]).len(), 17);
        assert!(pareto_fit(&[], 1.0, 100.0).is_none());
        assert_eq!(p_ril_gt_given_cil(&[], 1024.0, &[1.0])[0].1, 0.0);
        assert_eq!(coverage_given_cil(&[], 1024.0, &[1.0])[0].1, 0.0);
    }
}
