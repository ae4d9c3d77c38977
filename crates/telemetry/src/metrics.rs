//! Atomic metric primitives: counters and fixed-bucket histograms.
//!
//! Every metric shares its owning registry's enabled flag, so disabling a
//! registry instantly quiesces handles that were bound while it was live.
//! All updates are relaxed atomics: counters and histograms only ever
//! *add*, and addition commutes, which is exactly why deterministic-class
//! values are independent of worker interleaving.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonically increasing, saturating `u64` counter.
///
/// Saturates at `u64::MAX` instead of wrapping: a pegged counter is an
/// obvious outlier in a report, a wrapped one is silent nonsense.
#[derive(Debug)]
pub struct Counter {
    enabled: Arc<AtomicBool>,
    value: AtomicU64,
}

impl Counter {
    pub(crate) fn new(enabled: Arc<AtomicBool>) -> Counter {
        Counter {
            enabled,
            value: AtomicU64::new(0),
        }
    }

    /// Adds `n` (saturating). No-op when the owning registry is disabled.
    pub fn add(&self, n: u64) {
        if n == 0 || !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        let _ = self
            .value
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_add(n))
            });
    }

    /// Adds 1.
    pub fn incr(&self) {
        self.add(1);
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    pub(crate) fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A fixed-bucket histogram over `u64` samples.
///
/// Bucket `i` counts samples `v` with `edges[i-1] < v <= edges[i]`
/// (ascending inclusive upper bounds); one extra overflow bucket catches
/// everything above the last edge. Also tracks the sample count and the
/// saturating sum, so a report can recover the mean.
#[derive(Debug)]
pub struct Histogram {
    enabled: Arc<AtomicBool>,
    edges: Box<[u64]>,
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    pub(crate) fn new(enabled: Arc<AtomicBool>, edges: &[u64]) -> Histogram {
        debug_assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "histogram edges must be strictly ascending"
        );
        Histogram {
            enabled,
            edges: edges.into(),
            buckets: (0..=edges.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one sample. No-op when the owning registry is disabled.
    pub fn record(&self, value: u64) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        let idx = self.edges.partition_point(|&e| e < value);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let _ = self
            .sum
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_add(value))
            });
    }

    /// Folds pre-aggregated bucket counts into this histogram in one shot.
    ///
    /// `buckets` pairs positionally with this histogram's buckets (extra
    /// source entries are dropped into the overflow bucket); `count` and
    /// `sum` are added verbatim. Lets an engine accumulate a histogram in
    /// plain fields during a run and flush it once at the end — keeping the
    /// per-sample hot path free of registry traffic and the merged result
    /// identical to having called [`Histogram::record`] per sample.
    pub fn merge_counts(&self, buckets: &[u64], count: u64, sum: u64) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        let last = self.buckets.len() - 1;
        for (i, &n) in buckets.iter().enumerate() {
            if n != 0 {
                self.buckets[i.min(last)].fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(count, Ordering::Relaxed);
        let _ = self
            .sum
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_add(sum))
            });
    }

    /// The configured bucket upper bounds.
    #[must_use]
    pub fn edges(&self) -> &[u64] {
        &self.edges
    }

    /// A snapshot of all bucket counts (`edges.len() + 1` entries, the
    /// last being the overflow bucket).
    #[must_use]
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// Total number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Saturating sum of all recorded samples.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    pub(crate) fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn on() -> Arc<AtomicBool> {
        Arc::new(AtomicBool::new(true))
    }

    #[test]
    fn counter_adds_and_saturates() {
        let c = Counter::new(on());
        c.add(3);
        c.incr();
        assert_eq!(c.get(), 4);
        c.add(u64::MAX - 1);
        assert_eq!(c.get(), u64::MAX, "must saturate, not wrap");
        c.add(10);
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn counter_ignores_updates_when_disabled() {
        let flag = on();
        let c = Counter::new(Arc::clone(&flag));
        c.add(2);
        flag.store(false, Ordering::Relaxed);
        c.add(100);
        assert_eq!(c.get(), 2);
    }

    #[test]
    fn histogram_bucket_edges_are_inclusive_upper_bounds() {
        let h = Histogram::new(on(), &[0, 10, 100]);
        // Bucket layout: (..=0], (0..=10], (10..=100], (100..).
        for v in [0, 0] {
            h.record(v);
        }
        for v in [1, 10] {
            h.record(v);
        }
        for v in [11, 100] {
            h.record(v);
        }
        for v in [101, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.bucket_counts(), vec![2, 2, 2, 2]);
        assert_eq!(h.count(), 8);
        assert_eq!(h.sum(), u64::MAX, "sum saturates");
    }

    #[test]
    fn histogram_without_edges_is_a_single_overflow_bucket() {
        let h = Histogram::new(on(), &[]);
        h.record(0);
        h.record(123);
        assert_eq!(h.bucket_counts(), vec![2]);
    }

    #[test]
    fn counter_add_zero_registers_no_change_but_is_safe_at_saturation() {
        let c = Counter::new(on());
        c.add(0);
        assert_eq!(c.get(), 0);
        c.add(u64::MAX);
        c.add(0);
        assert_eq!(c.get(), u64::MAX);
        c.incr();
        assert_eq!(c.get(), u64::MAX, "incr at ceiling stays saturated");
    }

    #[test]
    fn counter_reset_reopens_headroom_after_saturation() {
        let c = Counter::new(on());
        c.add(u64::MAX);
        c.reset();
        assert_eq!(c.get(), 0);
        c.add(7);
        assert_eq!(c.get(), 7);
    }

    #[test]
    fn histogram_single_edge_splits_at_the_boundary_exactly() {
        let h = Histogram::new(on(), &[64]);
        h.record(63);
        h.record(64);
        h.record(65);
        assert_eq!(
            h.bucket_counts(),
            vec![2, 1],
            "64 is inside (..=64], 65 overflows"
        );
    }

    #[test]
    fn histogram_edge_at_u64_max_leaves_an_empty_overflow_bucket() {
        let h = Histogram::new(on(), &[u64::MAX]);
        h.record(u64::MAX);
        assert_eq!(h.bucket_counts(), vec![1, 0]);
    }

    #[test]
    fn histogram_sum_saturates_across_many_records() {
        let h = Histogram::new(on(), &[1]);
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.sum(), u64::MAX);
        assert_eq!(h.count(), 2, "count keeps advancing past sum saturation");
    }

    #[test]
    fn histogram_ignores_records_when_disabled() {
        let flag = on();
        let h = Histogram::new(Arc::clone(&flag), &[10]);
        h.record(5);
        flag.store(false, Ordering::Relaxed);
        h.record(5);
        assert_eq!(h.count(), 1);
        assert_eq!(h.bucket_counts(), vec![1, 0]);
    }

    #[test]
    fn merge_counts_matches_per_sample_records() {
        let edges = [0u64, 4, 16, 64];
        let live = Histogram::new(on(), &edges);
        let merged = Histogram::new(on(), &edges);
        let samples = [0u64, 1, 4, 5, 16, 17, 64, 65, 1000];
        let mut buckets = vec![0u64; edges.len() + 1];
        let mut sum = 0u64;
        for &v in &samples {
            live.record(v);
            buckets[edges.partition_point(|&e| e < v)] += 1;
            sum += v;
        }
        merged.merge_counts(&buckets, samples.len() as u64, sum);
        assert_eq!(merged.bucket_counts(), live.bucket_counts());
        assert_eq!(merged.count(), live.count());
        assert_eq!(merged.sum(), live.sum());
    }

    #[test]
    fn merge_counts_overflow_spill_and_disabled_guard() {
        let h = Histogram::new(on(), &[10]);
        // Source histogram with more buckets than ours: extras land in overflow.
        h.merge_counts(&[1, 2, 3, 4], 10, 100);
        assert_eq!(h.bucket_counts(), vec![1, 9]);

        let flag = on();
        let off = Histogram::new(Arc::clone(&flag), &[10]);
        flag.store(false, Ordering::Relaxed);
        off.merge_counts(&[5, 5], 10, 50);
        assert_eq!(off.count(), 0);
    }
}
