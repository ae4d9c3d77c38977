//! Epoch-aligned time-series sampler over the deterministic counter set.
//!
//! A [`crate::Registry`] owns one bounded [`TimeSeries`] ring. Callers at a
//! deterministic synchronization point — the fleet scheduler after its
//! per-epoch barrier, or a single engine at a quantum-window boundary —
//! take a [`SamplePoint`] via [`crate::Registry::sample_point`]. Each point
//! records the *delta* of every deterministic counter since the previous
//! sample (zero deltas are elided to keep points small) plus an explicit
//! set of caller-provided gauges (instantaneous values such as pinned-page
//! or PRIL-buffer occupancy that a monotone counter cannot express).
//!
//! Because samples are taken post-barrier in a deterministic order and the
//! sampled values derive purely from simulation state, the series is
//! [`crate::Class::Deterministic`] data: it lands in the `deterministic`
//! report section and must stay byte-identical across `--jobs` settings.
//! Sampling from concurrently stepping workers would interleave points
//! nondeterministically — don't; sample only at barriers or from
//! single-threaded drivers.
//!
//! The ring is bounded; overflow evicts the oldest point and increments a
//! `dropped_points` count surfaced in the report (no silent caps).

use std::collections::{BTreeMap, VecDeque};

use memutil::json::Json;

/// Schema identifier of the `timeseries` report section and of standalone
/// series artifacts.
pub const TIMESERIES_SCHEMA: &str = "memcon-timeseries/v1";

/// Default number of retained sample points.
pub(crate) const DEFAULT_TIMESERIES_CAPACITY: usize = 64;

/// One epoch- or quantum-aligned sample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SamplePoint {
    /// Caller-supplied tick (fleet epoch or engine quantum index).
    pub tick: u64,
    /// Non-zero deltas of deterministic counters since the previous
    /// sample, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Caller-supplied instantaneous gauges, in caller order.
    pub gauges: Vec<(String, u64)>,
}

impl SamplePoint {
    /// The delta recorded for `name` in this point (0 when elided), or
    /// the gauge value when `name` names a gauge.
    #[must_use]
    pub fn value(&self, name: &str) -> u64 {
        if let Some((_, v)) = self.counters.iter().find(|(n, _)| n == name) {
            return *v;
        }
        self.gauges
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// The point as report JSON: `{tick, counters: {…}, gauges: {…}}`.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut counters = Json::obj();
        for (name, delta) in &self.counters {
            counters.set(name, *delta);
        }
        let mut gauges = Json::obj();
        for (name, value) in &self.gauges {
            gauges.set(name, *value);
        }
        Json::obj()
            .field("tick", self.tick)
            .field("counters", counters)
            .field("gauges", gauges)
    }
}

/// Bounded ring of [`SamplePoint`]s plus the snapshot deltas are computed
/// against. Owned by a registry behind its mutex; not shared directly.
#[derive(Debug)]
pub(crate) struct TimeSeries {
    capacity: usize,
    last_snapshot: BTreeMap<String, u64>,
    points: VecDeque<SamplePoint>,
    dropped: u64,
}

impl TimeSeries {
    pub(crate) fn new(capacity: usize) -> TimeSeries {
        TimeSeries {
            capacity: capacity.max(1),
            last_snapshot: BTreeMap::new(),
            points: VecDeque::new(),
            dropped: 0,
        }
    }

    pub(crate) fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity.max(1);
        while self.points.len() > self.capacity {
            self.points.pop_front();
            self.dropped += 1;
        }
    }

    /// Folds a fresh deterministic-counter snapshot into a new point.
    pub(crate) fn sample(
        &mut self,
        tick: u64,
        now: Vec<(String, u64)>,
        gauges: &[(&str, u64)],
    ) -> SamplePoint {
        let mut counters = Vec::new();
        for (name, value) in now {
            let was = self.last_snapshot.get(&name).copied().unwrap_or(0);
            let delta = value.saturating_sub(was);
            self.last_snapshot.insert(name.clone(), value);
            if delta != 0 {
                counters.push((name, delta));
            }
        }
        let point = SamplePoint {
            tick,
            counters,
            gauges: gauges.iter().map(|(n, v)| ((*n).to_string(), *v)).collect(),
        };
        if self.points.len() == self.capacity {
            self.points.pop_front();
            self.dropped += 1;
        }
        self.points.push_back(point.clone());
        point
    }

    pub(crate) fn points(&self) -> Vec<SamplePoint> {
        self.points.iter().cloned().collect()
    }

    pub(crate) fn last_points(&self, n: usize) -> Vec<SamplePoint> {
        let skip = self.points.len().saturating_sub(n);
        self.points.iter().skip(skip).cloned().collect()
    }

    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }

    /// `(tick, value)` pairs of one named counter-delta or gauge across
    /// the retained points.
    pub(crate) fn series(&self, name: &str) -> Vec<(u64, u64)> {
        self.points
            .iter()
            .map(|p| (p.tick, p.value(name)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(pairs: &[(&str, u64)]) -> Vec<(String, u64)> {
        pairs.iter().map(|(n, v)| ((*n).to_string(), *v)).collect()
    }

    #[test]
    fn points_hold_deltas_not_totals() {
        let mut ts = TimeSeries::new(8);
        ts.sample(1, snap(&[("a", 10), ("b", 0)]), &[]);
        let p = ts.sample(2, snap(&[("a", 25), ("b", 3)]), &[]);
        assert_eq!(p.value("a"), 15);
        assert_eq!(p.value("b"), 3);
        assert_eq!(ts.points().len(), 2);
    }

    #[test]
    fn zero_deltas_are_elided_but_readable() {
        let mut ts = TimeSeries::new(8);
        ts.sample(1, snap(&[("a", 5)]), &[]);
        let p = ts.sample(2, snap(&[("a", 5)]), &[]);
        assert!(p.counters.is_empty());
        assert_eq!(p.value("a"), 0);
    }

    #[test]
    fn gauges_ride_along_verbatim() {
        let mut ts = TimeSeries::new(8);
        let p = ts.sample(3, snap(&[]), &[("g.pinned", 7), ("g.buf", 0)]);
        assert_eq!(p.value("g.pinned"), 7);
        assert_eq!(p.value("g.buf"), 0);
        assert_eq!(ts.series("g.pinned"), vec![(3, 7)]);
    }

    #[test]
    fn ring_overflow_counts_dropped_points() {
        let mut ts = TimeSeries::new(2);
        for tick in 0..5 {
            ts.sample(tick, snap(&[("a", tick)]), &[]);
        }
        assert_eq!(ts.points().len(), 2);
        assert_eq!(ts.dropped(), 3);
        assert_eq!(
            ts.points().iter().map(|p| p.tick).collect::<Vec<_>>(),
            vec![3, 4]
        );
    }

    #[test]
    fn last_points_returns_the_tail() {
        let mut ts = TimeSeries::new(8);
        for tick in 0..6 {
            ts.sample(tick, snap(&[]), &[]);
        }
        let tail = ts.last_points(2);
        assert_eq!(tail.iter().map(|p| p.tick).collect::<Vec<_>>(), vec![4, 5]);
        assert_eq!(ts.last_points(100).len(), 6);
    }
}
