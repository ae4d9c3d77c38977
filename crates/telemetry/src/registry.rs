//! Metric registry, the global/scoped current-registry machinery, and the
//! JSON report emitter.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock};

use memutil::json::Json;

use crate::metrics::{Counter, Histogram};
use crate::timeseries::{SamplePoint, TimeSeries, DEFAULT_TIMESERIES_CAPACITY};
use crate::trace::EventTrace;
use crate::trees::SpanTree;
use crate::Class;

/// Default event-trace capacity of a fresh registry.
const DEFAULT_TRACE_CAPACITY: usize = 256;

/// Default span-tree node capacity of a fresh registry.
const DEFAULT_TREE_CAPACITY: usize = 1024;

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, (Class, Arc<Counter>)>,
    histograms: BTreeMap<String, (Class, Arc<Histogram>)>,
    /// Per-figure deltas of deterministic counters, in recording order.
    figures: Vec<(String, Vec<(String, u64)>)>,
}

/// A collection of named metrics sharing one enabled flag, exportable as
/// a JSON report with separated `deterministic` and `timing` sections.
///
/// Fresh registries are **disabled**; metrics bound from a disabled
/// registry stay registered but drop all updates until
/// [`Registry::set_enabled`] turns collection on.
pub struct Registry {
    enabled: Arc<AtomicBool>,
    trace: Arc<EventTrace>,
    tree: Arc<SpanTree>,
    timeseries: Mutex<TimeSeries>,
    inner: Mutex<Inner>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// A fresh, disabled registry with the default trace capacity.
    #[must_use]
    pub fn new() -> Registry {
        Registry::with_trace_capacity(DEFAULT_TRACE_CAPACITY)
    }

    /// A fresh, disabled registry retaining at most `capacity` trace
    /// events (floor 1).
    #[must_use]
    pub fn with_trace_capacity(capacity: usize) -> Registry {
        let enabled = Arc::new(AtomicBool::new(false));
        Registry {
            trace: Arc::new(EventTrace::new(Arc::clone(&enabled), capacity)),
            tree: Arc::new(SpanTree::new(Arc::clone(&enabled), DEFAULT_TREE_CAPACITY)),
            timeseries: Mutex::new(TimeSeries::new(DEFAULT_TIMESERIES_CAPACITY)),
            enabled,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Whether metrics bound to this registry record updates.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns collection on or off for every metric bound to this
    /// registry, including handles bound earlier.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    fn inner(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The named counter, registered with `class` on first use. The class
    /// of the first registration wins.
    pub fn counter(&self, name: &str, class: Class) -> Arc<Counter> {
        let mut inner = self.inner();
        if let Some((_, c)) = inner.counters.get(name) {
            return Arc::clone(c);
        }
        let c = Arc::new(Counter::new(Arc::clone(&self.enabled)));
        inner
            .counters
            .insert(name.to_string(), (class, Arc::clone(&c)));
        c
    }

    /// The named histogram, created with `edges` (ascending inclusive
    /// upper bounds) on first use. The edges and class of the first
    /// registration win.
    pub fn histogram(&self, name: &str, class: Class, edges: &[u64]) -> Arc<Histogram> {
        let mut inner = self.inner();
        if let Some((_, h)) = inner.histograms.get(name) {
            return Arc::clone(h);
        }
        let h = Arc::new(Histogram::new(Arc::clone(&self.enabled), edges));
        inner
            .histograms
            .insert(name.to_string(), (class, Arc::clone(&h)));
        h
    }

    /// The registry's bounded event trace.
    #[must_use]
    pub fn trace(&self) -> Arc<EventTrace> {
        Arc::clone(&self.trace)
    }

    /// The registry's causal span tree ([`Class::Timing`] data).
    #[must_use]
    pub fn tree(&self) -> Arc<SpanTree> {
        Arc::clone(&self.tree)
    }

    fn timeseries(&self) -> std::sync::MutexGuard<'_, TimeSeries> {
        self.timeseries
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Takes an epoch/quantum-aligned [`SamplePoint`]: the delta of every
    /// deterministic counter since the previous sample plus the supplied
    /// instantaneous gauges, appended to the bounded time-series ring.
    ///
    /// Must be called from a deterministic synchronization point (a
    /// post-barrier fleet epoch loop, or a single-threaded engine at a
    /// quantum-window boundary) — the series lands in the report's
    /// `deterministic` section and is byte-diffed across `--jobs`.
    /// Returns `None` (recording nothing) when the registry is disabled.
    pub fn sample_point(&self, tick: u64, gauges: &[(&str, u64)]) -> Option<SamplePoint> {
        if !self.is_enabled() {
            return None;
        }
        let now = self.deterministic_counters();
        Some(self.timeseries().sample(tick, now, gauges))
    }

    /// Retained time-series points, oldest first.
    #[must_use]
    pub fn timeseries_points(&self) -> Vec<SamplePoint> {
        self.timeseries().points()
    }

    /// The last `n` retained time-series points, oldest first.
    #[must_use]
    pub fn timeseries_tail(&self, n: usize) -> Vec<SamplePoint> {
        self.timeseries().last_points(n)
    }

    /// `(tick, value)` pairs of one named counter-delta or gauge across
    /// the retained points.
    #[must_use]
    pub fn series(&self, name: &str) -> Vec<(u64, u64)> {
        self.timeseries().series(name)
    }

    /// Resizes the time-series ring (floor 1), evicting oldest points if
    /// the new capacity is smaller.
    pub fn set_timeseries_capacity(&self, capacity: usize) {
        self.timeseries().set_capacity(capacity);
    }

    /// Name/value snapshot of every deterministic-class counter, sorted
    /// by name. Pair with [`Registry::record_figure`] to attribute counts
    /// to one phase of a run.
    #[must_use]
    pub fn deterministic_counters(&self) -> Vec<(String, u64)> {
        self.inner()
            .counters
            .iter()
            .filter(|(_, (class, _))| *class == Class::Deterministic)
            .map(|(name, (_, c))| (name.clone(), c.get()))
            .collect()
    }

    /// `(name, count, sum)` snapshot of every deterministic-class
    /// histogram, sorted by name (the scrape endpoint's summary view).
    #[must_use]
    pub fn deterministic_histogram_stats(&self) -> Vec<(String, u64, u64)> {
        self.inner()
            .histograms
            .iter()
            .filter(|(_, (class, _))| *class == Class::Deterministic)
            .map(|(name, (_, h))| (name.clone(), h.count(), h.sum()))
            .collect()
    }

    /// Records the per-figure delta of every deterministic counter since
    /// the `since` snapshot (taken via [`Registry::deterministic_counters`]
    /// before the figure ran). Zero deltas are kept, so figure records
    /// have stable shape.
    pub fn record_figure(&self, figure: &str, since: &[(String, u64)]) {
        let before: BTreeMap<&str, u64> = since.iter().map(|(n, v)| (n.as_str(), *v)).collect();
        let deltas: Vec<(String, u64)> = self
            .deterministic_counters()
            .into_iter()
            .map(|(name, now)| {
                let was = before.get(name.as_str()).copied().unwrap_or(0);
                (name, now.saturating_sub(was))
            })
            .collect();
        self.inner().figures.push((figure.to_string(), deltas));
    }

    /// Zeroes every metric and clears figure records and the trace.
    /// Registered names survive, so bound handles stay valid.
    pub fn reset(&self) {
        let mut inner = self.inner();
        for (_, c) in inner.counters.values() {
            c.reset();
        }
        for (_, h) in inner.histograms.values() {
            h.reset();
        }
        inner.figures.clear();
        self.trace.clear();
        self.tree.clear();
        self.timeseries().clear();
    }

    /// Emits the full report:
    ///
    /// ```json
    /// {
    ///   "schema": "memcon-telemetry/v1",
    ///   "deterministic": { "counters": {…}, "histograms": {…}, "figures": […],
    ///                      "timeseries": { "points": […], … } },
    ///   "timing": { "counters": {…}, "histograms": {…}, "span_tree": {…}, "par": {…},
    ///               "trace": { "events": […], "recorded": N, "dropped_events": M } }
    /// }
    /// ```
    ///
    /// The `deterministic` section is byte-identical across `--jobs`
    /// settings for the same workload; the `timing` section is not and is
    /// excluded from determinism diffs.
    #[must_use]
    pub fn report(&self) -> Json {
        let inner = self.inner();

        let mut det_counters = Json::obj();
        let mut timing_counters = Json::obj();
        for (name, (class, c)) in &inner.counters {
            match class {
                Class::Deterministic => det_counters.set(name, c.get()),
                Class::Timing => timing_counters.set(name, c.get()),
            }
        }

        let mut det_hists = Json::obj();
        let mut timing_hists = Json::obj();
        for (name, (class, h)) in &inner.histograms {
            let json = Json::obj()
                .field("edges", h.edges().to_vec())
                .field("buckets", h.bucket_counts())
                .field("count", h.count())
                .field("sum", h.sum());
            match class {
                Class::Deterministic => det_hists.set(name, json),
                Class::Timing => timing_hists.set(name, json),
            }
        }

        let mut figures = Json::arr();
        for (figure, deltas) in &inner.figures {
            let mut counters = Json::obj();
            for (name, delta) in deltas {
                counters.set(name, *delta);
            }
            figures = figures.push(
                Json::obj()
                    .field("figure", figure.as_str())
                    .field("counters", counters),
            );
        }

        let pool = memutil::par::pool_stats();
        let par = Json::obj()
            .field("scopes", pool.scopes)
            .field("inline_runs", pool.inline_runs)
            .field("chunks_run", pool.chunks_run)
            .field("chunks_stolen", pool.chunks_stolen)
            .field("worker_chunks", pool.worker_chunks.to_vec());

        let mut events = Json::arr();
        for e in self.trace.snapshot() {
            events = events.push(
                Json::obj()
                    .field("seq", e.seq)
                    .field("label", e.label.as_str())
                    .field("value", e.value),
            );
        }
        let trace = Json::obj()
            .field("events", events)
            .field("recorded", self.trace.recorded())
            .field("dropped_events", self.trace.dropped());

        let mut tree_nodes = Json::arr();
        for n in self.tree.snapshot() {
            tree_nodes = tree_nodes.push(n.to_json());
        }
        let span_tree = Json::obj()
            .field("nodes", tree_nodes)
            .field("dropped", self.tree.dropped());

        let timeseries = {
            let ts = self.timeseries();
            let mut points = Json::arr();
            for p in ts.points() {
                points = points.push(p.to_json());
            }
            Json::obj()
                .field("schema", crate::timeseries::TIMESERIES_SCHEMA)
                .field("capacity", ts.capacity() as u64)
                .field("dropped_points", ts.dropped())
                .field("points", points)
        };

        Json::obj()
            .field("schema", crate::SCHEMA)
            .field(
                "deterministic",
                Json::obj()
                    .field("counters", det_counters)
                    .field("histograms", det_hists)
                    .field("figures", figures)
                    .field("timeseries", timeseries),
            )
            .field(
                "timing",
                Json::obj()
                    .field("counters", timing_counters)
                    .field("histograms", timing_hists)
                    .field("span_tree", span_tree)
                    .field("par", par)
                    .field("trace", trace),
            )
    }
}

static GLOBAL: OnceLock<Arc<Registry>> = OnceLock::new();
static CURRENT: RwLock<Option<Arc<Registry>>> = RwLock::new(None);

/// The lazily created process-global registry (disabled until something
/// calls [`Registry::set_enabled`] on it).
#[must_use]
pub fn global() -> Arc<Registry> {
    Arc::clone(GLOBAL.get_or_init(|| Arc::new(Registry::new())))
}

/// The registry instrumentation currently records into: the innermost
/// [`install`]ed registry, else [`global`]. The scope is process-wide
/// (pool workers and the caller observe the same current registry).
#[must_use]
pub fn current() -> Arc<Registry> {
    if let Some(r) = CURRENT
        .read()
        .unwrap_or_else(PoisonError::into_inner)
        .as_ref()
    {
        return Arc::clone(r);
    }
    global()
}

/// Makes `registry` the process-wide current registry until the returned
/// guard drops (guards nest LIFO). Callers that install concurrently from
/// multiple threads must serialize themselves — the experiments CLI and
/// the test suites take a lock around telemetry-scoped sections.
#[must_use]
pub fn install(registry: Arc<Registry>) -> ScopeGuard {
    let mut cur = CURRENT.write().unwrap_or_else(PoisonError::into_inner);
    ScopeGuard {
        prev: cur.replace(registry),
    }
}

/// Guard returned by [`install`]; restores the previously current
/// registry when dropped.
pub struct ScopeGuard {
    prev: Option<Arc<Registry>>,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        let mut cur = CURRENT.write().unwrap_or_else(PoisonError::into_inner);
        *cur = self.prev.take();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enabled_registry() -> Registry {
        let r = Registry::new();
        r.set_enabled(true);
        r
    }

    #[test]
    fn counters_register_once_and_share_state() {
        let r = enabled_registry();
        let a = r.counter("x.y.z", Class::Deterministic);
        let b = r.counter("x.y.z", Class::Timing); // first class wins
        a.add(2);
        b.add(3);
        assert_eq!(r.counter("x.y.z", Class::Deterministic).get(), 5);
        let report = r.report();
        let det = report.get("deterministic").and_then(|d| d.get("counters"));
        assert_eq!(
            det.and_then(|c| c.get("x.y.z")).and_then(Json::as_u64),
            Some(5)
        );
    }

    #[test]
    fn report_separates_deterministic_and_timing() {
        let r = enabled_registry();
        r.counter("det.c", Class::Deterministic).add(1);
        r.counter("tim.c", Class::Timing).add(2);
        r.histogram("det.h", Class::Deterministic, &[10]).record(4);
        r.trace().record("evt", 1);
        let report = r.report();
        let det = report.get("deterministic").expect("deterministic");
        let tim = report.get("timing").expect("timing");
        assert!(det.get("counters").and_then(|c| c.get("det.c")).is_some());
        assert!(det.get("counters").and_then(|c| c.get("tim.c")).is_none());
        assert!(tim.get("counters").and_then(|c| c.get("tim.c")).is_some());
        assert!(det.get("histograms").and_then(|h| h.get("det.h")).is_some());
        assert!(tim.get("par").is_some());
        assert_eq!(
            report.get("schema").and_then(Json::as_str),
            Some(crate::SCHEMA)
        );
    }

    #[test]
    fn histogram_report_carries_edges_buckets_count_sum() {
        let r = enabled_registry();
        let h = r.histogram("h", Class::Deterministic, &[1, 2]);
        h.record(1);
        h.record(5);
        let report = r.report();
        let hist = report
            .get("deterministic")
            .and_then(|d| d.get("histograms"))
            .and_then(|h| h.get("h"))
            .expect("histogram entry");
        assert_eq!(
            hist.get("edges"),
            Some(&Json::Arr(vec![Json::UInt(1), Json::UInt(2)]))
        );
        assert_eq!(
            hist.get("buckets"),
            Some(&Json::Arr(vec![
                Json::UInt(1),
                Json::UInt(0),
                Json::UInt(1)
            ]))
        );
        assert_eq!(hist.get("count").and_then(Json::as_u64), Some(2));
        assert_eq!(hist.get("sum").and_then(Json::as_u64), Some(6));
    }

    #[test]
    fn figure_records_are_deltas_since_the_snapshot() {
        let r = enabled_registry();
        let c = r.counter("a", Class::Deterministic);
        c.add(10);
        let snap = r.deterministic_counters();
        c.add(5);
        r.counter("b", Class::Deterministic).add(2);
        r.record_figure("fig4", &snap);
        let report = r.report();
        let figures = report.get("deterministic").and_then(|d| d.get("figures"));
        let Some(Json::Arr(figs)) = figures else {
            panic!("figures array missing");
        };
        assert_eq!(figs.len(), 1);
        let counters = figs[0].get("counters").expect("counters");
        assert_eq!(counters.get("a").and_then(Json::as_u64), Some(5));
        assert_eq!(counters.get("b").and_then(Json::as_u64), Some(2));
    }

    #[test]
    fn reset_zeroes_values_but_keeps_registrations() {
        let r = enabled_registry();
        let c = r.counter("c", Class::Deterministic);
        c.add(4);
        r.histogram("h", Class::Deterministic, &[1]).record(1);
        r.trace().record("evt", 1);
        r.record_figure("f", &[]);
        r.reset();
        assert_eq!(c.get(), 0);
        assert_eq!(r.histogram("h", Class::Deterministic, &[1]).count(), 0);
        assert!(r.trace().snapshot().is_empty());
        c.add(1);
        assert_eq!(c.get(), 1, "handle still live after reset");
    }

    #[test]
    fn install_swaps_and_restores_the_current_registry() {
        // Every test in this binary that installs a registry serializes
        // on the crate's test lock.
        let _serial = crate::tests::registry_lock();
        let outer = Arc::new(enabled_registry());
        let inner = Arc::new(enabled_registry());
        {
            let _a = install(Arc::clone(&outer));
            assert!(Arc::ptr_eq(&current(), &outer));
            {
                let _b = install(Arc::clone(&inner));
                assert!(Arc::ptr_eq(&current(), &inner));
            }
            assert!(Arc::ptr_eq(&current(), &outer), "LIFO restore");
        }
        assert!(
            !Arc::ptr_eq(&current(), &outer) && !Arc::ptr_eq(&current(), &inner),
            "global restored after the outermost guard drops"
        );
    }

    #[test]
    fn sample_point_records_deltas_and_lands_in_the_report() {
        let r = enabled_registry();
        let c = r.counter("x.y.z", Class::Deterministic);
        c.add(10);
        let p1 = r.sample_point(1, &[("g.one", 4)]).expect("enabled");
        assert_eq!(p1.value("x.y.z"), 10);
        c.add(5);
        let p2 = r.sample_point(2, &[("g.one", 6)]).expect("enabled");
        assert_eq!(p2.value("x.y.z"), 5, "second point is a delta");
        assert_eq!(p2.value("g.one"), 6);
        assert_eq!(r.series("x.y.z"), vec![(1, 10), (2, 5)]);
        let report = r.report();
        let ts = report
            .get("deterministic")
            .and_then(|d| d.get("timeseries"))
            .expect("timeseries section");
        assert_eq!(
            ts.get("schema").and_then(Json::as_str),
            Some(crate::timeseries::TIMESERIES_SCHEMA)
        );
        let Some(Json::Arr(points)) = ts.get("points") else {
            panic!("points array missing");
        };
        assert_eq!(points.len(), 2);
        assert_eq!(
            points[1]
                .get("counters")
                .and_then(|c| c.get("x.y.z"))
                .and_then(Json::as_u64),
            Some(5)
        );
    }

    #[test]
    fn sample_point_is_a_noop_when_disabled() {
        let r = Registry::new();
        r.counter("x.y.z", Class::Deterministic);
        assert!(r.sample_point(1, &[]).is_none());
        assert!(r.timeseries_points().is_empty());
    }

    #[test]
    fn report_carries_trace_and_tree_metadata() {
        let r = enabled_registry();
        r.trace().record("evt", 1);
        drop(r.tree().open("t.span"));
        let report = r.report();
        let tim = report.get("timing").expect("timing");
        let trace = tim.get("trace").expect("trace object");
        assert_eq!(trace.get("recorded").and_then(Json::as_u64), Some(1));
        assert_eq!(trace.get("dropped_events").and_then(Json::as_u64), Some(0));
        let tree = tim.get("span_tree").expect("span_tree");
        assert_eq!(tree.get("dropped").and_then(Json::as_u64), Some(0));
        let Some(Json::Arr(nodes)) = tree.get("nodes") else {
            panic!("nodes array missing");
        };
        assert_eq!(nodes.len(), 1);
        assert_eq!(nodes[0].get("name").and_then(Json::as_str), Some("t.span"));
    }

    #[test]
    fn disabled_registry_report_is_empty_but_well_formed() {
        let r = Registry::new();
        r.counter("c", Class::Deterministic).add(9);
        let report = r.report();
        let counters = report
            .get("deterministic")
            .and_then(|d| d.get("counters"))
            .expect("counters");
        assert_eq!(counters.get("c").and_then(Json::as_u64), Some(0));
    }
}
