//! Deterministic telemetry: counters, histograms, causal span trees, and
//! a bounded event trace, exported as structured JSON.
//!
//! The subsystem exists to answer "why was this sweep slow / this
//! prediction wrong" without perturbing the reproduction's core contract:
//! **figure outputs are bit-identical at any `--jobs` setting**. Every
//! metric therefore carries a [`Class`]:
//!
//! * [`Class::Deterministic`] — values derived purely from simulation
//!   state (commands issued, PRIL outcomes, tests started, rows evaluated).
//!   Counter addition commutes, and histograms bucket values that are
//!   themselves deterministic, so these sections of a report are
//!   byte-identical across worker counts and are byte-diffed by the
//!   `xtask` determinism gate.
//! * [`Class::Timing`] — wall-clock span durations, pool scheduling
//!   counters ([`memutil::par::pool_stats`]), and the event trace. These
//!   legitimately vary run to run and live in a separate `timing` report
//!   section that the gate ignores.
//!
//! # Registry model
//!
//! Metrics live in a [`Registry`]. A lazily created process [`global`]
//! registry backs the default path; [`install`] swaps in a scoped registry
//! (restored when the returned guard drops) so tests and the experiments
//! CLI can collect into a private registry without touching global state
//! left behind by other code. Instrumentation sites use either the free
//! helpers ([`count`], [`observe`], [`observe_merged`], [`observe_timing`],
//! [`tree_span`], [`annotate`], [`trace_event`], [`sample_point`]) or bind
//! `Arc` metric handles once and update them directly on hot-ish paths.
//! Work is timed in one of two ways: [`tree_span`] opens a causal span,
//! or [`time_ns`] times a closure whose duration the caller files with
//! [`observe_timing`].
//!
//! # Cost when disabled
//!
//! Telemetry is **off by default**. Every entry point checks an atomic
//! flag first, instrumented crates hoist the check out of their kernels,
//! and no allocation or locking happens on the disabled path — the
//! `xtask obs overhead` gate holds the instrumented
//! `evaluate_module_1bank` kernel to <2% overhead.
//!
//! # Live observability plane
//!
//! Run-end reports answer questions after the fact; the live plane
//! answers them *during* a soak. The registry carries an epoch-aligned
//! time-series ring ([`Registry::sample_point`] — deterministic-counter
//! deltas plus gauges, sampled only at barriers so the series itself is
//! [`Class::Deterministic`] data), a causal span tree
//! ([`tree_span`]/[`annotate`] — parent/child wall-clock spans,
//! [`Class::Timing`]), a declarative SLO monitor with a flight recorder
//! ([`health`]), and a read-only TCP scrape endpoint ([`ScrapeServer`])
//! speaking a minimal line protocol (`METRICS`, `HEALTH`,
//! `SERIES <name>`), viewed with `xtask top`.
//!
//! # Naming
//!
//! Metric names follow `crate.component.metric`, e.g.
//! `memsim.ctrl.trrd_stalls` or `memcon.pril.candidates`. Tree span
//! names use two segments (`fleet.epoch`, `memcon.run`).

#![warn(missing_docs)]

pub mod health;
mod metrics;
mod registry;
mod scrape;
mod timeseries;
mod trace;
mod trees;

pub use health::{flight_record, HealthMonitor, FLIGHTREC_SCHEMA};
pub use metrics::{Counter, Histogram};
pub use registry::{current, global, install, Registry, ScopeGuard};
pub use scrape::{respond, ScrapeServer};
pub use timeseries::{SamplePoint, TIMESERIES_SCHEMA};
pub use trace::{Event, EventTrace};
pub use trees::{SpanNode, SpanTree, TreeGuard};

/// Determinism class of a metric — decides which report section it lands
/// in and whether the determinism gate byte-diffs it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Derived purely from simulation state: bit-identical across
    /// `--jobs` settings, byte-diffed by the determinism gate.
    Deterministic,
    /// Wall-clock or scheduling dependent: excluded from the gate.
    Timing,
}

/// Report schema identifier emitted by [`Registry::report`].
pub const SCHEMA: &str = "memcon-telemetry/v1";

/// Whether the current registry is collecting. Instrumented code hoists
/// this check outside its hot loops; everything below it may assume an
/// enabled registry.
#[must_use]
pub fn enabled() -> bool {
    registry::current().is_enabled()
}

/// Adds `n` to the named [`Class::Deterministic`] counter on the current
/// registry. Registers the counter even when `n == 0`, so report shape
/// does not depend on which code paths happened to fire. No-op when
/// telemetry is disabled.
pub fn count(name: &str, n: u64) {
    let r = registry::current();
    if r.is_enabled() {
        r.counter(name, Class::Deterministic).add(n);
    }
}

/// Records `value` in the named [`Class::Deterministic`] histogram on the
/// current registry, creating it with `edges` (ascending inclusive upper
/// bounds) on first use. No-op when telemetry is disabled.
pub fn observe(name: &str, edges: &[u64], value: u64) {
    let r = registry::current();
    if r.is_enabled() {
        r.histogram(name, Class::Deterministic, edges).record(value);
    }
}

/// Folds pre-aggregated bucket counts into the named
/// [`Class::Deterministic`] histogram, creating it with `edges` on first
/// use (see [`Histogram::merge_counts`]). Lets long-running engines
/// accumulate distribution state in plain fields — cheap, and trivially
/// persistable by the durable store — and flush it once at run end with a
/// result identical to per-sample [`observe`] calls. No-op when telemetry
/// is disabled.
pub fn observe_merged(name: &str, edges: &[u64], buckets: &[u64], count: u64, sum: u64) {
    let r = registry::current();
    if r.is_enabled() {
        r.histogram(name, Class::Deterministic, edges)
            .merge_counts(buckets, count, sum);
    }
}

/// Records `value` in the named [`Class::Timing`] histogram on the
/// current registry, creating it with `edges` on first use. Timing
/// histograms live in the report's `timing` section, which the
/// determinism gate ignores — use for wall-clock-derived distributions
/// (e.g. per-shard step latencies). No-op when telemetry is disabled.
pub fn observe_timing(name: &str, edges: &[u64], value: u64) {
    let r = registry::current();
    if r.is_enabled() {
        r.histogram(name, Class::Timing, edges).record(value);
    }
}

/// Runs `f` and returns its result together with the elapsed wall-clock
/// time in nanoseconds. This is the sanctioned wall-clock read for other
/// crates: the workspace lint forbids `Instant::now` outside
/// `crates/telemetry`, so latency measurement routes through here (and the
/// caller must file the duration as [`Class::Timing`] data only).
pub fn time_ns<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let start = std::time::Instant::now();
    let result = f();
    (result, start.elapsed().as_nanos() as u64)
}

/// Appends an event to the current registry's bounded trace ring
/// ([`Class::Timing`] data). No-op when telemetry is disabled.
pub fn trace_event(label: &str, value: u64) {
    let r = registry::current();
    if r.is_enabled() {
        r.trace().record(label, value);
    }
}

/// Opens a causal span in the current registry's span tree, nested under
/// this thread's innermost open tree span ([`Class::Timing`] data). The
/// node closes when the returned guard drops. Inert when disabled.
#[must_use]
pub fn tree_span(name: &str) -> TreeGuard {
    let r = registry::current();
    if r.is_enabled() {
        r.tree().open(name)
    } else {
        TreeGuard::disabled()
    }
}

/// Attaches `(key, value)` to this thread's innermost open tree span —
/// how fault activations and other context annotate the covering span
/// without plumbing. No-op when disabled or no span is open here.
pub fn annotate(key: &str, value: u64) {
    let r = registry::current();
    if r.is_enabled() {
        r.tree().annotate(key, value);
    }
}

/// Takes an epoch/quantum-aligned time-series sample on the current
/// registry (see [`Registry::sample_point`]): deterministic-counter
/// deltas since the previous sample plus caller-supplied gauges. Must be
/// called from a deterministic synchronization point only. Returns `None`
/// when telemetry is disabled.
pub fn sample_point(tick: u64, gauges: &[(&str, u64)]) -> Option<SamplePoint> {
    registry::current().sample_point(tick, gauges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

    /// [`install`] swaps the process-global current registry, and a test
    /// that installs one asserts on what it records, so every test in this
    /// crate that installs a registry serializes on this lock.
    pub(crate) fn registry_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn free_helpers_are_noops_when_disabled() {
        let _serial = registry_lock();
        let r = Arc::new(Registry::new());
        let _scope = install(Arc::clone(&r));
        assert!(!enabled());
        count("t.free.counter", 5);
        observe("t.free.hist", &[1, 2], 1);
        trace_event("t.free.event", 1);
        let report = r.report();
        let det = report.get("deterministic").expect("section");
        assert_eq!(det.get("counters"), Some(&memutil::json::Json::obj()));
    }

    #[test]
    fn free_helpers_record_on_the_installed_registry() {
        let _serial = registry_lock();
        let r = Arc::new(Registry::new());
        r.set_enabled(true);
        let _scope = install(Arc::clone(&r));
        assert!(enabled());
        count("t.free.counter", 2);
        count("t.free.counter", 3);
        count("t.free.zero", 0);
        observe("t.free.hist", &[10, 20], 15);
        trace_event("t.free.event", 9);
        assert_eq!(r.counter("t.free.counter", Class::Deterministic).get(), 5);
        // Zero-value counters still register (stable report shape).
        assert_eq!(r.counter("t.free.zero", Class::Deterministic).get(), 0);
        assert_eq!(
            r.histogram("t.free.hist", Class::Deterministic, &[10, 20])
                .count(),
            1
        );
        assert_eq!(r.trace().snapshot().len(), 1);
    }
}
