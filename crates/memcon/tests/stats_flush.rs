//! The run-end telemetry flush emits the engine's one stats view: every
//! `memcon.*` and `fault.*` counter (and the two merged histograms) of a
//! faulted run equals its field of `MemconEngine::stats`. The
//! `memcon.refresh.*` counters read the refresh bins, not the view.
//!
//! One test per binary: the registry slot is process-global, so an engine
//! run on another thread outside `telemetry::collect` would count into
//! this test's registry.

use std::sync::Arc;

use faultinject::{FaultPlan, Site};
use memcon::config::MemconConfig;
use memcon::engine::{MemconEngine, BACKOFF_EDGES, CANDIDATE_EDGES};
use memtrace::workload::WorkloadProfile;
use telemetry::Class;

#[test]
fn run_end_flush_emits_the_stats_view() {
    // An 8 ms quantum puts eight boundaries inside every 64 ms test
    // window, so the preemption site draws while tests are in flight and
    // aborts, retries and backoff-ceiling hits all occur.
    let trace = WorkloadProfile::netflix().scaled(0.02).generate(7);
    let config = MemconConfig::paper_default().with_quantum_ms(8.0);
    let mut engine = MemconEngine::new(config, trace);
    engine.set_fault_plan(Some(Arc::new(FaultPlan::uniform(0x5EED, 0.05))));
    let (_, registry) = telemetry::collect(|| engine.run());

    let stats = engine.stats();
    let (c, p, t) = (stats.counters, stats.pril, stats.tests);
    assert!(t.aborted > 0, "no test was aborted");
    assert!(c.retries > 0, "no test was retried");
    assert!(c.backoff_ceiling_hits > 0, "no backoff reached the cap");
    assert!(
        stats.faults_injected.iter().sum::<u64>() > 0,
        "no fault was injected"
    );
    let mut want: Vec<(String, u64)> = [
        ("memcon.pril.writes", p.writes),
        ("memcon.pril.inserted", p.inserted),
        ("memcon.pril.evicted_repeat", p.evicted_repeat),
        ("memcon.pril.evicted_previous", p.evicted_previous),
        ("memcon.pril.overflowed", p.overflowed),
        ("memcon.pril.candidates", p.candidates),
        ("memcon.pril.quanta", p.quanta),
        ("memcon.tests.started", t.started),
        ("memcon.tests.completed", t.completed),
        ("memcon.tests.failed", t.failed),
        ("memcon.tests.aborted", t.aborted),
        ("memcon.tests.rejected", t.rejected),
        ("memcon.engine.tests_correct", c.tests_correct),
        ("memcon.engine.tests_mispredicted", c.tests_mispredicted),
        ("memcon.recovery.aborts", t.aborted),
        ("memcon.recovery.retries", c.retries),
        ("memcon.recovery.backoffs_scheduled", c.backoffs_scheduled),
        (
            "memcon.recovery.backoff_ceiling_hits",
            c.backoff_ceiling_hits,
        ),
        ("memcon.recovery.degraded_rows", stats.pin_events),
        ("memcon.recovery.ambiguous", t.ambiguous),
        ("memcon.recovery.ecc_corrected", t.ecc_corrected),
        ("memcon.recovery.ecc_uncorrectable", t.ecc_uncorrectable),
        (
            "memcon.recovery.uncorrectable_escapes",
            c.uncorrectable_escapes,
        ),
    ]
    .into_iter()
    .map(|(name, value)| (name.to_string(), value))
    .chain(Site::ALL.map(|site| {
        (
            format!("fault.{}", site.name()),
            stats.faults_injected[site as usize],
        )
    }))
    .collect();
    want.sort();
    let emitted: Vec<(String, u64)> = registry
        .deterministic_counters()
        .into_iter()
        .filter(|(name, _)| {
            name.starts_with("fault.")
                || (name.starts_with("memcon.") && !name.starts_with("memcon.refresh."))
        })
        .collect();
    assert_eq!(emitted, want);

    for (name, edges, buckets, count, sum) in [
        (
            "memcon.pril.quantum_candidates",
            &CANDIDATE_EDGES[..],
            &c.candidate_hist[..],
            p.quanta,
            p.candidates,
        ),
        (
            "memcon.recovery.backoff_quanta",
            &BACKOFF_EDGES[..],
            &c.backoff_hist[..],
            c.backoffs_scheduled,
            c.backoff_sum_quanta,
        ),
    ] {
        let hist = registry.histogram(name, Class::Deterministic, edges);
        assert_eq!(hist.bucket_counts(), buckets, "{name} buckets");
        assert_eq!(
            (hist.count(), hist.sum()),
            (count, sum),
            "{name} count, sum"
        );
    }
}
