//! Property tests of the MEMCON engine: for arbitrary write traces and
//! configurations, the report stays internally consistent and the refresh
//! states respect the mechanism's invariants.
//!
//! Originally `proptest` strategies; rewritten as seeded-PRNG loops so the
//! workspace builds hermetically offline. Each test draws its own trace and
//! configuration stream from a fixed seed and runs a few dozen cases.

use memcon::config::MemconConfig;
use memcon::cost::TestMode;
use memcon::engine::MemconEngine;
use memcon::refreshmgr::PageState;
use memcon::testengine::RateOracle;
use memtrace::trace::{WriteEvent, WriteTrace};
use memutil::rng::{Rng, SeedableRng, SmallRng};

const MS: u64 = 1_000_000;

fn random_trace(rng: &mut SmallRng) -> WriteTrace {
    let n_pages = 24u64;
    let duration_ms = 9000u64;
    let n = rng.gen_range(0usize..300);
    let events = (0..n)
        .map(|_| WriteEvent {
            time_ns: rng.gen_range(0..duration_ms) * MS,
            page: rng.gen_range(0..n_pages),
        })
        .collect();
    WriteTrace::new(events, duration_ms * MS, n_pages)
}

fn random_config(rng: &mut SmallRng) -> MemconConfig {
    let quantum = [512.0, 1024.0, 2048.0][rng.gen_range(0usize..3)];
    let mode = if rng.gen_bool(0.5) {
        TestMode::ReadAndCompare
    } else {
        TestMode::CopyAndCompare
    };
    let mut c = MemconConfig::paper_default()
        .with_quantum_ms(quantum)
        .with_test_mode(mode);
    c.concurrent_tests = rng.gen_range(1u32..64);
    c.write_buffer_capacity = rng.gen_range(1usize..64);
    c.steady_state_start = rng.gen_bool(0.5);
    c
}

#[test]
fn report_is_internally_consistent() {
    let mut rng = SmallRng::seed_from_u64(0xE1_0001);
    for _ in 0..48 {
        let trace = random_trace(&mut rng);
        let config = random_config(&mut rng);
        let fail_rate = rng.gen_range(0.0f64..0.5);
        let mut engine = MemconEngine::with_oracle(
            config,
            trace.clone(),
            Box::new(RateOracle::new(fail_rate, 99)),
        );
        let r = engine.run();
        assert!(
            (0.0..=r.upper_bound + 1e-9).contains(&r.refresh_reduction),
            "reduction {} out of [0, {}]",
            r.refresh_reduction,
            r.upper_bound
        );
        assert!((0.0..=1.0).contains(&r.lo_coverage));
        assert!((0.0..=1.0).contains(&r.testing_fraction));
        assert!(r.lo_coverage + r.testing_fraction <= 1.0 + 1e-9);
        assert!(r.refresh_ops <= r.baseline_ops + 1e-9);
        // Reduction follows the time integrals exactly.
        let implied = 1.0 - r.refresh_ops / r.baseline_ops;
        assert!((implied - r.refresh_reduction).abs() < 1e-9);
        // Classified tests never exceed finished engagements.
        let stats = engine.stats();
        let t = stats.tests;
        assert_eq!(
            stats.counters.tests_correct + stats.counters.tests_mispredicted,
            t.completed + t.aborted
        );
        assert!(t.failed <= t.completed);
        assert_eq!(engine.final_states().len() as u64, trace.n_pages());
    }
}

#[test]
fn pages_written_in_final_quantum_are_not_lo() {
    let mut rng = SmallRng::seed_from_u64(0xE1_0002);
    for _ in 0..48 {
        let trace = random_trace(&mut rng);
        let config = random_config(&mut rng);
        let quantum_ns = (config.quantum_ms * 1e6) as u64;
        let mut engine =
            MemconEngine::with_oracle(config, trace.clone(), Box::new(RateOracle::new(0.0, 7)));
        let _ = engine.run();
        // Any page whose last write falls within the final quantum cannot
        // have been re-tested (candidacy requires a full idle quantum after
        // the write quantum), so it must not sit at LO-REF — unless it was
        // never tested at all... which also forbids LO-REF. Either way:
        for e in trace.iter() {
            if e.time_ns + quantum_ns > trace.duration_ns() {
                assert_ne!(
                    engine.final_states()[e.page as usize],
                    PageState::LoRef,
                    "page {} written at {} ns is at LO-REF",
                    e.page,
                    e.time_ns
                );
            }
        }
    }
}

#[test]
fn all_failing_oracle_forbids_lo_everywhere() {
    let mut rng = SmallRng::seed_from_u64(0xE1_0003);
    for _ in 0..48 {
        let trace = random_trace(&mut rng);
        let config = random_config(&mut rng);
        let mut engine =
            MemconEngine::with_oracle(config, trace, Box::new(RateOracle::new(1.0, 3)));
        let r = engine.run();
        assert_eq!(r.lo_coverage, 0.0);
        for (p, &s) in engine.final_states().iter().enumerate() {
            assert_ne!(s, PageState::LoRef, "page {p} at LO-REF");
        }
    }
}
