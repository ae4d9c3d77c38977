//! The reliability guarantee (paper Section 3): with MEMCON in control,
//! **no page sits at LO-REF whose current content would fail at the LO-REF
//! interval** — every LO-REF page passed a content test after its last
//! write, and every failing or changed page is back at HI-REF.

use std::collections::HashMap;

use memcon_suite::memcon::config::MemconConfig;
use memcon_suite::memcon::engine::MemconEngine;
use memcon_suite::memcon::refreshmgr::PageState;
use memcon_suite::memcon::testengine::FailureOracle;
use memcon_suite::memtrace::trace::{WriteEvent, WriteTrace};
use memcon_suite::memtrace::workload::WorkloadProfile;

/// A deterministic oracle that remembers every verdict it gave, so the test
/// can audit the engine's final states against them.
#[derive(Debug, Default)]
struct AuditedOracle {
    /// (page, generation) -> verdict given.
    verdicts: HashMap<(u64, u64), bool>,
}

impl AuditedOracle {
    fn verdict_for(page: u64, generation: u64) -> bool {
        // Deterministic pseudo-random failure pattern, ~3% failing.
        let mut z = page
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(generation);
        z ^= z >> 31;
        z.is_multiple_of(33)
    }
}

impl FailureOracle for AuditedOracle {
    fn page_fails(&mut self, page: u64, generation: u64) -> bool {
        let fails = Self::verdict_for(page, generation);
        self.verdicts.insert((page, generation), fails);
        fails
    }
}

#[test]
fn no_lo_ref_page_holds_failing_content() {
    let trace = WorkloadProfile::netflix().scaled(0.2).generate(77);
    let config = MemconConfig::paper_default();
    let mut engine =
        MemconEngine::with_oracle(config, trace.clone(), Box::new(AuditedOracle::default()));
    let _ = engine.run();

    // Reconstruct each page's final generation from the trace.
    let mut generations: HashMap<u64, u64> = HashMap::new();
    for e in trace.iter() {
        *generations.entry(e.page).or_insert(0) += 1;
    }

    for (page, &state) in engine.final_states().iter().enumerate() {
        let page = page as u64;
        let generation = generations.get(&page).copied().unwrap_or(0);
        if state == PageState::LoRef {
            // The engine must have tested exactly this content and the
            // verdict must have been "clean".
            assert!(
                !AuditedOracle::verdict_for(page, generation),
                "page {page} at LO-REF with content (gen {generation}) that fails"
            );
        }
    }
}

#[test]
fn failing_pages_never_reach_lo_ref() {
    // An oracle where a fixed set of pages always fails.
    #[derive(Debug)]
    struct FixedBad;
    impl FailureOracle for FixedBad {
        fn page_fails(&mut self, page: u64, _generation: u64) -> bool {
            page.is_multiple_of(10)
        }
    }
    let trace = WriteTrace::new(
        (0..50u64)
            .map(|p| WriteEvent {
                time_ns: 1_000_000,
                page: p,
            })
            .collect(),
        20_480_000_000,
        50,
    );
    let mut engine =
        MemconEngine::with_oracle(MemconConfig::paper_default(), trace, Box::new(FixedBad));
    let report = engine.run();
    for (page, &state) in engine.final_states().iter().enumerate() {
        if page % 10 == 0 {
            assert_eq!(
                state,
                PageState::HiRef,
                "failing page {page} escaped HI-REF"
            );
        } else {
            assert_eq!(state, PageState::LoRef, "clean page {page} not at LO-REF");
        }
    }
    // 45 of 50 pages can run at LO-REF.
    assert!(report.lo_coverage > 0.7);
}

#[test]
fn a_write_always_revokes_lo_ref_immediately() {
    // Pages written at the very end of the trace must not be at LO-REF,
    // regardless of their earlier test results.
    let mut events: Vec<WriteEvent> = (0..20u64)
        .map(|p| WriteEvent {
            time_ns: 0,
            page: p,
        })
        .collect();
    let end = 10_240_000_000u64;
    for p in 0..10u64 {
        events.push(WriteEvent {
            time_ns: end - 1,
            page: p,
        });
    }
    let trace = WriteTrace::new(events, end, 20);
    let mut engine = MemconEngine::new(MemconConfig::paper_default(), trace);
    let _ = engine.run();
    for p in 0..10usize {
        assert_ne!(
            engine.final_states()[p],
            PageState::LoRef,
            "page {p} kept LO-REF across an untested write"
        );
    }
}
