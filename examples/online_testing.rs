//! Online-testing walkthrough: watch PRIL and the test engine operate on a
//! hand-built write pattern, page by page.
//!
//! Four pages with different behaviours show every path through the
//! mechanism: a busy page (never tested), an idle page (tested → LO-REF),
//! an early-rewritten page (mispredicted test), and a failing page
//! (tested → stays HI-REF).
//!
//! ```text
//! cargo run --example online_testing
//! ```

use memcon_suite::memcon::config::MemconConfig;
use memcon_suite::memcon::engine::MemconEngine;
use memcon_suite::memcon::testengine::{FailureOracle, RateOracle};
use memcon_suite::memtrace::trace::{WriteEvent, WriteTrace};

/// Page 3 always fails its content test; the others never do.
#[derive(Debug)]
struct Page3Fails(RateOracle);

impl FailureOracle for Page3Fails {
    fn page_fails(&mut self, page: u64, generation: u64) -> bool {
        let _ = self.0.page_fails(page, generation);
        page == 3
    }
}

fn main() {
    const MS: u64 = 1_000_000;
    let mut events = Vec::new();
    // Page 0: busy — written every 100 ms.
    for i in 0..100u64 {
        events.push(WriteEvent {
            time_ns: i * 100 * MS,
            page: 0,
        });
    }
    // Page 1: one write, then idle forever.
    events.push(WriteEvent {
        time_ns: 50 * MS,
        page: 1,
    });
    // Page 2: one write, tested, then rewritten 150 ms after the test.
    events.push(WriteEvent {
        time_ns: 10 * MS,
        page: 2,
    });
    events.push(WriteEvent {
        time_ns: 2250 * MS,
        page: 2,
    });
    // Page 3: one write, then idle — but its content fails the test.
    events.push(WriteEvent {
        time_ns: 20 * MS,
        page: 3,
    });

    let trace = WriteTrace::new(events, 10_240 * MS, 4);
    let config = MemconConfig::paper_default().with_cold_start();
    println!(
        "Quantum {} ms, test window {} ms, MinWriteInterval {} ms\n",
        config.quantum_ms,
        config.lo_ms,
        config.min_write_interval_ms()
    );

    let oracle = Page3Fails(RateOracle::new(0.0, 0));
    let mut engine = MemconEngine::with_oracle(config, trace, Box::new(oracle));
    let report = engine.run();
    let stats = engine.stats();

    println!("Trace: 10.24 s, 4 pages with distinct behaviours");
    println!("  page 0: written every 100 ms  -> never a PRIL candidate");
    println!("  page 1: single write at 50 ms -> tested at ~2 s, LO-REF after");
    println!("  page 2: rewritten 150 ms after its test -> misprediction");
    println!("  page 3: idle but content fails -> tested, kept at HI-REF\n");

    println!("Engine outcome:");
    println!(
        "  PRIL: {} writes seen, {} candidates",
        stats.pril.writes, stats.pril.candidates
    );
    println!(
        "  tests: {} started, {} failed, {} aborted",
        stats.tests.started, stats.tests.failed, stats.tests.aborted
    );
    println!(
        "  verdicts: {} correct, {} mispredicted",
        stats.counters.tests_correct, stats.counters.tests_mispredicted
    );
    println!(
        "  LO-REF coverage {:.1}%, refresh reduction {:.1}% (bound {:.0}%)",
        report.lo_coverage * 100.0,
        report.refresh_reduction * 100.0,
        report.upper_bound * 100.0
    );

    assert_eq!(stats.tests.failed, 1, "page 3 must fail its test");
    assert!(
        stats.counters.tests_mispredicted >= 1,
        "page 2 must mispredict"
    );
}
