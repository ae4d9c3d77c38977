//! Quickstart: run MEMCON end-to-end on one workload and print its report.
//!
//! ```text
//! cargo run --release --example quickstart [workload] [scale]
//! ```
//!
//! `workload` is a Table-1 name (default `Netflix`); `scale` shrinks the
//! simulated footprint (default 0.25).

use memcon_suite::memcon::config::MemconConfig;
use memcon_suite::memcon::cost::TestMode;
use memcon_suite::memcon::engine::MemconEngine;
use memcon_suite::memtrace::workload::WorkloadProfile;

fn main() {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_else(|| "Netflix".into());
    let scale: f64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(0.25);

    let Some(workload) = WorkloadProfile::by_name(&name) else {
        eprintln!(
            "unknown workload '{name}'; known: {}",
            WorkloadProfile::all()
                .iter()
                .map(|w| w.name.clone())
                .collect::<Vec<_>>()
                .join(", ")
        );
        std::process::exit(2);
    };

    println!(
        "Tracing {} ({}, {} GB footprint) for {} simulated seconds…",
        workload.name, workload.kind, workload.mem_gb, workload.sim_seconds
    );
    let trace = workload.scaled(scale).generate(0xC0FFEE);
    println!(
        "  {} write events over {} pages",
        trace.len(),
        trace.n_pages()
    );

    let config = MemconConfig::paper_default();
    println!(
        "MEMCON config: quantum {} ms, HI/LO {}/{} ms, {} mode,",
        config.quantum_ms, config.hi_ms, config.lo_ms, config.test_mode
    );
    println!(
        "  MinWriteInterval = {} ms (Copy-and-Compare would be {} ms)",
        config.min_write_interval_ms(),
        config
            .with_test_mode(TestMode::CopyAndCompare)
            .min_write_interval_ms()
    );

    let mut engine = MemconEngine::new(config, trace);
    let report = engine.run();
    let stats = engine.stats();

    println!("\nResults:");
    println!(
        "  refresh reduction : {:.1}% (upper bound {:.0}%)",
        report.refresh_reduction * 100.0,
        report.upper_bound * 100.0
    );
    println!(
        "  LO-REF coverage   : {:.1}% of page-time",
        report.lo_coverage * 100.0
    );
    println!(
        "  tests             : {} started, {} correct, {} mispredicted",
        stats.tests.started, stats.counters.tests_correct, stats.counters.tests_mispredicted
    );
    println!(
        "  refresh+test time : {:.1}% of the 16 ms baseline's refresh time",
        report.normalized_refresh_and_test_time() * 100.0
    );
}
