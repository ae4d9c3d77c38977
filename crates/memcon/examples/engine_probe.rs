//! Calibration probe: MEMCON refresh reduction and LO-REF coverage per
//! Table-1 workload (targets: Fig. 14 reduction 64.7–74.5 %, Fig. 17
//! coverage ≈ 95 %).

use memcon::config::MemconConfig;
use memcon::engine::MemconEngine;
use memtrace::workload::WorkloadProfile;

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.25);
    for quantum in [1024.0] {
        println!("-- quantum {quantum} ms, scale {scale}");
        let mut reds = Vec::new();
        for w in WorkloadProfile::all() {
            let trace = w.clone().scaled(scale).generate(17);
            let cfg = MemconConfig::paper_default().with_quantum_ms(quantum);
            let mut engine = MemconEngine::new(cfg, trace);
            let r = engine.run();
            let stats = engine.stats();
            println!(
                "{:<12} red {:>5.1}%  cov {:>5.1}%  tests {:>5} ok {:>5} mis {:>4} norm_t {:>6.4}",
                w.name,
                r.refresh_reduction * 100.0,
                r.lo_coverage * 100.0,
                stats.tests.started,
                stats.counters.tests_correct,
                stats.counters.tests_mispredicted,
                r.normalized_refresh_and_test_time(),
            );
            reds.push(r.refresh_reduction);
        }
        let avg = reds.iter().sum::<f64>() / reds.len() as f64;
        let min = reds.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = reds.iter().cloned().fold(0.0f64, f64::max);
        println!(
            "avg {:.1}%  min {:.1}%  max {:.1}%",
            avg * 100.0,
            min * 100.0,
            max * 100.0
        );
    }
}
