//! Ablation benches for the design choices DESIGN.md calls out: PRIL
//! write-buffer capacity, quantum length, test mode, LO-REF interval, and
//! the concurrent-test budget. Each sweep reports the quality metric in
//! stderr once and benches the run time per point.

use std::sync::Arc;

use memutil::bench::{criterion_group, criterion_main, BenchmarkId, Criterion};

use memcon::config::MemconConfig;
use memcon::cost::TestMode;
use memcon::engine::MemconEngine;
use memtrace::trace::WriteTrace;
use memtrace::workload::WorkloadProfile;

fn trace() -> Arc<WriteTrace> {
    Arc::new(WorkloadProfile::netflix().scaled(0.1).generate(0xAB1A))
}

fn run(config: MemconConfig, trace: &Arc<WriteTrace>) -> f64 {
    MemconEngine::new(config, Arc::clone(trace))
        .run()
        .refresh_reduction
}

fn ablate_buffer_capacity(c: &mut Criterion) {
    let t = trace();
    let mut g = c.benchmark_group("ablation/write_buffer_capacity");
    g.sample_size(10);
    for capacity in [16usize, 256, 4096] {
        let mut config = MemconConfig::paper_default();
        config.write_buffer_capacity = capacity;
        eprintln!(
            "[ablation] buffer capacity {capacity}: reduction {:.3}",
            run(config, &t)
        );
        g.bench_with_input(BenchmarkId::from_parameter(capacity), &capacity, |b, _| {
            b.iter(|| std::hint::black_box(run(config, &t)))
        });
    }
    g.finish();
}

fn ablate_quantum(c: &mut Criterion) {
    let t = trace();
    let mut g = c.benchmark_group("ablation/quantum_ms");
    g.sample_size(10);
    for quantum in [512.0, 1024.0, 2048.0] {
        let config = MemconConfig::paper_default().with_quantum_ms(quantum);
        eprintln!(
            "[ablation] quantum {quantum} ms: reduction {:.3}",
            run(config, &t)
        );
        g.bench_with_input(
            BenchmarkId::from_parameter(quantum as u64),
            &quantum,
            |b, _| b.iter(|| std::hint::black_box(run(config, &t))),
        );
    }
    g.finish();
}

fn ablate_test_mode(c: &mut Criterion) {
    let t = trace();
    let mut g = c.benchmark_group("ablation/test_mode");
    g.sample_size(10);
    for mode in TestMode::ALL {
        let config = MemconConfig::paper_default().with_test_mode(mode);
        eprintln!(
            "[ablation] {mode}: MinWriteInterval {} ms, reduction {:.3}",
            config.min_write_interval_ms(),
            run(config, &t)
        );
        g.bench_with_input(BenchmarkId::from_parameter(mode.label()), &mode, |b, _| {
            b.iter(|| std::hint::black_box(run(config, &t)))
        });
    }
    g.finish();
}

fn ablate_lo_interval(c: &mut Criterion) {
    let t = trace();
    let mut g = c.benchmark_group("ablation/lo_interval_ms");
    g.sample_size(10);
    for lo in [64.0, 128.0, 256.0] {
        let mut config = MemconConfig::paper_default();
        config.lo_ms = lo;
        eprintln!(
            "[ablation] LO-REF {lo} ms: bound {:.3}, reduction {:.3}",
            config.cost_model().upper_bound_reduction(),
            run(config, &t)
        );
        g.bench_with_input(BenchmarkId::from_parameter(lo as u64), &lo, |b, _| {
            b.iter(|| std::hint::black_box(run(config, &t)))
        });
    }
    g.finish();
}

fn ablate_concurrent_tests(c: &mut Criterion) {
    let t = trace();
    let mut g = c.benchmark_group("ablation/concurrent_tests");
    g.sample_size(10);
    for slots in [8u32, 64, 1024] {
        let mut config = MemconConfig::paper_default();
        config.concurrent_tests = slots;
        eprintln!(
            "[ablation] {slots} test slots: reduction {:.3}",
            run(config, &t)
        );
        g.bench_with_input(BenchmarkId::from_parameter(slots), &slots, |b, _| {
            b.iter(|| std::hint::black_box(run(config, &t)))
        });
    }
    g.finish();
}

fn ablate_tracking_policy(c: &mut Criterion) {
    use memcon::pril::{Pril, TrackingPolicy};
    let t = trace();
    let mut g = c.benchmark_group("ablation/tracking_policy");
    g.sample_size(10);
    for policy in [TrackingPolicy::SingleWrite, TrackingPolicy::AnyWrite] {
        // Replay the trace through bare PRIL with 1024 ms quanta and report
        // candidate volume (the buffer-pressure/accuracy tradeoff of the
        // paper's footnote 8).
        let replay = |policy: TrackingPolicy| {
            let mut pril = Pril::with_policy(t.n_pages(), 4096, policy);
            let quantum_ns = 1_024_000_000u64;
            let mut next_q = quantum_ns;
            let mut candidates = 0u64;
            for e in t.iter() {
                while e.time_ns >= next_q {
                    candidates += pril.end_quantum().len() as u64;
                    next_q += quantum_ns;
                }
                pril.on_write(e.page);
            }
            candidates + pril.end_quantum().len() as u64
        };
        eprintln!(
            "[ablation] {policy:?}: {} candidates over the trace",
            replay(policy)
        );
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("{policy:?}")),
            &policy,
            |b, &p| b.iter(|| std::hint::black_box(replay(p))),
        );
    }
    g.finish();
}

criterion_group!(
    ablations,
    ablate_buffer_capacity,
    ablate_quantum,
    ablate_test_mode,
    ablate_lo_interval,
    ablate_concurrent_tests,
    ablate_tracking_policy
);
criterion_main!(ablations);
