//! Micro-benchmarks of the core data structures: PRIL write handling, the
//! chip tester, the cost model, Pareto sampling, the FR-FCFS controller,
//! and the ECC codes.
//!
//! Lives in the library (rather than only under `benches/`) so that both
//! the `cargo bench` harness (`benches/micro.rs`) and the
//! `cargo run -p xtask -- bench baseline` subcommand run the identical
//! suite; the latter writes the medians to `BENCH_baseline.json`.

use memutil::bench::{BatchSize, Criterion, Throughput};
use memutil::rng::SmallRng;
use memutil::rng::{Rng, SeedableRng};

use dram::bank::Bank;
use dram::cell::RowContent;
use dram::command::DramCommand;
use dram::geometry::{ChipDensity, DramGeometry};
use dram::module::DramModule;
use dram::timing::TimingParams;
use failure_model::model::CouplingFailureModel;
use failure_model::params::FailureModelParams;
use failure_model::patterns::TestPattern;
use failure_model::tester::ChipTester;
use memcon::cost::{CostModel, TestMode};
use memcon::ecc::{Crc64, Hamming72};
use memcon::pril::Pril;
use memtrace::interval::WriteIntervalModel;
use memtrace::workload::WorkloadProfile;

/// Registers the whole micro suite on `c` (the entry point shared by the
/// bench harness and `xtask bench baseline`).
pub fn register(c: &mut Criterion) {
    bench_pril(c);
    bench_tester(c);
    bench_failure_model(c);
    bench_cost_model(c);
    bench_pareto(c);
    bench_trace_generation(c);
    bench_bank_fsm(c);
    bench_ecc(c);
    bench_telemetry(c);
    bench_fleet(c);
}

fn bench_fleet(c: &mut Criterion) {
    use fleet::{Fleet, FleetConfig, FleetPlan};

    let mut g = c.benchmark_group("fleet");
    g.sample_size(10);
    // Trace synthesis is the expensive part of expansion and is not what
    // this family measures, so the plan is built once and shared; each
    // iteration instantiates fresh engines (setup, untimed) and is timed
    // advancing all 64 shards one scheduler epoch.
    let plan = FleetPlan::expand(&FleetConfig::small(64, 0xBE7C4), 0);
    g.throughput(Throughput::Elements(64));
    g.bench_function("step_64dimms", |b| {
        b.iter_batched(
            || Fleet::new(&plan),
            |mut fleet| {
                fleet.run_epoch(1);
                std::hint::black_box(fleet.epoch())
            },
            BatchSize::LargeInput,
        )
    });
    // The same epoch fanned out at --jobs 4: byte-identical results; on a
    // multi-core host this is the scaling headline the `xtask fleet bench`
    // gate enforces, on a single core it measures the fan-out overhead.
    g.bench_function("step_64dimms_jobs4", |b| {
        b.iter_batched(
            || Fleet::new(&plan),
            |mut fleet| {
                fleet.run_epoch(4);
                std::hint::black_box(fleet.epoch())
            },
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

/// The module the `failure_model/evaluate_module_1bank` benchmark sweeps:
/// one bank of 512 paper-sized (8 KB) rows with seeded random content, the
/// shape of every ChipTester sweep and Fig. 3/4 data point. The telemetry
/// and fault-injection overhead gates (`xtask obs overhead`, `xtask chaos
/// overhead`) time the same kernel on it.
#[must_use]
pub fn failure_model_module() -> DramModule {
    let geometry = DramGeometry {
        ranks: 1,
        chips_per_rank: 1,
        banks: 1,
        rows_per_bank: 512,
        row_bytes: 8192,
        block_bytes: 64,
        density: ChipDensity::Gb8,
    };
    let mut module = DramModule::new(geometry, TimingParams::ddr3_1600(), 0xFA11);
    let words = geometry.words_per_row();
    let mut rng = SmallRng::seed_from_u64(9);
    module.fill_with(|_| RowContent::from_words((0..words).map(|_| rng.gen()).collect()));
    module
}

fn bench_failure_model(c: &mut Criterion) {
    let mut g = c.benchmark_group("failure_model");
    // The kernel caches nothing derived from content, so once the chip's
    // cell cache is warm a repeated sweep costs what a sweep of fresh
    // content does.
    let module = failure_model_module();
    let geometry = *module.geometry();
    let model = CouplingFailureModel::default();

    g.throughput(Throughput::Elements(u64::from(geometry.rows_per_bank)));
    g.bench_function("evaluate_module_1bank", |b| {
        b.iter(|| std::hint::black_box(model.evaluate_module_with_jobs(&module, 328.0, 1).len()))
    });

    // The single internal row carrying the most vulnerable cells: the
    // worst-case per-row evaluation a ContentOracle verdict pays.
    let bits = geometry.bits_per_row();
    let row = (0..geometry.rows_per_bank)
        .max_by_key(|&r| {
            model
                .vulnerable_cells(module.chip_seed(), 0, 0, r, bits)
                .len()
        })
        .unwrap_or(0);
    g.throughput(Throughput::Elements(1));
    g.bench_function("evaluate_row_hot", |b| {
        b.iter(|| std::hint::black_box(model.evaluate_row(&module, 0, 0, row, 328.0).len()))
    });
    g.finish();
}

fn bench_pril(c: &mut Criterion) {
    let mut g = c.benchmark_group("pril");
    let writes: Vec<u64> = {
        let mut rng = SmallRng::seed_from_u64(1);
        (0..10_000).map(|_| rng.gen_range(0..65_536)).collect()
    };
    g.throughput(Throughput::Elements(writes.len() as u64));
    g.bench_function("on_write_10k", |b| {
        b.iter_batched(
            || Pril::new(65_536, 4096),
            |mut pril| {
                for &w in &writes {
                    pril.on_write(w);
                }
                std::hint::black_box(pril.end_quantum())
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_tester(c: &mut Criterion) {
    let mut g = c.benchmark_group("chip_tester");
    g.sample_size(10);
    g.bench_function("fill_idle_readback", |b| {
        let module = DramModule::new(DramGeometry::tiny(), TimingParams::ddr3_1600(), 7);
        let mut tester = ChipTester::new(module, FailureModelParams::calibrated());
        b.iter(|| {
            tester.fill_pattern(&TestPattern::Random(3));
            let _ = tester.idle_ms(328.0);
            std::hint::black_box(tester.read_back().flipped_bits())
        })
    });
    g.finish();
}

fn bench_cost_model(c: &mut Criterion) {
    c.bench_function("cost_model/min_write_interval", |b| {
        let m = CostModel::paper_default();
        b.iter(|| std::hint::black_box(m.min_write_interval_ms(TestMode::CopyAndCompare)))
    });
}

fn bench_pareto(c: &mut Criterion) {
    let mut g = c.benchmark_group("pareto");
    let model = WriteIntervalModel::typical();
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("sample_10k", |b| {
        let mut rng = SmallRng::seed_from_u64(3);
        b.iter(|| {
            let mut acc = 0.0;
            for _ in 0..10_000 {
                acc += model.sample_ms(&mut rng);
            }
            std::hint::black_box(acc)
        })
    });
    g.finish();
}

fn bench_trace_generation(c: &mut Criterion) {
    let mut g = c.benchmark_group("trace_generation");
    g.sample_size(20);
    g.bench_function("netflix_scaled", |b| {
        let w = WorkloadProfile::netflix().scaled(0.05);
        b.iter(|| std::hint::black_box(w.generate(11).len()))
    });
    // The same trace through the fanned-out path at --jobs 4 (byte-identical
    // output; on a single-core host this measures the fan-out overhead).
    g.bench_function("netflix_scaled_jobs4", |b| {
        let w = WorkloadProfile::netflix().scaled(0.05);
        b.iter(|| std::hint::black_box(w.generate_with_jobs(11, 4).len()))
    });
    g.finish();
}

fn bench_bank_fsm(c: &mut Criterion) {
    let timing = TimingParams::ddr3_1600();
    c.bench_function("bank_fsm/act_rd_pre_cycle", |b| {
        b.iter_batched(
            Bank::new,
            |mut bank| {
                let mut now = 0;
                for row in 0..64u32 {
                    now = bank
                        .issue(DramCommand::Activate, row, now, &timing)
                        .unwrap();
                    now = bank.issue(DramCommand::Read, row, now, &timing).unwrap();
                    let tras = bank.ready_cycle(DramCommand::Precharge).max(now);
                    now = bank
                        .issue(DramCommand::Precharge, row, tras, &timing)
                        .unwrap();
                }
                std::hint::black_box(bank.acts)
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_telemetry(c: &mut Criterion) {
    use std::sync::Arc;

    // Each iteration performs a batch of operations: the single-op cost is
    // a few ns — below the harness/timer floor on a busy host — so per-op
    // numbers are derived (ns ÷ OPS) and the gate compares µs-scale
    // medians that amortize scheduling jitter.
    const OPS: u64 = 512;

    let mut g = c.benchmark_group("telemetry");
    g.throughput(Throughput::Elements(OPS));
    // The disabled path is the cost every instrumented call site pays when
    // telemetry is off — the contract is that it stays negligible.
    g.bench_function("counter_add_disabled_512", |b| {
        let registry = telemetry::Registry::new();
        let counter = registry.counter("bench.counter", telemetry::Class::Deterministic);
        b.iter(|| {
            for i in 0..OPS {
                counter.add(std::hint::black_box(i & 1));
            }
        })
    });
    g.bench_function("counter_add_enabled_512", |b| {
        let registry = telemetry::Registry::new();
        registry.set_enabled(true);
        let counter = registry.counter("bench.counter", telemetry::Class::Deterministic);
        b.iter(|| {
            for i in 0..OPS {
                counter.add(std::hint::black_box(i & 1));
            }
        })
    });
    g.bench_function("histogram_record_enabled_512", |b| {
        let registry = telemetry::Registry::new();
        registry.set_enabled(true);
        let hist = registry.histogram(
            "bench.hist",
            telemetry::Class::Deterministic,
            &[1, 8, 64, 512, 4096],
        );
        let mut v = 0u64;
        b.iter(|| {
            for _ in 0..OPS {
                v = (v + 97) % 8192;
                hist.record(std::hint::black_box(v));
            }
        })
    });
    g.bench_function("trace_record_enabled_512", |b| {
        let registry = Arc::new(telemetry::Registry::new());
        registry.set_enabled(true);
        let mut i = 0u64;
        b.iter(|| {
            for _ in 0..OPS {
                i += 1;
                registry
                    .trace()
                    .record("bench.event", std::hint::black_box(i));
            }
        })
    });
    g.finish();
}

fn bench_ecc(c: &mut Criterion) {
    let mut g = c.benchmark_group("ecc");
    let row: Vec<u64> = {
        let mut rng = SmallRng::seed_from_u64(4);
        (0..1024).map(|_| rng.gen()).collect()
    };
    g.throughput(Throughput::Bytes(8192));
    g.bench_function("crc64_8kb_row", |b| {
        let crc = Crc64::new();
        b.iter(|| std::hint::black_box(crc.row_signature(&row)))
    });
    g.bench_function("hamming72_encode_decode", |b| {
        let h = Hamming72;
        b.iter(|| {
            let cw = h.encode(std::hint::black_box(0xDEAD_BEEF_CAFE_BABE));
            std::hint::black_box(h.decode(cw ^ (1 << 17)))
        })
    });
    g.finish();
}
