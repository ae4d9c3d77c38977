//! `memsim_mix`: seeded 4-application mixes on the 4-core 32 Gb cycle
//! simulator. Each mix runs once under the 16 ms baseline and once under
//! MEMCON's 75 % refresh reduction with 256 injected tests per window;
//! the mixes fan out across the workers.

use dram::geometry::ChipDensity;
use memsim::config::{RefreshPolicy, SystemConfig};
use memsim::system::{SimStats, System};
use memsim::testinject::TestInjectConfig;
use memtrace::cpu::{spec_tpc_pool, CpuWorkloadProfile};
use memutil::rng::{SeedableRng, SliceRandom, SmallRng};

use crate::measure::{self, Checks, Metrics, Opts, Outcome};
use crate::trace::{self, Parent, Tracer, ROOT};

const CORES: usize = 4;
/// Mixes per unit: eight rounds of the 16-application pool. At 16 mixes
/// the seed's grouping of applications spread throughput and mix latency
/// by 17-19 % over five seeds (quartile spread; one seed repeated: 4-5 %);
/// at 128 by 2-6 % over ten seeds.
const MIXES: usize = 128;
/// Instructions each core retires per simulation.
const INSTRUCTIONS: u64 = 200_000;
const REDUCTION: f64 = 0.75;
const TESTS: u32 = 256;
/// Set-ups per run: constructing the systems takes about 0.1 ms, so many
/// repetitions keep the median steady.
const SETUPS: usize = 301;
/// Mixes a run measures at least (two units): ten beyond p95.
const MIN_MIXES: usize = 2 * MIXES;
/// Paper Fig. 15: mean speedup at 4 cores, 32 Gb, 75 % reduction.
const FIG15_SPEEDUP: f64 = 1.65;

/// `MIXES` seeded 4-application mixes in which every application of the
/// SPEC/TPC pool appears equally often: each round deals a seeded shuffle
/// of the pool into groups of four. With independent draws
/// (`random_mixes`) one seed's mixes simulated a quarter faster than
/// another's; balanced mixes keep the work per run close across seeds,
/// while the seed still decides which applications share the channel.
fn balanced_mixes(seed: u64) -> Vec<Vec<CpuWorkloadProfile>> {
    let pool = spec_tpc_pool();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut mixes = Vec::with_capacity(MIXES);
    while mixes.len() < MIXES {
        let mut round = pool.clone();
        round.shuffle(&mut rng);
        mixes.extend(round.chunks_exact(CORES).map(<[_]>::to_vec));
    }
    mixes.truncate(MIXES);
    mixes
}

/// The baseline and the MEMCON system of mix `i`.
fn systems(mix: &[CpuWorkloadProfile], seed: u64, i: usize) -> (System, System) {
    let seed = seed ^ i as u64;
    let baseline = SystemConfig::new(CORES, ChipDensity::Gb32, RefreshPolicy::baseline_16ms());
    let memcon = SystemConfig::new(
        CORES,
        ChipDensity::Gb32,
        RefreshPolicy::Reduced {
            baseline_interval_ms: 16.0,
            reduction: REDUCTION,
        },
    );
    (
        System::new(baseline, mix.to_vec(), seed),
        System::new(memcon, mix.to_vec(), seed)
            .with_test_injection(TestInjectConfig::read_and_compare(TESTS)),
    )
}

struct MixRun {
    /// Host time of the pair, seconds.
    latency_s: f64,
    /// Host time inside `System::run`, seconds.
    run_s: f64,
    base: SimStats,
    memcon: SimStats,
}

impl MixRun {
    fn speedup(&self) -> f64 {
        self.memcon.speedup_over(&self.base)
    }
}

fn run_mix(
    mix: &[CpuWorkloadProfile],
    seed: u64,
    i: usize,
    tracer: &Tracer,
    parent: Parent,
) -> MixRun {
    let start = std::time::Instant::now();
    let (mut base_sys, mut memcon_sys) =
        tracer.span("memsim.new", parent, |_| systems(mix, seed, i));
    let (base, b) =
        measure::timed(|| tracer.span("memsim.run", parent, |_| base_sys.run(INSTRUCTIONS)));
    let (memcon, m) =
        measure::timed(|| tracer.span("memsim.run", parent, |_| memcon_sys.run(INSTRUCTIONS)));
    MixRun {
        latency_s: start.elapsed().as_secs_f64(),
        run_s: b + m,
        base,
        memcon,
    }
}

struct Batch {
    wall_s: f64,
    mixes: Vec<MixRun>,
}

fn check_batch(checks: &mut Checks, batch: &Batch, first: &mut Option<Vec<u64>>) {
    for (i, mix) in batch.mixes.iter().enumerate() {
        let s = mix.speedup();
        checks.check(s > 1.0, || format!("mix {i}: speedup {s} is not above 1"));
    }
    let bits: Vec<u64> = batch.mixes.iter().map(|m| m.speedup().to_bits()).collect();
    let first = first.get_or_insert_with(|| bits.clone());
    checks.check(*first == bits, || {
        "mix speedups differ between units".to_string()
    });
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let jobs = opts.jobs;
    let tracer = Tracer::new();
    let mixes = balanced_mixes(opts.seed);

    let mut setup_s = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        let (built, s) = measure::timed(|| {
            (0..MIXES)
                .map(|i| systems(&mixes[i], opts.seed, i))
                .collect::<Vec<_>>()
        });
        drop(built);
        setup_s.push(s);
    }

    let mut checks = Checks::default();
    let mut first = None;
    let units = measure::repeat(opts, MIN_MIXES.div_ceil(MIXES), &tracer, |_| {
        let start = std::time::Instant::now();
        let mixes = tracer.span("memutil.par.map", ROOT, |parent| {
            memutil::par::ordered_map_with(jobs, MIXES, |i| {
                run_mix(&mixes[i], opts.seed, i, &tracer, parent)
            })
        });
        let batch = Batch {
            wall_s: start.elapsed().as_secs_f64(),
            mixes,
        };
        check_batch(&mut checks, &batch, &mut first);
        batch
    });

    let untraced = measure::of_kind(&units, false);
    let last = &units.last().expect("at least one unit").out;
    let speedup = last.mixes.iter().map(MixRun::speedup).sum::<f64>() / MIXES as f64;
    let instructions = (MIXES * 2 * CORES) as f64 * INSTRUCTIONS as f64;
    let mut lines = vec![
        format!(
            "memsim_mix: {MIXES} mixes x {CORES} cores x {INSTRUCTIONS} instructions, 32 Gb, {} units, jobs {jobs}",
            units.len()
        ),
        format!(
            "memcon_speedup (simulated) {speedup:.6} - paper Fig. 15: {FIG15_SPEEDUP} at 4 cores, 32 Gb, 75 %"
        ),
    ];
    let mut metrics = Metrics::new();
    if opts.traced {
        let traced = measure::of_kind(&units, true);
        let sum = |f: &dyn Fn(&SimStats) -> u64| -> f64 {
            last.mixes
                .iter()
                .map(|m| (f(&m.base) + f(&m.memcon)) as f64)
                .sum()
        };
        let cycles = sum(&|s| s.total_cycles);
        let run_s = measure::median_of(&traced, |u| u.out.mixes.iter().map(|m| m.run_s).sum());
        metrics.insert("memsim.run_s", run_s);
        metrics.insert("memsim.ns_per_dram_cycle", run_s * 1e9 / cycles);
        metrics.insert("memsim.dram_cycles", cycles);
        metrics.insert(
            "memsim.row_hit_ratio",
            1.0 - sum(&|s| s.ctrl.acts) / sum(&|s| s.ctrl.column_accesses),
        );
        metrics.insert(
            "memsim.refresh_blackout_share",
            sum(&|s| s.ctrl.refresh_blackout_cycles) / cycles,
        );
        metrics.insert("memsim.ctrl.rejected", sum(&|s| s.ctrl.rejected));
        metrics.insert("memsim.test_requests", sum(&|s| s.test_requests));
        metrics.insert("memcon_speedup", speedup);
        metrics.insert("memutil.par.steal_ratio", measure::steal_ratio(&traced));
        metrics.insert(
            "telemetry.overhead_ratio",
            measure::overhead_ratio(
                &units
                    .iter()
                    .map(|u| (u.traced, u.out.wall_s))
                    .collect::<Vec<_>>(),
            ),
        );
    } else {
        let tail = trace::tail_percentile(MIN_MIXES).expect("enough mixes for a tail");
        let latency_ms: Vec<f64> = untraced
            .iter()
            .flat_map(|u| u.out.mixes.iter().map(|m| m.latency_s * 1e3))
            .collect();
        metrics.insert("setup_s", trace::median(&setup_s));
        metrics.insert(
            "events_per_s",
            measure::median_of(&untraced, |u| instructions / u.out.wall_s),
        );
        metrics.insert("epoch_ms_p50", trace::percentile(&latency_ms, 50.0));
        metrics.insert("epoch_ms_tail", trace::percentile(&latency_ms, tail));
        lines.push(format!(
            "events are retired instructions (instr_per_s); an epoch is one mix pair; \
             epoch_ms_tail is p{tail} of {} mixes",
            latency_ms.len()
        ));
    }
    Ok(Outcome {
        checks,
        metrics,
        lines,
        tracer: opts.traced.then_some(tracer),
        store_fs: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(cycles: u64) -> SimStats {
        SimStats {
            per_core_cycles: vec![cycles; CORES],
            per_core_ipc: vec![1.0; CORES],
            ctrl: Default::default(),
            total_cycles: cycles,
            test_requests: 0,
        }
    }

    fn mix(base: u64, memcon: u64) -> MixRun {
        MixRun {
            latency_s: 0.0,
            run_s: 0.0,
            base: stats(base),
            memcon: stats(memcon),
        }
    }

    #[test]
    fn a_mix_that_slows_down_is_counted_as_a_failure() {
        let good = Batch {
            wall_s: 0.0,
            mixes: vec![mix(1_000, 600), mix(1_000, 700)],
        };
        let mut checks = Checks::default();
        let mut first = None;
        check_batch(&mut checks, &good, &mut first);
        assert_eq!((checks.attempted, checks.failed), (3, 0));
        // One deliberately wrong output: MEMCON slower than the baseline.
        let bad = Batch {
            wall_s: 0.0,
            mixes: vec![mix(1_000, 600), mix(1_000, 1_100)],
        };
        check_batch(&mut checks, &bad, &mut first);
        assert_eq!(checks.attempted, 6);
        assert_eq!(checks.failed, 2, "the slowdown and the changed speedups");
    }
}
