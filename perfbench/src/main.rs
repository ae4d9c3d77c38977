//! End-to-end benchmark of the MEMCON reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fleet|memsim_mix|chip_content> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Run from the repository root. Each workload is a closed-loop batch job
//! on `nproc` workers: it sets up several times, then repeats its unit of
//! work until `--seconds` have passed, checking every unit's outputs. The
//! last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. Lines before
//! it give the run context and a readable summary. See `perfbench/README.md`
//! for what each metric means and which workload moves it.

mod chip;
mod fleet_run;
mod measure;
mod memsim_mix;
mod trace;

use std::path::Path;
use std::process::ExitCode;

use memutil::json::Json;

use measure::{Opts, Outcome};

/// `(name, unit)` of every end-to-end metric, printed by untraced runs.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("events_per_s", "1/s"),
    ("epoch_ms_p50", "ms"),
    ("epoch_ms_tail", "ms"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric, printed by traced runs. A
/// metric of a layer the workload does not run reads 0.
pub const PER_LAYER: [(&str, &str); 53] = [
    ("memtrace.synth_s", "s"),
    ("memtrace.ns_per_event", "ns"),
    ("fleet.new_s", "s"),
    ("fleet.epoch_s", "s"),
    ("fleet.shard_step_s", "s"),
    ("fleet.parallel_efficiency", "ratio"),
    ("fleet.shard_step_us_p50", "us"),
    ("fleet.shard_step_us_p99", "us"),
    ("memutil.par.steal_ratio", "ratio"),
    ("memcon.ns_per_write", "ns"),
    ("memcon.pril.writes", "count"),
    ("memcon.pril.candidates", "count"),
    ("memcon.pril.overflowed", "count"),
    ("memcon.tests.started", "count"),
    ("memcon.tests.aborted", "count"),
    ("memcon.refresh.transitions", "count"),
    ("memcon.tests.mispredicted_ratio", "ratio"),
    ("refresh_reduction", "ratio"),
    ("store.added_ns_per_event", "ns"),
    ("store.wal.appends", "count"),
    ("store.wal.bytes", "bytes"),
    ("store.snap.published", "count"),
    ("store.disk_bytes", "bytes"),
    ("store.recovery.shards", "count"),
    ("store.recovery.replayed_records", "count"),
    ("store.recovery.truncated_bytes", "bytes"),
    ("recover_s", "s"),
    ("memsim.run_s", "s"),
    ("memsim.ns_per_dram_cycle", "ns"),
    ("memsim.dram_cycles", "count"),
    ("memsim.row_hit_ratio", "ratio"),
    ("memsim.refresh_blackout_share", "ratio"),
    ("memsim.ctrl.rejected", "count"),
    ("memsim.test_requests", "count"),
    ("memcon_speedup", "ratio"),
    ("failure_model.content_s", "s"),
    ("dram.fill_s", "s"),
    ("failure_model.eval_s", "s"),
    ("failure_model.readback_s", "s"),
    ("failure_model.eval.rows", "count"),
    ("failure_model.eval.failures", "count"),
    ("failure_model.cache.warm_hits", "count"),
    ("dram.charge.image_builds", "count"),
    ("telemetry.overhead_ratio", "ratio"),
    ("memtrace.self_s", "s"),
    ("fleet.self_s", "s"),
    ("store.self_s", "s"),
    ("memutil.par.self_s", "s"),
    ("memsim.self_s", "s"),
    ("failure_model.self_s", "s"),
    ("dram.self_s", "s"),
    ("outside_span_share", "ratio"),
    ("traced_wall_s", "s"),
];

/// Layers the benchmark opens spans into, with their self-time metric.
const LAYERS: [(&str, &str); 7] = [
    ("memtrace", "memtrace.self_s"),
    ("fleet", "fleet.self_s"),
    ("store", "store.self_s"),
    ("memutil.par", "memutil.par.self_s"),
    ("memsim", "memsim.self_s"),
    ("failure_model", "failure_model.self_s"),
    ("dram", "dram.self_s"),
];

/// Default and held-out seed of every workload (also in BENCHMARK.json):
/// tune on the first, confirm a claim on the second.
pub const DEFAULT_SEED: u64 = 1;
pub const HELD_OUT_SEED: u64 = 1009;

const WORKLOADS: [&str; 3] = ["fleet", "memsim_mix", "chip_content"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (expected one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let jobs = std::thread::available_parallelism().map_or(1, usize::from);
    let opts = Opts {
        seed: args.seed,
        seconds: args.seconds,
        jobs,
        traced: args.trace,
    };
    let result = match args.workload.as_str() {
        "fleet" => fleet_run::run(&opts),
        "memsim_mix" => memsim_mix::run(&opts),
        _ => chip::run(&opts),
    };
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    print_context(&args, &opts, &outcome);
    match finish(&args, outcome) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}

fn print_context(args: &Args, opts: &Opts, outcome: &Outcome) {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let ctx = Json::obj()
        .field("workload", args.workload.as_str())
        .field("seed", args.seed)
        .field("seconds", args.seconds)
        .field("nproc", nproc as u64)
        .field("jobs", opts.jobs as u64)
        .field("commit", git_commit().as_str())
        .field("rustc", env!("PERFBENCH_RUSTC"))
        .field("telemetry", args.trace)
        .field(
            "store_fs",
            outcome.store_fs.as_deref().unwrap_or("none (no store)"),
        );
    println!("context {}", ctx.emit());
}

/// Prints the summary and the result line; returns whether every check
/// passed.
fn finish(args: &Args, mut outcome: Outcome) -> Result<bool, String> {
    outcome
        .metrics
        .insert("peak_rss_mb", measure::peak_rss_mb()?);
    for line in &outcome.lines {
        println!("{line}");
    }
    let checks = &outcome.checks;
    println!(
        "checks: {} attempted, {} failed, error_rate {}",
        checks.attempted,
        checks.failed,
        checks.error_rate()
    );
    for failure in &checks.failures {
        println!("check failed: {failure}");
    }
    if let Some(tracer) = &outcome.tracer {
        report_profile(args, tracer, &mut outcome.metrics)?;
    }
    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Json::obj();
    for &(name, unit) in wanted {
        let value = match outcome.metrics.get(name) {
            Some(v) => *v,
            None if args.trace => 0.0,
            None => return Err(format!("end-to-end metric {name} was not measured")),
        };
        metrics.set(name, Json::obj().field("value", value).field("unit", unit));
    }
    let correct = checks.failed == 0 && checks.attempted > 0;
    let result = Json::obj()
        .field("correct", correct)
        .field("attempted", checks.attempted)
        .field("failed", checks.failed)
        .field("metrics", metrics);
    println!("{}", result.emit());
    Ok(correct)
}

/// Prints where the traced wall time went, adds the profile metrics and
/// writes the spans out.
fn report_profile(
    args: &Args,
    tracer: &trace::Tracer,
    metrics: &mut measure::Metrics,
) -> Result<(), String> {
    let profile = tracer.profile();
    let wall = profile.wall_ns;
    println!("profile: traced wall {:.6} s", wall / 1e9);
    let mut sum = profile.outside_ns;
    for (layer, ns) in &profile.self_ns {
        if !LAYERS.iter().any(|(l, _)| l == layer) {
            return Err(format!("span layer {layer} is not in LAYERS"));
        }
        println!(
            "profile:   {layer:<14} self {:>12.6} s  {:>6.2} %",
            ns / 1e9,
            100.0 * ns / wall
        );
        sum += ns;
    }
    println!(
        "profile:   {:<14} self {:>12.6} s  {:>6.2} %",
        "(outside)",
        profile.outside_ns / 1e9,
        100.0 * profile.outside_ns / wall
    );
    println!(
        "profile: self times + outside = {:.6} s (traced wall {:.6} s)",
        sum / 1e9,
        wall / 1e9
    );
    let (top, top_ns) = profile.top_layer().unwrap_or(("none", 0.0));
    println!(
        "profile: top layer of {} is {top} ({:.2} % of traced wall)",
        args.workload,
        100.0 * top_ns / wall
    );
    if let Some(ratio) = metrics.get("telemetry.overhead_ratio") {
        println!("profile: telemetry.overhead_ratio {ratio:.4} (ROADMAP limit 0.02)");
    }
    for (layer, metric) in LAYERS {
        let ns = profile.self_ns.get(layer).copied().unwrap_or(0.0);
        metrics.insert(metric, ns / 1e9);
    }
    metrics.insert("outside_span_share", profile.outside_ns / wall);
    metrics.insert("traced_wall_s", wall / 1e9);
    let dir = Path::new(measure::OUT_DIR);
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("spans-{}-seed{}.tsv", args.workload, args.seed));
    tracer
        .write_spans(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("profile: spans written to {}", path.display());
    Ok(())
}

/// The checked-out commit, read from `.git` when the working directory is
/// a git checkout.
fn git_commit() -> String {
    let head = Path::new(".git/HEAD");
    let Ok(head) = std::fs::read_to_string(head) else {
        return "unknown (not a git checkout)".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (id, name) = line.split_once(' ')?;
                (name == reference).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn arguments_are_validated() {
        let a = args(&[
            "--workload",
            "fleet",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("fleet", 7, 3.0, true)
        );
        let d = args(&["--workload", "chip_content"]).unwrap();
        assert_eq!(d.seed, DEFAULT_SEED);
        assert!(args(&[]).is_err());
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "fleet", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "fleet", "--seconds", "0"]).is_err());
        assert!(args(&["--workload", "fleet", "--seed"]).is_err());
        assert!(args(&["--workload", "fleet", "--extra", "1"]).is_err());
    }

    /// BENCHMARK.json must name exactly the workloads and metrics this
    /// program prints, with the same units, and the seeds it documents.
    #[test]
    fn benchmark_json_matches_the_program() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            match json.get(key) {
                Some(Json::Arr(items)) => items
                    .iter()
                    .map(|m| {
                        let s = |k| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                        (s("name"), s("unit"))
                    })
                    .collect(),
                _ => panic!("{key} is not a list"),
            }
        };
        let expect = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), expect(&END_TO_END));
        assert_eq!(names("per_layer"), expect(&PER_LAYER));
        let workloads = names("workloads");
        assert_eq!(
            workloads
                .iter()
                .map(|(n, _)| n.as_str())
                .collect::<Vec<_>>(),
            WORKLOADS
        );
        let Some(Json::Arr(items)) = json.get("workloads") else {
            unreachable!()
        };
        for w in items {
            let why = w.get("why").and_then(Json::as_str).unwrap_or("");
            assert!(
                why.contains(&format!("seeds {DEFAULT_SEED}/{HELD_OUT_SEED}")),
                "why of a workload must record its default/held-out seeds: {why}"
            );
        }
    }
}
