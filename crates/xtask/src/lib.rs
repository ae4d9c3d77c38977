//! Workspace automation: the `memlint` driver and the offline `ci`
//! pipeline.
//!
//! The lint engine itself lives in the `memlint` crate (token-level
//! determinism analyzer + cross-artifact consistency checks); [`lint_cmd`]
//! is a thin driver that runs it over the workspace, prints the report,
//! and optionally emits the `memcon-memlint/v1` JSON document
//! (`lint --json[=PATH]`). Pre-existing violations are frozen in a
//! checked-in **ratchet** file (`memlint.ratchet` at the workspace root)
//! keyed by `(rule, file, normalized-line fingerprint)`: the lint fails
//! only on findings not covered by a frozen entry, so the debt can only
//! shrink. `cargo run -p xtask -- lint --update-ratchet` re-freezes the
//! file after paying some down; both `lint` and `ci` also fail when the
//! checked-in ratchet is out of sync with the tree (stale entries are
//! debt that was paid but not tightened).
//!
//! `ci` chains the whole offline gate: rustfmt check (when rustfmt is
//! installed), `memlint`, a release build, a release run of each root
//! example, the parallel-engine determinism gate
//! (`memcon-experiments --quick all` at `--jobs 1` vs `--jobs 4`,
//! byte-compared with each other and with the committed
//! `EXPERIMENTS_quick_expected.txt`), the telemetry golden-file check, a
//! quick fault-injection chaos soak ([`chaos`]), and the quiet test suite.
//!
//! `bench baseline` runs the `bench_suite::micro` suite in-process and
//! snapshots the medians to `BENCH_baseline.json` at the workspace root.
//! `bench compare` re-runs the suite and diffs the fresh medians against
//! that snapshot, failing on a >15 % regression of any benchmark present
//! in both; `ci --bench` chains it after the test suite.

#![warn(missing_docs)]

pub mod chaos;
pub mod crash;
pub mod fleet;
pub mod obs;
pub mod top;

use std::path::{Path, PathBuf};
use std::process::Command;

/// Absolute path of the workspace root (two levels above this crate).
#[must_use]
pub fn workspace_root() -> PathBuf {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest
        .ancestors()
        .nth(2)
        .unwrap_or(manifest)
        .to_path_buf()
}

/// Runs `memlint` over the workspace and prints a report.
///
/// `json` additionally emits the `memcon-memlint/v1` report document:
/// `Some("-")` to stdout (suppressing the human report), `Some(path)` to a
/// file.
///
/// Returns a process exit code: `0` when every finding is covered by the
/// ratchet **and** the ratchet byte-matches what `--update-ratchet` would
/// write; `1` on net-new findings, a stale/malformed ratchet, or I/O
/// errors.
#[must_use]
pub fn lint_cmd(update_ratchet: bool, json: Option<&str>) -> i32 {
    let root = workspace_root();
    let outcome = match memlint::run(&root, update_ratchet) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("memlint: {e}");
            return 1;
        }
    };
    let mut doc = outcome.to_json().emit();
    doc.push('\n');
    match json {
        Some("-") => print!("{doc}"),
        Some(path) => {
            let path = root.join(path);
            if let Some(parent) = path.parent() {
                let _ = std::fs::create_dir_all(parent);
            }
            if let Err(e) = std::fs::write(&path, &doc) {
                eprintln!("memlint: cannot write {}: {e}", path.display());
                return 1;
            }
            print!("{outcome}");
            println!("memlint: JSON report written to {}", path.display());
        }
        None => print!("{outcome}"),
    }
    i32::from(!(outcome.passed() && outcome.ratchet_in_sync))
}

/// Runs the offline CI pipeline: fmt-check (if rustfmt is installed),
/// `memlint`, `cargo build --workspace --release` (the determinism gate
/// below byte-compares the freshly built experiments binary), each root
/// example through `cargo run --release --example` (a nonzero exit
/// fails), `cargo clippy --workspace --all-targets -- -D warnings` (if
/// clippy is installed), `cargo doc --workspace --no-deps` with
/// `RUSTDOCFLAGS=-D warnings` (a doc link to a missing or private item
/// fails), the determinism gate (`--quick all` at `--jobs 1` and
/// `--jobs 4`, byte-compared with each other and with the committed
/// `EXPERIMENTS_quick_expected.txt`), `obs --check`, a quick 3-plan chaos soak
/// ([`chaos::chaos_cmd`]), the `chaos health` smoke (armed SLO monitor,
/// alert latency, flight-record dump), the quick crash-recovery soak
/// ([`crash::crash_cmd`]), the fleet smoke gate
/// ([`fleet::fleet_cmd`] with `--smoke`), `cargo test --workspace -q`
/// (every crate's unit, property and integration tests), the `memcon`,
/// `memsim` and `fleet` tests again with the `strict-invariants` checks
/// compiled in, the perfbench self-tests, and — when `bench` is set —
/// the `bench compare` regression gate plus the `obs` and `chaos`
/// overhead gates (run through `cargo run --release` so the fresh medians
/// are measured at the same profile as the checked-in baseline,
/// regardless of how this xtask itself was built).
///
/// Returns the exit code of the first failing step, or `0`.
#[must_use]
pub fn ci_cmd(bench: bool) -> i32 {
    let root = workspace_root();

    if cargo_tool_available(&root, "fmt") {
        println!("ci: cargo fmt --all -- --check");
        if let Some(code) = run_step(&root, &["fmt", "--all", "--", "--check"]) {
            return code;
        }
    } else {
        println!("ci: rustfmt not installed; skipping format check");
    }

    println!("ci: memlint (JSON report to target/memlint-report.json)");
    let lint_code = lint_cmd(false, Some("target/memlint-report.json"));
    if lint_code != 0 {
        return lint_code;
    }

    println!("ci: cargo build --workspace --release");
    if let Some(code) = run_step(&root, &["build", "--workspace", "--release"]) {
        return code;
    }

    // `cargo test` and clippy only build the examples; running them is
    // what checks them (`online_testing` asserts its own outcome).
    println!("ci: cargo run --release --example <each root example>");
    for example in ROOT_EXAMPLES {
        if let Some(code) = run_step(&root, &["run", "--release", "--example", example]) {
            return code;
        }
    }

    if cargo_tool_available(&root, "clippy") {
        println!("ci: cargo clippy --workspace --all-targets -- -D warnings");
        let clippy = [
            "clippy",
            "--workspace",
            "--all-targets",
            "--",
            "-D",
            "warnings",
        ];
        if let Some(code) = run_step(&root, &clippy) {
            return code;
        }
    } else {
        println!("ci: clippy not installed; skipping lint check");
    }

    println!("ci: RUSTDOCFLAGS=\"-D warnings\" cargo doc --workspace --no-deps");
    if let Some(code) = run_step_with_env(
        &root,
        &["doc", "--workspace", "--no-deps"],
        &[("RUSTDOCFLAGS", "-D warnings")],
    ) {
        return code;
    }

    println!(
        "ci: determinism gate (memcon-experiments --quick all, --jobs 1 vs --jobs 4 \
         vs {QUICK_GOLDEN})"
    );
    if let Some(code) = determinism_gate(&root) {
        return code;
    }

    println!("ci: obs --check (telemetry golden file)");
    let obs_code = obs::obs_cmd(&["--check".to_string()]);
    if obs_code != 0 {
        return obs_code;
    }

    println!("ci: chaos soak (3 quick fault plans)");
    let chaos_code = chaos::chaos_cmd(&["--quick".to_string(), "--plans=3".to_string()]);
    if chaos_code != 0 {
        return chaos_code;
    }

    println!("ci: chaos health (armed SLO monitor + flight recorder)");
    let health_code = chaos::chaos_cmd(&["health".to_string()]);
    if health_code != 0 {
        return health_code;
    }

    println!("ci: crash --quick (durable-fleet kill-mid-image recovery soak)");
    let crash_code = crash::crash_cmd(&["--quick".to_string()]);
    if crash_code != 0 {
        return crash_code;
    }

    println!("ci: fleet smoke (jobs 1 vs 3 and 1 vs 4 byte-diff, fault-free and faulted)");
    let fleet_code = fleet::fleet_cmd(&["--smoke".to_string()]);
    if fleet_code != 0 {
        return fleet_code;
    }

    println!("ci: cargo test --workspace -q");
    if let Some(code) = run_step(&root, &["test", "--workspace", "-q"]) {
        return code;
    }

    // The invariant checks behind `strict-invariants` compile in no
    // other step. The fleet's tests step restored engines, so they run
    // with the engine's checks compiled in too.
    println!("ci: cargo test -q -p memcon -p memsim -p fleet (strict-invariants)");
    if let Some(code) = run_step(
        &root,
        &[
            "test",
            "-q",
            "-p",
            "memcon",
            "-p",
            "memsim",
            "-p",
            "fleet",
            "--features",
            "memcon/strict-invariants,memsim/strict-invariants",
        ],
    ) {
        return code;
    }

    // The end-to-end benchmark is a package of its own, outside the
    // workspace: build it and run its self-tests against the crates.
    println!("ci: perfbench self-tests (release)");
    if let Some(code) = run_step(
        &root,
        &[
            "test",
            "--release",
            "--offline",
            "-q",
            "--manifest-path",
            "perfbench/Cargo.toml",
        ],
    ) {
        return code;
    }

    if bench {
        println!("ci: bench compare (release)");
        if let Some(code) = run_step(
            &root,
            &["run", "--release", "-p", "xtask", "--", "bench", "compare"],
        ) {
            return code;
        }
        println!("ci: obs overhead (release)");
        if let Some(code) = run_step(
            &root,
            &["run", "--release", "-p", "xtask", "--", "obs", "overhead"],
        ) {
            return code;
        }
        println!("ci: chaos overhead (release)");
        if let Some(code) = run_step(
            &root,
            &["run", "--release", "-p", "xtask", "--", "chaos", "overhead"],
        ) {
            return code;
        }
    }

    println!("ci: all steps passed");
    0
}

/// The root package's examples, each run by `ci` after the release build.
const ROOT_EXAMPLES: [&str; 4] = [
    "quickstart",
    "chip_testing",
    "online_testing",
    "refresh_performance",
];

/// The committed `memcon-experiments --quick all` output, at the workspace
/// root: the determinism gate pins every run to it, so an output change
/// that is the same at any `--jobs` still fails CI until it is
/// regenerated on purpose.
const QUICK_GOLDEN: &str = "EXPERIMENTS_quick_expected.txt";

/// Byte-compares the rendered `--quick all` output at one worker against
/// four workers — the parallel engine's ordered-reduction contract says the
/// two must be identical — and against [`QUICK_GOLDEN`]. Both runs collect
/// telemetry, and the reports' `deterministic` sections are byte-compared
/// too (the `timing` section is wall-clock and legitimately differs).
/// `None` on success, `Some(exit_code)` on any divergence or run failure.
fn determinism_gate(root: &Path) -> Option<i32> {
    let bin = root.join(format!("target/release/memcon-experiments{}", EXE_SUFFIX));
    let report_path =
        |jobs: &str| root.join(format!("target/TELEMETRY_determinism_jobs{jobs}.json"));
    let run = |jobs: &str| -> Result<Vec<u8>, String> {
        let telemetry_arg = format!("--telemetry={}", report_path(jobs).display());
        let out = Command::new(&bin)
            .args(["--quick", "--jobs", jobs, &telemetry_arg, "all"])
            .current_dir(root)
            .output()
            .map_err(|e| format!("could not spawn {}: {e}", bin.display()))?;
        if out.status.success() {
            Ok(out.stdout)
        } else {
            Err(format!(
                "`--quick all --jobs {jobs}` exited with {}",
                out.status
            ))
        }
    };
    match (run("1"), run("4")) {
        (Ok(seq), Ok(par)) if seq == par => {
            println!("ci: outputs byte-identical ({} bytes)", seq.len());
            let golden_path = root.join(QUICK_GOLDEN);
            let golden = match std::fs::read(&golden_path) {
                Ok(golden) => golden,
                Err(e) => {
                    eprintln!("ci: determinism gate error: {}: {e}", golden_path.display());
                    return Some(1);
                }
            };
            if let Some(mismatch) = golden_mismatch(&seq, &golden) {
                eprintln!("ci: determinism gate FAILED: {mismatch}");
                return Some(1);
            }
            println!("ci: output matches {QUICK_GOLDEN}");
            telemetry_sections_match(&report_path("1"), &report_path("4"))
        }
        (Ok(seq), Ok(par)) => {
            eprintln!(
                "ci: determinism gate FAILED: --jobs 1 ({} bytes) and --jobs 4 ({} bytes) \
                 outputs diverge at byte {}",
                seq.len(),
                par.len(),
                first_difference(&seq, &par)
            );
            Some(1)
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("ci: determinism gate error: {e}");
            Some(1)
        }
    }
}

/// Offset of the first byte at which `a` and `b` differ (the shorter
/// length when one is a prefix of the other).
fn first_difference(a: &[u8], b: &[u8]) -> usize {
    a.iter()
        .zip(b)
        .position(|(x, y)| x != y)
        .unwrap_or(a.len().min(b.len()))
}

/// Why the `--quick all` `output` is not the committed `golden`, with the
/// command that regenerates it; `None` when they are byte-identical.
fn golden_mismatch(output: &[u8], golden: &[u8]) -> Option<String> {
    (output != golden).then(|| {
        format!(
            "--quick all output ({} bytes) differs from {QUICK_GOLDEN} ({} bytes) at byte {}; \
             if the change is intended, regenerate the golden with \
             `target/release/memcon-experiments --quick all > {QUICK_GOLDEN}`",
            output.len(),
            golden.len(),
            first_difference(output, golden)
        )
    })
}

/// Compares the `deterministic` sections of two telemetry report files
/// (canonical re-emission, so formatting cannot mask a divergence).
fn telemetry_sections_match(a: &Path, b: &Path) -> Option<i32> {
    use memutil::json::Json;
    let load = |p: &Path| -> Result<String, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))?;
        Ok(doc
            .get("deterministic")
            .cloned()
            .unwrap_or_else(Json::obj)
            .emit())
    };
    match (load(a), load(b)) {
        (Ok(ja), Ok(jb)) if ja == jb => {
            println!(
                "ci: telemetry deterministic sections byte-identical ({} bytes)",
                ja.len()
            );
            None
        }
        (Ok(_), Ok(_)) => {
            eprintln!(
                "ci: determinism gate FAILED: telemetry deterministic sections diverge \
                 (inspect with `cargo run -p xtask -- obs diff {} {}`)",
                a.display(),
                b.display()
            );
            Some(1)
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("ci: determinism gate error: {e}");
            Some(1)
        }
    }
}

const EXE_SUFFIX: &str = if cfg!(windows) { ".exe" } else { "" };

/// Runs the `bench_suite::micro` suite in-process and writes the result
/// snapshot to `BENCH_baseline.json` at the workspace root (format
/// documented in README.md). Returns a process exit code.
#[must_use]
pub fn bench_baseline_cmd() -> i32 {
    let root = workspace_root();
    let profile = if cfg!(debug_assertions) {
        println!("bench: NOTE: xtask built without optimizations; prefer `cargo run --release -p xtask -- bench baseline` for a checked-in baseline");
        "debug"
    } else {
        "release"
    };
    let mut criterion = memutil::bench::Criterion::default();
    bench_suite::micro::register(&mut criterion);
    let results = criterion.final_summary();
    if results.is_empty() {
        eprintln!("bench: no benchmarks produced samples");
        return 1;
    }
    let path = root.join("BENCH_baseline.json");
    match std::fs::write(&path, baseline_json(profile, &results)) {
        Ok(()) => {
            println!(
                "bench: wrote {} ({} benchmarks)",
                path.display(),
                results.len()
            );
            0
        }
        Err(e) => {
            eprintln!("bench: could not write {}: {e}", path.display());
            1
        }
    }
}

/// Fractional median slowdown beyond which `bench compare` fails.
const BENCH_REGRESSION_LIMIT: f64 = 0.15;

/// Runs the `bench_suite::micro` suite in-process and compares the fresh
/// medians against `BENCH_baseline.json`, printing one line per benchmark
/// with the median delta. Returns `1` when any benchmark present in both
/// the baseline and the fresh run regressed by more than 15 %, when the
/// baseline is missing/unreadable, or when the suite produced no samples;
/// `0` otherwise. Benchmarks only on one side never fail the gate (a new
/// benchmark has nothing to regress against), but they are collected into
/// `added` / `removed` lists and named in the final verdict so a suite
/// rename or a silently dropped benchmark is visible in the summary line.
///
/// A benchmark counts as regressed only when **both** its median and its
/// minimum are >15 % above the baseline's. On a shared machine transient
/// scheduler interference routinely inflates a 20-sample median by tens of
/// percent while leaving the minimum within a few percent; a genuine code
/// regression moves both. Lines that trip the median limit alone are
/// flagged `noisy` but pass.
#[must_use]
pub fn bench_compare_cmd() -> i32 {
    let root = workspace_root();
    let path = root.join("BENCH_baseline.json");
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!(
                "bench: could not read {} ({e}); run `cargo run --release -p xtask -- bench baseline` first",
                path.display()
            );
            return 1;
        }
    };
    let baseline = match parse_baseline(&text) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("bench: {}: {e}", path.display());
            return 1;
        }
    };

    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    if baseline.profile != profile {
        println!(
            "bench: WARNING: baseline profile is `{}` but this run is `{profile}`; \
             deltas are not meaningful (use `cargo run --release -p xtask -- bench compare`)",
            baseline.profile
        );
    }

    let mut criterion = memutil::bench::Criterion::default();
    bench_suite::micro::register(&mut criterion);
    let results = criterion.final_summary();
    if results.is_empty() {
        eprintln!("bench: no benchmarks produced samples");
        return 1;
    }

    let width = results
        .iter()
        .map(|r| r.name.len())
        .chain(baseline.medians.iter().map(|e| e.name.len()))
        .max()
        .unwrap_or(0);
    let mut regressions = Vec::new();
    let mut added = Vec::new();
    let mut removed = Vec::new();
    println!(
        "bench: comparing {} fresh benchmarks against {} baseline entries ({})",
        results.len(),
        baseline.medians.len(),
        path.display()
    );
    for r in &results {
        let Some(entry) = baseline.medians.iter().find(|e| e.name == r.name) else {
            println!(
                "  {:width$}  {:>12}  (new benchmark, no baseline)",
                r.name,
                format_ns(r.median_ns)
            );
            added.push(r.name.clone());
            continue;
        };
        let delta = relative_delta(entry.median_ns, r.median_ns);
        let min_delta = relative_delta(entry.min_ns, r.min_ns);
        let speedup = if r.median_ns > 0.0 {
            entry.median_ns / r.median_ns
        } else {
            f64::INFINITY
        };
        let verdict = if delta > BENCH_REGRESSION_LIMIT && min_delta > BENCH_REGRESSION_LIMIT {
            regressions.push(r.name.clone());
            "REGRESSED".to_string()
        } else if delta > BENCH_REGRESSION_LIMIT {
            format!("noisy (min {:+.1}%)", min_delta * 100.0)
        } else if delta < -BENCH_REGRESSION_LIMIT {
            "improved".to_string()
        } else {
            "ok".to_string()
        };
        println!(
            "  {:width$}  {:>12} -> {:>12}  {:>+8.1}%  {:>7.2}x  {verdict}",
            r.name,
            format_ns(entry.median_ns),
            format_ns(r.median_ns),
            delta * 100.0,
            speedup
        );
    }
    for entry in &baseline.medians {
        let name = &entry.name;
        if !results.iter().any(|r| &r.name == name) {
            println!("  {name:width$}  WARNING: in baseline but missing from this run");
            removed.push(name.clone());
        }
    }

    // Name one-sided benchmarks in the verdict so a rename (one added, one
    // removed) or a dropped benchmark can't hide in the per-line noise; the
    // fix is to re-run `bench baseline` once the change is intentional.
    if !added.is_empty() {
        println!("bench: added (no baseline entry): {}", added.join(", "));
    }
    if !removed.is_empty() {
        println!(
            "bench: removed (in baseline, not in this run): {}",
            removed.join(", ")
        );
    }

    if regressions.is_empty() {
        println!(
            "bench: no benchmark regressed beyond {:.0}% ({} added, {} removed)",
            BENCH_REGRESSION_LIMIT * 100.0,
            added.len(),
            removed.len()
        );
        0
    } else {
        eprintln!(
            "bench: FAILED: {} benchmark(s) regressed beyond {:.0}%: {} ({} added, {} removed)",
            regressions.len(),
            BENCH_REGRESSION_LIMIT * 100.0,
            regressions.join(", "),
            added.len(),
            removed.len()
        );
        1
    }
}

/// `(current - base) / base`, or `0.0` when the base is degenerate.
fn relative_delta(base: f64, current: f64) -> f64 {
    if base > 0.0 {
        (current - base) / base
    } else {
        0.0
    }
}

/// Schema tag of `BENCH_baseline.json` (memlint's `schema-once` rule
/// requires exactly one definition per schema string).
const BENCH_BASELINE_SCHEMA: &str = "memcon-bench-baseline/v1";

/// The subset of `BENCH_baseline.json` that `bench compare` consumes.
struct BenchBaseline {
    profile: String,
    /// Entries in file order.
    medians: Vec<BaselineEntry>,
}

struct BaselineEntry {
    name: String,
    median_ns: f64,
    min_ns: f64,
}

fn parse_baseline(text: &str) -> Result<BenchBaseline, String> {
    use memutil::json::Json;
    let doc = Json::parse(text)?;
    let schema = doc.get("schema").and_then(Json::as_str).unwrap_or("");
    if schema != BENCH_BASELINE_SCHEMA {
        return Err(format!("unsupported baseline schema {schema:?}"));
    }
    let profile = doc
        .get("profile")
        .and_then(Json::as_str)
        .unwrap_or("unknown")
        .to_string();
    let Some(Json::Arr(entries)) = doc.get("benchmarks") else {
        return Err("missing `benchmarks` array".to_string());
    };
    let mut medians = Vec::with_capacity(entries.len());
    for (i, entry) in entries.iter().enumerate() {
        let name = entry
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("benchmark #{i} has no `name`"))?;
        let median_ns = entry
            .get("median_ns")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("benchmark {name:?} has no `median_ns`"))?;
        let min_ns = entry
            .get("min_ns")
            .and_then(Json::as_f64)
            .unwrap_or(median_ns);
        medians.push(BaselineEntry {
            name: name.to_string(),
            median_ns,
            min_ns,
        });
    }
    Ok(BenchBaseline { profile, medians })
}

/// Renders a nanosecond count with an adaptive unit (ns/us/ms/s).
fn format_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1}ns")
    } else if ns < 1e6 {
        format!("{:.2}us", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2}ms", ns / 1e6)
    } else {
        format!("{:.2}s", ns / 1e9)
    }
}

fn baseline_json(profile: &str, results: &[memutil::bench::BenchResult]) -> String {
    use memutil::bench::Throughput;
    use memutil::json::Json;
    let mut benchmarks = Json::arr();
    for r in results {
        let mut o = Json::obj()
            .field("name", r.name.as_str())
            .field("median_ns", r.median_ns)
            .field("min_ns", r.min_ns)
            .field("samples", r.samples as u64);
        match r.throughput {
            Some(Throughput::Elements(n)) => {
                o.set("throughput_unit", "elements");
                o.set("throughput_per_iter", n);
                o.set("elements_per_s", n as f64 / r.median_ns * 1e9);
            }
            Some(Throughput::Bytes(n)) => {
                o.set("throughput_unit", "bytes");
                o.set("throughput_per_iter", n);
                o.set("bytes_per_s", n as f64 / r.median_ns * 1e9);
            }
            None => {}
        }
        benchmarks = benchmarks.push(o);
    }
    let mut out = Json::obj()
        .field("schema", BENCH_BASELINE_SCHEMA)
        .field("command", "cargo run --release -p xtask -- bench baseline")
        .field("profile", profile)
        .field("benchmarks", benchmarks)
        .emit();
    out.push('\n');
    out
}

/// Whether the cargo subcommand `tool` (`fmt`, `clippy`) is installed.
fn cargo_tool_available(root: &Path, tool: &str) -> bool {
    Command::new("cargo")
        .args([tool, "--version"])
        .current_dir(root)
        .output()
        .map(|o| o.status.success())
        .unwrap_or(false)
}

/// Runs one `cargo` step; `None` on success, `Some(exit_code)` on failure.
fn run_step(root: &Path, args: &[&str]) -> Option<i32> {
    run_step_with_env(root, args, &[])
}

/// [`run_step`] with `env` set for the cargo process.
fn run_step_with_env(root: &Path, args: &[&str], env: &[(&str, &str)]) -> Option<i32> {
    match Command::new("cargo")
        .args(args)
        .envs(env.iter().copied())
        .current_dir(root)
        .status()
    {
        Ok(status) if status.success() => None,
        Ok(status) => {
            eprintln!("ci: `cargo {}` failed", args.join(" "));
            Some(status.code().unwrap_or(1))
        }
        Err(e) => {
            eprintln!("ci: could not spawn `cargo {}`: {e}", args.join(" "));
            Some(1)
        }
    }
}

/// Overhead an instrumented arm may add to the failure-model kernel in
/// the `obs overhead` and `chaos overhead` gates.
const OVERHEAD_LIMIT: f64 = 0.02;

/// An instrumented arm of [`kernel_overhead_gate`]: its name, and a
/// function that runs the measurement it is handed inside the arm's
/// instrumentation.
type OverheadArm<'a> = (&'a str, &'a dyn Fn(&mut dyn FnMut()));

/// Times the `failure_model/evaluate_module_1bank` micro-benchmark kernel
/// on its module ([`bench_suite::micro::failure_model_module`]) bare and
/// under each of `arms`, in three alternating rounds, and returns a
/// process exit code: 0 when every arm passes. An arm passes when, in some
/// round, its median or its minimum is within [`OVERHEAD_LIMIT`] of that
/// round's bare run. A real overhead regression reproduces in every round;
/// a host-scheduling stall poisons at most the rounds it overlaps, so
/// interleaving plus the best-round verdict keeps the gate stable on busy
/// machines (the same noise philosophy as the bench regression gate's
/// dual criterion). `tool` prefixes each line, `what` names the
/// instrumentation.
fn kernel_overhead_gate(tool: &str, what: &str, arms: &[OverheadArm]) -> i32 {
    const ROUNDS: usize = 3;
    if cfg!(debug_assertions) {
        println!(
            "{tool}: NOTE: measuring a debug build; prefer `cargo run --release -p xtask -- {tool} overhead`"
        );
    }
    let module = bench_suite::micro::failure_model_module();
    let model = failure_model::model::CouplingFailureModel::default();
    // Warm the vulnerable-cell cache so every arm measures the steady state.
    let _ = model.evaluate_module_with_jobs(&module, 328.0, 1);
    let measure = |c: &mut memutil::bench::Criterion, name: String| {
        c.bench_function(&name, |b| {
            b.iter(|| {
                std::hint::black_box(model.evaluate_module_with_jobs(&module, 328.0, 1).len())
            })
        });
    };
    let mut criterion = memutil::bench::Criterion::default()
        .measurement_time(std::time::Duration::from_millis(600));
    for round in 0..ROUNDS {
        measure(&mut criterion, format!("bare_r{round}"));
        for (arm, instrument) in arms {
            instrument(&mut || measure(&mut criterion, format!("{arm}_r{round}")));
        }
    }
    let results = criterion.final_summary();
    let find = |name: String| results.iter().find(|r| r.name == name);
    let mut failed = false;
    for (arm, _) in arms {
        let mut passed = false;
        for round in 0..ROUNDS {
            let (Some(bare), Some(on)) = (
                find(format!("bare_r{round}")),
                find(format!("{arm}_r{round}")),
            ) else {
                eprintln!("{tool}: overhead benchmarks produced no samples");
                return 1;
            };
            let median_delta = (on.median_ns - bare.median_ns) / bare.median_ns;
            let min_delta = (on.min_ns - bare.min_ns) / bare.min_ns;
            let ok = median_delta <= OVERHEAD_LIMIT || min_delta <= OVERHEAD_LIMIT;
            passed |= ok;
            println!(
                "{tool}: {what} {arm} overhead on evaluate_module_1bank, round {}/{ROUNDS}: \
                 median {:+.2}%, min {:+.2}% (limit {:.0}%) {}",
                round + 1,
                median_delta * 100.0,
                min_delta * 100.0,
                OVERHEAD_LIMIT * 100.0,
                if ok { "ok" } else { "over" }
            );
        }
        if !passed {
            eprintln!(
                "{tool}: FAILED: {what} {arm} costs more than {:.0}% on the evaluation kernel \
                 in every round",
                OVERHEAD_LIMIT * 100.0
            );
            failed = true;
        }
    }
    i32::from(failed)
}

/// `--plans N` or `--plans=N` (default 3, at least 1) from the arguments
/// of a seeded-plan soak (`chaos`, `fleet soak`), plus the ones of `flags`
/// that appear. Any other argument is refused with a usage line listing
/// `expected`. `Err` carries the exit code.
fn parse_plans<'a>(
    tool: &str,
    args: &'a [String],
    flags: &[&str],
    expected: &str,
) -> Result<(usize, Vec<&'a str>), i32> {
    let mut plans = 3usize;
    let mut set = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if flags.contains(&arg.as_str()) {
            set.push(arg.as_str());
        } else if arg == "--plans" {
            let Some(n) = it.next().and_then(|v| v.parse().ok()) else {
                eprintln!("{tool}: --plans expects a number");
                return Err(2);
            };
            plans = n;
        } else if let Some(v) = arg.strip_prefix("--plans=") {
            let Ok(n) = v.parse() else {
                eprintln!("{tool}: --plans expects a number, got '{v}'");
                return Err(2);
            };
            plans = n;
        } else {
            eprintln!("{tool}: unknown argument {arg:?} (expected {expected})");
            return Err(2);
        }
    }
    if plans == 0 {
        eprintln!("{tool}: --plans must be at least 1");
        return Err(2);
    }
    Ok((plans, set))
}

/// Runs `soak` on the plan seeds `base`, `base + 1`, … of `plans` plans
/// and prints one line per plan, `{tool}: {label} i/plans (seed …)`
/// followed by its summary, `FAILED` or `PANICKED`. A panic is itself a
/// gate failure, so it is caught and reported rather than aborting xtask.
/// Returns whether every plan passed.
fn run_plans(
    tool: &str,
    label: &str,
    plans: usize,
    base: u64,
    soak: impl Fn(u64) -> Result<String, String>,
) -> bool {
    let mut passed = true;
    for i in 0..plans {
        let seed = base + i as u64;
        let line = format!("{tool}: {label} {}/{plans} (seed {seed:#x})", i + 1);
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| soak(seed))) {
            Ok(Ok(summary)) => println!("{line}: {summary}"),
            Ok(Err(e)) => {
                eprintln!("{line} FAILED: {e}");
                passed = false;
            }
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("<non-string panic payload>");
                eprintln!("{line} PANICKED: {msg}");
                passed = false;
            }
        }
    }
    passed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_one_byte_edit_of_the_quick_golden_is_a_mismatch() {
        let golden = b"fig6: MinWriteInterval 560 ms\n".to_vec();
        assert_eq!(golden_mismatch(&golden, &golden), None);
        let mut edited = golden.clone();
        edited[7] ^= 1;
        let msg = golden_mismatch(&golden, &edited).expect("a one-byte edit is a mismatch");
        assert!(msg.contains("at byte 7"), "{msg}");
        assert!(
            msg.contains("memcon-experiments --quick all > EXPERIMENTS_quick_expected.txt"),
            "{msg}"
        );
        let msg = golden_mismatch(&golden, &golden[..10]).expect("a truncation is a mismatch");
        assert!(msg.contains("at byte 10"), "{msg}");
    }

    #[test]
    fn parse_plans_takes_a_count_and_known_flags_only() {
        let args = |a: &[&str]| a.iter().map(|s| (*s).to_string()).collect::<Vec<_>>();
        let quick = args(&["--plans", "2", "--quick"]);
        assert_eq!(
            parse_plans("t", &quick, &["--quick"], ""),
            Ok((2, vec!["--quick"]))
        );
        assert_eq!(
            parse_plans("t", &args(&["--plans=5"]), &[], ""),
            Ok((5, vec![]))
        );
        assert_eq!(parse_plans("t", &[], &[], ""), Ok((3, vec![])));
        for bad in [
            &["--plans"][..],
            &["--plans", "x"],
            &["--plans=0"],
            &["--quick"],
        ] {
            assert_eq!(parse_plans("t", &args(bad), &[], ""), Err(2), "{bad:?}");
        }
    }

    #[test]
    fn run_plans_fails_on_an_error_or_a_panic_and_runs_every_seed() {
        let seen = std::sync::Mutex::new(Vec::new());
        let log = &seen;
        let soak = |fail: Option<u64>, panic: Option<u64>| {
            move |seed: u64| {
                log.lock().unwrap().push(seed);
                assert_ne!(Some(seed), panic, "soak panicked");
                if Some(seed) == fail {
                    Err("bad".to_string())
                } else {
                    Ok("fine".to_string())
                }
            }
        };
        assert!(run_plans("t", "plan", 3, 10, soak(None, None)));
        assert!(!run_plans("t", "plan", 3, 20, soak(Some(21), None)));
        assert!(!run_plans("t", "plan", 3, 30, soak(None, Some(30))));
        assert_eq!(
            *seen.lock().unwrap(),
            vec![10, 11, 12, 20, 21, 22, 30, 31, 32]
        );
    }
}
