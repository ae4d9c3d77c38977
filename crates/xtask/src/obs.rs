//! `xtask obs` — telemetry-report tooling.
//!
//! The telemetry contract this enforces: every value in a report's
//! `deterministic` section derives from simulation state only, so the same
//! workload must produce byte-identical deterministic sections on every
//! machine, at every `--jobs` value, in debug and release. `obs` pins that
//! with a committed golden file:
//!
//! * `obs print` — run the reference workload and pretty-print the report,
//! * `obs --write` — refresh `TELEMETRY_expected.json` at the workspace
//!   root from a fresh run,
//! * `obs --check` — re-run the reference workload and fail unless the
//!   deterministic section matches the committed file byte-for-byte,
//! * `obs diff A B` — compare the deterministic sections of two report
//!   files (e.g. `memcon-experiments --telemetry` outputs),
//! * `obs overhead` — measure `evaluate_module_with_jobs` with telemetry
//!   disabled vs enabled-and-installed vs enabled with the live
//!   observability plane armed (primed time-series ring + open tree span)
//!   and fail when either instrumented arm is more than 2 % slower (the
//!   disabled-cost contract of the telemetry crate).
//!
//! The reference workload touches every instrumented layer: a
//! failure-model module sweep (cache + eval counters), a MEMCON engine run
//! (PRIL, test-engine, refresh-manager counters) with quantum-window
//! sampling armed (`memcon.gauge.*` time-series points), a small memsim
//! system run (controller command mix and stall counters), a small
//! fleet run (`fleet.rollup.*` aggregate counters and histograms plus the
//! per-epoch `fleet.obs.*`/`fleet.gauge.*` time-series points), and a
//! durable-store crash/recover round trip (`store.*` snapshot and
//! recovery counters).

use std::path::Path;

use memutil::json::Json;

/// Golden file name at the workspace root.
pub const EXPECTED_FILE: &str = "TELEMETRY_expected.json";

/// Entry point for `xtask obs <args>`; returns a process exit code.
#[must_use]
pub fn obs_cmd(args: &[String]) -> i32 {
    match args.first().map(String::as_str) {
        None | Some("print") => print_cmd(),
        Some("--write") => write_cmd(),
        Some("--check") => check_cmd(),
        Some("diff") => match (args.get(1), args.get(2)) {
            (Some(a), Some(b)) => diff_cmd(Path::new(a), Path::new(b)),
            _ => {
                eprintln!("obs: diff expects two report paths");
                2
            }
        },
        Some("overhead") => overhead_cmd(),
        Some(other) => {
            eprintln!(
                "obs: unknown argument {other:?} (expected print, --write, --check, diff, overhead)"
            );
            2
        }
    }
}

/// Runs the reference workload under [`telemetry::collect`] and returns
/// `{schema, deterministic}` — the comparable part of the report.
fn reference_deterministic() -> Json {
    let ((), registry) = telemetry::collect(run_reference_workload);
    Json::obj()
        .field("schema", telemetry::SCHEMA)
        .field("deterministic", registry.deterministic())
}

/// A small deterministic workload exercising every instrumented layer.
fn run_reference_workload() {
    use dram::cell::RowContent;
    use dram::geometry::{ChipDensity, DramGeometry};
    use dram::module::DramModule;
    use dram::timing::TimingParams;
    use memutil::rng::{Rng, SeedableRng, SmallRng};

    // Layer 1: failure-model sweep (cache + eval counters), parallel path.
    let geometry = DramGeometry {
        ranks: 1,
        chips_per_rank: 1,
        banks: 2,
        rows_per_bank: 128,
        row_bytes: 1024,
        block_bytes: 64,
        density: ChipDensity::Gb8,
    };
    let mut module = DramModule::new(geometry, TimingParams::ddr3_1600(), 0xFA11);
    let words = geometry.words_per_row();
    let mut rng = SmallRng::seed_from_u64(9);
    module.fill_with(|_| RowContent::from_words((0..words).map(|_| rng.gen()).collect()));
    let model = failure_model::model::CouplingFailureModel::default();
    let _ = model.evaluate_module_with_jobs(&module, 328.0, 2);
    // Second sweep: warm-hit counters must fire too.
    let _ = model.evaluate_module_with_jobs(&module, 328.0, 2);

    // Layer 2: MEMCON engine run (PRIL, tests, refresh, oracle counters),
    // with quantum-window sampling armed so the `memcon.gauge.*`
    // time-series points are part of the golden contract. Sampling is safe
    // here because this engine steps alone (single-engine drivers only).
    let trace = memtrace::workload::WorkloadProfile::netflix()
        .scaled(0.02)
        .generate(3);
    let mut engine =
        memcon::engine::MemconEngine::new(memcon::config::MemconConfig::paper_default(), trace);
    engine.set_sample_every(Some(8));
    let _ = engine.run();

    // Layer 3: memsim system run (controller command mix and stalls).
    let config = memsim::config::SystemConfig::new(
        1,
        ChipDensity::Gb8,
        memsim::config::RefreshPolicy::baseline_16ms(),
    );
    let mut sys = memsim::system::System::new(config, vec![memtrace::cpu::spec_tpc_pool()[0]], 7);
    let _ = sys.run(20_000);

    // Layer 4: fleet run (fleet.rollup.* aggregate counters/histograms).
    let fleet_config = fleet::FleetConfig::small(4, 0x0B5);
    let _ = fleet::engine::run_fleet(&fleet_config, 2);

    // Layer 5: durable-store round trip (store.* counters): one engine
    // publishes its checkpoints at 0, 1/5 and 2/5 of the trace and then
    // crashes; the newest image is torn by 3 bytes (the classic
    // partial-write crash), recovery skips it, restores the 1/5 image,
    // and the engine runs to completion. Both store.* counters fire with
    // values that derive from the fixed workload alone.
    let dir = store::scratch_dir("obs-reference");
    let store_trace = std::sync::Arc::new(
        memtrace::workload::WorkloadProfile::netflix()
            .scaled(0.01)
            .generate(11),
    );
    {
        let mut engine = memcon::engine::MemconEngine::new(
            memcon::config::MemconConfig::paper_default(),
            std::sync::Arc::clone(&store_trace),
        );
        let mut s = store::Store::create(&dir, store::DurabilityMode::Buffered)
            // memlint: allow(no-unwrap): a broken scratch dir must fail the tool loudly
            .expect("scratch store directory must be creatable");
        for fifths in 0..3 {
            engine.advance_until(store_trace.duration_ns() / 5 * fifths);
            s.publish_snapshot(&engine.checkpoint())
                // memlint: allow(no-unwrap): scratch-dir IO failures must fail the tool loudly
                .expect("checkpoint publishes");
        }
        // Crash: drop the engine before `run` finishes its run.
    }
    let newest = dir.join("snap-00000002.snap");
    let len = std::fs::metadata(&newest)
        // memlint: allow(no-unwrap): scratch-dir IO failures must fail the tool loudly
        .expect("newest image is readable")
        .len();
    let f = std::fs::OpenOptions::new()
        .write(true)
        .open(&newest)
        // memlint: allow(no-unwrap): scratch-dir IO failures must fail the tool loudly
        .expect("newest image is writable");
    // memlint: allow(no-unwrap): scratch-dir IO failures must fail the tool loudly
    f.set_len(len - 3).expect("tear the newest image");
    drop(f);
    let (_, found) = store::Store::open(&dir, store::DurabilityMode::Buffered, None)
        // memlint: allow(no-unwrap): a torn newest image failing to fall back is exactly what the golden must catch
        .expect("the image before the tear loads");
    let mut engine = memcon::engine::MemconEngine::restore(&found.snapshot.payload, store_trace)
        // memlint: allow(no-unwrap): a checkpoint failing to restore is exactly what the golden must catch
        .expect("the checkpoint restores");
    let _ = engine.run();
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
}

fn print_cmd() -> i32 {
    let report = reference_deterministic();
    println!("{}", pretty(&report, 0));
    0
}

fn write_cmd() -> i32 {
    let path = crate::workspace_root().join(EXPECTED_FILE);
    let report = reference_deterministic().emit();
    match std::fs::write(&path, report + "\n") {
        Ok(()) => {
            println!("obs: wrote {}", path.display());
            0
        }
        Err(e) => {
            eprintln!("obs: could not write {}: {e}", path.display());
            1
        }
    }
}

fn check_cmd() -> i32 {
    let path = crate::workspace_root().join(EXPECTED_FILE);
    let committed = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!(
                "obs: could not read {} ({e}); run `cargo run -p xtask -- obs --write` first",
                path.display()
            );
            return 1;
        }
    };
    let expected = match Json::parse(&committed) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("obs: {}: {e}", path.display());
            return 1;
        }
    };
    let fresh = reference_deterministic();
    // Canonical byte comparison: re-emit both so formatting differences
    // cannot mask or fake a divergence.
    let expected_det = expected
        .get("deterministic")
        .cloned()
        .unwrap_or_else(Json::obj);
    let fresh_det = fresh
        .get("deterministic")
        .cloned()
        .unwrap_or_else(Json::obj);
    if expected_det.emit() == fresh_det.emit() {
        println!("obs: deterministic section matches {}", path.display());
        return 0;
    }
    eprintln!(
        "obs: FAILED: fresh deterministic section diverges from {}",
        path.display()
    );
    print_diff(&expected_det, &fresh_det, "committed", "fresh");
    eprintln!("obs: if the divergence is an intended instrumentation change, refresh the golden file with `cargo run -p xtask -- obs --write`");
    1
}

fn diff_cmd(a: &Path, b: &Path) -> i32 {
    let load = |p: &Path| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))?;
        Ok(doc.get("deterministic").cloned().unwrap_or(doc))
    };
    match (load(a), load(b)) {
        (Ok(ja), Ok(jb)) => {
            if ja.emit() == jb.emit() {
                println!("obs: deterministic sections are identical");
                0
            } else {
                print_diff(&ja, &jb, &a.display().to_string(), &b.display().to_string());
                1
            }
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("obs: {e}");
            1
        }
    }
}

/// Prints a leaf-level comparison of two JSON trees to stderr.
fn print_diff(a: &Json, b: &Json, a_name: &str, b_name: &str) {
    let mut left = Vec::new();
    let mut right = Vec::new();
    flatten("", a, &mut left);
    flatten("", b, &mut right);
    for (path, value) in &left {
        match right.iter().find(|(p, _)| p == path) {
            Some((_, other)) if other == value => {}
            Some((_, other)) => eprintln!("  {path}: {a_name}={value} {b_name}={other}"),
            None => eprintln!("  {path}: only in {a_name} ({value})"),
        }
    }
    for (path, value) in &right {
        if !left.iter().any(|(p, _)| p == path) {
            eprintln!("  {path}: only in {b_name} ({value})");
        }
    }
}

/// Flattens a JSON tree into `(path, leaf)` pairs for diffing.
fn flatten(prefix: &str, j: &Json, out: &mut Vec<(String, String)>) {
    match j {
        Json::Obj(fields) => {
            for (k, v) in fields {
                flatten(&format!("{prefix}/{k}"), v, out);
            }
        }
        Json::Arr(items) => {
            for (i, v) in items.iter().enumerate() {
                flatten(&format!("{prefix}[{i}]"), v, out);
            }
        }
        leaf => out.push((prefix.to_string(), leaf.emit())),
    }
}

/// Indented renderer for terminal reading (the on-disk format stays
/// compact).
fn pretty(j: &Json, depth: usize) -> String {
    let pad = "  ".repeat(depth);
    match j {
        Json::Obj(fields) if fields.is_empty() => "{}".to_string(),
        Json::Obj(fields) => {
            let body: Vec<String> = fields
                .iter()
                .map(|(k, v)| format!("{pad}  \"{k}\": {}", pretty(v, depth + 1)))
                .collect();
            format!("{{\n{}\n{pad}}}", body.join(",\n"))
        }
        Json::Arr(items) if items.len() > 8 || items.iter().any(|i| matches!(i, Json::Obj(_))) => {
            let body: Vec<String> = items
                .iter()
                .map(|v| format!("{pad}  {}", pretty(v, depth + 1)))
                .collect();
            format!("[\n{}\n{pad}]", body.join(",\n"))
        }
        other => other.emit(),
    }
}

/// Gates the telemetry overhead on the `evaluate_module_1bank` kernel
/// (see `kernel_overhead_gate`) in two arms: an enabled registry
/// installed, and the live observability plane armed on top — a primed
/// time-series ring and an open tree span over the measurement. The
/// kernel itself never samples, so an armed sampler must cost the same as
/// plain enabled telemetry.
fn overhead_cmd() -> i32 {
    let enabled = |measure: &mut dyn FnMut()| {
        let _ = telemetry::collect(measure);
    };
    let sampled = |measure: &mut dyn FnMut()| {
        let _ = telemetry::collect(|| {
            let _ = telemetry::sample_point(0, &[("obs.armed", 1)]);
            let _root = telemetry::tree_span("obs.overhead");
            measure();
        });
    };
    crate::kernel_overhead_gate(
        "obs",
        "telemetry",
        &[("enabled", &enabled), ("sampled", &sampled)],
    )
}
