//! `xtask crash` — the crash-recovery soak gate for the durable store.
//!
//! Each crash point drives the reference workload through a store-backed
//! [`MemconEngine`], kills it mid-run at a seeded fraction of the trace,
//! then truncates the newest WAL segment (its progress markers) at a
//! seeded random offset — modelling a power cut that lands anywhere
//! inside a write. Recovery must come back up from the newest snapshot,
//! truncate the torn tail to the last intact record (reporting every
//! discarded byte), and resume; the finished run must be byte-identical
//! to an uninterrupted storeless reference run of the same trace (report,
//! recovery counters, and final refresh bins).
//!
//! Two adversarial legs ride along:
//!
//! * **corrupt-checksum** — one byte in the middle of the surviving WAL is
//!   flipped (latent media corruption rather than a torn write); recovery
//!   must stop its scan at the corrupt record and report the truncation —
//!   never silently load state past it;
//! * **injected torn write** — the `store.torn_write` fault site fires
//!   during the run, poisoning the store mid-flight; the simulation must
//!   finish unaffected and the half-written tail must recover cleanly.
//!
//! `--quick` soaks 4 crash points (the CI configuration); the default is
//! 16.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use faultinject::{FaultPlan, Schedule, Site, SiteSpec};
use memcon::config::MemconConfig;
use memcon::engine::{MemconEngine, MemconReport, RecoveryStats};
use memcon::refreshmgr::PageState;
use memtrace::trace::WriteTrace;
use memutil::rng::{Rng, SeedableRng, SmallRng};
use store::DurabilityMode;

/// Base seed of crash point `i` (point seed = base + i).
const CRASH_SEED_BASE: u64 = 0xC4A0_6000;

/// Crash points in the default (full) soak.
const FULL_POINTS: usize = 16;

/// Crash points under `--quick` (the CI leg).
const QUICK_POINTS: usize = 4;

/// Entry point for `xtask crash <args>`; returns a process exit code.
#[must_use]
pub fn crash_cmd(args: &[String]) -> i32 {
    let mut points = FULL_POINTS;
    for arg in args {
        if arg == "--quick" {
            points = QUICK_POINTS;
        } else if let Some(v) = arg.strip_prefix("--points=") {
            let Ok(n) = v.parse() else {
                eprintln!("crash: --points expects a number, got '{v}'");
                return 2;
            };
            points = n;
        } else {
            eprintln!("crash: unknown argument {arg:?} (expected --quick, --points=N)");
            return 2;
        }
    }
    if points == 0 {
        eprintln!("crash: --points must be at least 1");
        return 2;
    }
    match soak(points) {
        Ok(summary) => {
            println!("crash: {summary}");
            0
        }
        Err(e) => {
            eprintln!("crash: FAILED: {e}");
            1
        }
    }
}

/// Everything the cross-run comparison needs from one finished engine.
type RunOutcome = (MemconReport, RecoveryStats, Vec<PageState>);

/// The workload every leg replays (fixed: the gate compares runs, and a
/// crashed run can only be resumed with the same trace).
fn reference_trace() -> WriteTrace {
    memtrace::workload::WorkloadProfile::netflix()
        .scaled(0.02)
        .generate(CRASH_SEED_BASE)
}

/// An uninterrupted storeless run of `trace` — the ground truth every
/// recovered run must reproduce exactly.
fn reference_run(trace: &WriteTrace) -> RunOutcome {
    let mut engine = MemconEngine::new(MemconConfig::paper_default(), trace.n_pages());
    let report = engine.run(trace);
    (
        report,
        engine.recovery_stats(),
        engine.final_states().to_vec(),
    )
}

fn soak(points: usize) -> Result<String, String> {
    let trace = reference_trace();
    let reference = reference_run(&trace);

    let mut torn_tails = 0usize;
    let mut total_truncated = 0u64;
    let mut total_replayed = 0u64;
    for i in 0..points {
        let seed = CRASH_SEED_BASE + i as u64;
        let (truncated, replayed) = crash_point(&trace, &reference, seed)
            .map_err(|e| format!("crash point {}/{points} (seed {seed:#x}): {e}", i + 1))?;
        torn_tails += usize::from(truncated > 0);
        total_truncated += truncated;
        total_replayed += replayed;
    }
    if torn_tails == 0 {
        return Err(format!(
            "none of the {points} random WAL offsets landed mid-record (soak proved nothing)"
        ));
    }
    let corrupt_truncated = corrupt_checksum_leg(&trace, &reference)?;
    injected_torn_write_leg(&trace, &reference)?;
    Ok(format!(
        "{points} crash point(s) recovered to the reference run ({torn_tails} torn tails, \
         {total_truncated} bytes truncated, {total_replayed} progress markers scanned); \
         corrupt-checksum leg truncated {corrupt_truncated} bytes; \
         injected torn write recovered clean"
    ))
}

/// One kill-at-random-WAL-offset point: crash at a seeded fraction of the
/// trace, truncate the newest WAL segment at a seeded offset, recover,
/// resume, and compare against the reference. Returns
/// `(truncated_bytes, replayed_records)`.
fn crash_point(
    trace: &WriteTrace,
    reference: &RunOutcome,
    seed: u64,
) -> Result<(u64, u64), String> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let dir = store::scratch_dir(&format!("xtask-crash-{seed:x}"));
    // Crash somewhere in the middle 10%..90% of the trace; cadence far
    // past the run so the whole partial run sits in one WAL tail segment
    // and a random offset always has records to land in.
    let crash_ns = trace.duration_ns() / 10 * (1 + rng.gen_range(0..9u64));
    run_to_crash(trace, &dir, crash_ns, None)?;
    let tail = newest_wal_segment(&dir)
        .ok_or_else(|| "crashed run left no WAL tail segment".to_string())?;
    let len = file_len(&tail)?;
    // Truncate anywhere in the segment — a frame boundary (clean tail) is
    // a legitimate outcome; the soak-level check requires only that *some*
    // point tears mid-record.
    let offset = rng.gen_range(0..len);
    set_len(&tail, offset)?;
    let (truncated, replayed) = recover_and_compare(trace, &dir, reference)?;
    let _ = std::fs::remove_dir_all(&dir);
    Ok((truncated, replayed))
}

/// The corrupt-checksum leg: flip one byte in the middle of the WAL tail
/// (not truncation — the file keeps its length) and require recovery to
/// stop its scan at the corrupt record and report everything after it as
/// truncated. Returns the truncated byte count.
fn corrupt_checksum_leg(trace: &WriteTrace, reference: &RunOutcome) -> Result<u64, String> {
    let dir = store::scratch_dir("xtask-crash-corrupt");
    run_to_crash(trace, &dir, trace.duration_ns() / 2, None)?;
    let tail = newest_wal_segment(&dir)
        .ok_or_else(|| "crashed run left no WAL tail segment".to_string())?;
    let mut bytes = std::fs::read(&tail).map_err(|e| format!("read {}: {e}", tail.display()))?;
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&tail, &bytes).map_err(|e| format!("write {}: {e}", tail.display()))?;
    let (truncated, _) = recover_and_compare(trace, &dir, reference)?;
    if truncated == 0 {
        return Err(
            "a flipped byte mid-WAL was not reported as a truncation (corrupt state \
             would have been loaded silently)"
                .to_string(),
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(truncated)
}

/// The injected-fault leg: the `store.torn_write` site fires once
/// mid-run, leaving a half-written frame and a poisoned store. The
/// simulation must still finish byte-identically, and the torn tail must
/// recover (detecting the tear) and resume to the same result.
fn injected_torn_write_leg(trace: &WriteTrace, reference: &RunOutcome) -> Result<(), String> {
    let dir = store::scratch_dir("xtask-crash-injected");
    let plan = Arc::new(FaultPlan::new(CRASH_SEED_BASE).with_site(
        Site::StoreTornWrite,
        SiteSpec {
            rate: 1.0,
            schedule: Schedule::OneShot { at: 24 },
        },
    ));
    let mut engine = MemconEngine::new(MemconConfig::paper_default(), trace.n_pages());
    engine.set_fault_plan(Some(Arc::clone(&plan)));
    let s = store::Store::create(&dir, DurabilityMode::Buffered)
        .map_err(|e| format!("create store: {e}"))?;
    engine
        .attach_store(s, 10_000)
        .map_err(|e| format!("attach store: {e}"))?;
    let report = engine.run(trace);
    if engine.store_error().is_none() {
        return Err("the armed store.torn_write site never fired".to_string());
    }
    let outcome = (
        report,
        engine.recovery_stats(),
        engine.final_states().to_vec(),
    );
    if &outcome != reference {
        return Err(
            "a torn store write perturbed the simulation (store faults must stay \
             on the durability plane)"
                .to_string(),
        );
    }
    drop(engine);
    let (_, rec) = MemconEngine::recover(&dir, trace, DurabilityMode::Buffered, None)
        .map_err(|e| format!("recovery after injected torn write: {e}"))?;
    if rec.truncated_bytes == 0 {
        return Err("the half-written frame was not detected at recovery".to_string());
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// Runs a store-backed engine up to `crash_ns` and drops it mid-run
/// (snapshot cadence pinned past the run end, so the anchor snapshot is
/// the only one and the WAL tail holds a marker for every quantum of the
/// partial run).
fn run_to_crash(
    trace: &WriteTrace,
    dir: &Path,
    crash_ns: u64,
    plan: Option<Arc<FaultPlan>>,
) -> Result<(), String> {
    let mut engine = MemconEngine::new(MemconConfig::paper_default(), trace.n_pages());
    engine.set_fault_plan(plan);
    let s = store::Store::create(dir, DurabilityMode::Buffered)
        .map_err(|e| format!("create store: {e}"))?;
    engine
        .attach_store(s, 10_000)
        .map_err(|e| format!("attach store: {e}"))?;
    engine.begin_run(trace);
    engine.advance_until(trace, crash_ns);
    if !engine.mid_run() {
        return Err("crash point landed past the end of the run".to_string());
    }
    Ok(())
}

/// Recovers the engine in `dir`, resumes it with `trace`, and compares
/// the finished run against `reference`. Returns
/// `(truncated_bytes, replayed_records)` from the recovery scan.
fn recover_and_compare(
    trace: &WriteTrace,
    dir: &Path,
    reference: &RunOutcome,
) -> Result<(u64, u64), String> {
    let (mut engine, rec) = MemconEngine::recover(dir, trace, DurabilityMode::Buffered, None)
        .map_err(|e| format!("recovery: {e}"))?;
    if !engine.mid_run() {
        return Err("recovered engine is not mid-run".to_string());
    }
    engine.advance_until(trace, trace.duration_ns());
    let report = engine.finish_run();
    let outcome = (
        report,
        engine.recovery_stats(),
        engine.final_states().to_vec(),
    );
    if &outcome != reference {
        return Err(
            "resumed run diverges from the uninterrupted reference (report, recovery \
             counters, or final refresh bins)"
                .to_string(),
        );
    }
    Ok((rec.truncated_bytes, rec.replayed_records))
}

/// The highest-sequence `.wal` segment in `dir`, if any.
fn newest_wal_segment(dir: &Path) -> Option<PathBuf> {
    let mut segments: Vec<_> = std::fs::read_dir(dir)
        .ok()?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "wal"))
        .collect();
    segments.sort();
    segments.pop()
}

fn file_len(path: &Path) -> Result<u64, String> {
    std::fs::metadata(path)
        .map(|m| m.len())
        .map_err(|e| format!("stat {}: {e}", path.display()))
}

fn set_len(path: &Path, len: u64) -> Result<(), String> {
    std::fs::OpenOptions::new()
        .write(true)
        .open(path)
        .and_then(|f| f.set_len(len))
        .map_err(|e| format!("truncate {}: {e}", path.display()))
}
