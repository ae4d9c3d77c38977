//! `xtask crash` — the crash-recovery soak gate for the durable fleet.
//!
//! A durable fleet publishes one snapshot image per epoch barrier, and
//! that publication is the only write its store makes. Each crash point
//! runs the reference fleet on a store, drops it at a seeded barrier `e`
//! (at least 1, before the last), then models a kill in the middle of
//! publishing image `e`: the image is truncated at a seeded byte offset,
//! or it becomes a `snap-<e>.snap.tmp` of seeded length — a kill before
//! the rename. Recovery must report the torn image (skipped, or its temp
//! file removed, with its bytes counted as discarded), resume at barrier
//! `e − 1`, and finish byte-identical to the same fleet run in memory:
//! the fleet report, and the registry's deterministic section once every
//! `store.*` key is removed (the durability plane legitimately did extra
//! work). Recoveries cycle through 1, 2 and 4 workers.
//!
//! Two adversarial legs ride along:
//!
//! * **corrupt-checksum** — one byte in the middle of the newest image is
//!   flipped (latent media corruption rather than a torn write); recovery
//!   must skip that image, never load it, and resume from the one before
//!   to the same result;
//! * **injected torn write** — the `store.torn_write` fault site fires on
//!   a mid-run publication; the fleet must latch the error, still finish
//!   with the reference result (store faults stay on the durability
//!   plane), and its directory must recover from the image before the
//!   tear to the same result.
//!
//! `--quick` soaks 4 crash points (the CI configuration); the default is
//! 16.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use faultinject::{FaultPlan, Schedule, Site, SiteSpec};
use fleet::{Fleet, FleetConfig, FleetPlan, FleetRecovery};
use memutil::json::Json;
use memutil::rng::{Rng, SeedableRng, SmallRng};
use store::StoreError;

/// Base seed of crash point `i` (point seed = base + i); also the fleet
/// seed.
const CRASH_SEED_BASE: u64 = 0xC4A0_6000;

/// Crash points in the default (full) soak.
const FULL_POINTS: usize = 16;

/// Crash points under `--quick` (the CI leg).
const QUICK_POINTS: usize = 4;

/// Worker counts the crash points recover at, in turn.
const RECOVER_JOBS: [usize; 3] = [1, 2, 4];

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

/// What every resumed run must reproduce: the fleet report's
/// deterministic emit, and the registry's deterministic section without
/// `store.*` keys.
#[derive(Debug, PartialEq)]
struct Outcome {
    report: String,
    telemetry: String,
}

/// Preempted tests and torn read-backs, so checkpoints carry retries,
/// back-offs and pins.
fn engine_faults() -> FaultPlan {
    FaultPlan::new(CRASH_SEED_BASE)
        .with_site(Site::TestPreempt, SiteSpec::rate(0.2))
        .with_site(Site::TornRead, SiteSpec::rate(0.2))
}

/// The fleet every leg runs (fixed: the gate compares runs, and a crashed
/// fleet can only resume with the same plan): 8 shards, one quantum per
/// epoch, under `faults`.
fn fleet_plan(faults: FaultPlan) -> FleetPlan {
    let mut config = FleetConfig::small(8, CRASH_SEED_BASE);
    config.epoch_quanta = 1;
    config.fault_plan = Some(Arc::new(faults));
    FleetPlan::expand(&config, 1)
}

/// `plan` on a store in `dir`.
fn durable(plan: &FleetPlan, dir: &Path) -> FleetPlan {
    let mut plan = plan.clone();
    plan.config.store_dir = Some(dir.to_path_buf());
    plan
}

/// Runs `f` under a fresh enabled registry; returns its result and the
/// registry's deterministic section with every `store.*` key removed.
fn observed<T>(f: impl FnOnce() -> T) -> (T, String) {
    let registry = Arc::new(telemetry::Registry::new());
    registry.set_enabled(true);
    let guard = telemetry::install(Arc::clone(&registry));
    let out = f();
    drop(guard);
    let det = registry
        .report()
        .get("deterministic")
        .cloned()
        .unwrap_or_else(Json::obj);
    (out, without_store_keys(&det).emit())
}

/// `j` with every object field named `store.*` removed, at any depth —
/// the counters and the time-series point deltas alike.
fn without_store_keys(j: &Json) -> Json {
    match j {
        Json::Obj(fields) => Json::Obj(
            fields
                .iter()
                .filter(|(k, _)| !k.starts_with("store."))
                .map(|(k, v)| (k.clone(), without_store_keys(v)))
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.iter().map(without_store_keys).collect()),
        leaf => leaf.clone(),
    }
}

/// The in-memory run of `plan` every recovered run must reproduce, and
/// the number of epochs it took.
fn reference_run(plan: &FleetPlan) -> (Outcome, u64) {
    let ((report, epochs), telemetry) = observed(|| {
        let mut fleet = Fleet::new(plan);
        let report = fleet.run_to_completion(1).deterministic_emit();
        (report, fleet.epoch())
    });
    (Outcome { report, telemetry }, epochs)
}

fn soak(points: usize) -> Result<String, String> {
    let plan = fleet_plan(engine_faults());
    let (reference, epochs) = reference_run(&plan);
    let mut before_rename = 0usize;
    let mut discarded = 0u64;
    for i in 0..points {
        let seed = CRASH_SEED_BASE + i as u64;
        let jobs = RECOVER_JOBS[i % RECOVER_JOBS.len()];
        let (tmp, bytes) = crash_point(&plan, &reference, epochs, seed, jobs).map_err(|e| {
            format!(
                "crash point {}/{points} (seed {seed:#x}, jobs {jobs}): {e}",
                i + 1
            )
        })?;
        before_rename += usize::from(tmp);
        discarded += bytes;
    }
    let corrupt = corrupt_checksum_leg(&plan, &reference, epochs)?;
    injected_torn_write_leg(&reference, epochs)?;
    Ok(format!(
        "{points} crash point(s) landed mid-image and recovered to the in-memory reference \
         ({} truncated images, {before_rename} interrupted before rename, {discarded} bytes \
         discarded); corrupt-checksum leg skipped a {corrupt}-byte image; injected torn write \
         recovered clean",
        points - before_rename
    ))
}

/// One crash point: crash at a seeded barrier `e`, tear image `e` at a
/// seeded offset (in place, or as the temp file of an unfinished
/// publication), recover at `jobs`, resume, and compare. Returns whether
/// the tear was a temp file, and the bytes recovery discarded.
fn crash_point(
    plan: &FleetPlan,
    reference: &Outcome,
    epochs: u64,
    seed: u64,
    jobs: usize,
) -> Result<(bool, u64), String> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let dir = store::scratch_dir(&format!("xtask-crash-{seed:x}"));
    let plan = durable(plan, &dir);
    let crash_at = rng.gen_range(1..epochs);
    run_to_barrier(&plan, jobs, crash_at)?;
    let image = image_path(&dir, crash_at);
    let len = file_len(&image)?;
    let cut = rng.gen_range(1..len);
    let before_rename = rng.gen_bool(0.5);
    let torn = if before_rename {
        let tmp = dir.join(format!("snap-{crash_at:08}.snap.tmp"));
        std::fs::rename(&image, &tmp)
            .map_err(|e| format!("rename {} to {}: {e}", image.display(), tmp.display()))?;
        tmp
    } else {
        image
    };
    set_len(&torn, cut)?;
    let rec = recover_and_compare(&plan, jobs, crash_at - 1, reference)?;
    // The point proves it landed mid-image only if recovery saw the tear.
    let skipped = u64::from(!before_rename);
    if rec.truncated_bytes != cut || rec.snapshots_skipped != skipped || torn.exists() {
        return Err(format!(
            "image {crash_at} torn at byte {cut} of {len} ({}), but recovery discarded {} \
             bytes, skipped {} image(s) and left the torn file {}",
            if before_rename {
                "before rename"
            } else {
                "in place"
            },
            rec.truncated_bytes,
            rec.snapshots_skipped,
            if torn.exists() { "behind" } else { "gone" }
        ));
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok((before_rename, cut))
}

/// The corrupt-checksum leg: flip one byte in the middle of the newest
/// image (not truncation — the file keeps its length); recovery must skip
/// it and resume from the image before. Returns the skipped image's size.
fn corrupt_checksum_leg(plan: &FleetPlan, reference: &Outcome, epochs: u64) -> Result<u64, String> {
    let dir = store::scratch_dir("xtask-crash-corrupt");
    let plan = durable(plan, &dir);
    let crash_at = epochs / 2;
    run_to_barrier(&plan, 1, crash_at)?;
    let image = image_path(&dir, crash_at);
    let mut bytes = std::fs::read(&image).map_err(|e| format!("read {}: {e}", image.display()))?;
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&image, &bytes).map_err(|e| format!("write {}: {e}", image.display()))?;
    let rec = recover_and_compare(&plan, 1, crash_at - 1, reference)?;
    if rec.snapshots_skipped != 1 || rec.truncated_bytes != bytes.len() as u64 {
        return Err(format!(
            "a flipped byte mid-image was not skipped (skipped {}, discarded {} bytes): \
             corrupt state would have been loaded silently",
            rec.snapshots_skipped, rec.truncated_bytes
        ));
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(rec.truncated_bytes)
}

/// The injected-fault leg: the `store.torn_write` site fires on the
/// publication of a mid-run image, leaving half of it in a temp file and
/// latching the fleet's store error. The fleet must still finish with the
/// reference result, and its directory must recover from the image
/// before the tear to the same result.
fn injected_torn_write_leg(reference: &Outcome, epochs: u64) -> Result<(), String> {
    let dir = store::scratch_dir("xtask-crash-injected");
    // Store decisions are keyed by image sequence number, and the anchor
    // is image 0, so image `torn_at` is the one of barrier `torn_at`.
    let torn_at = epochs / 2;
    let armed = engine_faults().with_site(
        Site::StoreTornWrite,
        SiteSpec {
            rate: 1.0,
            schedule: Schedule::OneShot { at: torn_at },
        },
    );
    let plan = durable(&fleet_plan(armed), &dir);
    let ((report, error), telemetry) = observed(|| {
        let mut fleet = Fleet::new(&plan);
        let report = fleet.run_to_completion(1).deterministic_emit();
        (report, fleet.meta_store_error().cloned())
    });
    if error != Some(StoreError::TornWrite) {
        return Err(format!(
            "the armed store.torn_write site did not latch a torn write: {error:?}"
        ));
    }
    if (Outcome { report, telemetry }) != *reference {
        return Err(
            "a torn store write perturbed the simulation (store faults must stay on the \
             durability plane)"
                .to_string(),
        );
    }
    let rec = recover_and_compare(&plan, 1, torn_at - 1, reference)?;
    if rec.truncated_bytes == 0 {
        return Err("the half-written temp image was not discarded at recovery".to_string());
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// Runs a fresh durable fleet of `plan` to epoch barrier `barrier` and
/// drops it there, mid-run. The process that crashes takes its registry
/// with it, so the run counts into a throwaway one.
fn run_to_barrier(plan: &FleetPlan, jobs: usize, barrier: u64) -> Result<(), String> {
    let (result, _) = observed(|| {
        let mut fleet = Fleet::new(plan);
        for _ in 0..barrier {
            if !fleet.run_epoch(jobs) {
                return Err(format!("the fleet finished before barrier {barrier}"));
            }
        }
        match fleet.meta_store_error() {
            Some(e) => Err(format!("publishing failed before the crash: {e}")),
            None => Ok(()),
        }
    });
    result
}

/// Recovers `plan`'s fleet at `jobs`, checks it resumed at barrier
/// `resume_at`, runs it to completion, and compares against `reference`.
/// Returns what recovery reported.
fn recover_and_compare(
    plan: &FleetPlan,
    jobs: usize,
    resume_at: u64,
    reference: &Outcome,
) -> Result<FleetRecovery, String> {
    let (result, telemetry) = observed(|| {
        let (mut fleet, rec) = Fleet::recover(plan, jobs).map_err(|e| format!("recovery: {e}"))?;
        if fleet.epoch() != resume_at {
            return Err(format!(
                "recovery resumed at barrier {}, not {resume_at}",
                fleet.epoch()
            ));
        }
        let report = fleet.run_to_completion(jobs).deterministic_emit();
        Ok((report, rec))
    });
    let (report, rec) = result?;
    if report != reference.report {
        return Err("the resumed fleet's report diverges from the in-memory run".to_string());
    }
    if telemetry != reference.telemetry {
        return Err(
            "the resumed fleet's deterministic telemetry (store.* removed) diverges from the \
             in-memory run"
                .to_string(),
        );
    }
    Ok(rec)
}

fn image_path(dir: &Path, barrier: u64) -> PathBuf {
    dir.join(format!("snap-{barrier:08}.snap"))
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
