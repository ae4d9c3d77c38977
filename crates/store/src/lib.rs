//! Durable state store for MEMCON: atomically published, checksummed
//! snapshots.
//!
//! The paper's thesis is that retention knowledge is expensive to acquire
//! and therefore worth keeping; this crate makes it survive a process
//! death. MEMCON's input trace is deterministic and fingerprinted, so one
//! snapshot of the state plus the trace is the whole state: recovery
//! restores the newest snapshot and the caller re-simulates from it. The
//! store keeps only what that needs:
//!
//! * **Publish** — [`Store::publish_snapshot`] writes an opaque state blob
//!   as `snap-<seq>.snap` atomically: write a temp file, then rename it
//!   into place, fsyncing the file and the directory in `Strict` mode
//!   ([`snapshot`] holds the checksummed format). The newest two snapshots
//!   are kept.
//! * **Open** — [`Store::open`] loads the newest snapshot that passes its
//!   checksum. Corrupt or short images are skipped and deleted, never
//!   loaded, and interrupted publications (`snap-<seq>.snap.tmp`) are
//!   removed; both count their bytes as discarded. A store with no usable
//!   snapshot is refused.
//!
//! Two [`DurabilityMode`]s trade safety for speed: `Buffered` (no fsync —
//! crash consistency relies on the OS) and `Strict` (fsync through every
//! publication step).
//!
//! Fault injection: publishing consults the `store.torn_write` and
//! `store.corrupt_record` sites of an attached [`FaultSession`], and
//! opening consults `store.short_read`, so every fallback branch can be
//! driven deterministically. Each decision is keyed by the image's
//! sequence number rather than drawn from the session's running count, so
//! a store reopened after a crash makes the same decision for the same
//! image as the store that never stopped (a `OneShot { at }` schedule
//! names image `at`).
//!
//! Telemetry: `store.snap.published` and `store.recovery.truncated_bytes`
//! — both [`telemetry::Class::Deterministic`] (counts of deterministic
//! events), though they describe the durability plane itself: a
//! crashed-and-recovered run legitimately differs from an uninterrupted
//! one in `store.*` (it did extra durability work), which is why the crash
//! gate compares deterministic sections *minus* `store.*`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod snapshot;

pub use snapshot::{crc32, Snapshot};

use std::collections::BTreeMap;
use std::fmt;
use std::fs::{self, File};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use faultinject::{FaultPlan, FaultSession, Site};

const SNAPS_PUBLISHED: &str = "store.snap.published";
const RECOVERY_TRUNCATED: &str = "store.recovery.truncated_bytes";

/// How many of the newest snapshots survive pruning: the current one plus
/// one fallback in case the newest is found corrupt at recovery.
const KEEP_SNAPSHOTS: u64 = 2;

/// Durability/performance trade-off, selectable per store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DurabilityMode {
    /// Real files, no fsync: survives process death (the OS flushes),
    /// not power loss. The default.
    #[default]
    Buffered,
    /// fsync through every snapshot publication step (temp file, rename,
    /// containing directory).
    Strict,
}

/// Errors surfaced by the store and by the recovery paths built on it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// File IO failed (path and OS error inside).
    Io(String),
    /// Loading would mean loading bad state: no usable snapshot, an
    /// undecodable or inconsistent payload, or refusing to overwrite an
    /// existing store.
    Corrupt(String),
    /// The requested state cannot be persisted or recovered (e.g. a fleet
    /// with no store directory, or one whose runs already finished).
    Unsupported(String),
    /// An injected torn write: half the image reached its temp file,
    /// which was never renamed into place. That is the disk state a kill
    /// between write and rename leaves; the caller treats it as the crash
    /// it simulates.
    TornWrite,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(m) => write!(f, "store io error: {m}"),
            StoreError::Corrupt(m) => write!(f, "store corruption: {m}"),
            StoreError::Unsupported(m) => write!(f, "store unsupported: {m}"),
            StoreError::TornWrite => write!(f, "store: injected torn write"),
        }
    }
}

impl std::error::Error for StoreError {}

fn io_err(what: &str, path: &Path, e: &std::io::Error) -> StoreError {
    StoreError::Io(format!("{what} {}: {e}", path.display()))
}

/// What [`Store::open`] loaded and discarded.
#[derive(Debug)]
pub struct Recovered {
    /// Newest snapshot that passed verification.
    pub snapshot: Snapshot,
    /// Bytes discarded: interrupted temp images and skipped snapshots.
    pub truncated_bytes: u64,
    /// Corrupt snapshot files skipped (and deleted) before a valid one
    /// was found.
    pub snapshots_skipped: u64,
}

/// An open durable store rooted at one directory.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    mode: DurabilityMode,
    snap_seq: u64,
    faults: Option<FaultSession>,
}

impl Store {
    /// Creates a fresh store in `dir` (created if absent). Refuses to
    /// build over an existing store's snapshots — recovery must be
    /// explicit, via [`Store::open`].
    ///
    /// # Errors
    ///
    /// IO failures, or [`StoreError::Corrupt`] when `dir` already holds
    /// snapshots.
    pub fn create(dir: &Path, mode: DurabilityMode) -> Result<Store, StoreError> {
        fs::create_dir_all(dir).map_err(|e| io_err("create dir", dir, &e))?;
        let (snaps, _) = list_store_files(dir)?;
        if !snaps.is_empty() {
            return Err(StoreError::Corrupt(format!(
                "{} already holds snapshots; open it instead of creating over it",
                dir.display()
            )));
        }
        Ok(Store {
            dir: dir.to_path_buf(),
            mode,
            snap_seq: 0,
            faults: None,
        })
    }

    /// Opens an existing store: removes interrupted temp images, then
    /// loads the newest snapshot that verifies, deleting every newer one
    /// that does not. Touches nothing but the store's own files.
    ///
    /// `plan` arms the `store.short_read` site for the reads here and
    /// stays attached for subsequent publications; pass `None` for a
    /// clean open.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] naming the path when `dir` is missing (nothing
    /// is created) or a file operation fails; [`StoreError::Corrupt`] when
    /// no snapshot verifies.
    pub fn open(
        dir: &Path,
        mode: DurabilityMode,
        plan: Option<Arc<FaultPlan>>,
    ) -> Result<(Store, Recovered), StoreError> {
        let mut faults = plan.map(FaultSession::with_plan);
        let (snaps, tmps) = list_store_files(dir)?;
        let mut truncated_bytes = 0;
        for tmp in &tmps {
            // Interrupted publications: never renamed, never valid.
            truncated_bytes += fs::metadata(tmp)
                .map_err(|e| io_err("stat tmp", tmp, &e))?
                .len();
            fs::remove_file(tmp).map_err(|e| io_err("remove tmp", tmp, &e))?;
        }

        // Newest snapshot that verifies wins; bad ones are deleted so they
        // can never shadow a good one again.
        let mut snapshots_skipped = 0;
        let mut found = None;
        for (&seq, path) in snaps.iter().rev() {
            let mut bytes = fs::read(path).map_err(|e| io_err("read snapshot", path, &e))?;
            let len = bytes.len() as u64;
            if faults
                .as_mut()
                .is_some_and(|s| s.fires_keyed(Site::StoreShortRead, seq))
            {
                bytes.truncate(bytes.len() / 2);
            }
            match snapshot::decode(&bytes) {
                Ok(snap) if snap.seq == seq => {
                    found = Some(snap);
                    break;
                }
                Ok(_) | Err(_) => {
                    snapshots_skipped += 1;
                    truncated_bytes += len;
                    fs::remove_file(path).map_err(|e| io_err("remove snapshot", path, &e))?;
                }
            }
        }
        if telemetry::enabled() {
            telemetry::count(RECOVERY_TRUNCATED, truncated_bytes);
        }
        let snapshot = found.ok_or_else(|| {
            StoreError::Corrupt(format!("{} holds no usable image", dir.display()))
        })?;
        let store = Store {
            dir: dir.to_path_buf(),
            mode,
            snap_seq: snapshot.seq + 1,
            faults,
        };
        Ok((
            store,
            Recovered {
                snapshot,
                truncated_bytes,
                snapshots_skipped,
            },
        ))
    }

    /// Attaches (or clears) the fault session consulted when publishing
    /// (`store.torn_write`, `store.corrupt_record`).
    pub fn set_fault_session(&mut self, session: Option<FaultSession>) {
        self.faults = session;
    }

    /// Publishes `payload` as the next snapshot — atomically (write-temp,
    /// fsync, rename) — then prunes all but the newest two snapshots.
    ///
    /// # Errors
    ///
    /// IO failures, or [`StoreError::TornWrite`] when the armed
    /// `store.torn_write` site fires (half the image is left in its temp
    /// file, exactly like a kill between write and rename). A fired
    /// `store.corrupt_record` site flips one byte of the image and
    /// publishes it; the next [`Store::open`] skips it.
    pub fn publish_snapshot(&mut self, payload: &[u8]) -> Result<(), StoreError> {
        let mut image = snapshot::encode(self.snap_seq, payload);
        let mut written = image.len();
        if let Some(session) = self.faults.as_mut() {
            if session.fires_keyed(Site::StoreTornWrite, self.snap_seq) {
                written /= 2;
            } else if session.fires_keyed(Site::StoreCorruptRecord, self.snap_seq) {
                let mid = image.len() / 2;
                image[mid] ^= 0x01;
            }
        }
        let strict = self.mode == DurabilityMode::Strict;
        let tmp = self.dir.join(format!("snap-{:08}.snap.tmp", self.snap_seq));
        {
            let mut f = File::create(&tmp).map_err(|e| io_err("create tmp", &tmp, &e))?;
            f.write_all(&image[..written])
                .map_err(|e| io_err("write snapshot", &tmp, &e))?;
            if strict {
                f.sync_all()
                    .map_err(|e| io_err("fsync snapshot", &tmp, &e))?;
            }
        }
        if written < image.len() {
            return Err(StoreError::TornWrite);
        }
        let fin = self.dir.join(format!("snap-{:08}.snap", self.snap_seq));
        fs::rename(&tmp, &fin).map_err(|e| io_err("publish snapshot", &fin, &e))?;
        if strict {
            let d = File::open(&self.dir).map_err(|e| io_err("open dir", &self.dir, &e))?;
            d.sync_all()
                .map_err(|e| io_err("fsync dir", &self.dir, &e))?;
        }
        // Prune beyond the keep window. A crash between rename and here
        // only leaves older images that recovery never reaches.
        let keep = self.snap_seq.saturating_sub(KEEP_SNAPSHOTS - 1);
        let (snaps, _) = list_store_files(&self.dir)?;
        for path in snaps.range(..keep).map(|(_, path)| path) {
            fs::remove_file(path).map_err(|e| io_err("prune snapshot", path, &e))?;
        }
        self.snap_seq += 1;
        if telemetry::enabled() {
            telemetry::count(SNAPS_PUBLISHED, 1);
        }
        Ok(())
    }
}

/// The store's own files in `dir`: snapshots keyed and ordered by
/// sequence number, and interrupted publications (`snap-<seq>.snap.tmp`).
/// Every other name is left alone.
fn list_store_files(dir: &Path) -> Result<(BTreeMap<u64, PathBuf>, Vec<PathBuf>), StoreError> {
    let mut snaps = BTreeMap::new();
    let mut tmps = Vec::new();
    let entries = fs::read_dir(dir).map_err(|e| io_err("read dir", dir, &e))?;
    for entry in entries {
        let entry = entry.map_err(|e| io_err("read dir entry", dir, &e))?;
        let path = entry.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if let Some(seq) = parse_seq(name, ".snap") {
            snaps.insert(seq, path);
        } else if parse_seq(name, ".snap.tmp").is_some() {
            tmps.push(path);
        }
    }
    tmps.sort();
    Ok((snaps, tmps))
}

/// The sequence number of `snap-<seq><suffix>`, if `name` has that shape.
fn parse_seq(name: &str, suffix: &str) -> Option<u64> {
    name.strip_prefix("snap-")?
        .strip_suffix(suffix)?
        .parse()
        .ok()
}

/// A per-process-unique scratch directory for store tests and harnesses:
/// `<tmp>/memcon-store-scratch/<label>-<pid>`. Callers pass a unique
/// label (their test name), the pid isolates concurrent `cargo test`
/// processes, so parallel test threads never collide. Any leftover from
/// a previous crashed run is removed first.
#[must_use]
pub fn scratch_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("memcon-store-scratch")
        .join(format!("{label}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultinject::{Schedule, SiteSpec};

    fn cleanup(dir: &Path) {
        let _ = fs::remove_dir_all(dir);
    }

    /// A plan firing `site` exactly once, on image `at`.
    fn one_shot(site: Site, at: u64) -> Arc<FaultPlan> {
        Arc::new(FaultPlan::new(0xF00D).with_site(
            site,
            SiteSpec {
                rate: 1.0,
                schedule: Schedule::OneShot { at },
            },
        ))
    }

    /// A fresh store in `dir` holding `payloads`, published in order.
    fn store_with(dir: &Path, mode: DurabilityMode, payloads: &[&[u8]]) -> Store {
        let mut s = Store::create(dir, mode).unwrap();
        for p in payloads {
            s.publish_snapshot(p).unwrap();
        }
        s
    }

    fn snapshot_file(dir: &Path, seq: u64) -> PathBuf {
        dir.join(format!("snap-{seq:08}.snap"))
    }

    #[test]
    fn buffered_store_round_trips_and_keeps_two_snapshots() {
        let dir = scratch_dir("round-trip");
        drop(store_with(
            &dir,
            DurabilityMode::Buffered,
            &[b"round-0", b"round-1", b"round-2", b"round-3"],
        ));
        let (snaps, tmps) = list_store_files(&dir).unwrap();
        assert_eq!(snaps.keys().copied().collect::<Vec<_>>(), vec![2, 3]);
        assert!(tmps.is_empty());
        let (mut s, rec) = Store::open(&dir, DurabilityMode::Buffered, None).unwrap();
        assert_eq!(rec.snapshot.seq, 3);
        assert_eq!(rec.snapshot.payload, b"round-3");
        assert_eq!((rec.truncated_bytes, rec.snapshots_skipped), (0, 0));
        // Publishing continues the sequence.
        s.publish_snapshot(b"round-4").unwrap();
        let (_, rec) = Store::open(&dir, DurabilityMode::Buffered, None).unwrap();
        assert_eq!(
            (rec.snapshot.seq, rec.snapshot.payload),
            (4, b"round-4".to_vec())
        );
        cleanup(&dir);
    }

    #[test]
    fn strict_mode_round_trips_too() {
        let dir = scratch_dir("strict");
        drop(store_with(&dir, DurabilityMode::Strict, &[b"strict-state"]));
        let (_, rec) = Store::open(&dir, DurabilityMode::Strict, None).unwrap();
        assert_eq!(rec.snapshot.payload, b"strict-state");
        cleanup(&dir);
    }

    #[test]
    fn a_store_without_snapshots_is_refused() {
        let dir = scratch_dir("empty");
        drop(Store::create(&dir, DurabilityMode::Buffered).unwrap());
        assert!(matches!(
            Store::open(&dir, DurabilityMode::Buffered, None),
            Err(StoreError::Corrupt(msg)) if msg.contains("no usable image")
        ));
        cleanup(&dir);
    }

    #[test]
    fn corrupt_newest_snapshot_falls_back_and_is_never_loaded() {
        let dir = scratch_dir("corrupt-snap");
        drop(store_with(
            &dir,
            DurabilityMode::Buffered,
            &[b"good-old", b"bad-new"],
        ));
        let newest = snapshot_file(&dir, 1);
        let mut img = fs::read(&newest).unwrap();
        let last = img.len() - 1;
        img[last] ^= 0xFF;
        fs::write(&newest, &img).unwrap();

        let (_, rec) = Store::open(&dir, DurabilityMode::Buffered, None).unwrap();
        assert_eq!(rec.snapshots_skipped, 1);
        assert_eq!(rec.truncated_bytes, img.len() as u64);
        assert_eq!(
            rec.snapshot.payload, b"good-old",
            "corrupt image never loads"
        );
        assert!(!newest.exists(), "corrupt snapshot deleted");
        cleanup(&dir);
    }

    #[test]
    fn two_consecutive_corrupt_images_are_refused() {
        let dir = scratch_dir("both-corrupt");
        let mut s = Store::create(&dir, DurabilityMode::Buffered).unwrap();
        s.set_fault_session(Some(FaultSession::with_plan(Arc::new(
            FaultPlan::new(0xF00D).with_site(Site::StoreCorruptRecord, SiteSpec::rate(1.0)),
        ))));
        s.publish_snapshot(b"first").unwrap();
        s.publish_snapshot(b"second").unwrap();
        drop(s);
        assert!(matches!(
            Store::open(&dir, DurabilityMode::Buffered, None),
            Err(StoreError::Corrupt(msg)) if msg.contains("no usable image")
        ));
        cleanup(&dir);
    }

    #[test]
    fn create_refuses_to_overwrite_an_existing_store() {
        let dir = scratch_dir("no-clobber");
        drop(store_with(&dir, DurabilityMode::Buffered, &[b"state"]));
        assert!(matches!(
            Store::create(&dir, DurabilityMode::Buffered),
            Err(StoreError::Corrupt(_))
        ));
        cleanup(&dir);
    }

    #[test]
    fn injected_torn_write_leaves_the_previous_image() {
        let dir = scratch_dir("fault-torn");
        let mut s = store_with(&dir, DurabilityMode::Buffered, &[]);
        s.set_fault_session(Some(FaultSession::with_plan(one_shot(
            Site::StoreTornWrite,
            2,
        ))));
        s.publish_snapshot(b"image-0").unwrap();
        s.publish_snapshot(b"image-1").unwrap();
        assert_eq!(s.publish_snapshot(b"image-2"), Err(StoreError::TornWrite));
        drop(s);
        let tmp = dir.join("snap-00000002.snap.tmp");
        let torn = fs::metadata(&tmp).expect("the torn temp image stays").len();
        assert_eq!(torn, snapshot::encode(2, b"image-2").len() as u64 / 2);
        assert!(!snapshot_file(&dir, 2).exists(), "never renamed into place");

        let (_, rec) = Store::open(&dir, DurabilityMode::Buffered, None).unwrap();
        assert_eq!(rec.snapshot.payload, b"image-1");
        assert_eq!((rec.truncated_bytes, rec.snapshots_skipped), (torn, 0));
        assert!(!tmp.exists(), "the interrupted publication is removed");
        cleanup(&dir);
    }

    #[test]
    fn injected_corrupt_record_is_skipped_at_open() {
        let dir = scratch_dir("fault-corrupt");
        let mut s = store_with(&dir, DurabilityMode::Buffered, &[]);
        s.set_fault_session(Some(FaultSession::with_plan(one_shot(
            Site::StoreCorruptRecord,
            1,
        ))));
        s.publish_snapshot(b"image-0").unwrap();
        // Corruption is latent: the publication succeeds.
        s.publish_snapshot(b"image-1").unwrap();
        drop(s);
        let (_, rec) = Store::open(&dir, DurabilityMode::Buffered, None).unwrap();
        assert_eq!(rec.snapshot.payload, b"image-0");
        assert_eq!(rec.snapshots_skipped, 1);
        assert_eq!(
            rec.truncated_bytes,
            snapshot::encode(1, b"image-1").len() as u64
        );
        cleanup(&dir);
    }

    #[test]
    fn injected_short_read_falls_back_to_the_previous_image() {
        let dir = scratch_dir("fault-short");
        drop(store_with(
            &dir,
            DurabilityMode::Buffered,
            &[b"image-0", b"image-1"],
        ));
        let plan = one_shot(Site::StoreShortRead, 1);
        let (_, rec) = Store::open(&dir, DurabilityMode::Buffered, Some(plan)).unwrap();
        assert_eq!(rec.snapshot.payload, b"image-0");
        assert_eq!(rec.snapshots_skipped, 1);
        cleanup(&dir);
    }

    #[test]
    fn open_on_a_missing_directory_creates_nothing() {
        let dir = scratch_dir("missing");
        let Err(StoreError::Io(msg)) = Store::open(&dir, DurabilityMode::Buffered, None) else {
            panic!("a missing directory must be an IO error");
        };
        assert!(msg.contains(&dir.display().to_string()), "{msg}");
        assert!(!dir.exists(), "open created the directory");
    }

    #[test]
    fn open_removes_only_its_own_temp_files() {
        let dir = scratch_dir("foreign-tmp");
        drop(store_with(&dir, DurabilityMode::Buffered, &[b"state"]));
        let foreign = dir.join("notes.tmp");
        fs::write(&foreign, b"not ours").unwrap();
        let interrupted = dir.join("snap-00000003.snap.tmp");
        fs::write(&interrupted, b"half an image").unwrap();
        let (_, rec) = Store::open(&dir, DurabilityMode::Buffered, None).unwrap();
        assert!(foreign.exists(), "a foreign .tmp file survives");
        assert!(!interrupted.exists(), "the interrupted publication is gone");
        assert_eq!(rec.truncated_bytes, b"half an image".len() as u64);
        assert_eq!(rec.snapshot.payload, b"state");
        cleanup(&dir);
    }
}
