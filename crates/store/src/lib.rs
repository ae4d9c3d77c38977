//! Durable state store for MEMCON: atomic snapshots + a progress WAL.
//!
//! The paper's thesis is that retention knowledge is expensive to acquire
//! and therefore worth keeping; this crate makes it survive a process
//! death. Recovery is snapshot-resume: the newest snapshot holds the
//! whole engine state, and the caller re-simulates from it. The store
//! keeps only what that needs:
//!
//! * **Snapshots** — opaque engine-state blobs published atomically
//!   (write-temp → rename, fsynced in `Strict` mode, [`snapshot`]) as
//!   `snap-<seq>.snap`. Each snapshot names a `wal_bound`: the first
//!   segment whose records postdate it. Publication rotates the WAL to
//!   that bound and prunes dead segments, so WAL growth is bounded by
//!   snapshot cadence.
//! * **WAL** — [`Progress`] markers, one per quantum boundary that
//!   published no snapshot, each framed `[len][crc32][payload]`
//!   ([`wal`]) and appended to numbered segment files (`wal-<seq>.wal`).
//! * **Recovery** — [`Store::open`] loads the newest snapshot that
//!   passes its checksum (corrupt ones are reported and deleted, never
//!   loaded), scans the markers above the bound, detects torn or
//!   corrupt tails, truncates the file back to the last valid record,
//!   and reports how many markers survived and what it discarded.
//!
//! Three [`DurabilityMode`]s trade safety for speed: `InMemory` (no file
//! IO at all — benches and tests), `Buffered` (files, no fsync — crash
//! consistency relies on the OS), `Strict` (fsync per append and through
//! every snapshot publication step).
//!
//! Fault injection: the store consults the `store.torn_write`,
//! `store.corrupt_record` (append path) and `store.short_read` (recovery
//! scan) sites of an attached [`FaultSession`], so the chaos machinery
//! can exercise every recovery branch deterministically.
//!
//! Telemetry: `store.wal.appends`, `store.wal.bytes`,
//! `store.snap.published`, `store.recovery.replayed_records`, and
//! `store.recovery.truncated_bytes` — all [`telemetry::Class::Deterministic`]
//! (counts of deterministic events), though they describe the durability
//! plane itself: a crashed-and-recovered run legitimately differs from an
//! uninterrupted one in `store.*` (it did extra durability work), which is
//! why the crash gate compares deterministic sections *minus* `store.*`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod snapshot;
pub mod wal;

pub use snapshot::Snapshot;
pub use wal::{crc32, scan_bytes, Progress, ScanResult};

use std::collections::BTreeMap;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use faultinject::{FaultPlan, FaultSession, Site};

const WAL_APPENDS: &str = "store.wal.appends";
const WAL_BYTES: &str = "store.wal.bytes";
const SNAPS_PUBLISHED: &str = "store.snap.published";
const RECOVERY_REPLAYED: &str = "store.recovery.replayed_records";
const RECOVERY_TRUNCATED: &str = "store.recovery.truncated_bytes";

/// How many of the newest snapshots survive pruning: the current one plus
/// one fallback in case the newest is found corrupt at recovery.
const KEEP_SNAPSHOTS: u64 = 2;

/// Durability/performance trade-off, selectable per run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DurabilityMode {
    /// All state kept in process memory; no files are touched. Recovery
    /// across processes is impossible — the mode for benches and tests
    /// that want the append path without IO.
    InMemory,
    /// Real files, no fsync: survives process death (the OS flushes),
    /// not power loss. The default.
    #[default]
    Buffered,
    /// fsync per append and through every snapshot publication step
    /// (temp file, rename, containing directory).
    Strict,
}

/// Errors surfaced by the store. Corruption is *not* an error at the WAL
/// tail (that is truncated and reported via [`Recovered`]); it is an
/// error when it would mean loading bad state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// File IO failed (path and OS error inside).
    Io(String),
    /// A structural invariant does not hold (bad directory layout,
    /// undecodable snapshot set, refusing to overwrite an existing store).
    Corrupt(String),
    /// The requested state cannot be persisted or recovered (e.g. an
    /// engine whose oracle does not support snapshotting).
    Unsupported(String),
    /// An injected torn write: only a prefix of the frame reached the
    /// file. The store is in the same state a kill mid-append leaves on
    /// disk; the caller treats this as the crash it simulates.
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

/// What [`Store::open`] found and repaired.
#[derive(Debug, Default)]
pub struct Recovered {
    /// Newest snapshot that passed verification, if any.
    pub snapshot: Option<Snapshot>,
    /// Progress markers above the snapshot bound, in append order: the
    /// quanta a resume from the snapshot re-simulates.
    pub tail: Vec<Progress>,
    /// `tail.len()` as a counter (mirrors the telemetry metric).
    pub replayed_records: u64,
    /// Bytes discarded from torn/corrupt tails (and any segments beyond
    /// the first torn one).
    pub truncated_bytes: u64,
    /// Segments below the snapshot bound left behind by an interrupted
    /// rotation/prune; ignored and deleted.
    pub stale_segments: u64,
    /// Corrupt snapshot files skipped (and deleted) before a valid one
    /// was found.
    pub snapshots_skipped: u64,
}

/// An open durable store rooted at one directory.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    mode: DurabilityMode,
    seg_seq: u64,
    seg_file: Option<File>,
    snap_seq: u64,
    mem_segments: BTreeMap<u64, Vec<u8>>,
    mem_snaps: BTreeMap<u64, Vec<u8>>,
    faults: Option<FaultSession>,
}

impl Store {
    /// Creates a fresh store in `dir` (created if absent). Refuses to
    /// build over an existing store's files — recovery must be explicit,
    /// via [`Store::open`].
    pub fn create(dir: &Path, mode: DurabilityMode) -> Result<Store, StoreError> {
        if mode != DurabilityMode::InMemory {
            fs::create_dir_all(dir).map_err(|e| io_err("create dir", dir, &e))?;
            let (segs, snaps, _) = list_store_files(dir)?;
            if !segs.is_empty() || !snaps.is_empty() {
                return Err(StoreError::Corrupt(format!(
                    "{} already holds store files; open it instead of creating over it",
                    dir.display()
                )));
            }
        }
        Ok(Store {
            dir: dir.to_path_buf(),
            mode,
            seg_seq: 0,
            seg_file: None,
            snap_seq: 0,
            mem_segments: BTreeMap::new(),
            mem_snaps: BTreeMap::new(),
            faults: None,
        })
    }

    /// Opens an existing store, running recovery: load the newest valid
    /// snapshot, scan the WAL tail, truncate torn/corrupt tails in
    /// place, delete stale pre-bound segments and corrupt snapshots.
    ///
    /// `plan` arms the `store.short_read` site during the scan (and stays
    /// attached for subsequent appends); pass `None` for a clean open.
    ///
    /// In `InMemory` mode there is nothing on disk to recover: the result
    /// is a fresh store and an empty [`Recovered`].
    pub fn open(
        dir: &Path,
        mode: DurabilityMode,
        plan: Option<Arc<FaultPlan>>,
    ) -> Result<(Store, Recovered), StoreError> {
        let mut faults = plan.map(FaultSession::with_plan);
        if mode == DurabilityMode::InMemory {
            let mut store = Store::create(dir, mode)?;
            store.faults = faults;
            return Ok((store, Recovered::default()));
        }
        fs::create_dir_all(dir).map_err(|e| io_err("create dir", dir, &e))?;
        let (segs, snaps, tmps) = list_store_files(dir)?;
        for tmp in tmps {
            // Interrupted snapshot publications: never renamed, never valid.
            fs::remove_file(&tmp).map_err(|e| io_err("remove tmp", &tmp, &e))?;
        }
        let mut out = Recovered::default();

        // Newest snapshot that verifies wins; corrupt ones are reported
        // and deleted so they can never shadow a good one again.
        let mut best: Option<Snapshot> = None;
        for (&seq, path) in snaps.iter().rev() {
            let bytes = fs::read(path).map_err(|e| io_err("read snapshot", path, &e))?;
            match snapshot::decode(&bytes) {
                Ok(snap) if snap.seq == seq => {
                    best = Some(snap);
                    break;
                }
                Ok(_) | Err(_) => {
                    out.snapshots_skipped += 1;
                    fs::remove_file(path).map_err(|e| io_err("remove snapshot", path, &e))?;
                }
            }
        }
        let bound = best.as_ref().map_or(0, |s| s.wal_bound);

        // Stale segments below the bound: leftovers of an interrupted
        // prune. Their records are all covered by the snapshot.
        for (&seq, path) in &segs {
            if seq < bound {
                out.stale_segments += 1;
                fs::remove_file(path).map_err(|e| io_err("remove stale segment", path, &e))?;
            }
        }

        // Scan live segments in order; stop at the first torn tail and
        // repair the files so a re-open sees a clean log.
        let mut torn_at: Option<u64> = None;
        for (&seq, path) in &segs {
            if seq < bound {
                continue;
            }
            if let Some(first_torn) = torn_at {
                // Everything after a torn segment is unreachable history.
                let len = fs::metadata(path)
                    .map_err(|e| io_err("stat segment", path, &e))?
                    .len();
                out.truncated_bytes += len;
                fs::remove_file(path).map_err(|e| io_err("remove segment", path, &e))?;
                debug_assert!(seq > first_torn);
                continue;
            }
            let bytes = fs::read(path).map_err(|e| io_err("read segment", path, &e))?;
            let mut scan = wal::scan_bytes(&bytes);
            // Injected short read: the scan "sees" EOF early — keep only
            // the records before the firing index and re-derive the valid
            // byte length of that shorter prefix.
            if let Some(session) = faults.as_mut() {
                for i in 0..scan.records.len() {
                    if session.fires(Site::StoreShortRead) {
                        scan.valid_len = (i * wal::PROGRESS_FRAME) as u64;
                        scan.records.truncate(i);
                        scan.torn = true;
                        break;
                    }
                }
            }
            if scan.torn {
                out.truncated_bytes += bytes.len() as u64 - scan.valid_len;
                let f = OpenOptions::new()
                    .write(true)
                    .open(path)
                    .map_err(|e| io_err("open segment for repair", path, &e))?;
                f.set_len(scan.valid_len)
                    .map_err(|e| io_err("truncate segment", path, &e))?;
                torn_at = Some(seq);
            }
            out.tail.append(&mut scan.records);
        }
        out.replayed_records = out.tail.len() as u64;
        if telemetry::enabled() {
            telemetry::count(RECOVERY_REPLAYED, out.replayed_records);
            telemetry::count(RECOVERY_TRUNCATED, out.truncated_bytes);
        }

        // Position past everything seen: appends go to a fresh segment,
        // so scanned history is never re-scanned as live tail twice once
        // the next snapshot prunes it.
        let seg_seq = segs.keys().next_back().map_or(bound, |&s| s + 1).max(bound);
        let snap_seq = best.as_ref().map_or(0, |s| s.seq + 1);
        out.snapshot = best;
        Ok((
            Store {
                dir: dir.to_path_buf(),
                mode,
                seg_seq,
                seg_file: None,
                snap_seq,
                mem_segments: BTreeMap::new(),
                mem_snaps: BTreeMap::new(),
                faults,
            },
            out,
        ))
    }

    /// Current WAL segment index.
    #[must_use]
    pub fn wal_seq(&self) -> u64 {
        self.seg_seq
    }

    /// Attaches (or clears) the fault session consulted by the append
    /// path (`store.torn_write`, `store.corrupt_record`) and recovery
    /// scans run through this handle.
    pub fn set_fault_session(&mut self, session: Option<FaultSession>) {
        self.faults = session;
    }

    /// Appends one progress marker to the current WAL segment.
    ///
    /// # Errors
    ///
    /// IO failures, or [`StoreError::TornWrite`] when the armed
    /// `store.torn_write` site fires (the on-disk state then ends
    /// mid-frame, exactly like a crash during the write).
    pub fn append(&mut self, marker: &Progress) -> Result<(), StoreError> {
        let mut frame = wal::frame(&marker.encode());
        let mut torn = false;
        if let Some(session) = self.faults.as_mut() {
            if session.fires(Site::StoreTornWrite) {
                torn = true;
            } else if session.fires(Site::StoreCorruptRecord) {
                // Latent corruption: flip a checksum bit. The append
                // "succeeds"; recovery must catch it, truncate, report.
                frame[4] ^= 0x01;
            }
        }
        let write_len = if torn {
            (frame.len() / 2).max(1)
        } else {
            frame.len()
        };
        match self.mode {
            DurabilityMode::InMemory => {
                self.mem_segments
                    .entry(self.seg_seq)
                    .or_default()
                    .extend_from_slice(&frame[..write_len]);
            }
            DurabilityMode::Buffered | DurabilityMode::Strict => {
                let strict = self.mode == DurabilityMode::Strict;
                let path = segment_path(&self.dir, self.seg_seq);
                if self.seg_file.is_none() {
                    let f = OpenOptions::new()
                        .create(true)
                        .append(true)
                        .open(&path)
                        .map_err(|e| io_err("open segment", &path, &e))?;
                    self.seg_file = Some(f);
                }
                if let Some(f) = self.seg_file.as_mut() {
                    f.write_all(&frame[..write_len])
                        .map_err(|e| io_err("append", &path, &e))?;
                    if strict {
                        f.sync_data().map_err(|e| io_err("fsync", &path, &e))?;
                    }
                }
            }
        }
        if torn {
            return Err(StoreError::TornWrite);
        }
        if telemetry::enabled() {
            telemetry::count(WAL_APPENDS, 1);
            telemetry::count(WAL_BYTES, frame.len() as u64);
        }
        Ok(())
    }

    /// Publishes `payload` as the next snapshot — atomically (write-temp,
    /// fsync, rename) — then rotates the WAL past it and prunes segments
    /// the new snapshot covers plus all but the newest two snapshots.
    pub fn publish_snapshot(&mut self, payload: &[u8]) -> Result<(), StoreError> {
        let new_bound = self.seg_seq + 1;
        let image = snapshot::encode(self.snap_seq, new_bound, payload);
        match self.mode {
            DurabilityMode::InMemory => {
                self.mem_snaps.insert(self.snap_seq, image);
                let keep = self.snap_seq.saturating_sub(KEEP_SNAPSHOTS - 1);
                self.mem_snaps.retain(|&s, _| s >= keep);
                self.mem_segments.retain(|&s, _| s >= new_bound);
            }
            DurabilityMode::Buffered | DurabilityMode::Strict => {
                let strict = self.mode == DurabilityMode::Strict;
                let tmp = self.dir.join(format!("snap-{:08}.snap.tmp", self.snap_seq));
                let fin = snapshot_path(&self.dir, self.snap_seq);
                {
                    let mut f = File::create(&tmp).map_err(|e| io_err("create tmp", &tmp, &e))?;
                    f.write_all(&image)
                        .map_err(|e| io_err("write snapshot", &tmp, &e))?;
                    if strict {
                        f.sync_all()
                            .map_err(|e| io_err("fsync snapshot", &tmp, &e))?;
                    }
                }
                fs::rename(&tmp, &fin).map_err(|e| io_err("publish snapshot", &fin, &e))?;
                if strict {
                    let d = File::open(&self.dir).map_err(|e| io_err("open dir", &self.dir, &e))?;
                    d.sync_all()
                        .map_err(|e| io_err("fsync dir", &self.dir, &e))?;
                }
                // Prune: segments the snapshot covers, snapshots beyond
                // the keep window. A crash between rename and here only
                // leaves stragglers that recovery ignores and deletes.
                let (segs, snaps, _) = list_store_files(&self.dir)?;
                for (&seq, path) in &segs {
                    if seq < new_bound {
                        fs::remove_file(path).map_err(|e| io_err("prune segment", path, &e))?;
                    }
                }
                let keep = self.snap_seq.saturating_sub(KEEP_SNAPSHOTS - 1);
                for (&seq, path) in &snaps {
                    if seq < keep {
                        fs::remove_file(path).map_err(|e| io_err("prune snapshot", path, &e))?;
                    }
                }
            }
        }
        self.snap_seq += 1;
        self.seg_file = None;
        self.seg_seq = new_bound;
        if telemetry::enabled() {
            telemetry::count(SNAPS_PUBLISHED, 1);
        }
        Ok(())
    }

    /// Flushes OS buffers for the current segment (meaningful in
    /// `Buffered` mode before an orderly shutdown).
    pub fn sync(&mut self) -> Result<(), StoreError> {
        if let Some(f) = self.seg_file.as_mut() {
            let path = segment_path(&self.dir, self.seg_seq);
            f.sync_data().map_err(|e| io_err("fsync", &path, &e))?;
        }
        Ok(())
    }

    /// In-memory segment images (only populated in `InMemory` mode) —
    /// lets tests and benches run the scan without touching disk.
    #[must_use]
    pub fn mem_segment(&self, seq: u64) -> Option<&[u8]> {
        self.mem_segments.get(&seq).map(Vec::as_slice)
    }
}

fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("wal-{seq:08}.wal"))
}

fn snapshot_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("snap-{seq:08}.snap"))
}

type StoreFiles = (BTreeMap<u64, PathBuf>, BTreeMap<u64, PathBuf>, Vec<PathBuf>);

/// Classifies `dir` entries into (wal segments, snapshots, leftover temp
/// files), keyed and ordered by sequence number.
fn list_store_files(dir: &Path) -> Result<StoreFiles, StoreError> {
    let mut segs = BTreeMap::new();
    let mut snaps = BTreeMap::new();
    let mut tmps = Vec::new();
    let entries = fs::read_dir(dir).map_err(|e| io_err("read dir", dir, &e))?;
    for entry in entries {
        let entry = entry.map_err(|e| io_err("read dir entry", dir, &e))?;
        let path = entry.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if name.ends_with(".tmp") {
            tmps.push(path);
        } else if let Some(seq) = parse_seq(name, "wal-", ".wal") {
            segs.insert(seq, path);
        } else if let Some(seq) = parse_seq(name, "snap-", ".snap") {
            snaps.insert(seq, path);
        }
    }
    tmps.sort();
    Ok((segs, snaps, tmps))
}

fn parse_seq(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?
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

    fn progress(n: u64) -> Vec<Progress> {
        (0..n)
            .map(|i| Progress {
                quantum: i,
                now_ns: i * 1000,
            })
            .collect()
    }

    /// A marker outside `progress`'s sequence, so the tests can tell the
    /// post-snapshot tail apart from the records the snapshot covers.
    fn marker(quantum: u64) -> Progress {
        Progress {
            quantum: 1_000 + quantum,
            now_ns: 7,
        }
    }

    fn cleanup(dir: &Path) {
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn buffered_store_round_trips_snapshot_and_tail() {
        let dir = scratch_dir("round-trip");
        {
            let mut s = Store::create(&dir, DurabilityMode::Buffered).unwrap();
            for r in progress(5) {
                s.append(&r).unwrap();
            }
            s.publish_snapshot(b"state-at-5").unwrap();
            for r in progress(3) {
                s.append(&r).unwrap();
            }
        }
        let (s, rec) = Store::open(&dir, DurabilityMode::Buffered, None).unwrap();
        let snap = rec.snapshot.expect("snapshot survives");
        assert_eq!(snap.payload, b"state-at-5");
        assert_eq!(rec.tail, progress(3));
        assert_eq!(rec.replayed_records, 3);
        assert_eq!(rec.truncated_bytes, 0);
        assert_eq!(rec.stale_segments, 0);
        assert!(s.wal_seq() > snap.wal_bound - 1);
        cleanup(&dir);
    }

    #[test]
    fn strict_mode_round_trips_too() {
        let dir = scratch_dir("strict");
        {
            let mut s = Store::create(&dir, DurabilityMode::Strict).unwrap();
            for r in progress(4) {
                s.append(&r).unwrap();
            }
            s.publish_snapshot(b"strict-state").unwrap();
            s.append(&marker(9)).unwrap();
        }
        let (_, rec) = Store::open(&dir, DurabilityMode::Strict, None).unwrap();
        assert_eq!(rec.snapshot.unwrap().payload, b"strict-state");
        assert_eq!(rec.tail, vec![marker(9)]);
        cleanup(&dir);
    }

    #[test]
    fn empty_wal_recovers_to_nothing() {
        let dir = scratch_dir("empty-wal");
        drop(Store::create(&dir, DurabilityMode::Buffered).unwrap());
        let (_, rec) = Store::open(&dir, DurabilityMode::Buffered, None).unwrap();
        assert!(rec.snapshot.is_none());
        assert!(rec.tail.is_empty());
        assert_eq!(rec.truncated_bytes, 0);
        cleanup(&dir);
    }

    #[test]
    fn snapshot_only_store_recovers_without_tail() {
        let dir = scratch_dir("snap-only");
        {
            let mut s = Store::create(&dir, DurabilityMode::Buffered).unwrap();
            for r in progress(2) {
                s.append(&r).unwrap();
            }
            s.publish_snapshot(b"just-me").unwrap();
        }
        let (_, rec) = Store::open(&dir, DurabilityMode::Buffered, None).unwrap();
        assert_eq!(rec.snapshot.unwrap().payload, b"just-me");
        assert!(rec.tail.is_empty(), "pre-snapshot records were pruned");
        cleanup(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_reported_then_reopens_clean() {
        let dir = scratch_dir("torn-tail");
        {
            let mut s = Store::create(&dir, DurabilityMode::Buffered).unwrap();
            for r in progress(6) {
                s.append(&r).unwrap();
            }
        }
        // Tear the tail mid-record by hand.
        let seg = segment_path(&dir, 0);
        let bytes = fs::read(&seg).unwrap();
        let frame_len = wal::frame(&progress(1)[0].encode()).len();
        let cut = 5 * frame_len + 3;
        fs::write(&seg, &bytes[..cut]).unwrap();

        let (_, rec) = Store::open(&dir, DurabilityMode::Buffered, None).unwrap();
        assert_eq!(rec.tail, progress(5), "last record lost, rest intact");
        assert_eq!(rec.truncated_bytes, 3);
        assert_eq!(fs::metadata(&seg).unwrap().len() as usize, 5 * frame_len);

        let (_, again) = Store::open(&dir, DurabilityMode::Buffered, None).unwrap();
        assert_eq!(again.truncated_bytes, 0, "repair is persistent");
        assert_eq!(again.tail, progress(5));
        cleanup(&dir);
    }

    #[test]
    fn stale_pre_bound_segment_from_failed_rotation_is_ignored() {
        let dir = scratch_dir("stale-seg");
        {
            let mut s = Store::create(&dir, DurabilityMode::Buffered).unwrap();
            for r in progress(3) {
                s.append(&r).unwrap();
            }
            s.publish_snapshot(b"bound-1").unwrap();
            s.append(&marker(1)).unwrap();
        }
        // Re-create the pre-bound segment an interrupted prune would
        // leave behind (same seq as the pruned one: a duplicate).
        let mut stale = Vec::new();
        for r in progress(3) {
            stale.extend_from_slice(&wal::frame(&r.encode()));
        }
        fs::write(segment_path(&dir, 0), &stale).unwrap();

        let (_, rec) = Store::open(&dir, DurabilityMode::Buffered, None).unwrap();
        assert_eq!(rec.stale_segments, 1);
        assert_eq!(
            rec.tail,
            vec![marker(1)],
            "stale duplicate records never replay"
        );
        assert!(!segment_path(&dir, 0).exists(), "stale segment deleted");
        cleanup(&dir);
    }

    #[test]
    fn corrupt_newest_snapshot_falls_back_and_is_never_loaded() {
        let dir = scratch_dir("corrupt-snap");
        {
            let mut s = Store::create(&dir, DurabilityMode::Buffered).unwrap();
            s.append(&progress(1)[0]).unwrap();
            s.publish_snapshot(b"good-old").unwrap();
            s.append(&marker(7)).unwrap();
            s.publish_snapshot(b"bad-new").unwrap();
        }
        // Corrupt the newest snapshot's payload.
        let newest = snapshot_path(&dir, 1);
        let mut img = fs::read(&newest).unwrap();
        let last = img.len() - 1;
        img[last] ^= 0xFF;
        fs::write(&newest, &img).unwrap();

        let (_, rec) = Store::open(&dir, DurabilityMode::Buffered, None).unwrap();
        assert_eq!(rec.snapshots_skipped, 1);
        let snap = rec.snapshot.expect("fallback snapshot");
        assert_eq!(snap.payload, b"good-old", "corrupt image never loads");
        assert!(!newest.exists(), "corrupt snapshot deleted");
        cleanup(&dir);
    }

    #[test]
    fn create_refuses_to_overwrite_an_existing_store() {
        let dir = scratch_dir("no-clobber");
        {
            let mut s = Store::create(&dir, DurabilityMode::Buffered).unwrap();
            s.append(&progress(1)[0]).unwrap();
        }
        assert!(matches!(
            Store::create(&dir, DurabilityMode::Buffered),
            Err(StoreError::Corrupt(_))
        ));
        cleanup(&dir);
    }

    #[test]
    fn in_memory_mode_touches_no_files() {
        let dir = scratch_dir("in-memory");
        let mut s = Store::create(&dir, DurabilityMode::InMemory).unwrap();
        for r in progress(10) {
            s.append(&r).unwrap();
        }
        s.publish_snapshot(b"ram-only").unwrap();
        s.append(&marker(1)).unwrap();
        assert!(!dir.exists(), "no directory was created");
        assert!(s.mem_segment(0).is_none(), "rotation pruned segment 0");
        let tail = s.mem_segment(1).expect("post-snapshot segment");
        let scan = wal::scan_bytes(tail);
        assert_eq!(scan.records, vec![marker(1)]);
    }

    #[test]
    fn injected_torn_write_leaves_a_truncatable_tail() {
        let dir = scratch_dir("fault-torn");
        let plan = Arc::new(FaultPlan::new(0xF00D).with_site(
            Site::StoreTornWrite,
            SiteSpec {
                rate: 1.0,
                schedule: Schedule::OneShot { at: 3 },
            },
        ));
        {
            let mut s = Store::create(&dir, DurabilityMode::Buffered).unwrap();
            s.set_fault_session(Some(FaultSession::with_plan(plan)));
            let mut torn = 0;
            for r in progress(5) {
                match s.append(&r) {
                    Ok(()) => {}
                    Err(StoreError::TornWrite) => {
                        torn += 1;
                        break; // a real crash stops here
                    }
                    Err(e) => panic!("unexpected {e}"),
                }
            }
            assert_eq!(torn, 1);
        }
        let (_, rec) = Store::open(&dir, DurabilityMode::Buffered, None).unwrap();
        assert_eq!(rec.tail, progress(3), "prefix before the tear survives");
        assert!(rec.truncated_bytes > 0, "partial frame was truncated away");
        cleanup(&dir);
    }

    #[test]
    fn injected_corrupt_record_is_caught_at_recovery_never_loaded() {
        let dir = scratch_dir("fault-corrupt");
        let plan = Arc::new(FaultPlan::new(0xF00D).with_site(
            Site::StoreCorruptRecord,
            SiteSpec {
                rate: 1.0,
                schedule: Schedule::OneShot { at: 2 },
            },
        ));
        {
            let mut s = Store::create(&dir, DurabilityMode::Buffered).unwrap();
            s.set_fault_session(Some(FaultSession::with_plan(plan)));
            for r in progress(5) {
                s.append(&r).unwrap(); // corruption is latent: appends succeed
            }
        }
        let (_, rec) = Store::open(&dir, DurabilityMode::Buffered, None).unwrap();
        assert_eq!(rec.tail, progress(2), "scan stops at the corrupt record");
        assert!(rec.truncated_bytes > 0);
        cleanup(&dir);
    }

    #[test]
    fn injected_short_read_truncates_the_scan_early() {
        let dir = scratch_dir("fault-short");
        {
            let mut s = Store::create(&dir, DurabilityMode::Buffered).unwrap();
            for r in progress(6) {
                s.append(&r).unwrap();
            }
        }
        let plan = Arc::new(FaultPlan::new(0xF00D).with_site(
            Site::StoreShortRead,
            SiteSpec {
                rate: 1.0,
                schedule: Schedule::OneShot { at: 4 },
            },
        ));
        let (_, rec) = Store::open(&dir, DurabilityMode::Buffered, Some(plan)).unwrap();
        assert_eq!(rec.tail, progress(4), "EOF injected before record 4");
        assert!(rec.truncated_bytes > 0);
        // The repair truncated the file: a clean re-open agrees.
        let (_, again) = Store::open(&dir, DurabilityMode::Buffered, None).unwrap();
        assert_eq!(again.tail, progress(4));
        assert_eq!(again.truncated_bytes, 0);
        cleanup(&dir);
    }

    #[test]
    fn rotation_bounds_wal_growth_across_many_snapshots() {
        let dir = scratch_dir("rotation");
        let mut s = Store::create(&dir, DurabilityMode::Buffered).unwrap();
        for round in 0..10u64 {
            for r in progress(20) {
                s.append(&r).unwrap();
            }
            s.publish_snapshot(format!("round-{round}").as_bytes())
                .unwrap();
        }
        let (segs, snaps, _) = list_store_files(&dir).unwrap();
        assert!(segs.is_empty(), "every segment was covered and pruned");
        assert_eq!(snaps.len() as u64, KEEP_SNAPSHOTS);
        let (_, rec) = Store::open(&dir, DurabilityMode::Buffered, None).unwrap();
        assert_eq!(rec.snapshot.unwrap().payload, b"round-9");
        cleanup(&dir);
    }
}
