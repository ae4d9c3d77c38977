//! Durable fleet state: the epoch log and the barrier image's codec.
//!
//! A durable fleet ([`FleetConfig::store_dir`](crate::FleetConfig) set)
//! keeps one [`store::Store`] directly at that directory. At every epoch
//! barrier, and once as an anchor before the first epoch, the scheduler
//! publishes one snapshot there: a [`FleetMeta`] image holding the epoch
//! clock and its length in quanta, the complete per-epoch observability
//! log, and every shard engine's checkpoint
//! ([`memcon::engine::MemconEngine::checkpoint`]). The shard engines own
//! no store.
//!
//! On [`Fleet::recover`](crate::Fleet::recover) the newest valid image
//! restores every shard ([`memcon::engine::MemconEngine::restore`]) and
//! replays the epoch log through [`emit_epoch_entry`] — the *same* code
//! path the live barriers use — so the `fleet.obs.*` counters and the
//! registry's time-series ring come back byte-identical to an
//! uninterrupted run. Every shard's delta cursor is its restored engine's
//! own `MemconEngine::stats()`: one image holds the whole fleet at one
//! barrier.

use memutil::codec::Io;

/// Fleet image payload format version (the first payload byte).
const META_VERSION: u8 = 4;

/// FNV-1a hash of a fixed image (see the `meta_layout_is_pinned` test). A
/// change to what an image holds, or in what order, moves it: bump
/// [`META_VERSION`] with it.
#[cfg(test)]
const META_LAYOUT_FNV: u64 = 0x94EA_67A8_F1D6_16E4;

/// One epoch barrier's observability roll-up: the `fleet.obs.*` counter
/// deltas plus the fleet-wide gauges sampled at that barrier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpochEntry {
    /// Epoch this entry was recorded at (1-based).
    pub epoch: u64,
    /// Faults injected across all shards this epoch.
    pub faults_injected: u64,
    /// Tests aborted across all shards this epoch.
    pub aborts: u64,
    /// Tests retried across all shards this epoch.
    pub retries: u64,
    /// Backoffs scheduled across all shards this epoch.
    pub backoffs_scheduled: u64,
    /// Backoffs clamped at the policy cap this epoch.
    pub backoff_ceiling_hits: u64,
    /// Uncorrectable ECC escapes this epoch (must stay 0).
    pub escapes: u64,
    /// Pages pinned to HI-REF at the barrier (gauge).
    pub pinned_pages: u64,
    /// Pages tracked fleet-wide (gauge).
    pub pages: u64,
    /// PRIL write-buffer occupancy at the barrier (gauge).
    pub pril_buffered: u64,
    /// PRIL write-buffer capacity fleet-wide (gauge).
    pub pril_capacity: u64,
    /// Shards that have finished their runs (gauge).
    pub shards_done: u64,
}

/// Emits one epoch entry through the current [`telemetry`] registry:
/// the six `fleet.obs.*` counter deltas, then the five `fleet.gauge.*`
/// gauges as a time-series sample at tick = epoch. Live barriers and
/// recovery replay share this function, which is what makes a recovered
/// fleet's deterministic telemetry byte-identical to an uninterrupted
/// run's.
pub fn emit_epoch_entry(entry: &EpochEntry) -> Option<telemetry::SamplePoint> {
    telemetry::count("fleet.obs.faults_injected", entry.faults_injected);
    telemetry::count("fleet.obs.aborts", entry.aborts);
    telemetry::count("fleet.obs.retries", entry.retries);
    telemetry::count("fleet.obs.backoffs_scheduled", entry.backoffs_scheduled);
    telemetry::count("fleet.obs.backoff_ceiling_hits", entry.backoff_ceiling_hits);
    telemetry::count("fleet.obs.escapes", entry.escapes);
    telemetry::sample_point(
        entry.epoch,
        &[
            ("fleet.gauge.pinned_pages", entry.pinned_pages),
            ("fleet.gauge.pages", entry.pages),
            ("fleet.gauge.pril_buffered", entry.pril_buffered),
            ("fleet.gauge.pril_capacity", entry.pril_capacity),
            ("fleet.gauge.shards_done", entry.shards_done),
        ],
    )
}

/// The fleet's barrier image: everything needed to resume a crashed
/// fleet at an epoch barrier.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FleetMeta {
    /// Epochs completed when this image was published.
    pub epoch: u64,
    /// Quanta per epoch the fleet ran with; a resume must use the same.
    pub epoch_quanta: u64,
    /// Complete epoch log, oldest first: entry `i` records epoch `i + 1`.
    pub entries: Vec<EpochEntry>,
    /// Every shard engine's checkpoint at the barrier, in node order.
    pub shards: Vec<Vec<u8>>,
}

impl FleetMeta {
    /// The image's field list (see [`memutil::codec`]), refusing an
    /// unsupported version or an epoch log that disagrees with its epoch
    /// clock (one entry per completed epoch, numbered from 1).
    ///
    /// # Errors
    ///
    /// When decoding, a malformed payload or one of those refusals.
    pub fn fields(&mut self, io: &mut Io) -> Result<(), String> {
        let FleetMeta {
            epoch,
            epoch_quanta,
            entries,
            shards,
        } = self;
        io.version(META_VERSION, "fleet meta")?;
        io.u64(epoch)?;
        io.u64(epoch_quanta)?;
        let mut numbered = 0;
        io.seq(entries, 96, "epoch log length", |io, entry| {
            numbered += 1;
            memutil::u64_fields!(io; EpochEntry { epoch, faults_injected, aborts, retries,
                backoffs_scheduled, backoff_ceiling_hits, escapes, pinned_pages, pages,
                pril_buffered, pril_capacity, shards_done } = entry);
            io.refuse(*epoch != numbered, || {
                format!("epoch log entry {numbered} is numbered epoch {epoch}")
            })
        })?;
        let logged = entries.len() as u64;
        io.refuse(logged != *epoch, || {
            format!("the epoch log holds {logged} entries but the clock reads epoch {epoch}")
        })?;
        io.seq(shards, 8, "shard count", Io::bytes)
    }
}

/// What [`Fleet::recover`](crate::Fleet::recover) found in the fleet's
/// store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetRecovery {
    /// Epoch-log entries replayed through the telemetry registry.
    pub epochs_replayed: u64,
    /// Shard engines restored from the image.
    pub shards_recovered: u64,
    /// Always 0: nothing past the image is replayed. Kept only so the
    /// end-to-end benchmark can still report its
    /// `store.recovery.replayed_records` metric until that metric goes.
    pub replayed_records: u64,
    /// Bytes recovery discarded: interrupted temp images and skipped
    /// images.
    pub truncated_bytes: u64,
    /// Corrupt images skipped (and deleted) before a valid one was found.
    pub snapshots_skipped: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use memutil::codec;

    fn sample_meta() -> FleetMeta {
        FleetMeta {
            epoch: 3,
            epoch_quanta: 2,
            entries: (1..=3)
                .map(|epoch| EpochEntry {
                    epoch,
                    faults_injected: epoch * 2,
                    aborts: 1,
                    retries: epoch,
                    backoffs_scheduled: epoch + 1,
                    backoff_ceiling_hits: 0,
                    escapes: 0,
                    pinned_pages: epoch % 2,
                    pages: 640,
                    pril_buffered: 17,
                    pril_capacity: 64,
                    shards_done: 0,
                })
                .collect(),
            shards: vec![vec![4, 0, 1, 7], Vec::new()],
        }
    }

    fn encoded(mut meta: FleetMeta) -> Vec<u8> {
        codec::encode(&mut meta, FleetMeta::fields)
    }

    fn decoded(payload: &[u8]) -> Result<FleetMeta, String> {
        let mut meta = FleetMeta::default();
        codec::decode(payload, &mut meta, "fleet image", FleetMeta::fields).map(|()| meta)
    }

    #[test]
    fn meta_round_trips_bit_exactly() {
        let meta = sample_meta();
        let decoded = decoded(&encoded(meta.clone())).unwrap();
        assert_eq!(decoded, meta);
    }

    #[test]
    fn meta_rejects_malformed_payloads() {
        for version in [2, 3, 99] {
            let mut bytes = encoded(sample_meta());
            bytes[0] = version;
            assert!(decoded(&bytes).is_err(), "version {version}");
        }
        let bytes = encoded(sample_meta());
        assert!(
            decoded(&bytes[..bytes.len() - 1]).is_err(),
            "short payload is rejected"
        );
        let mut bytes = encoded(sample_meta());
        bytes.push(0); // trailing garbage
        assert!(decoded(&bytes).is_err());
    }

    /// FNV-1a over bytes.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xCBF2_9CE4_8422_2325, |hash, &b| {
            (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        })
    }

    #[test]
    fn meta_layout_is_pinned() {
        let hash = fnv1a(&encoded(sample_meta()));
        assert_eq!(
            hash, META_LAYOUT_FNV,
            "the image layout moved ({hash:#018x}): bump META_VERSION and the hash"
        );
    }
}
