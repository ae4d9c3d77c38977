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
//! own `live_stats()`: one image holds the whole fleet at one barrier.

use memutil::codec::{Dec, Enc};

/// Fleet image payload format version (the first payload byte).
const META_VERSION: u8 = 4;

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
#[derive(Debug, Clone, PartialEq, Eq)]
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
    /// Encodes the image payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let shard_bytes: usize = self.shards.iter().map(|s| 8 + s.len()).sum();
        let mut e = Enc::with_capacity(32 + 96 * self.entries.len() + shard_bytes);
        e.u8(META_VERSION);
        e.u64(self.epoch);
        e.u64(self.epoch_quanta);
        e.u64(self.entries.len() as u64);
        for entry in &self.entries {
            e.u64(entry.epoch);
            e.u64(entry.faults_injected);
            e.u64(entry.aborts);
            e.u64(entry.retries);
            e.u64(entry.backoffs_scheduled);
            e.u64(entry.backoff_ceiling_hits);
            e.u64(entry.escapes);
            e.u64(entry.pinned_pages);
            e.u64(entry.pages);
            e.u64(entry.pril_buffered);
            e.u64(entry.pril_capacity);
            e.u64(entry.shards_done);
        }
        e.u64(self.shards.len() as u64);
        for shard in &self.shards {
            e.bytes(shard);
        }
        e.into_bytes()
    }

    /// Decodes an image payload.
    ///
    /// # Errors
    ///
    /// Returns a description when the payload is malformed, carries an
    /// unsupported version, or holds an epoch log that disagrees with its
    /// epoch clock (one entry per completed epoch, numbered from 1).
    pub fn decode(payload: &[u8]) -> Result<FleetMeta, String> {
        let mut d = Dec::new(payload);
        let version = d.u8()?;
        if version != META_VERSION {
            return Err(format!(
                "fleet meta version {version} is not supported (expected {META_VERSION})"
            ));
        }
        let epoch = d.u64()?;
        let epoch_quanta = d.u64()?;
        let n_entries = d.u64()?;
        if n_entries != epoch {
            return Err(format!(
                "the epoch log holds {n_entries} entries but the clock reads epoch {epoch}"
            ));
        }
        let mut entries = Vec::with_capacity(n_entries.min(4096) as usize);
        for i in 1..=n_entries {
            let entry = EpochEntry {
                epoch: d.u64()?,
                faults_injected: d.u64()?,
                aborts: d.u64()?,
                retries: d.u64()?,
                backoffs_scheduled: d.u64()?,
                backoff_ceiling_hits: d.u64()?,
                escapes: d.u64()?,
                pinned_pages: d.u64()?,
                pages: d.u64()?,
                pril_buffered: d.u64()?,
                pril_capacity: d.u64()?,
                shards_done: d.u64()?,
            };
            if entry.epoch != i {
                return Err(format!(
                    "epoch log entry {i} is numbered epoch {}",
                    entry.epoch
                ));
            }
            entries.push(entry);
        }
        let n_shards = d.u64()?;
        let mut shards = Vec::with_capacity(n_shards.min(4096) as usize);
        for _ in 0..n_shards {
            shards.push(d.bytes()?.to_vec());
        }
        d.finish("fleet image")?;
        Ok(FleetMeta {
            epoch,
            epoch_quanta,
            entries,
            shards,
        })
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

    #[test]
    fn meta_round_trips_bit_exactly() {
        let meta = sample_meta();
        let decoded = FleetMeta::decode(&meta.encode()).unwrap();
        assert_eq!(decoded, meta);
    }

    #[test]
    fn meta_rejects_malformed_payloads() {
        for version in [2, 3, 99] {
            let mut bytes = sample_meta().encode();
            bytes[0] = version;
            assert!(FleetMeta::decode(&bytes).is_err(), "version {version}");
        }
        let bytes = sample_meta().encode();
        assert!(
            FleetMeta::decode(&bytes[..bytes.len() - 1]).is_err(),
            "short payload is rejected"
        );
        let mut bytes = sample_meta().encode();
        bytes.push(0); // trailing garbage
        assert!(FleetMeta::decode(&bytes).is_err());
    }
}
