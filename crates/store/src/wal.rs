//! The WAL record, its framing, and the truncating recovery scan.
//!
//! The only record is a [`Progress`] marker. Every record travels as one
//! frame:
//!
//! ```text
//! [ payload_len: u32 LE ][ crc32(payload): u32 LE ][ payload ... ]
//! ```
//!
//! The scan walks a segment front to back and stops at the first frame
//! that is incomplete, fails its checksum, or decodes to garbage. Bytes
//! from that point on are a *torn tail*: the scan reports how many, and
//! the store truncates the file back to the last valid record. A torn
//! tail can only lose suffix records — everything before it was verified
//! by checksum — which is exactly the contract an append-only log with
//! crash-mid-write semantics can honor.

use memutil::codec::{Dec, Enc};

/// A quantum boundary passed since the newest snapshot: one quantum a
/// resume from that snapshot re-simulates. Engine state itself travels in
/// snapshots; markers only count the work past them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Progress {
    /// Quantum index just completed.
    pub quantum: u64,
    /// Trace time of the boundary in nanoseconds.
    pub now_ns: u64,
}

impl Progress {
    /// Encodes the marker as two little-endian words.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::with_capacity(16);
        e.u64(self.quantum);
        e.u64(self.now_ns);
        e.into_bytes()
    }

    /// Decodes a payload produced by [`encode`](Self::encode).
    ///
    /// # Errors
    ///
    /// Returns a description when the payload is short or has trailing
    /// bytes — treated as corruption by the recovery scan.
    pub fn decode(payload: &[u8]) -> Result<Progress, String> {
        let mut d = Dec::new(payload);
        let marker = Progress {
            quantum: d.u64()?,
            now_ns: d.u64()?,
        };
        d.finish("progress marker")?;
        Ok(marker)
    }
}

/// Frame header size: payload length + checksum.
pub const FRAME_HEADER: usize = 8;

/// Size of one framed [`Progress`] marker: header plus two words.
pub(crate) const PROGRESS_FRAME: usize = FRAME_HEADER + 16;

const CRC_TABLE: [u32; 256] = crc_table();

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// CRC-32 (IEEE 802.3, the zlib/gzip polynomial) of `bytes`.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Builds the on-disk frame for `payload`.
#[must_use]
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Outcome of scanning one WAL segment.
#[derive(Debug, Default)]
pub struct ScanResult {
    /// Markers recovered, in append order.
    pub records: Vec<Progress>,
    /// Byte length of the valid prefix (truncation point for repair).
    pub valid_len: u64,
    /// Whether the segment ended in a torn/corrupt tail.
    pub torn: bool,
}

/// Scans a whole segment image, stopping at the first torn or corrupt
/// frame. Pure — the store layers file IO and fault injection on top.
#[must_use]
pub fn scan_bytes(buf: &[u8]) -> ScanResult {
    let mut out = ScanResult::default();
    let mut pos = 0usize;
    while buf.len() - pos >= FRAME_HEADER {
        let mut word = [0u8; 4];
        word.copy_from_slice(&buf[pos..pos + 4]);
        let len = u32::from_le_bytes(word) as usize;
        word.copy_from_slice(&buf[pos + 4..pos + 8]);
        let want_crc = u32::from_le_bytes(word);
        let Some(end) = pos
            .checked_add(FRAME_HEADER)
            .and_then(|p| p.checked_add(len))
        else {
            break; // length field is garbage
        };
        if end > buf.len() {
            break; // incomplete frame: torn mid-append
        }
        let payload = &buf[pos + FRAME_HEADER..end];
        if crc32(payload) != want_crc {
            break; // checksum mismatch: corrupt record
        }
        let Ok(record) = Progress::decode(payload) else {
            break; // checksummed but undecodable: treat as corrupt
        };
        out.records.push(record);
        pos = end;
    }
    out.valid_len = pos as u64;
    out.torn = pos < buf.len();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_reference_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    fn log_of(records: &[Progress]) -> Vec<u8> {
        let mut buf = Vec::new();
        for r in records {
            buf.extend_from_slice(&frame(&r.encode()));
        }
        buf
    }

    fn sample(n: u64) -> Vec<Progress> {
        (0..n)
            .map(|i| Progress {
                quantum: i,
                now_ns: i * 7,
            })
            .collect()
    }

    #[test]
    fn progress_round_trips_and_rejects_bad_lengths() {
        let marker = Progress {
            quantum: 11,
            now_ns: 999,
        };
        assert_eq!(Progress::decode(&marker.encode()).unwrap(), marker);
        assert!(Progress::decode(&[]).is_err(), "empty payload");
        let mut bytes = marker.encode();
        bytes.pop();
        assert!(Progress::decode(&bytes).is_err(), "truncated field");
        let mut bytes = marker.encode();
        bytes.push(0);
        assert!(Progress::decode(&bytes).is_err(), "trailing byte");
    }

    #[test]
    fn scan_round_trips_a_clean_log() {
        let records = sample(25);
        let buf = log_of(&records);
        let scan = scan_bytes(&buf);
        assert_eq!(scan.records, records);
        assert_eq!(scan.valid_len, buf.len() as u64);
        assert!(!scan.torn);
    }

    #[test]
    fn scan_truncates_at_every_possible_torn_offset() {
        let records = sample(4);
        let buf = log_of(&records);
        let frame_len = frame(&records[0].encode()).len();
        for cut in 0..buf.len() {
            let scan = scan_bytes(&buf[..cut]);
            let whole = cut / frame_len;
            assert_eq!(scan.records.len(), whole, "cut={cut}");
            assert_eq!(scan.valid_len as usize, whole * frame_len, "cut={cut}");
            assert_eq!(scan.torn, cut % frame_len != 0, "cut={cut}");
            assert_eq!(scan.records[..], records[..whole]);
        }
    }

    #[test]
    fn scan_stops_at_a_corrupt_checksum_mid_log() {
        let records = sample(6);
        let mut buf = log_of(&records);
        let frame_len = frame(&records[0].encode()).len();
        // Flip one payload bit in the third record.
        buf[2 * frame_len + FRAME_HEADER] ^= 0x01;
        let scan = scan_bytes(&buf);
        assert_eq!(scan.records, records[..2]);
        assert!(scan.torn);
        assert_eq!(scan.valid_len as usize, 2 * frame_len);
    }

    #[test]
    fn scan_stops_at_a_corrupt_length_field() {
        let records = sample(3);
        let mut buf = log_of(&records);
        // Smash the second frame's length to a huge value.
        let frame_len = frame(&records[0].encode()).len();
        buf[frame_len] = 0xFF;
        buf[frame_len + 1] = 0xFF;
        buf[frame_len + 2] = 0xFF;
        buf[frame_len + 3] = 0xFF;
        let scan = scan_bytes(&buf);
        assert_eq!(scan.records, records[..1]);
        assert!(scan.torn);
    }

    #[test]
    fn empty_input_scans_clean() {
        let scan = scan_bytes(&[]);
        assert!(scan.records.is_empty());
        assert_eq!(scan.valid_len, 0);
        assert!(!scan.torn);
    }
}
