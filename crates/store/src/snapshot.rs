//! Binary snapshot files: atomically published, checksum-verified.
//!
//! A snapshot holds one opaque state blob. On-disk layout (all
//! little-endian):
//!
//! ```text
//! [ magic: u64 ][ seq: u64 ][ len: u64 ][ crc32: u32 ][ payload ... ]
//! ```
//!
//! The checksum covers the `seq` and `len` words and the payload. It is
//! streamed over the header words and then the payload slice, so neither
//! side copies the payload to checksum it, and decoding verifies before it
//! copies. Publication is write-temp → rename (fsynced in `Strict` mode),
//! so a crash at any point leaves either the old snapshot set or the old
//! set plus one new complete file — never a half-written current snapshot.

use memutil::codec::{Dec, Enc};

/// `MCSNAP02` in ASCII: identifies (and versions) snapshot files. The
/// `MCSNAP01` format carried a third header word, so its images fail the
/// magic check and are refused as corrupt.
pub const SNAP_MAGIC: u64 = 0x4D43_534E_4150_3032;

/// Header bytes before the payload: magic, seq, len and the checksum.
const HEADER: usize = 8 + 8 + 8 + 4;

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

/// Extends the CRC-32 `crc` of some bytes `a` over `bytes`, returning the
/// CRC-32 of `a` followed by `bytes`; start from 0 for empty `a`.
fn crc32_update(crc: u32, bytes: &[u8]) -> u32 {
    let mut c = !crc;
    for &b in bytes {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// CRC-32 (IEEE 802.3, the zlib/gzip polynomial) of `bytes`.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0, bytes)
}

/// A decoded, checksum-verified snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Monotonic snapshot sequence number within the store.
    pub seq: u64,
    /// Opaque caller-defined state blob.
    pub payload: Vec<u8>,
}

/// The checksum over the `seq` and `len` header words, then the payload.
fn image_crc(seq: u64, payload: &[u8]) -> u32 {
    let crc = crc32_update(0, &seq.to_le_bytes());
    let crc = crc32_update(crc, &(payload.len() as u64).to_le_bytes());
    crc32_update(crc, payload)
}

/// Encodes a snapshot file image. The checksum covers everything after
/// the magic, so any flipped bit there is caught at decode.
#[must_use]
pub fn encode(seq: u64, payload: &[u8]) -> Vec<u8> {
    let mut e = Enc::with_capacity(HEADER + payload.len());
    e.u64(SNAP_MAGIC);
    e.u64(seq);
    e.u64(payload.len() as u64);
    e.u32(image_crc(seq, payload));
    let mut out = e.into_bytes();
    out.extend_from_slice(payload);
    out
}

/// Decodes and verifies a snapshot file image.
///
/// # Errors
///
/// Returns a description when the magic, length, or checksum does not
/// hold — the caller treats the file as corrupt and falls back to the
/// previous snapshot (or refuses recovery), never loading a bad image.
pub fn decode(bytes: &[u8]) -> Result<Snapshot, String> {
    let mut d = Dec::new(bytes);
    let magic = d.u64()?;
    if magic != SNAP_MAGIC {
        return Err(format!("snapshot: bad magic {magic:#018x}"));
    }
    let seq = d.u64()?;
    let len = d.u64()?;
    let want_crc = d.u32()?;
    if d.remaining() as u64 != len {
        return Err(format!(
            "snapshot: payload length {len} does not match {} trailing bytes",
            d.remaining()
        ));
    }
    let payload = &bytes[HEADER..];
    if image_crc(seq, payload) != want_crc {
        return Err("snapshot: checksum mismatch".to_string());
    }
    Ok(Snapshot {
        seq,
        payload: payload.to_vec(),
    })
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

    #[test]
    fn streamed_crc_matches_one_shot_at_every_split() {
        let data: Vec<u8> = (0..64u8).map(|i| i.wrapping_mul(37) ^ 0xA5).collect();
        let whole = crc32(&data);
        for split in 0..=data.len() {
            let (a, b) = data.split_at(split);
            assert_eq!(crc32_update(crc32(a), b), whole, "split at {split}");
        }
    }

    #[test]
    fn round_trip() {
        let img = encode(3, b"engine-state");
        assert_eq!(img.len(), HEADER + 12);
        let snap = decode(&img).unwrap();
        assert_eq!(snap.seq, 3);
        assert_eq!(snap.payload, b"engine-state");
    }

    #[test]
    fn empty_payload_round_trips() {
        let img = encode(0, &[]);
        assert_eq!(decode(&img).unwrap().payload, Vec::<u8>::new());
    }

    #[test]
    fn corruption_anywhere_is_detected() {
        let img = encode(5, b"some state bytes");
        for i in 0..img.len() {
            let mut bad = img.clone();
            bad[i] ^= 0x40;
            assert!(decode(&bad).is_err(), "flip at byte {i} went undetected");
        }
        // Truncation at any point is detected too.
        for cut in 0..img.len() {
            assert!(decode(&img[..cut]).is_err(), "truncation to {cut} loaded");
        }
    }

    #[test]
    fn images_of_the_previous_format_are_refused() {
        // The previous header: MCSNAP01, seq, a since-dropped bound word,
        // len, then a checksum over those three words and the payload.
        let payload = b"old state";
        let mut covered = Enc::new();
        covered.u64(1);
        covered.u64(2);
        covered.u64(payload.len() as u64);
        let mut covered = covered.into_bytes();
        covered.extend_from_slice(payload);
        let mut old = Enc::new();
        old.u64(0x4D43_534E_4150_3031);
        old.u64(1);
        old.u64(2);
        old.u64(payload.len() as u64);
        old.u32(crc32(&covered));
        let mut old = old.into_bytes();
        old.extend_from_slice(payload);
        let err = decode(&old).unwrap_err();
        assert!(err.contains("bad magic"), "{err}");
    }
}
