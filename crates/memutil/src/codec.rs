//! Minimal little-endian binary codec shared by the snapshot encoders.
//!
//! The durability layer persists engine state as flat streams of fixed-width
//! integers (floats travel as IEEE-754 bit patterns). Keeping the codec here,
//! below every other crate, lets `memcon` encode its own state without the
//! store crate needing to know engine internals.

/// Append-only encoder producing a flat little-endian byte stream.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// Create an empty encoder.
    pub fn new() -> Self {
        Self { buf: Vec::new() }
    }

    /// Create an encoder with a pre-sized buffer.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Append a single byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a bool as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Append a `u32` little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64` little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Floats are persisted as raw bit patterns so round-trips are exact.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Length-prefixed byte slice.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Length-prefixed slice of u64 values.
    pub fn u64_slice(&mut self, v: &[u64]) {
        self.u64(v.len() as u64);
        for x in v {
            self.u64(*x);
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consume the encoder and return the byte stream.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Borrow the bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }
}

/// Cursor-based decoder over a byte slice; every read is bounds-checked and
/// returns a descriptive error instead of panicking on truncated input.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Start decoding at the front of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when the cursor has consumed the whole slice.
    pub fn is_done(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Current cursor offset.
    pub fn pos(&self) -> usize {
        self.pos
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], String> {
        if self.remaining() < n {
            return Err(format!(
                "codec: truncated input reading {what}: need {n} bytes at offset {}, have {}",
                self.pos,
                self.remaining()
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Read a bool byte, rejecting anything but 0/1.
    pub fn bool(&mut self) -> Result<bool, String> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(format!("codec: invalid bool byte {v}")),
        }
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, String> {
        let s = self.take(4, "u32")?;
        let mut b = [0u8; 4];
        b.copy_from_slice(s);
        Ok(u32::from_le_bytes(b))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, String> {
        let s = self.take(8, "u64")?;
        let mut b = [0u8; 8];
        b.copy_from_slice(s);
        Ok(u64::from_le_bytes(b))
    }

    /// Read an `f64` persisted as its bit pattern.
    pub fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a length-prefixed byte slice.
    pub fn bytes(&mut self) -> Result<&'a [u8], String> {
        let len = self.u64()?;
        let len = usize::try_from(len).map_err(|_| "codec: byte length overflow".to_string())?;
        self.take(len, "bytes")
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, String> {
        let raw = self.bytes()?;
        String::from_utf8(raw.to_vec()).map_err(|_| "codec: invalid utf-8 string".to_string())
    }

    /// Read a length-prefixed `u64` slice.
    pub fn u64_vec(&mut self) -> Result<Vec<u64>, String> {
        let len = self.u64()?;
        let len = usize::try_from(len).map_err(|_| "codec: slice length overflow".to_string())?;
        if self.remaining() < len.saturating_mul(8) {
            return Err(format!(
                "codec: truncated u64 slice: claimed {len} entries, {} bytes remain",
                self.remaining()
            ));
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.u64()?);
        }
        Ok(out)
    }

    /// Assert the stream is fully consumed (catches layout drift).
    pub fn finish(self, what: &str) -> Result<(), String> {
        if self.is_done() {
            Ok(())
        } else {
            Err(format!(
                "codec: {} bytes of trailing garbage after {what}",
                self.remaining()
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_every_primitive() {
        let mut e = Enc::new();
        e.u8(7);
        e.bool(true);
        e.bool(false);
        e.u32(0xDEAD_BEEF);
        e.u64(u64::MAX - 3);
        e.f64(-0.125);
        e.bytes(b"hello");
        e.str("memcon");
        e.u64_slice(&[1, 2, 3]);
        let bytes = e.into_bytes();

        let mut d = Dec::new(&bytes);
        assert_eq!(d.u8().unwrap(), 7);
        assert!(d.bool().unwrap());
        assert!(!d.bool().unwrap());
        assert_eq!(d.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.u64().unwrap(), u64::MAX - 3);
        assert_eq!(d.f64().unwrap(), -0.125);
        assert_eq!(d.bytes().unwrap(), b"hello");
        assert_eq!(d.str().unwrap(), "memcon");
        assert_eq!(d.u64_vec().unwrap(), vec![1, 2, 3]);
        d.finish("round trip").unwrap();
    }

    #[test]
    fn truncated_reads_error_instead_of_panicking() {
        let mut d = Dec::new(&[1, 2, 3]);
        assert!(d.u64().is_err());
        let mut d = Dec::new(&[8, 0, 0, 0, 0, 0, 0, 0, 1]);
        assert!(d.bytes().is_err());
    }

    #[test]
    fn f64_round_trip_is_bit_exact() {
        for v in [0.0, -0.0, 1.5e-300, f64::INFINITY, f64::MIN_POSITIVE] {
            let mut e = Enc::new();
            e.f64(v);
            let b = e.into_bytes();
            let got = Dec::new(&b).f64().unwrap();
            assert_eq!(got.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn finish_flags_trailing_bytes() {
        let mut e = Enc::new();
        e.u64(1);
        e.u8(9);
        let b = e.into_bytes();
        let mut d = Dec::new(&b);
        d.u64().unwrap();
        assert!(d.finish("partial").is_err());
    }
}
