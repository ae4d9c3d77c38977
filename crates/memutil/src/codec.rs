//! Minimal little-endian binary codec, and the two-way field lists that
//! drive it for every persisted struct.
//!
//! The durability layer persists engine state as flat streams of
//! fixed-width integers (floats travel as IEEE-754 bit patterns). Keeping
//! the codec here, below every other crate, lets `memcon` encode its own
//! state without the store crate needing to know engine internals.
//!
//! # Field lists
//!
//! A persisted struct has exactly one field list: a function
//! `fields(&mut self, io: &mut Io) -> Result<(), String>` that hands each
//! persisted field to an [`Io`] in wire order. [`encode`] runs it over
//! [`Io::Enc`], which appends each field; [`decode`] runs it over
//! [`Io::Dec`], which overwrites each field with the value read. One list
//! in both directions means the encoder and the decoder cannot drift. The
//! rules a list keeps:
//!
//! * It destructures its struct with no `..`, so a new field does not
//!   compile until it is listed, or skipped by name (`cost: _`) with a
//!   comment saying how restore rebuilds it. A block of `u64` counters
//!   can go through [`u64_fields!`](crate::u64_fields), which expands to
//!   the same destructure.
//! * It writes nothing restore can recompute from the configuration or
//!   from other fields.
//! * Each decode-side refusal sits beside the field it guards
//!   ([`Io::refuse`], [`Io::fits`]). Refusals never fire while encoding,
//!   so a test can encode a deliberately broken state and watch the
//!   decoder refuse it.
//! * A variable-length list names the fewest bytes one item takes
//!   ([`Io::seq`]), so its length field cannot ask for more memory than
//!   the payload could fill.

/// Cursor-based decoder over a byte slice; every read is bounds-checked and
/// returns a descriptive error instead of panicking on truncated input.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

/// Little-endian fixed-width reads.
macro_rules! read {
    ($($name:ident: $t:ty),*) => {$(
        #[doc = concat!("Read a little-endian `", stringify!($t), "`.")]
        ///
        /// # Errors
        ///
        /// Truncated input.
        pub fn $name(&mut self) -> Result<$t, String> {
            const N: usize = std::mem::size_of::<$t>();
            let mut b = [0u8; N];
            b.copy_from_slice(self.take(N, stringify!($t))?);
            Ok(<$t>::from_le_bytes(b))
        }
    )*};
}

impl<'a> Dec<'a> {
    read!(u8: u8, u32: u32, u64: u64);

    /// Start decoding at the front of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
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

    /// Read a length-prefixed byte slice.
    ///
    /// # Errors
    ///
    /// Truncated input.
    pub fn bytes(&mut self) -> Result<&'a [u8], String> {
        let len = self.u64()?;
        let len = usize::try_from(len).map_err(|_| "codec: byte length overflow".to_string())?;
        self.take(len, "bytes")
    }

    /// Assert the stream is fully consumed (catches layout drift).
    ///
    /// # Errors
    ///
    /// Bytes left over.
    pub fn finish(self, what: &str) -> Result<(), String> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(format!(
                "codec: {} bytes of trailing garbage after {what}",
                self.remaining()
            ))
        }
    }
}

/// The direction a field list runs in (see the module doc). Every method
/// fails only when decoding: on truncated input, or on the refusal its
/// doc names.
#[derive(Debug)]
pub enum Io<'a> {
    /// Appends each field handed to it.
    Enc(Vec<u8>),
    /// Overwrites each field handed to it with the next value read.
    Dec(Dec<'a>),
}

/// One little-endian fixed-width field: appended, or overwritten by the
/// value read.
macro_rules! scalar {
    ($($name:ident: $t:ty),*) => {$(
        #[doc = concat!("A `", stringify!($t), "` field.")]
        pub fn $name(&mut self, v: &mut $t) -> Result<(), String> {
            match self {
                Io::Enc(out) => out.extend_from_slice(&v.to_le_bytes()),
                Io::Dec(d) => *v = d.$name()?,
            }
            Ok(())
        }
    )*};
}

/// A field list for a block of `u64` counters: destructures `$value` as
/// `$ty { fields }`, with no `..`, then hands each field to the [`Io`]
/// `$io` in the order written, returning early on an error. The fields
/// stay bound after it, for refusals that follow.
#[macro_export]
macro_rules! u64_fields {
    ($io:ident; $ty:ident { $($field:ident),+ $(,)? } = $value:expr) => {
        let $ty { $($field),+ } = $value;
        $($io.u64($field)?;)+
    };
}

impl Io<'_> {
    scalar!(u8: u8, u32: u32, u64: u64);

    /// Whether this list is decoding: the place for the few steps that
    /// rebuild in-memory structure the wire form does not carry.
    #[must_use]
    pub fn decoding(&self) -> bool {
        matches!(self, Io::Dec(_))
    }

    /// A bool field, one byte (0 or 1).
    pub fn bool(&mut self, v: &mut bool) -> Result<(), String> {
        let mut byte = u8::from(*v);
        self.u8(&mut byte)?;
        *v = match byte {
            0 => false,
            1 => true,
            _ => return Err(format!("codec: invalid bool byte {byte}")),
        };
        Ok(())
    }

    /// An `f64` field, travelling as its bit pattern so round trips are
    /// exact.
    pub fn f64(&mut self, v: &mut f64) -> Result<(), String> {
        let mut bits = v.to_bits();
        self.u64(&mut bits)?;
        *v = f64::from_bits(bits);
        Ok(())
    }

    /// A `usize` field, travelling as a `u64`.
    pub fn usize(&mut self, v: &mut usize) -> Result<(), String> {
        let mut wide = *v as u64;
        self.u64(&mut wide)?;
        *v = usize::try_from(wide).map_err(|_| format!("{wide} exceeds the address space"))?;
        Ok(())
    }

    /// A length-prefixed byte string.
    pub fn bytes(&mut self, v: &mut Vec<u8>) -> Result<(), String> {
        match self {
            Io::Enc(out) => {
                out.extend_from_slice(&(v.len() as u64).to_le_bytes());
                out.extend_from_slice(v);
            }
            Io::Dec(d) => *v = d.bytes()?.to_vec(),
        }
        Ok(())
    }

    /// A length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &mut String) -> Result<(), String> {
        let mut raw = std::mem::take(v).into_bytes();
        self.bytes(&mut raw)?;
        *v = String::from_utf8(raw).map_err(|_| "codec: invalid utf-8 string".to_string())?;
        Ok(())
    }

    /// The format version byte: `current` is written, and decoding refuses
    /// any other value.
    pub fn version(&mut self, current: u8, what: &str) -> Result<(), String> {
        let mut v = current;
        self.u8(&mut v)?;
        self.refuse(v != current, || {
            format!("{what} version {v} is not supported (expected {current})")
        })
    }

    /// One of the values in `all`, travelling as its index byte. Encoding
    /// a value missing from `all` fails too.
    pub fn tag<T: Copy + PartialEq>(
        &mut self,
        v: &mut T,
        all: &[T],
        what: &str,
    ) -> Result<(), String> {
        let mut index = all.iter().position(|x| x == v).map_or(u8::MAX, |i| i as u8);
        self.u8(&mut index)?;
        *v = *all
            .get(usize::from(index))
            .ok_or_else(|| format!("unknown {what} tag {index}"))?;
        Ok(())
    }

    /// An optional field: a presence byte, then the value through `item`
    /// (decoding starts it from `T::default()`).
    pub fn opt<T: Default>(
        &mut self,
        v: &mut Option<T>,
        item: impl FnOnce(&mut Self, &mut T) -> Result<(), String>,
    ) -> Result<(), String> {
        let mut some = v.is_some();
        self.bool(&mut some)?;
        if self.decoding() {
            *v = some.then(T::default);
        }
        match v {
            Some(x) => item(self, x),
            None => Ok(()),
        }
    }

    /// A length the decoder already knows (a page count, a fixed table
    /// size): written as a `u64`, and refused when the payload disagrees.
    pub fn len(&mut self, n: usize, what: &str) -> Result<(), String> {
        let mut got = n as u64;
        self.u64(&mut got)?;
        self.refuse(got != n as u64, || {
            format!("{what}: the payload holds {got} entries, expected {n}")
        })
    }

    /// A slice of known length: [`Io::len`], then each value.
    pub fn u64s(&mut self, v: &mut [u64], what: &str) -> Result<(), String> {
        self.len(v.len(), what)?;
        v.iter_mut().try_for_each(|x| self.u64(x))
    }

    /// A variable-length list: its length, then each item through `item`
    /// (decoding starts each from `T::default()`). `min_bytes`, never 0,
    /// is the fewest bytes one item takes, so a length the rest of the
    /// payload cannot hold is refused before anything is allocated.
    pub fn seq<T: Default>(
        &mut self,
        v: &mut Vec<T>,
        min_bytes: u64,
        what: &str,
        mut item: impl FnMut(&mut Self, &mut T) -> Result<(), String>,
    ) -> Result<(), String> {
        let mut n = v.len() as u64;
        self.u64(&mut n)?;
        self.fits(n, min_bytes, what)?;
        if self.decoding() {
            v.clear();
            v.resize_with(n as usize, T::default);
        }
        v.iter_mut().try_for_each(|x| item(self, x))
    }

    /// Refuses, when decoding, a count of `n` items of at least
    /// `min_bytes` each (never 0) that the bytes left cannot hold.
    pub fn fits(&self, n: u64, min_bytes: u64, what: &str) -> Result<(), String> {
        match self {
            Io::Dec(d) if n > d.remaining() as u64 / min_bytes => Err(format!(
                "{what} {n} exceeds what the {}-byte remainder can hold",
                d.remaining()
            )),
            _ => Ok(()),
        }
    }

    /// Refuses the payload with `why()` when decoding and `bad` holds.
    /// Encoding never refuses.
    pub fn refuse(&self, bad: bool, why: impl FnOnce() -> String) -> Result<(), String> {
        if bad && self.decoding() {
            Err(why())
        } else {
            Ok(())
        }
    }
}

/// Runs the field list `list` over `value`, appending every field, and
/// returns the bytes.
///
/// # Panics
///
/// Panics if `list` fails. Appending cannot fail and refusals do not fire
/// while encoding, so that is a value its list cannot persist — a caller
/// error (e.g. checkpointing an oracle without a field list).
pub fn encode<T>(
    value: &mut T,
    list: impl FnOnce(&mut T, &mut Io) -> Result<(), String>,
) -> Vec<u8> {
    let mut io = Io::Enc(Vec::new());
    if let Err(e) = list(value, &mut io) {
        // memlint: allow(no-panic): a value its field list cannot persist is a documented caller error
        panic!("cannot encode: {e}");
    }
    match io {
        Io::Enc(out) => out,
        Io::Dec(_) => Vec::new(),
    }
}

/// Runs the field list `list` over `value`, overwriting every field with
/// the values read from `bytes`, then refuses trailing bytes.
///
/// # Errors
///
/// Truncated input, any refusal of `list`, or bytes left over after it.
pub fn decode<T>(
    bytes: &[u8],
    value: &mut T,
    what: &str,
    list: impl FnOnce(&mut T, &mut Io) -> Result<(), String>,
) -> Result<(), String> {
    let mut io = Io::Dec(Dec::new(bytes));
    list(value, &mut io)?;
    match io {
        Io::Dec(d) => d.finish(what),
        Io::Enc(_) => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One field of every kind.
    #[derive(Debug, Default, Clone, PartialEq)]
    struct Sample {
        byte: u8,
        flag: bool,
        word: u32,
        wide: u64,
        size: usize,
        real: f64,
        blob: Vec<u8>,
        name: String,
        maybe: Option<u64>,
        fixed: [u64; 3],
        list: Vec<u64>,
        kind: char,
    }

    impl Sample {
        fn fields(&mut self, io: &mut Io) -> Result<(), String> {
            let Sample {
                byte,
                flag,
                word,
                wide,
                size,
                real,
                blob,
                name,
                maybe,
                fixed,
                list,
                kind,
            } = self;
            io.version(3, "sample")?;
            io.u8(byte)?;
            io.bool(flag)?;
            io.u32(word)?;
            io.u64(wide)?;
            io.usize(size)?;
            io.f64(real)?;
            io.bytes(blob)?;
            io.str(name)?;
            io.opt(maybe, Io::u64)?;
            io.u64s(fixed, "fixed")?;
            io.seq(list, 8, "list length", |io, x| {
                io.u64(x)?;
                io.refuse(*x > 100, || format!("list item {x} past 100"))
            })?;
            io.tag(kind, &['a', 'b', 'c'], "kind")
        }
    }

    fn sample() -> Sample {
        Sample {
            byte: 7,
            flag: true,
            word: 0xDEAD_BEEF,
            wide: u64::MAX - 3,
            size: 12,
            real: -0.125,
            blob: b"hello".to_vec(),
            name: "memcon".to_string(),
            maybe: Some(9),
            fixed: [1, 2, 3],
            list: vec![4, 5],
            kind: 'b',
        }
    }

    fn decoded(bytes: &[u8]) -> Result<Sample, String> {
        let mut s = Sample::default();
        decode(bytes, &mut s, "sample", Sample::fields).map(|()| s)
    }

    #[test]
    fn one_field_list_round_trips_every_kind() {
        let mut s = sample();
        let bytes = encode(&mut s, Sample::fields);
        assert_eq!(s, sample(), "encoding leaves the value alone");
        assert_eq!(decoded(&bytes).unwrap(), s);
        s.maybe = None;
        s.list.clear();
        assert_eq!(decoded(&encode(&mut s, Sample::fields)).unwrap(), s);
    }

    #[test]
    fn refusals_fire_only_when_decoding() {
        // The encoder writes a state its decoder refuses, so tests can
        // build each malformed payload from a broken in-memory value.
        let mut s = sample();
        s.list.push(101);
        let bytes = encode(&mut s, Sample::fields);
        let err = decoded(&bytes).unwrap_err();
        assert!(err.contains("list item 101 past 100"), "{err}");
    }

    #[test]
    fn malformed_payloads_are_refused() {
        let bytes = encode(&mut sample(), Sample::fields);
        let mut old = bytes.clone();
        old[0] = 2;
        assert!(decoded(&old).unwrap_err().contains("sample version 2"));
        let mut bad_tag = bytes.clone();
        *bad_tag.last_mut().unwrap() = 3;
        assert!(decoded(&bad_tag)
            .unwrap_err()
            .contains("unknown kind tag 3"));
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(decoded(&trailing).unwrap_err().contains("trailing"));
        for cut in 0..bytes.len() {
            assert!(decoded(&bytes[..cut]).is_err(), "truncated to {cut}");
        }
    }

    #[test]
    fn a_list_longer_than_the_payload_is_refused_before_allocating() {
        let mut io = Io::Dec(Dec::new(&[0xFF; 16]));
        let mut v: Vec<u64> = Vec::new();
        let err = io.seq(&mut v, 8, "list length", Io::u64).unwrap_err();
        assert!(err.contains("exceeds what the 8-byte remainder"), "{err}");
        assert!(v.capacity() == 0, "nothing allocated");
    }

    #[test]
    fn truncated_reads_error_instead_of_panicking() {
        let mut d = Dec::new(&[1, 2, 3]);
        assert!(d.u64().is_err());
        let mut d = Dec::new(&[8, 0, 0, 0, 0, 0, 0, 0, 1]);
        assert!(d.bytes().is_err());
    }

    #[test]
    fn finish_flags_trailing_bytes() {
        let b = [1, 0, 0, 0, 0, 0, 0, 0, 9];
        let mut d = Dec::new(&b);
        d.u64().unwrap();
        assert!(d.finish("partial").is_err());
    }

    #[test]
    fn f64_round_trip_is_bit_exact() {
        for v in [0.0, -0.0, 1.5e-300, f64::INFINITY, f64::MIN_POSITIVE] {
            let mut x = v;
            let b = encode(&mut x, |x, io| io.f64(x));
            let mut got = 0.0;
            decode(&b, &mut got, "f64", |x, io| io.f64(x)).unwrap();
            assert_eq!(got.to_bits(), v.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "cannot encode: unknown kind tag")]
    fn encoding_a_value_its_list_cannot_persist_panics() {
        let mut s = sample();
        s.kind = 'z';
        let _ = encode(&mut s, Sample::fields);
    }
}
