//! Seedable pseudo-random number generation with a rand-0.8-compatible
//! surface.
//!
//! Two generators are provided:
//!
//! * [`SplitMix64`] — a tiny 64-bit state mixer (Steele et al.), used for
//!   seeding and for cheap decorrelated streams,
//! * [`Xoshiro256StarStar`] — `xoshiro256**` (Blackman & Vigna), the
//!   general-purpose generator; [`SmallRng`] aliases it so call sites read
//!   exactly as they did under `rand::rngs::SmallRng`.
//!
//! The trait surface mirrors the subset of `rand` 0.8 the workspace uses:
//! [`Rng::gen`], [`Rng::gen_range`] (half-open and inclusive integer and
//! float ranges), [`Rng::gen_bool`], [`SeedableRng::seed_from_u64`], and
//! [`SliceRandom`] (`shuffle`/`choose`). Sampling is deterministic for a
//! given seed across platforms; no global or thread-local state exists, so
//! every stream must be explicitly seeded — which is exactly what a
//! reproducible simulator wants.

use std::ops::{Range, RangeInclusive};

/// A source of raw 64-bit random words.
pub trait RngCore {
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Construction of a generator from a 64-bit seed.
pub trait SeedableRng: Sized {
    /// Builds a generator whose stream is fully determined by `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// High-level sampling methods, implemented for every [`RngCore`].
pub trait Rng: RngCore + Sized {
    /// Samples a value of type `T` from its "standard" distribution
    /// (uniform over all values for integers, uniform in `[0, 1)` for
    /// floats, fair coin for `bool`).
    fn gen<T: Standard>(&mut self) -> T {
        T::from_rng(self)
    }

    /// Samples uniformly from `range`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!(
            (0.0..=1.0).contains(&p),
            "gen_bool probability {p} not in [0, 1]"
        );
        self.gen::<f64>() < p
    }
}

impl<R: RngCore + Sized> Rng for R {}

/// Types samplable from raw random bits (the analogue of rand's `Standard`
/// distribution).
pub trait Standard: Sized {
    /// Samples one value from `rng`.
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for u128 {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64())
    }
}

impl Standard for bool {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    /// Uniform in `[0, 1)` with 24 bits of precision.
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Ranges that can produce a uniform sample of `T`.
pub trait SampleRange<T> {
    /// Samples uniformly from `self`.
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Bias-free uniform integer in `[0, span)` via Lemire's multiply-shift
/// rejection method. `span` must be non-zero.
fn uniform_below<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    let mut m = u128::from(rng.next_u64()) * u128::from(span);
    let mut low = m as u64;
    if low < span {
        let threshold = span.wrapping_neg() % span;
        while low < threshold {
            m = u128::from(rng.next_u64()) * u128::from(span);
            low = m as u64;
        }
    }
    (m >> 64) as u64
}

macro_rules! sample_range_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range over empty range");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start.wrapping_add(uniform_below(rng, span) as $t)
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range over empty range");
                let span = (hi as u64).wrapping_sub(lo as u64).wrapping_add(1);
                if span == 0 {
                    // Full-width inclusive range of a 64-bit type.
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(uniform_below(rng, span) as $t)
            }
        }
    )*};
}
sample_range_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleRange<f64> for Range<f64> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "gen_range over empty float range");
        let u: f64 = f64::from_rng(rng);
        let x = self.start + u * (self.end - self.start);
        // Guard the open upper bound against rounding.
        if x < self.end {
            x
        } else {
            self.start
        }
    }
}

impl SampleRange<f64> for RangeInclusive<f64> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "gen_range over empty float range");
        let u: f64 = f64::from_rng(rng);
        lo + u * (hi - lo)
    }
}

/// Random operations on slices (the analogue of `rand::seq::SliceRandom`).
pub trait SliceRandom {
    /// Element type.
    type Item;
    /// Fisher–Yates shuffle in place.
    fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);
    /// A uniformly random element, or `None` if empty.
    fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
}

impl<T> SliceRandom for [T] {
    type Item = T;

    fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
        for i in (1..self.len()).rev() {
            let j = uniform_below(rng, i as u64 + 1) as usize;
            self.swap(i, j);
        }
    }

    fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&T> {
        if self.is_empty() {
            None
        } else {
            Some(&self[uniform_below(rng, self.len() as u64) as usize])
        }
    }
}

/// The SplitMix64 output function of state `x`: a golden-ratio step, then
/// a bijective avalanche mix. The seed-derivation and keyed-hash mix of
/// every crate that needs one, and [`SplitMix64`]'s output.
#[inline]
#[must_use]
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `SplitMix64` (Steele, Lea, Flood): one 64-bit word of state, equidistant
/// jumps through a bijective mix. Used for seeding and cheap seed streams.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator starting at `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }
}

impl RngCore for SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        let out = mix64(self.state);
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        out
    }
}

impl SeedableRng for SplitMix64 {
    fn seed_from_u64(seed: u64) -> Self {
        SplitMix64::new(seed)
    }
}

/// `xoshiro256**` (Blackman & Vigna): 256-bit state, excellent statistical
/// quality, sub-nanosecond generation. The workspace's general-purpose PRNG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

impl Xoshiro256StarStar {
    /// Expose the 256-bit internal state so a generator mid-stream can be
    /// persisted (durable snapshots) and resumed bit-identically.
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Rebuild a generator from a persisted [`state`](Self::state). The
    /// all-zero state is a fixed point of xoshiro and is rejected.
    pub fn from_state(s: [u64; 4]) -> Result<Self, String> {
        if s == [0, 0, 0, 0] {
            return Err("xoshiro256**: all-zero state is invalid".to_string());
        }
        Ok(Xoshiro256StarStar { s })
    }
}

impl RngCore for Xoshiro256StarStar {
    fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

impl SeedableRng for Xoshiro256StarStar {
    /// Expands the seed through [`SplitMix64`] as the xoshiro authors
    /// recommend, guaranteeing a non-zero state for every seed.
    fn seed_from_u64(seed: u64) -> Self {
        let mut mix = SplitMix64::new(seed);
        Xoshiro256StarStar {
            s: [
                mix.next_u64(),
                mix.next_u64(),
                mix.next_u64(),
                mix.next_u64(),
            ],
        }
    }
}

/// The workspace's default small, fast generator (drop-in for
/// `rand::rngs::SmallRng`).
pub type SmallRng = Xoshiro256StarStar;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Reference values for seed 1234567 from the public-domain
        // splitmix64.c test run.
        let mut rng = SplitMix64::new(1234567);
        let first: Vec<u64> = (0..3).map(|_| rng.next_u64()).collect();
        assert_eq!(first[0], 6457827717110365317);
        assert_eq!(first[1], 3203168211198807973);
        assert_eq!(first[2], 9817491932198370423);
        assert_eq!(mix64(1234567), first[0], "the output of state 1234567");
    }

    #[test]
    fn xoshiro_is_deterministic_and_seed_sensitive() {
        let a: Vec<u64> = {
            let mut r = SmallRng::seed_from_u64(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SmallRng::seed_from_u64(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = SmallRng::seed_from_u64(43);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut r = SmallRng::seed_from_u64(0);
        assert_ne!(r.s, [0; 4], "SplitMix expansion avoids the all-zero state");
        let words: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
        assert!(words.iter().any(|&w| w != 0));
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut r = SmallRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x = r.gen_range(10u64..20);
            assert!((10..20).contains(&x));
            let y = r.gen_range(-5i32..=5);
            assert!((-5..=5).contains(&y));
            let f = r.gen_range(0.25f64..0.75);
            assert!((0.25..0.75).contains(&f));
            let g: f64 = r.gen();
            assert!((0.0..1.0).contains(&g));
        }
    }

    #[test]
    fn gen_range_covers_small_domains_uniformly() {
        let mut r = SmallRng::seed_from_u64(11);
        let mut counts = [0u32; 8];
        for _ in 0..80_000 {
            counts[r.gen_range(0usize..8)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (9_000..11_000).contains(&c),
                "bucket {i} count {c} far from uniform 10000"
            );
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut r = SmallRng::seed_from_u64(0);
        let _ = r.gen_range(5u32..5);
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut r = SmallRng::seed_from_u64(3);
        let hits = (0..100_000).filter(|_| r.gen_bool(0.25)).count();
        assert!((24_000..26_000).contains(&hits), "got {hits}");
        assert!(!(0..100).any(|_| r.gen_bool(0.0)));
        assert!((0..100).all(|_| r.gen_bool(1.0)));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = SmallRng::seed_from_u64(5);
        let mut v: Vec<u32> = (0..100).collect();
        v.shuffle(&mut r);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            v, sorted,
            "100 elements virtually never shuffle to identity"
        );
    }

    #[test]
    fn choose_returns_none_on_empty() {
        let mut r = SmallRng::seed_from_u64(6);
        let empty: [u8; 0] = [];
        assert_eq!(empty.choose(&mut r), None);
        let one = [9u8];
        assert_eq!(one.choose(&mut r), Some(&9));
    }

    #[test]
    fn rng_usable_through_mut_reference() {
        fn sample(mut rng: impl Rng) -> f64 {
            rng.gen()
        }
        let mut r = SmallRng::seed_from_u64(8);
        let x = sample(&mut r);
        let y = sample(&mut r);
        assert_ne!(x, y);
    }
}
