//! Synthetic SPEC CPU2006-like memory content.
//!
//! Paper Fig. 4 tests real chips with memory-content dumps of 20 SPEC
//! CPU2006 benchmarks, duplicated across the module. We do not have the
//! dumps, so each benchmark gets a *statistical content profile*: a mixture
//! of word classes (zero words, full-entropy data, pointers, small integers,
//! ASCII text) that determines how strongly the image excites coupling
//! aggressors. The profiles were assigned so the failing-row fractions span
//! the published 0.38 %–5.6 % band; what matters downstream is only the
//! *spread* (some content is near-worst-case, some nearly benign), not which
//! named benchmark sits where.

use memutil::rng::SmallRng;
use memutil::rng::{Rng, SeedableRng};

use dram::address::RowId;
use dram::cell::RowContent;

/// One class of memory word, with its characteristic bit statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum WordClass {
    /// All-zero word.
    Zero,
    /// Full-entropy word.
    Random,
    /// Canonical user-space pointer (shared high bits).
    Pointer,
    /// Small integer (only low bits populated).
    SmallInt,
    /// Printable ASCII bytes.
    Text,
}

impl WordClass {
    /// One word of this class: the per-word reference that
    /// [`WordClass::words`] must match.
    #[inline(always)]
    fn sample<R: Rng>(self, rng: &mut R) -> u64 {
        match self {
            WordClass::Zero => 0,
            WordClass::Random => rng.gen(),
            WordClass::Pointer => {
                // Canonical user-space pointer: 0x0000_7fXX_XXXX_XXX0-ish.
                let low: u64 = rng.gen_range(0..1u64 << 40);
                0x0000_7f00_0000_0000 | (low & !0x7)
            }
            WordClass::SmallInt => rng.gen_range(0..4096u64),
            WordClass::Text => {
                let mut w = 0u64;
                for i in 0..8 {
                    let b: u64 = rng.gen_range(0x20..0x7F);
                    w |= b << (8 * i);
                }
                w
            }
        }
    }

    /// `n` words of this class: exactly the words, and the draws, of `n`
    /// calls to [`WordClass::sample`], with the class `match` taken once
    /// per row instead of once per word.
    fn words<R: Rng>(self, rng: &mut R, n: usize) -> Vec<u64> {
        // `sample` inlines with a constant class, so every arm compiles to
        // a loop of its own with no per-word dispatch.
        #[inline(always)]
        fn each<R: Rng>(class: WordClass, rng: &mut R, n: usize) -> Vec<u64> {
            (0..n).map(|_| class.sample(rng)).collect()
        }
        match self {
            WordClass::Zero => vec![0; n],
            WordClass::Random => each(WordClass::Random, rng, n),
            WordClass::Pointer => each(WordClass::Pointer, rng, n),
            WordClass::SmallInt => each(WordClass::SmallInt, rng, n),
            WordClass::Text => each(WordClass::Text, rng, n),
        }
    }
}

/// Mixture weights over word classes for one program's memory image.
///
/// Weights need not sum to one; they are normalized at sampling time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContentProfile {
    /// Fraction of all-zero words (untouched or zero-initialized memory).
    pub zero: f64,
    /// Fraction of full-entropy words (compressed/encoded/floating data).
    pub random: f64,
    /// Fraction of pointer-like words (shared high bits, varying low bits).
    pub pointer: f64,
    /// Fraction of small-integer words (counters, sizes, enum tags).
    pub small_int: f64,
    /// Fraction of ASCII text words.
    pub text: f64,
}

impl ContentProfile {
    /// A profile of pure zero pages (idle memory).
    #[must_use]
    pub fn zeroes() -> Self {
        ContentProfile {
            zero: 1.0,
            random: 0.0,
            pointer: 0.0,
            small_int: 0.0,
            text: 0.0,
        }
    }

    /// A profile of full-entropy data (the most failure-exciting program
    /// content achievable at the system level).
    #[must_use]
    pub fn random_data() -> Self {
        ContentProfile {
            zero: 0.0,
            random: 1.0,
            pointer: 0.0,
            small_int: 0.0,
            text: 0.0,
        }
    }

    fn total(&self) -> f64 {
        self.zero + self.random + self.pointer + self.small_int + self.text
    }

    /// Validates that the profile has positive total weight and no negative
    /// components.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        let parts = [
            self.zero,
            self.random,
            self.pointer,
            self.small_int,
            self.text,
        ];
        if parts.iter().any(|&p| p < 0.0 || !p.is_finite()) {
            return Err("profile weights must be non-negative and finite".into());
        }
        if self.total() <= 0.0 {
            return Err("profile must have positive total weight".into());
        }
        Ok(())
    }

    /// Draws a word class from the mixture.
    fn class<R: Rng>(&self, rng: &mut R) -> WordClass {
        let mut x = rng.gen_range(0.0..self.total());
        if x < self.zero {
            return WordClass::Zero;
        }
        x -= self.zero;
        if x < self.random {
            return WordClass::Random;
        }
        x -= self.random;
        if x < self.pointer {
            return WordClass::Pointer;
        }
        x -= self.pointer;
        if x < self.small_int {
            return WordClass::SmallInt;
        }
        WordClass::Text
    }

    /// The seeded generator of one row, and the row's class drawn from it.
    fn row_class(&self, seed: u64, snapshot: u32, row_id: RowId) -> (WordClass, SmallRng) {
        let mix = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(u64::from(snapshot) << 32)
            .wrapping_add(row_id);
        let mut rng = SmallRng::seed_from_u64(mix);
        (self.class(&mut rng), rng)
    }

    /// Deterministic content of one row under this profile.
    ///
    /// The mixture weights are applied at **page granularity**: each row
    /// (page) is drawn as one class and filled homogeneously — real memory
    /// images are structured in whole zero pages, heap pages, data arrays,
    /// and so on, and that page-level homogeneity is what limits how much
    /// cell-to-cell interference low-entropy programs excite.
    ///
    /// `snapshot` distinguishes successive content images of the same
    /// program (the paper samples one image per 100 M instructions).
    ///
    /// The row's class is drawn once, then its words fill one buffer in a
    /// loop specialised to that class, which the returned row wraps without
    /// copying. The words and the generator draws are exactly those of the
    /// per-word reference, one `WordClass::sample` call per word; tests
    /// pin the two against each other and against a recorded hash of the
    /// stream.
    #[must_use]
    pub fn row_content(&self, seed: u64, snapshot: u32, row_id: RowId, words: usize) -> RowContent {
        let (class, mut rng) = self.row_class(seed, snapshot, row_id);
        RowContent::from_words(class.words(&mut rng, words))
    }
}

macro_rules! spec_benchmarks {
    ($(($variant:ident, $name:literal, $zero:expr, $random:expr, $pointer:expr, $small:expr, $text:expr)),+ $(,)?) => {
        /// The 20 SPEC CPU2006 benchmarks of paper Fig. 4.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[allow(missing_docs)]
        pub enum SpecBenchmark {
            $($variant),+
        }

        impl SpecBenchmark {
            /// All benchmarks, in the paper's Fig. 4 x-axis order.
            pub const ALL: [SpecBenchmark; 20] = [$(SpecBenchmark::$variant),+];

            /// The benchmark's display name as used in Fig. 4.
            #[must_use]
            pub fn name(self) -> &'static str {
                match self {
                    $(SpecBenchmark::$variant => $name),+
                }
            }

            /// The benchmark's synthetic content profile.
            #[must_use]
            pub fn profile(self) -> ContentProfile {
                match self {
                    $(SpecBenchmark::$variant => ContentProfile {
                        zero: $zero,
                        random: $random,
                        pointer: $pointer,
                        small_int: $small,
                        text: $text,
                    }),+
                }
            }
        }
    };
}

// Profiles assigned to span the 0.38–5.6 % failing-row band of Fig. 4:
// integer / control-heavy codes lean on zeros, small ints, and text;
// floating-point and data-compression codes lean on full-entropy words.
spec_benchmarks! {
    //                       zero  random pointer small  text
    (Perlbench, "PERL",     0.45, 0.15, 0.15, 0.15, 0.10),
    (Bzip2,     "BZIP",     0.05, 0.85, 0.05, 0.00, 0.05),
    (Gcc,       "GCC",      0.35, 0.15, 0.30, 0.15, 0.05),
    (Mcf,       "MCF",      0.15, 0.15, 0.65, 0.05, 0.00),
    (Zeusmp,    "ZEUSMP",   0.08, 0.72, 0.05, 0.15, 0.00),
    (Cactus,    "CACTUS",   0.15, 0.65, 0.05, 0.15, 0.00),
    (Gobmk,     "GOBMK",    0.65, 0.05, 0.10, 0.15, 0.05),
    (Namd,      "NAMD",     0.05, 0.75, 0.05, 0.15, 0.00),
    (Soplex,    "SOPLEX",   0.25, 0.50, 0.10, 0.15, 0.00),
    (Dealii,    "DEALII",   0.25, 0.45, 0.20, 0.10, 0.00),
    (Calculix,  "CALCULIX", 0.20, 0.55, 0.10, 0.15, 0.00),
    (Hmmer,     "HMMER",    0.55, 0.20, 0.10, 0.15, 0.00),
    (Libquantum,"LIBQUANT", 0.00, 0.95, 0.00, 0.05, 0.00),
    (Gems,      "GEMS",     0.00, 0.98, 0.00, 0.02, 0.00),
    (H264ref,   "H264REF",  0.10, 0.70, 0.05, 0.10, 0.05),
    (Tonto,     "TONTO",    0.25, 0.45, 0.10, 0.20, 0.00),
    (Omnetpp,   "OMNETPP",  0.30, 0.05, 0.50, 0.10, 0.05),
    (Lbm,       "LBM",      0.00, 0.99, 0.00, 0.01, 0.00),
    (Xalancbmk, "XALANC",   0.40, 0.05, 0.20, 0.10, 0.25),
    (Astar,     "ASTAR",    0.90, 0.00, 0.00, 0.08, 0.02),
}

impl std::fmt::Display for SpecBenchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twenty_benchmarks_all_valid() {
        assert_eq!(SpecBenchmark::ALL.len(), 20);
        for b in SpecBenchmark::ALL {
            assert!(b.profile().validate().is_ok(), "{b} profile invalid");
            assert!(!b.name().is_empty());
        }
    }

    #[test]
    fn names_are_unique() {
        let names: std::collections::HashSet<_> =
            SpecBenchmark::ALL.iter().map(|b| b.name()).collect();
        assert_eq!(names.len(), 20);
    }

    #[test]
    fn profiles_sum_close_to_one() {
        for b in SpecBenchmark::ALL {
            let p = b.profile();
            let total = p.zero + p.random + p.pointer + p.small_int + p.text;
            assert!((total - 1.0).abs() < 1e-9, "{b} sums to {total}");
        }
    }

    #[test]
    fn zero_profile_produces_zero_rows() {
        let row = ContentProfile::zeroes().row_content(1, 0, 0, 64);
        assert_eq!(row.popcount(), 0);
    }

    #[test]
    fn random_profile_has_half_density() {
        let row = ContentProfile::random_data().row_content(1, 0, 0, 1024);
        let density = row.popcount() as f64 / row.bits() as f64;
        assert!((density - 0.5).abs() < 0.02, "density {density}");
    }

    #[test]
    fn content_is_deterministic_and_snapshot_sensitive() {
        // Use the random-data profile for the sensitivity half: a zero-heavy
        // benchmark profile can legitimately draw the all-zero page class
        // for two different snapshots, making the rows equal by design.
        let p = ContentProfile::random_data();
        let a = p.row_content(7, 0, 42, 32);
        let b = p.row_content(7, 0, 42, 32);
        let c = p.row_content(7, 1, 42, 32);
        let d = p.row_content(8, 0, 42, 32);
        assert_eq!(a, b, "same (seed, snapshot, row) must reproduce");
        assert_ne!(a, c, "snapshot must perturb content");
        assert_ne!(a, d, "seed must perturb content");
        // Benchmark profiles stay deterministic too.
        let g = SpecBenchmark::Gcc.profile();
        assert_eq!(g.row_content(7, 0, 42, 32), g.row_content(7, 0, 42, 32));
    }

    #[test]
    fn entropy_ordering_zero_vs_random() {
        // Bit density should reflect the mixture: LBM (random-heavy) much
        // denser than ASTAR (zero-heavy). Average across many pages because
        // each page is a single class draw.
        let count = |b: SpecBenchmark| -> u64 {
            (0..200)
                .map(|row| b.profile().row_content(1, 0, row, 64).popcount())
                .sum()
        };
        assert!(count(SpecBenchmark::Lbm) > 2 * count(SpecBenchmark::Astar));
    }

    #[test]
    fn pointer_words_share_high_bits() {
        let p = ContentProfile {
            zero: 0.0,
            random: 0.0,
            pointer: 1.0,
            small_int: 0.0,
            text: 0.0,
        };
        let row = p.row_content(1, 0, 0, 16);
        for w in row.as_words() {
            assert_eq!(w >> 40, 0x7f, "pointer word {w:#x} lacks canonical prefix");
        }
    }

    /// Every single-class profile, then the named ones.
    fn oracle_profiles() -> Vec<ContentProfile> {
        let single = |i: usize| {
            let mut w = [0.0; 5];
            w[i] = 1.0;
            ContentProfile {
                zero: w[0],
                random: w[1],
                pointer: w[2],
                small_int: w[3],
                text: w[4],
            }
        };
        let mut profiles: Vec<_> = (0..5).map(single).collect();
        profiles.push(ContentProfile::zeroes());
        profiles.push(ContentProfile::random_data());
        profiles.extend(SpecBenchmark::ALL.iter().map(|b| b.profile()));
        profiles
    }

    /// The per-word reference of `row_content`: the same generator and
    /// class draw, then one `WordClass::sample` call per word.
    fn row_content_reference(
        p: &ContentProfile,
        seed: u64,
        snapshot: u32,
        row_id: RowId,
        words: usize,
    ) -> RowContent {
        let (class, mut rng) = p.row_class(seed, snapshot, row_id);
        RowContent::from_words((0..words).map(|_| class.sample(&mut rng)).collect())
    }

    #[test]
    fn row_content_matches_the_per_word_reference() {
        let mut triples = SmallRng::seed_from_u64(0xC0_47E7);
        for p in oracle_profiles() {
            for _ in 0..12 {
                let seed: u64 = triples.gen();
                let snapshot = triples.gen_range(0..8u32);
                let row: RowId = triples.gen_range(0..1u64 << 20);
                for words in [1, 3, 1024] {
                    assert_eq!(
                        p.row_content(seed, snapshot, row, words),
                        row_content_reference(&p, seed, snapshot, row, words),
                        "{p:?} diverged at ({seed}, {snapshot}, {row}), {words} words"
                    );
                }
            }
        }
    }

    /// The class loop takes exactly the reference's draws: both generators
    /// end in the same state.
    #[test]
    fn class_words_consume_the_reference_draws() {
        let classes = [
            WordClass::Zero,
            WordClass::Random,
            WordClass::Pointer,
            WordClass::SmallInt,
            WordClass::Text,
        ];
        for (i, class) in classes.into_iter().enumerate() {
            for n in [0, 1, 3, 1024] {
                let mut fast = SmallRng::seed_from_u64(i as u64);
                let mut slow = SmallRng::seed_from_u64(i as u64);
                let reference: Vec<u64> = (0..n).map(|_| class.sample(&mut slow)).collect();
                assert_eq!(class.words(&mut fast, n), reference, "{class:?}, {n} words");
                assert_eq!(fast.gen::<u64>(), slow.gen::<u64>(), "{class:?}, {n} words");
            }
        }
    }

    /// A 64-bit hash (FNV-1a over whole words) of the 20 profiles' first
    /// 64 rows at seed 1, snapshot 0, 1,024 words, recorded from the
    /// per-word implementation before the class loop replaced it: the
    /// kernel and its reference cannot drift together.
    #[test]
    fn content_stream_is_pinned() {
        const PINNED: u64 = 0x9a97_7972_c6b4_5118;
        let mut h = 0xCBF2_9CE4_8422_2325_u64;
        for bench in SpecBenchmark::ALL {
            for row in 0..64 {
                for &w in bench.profile().row_content(1, 0, row, 1024).as_words() {
                    h = (h ^ w).wrapping_mul(0x0100_0000_01B3);
                }
            }
        }
        assert_eq!(h, PINNED, "content stream changed: {h:#018x}");
    }

    #[test]
    fn invalid_profiles_rejected() {
        let mut p = ContentProfile::zeroes();
        p.zero = -1.0;
        assert!(p.validate().is_err());
        let empty = ContentProfile {
            zero: 0.0,
            random: 0.0,
            pointer: 0.0,
            small_int: 0.0,
            text: 0.0,
        };
        assert!(empty.validate().is_err());
    }
}
