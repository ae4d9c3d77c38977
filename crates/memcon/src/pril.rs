//! PRIL — Probabilistic Remaining Interval Length prediction (paper
//! Section 4.2, Fig. 13).
//!
//! PRIL exploits the decreasing hazard rate of Pareto-distributed write
//! intervals: a page that has stayed unwritten for a whole quantum is likely
//! to stay unwritten long enough to amortize a test. The hardware is two
//! bit-vector *write-maps* and two bounded *write-buffers* over consecutive
//! quanta:
//!
//! * on a write, a page seen for the **first time** this quantum enters the
//!   current buffer (step ¶ of Fig. 13); a page seen **again** is evicted —
//!   its interval is clearly shorter than a quantum (step ·); a write also
//!   evicts the page from the *previous* buffer (step ¸),
//! * at quantum end, pages still in the previous buffer were written exactly
//!   once in the old quantum and never since — their current interval
//!   already exceeds one quantum, so they become test candidates (step ¹),
//! * buffers and maps then swap (step º).
//!
//! When the current buffer overflows, the new page is simply not tracked
//! (it stays at HI-REF — a lost opportunity, never a correctness issue),
//! matching the paper's footnote 10.
//!
//! # Struct-of-arrays layout (raw-speed wave 2)
//!
//! Per-page metadata is two parallel bit-vectors plus one counter per
//! quantum tracker:
//!
//! * `map` — written at least once this quantum (as in the paper's RTL),
//! * `buf` — buffered as a candidate-in-waiting; the write-*buffer* of the
//!   paper is this bitmap, not a hash set,
//! * `len` — popcount of `buf`, giving O(1) capacity/occupancy checks.
//!
//! Step ¸ clears the previous-buffer bit *eagerly* on each write, so the
//! candidate set at quantum end is exactly the surviving `previous.buf`
//! bits — the `previous & !current` candidacy algebra is maintained as the
//! standing invariant `previous.buf & current.map == 0` rather than
//! recomputed, and `end_quantum` reduces to an ascending word scan of
//! `previous.buf`. Every per-write operation is a couple of word indexings
//! and mask ops with no hashing and no memory allocation.
//!
//! The pre-wave hash-set implementation is retained as [`reference`] (under
//! `cfg(test)` or the `slow-reference` feature) and pinned bit-identical by
//! seeded equivalence property tests.

use memutil::codec::{Dec, Enc};

/// Page identifier (8 KB granularity).
pub type PageId = u64;

/// Which pages a quantum tracker keeps as candidates (the paper's footnote 8
/// design choice).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrackingPolicy {
    /// Track only pages written **exactly once** per quantum (the paper's
    /// choice: repeat-written pages are unlikely to idle long, and dropping
    /// them keeps the buffer small).
    SingleWrite,
    /// Track every written page (ablation baseline: larger buffer pressure,
    /// marginally more candidates).
    AnyWrite,
}

/// Statistics PRIL accumulates over its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrilStats {
    /// Writes observed.
    pub writes: u64,
    /// First-in-quantum writes inserted into the buffer.
    pub inserted: u64,
    /// Pages evicted because of a repeat write in the same quantum.
    pub evicted_repeat: u64,
    /// Pages evicted from the previous buffer by a write in the current
    /// quantum.
    pub evicted_previous: u64,
    /// Writes discarded because the buffer was full (page stays HI-REF).
    pub overflowed: u64,
    /// Test candidates produced at quantum boundaries.
    pub candidates: u64,
    /// Quantum boundaries processed.
    pub quanta: u64,
}

/// One write-map + write-buffer pair for a single quantum, stored as
/// struct-of-arrays bit-vectors.
#[derive(Debug, Clone, Default)]
struct QuantumTracker {
    /// Bit per page: written at least once this quantum.
    map: Vec<u64>,
    /// Bit per page: buffered as a candidate-in-waiting (bounded by `len`).
    buf: Vec<u64>,
    /// Popcount of `buf`, maintained incrementally.
    len: usize,
}

impl QuantumTracker {
    fn new(n_words: usize) -> Self {
        QuantumTracker {
            map: vec![0; n_words],
            buf: vec![0; n_words],
            len: 0,
        }
    }

    fn clear(&mut self) {
        self.map.iter_mut().for_each(|w| *w = 0);
        self.buf.iter_mut().for_each(|w| *w = 0);
        self.len = 0;
    }
}

/// The PRIL predictor.
#[derive(Debug)]
pub struct Pril {
    current: QuantumTracker,
    previous: QuantumTracker,
    capacity: usize,
    n_pages: u64,
    n_words: usize,
    policy: TrackingPolicy,
    /// Accumulated statistics.
    pub stats: PrilStats,
}

impl Pril {
    /// Creates a predictor for `n_pages` pages with the given write-buffer
    /// capacity, tracking single-write pages (the paper's policy).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(n_pages: u64, capacity: usize) -> Self {
        Pril::with_policy(n_pages, capacity, TrackingPolicy::SingleWrite)
    }

    /// Creates a predictor with an explicit tracking policy.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn with_policy(n_pages: u64, capacity: usize, policy: TrackingPolicy) -> Self {
        assert!(capacity > 0, "write buffer needs capacity");
        let n_words = (n_pages as usize).div_ceil(64);
        Pril {
            current: QuantumTracker::new(n_words),
            previous: QuantumTracker::new(n_words),
            capacity,
            n_pages,
            n_words,
            policy,
            stats: PrilStats::default(),
        }
    }

    /// Number of pages tracked.
    #[must_use]
    pub fn n_pages(&self) -> u64 {
        self.n_pages
    }

    /// Current write-buffer occupancy.
    #[must_use]
    pub fn buffer_len(&self) -> usize {
        self.current.len
    }

    /// Whether `page` is currently a candidate-in-waiting (written exactly
    /// once in the previous quantum, unwritten since).
    #[must_use]
    pub fn is_pending_candidate(&self, page: PageId) -> bool {
        (self.previous.buf[(page >> 6) as usize] >> (page & 63)) & 1 == 1
    }

    /// Processes a write access to `page` (Fig. 13, left side).
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range.
    pub fn on_write(&mut self, page: PageId) {
        assert!(page < self.n_pages, "page {page} out of range");
        self.stats.writes += 1;
        let w = (page >> 6) as usize;
        let bit = 1u64 << (page & 63);
        // Step ¸: a write in this quantum disqualifies the page from the
        // previous quantum's candidacy. Eager bit-clear keeps the candidate
        // algebra (previous.buf & current.map == 0) standing and the
        // eviction stat exact at any mid-quantum observation point.
        let prev_buf = self.previous.buf[w];
        if prev_buf & bit != 0 {
            self.previous.buf[w] = prev_buf & !bit;
            self.previous.len -= 1;
            self.stats.evicted_previous += 1;
        }
        let cur_map = self.current.map[w];
        if cur_map & bit != 0 {
            // Step ·: repeat write — interval shorter than a quantum.
            // Under the paper's single-write policy the page is dropped;
            // the any-write ablation keeps it (its *current interval* still
            // restarts via the map, but candidacy survives).
            if self.policy == TrackingPolicy::SingleWrite {
                let cur_buf = self.current.buf[w];
                if cur_buf & bit != 0 {
                    self.current.buf[w] = cur_buf & !bit;
                    self.current.len -= 1;
                    self.stats.evicted_repeat += 1;
                }
            }
        } else {
            // Step ¶: first write this quantum.
            self.current.map[w] = cur_map | bit;
            if self.current.len < self.capacity {
                self.current.buf[w] |= bit;
                self.current.len += 1;
                self.stats.inserted += 1;
            } else {
                self.stats.overflowed += 1;
            }
        }
    }

    fn encode_tracker(t: &QuantumTracker, e: &mut Enc) {
        e.u64_slice(&t.map);
        e.u64_slice(&t.buf);
        e.u64(t.len as u64);
    }

    fn restore_tracker(t: &mut QuantumTracker, n_words: usize, d: &mut Dec) -> Result<(), String> {
        let map = d.u64_vec()?;
        let buf = d.u64_vec()?;
        if map.len() != n_words || buf.len() != n_words {
            return Err(format!(
                "pril: snapshot bitmap width {}/{} does not match configured {n_words}",
                map.len(),
                buf.len()
            ));
        }
        t.map = map;
        t.buf = buf;
        t.len = usize::try_from(d.u64()?).map_err(|_| "pril: occupancy overflow".to_string())?;
        Ok(())
    }

    /// Serializes the tracker's dynamic state (both quantum bitmaps and the
    /// statistics block) for a durability snapshot. Capacity, policy, and
    /// page count are configuration and travel with the engine's config
    /// section instead.
    pub(crate) fn encode_state(&self, e: &mut Enc) {
        Self::encode_tracker(&self.current, e);
        Self::encode_tracker(&self.previous, e);
        e.u64(self.stats.writes);
        e.u64(self.stats.inserted);
        e.u64(self.stats.evicted_repeat);
        e.u64(self.stats.evicted_previous);
        e.u64(self.stats.overflowed);
        e.u64(self.stats.candidates);
        e.u64(self.stats.quanta);
    }

    /// Restores state captured by [`encode_state`](Self::encode_state) into
    /// a tracker built with the same configuration.
    pub(crate) fn restore_state(&mut self, d: &mut Dec) -> Result<(), String> {
        let n_words = self.n_words;
        Self::restore_tracker(&mut self.current, n_words, d)?;
        Self::restore_tracker(&mut self.previous, n_words, d)?;
        self.stats.writes = d.u64()?;
        self.stats.inserted = d.u64()?;
        self.stats.evicted_repeat = d.u64()?;
        self.stats.evicted_previous = d.u64()?;
        self.stats.overflowed = d.u64()?;
        self.stats.candidates = d.u64()?;
        self.stats.quanta = d.u64()?;
        Ok(())
    }

    /// Validates the tracker's internal consistency. Called by strict-mode
    /// harnesses at quantum boundaries.
    ///
    /// All checks are word-wise bit algebra or O(1) counter comparisons —
    /// the page-conservation check in particular reads only the SoA
    /// occupancy counters, so strict-mode soaks no longer pay a per-page
    /// sweep per quantum. On a violation the reported witness page is
    /// deterministic (the lowest offending page id).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant:
    ///
    /// * both write-buffers respect the configured capacity,
    /// * every buffered page is in range and has its write-map bit set
    ///   (buffer ⊆ map, word-wise `buf & !map == 0`),
    /// * the occupancy counter matches the buffer popcount,
    /// * candidacy algebra: `previous.buf & current.map == 0` (eager step ¸
    ///   never leaves a current-quantum-written page pending),
    /// * page conservation: every inserted page is accounted for — drained
    ///   as a candidate, evicted (repeat or previous-quantum write), or
    ///   still resident in one of the two buffers.
    pub fn check_invariants(&self) -> Result<(), String> {
        let tail_mask = match self.n_pages & 63 {
            0 => u64::MAX,
            bits => (1u64 << bits) - 1,
        };
        for (name, tracker) in [("current", &self.current), ("previous", &self.previous)] {
            if tracker.len > self.capacity {
                return Err(format!(
                    "{name} buffer holds {} pages, capacity {}",
                    tracker.len, self.capacity
                ));
            }
            let mut popcount = 0usize;
            for (w, (&buf, &map)) in tracker.buf.iter().zip(&tracker.map).enumerate() {
                popcount += buf.count_ones() as usize;
                let orphan = buf & !map;
                if orphan != 0 {
                    let page = (w as u64) << 6 | u64::from(orphan.trailing_zeros());
                    return Err(format!(
                        "{name} buffer holds page {page} but its write-map bit is clear"
                    ));
                }
            }
            if let Some((&last_buf, &last_map)) = tracker.buf.last().zip(tracker.map.last()) {
                let stray = (last_buf | last_map) & !tail_mask;
                if stray != 0 {
                    let page = ((self.n_words as u64 - 1) << 6) | u64::from(stray.trailing_zeros());
                    return Err(format!("{name} buffer holds out-of-range page {page}"));
                }
            }
            if popcount != tracker.len {
                return Err(format!(
                    "{name} buffer occupancy counter {} disagrees with popcount {popcount}",
                    tracker.len
                ));
            }
        }
        for (w, (&prev_buf, &cur_map)) in
            self.previous.buf.iter().zip(&self.current.map).enumerate()
        {
            let stale = prev_buf & cur_map;
            if stale != 0 {
                let page = (w as u64) << 6 | u64::from(stale.trailing_zeros());
                return Err(format!(
                    "page {page} is pending candidacy but was written this quantum"
                ));
            }
        }
        let accounted = self.stats.candidates
            + self.stats.evicted_repeat
            + self.stats.evicted_previous
            + self.current.len as u64
            + self.previous.len as u64;
        if self.stats.inserted != accounted {
            return Err(format!(
                "page conservation broken: {} inserted but {accounted} accounted for \
                 (candidates {} + repeat evictions {} + previous evictions {} + resident {})",
                self.stats.inserted,
                self.stats.candidates,
                self.stats.evicted_repeat,
                self.stats.evicted_previous,
                self.current.len + self.previous.len,
            ));
        }
        Ok(())
    }

    /// Ends the quantum (Fig. 13, right side): returns the test candidates
    /// (pages written exactly once in the previous quantum and untouched in
    /// this one) in ascending page order, clears the previous tracker, and
    /// swaps.
    pub fn end_quantum(&mut self) -> Vec<PageId> {
        self.stats.quanta += 1;
        let prev = &self.previous;
        let mut candidates: Vec<PageId> = Vec::with_capacity(prev.len);
        if prev.len > 0 {
            for (w, &word) in prev.buf.iter().enumerate() {
                let mut word = word;
                while word != 0 {
                    candidates.push((w as u64) << 6 | u64::from(word.trailing_zeros()));
                    word &= word - 1;
                }
            }
        }
        self.stats.candidates += candidates.len() as u64;
        self.previous.clear();
        std::mem::swap(&mut self.current, &mut self.previous);
        candidates
    }
}

/// The pre-wave hash-set implementation, retained as the slow reference for
/// equivalence property tests (PR-3 style). Semantics are pinned: the SoA
/// path must match this structure write-for-write on every observable —
/// candidates, stats, occupancy, pending-candidacy — under both tracking
/// policies, including the overflow edge.
#[cfg(any(test, feature = "slow-reference"))]
pub mod reference {
    use super::{PageId, PrilStats, TrackingPolicy};
    use std::collections::HashSet;

    #[derive(Debug, Clone, Default)]
    struct QuantumTracker {
        map: Vec<u64>,
        buffer: HashSet<PageId>,
    }

    impl QuantumTracker {
        fn new(n_pages: u64) -> Self {
            QuantumTracker {
                map: vec![0; (n_pages as usize).div_ceil(64)],
                buffer: HashSet::new(),
            }
        }

        fn map_get(&self, page: PageId) -> bool {
            (self.map[(page / 64) as usize] >> (page % 64)) & 1 == 1
        }

        fn map_set(&mut self, page: PageId) {
            self.map[(page / 64) as usize] |= 1 << (page % 64);
        }

        fn clear(&mut self) {
            self.map.iter_mut().for_each(|w| *w = 0);
            self.buffer.clear();
        }
    }

    /// Hash-set PRIL (the pre-wave implementation).
    #[derive(Debug)]
    pub struct PrilRef {
        current: QuantumTracker,
        previous: QuantumTracker,
        capacity: usize,
        n_pages: u64,
        policy: TrackingPolicy,
        /// Accumulated statistics.
        pub stats: PrilStats,
    }

    impl PrilRef {
        /// Creates a reference predictor with an explicit tracking policy.
        ///
        /// # Panics
        ///
        /// Panics if `capacity` is zero.
        #[must_use]
        pub fn with_policy(n_pages: u64, capacity: usize, policy: TrackingPolicy) -> Self {
            assert!(capacity > 0, "write buffer needs capacity");
            PrilRef {
                current: QuantumTracker::new(n_pages),
                previous: QuantumTracker::new(n_pages),
                capacity,
                n_pages,
                policy,
                stats: PrilStats::default(),
            }
        }

        /// Current write-buffer occupancy.
        #[must_use]
        pub fn buffer_len(&self) -> usize {
            self.current.buffer.len()
        }

        /// Whether `page` is a candidate-in-waiting.
        #[must_use]
        pub fn is_pending_candidate(&self, page: PageId) -> bool {
            self.previous.buffer.contains(&page)
        }

        /// Processes a write access to `page`.
        ///
        /// # Panics
        ///
        /// Panics if `page` is out of range.
        pub fn on_write(&mut self, page: PageId) {
            assert!(page < self.n_pages, "page {page} out of range");
            self.stats.writes += 1;
            if self.previous.buffer.remove(&page) {
                self.stats.evicted_previous += 1;
            }
            if self.current.map_get(page) {
                if self.policy == TrackingPolicy::SingleWrite && self.current.buffer.remove(&page) {
                    self.stats.evicted_repeat += 1;
                }
            } else {
                self.current.map_set(page);
                if self.current.buffer.len() < self.capacity {
                    self.current.buffer.insert(page);
                    self.stats.inserted += 1;
                } else {
                    self.stats.overflowed += 1;
                }
            }
        }

        /// Ends the quantum and returns the sorted candidates.
        pub fn end_quantum(&mut self) -> Vec<PageId> {
            self.stats.quanta += 1;
            // memlint: allow(map-iter-order): drained candidates are sorted on the next line
            let mut candidates: Vec<PageId> = self.previous.buffer.drain().collect();
            candidates.sort_unstable();
            self.stats.candidates += candidates.len() as u64;
            self.previous.clear();
            std::mem::swap(&mut self.current, &mut self.previous);
            candidates
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pril() -> Pril {
        Pril::new(1024, 64)
    }

    #[test]
    fn single_write_then_idle_quantum_becomes_candidate() {
        let mut p = pril();
        p.on_write(5);
        assert_eq!(p.buffer_len(), 1);
        assert!(!p.is_pending_candidate(5), "still in the current quantum");
        assert!(p.end_quantum().is_empty(), "no previous-quantum pages yet");
        assert!(p.is_pending_candidate(5), "awaiting one idle quantum");
        // Page 5 is now in the previous buffer; an idle quantum passes.
        let candidates = p.end_quantum();
        assert_eq!(candidates, vec![5]);
        assert!(!p.is_pending_candidate(5));
    }

    #[test]
    fn repeat_write_in_same_quantum_disqualifies() {
        let mut p = pril();
        p.on_write(7);
        p.on_write(7);
        assert!(p.end_quantum().is_empty());
        assert!(p.end_quantum().is_empty(), "page 7 was written twice");
        assert_eq!(p.stats.evicted_repeat, 1);
    }

    #[test]
    fn write_in_next_quantum_disqualifies() {
        let mut p = pril();
        p.on_write(9);
        let _ = p.end_quantum();
        p.on_write(9); // written again before proving a long interval
        assert!(p.end_quantum().is_empty());
        assert_eq!(p.stats.evicted_previous, 1);
        // …but that second write was a first-of-its-quantum write, so page 9
        // is again a candidate-in-waiting.
        assert_eq!(p.end_quantum(), vec![9]);
    }

    #[test]
    fn third_write_same_quantum_after_requalification() {
        let mut p = pril();
        p.on_write(3);
        p.on_write(3);
        p.on_write(3);
        // Map says already-written; buffer empty; no candidate ever.
        assert!(p.end_quantum().is_empty());
        assert!(p.end_quantum().is_empty());
    }

    #[test]
    fn overflow_discards_new_pages() {
        let mut p = Pril::new(1024, 2);
        p.on_write(1);
        p.on_write(2);
        p.on_write(3); // buffer full — page 3 untracked
        assert_eq!(p.stats.overflowed, 1);
        let _ = p.end_quantum();
        let mut c = p.end_quantum();
        c.sort_unstable();
        assert_eq!(c, vec![1, 2], "page 3 was lost to overflow");
    }

    #[test]
    fn overflowed_page_can_requalify_later() {
        let mut p = Pril::new(1024, 1);
        p.on_write(1);
        p.on_write(2); // overflow
        let _ = p.end_quantum();
        p.on_write(2); // fresh quantum, space available
        let _ = p.end_quantum();
        assert_eq!(p.end_quantum(), vec![2]);
    }

    #[test]
    fn candidates_are_unique() {
        let mut p = pril();
        for page in [1u64, 2, 3, 2, 1, 4] {
            p.on_write(page);
        }
        let _ = p.end_quantum();
        let mut c = p.end_quantum();
        c.sort_unstable();
        // 1 and 2 were written twice; only 3 and 4 qualify.
        assert_eq!(c, vec![3, 4]);
    }

    #[test]
    fn invariants_hold_through_scenarios() {
        // Exercise every transition class: insert, repeat-evict,
        // previous-evict, overflow, candidacy — checking conservation after
        // each step.
        let mut p = Pril::new(64, 2);
        p.check_invariants().unwrap();
        for page in [1u64, 2, 3, 2, 1] {
            p.on_write(page);
            p.check_invariants().unwrap();
        }
        let _ = p.end_quantum();
        p.check_invariants().unwrap();
        p.on_write(3); // evicts page 3 from the previous buffer
        p.check_invariants().unwrap();
        let _ = p.end_quantum();
        let _ = p.end_quantum();
        p.check_invariants().unwrap();
    }

    #[test]
    fn stats_accumulate() {
        let mut p = pril();
        p.on_write(1);
        p.on_write(1);
        p.on_write(2);
        let _ = p.end_quantum();
        let _ = p.end_quantum();
        assert_eq!(p.stats.writes, 3);
        assert_eq!(p.stats.inserted, 2);
        assert_eq!(p.stats.evicted_repeat, 1);
        assert_eq!(p.stats.quanta, 2);
        assert_eq!(p.stats.candidates, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_page() {
        pril().on_write(5000);
    }

    #[test]
    fn non_multiple_of_64_page_count_stays_in_bounds() {
        let mut p = Pril::new(100, 8);
        p.on_write(99);
        p.check_invariants().unwrap();
        let _ = p.end_quantum();
        assert_eq!(p.end_quantum(), vec![99]);
        p.check_invariants().unwrap();
    }

    #[test]
    fn any_write_policy_keeps_repeat_written_pages() {
        let mut single = Pril::new(64, 16);
        let mut any = Pril::with_policy(64, 16, TrackingPolicy::AnyWrite);
        for p in [&mut single, &mut any] {
            p.on_write(3);
            p.on_write(3); // repeat in the same quantum
            let _ = p.end_quantum();
        }
        assert!(single.end_quantum().is_empty(), "single-write drops page 3");
        assert_eq!(any.end_quantum(), vec![3], "any-write keeps page 3");
    }

    #[test]
    fn any_write_still_disqualified_by_next_quantum_write() {
        let mut p = Pril::with_policy(64, 16, TrackingPolicy::AnyWrite);
        p.on_write(9);
        p.on_write(9);
        let _ = p.end_quantum();
        p.on_write(9); // write in the observation quantum
        assert!(p.end_quantum().is_empty());
    }

    /// Seeded property loop against ground truth: a page is a candidate at
    /// the end of quantum Q iff it was written exactly once in quantum Q−1
    /// and not at all in Q (with an unbounded buffer).
    #[test]
    fn prop_matches_ground_truth() {
        use memutil::rng::{Rng, SeedableRng, SmallRng};
        let mut rng = SmallRng::seed_from_u64(0x9214_0001);
        for _ in 0..128 {
            let n_quanta = 6;
            let n_writes = rng.gen_range(0usize..200);
            let mut p = Pril::new(32, 10_000);
            let mut per_quantum: Vec<Vec<u64>> = vec![Vec::new(); n_quanta];
            for _ in 0..n_writes {
                let page = rng.gen_range(0u64..32);
                let q = rng.gen_range(0usize..n_quanta);
                per_quantum[q].push(page);
            }
            for q in 0..n_quanta {
                let mut sorted = per_quantum[q].clone();
                sorted.sort_unstable();
                for &page in &sorted {
                    p.on_write(page);
                }
                let mut got = p.end_quantum();
                p.check_invariants().unwrap();
                got.sort_unstable();
                if q == 0 {
                    assert!(got.is_empty());
                    continue;
                }
                let prev = &per_quantum[q - 1];
                let cur = &per_quantum[q];
                let mut expect: Vec<u64> = (0..32)
                    .filter(|page| {
                        prev.iter().filter(|&&x| x == *page).count() == 1 && !cur.contains(page)
                    })
                    .collect();
                expect.sort_unstable();
                assert_eq!(got, expect, "quantum {q}");
            }
        }
    }

    /// Seeded equivalence property: the bitmap SoA path is pinned
    /// observable-for-observable to the retained hash-set reference across
    /// both tracking policies, random op interleavings, and capacities small
    /// enough to exercise the overflow edge — checking candidates (drain
    /// ordering included), stats, occupancy, and pending-candidacy after
    /// every step.
    #[test]
    fn prop_matches_slow_reference() {
        use memutil::rng::{Rng, SeedableRng, SmallRng};
        for policy in [TrackingPolicy::SingleWrite, TrackingPolicy::AnyWrite] {
            for seed in [0xF00D_0001u64, 0xF00D_0002, 0xF00D_0003, 0xF00D_0004] {
                // 257: a non-multiple of 64, the tail-word edge. 4,096: a
                // plane the small buffer leaves sparsely written.
                for n_pages in [257u64, 4096] {
                    let mut rng = SmallRng::seed_from_u64(seed);
                    let capacity = rng.gen_range(1usize..12); // small: overflow edge
                    let mut fast = Pril::with_policy(n_pages, capacity, policy);
                    let mut slow = reference::PrilRef::with_policy(n_pages, capacity, policy);
                    for _ in 0..600 {
                        match rng.gen_range(0u32..10) {
                            0 => {
                                let fast_c = fast.end_quantum();
                                let slow_c = slow.end_quantum();
                                assert_eq!(fast_c, slow_c, "candidate drain diverged");
                            }
                            1 => {
                                let batch: Vec<PageId> = (0..rng.gen_range(0usize..20))
                                    .map(|_| rng.gen_range(0u64..n_pages))
                                    .collect();
                                for &page in &batch {
                                    fast.on_write(page);
                                    slow.on_write(page);
                                }
                            }
                            _ => {
                                let page = rng.gen_range(0u64..n_pages);
                                fast.on_write(page);
                                slow.on_write(page);
                            }
                        }
                        assert_eq!(fast.stats, slow.stats, "stats diverged");
                        assert_eq!(fast.buffer_len(), slow.buffer_len());
                        let probe = rng.gen_range(0u64..n_pages);
                        assert_eq!(
                            fast.is_pending_candidate(probe),
                            slow.is_pending_candidate(probe),
                            "pending-candidacy diverged on page {probe}"
                        );
                        fast.check_invariants().unwrap();
                    }
                }
            }
        }
    }
}
