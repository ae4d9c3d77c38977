//! Per-page refresh-state tracking with exact time-in-state integration.
//!
//! Every page is in one of three states:
//!
//! * **HI-REF** — refreshed every `hi_ms` (the default after any write),
//! * **Testing** — deliberately unrefreshed for one test window,
//! * **LO-REF** — refreshed every `lo_ms` (after passing a content test).
//!
//! The manager integrates the time each page spends in each state, from
//! which the refresh-operation count, the reduction over the all-HI-REF
//! baseline (paper Fig. 14), and the LO-REF execution-time coverage
//! (paper Fig. 17) all follow. That accounting is *analytic*: closed-form
//! over time-in-state.

use memutil::codec::Io;

use crate::pril::PageId;

/// The bins in the order of their snapshot tags.
const BINS: [PageState; 3] = [PageState::HiRef, PageState::Testing, PageState::LoRef];

/// Refresh state of one page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageState {
    /// Aggressively refreshed (every write lands a page here).
    HiRef,
    /// Under an in-flight content test (unrefreshed by design).
    Testing,
    /// Passed a content test; refreshed at the low rate.
    LoRef,
}

/// Time-in-state accounting for all pages.
#[derive(Debug, Clone)]
pub struct RefreshManager {
    hi_ms: f64,
    lo_ms: f64,
    states: Vec<PageState>,
    since_ns: Vec<u64>,
    /// Fail-safe degradation (recovery policy): pinned pages may not drop
    /// to LO-REF until a clean test completes and releases the pin.
    pinned: Vec<bool>,
    hi_time_ns: f64,
    testing_time_ns: f64,
    lo_time_ns: f64,
    finalized_at_ns: Option<u64>,
    /// Transition counts into each state (HI-REF, Testing, LO-REF), for
    /// telemetry: how often the mechanism moved pages, not just where
    /// they ended up.
    transitions: [u64; 3],
    pins: u64,
    /// Pages currently pinned (kept incrementally so `pinned_count` is O(1)).
    pinned_n: u64,
}

impl RefreshManager {
    /// Creates a manager with every page at HI-REF from time 0.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < hi_ms < lo_ms`.
    #[must_use]
    pub fn new(n_pages: u64, hi_ms: f64, lo_ms: f64) -> Self {
        assert!(hi_ms > 0.0 && lo_ms > hi_ms, "need 0 < HI < LO");
        RefreshManager {
            hi_ms,
            lo_ms,
            states: vec![PageState::HiRef; n_pages as usize],
            since_ns: vec![0; n_pages as usize],
            pinned: vec![false; n_pages as usize],
            hi_time_ns: 0.0,
            testing_time_ns: 0.0,
            lo_time_ns: 0.0,
            finalized_at_ns: None,
            transitions: [0; 3],
            pins: 0,
            pinned_n: 0,
        }
    }

    /// Pins `page` to the high-refresh bin at `now_ns` (fail-safe
    /// degradation: the page's test was aborted/ambiguous too often, or its
    /// ECC reported an uncorrectable error). A pinned page may keep being
    /// tested, but cannot transition to LO-REF until [`Self::release_pin`].
    ///
    /// # Panics
    ///
    /// Panics on backwards time or after finalization (see
    /// [`Self::transition`]).
    pub fn pin_high(&mut self, page: PageId, now_ns: u64) {
        if !self.pinned[page as usize] {
            self.pinned[page as usize] = true;
            self.pins += 1;
            self.pinned_n += 1;
        }
        if self.states[page as usize] != PageState::HiRef {
            self.transition(page, PageState::HiRef, now_ns);
        }
    }

    /// Releases the fail-safe pin of `page` (a clean test completed).
    pub fn release_pin(&mut self, page: PageId) {
        if self.pinned[page as usize] {
            self.pinned[page as usize] = false;
            self.pinned_n -= 1;
        }
    }

    /// Whether `page` is pinned to the high-refresh bin.
    #[must_use]
    pub fn is_pinned(&self, page: PageId) -> bool {
        self.pinned[page as usize]
    }

    /// Pages currently pinned (O(1), maintained incrementally).
    #[must_use]
    pub fn pinned_count(&self) -> u64 {
        self.pinned_n
    }

    /// Total pin events since creation.
    #[must_use]
    pub fn pin_events(&self) -> u64 {
        self.pins
    }

    /// The manager's field list (see [`memutil::codec`]): per-page bins,
    /// since-times and pins, then the time-in-state accumulators. Restore
    /// builds the manager for the checkpoint's page count first.
    pub(crate) fn fields(&mut self, io: &mut Io) -> Result<(), String> {
        let RefreshManager {
            // The intervals travel with the engine's config section.
            hi_ms: _,
            lo_ms: _,
            states,
            since_ns,
            pinned,
            hi_time_ns,
            testing_time_ns,
            lo_time_ns,
            finalized_at_ns,
            transitions,
            pins,
            pinned_n,
        } = self;
        io.len(states.len(), "refresh manager bins")?;
        for state in states.iter_mut() {
            io.tag(state, &BINS, "bin")?;
        }
        io.u64s(since_ns, "refresh manager since-times")?;
        io.len(pinned.len(), "refresh manager pins")?;
        for pin in pinned.iter_mut() {
            io.bool(pin)?;
        }
        for time in [hi_time_ns, testing_time_ns, lo_time_ns] {
            io.f64(time)?;
        }
        io.opt(finalized_at_ns, Io::u64)?;
        for count in transitions.iter_mut().chain([pins, pinned_n]) {
            io.u64(count)?;
        }
        Ok(())
    }

    /// The latest time any page last changed bins (0 with no pages).
    pub(crate) fn last_transition_ns(&self) -> u64 {
        self.since_ns.iter().copied().max().unwrap_or(0)
    }

    /// Whether [`Self::finalize`] has closed the books.
    pub(crate) fn is_finalized(&self) -> bool {
        self.finalized_at_ns.is_some()
    }

    /// Number of pages tracked.
    #[must_use]
    pub fn n_pages(&self) -> u64 {
        self.states.len() as u64
    }

    /// Current state of `page`.
    #[must_use]
    pub fn state(&self, page: PageId) -> PageState {
        self.states[page as usize]
    }

    /// Every page's current state, indexed by page.
    #[must_use]
    pub fn states(&self) -> &[PageState] {
        &self.states
    }

    fn accumulate(&mut self, page: PageId, now_ns: u64) {
        let idx = page as usize;
        let dt = (now_ns - self.since_ns[idx]) as f64;
        match self.states[idx] {
            PageState::HiRef => self.hi_time_ns += dt,
            PageState::Testing => self.testing_time_ns += dt,
            PageState::LoRef => self.lo_time_ns += dt,
        }
        self.since_ns[idx] = now_ns;
    }

    /// Moves `page` to `state` at time `now_ns`, accumulating the time spent
    /// in the previous state.
    ///
    /// # Panics
    ///
    /// Panics if time moves backwards for this page, the manager is
    /// already finalized, or a pinned page is moved to LO-REF (the
    /// fail-safe degradation rule: release the pin first).
    pub fn transition(&mut self, page: PageId, state: PageState, now_ns: u64) {
        assert!(
            self.finalized_at_ns.is_none(),
            "manager is finalized; no more transitions"
        );
        assert!(
            !(state == PageState::LoRef && self.pinned[page as usize]),
            "page {page} is pinned to the high-refresh bin"
        );
        assert!(
            now_ns >= self.since_ns[page as usize],
            "time moved backwards for page {page}"
        );
        self.accumulate(page, now_ns);
        self.states[page as usize] = state;
        let slot = match state {
            PageState::HiRef => 0,
            PageState::Testing => 1,
            PageState::LoRef => 2,
        };
        self.transitions[slot] = self.transitions[slot].saturating_add(1);
    }

    /// Transition counts into (HI-REF, Testing, LO-REF) since creation.
    #[must_use]
    pub fn transition_counts(&self) -> (u64, u64, u64) {
        (
            self.transitions[0],
            self.transitions[1],
            self.transitions[2],
        )
    }

    /// Closes the books at `end_ns`, accumulating every page's final state.
    ///
    /// # Panics
    ///
    /// Panics on double finalization or if `end_ns` precedes a page's last
    /// transition.
    pub fn finalize(&mut self, end_ns: u64) {
        assert!(self.finalized_at_ns.is_none(), "already finalized");
        for page in 0..self.states.len() as u64 {
            assert!(end_ns >= self.since_ns[page as usize]);
            self.accumulate(page, end_ns);
        }
        self.finalized_at_ns = Some(end_ns);
    }

    /// Validates the accounting's internal consistency. Called by
    /// strict-mode harnesses after transitions and at finalization.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant:
    ///
    /// * all three time-in-state accumulators are finite and non-negative,
    /// * time conservation: the integrated page-time equals the sum of every
    ///   page's last-accumulated timestamp (each page's accumulated time is
    ///   exactly its `since` watermark), or `n_pages × end` once finalized.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (name, v) in [
            ("HI-REF", self.hi_time_ns),
            ("Testing", self.testing_time_ns),
            ("LO-REF", self.lo_time_ns),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(format!("{name} accumulator is {v}"));
            }
        }
        let expected: f64 = match self.finalized_at_ns {
            Some(end) => (end as f64) * self.states.len() as f64,
            None => self.since_ns.iter().map(|&s| s as f64).sum(),
        };
        let total = self.total_page_time_ns();
        // f64 accumulation over many pages: allow relative rounding slack.
        let tol = 1e-6 * expected.max(1.0);
        if (total - expected).abs() > tol {
            return Err(format!(
                "time conservation broken: integrated {total} ns, watermarks sum to {expected} ns"
            ));
        }
        let mut pinned_seen = 0u64;
        for page in 0..self.states.len() {
            if self.pinned[page] {
                pinned_seen += 1;
                if self.states[page] == PageState::LoRef {
                    return Err(format!("pinned page {page} sits at LO-REF"));
                }
            }
        }
        if pinned_seen != self.pinned_n {
            return Err(format!(
                "pinned counter {} disagrees with sweep {pinned_seen}",
                self.pinned_n
            ));
        }
        Ok(())
    }

    /// Total page-time integrated so far, ns.
    #[must_use]
    pub fn total_page_time_ns(&self) -> f64 {
        self.hi_time_ns + self.testing_time_ns + self.lo_time_ns
    }

    /// Refresh operations performed: HI time at the HI rate plus LO time at
    /// the LO rate (rows under test are deliberately unrefreshed).
    #[must_use]
    pub fn refresh_ops(&self) -> f64 {
        self.hi_time_ns / (self.hi_ms * 1e6) + self.lo_time_ns / (self.lo_ms * 1e6)
    }

    /// Refresh operations the all-HI-REF baseline would perform over the
    /// same page-time.
    #[must_use]
    pub fn baseline_ops(&self) -> f64 {
        self.total_page_time_ns() / (self.hi_ms * 1e6)
    }

    /// Refresh-operation reduction vs the baseline (paper Fig. 14).
    #[must_use]
    pub fn reduction(&self) -> f64 {
        let base = self.baseline_ops();
        if base <= 0.0 {
            0.0
        } else {
            1.0 - self.refresh_ops() / base
        }
    }

    /// Fraction of page-time spent at LO-REF (paper Fig. 17 "coverage").
    #[must_use]
    pub fn lo_coverage(&self) -> f64 {
        let total = self.total_page_time_ns();
        if total <= 0.0 {
            0.0
        } else {
            self.lo_time_ns / total
        }
    }

    /// Fraction of page-time spent under test.
    #[must_use]
    pub fn testing_fraction(&self) -> f64 {
        let total = self.total_page_time_ns();
        if total <= 0.0 {
            0.0
        } else {
            self.testing_time_ns / total
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    #[test]
    fn all_hi_gives_zero_reduction() {
        let mut m = RefreshManager::new(4, 16.0, 64.0);
        m.finalize(1000 * MS);
        assert_eq!(m.reduction(), 0.0);
        assert_eq!(m.lo_coverage(), 0.0);
        // 4 pages x 1000 ms / 16 ms = 250 ops.
        assert!((m.refresh_ops() - 250.0).abs() < 1e-9);
    }

    #[test]
    fn all_lo_hits_upper_bound() {
        let mut m = RefreshManager::new(2, 16.0, 64.0);
        m.transition(0, PageState::LoRef, 0);
        m.transition(1, PageState::LoRef, 0);
        m.finalize(6400 * MS);
        assert!((m.reduction() - 0.75).abs() < 1e-9, "got {}", m.reduction());
        assert!((m.lo_coverage() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn half_and_half() {
        let mut m = RefreshManager::new(1, 16.0, 64.0);
        m.transition(0, PageState::LoRef, 0);
        m.transition(0, PageState::HiRef, 500 * MS);
        m.finalize(1000 * MS);
        // 500 ms LO (7.8125 ops) + 500 ms HI (31.25 ops) vs 62.5 baseline.
        assert!((m.lo_coverage() - 0.5).abs() < 1e-9);
        let expected_red = 1.0 - (500.0 / 64.0 + 500.0 / 16.0) / (1000.0 / 16.0);
        assert!((m.reduction() - expected_red).abs() < 1e-9);
    }

    #[test]
    fn testing_time_is_unrefreshed_but_tracked() {
        let mut m = RefreshManager::new(1, 16.0, 64.0);
        m.transition(0, PageState::Testing, 0);
        m.transition(0, PageState::LoRef, 64 * MS);
        m.finalize(128 * MS);
        assert!((m.testing_fraction() - 0.5).abs() < 1e-9);
        // Ops: only the LO period contributes one op worth of time.
        assert!((m.refresh_ops() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn state_queries() {
        let mut m = RefreshManager::new(2, 16.0, 64.0);
        assert_eq!(m.state(0), PageState::HiRef);
        m.transition(0, PageState::Testing, 10 * MS);
        assert_eq!(m.state(0), PageState::Testing);
        assert_eq!(m.state(1), PageState::HiRef);
    }

    #[test]
    #[should_panic(expected = "time moved backwards")]
    fn rejects_backwards_time() {
        let mut m = RefreshManager::new(1, 16.0, 64.0);
        m.transition(0, PageState::LoRef, 100);
        m.transition(0, PageState::HiRef, 50);
    }

    #[test]
    #[should_panic(expected = "already finalized")]
    fn rejects_double_finalize() {
        let mut m = RefreshManager::new(1, 16.0, 64.0);
        m.finalize(100);
        m.finalize(200);
    }

    #[test]
    #[should_panic(expected = "finalized; no more transitions")]
    fn rejects_transition_after_finalize() {
        let mut m = RefreshManager::new(1, 16.0, 64.0);
        m.finalize(100);
        m.transition(0, PageState::LoRef, 200);
    }

    #[test]
    fn invariants_hold_through_transitions_and_finalize() {
        let mut m = RefreshManager::new(3, 16.0, 64.0);
        m.check_invariants().unwrap();
        m.transition(0, PageState::LoRef, 10 * MS);
        m.transition(1, PageState::Testing, 20 * MS);
        m.check_invariants().unwrap();
        m.transition(0, PageState::HiRef, 50 * MS);
        m.check_invariants().unwrap();
        m.finalize(100 * MS);
        m.check_invariants().unwrap();
    }

    #[test]
    fn pin_forces_and_holds_hi_ref() {
        let mut m = RefreshManager::new(2, 16.0, 64.0);
        m.transition(0, PageState::LoRef, 0);
        m.pin_high(0, 10 * MS);
        assert!(m.is_pinned(0));
        assert_eq!(m.state(0), PageState::HiRef);
        assert_eq!(m.pinned_count(), 1);
        assert_eq!(m.pin_events(), 1);
        // Double pin is idempotent.
        m.pin_high(0, 20 * MS);
        assert_eq!(m.pin_events(), 1);
        // A pinned page may still be tested.
        m.transition(0, PageState::Testing, 30 * MS);
        m.check_invariants().unwrap();
        // ... and after a clean test, releasing the pin re-opens LO-REF.
        m.release_pin(0);
        m.transition(0, PageState::LoRef, 40 * MS);
        assert_eq!(m.pinned_count(), 0);
        m.finalize(50 * MS);
        m.check_invariants().unwrap();
    }

    #[test]
    #[should_panic(expected = "pinned to the high-refresh bin")]
    fn pinned_page_cannot_enter_lo_ref() {
        let mut m = RefreshManager::new(1, 16.0, 64.0);
        m.pin_high(0, 0);
        m.transition(0, PageState::LoRef, 10 * MS);
    }

    #[test]
    fn empty_manager() {
        let mut m = RefreshManager::new(0, 16.0, 64.0);
        m.finalize(100);
        assert_eq!(m.reduction(), 0.0);
        assert_eq!(m.lo_coverage(), 0.0);
    }
}
