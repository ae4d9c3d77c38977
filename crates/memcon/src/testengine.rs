//! Online-test orchestration: the concurrent-test budget and the oracles.
//!
//! A test keeps its row idle for one LO-REF interval, then re-reads and
//! compares. The engine enforces the concurrent-test budget (paper Table 3).
//! A Copy-and-Compare test also holds one row of the reserved staging
//! region (512 rows per bank ≈ 1.56 % of a 2 GB module, paper appendix)
//! for exactly as long as it is in flight, so the region's only observable
//! effect is a cap on that budget, which the caller folds in.
//!
//! Whether a row *fails* its test is decided by a [`FailureOracle`]:
//!
//! * [`ContentOracle`] runs the real physics — it regenerates the page's
//!   content in a simulated chip and evaluates the coupling failure model
//!   (used by integration tests; no experiment runs it),
//! * [`RateOracle`] draws from a per-workload failing-row rate (the Fig. 4
//!   fractions), which is what trace-scale engine runs use.

use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, HashSet};

use memutil::codec::Io;
use memutil::rng::SmallRng;
use memutil::rng::{Rng, SeedableRng};

use dram::address::RowAddr;
use dram::module::DramModule;
use failure_model::content::ContentProfile;
use failure_model::model::CouplingFailureModel;
use faultinject::{FaultSession, Site};

use crate::ecc::{DecodeResult, Hamming72};
use crate::pril::PageId;

/// Decides whether a page's current content fails at the LO-REF interval.
pub trait FailureOracle: std::fmt::Debug + Send {
    /// Tests `page`'s content (the `generation` counter distinguishes
    /// successive contents of the same page across writes).
    fn page_fails(&mut self, page: PageId, generation: u64) -> bool;

    /// Fault-aware variant: oracles that model the DRAM device itself
    /// ([`ContentOracle`]) consult `faults` for device-level fault sites
    /// (transient bit flips). The default ignores the session.
    fn page_fails_faulted(
        &mut self,
        page: PageId,
        generation: u64,
        faults: &mut FaultSession,
    ) -> bool {
        let _ = faults;
        self.page_fails(page, generation)
    }

    /// The oracle's field list (see [`memutil::codec`]): its mutable state
    /// in an engine checkpoint, overwriting a [`RateOracle`] placeholder
    /// when restored. The default refuses: an oracle without a field list
    /// (e.g. [`ContentOracle`], whose simulated chip is far too large to
    /// snapshot) cannot be persisted, and
    /// [`MemconEngine::checkpoint`](crate::engine::MemconEngine::checkpoint)
    /// panics on one.
    ///
    /// # Errors
    ///
    /// Always, unless the oracle overrides it; when decoding, malformed
    /// state.
    fn fields(&mut self, io: &mut Io) -> Result<(), String> {
        let _ = io;
        Err("the failure oracle has no field list, so it cannot be persisted".to_string())
    }
}

/// Bernoulli oracle at a fixed failing-row rate (paper Fig. 4: 0.38–5.6 %
/// of rows fail with program content).
#[derive(Debug)]
pub struct RateOracle {
    rate: f64,
    rng: SmallRng,
}

impl RateOracle {
    /// Creates an oracle failing each test independently with probability
    /// `rate`.
    ///
    /// # Panics
    ///
    /// Panics unless `rate` is a probability.
    #[must_use]
    pub fn new(rate: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be in [0, 1]");
        RateOracle {
            rate,
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl FailureOracle for RateOracle {
    fn page_fails(&mut self, _page: PageId, _generation: u64) -> bool {
        self.rng.gen::<f64>() < self.rate
    }

    fn fields(&mut self, io: &mut Io) -> Result<(), String> {
        let RateOracle { rate, rng } = self;
        io.f64(rate)?;
        io.refuse(!(0.0..=1.0).contains(rate), || {
            format!("rate oracle: rate {rate} outside [0, 1]")
        })?;
        let mut state = rng.state();
        io.u64s(&mut state, "rate oracle rng state")?;
        if io.decoding() {
            *rng = SmallRng::from_state(state)?;
        }
        Ok(())
    }
}

/// Physics-backed oracle: regenerates the page's content inside a simulated
/// chip and runs the coupling failure model at the LO-REF interval.
///
/// Every verdict writes the page's current content into the chip and
/// evaluates it; no verdict is kept for later. A verdict keyed on content
/// alone would ignore that a real cell's retention drifts with time and
/// conditions, and MEMCON vouches only for the content stored now. Rows
/// written by earlier verdicts stay in place as the neighbours of later
/// ones.
#[derive(Debug)]
pub struct ContentOracle {
    module: DramModule,
    model: CouplingFailureModel,
    profile: ContentProfile,
    lo_ms: f64,
    content_seed: u64,
}

impl ContentOracle {
    /// Creates an oracle over `module`, regenerating content from `profile`.
    /// `lo_ms` is the refresh interval tested at (85 °C-equivalent).
    ///
    /// The failure model should be anchored near the tested interval
    /// (`FailureModelParams::calibrated_at(lo_ms)`): with the default 328 ms
    /// anchoring, content-dependent failures cannot occur at 64 ms and the
    /// oracle degenerates to "never fails".
    #[must_use]
    pub fn new(
        module: DramModule,
        model: CouplingFailureModel,
        profile: ContentProfile,
        lo_ms: f64,
        content_seed: u64,
    ) -> Self {
        ContentOracle {
            module,
            model,
            profile,
            lo_ms,
            content_seed,
        }
    }

    fn verdict(
        &mut self,
        page: PageId,
        generation: u64,
        faults: Option<&mut FaultSession>,
    ) -> bool {
        let g = *self.module.geometry();
        let row_id = page % g.total_rows();
        let addr = RowAddr::from_row_id(row_id, &g);
        let words = g.words_per_row();
        let content =
            self.profile
                .row_content(self.content_seed ^ page, generation as u32, page, words);
        self.module
            .write_row(addr, content)
            .expect("address is in range by construction");
        if let Some(s) = faults {
            // Device-level transient flip, keyed on the content instance so
            // the decision replays regardless of test ordering. The flip
            // lands before the evaluation below, so the verdict describes
            // the (perturbed) content actually stored.
            let key = row_id ^ generation.rotate_left(32);
            if s.fires_keyed(Site::DramBitFlip, key) {
                let bit = row_id.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ generation;
                self.module
                    .inject_bit_flip(addr, bit)
                    .expect("address is in range by construction");
            }
        }
        !self
            .model
            .evaluate_system_row(&self.module, addr, self.lo_ms)
            .is_empty()
    }
}

impl FailureOracle for ContentOracle {
    fn page_fails(&mut self, page: PageId, generation: u64) -> bool {
        self.verdict(page, generation, None)
    }

    fn page_fails_faulted(
        &mut self,
        page: PageId,
        generation: u64,
        faults: &mut FaultSession,
    ) -> bool {
        self.verdict(page, generation, Some(faults))
    }
}

/// Verdict of a completed test window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The content survived the LO-REF interval: the page may drop to
    /// LO-REF.
    Pass,
    /// The content failed: the page must stay at HI-REF.
    Fail,
    /// No usable verdict — a torn read-back, disagreeing read passes, or an
    /// uncorrectable ECC error. The page must be treated as suspect.
    Ambiguous,
}

/// ECC observation during the read-back of a completed test.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum EccEvent {
    /// All words decoded clean.
    #[default]
    Clean,
    /// A single-bit error was corrected in flight.
    Corrected,
    /// A double-bit (uncorrectable) error was detected.
    Uncorrectable,
}

/// Outcome of one completed test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TestOutcome {
    /// The tested page.
    pub page: PageId,
    /// The verdict.
    pub verdict: Verdict,
    /// ECC observation during the read-back.
    pub ecc: EccEvent,
    /// Content generation the test covered.
    pub generation: u64,
    /// Test start time.
    pub start_ns: u64,
    /// Test end time.
    pub end_ns: u64,
}

/// Test-engine statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TestEngineStats {
    /// Tests started.
    pub started: u64,
    /// Tests that ran to completion.
    pub completed: u64,
    /// Completed tests whose content failed.
    pub failed: u64,
    /// Tests aborted by a write to the in-test page.
    pub aborted: u64,
    /// Candidates rejected because no test slot was free.
    pub rejected: u64,
    /// Completed tests with an ambiguous verdict (torn read-back,
    /// disagreeing read passes, or uncorrectable ECC).
    pub ambiguous: u64,
    /// Single-bit ECC corrections observed during read-backs.
    pub ecc_corrected: u64,
    /// Uncorrectable ECC errors observed during read-backs.
    pub ecc_uncorrectable: u64,
}

/// A pending completion. Every test runs the same window, so its end is
/// `start_ns` plus the engine's `duration_ns`, and start order is end
/// order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct InFlight {
    start_ns: u64,
    page: PageId,
    generation: u64,
}

impl Ord for InFlight {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse: earliest end first out of the max-heap.
        other
            .start_ns
            .cmp(&self.start_ns)
            .then(other.page.cmp(&self.page))
    }
}
impl PartialOrd for InFlight {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The online-test engine.
#[derive(Debug)]
pub struct TestEngine {
    oracle: Box<dyn FailureOracle>,
    duration_ns: u64,
    budget: usize,
    /// Pending completions, earliest end first. An aborted test's entry
    /// stays until its end time and is dropped when popped: it no longer
    /// matches `live`.
    in_flight: BinaryHeap<InFlight>,
    /// Per page, the generation its live test covers (`None`: no test).
    /// Sized once from the page count, so a demand write's abort check is
    /// one index load.
    live: Vec<Option<u64>>,
    /// Pages with a live test: the `Some` entries of `live`.
    live_count: usize,
    faults: Option<FaultSession>,
    /// Accumulated statistics.
    pub stats: TestEngineStats,
}

impl TestEngine {
    /// Creates a test engine.
    ///
    /// * `duration_ms` — how long a row stays idle under test (one LO-REF
    ///   interval),
    /// * `budget` — how many tests may be in flight at once,
    /// * `n_pages` — pages `0..n_pages` may be tested.
    #[must_use]
    pub fn new(
        oracle: Box<dyn FailureOracle>,
        duration_ms: f64,
        budget: usize,
        n_pages: u64,
    ) -> Self {
        TestEngine {
            oracle,
            duration_ns: (duration_ms * 1e6) as u64,
            budget,
            in_flight: BinaryHeap::new(),
            live: vec![None; n_pages as usize],
            live_count: 0,
            faults: None,
            stats: TestEngineStats::default(),
        }
    }

    /// Arms (or disarms) fault injection for subsequent polls. The engine
    /// arms its run's session before the run draws from it.
    pub fn set_fault_session(&mut self, faults: Option<FaultSession>) {
        self.faults = faults;
    }

    /// The active fault session, if any.
    #[must_use]
    pub fn fault_session(&self) -> Option<&FaultSession> {
        self.faults.as_ref()
    }

    /// Mutable access to the active fault session (the engine event loop
    /// draws its own decisions — test preemption — from the same stream).
    pub fn fault_session_mut(&mut self) -> Option<&mut FaultSession> {
        self.faults.as_mut()
    }

    /// Some in-flight page (the smallest id), used as the deterministic
    /// victim of an injected preempting write.
    #[must_use]
    pub fn any_in_flight_page(&self) -> Option<PageId> {
        if self.live_count == 0 {
            return None;
        }
        // Every live test has a pending heap entry of its generation, so the
        // scan is bounded by the heap, not the page count; `min` is the same
        // page in any heap order.
        self.in_flight
            .iter()
            .filter(|f| self.live[f.page as usize] == Some(f.generation))
            .map(|f| f.page)
            .min()
    }

    /// Whether `page` is currently under test.
    #[must_use]
    pub fn is_testing(&self, page: PageId) -> bool {
        self.live.get(page as usize).is_some_and(Option::is_some)
    }

    /// Direct access to the oracle (used by the engine for pre-window
    /// steady-state initialization).
    pub fn oracle_mut(&mut self) -> &mut dyn FailureOracle {
        self.oracle.as_mut()
    }

    /// The test engine's field list (see [`memutil::codec`]): the oracle,
    /// the fault session with its replay cursors, the pending completions
    /// (aborted ones included: the event loop still pops them), the live
    /// tests and the statistics. Restore runs it over an engine built from
    /// the checkpoint's configuration and page count, refusing a test of a
    /// page past the table, a test whose completion time overflows, a live
    /// test with no pending completion of its page and generation (it
    /// would never complete), and more live tests than the budget.
    pub(crate) fn fields(&mut self, io: &mut Io) -> Result<(), String> {
        let TestEngine {
            oracle,
            // Built from the configuration.
            duration_ns,
            budget,
            in_flight,
            live,
            // Counted from `live` below.
            live_count,
            faults,
            stats,
        } = self;
        // Oracle kind: 0 is the rate oracle, the only one with a field
        // list; restore builds one to overwrite.
        let mut kind = 0;
        io.u8(&mut kind)?;
        io.refuse(kind != 0, || format!("unknown oracle tag {kind}"))?;
        oracle.fields(io)?;
        io.opt(faults, |io, session| session.fields(io))?;
        let pages = live.len() as u64;
        let in_range = |io: &Io, page: PageId| {
            io.refuse(page >= pages, || {
                format!("test engine: in-flight page {page} out of range ({pages} pages)")
            })
        };
        // Completions in end (that is, start) order, then by page and
        // generation, so equal states encode to equal bytes.
        let mut pending: Vec<InFlight> = in_flight.iter().copied().collect();
        pending.sort_unstable_by_key(|f| (f.start_ns, f.page, f.generation));
        let window = *duration_ns;
        io.seq(&mut pending, 24, "pending completion count", |io, f| {
            memutil::u64_fields!(io; InFlight { start_ns, page, generation } = f);
            io.refuse(start_ns.checked_add(window).is_none(), || {
                format!("test engine: a test started at {start_ns} ns never ends")
            })?;
            in_range(io, *page)
        })?;
        // Live tests in ascending page order.
        let mut tested: Vec<(PageId, u64)> = live
            .iter()
            .enumerate()
            .filter_map(|(page, g)| g.map(|g| (page as PageId, g)))
            .collect();
        // Built only when decoding: refusals never fire while encoding.
        let completes: HashSet<(PageId, u64)> = if io.decoding() {
            pending.iter().map(|f| (f.page, f.generation)).collect()
        } else {
            HashSet::new()
        };
        io.seq(
            &mut tested,
            16,
            "live test count",
            |io, (page, generation)| {
                io.u64(page)?;
                in_range(io, *page)?;
                io.u64(generation)?;
                io.refuse(!completes.contains(&(*page, *generation)), || {
                    format!(
                        "test engine: in-flight page {page} (generation {generation}) has no \
                         pending completion"
                    )
                })
            },
        )?;
        if io.decoding() {
            *in_flight = BinaryHeap::from(pending);
            live.fill(None);
            *live_count = 0;
            for (page, generation) in tested {
                if live[page as usize].replace(generation).is_none() {
                    *live_count += 1;
                }
            }
        }
        io.refuse(*live_count > *budget, || {
            format!("test engine: {live_count} live tests exceed the budget of {budget}")
        })?;
        memutil::u64_fields!(io; TestEngineStats { started, completed, failed, aborted, rejected,
            ambiguous, ecc_corrected, ecc_uncorrectable } = stats);
        Ok(())
    }

    /// Attempts to start a test of `page` at `now_ns`. `generation` tags the
    /// page's current content. Returns whether the test started.
    ///
    /// # Panics
    ///
    /// Panics if `page` is past the page count the engine was built with.
    pub fn try_start(&mut self, page: PageId, generation: u64, now_ns: u64) -> bool {
        let slot = &mut self.live[page as usize];
        if slot.is_some() || self.live_count >= self.budget {
            self.stats.rejected += 1;
            return false;
        }
        *slot = Some(generation);
        self.live_count += 1;
        self.in_flight.push(InFlight {
            start_ns: now_ns,
            page,
            generation,
        });
        self.stats.started += 1;
        true
    }

    /// Aborts the test of `page` (a demand write changed the content under
    /// test). Returns whether a test was actually in flight; a page past
    /// the page count never is.
    pub fn abort(&mut self, page: PageId) -> bool {
        if self
            .live
            .get_mut(page as usize)
            .and_then(Option::take)
            .is_some()
        {
            // The heap entry is lazily discarded at pop time.
            self.live_count -= 1;
            self.stats.aborted += 1;
            true
        } else {
            false
        }
    }

    /// Pops every test whose idle window has elapsed by `now_ns` and asks
    /// the oracle for its verdict: `out` is cleared, then filled with the
    /// completed tests in end-time order. The buffer is the caller's, so
    /// the engine's event loop reuses one allocation across polls.
    pub fn poll_into(&mut self, now_ns: u64, out: &mut Vec<TestOutcome>) {
        out.clear();
        loop {
            let t = match self.in_flight.peek_mut() {
                Some(top) if top.start_ns + self.duration_ns <= now_ns => PeekMut::pop(top),
                _ => break,
            };
            // Lazily drop aborted (or superseded) entries.
            let slot = &mut self.live[t.page as usize];
            if *slot != Some(t.generation) {
                continue;
            }
            *slot = None;
            self.live_count -= 1;
            let (verdict, ecc) = self.read_back(t.page, t.generation);
            self.stats.completed += 1;
            match verdict {
                Verdict::Fail => self.stats.failed += 1,
                Verdict::Ambiguous => self.stats.ambiguous += 1,
                Verdict::Pass => {}
            }
            out.push(TestOutcome {
                page: t.page,
                verdict,
                ecc,
                generation: t.generation,
                start_ns: t.start_ns,
                end_ns: t.start_ns + self.duration_ns,
            });
        }
    }

    /// Performs the read-back of a completed test window: fault sites fire
    /// first (a torn read-back or disagreeing read passes yield no verdict,
    /// so the oracle must not run), then the oracle decides, then the ECC
    /// path of the read-back is exercised.
    fn read_back(&mut self, page: PageId, generation: u64) -> (Verdict, EccEvent) {
        let Some(faults) = self.faults.as_mut() else {
            let verdict = if self.oracle.page_fails(page, generation) {
                Verdict::Fail
            } else {
                Verdict::Pass
            };
            return (verdict, EccEvent::Clean);
        };
        let mut verdict = if faults.fires(Site::TornRead) || faults.fires(Site::OracleDisagree) {
            Verdict::Ambiguous
        } else {
            let mut failed = self.oracle.page_fails_faulted(page, generation, faults);
            if faults.fires(Site::DramVrt) {
                // A variable-retention-time cell changed state between the
                // fill and the read-back: the observed verdict flips.
                failed = !failed;
            }
            if failed {
                Verdict::Fail
            } else {
                Verdict::Pass
            }
        };
        let ecc = if faults.fires(Site::EccUncorrectable) {
            Self::exercise_ecc(page, generation, 2)
        } else if faults.fires(Site::EccCorrectable) {
            Self::exercise_ecc(page, generation, 1)
        } else {
            EccEvent::Clean
        };
        match ecc {
            EccEvent::Corrected => self.stats.ecc_corrected += 1,
            EccEvent::Uncorrectable => {
                // The read-back data cannot be trusted, whatever the oracle
                // said; count the ambiguity once (not already counted when
                // the verdict was decided above).
                self.stats.ecc_uncorrectable += 1;
                if verdict != Verdict::Ambiguous {
                    verdict = Verdict::Ambiguous;
                }
            }
            EccEvent::Clean => {}
        }
        (verdict, ecc)
    }

    /// Runs a word through the real Hamming(72,64) SEC-DED path with
    /// `flips` deterministic bit flips: one flip must decode `Corrected`,
    /// two must decode `DoubleError`.
    fn exercise_ecc(page: PageId, generation: u64, flips: u32) -> EccEvent {
        let h = Hamming72;
        let data = page ^ generation.rotate_left(32) ^ 0xA5A5_5A5A_C3C3_3C3C;
        let mut cw = h.encode(data);
        // Codeword positions are 0..=71; pick distinct ones.
        let b1 = ((page ^ generation) % 72) as u32;
        cw ^= 1u128 << b1;
        if flips >= 2 {
            let b2 = (b1 + 1 + ((page >> 7) % 71) as u32) % 72;
            cw ^= 1u128 << b2;
        }
        match h.decode(cw) {
            DecodeResult::Clean(_) => EccEvent::Clean,
            DecodeResult::Corrected { data: d, .. } => {
                debug_assert_eq!(d, data, "SEC-DED must correct back to the stored word");
                EccEvent::Corrected
            }
            DecodeResult::DoubleError => EccEvent::Uncorrectable,
        }
    }

    /// The latest start among the pending completions (aborted tests
    /// included), if any.
    pub(crate) fn latest_start_ns(&self) -> Option<u64> {
        self.in_flight.iter().map(|f| f.start_ns).max()
    }

    /// Earliest pending completion time, if any test is in flight.
    #[must_use]
    pub fn next_completion_ns(&self) -> Option<u64> {
        // The heap may hold stale (aborted) entries; they only make this
        // bound conservative (earlier), which is harmless for scheduling.
        self.in_flight.peek().map(|t| t.start_ns + self.duration_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memutil::codec;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    const MS: u64 = 1_000_000;

    fn engine(budget: usize) -> TestEngine {
        TestEngine::new(Box::new(RateOracle::new(0.0, 0)), 64.0, budget, 16)
    }

    /// The tests of `e` completed by `now_ns`, in a fresh buffer.
    fn poll(e: &mut TestEngine, now_ns: u64) -> Vec<TestOutcome> {
        let mut out = Vec::new();
        e.poll_into(now_ns, &mut out);
        out
    }

    #[test]
    fn test_lifecycle_clean() {
        let mut e = engine(4);
        assert!(e.try_start(5, 0, 0));
        assert!(e.is_testing(5));
        assert!(poll(&mut e, 63 * MS).is_empty(), "window not elapsed");
        let done = poll(&mut e, 64 * MS);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].page, 5);
        assert_eq!(done[0].verdict, Verdict::Pass);
        assert_eq!(done[0].ecc, EccEvent::Clean);
        assert!(!e.is_testing(5));
    }

    #[test]
    fn failing_oracle_reports_failure() {
        let mut e = TestEngine::new(Box::new(RateOracle::new(1.0, 0)), 64.0, 4, 16);
        assert!(e.try_start(1, 0, 0));
        let done = poll(&mut e, 64 * MS);
        assert_eq!(done[0].verdict, Verdict::Fail);
        assert_eq!(e.stats.failed, 1);
    }

    #[test]
    fn slot_budget_enforced() {
        let mut e = engine(2);
        assert!(e.try_start(1, 0, 0));
        assert!(e.try_start(2, 0, 0));
        assert!(!e.try_start(3, 0, 0));
        assert_eq!(e.stats.rejected, 1);
        // After completion, slots free up.
        let _ = poll(&mut e, 64 * MS);
        assert!(e.try_start(3, 0, 64 * MS));
    }

    #[test]
    fn duplicate_page_rejected() {
        let mut e = engine(4);
        assert!(e.try_start(1, 0, 0));
        assert!(!e.try_start(1, 0, 1));
    }

    #[test]
    fn abort_cancels_test() {
        let mut e = engine(4);
        assert!(e.try_start(7, 0, 0));
        assert!(e.abort(7));
        assert!(!e.abort(7), "double abort is a no-op");
        for past_end in [16, u64::MAX] {
            assert!(!e.abort(past_end), "a page past the table is never tested");
            assert!(!e.is_testing(past_end));
        }
        assert!(
            poll(&mut e, 64 * MS).is_empty(),
            "aborted test must not complete"
        );
        assert_eq!(e.stats.aborted, 1);
        assert_eq!(e.stats.completed, 0);
    }

    #[test]
    fn lowest_live_page_skips_aborted_tests() {
        let mut e = engine(4);
        assert_eq!(e.any_in_flight_page(), None);
        for page in [9, 3, 5] {
            assert!(e.try_start(page, 0, 0));
        }
        assert_eq!(e.any_in_flight_page(), Some(3));
        assert!(e.abort(3));
        assert_eq!(e.any_in_flight_page(), Some(5));
        assert!(!e.is_testing(3) && e.is_testing(5) && e.is_testing(9));
    }

    #[test]
    fn aborted_page_can_restart_with_new_generation() {
        let mut e = engine(4);
        assert!(e.try_start(7, 0, 0));
        assert!(e.abort(7));
        assert!(e.try_start(7, 1, 10 * MS));
        let done = poll(&mut e, 100 * MS);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].start_ns, 10 * MS);
    }

    /// Decodes a test-engine section over `e`.
    fn restored(bytes: &[u8], e: &mut TestEngine) -> Result<(), String> {
        codec::decode(bytes, e, "test engine", TestEngine::fields)
    }

    #[test]
    fn restore_refuses_more_live_tests_than_the_budget() {
        // A restored engine over budget would keep starting no test until
        // enough of them end, and the budget is what bounds the staging
        // rows a Copy-and-Compare test holds.
        let mut e = engine(3);
        for page in [2, 5, 9] {
            assert!(e.try_start(page, 0, 0));
        }
        let bytes = codec::encode(&mut e, TestEngine::fields);
        assert!(restored(&bytes, &mut engine(3)).is_ok());
        let err = restored(&bytes, &mut engine(2)).unwrap_err();
        assert!(err.contains("3 live tests exceed the budget of 2"), "{err}");
    }

    #[test]
    fn restored_tests_complete_as_they_would_have() {
        // A restore rebuilds each completion time from its start and the
        // window, and keeps an aborted test's pending entry.
        let mut e = engine(4);
        assert!(e.try_start(1, 0, 5 * MS));
        assert!(e.try_start(2, 0, 0));
        assert!(e.abort(2));
        let bytes = codec::encode(&mut e, TestEngine::fields);
        let mut back = engine(4);
        restored(&bytes, &mut back).unwrap();
        assert_eq!(back.next_completion_ns(), Some(64 * MS));
        assert_eq!(codec::encode(&mut back, TestEngine::fields), bytes);
        assert_eq!(poll(&mut back, 200 * MS), poll(&mut e, 200 * MS));
    }

    #[test]
    fn restore_refuses_a_live_test_with_no_pending_completion() {
        // A live test with no heap entry of its page and generation would
        // never complete, leaving its page unrefreshed for good.
        let payload = |e: &mut TestEngine| codec::encode(e, TestEngine::fields);
        let mut e = engine(4);
        assert!(e.try_start(7, 3, 0));
        assert!(restored(&payload(&mut e), &mut engine(4)).is_ok());
        e.live[7] = Some(4);
        let stale_generation = payload(&mut e);
        e.in_flight.clear();
        let no_entry = payload(&mut e);
        for bytes in [stale_generation, no_entry] {
            let err = restored(&bytes, &mut engine(4)).unwrap_err();
            assert!(
                err.contains("in-flight page 7 (generation 4) has no pending completion"),
                "{err}"
            );
        }
    }

    #[test]
    fn completions_in_time_order() {
        let mut e = engine(8);
        assert!(e.try_start(1, 0, 10 * MS));
        assert!(e.try_start(2, 0, 0));
        let done = poll(&mut e, 200 * MS);
        assert_eq!(done.len(), 2);
        assert!(done[0].end_ns <= done[1].end_ns);
        assert_eq!(done[0].page, 2);
    }

    #[test]
    fn next_completion_bound() {
        let mut e = engine(8);
        assert_eq!(e.next_completion_ns(), None);
        assert!(e.try_start(1, 0, 5 * MS));
        assert_eq!(e.next_completion_ns(), Some(69 * MS));
    }

    #[test]
    fn rate_oracle_respects_rate() {
        let mut o = RateOracle::new(0.3, 42);
        let n = 20_000;
        let fails = (0..n).filter(|&i| o.page_fails(i, 0)).count();
        let rate = fails as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn poll_into_clears_and_reuses_the_buffer() {
        let mut e = engine(8);
        assert!(e.try_start(1, 0, 10 * MS));
        assert!(e.try_start(2, 0, 0));
        assert!(e.try_start(3, 0, 5 * MS));
        let mut buf = vec![TestOutcome {
            page: 99,
            verdict: Verdict::Fail,
            ecc: EccEvent::Clean,
            generation: 0,
            start_ns: 0,
            end_ns: 0,
        }];
        e.poll_into(200 * MS, &mut buf);
        let pages: Vec<PageId> = buf.iter().map(|o| o.page).collect();
        assert_eq!(
            pages,
            [2, 3, 1],
            "the stale outcome goes, completions follow in end order"
        );
        assert_eq!(e.stats.completed, 3);
        e.poll_into(300 * MS, &mut buf);
        assert!(buf.is_empty(), "poll_into must clear stale outcomes");
    }

    #[test]
    fn content_oracle_is_content_sensitive() {
        use dram::geometry::DramGeometry;
        use dram::timing::TimingParams;
        use failure_model::params::FailureModelParams;

        let g = DramGeometry {
            ranks: 1,
            chips_per_rank: 1,
            banks: 2,
            rows_per_bank: 256,
            row_bytes: 2048,
            block_bytes: 64,
            density: dram::geometry::ChipDensity::Gb8,
        };
        let module = DramModule::new(g, TimingParams::ddr3_1600(), 99);
        // Anchor the failure model at the tested interval so content-driven
        // failures can actually occur at 64 ms.
        let model = CouplingFailureModel::new(FailureModelParams::calibrated_at(64.0));
        let mut random = ContentOracle::new(
            module.clone(),
            model.clone(),
            ContentProfile::random_data(),
            64.0,
            7,
        );
        let mut zero = ContentOracle::new(module, model, ContentProfile::zeroes(), 64.0, 7);
        let n = 512u64;
        let rand_fails = (0..n).filter(|&p| random.page_fails(p, 0)).count();
        let zero_fails = (0..n).filter(|&p| zero.page_fails(p, 0)).count();
        assert!(
            rand_fails > zero_fails,
            "random content ({rand_fails}) should fail more than zeros ({zero_fails})"
        );
    }

    fn content_oracle(seed: u64) -> ContentOracle {
        use dram::geometry::DramGeometry;
        use dram::timing::TimingParams;
        use failure_model::params::FailureModelParams;

        let module = DramModule::new(DramGeometry::tiny(), TimingParams::ddr3_1600(), seed);
        let model = CouplingFailureModel::new(FailureModelParams::calibrated_at(64.0));
        ContentOracle::new(module, model, ContentProfile::random_data(), 64.0, 7)
    }

    #[test]
    fn content_oracle_verdicts_match_direct_evaluation() {
        // Every verdict equals a direct model evaluation of the same module
        // state, including re-tests of unchanged content and rows whose
        // neighbours earlier verdicts rewrote.
        use dram::geometry::DramGeometry;
        use dram::timing::TimingParams;
        use failure_model::params::FailureModelParams;

        let module = DramModule::new(DramGeometry::tiny(), TimingParams::ddr3_1600(), 23);
        let model = CouplingFailureModel::new(FailureModelParams::calibrated_at(64.0));
        let mut oracle = ContentOracle::new(
            module.clone(),
            model.clone(),
            ContentProfile::random_data(),
            64.0,
            7,
        );
        let profile = ContentProfile::random_data();
        let mut reference = module;
        let g = *reference.geometry();
        let words = g.words_per_row();
        for round in 0..3u64 {
            for page in 0..64u64 {
                let generation = round % 2;
                let verdict = oracle.page_fails(page, generation);
                let addr = RowAddr::from_row_id(page % g.total_rows(), &g);
                let content = profile.row_content(7 ^ page, generation as u32, page, words);
                reference.write_row(addr, content).expect("in range");
                let expected = !model.evaluate_system_row(&reference, addr, 64.0).is_empty();
                assert_eq!(verdict, expected, "diverged at page {page} round {round}");
            }
        }
    }

    /// Counts the verdicts it is asked for; every test passes.
    #[derive(Debug, Default)]
    struct CountingOracle {
        calls: Arc<AtomicU64>,
    }

    impl FailureOracle for CountingOracle {
        fn page_fails(&mut self, _page: PageId, _generation: u64) -> bool {
            self.calls.fetch_add(1, Ordering::Relaxed);
            false
        }
    }

    /// A faulted engine over a `CountingOracle`, plus its call counter.
    fn counted_engine(site: Site) -> (TestEngine, Arc<AtomicU64>) {
        let oracle = CountingOracle::default();
        let calls = Arc::clone(&oracle.calls);
        (faulted_engine(Box::new(oracle), site), calls)
    }

    fn faulted_engine(oracle: Box<dyn FailureOracle>, site: Site) -> TestEngine {
        use faultinject::{FaultPlan, SiteSpec};
        let mut e = TestEngine::new(oracle, 64.0, 8, 16);
        let plan = FaultPlan::new(0xFA17).with_site(site, SiteSpec::rate(1.0));
        e.set_fault_session(Some(FaultSession::with_plan(Arc::new(plan))));
        e
    }

    #[test]
    fn torn_read_is_ambiguous_and_skips_the_oracle() {
        let (mut e, calls) = counted_engine(Site::TornRead);
        assert!(e.try_start(1, 0, 0));
        let done = poll(&mut e, 64 * MS);
        assert_eq!(done[0].verdict, Verdict::Ambiguous);
        assert_eq!(e.stats.ambiguous, 1);
        assert_eq!(
            calls.load(Ordering::Relaxed),
            0,
            "ambiguous read-back must not run the oracle"
        );
    }

    #[test]
    fn oracle_disagreement_is_ambiguous() {
        let (mut e, calls) = counted_engine(Site::OracleDisagree);
        assert!(e.try_start(9, 2, 0));
        let done = poll(&mut e, 64 * MS);
        assert_eq!(done[0].verdict, Verdict::Ambiguous);
        assert_eq!(done[0].generation, 2);
        assert_eq!(
            calls.load(Ordering::Relaxed),
            0,
            "ambiguous read-back must not run the oracle"
        );
    }

    #[test]
    fn vrt_toggles_the_observed_verdict() {
        let (mut e, calls) = counted_engine(Site::DramVrt);
        assert!(e.try_start(4, 0, 0));
        let done = poll(&mut e, 64 * MS);
        assert_eq!(
            done[0].verdict,
            Verdict::Fail,
            "a VRT flip-flop turns a clean verdict into an observed failure"
        );
        assert_eq!(
            calls.load(Ordering::Relaxed),
            1,
            "a VRT flip toggles the oracle's verdict, so the oracle runs"
        );
    }

    #[test]
    fn ecc_sites_exercise_the_real_secded_path() {
        let mut e = faulted_engine(Box::new(RateOracle::new(0.0, 0)), Site::EccCorrectable);
        assert!(e.try_start(1, 0, 0));
        let done = poll(&mut e, 64 * MS);
        assert_eq!(done[0].ecc, EccEvent::Corrected);
        assert_eq!(
            done[0].verdict,
            Verdict::Pass,
            "corrected errors keep the verdict"
        );
        assert_eq!(e.stats.ecc_corrected, 1);

        let mut e = faulted_engine(Box::new(RateOracle::new(0.0, 0)), Site::EccUncorrectable);
        assert!(e.try_start(2, 5, 0));
        let done = poll(&mut e, 64 * MS);
        assert_eq!(done[0].ecc, EccEvent::Uncorrectable);
        assert_eq!(
            done[0].verdict,
            Verdict::Ambiguous,
            "uncorrectable read-backs cannot yield a verdict"
        );
        assert_eq!(e.stats.ecc_uncorrectable, 1);
        assert_eq!(e.stats.ambiguous, 1);
    }

    #[test]
    fn dram_bit_flip_perturbs_the_content_oracle_input() {
        use faultinject::{FaultPlan, SiteSpec};
        let mut o = content_oracle(77);
        let plan = Arc::new(FaultPlan::new(1).with_site(Site::DramBitFlip, SiteSpec::rate(1.0)));
        let mut s = FaultSession::with_plan(plan);
        let faulted = o.page_fails_faulted(5, 0, &mut s);
        assert_eq!(s.injected(Site::DramBitFlip), 1);
        // The verdict is the model's answer for the flipped content: store
        // that content in a fresh copy of the chip and evaluate it directly.
        let mut reference = content_oracle(77);
        let g = *reference.module.geometry();
        let addr = RowAddr::from_row_id(5, &g);
        let content = ContentProfile::random_data().row_content(7 ^ 5, 0, 5, g.words_per_row());
        assert_eq!(
            o.module
                .read_row(addr)
                .expect("in range")
                .hamming_distance(&content),
            1,
            "the flip must land in the evaluated row"
        );
        reference.module.write_row(addr, content).expect("in range");
        reference
            .module
            .inject_bit_flip(addr, 5u64.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .expect("in range");
        let direct = !reference
            .model
            .evaluate_system_row(&reference.module, addr, 64.0)
            .is_empty();
        assert_eq!(faulted, direct);
    }
}
