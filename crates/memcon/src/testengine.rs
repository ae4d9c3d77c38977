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
//!   (used by integration tests and content-level experiments),
//! * [`RateOracle`] draws from a per-workload failing-row rate (the Fig. 4
//!   fractions), which is what trace-scale engine runs use.

use std::collections::{BinaryHeap, HashMap, HashSet};

use memutil::codec::{Dec, Enc};
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

    /// Memo hit/miss counters, for oracles that memoize verdicts
    /// ([`ContentOracle`]); `None` for memo-free oracles. Lets the engine
    /// fold oracle efficiency into the telemetry registry without
    /// downcasting.
    fn memo_counters(&self) -> Option<MemoStats> {
        None
    }

    /// Serializes the oracle's mutable state for a durability snapshot, or
    /// `None` when the oracle cannot be persisted (e.g. [`ContentOracle`],
    /// whose simulated-chip state is far too large to snapshot). Engines
    /// refuse to attach a durable store over a non-persistable oracle.
    fn persist_state(&self) -> Option<Vec<u8>> {
        None
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

    /// Rebuilds an oracle from a [`persist_state`](FailureOracle::persist_state)
    /// blob captured by a durability snapshot.
    ///
    /// # Errors
    ///
    /// Returns a description when the blob is malformed or encodes an
    /// invalid rate or RNG state.
    pub fn from_persisted(blob: &[u8]) -> Result<Self, String> {
        let mut d = Dec::new(blob);
        let rate = d.f64()?;
        let state_vec = d.u64_vec()?;
        d.finish("rate oracle state")?;
        if !(0.0..=1.0).contains(&rate) {
            return Err(format!("rate oracle: rate {rate} outside [0, 1]"));
        }
        let state: [u64; 4] = state_vec
            .try_into()
            .map_err(|_| "rate oracle: rng state must be 4 words".to_string())?;
        let rng = SmallRng::from_state(state)?;
        Ok(RateOracle { rate, rng })
    }
}

impl FailureOracle for RateOracle {
    fn page_fails(&mut self, _page: PageId, _generation: u64) -> bool {
        self.rng.gen::<f64>() < self.rate
    }

    fn persist_state(&self) -> Option<Vec<u8>> {
        let mut e = Enc::with_capacity(48);
        e.f64(self.rate);
        e.u64_slice(&self.rng.state());
        Some(e.into_bytes())
    }
}

/// Hit/miss counters of [`ContentOracle`]'s content-fingerprint memo.
/// Counters saturate at `u64::MAX` rather than wrapping.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Verdicts answered from the memo.
    pub hits: u64,
    /// Verdicts that ran the full failure-model evaluation.
    pub misses: u64,
}

/// Physics-backed oracle: regenerates the page's content inside a simulated
/// chip and runs the coupling failure model at the LO-REF interval.
///
/// Verdicts are memoized on a **content fingerprint**: the verdict of a row
/// is a pure function of the chip identity and the content of the victim
/// internal row plus its two vertically adjacent internal rows (the
/// complete input set of the coupling evaluation), so the memo key is
/// `(row id, hash of those three rows)`. Re-testing a page whose
/// neighborhood content is unchanged — the common case, since most pages
/// are written rarely — answers from the memo without re-running the model.
#[derive(Debug)]
pub struct ContentOracle {
    module: DramModule,
    model: CouplingFailureModel,
    profile: ContentProfile,
    lo_ms: f64,
    content_seed: u64,
    memo: HashMap<(u64, u64), bool>,
    memo_stats: MemoStats,
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
            memo: HashMap::new(),
            memo_stats: MemoStats::default(),
        }
    }

    /// Memo hit/miss counters.
    #[must_use]
    pub fn memo_stats(&self) -> MemoStats {
        self.memo_stats
    }

    /// Hashes the verdict's input set: the victim internal row and its
    /// vertical neighbors, in internal-row order. `std`'s `DefaultHasher`
    /// is deterministic (SipHash-1-3 with zero keys), so fingerprints are
    /// stable across runs.
    fn fingerprint(&self, addr: RowAddr) -> u64 {
        use std::hash::{Hash, Hasher};
        let g = self.module.geometry();
        let scrambler = self.module.scrambler_for(addr);
        let ir = scrambler.to_internal_row(addr.row);
        let mut h = std::collections::hash_map::DefaultHasher::new();
        let neighborhood = [ir.checked_sub(1), Some(ir), ir.checked_add(1)];
        for internal in neighborhood.into_iter().flatten() {
            if internal >= g.rows_per_bank {
                continue;
            }
            let system = RowAddr::new(addr.rank, addr.bank, scrambler.to_system_row(internal));
            self.module
                .read_row(system)
                .expect("internal rows map inside the bank")
                .hash(&mut h);
        }
        h.finish()
    }
}

impl ContentOracle {
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
            // lands before the fingerprint below, so the memo key describes
            // the (perturbed) content actually evaluated and stays sound.
            let key = row_id ^ generation.rotate_left(32);
            if s.fires_keyed(Site::DramBitFlip, key) {
                let bit = row_id.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ generation;
                self.module
                    .inject_bit_flip(addr, bit)
                    .expect("address is in range by construction");
            }
        }
        let key = (row_id, self.fingerprint(addr));
        if let Some(&failed) = self.memo.get(&key) {
            self.memo_stats.hits = self.memo_stats.hits.saturating_add(1);
            return failed;
        }
        let failed = !self
            .model
            .evaluate_system_row(&self.module, addr, self.lo_ms)
            .is_empty();
        self.memo_stats.misses = self.memo_stats.misses.saturating_add(1);
        self.memo.insert(key, failed);
        failed
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

    fn memo_counters(&self) -> Option<MemoStats> {
        Some(self.memo_stats)
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

impl TestOutcome {
    /// Whether the content failed (page must stay at HI-REF).
    #[must_use]
    pub fn failed(&self) -> bool {
        self.verdict == Verdict::Fail
    }
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

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct InFlight {
    end_ns: u64,
    page: PageId,
    start_ns: u64,
    generation: u64,
}

impl Ord for InFlight {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse: earliest end first out of the max-heap.
        other
            .end_ns
            .cmp(&self.end_ns)
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
    in_flight: BinaryHeap<InFlight>,
    in_flight_pages: HashMap<PageId, u64>,
    faults: Option<FaultSession>,
    /// Accumulated statistics.
    pub stats: TestEngineStats,
}

impl TestEngine {
    /// Creates a test engine.
    ///
    /// * `duration_ms` — how long a row stays idle under test (one LO-REF
    ///   interval),
    /// * `budget` — how many tests may be in flight at once.
    #[must_use]
    pub fn new(oracle: Box<dyn FailureOracle>, duration_ms: f64, budget: usize) -> Self {
        TestEngine {
            oracle,
            duration_ns: (duration_ms * 1e6) as u64,
            budget,
            in_flight: BinaryHeap::new(),
            in_flight_pages: HashMap::new(),
            faults: None,
            stats: TestEngineStats::default(),
        }
    }

    /// Arms (or disarms) fault injection for subsequent polls. The engine
    /// installs a fresh session per run so decision streams replay.
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
        // `min` over the keys is the same value in any iteration order
        // (see KNOWN_FAILURES.md, order-insensitive allow-marker sites).
        // memlint: allow(map-iter-order): min() is order-insensitive
        self.in_flight_pages.keys().min().copied()
    }

    /// Tests currently in flight.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.in_flight_pages.len()
    }

    /// Whether `page` is currently under test.
    #[must_use]
    pub fn is_testing(&self, page: PageId) -> bool {
        self.in_flight_pages.contains_key(&page)
    }

    /// Direct access to the oracle (used by the engine for pre-window
    /// steady-state initialization).
    pub fn oracle_mut(&mut self) -> &mut dyn FailureOracle {
        self.oracle.as_mut()
    }

    /// The oracle's memo counters, if it memoizes
    /// ([`FailureOracle::memo_counters`]).
    #[must_use]
    pub fn memo_counters(&self) -> Option<MemoStats> {
        self.oracle.memo_counters()
    }

    /// The oracle's persisted state, if it supports durability snapshots
    /// ([`FailureOracle::persist_state`]).
    #[must_use]
    pub fn persist_oracle(&self) -> Option<Vec<u8>> {
        self.oracle.persist_state()
    }

    /// Serializes the engine's dynamic state (in-flight tests and
    /// statistics) for a durability snapshot. The oracle, fault session,
    /// and constructor-derived configuration travel separately.
    pub(crate) fn encode_state(&self, e: &mut Enc) {
        // Heap entries in a canonical order; stale (aborted/superseded)
        // entries are included because lazy discard still pops them.
        let mut flights: Vec<InFlight> = self.in_flight.iter().copied().collect();
        flights.sort_unstable_by_key(|f| (f.end_ns, f.page, f.start_ns, f.generation));
        e.u64(flights.len() as u64);
        for f in &flights {
            e.u64(f.end_ns);
            e.u64(f.page);
            e.u64(f.start_ns);
            e.u64(f.generation);
        }
        let mut live: Vec<(PageId, u64)> = self
            // memlint: allow(map-iter-order): sorted below
            .in_flight_pages
            .iter()
            .map(|(&p, &g)| (p, g))
            .collect();
        live.sort_unstable();
        e.u64(live.len() as u64);
        for (p, g) in live {
            e.u64(p);
            e.u64(g);
        }
        e.u64(self.stats.started);
        e.u64(self.stats.completed);
        e.u64(self.stats.failed);
        e.u64(self.stats.aborted);
        e.u64(self.stats.rejected);
        e.u64(self.stats.ambiguous);
        e.u64(self.stats.ecc_corrected);
        e.u64(self.stats.ecc_uncorrectable);
    }

    /// Restores state captured by [`encode_state`](Self::encode_state) into
    /// an engine built with the same configuration, refusing any test of a
    /// page at or past `n_pages` and any live test with no pending heap
    /// entry of the same page and generation (it would never complete).
    pub(crate) fn restore_state(&mut self, d: &mut Dec, n_pages: u64) -> Result<(), String> {
        let page_in_range = |page: PageId| {
            if page < n_pages {
                Ok(page)
            } else {
                Err(format!(
                    "test engine: in-flight page {page} out of range ({n_pages} pages)"
                ))
            }
        };
        let n = d.u64()?;
        self.in_flight.clear();
        for _ in 0..n {
            let end_ns = d.u64()?;
            let page = page_in_range(d.u64()?)?;
            let start_ns = d.u64()?;
            let generation = d.u64()?;
            self.in_flight.push(InFlight {
                end_ns,
                page,
                start_ns,
                generation,
            });
        }
        let pending: HashSet<(PageId, u64)> = self
            .in_flight
            .iter()
            .map(|f| (f.page, f.generation))
            .collect();
        let n = d.u64()?;
        self.in_flight_pages.clear();
        for _ in 0..n {
            let page = page_in_range(d.u64()?)?;
            let generation = d.u64()?;
            if !pending.contains(&(page, generation)) {
                return Err(format!(
                    "test engine: in-flight page {page} (generation {generation}) has no \
                     pending completion"
                ));
            }
            self.in_flight_pages.insert(page, generation);
        }
        self.stats.started = d.u64()?;
        self.stats.completed = d.u64()?;
        self.stats.failed = d.u64()?;
        self.stats.aborted = d.u64()?;
        self.stats.rejected = d.u64()?;
        self.stats.ambiguous = d.u64()?;
        self.stats.ecc_corrected = d.u64()?;
        self.stats.ecc_uncorrectable = d.u64()?;
        Ok(())
    }

    /// Cancels every in-flight test (used when the engine starts a fresh
    /// run). Statistics are kept.
    pub fn cancel_all(&mut self) {
        self.in_flight.clear();
        self.in_flight_pages.clear();
    }

    /// Attempts to start a test of `page` at `now_ns`. `generation` tags the
    /// page's current content. Returns whether the test started.
    pub fn try_start(&mut self, page: PageId, generation: u64, now_ns: u64) -> bool {
        if self.is_testing(page) || self.in_flight_pages.len() >= self.budget {
            self.stats.rejected += 1;
            return false;
        }
        self.in_flight.push(InFlight {
            end_ns: now_ns + self.duration_ns,
            page,
            start_ns: now_ns,
            generation,
        });
        self.in_flight_pages.insert(page, generation);
        self.stats.started += 1;
        true
    }

    /// Aborts the test of `page` (a demand write changed the content under
    /// test). Returns whether a test was actually in flight.
    pub fn abort(&mut self, page: PageId) -> bool {
        if self.in_flight_pages.remove(&page).is_some() {
            // The heap entry is lazily discarded at pop time.
            self.stats.aborted += 1;
            true
        } else {
            false
        }
    }

    /// Pops every test whose idle window has elapsed by `now_ns` and asks
    /// the oracle for its verdict.
    ///
    /// Allocates a fresh `Vec` per call; hot callers should prefer
    /// [`TestEngine::poll_into`] with a reused buffer.
    pub fn poll(&mut self, now_ns: u64) -> Vec<TestOutcome> {
        let mut out = Vec::new();
        self.poll_into(now_ns, &mut out);
        out
    }

    /// [`TestEngine::poll`] into a caller-owned buffer: `out` is cleared,
    /// then filled with the completed tests in end-time order. Lets the
    /// engine's event loop reuse one allocation across polls.
    pub fn poll_into(&mut self, now_ns: u64, out: &mut Vec<TestOutcome>) {
        out.clear();
        while let Some(top) = self.in_flight.peek() {
            if top.end_ns > now_ns {
                break;
            }
            let t = self.in_flight.pop().expect("peeked");
            // Lazily drop aborted (or superseded) entries.
            match self.in_flight_pages.get(&t.page) {
                Some(&gen) if gen == t.generation => {}
                _ => continue,
            }
            self.in_flight_pages.remove(&t.page);
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
                end_ns: t.end_ns,
            });
        }
    }

    /// Performs the read-back of a completed test window: fault sites fire
    /// first (a torn read-back or disagreeing read passes yield no verdict,
    /// so the oracle — and its content memo — must not run), then the
    /// oracle decides, then the ECC path of the read-back is exercised.
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

    /// Earliest pending completion time, if any test is in flight.
    #[must_use]
    pub fn next_completion_ns(&self) -> Option<u64> {
        // The heap may hold stale (aborted) entries; they only make this
        // bound conservative (earlier), which is harmless for scheduling.
        self.in_flight.peek().map(|t| t.end_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    fn engine(budget: usize) -> TestEngine {
        TestEngine::new(Box::new(RateOracle::new(0.0, 0)), 64.0, budget)
    }

    #[test]
    fn test_lifecycle_clean() {
        let mut e = engine(4);
        assert!(e.try_start(5, 0, 0));
        assert!(e.is_testing(5));
        assert!(e.poll(63 * MS).is_empty(), "window not elapsed");
        let done = e.poll(64 * MS);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].page, 5);
        assert_eq!(done[0].verdict, Verdict::Pass);
        assert_eq!(done[0].ecc, EccEvent::Clean);
        assert!(!e.is_testing(5));
    }

    #[test]
    fn failing_oracle_reports_failure() {
        let mut e = TestEngine::new(Box::new(RateOracle::new(1.0, 0)), 64.0, 4);
        assert!(e.try_start(1, 0, 0));
        let done = e.poll(64 * MS);
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
        let _ = e.poll(64 * MS);
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
        assert!(e.poll(64 * MS).is_empty(), "aborted test must not complete");
        assert_eq!(e.stats.aborted, 1);
        assert_eq!(e.stats.completed, 0);
    }

    #[test]
    fn aborted_page_can_restart_with_new_generation() {
        let mut e = engine(4);
        assert!(e.try_start(7, 0, 0));
        assert!(e.abort(7));
        assert!(e.try_start(7, 1, 10 * MS));
        let done = e.poll(100 * MS);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].start_ns, 10 * MS);
    }

    #[test]
    fn restore_refuses_a_live_test_with_no_pending_completion() {
        // A live test with no heap entry of its page and generation would
        // never complete, leaving its page unrefreshed for good.
        let payload = |e: &TestEngine| {
            let mut enc = Enc::new();
            e.encode_state(&mut enc);
            enc.into_bytes()
        };
        let mut e = engine(4);
        assert!(e.try_start(7, 3, 0));
        assert!(engine(4)
            .restore_state(&mut Dec::new(&payload(&e)), 16)
            .is_ok());
        e.in_flight_pages.insert(7, 4);
        let stale_generation = payload(&e);
        e.in_flight.clear();
        let no_entry = payload(&e);
        for bytes in [stale_generation, no_entry] {
            let err = engine(4)
                .restore_state(&mut Dec::new(&bytes), 16)
                .unwrap_err();
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
        let done = e.poll(200 * MS);
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
    fn poll_into_matches_poll_and_reuses_buffer() {
        let setup = || {
            let mut e = engine(8);
            assert!(e.try_start(1, 0, 10 * MS));
            assert!(e.try_start(2, 0, 0));
            assert!(e.try_start(3, 0, 5 * MS));
            e
        };
        let mut a = setup();
        let mut b = setup();
        let mut buf = vec![TestOutcome {
            page: 99,
            verdict: Verdict::Fail,
            ecc: EccEvent::Clean,
            generation: 0,
            start_ns: 0,
            end_ns: 0,
        }];
        b.poll_into(200 * MS, &mut buf);
        assert_eq!(a.poll(200 * MS), buf, "poll_into must match poll");
        assert_eq!(a.stats, b.stats);
        b.poll_into(300 * MS, &mut buf);
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
    fn content_memo_hits_on_unchanged_neighborhood() {
        let mut o = content_oracle(11);
        let first = o.page_fails(5, 0);
        // Same page, same generation: identical content is rewritten and no
        // neighbor changed, so the verdict comes from the memo.
        let second = o.page_fails(5, 0);
        assert_eq!(first, second);
        assert_eq!(o.memo_stats(), MemoStats { hits: 1, misses: 1 });
        // A new generation regenerates different random content: miss.
        let _ = o.page_fails(5, 1);
        assert_eq!(o.memo_stats().misses, 2);
    }

    #[test]
    fn content_memo_preserves_verdicts() {
        // Every memoized verdict must equal a direct (memo-free) model
        // evaluation of the same module state; the memo may only change
        // *when* the model runs, never the answer.
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
        assert!(
            oracle.memo_stats().hits > 0,
            "repeated neighborhoods should hit: {:?}",
            oracle.memo_stats()
        );
    }

    #[test]
    fn aborted_test_never_populates_the_memo() {
        // Regression: an aborted test must not leave a partial verdict in
        // the content-fingerprint memo — the next test of the same content
        // must be a memo miss, not a hit on a phantom entry.
        let mut e = TestEngine::new(Box::new(content_oracle(31)), 64.0, 4);
        assert!(e.try_start(3, 0, 0));
        assert!(e.abort(3));
        assert!(e.poll(100 * MS).is_empty());
        assert_eq!(
            e.memo_counters(),
            Some(MemoStats::default()),
            "aborted test must not touch the memo"
        );
        assert!(e.try_start(3, 0, 200 * MS));
        let done = e.poll(300 * MS);
        assert_eq!(done.len(), 1);
        assert_eq!(
            e.memo_counters(),
            Some(MemoStats { hits: 0, misses: 1 }),
            "first completed test must miss the memo"
        );
    }

    fn faulted_engine(oracle: Box<dyn FailureOracle>, site: Site) -> TestEngine {
        use faultinject::{FaultPlan, SiteSpec};
        let mut e = TestEngine::new(oracle, 64.0, 8);
        let plan = FaultPlan::new(0xFA17).with_site(site, SiteSpec::rate(1.0));
        e.set_fault_session(Some(FaultSession::with_plan(std::sync::Arc::new(plan))));
        e
    }

    #[test]
    fn torn_read_is_ambiguous_and_skips_oracle_and_memo() {
        let mut e = faulted_engine(Box::new(content_oracle(33)), Site::TornRead);
        assert!(e.try_start(1, 0, 0));
        let done = e.poll(64 * MS);
        assert_eq!(done[0].verdict, Verdict::Ambiguous);
        assert_eq!(e.stats.ambiguous, 1);
        assert_eq!(
            e.memo_counters(),
            Some(MemoStats::default()),
            "ambiguous read-back must not run the oracle"
        );
    }

    #[test]
    fn oracle_disagreement_is_ambiguous() {
        let mut e = faulted_engine(Box::new(RateOracle::new(0.0, 0)), Site::OracleDisagree);
        assert!(e.try_start(9, 2, 0));
        let done = e.poll(64 * MS);
        assert_eq!(done[0].verdict, Verdict::Ambiguous);
        assert_eq!(done[0].generation, 2);
    }

    #[test]
    fn vrt_toggles_the_observed_verdict() {
        let mut e = faulted_engine(Box::new(RateOracle::new(0.0, 0)), Site::DramVrt);
        assert!(e.try_start(4, 0, 0));
        let done = e.poll(64 * MS);
        assert_eq!(
            done[0].verdict,
            Verdict::Fail,
            "a VRT flip-flop turns a clean verdict into an observed failure"
        );
    }

    #[test]
    fn ecc_sites_exercise_the_real_secded_path() {
        let mut e = faulted_engine(Box::new(RateOracle::new(0.0, 0)), Site::EccCorrectable);
        assert!(e.try_start(1, 0, 0));
        let done = e.poll(64 * MS);
        assert_eq!(done[0].ecc, EccEvent::Corrected);
        assert_eq!(
            done[0].verdict,
            Verdict::Pass,
            "corrected errors keep the verdict"
        );
        assert_eq!(e.stats.ecc_corrected, 1);

        let mut e = faulted_engine(Box::new(RateOracle::new(0.0, 0)), Site::EccUncorrectable);
        assert!(e.try_start(2, 5, 0));
        let done = e.poll(64 * MS);
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
        use std::sync::Arc;
        let mut o = content_oracle(77);
        let _ = o.page_fails(5, 0);
        let _ = o.page_fails(5, 0);
        assert_eq!(
            o.memo_stats(),
            MemoStats { hits: 1, misses: 1 },
            "unchanged content hits the memo"
        );
        // Same content with an injected transient flip: the evaluated
        // input differs, so the fingerprint — and hence the memo key —
        // must differ too (the memo stays sound under injection).
        let plan = Arc::new(FaultPlan::new(1).with_site(Site::DramBitFlip, SiteSpec::rate(1.0)));
        let mut s = FaultSession::with_plan(plan);
        let _ = o.page_fails_faulted(5, 0, &mut s);
        assert_eq!(s.injected(Site::DramBitFlip), 1);
        assert_eq!(
            o.memo_stats(),
            MemoStats { hits: 1, misses: 2 },
            "flipped content must miss the memo"
        );
    }
}
