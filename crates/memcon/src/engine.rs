//! The end-to-end MEMCON engine.
//!
//! Build a [`MemconEngine`] over a page-granularity write trace (one engine,
//! one run) and [`MemconEngine::run`] executes the full mechanism of paper
//! Sections 3–4 on a faithful timeline:
//!
//! 1. every write sends its page to HI-REF (and aborts any in-flight test of
//!    that page — the content under test just changed),
//! 2. PRIL watches writes across quanta; at each quantum boundary its
//!    candidates (pages idle for more than a quantum) start content tests,
//!    bounded by the concurrent-test budget,
//! 3. a test keeps the row unrefreshed for one LO-REF window, then the
//!    failure oracle delivers the verdict: clean rows drop to LO-REF,
//!    failing rows stay at HI-REF,
//! 4. time-in-state is integrated exactly, yielding the refresh-operation
//!    reduction (Fig. 14), LO-REF coverage (Fig. 17), and the
//!    testing-vs-refresh time split (Fig. 18), including the misprediction
//!    accounting (a test is mispredicted when its page is rewritten before
//!    `MinWriteInterval` elapses, so the test cost is never amortized).

use std::sync::Arc;

use faultinject::{FaultPlan, FaultSession, Site};
use memtrace::trace::WriteTrace;
use memutil::codec::{self, Io};
use store::StoreError;

use crate::config::MemconConfig;
use crate::cost::{CostModel, TestMode};
use crate::overhead::STAGING_ROWS_PER_BANK;
use crate::pril::{PageId, Pril, PrilStats};
use crate::refreshmgr::{PageState, RefreshManager};
use crate::testengine::{
    EccEvent, FailureOracle, RateOracle, TestEngine, TestEngineStats, Verdict,
};

/// Default Bernoulli failing-row rate for trace-scale runs (the middle of
/// the paper's Fig. 4 band of 0.38–5.6 %).
pub const DEFAULT_FAIL_RATE: f64 = 0.015;

/// Histogram edges (in quanta) of the retry-backoff distribution.
pub const BACKOFF_EDGES: [u64; 5] = [1, 2, 4, 8, 16];

/// Histogram edges (candidate count) of the per-quantum PRIL candidate
/// distribution.
pub const CANDIDATE_EDGES: [u64; 10] = [0, 1, 2, 4, 8, 16, 32, 64, 128, 256];

/// Engine snapshot payload format version (the first payload byte).
const SNAP_VERSION: u8 = 8;

/// FNV-1a hashes of two fixed checkpoints, without and with a fault plan
/// (see the `payload_layout_is_pinned` test). A change to what a
/// checkpoint holds, or in what order, moves them: bump [`SNAP_VERSION`]
/// with them.
#[cfg(test)]
const SNAP_LAYOUT_FNV: [u64; 2] = [0x5607_F8E9_3832_1A19, 0x076B_B9E4_4EB9_9583];

/// Copy-and-Compare staging rows: [`STAGING_ROWS_PER_BANK`] in each bank
/// of the paper's 8-bank module. A test holds one row exactly while it is
/// in flight, so the region caps the concurrent-test budget.
const STAGING_ROWS: u64 = STAGING_ROWS_PER_BANK * 8;

/// The engine's own per-run counters, kept in one persisted block: the
/// Fig. 18 prediction split, the abort/retry machinery's counts and the
/// per-quantum PRIL candidate distribution. What the components count
/// stays in the components; [`EngineStats`] reads both.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineCounters {
    /// Completed tests whose LO-REF residency amortized the cost (no
    /// write within MinWriteInterval), plus detected failures.
    pub tests_correct: u64,
    /// Tests whose page was rewritten too soon, including aborted tests
    /// and ambiguous verdicts.
    pub tests_mispredicted: u64,
    /// Tests restarted from the backoff queue.
    pub retries: u64,
    /// Backoffs scheduled (one per aborted/ambiguous attempt).
    pub backoffs_scheduled: u64,
    /// Backoffs clamped at [`RecoveryPolicy::backoff_cap_quanta`] — the
    /// page keeps failing attempts after the exponential schedule maxed
    /// out, a saturation signal the health monitor watches.
    ///
    /// [`RecoveryPolicy::backoff_cap_quanta`]: crate::config::RecoveryPolicy
    pub backoff_ceiling_hits: u64,
    /// Backoff-length distribution, bucketed by [`BACKOFF_EDGES`]
    /// (≤1, ≤2, ≤4, ≤8, ≤16, >16 quanta).
    pub backoff_hist: [u64; 6],
    /// Sum of all scheduled backoff lengths in quanta (the histogram's
    /// exact sum, flushed to telemetry with the bucket counts).
    pub backoff_sum_quanta: u64,
    /// Uncorrectable ECC errors that did **not** leave their page pinned —
    /// must stay 0 (asserted by the chaos gate).
    pub uncorrectable_escapes: u64,
    /// Per-quantum PRIL candidate-count distribution, bucketed by
    /// [`CANDIDATE_EDGES`]; flushed as one merged histogram at run end.
    pub candidate_hist: [u64; 11],
}

impl EngineCounters {
    fn fields(&mut self, io: &mut Io) -> Result<(), String> {
        let EngineCounters {
            tests_correct,
            tests_mispredicted,
            retries,
            backoffs_scheduled,
            backoff_ceiling_hits,
            backoff_hist,
            backoff_sum_quanta,
            uncorrectable_escapes,
            candidate_hist,
        } = self;
        for v in [tests_correct, tests_mispredicted] {
            io.u64(v)?;
        }
        for v in [retries, backoffs_scheduled, backoff_ceiling_hits] {
            io.u64(v)?;
        }
        io.u64s(backoff_hist, "backoff histogram")?;
        for v in [backoff_sum_quanta, uncorrectable_escapes] {
            io.u64(v)?;
        }
        io.u64s(candidate_hist, "candidate histogram")
    }
}

/// Everything an engine run has counted, as one view
/// ([`MemconEngine::stats`]): the engine's [`EngineCounters`], the
/// components' statistics, the fault session's per-site tallies and the
/// refresh manager's pins. Readable after the run or between
/// [`MemconEngine::advance_until`] slices; totals are cumulative over the
/// run, `pinned_pages` and `pril_buffered` are gauges. Every
/// value derives from simulation state, so the view is bit-reproducible
/// for a fixed trace and [`FaultPlan`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// The engine's own counters.
    pub counters: EngineCounters,
    /// PRIL statistics.
    pub pril: PrilStats,
    /// Test-engine statistics: starts, aborts, verdicts, ECC events.
    pub tests: TestEngineStats,
    /// Faults injected per site, indexed like [`Site::ALL`]; all zero when
    /// no plan is active.
    pub faults_injected: [u64; faultinject::N_SITES],
    /// Pages pinned to the high-refresh bin by the fail-safe degradation
    /// rule (pin events; a page unpinned by a clean test and pinned again
    /// counts twice).
    pub pin_events: u64,
    /// Pages pinned to HI-REF now (gauge).
    pub pinned_pages: u64,
    /// PRIL write-buffer occupancy now (gauge).
    pub pril_buffered: u64,
}

fn backoff_bucket(quanta: u64) -> usize {
    BACKOFF_EDGES
        .iter()
        .position(|&e| quanta <= e)
        .unwrap_or(BACKOFF_EDGES.len())
}

fn candidate_bucket(count: u64) -> usize {
    CANDIDATE_EDGES
        .iter()
        .position(|&e| count <= e)
        .unwrap_or(CANDIDATE_EDGES.len())
}

/// Identity of the trace a checkpointed run began with. It rides in the
/// payload's run section so [`MemconEngine::restore`] can refuse to
/// resume a run over a trace other than the one it checkpointed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct TraceFingerprint {
    pages: u64,
    duration_ns: u64,
    events: u64,
    /// FNV-1a step per event word (time, then page): each step is a
    /// bijection, so changing any one word always changes the hash.
    hash: u64,
}

impl TraceFingerprint {
    fn of(trace: &WriteTrace) -> Self {
        const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
        let mut hash = 0xCBF2_9CE4_8422_2325u64;
        for e in trace.iter() {
            hash = (hash ^ e.time_ns).wrapping_mul(FNV_PRIME);
            hash = (hash ^ e.page).wrapping_mul(FNV_PRIME);
        }
        TraceFingerprint {
            pages: trace.n_pages(),
            duration_ns: trace.duration_ns(),
            events: trace.len() as u64,
            hash,
        }
    }

    fn fields(&mut self, io: &mut Io) -> Result<(), String> {
        memutil::u64_fields!(io; TraceFingerprint { pages, duration_ns, events, hash } = self);
        Ok(())
    }
}

/// Everything the paper's Figs. 14, 17, and 18 need from one engine run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemconReport {
    /// Refresh-operation reduction vs the all-HI-REF baseline (Fig. 14).
    pub refresh_reduction: f64,
    /// The reduction if every page ran at LO-REF always (75 % for 16/64 ms).
    pub upper_bound: f64,
    /// Fraction of page-time at LO-REF (Fig. 17).
    pub lo_coverage: f64,
    /// Fraction of page-time under test.
    pub testing_fraction: f64,
    /// Refresh operations MEMCON performed.
    pub refresh_ops: f64,
    /// Refresh operations the baseline would have performed.
    pub baseline_ops: f64,
    /// Latency spent on refresh operations, ns.
    pub refresh_time_ns: f64,
    /// Latency the baseline would spend on refresh, ns.
    pub baseline_refresh_time_ns: f64,
    /// Latency spent on correctly predicted tests, ns.
    pub test_time_correct_ns: f64,
    /// Latency spent on mispredicted/aborted tests, ns.
    pub test_time_mispredicted_ns: f64,
    /// Trace duration, ns.
    pub duration_ns: u64,
    /// Pages tracked.
    pub n_pages: u64,
}

impl MemconReport {
    /// Fig. 18's y-value: MEMCON's refresh+testing time normalized to the
    /// baseline's refresh time.
    #[must_use]
    pub fn normalized_refresh_and_test_time(&self) -> f64 {
        if self.baseline_refresh_time_ns <= 0.0 {
            return 0.0;
        }
        (self.refresh_time_ns + self.test_time_correct_ns + self.test_time_mispredicted_ns)
            / self.baseline_refresh_time_ns
    }
}

/// The MEMCON engine: one run over one write trace. Construction starts
/// the run, [`MemconEngine::advance_until`] steps it, and
/// [`MemconEngine::run`] finishes it and reports.
#[derive(Debug)]
pub struct MemconEngine {
    config: MemconConfig,
    cost: CostModel,
    /// Nanoseconds per quantum: boundary `i` falls at `i × quantum_ns`.
    quantum_ns: u64,
    /// The configuration's MinWriteInterval, ns.
    mwi_ns: u64,
    /// The run's trace; it sizes every per-page structure.
    trace: Arc<WriteTrace>,
    /// Cursor into the trace's events: events before it are consumed.
    event_idx: usize,
    /// The trace's identity, taken by the run's first
    /// [`MemconEngine::checkpoint`] (or read back by restore).
    fingerprint: Option<TraceFingerprint>,
    /// Set once [`MemconEngine::run`] has finished the run.
    finished: bool,
    pril: Pril,
    tests: TestEngine,
    /// Per-page refresh bins and pins.
    mgr: RefreshManager,
    /// Per-page content-generation counter (bumped by every write).
    generation: Vec<u64>,
    /// Pending amortization anchor: Some(test start) while the page sits at
    /// LO-REF un-rewritten.
    lo_anchor: Vec<Option<u64>>,
    /// Reused completion buffer for [`TestEngine::poll_into`] — the event
    /// loop polls at every pending completion, so a fresh `Vec` per poll
    /// would dominate allocations.
    outcome_buf: Vec<crate::testengine::TestOutcome>,
    /// Consecutive aborted/ambiguous attempts per page, reset by a clean
    /// verdict.
    attempts: Vec<u32>,
    /// Backoff expiry (quantum index) per page, while a retry is armed.
    retry_at: Vec<Option<u64>>,
    /// Pages with an armed retry, in arming order.
    retry_queue: Vec<PageId>,
    /// Generation of the last clean passing test per page — the evidence
    /// backing the refresh-correctness invariant.
    clean_gen: Vec<Option<u64>>,
    /// Quantum boundaries crossed.
    quantum_index: u64,
    /// The engine's own counters.
    counters: EngineCounters,
    /// Quantum-window time-series sampling period (quanta), when armed.
    sample_every: Option<u64>,
}

impl MemconEngine {
    /// Starts a run over `trace` with the default rate oracle
    /// ([`DEFAULT_FAIL_RATE`]); see [`MemconEngine::with_oracle`].
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid.
    #[must_use]
    pub fn new(config: MemconConfig, trace: impl Into<Arc<WriteTrace>>) -> Self {
        Self::with_oracle(
            config,
            trace,
            Box::new(RateOracle::new(DEFAULT_FAIL_RATE, 0x5EED)),
        )
    }

    /// Starts a run over `trace` with an explicit failure oracle: sizes
    /// every per-page structure from the trace, arms a fault session from
    /// the globally installed plan (if any), and performs the steady-state
    /// pre-pass. Step the run with [`MemconEngine::advance_until`] and
    /// finish it with [`MemconEngine::run`].
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid.
    #[must_use]
    pub fn with_oracle(
        config: MemconConfig,
        trace: impl Into<Arc<WriteTrace>>,
        oracle: Box<dyn FailureOracle>,
    ) -> Self {
        let mut engine = Self::build(config, trace.into(), oracle);
        engine.tests.set_fault_session(FaultSession::begin());
        if engine.config.steady_state_start {
            // The trace window opens on a long-running system: every page
            // holding static content was tested before the window; clean
            // pages already sit at LO-REF (failing ones stay HI-REF). These
            // pre-window tests are not counted in this run's statistics.
            for page in 0..engine.trace.n_pages() {
                if !engine.tests.oracle_mut().page_fails(page, 0) {
                    engine.mgr.transition(page, PageState::LoRef, 0);
                    // No amortization anchor: the test cost was paid before
                    // the window, so it never counts as a misprediction.
                    engine.clean_gen[page as usize] = Some(0);
                }
            }
        }
        engine
    }

    /// An engine over `trace` with every structure sized and nothing run:
    /// what [`MemconEngine::with_oracle`] starts and what decoding
    /// overwrites.
    fn build(config: MemconConfig, trace: Arc<WriteTrace>, oracle: Box<dyn FailureOracle>) -> Self {
        config.validate().expect("invalid MEMCON configuration");
        let cost = config.cost_model();
        let budget = match config.test_mode {
            TestMode::ReadAndCompare => u64::from(config.concurrent_tests),
            TestMode::CopyAndCompare => u64::from(config.concurrent_tests).min(STAGING_ROWS),
        };
        let n_pages = trace.n_pages();
        MemconEngine {
            quantum_ns: (config.quantum_ms * 1e6) as u64,
            mwi_ns: (cost.min_write_interval_ms(config.test_mode) * 1e6) as u64,
            cost,
            trace,
            event_idx: 0,
            fingerprint: None,
            finished: false,
            pril: Pril::new(n_pages, config.write_buffer_capacity),
            tests: TestEngine::new(oracle, config.lo_ms, budget as usize, n_pages),
            mgr: RefreshManager::new(n_pages, config.hi_ms, config.lo_ms),
            generation: vec![0; n_pages as usize],
            lo_anchor: vec![None; n_pages as usize],
            outcome_buf: Vec::new(),
            attempts: vec![0; n_pages as usize],
            retry_at: vec![None; n_pages as usize],
            retry_queue: Vec::new(),
            clean_gen: vec![None; n_pages as usize],
            quantum_index: 0,
            counters: EngineCounters::default(),
            sample_every: None,
            config,
        }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &MemconConfig {
        &self.config
    }

    /// Arms an explicit fault plan for this run in place of the session
    /// construction took from the globally installed plan (`None` falls
    /// back to the global installer). Thread-safe alternative to
    /// [`faultinject::install`] for parallel harnesses: each engine owns
    /// its plan and session.
    ///
    /// # Panics
    ///
    /// Panics once the run has consumed a write, crossed a quantum
    /// boundary or finished: the plan's decision streams would restart
    /// mid-run.
    pub fn set_fault_plan(&mut self, plan: Option<Arc<FaultPlan>>) {
        assert!(
            self.event_idx == 0 && self.quantum_index == 0 && !self.finished,
            "set_fault_plan after the run advanced: a plan's decision streams start with the run"
        );
        let session = plan
            .map(FaultSession::with_plan)
            .or_else(FaultSession::begin);
        self.tests.set_fault_session(session);
    }

    /// Everything the run has counted so far (see [`EngineStats`]).
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            counters: self.counters,
            pril: self.pril.stats,
            tests: self.tests.stats,
            faults_injected: self
                .tests
                .fault_session()
                .map_or([0; faultinject::N_SITES], FaultSession::injected_counts),
            pin_events: self.mgr.pin_events(),
            pinned_pages: self.mgr.pinned_count(),
            pril_buffered: self.pril.buffer_len() as u64,
        }
    }

    /// Arms quantum-window time-series sampling: every `Some(n)`-th
    /// quantum boundary takes a [`telemetry`] sample point (counter deltas
    /// plus engine gauges; tick = quantum index). **Single-engine drivers
    /// only** — sampling from engines stepped concurrently would
    /// interleave ring points nondeterministically and break the
    /// `--jobs` byte-identity of the deterministic report section. Fleet
    /// runs sample post-barrier per epoch instead and must leave this
    /// disarmed.
    pub fn set_sample_every(&mut self, every: Option<u64>) {
        self.sample_every = every.filter(|n| *n > 0);
    }

    /// Whether the run is unfinished: true from construction (or a
    /// mid-run restore) until [`MemconEngine::run`] returns.
    #[must_use]
    pub fn mid_run(&self) -> bool {
        !self.finished
    }

    /// The engine's field list (see [`memutil::codec`]): configuration,
    /// page count, then every component's list and the per-page state,
    /// and last the run section. Decoding overwrites a placeholder over
    /// the resumed trace: once the configuration and page count are read
    /// (and refused when invalid or not the trace's), the engine is
    /// rebuilt from them and the remaining fields overwrite the fresh one.
    fn fields(&mut self, io: &mut Io) -> Result<(), String> {
        io.version(SNAP_VERSION, "engine snapshot")?;
        let mut config = self.config;
        config.fields(io)?;
        let trace_pages = self.trace.n_pages();
        let mut pages = trace_pages;
        io.u64(&mut pages)?;
        io.refuse(pages != trace_pages, || {
            format!("page count {pages} is not the resumed trace's {trace_pages}")
        })?;
        if io.decoding() {
            let placeholder = Box::new(RateOracle::new(0.0, 0));
            *self = MemconEngine::build(config, Arc::clone(&self.trace), placeholder);
        }
        let MemconEngine {
            // Written above, before the rebuild.
            config: _,
            trace: _,
            // Derived from the configuration.
            cost: _,
            quantum_ns: _,
            mwi_ns: _,
            // The run section, last.
            event_idx,
            fingerprint,
            finished,
            pril,
            tests,
            mgr,
            generation,
            lo_anchor,
            // Scratch space, empty between happenings.
            outcome_buf: _,
            attempts,
            retry_at,
            retry_queue,
            clean_gen,
            quantum_index,
            counters,
            // A restored engine leaves sampling disarmed.
            sample_every: _,
        } = self;
        tests.fields(io)?;
        pril.fields(io)?;
        io.u64s(generation, "generation vector")?;
        for anchor in lo_anchor.iter_mut() {
            io.opt(anchor, Io::u64)?;
        }
        for attempt in attempts.iter_mut() {
            io.u32(attempt)?;
        }
        for due in retry_at.iter_mut() {
            io.opt(due, Io::u64)?;
        }
        io.seq(retry_queue, 8, "retry queue length", |io, page| {
            io.u64(page)?;
            io.refuse(*page >= pages, || {
                format!("retry queue page {page} out of range ({pages} pages)")
            })
        })?;
        for clean in clean_gen.iter_mut() {
            io.opt(clean, Io::u64)?;
        }
        io.u64(quantum_index)?;
        counters.fields(io)?;
        mgr.fields(io)?;
        // The run section, present while the run is unfinished: the event
        // cursor and the trace's fingerprint. The next boundary follows
        // from `quantum_index`.
        let mut section = (!*finished).then(|| (*event_idx, fingerprint.unwrap_or_default()));
        io.opt(&mut section, |io, (cursor, trace)| {
            io.usize(cursor)?;
            trace.fields(io)?;
            io.refuse(*cursor as u64 > trace.events, || {
                format!(
                    "event cursor {cursor} is past the trace's {} events",
                    trace.events
                )
            })
        })?;
        if io.decoding() {
            *finished = section.is_none();
            if let Some((cursor, trace)) = section {
                *event_idx = cursor;
                *fingerprint = Some(trace);
            }
        }
        Ok(())
    }

    /// Decodes a checkpoint payload over `trace`, refusing what does not
    /// decode; [`MemconEngine::restore`] adds the checks that need the
    /// whole state.
    fn from_payload(payload: &[u8], trace: Arc<WriteTrace>) -> Result<MemconEngine, String> {
        let placeholder = Box::new(RateOracle::new(0.0, 0));
        let mut engine = MemconEngine::build(MemconConfig::paper_default(), trace, placeholder);
        codec::decode(
            payload,
            &mut engine,
            "engine snapshot",
            MemconEngine::fields,
        )?;
        Ok(engine)
    }

    /// Encodes the engine's current state, run cursors included, as a
    /// payload [`MemconEngine::restore`] rebuilds — what a durable fleet's
    /// barrier image holds per shard. The first checkpoint fingerprints
    /// the trace and keeps the fingerprint, so a run pays one pass over
    /// its trace however often it checkpoints, and a run that never
    /// checkpoints pays none.
    ///
    /// # Panics
    ///
    /// Panics if the failure oracle cannot persist its state (e.g. the
    /// content oracle's simulated chip).
    pub fn checkpoint(&mut self) -> Vec<u8> {
        self.fingerprint
            .get_or_insert_with(|| TraceFingerprint::of(&self.trace));
        codec::encode(self, MemconEngine::fields)
    }

    /// Rebuilds an engine exactly as it stood when `payload` was encoded
    /// by [`MemconEngine::checkpoint`] — including an unfinished run,
    /// ready to resume over `trace`. Time-series sampling stays disarmed.
    ///
    /// Traces are not persisted, so the payload's run section carries a
    /// fingerprint of the trace the run began with, and any other trace is
    /// refused. The fault plan and its decision cursors ride in the
    /// payload, so the fault stream continues bit-identically.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] when the payload does not decode or covers
    /// a page count other than the trace's, breaks a PRIL or
    /// refresh-manager invariant, holds a page at Testing with no test in
    /// flight or a test on a page not at Testing, its run began with a
    /// trace other than `trace`, or its run cannot resume (see
    /// `check_clock` and `check_generations`).
    pub fn restore(
        payload: &[u8],
        trace: impl Into<Arc<WriteTrace>>,
    ) -> Result<MemconEngine, StoreError> {
        let engine = Self::from_payload(payload, trace.into()).map_err(StoreError::Corrupt)?;
        engine
            .pril
            .check_invariants()
            .and_then(|()| engine.mgr.check_invariants())
            .and_then(|()| engine.check_tests_match_bins())
            .map_err(|e| StoreError::Corrupt(format!("the snapshot breaks an invariant: {e}")))?;
        if !engine.finished {
            let resumed = TraceFingerprint::of(&engine.trace);
            if engine.fingerprint != Some(resumed) {
                return Err(StoreError::Corrupt(format!(
                    "the snapshot's run began with trace {:?}, not the resumed trace {resumed:?}",
                    engine.fingerprint
                )));
            }
            engine
                .check_clock()
                .and_then(|()| engine.check_generations())
                .map_err(|e| {
                    StoreError::Corrupt(format!("the snapshot's run cannot resume: {e}"))
                })?;
        }
        Ok(engine)
    }

    /// Checks that a restored run can resume: no time the state has
    /// already reached (the last consumed write, any page's last
    /// transition, any LO-REF anchor, any in-flight test's start, the last
    /// boundary crossed) is later than a pending happening (the write at
    /// the cursor, the next boundary, any pending completion) or the trace
    /// horizon. Equal times pass: a run checkpointed right after
    /// construction has reached t = 0 with writes at t = 0 still pending.
    /// A run whose refresh manager has closed its books cannot resume
    /// either.
    ///
    /// # Errors
    ///
    /// Names the latest time reached and the earliest pending one.
    fn check_clock(&self) -> Result<(), String> {
        if self.mgr.is_finalized() {
            return Err("its refresh manager is already finalized".to_string());
        }
        let duration = self.trace.duration_ns();
        let at = |i: usize| self.trace.get(i).map(|e| e.time_ns);
        let crossed = self.quantum_index.saturating_mul(self.quantum_ns);
        let reached = [
            self.event_idx.checked_sub(1).and_then(at),
            Some(self.mgr.last_transition_ns()),
            self.lo_anchor.iter().flatten().max().copied(),
            self.tests.latest_start_ns(),
            Some(crossed),
        ];
        let pending = [
            at(self.event_idx),
            Some(crossed.saturating_add(self.quantum_ns)),
            self.tests.next_completion_ns(),
            Some(duration),
        ];
        let reached = reached.into_iter().flatten().max().unwrap_or(0);
        let pending = pending.into_iter().flatten().min().unwrap_or(duration);
        if reached > pending {
            return Err(format!(
                "it has reached {reached} ns, past its next happening or horizon at {pending} ns"
            ));
        }
        Ok(())
    }

    /// Checks that no page's content generation is above what the run can
    /// have reached. The run starts them at zero, and only a write bumps
    /// one: once per consumed write, and at most once per boundary crossed
    /// (an injected preemption lands as a write). So no generation exceeds
    /// the event cursor plus the boundaries crossed, and the next write
    /// cannot overflow one.
    ///
    /// # Errors
    ///
    /// Names the lowest page above the bound.
    fn check_generations(&self) -> Result<(), String> {
        let bound = (self.event_idx as u64).saturating_add(self.quantum_index);
        match self.generation.iter().position(|&g| g > bound) {
            Some(page) => Err(format!(
                "page {page} is at generation {}, above the {bound} writes and boundaries \
                 its run has consumed",
                self.generation[page]
            )),
            None => Ok(()),
        }
    }

    /// Checks that the pages in flight in the test engine are exactly the
    /// pages the refresh manager holds at Testing: every test start moves
    /// its page to Testing, and every abort and completion moves it out.
    ///
    /// # Errors
    ///
    /// Names the lowest page on which the two disagree.
    fn check_tests_match_bins(&self) -> Result<(), String> {
        for page in 0..self.trace.n_pages() {
            let state = self.mgr.state(page);
            match (self.tests.is_testing(page), state == PageState::Testing) {
                (true, false) => {
                    return Err(format!(
                        "page {page} has a test in flight but sits at {state:?}"
                    ))
                }
                (false, true) => {
                    return Err(format!(
                        "page {page} sits at Testing with no test in flight"
                    ))
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Checks the refresh-correctness invariant over the last run's final
    /// state: every page left at LO-REF must have a clean passing test of
    /// its **current** content generation, and must not be pinned by the
    /// fail-safe degradation rule.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violating page.
    pub fn verify_refresh_correctness(&self) -> Result<(), String> {
        for (i, s) in self.mgr.states().iter().enumerate() {
            if *s != PageState::LoRef {
                continue;
            }
            if self.mgr.is_pinned(i as PageId) {
                return Err(format!("page {i} is pinned yet sits at LO-REF"));
            }
            let current = self.generation[i];
            if self.clean_gen[i] != Some(current) {
                return Err(format!(
                    "page {i} sits at LO-REF at generation {current} without a clean \
                     passing test of that content (last clean: {:?})",
                    self.clean_gen[i]
                ));
            }
        }
        Ok(())
    }

    /// Advances the run through every happening (test completion,
    /// quantum boundary, write event) at or before `limit_ns`, in exact
    /// timeline order. Splitting a run at arbitrary limits cannot reorder
    /// happenings: the loop always takes the globally earliest next one, so
    /// a limit only decides *when* the loop pauses, never *what* it does.
    /// Limits past the trace horizon stop at it.
    pub fn advance_until(&mut self, limit_ns: u64) {
        let trace = Arc::clone(&self.trace);
        let duration = trace.duration_ns();
        let limit = limit_ns.min(duration);
        let mut cursor = self.event_idx;
        loop {
            let t_test = self.tests.next_completion_ns();
            let next_quantum = (self.quantum_index + 1) * self.quantum_ns;
            let t_quantum = (next_quantum <= duration).then_some(next_quantum);
            let horizon = [t_test, t_quantum].into_iter().flatten().min();
            // Drain the writes before the next completion or boundary. At
            // equal times the order is completion, then boundary, then
            // write: a test that ends exactly when a write arrives completes
            // before the write invalidates it (the write targets the *new*
            // content), so the drain takes only writes strictly before the
            // horizon. The horizon cannot move during the drain: a write
            // starts no test, and an abort leaves its heap entry in place.
            // The drain walks the trace a segment at a time, so each write
            // costs one comparison against the last time it may take.
            let last = horizon.map_or(Some(limit), |h| h.checked_sub(1).map(|h| h.min(limit)));
            if let Some(last) = last {
                'drain: for segment in trace.segments_from(cursor) {
                    for e in segment.iter() {
                        if e.time_ns > last {
                            break 'drain;
                        }
                        cursor += 1;
                        self.handle_write(e.page, e.time_ns);
                    }
                }
            }
            let Some(now) = horizon.filter(|&h| h <= limit) else {
                break;
            };
            if t_test == Some(now) {
                self.handle_completions(now);
                continue;
            }
            self.handle_quantum(now);
        }
        self.event_idx = cursor;
    }

    /// Advances the run to the trace horizon and finishes it: drains the
    /// tests completing at the horizon, finalizes the refresh timeline,
    /// flushes telemetry, and reports. Whether or not
    /// [`MemconEngine::advance_until`] stepped the run first, the result
    /// is bit-identical: stepped and whole runs share one code path.
    ///
    /// # Panics
    ///
    /// Panics if the run is already finished: an engine runs once.
    pub fn run(&mut self) -> MemconReport {
        assert!(
            !self.finished,
            "a MemconEngine runs once: its state is the finished run's, \
             so build a fresh engine for each run"
        );
        let _span = telemetry::tree_span("memcon.run");
        let duration = self.trace.duration_ns();
        self.advance_until(duration);
        self.finished = true;
        // Drain tests completing exactly at the horizon.
        self.handle_completions(duration);
        self.mgr.finalize(duration);
        #[cfg(feature = "strict-invariants")]
        {
            if let Err(e) = self.mgr.check_invariants() {
                // memlint: allow (deliberate strict-invariants abort)
                panic!("RefreshManager invariant violation at finalization: {e}");
            }
        }

        // Censored LO residencies: pages still at LO-REF at the end count as
        // correct — the paper classifies a test as mispredicted only when an
        // early rewrite is actually observed.
        for anchor in &mut self.lo_anchor {
            if anchor.take().is_some() {
                self.counters.tests_correct += 1;
            }
        }

        #[cfg(feature = "strict-invariants")]
        {
            if let Err(e) = self.verify_refresh_correctness() {
                // memlint: allow (deliberate strict-invariants abort)
                panic!("refresh-correctness violation at end of run: {e}");
            }
        }
        if telemetry::enabled() {
            self.flush_telemetry();
        }
        let test_cost = self.cost.test_cost_ns(self.config.test_mode);
        let mgr = &self.mgr;
        let refresh_ops = mgr.refresh_ops();
        let baseline_ops = mgr.baseline_ops();
        MemconReport {
            refresh_reduction: mgr.reduction(),
            upper_bound: self.cost.upper_bound_reduction(),
            lo_coverage: mgr.lo_coverage(),
            testing_fraction: mgr.testing_fraction(),
            refresh_ops,
            baseline_ops,
            refresh_time_ns: refresh_ops * self.cost.refresh_op_ns,
            baseline_refresh_time_ns: baseline_ops * self.cost.refresh_op_ns,
            test_time_correct_ns: self.counters.tests_correct as f64 * test_cost,
            test_time_mispredicted_ns: self.counters.tests_mispredicted as f64 * test_cost,
            duration_ns: duration,
            n_pages: self.trace.n_pages(),
        }
    }

    /// Per-page refresh states: live during the run, final after it. The
    /// reliability guarantee is that every page reported `LoRef` here
    /// passed a content test after its last write.
    #[must_use]
    pub fn final_states(&self) -> &[PageState] {
        self.mgr.states()
    }

    fn handle_write(&mut self, page: PageId, now: u64) {
        self.generation[page as usize] += 1;
        if self.tests.abort(page) {
            // The content under test changed before the verdict: the test
            // can never be amortized.
            self.counters.tests_mispredicted += 1;
            self.mgr.transition(page, PageState::HiRef, now);
            self.note_failed_attempt(page, now, false);
        } else {
            match self.mgr.state(page) {
                PageState::LoRef => {
                    if let Some(start) = self.lo_anchor[page as usize].take() {
                        if now - start >= self.mwi_ns {
                            self.counters.tests_correct += 1;
                        } else {
                            self.counters.tests_mispredicted += 1;
                        }
                    }
                    self.mgr.transition(page, PageState::HiRef, now);
                }
                PageState::HiRef => {} // already aggressive; no transition
                PageState::Testing => unreachable!("abort() handles in-test pages"),
            }
        }
        // A write resets PRIL idleness; an armed retry must honor it too
        // (don't re-test immediately): the earliest retry is the boundary
        // after the next — the page's first full idle quantum — exactly
        // when PRIL itself would re-nominate the page.
        if let Some(due) = &mut self.retry_at[page as usize] {
            *due = (*due).max(self.quantum_index + 2);
        }
        self.pril.on_write(page);
    }

    /// Records an aborted/ambiguous test attempt on `page` and arms the
    /// abort/retry machinery: pages are re-tested only after a capped
    /// exponential backoff (in quanta), and after [`RecoveryPolicy`]'s
    /// attempt budget — or any uncorrectable ECC error — the page is pinned
    /// to the high-refresh bin until a definitive verdict clears it.
    ///
    /// [`RecoveryPolicy`]: crate::config::RecoveryPolicy
    fn note_failed_attempt(&mut self, page: PageId, now: u64, uncorrectable: bool) {
        let policy = self.config.recovery;
        let slot = &mut self.attempts[page as usize];
        *slot = slot.saturating_add(1);
        let attempts = *slot;
        if uncorrectable || attempts >= policy.max_attempts {
            self.mgr.pin_high(page, now);
        }
        let backoff =
            (1u64 << u64::from((attempts - 1).min(31))).min(u64::from(policy.backoff_cap_quanta));
        self.counters.backoffs_scheduled += 1;
        if backoff == u64::from(policy.backoff_cap_quanta) {
            self.counters.backoff_ceiling_hits += 1;
        }
        // Accumulated in engine state (not observed mid-run) so that the
        // telemetry flush at run end is a pure function of the final state —
        // a crashed-and-recovered run reports bit-identically.
        self.counters.backoff_hist[backoff_bucket(backoff)] += 1;
        self.counters.backoff_sum_quanta += backoff;
        if self.retry_at[page as usize].is_none() {
            self.retry_queue.push(page);
        }
        self.retry_at[page as usize] = Some(self.quantum_index + backoff);
    }

    /// A definitive (non-ambiguous) verdict resets the attempt counter and
    /// releases any fail-safe pin. Pin release must precede a LO-REF
    /// transition — the refresh manager rejects LO-REF for pinned pages.
    fn clear_attempts(&mut self, page: PageId) {
        self.attempts[page as usize] = 0;
        self.retry_at[page as usize] = None;
        self.mgr.release_pin(page);
    }

    /// Folds one run's [`EngineStats`] and refresh-bin counts into the
    /// current telemetry registry. All values derive from simulation
    /// state, so they are deterministic; called once at the end of
    /// [`MemconEngine::run`] rather than per-event to keep the hot loop
    /// telemetry-free.
    fn flush_telemetry(&self) {
        let EngineStats {
            counters: c,
            pril: p,
            tests: t,
            faults_injected,
            pin_events,
            ..
        } = self.stats();
        telemetry::count("memcon.pril.writes", p.writes);
        telemetry::count("memcon.pril.inserted", p.inserted);
        telemetry::count("memcon.pril.evicted_repeat", p.evicted_repeat);
        telemetry::count("memcon.pril.evicted_previous", p.evicted_previous);
        telemetry::count("memcon.pril.overflowed", p.overflowed);
        telemetry::count("memcon.pril.candidates", p.candidates);
        telemetry::count("memcon.pril.quanta", p.quanta);
        // Merged from engine-accumulated buckets rather than observed per
        // quantum, so the registry sees one deterministic flush; emitted
        // only for runs that crossed a boundary, matching the conditional
        // per-event registration this replaces.
        if p.quanta > 0 {
            telemetry::observe_merged(
                "memcon.pril.quantum_candidates",
                &CANDIDATE_EDGES,
                &c.candidate_hist,
                p.quanta,
                p.candidates,
            );
        }
        telemetry::count("memcon.tests.started", t.started);
        telemetry::count("memcon.tests.completed", t.completed);
        telemetry::count("memcon.tests.failed", t.failed);
        telemetry::count("memcon.tests.aborted", t.aborted);
        telemetry::count("memcon.tests.rejected", t.rejected);
        telemetry::count("memcon.engine.tests_correct", c.tests_correct);
        telemetry::count("memcon.engine.tests_mispredicted", c.tests_mispredicted);
        let (to_hi, to_testing, to_lo) = self.mgr.transition_counts();
        telemetry::count("memcon.refresh.to_hi", to_hi);
        telemetry::count("memcon.refresh.to_testing", to_testing);
        telemetry::count("memcon.refresh.to_lo", to_lo);
        let mut finals = [0u64; 3];
        for s in self.mgr.states() {
            finals[match s {
                PageState::HiRef => 0,
                PageState::Testing => 1,
                PageState::LoRef => 2,
            }] += 1;
        }
        telemetry::count("memcon.refresh.final_hi", finals[0]);
        telemetry::count("memcon.refresh.final_testing", finals[1]);
        telemetry::count("memcon.refresh.final_lo", finals[2]);
        // Fault-injection and recovery counters. Zero-valued fault.* entries
        // are emitted even with no plan installed so the report shape stays
        // stable across chaos and plain runs.
        for site in Site::ALL {
            telemetry::count(
                &format!("fault.{}", site.name()),
                faults_injected[site as usize],
            );
        }
        telemetry::count("memcon.recovery.aborts", t.aborted);
        telemetry::count("memcon.recovery.retries", c.retries);
        telemetry::count("memcon.recovery.backoffs_scheduled", c.backoffs_scheduled);
        telemetry::count(
            "memcon.recovery.backoff_ceiling_hits",
            c.backoff_ceiling_hits,
        );
        telemetry::count("memcon.recovery.degraded_rows", pin_events);
        telemetry::count("memcon.recovery.ambiguous", t.ambiguous);
        telemetry::count("memcon.recovery.ecc_corrected", t.ecc_corrected);
        telemetry::count("memcon.recovery.ecc_uncorrectable", t.ecc_uncorrectable);
        telemetry::count(
            "memcon.recovery.uncorrectable_escapes",
            c.uncorrectable_escapes,
        );
        if c.backoffs_scheduled > 0 {
            telemetry::observe_merged(
                "memcon.recovery.backoff_quanta",
                &BACKOFF_EDGES,
                &c.backoff_hist,
                c.backoffs_scheduled,
                c.backoff_sum_quanta,
            );
        }
    }

    fn handle_quantum(&mut self, now: u64) {
        self.quantum_index += 1;
        // Injected test preemption: model a rogue write landing on whichever
        // page is under test, forcing the abort/retry path.
        if let Some(victim) = self.tests.any_in_flight_page() {
            let fired = self
                .tests
                .fault_session_mut()
                .is_some_and(|s| s.fires(Site::TestPreempt));
            if fired {
                self.handle_write(victim, now);
            }
        }
        // Drain the retry queue first: backed-off pages have priority over
        // fresh PRIL candidates for the concurrent-test budget.
        let mut still_armed = Vec::new();
        for page in std::mem::take(&mut self.retry_queue) {
            let Some(due) = self.retry_at[page as usize] else {
                continue; // disarmed by a definitive verdict meanwhile
            };
            if self.quantum_index < due {
                still_armed.push(page);
                continue;
            }
            let generation = self.generation[page as usize];
            if self.tests.try_start(page, generation, now) {
                self.retry_at[page as usize] = None;
                self.counters.retries += 1;
                self.mgr.transition(page, PageState::Testing, now);
                if telemetry::enabled() {
                    telemetry::annotate("memcon.test_retry", page);
                }
            } else {
                still_armed.push(page); // no slot free; keep armed
            }
        }
        self.retry_queue = still_armed;
        let candidates = self.pril.end_quantum();
        // Accumulated (not observed) so the run-end flush is a pure
        // function of final engine state — see `flush_telemetry`.
        self.counters.candidate_hist[candidate_bucket(candidates.len() as u64)] += 1;
        for page in candidates {
            // A nominated page can be mid-retry-backoff or already under a
            // retry test started above; the retry machinery owns it.
            if self.retry_at[page as usize].is_some() || self.mgr.state(page) != PageState::HiRef {
                continue;
            }
            let generation = self.generation[page as usize];
            if self.tests.try_start(page, generation, now) {
                self.mgr.transition(page, PageState::Testing, now);
                if telemetry::enabled() {
                    telemetry::annotate("memcon.test_start", page);
                }
            }
        }
        if let Some(every) = self.sample_every {
            if self.quantum_index.is_multiple_of(every) && telemetry::enabled() {
                self.sample_quantum();
            }
        }
        #[cfg(feature = "strict-invariants")]
        {
            if let Err(e) = self.pril.check_invariants() {
                // memlint: allow (deliberate strict-invariants abort)
                panic!("PRIL invariant violation at quantum boundary ({now} ns): {e}");
            }
            if let Err(e) = self.mgr.check_invariants() {
                // memlint: allow (deliberate strict-invariants abort)
                panic!("RefreshManager invariant violation at quantum boundary ({now} ns): {e}");
            }
            if let Err(e) = self.check_tests_match_bins() {
                // memlint: allow (deliberate strict-invariants abort)
                panic!("test engine disagrees with the bins at quantum boundary ({now} ns): {e}");
            }
        }
    }

    /// Takes a quantum-window time-series sample (see
    /// [`MemconEngine::set_sample_every`]): the gauges of
    /// [`EngineStats`], tick = quantum index.
    fn sample_quantum(&self) {
        let stats = self.stats();
        telemetry::sample_point(
            self.quantum_index,
            &[
                ("memcon.gauge.pinned_pages", stats.pinned_pages),
                ("memcon.gauge.pril_buffered", stats.pril_buffered),
                (
                    "memcon.gauge.pril_capacity",
                    self.config.write_buffer_capacity as u64,
                ),
                ("memcon.gauge.pages", self.trace.n_pages()),
            ],
        );
    }

    fn handle_completions(&mut self, now: u64) {
        let duration = self.trace.duration_ns();
        let mut outcomes = std::mem::take(&mut self.outcome_buf);
        self.tests.poll_into(now, &mut outcomes);
        for outcome in &outcomes {
            let end = outcome.end_ns.min(duration);
            let page = outcome.page;
            match outcome.verdict {
                Verdict::Fail => {
                    self.clear_attempts(page);
                    self.mgr.transition(page, PageState::HiRef, end);
                    // A detected failure is a *correct* engagement of the
                    // mechanism: the test did its protective job.
                    self.counters.tests_correct += 1;
                }
                Verdict::Pass => {
                    self.clear_attempts(page);
                    self.mgr.transition(page, PageState::LoRef, end);
                    self.clean_gen[page as usize] = Some(outcome.generation);
                    self.lo_anchor[page as usize] = Some(outcome.start_ns);
                }
                Verdict::Ambiguous => {
                    // Torn read-back, oracle disagreement, or uncorrectable
                    // ECC: no verdict about the content — the conservative
                    // response is HI-REF plus a backed-off retry.
                    self.counters.tests_mispredicted += 1;
                    self.mgr.transition(page, PageState::HiRef, end);
                    self.note_failed_attempt(page, end, outcome.ecc == EccEvent::Uncorrectable);
                }
            }
            if outcome.ecc == EccEvent::Uncorrectable && !self.mgr.is_pinned(page) {
                self.counters.uncorrectable_escapes += 1;
            }
        }
        self.outcome_buf = outcomes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memtrace::trace::{WriteEvent, WriteTrace};
    use memtrace::workload::WorkloadProfile;

    const MS: u64 = 1_000_000;

    fn ev(t_ms: u64, page: u64) -> WriteEvent {
        WriteEvent {
            time_ns: t_ms * MS,
            page,
        }
    }

    fn cfg() -> MemconConfig {
        MemconConfig::paper_default()
    }

    fn clean_engine(trace: WriteTrace) -> MemconEngine {
        MemconEngine::with_oracle(cfg(), trace, Box::new(RateOracle::new(0.0, 0)))
    }

    #[test]
    fn equal_time_happenings_order_completion_then_boundary_then_write() {
        // Page 0's test runs 2048–2112 ms. A page-0 write at 2112 ms comes
        // after the completion: the test passes, and the early rewrite is a
        // misprediction, not an abort.
        let trace = WriteTrace::new(vec![ev(0, 0), ev(2100, 1), ev(2112, 0)], 8192 * MS, 2);
        let mut e = clean_engine(trace);
        let _ = e.run();
        assert_eq!(e.stats().tests.aborted, 0);
        assert_eq!(e.stats().counters.tests_mispredicted, 1);
        // A page-0 write at the 2048 ms boundary comes after the boundary
        // starts the test, so it aborts it.
        let trace = WriteTrace::new(vec![ev(0, 0), ev(2040, 1), ev(2048, 0)], 8192 * MS, 2);
        let mut e = clean_engine(trace);
        e.run();
        assert_eq!(e.stats().tests.aborted, 1);
    }

    #[test]
    fn drain_takes_writes_at_the_limit_and_just_before_the_horizon() {
        // A page-0 write 1 ns before the 2048 ms boundary belongs to the
        // quantum before it, so that boundary must not test the page.
        let just_before = WriteEvent {
            time_ns: 2048 * MS - 1,
            page: 0,
        };
        let trace = WriteTrace::new(
            vec![ev(0, 0), just_before, ev(4000, 1), ev(8192, 1)],
            8192 * MS,
            2,
        );
        let mut e = clean_engine(trace);
        e.advance_until(4000 * MS);
        assert_eq!(e.event_idx, 3, "the write at the limit is consumed");
        let _ = e.run();
        assert_eq!(e.stats().tests.aborted, 0);
        assert_eq!(
            e.stats().pril.writes,
            4,
            "the write at the horizon is consumed"
        );
    }

    #[test]
    fn idle_page_reaches_lo_ref() {
        // One write at t=0, then 20 s of silence: tested after two quanta,
        // LO-REF for the rest.
        let trace = WriteTrace::new(vec![ev(0, 0)], 20_480 * MS, 1);
        let mut e = clean_engine(trace);
        let r = e.run();
        // Test starts at 2048 ms (first boundary after the full idle
        // quantum following the write quantum), completes at 2112 ms.
        // LO time = 20480 - 2112 = 18368 ms of 20480 => ~89.7% coverage.
        assert!(
            (r.lo_coverage - 18_368.0 / 20_480.0).abs() < 1e-6,
            "coverage {}",
            r.lo_coverage
        );
        assert_eq!(e.stats().counters.tests_correct, 1);
        assert_eq!(e.stats().counters.tests_mispredicted, 0);
        assert!(r.refresh_reduction > 0.6);
        assert!(r.refresh_reduction < r.upper_bound);
    }

    #[test]
    fn busy_page_stays_hi_ref() {
        // Writes every 100 ms: never a full idle quantum, never tested.
        let events: Vec<WriteEvent> = (0..200).map(|i| ev(i * 100, 0)).collect();
        let trace = WriteTrace::new(events, 20_000 * MS, 1);
        let mut e = clean_engine(trace);
        let r = e.run();
        assert_eq!(r.lo_coverage, 0.0);
        assert_eq!(e.stats().tests.started, 0);
        assert!(r.refresh_reduction.abs() < 1e-9);
    }

    #[test]
    fn failing_rows_stay_hi_ref() {
        let trace = WriteTrace::new(vec![ev(0, 0)], 20_480 * MS, 1);
        let mut e = MemconEngine::with_oracle(cfg(), trace, Box::new(RateOracle::new(1.0, 0)));
        let r = e.run();
        assert_eq!(r.lo_coverage, 0.0);
        assert_eq!(e.stats().tests.failed, 1);
        // Testing time (64 ms of 20480) is unrefreshed, so reduction is
        // marginally positive but tiny.
        assert!(r.refresh_reduction < 0.01);
    }

    #[test]
    fn early_rewrite_counts_as_misprediction() {
        // Write at 0; idle through quantum 1; tested at 2048 (ends 2112);
        // rewritten at 2200 ms — far below MinWriteInterval (560 ms) after
        // the test started.
        let trace = WriteTrace::new(vec![ev(0, 0), ev(2200, 0)], 4096 * MS, 1);
        let mut e = clean_engine(trace);
        let _ = e.run();
        assert_eq!(e.stats().counters.tests_mispredicted, 1);
        // The rewrite re-qualifies the page: written once in quantum
        // (2048..3072], idle in (3072..4096] => re-tested at 4096 = horizon.
        assert_eq!(e.stats().counters.tests_correct, 0);
    }

    #[test]
    fn write_during_test_aborts_and_counts_mispredicted() {
        // Write at 0; tested at 2048; write at 2080 lands mid-test.
        let trace = WriteTrace::new(vec![ev(0, 0), ev(2080, 0)], 8192 * MS, 1);
        let mut e = clean_engine(trace);
        let r = e.run();
        assert_eq!(e.stats().tests.aborted, 1);
        assert_eq!(e.stats().counters.tests_mispredicted, 1);
        // The abort arms a retry, but the preempting write resets PRIL
        // idleness, so the retry waits for a full idle quantum: re-tested
        // at the 4096 ms boundary, passing at 4160 ms, LO-REF for the
        // remaining 4032 ms of the 8192 ms window.
        let rec = e.stats();
        assert_eq!(rec.tests.aborted, 1);
        assert_eq!(rec.counters.backoffs_scheduled, 1);
        assert_eq!(
            rec.counters.backoff_hist[0], 1,
            "first attempt backs off 1 quantum"
        );
        assert_eq!(rec.counters.retries, 1);
        assert!(
            (r.lo_coverage - 4032.0 / 8192.0).abs() < 1e-9,
            "coverage {}",
            r.lo_coverage
        );
        e.verify_refresh_correctness().unwrap();
    }

    #[test]
    fn late_rewrite_counts_as_correct() {
        // Rewrite 5 s after the test: well past MinWriteInterval.
        let trace = WriteTrace::new(vec![ev(0, 0), ev(7000, 0)], 8192 * MS, 1);
        let mut e = clean_engine(trace);
        let _ = e.run();
        assert_eq!(e.stats().counters.tests_correct, 1);
        assert_eq!(e.stats().counters.tests_mispredicted, 0);
    }

    #[test]
    fn concurrent_test_budget_limits_starts() {
        let mut config = cfg();
        config.concurrent_tests = 2;
        // 10 pages all written at t=0 and idle after.
        let events: Vec<WriteEvent> = (0..10).map(|p| ev(0, p)).collect();
        let trace = WriteTrace::new(events, 4096 * MS, 10);
        let mut e = MemconEngine::with_oracle(config, trace, Box::new(RateOracle::new(0.0, 0)));
        let _ = e.run();
        let t = e.stats().tests;
        assert_eq!(t.started, 2, "only two slots at the 2048 ms boundary");
        assert!(t.rejected >= 8);
    }

    #[test]
    fn copy_and_compare_caps_in_flight_tests_at_the_staging_rows() {
        // 5,000 pages written once at t = 0 all become candidates at the
        // 2048 ms boundary, under a budget and write buffer that admit
        // them all. Each Copy-and-Compare test holds one of the 4,096
        // staging rows while in flight, so that mode rejects the rest.
        let pages = 5_000;
        let events: Vec<WriteEvent> = (0..pages).map(|p| ev(0, p)).collect();
        let trace = WriteTrace::new(events, 4096 * MS, pages);
        for (mode, started, rejected) in [
            (TestMode::ReadAndCompare, 5_000, 0),
            (TestMode::CopyAndCompare, 4_096, 904),
        ] {
            let mut config = cfg().with_test_mode(mode);
            config.concurrent_tests = 8_192;
            config.write_buffer_capacity = 8_192;
            let oracle = Box::new(RateOracle::new(0.0, 0));
            let mut e = MemconEngine::with_oracle(config, trace.clone(), oracle);
            let _ = e.run();
            let t = e.stats().tests;
            assert_eq!((t.started, t.rejected), (started, rejected), "{mode:?}");
        }
    }

    #[test]
    fn quantum_size_matters_for_test_onset() {
        for quantum in [512.0, 1024.0, 2048.0] {
            let trace = WriteTrace::new(vec![ev(0, 0)], 20_480 * MS, 1);
            let mut e = MemconEngine::with_oracle(
                cfg().with_quantum_ms(quantum),
                trace,
                Box::new(RateOracle::new(0.0, 0)),
            );
            let r = e.run();
            // Earlier quanta => earlier LO-REF => more coverage.
            let expected_lo_ms = 20_480.0 - (2.0 * quantum + 64.0);
            assert!(
                (r.lo_coverage - expected_lo_ms / 20_480.0).abs() < 1e-6,
                "quantum {quantum}: coverage {}",
                r.lo_coverage
            );
        }
    }

    #[test]
    fn real_workload_reduction_in_paper_band() {
        // Paper Fig. 14: reductions of 64.7-74.5% against the 75% bound.
        let trace = WorkloadProfile::netflix().scaled(0.05).generate(3);
        let mut e = MemconEngine::new(cfg(), trace);
        let r = e.run();
        assert!(
            (0.55..0.75).contains(&r.refresh_reduction),
            "reduction {}",
            r.refresh_reduction
        );
        assert!(r.lo_coverage > 0.7, "coverage {}", r.lo_coverage);
        assert!(r.normalized_refresh_and_test_time() < 0.45);
    }

    #[test]
    fn fig18_testing_time_is_negligible() {
        let trace = WorkloadProfile::ac_brotherhood().scaled(0.05).generate(5);
        let mut e = MemconEngine::new(cfg(), trace);
        let r = e.run();
        let test_frac =
            (r.test_time_correct_ns + r.test_time_mispredicted_ns) / r.baseline_refresh_time_ns;
        // Paper: testing is ~0.01% of baseline refresh time. Our simulated
        // pages are rewritten (and hence retested) orders of magnitude more
        // often than the real multi-minute traces' pages to fit the
        // simulation window, so the normalized testing share is inflated;
        // it must still be far below the refresh share (~25-35%).
        assert!(test_frac < 0.05, "testing fraction {test_frac}");
    }

    #[test]
    #[should_panic(expected = "a MemconEngine runs once")]
    fn a_second_run_panics() {
        // The first run leaves a test in flight at the horizon; a second
        // run would resume from the finished run's state.
        let mut e = clean_engine(WriteTrace::new(vec![ev(0, 0), ev(2200, 0)], 4096 * MS, 1));
        let _ = e.run();
        let _ = e.run();
    }

    #[test]
    fn set_fault_plan_panics_once_the_run_advanced() {
        // A plan may be armed until the run's first happening: a write at
        // 100 ms, or the 1024 ms boundary before a write at 2000 ms.
        for (write_ms, limit_ms) in [(100, 500), (2000, 1500)] {
            let trace = WriteTrace::new(vec![ev(write_ms, 0)], 4096 * MS, 1);
            let mut e = clean_engine(trace);
            e.advance_until(50 * MS);
            e.set_fault_plan(None);
            e.advance_until(limit_ms * MS);
            let armed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                e.set_fault_plan(None);
            }));
            let Err(payload) = armed else {
                panic!("arming after the {write_ms} ms trace's first happening must panic");
            };
            let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
            assert!(
                msg.contains("set_fault_plan after the run advanced"),
                "{msg}"
            );
        }
    }

    #[test]
    fn stepped_run_matches_whole_run() {
        // Slicing a run at awkward, non-quantum-aligned limits must be
        // bit-identical to one whole-trace run — the property the fleet
        // scheduler's epoch batching rests on. Faults armed so the fault
        // decision streams are exercised across slice boundaries too.
        // The last slice stops short of the horizon, and `run` finishes.
        let trace = Arc::new(WorkloadProfile::netflix().scaled(0.02).generate(7));
        let plan = Arc::new(FaultPlan::uniform(0xDEAD_BEEF, 0.05));
        let mut whole = MemconEngine::new(cfg(), Arc::clone(&trace));
        whole.set_fault_plan(Some(Arc::clone(&plan)));
        let r_whole = whole.run();
        let mut stepped = MemconEngine::new(cfg(), Arc::clone(&trace));
        stepped.set_fault_plan(Some(plan));
        let mut limit = 777 * MS; // never aligned with the 1024 ms quantum
        while limit < trace.duration_ns() {
            stepped.advance_until(limit);
            limit += 777 * MS;
        }
        let r_stepped = stepped.run();
        assert_eq!(r_whole, r_stepped);
        assert_eq!(whole.final_states(), stepped.final_states());
        assert_eq!(whole.stats(), stepped.stats());
        stepped.verify_refresh_correctness().unwrap();
    }

    use faultinject::{Schedule, SiteSpec};

    fn plan_with(site: Site, spec: SiteSpec) -> Arc<FaultPlan> {
        Arc::new(FaultPlan::new(0xC0FFEE).with_site(site, spec))
    }

    #[test]
    fn injected_preemptions_drive_abort_retry_and_pinning() {
        // 32 ms quanta with a 64 ms test window: every test spans a quantum
        // boundary, and TestPreempt at rate 1.0 kills it there. Attempts
        // accumulate without a definitive verdict, so the fail-safe pins the
        // page to the high-refresh bin.
        let config = cfg().with_quantum_ms(32.0);
        let trace = WriteTrace::new(vec![ev(0, 0)], 4096 * MS, 1);
        let mut e = MemconEngine::with_oracle(config, trace, Box::new(RateOracle::new(0.0, 0)));
        e.set_fault_plan(Some(plan_with(Site::TestPreempt, SiteSpec::rate(1.0))));
        let r = e.run();
        let rec = e.stats();
        assert!(rec.faults_injected[Site::TestPreempt as usize] > 0);
        assert!(rec.tests.aborted >= 3, "aborts {}", rec.tests.aborted);
        assert!(
            rec.counters.retries >= 2,
            "retries {}",
            rec.counters.retries
        );
        assert_eq!(rec.pin_events, 1, "page pinned exactly once");
        assert_eq!(r.lo_coverage, 0.0, "a never-verified page never drops");
        e.verify_refresh_correctness().unwrap();
    }

    #[test]
    fn torn_reads_back_off_and_eventually_pin() {
        let trace = WriteTrace::new(vec![ev(0, 0)], 20_480 * MS, 1);
        let mut e = clean_engine(trace);
        e.set_fault_plan(Some(plan_with(Site::TornRead, SiteSpec::rate(1.0))));
        let r = e.run();
        let rec = e.stats();
        assert!(
            rec.tests.ambiguous >= 3,
            "ambiguous {}",
            rec.tests.ambiguous
        );
        assert_eq!(rec.pin_events, 1);
        assert_eq!(r.lo_coverage, 0.0);
        // Backoff doubles per attempt up to the cap: the histogram must
        // populate multiple buckets.
        assert!(rec.counters.backoff_hist.iter().filter(|&&c| c > 0).count() >= 2);
        e.verify_refresh_correctness().unwrap();
    }

    #[test]
    fn uncorrectable_ecc_pins_immediately_with_zero_escapes() {
        let trace = WriteTrace::new(vec![ev(0, 0)], 20_480 * MS, 1);
        let mut e = clean_engine(trace);
        e.set_fault_plan(Some(plan_with(Site::EccUncorrectable, SiteSpec::rate(1.0))));
        let _ = e.run();
        let rec = e.stats();
        assert!(rec.tests.ecc_uncorrectable >= 1);
        assert_eq!(rec.pin_events, 1, "pinned on the very first attempt");
        assert_eq!(rec.counters.uncorrectable_escapes, 0);
        e.verify_refresh_correctness().unwrap();
    }

    #[test]
    fn clean_retry_releases_the_pin_and_reaches_lo_ref() {
        // The first two read-backs are torn (Burst at indices 0..2); the
        // page pins after the second attempt (max_attempts = 2), then the
        // third, fault-free retry passes, releases the pin, and drops the
        // page to LO-REF.
        let mut config = cfg();
        config.recovery.max_attempts = 2;
        let trace = WriteTrace::new(vec![ev(0, 0)], 20_480 * MS, 1);
        let mut e = MemconEngine::with_oracle(config, trace, Box::new(RateOracle::new(0.0, 0)));
        e.set_fault_plan(Some(plan_with(
            Site::TornRead,
            SiteSpec {
                rate: 1.0,
                schedule: Schedule::Burst { start: 0, len: 2 },
            },
        )));
        let r = e.run();
        let rec = e.stats();
        assert_eq!(rec.tests.ambiguous, 2);
        assert_eq!(rec.counters.retries, 2);
        assert_eq!(rec.pin_events, 1, "pinned once, then released");
        assert_eq!(e.final_states()[0], PageState::LoRef);
        assert!(r.lo_coverage > 0.7, "coverage {}", r.lo_coverage);
        e.verify_refresh_correctness().unwrap();
    }

    #[test]
    fn faulted_runs_are_bit_reproducible() {
        // Two independently constructed engines with the same oracle seed,
        // trace, and plan must agree bit-for-bit — the property the chaos
        // gate's jobs=1 vs jobs=4 byte-comparison rests on.
        let trace = Arc::new(WorkloadProfile::netflix().scaled(0.02).generate(7));
        let plan = Arc::new(FaultPlan::uniform(0xDEAD_BEEF, 0.05));
        let run = |plan: &Arc<FaultPlan>| {
            let mut e = MemconEngine::new(cfg(), Arc::clone(&trace));
            e.set_fault_plan(Some(Arc::clone(plan)));
            let report = e.run();
            e.verify_refresh_correctness().unwrap();
            (report, e.stats(), e.final_states().to_vec())
        };
        let (r1, rec1, states1) = run(&plan);
        let (r2, rec2, states2) = run(&plan);
        assert_eq!(r1, r2);
        assert_eq!(rec1, rec2);
        assert_eq!(states1, states2);
        assert!(rec1.faults_injected.iter().sum::<u64>() > 0);
    }

    /// Engine-plane fault plan: exercises the abort/retry/pin machinery
    /// that checkpoints must carry.
    fn engine_plan(seed: u64) -> Arc<FaultPlan> {
        Arc::new(
            FaultPlan::new(seed)
                .with_site(Site::TestPreempt, SiteSpec::rate(0.05))
                .with_site(Site::TornRead, SiteSpec::rate(0.05))
                .with_site(Site::EccUncorrectable, SiteSpec::rate(0.01)),
        )
    }

    fn reference_run(
        config: MemconConfig,
        trace: &Arc<WriteTrace>,
        plan: Option<&Arc<FaultPlan>>,
    ) -> (MemconReport, EngineStats, Vec<PageState>) {
        let mut e = MemconEngine::new(config, Arc::clone(trace));
        e.set_fault_plan(plan.cloned());
        let report = e.run();
        (report, e.stats(), e.final_states().to_vec())
    }

    #[test]
    fn recovery_with_hi_ref_pins_active_preserves_the_pin() {
        // Checkpoint while the fail-safe has a page pinned: the pin must
        // survive the restore, and the resumed run must match the
        // reference.
        let trace = Arc::new(WriteTrace::new(vec![ev(0, 0)], 20_480 * MS, 1));
        let plan = plan_with(Site::TornRead, SiteSpec::rate(1.0));
        let (r_ref, rec_ref, states_ref) = reference_run(cfg(), &trace, Some(&plan));
        assert_eq!(rec_ref.pin_events, 1, "the reference run pins the page");

        let mut e = MemconEngine::new(cfg(), Arc::clone(&trace));
        e.set_fault_plan(Some(Arc::clone(&plan)));
        e.advance_until(18_000 * MS);
        let payload = e.checkpoint();
        drop(e);
        let mut e = MemconEngine::restore(&payload, trace).unwrap();
        assert_eq!(
            e.stats().pinned_pages,
            1,
            "pin restored from the checkpoint"
        );
        let r = e.run();
        assert_eq!(r, r_ref);
        assert_eq!(e.stats(), rec_ref);
        assert_eq!(e.final_states(), states_ref.as_slice());
        e.verify_refresh_correctness().unwrap();
    }

    #[test]
    fn recovery_refuses_a_trace_other_than_the_checkpointed_one() {
        let trace = Arc::new(WorkloadProfile::netflix().scaled(0.02).generate(5));
        let plan = engine_plan(0x5EED_F00D);
        let (r_ref, rec_ref, states_ref) = reference_run(cfg(), &trace, Some(&plan));

        let mut e = MemconEngine::new(cfg(), Arc::clone(&trace));
        e.set_fault_plan(Some(Arc::clone(&plan)));
        e.advance_until(trace.duration_ns() / 2);
        let payload = e.checkpoint();
        drop(e);
        let other_seed = WorkloadProfile::netflix().scaled(0.02).generate(6);
        let truncated = WriteTrace::new(
            trace.iter().take(trace.len() - 1).collect(),
            trace.duration_ns(),
            trace.n_pages(),
        );
        for (what, wrong) in [("different-seed", &other_seed), ("truncated", &truncated)] {
            assert!(
                matches!(
                    MemconEngine::restore(&payload, wrong.clone()),
                    Err(StoreError::Corrupt(_))
                ),
                "a {what} trace must be refused"
            );
        }
        // The matching trace still resumes to the uninterrupted result.
        let mut e = MemconEngine::restore(&payload, trace).unwrap();
        assert_eq!(e.run(), r_ref);
        assert_eq!(e.stats(), rec_ref);
        assert_eq!(e.final_states(), states_ref.as_slice());
    }

    /// An engine stepped to half the trace, with its checkpoint there.
    fn half_run_payload(trace: &Arc<WriteTrace>) -> (MemconEngine, Vec<u8>) {
        let mut e = MemconEngine::new(cfg(), Arc::clone(trace));
        e.advance_until(trace.duration_ns() / 2);
        let payload = e.checkpoint();
        (e, payload)
    }

    /// Restores `payload` over `trace`, dropping the engine.
    fn restore_payload(trace: &Arc<WriteTrace>, payload: &[u8]) -> Result<(), StoreError> {
        MemconEngine::restore(payload, Arc::clone(trace)).map(drop)
    }

    #[test]
    fn recovery_refuses_a_snapshot_of_the_previous_version() {
        // A payload of an earlier format has a different layout, so its
        // version byte must refuse it before any section decodes.
        let trace = Arc::new(WorkloadProfile::netflix().scaled(0.02).generate(9));
        let (e, payload) = half_run_payload(&trace);
        drop(e);
        assert!(MemconEngine::from_payload(&payload, Arc::clone(&trace)).is_ok());
        for version in [2u8, 3, 4, 5, 6, 7] {
            let mut old = payload.clone();
            old[0] = version;
            let Err(err) = MemconEngine::from_payload(&old, Arc::clone(&trace)) else {
                panic!("a version-{version} payload must be refused");
            };
            assert!(err.contains(&format!("version {version}")), "{err}");
            // Restoring it fails as corrupt.
            assert!(matches!(
                restore_payload(&trace, &old),
                Err(StoreError::Corrupt(msg)) if msg.contains(&format!("version {version}"))
            ));
        }
    }

    #[test]
    fn payloads_with_out_of_range_pages_are_refused() {
        // A page count other than the trace's is refused before the
        // per-page state is decoded, and restored tests and retries must
        // name pages the engine tracks.
        let trace = Arc::new(WorkloadProfile::netflix().scaled(0.02).generate(9));
        let (mut e, mut huge) = half_run_payload(&trace);
        let past_end = trace.n_pages();
        // Version, three f64 intervals, mode tag, test budget, write-buffer
        // capacity, steady-state flag, two recovery-policy u32s.
        const N_PAGES_AT: usize = 1 + 3 * 8 + 1 + 4 + 8 + 1 + 4 + 4;
        let field = N_PAGES_AT..N_PAGES_AT + 8;
        assert_eq!(huge[field.clone()], past_end.to_le_bytes());
        huge[field].copy_from_slice(&(1u64 << 40).to_le_bytes());
        e.retry_queue.push(past_end);
        let retry = e.checkpoint();
        e.retry_queue.pop();
        // The test table is sized to the engine's pages, so a test of the
        // page past the end comes from a test engine one page larger.
        let oracle = Box::new(RateOracle::new(0.0, 0));
        e.tests = TestEngine::new(oracle, e.config.lo_ms, 1, past_end + 1);
        assert!(e.tests.try_start(past_end, 0, 0));
        let in_flight = e.checkpoint();
        drop(e);
        for (payload, refusal) in [
            (huge, format!("page count {}", 1u64 << 40)),
            (in_flight, format!("in-flight page {past_end} out of range")),
            (retry, format!("retry queue page {past_end} out of range")),
        ] {
            let Err(err) = MemconEngine::from_payload(&payload, Arc::clone(&trace)) else {
                panic!("a payload with an out-of-range page must be refused: {refusal}");
            };
            assert!(err.contains(&refusal), "{err}");
            assert!(matches!(
                restore_payload(&trace, &payload),
                Err(StoreError::Corrupt(msg)) if msg.contains(&refusal)
            ));
        }
    }

    #[test]
    fn recovery_refuses_a_snapshot_that_breaks_an_invariant() {
        // Each state decodes cleanly but breaks one invariant: PRIL gains
        // an inserted page it cannot account for, the refresh manager a
        // pin its counter does not hold, and a HI-REF page moves to
        // Testing with no test in flight or gains a test while staying
        // HI-REF.
        let trace = Arc::new(WorkloadProfile::netflix().scaled(0.02).generate(9));
        let (mut e, payload) = half_run_payload(&trace);
        let section = codec::encode(&mut e.mgr, RefreshManager::fields);
        let at = payload
            .windows(section.len())
            .position(|w| w == section.as_slice())
            .expect("the payload holds the manager section");
        // Bin tags, then since-times, then pin bytes, each length-prefixed.
        let pages = trace.n_pages() as usize;
        let pin_of_page_0 = at + (8 + pages) + (8 + 8 * pages) + 8;
        let mut bad_mgr = payload.clone();
        assert_eq!(bad_mgr[pin_of_page_0], 0);
        bad_mgr[pin_of_page_0] = 1;
        e.pril.stats.inserted += 1;
        let bad_pril = e.checkpoint();
        e.pril.stats.inserted -= 1;
        let now = trace.duration_ns() / 2;
        let hi = (0..trace.n_pages())
            .find(|&p| e.mgr.state(p) == PageState::HiRef)
            .expect("the half run holds a HI-REF page");
        e.mgr.transition(hi, PageState::Testing, now);
        let untested = e.checkpoint();
        e.mgr.transition(hi, PageState::HiRef, now);
        assert!(e.tests.try_start(hi, e.generation[hi as usize], now));
        let unbinned = e.checkpoint();
        drop(e);
        for (payload, broken) in [
            (bad_pril, "page conservation".to_string()),
            (bad_mgr, "pinned".to_string()),
            (
                untested,
                format!("page {hi} sits at Testing with no test in flight"),
            ),
            (
                unbinned,
                format!("page {hi} has a test in flight but sits at HiRef"),
            ),
        ] {
            assert!(MemconEngine::from_payload(&payload, Arc::clone(&trace)).is_ok());
            assert!(matches!(
                restore_payload(&trace, &payload),
                Err(StoreError::Corrupt(msg)) if msg.contains(&broken)
            ));
        }
    }

    #[test]
    fn recovery_after_a_clean_finish_restores_the_finished_engine() {
        // A checkpoint after `run` carries no run section: the restored
        // engine is the finished one, final bins and pins included.
        let trace = Arc::new(WorkloadProfile::netflix().scaled(0.02).generate(13));
        let mut e = MemconEngine::new(cfg(), Arc::clone(&trace));
        e.set_fault_plan(Some(plan_with(Site::EccUncorrectable, SiteSpec::rate(0.5))));
        let _ = e.run();
        assert!(e.stats().pinned_pages > 0, "the run ends with pins");
        let payload = e.checkpoint();
        let restored = MemconEngine::restore(&payload, trace).unwrap();
        assert!(!restored.mid_run());
        assert_eq!(restored.final_states(), e.final_states());
        assert_eq!(restored.stats(), e.stats());
        restored.verify_refresh_correctness().unwrap();
    }

    #[test]
    fn restore_refuses_a_run_whose_clock_cannot_resume() {
        // A cursor or boundary count rewound behind what the state has
        // reached would replay the past: the next write would land before
        // a page's last transition (the resume used to panic).
        let trace = Arc::new(WorkloadProfile::netflix().scaled(0.02).generate(9));
        let (mut e, payload) = half_run_payload(&trace);
        assert!(restore_payload(&trace, &payload).is_ok());
        let cursor = std::mem::replace(&mut e.event_idx, 0);
        let rewound_cursor = e.checkpoint();
        e.event_idx = cursor;
        let crossed = e.quantum_index;
        e.quantum_index = crossed / 2;
        let rewound_boundaries = e.checkpoint();
        e.quantum_index = crossed;
        assert!(e.checkpoint() == payload);
        drop(e);
        for (what, payload) in [
            ("event cursor", rewound_cursor),
            ("boundary count", rewound_boundaries),
        ] {
            assert!(
                matches!(
                    restore_payload(&trace, &payload),
                    Err(StoreError::Corrupt(msg)) if msg.contains("cannot resume")
                ),
                "a rewound {what} must be refused"
            );
        }
    }

    #[test]
    fn restore_refuses_a_generation_its_run_cannot_have_reached() {
        // A generation no run of this length can reach: at u64::MAX the
        // next write to the page would overflow the counter.
        let trace = Arc::new(WorkloadProfile::netflix().scaled(0.02).generate(9));
        let (mut e, payload) = half_run_payload(&trace);
        assert!(restore_payload(&trace, &payload).is_ok());
        let page = trace.get(e.event_idx).unwrap().page as usize;
        e.generation[page] = u64::MAX;
        let corrupt = e.checkpoint();
        assert!(
            matches!(
                restore_payload(&trace, &corrupt),
                Err(StoreError::Corrupt(msg))
                    if msg.contains("cannot resume") && msg.contains("generation")
            ),
            "a generation above the writes consumed must be refused"
        );
    }

    /// FNV-1a over bytes, as [`TraceFingerprint`] hashes its words.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xCBF2_9CE4_8422_2325, |hash, &b| {
            (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        })
    }

    /// Fingerprints recorded when traces stored 16-byte events: the
    /// packed layout must hash the same `(time, page)` words, or every
    /// existing checkpoint would refuse its own trace.
    #[test]
    fn trace_fingerprints_are_pinned() {
        use memutil::rng::mix64;
        const WORD: u64 = 1 << 32;
        let netflix = WorkloadProfile::netflix().scaled(0.02).generate(5);
        // Node 0 of the 256-DIMM fleet plan at seed 1 (×0.1, 56 s).
        let shard = WorkloadProfile::for_node(1, 0)
            .scaled(0.1)
            .with_window(56.0)
            .generate(mix64(1 ^ mix64(0)));
        let ns = |time_ns: u64, page: u64| WriteEvent { time_ns, page };
        let gap = WriteTrace::new(
            vec![
                ns(0, 0),
                ns(MS, 1),
                // Past a gap of more than 2^33 ns, at a high-word step.
                ns(3 * WORD, 0),
                ns(3 * WORD + 7, 1),
                ns(20_000 * MS, 1),
            ],
            20_000 * MS,
            2,
        );
        let pin = |pages, duration_ns, events, hash| TraceFingerprint {
            pages,
            duration_ns,
            events,
            hash,
        };
        assert_eq!(
            [&netflix, &shard, &gap].map(TraceFingerprint::of),
            [
                pin(32, 60_000 * MS, 10_384, 0x45DC_991E_6ACB_21C7),
                pin(38, 56_000 * MS, 18_145, 0x7A3A_64C3_D5B6_676D),
                pin(2, 20_000 * MS, 5, 0x1E6F_1A6D_B60D_532D),
            ]
        );
    }

    #[test]
    fn payload_layout_is_pinned() {
        let trace = Arc::new(WorkloadProfile::netflix().scaled(0.02).generate(3));
        let hashes = [None, Some(engine_plan(3))].map(|plan| {
            let mut e = MemconEngine::new(cfg(), Arc::clone(&trace));
            e.set_fault_plan(plan);
            e.advance_until(trace.duration_ns() / 2);
            fnv1a(&e.checkpoint())
        });
        assert_eq!(
            hashes, SNAP_LAYOUT_FNV,
            "the checkpoint layout moved ({hashes:#018x?}): bump SNAP_VERSION and the hashes"
        );
    }

    #[test]
    fn stepped_engines_round_trip_through_their_payload() {
        // Restoring a checkpoint and checkpointing again must reproduce it
        // byte for byte, and the restored engine must finish the run
        // exactly as one that never stopped.
        for seed in [3, 8] {
            let trace = Arc::new(WorkloadProfile::netflix().scaled(0.02).generate(seed));
            let horizon = trace.duration_ns();
            for mode in [TestMode::ReadAndCompare, TestMode::CopyAndCompare] {
                for plan in [None, Some(engine_plan(seed))] {
                    let config = cfg().with_test_mode(mode);
                    let reference = reference_run(config, &trace, plan.as_ref());
                    let mut e = MemconEngine::new(config, Arc::clone(&trace));
                    e.set_fault_plan(plan.clone());
                    for split in [0, horizon / 7, horizon / 2, horizon * 5 / 6, horizon] {
                        let what = format!(
                            "seed {seed}, {mode:?}, plan {}, split {split}",
                            plan.is_some()
                        );
                        e.advance_until(split);
                        let payload = e.checkpoint();
                        let mut resumed =
                            MemconEngine::restore(&payload, Arc::clone(&trace)).unwrap();
                        assert!(resumed.checkpoint() == payload, "{what}");
                        let report = resumed.run();
                        assert_eq!(
                            (report, resumed.stats(), resumed.final_states().to_vec()),
                            reference,
                            "{what}"
                        );
                    }
                }
            }
        }
    }
}
