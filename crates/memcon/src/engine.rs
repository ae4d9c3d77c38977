//! The end-to-end MEMCON engine.
//!
//! Feed a page-granularity write trace through [`MemconEngine::run`] and it
//! executes the full mechanism of paper Sections 3–4 on a faithful timeline:
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
use memutil::codec::{Dec, Enc};
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
const SNAP_VERSION: u8 = 7;

/// Copy-and-Compare staging rows: [`STAGING_ROWS_PER_BANK`] in each bank
/// of the paper's 8-bank module. A test holds one row exactly while it is
/// in flight, so the region caps the concurrent-test budget.
const STAGING_ROWS: u64 = STAGING_ROWS_PER_BANK * 8;

/// Run-level recovery accounting: what the fault injector did to the run
/// and how the abort/retry/degradation machinery responded. A view built
/// by [`MemconEngine::recovery_stats`] from the test-engine statistics,
/// the refresh manager's pin count, the fault session and the engine's
/// own retry counters. All values derive from simulation state, so the
/// whole struct is bit-reproducible for a fixed trace and [`FaultPlan`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Faults injected per site, indexed like [`Site::ALL`]; all zero when
    /// no plan is active.
    pub faults_injected: [u64; faultinject::N_SITES],
    /// Tests aborted by (real or injected) preempting writes.
    pub aborts: u64,
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
    /// Pages pinned to the high-refresh bin by the fail-safe degradation
    /// rule (pin events; a page unpinned by a clean test and pinned again
    /// counts twice).
    pub degraded_rows: u64,
    /// Completed tests with an ambiguous verdict.
    pub ambiguous: u64,
    /// Single-bit ECC corrections during read-backs.
    pub ecc_corrected: u64,
    /// Uncorrectable ECC errors during read-backs.
    pub ecc_uncorrectable: u64,
    /// Uncorrectable ECC errors that did **not** leave their page pinned —
    /// must stay 0 (asserted by the chaos gate).
    pub uncorrectable_escapes: u64,
}

/// The recovery counters only the engine keeps; [`RecoveryStats`] reads
/// the rest from their sources.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct RecoveryCounters {
    retries: u64,
    backoffs_scheduled: u64,
    backoff_ceiling_hits: u64,
    backoff_hist: [u64; 6],
    backoff_sum_quanta: u64,
    uncorrectable_escapes: u64,
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

fn opt_u64(e: &mut Enc, v: Option<u64>) {
    match v {
        Some(x) => {
            e.bool(true);
            e.u64(x);
        }
        None => e.bool(false),
    }
}

fn read_opt_u64(d: &mut Dec) -> Result<Option<u64>, String> {
    Ok(if d.bool()? { Some(d.u64()?) } else { None })
}

fn site_counts(v: Vec<u64>, what: &str) -> Result<[u64; faultinject::N_SITES], String> {
    v.try_into()
        .map_err(|_| format!("{what}: expected one counter per fault site"))
}

/// Identity of the trace a checkpointed run began with. It rides in the
/// payload's run section so [`MemconEngine::restore`] can refuse to
/// resume a run over a trace other than the one it checkpointed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
        for e in trace.events() {
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

    fn encode(&self, e: &mut Enc) {
        e.u64(self.pages);
        e.u64(self.duration_ns);
        e.u64(self.events);
        e.u64(self.hash);
    }

    fn decode(d: &mut Dec) -> Result<Self, String> {
        Ok(TraceFingerprint {
            pages: d.u64()?,
            duration_ns: d.u64()?,
            events: d.u64()?,
            hash: d.u64()?,
        })
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
    /// Completed tests whose LO-REF residency amortized the cost
    /// (no write within MinWriteInterval).
    pub tests_correct: u64,
    /// Tests whose page was rewritten too soon (including aborts).
    pub tests_mispredicted: u64,
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

/// Combined statistics (report + component internals) for diagnostics.
#[derive(Debug, Clone, Copy)]
pub struct EngineInternals {
    /// PRIL statistics.
    pub pril: PrilStats,
    /// Test-engine statistics.
    pub tests: TestEngineStats,
    /// Recovery statistics of the last run.
    pub recovery: RecoveryStats,
}

/// Instantaneous observability snapshot of an engine, readable between
/// [`MemconEngine::advance_until`] slices (the fleet scheduler reads one
/// per shard per epoch, post-barrier) or after a finished run. Totals are
/// cumulative for the current run; `pinned_pages` and `pril_buffered` are
/// gauges. All values derive from simulation state — deterministic for a
/// fixed trace and plan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LiveStats {
    /// Faults injected so far, summed across sites.
    pub faults_injected: u64,
    /// Tests aborted so far.
    pub aborts: u64,
    /// Tests restarted from the backoff queue so far.
    pub retries: u64,
    /// Backoffs scheduled so far.
    pub backoffs_scheduled: u64,
    /// Backoffs clamped at the policy cap so far.
    pub backoff_ceiling_hits: u64,
    /// Uncorrectable ECC escapes so far (must stay 0).
    pub escapes: u64,
    /// Pages currently pinned to HI-REF (gauge).
    pub pinned_pages: u64,
    /// PRIL write-buffer occupancy (gauge).
    pub pril_buffered: u64,
    /// PRIL write-buffer capacity.
    pub pril_capacity: u64,
    /// Pages the engine tracks.
    pub pages: u64,
}

/// Run cursors of a stepped run between [`MemconEngine::begin_run`] and
/// [`MemconEngine::finish_run`]. Holding the event cursor here (instead
/// of on `run`'s stack) is what lets a fleet scheduler advance an engine
/// one time-slice at a time.
#[derive(Debug)]
struct RunState {
    /// Cursor into `trace.events()`: events before it are consumed.
    event_idx: usize,
    /// Next quantum boundary, ns.
    next_quantum: u64,
    quantum_ns: u64,
    mwi_ns: u64,
    duration: u64,
    /// The run's trace, fingerprinted by the run's first
    /// [`MemconEngine::checkpoint`].
    trace: Option<TraceFingerprint>,
}

/// The MEMCON engine.
#[derive(Debug)]
pub struct MemconEngine {
    config: MemconConfig,
    cost: CostModel,
    pril: Pril,
    tests: TestEngine,
    /// Per-page refresh bins and pins of the current or last run; zero
    /// pages before the first run.
    mgr: RefreshManager,
    n_pages: u64,
    /// Per-page content-generation counter (bumped by every write).
    generation: Vec<u64>,
    /// Pending amortization anchor: Some(test start) while the page sits at
    /// LO-REF un-rewritten.
    lo_anchor: Vec<Option<u64>>,
    tests_correct: u64,
    tests_mispredicted: u64,
    /// Reused completion buffer for [`TestEngine::poll_into`] — the event
    /// loop polls at every pending completion, so a fresh `Vec` per poll
    /// would dominate allocations.
    outcome_buf: Vec<crate::testengine::TestOutcome>,
    /// Explicit fault plan (takes precedence over the globally installed
    /// one); a fresh [`FaultSession`] is created per run.
    fault_plan: Option<Arc<FaultPlan>>,
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
    /// Quantum boundaries crossed this run.
    quantum_index: u64,
    recovery: RecoveryCounters,
    /// In-progress stepped run, if any.
    run: Option<RunState>,
    /// Quantum-window time-series sampling period (quanta), when armed.
    sample_every: Option<u64>,
    /// Per-quantum PRIL candidate-count distribution, bucketed by
    /// [`CANDIDATE_EDGES`]; flushed as one merged histogram at run end.
    candidate_hist: [u64; 11],
}

impl MemconEngine {
    /// Creates an engine with the default rate oracle
    /// ([`DEFAULT_FAIL_RATE`]).
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid.
    #[must_use]
    pub fn new(config: MemconConfig, n_pages: u64) -> Self {
        Self::with_oracle(
            config,
            n_pages,
            Box::new(RateOracle::new(DEFAULT_FAIL_RATE, 0x5EED)),
        )
    }

    /// Creates an engine with an explicit failure oracle.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid.
    #[must_use]
    pub fn with_oracle(config: MemconConfig, n_pages: u64, oracle: Box<dyn FailureOracle>) -> Self {
        config.validate().expect("invalid MEMCON configuration");
        let cost = config.cost_model();
        let budget = match config.test_mode {
            TestMode::ReadAndCompare => u64::from(config.concurrent_tests),
            TestMode::CopyAndCompare => u64::from(config.concurrent_tests).min(STAGING_ROWS),
        };
        MemconEngine {
            cost,
            pril: Pril::new(n_pages, config.write_buffer_capacity),
            tests: TestEngine::new(oracle, config.lo_ms, budget as usize, n_pages),
            mgr: RefreshManager::new(0, config.hi_ms, config.lo_ms),
            n_pages,
            generation: vec![0; n_pages as usize],
            lo_anchor: vec![None; n_pages as usize],
            tests_correct: 0,
            tests_mispredicted: 0,
            outcome_buf: Vec::new(),
            fault_plan: None,
            attempts: vec![0; n_pages as usize],
            retry_at: vec![None; n_pages as usize],
            retry_queue: Vec::new(),
            clean_gen: vec![None; n_pages as usize],
            quantum_index: 0,
            recovery: RecoveryCounters::default(),
            run: None,
            sample_every: None,
            candidate_hist: [0; 11],
            config,
        }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &MemconConfig {
        &self.config
    }

    /// Sets an explicit fault plan for subsequent runs (takes precedence
    /// over a globally installed plan; `None` falls back to the global
    /// installer). Thread-safe alternative to [`faultinject::install`] for
    /// parallel harnesses: each engine owns its plan and session.
    pub fn set_fault_plan(&mut self, plan: Option<Arc<FaultPlan>>) {
        self.fault_plan = plan;
    }

    /// Recovery statistics of the current or most recent run.
    #[must_use]
    pub fn recovery_stats(&self) -> RecoveryStats {
        let t = &self.tests.stats;
        let r = &self.recovery;
        RecoveryStats {
            faults_injected: self
                .tests
                .fault_session()
                .map_or([0; faultinject::N_SITES], FaultSession::injected_counts),
            aborts: t.aborted,
            retries: r.retries,
            backoffs_scheduled: r.backoffs_scheduled,
            backoff_ceiling_hits: r.backoff_ceiling_hits,
            backoff_hist: r.backoff_hist,
            backoff_sum_quanta: r.backoff_sum_quanta,
            degraded_rows: self.mgr.pin_events(),
            ambiguous: t.ambiguous,
            ecc_corrected: t.ecc_corrected,
            ecc_uncorrectable: t.ecc_uncorrectable,
            uncorrectable_escapes: r.uncorrectable_escapes,
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

    /// Whether a stepped run is currently in progress (also true for an
    /// engine restored mid-run, awaiting resumption).
    #[must_use]
    pub fn mid_run(&self) -> bool {
        self.run.is_some()
    }

    /// Encodes the complete engine state (including the in-progress run
    /// and the fingerprint of its trace, when one is passed) into a
    /// checkpoint payload. The layout is private to this module and
    /// versioned by [`SNAP_VERSION`].
    ///
    /// # Panics
    ///
    /// Panics if the failure oracle cannot persist its state (see
    /// [`MemconEngine::checkpoint`]).
    fn encode_state(&self, run: Option<(&RunState, TraceFingerprint)>) -> Vec<u8> {
        let mut e = Enc::with_capacity(64 * 1024);
        e.u8(SNAP_VERSION);
        // Configuration: enough to rebuild an identical engine.
        e.f64(self.config.quantum_ms);
        e.f64(self.config.hi_ms);
        e.f64(self.config.lo_ms);
        e.u8(match self.config.test_mode {
            TestMode::ReadAndCompare => 0,
            TestMode::CopyAndCompare => 1,
        });
        e.u32(self.config.concurrent_tests);
        e.u64(self.config.write_buffer_capacity as u64);
        e.bool(self.config.steady_state_start);
        e.u32(self.config.recovery.max_attempts);
        e.u32(self.config.recovery.backoff_cap_quanta);
        e.u64(self.n_pages);
        // Oracle (tag 0 = rate oracle; the only persistable kind today).
        e.u8(0);
        let oracle = self
            .tests
            .persist_oracle()
            // memlint: allow(no-unwrap): checkpointing a non-persistable oracle is a documented caller error
            .expect("checkpoint of a non-persistable oracle");
        e.bytes(&oracle);
        // Engine-plane fault session: the plan plus both replay cursors.
        match self.tests.fault_session() {
            Some(s) => {
                e.bool(true);
                e.str(&s.plan().to_json().emit());
                e.u64_slice(&s.decision_counts());
                e.u64_slice(&s.injected_counts());
            }
            None => e.bool(false),
        }
        self.pril.encode_state(&mut e);
        self.tests.encode_state(&mut e);
        e.u64_slice(&self.generation);
        for a in &self.lo_anchor {
            opt_u64(&mut e, *a);
        }
        for a in &self.attempts {
            e.u64(u64::from(*a));
        }
        for r in &self.retry_at {
            opt_u64(&mut e, *r);
        }
        e.u64_slice(&self.retry_queue);
        for c in &self.clean_gen {
            opt_u64(&mut e, *c);
        }
        e.u64(self.quantum_index);
        e.u64(self.tests_correct);
        e.u64(self.tests_mispredicted);
        let r = &self.recovery;
        e.u64(r.retries);
        e.u64(r.backoffs_scheduled);
        e.u64(r.backoff_ceiling_hits);
        e.u64_slice(&r.backoff_hist);
        e.u64(r.backoff_sum_quanta);
        e.u64(r.uncorrectable_escapes);
        e.u64_slice(&self.candidate_hist);
        self.mgr.encode_state(&mut e);
        match run {
            Some((run, fingerprint)) => {
                e.bool(true);
                e.u64(run.event_idx as u64);
                e.u64(run.next_quantum);
                e.u64(run.quantum_ns);
                e.u64(run.mwi_ns);
                e.u64(run.duration);
                fingerprint.encode(&mut e);
            }
            None => e.bool(false),
        }
        e.into_bytes()
    }

    /// Rebuilds an engine from a checkpoint payload produced by
    /// [`MemconEngine::encode_state`].
    fn decode_state(payload: &[u8]) -> Result<MemconEngine, String> {
        let mut d = Dec::new(payload);
        let version = d.u8()?;
        if version != SNAP_VERSION {
            return Err(format!(
                "engine snapshot version {version} is not supported (expected {SNAP_VERSION})"
            ));
        }
        let mut config = MemconConfig::paper_default();
        config.quantum_ms = d.f64()?;
        config.hi_ms = d.f64()?;
        config.lo_ms = d.f64()?;
        config.test_mode = match d.u8()? {
            0 => TestMode::ReadAndCompare,
            1 => TestMode::CopyAndCompare,
            t => return Err(format!("unknown test mode tag {t}")),
        };
        config.concurrent_tests = d.u32()?;
        config.write_buffer_capacity = usize::try_from(d.u64()?)
            .map_err(|_| "write buffer capacity exceeds the address space".to_string())?;
        config.steady_state_start = d.bool()?;
        config.recovery.max_attempts = d.u32()?;
        config.recovery.backoff_cap_quanta = d.u32()?;
        config.validate()?;
        let n_pages = d.u64()?;
        // Every page stores at least its 8-byte generation word, so a page
        // count the rest of the payload cannot hold is refused before the
        // per-page state is allocated.
        if n_pages > (d.remaining() / 8) as u64 {
            return Err(format!(
                "page count {n_pages} exceeds what the {}-byte remainder can hold",
                d.remaining()
            ));
        }
        let oracle: Box<dyn FailureOracle> = match d.u8()? {
            0 => Box::new(RateOracle::from_persisted(d.bytes()?)?),
            t => return Err(format!("unknown oracle tag {t}")),
        };
        let mut eng = MemconEngine::with_oracle(config, n_pages, oracle);
        if d.bool()? {
            let plan = FaultPlan::parse(&d.str()?)?;
            let plan = Arc::new(plan);
            let decisions = site_counts(d.u64_vec()?, "fault decision counts")?;
            let injected = site_counts(d.u64_vec()?, "fault injected counts")?;
            eng.fault_plan = Some(Arc::clone(&plan));
            eng.tests
                .set_fault_session(Some(FaultSession::restore(plan, decisions, injected)));
        }
        eng.pril.restore_state(&mut d)?;
        eng.tests.restore_state(&mut d)?;
        let pages = n_pages as usize;
        let generation = d.u64_vec()?;
        if generation.len() != pages {
            return Err("generation vector does not match the page count".to_string());
        }
        eng.generation = generation;
        for a in &mut eng.lo_anchor {
            *a = read_opt_u64(&mut d)?;
        }
        for a in &mut eng.attempts {
            *a = u32::try_from(d.u64()?).map_err(|_| "attempt counter exceeds u32".to_string())?;
        }
        for r in &mut eng.retry_at {
            *r = read_opt_u64(&mut d)?;
        }
        eng.retry_queue = d.u64_vec()?;
        if let Some(page) = eng.retry_queue.iter().find(|&&p| p >= n_pages) {
            return Err(format!(
                "retry queue page {page} out of range ({n_pages} pages)"
            ));
        }
        for c in &mut eng.clean_gen {
            *c = read_opt_u64(&mut d)?;
        }
        eng.quantum_index = d.u64()?;
        eng.tests_correct = d.u64()?;
        eng.tests_mispredicted = d.u64()?;
        eng.recovery.retries = d.u64()?;
        eng.recovery.backoffs_scheduled = d.u64()?;
        eng.recovery.backoff_ceiling_hits = d.u64()?;
        eng.recovery.backoff_hist = d
            .u64_vec()?
            .try_into()
            .map_err(|_| "backoff histogram bucket count mismatch".to_string())?;
        eng.recovery.backoff_sum_quanta = d.u64()?;
        eng.recovery.uncorrectable_escapes = d.u64()?;
        eng.candidate_hist = d
            .u64_vec()?
            .try_into()
            .map_err(|_| "candidate histogram bucket count mismatch".to_string())?;
        // From `begin_run` on the manager covers every page, so a
        // checkpoint taken before the first run (zero pages) is refused.
        eng.mgr = RefreshManager::new(n_pages, eng.config.hi_ms, eng.config.lo_ms);
        eng.mgr.restore_state(&mut d)?;
        if d.bool()? {
            let event_idx = usize::try_from(d.u64()?)
                .map_err(|_| "event cursor exceeds the address space".to_string())?;
            let next_quantum = d.u64()?;
            let quantum_ns = d.u64()?;
            let mwi_ns = d.u64()?;
            let duration = d.u64()?;
            let trace = Some(TraceFingerprint::decode(&mut d)?);
            eng.run = Some(RunState {
                event_idx,
                next_quantum,
                quantum_ns,
                mwi_ns,
                duration,
                trace,
            });
        }
        d.finish("engine snapshot")?;
        Ok(eng)
    }

    /// Encodes the engine's current state, run cursors included, as a
    /// payload [`MemconEngine::restore`] rebuilds — what a durable fleet's
    /// barrier image holds per shard. `trace` must be the trace the
    /// current run began with: the run's first checkpoint fingerprints it
    /// and keeps the fingerprint in the run state, so a run pays one pass
    /// over its trace however often it checkpoints, and a run that never
    /// checkpoints pays none.
    ///
    /// # Panics
    ///
    /// Panics if the failure oracle cannot persist its state (e.g. the
    /// content oracle's simulated chip).
    pub fn checkpoint(&mut self, trace: &WriteTrace) -> Vec<u8> {
        let fingerprint = self
            .run
            .as_mut()
            .map(|run| *run.trace.get_or_insert_with(|| TraceFingerprint::of(trace)));
        self.encode_state(self.run.as_ref().zip(fingerprint))
    }

    /// Rebuilds an engine exactly as it stood when `payload` was encoded
    /// by [`MemconEngine::checkpoint`] — including an in-progress run,
    /// ready to resume with `trace`. Time-series sampling stays disarmed.
    ///
    /// Traces are not persisted, so the payload's run section carries a
    /// fingerprint of the trace the run began with, and any other trace is
    /// refused. The fault plan and its decision cursors ride in the
    /// payload, so the fault stream continues bit-identically.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] when the payload does not decode, breaks a
    /// PRIL or refresh-manager invariant, holds a page at Testing with no
    /// test in flight or a test on a page not at Testing, or its run began
    /// with a trace other than `trace`.
    pub fn restore(payload: &[u8], trace: &WriteTrace) -> Result<MemconEngine, StoreError> {
        let engine = Self::decode_state(payload).map_err(StoreError::Corrupt)?;
        engine
            .pril
            .check_invariants()
            .and_then(|()| engine.mgr.check_invariants())
            .and_then(|()| engine.check_tests_match_bins())
            .map_err(|e| StoreError::Corrupt(format!("the snapshot breaks an invariant: {e}")))?;
        if let Some(run) = &engine.run {
            let resumed = TraceFingerprint::of(trace);
            if run.trace != Some(resumed) {
                return Err(StoreError::Corrupt(format!(
                    "the snapshot's run began with trace {:?}, not the resumed trace {resumed:?}",
                    run.trace
                )));
            }
        }
        Ok(engine)
    }

    /// Checks that the pages in flight in the test engine are exactly the
    /// pages the refresh manager holds at Testing: every test start moves
    /// its page to Testing, and every abort and completion moves it out.
    ///
    /// # Errors
    ///
    /// Names the lowest page on which the two disagree.
    fn check_tests_match_bins(&self) -> Result<(), String> {
        for page in 0..self.n_pages {
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

    /// Instantaneous observability snapshot (see [`LiveStats`]), read from
    /// [`MemconEngine::recovery_stats`] and the refresh manager.
    #[must_use]
    pub fn live_stats(&self) -> LiveStats {
        let r = self.recovery_stats();
        LiveStats {
            faults_injected: r.faults_injected.iter().sum(),
            aborts: r.aborts,
            retries: r.retries,
            backoffs_scheduled: r.backoffs_scheduled,
            backoff_ceiling_hits: r.backoff_ceiling_hits,
            escapes: r.uncorrectable_escapes,
            pinned_pages: self.mgr.pinned_count(),
            pril_buffered: self.pril.buffer_len() as u64,
            pril_capacity: self.config.write_buffer_capacity as u64,
            pages: self.n_pages,
        }
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

    /// Runs the engine over a complete trace and reports. Equivalent to
    /// [`MemconEngine::begin_run`], one [`MemconEngine::advance_until`] to
    /// the trace horizon, and [`MemconEngine::finish_run`] — stepped and
    /// whole-trace runs share one code path, so they are bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if the trace pages exceed the engine's page count.
    pub fn run(&mut self, trace: &WriteTrace) -> MemconReport {
        let _span = telemetry::tree_span("memcon.run");
        self.begin_run(trace);
        self.advance_until(trace, trace.duration_ns());
        self.finish_run()
    }

    /// Starts a stepped run: resets all per-run state, arms the fault
    /// session, and performs the steady-state pre-pass. Follow with
    /// [`MemconEngine::advance_until`] calls (monotone limits) and one
    /// [`MemconEngine::finish_run`]. Any previously in-progress stepped run
    /// is discarded, exactly as a fresh [`MemconEngine::run`] would.
    ///
    /// # Panics
    ///
    /// Panics if the trace pages exceed the engine's page count.
    pub fn begin_run(&mut self, trace: &WriteTrace) {
        assert!(
            trace.n_pages() <= self.n_pages,
            "trace has more pages than the engine tracks"
        );
        // Each run starts fresh: clear predictor state, in-flight tests, and
        // per-page bookkeeping left over from any previous trace.
        self.pril = Pril::new(self.n_pages, self.config.write_buffer_capacity);
        self.tests.cancel_all();
        self.tests.stats = TestEngineStats::default();
        self.generation.iter_mut().for_each(|g| *g = 0);
        self.lo_anchor.iter_mut().for_each(|a| *a = None);
        self.tests_correct = 0;
        self.tests_mispredicted = 0;
        self.attempts.iter_mut().for_each(|a| *a = 0);
        self.retry_at.iter_mut().for_each(|r| *r = None);
        self.retry_queue.clear();
        self.clean_gen.iter_mut().for_each(|c| *c = None);
        self.quantum_index = 0;
        self.recovery = RecoveryCounters::default();
        self.candidate_hist = [0; 11];
        // A fresh session per run: the decision streams replay, so the same
        // trace and plan reproduce the same faults bit-for-bit.
        let session = self
            .fault_plan
            .as_ref()
            .map(|p| FaultSession::with_plan(Arc::clone(p)))
            .or_else(FaultSession::begin);
        self.tests.set_fault_session(session);
        self.mgr = RefreshManager::new(self.n_pages, self.config.hi_ms, self.config.lo_ms);
        if self.config.steady_state_start {
            // The trace window opens on a long-running system: every page
            // holding static content was tested before the window; clean
            // pages already sit at LO-REF (failing ones stay HI-REF). These
            // pre-window tests are not counted in this run's statistics.
            for page in 0..self.n_pages {
                if !self.tests.oracle_mut().page_fails(page, 0) {
                    self.mgr.transition(page, PageState::LoRef, 0);
                    // No amortization anchor: the test cost was paid before
                    // the window, so it never counts as a misprediction.
                    self.clean_gen[page as usize] = Some(0);
                }
            }
        }
        let quantum_ns = (self.config.quantum_ms * 1e6) as u64;
        let run = RunState {
            event_idx: 0,
            next_quantum: quantum_ns,
            quantum_ns,
            mwi_ns: (self.config.min_write_interval_ms() * 1e6) as u64,
            duration: trace.duration_ns(),
            trace: None,
        };
        self.run = Some(run);
    }

    /// Advances the stepped run through every happening (test completion,
    /// quantum boundary, write event) at or before `limit_ns`, in exact
    /// timeline order. Splitting a run at arbitrary limits cannot reorder
    /// happenings: the loop always takes the globally earliest next one, so
    /// a limit only decides *when* the loop pauses, never *what* it does.
    ///
    /// # Panics
    ///
    /// Panics if no run is in progress (call [`MemconEngine::begin_run`]).
    pub fn advance_until(&mut self, trace: &WriteTrace, limit_ns: u64) {
        let mut run = self
            .run
            .take()
            .expect("advance_until without begin_run in progress");
        let limit = limit_ns.min(run.duration);
        let events = trace.events();
        loop {
            let t_test = self.tests.next_completion_ns();
            let t_quantum = (run.next_quantum <= run.duration).then_some(run.next_quantum);
            let horizon = [t_test, t_quantum].into_iter().flatten().min();
            // Drain the writes before the next completion or boundary. At
            // equal times the order is completion, then boundary, then
            // write: a test that ends exactly when a write arrives completes
            // before the write invalidates it (the write targets the *new*
            // content), so the drain takes only writes strictly before the
            // horizon. The horizon cannot move during the drain: a write
            // starts no test, and an abort leaves its heap entry in place.
            while let Some(e) = events.get(run.event_idx) {
                if e.time_ns > limit || horizon.is_some_and(|h| e.time_ns >= h) {
                    break;
                }
                run.event_idx += 1;
                self.handle_write(e.page, e.time_ns, run.mwi_ns);
            }
            let Some(now) = horizon.filter(|&h| h <= limit) else {
                break;
            };
            if t_test == Some(now) {
                self.handle_completions(now, run.duration);
                continue;
            }
            self.handle_quantum(now, run.mwi_ns);
            run.next_quantum += run.quantum_ns;
        }
        self.run = Some(run);
    }

    /// Completes a stepped run: drains horizon completions, finalizes the
    /// refresh timeline, flushes telemetry, and reports. Happenings after
    /// the last `advance_until` limit are **not** processed — step to the
    /// trace horizon first.
    ///
    /// # Panics
    ///
    /// Panics if no run is in progress (call [`MemconEngine::begin_run`]).
    pub fn finish_run(&mut self) -> MemconReport {
        let RunState { duration, .. } = self
            .run
            .take()
            .expect("finish_run without begin_run in progress");
        // Drain tests completing exactly at the horizon.
        self.handle_completions(duration, duration);
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
                self.tests_correct += 1;
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
            tests_correct: self.tests_correct,
            tests_mispredicted: self.tests_mispredicted,
            refresh_time_ns: refresh_ops * self.cost.refresh_op_ns,
            baseline_refresh_time_ns: baseline_ops * self.cost.refresh_op_ns,
            test_time_correct_ns: self.tests_correct as f64 * test_cost,
            test_time_mispredicted_ns: self.tests_mispredicted as f64 * test_cost,
            duration_ns: duration,
            n_pages: self.n_pages,
        }
    }

    /// Per-page refresh states: final after a run, live during one, empty
    /// before the first. The reliability guarantee is that every page
    /// reported `LoRef` here passed a content test after its last write.
    #[must_use]
    pub fn final_states(&self) -> &[PageState] {
        self.mgr.states()
    }

    /// Post-run component statistics.
    #[must_use]
    pub fn internals(&self) -> EngineInternals {
        EngineInternals {
            pril: self.pril.stats,
            tests: self.tests.stats,
            recovery: self.recovery_stats(),
        }
    }

    fn handle_write(&mut self, page: PageId, now: u64, mwi_ns: u64) {
        self.generation[page as usize] += 1;
        if self.tests.abort(page) {
            // The content under test changed before the verdict: the test
            // can never be amortized.
            self.tests_mispredicted += 1;
            self.mgr.transition(page, PageState::HiRef, now);
            self.note_failed_attempt(page, now, false);
        } else {
            match self.mgr.state(page) {
                PageState::LoRef => {
                    if let Some(start) = self.lo_anchor[page as usize].take() {
                        if now - start >= mwi_ns {
                            self.tests_correct += 1;
                        } else {
                            self.tests_mispredicted += 1;
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
        self.recovery.backoffs_scheduled += 1;
        if backoff == u64::from(policy.backoff_cap_quanta) {
            self.recovery.backoff_ceiling_hits += 1;
        }
        // Accumulated in engine state (not observed mid-run) so that the
        // telemetry flush at run end is a pure function of the final state —
        // a crashed-and-recovered run reports bit-identically.
        self.recovery.backoff_hist[backoff_bucket(backoff)] += 1;
        self.recovery.backoff_sum_quanta += backoff;
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

    /// Folds one run's component statistics into the current telemetry
    /// registry. All values derive from simulation state, so they are
    /// deterministic; called once at the end of [`MemconEngine::run`] rather
    /// than per-event to keep the hot loop telemetry-free.
    fn flush_telemetry(&self) {
        let p = self.pril.stats;
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
                &self.candidate_hist,
                p.quanta,
                p.candidates,
            );
        }
        let t = self.tests.stats;
        telemetry::count("memcon.tests.started", t.started);
        telemetry::count("memcon.tests.completed", t.completed);
        telemetry::count("memcon.tests.failed", t.failed);
        telemetry::count("memcon.tests.aborted", t.aborted);
        telemetry::count("memcon.tests.rejected", t.rejected);
        telemetry::count("memcon.engine.tests_correct", self.tests_correct);
        telemetry::count("memcon.engine.tests_mispredicted", self.tests_mispredicted);
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
        let r = self.recovery_stats();
        for site in Site::ALL {
            telemetry::count(
                &format!("fault.{}", site.name()),
                r.faults_injected[site as usize],
            );
        }
        telemetry::count("memcon.recovery.aborts", r.aborts);
        telemetry::count("memcon.recovery.retries", r.retries);
        telemetry::count("memcon.recovery.backoffs_scheduled", r.backoffs_scheduled);
        telemetry::count(
            "memcon.recovery.backoff_ceiling_hits",
            r.backoff_ceiling_hits,
        );
        telemetry::count("memcon.recovery.degraded_rows", r.degraded_rows);
        telemetry::count("memcon.recovery.ambiguous", r.ambiguous);
        telemetry::count("memcon.recovery.ecc_corrected", r.ecc_corrected);
        telemetry::count("memcon.recovery.ecc_uncorrectable", r.ecc_uncorrectable);
        telemetry::count(
            "memcon.recovery.uncorrectable_escapes",
            r.uncorrectable_escapes,
        );
        if r.backoffs_scheduled > 0 {
            telemetry::observe_merged(
                "memcon.recovery.backoff_quanta",
                &BACKOFF_EDGES,
                &r.backoff_hist,
                r.backoffs_scheduled,
                r.backoff_sum_quanta,
            );
        }
    }

    fn handle_quantum(&mut self, now: u64, mwi_ns: u64) {
        self.quantum_index += 1;
        // Injected test preemption: model a rogue write landing on whichever
        // page is under test, forcing the abort/retry path.
        if let Some(victim) = self.tests.any_in_flight_page() {
            let fired = self
                .tests
                .fault_session_mut()
                .is_some_and(|s| s.fires(Site::TestPreempt));
            if fired {
                self.handle_write(victim, now, mwi_ns);
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
                self.recovery.retries += 1;
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
        self.candidate_hist[candidate_bucket(candidates.len() as u64)] += 1;
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
    /// [`MemconEngine::set_sample_every`]): engine gauges read from the
    /// live refresh manager, tick = quantum index.
    fn sample_quantum(&self) {
        telemetry::sample_point(
            self.quantum_index,
            &[
                ("memcon.gauge.pinned_pages", self.mgr.pinned_count()),
                ("memcon.gauge.pril_buffered", self.pril.buffer_len() as u64),
                (
                    "memcon.gauge.pril_capacity",
                    self.config.write_buffer_capacity as u64,
                ),
                ("memcon.gauge.pages", self.n_pages),
            ],
        );
    }

    fn handle_completions(&mut self, now: u64, duration: u64) {
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
                    self.tests_correct += 1;
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
                    self.tests_mispredicted += 1;
                    self.mgr.transition(page, PageState::HiRef, end);
                    self.note_failed_attempt(page, end, outcome.ecc == EccEvent::Uncorrectable);
                }
            }
            if outcome.ecc == EccEvent::Uncorrectable && !self.mgr.is_pinned(page) {
                self.recovery.uncorrectable_escapes += 1;
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

    fn clean_engine(n_pages: u64) -> MemconEngine {
        MemconEngine::with_oracle(cfg(), n_pages, Box::new(RateOracle::new(0.0, 0)))
    }

    #[test]
    fn equal_time_happenings_order_completion_then_boundary_then_write() {
        // Page 0's test runs 2048–2112 ms. A page-0 write at 2112 ms comes
        // after the completion: the test passes, and the early rewrite is a
        // misprediction, not an abort.
        let trace = WriteTrace::new(vec![ev(0, 0), ev(2100, 1), ev(2112, 0)], 8192 * MS, 2);
        let mut e = clean_engine(2);
        let r = e.run(&trace);
        assert_eq!(e.internals().tests.aborted, 0);
        assert_eq!(r.tests_mispredicted, 1);
        // A page-0 write at the 2048 ms boundary comes after the boundary
        // starts the test, so it aborts it.
        let trace = WriteTrace::new(vec![ev(0, 0), ev(2040, 1), ev(2048, 0)], 8192 * MS, 2);
        let mut e = clean_engine(2);
        e.run(&trace);
        assert_eq!(e.internals().tests.aborted, 1);
    }

    #[test]
    fn idle_page_reaches_lo_ref() {
        // One write at t=0, then 20 s of silence: tested after two quanta,
        // LO-REF for the rest.
        let trace = WriteTrace::new(vec![ev(0, 0)], 20_480 * MS, 1);
        let mut e = clean_engine(1);
        let r = e.run(&trace);
        // Test starts at 2048 ms (first boundary after the full idle
        // quantum following the write quantum), completes at 2112 ms.
        // LO time = 20480 - 2112 = 18368 ms of 20480 => ~89.7% coverage.
        assert!(
            (r.lo_coverage - 18_368.0 / 20_480.0).abs() < 1e-6,
            "coverage {}",
            r.lo_coverage
        );
        assert_eq!(r.tests_correct, 1);
        assert_eq!(r.tests_mispredicted, 0);
        assert!(r.refresh_reduction > 0.6);
        assert!(r.refresh_reduction < r.upper_bound);
    }

    #[test]
    fn busy_page_stays_hi_ref() {
        // Writes every 100 ms: never a full idle quantum, never tested.
        let events: Vec<WriteEvent> = (0..200).map(|i| ev(i * 100, 0)).collect();
        let trace = WriteTrace::new(events, 20_000 * MS, 1);
        let mut e = clean_engine(1);
        let r = e.run(&trace);
        assert_eq!(r.lo_coverage, 0.0);
        assert_eq!(e.internals().tests.started, 0);
        assert!(r.refresh_reduction.abs() < 1e-9);
    }

    #[test]
    fn failing_rows_stay_hi_ref() {
        let trace = WriteTrace::new(vec![ev(0, 0)], 20_480 * MS, 1);
        let mut e = MemconEngine::with_oracle(cfg(), 1, Box::new(RateOracle::new(1.0, 0)));
        let r = e.run(&trace);
        assert_eq!(r.lo_coverage, 0.0);
        assert_eq!(e.internals().tests.failed, 1);
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
        let mut e = clean_engine(1);
        let r = e.run(&trace);
        assert_eq!(r.tests_mispredicted, 1);
        // The rewrite re-qualifies the page: written once in quantum
        // (2048..3072], idle in (3072..4096] => re-tested at 4096 = horizon.
        assert_eq!(r.tests_correct, 0);
    }

    #[test]
    fn write_during_test_aborts_and_counts_mispredicted() {
        // Write at 0; tested at 2048; write at 2080 lands mid-test.
        let trace = WriteTrace::new(vec![ev(0, 0), ev(2080, 0)], 8192 * MS, 1);
        let mut e = clean_engine(1);
        let r = e.run(&trace);
        assert_eq!(e.internals().tests.aborted, 1);
        assert_eq!(r.tests_mispredicted, 1);
        // The abort arms a retry, but the preempting write resets PRIL
        // idleness, so the retry waits for a full idle quantum: re-tested
        // at the 4096 ms boundary, passing at 4160 ms, LO-REF for the
        // remaining 4032 ms of the 8192 ms window.
        let rec = e.recovery_stats();
        assert_eq!(rec.aborts, 1);
        assert_eq!(rec.backoffs_scheduled, 1);
        assert_eq!(rec.backoff_hist[0], 1, "first attempt backs off 1 quantum");
        assert_eq!(rec.retries, 1);
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
        let mut e = clean_engine(1);
        let r = e.run(&trace);
        assert_eq!(r.tests_correct, 1);
        assert_eq!(r.tests_mispredicted, 0);
    }

    #[test]
    fn concurrent_test_budget_limits_starts() {
        let mut config = cfg();
        config.concurrent_tests = 2;
        // 10 pages all written at t=0 and idle after.
        let events: Vec<WriteEvent> = (0..10).map(|p| ev(0, p)).collect();
        let trace = WriteTrace::new(events, 4096 * MS, 10);
        let mut e = MemconEngine::with_oracle(config, 10, Box::new(RateOracle::new(0.0, 0)));
        let _ = e.run(&trace);
        let t = e.internals().tests;
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
            let mut e = MemconEngine::with_oracle(config, pages, Box::new(RateOracle::new(0.0, 0)));
            let _ = e.run(&trace);
            let t = e.internals().tests;
            assert_eq!((t.started, t.rejected), (started, rejected), "{mode:?}");
        }
    }

    #[test]
    fn quantum_size_matters_for_test_onset() {
        for quantum in [512.0, 1024.0, 2048.0] {
            let trace = WriteTrace::new(vec![ev(0, 0)], 20_480 * MS, 1);
            let mut e = MemconEngine::with_oracle(
                cfg().with_quantum_ms(quantum),
                1,
                Box::new(RateOracle::new(0.0, 0)),
            );
            let r = e.run(&trace);
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
        let mut e = MemconEngine::new(cfg(), trace.n_pages());
        let r = e.run(&trace);
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
        let mut e = MemconEngine::new(cfg(), trace.n_pages());
        let r = e.run(&trace);
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
    fn engine_is_reusable_across_runs() {
        // A second run() must start fresh: same trace, same report, even
        // when the first run left a test in flight at the horizon.
        let trace = WriteTrace::new(vec![ev(0, 0), ev(2200, 0)], 4096 * MS, 1);
        let mut e = clean_engine(1);
        assert!(
            e.final_states().is_empty(),
            "no states before the first run"
        );
        let first = e.run(&trace);
        let second = e.run(&trace);
        assert_eq!(first, second);
    }

    #[test]
    fn stepped_run_matches_whole_run() {
        // Slicing a run at awkward, non-quantum-aligned limits must be
        // bit-identical to one whole-trace run — the property the fleet
        // scheduler's epoch batching rests on. Faults armed so the fault
        // decision streams are exercised across slice boundaries too.
        let trace = WorkloadProfile::netflix().scaled(0.02).generate(7);
        let plan = Arc::new(FaultPlan::uniform(0xDEAD_BEEF, 0.05));
        let mut whole = MemconEngine::new(cfg(), trace.n_pages());
        whole.set_fault_plan(Some(Arc::clone(&plan)));
        let r_whole = whole.run(&trace);
        let mut stepped = MemconEngine::new(cfg(), trace.n_pages());
        stepped.set_fault_plan(Some(plan));
        stepped.begin_run(&trace);
        let mut limit = 0u64;
        while limit < trace.duration_ns() {
            limit += 777 * MS; // never aligned with the 1024 ms quantum
            stepped.advance_until(&trace, limit);
        }
        let r_stepped = stepped.finish_run();
        assert_eq!(r_whole, r_stepped);
        assert_eq!(whole.final_states(), stepped.final_states());
        assert_eq!(whole.recovery_stats(), stepped.recovery_stats());
        stepped.verify_refresh_correctness().unwrap();
    }

    #[test]
    #[should_panic(expected = "advance_until without begin_run")]
    fn advance_without_begin_panics() {
        let trace = WriteTrace::new(vec![ev(0, 0)], 100 * MS, 1);
        let mut e = clean_engine(1);
        e.advance_until(&trace, 50 * MS);
    }

    #[test]
    #[should_panic(expected = "more pages than the engine")]
    fn trace_page_bound_checked() {
        let trace = WriteTrace::new(vec![ev(0, 5)], 100 * MS, 6);
        let mut e = clean_engine(2);
        let _ = e.run(&trace);
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
        let mut e = MemconEngine::with_oracle(config, 1, Box::new(RateOracle::new(0.0, 0)));
        e.set_fault_plan(Some(plan_with(Site::TestPreempt, SiteSpec::rate(1.0))));
        let r = e.run(&trace);
        let rec = e.recovery_stats();
        assert!(rec.faults_injected[Site::TestPreempt as usize] > 0);
        assert!(rec.aborts >= 3, "aborts {}", rec.aborts);
        assert!(rec.retries >= 2, "retries {}", rec.retries);
        assert_eq!(rec.degraded_rows, 1, "page pinned exactly once");
        assert_eq!(r.lo_coverage, 0.0, "a never-verified page never drops");
        e.verify_refresh_correctness().unwrap();
    }

    #[test]
    fn torn_reads_back_off_and_eventually_pin() {
        let trace = WriteTrace::new(vec![ev(0, 0)], 20_480 * MS, 1);
        let mut e = clean_engine(1);
        e.set_fault_plan(Some(plan_with(Site::TornRead, SiteSpec::rate(1.0))));
        let r = e.run(&trace);
        let rec = e.recovery_stats();
        assert!(rec.ambiguous >= 3, "ambiguous {}", rec.ambiguous);
        assert_eq!(rec.degraded_rows, 1);
        assert_eq!(r.lo_coverage, 0.0);
        // Backoff doubles per attempt up to the cap: the histogram must
        // populate multiple buckets.
        assert!(rec.backoff_hist.iter().filter(|&&c| c > 0).count() >= 2);
        e.verify_refresh_correctness().unwrap();
    }

    #[test]
    fn uncorrectable_ecc_pins_immediately_with_zero_escapes() {
        let trace = WriteTrace::new(vec![ev(0, 0)], 20_480 * MS, 1);
        let mut e = clean_engine(1);
        e.set_fault_plan(Some(plan_with(Site::EccUncorrectable, SiteSpec::rate(1.0))));
        let _ = e.run(&trace);
        let rec = e.recovery_stats();
        assert!(rec.ecc_uncorrectable >= 1);
        assert_eq!(rec.degraded_rows, 1, "pinned on the very first attempt");
        assert_eq!(rec.uncorrectable_escapes, 0);
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
        let mut e = MemconEngine::with_oracle(config, 1, Box::new(RateOracle::new(0.0, 0)));
        e.set_fault_plan(Some(plan_with(
            Site::TornRead,
            SiteSpec {
                rate: 1.0,
                schedule: Schedule::Burst { start: 0, len: 2 },
            },
        )));
        let r = e.run(&trace);
        let rec = e.recovery_stats();
        assert_eq!(rec.ambiguous, 2);
        assert_eq!(rec.retries, 2);
        assert_eq!(rec.degraded_rows, 1, "pinned once, then released");
        assert_eq!(e.final_states()[0], PageState::LoRef);
        assert!(r.lo_coverage > 0.7, "coverage {}", r.lo_coverage);
        e.verify_refresh_correctness().unwrap();
    }

    #[test]
    fn faulted_runs_are_bit_reproducible() {
        // Two independently constructed engines with the same oracle seed,
        // trace, and plan must agree bit-for-bit — the property the chaos
        // gate's jobs=1 vs jobs=4 byte-comparison rests on. (Re-running the
        // *same* engine is only reproducible for stateless oracles: the
        // rate oracle deliberately draws from one RNG stream.)
        let trace = WorkloadProfile::netflix().scaled(0.02).generate(7);
        let plan = Arc::new(FaultPlan::uniform(0xDEAD_BEEF, 0.05));
        let run = |plan: &Arc<FaultPlan>| {
            let mut e = MemconEngine::new(cfg(), trace.n_pages());
            e.set_fault_plan(Some(Arc::clone(plan)));
            let report = e.run(&trace);
            e.verify_refresh_correctness().unwrap();
            (report, e.recovery_stats(), e.final_states().to_vec())
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
        trace: &WriteTrace,
        plan: Option<&Arc<FaultPlan>>,
    ) -> (MemconReport, RecoveryStats, Vec<PageState>) {
        let mut e = MemconEngine::new(config, trace.n_pages());
        e.set_fault_plan(plan.cloned());
        let report = e.run(trace);
        (report, e.recovery_stats(), e.final_states().to_vec())
    }

    #[test]
    fn recovery_with_hi_ref_pins_active_preserves_the_pin() {
        // Checkpoint while the fail-safe has a page pinned: the pin must
        // survive the restore, and the resumed run must match the
        // reference.
        let trace = WriteTrace::new(vec![ev(0, 0)], 20_480 * MS, 1);
        let plan = plan_with(Site::TornRead, SiteSpec::rate(1.0));
        let (r_ref, rec_ref, states_ref) = reference_run(cfg(), &trace, Some(&plan));
        assert_eq!(rec_ref.degraded_rows, 1, "the reference run pins the page");

        let mut e = MemconEngine::new(cfg(), 1);
        e.set_fault_plan(Some(Arc::clone(&plan)));
        e.begin_run(&trace);
        e.advance_until(&trace, 18_000 * MS);
        let payload = e.checkpoint(&trace);
        drop(e);
        let mut e = MemconEngine::restore(&payload, &trace).unwrap();
        assert_eq!(
            e.live_stats().pinned_pages,
            1,
            "pin restored from the checkpoint"
        );
        e.advance_until(&trace, trace.duration_ns());
        let r = e.finish_run();
        assert_eq!(r, r_ref);
        assert_eq!(e.recovery_stats(), rec_ref);
        assert_eq!(e.final_states(), states_ref.as_slice());
        e.verify_refresh_correctness().unwrap();
    }

    #[test]
    fn recovery_refuses_a_trace_other_than_the_checkpointed_one() {
        let trace = WorkloadProfile::netflix().scaled(0.02).generate(5);
        let plan = engine_plan(0x5EED_F00D);
        let (r_ref, rec_ref, states_ref) = reference_run(cfg(), &trace, Some(&plan));

        let mut e = MemconEngine::new(cfg(), trace.n_pages());
        e.set_fault_plan(Some(Arc::clone(&plan)));
        e.begin_run(&trace);
        e.advance_until(&trace, trace.duration_ns() / 2);
        let payload = e.checkpoint(&trace);
        drop(e);
        let other_seed = WorkloadProfile::netflix().scaled(0.02).generate(6);
        let events = trace.events();
        let truncated = WriteTrace::new(
            events[..events.len() - 1].to_vec(),
            trace.duration_ns(),
            trace.n_pages(),
        );
        for (what, wrong) in [("different-seed", &other_seed), ("truncated", &truncated)] {
            assert!(
                matches!(
                    MemconEngine::restore(&payload, wrong),
                    Err(StoreError::Corrupt(_))
                ),
                "a {what} trace must be refused"
            );
        }
        // The matching trace still resumes to the uninterrupted result.
        let mut e = MemconEngine::restore(&payload, &trace).unwrap();
        e.advance_until(&trace, trace.duration_ns());
        assert_eq!(e.finish_run(), r_ref);
        assert_eq!(e.recovery_stats(), rec_ref);
        assert_eq!(e.final_states(), states_ref.as_slice());
    }

    /// An engine stepped to half the trace, with its checkpoint there.
    fn half_run_payload(trace: &WriteTrace) -> (MemconEngine, Vec<u8>) {
        let mut e = MemconEngine::new(cfg(), trace.n_pages());
        e.begin_run(trace);
        e.advance_until(trace, trace.duration_ns() / 2);
        let payload = e.checkpoint(trace);
        (e, payload)
    }

    /// Restores `payload` over `trace`, dropping the engine.
    fn restore_payload(trace: &WriteTrace, payload: &[u8]) -> Result<(), StoreError> {
        MemconEngine::restore(payload, trace).map(drop)
    }

    #[test]
    fn recovery_refuses_a_snapshot_of_the_previous_version() {
        // A payload of an earlier format has a different layout, so its
        // version byte must refuse it before any section decodes.
        let trace = WorkloadProfile::netflix().scaled(0.02).generate(9);
        let (e, payload) = half_run_payload(&trace);
        drop(e);
        assert!(MemconEngine::decode_state(&payload).is_ok());
        for version in [2u8, 3, 4, 5, 6] {
            let mut old = payload.clone();
            old[0] = version;
            let Err(err) = MemconEngine::decode_state(&old) else {
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
        // A page count the payload cannot hold is refused before the
        // per-page state is allocated, and restored tests and retries must
        // name pages the engine tracks.
        let trace = WorkloadProfile::netflix().scaled(0.02).generate(9);
        let (mut e, mut huge) = half_run_payload(&trace);
        let past_end = e.n_pages;
        // Version, three f64 intervals, mode tag, test budget, write-buffer
        // capacity, steady-state flag, two recovery-policy u32s.
        const N_PAGES_AT: usize = 1 + 3 * 8 + 1 + 4 + 8 + 1 + 4 + 4;
        let field = N_PAGES_AT..N_PAGES_AT + 8;
        assert_eq!(huge[field.clone()], past_end.to_le_bytes());
        huge[field].copy_from_slice(&(1u64 << 40).to_le_bytes());
        e.retry_queue.push(past_end);
        let retry = e.checkpoint(&trace);
        e.retry_queue.pop();
        // The test table is sized to the engine's pages, so a test of the
        // page past the end comes from a test engine one page larger.
        let oracle = Box::new(RateOracle::new(0.0, 0));
        e.tests = TestEngine::new(oracle, e.config.lo_ms, 1, past_end + 1);
        assert!(e.tests.try_start(past_end, 0, 0));
        let in_flight = e.checkpoint(&trace);
        drop(e);
        for (payload, refusal) in [
            (huge, format!("page count {}", 1u64 << 40)),
            (in_flight, format!("in-flight page {past_end} out of range")),
            (retry, format!("retry queue page {past_end} out of range")),
        ] {
            let Err(err) = MemconEngine::decode_state(&payload) else {
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
        let trace = WorkloadProfile::netflix().scaled(0.02).generate(9);
        let (mut e, payload) = half_run_payload(&trace);
        let mut section = Enc::new();
        e.mgr.encode_state(&mut section);
        let section = section.into_bytes();
        let at = payload
            .windows(section.len())
            .position(|w| w == section.as_slice())
            .expect("the payload holds the manager section");
        // Bin tags, then since-times, then pin bytes, each length-prefixed.
        let pages = e.n_pages as usize;
        let pin_of_page_0 = at + (8 + pages) + (8 + 8 * pages) + 8;
        let mut bad_mgr = payload.clone();
        assert_eq!(bad_mgr[pin_of_page_0], 0);
        bad_mgr[pin_of_page_0] = 1;
        e.pril.stats.inserted += 1;
        let bad_pril = e.checkpoint(&trace);
        e.pril.stats.inserted -= 1;
        let now = trace.duration_ns() / 2;
        let hi = (0..e.n_pages)
            .find(|&p| e.mgr.state(p) == PageState::HiRef)
            .expect("the half run holds a HI-REF page");
        e.mgr.transition(hi, PageState::Testing, now);
        let untested = e.checkpoint(&trace);
        e.mgr.transition(hi, PageState::HiRef, now);
        assert!(e.tests.try_start(hi, e.generation[hi as usize], now));
        let unbinned = e.checkpoint(&trace);
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
            assert!(MemconEngine::decode_state(&payload).is_ok());
            assert!(matches!(
                restore_payload(&trace, &payload),
                Err(StoreError::Corrupt(msg)) if msg.contains(&broken)
            ));
        }
    }

    #[test]
    fn recovery_after_a_clean_finish_restores_the_finished_engine() {
        // A checkpoint after `finish_run` carries no run section: the
        // restored engine is the finished one, final bins and pins
        // included.
        let trace = WorkloadProfile::netflix().scaled(0.02).generate(13);
        let mut e = MemconEngine::new(cfg(), trace.n_pages());
        e.set_fault_plan(Some(plan_with(Site::EccUncorrectable, SiteSpec::rate(0.5))));
        let _ = e.run(&trace);
        assert!(e.live_stats().pinned_pages > 0, "the run ends with pins");
        let payload = e.checkpoint(&trace);
        let restored = MemconEngine::restore(&payload, &trace).unwrap();
        assert!(!restored.mid_run());
        assert_eq!(restored.final_states(), e.final_states());
        assert_eq!(restored.recovery_stats(), e.recovery_stats());
        assert_eq!(restored.live_stats(), e.live_stats());
        restored.verify_refresh_correctness().unwrap();
    }

    #[test]
    fn stepped_engines_round_trip_through_their_payload() {
        // Restoring a checkpoint and checkpointing again must reproduce it
        // byte for byte, and the restored engine must finish the run
        // exactly as one that never stopped.
        for seed in [3, 8] {
            let trace = WorkloadProfile::netflix().scaled(0.02).generate(seed);
            let horizon = trace.duration_ns();
            for mode in [TestMode::ReadAndCompare, TestMode::CopyAndCompare] {
                for plan in [None, Some(engine_plan(seed))] {
                    let config = cfg().with_test_mode(mode);
                    let reference = reference_run(config, &trace, plan.as_ref());
                    let mut e = MemconEngine::new(config, trace.n_pages());
                    e.set_fault_plan(plan.clone());
                    e.begin_run(&trace);
                    for split in [0, horizon / 7, horizon / 2, horizon * 5 / 6, horizon] {
                        let what = format!(
                            "seed {seed}, {mode:?}, plan {}, split {split}",
                            plan.is_some()
                        );
                        e.advance_until(&trace, split);
                        let payload = e.checkpoint(&trace);
                        let mut resumed = MemconEngine::restore(&payload, &trace).unwrap();
                        assert!(resumed.checkpoint(&trace) == payload, "{what}");
                        resumed.advance_until(&trace, horizon);
                        let report = resumed.finish_run();
                        assert_eq!(
                            (
                                report,
                                resumed.recovery_stats(),
                                resumed.final_states().to_vec()
                            ),
                            reference,
                            "{what}"
                        );
                    }
                }
            }
        }
    }
}
