//! FR-FCFS memory controller over timing-checked bank state machines.
//!
//! Scheduling policy (one command per controller cycle, as on a real command
//! bus):
//!
//! 1. a due refresh wins: open banks are precharged, then the rank is
//!    refreshed and blacked out for `tRFC`,
//! 2. otherwise FR-FCFS: the oldest **row-hit** request of the round-robin
//!    bank scan issues first; a bank whose queue head conflicts with its open
//!    row is precharged; an idle bank with waiting requests is activated.
//!
//! Column commands contend for the shared data bus (one burst at a time);
//! activates additionally respect the rank-level `tRRD` minimum spacing and
//! the `tFAW` four-activate window.
//!
//! Every command leaves through one choke point ([`MemoryController`]
//! internally routes all bank commands through a single issue helper), which
//! feeds the optional command-trace recorder and — under the
//! `strict-invariants` feature — the online [`crate::protocol`] auditor,
//! which panics on the first protocol violation with a cycle-accurate
//! diagnostic.

use std::collections::VecDeque;
use std::fmt;

use dram::bank::{Bank, BURST_CYCLES};
use dram::command::DramCommand;
use dram::timing::TimingParams;
use faultinject::{FaultSession, Site};

use crate::config::SystemConfig;
use crate::protocol::CmdRecord;
#[cfg(feature = "strict-invariants")]
use crate::protocol::ProtocolChecker;
use crate::refresh::RefreshScheduler;
use crate::request::{Completion, MemRequest, Requester};

/// Aggregate controller statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CtrlStats {
    /// Completed read requests.
    pub reads: u64,
    /// Completed write requests.
    pub writes: u64,
    /// Row activations (row-buffer misses).
    pub acts: u64,
    /// Column accesses issued (every column command necessarily hits an
    /// open row; compare against `acts` for the hit/miss ratio:
    /// `1 - acts / column_accesses`).
    pub column_accesses: u64,
    /// Refresh commands issued.
    pub refreshes: u64,
    /// Cycles the rank spent blacked out by refresh.
    pub refresh_blackout_cycles: u64,
    /// Enqueue attempts rejected because a bank queue was full (retries of
    /// the same request count once per attempt).
    pub rejected: u64,
    /// `ACT` attempts deferred by the rank-level `tRRD` minimum spacing
    /// (one count per blocked bank per cycle).
    pub trrd_stalls: u64,
    /// `ACT` attempts deferred by the `tFAW` four-activate window.
    pub tfaw_stalls: u64,
    /// Commands eaten or bounced by the fault injector
    /// ([`Site::SimCmdDrop`]).
    pub faults_dropped: u64,
    /// Commands duplicated by the fault injector ([`Site::SimCmdDup`]).
    pub faults_duplicated: u64,
    /// `ACT`s forced through a `tRRD`/`tFAW` block by the fault injector
    /// ([`Site::SimTimingViolation`]) — each is a real protocol violation
    /// the [`crate::protocol::ProtocolChecker`] audit must flag.
    pub faults_timing: u64,
    /// Extra refresh-blackout cycles added by the fault injector
    /// ([`Site::SimRefreshOverrun`]).
    pub faults_refresh_overrun_cycles: u64,
}

/// Why [`MemoryController::enqueue`] refused a request. Both variants hand
/// the request back so no access is ever silently lost by the *caller*; the
/// fault injector may still swallow test-engine commands (see
/// [`MemoryController::enqueue`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnqueueError {
    /// The target bank queue is full; retry next cycle.
    QueueFull(MemRequest),
    /// The fault injector dropped the command. Demand requests are bounced
    /// (a core must never lose a load), so the caller retries like a full
    /// queue.
    FaultDropped(MemRequest),
}

impl EnqueueError {
    /// The rejected request, handed back for retry.
    #[must_use]
    pub fn into_request(self) -> MemRequest {
        match self {
            EnqueueError::QueueFull(r) | EnqueueError::FaultDropped(r) => r,
        }
    }
}

impl fmt::Display for EnqueueError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnqueueError::QueueFull(r) => write!(f, "bank {} queue is full", r.bank),
            EnqueueError::FaultDropped(r) => {
                write!(f, "fault injector dropped the command for bank {}", r.bank)
            }
        }
    }
}

impl std::error::Error for EnqueueError {}

/// Row hits may bypass an older row-conflict request for at most this many
/// cycles; past it, the bank is drained toward the starved request (10 µs at
/// DDR3-1600 — generous next to normal service times, tight next to a
/// simulation).
pub const STARVATION_LIMIT_CYCLES: u64 = 8_000;

/// The rank-level constraint that deferred an `ACT`.
enum ActBlock {
    Trrd,
    Tfaw,
}

/// One bank's request queue, with the number of its requests that hit the
/// bank's open row (zero while the bank is precharged), so the scheduler
/// scans a queue for hits only when there is one.
#[derive(Debug, Default)]
struct BankQueue {
    reqs: VecDeque<MemRequest>,
    open_hits: usize,
}

/// The memory controller for one rank-set of DDR3 banks.
#[derive(Debug)]
pub struct MemoryController {
    timing: TimingParams,
    banks: Vec<Bank>,
    queues: Vec<BankQueue>,
    capacity: usize,
    /// First cycle at which a column command may issue: its data burst
    /// (`tCL` after issue) then starts no earlier than the end of the last
    /// one (`tCL` + [`BURST_CYCLES`] after its issue).
    bus_free: u64,
    refresh: RefreshScheduler,
    refresh_in_progress_until: u64,
    rr_start: usize,
    /// Recent `ACT` cycles on the rank (at most 4 kept), for `tRRD`/`tFAW`.
    act_history: VecDeque<u64>,
    /// First cycle at which `tRRD` admits the next `ACT`, set at each one.
    trrd_end: u64,
    /// First cycle at which `tFAW` admits the next `ACT`: the fourth most
    /// recent one plus `tFAW` (0 before the fourth).
    tfaw_end: u64,
    /// Fault-injection session (None when no plan is installed); the
    /// controller owns its decision streams, so parallel harnesses stay
    /// deterministic per controller.
    faults: Option<FaultSession>,
    /// Command-trace recorder; `None` until enabled.
    recorder: Option<Vec<CmdRecord>>,
    #[cfg(feature = "strict-invariants")]
    checker: ProtocolChecker,
    /// Completions drained by the system each cycle.
    completions: Vec<Completion>,
    /// Aggregate statistics.
    pub stats: CtrlStats,
}

impl MemoryController {
    /// Builds a controller from a system configuration.
    #[must_use]
    pub fn new(config: &SystemConfig) -> Self {
        let n_banks = usize::from(config.geometry.ranks) * usize::from(config.geometry.banks);
        let refresh = RefreshScheduler::new(config.refresh, &config.timing);
        #[cfg(feature = "strict-invariants")]
        let checker = {
            let c = ProtocolChecker::new(config.timing, n_banks);
            match refresh.trefi_cycles() {
                Some(trefi) => c.with_refresh_obligation(trefi),
                None => c,
            }
        };
        MemoryController {
            timing: config.timing,
            banks: (0..n_banks).map(|_| Bank::new()).collect(),
            queues: (0..n_banks).map(|_| BankQueue::default()).collect(),
            capacity: config.queue_capacity,
            bus_free: 0,
            refresh,
            refresh_in_progress_until: 0,
            rr_start: 0,
            act_history: VecDeque::new(),
            trrd_end: 0,
            tfaw_end: 0,
            faults: FaultSession::begin(),
            recorder: None,
            #[cfg(feature = "strict-invariants")]
            checker,
            completions: Vec::new(),
            stats: CtrlStats::default(),
        }
    }

    /// Starts (or stops) recording every issued command for offline auditing
    /// with [`crate::protocol::ProtocolChecker::audit`]. Enabling clears any
    /// previously captured trace.
    pub fn record_commands(&mut self, enable: bool) {
        self.recorder = enable.then(Vec::new);
    }

    /// Takes the captured command trace (empty if recording is disabled),
    /// leaving recording on if it was on.
    pub fn take_command_trace(&mut self) -> Vec<CmdRecord> {
        match &mut self.recorder {
            Some(trace) => std::mem::take(trace),
            None => Vec::new(),
        }
    }

    /// The timing parameters this controller schedules against.
    #[must_use]
    pub fn timing(&self) -> &TimingParams {
        &self.timing
    }

    /// Effective refresh-command interval, if refresh is enabled (what an
    /// offline audit should pass as the `tREFI` obligation).
    #[must_use]
    pub fn trefi_cycles(&self) -> Option<u64> {
        self.refresh.trefi_cycles()
    }

    /// Routes one bank command through the single issue choke point: the
    /// bank automaton applies it, the bank's open-row hit count follows an
    /// `ACT` or `PRE`, and the recorder and (under `strict-invariants`) the
    /// online protocol auditor observe it. A column command's caller takes
    /// its request, and that request's hit, off the queue first.
    ///
    /// Returns `None` if the bank rejected a command the scheduler believed
    /// legal — a scheduler bug, surfaced loudly in debug builds and skipped
    /// (leaving state untouched) in release builds.
    fn issue_checked(&mut self, bank: usize, cmd: DramCommand, row: u32, now: u64) -> Option<u64> {
        match self.banks[bank].issue(cmd, row, now, &self.timing) {
            Ok(done) => {
                let queue = &mut self.queues[bank];
                match cmd {
                    DramCommand::Activate => {
                        queue.open_hits = queue.reqs.iter().filter(|r| r.row == row).count();
                    }
                    DramCommand::Precharge => queue.open_hits = 0,
                    _ => {}
                }
                #[cfg(feature = "strict-invariants")]
                if let Err(e) = self.banks[bank].check_invariants().and_then(|()| {
                    let queue = &self.queues[bank];
                    let open = self.banks[bank].open_row();
                    let hits = queue.reqs.iter().filter(|r| Some(r.row) == open).count();
                    if hits == queue.open_hits {
                        Ok(())
                    } else {
                        Err(format!(
                            "{hits} queued open-row hits counted as {}",
                            queue.open_hits
                        ))
                    }
                }) {
                    // memlint: allow (deliberate strict-invariants abort)
                    panic!("bank {bank} invariant violation after {cmd} at cycle {now}: {e}");
                }
                self.observe(CmdRecord::bank_cmd(now, bank, row, cmd));
                Some(done)
            }
            Err(e) => {
                debug_assert!(false, "scheduler issued illegal {cmd} on bank {bank}: {e}");
                None
            }
        }
    }

    /// Feeds a just-issued command to the recorder and the online auditor.
    fn observe(&mut self, rec: CmdRecord) {
        if let Some(trace) = &mut self.recorder {
            trace.push(rec);
        }
        #[cfg(feature = "strict-invariants")]
        if let Err(v) = self.checker.observe(rec) {
            panic!("DDR3 protocol violation: {v}"); // memlint: allow (deliberate strict-invariants abort)
        }
    }

    /// Which rank-level activate constraint (`tRRD` minimum spacing or the
    /// `tFAW` four-activate window) blocks an `ACT` at `now`, if any.
    fn rank_act_blocked(&self, now: u64) -> Option<ActBlock> {
        if now < self.trrd_end {
            Some(ActBlock::Trrd)
        } else if now < self.tfaw_end {
            Some(ActBlock::Tfaw)
        } else {
            None
        }
    }

    /// Records an `ACT` in the rank activate history (only the last four
    /// matter) and the cycles from which `tRRD` and `tFAW` admit the next.
    fn note_act(&mut self, now: u64) {
        self.act_history.push_back(now);
        while self.act_history.len() > 4 {
            self.act_history.pop_front();
        }
        self.trrd_end = now + self.timing.trrd_cycles();
        if self.act_history.len() == 4 {
            self.tfaw_end = self.act_history[0] + self.timing.tfaw_cycles();
        }
    }

    /// Number of banks.
    #[must_use]
    pub fn n_banks(&self) -> usize {
        self.banks.len()
    }

    /// Whether bank `bank` can accept another request.
    #[must_use]
    pub fn can_accept(&self, bank: usize) -> bool {
        self.queues[bank].reqs.len() < self.capacity
    }

    /// Total queued requests across banks.
    #[must_use]
    pub fn queued(&self) -> usize {
        self.queues.iter().map(|q| q.reqs.len()).sum()
    }

    /// The cycle at which the refresh blackout in progress ends (at or
    /// before any cycle already ticked when none is).
    #[must_use]
    pub(crate) fn blackout_end(&self) -> u64 {
        self.refresh_in_progress_until
    }

    /// Ticks cycles `from..to` at once. All of them must lie inside the
    /// refresh blackout in progress, where a tick only counts a blackout
    /// cycle.
    pub(crate) fn tick_blackout(&mut self, from: u64, to: u64) {
        debug_assert!(from <= to && to <= self.refresh_in_progress_until);
        self.stats.refresh_blackout_cycles += to - from;
    }

    /// Appends `req` to its bank's queue, counting it if it hits the open
    /// row.
    fn push(&mut self, req: MemRequest) {
        let queue = &mut self.queues[req.bank];
        if self.banks[req.bank].open_row() == Some(req.row) {
            queue.open_hits += 1;
        }
        queue.reqs.push_back(req);
    }

    /// Replaces the fault-injection session (tests and harnesses that
    /// install a plan after construction).
    pub fn set_fault_session(&mut self, session: Option<FaultSession>) {
        self.faults = session;
    }

    /// Enqueues a request, handing it back with a typed reason if it cannot
    /// be accepted.
    ///
    /// With an active [`FaultPlan`](faultinject::FaultPlan), the
    /// [`Site::SimCmdDrop`] site swallows test-engine commands outright
    /// (modeling a lost controller command — the test traffic layer never
    /// awaits individual completions) and bounces demand commands back as
    /// [`EnqueueError::FaultDropped`]; [`Site::SimCmdDup`] enqueues a
    /// test-engine command twice when the queue has room.
    ///
    /// # Errors
    ///
    /// The rejected request is handed back so the issuer can retry.
    pub fn enqueue(&mut self, req: MemRequest) -> Result<(), EnqueueError> {
        if let Some(faults) = &mut self.faults {
            if faults.fires(Site::SimCmdDrop) {
                self.stats.faults_dropped += 1;
                if req.requester == Requester::TestEngine {
                    return Ok(()); // command lost in flight
                }
                return Err(EnqueueError::FaultDropped(req));
            }
            if faults.fires(Site::SimCmdDup)
                && req.requester == Requester::TestEngine
                && self.queues[req.bank].reqs.len() + 2 <= self.capacity
            {
                self.stats.faults_duplicated += 1;
                self.push(req);
                self.push(req);
                return Ok(());
            }
        }
        if self.can_accept(req.bank) {
            self.push(req);
            Ok(())
        } else {
            self.stats.rejected += 1;
            Err(EnqueueError::QueueFull(req))
        }
    }

    /// Drains the completions produced so far; the buffer keeps its
    /// capacity for the next ones.
    pub fn drain_completions(&mut self) -> std::vec::Drain<'_, Completion> {
        self.completions.drain(..)
    }

    /// Refresh-operation count so far.
    #[must_use]
    pub fn refreshes_issued(&self) -> u64 {
        self.refresh.issued
    }

    /// Issues the column command of queued request `queue_idx`, an
    /// open-row hit.
    fn issue_column(&mut self, bank: usize, queue_idx: usize, now: u64) {
        let queue = &mut self.queues[bank];
        let Some(req) = queue.reqs.remove(queue_idx) else {
            debug_assert!(false, "column issue with stale queue index {queue_idx}");
            return;
        };
        queue.open_hits -= 1;
        let cmd = if req.is_write {
            DramCommand::Write
        } else {
            DramCommand::Read
        };
        let Some(done) = self.issue_checked(bank, cmd, req.row, now) else {
            // Unreachable by construction (the scheduler checked legality);
            // requeue at the front so the request is not lost.
            let queue = &mut self.queues[bank];
            queue.reqs.push_front(req);
            queue.open_hits += 1;
            return;
        };
        self.bus_free = now + BURST_CYCLES;
        self.stats.column_accesses += 1;
        if req.is_write {
            self.stats.writes += 1;
        } else {
            self.stats.reads += 1;
        }
        self.completions.push(Completion {
            id: req.id,
            requester: req.requester,
            is_write: req.is_write,
            done_cycle: done,
        });
    }

    /// Advances the controller by one cycle, possibly issuing one command.
    pub fn tick(&mut self, now: u64) {
        if now < self.refresh_in_progress_until {
            self.stats.refresh_blackout_cycles += 1;
            return;
        }

        if self.refresh.due(now) {
            // Drain: precharge any open bank as soon as legal.
            let mut all_idle = true;
            let mut latest_ready = now;
            for b in 0..self.banks.len() {
                if self.banks[b].open_row().is_some() {
                    all_idle = false;
                    if self.banks[b].check(DramCommand::Precharge, now).is_ok() {
                        let _ = self.issue_checked(b, DramCommand::Precharge, 0, now);
                        // One command per cycle.
                        return;
                    }
                } else {
                    latest_ready =
                        latest_ready.max(self.banks[b].ready_cycle(DramCommand::Refresh));
                }
            }
            if all_idle && latest_ready <= now {
                let mut end = self.refresh.start(now, self.timing.trfc_cycles());
                if self
                    .faults
                    .as_mut()
                    .is_some_and(|f| f.fires(Site::SimRefreshOverrun))
                {
                    // Slow-silicon refresh: the blackout overruns the
                    // datasheet tRFC by half. Commands merely wait longer, so
                    // no protocol rule is violated — the cost shows up as
                    // extra blackout cycles.
                    let extra = self.timing.trfc_cycles() / 2;
                    self.stats.faults_refresh_overrun_cycles += extra;
                    end += extra;
                }
                for b in &mut self.banks {
                    b.block_until(end);
                }
                self.observe(CmdRecord::rank_cmd(now, DramCommand::Refresh));
                self.refresh_in_progress_until = end;
                self.stats.refreshes = self.refresh.issued;
                self.stats.refresh_blackout_cycles += 1; // the issuing cycle
                return;
            }
            // Waiting for tRAS/tRP to drain; issue nothing else so the
            // refresh is not postponed indefinitely.
            return;
        }

        // FR-FCFS round-robin over banks.
        let n = self.banks.len();
        // Bus model: a burst occupies [issue+CL, issue+CL+BURST); a new
        // column command may issue when its data window starts at or after
        // the previous burst's end.
        if now < self.bus_free {
            // No column command can go this cycle; ACT/PRE still can.
            self.act_or_pre_pass(now);
            return;
        }
        // Pass 1: oldest row-hit column command anywhere. Banks whose
        // oldest request has starved past the limit stop accepting younger
        // hits so pass 2 can precharge toward the starved row.
        let mut next = self.rr_start;
        for _ in 0..n {
            let bank = next;
            next = if next + 1 == n { 0 } else { next + 1 };
            if self.queues[bank].open_hits == 0 {
                continue;
            }
            let Some(open) = self.banks[bank].open_row() else {
                continue;
            };
            if self.front_is_starved(bank, open, now) {
                continue;
            }
            let reqs = &self.queues[bank].reqs;
            if let Some(idx) = reqs.iter().position(|r| r.row == open) {
                let cmd = if reqs[idx].is_write {
                    DramCommand::Write
                } else {
                    DramCommand::Read
                };
                if self.banks[bank].check(cmd, now).is_ok() {
                    self.issue_column(bank, idx, now);
                    self.rr_start = next;
                    return;
                }
            }
        }
        // Pass 2: activate idle banks or precharge banks with no pending
        // row hits.
        self.act_or_pre_pass(now);
    }

    /// Activates an idle bank for its oldest request, or precharges a bank
    /// whose open row serves none of its queued requests (FR-FCFS keeps the
    /// row open while hits remain).
    fn act_or_pre_pass(&mut self, now: u64) {
        let n = self.banks.len();
        let mut next = self.rr_start;
        for _ in 0..n {
            let bank = next;
            next = if next + 1 == n { 0 } else { next + 1 };
            let Some(head) = self.queues[bank].reqs.front().copied() else {
                continue;
            };
            match self.banks[bank].open_row() {
                None => {
                    #[allow(unused_mut)]
                    let mut blocked = self.rank_act_blocked(now);
                    #[allow(unused_mut, unused_variables)]
                    let mut forced = false;
                    #[cfg(not(feature = "strict-invariants"))]
                    if blocked.is_some()
                        && self
                            .faults
                            .as_mut()
                            .is_some_and(|f| f.fires(Site::SimTimingViolation))
                    {
                        // Force the ACT through the rank constraint: a real
                        // DDR3 tRRD/tFAW violation that the offline
                        // ProtocolChecker audit must flag. (The online
                        // strict-invariants checker would abort the process
                        // on the spot, so this site is compiled out there.)
                        forced = true;
                        blocked = None;
                    }
                    match blocked {
                        Some(ActBlock::Trrd) => self.stats.trrd_stalls += 1,
                        Some(ActBlock::Tfaw) => self.stats.tfaw_stalls += 1,
                        None => {
                            if self.banks[bank].check(DramCommand::Activate, now).is_ok() {
                                // The fault only counts when the ACT really
                                // issues (the bank automaton may still veto
                                // it, e.g. mid-tRP): `faults_timing` is the
                                // audit's expected-violation floor.
                                if forced {
                                    self.stats.faults_timing += 1;
                                }
                                let _ =
                                    self.issue_checked(bank, DramCommand::Activate, head.row, now);
                                self.note_act(now);
                                self.stats.acts += 1;
                                self.rr_start = next;
                                return;
                            }
                        }
                    }
                }
                Some(open) => {
                    let drain =
                        self.queues[bank].open_hits == 0 || self.front_is_starved(bank, open, now);
                    if drain && self.banks[bank].check(DramCommand::Precharge, now).is_ok() {
                        let _ = self.issue_checked(bank, DramCommand::Precharge, 0, now);
                        self.rr_start = next;
                        return;
                    }
                }
            }
        }
    }

    /// Whether `bank`'s oldest request targets a different row and has
    /// waited past the starvation limit.
    fn front_is_starved(&self, bank: usize, open_row: u32, now: u64) -> bool {
        self.queues[bank].reqs.front().is_some_and(|front| {
            front.row != open_row
                && now.saturating_sub(front.arrive_cycle) > STARVATION_LIMIT_CYCLES
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{RefreshPolicy, SystemConfig};
    use crate::request::Requester;
    use dram::geometry::ChipDensity;

    fn config(policy: RefreshPolicy) -> SystemConfig {
        SystemConfig::new(1, ChipDensity::Gb8, policy)
    }

    fn req(id: u64, bank: usize, row: u32, block: u32, is_write: bool) -> MemRequest {
        MemRequest {
            id,
            requester: Requester::Core(0),
            bank,
            row,
            block,
            is_write,
            arrive_cycle: 0,
        }
    }

    fn run_until_complete(ctrl: &mut MemoryController, max_cycles: u64) -> Vec<Completion> {
        let mut done = Vec::new();
        for now in 0..max_cycles {
            ctrl.tick(now);
            done.extend(ctrl.drain_completions());
            if ctrl.queued() == 0 && !done.is_empty() {
                break;
            }
        }
        done
    }

    #[test]
    fn single_read_completes_with_expected_latency() {
        let cfg = config(RefreshPolicy::None);
        let mut ctrl = MemoryController::new(&cfg);
        ctrl.enqueue(req(1, 0, 10, 0, false)).unwrap();
        let done = run_until_complete(&mut ctrl, 1000);
        assert_eq!(done.len(), 1);
        // ACT at 0, RD at tRCD (9), data at 9 + tCL (11) + burst (4) = 24.
        assert_eq!(done[0].done_cycle, 24);
        assert_eq!(ctrl.stats.acts, 1);
        assert_eq!(ctrl.stats.reads, 1);
    }

    #[test]
    fn row_hits_are_prioritized() {
        let cfg = config(RefreshPolicy::None);
        let mut ctrl = MemoryController::new(&cfg);
        // Same bank: row 5 first, then row 9, then row 5 again. FR-FCFS
        // should serve both row-5 requests before opening row 9.
        ctrl.enqueue(req(1, 0, 5, 0, false)).unwrap();
        ctrl.enqueue(req(2, 0, 9, 0, false)).unwrap();
        ctrl.enqueue(req(3, 0, 5, 1, false)).unwrap();
        let done = run_until_complete(&mut ctrl, 10_000);
        assert_eq!(done.len(), 3);
        let order: Vec<u64> = done.iter().map(|c| c.id).collect();
        assert_eq!(order, vec![1, 3, 2]);
        assert_eq!(ctrl.stats.acts, 2, "row 5 opened once, row 9 once");
    }

    #[test]
    fn banks_operate_in_parallel() {
        let cfg = config(RefreshPolicy::None);
        // Two requests to different banks should overlap: total time well
        // under 2x the single-request latency plus a burst.
        let mut ctrl = MemoryController::new(&cfg);
        ctrl.enqueue(req(1, 0, 10, 0, false)).unwrap();
        ctrl.enqueue(req(2, 1, 20, 0, false)).unwrap();
        let done = run_until_complete(&mut ctrl, 1000);
        assert_eq!(done.len(), 2);
        let last = done.iter().map(|c| c.done_cycle).max().unwrap();
        assert!(last <= 24 + 8, "banks should overlap, finished at {last}");
    }

    #[test]
    fn queue_capacity_enforced() {
        let mut cfg = config(RefreshPolicy::None);
        cfg.queue_capacity = 2;
        let mut ctrl = MemoryController::new(&cfg);
        assert!(ctrl.enqueue(req(1, 0, 1, 0, false)).is_ok());
        assert!(ctrl.enqueue(req(2, 0, 2, 0, false)).is_ok());
        assert!(ctrl.enqueue(req(3, 0, 3, 0, false)).is_err());
        assert_eq!(ctrl.stats.rejected, 1);
    }

    #[test]
    fn refresh_happens_at_trefi_rate() {
        let cfg = config(RefreshPolicy::baseline_16ms());
        let mut ctrl = MemoryController::new(&cfg);
        let horizon = 1563 * 100;
        for now in 0..horizon {
            ctrl.tick(now);
        }
        let issued = ctrl.refreshes_issued();
        assert!(
            (97..=100).contains(&issued),
            "expected ~100 refreshes, got {issued}"
        );
    }

    #[test]
    fn refresh_drains_open_rows_first() {
        let cfg = config(RefreshPolicy::baseline_16ms());
        let mut ctrl = MemoryController::new(&cfg);
        // Occupy a bank just before the refresh deadline.
        ctrl.enqueue(req(1, 0, 10, 0, false)).unwrap();
        let mut completions = Vec::new();
        for now in 0..20_000 {
            ctrl.tick(now);
            completions.extend(ctrl.drain_completions());
        }
        assert_eq!(completions.len(), 1);
        assert!(ctrl.refreshes_issued() > 0);
    }

    #[test]
    fn reads_stall_during_refresh_blackout() {
        let cfg = config(RefreshPolicy::baseline_16ms());
        let trefi = 1563u64;
        let mut ctrl = MemoryController::new(&cfg);
        // Let the first refresh start, then enqueue; the read must wait
        // until the blackout ends.
        for now in 0..=trefi {
            ctrl.tick(now);
        }
        assert!(ctrl.refreshes_issued() >= 1);
        ctrl.enqueue(req(1, 0, 10, 0, false)).unwrap();
        let mut done = Vec::new();
        for now in (trefi + 1)..(trefi + 2000) {
            ctrl.tick(now);
            done.extend(ctrl.drain_completions());
            if !done.is_empty() {
                break;
            }
        }
        // tRFC = 280 cycles blackout; completion must come after it.
        assert!(
            done[0].done_cycle >= trefi + 280,
            "done at {}",
            done[0].done_cycle
        );
    }

    #[test]
    fn no_refresh_policy_never_refreshes() {
        let cfg = config(RefreshPolicy::None);
        let mut ctrl = MemoryController::new(&cfg);
        for now in 0..100_000 {
            ctrl.tick(now);
        }
        assert_eq!(ctrl.refreshes_issued(), 0);
    }

    use faultinject::{FaultPlan, FaultSession, SiteSpec};
    use std::sync::Arc;

    fn faulted(cfg: &SystemConfig, site: Site) -> MemoryController {
        let mut ctrl = MemoryController::new(cfg);
        let plan = Arc::new(FaultPlan::new(0xFA11).with_site(site, SiteSpec::rate(1.0)));
        ctrl.set_fault_session(Some(FaultSession::with_plan(plan)));
        ctrl
    }

    #[test]
    fn injected_drops_swallow_test_commands_and_bounce_demand() {
        let cfg = config(RefreshPolicy::None);
        let mut ctrl = faulted(&cfg, Site::SimCmdDrop);
        let mut test_req = req(1, 0, 1, 0, false);
        test_req.requester = Requester::TestEngine;
        assert!(ctrl.enqueue(test_req).is_ok(), "swallowed, not rejected");
        assert_eq!(ctrl.queued(), 0, "the command was lost in flight");
        match ctrl.enqueue(req(2, 0, 1, 0, false)) {
            Err(EnqueueError::FaultDropped(r)) => assert_eq!(r.id, 2),
            other => panic!("demand request must bounce, got {other:?}"),
        }
        assert_eq!(ctrl.stats.faults_dropped, 2);
        assert_eq!(ctrl.stats.rejected, 0, "fault drops are not queue-fulls");
    }

    #[test]
    fn injected_duplicates_double_test_commands_only() {
        let cfg = config(RefreshPolicy::None);
        let mut ctrl = faulted(&cfg, Site::SimCmdDup);
        let mut test_req = req(1, 0, 1, 0, false);
        test_req.requester = Requester::TestEngine;
        ctrl.enqueue(test_req).unwrap();
        assert_eq!(ctrl.queued(), 2, "test command duplicated");
        assert_eq!(ctrl.stats.faults_duplicated, 1);
        ctrl.enqueue(req(2, 1, 1, 0, false)).unwrap();
        assert_eq!(ctrl.queued(), 3, "demand commands never duplicate");
    }

    #[cfg(not(feature = "strict-invariants"))]
    #[test]
    fn injected_timing_violations_are_flagged_by_the_offline_audit() {
        let cfg = config(RefreshPolicy::None);
        let mut ctrl = faulted(&cfg, Site::SimTimingViolation);
        ctrl.record_commands(true);
        // Requests on many banks provoke back-to-back ACTs that tRRD would
        // normally space out; the injector forces them through.
        for (i, b) in (0..8).enumerate() {
            ctrl.enqueue(req(i as u64, b, 10, 0, false)).unwrap();
        }
        let done = run_until_complete(&mut ctrl, 10_000);
        assert_eq!(done.len(), 8);
        assert!(ctrl.stats.faults_timing > 0, "no violation was injected");
        let trace = ctrl.take_command_trace();
        let violations =
            crate::protocol::ProtocolChecker::audit(*ctrl.timing(), ctrl.n_banks(), None, &trace);
        assert!(
            !violations.is_empty(),
            "the offline audit must flag the forced ACTs"
        );
    }

    #[test]
    fn injected_refresh_overruns_extend_the_blackout() {
        let cfg = config(RefreshPolicy::baseline_16ms());
        let mut plain = MemoryController::new(&cfg);
        let mut slow = faulted(&cfg, Site::SimRefreshOverrun);
        for now in 0..20_000 {
            plain.tick(now);
            slow.tick(now);
        }
        assert!(slow.stats.faults_refresh_overrun_cycles > 0);
        assert!(
            slow.stats.refresh_blackout_cycles > plain.stats.refresh_blackout_cycles,
            "overrun must cost blackout cycles: {} vs {}",
            slow.stats.refresh_blackout_cycles,
            plain.stats.refresh_blackout_cycles
        );
    }

    #[test]
    fn write_then_read_same_row() {
        let cfg = config(RefreshPolicy::None);
        let mut ctrl = MemoryController::new(&cfg);
        ctrl.enqueue(req(1, 0, 4, 0, true)).unwrap();
        ctrl.enqueue(req(2, 0, 4, 1, false)).unwrap();
        let done = run_until_complete(&mut ctrl, 10_000);
        assert_eq!(done.len(), 2);
        assert!(done[0].is_write);
        assert!(!done[1].is_write);
        assert!(done[1].done_cycle > done[0].done_cycle);
    }
}
