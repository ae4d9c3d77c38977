//! USIMM-style out-of-order core frontend.
//!
//! The paper's performance model needs exactly what this captures: memory
//! reads expose latency only when they block retirement at the head of a
//! 128-entry instruction window, writes retire into a write buffer, and
//! fetch stalls when the window or the memory queues fill. One instruction
//! window entry per instruction; runs of non-memory instructions are stored
//! run-length-encoded.

use std::collections::VecDeque;

use memtrace::cpu::{AccessTraceGenerator, CpuAccess};

use crate::controller::MemoryController;
use crate::request::{MemRequest, RequestId, Requester};

/// One instruction-window entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RobEntry {
    /// A run of non-memory instructions.
    NonMem(u64),
    /// A load and whether its request has completed; it retires only once
    /// it has.
    Read(RequestId, bool),
    /// A store; retires immediately (write buffer).
    Write,
}

/// Maps a workload-local row onto (bank, device row) — row-interleaved
/// across banks, with a per-core base offset spreading cores across the row
/// space. Footprints larger than the per-core span wrap and may alias other
/// cores' rows, like physical pages shared across a real multiprogrammed
/// system — harmless for timing, slightly favourable for row-buffer
/// locality.
#[derive(Debug, Clone, Copy)]
pub struct AddressMap {
    /// Number of banks to interleave across.
    pub n_banks: usize,
    /// Rows per bank in the device.
    pub rows_per_bank: u32,
    /// Per-core row offset.
    pub row_base: u32,
}

impl AddressMap {
    /// Maps a local row id to `(bank, device_row)`.
    #[must_use]
    pub fn map(&self, local_row: u64) -> (usize, u32) {
        let bank = (local_row % self.n_banks as u64) as usize;
        let row = ((local_row / self.n_banks as u64) as u32).wrapping_add(self.row_base)
            % self.rows_per_bank;
        (bank, row)
    }
}

/// The out-of-order core model.
#[derive(Debug)]
pub struct OooCore {
    id: u8,
    gen: AccessTraceGenerator,
    map: AddressMap,
    window: u64,
    rob: VecDeque<RobEntry>,
    rob_occupancy: u64,
    /// Non-memory instructions of the current gap still to fetch.
    gap_remaining: u64,
    /// The memory access waiting to be fetched/issued.
    pending: Option<CpuAccess>,
    retired: u64,
    target: u64,
    /// DRAM cycle at which the retirement target was reached.
    pub finished_at: Option<u64>,
}

impl OooCore {
    /// Creates a core with the given trace generator, address map, and
    /// window capacity.
    #[must_use]
    pub fn new(
        id: u8,
        gen: AccessTraceGenerator,
        map: AddressMap,
        window: u64,
        target: u64,
    ) -> Self {
        let mut core = OooCore {
            id,
            gen,
            map,
            window,
            rob: VecDeque::new(),
            rob_occupancy: 0,
            gap_remaining: 0,
            pending: None,
            retired: 0,
            target,
            finished_at: None,
        };
        core.advance_access();
        core
    }

    fn advance_access(&mut self) {
        let access = self.gen.next().expect("generator is infinite");
        self.gap_remaining = access.inst_gap;
        self.pending = Some(access);
    }

    /// Instructions retired so far.
    #[must_use]
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Whether the retirement target has been reached.
    #[must_use]
    pub fn done(&self) -> bool {
        self.finished_at.is_some()
    }

    /// Notifies the core that read `id` completed: its window entry is
    /// marked done. A load stays in the window until it retires, so only
    /// a load fetched by an earlier run's core has no entry.
    pub fn on_completion(&mut self, id: RequestId) {
        let entry = self
            .rob
            .iter_mut()
            .find(|e| matches!(e, RobEntry::Read(r, _) if *r == id));
        if let Some(RobEntry::Read(_, done)) = entry {
            *done = true;
        }
    }

    /// Whether a [`OooCore::step`] would change nothing until a load
    /// completes: the load at the window head is outstanding, and fetch can
    /// place nothing, because the window is full or the next access's bank
    /// queue is.
    #[must_use]
    pub(crate) fn quiescent(&self, controller: &MemoryController) -> bool {
        if !matches!(self.rob.front(), Some(RobEntry::Read(_, false))) {
            return false;
        }
        if self.rob_occupancy >= self.window {
            return true;
        }
        self.gap_remaining == 0
            && self
                .pending
                .is_some_and(|a| !controller.can_accept(self.map.map(a.row).0))
    }

    /// Fetch + retire for one DRAM cycle. `budget` is the instruction budget
    /// (width × CPU cycles per DRAM cycle). `next_id` supplies fresh request
    /// ids.
    pub fn step(
        &mut self,
        now: u64,
        budget: u64,
        controller: &mut MemoryController,
        next_id: &mut RequestId,
    ) {
        self.fetch(now, budget, controller, next_id);
        self.retire(now, budget);
    }

    fn fetch(
        &mut self,
        now: u64,
        mut budget: u64,
        controller: &mut MemoryController,
        next_id: &mut RequestId,
    ) {
        while budget > 0 && self.rob_occupancy < self.window {
            if self.gap_remaining > 0 {
                let take = self
                    .gap_remaining
                    .min(budget)
                    .min(self.window - self.rob_occupancy);
                if let Some(RobEntry::NonMem(n)) = self.rob.back_mut() {
                    *n += take;
                } else {
                    self.rob.push_back(RobEntry::NonMem(take));
                }
                self.rob_occupancy += take;
                self.gap_remaining -= take;
                budget -= take;
                continue;
            }
            // The pending access itself.
            let access = self.pending.expect("pending access present when gap is 0");
            let (bank, row) = self.map.map(access.row);
            if !controller.can_accept(bank) {
                return; // fetch stalls until queue space frees up
            }
            let id = *next_id;
            *next_id += 1;
            let req = MemRequest {
                id,
                requester: Requester::Core(self.id),
                bank,
                row,
                block: access.block,
                is_write: access.is_write,
                arrive_cycle: now,
            };
            if let Err(e) = controller.enqueue(req) {
                // `can_accept` held, so only the fault injector can bounce
                // the command; give back the id and retry next cycle — a
                // core must never lose an access.
                debug_assert!(
                    matches!(e, crate::controller::EnqueueError::FaultDropped(_)),
                    "queue-full despite can_accept: {e}"
                );
                *next_id -= 1;
                return;
            }
            self.rob.push_back(if access.is_write {
                RobEntry::Write
            } else {
                RobEntry::Read(id, false)
            });
            self.rob_occupancy += 1;
            budget -= 1;
            self.advance_access();
        }
    }

    fn retire(&mut self, now: u64, mut budget: u64) {
        while budget > 0 {
            match self.rob.front_mut() {
                None => return,
                Some(RobEntry::NonMem(n)) => {
                    let take = (*n).min(budget);
                    *n -= take;
                    let emptied = *n == 0;
                    budget -= take;
                    self.rob_occupancy -= take;
                    self.bump_retired(take, now);
                    if emptied {
                        self.rob.pop_front();
                    }
                }
                Some(RobEntry::Write | RobEntry::Read(_, true)) => {
                    self.rob.pop_front();
                    self.rob_occupancy -= 1;
                    budget -= 1;
                    self.bump_retired(1, now);
                }
                Some(RobEntry::Read(_, false)) => return, // head load outstanding
            }
        }
    }

    fn bump_retired(&mut self, n: u64, now: u64) {
        self.retired += n;
        if self.finished_at.is_none() && self.retired >= self.target {
            self.finished_at = Some(now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{RefreshPolicy, SystemConfig};
    use dram::geometry::ChipDensity;
    use memtrace::cpu::CpuWorkloadProfile;

    fn make_core(profile: CpuWorkloadProfile, target: u64) -> (OooCore, MemoryController) {
        let cfg = SystemConfig::new(1, ChipDensity::Gb8, RefreshPolicy::None);
        let ctrl = MemoryController::new(&cfg);
        let map = AddressMap {
            n_banks: ctrl.n_banks(),
            rows_per_bank: cfg.geometry.rows_per_bank,
            row_base: 0,
        };
        let gen = AccessTraceGenerator::new(profile, 128, 42);
        (OooCore::new(0, gen, map, 128, target), ctrl)
    }

    fn low_mpki() -> CpuWorkloadProfile {
        CpuWorkloadProfile {
            name: "low",
            mpki: 1.0,
            write_frac: 0.3,
            row_locality: 0.5,
            footprint_rows: 1000,
        }
    }

    fn high_mpki() -> CpuWorkloadProfile {
        CpuWorkloadProfile {
            name: "high",
            mpki: 30.0,
            write_frac: 0.3,
            row_locality: 0.2,
            footprint_rows: 100_000,
        }
    }

    fn run(core: &mut OooCore, ctrl: &mut MemoryController, max_cycles: u64) -> u64 {
        let mut next_id = 0;
        for now in 0..max_cycles {
            ctrl.tick(now);
            for c in ctrl.drain_completions() {
                if !c.is_write {
                    core.on_completion(c.id);
                }
            }
            core.step(now, 20, ctrl, &mut next_id);
            if core.done() {
                return core.finished_at.unwrap();
            }
        }
        panic!("core did not finish in {max_cycles} cycles");
    }

    #[test]
    fn compute_bound_core_retires_at_full_width() {
        let (mut core, mut ctrl) = make_core(low_mpki(), 100_000);
        let cycles = run(&mut core, &mut ctrl, 100_000);
        // 100K instructions at 20 per DRAM cycle = 5000 cycles minimum; a
        // 1-MPKI workload should stay close to that.
        assert!(
            cycles < 12_000,
            "low-MPKI workload took {cycles} DRAM cycles for 100K inst"
        );
    }

    #[test]
    fn memory_bound_core_is_slower() {
        let (mut core_l, mut ctrl_l) = make_core(low_mpki(), 50_000);
        let (mut core_h, mut ctrl_h) = make_core(high_mpki(), 50_000);
        let fast = run(&mut core_l, &mut ctrl_l, 1_000_000);
        let slow = run(&mut core_h, &mut ctrl_h, 10_000_000);
        assert!(
            slow > 2 * fast,
            "high-MPKI ({slow}) should be much slower than low-MPKI ({fast})"
        );
    }

    #[test]
    fn window_limits_outstanding_reads() {
        let (mut core, mut ctrl) = make_core(high_mpki(), 10_000);
        let mut next_id = 0;
        // Fetch without any completions: occupancy must cap at the window.
        for now in 0..1000 {
            core.step(now, 20, &mut ctrl, &mut next_id);
        }
        assert!(core.rob_occupancy <= 128);
        assert!(!core.done());
    }

    #[test]
    fn reads_block_retirement_until_completion() {
        let profile = CpuWorkloadProfile {
            name: "allreads",
            mpki: 1000.0, // every instruction is a memory access
            write_frac: 0.0,
            row_locality: 0.9,
            footprint_rows: 10,
        };
        let (mut core, mut ctrl) = make_core(profile, 100);
        let mut next_id = 0;
        // Without draining completions, retirement stalls at the first read
        // (only the handful of non-memory gap instructions before it can
        // retire).
        for now in 0..100 {
            core.step(now, 20, &mut ctrl, &mut next_id);
        }
        assert!(core.retired() <= 5, "retired {}", core.retired());
        // With the full loop, it finishes.
        let cycles = run(&mut core, &mut ctrl, 1_000_000);
        assert!(cycles > 0);
    }

    #[test]
    fn writes_do_not_block_retirement() {
        let profile = CpuWorkloadProfile {
            name: "allwrites",
            mpki: 1000.0,
            write_frac: 1.0,
            row_locality: 0.9,
            footprint_rows: 10,
        };
        let (mut core, mut ctrl) = make_core(profile, 200);
        let mut next_id = 0;
        for now in 0..10_000 {
            ctrl.tick(now);
            let _ = ctrl.drain_completions();
            core.step(now, 20, &mut ctrl, &mut next_id);
            if core.done() {
                break;
            }
        }
        assert!(
            core.done(),
            "write-only stream should retire without completions"
        );
    }

    #[test]
    fn address_map_spreads_banks() {
        let map = AddressMap {
            n_banks: 8,
            rows_per_bank: 1024,
            row_base: 0,
        };
        let banks: std::collections::HashSet<usize> = (0..16u64).map(|r| map.map(r).0).collect();
        assert_eq!(banks.len(), 8);
        let (b0, r0) = map.map(0);
        let (b8, r8) = map.map(8);
        assert_eq!(b0, b8);
        assert_eq!(r8, r0 + 1);
    }
}
