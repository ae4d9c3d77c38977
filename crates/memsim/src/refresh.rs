//! Rank-level refresh scheduling.
//!
//! DDR3 refresh is a rank-wide operation: every `tREFI` the controller must
//! issue a `REF` that occupies the whole rank for `tRFC`. All banks must be
//! precharged first, so a due refresh forces the controller to drain open
//! rows. The MEMCON/RAIDR multi-rate policies are modelled (as in the paper)
//! by stretching the effective `tREFI` according to the refresh-operation
//! reduction they achieve.

use crate::config::RefreshPolicy;
use dram::timing::TimingParams;

/// Tracks when refreshes are due and how many were issued.
#[derive(Debug, Clone, PartialEq)]
pub struct RefreshScheduler {
    trefi_cycles: Option<u64>,
    next_due: u64,
    /// Number of refresh commands issued.
    pub issued: u64,
}

impl RefreshScheduler {
    /// Builds a scheduler for the given policy and timing.
    #[must_use]
    pub fn new(policy: RefreshPolicy, timing: &TimingParams) -> Self {
        let trefi = policy.trefi_cycles(timing);
        RefreshScheduler {
            trefi_cycles: trefi,
            next_due: trefi.unwrap_or(u64::MAX),
            issued: 0,
        }
    }

    /// Effective refresh command interval, if refresh is enabled.
    #[must_use]
    pub fn trefi_cycles(&self) -> Option<u64> {
        self.trefi_cycles
    }

    /// Whether a refresh is due at `now`.
    #[must_use]
    pub fn due(&self, now: u64) -> bool {
        now >= self.next_due
    }

    /// Records that a refresh started at `now`, blacking the rank out for
    /// `trfc_cycles`. Returns the cycle the rank becomes usable again.
    ///
    /// # Panics
    ///
    /// Panics if refresh is disabled.
    pub fn start(&mut self, now: u64, trfc_cycles: u64) -> u64 {
        let trefi = self
            .trefi_cycles
            .expect("cannot start refresh with refresh disabled");
        self.issued += 1;
        // Schedule strictly from the previous due point so a late refresh
        // does not slip the long-run rate (DDR3 allows bounded postponement).
        self.next_due = self.next_due.max(now.saturating_sub(8 * trefi)) + trefi;
        now + trfc_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RefreshPolicy;

    fn timing() -> TimingParams {
        TimingParams::ddr3_1600()
    }

    #[test]
    fn disabled_policy_is_never_due() {
        let s = RefreshScheduler::new(RefreshPolicy::None, &timing());
        assert!(!s.due(u64::MAX - 1));
        assert_eq!(s.trefi_cycles(), None);
    }

    #[test]
    fn due_at_trefi() {
        let s = RefreshScheduler::new(RefreshPolicy::baseline_16ms(), &timing());
        let trefi = s.trefi_cycles().unwrap();
        assert!(!s.due(trefi - 1));
        assert!(s.due(trefi));
    }

    #[test]
    fn long_run_rate_is_preserved() {
        let t = timing();
        let mut s = RefreshScheduler::new(RefreshPolicy::baseline_16ms(), &t);
        let trefi = s.trefi_cycles().unwrap();
        let trfc = t.trfc_cycles();
        let horizon = trefi * 1000;
        let mut now = 0;
        while now < horizon {
            if s.due(now) {
                now = s.start(now, trfc);
            } else {
                now += 1;
            }
        }
        // Should have issued very close to horizon / trefi refreshes.
        let expected = horizon / trefi;
        assert!(
            s.issued >= expected - 2 && s.issued <= expected + 2,
            "issued {} vs expected {expected}",
            s.issued
        );
    }

    #[test]
    fn reduced_policy_issues_fewer() {
        let t = timing();
        let run = |policy: RefreshPolicy| {
            let mut s = RefreshScheduler::new(policy, &t);
            let horizon = 10_000_000u64;
            let mut now = 0;
            while now < horizon {
                if s.due(now) {
                    now = s.start(now, t.trfc_cycles());
                } else {
                    now += 64;
                }
            }
            s.issued
        };
        let base = run(RefreshPolicy::baseline_16ms());
        let reduced = run(RefreshPolicy::Reduced {
            baseline_interval_ms: 16.0,
            reduction: 0.75,
        });
        let ratio = reduced as f64 / base as f64;
        assert!(
            (ratio - 0.25).abs() < 0.02,
            "75% reduction should issue ~25% of refreshes, got ratio {ratio}"
        );
    }

    #[test]
    #[should_panic(expected = "refresh disabled")]
    fn start_without_refresh_panics() {
        let mut s = RefreshScheduler::new(RefreshPolicy::None, &timing());
        let _ = s.start(0, 10);
    }
}
