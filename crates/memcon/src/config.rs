//! MEMCON engine configuration.

use memutil::codec::Io;

use crate::cost::{CostModel, TestMode};

/// Recovery policy: how the engine reacts to aborted/ambiguous tests
/// (fault injection, preempting writes, ECC trouble).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Consecutive aborted/ambiguous attempts (without an intervening
    /// clean verdict) after which the page is pinned to the high-refresh
    /// bin until a clean test completes.
    pub max_attempts: u32,
    /// Cap of the exponential retry backoff, in time quanta: attempt `k`
    /// waits `min(2^(k-1), cap)` quanta before re-testing.
    pub backoff_cap_quanta: u32,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_attempts: 3,
            backoff_cap_quanta: 8,
        }
    }
}

/// Configuration of a MEMCON deployment (paper Sections 3–4, Table 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemconConfig {
    /// PRIL quantum length in ms (paper evaluates 512, 1024, 2048).
    pub quantum_ms: f64,
    /// HI-REF per-row refresh interval in ms (paper: 16).
    pub hi_ms: f64,
    /// LO-REF per-row refresh interval in ms (paper: 64).
    pub lo_ms: f64,
    /// Test mode (buffering strategy).
    pub test_mode: TestMode,
    /// Maximum tests in flight at once (paper Table 3: 256–1024 per 64 ms
    /// window; the engine caps in-flight tests at this value).
    pub concurrent_tests: u32,
    /// PRIL write-buffer capacity in page addresses (paper Section 6.4:
    /// ~4000 entries suffice).
    pub write_buffer_capacity: usize,
    /// Whether the run starts in steady state: the paper's traces begin
    /// *after* the initialization phase of a long-running system, at which
    /// point every page holding static (read-only or not-yet-rewritten)
    /// content has already been tested — clean pages sit at LO-REF from
    /// time 0 (Section 6.1 counts read-only rows as LO-REF). Disable for
    /// cold-boot studies.
    pub steady_state_start: bool,
    /// Abort/retry and fail-safe degradation policy.
    pub recovery: RecoveryPolicy,
}

impl MemconConfig {
    /// The paper's main configuration: 1024 ms quantum, 16/64 ms HI/LO,
    /// Read-and-Compare, 1024 concurrent tests, 4096-entry write buffer.
    #[must_use]
    pub fn paper_default() -> Self {
        MemconConfig {
            quantum_ms: 1024.0,
            hi_ms: 16.0,
            lo_ms: 64.0,
            test_mode: TestMode::ReadAndCompare,
            concurrent_tests: 1024,
            write_buffer_capacity: 4096,
            steady_state_start: true,
            recovery: RecoveryPolicy::default(),
        }
    }

    /// The same configuration starting from a cold boot (every page at
    /// HI-REF until first tested).
    #[must_use]
    pub fn with_cold_start(mut self) -> Self {
        self.steady_state_start = false;
        self
    }

    /// The same configuration with a different PRIL quantum (the CIL knob of
    /// Figs. 14/17).
    #[must_use]
    pub fn with_quantum_ms(mut self, quantum_ms: f64) -> Self {
        self.quantum_ms = quantum_ms;
        self
    }

    /// The same configuration with a different test mode.
    #[must_use]
    pub fn with_test_mode(mut self, mode: TestMode) -> Self {
        self.test_mode = mode;
        self
    }

    /// The cost model induced by this configuration (DDR3-1600, 8 KB rows).
    #[must_use]
    pub fn cost_model(&self) -> CostModel {
        CostModel::new(
            &dram::timing::TimingParams::ddr3_1600(),
            128,
            self.hi_ms,
            self.lo_ms,
        )
    }

    /// The MinWriteInterval of this configuration, in ms.
    #[must_use]
    pub fn min_write_interval_ms(&self) -> f64 {
        self.cost_model().min_write_interval_ms(self.test_mode)
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.quantum_ms < 1.0 || self.quantum_ms.is_nan() {
            // Sub-millisecond quanta are meaningless (writes within 1 ms
            // self-refresh the row) and would truncate to zero nanoseconds.
            return Err("quantum must be at least 1 ms".into());
        }
        if !(self.hi_ms > 0.0 && self.lo_ms > self.hi_ms) {
            return Err("need 0 < HI < LO refresh intervals".into());
        }
        if self.concurrent_tests == 0 {
            return Err("need at least one concurrent test slot".into());
        }
        if self.write_buffer_capacity == 0 {
            return Err("write buffer must have capacity".into());
        }
        if self.recovery.max_attempts == 0 {
            return Err("recovery needs at least one attempt before pinning".into());
        }
        if self.recovery.backoff_cap_quanta == 0 {
            return Err("recovery backoff cap must be at least one quantum".into());
        }
        Ok(())
    }

    /// The configuration's field list (see [`memutil::codec`]): the head
    /// of every engine checkpoint, from which restore rebuilds the engine.
    ///
    /// # Errors
    ///
    /// When decoding, truncated input, an unknown test mode, a capacity
    /// past the address space, or a configuration [`Self::validate`]
    /// refuses.
    pub(crate) fn fields(&mut self, io: &mut Io) -> Result<(), String> {
        let MemconConfig {
            quantum_ms,
            hi_ms,
            lo_ms,
            test_mode,
            concurrent_tests,
            write_buffer_capacity,
            steady_state_start,
            recovery:
                RecoveryPolicy {
                    max_attempts,
                    backoff_cap_quanta,
                },
        } = self;
        for interval in [quantum_ms, hi_ms, lo_ms] {
            io.f64(interval)?;
        }
        let modes = [TestMode::ReadAndCompare, TestMode::CopyAndCompare];
        io.tag(test_mode, &modes, "test mode")?;
        io.u32(concurrent_tests)?;
        io.usize(write_buffer_capacity)?;
        io.bool(steady_state_start)?;
        io.u32(max_attempts)?;
        io.u32(backoff_cap_quanta)?;
        self.validate()
    }
}

impl Default for MemconConfig {
    fn default() -> Self {
        MemconConfig::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_valid_and_matches_paper() {
        let c = MemconConfig::paper_default();
        assert!(c.validate().is_ok());
        assert_eq!(c.min_write_interval_ms(), 560.0);
        assert_eq!(
            c.with_test_mode(TestMode::CopyAndCompare)
                .min_write_interval_ms(),
            864.0
        );
    }

    #[test]
    fn builders() {
        let c = MemconConfig::paper_default().with_quantum_ms(512.0);
        assert_eq!(c.quantum_ms, 512.0);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_catches_errors() {
        let mut c = MemconConfig::paper_default();
        c.quantum_ms = 0.0;
        assert!(c.validate().is_err());
        let mut c = MemconConfig::paper_default();
        c.lo_ms = 8.0;
        assert!(c.validate().is_err());
        let mut c = MemconConfig::paper_default();
        c.concurrent_tests = 0;
        assert!(c.validate().is_err());
        let mut c = MemconConfig::paper_default();
        c.write_buffer_capacity = 0;
        assert!(c.validate().is_err());
        let mut c = MemconConfig::paper_default();
        c.recovery.max_attempts = 0;
        assert!(c.validate().is_err());
        let mut c = MemconConfig::paper_default();
        c.recovery.backoff_cap_quanta = 0;
        assert!(c.validate().is_err());
    }
}
