//! MEMCON online-test traffic injection (paper Table 3).
//!
//! The paper models "256–1024 concurrent tests every 64 ms": each test reads
//! its row into the controller twice (128 blocks per pass; Copy-and-Compare
//! adds a 128-block write pass) and otherwise leaves the row idle. The
//! injector models the volume of that traffic, not its rows: it spreads
//! the window's block accesses uniformly over the window and draws a
//! fresh bank, row and block for every one, so no two accesses share a
//! test's row and nearly every injected access is a row miss of its own,
//! where a real test's passes over one row would mostly hit the open row.
//! Each access contends with demand traffic like any other requester.

use memutil::rng::SmallRng;
use memutil::rng::{Rng, SeedableRng};

use crate::controller::MemoryController;
use crate::request::{MemRequest, RequestId, Requester};

/// Configuration of the injected test traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TestInjectConfig {
    /// Tests performed per window (paper: 256, 512, or 1024).
    pub concurrent_tests: u32,
    /// Window length in milliseconds (paper: 64 ms, the LO-REF interval).
    pub window_ms: f64,
    /// Read-blocks per test (2 × 128 for both test modes).
    pub read_blocks_per_test: u32,
    /// Write-blocks per test (0 for Read-and-Compare, 128 for
    /// Copy-and-Compare).
    pub write_blocks_per_test: u32,
}

impl TestInjectConfig {
    /// Read-and-Compare traffic at the given test count.
    #[must_use]
    pub fn read_and_compare(concurrent_tests: u32) -> Self {
        TestInjectConfig {
            concurrent_tests,
            window_ms: 64.0,
            read_blocks_per_test: 256,
            write_blocks_per_test: 0,
        }
    }

    /// Copy-and-Compare traffic at the given test count.
    #[must_use]
    pub fn copy_and_compare(concurrent_tests: u32) -> Self {
        TestInjectConfig {
            concurrent_tests,
            window_ms: 64.0,
            read_blocks_per_test: 256,
            write_blocks_per_test: 128,
        }
    }

    /// Total block accesses injected per window.
    #[must_use]
    pub fn blocks_per_window(&self) -> u64 {
        u64::from(self.concurrent_tests)
            * u64::from(self.read_blocks_per_test + self.write_blocks_per_test)
    }
}

/// Uniform-rate injector of test-block requests.
#[derive(Debug)]
pub struct TestTrafficInjector {
    config: TestInjectConfig,
    interval_cycles: f64,
    next_emit: f64,
    rng: SmallRng,
    n_banks: usize,
    rows_per_bank: u32,
    write_ratio: f64,
    /// A request rejected by a full queue, retried next cycle.
    held: Option<MemRequest>,
    /// Requests successfully injected.
    pub injected: u64,
}

impl TestTrafficInjector {
    /// Creates an injector for a device with `n_banks` banks of
    /// `rows_per_bank` rows, with cycle time `tck_ns`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration injects nothing (zero tests) — use
    /// `Option<TestTrafficInjector>` for that.
    #[must_use]
    pub fn new(
        config: TestInjectConfig,
        n_banks: usize,
        rows_per_bank: u32,
        tck_ns: f64,
        seed: u64,
    ) -> Self {
        let blocks = config.blocks_per_window();
        assert!(blocks > 0, "injector configured with zero traffic");
        let window_cycles = config.window_ms * 1.0e6 / tck_ns;
        let total = u64::from(config.read_blocks_per_test + config.write_blocks_per_test);
        TestTrafficInjector {
            config,
            interval_cycles: window_cycles / blocks as f64,
            next_emit: 0.0,
            rng: SmallRng::seed_from_u64(seed),
            n_banks,
            rows_per_bank,
            write_ratio: f64::from(config.write_blocks_per_test) / total as f64,
            held: None,
            injected: 0,
        }
    }

    /// The injector's configuration.
    #[must_use]
    pub fn config(&self) -> &TestInjectConfig {
        &self.config
    }

    /// Whether [`TestTrafficInjector::step`] would do nothing at every
    /// cycle before `end`: no rejected request is held for retry and the
    /// next emission falls due at `end` or later.
    #[must_use]
    pub(crate) fn idle_before(&self, end: u64) -> bool {
        self.held.is_none() && self.next_emit > end.saturating_sub(1) as f64
    }

    /// Injects due test requests at cycle `now`.
    ///
    /// Queue rejections come back as typed
    /// [`EnqueueError`](crate::controller::EnqueueError)s: a full queue
    /// (or a fault-injected bounce) holds the request for retry next cycle;
    /// a fault-injected silent drop counts as injected — the command was
    /// accepted and then lost, exactly what the [`Site::SimCmdDrop`]
    /// site models.
    ///
    /// [`Site::SimCmdDrop`]: faultinject::Site::SimCmdDrop
    pub fn step(&mut self, now: u64, controller: &mut MemoryController, next_id: &mut RequestId) {
        // Retry a previously rejected request first.
        if let Some(req) = self.held.take() {
            match controller.enqueue(req) {
                Ok(()) => self.injected += 1,
                Err(e) => {
                    self.held = Some(e.into_request());
                    return;
                }
            }
        }
        while self.next_emit <= now as f64 {
            self.next_emit += self.interval_cycles;
            let id = *next_id;
            *next_id += 1;
            let req = MemRequest {
                id,
                requester: Requester::TestEngine,
                bank: self.rng.gen_range(0..self.n_banks),
                row: self.rng.gen_range(0..self.rows_per_bank),
                block: self.rng.gen_range(0..128),
                is_write: self.rng.gen::<f64>() < self.write_ratio,
                arrive_cycle: now,
            };
            match controller.enqueue(req) {
                Ok(()) => self.injected += 1,
                Err(e) => {
                    self.held = Some(e.into_request());
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{RefreshPolicy, SystemConfig};
    use dram::geometry::ChipDensity;

    #[test]
    fn traffic_volume_matches_table3() {
        let c = TestInjectConfig::read_and_compare(256);
        assert_eq!(c.blocks_per_window(), 256 * 256);
        let cc = TestInjectConfig::copy_and_compare(1024);
        assert_eq!(cc.blocks_per_window(), 1024 * 384);
    }

    #[test]
    fn injection_rate_is_uniform() {
        let cfg = SystemConfig::new(1, ChipDensity::Gb8, RefreshPolicy::None);
        let mut ctrl = crate::controller::MemoryController::new(&cfg);
        let inject_cfg = TestInjectConfig::read_and_compare(256);
        let mut inj = TestTrafficInjector::new(inject_cfg, 8, 1024, 1.25, 7);
        let mut next_id = 0;
        // Run 1 ms worth of cycles (800,000), draining the controller.
        let cycles = 800_000u64;
        for now in 0..cycles {
            ctrl.tick(now);
            let _ = ctrl.drain_completions();
            inj.step(now, &mut ctrl, &mut next_id);
        }
        // Expected: 256 tests x 256 blocks / 64 ms = 1024 blocks per ms.
        let expected = 1024.0;
        let got = inj.injected as f64;
        assert!(
            (got / expected - 1.0).abs() < 0.05,
            "injected {got} vs expected {expected}"
        );
    }

    #[test]
    fn copy_mode_mixes_writes() {
        let cfg = SystemConfig::new(1, ChipDensity::Gb8, RefreshPolicy::None);
        let mut ctrl = crate::controller::MemoryController::new(&cfg);
        let mut inj =
            TestTrafficInjector::new(TestInjectConfig::copy_and_compare(1024), 8, 1024, 1.25, 8);
        let mut next_id = 0;
        let mut writes = 0u64;
        let mut total = 0u64;
        for now in 0..400_000 {
            ctrl.tick(now);
            for c in ctrl.drain_completions() {
                total += 1;
                if c.is_write {
                    writes += 1;
                }
            }
            inj.step(now, &mut ctrl, &mut next_id);
        }
        assert!(total > 1000);
        let ratio = writes as f64 / total as f64;
        // 128 of 384 blocks are writes.
        assert!((ratio - 1.0 / 3.0).abs() < 0.05, "write ratio {ratio}");
    }

    #[test]
    fn held_request_is_not_lost() {
        let mut cfg = SystemConfig::new(1, ChipDensity::Gb8, RefreshPolicy::None);
        cfg.queue_capacity = 1;
        let mut ctrl = crate::controller::MemoryController::new(&cfg);
        let mut inj =
            TestTrafficInjector::new(TestInjectConfig::read_and_compare(1024), 8, 64, 1.25, 9);
        let mut next_id = 0;
        for now in 0..200_000 {
            ctrl.tick(now);
            let _ = ctrl.drain_completions();
            inj.step(now, &mut ctrl, &mut next_id);
        }
        // All generated ids were either injected or exactly one is held.
        let held = u64::from(inj.held.is_some());
        assert_eq!(inj.injected + held, next_id);
    }

    #[test]
    #[should_panic(expected = "zero traffic")]
    fn zero_tests_panics() {
        let cfg = TestInjectConfig {
            concurrent_tests: 0,
            window_ms: 64.0,
            read_blocks_per_test: 256,
            write_blocks_per_test: 0,
        };
        let _ = TestTrafficInjector::new(cfg, 8, 64, 1.25, 0);
    }
}
