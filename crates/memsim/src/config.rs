//! System configuration (paper Table 2).
//!
//! > Processor: 1–4 cores, 4 GHz, 4-wide, 128-entry instruction window.
//! > LLC: 64 B lines, 512 KB per core (implicit in the CPU profiles' MPKI).
//! > Main memory: 8 GB DDR3-1600 DIMM.
//! > Baseline `tREFI`/`tRFC`: 1.95 µs / 350 ns; MEMCON `tREFI`: LO-REF
//! > 7.8 µs, HI-REF 1.95 µs; `tRFC`: 350/530/890 ns for 8/16/32 Gb chips.

use dram::geometry::{ChipDensity, DramGeometry};
use dram::timing::TimingParams;

use crate::controller::MAX_BANKS;

/// Refresh policy for a simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RefreshPolicy {
    /// No refresh at all (the ideal bound; also used in unit tests).
    None,
    /// Every row refreshed at the given per-row interval (e.g. the 16 ms
    /// aggressive baseline, or the 32/64 ms comparison points of Fig. 16).
    Fixed {
        /// Per-row refresh interval in milliseconds.
        interval_ms: f64,
    },
    /// The paper's MEMCON/RAIDR modelling: refresh-operation count reduced
    /// by `reduction` relative to a fixed baseline (`tREFI` stretched by
    /// `1/(1−reduction)`).
    Reduced {
        /// The baseline per-row interval being reduced from, in ms.
        baseline_interval_ms: f64,
        /// Fraction of refresh operations eliminated (0–1).
        reduction: f64,
    },
}

impl RefreshPolicy {
    /// The aggressive 16 ms baseline of the paper's main evaluation.
    #[must_use]
    pub fn baseline_16ms() -> Self {
        RefreshPolicy::Fixed { interval_ms: 16.0 }
    }

    /// Effective `tREFI` in controller cycles, or `None` when refresh is
    /// disabled.
    ///
    /// # Panics
    ///
    /// Panics if a `Reduced` policy has `reduction` outside `[0, 1)`.
    #[must_use]
    pub fn trefi_cycles(&self, timing: &TimingParams) -> Option<u64> {
        match *self {
            RefreshPolicy::None => None,
            RefreshPolicy::Fixed { interval_ms } => {
                Some(timing.trefi_cycles_for_interval(interval_ms))
            }
            RefreshPolicy::Reduced {
                baseline_interval_ms,
                reduction,
            } => {
                assert!(
                    (0.0..1.0).contains(&reduction),
                    "reduction must be in [0, 1), got {reduction}"
                );
                let base = timing.trefi_cycles_for_interval(baseline_interval_ms) as f64;
                Some((base / (1.0 - reduction)).round() as u64)
            }
        }
    }
}

/// Full system configuration for one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Number of cores.
    pub cores: usize,
    /// CPU clock in GHz (Table 2: 4 GHz).
    pub cpu_ghz: f64,
    /// Fetch/retire width per CPU cycle (Table 2: 4).
    pub width: u32,
    /// Instruction-window (ROB) capacity (Table 2: 128).
    pub window: u32,
    /// DRAM chip density (sets `tRFC`).
    pub density: ChipDensity,
    /// DRAM geometry.
    pub geometry: DramGeometry,
    /// DRAM timing.
    pub timing: TimingParams,
    /// Refresh policy.
    pub refresh: RefreshPolicy,
    /// Per-bank request-queue capacity.
    pub queue_capacity: usize,
}

impl SystemConfig {
    /// Single-core Table-2 configuration with the aggressive 16 ms baseline
    /// at 8 Gb density.
    #[must_use]
    pub fn single_core_baseline() -> Self {
        SystemConfig::new(1, ChipDensity::Gb8, RefreshPolicy::baseline_16ms())
    }

    /// Four-core Table-2 configuration with the 16 ms baseline at 8 Gb.
    #[must_use]
    pub fn four_core_baseline() -> Self {
        SystemConfig::new(4, ChipDensity::Gb8, RefreshPolicy::baseline_16ms())
    }

    /// A Table-2 configuration with the given core count, density, and
    /// refresh policy.
    #[must_use]
    pub fn new(cores: usize, density: ChipDensity, refresh: RefreshPolicy) -> Self {
        SystemConfig {
            cores,
            cpu_ghz: 4.0,
            width: 4,
            window: 128,
            density,
            geometry: DramGeometry::dimm_8gb(density),
            timing: TimingParams::ddr3_1600_density(density),
            refresh,
            queue_capacity: 32,
        }
    }

    /// CPU cycles per DRAM controller cycle (5 for 4 GHz over DDR3-1600's
    /// 800 MHz).
    #[must_use]
    pub fn cpu_cycles_per_dram_cycle(&self) -> u64 {
        (self.cpu_ghz * self.timing.tck_ns).round() as u64
    }

    /// Maximum instructions retirable per DRAM cycle (width × clock ratio).
    #[must_use]
    pub fn retire_budget_per_dram_cycle(&self) -> u64 {
        u64::from(self.width) * self.cpu_cycles_per_dram_cycle()
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint, among them
    /// more banks (ranks × banks per rank) than a controller schedules
    /// ([`MAX_BANKS`]).
    pub fn validate(&self) -> Result<(), String> {
        if self.cores == 0 {
            return Err("need at least one core".into());
        }
        if self.width == 0 || self.window == 0 {
            return Err("width and window must be non-zero".into());
        }
        if self.queue_capacity == 0 {
            return Err("queue capacity must be non-zero".into());
        }
        self.geometry.validate()?;
        let banks = usize::from(self.geometry.ranks) * usize::from(self.geometry.banks);
        if banks > MAX_BANKS {
            return Err(format!(
                "{banks} banks (ranks x banks per rank) exceed the controller's {MAX_BANKS}"
            ));
        }
        self.timing.validate()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_baseline_trefi() {
        let c = SystemConfig::single_core_baseline();
        // 16 ms baseline: tREFI = 1.95 us = 1563 cycles at 1.25 ns.
        assert_eq!(c.refresh.trefi_cycles(&c.timing), Some(1563));
        // tRFC 350 ns = 280 cycles at 8 Gb.
        assert_eq!(c.timing.trfc_cycles(), 280);
    }

    #[test]
    fn reduced_policy_stretches_trefi() {
        let c = SystemConfig::new(
            1,
            ChipDensity::Gb8,
            RefreshPolicy::Reduced {
                baseline_interval_ms: 16.0,
                reduction: 0.75,
            },
        );
        // 75% fewer refreshes than the 16 ms baseline = 64 ms worth: 7.8 us.
        let trefi = c.refresh.trefi_cycles(&c.timing).unwrap();
        assert_eq!(trefi, 4 * 1563);
    }

    #[test]
    fn none_policy_disables_refresh() {
        let c = SystemConfig::new(1, ChipDensity::Gb8, RefreshPolicy::None);
        assert_eq!(c.refresh.trefi_cycles(&c.timing), None);
    }

    #[test]
    fn density_scales_trfc() {
        for (d, cycles) in [
            (ChipDensity::Gb8, 280),
            (ChipDensity::Gb16, 424),
            (ChipDensity::Gb32, 712),
        ] {
            let c = SystemConfig::new(1, d, RefreshPolicy::baseline_16ms());
            assert_eq!(c.timing.trfc_cycles(), cycles, "{d}");
        }
    }

    #[test]
    fn clock_ratio() {
        let c = SystemConfig::single_core_baseline();
        assert_eq!(c.cpu_cycles_per_dram_cycle(), 5);
        assert_eq!(c.retire_budget_per_dram_cycle(), 20);
    }

    #[test]
    fn presets_validate() {
        assert!(SystemConfig::single_core_baseline().validate().is_ok());
        assert!(SystemConfig::four_core_baseline().validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "reduction must be in")]
    fn bad_reduction_panics() {
        let c = SystemConfig::new(
            1,
            ChipDensity::Gb8,
            RefreshPolicy::Reduced {
                baseline_interval_ms: 16.0,
                reduction: 1.0,
            },
        );
        let _ = c.refresh.trefi_cycles(&c.timing);
    }

    #[test]
    fn validate_refuses_more_banks_than_the_controller_holds() {
        let mut c = SystemConfig::four_core_baseline();
        c.geometry.ranks = 4;
        c.geometry.banks = 16;
        assert!(c.validate().is_ok(), "64 banks fit");
        c.geometry.banks = 17;
        let err = c.validate().unwrap_err();
        assert!(err.contains("68 banks"), "{err}");
    }

    #[test]
    fn validate_rejects_zero_cores() {
        let mut c = SystemConfig::single_core_baseline();
        c.cores = 0;
        assert!(c.validate().is_err());
    }
}
