//! # memcon-suite — a reproduction of MEMCON (Khan et al., MICRO 2017)
//!
//! *Detecting and Mitigating Data-Dependent DRAM Failures by Exploiting
//! Current Memory Content.*
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! * [`dram`] — DRAM device substrate (geometry, DDR3 timing, scrambling,
//!   column remapping, bank state machines, content storage),
//! * [`failure_model`] — data-dependent failure physics and the SoftMC-like
//!   chip tester,
//! * [`memtrace`] — Pareto write-interval workloads (paper Table 1) and CPU
//!   access traces,
//! * [`memsim`] — cycle-level DDR3 memory-system simulator,
//! * [`memcon`] — **the paper's contribution**: PRIL prediction, the online
//!   test engine, cost-benefit model, refresh management, RAIDR baseline,
//! * [`experiments`] — regeneration of every table and figure in the
//!   paper's evaluation.
//!
//! # Quickstart
//!
//! ```
//! use memcon_suite::memcon::config::MemconConfig;
//! use memcon_suite::memcon::engine::MemconEngine;
//! use memcon_suite::memtrace::workload::WorkloadProfile;
//!
//! // Trace a Table-1 workload and run MEMCON over it.
//! let trace = WorkloadProfile::netflix().scaled(0.05).generate(7);
//! let report = MemconEngine::new(MemconConfig::paper_default(), trace).run();
//! println!(
//!     "refresh reduction: {:.1}% (upper bound {:.0}%)",
//!     report.refresh_reduction * 100.0,
//!     report.upper_bound * 100.0
//! );
//! assert!(report.refresh_reduction > 0.5);
//! ```

#![warn(missing_docs)]

pub use dram;
pub use experiments;
pub use failure_model;
pub use memcon;
pub use memsim;
pub use memtrace;
pub use telemetry;
