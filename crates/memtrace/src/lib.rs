//! Workload substrate for the MEMCON reproduction.
//!
//! The paper traces 12 long-running desktop/server applications with an
//! FPGA-based bus tracer (HMTT-like) and observes that per-page **write
//! intervals follow a Pareto distribution** with a decreasing hazard rate:
//! more than 95 % of writes recur within 1 ms, yet the rare long intervals
//! (≥ 1024 ms) cover ~90 % of execution time — which is what lets MEMCON
//! amortize online testing. We do not have the proprietary traces, so this
//! crate generates statistically equivalent ones:
//!
//! * [`interval`] — the bounded-Pareto + short-burst mixture interval model,
//! * [`workload`] — one calibrated profile per Table-1 application,
//! * [`generator`] — per-page renewal-process trace synthesis,
//! * [`trace`] — the write-trace container, 8 bytes per event (the low
//!   32 bits of its time and a `u32` page, beside a short index of where
//!   the high time word steps), and per-page interval extraction,
//! * [`stats`] — every statistic the paper's Figs. 7, 8, 9, 11, 12, and 19
//!   compute over traces (log-bucket histograms, Pareto fits with R²,
//!   time-weighted fractions, CIL/RIL conditionals, coverage),
//! * [`cpu`] — synthetic SPEC/TPC-like CPU access traces for the performance
//!   simulator (`memsim`).
//!
//! # Example
//!
//! ```
//! use memtrace::workload::WorkloadProfile;
//! use memtrace::stats;
//!
//! let profile = WorkloadProfile::netflix().scaled(0.1);
//! let trace = profile.generate(42);
//! let intervals = trace.closed_intervals();
//! // The Pareto heavy tail: long intervals dominate time.
//! let frac = stats::time_fraction_ge_ms(&intervals, 1024.0);
//! assert!(frac > 0.5);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cpu;
pub mod generator;
pub mod interval;
pub mod stats;
pub mod trace;
pub mod workload;

pub use interval::{BoundedPareto, WriteIntervalModel};
pub use trace::{WriteEvent, WriteTrace};
pub use workload::WorkloadProfile;

/// Nanoseconds per millisecond, the conversion used throughout.
pub const NS_PER_MS: u64 = 1_000_000;
