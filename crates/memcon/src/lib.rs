//! # MEMCON — memory-content-based detection and mitigation of
//! data-dependent DRAM failures
//!
//! This crate is the paper's primary contribution (Khan et al., MICRO 2017):
//! a system-level mechanism that, **without any knowledge of DRAM
//! internals**, keeps DRAM reliable at a low refresh rate by testing only
//! the *current* memory content and re-testing a page only when its content
//! changes — and even then, only when the write is predicted to be followed
//! by an interval long enough to amortize the test.
//!
//! The pieces, in dependency order:
//!
//! * [`cost`] — the cost-benefit model of online testing (paper Fig. 6 and
//!   appendix): test-mode costs from DDR3 timing, and the
//!   **MinWriteInterval** (560 ms Read-and-Compare / 864 ms Copy-and-Compare
//!   at 64 ms LO-REF; 480/448 ms at 128/256 ms) reproduced exactly,
//! * [`pril`] — the Probabilistic Remaining Interval Length predictor
//!   (paper Fig. 13): two write-maps and two bounded write-buffers across
//!   consecutive time quanta,
//! * [`ecc`] — CRC-64 row signatures and a Hamming SEC-DED code used by the
//!   Copy-and-Compare mode to detect flips without buffering full rows,
//! * [`testengine`] — online-test orchestration: the concurrent-test
//!   budget (capped by the Copy-and-Compare staging rows) and the failure
//!   oracles the engine tests against,
//! * [`refreshmgr`] — per-page HI-REF/Testing/LO-REF state with exact
//!   time-in-state integration and refresh-operation accounting,
//! * [`engine`] — the end-to-end [`engine::MemconEngine`]: feed it a write
//!   trace, get back refresh reduction, LO-REF coverage, and test-overhead
//!   accounting (paper Figs. 14, 17, 18). Under an active
//!   [`faultinject::FaultPlan`] it also runs the recovery machinery —
//!   abort/retry with capped exponential backoff, fail-safe high-refresh
//!   degradation — and reports everything a run counts, recovery
//!   included, as one view, [`engine::EngineStats`],
//! * [`raidr`] — the RAIDR baseline (Liu et al., ISCA 2012): Bloom-filter
//!   multi-rate refresh from an exhaustive profiling pass (paper Fig. 16).
//!
//! # Example
//!
//! ```
//! use memcon::config::MemconConfig;
//! use memcon::engine::MemconEngine;
//! use memtrace::workload::WorkloadProfile;
//!
//! let trace = WorkloadProfile::netflix().scaled(0.02).generate(1);
//! let report = MemconEngine::new(MemconConfig::paper_default(), trace).run();
//! // MEMCON eliminates most refreshes (upper bound 75% for 16/64 ms).
//! assert!(report.refresh_reduction > 0.5);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod cost;
pub mod ecc;
pub mod engine;
pub mod overhead;
pub mod pril;
pub mod raidr;
pub mod refreshmgr;
pub mod testengine;

pub use config::MemconConfig;
pub use cost::{CostModel, TestMode};
pub use engine::{EngineStats, MemconEngine, MemconReport};
pub use pril::Pril;
