//! Dependency-free support library that lets the MEMCON workspace build and
//! test **hermetically offline**.
//!
//! The seed repository depended on `rand`, `serde`/`serde_json`, `criterion`,
//! and `proptest` — none of which resolve in the offline build environment.
//! This crate provides the small slices of those libraries the reproduction
//! actually uses:
//!
//! * [`rng`] — `SplitMix64` and `xoshiro256**` PRNGs behind a
//!   rand-0.8-compatible trait surface (`Rng`, `SeedableRng`, `SmallRng`,
//!   `SliceRandom`), so the simulation code keeps its idiomatic
//!   `rng.gen_range(..)` / `rng.gen::<f64>()` call sites,
//! * [`json`] — a minimal JSON value type with an emitter (and a parser used
//!   by tests), for the experiment figure outputs and `trace-gen`,
//! * [`bench`](mod@bench) — a `std::time`-based measurement harness replacing Criterion
//!   for the `crates/bench` suite,
//! * [`par`] — a scoped work-stealing thread pool with deterministic
//!   ordered reduction (the rayon-free parallel substrate for the failure
//!   model, chip tester, and experiments suite),
//! * [`codec`] — a little-endian binary decoder for the durable state
//!   store (`crates/store`) and the two-way field lists that encode and
//!   decode every persisted struct with one definition each.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bench;
pub mod codec;
pub mod json;
pub mod par;
pub mod rng;
