//! Fleet-scale sharded MEMCON simulation.
//!
//! The paper evaluates MEMCON on a single module; its economic argument
//! (profiling cost amortized against refresh-energy savings) only pays off
//! for an operator running it across a whole rack. This crate scales the
//! single-module [`memcon::engine::MemconEngine`] to hundreds-to-thousands
//! of simulated DIMMs:
//!
//! * a [`FleetConfig`] (node count, distinct chip seeds, per-node
//!   Table-1 workload assignment) expands into a [`FleetPlan`] — one spec
//!   per *shard* (= one simulated DIMM) with its own synthesized write
//!   trace, chip seed, and derived fault plan;
//! * [`Fleet`] instantiates one `MemconEngine` per shard — fully
//!   independent PRIL/refresh/recovery state — and advances all shards one
//!   *epoch* (a batch of PRIL quanta) at a time over the
//!   [`memutil::par`] work-stealing pool, applying cross-shard roll-up
//!   work in deterministic shard order after each batch;
//! * a [`FleetReport`] rolls the per-shard reports up into fleet-level
//!   aggregates (failing-row distribution, refresh-ops savings) plus
//!   per-shard step-latency percentiles, and the same aggregates are
//!   flushed through the [`telemetry`] registry.
//!
//! # Determinism
//!
//! Everything a shard computes is a pure function of `(fleet seed, node
//! index)`: the workload profile, the trace, the chip seed, the oracle
//! stream, and the per-shard fault plan (derived via
//! [`faultinject::FaultPlan::for_shard`], so fault decisions never depend
//! on which worker thread steps the shard). Telemetry roll-ups are atomic
//! counter adds, which commute. The fleet report's deterministic section
//! and the registry's deterministic section are therefore byte-identical
//! at any `--jobs` value — with or without faults armed — which the
//! `xtask fleet --smoke` CI gate and the crate's property tests pin.

#![warn(missing_docs)]

pub mod durable;
pub mod engine;
pub mod report;

pub use durable::{EpochEntry, FleetMeta, FleetRecovery};
pub use engine::Fleet;
pub use report::{FleetReport, ShardSummary};

use std::path::PathBuf;
use std::sync::Arc;

use store::DurabilityMode;

use faultinject::FaultPlan;
use memcon::config::MemconConfig;
use memtrace::trace::WriteTrace;
use memtrace::workload::WorkloadProfile;
use memutil::par;

/// SplitMix64 finalizer (identical constants to `memutil`'s PRNG) — the
/// seed-derivation mix for per-node traces and chip identities.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Configuration of a simulated fleet.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of nodes (one DIMM shard per node).
    pub nodes: u64,
    /// Master seed; every per-shard stream derives from `(seed, node)`.
    pub seed: u64,
    /// Footprint scale applied to each node's Table-1 workload profile.
    pub scale: f64,
    /// Simulated trace window per node, seconds.
    pub window_s: f64,
    /// PRIL quanta advanced per scheduler epoch (batching factor: larger
    /// epochs mean fewer pool barriers but coarser progress roll-up).
    pub epoch_quanta: u64,
    /// Number of distinct chip seeds; node `i` joins seed group
    /// `i % distinct_chip_seeds`. Shards in one group model identical
    /// silicon and draw the same oracle stream.
    pub distinct_chip_seeds: u64,
    /// Per-shard MEMCON engine configuration. Every shard engine runs the
    /// Bernoulli rate oracle at [`memcon::engine::DEFAULT_FAIL_RATE`],
    /// seeded by its chip seed.
    pub engine: MemconConfig,
    /// Base fault plan; each shard runs the [`FaultPlan::for_shard`]
    /// derivation so fault streams are per-shard keyed.
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Durable store directory, or `None` for a purely in-memory fleet.
    /// When set, the fleet keeps one store there and publishes one image
    /// per epoch barrier — the epoch clock, the epoch log and every shard
    /// engine's checkpoint ([`durable`]); a crashed fleet resumes via
    /// [`Fleet::recover`].
    pub store_dir: Option<PathBuf>,
    /// Durability mode of the fleet's store.
    pub durability: DurabilityMode,
}

impl FleetConfig {
    /// A small, fast fleet: scaled-down workloads over a short window —
    /// the shape used by the smoke gate, tests, and benches.
    #[must_use]
    pub fn small(nodes: u64, seed: u64) -> FleetConfig {
        FleetConfig {
            nodes,
            seed,
            scale: 0.02,
            window_s: 8.0,
            epoch_quanta: 2,
            distinct_chip_seeds: (nodes / 2).max(1),
            engine: MemconConfig::paper_default(),
            fault_plan: None,
            store_dir: None,
            durability: DurabilityMode::Buffered,
        }
    }

    /// Validates structural constraints.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes == 0 {
            return Err("fleet needs at least one node".into());
        }
        if self.scale.is_nan() || self.scale <= 0.0 {
            return Err("scale must be positive".into());
        }
        if self.window_s.is_nan() || self.window_s <= 0.0 {
            return Err("window must be positive".into());
        }
        if self.epoch_quanta == 0 {
            return Err("epoch must span at least one quantum".into());
        }
        if self.distinct_chip_seeds == 0 {
            return Err("need at least one chip seed group".into());
        }
        self.engine.validate().map_err(|e| format!("engine: {e}"))
    }
}

/// One shard's expanded identity: everything [`Fleet::new`] needs to build
/// its engine, with the trace already synthesized and `Arc`-shared.
#[derive(Debug, Clone)]
pub struct ShardSpec {
    /// Node index (= shard index).
    pub node: u64,
    /// Table-1 display name of the node's workload.
    pub profile: String,
    /// The node's synthesized write trace.
    pub trace: Arc<WriteTrace>,
    /// Seed of the shard's rate oracle (shared within a chip-seed group).
    pub chip_seed: u64,
    /// Per-shard derived fault plan, if the fleet arms faults.
    pub fault_plan: Option<Arc<FaultPlan>>,
}

/// A fully expanded fleet: per-shard specs with synthesized traces.
///
/// Expansion is the expensive part (trace synthesis); [`Fleet::new`] over
/// an existing plan is cheap, so benches and repeated runs expand once and
/// instantiate per iteration.
#[derive(Debug, Clone)]
pub struct FleetPlan {
    /// The configuration this plan was expanded from.
    pub config: FleetConfig,
    /// One spec per shard, in node order.
    pub shards: Vec<ShardSpec>,
}

impl FleetPlan {
    /// Expands `config` into per-shard specs, synthesizing the per-node
    /// traces across `jobs` workers (`0` = resolve automatically). The
    /// plan is a pure function of `config` — `jobs` only schedules.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid.
    #[must_use]
    pub fn expand(config: &FleetConfig, jobs: usize) -> FleetPlan {
        config.validate().expect("invalid fleet configuration");
        let seed = config.seed;
        let shards = par::ordered_map_with(jobs, config.nodes as usize, |i| {
            let node = i as u64;
            let profile = WorkloadProfile::for_node(seed, node)
                .scaled(config.scale)
                .with_window(config.window_s);
            let name = profile.name.clone();
            // Inner synthesis runs inline (nested scopes are sequential in
            // memutil::par); the fan-out above already saturates the pool.
            let trace = Arc::new(profile.generate(mix64(seed ^ mix64(node))));
            let group = node % config.distinct_chip_seeds;
            ShardSpec {
                node,
                profile: name,
                trace,
                chip_seed: mix64(seed ^ 0xC41F_5EED ^ mix64(group)),
                fault_plan: config
                    .fault_plan
                    .as_ref()
                    .map(|p| Arc::new(p.for_shard(node))),
            }
        });
        FleetPlan {
            config: config.clone(),
            shards,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `telemetry::install` swaps a process-global registry, and a stepped
    /// fleet counts into whichever enabled registry is current, so every
    /// unit test that installs a registry or steps a fleet serializes on
    /// this lock.
    pub(crate) fn registry_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn plan_expansion_is_jobs_invariant() {
        let config = FleetConfig::small(12, 0xF1EE7);
        let a = FleetPlan::expand(&config, 1);
        let b = FleetPlan::expand(&config, 4);
        assert_eq!(a.shards.len(), 12);
        for (sa, sb) in a.shards.iter().zip(&b.shards) {
            assert_eq!(sa.node, sb.node);
            assert_eq!(sa.profile, sb.profile);
            assert_eq!(sa.trace, sb.trace);
            assert_eq!(sa.chip_seed, sb.chip_seed);
        }
    }

    #[test]
    fn chip_seed_groups_share_identity() {
        let mut config = FleetConfig::small(8, 3);
        config.distinct_chip_seeds = 2;
        let plan = FleetPlan::expand(&config, 1);
        let seeds: Vec<u64> = plan.shards.iter().map(|s| s.chip_seed).collect();
        // Nodes alternate between exactly two chip identities.
        assert_eq!(seeds[0], seeds[2]);
        assert_eq!(seeds[1], seeds[3]);
        assert_ne!(seeds[0], seeds[1]);
    }

    #[test]
    fn shard_fault_plans_are_derived_per_node() {
        let mut config = FleetConfig::small(4, 9);
        config.fault_plan = Some(Arc::new(FaultPlan::uniform(0xBAD, 0.1)));
        let plan = FleetPlan::expand(&config, 1);
        let seeds: std::collections::HashSet<u64> = plan
            .shards
            .iter()
            .map(|s| s.fault_plan.as_ref().expect("plan armed").seed)
            .collect();
        assert_eq!(seeds.len(), 4, "each shard draws its own fault stream");
    }

    #[test]
    fn validate_rejects_degenerate_configs() {
        assert!(FleetConfig::small(0, 1).validate().is_err());
        for bad in [0.0, f64::NAN] {
            let mut c = FleetConfig::small(4, 1);
            c.scale = bad;
            assert!(c.validate().is_err(), "scale {bad}");
            let mut c = FleetConfig::small(4, 1);
            c.window_s = bad;
            assert!(c.validate().is_err(), "window {bad}");
        }
        assert!(FleetConfig::small(4, 1).validate().is_ok());
    }
}
