//! Fig. 14: MEMCON's reduction in refresh operations (also the data source
//! for Figs. 17 and 18, which share the same engine runs).
//!
//! Paper: with CIL (quantum) 512/1024/2048 ms, MEMCON reduces refreshes by
//! 64.7–74.5 % against the 16 ms baseline — close to the 75 % upper bound —
//! and the result is insensitive to the CIL choice.

use std::sync::Arc;

use memcon::config::MemconConfig;
use memcon::engine::{MemconEngine, MemconReport};
use memtrace::workload::WorkloadProfile;

use crate::output::{heading, pct, RunOptions, TextTable};

/// The quanta (CILs) evaluated, ms.
pub const QUANTA_MS: [f64; 3] = [512.0, 1024.0, 2048.0];

/// One engine run's outcome.
#[derive(Debug, Clone)]
pub struct EngineRun {
    /// Workload name.
    pub workload: String,
    /// PRIL quantum used, ms.
    pub quantum_ms: f64,
    /// Full engine report.
    pub report: MemconReport,
}

/// All engine runs for Figs. 14/17/18.
#[derive(Debug, Clone)]
pub struct Fig14 {
    /// One run per workload × quantum.
    pub runs: Vec<EngineRun>,
    /// The all-LO upper bound (75 %).
    pub upper_bound: f64,
}

impl Fig14 {
    /// Runs for one quantum.
    #[must_use]
    pub fn at_quantum(&self, quantum_ms: f64) -> Vec<&EngineRun> {
        self.runs
            .iter()
            .filter(|r| r.quantum_ms == quantum_ms)
            .collect()
    }

    /// Mean refresh reduction at a quantum.
    #[must_use]
    pub fn mean_reduction_at(&self, quantum_ms: f64) -> f64 {
        let runs = self.at_quantum(quantum_ms);
        runs.iter().map(|r| r.report.refresh_reduction).sum::<f64>() / runs.len().max(1) as f64
    }
}

/// Runs the engine for all 12 workloads × 3 quanta, memoizing per option
/// set: Figs. 16, 17, and 18 share these runs, and `all` would otherwise
/// repeat the 36 simulations four times.
#[must_use]
pub fn compute(opts: &RunOptions) -> Fig14 {
    use std::sync::{Mutex, OnceLock, PoisonError};
    // Memo cache of a pure function of `RunOptions`: whichever thread
    // populates an entry stores the identical value, so the global is
    // deterministic-by-construction. A poisoned lock only means a panicking
    // thread held it mid-read; the Vec is append-only, so recover the guard.
    // memlint: allow(global-mut-state): deterministic memo of a pure function
    static CACHE: OnceLock<Mutex<Vec<(RunOptions, Fig14)>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(Vec::new()));
    if let Some((_, hit)) = cache
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
        .find(|(o, _)| o == opts)
    {
        return hit.clone();
    }
    let computed = compute_uncached(opts);
    cache
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .push((*opts, computed.clone()));
    computed
}

fn compute_uncached(opts: &RunOptions) -> Fig14 {
    // Workloads fan out across the pool; each worker runs that workload's
    // three quanta in order, and the per-workload run lists are reduced in
    // `WorkloadProfile::all()` order — bit-identical to the sequential loop.
    let workloads = WorkloadProfile::all();
    let runs = memutil::par::ordered_flat_map_with(opts.jobs, workloads.len(), |wi| {
        let w = &workloads[wi];
        let trace = crate::output::cached_trace(w, opts);
        QUANTA_MS
            .iter()
            .map(|&quantum| {
                let config = MemconConfig::paper_default().with_quantum_ms(quantum);
                let report = MemconEngine::new(config, Arc::clone(&trace)).run();
                EngineRun {
                    workload: w.name.clone(),
                    quantum_ms: quantum,
                    report,
                }
            })
            .collect()
    });
    Fig14 {
        runs,
        upper_bound: MemconConfig::paper_default()
            .cost_model()
            .upper_bound_reduction(),
    }
}

/// Renders Fig. 14.
#[must_use]
pub fn render(opts: &RunOptions) -> String {
    let r = compute(opts);
    let mut header = vec!["Workload".to_string()];
    header.extend(QUANTA_MS.iter().map(|q| format!("CIL {q:.0} ms")));
    let mut t = TextTable::new(header);
    for w in WorkloadProfile::all() {
        let mut row = vec![w.name.clone()];
        for q in QUANTA_MS {
            let cell = r
                .runs
                .iter()
                .find(|x| x.workload == w.name && x.quantum_ms == q)
                .map_or_else(
                    || "n/a".to_string(),
                    |run| pct(run.report.refresh_reduction),
                );
            row.push(cell);
        }
        t.row(row);
    }
    format!(
        "{}{}\nMean reduction at CIL 512/1024/2048: {} / {} / {}\n\
         Upper bound (all rows at LO-REF): {} — paper: 64.7-74.5% vs 75%\n",
        heading("Fig 14", "Reduction in refresh count with MEMCON"),
        t.render(),
        pct(r.mean_reduction_at(512.0)),
        pct(r.mean_reduction_at(1024.0)),
        pct(r.mean_reduction_at(2048.0)),
        pct(r.upper_bound)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reductions_approach_upper_bound_and_are_cil_insensitive() {
        let r = compute(&RunOptions::quick());
        assert_eq!(r.upper_bound, 0.75);
        for q in QUANTA_MS {
            let mean = r.mean_reduction_at(q);
            assert!(
                (0.55..0.75).contains(&mean),
                "mean reduction at CIL {q}: {mean}"
            );
        }
        // Paper: the reduction barely moves across CIL 512-2048.
        let spread = (r.mean_reduction_at(512.0) - r.mean_reduction_at(2048.0)).abs();
        assert!(spread < 0.08, "CIL sensitivity {spread}");
        for run in &r.runs {
            assert!(run.report.refresh_reduction < r.upper_bound);
        }
    }
}
