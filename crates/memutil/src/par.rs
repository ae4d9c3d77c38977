//! A std-only, scoped, work-stealing thread pool with **deterministic
//! ordered reduction**.
//!
//! The MEMCON reproduction's hot loops — per-(rank, bank) failure-model
//! sweeps, the chip tester's golden-vs-readback diff, and the experiment
//! suite's seed/pattern grids — are all *index-shaped*: evaluate a pure
//! function over `0..len` and combine the results in index order. This
//! module parallelizes exactly that shape while keeping the output
//! **bit-identical to the sequential path at any worker count**:
//!
//! * the index range is split into fixed-size chunks; chunk boundaries
//!   depend only on `len` and the worker count, never on timing,
//! * workers own per-worker deques of chunk ids (round-robin seeded) and
//!   steal from the busiest sibling when their own deque drains,
//! * every chunk's results are tagged with the chunk id and reassembled in
//!   chunk order after the scope joins — an *ordered reduction*, so
//!   floating-point accumulation in the caller happens in the same order
//!   the sequential loop would have used.
//!
//! `jobs = 1` (or a single-item range, or a call from inside a worker)
//! bypasses the pool entirely and runs the plain sequential loop, so the
//! sequential path is not merely equivalent but *the same code*.
//!
//! # Worker-count resolution
//!
//! [`jobs`] resolves, in priority order: the value installed by
//! [`set_jobs`] (e.g. from a `--jobs N` flag), the `MEMCON_JOBS`
//! environment variable, and finally [`std::thread::available_parallelism`].
//!
//! # Nested scopes
//!
//! The pool is scoped and non-reentrant: a parallel call issued from inside
//! a worker is **rejected** and degrades to the inline sequential loop (see
//! [`in_worker`]). This keeps the thread count bounded by one pool at a
//! time and makes composition safe: when the experiments suite fans out
//! per-figure, the figures' own inner sweeps automatically run inline.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Sentinel meaning "no explicit worker count installed".
const JOBS_UNSET: usize = 0;

/// Number of per-worker slots tracked by [`PoolStats::worker_chunks`].
/// Workers beyond the slot count fold in modulo — wide enough for any
/// realistic `--jobs` while keeping the counter block fixed-size.
const STAT_WORKER_SLOTS: usize = 16;

// The pool's scheduling counters are the one sanctioned process-global
// mutable block outside the registries: they are timing-class diagnostics
// (see `PoolStats` below) and never feed deterministic output.
static STAT_SCOPES: AtomicU64 = AtomicU64::new(0); // memlint: allow(global-mut-state): timing-class diagnostic counter
static STAT_INLINE_RUNS: AtomicU64 = AtomicU64::new(0); // memlint: allow(global-mut-state): timing-class diagnostic counter
static STAT_CHUNKS_RUN: AtomicU64 = AtomicU64::new(0); // memlint: allow(global-mut-state): timing-class diagnostic counter
static STAT_CHUNKS_STOLEN: AtomicU64 = AtomicU64::new(0); // memlint: allow(global-mut-state): timing-class diagnostic counter
#[allow(clippy::declare_interior_mutable_const)]
// memlint: allow(global-mut-state): timing-class diagnostic counters
static STAT_WORKER_CHUNKS: [AtomicU64; STAT_WORKER_SLOTS] = {
    const ZERO: AtomicU64 = AtomicU64::new(0);
    [ZERO; STAT_WORKER_SLOTS]
};

/// Process-lifetime scheduling counters of the pool, for telemetry.
///
/// These describe *how* work was scheduled, never *what* it computed:
/// steal counts and per-worker chunk tallies legitimately vary from run to
/// run, so consumers must report them as timing-class (non-deterministic)
/// metrics, outside any byte-diff determinism gate.
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolStats {
    /// Parallel scopes that actually spawned workers.
    pub scopes: u64,
    /// Calls that ran the inline sequential path (jobs/len 1, nested).
    pub inline_runs: u64,
    /// Chunks executed by pool workers.
    pub chunks_run: u64,
    /// Chunks executed after being stolen from a sibling's deque.
    pub chunks_stolen: u64,
    /// Chunks executed per worker index (indices fold modulo the slot
    /// count).
    pub worker_chunks: [u64; STAT_WORKER_SLOTS],
}

/// Snapshot of the process-lifetime [`PoolStats`].
#[must_use]
pub fn pool_stats() -> PoolStats {
    let mut worker_chunks = [0u64; STAT_WORKER_SLOTS];
    for (slot, counter) in worker_chunks.iter_mut().zip(&STAT_WORKER_CHUNKS) {
        *slot = counter.load(Ordering::Relaxed);
    }
    PoolStats {
        scopes: STAT_SCOPES.load(Ordering::Relaxed),
        inline_runs: STAT_INLINE_RUNS.load(Ordering::Relaxed),
        chunks_run: STAT_CHUNKS_RUN.load(Ordering::Relaxed),
        chunks_stolen: STAT_CHUNKS_STOLEN.load(Ordering::Relaxed),
        worker_chunks,
    }
}

/// Process-global worker count installed by [`set_jobs`] (0 = unset).
/// Configuration, not computed state: set once from the CLI before any
/// parallel work, and the same value on every worker makes runs
/// jobs-invariant rather than jobs-dependent.
// memlint: allow(global-mut-state): CLI-installed configuration knob
static CONFIGURED_JOBS: AtomicUsize = AtomicUsize::new(JOBS_UNSET);

std::thread_local! {
    static IN_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Whether the current thread is a pool worker. Parallel calls made while
/// this is `true` run inline (nested scopes are rejected).
#[must_use]
pub fn in_worker() -> bool {
    IN_WORKER.with(std::cell::Cell::get)
}

/// Installs an explicit worker count for subsequent [`jobs`]-resolved
/// parallel calls. `None` (or `Some(0)`) reverts to automatic resolution
/// (`MEMCON_JOBS`, then available parallelism).
pub fn set_jobs(jobs: Option<usize>) {
    CONFIGURED_JOBS.store(jobs.unwrap_or(JOBS_UNSET), Ordering::Relaxed);
}

/// The resolved worker count: [`set_jobs`] value, else `MEMCON_JOBS`, else
/// [`std::thread::available_parallelism`] (else 1).
#[must_use]
pub fn jobs() -> usize {
    let configured = CONFIGURED_JOBS.load(Ordering::Relaxed);
    if configured != JOBS_UNSET {
        return configured;
    }
    if let Ok(v) = std::env::var("MEMCON_JOBS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Maps `f` over `0..len` on a scoped work-stealing pool of `jobs`
/// workers, returning `vec![f(0), f(1), …, f(len-1)]`.
///
/// `jobs = 0` means "resolve automatically" (see [`jobs`]) — callers that
/// thread an optional `--jobs` override through their APIs can pass it
/// straight down.
///
/// The output is **bit-identical** to the sequential
/// `(0..len).map(f).collect()` for any `jobs`: scheduling decides only
/// *when* an index is evaluated, never the result order. With `jobs == 1`,
/// from inside a pool worker (nested scopes are rejected), or for
/// single-item ranges, the sequential loop runs inline on the caller.
///
/// # Panics
///
/// Propagates the first panic raised by `f` (workers are joined before the
/// panic resumes, so no work is leaked).
pub fn ordered_map_with<T, F>(jobs: usize, len: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let jobs = if jobs == 0 { self::jobs() } else { jobs };
    let workers = jobs.min(len);
    if workers <= 1 || in_worker() {
        STAT_INLINE_RUNS.fetch_add(1, Ordering::Relaxed);
        return (0..len).map(f).collect();
    }
    STAT_SCOPES.fetch_add(1, Ordering::Relaxed);

    // Chunk geometry depends only on (len, workers): deterministic.
    let chunk = chunk_size(len, workers);
    let n_chunks = len.div_ceil(chunk);
    let queues: Vec<Mutex<VecDeque<usize>>> = (0..workers)
        .map(|w| Mutex::new((0..n_chunks).filter(|c| c % workers == w).collect()))
        .collect();

    let mut pieces: Vec<(usize, Vec<T>)> = Vec::with_capacity(n_chunks);
    let mut panic_payload: Option<Box<dyn std::any::Any + Send>> = None;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let queues = &queues;
                let f = &f;
                scope.spawn(move || {
                    IN_WORKER.with(|flag| flag.set(true));
                    let mut done: Vec<(usize, Vec<T>)> = Vec::new();
                    while let Some((c, stolen)) = claim_chunk(queues, w) {
                        STAT_CHUNKS_RUN.fetch_add(1, Ordering::Relaxed);
                        STAT_WORKER_CHUNKS[w % STAT_WORKER_SLOTS].fetch_add(1, Ordering::Relaxed);
                        if stolen {
                            STAT_CHUNKS_STOLEN.fetch_add(1, Ordering::Relaxed);
                        }
                        let start = c * chunk;
                        let end = (start + chunk).min(len);
                        done.push((c, (start..end).map(f).collect()));
                    }
                    done
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(done) => pieces.extend(done),
                Err(payload) => {
                    panic_payload.get_or_insert(payload);
                }
            }
        }
    });
    if let Some(payload) = panic_payload {
        std::panic::resume_unwind(payload);
    }

    // Ordered reduction: reassemble in chunk order.
    pieces.sort_unstable_by_key(|&(c, _)| c);
    debug_assert_eq!(pieces.len(), n_chunks, "every chunk exactly once");
    let mut out = Vec::with_capacity(len);
    for (_, piece) in pieces {
        out.extend(piece);
    }
    out
}

/// Maps `f` (returning a `Vec` per index) over `0..len` and concatenates
/// the pieces in index order — the parallel equivalent of the sequential
/// `flat_map` idiom used by per-(rank, bank) sweeps.
pub fn ordered_flat_map_with<T, F>(jobs: usize, len: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> Vec<T> + Sync,
{
    let mut out = Vec::new();
    for piece in ordered_map_with(jobs, len, f) {
        out.extend(piece);
    }
    out
}

/// Chunk size targeting ~4 stealable chunks per worker (floor 1), so the
/// pool load-balances without shredding cache locality.
fn chunk_size(len: usize, workers: usize) -> usize {
    len.div_ceil(workers.saturating_mul(4).max(1)).max(1)
}

/// Pops a chunk id: own deque front first, then steal from the sibling
/// with the longest deque (back side). The flag reports whether the chunk
/// was stolen. `None` when every deque is empty — no new work is ever
/// generated mid-run, so an empty sweep is terminal.
fn claim_chunk(queues: &[Mutex<VecDeque<usize>>], own: usize) -> Option<(usize, bool)> {
    if let Some(c) = queues[own]
        .lock()
        .expect("worker deque poisoned")
        .pop_front()
    {
        return Some((c, false));
    }
    // Steal from the fullest victim to halve the largest backlog.
    let mut best: Option<(usize, usize)> = None;
    for (w, q) in queues.iter().enumerate() {
        if w == own {
            continue;
        }
        let backlog = q.lock().expect("worker deque poisoned").len();
        if backlog > 0 && best.is_none_or(|(_, b)| backlog > b) {
            best = Some((w, backlog));
        }
    }
    let (victim, _) = best?;
    queues[victim]
        .lock()
        .expect("worker deque poisoned")
        .pop_back()
        .map(|c| (c, true))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_range_yields_empty_vec() {
        let out: Vec<u64> = ordered_map_with(4, 0, |i| i as u64);
        assert!(out.is_empty());
    }

    #[test]
    fn single_item_runs_inline() {
        let caller = std::thread::current().id();
        let out = ordered_map_with(8, 1, |i| {
            assert_eq!(std::thread::current().id(), caller, "must not spawn");
            i * 10
        });
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn jobs_one_is_the_sequential_path() {
        let caller = std::thread::current().id();
        let out = ordered_map_with(1, 100, |i| {
            assert_eq!(std::thread::current().id(), caller, "must not spawn");
            i * i
        });
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn output_is_identical_across_worker_counts() {
        // The determinism contract: same bits at any jobs value, including
        // worker counts above the chunk count.
        let f = |i: usize| (i as f64).sqrt().sin() * 1e9;
        let seq: Vec<f64> = (0..1000).map(f).collect();
        for jobs in [2, 3, 4, 8, 64] {
            let par = ordered_map_with(jobs, 1000, f);
            assert!(
                seq.iter()
                    .zip(&par)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "jobs={jobs} diverged from sequential"
            );
        }
    }

    #[test]
    fn flat_map_preserves_order() {
        let out = ordered_flat_map_with(4, 10, |i| vec![i * 2, i * 2 + 1]);
        assert_eq!(out, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn work_is_distributed_across_threads() {
        use std::collections::HashSet;
        use std::sync::Barrier;
        // 4 items at 4 workers = 1 chunk per worker, and each worker pops
        // its own deque before stealing — so the barrier can only release
        // when all 4 chunks run on 4 distinct live threads.
        let barrier = Barrier::new(4);
        let ids = Mutex::new(HashSet::new());
        let _ = ordered_map_with(4, 4, |i| {
            ids.lock().unwrap().insert(std::thread::current().id());
            barrier.wait();
            i
        });
        assert_eq!(ids.into_inner().unwrap().len(), 4);
    }

    #[test]
    fn panic_propagates_from_worker() {
        let result = std::panic::catch_unwind(|| {
            let _ = ordered_map_with(4, 100, |i| {
                assert!(i != 37, "injected failure at 37");
                i
            });
        });
        let payload = result.expect_err("worker panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .map(ToString::to_string)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("injected failure"), "payload: {msg}");
    }

    #[test]
    fn nested_scope_is_rejected_and_runs_inline() {
        let out = ordered_map_with(4, 8, |i| {
            assert!(in_worker(), "outer closure must be on a pool worker");
            let worker = std::thread::current().id();
            // The nested call must not spawn: every inner index runs on
            // this same worker thread, inline.
            let inner = ordered_map_with(4, 16, move |j| {
                assert_eq!(std::thread::current().id(), worker, "nested spawn");
                j + i
            });
            inner.iter().sum::<usize>()
        });
        assert_eq!(out, (0..8).map(|i| 120 + 16 * i).collect::<Vec<_>>());
        assert!(!in_worker(), "flag must not leak to the caller");
    }

    #[test]
    fn jobs_resolution_priority() {
        // set_jobs wins over the environment/auto path.
        set_jobs(Some(3));
        assert_eq!(jobs(), 3);
        set_jobs(None);
        assert!(jobs() >= 1);
    }

    #[test]
    fn chunking_covers_range_exactly() {
        for len in [1usize, 2, 7, 64, 1000, 1023] {
            for workers in [1usize, 2, 4, 9] {
                let c = chunk_size(len, workers);
                assert!(c >= 1);
                let n_chunks = len.div_ceil(c);
                assert!(n_chunks * c >= len);
                assert!((n_chunks - 1) * c < len);
            }
        }
    }
}
