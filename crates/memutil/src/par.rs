//! A std-only thread pool with **deterministic ordered reduction**.
//!
//! The MEMCON reproduction's hot loops — per-(rank, bank) failure-model
//! sweeps, the chip tester's golden-vs-readback diff, the experiment
//! suite's seed/pattern grids and the fleet's per-shard epoch steps — are
//! all *index-shaped*: evaluate a pure function over `0..len` and combine
//! the results in index order. This module parallelizes exactly that shape
//! while keeping the output **bit-identical to the sequential path at any
//! worker count**.
//!
//! # One claim loop
//!
//! A parallel call over `n` workers gives worker `w` the contiguous range
//! `[w·len/n, (w+1)·len/n)` behind an atomic cursor, and the worker claims
//! its indices one at a time. A worker whose range is empty steals single
//! indices from the worker with the most left, until every range is empty.
//! Each result is filed under its index, so scheduling decides only *when*
//! and *where* an index runs, never where its result lands — an *ordered
//! reduction*: floating-point accumulation in the caller happens in the
//! order the sequential loop would have used.
//!
//! The caller is worker 0. Two paths run the loop:
//!
//! * [`ordered_map_with`] borrows its inputs, so it spawns `n − 1` scoped
//!   helper threads per call and joins them before it returns.
//! * [`Pool`] keeps `n − 1` helper threads parked on channels for as long
//!   as it lives and runs `'static` jobs ([`Pool::map`]), so a caller that
//!   fans out many times (the fleet, once per epoch) starts its threads
//!   once.
//!
//! One job (or a range of at most one index, or a call from inside a
//! worker) runs the plain sequential loop on the caller, so the sequential
//! path is not merely equivalent but *the same code*.
//!
//! # Worker-count resolution
//!
//! [`jobs`] resolves, in priority order: the value installed by
//! [`set_jobs`] (e.g. from a `--jobs N` flag), the `MEMCON_JOBS`
//! environment variable, and finally [`std::thread::available_parallelism`].
//!
//! # Nested calls
//!
//! A parallel call issued from inside a worker — a helper, or the caller
//! while it runs its own share — runs inline as the sequential loop (see
//! [`in_worker`]). This bounds the thread count by one fan-out at a time
//! and makes composition safe: when the experiments suite fans out
//! per-figure, the figures' own inner sweeps run inline.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::{self, JoinHandle};

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

/// Process-lifetime scheduling counters of both parallel paths
/// ([`ordered_map_with`] and [`Pool::map`]), for telemetry.
///
/// These describe *how* work was scheduled, never *what* it computed:
/// steal counts and per-worker tallies legitimately vary from run to run,
/// so consumers must report them as timing-class (non-deterministic)
/// metrics, outside any byte-diff determinism gate. `chunks_stolen /
/// chunks_run` is the share of indices that ran outside their owner's
/// range.
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolStats {
    /// Parallel calls that ran on more than one worker, on either path.
    pub scopes: u64,
    /// Calls that ran the inline sequential loop (one job, at most one
    /// index, or a call from inside a worker).
    pub inline_runs: u64,
    /// Indices claimed and run by the workers of parallel calls.
    pub chunks_run: u64,
    /// Indices a worker took from another worker's range.
    pub chunks_stolen: u64,
    /// Indices run per worker index (0 is the caller; indices fold modulo
    /// the slot count).
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

/// Whether the current thread is running a worker's share: a pool helper
/// always, the caller while its own share runs. Parallel calls made while
/// this is `true` run inline.
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

/// The worker count a `jobs` argument asks for: `jobs` itself, or
/// [`jobs()`] for `0`.
#[must_use]
pub fn resolve(jobs: usize) -> usize {
    if jobs == 0 {
        self::jobs()
    } else {
        jobs
    }
}

/// Maps `f` over `0..len` on `jobs` workers — the caller and `jobs − 1`
/// scoped helper threads spawned for this call — returning
/// `vec![f(0), f(1), …, f(len-1)]`.
///
/// `jobs = 0` means "resolve automatically" (see [`jobs`]) — callers that
/// thread an optional `--jobs` override through their APIs can pass it
/// straight down.
///
/// The output is **bit-identical** to the sequential
/// `(0..len).map(f).collect()` for any `jobs`: scheduling decides only
/// *when* an index is evaluated, never the result order. With `jobs == 1`,
/// from inside a worker (nested calls run inline), or for single-item
/// ranges, the sequential loop runs inline on the caller.
///
/// # Panics
///
/// Propagates the first panic raised by `f`, once every worker has
/// finished (helpers are joined before the panic resumes, so no work is
/// leaked).
pub fn ordered_map_with<T, F>(jobs: usize, len: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = resolve(jobs).min(len);
    if workers <= 1 || in_worker() {
        return inline(len, f);
    }
    STAT_SCOPES.fetch_add(1, Ordering::Relaxed);
    let claims = &Claims::new(len, workers);
    let f = &f;
    thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers)
            .map(|w| {
                scope.spawn(move || {
                    IN_WORKER.with(|flag| flag.set(true));
                    share(claims, w, f)
                })
            })
            .collect();
        let own = caller_share(|| share(claims, 0, f));
        assemble(
            len,
            std::iter::once(own).chain(helpers.into_iter().map(|h| h.join())),
        )
    })
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

/// One helper's share of one [`Pool::map`] call.
type Job = Box<dyn FnOnce() + Send>;

/// A pool of helper threads that outlives its calls: the caller of
/// [`Pool::map`] plus `jobs − 1` helpers, each parked on its own channel
/// between calls. Dropping the pool closes the channels and joins every
/// helper.
///
/// A pool built from inside a worker has no helpers: every map there runs
/// inline anyway (see [`in_worker`]).
pub struct Pool {
    /// The resolved worker count the pool was built for.
    jobs: usize,
    /// Helper `h` is worker `h + 1`.
    helpers: Vec<Helper>,
}

/// A parked helper thread and the channel that hands it jobs.
struct Helper {
    jobs: mpsc::Sender<Job>,
    thread: JoinHandle<()>,
}

impl Pool {
    /// A pool for `jobs` workers (`0` = resolve automatically): the caller
    /// and `jobs − 1` helper threads, started now.
    #[must_use]
    pub fn new(jobs: usize) -> Pool {
        let jobs = resolve(jobs);
        let helpers = if in_worker() { 0 } else { jobs - 1 };
        let helpers = (0..helpers)
            .map(|_| {
                let (tx, rx) = mpsc::channel::<Job>();
                let thread = thread::spawn(move || {
                    IN_WORKER.with(|flag| flag.set(true));
                    for job in rx {
                        job();
                    }
                });
                Helper { jobs: tx, thread }
            })
            .collect();
        Pool { jobs, helpers }
    }

    /// The resolved worker count the pool was built for.
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Maps `f` over `0..len` on the caller and the pool's helpers,
    /// returning `vec![f(0), f(1), …, f(len-1)]` — bit-identical to the
    /// sequential `(0..len).map(f).collect()`, as [`ordered_map_with`] is.
    /// With no helpers, from inside a worker, or for single-item ranges,
    /// the sequential loop runs inline on the caller.
    ///
    /// # Panics
    ///
    /// Propagates the first panic raised by `f`, once every worker has
    /// reported; the pool stays usable.
    pub fn map<T, F>(&self, len: usize, f: F) -> Vec<T>
    where
        T: Send + 'static,
        F: Fn(usize) -> T + Send + Sync + 'static,
    {
        let workers = (self.helpers.len() + 1).min(len);
        if workers <= 1 || in_worker() {
            return inline(len, f);
        }
        STAT_SCOPES.fetch_add(1, Ordering::Relaxed);
        let call = Arc::new((Claims::new(len, workers), f));
        let (done_tx, done_rx) = mpsc::channel();
        for (w, helper) in (1..workers).zip(&self.helpers) {
            let call = Arc::clone(&call);
            let done = done_tx.clone();
            let job: Job = Box::new(move || {
                let (claims, f) = &*call;
                let result = panic::catch_unwind(AssertUnwindSafe(|| share(claims, w, f)));
                // Let go of `f` before reporting, so it is gone by the
                // time the call returns.
                drop(call);
                let _ = done.send(result);
            });
            // A helper that is gone leaves its range to the others' steals.
            let _ = helper.jobs.send(job);
        }
        drop(done_tx);
        let (claims, f) = &*call;
        let own = caller_share(|| share(claims, 0, f));
        // The channel ends once every job that was handed out has run.
        assemble(len, std::iter::once(own).chain(done_rx))
    }
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("jobs", &self.jobs)
            .field("helpers", &self.helpers.len())
            .finish()
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        for Helper { jobs, thread } in self.helpers.drain(..) {
            drop(jobs);
            // A helper catches every share's panic, so it cannot have died
            // of one.
            let _ = thread.join();
        }
    }
}

/// The sequential loop every parallel call falls back to.
fn inline<T>(len: usize, f: impl Fn(usize) -> T) -> Vec<T> {
    STAT_INLINE_RUNS.fetch_add(1, Ordering::Relaxed);
    (0..len).map(f).collect()
}

/// One worker's range of a parallel call: the next unclaimed index and
/// the range's end. Cache-line aligned so one worker's claims do not slow
/// another's.
#[repr(align(64))]
struct Range {
    next: AtomicUsize,
    end: usize,
}

impl Range {
    /// Indices not yet claimed.
    fn left(&self) -> usize {
        self.end.saturating_sub(self.next.load(Ordering::Relaxed))
    }

    /// Claims the front index, if any is left. `Relaxed` suffices: the
    /// read-modify-write hands each index out once, and results travel
    /// back over a join or a channel, which synchronize.
    fn take(&self) -> Option<usize> {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        (i < self.end).then_some(i)
    }
}

/// The per-worker ranges of one parallel call.
struct Claims {
    ranges: Vec<Range>,
}

impl Claims {
    /// Splits `0..len` into `workers` contiguous ranges: worker `w` owns
    /// `[w·len/n, (w+1)·len/n)`, a pure function of `len` and `n`.
    fn new(len: usize, workers: usize) -> Claims {
        // w·len/n, computed without overflowing w·len.
        let bound = |w: usize| w * (len / workers) + w * (len % workers) / workers;
        Claims {
            ranges: (0..workers)
                .map(|w| Range {
                    next: AtomicUsize::new(bound(w)),
                    end: bound(w + 1),
                })
                .collect(),
        }
    }

    /// The next index for worker `w`: the front of its own range, else one
    /// taken from the range with the most left. The flag says whether it
    /// was stolen; `None` once every range is empty (no work is added
    /// mid-call, so that is final).
    fn claim(&self, w: usize) -> Option<(usize, bool)> {
        if let Some(i) = self.ranges[w].take() {
            return Some((i, false));
        }
        loop {
            let victim = self
                .ranges
                .iter()
                .max_by_key(|r| r.left())
                .filter(|r| r.left() > 0)?;
            if let Some(i) = victim.take() {
                return Some((i, true));
            }
        }
    }
}

/// Runs worker `w`'s share of a call: claims indices until every range is
/// empty, and returns each result beside its index.
fn share<T>(claims: &Claims, w: usize, f: &impl Fn(usize) -> T) -> Vec<(usize, T)> {
    let mut done = Vec::with_capacity(claims.ranges[w].left());
    let mut stolen = 0u64;
    while let Some((i, steal)) = claims.claim(w) {
        stolen += u64::from(steal);
        done.push((i, f(i)));
    }
    let run = done.len() as u64;
    STAT_CHUNKS_RUN.fetch_add(run, Ordering::Relaxed);
    STAT_CHUNKS_STOLEN.fetch_add(stolen, Ordering::Relaxed);
    STAT_WORKER_CHUNKS[w % STAT_WORKER_SLOTS].fetch_add(run, Ordering::Relaxed);
    done
}

/// Runs worker 0's share on the caller, marked as a worker meanwhile so
/// that parallel calls inside it run inline.
fn caller_share<T>(share: impl FnOnce() -> T) -> thread::Result<T> {
    IN_WORKER.with(|flag| flag.set(true));
    let out = panic::catch_unwind(AssertUnwindSafe(share));
    IN_WORKER.with(|flag| flag.set(false));
    out
}

/// The ordered reduction: files every worker's results under their
/// indices. Resumes the first panic once every share has reported.
fn assemble<T>(
    len: usize,
    shares: impl Iterator<Item = thread::Result<Vec<(usize, T)>>>,
) -> Vec<T> {
    let mut slots: Vec<Option<T>> = std::iter::repeat_with(|| None).take(len).collect();
    let mut panicked = None;
    for share in shares {
        match share {
            Ok(done) => {
                for (i, value) in done {
                    slots[i] = Some(value);
                }
            }
            Err(payload) => {
                panicked.get_or_insert(payload);
            }
        }
    }
    if let Some(payload) = panicked {
        panic::resume_unwind(payload);
    }
    let out: Vec<T> = slots.into_iter().flatten().collect();
    assert_eq!(out.len(), len, "every index is claimed exactly once");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicBool;
    use std::sync::{Barrier, Mutex};
    use std::time::Duration;

    fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
        payload
            .downcast_ref::<&str>()
            .map(ToString::to_string)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default()
    }

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
        // worker counts above the index count.
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
        // 4 items at 4 workers = one index per range, and each worker
        // claims its own range before stealing — so the barrier can only
        // release when all 4 indices run on 4 distinct live threads.
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
    fn jobs_two_runs_on_the_caller_and_one_helper() {
        let caller = std::thread::current().id();
        let barrier = Barrier::new(2);
        let ids = Mutex::new(HashSet::new());
        let _ = ordered_map_with(2, 2, |i| {
            ids.lock().unwrap().insert(std::thread::current().id());
            barrier.wait();
            i
        });
        let ids = ids.into_inner().unwrap();
        assert_eq!(ids.len(), 2, "two threads: {ids:?}");
        assert!(ids.contains(&caller), "the caller is worker 0");
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
        let msg = panic_message(&*payload);
        assert!(msg.contains("injected failure"), "payload: {msg}");
        assert!(!in_worker(), "the caller's worker mark is cleared");
    }

    #[test]
    fn nested_scope_is_rejected_and_runs_inline() {
        let out = ordered_map_with(4, 8, |i| {
            assert!(in_worker(), "outer closure must be on a worker");
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
        assert_eq!(resolve(0), 3);
        assert_eq!(resolve(5), 5);
        set_jobs(None);
        assert!(jobs() >= 1);
    }

    #[test]
    fn ranges_split_the_indices_exactly() {
        for len in [0usize, 1, 2, 7, 64, 1000, 1023] {
            for workers in [1usize, 2, 3, 4, 9] {
                let claims = Claims::new(len, workers);
                let mut start = 0;
                for (w, r) in claims.ranges.iter().enumerate() {
                    let first = r.next.load(Ordering::Relaxed);
                    assert_eq!(first, start, "len {len}, {workers} workers: range {w}");
                    assert_eq!(r.end, (w + 1) * len / workers);
                    start = r.end;
                }
                assert_eq!(start, len);
                let mut seen: Vec<usize> =
                    std::iter::from_fn(|| claims.claim(workers - 1).map(|(i, _)| i)).collect();
                seen.sort_unstable();
                assert_eq!(seen, (0..len).collect::<Vec<_>>(), "each index once");
            }
        }
    }

    #[test]
    fn pool_map_matches_the_sequential_loop() {
        let f = |i: usize| (i as f64).sqrt().sin() * 1e9;
        for jobs in [1, 2, 3, 8] {
            let pool = Pool::new(jobs);
            assert_eq!(pool.jobs(), jobs);
            for call in 0..120 {
                let len = [0, 1, 2, 7, 1000][call % 5];
                let seq: Vec<u64> = (0..len).map(|i| f(i).to_bits()).collect();
                let par = pool.map(len, move |i| f(i).to_bits());
                assert_eq!(par, seq, "jobs {jobs}, call {call}, len {len}");
            }
        }
    }

    #[test]
    fn pool_panics_resume_on_the_caller_after_every_worker_reports() {
        // Two indices on two workers under a barrier: index 0 runs on the
        // caller, index 1 on the helper. One of them panics; the other
        // finishes late, and the panic must not resume before it has. The
        // sleep only widens the window in which an early resume would be
        // seen; a correct pool passes whatever the timing.
        let pool = Pool::new(2);
        let caller = std::thread::current().id();
        for (panicking, on_caller) in [(0usize, true), (1, false)] {
            let barrier = Arc::new(Barrier::new(2));
            let finished = Arc::new(AtomicBool::new(false));
            let (b, fin) = (Arc::clone(&barrier), Arc::clone(&finished));
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                pool.map(2, move |i| {
                    let here = std::thread::current().id() == caller;
                    b.wait();
                    assert!(i != panicking, "injected failure at {i}, on caller: {here}");
                    std::thread::sleep(Duration::from_millis(20));
                    fin.store(true, Ordering::SeqCst);
                })
            }));
            let msg = panic_message(&*result.expect_err("the panic resumes on the caller"));
            assert!(
                msg.contains(&format!("on caller: {on_caller}")),
                "payload: {msg}"
            );
            assert!(
                finished.load(Ordering::SeqCst),
                "resumed before the other worker reported"
            );
            assert!(!in_worker(), "the caller's worker mark is cleared");
            assert_eq!(
                pool.map(1000, |i| i * 3),
                (0..1000).map(|i| i * 3).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn calls_inside_a_pool_job_run_inline() {
        let pool = Pool::new(3);
        let out = pool.map(8, |i| {
            assert!(in_worker(), "a pool job runs on a worker");
            let worker = std::thread::current().id();
            let inner = ordered_map_with(4, 16, move |j| {
                assert_eq!(std::thread::current().id(), worker, "nested spawn");
                j + i
            });
            let nested = Pool::new(4);
            assert_eq!(
                nested.helpers.len(),
                0,
                "a pool built on a worker spawns nothing"
            );
            inner.iter().sum::<usize>() + nested.map(2, |j| j).len()
        });
        assert_eq!(out, (0..8).map(|i| 122 + 16 * i).collect::<Vec<_>>());
        assert!(!in_worker(), "flag must not leak to the caller");
    }

    std::thread_local! {
        static TOKEN: std::cell::RefCell<Option<Arc<()>>> = const { std::cell::RefCell::new(None) };
    }

    #[test]
    fn dropping_the_pool_joins_every_helper() {
        // Each helper stashes a clone of the token in its thread-local
        // storage, which is torn down only when the helper thread exits.
        let token = Arc::new(());
        let pool = Pool::new(4);
        let caller = std::thread::current().id();
        let barrier = Arc::new(Barrier::new(4));
        let (t, b) = (Arc::clone(&token), Arc::clone(&barrier));
        let _ = pool.map(4, move |_| {
            b.wait();
            if std::thread::current().id() != caller {
                TOKEN.with(|slot| *slot.borrow_mut() = Some(Arc::clone(&t)));
            }
        });
        assert_eq!(
            Arc::strong_count(&token),
            4,
            "one clone per helper, plus ours"
        );
        drop(pool);
        assert_eq!(Arc::strong_count(&token), 1, "every helper has exited");
    }

    #[test]
    fn both_paths_count_into_one_stats_block() {
        // Counters are process-wide and other tests run concurrently, so
        // only lower bounds hold.
        let before = pool_stats();
        let _ = ordered_map_with(2, 10, |i| i);
        let pool = Pool::new(2);
        let _ = pool.map(10, |i| i);
        let _ = pool.map(1, |i| i);
        let after = pool_stats();
        assert!(after.scopes >= before.scopes + 2);
        assert!(after.chunks_run >= before.chunks_run + 20);
        assert!(after.inline_runs > before.inline_runs);
        let per_worker = |s: &PoolStats| s.worker_chunks.iter().sum::<u64>();
        assert!(per_worker(&after) >= per_worker(&before) + 20);
    }
}
