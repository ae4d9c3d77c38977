//! Per-page renewal-process trace synthesis.
//!
//! Each page writes according to an independent renewal process whose
//! inter-write intervals come from the workload's
//! [`WriteIntervalModel`](crate::interval::WriteIntervalModel). The first
//! write of each page lands at a uniformly random phase within its first
//! sampled interval, approximating a stationary start so the trace window
//! does not begin with a synchronized write burst across all pages.
//!
//! # Parallel synthesis (raw-speed wave 2)
//!
//! Pages are statistically independent (each owns a PRNG derived from
//! `(seed, page)` via `page_seed`), so synthesis fans the per-page
//! renewal loops across [`memutil::par`] and k-way-merges the per-page
//! event runs — each already time-sorted — into the global `(time, page)`
//! order that [`WriteTrace::new`] expects. The merge output is exactly the
//! sorted concatenation the pre-wave generator produced, so traces are
//! **byte-identical at any `--jobs`** (and to the retained [`reference`]
//! generator). The per-page loops draw hot-page intervals through the
//! hoisted block sampler
//! ([`IntervalSampler::fill_ms`](crate::interval::IntervalSampler::fill_ms));
//! every mixture branch consumes exactly two uniforms, so buffering draws
//! ahead never changes the stream an event sees, and the per-page PRNG is
//! discarded afterwards, so tail overdraw is unobservable.

use std::cmp::Reverse;

use memutil::par;
use memutil::rng::SmallRng;
use memutil::rng::{Rng, SeedableRng};

use crate::interval::{IntervalSampler, ParetoSampler};
use crate::trace::{WriteEvent, WriteTrace};
use crate::workload::WorkloadProfile;
use crate::NS_PER_MS;

fn page_seed(seed: u64, page: u64) -> u64 {
    let mut z = seed ^ page.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    z = (z ^ (z >> 32)).wrapping_mul(0xD6E8_FEB8_6659_FD93);
    z ^ (z >> 32)
}

/// Per-profile sampling constants, hoisted once per trace so the per-page
/// loops run free of `ln`/`powf` recomputation.
struct ProfileSamplers {
    hot: IntervalSampler,
    cold_revisit: f64,
    ln_revisit_lo: f64,
    ln_revisit_span: f64,
    cold_tail: ParetoSampler,
    /// Expected hot-page event count, for run preallocation.
    hot_events_hint: usize,
}

impl ProfileSamplers {
    fn new(profile: &WorkloadProfile, duration_ns: u64) -> Self {
        let duration_ms = duration_ns as f64 / NS_PER_MS as f64;
        ProfileSamplers {
            hot: profile.model.sampler(),
            cold_revisit: profile.cold_revisit,
            // A quick revisit: the program touches the page again within
            // seconds (log-uniform 1-20 s).
            ln_revisit_lo: 1000f64.ln(),
            ln_revisit_span: 20_000f64.ln() - 1000f64.ln(),
            cold_tail: profile.cold_model.sampler(),
            // ×2 headroom: the renewal count routinely lands well above
            // duration/mean (short draws dominate the realized path), and
            // one avoided regrow is worth far more than the slack.
            hot_events_hint: (duration_ms / profile.model.mean_ms().max(1e-9)) as usize * 2 + 16,
        }
    }

    /// One cold-page interval: revisit-or-tail, two uniform draws.
    #[inline]
    fn cold_sample_ms(&self, rng: &mut SmallRng) -> f64 {
        let u_branch: f64 = rng.gen();
        let u_value: f64 = rng.gen();
        if u_branch < self.cold_revisit {
            (self.ln_revisit_lo + u_value * self.ln_revisit_span).exp()
        } else {
            self.cold_tail.sample_u(u_value)
        }
    }
}

/// Synthesizes one page's time-sorted event run.
fn page_events(
    s: &ProfileSamplers,
    hot_pages: u64,
    duration_ns: u64,
    seed: u64,
    page: u64,
) -> Vec<WriteEvent> {
    let mut rng = SmallRng::seed_from_u64(page_seed(seed, page));
    let ns_per_ms = NS_PER_MS as f64;
    let mut events = Vec::new();
    if page < hot_pages {
        events.reserve(s.hot_events_hint);
        // Stationary-ish phase: the first write falls inside the first
        // interval at a uniform point.
        let mut t_ns = (s.hot.sample_ms(&mut rng) * rng.gen::<f64>() * ns_per_ms) as u64;
        // From here the stream is pure (branch, value) pairs: block-buffer
        // the draws and evaluate the lanes straight-line.
        let mut buf = [0.0f64; 32];
        'window: while t_ns <= duration_ns {
            s.hot.fill_ms(&mut rng, &mut buf);
            for &step_ms in &buf {
                if t_ns > duration_ns {
                    break 'window;
                }
                events.push(WriteEvent {
                    time_ns: t_ns,
                    page,
                });
                let step = (step_ms * ns_per_ms) as u64;
                // Intervals are strictly positive (≥ 10 µs by construction),
                // but guard against pathological parameterizations.
                t_ns = t_ns.saturating_add(step.max(1));
            }
        }
    } else {
        let mut t_ns = (s.cold_sample_ms(&mut rng) * rng.gen::<f64>() * ns_per_ms) as u64;
        while t_ns <= duration_ns {
            events.push(WriteEvent {
                time_ns: t_ns,
                page,
            });
            let step = (s.cold_sample_ms(&mut rng) * ns_per_ms) as u64;
            t_ns = t_ns.saturating_add(step.max(1));
        }
    }
    events
}

/// Merges two time-sorted runs into `out` with galloping chunk copies:
/// each step binary-searches how far the current run extends below the
/// other run's head and copies that whole stretch at once, so a dominant
/// run (the usual shape — one hot page among many near-silent cold pages)
/// moves in a handful of `memcpy`-sized blocks instead of per-event steps.
/// Equal `(time, page)` keys are identical events, so either tie side
/// yields the same bytes.
fn merge_two(a: &[WriteEvent], b: &[WriteEvent], out: &mut Vec<WriteEvent>) {
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        if a[i] <= b[j] {
            let run = a[i..].partition_point(|e| *e <= b[j]);
            out.extend_from_slice(&a[i..i + run]);
            i += run;
        } else {
            let run = b[j..].partition_point(|e| *e < a[i]);
            out.extend_from_slice(&b[j..j + run]);
            j += run;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

/// K-way merge of per-page runs (each time-sorted, one page per run) into
/// global `(time, page)` order. Ties across pages are broken by page id —
/// the same total order `sort_unstable` imposes on the concatenated vector,
/// so the result is identical to sort-after-concat.
///
/// Runs are merged two-shortest-first (Huffman order): small cold-page runs
/// coalesce among themselves before the dominant hot run is touched, so the
/// big run is copied O(1) times rather than once per merge level, and total
/// work stays O(N log k) for k same-sized runs.
fn merge_runs(runs: Vec<Vec<WriteEvent>>) -> Vec<WriteEvent> {
    let mut runs: Vec<Vec<WriteEvent>> = runs.into_iter().filter(|r| !r.is_empty()).collect();
    // Longest first, so the two shortest sit at the tail.
    runs.sort_unstable_by_key(|r| Reverse(r.len()));
    while runs.len() > 1 {
        let (Some(b), Some(a)) = (runs.pop(), runs.pop()) else {
            break;
        };
        let mut merged = Vec::with_capacity(a.len() + b.len());
        merge_two(&a, &b, &mut merged);
        let pos = runs.partition_point(|r| r.len() > merged.len());
        runs.insert(pos, merged);
    }
    runs.pop().unwrap_or_default()
}

/// Generates a deterministic write trace for `profile` from `seed`.
///
/// # Panics
///
/// Panics if the profile's interval model fails validation.
#[must_use]
pub fn generate(profile: &WorkloadProfile, seed: u64) -> WriteTrace {
    generate_with_jobs(profile, seed, 1)
}

/// Below this page count the pool is bypassed and synthesis runs inline.
/// A scaled-down trace (tens of pages, ~100 µs of work) loses more to
/// worker spawn/handoff than the fan-out returns — the
/// `trace_generation/netflix_scaled_jobs4` bench measured the pooled path
/// ~17 % *slower* than sequential at 32 pages. Output is unaffected:
/// `ordered_map_with` is byte-identical at every `jobs` value, so forcing
/// `jobs = 1` only picks the cheaper schedule.
pub const PARALLEL_PAGE_THRESHOLD: u64 = 128;

/// The job count synthesis actually uses: small traces are forced onto the
/// inline sequential path regardless of the requested fan-out.
fn effective_jobs(sim_pages: u64, jobs: usize) -> usize {
    if sim_pages < PARALLEL_PAGE_THRESHOLD {
        1
    } else {
        jobs
    }
}

/// Generates the trace with per-page synthesis fanned across `jobs`
/// workers (`0` = resolve automatically, as in [`memutil::par`]). The
/// result is byte-identical for every `jobs` value. Traces smaller than
/// [`PARALLEL_PAGE_THRESHOLD`] pages skip the pool entirely.
///
/// # Panics
///
/// Panics if the profile's interval model fails validation.
#[must_use]
pub fn generate_with_jobs(profile: &WorkloadProfile, seed: u64, jobs: usize) -> WriteTrace {
    profile
        .model
        .validate()
        .expect("invalid write-interval model");
    let duration_ns = (profile.sim_seconds * 1000.0 * NS_PER_MS as f64) as u64;
    // At least one hot page whenever the fraction is positive, so scaled-down
    // test traces keep both page classes.
    let hot_pages = if profile.hot_fraction > 0.0 {
        (profile.hot_fraction * profile.sim_pages as f64).ceil() as u64
    } else {
        0
    };
    let jobs = effective_jobs(profile.sim_pages, jobs);
    let samplers = ProfileSamplers::new(profile, duration_ns);
    let runs = par::ordered_map_with(jobs, profile.sim_pages as usize, |page| {
        page_events(&samplers, hot_pages, duration_ns, seed, page as u64)
    });
    WriteTrace::new(merge_runs(runs), duration_ns, profile.sim_pages)
}

/// The pre-wave sequential generator — one PRNG walk per page pushing into
/// a single vector, sorted by [`WriteTrace::new`] — retained as the slow
/// reference. [`generate_with_jobs`] is pinned byte-identical to it at
/// every `jobs` value by the equivalence property tests.
#[cfg(any(test, feature = "slow-reference"))]
pub mod reference {
    use super::{page_seed, Rng, SeedableRng, SmallRng, WorkloadProfile, WriteEvent, WriteTrace};
    use crate::NS_PER_MS;

    /// Sequential trace synthesis (the pre-wave implementation). Unlike
    /// the fast path it performs no model validation — equivalence
    /// harnesses hand it the same already-validated profiles.
    #[must_use]
    pub fn generate(profile: &WorkloadProfile, seed: u64) -> WriteTrace {
        let duration_ns = (profile.sim_seconds * 1000.0 * NS_PER_MS as f64) as u64;
        let hot_pages = if profile.hot_fraction > 0.0 {
            (profile.hot_fraction * profile.sim_pages as f64).ceil() as u64
        } else {
            0
        };
        let mut events = Vec::new();
        for page in 0..profile.sim_pages {
            let mut rng = SmallRng::seed_from_u64(page_seed(seed, page));
            let hot = page < hot_pages;
            let sample_ms = |rng: &mut SmallRng| {
                if hot {
                    profile.model.sample_ms(rng)
                } else if rng.gen::<f64>() < profile.cold_revisit {
                    (1000f64.ln() + rng.gen::<f64>() * (20_000f64.ln() - 1000f64.ln())).exp()
                } else {
                    profile.cold_model.sample(rng)
                }
            };
            let mut t_ns = (sample_ms(&mut rng) * rng.gen::<f64>() * NS_PER_MS as f64) as u64;
            while t_ns <= duration_ns {
                events.push(WriteEvent {
                    time_ns: t_ns,
                    page,
                });
                let step = (sample_ms(&mut rng) * NS_PER_MS as f64) as u64;
                t_ns = t_ns.saturating_add(step.max(1));
            }
        }
        WriteTrace::new(events, duration_ns, profile.sim_pages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;

    fn small_netflix() -> WorkloadProfile {
        WorkloadProfile::netflix().scaled(0.05)
    }

    #[test]
    fn deterministic_per_seed() {
        let p = small_netflix();
        assert_eq!(p.generate(1), p.generate(1));
        assert_ne!(p.generate(1), p.generate(2));
    }

    #[test]
    fn events_within_bounds() {
        let p = small_netflix();
        let t = p.generate(3);
        assert!(!t.is_empty());
        for e in t.events() {
            assert!(e.time_ns <= t.duration_ns());
            assert!(e.page < t.n_pages());
        }
    }

    #[test]
    fn every_hot_page_writes_quickly() {
        // Hot pages have ~10 ms mean intervals: a 2-second window covers all
        // of them. (Cold pages idle for minutes and may legitimately stay
        // silent in a short window.)
        let mut p = small_netflix();
        p.sim_pages = 32;
        p.hot_fraction = 1.0;
        p.sim_seconds = 2.0;
        let t = p.generate(4);
        let pages: std::collections::HashSet<_> = t.events().iter().map(|e| e.page).collect();
        assert_eq!(pages.len(), 32);
    }

    #[test]
    fn cold_pages_write_rarely_but_do_write() {
        let mut p = small_netflix();
        p.sim_pages = 64;
        p.hot_fraction = 0.0;
        p.sim_seconds = 60.0;
        let t = p.generate(9);
        let pages: std::collections::HashSet<_> = t.events().iter().map(|e| e.page).collect();
        // Cold pages idle on multi-minute scales: only some write within a
        // minute, and those write just a handful of times.
        assert!(pages.len() > 5, "only {} cold pages wrote", pages.len());
        assert!(pages.len() < 60, "cold pages too active: {}", pages.len());
        let per_page = t.len() as f64 / pages.len().max(1) as f64;
        assert!(
            per_page < 10.0,
            "cold pages too busy: {per_page} writes each"
        );
    }

    #[test]
    fn burst_dominance_survives_generation() {
        // Paper Fig. 7: >95% of (closed) write intervals under 1 ms.
        let p = small_netflix();
        let t = p.generate(5);
        let intervals = t.closed_intervals();
        let sub_ms = intervals.iter().filter(|i| i.len_ms() < 1.0).count();
        let frac = sub_ms as f64 / intervals.len() as f64;
        assert!(frac > 0.93, "sub-ms interval fraction {frac}");
    }

    #[test]
    fn long_intervals_dominate_time() {
        // Paper Fig. 9 shape at trace level (tail-censored intervals count
        // as idle time too).
        let mut p = WorkloadProfile::system_mgt();
        p.sim_pages = 200;
        let t = p.generate(6);
        let intervals = t.intervals_with_tail();
        let frac = stats::time_fraction_ge_ms(&intervals, 1024.0);
        assert!(frac > 0.6, "long-interval time fraction {frac}");
    }

    /// Seeded equivalence property: the fanned-out generator is
    /// byte-identical to the retained sequential reference at jobs
    /// {1, 2, 8}, across seeds and both a hot-heavy and a cold-heavy
    /// profile.
    #[test]
    fn prop_matches_reference_at_any_jobs() {
        let mut cold_heavy = small_netflix();
        cold_heavy.hot_fraction = 0.0;
        cold_heavy.sim_seconds = 30.0;
        // Above the bypass threshold, so the pooled path stays exercised
        // (the two small profiles take the forced-sequential path).
        let mut pooled = WorkloadProfile::netflix().scaled(0.25);
        pooled.sim_seconds = 10.0;
        assert!(pooled.sim_pages >= PARALLEL_PAGE_THRESHOLD);
        for profile in [small_netflix(), cold_heavy, pooled] {
            for seed in [1u64, 11, 0xDEAD_BEEF] {
                let expect = reference::generate(&profile, seed);
                for jobs in [1usize, 2, 8] {
                    let got = generate_with_jobs(&profile, seed, jobs);
                    assert_eq!(
                        got, expect,
                        "trace diverged from reference (seed={seed} jobs={jobs})"
                    );
                }
            }
        }
    }

    #[test]
    fn small_traces_bypass_the_pool() {
        // Below the threshold the requested fan-out is overridden to the
        // inline sequential path: the per-trace work is too small to
        // amortize the worker handoff (the `netflix_scaled_jobs4` bench
        // regression). At and above the threshold the request stands.
        let p = small_netflix();
        assert!(p.sim_pages < PARALLEL_PAGE_THRESHOLD);
        assert_eq!(effective_jobs(p.sim_pages, 4), 1);
        assert_eq!(effective_jobs(PARALLEL_PAGE_THRESHOLD - 1, 8), 1);
        assert_eq!(effective_jobs(PARALLEL_PAGE_THRESHOLD, 8), 8);
        assert_eq!(effective_jobs(PARALLEL_PAGE_THRESHOLD, 0), 0);
    }
}
