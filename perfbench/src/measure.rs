//! What every workload shares: options, output checks, the repeat loop
//! and the process-level measurements.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use telemetry::{Class, Registry};

use crate::trace::Tracer;

/// Directory, relative to the working directory, that runs write to:
/// span files and the durable fleet's store.
pub const OUT_DIR: &str = ".perfbench";

pub struct Opts {
    pub seed: u64,
    /// How long the repeat loop runs.
    pub seconds: f64,
    /// Worker count of every parallel call (`nproc`).
    pub jobs: usize,
    /// Traced run: units alternate untraced and traced, and the result
    /// carries per-layer metrics.
    pub traced: bool,
}

pub type Metrics = BTreeMap<&'static str, f64>;

/// What a workload hands back to `main`.
pub struct Outcome {
    pub checks: Checks,
    pub metrics: Metrics,
    /// Readable summary lines, printed before the result.
    pub lines: Vec<String>,
    /// The traced run's spans.
    pub tracer: Option<Tracer>,
    /// File-system type of the store directory, for workloads with one.
    pub store_fs: Option<String>,
}

/// Output checks: every check counts as attempted, a wrong output as
/// failed.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the summary.
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// One unit of work as the repeat loop ran it.
pub struct Unit<T> {
    pub traced: bool,
    pub out: T,
    /// The unit's enabled registry (traced units only).
    pub registry: Option<Arc<Registry>>,
    /// Pool chunks `(stolen, run)` during the unit.
    pub chunks: (u64, u64),
}

impl<T> Unit<T> {
    /// A deterministic counter of a traced unit (0 on untraced units).
    pub fn count(&self, name: &str) -> f64 {
        self.registry
            .as_ref()
            .map_or(0.0, |r| r.counter(name, Class::Deterministic).get() as f64)
    }
}

/// Runs `unit` until `opts.seconds` have passed and at least `min_units`
/// ran. In a traced run the units alternate untraced and traced, so both
/// see the same machine state; a traced unit runs inside a tracer window
/// with a fresh enabled telemetry registry. Untraced units keep telemetry
/// disabled. `unit` gets whether it is traced.
pub fn repeat<T>(
    opts: &Opts,
    min_units: usize,
    tracer: &Tracer,
    mut unit: impl FnMut(bool) -> T,
) -> Vec<Unit<T>> {
    let start = Instant::now();
    let mut units = Vec::new();
    // A traced run starts and ends with an untraced unit and has at least
    // two traced ones, each between two untraced neighbours.
    let min_units = if opts.traced {
        min_units.max(5)
    } else {
        min_units.max(1)
    };
    while units.len() < min_units
        || start.elapsed().as_secs_f64() < opts.seconds
        || (opts.traced && units.len() % 2 == 0)
    {
        let traced = opts.traced && units.len() % 2 == 1;
        let before = memutil::par::pool_stats();
        let (out, registry) = if traced {
            let registry = Arc::new(Registry::new());
            registry.set_enabled(true);
            let _scope = telemetry::install(Arc::clone(&registry));
            (tracer.window(|| unit(true)), Some(registry))
        } else {
            (unit(false), None)
        };
        let after = memutil::par::pool_stats();
        units.push(Unit {
            traced,
            out,
            registry,
            chunks: (
                after.chunks_stolen - before.chunks_stolen,
                after.chunks_run - before.chunks_run,
            ),
        });
    }
    units
}

/// Runs `f`, returning its result and elapsed seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Ratio of the pool chunks stolen to chunks run over `units`.
pub fn steal_ratio<T>(units: &[&Unit<T>]) -> f64 {
    let (stolen, run) = units
        .iter()
        .fold((0, 0), |(s, r), u| (s + u.chunks.0, r + u.chunks.1));
    if run == 0 {
        0.0
    } else {
        stolen as f64 / run as f64
    }
}

/// `telemetry.overhead_ratio` from `(traced, wall seconds)` of the units in
/// run order: every traced unit's time over the mean of its two untraced
/// neighbours, which cancels a steady drift of the machine's speed; the
/// median over traced units, minus one.
pub fn overhead_ratio(walls: &[(bool, f64)]) -> f64 {
    let ratios: Vec<f64> = walls
        .windows(3)
        .filter(|w| !w[0].0 && w[1].0 && !w[2].0)
        .map(|w| w[1].1 / ((w[0].1 + w[2].1) / 2.0))
        .collect();
    crate::trace::median(&ratios) - 1.0
}

/// Peak resident set size of this process (VmHWM), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// File-system type of the mount holding `path`, from
/// `/proc/self/mountinfo` (longest matching mount point).
pub fn fs_type(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".to_string();
    };
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".to_string();
    };
    info.lines()
        .filter_map(|line| {
            let mut fields = line.split(' ');
            let mount = fields.nth(4)?;
            let (_, after) = line.split_once(" - ")?;
            let fstype = after.split(' ').next()?;
            path.starts_with(mount)
                .then(|| (mount.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, t)| t)
}

/// Median of `f` over the units of one kind.
pub fn median_of<T>(units: &[&Unit<T>], f: impl Fn(&Unit<T>) -> f64) -> f64 {
    let values: Vec<f64> = units.iter().map(|u| f(u)).collect();
    crate::trace::median(&values)
}

/// The units of one kind (traced or not).
pub fn of_kind<T>(units: &[Unit<T>], traced: bool) -> Vec<&Unit<T>> {
    units.iter().filter(|u| u.traced == traced).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deliberately wrong output is counted as a failure and makes the
    /// error rate non-zero.
    #[test]
    fn a_wrong_output_counts_as_a_failure() {
        let mut checks = Checks::default();
        checks.check(true, || unreachable!());
        checks.check(1.2 > 1.0, || unreachable!());
        checks.check(0.9 > 1.0, || "speedup 0.9 is not above 1".to_string());
        assert_eq!((checks.attempted, checks.failed), (3, 1));
        assert_eq!(checks.failures, ["speedup 0.9 is not above 1"]);
        assert!((checks.error_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn repeat_alternates_untraced_and_traced_units() {
        let opts = Opts {
            seed: 1,
            seconds: 0.0,
            jobs: 1,
            traced: true,
        };
        let tracer = Tracer::new();
        let units = repeat(&opts, 0, &tracer, |traced| {
            assert_eq!(traced, telemetry::enabled());
            telemetry::count("perfbench.test.units", 1);
            traced
        });
        assert_eq!(
            units.iter().map(|u| u.traced).collect::<Vec<_>>(),
            [false, true, false, true, false]
        );
        assert!(units.iter().all(|u| u.out == u.traced));
        assert_eq!(units[1].count("perfbench.test.units"), 1.0);
        assert_eq!(units[0].count("perfbench.test.units"), 0.0);
    }

    #[test]
    fn overhead_compares_each_traced_unit_with_its_neighbours() {
        // The machine slows steadily; tracing adds 10 % on top.
        let walls = [
            (false, 1.0),
            (true, 1.21),
            (false, 1.2),
            (true, 1.43),
            (false, 1.4),
        ];
        assert!((overhead_ratio(&walls) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn peak_rss_and_fs_type_are_readable() {
        assert!(peak_rss_mb().unwrap() > 0.0);
        assert_ne!(fs_type(Path::new(".")), "unknown");
    }
}
