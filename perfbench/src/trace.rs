//! The benchmark's own span recorder and the arithmetic its traced run
//! reports: per-layer self time, time outside any span, and the
//! tail-percentile rule.
//!
//! Spans are recorded only inside traced windows, kept in memory and
//! written out when the run ends. A span names the layer it calls into as
//! `<layer>.<operation>`; the layer is everything before the last dot, so
//! `memutil.par.map` belongs to `memutil.par`.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The span a body runs under; spans opened with it nest below that span,
/// on whichever thread they are opened.
#[derive(Debug, Clone, Copy)]
pub struct Parent(Option<usize>);

/// Parent of spans opened outside any span.
pub const ROOT: Parent = Parent(None);

pub struct Tracer {
    origin: Instant,
    on: AtomicBool,
    next_id: AtomicUsize,
    spans: Mutex<Vec<Span>>,
    windows: Mutex<Vec<(u64, u64)>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            on: AtomicBool::new(false),
            next_id: AtomicUsize::new(0),
            spans: Mutex::new(Vec::new()),
            windows: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` as a traced window: spans are recorded only while a window
    /// is open, and the windows' total length is the traced wall time.
    pub fn window<R>(&self, f: impl FnOnce() -> R) -> R {
        let start = self.now_ns();
        self.on.store(true, Ordering::SeqCst);
        let out = f();
        self.on.store(false, Ordering::SeqCst);
        let end = self.now_ns();
        self.windows
            .lock()
            .expect("window list lock poisoned")
            .push((start, end));
        out
    }

    /// Runs `f` inside a span named `name` under `parent`. Outside a traced
    /// window this only calls `f`.
    pub fn span<R>(&self, name: &'static str, parent: Parent, f: impl FnOnce(Parent) -> R) -> R {
        if !self.on.load(Ordering::Relaxed) {
            return f(ROOT);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(Parent(Some(id)));
        let end_ns = self.now_ns();
        self.spans
            .lock()
            .expect("span list lock poisoned")
            .push(Span {
                id,
                parent: parent.0,
                name,
                start_ns,
                end_ns,
            });
        out
    }

    pub fn profile(&self) -> Profile {
        let spans = self.spans.lock().expect("span list lock poisoned");
        let windows = self.windows.lock().expect("window list lock poisoned");
        profile(&spans, &windows)
    }

    /// Writes every recorded span as tab-separated
    /// `id parent name start_ns end_ns` lines (`-` for no parent).
    pub fn write_spans(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span list lock poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\tstart_ns\tend_ns")?;
        for s in spans.iter() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{parent}\t{}\t{}\t{}",
                s.id, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// The layer a span belongs to: its name up to the last dot.
pub fn layer_of(name: &str) -> &str {
    name.rsplit_once('.').map_or(name, |(layer, _)| layer)
}

/// Where the traced wall time went.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    /// Total length of the traced windows.
    pub wall_ns: f64,
    /// Window time during which no span was open.
    pub outside_ns: f64,
    /// Self time per layer. Self time is wall-clock share: at every instant
    /// the time goes in equal parts to the innermost open spans (those with
    /// no open child), so a parent gets only what its children leave
    /// uncovered, and two workers' overlapping spans split the overlap.
    /// The self times and `outside_ns` therefore sum to `wall_ns`.
    pub self_ns: BTreeMap<String, f64>,
}

impl Profile {
    /// The layer with the most self time.
    pub fn top_layer(&self) -> Option<(&str, f64)> {
        self.self_ns
            .iter()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(l, t)| (l.as_str(), *t))
    }
}

/// Sweeps every span boundary in time order, splitting each elementary
/// interval among the innermost spans open during it.
pub fn profile(spans: &[Span], windows: &[(u64, u64)]) -> Profile {
    let index: BTreeMap<usize, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let parent: Vec<Option<usize>> = spans
        .iter()
        .map(|s| s.parent.and_then(|p| index.get(&p).copied()))
        .collect();
    // (time, is_open, span index); at equal times the order does not
    // matter, because only intervals of positive length are attributed.
    let mut events: Vec<(u64, bool, usize)> = Vec::with_capacity(spans.len() * 2);
    for (i, s) in spans.iter().enumerate() {
        events.push((s.start_ns, true, i));
        events.push((s.end_ns.max(s.start_ns), false, i));
    }
    events.sort_unstable();

    let mut open = vec![false; spans.len()];
    let mut open_children = vec![0u32; spans.len()];
    let mut innermost: Vec<usize> = Vec::new();
    let mut self_ns = vec![0.0f64; spans.len()];
    let mut covered = 0.0f64;
    let mut prev = events.first().map_or(0, |e| e.0);
    let refresh = |x: usize, open: &[bool], open_children: &[u32], innermost: &mut Vec<usize>| {
        let member = open[x] && open_children[x] == 0;
        match innermost.iter().position(|&y| y == x) {
            Some(pos) if !member => {
                innermost.swap_remove(pos);
            }
            None if member => innermost.push(x),
            _ => {}
        }
    };
    for &(t, is_open, i) in &events {
        if t > prev && !innermost.is_empty() {
            let dt = (t - prev) as f64;
            covered += dt;
            let share = dt / innermost.len() as f64;
            for &x in &innermost {
                self_ns[x] += share;
            }
        }
        prev = prev.max(t);
        open[i] = is_open;
        if let Some(p) = parent[i] {
            if is_open {
                open_children[p] += 1;
            } else {
                open_children[p] = open_children[p].saturating_sub(1);
            }
            refresh(p, &open, &open_children, &mut innermost);
        }
        refresh(i, &open, &open_children, &mut innermost);
    }

    let mut by_layer: BTreeMap<String, f64> = BTreeMap::new();
    for (s, t) in spans.iter().zip(&self_ns) {
        *by_layer.entry(layer_of(s.name).to_string()).or_default() += t;
    }
    let wall_ns: f64 = windows
        .iter()
        .map(|&(a, b)| b.saturating_sub(a) as f64)
        .sum();
    Profile {
        wall_ns,
        outside_ns: (wall_ns - covered).max(0.0),
        self_ns: by_layer,
    }
}

/// The highest of the usual percentiles that leaves at least ten of `n`
/// samples beyond it, under the nearest-rank definition used by
/// [`percentile`]; `None` when even the median leaves fewer than ten.
pub fn tail_percentile(n: usize) -> Option<f64> {
    [99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|&p| n.saturating_sub(nearest_rank(n, p)) >= 10)
}

fn nearest_rank(n: usize, p: f64) -> usize {
    // The epsilon keeps float error in `p / 100 * n` (99.9 % of 10 000 is
    // 9990.000000000002) from rounding a whole rank up.
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of `samples` (need not be sorted).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// Median (mean of the middle two for an even count).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn overlapping_children_from_two_workers_split_the_overlap() {
        // A parent on the main thread fans out to two workers whose child
        // spans overlap on [40, 60).
        let spans = [
            span(0, None, "memutil.par.map", 0, 100),
            span(1, Some(0), "memsim.run", 10, 60),
            span(2, Some(0), "dram.fill", 40, 90),
        ];
        let p = profile(&spans, &[(0, 100)]);
        // Parent keeps only what no child covers: [0,10) and [90,100).
        assert_eq!(p.self_ns["memutil.par"], 20.0);
        // Each child has 30 alone plus half of the 20 overlap.
        assert_eq!(p.self_ns["memsim"], 40.0);
        assert_eq!(p.self_ns["dram"], 40.0);
        assert_eq!(p.outside_ns, 0.0);
        let total: f64 = p.self_ns.values().sum::<f64>() + p.outside_ns;
        assert_eq!(total, p.wall_ns);
    }

    #[test]
    fn nested_children_are_subtracted_from_their_parent() {
        let spans = [
            span(7, None, "dram.fill", 0, 50),
            span(8, Some(7), "failure_model.content", 5, 15),
            span(9, Some(7), "failure_model.content", 20, 45),
        ];
        let p = profile(&spans, &[(0, 50)]);
        assert_eq!(p.self_ns["dram"], 15.0);
        assert_eq!(p.self_ns["failure_model"], 35.0);
        assert_eq!(p.top_layer(), Some(("failure_model", 35.0)));
    }

    #[test]
    fn time_outside_any_span_is_reported_per_window() {
        // Two windows of 100 and 50; spans cover 30 + 20 of them; the gap
        // between the windows is not traced time.
        let spans = [
            span(0, None, "fleet.epoch", 10, 40),
            span(1, None, "store.recover", 1_000, 1_020),
        ];
        let p = profile(&spans, &[(0, 100), (1_000, 1_050)]);
        assert_eq!(p.wall_ns, 150.0);
        assert_eq!(p.outside_ns, 100.0);
        let total: f64 = p.self_ns.values().sum::<f64>() + p.outside_ns;
        assert_eq!(total, p.wall_ns);
    }

    #[test]
    fn recorder_only_records_inside_windows_and_links_parents() {
        let t = Tracer::new();
        t.span("fleet.new", ROOT, |_| {});
        t.window(|| {
            t.span("fleet.epoch", ROOT, |parent| {
                std::thread::scope(|s| {
                    s.spawn(|| t.span("memsim.run", parent, |_| {}));
                    s.spawn(|| t.span("memsim.run", parent, |_| {}));
                });
            });
        });
        let spans = t.spans.lock().unwrap().clone();
        assert_eq!(spans.len(), 3, "the span outside the window is dropped");
        let root = spans.iter().find(|s| s.name == "fleet.epoch").unwrap();
        assert!(spans
            .iter()
            .filter(|s| s.name == "memsim.run")
            .all(|s| s.parent == Some(root.id)));
        let p = t.profile();
        let total: f64 = p.self_ns.values().sum::<f64>() + p.outside_ns;
        assert!((total - p.wall_ns).abs() < 1e-6);
    }

    #[test]
    fn tail_percentile_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        for n in [20, 57, 200, 1_000, 4_321] {
            let p = tail_percentile(n).unwrap();
            let samples: Vec<f64> = (1..=n).map(|x| x as f64).collect();
            let cut = percentile(&samples, p);
            let beyond = samples.iter().filter(|&&x| x > cut).count();
            assert!(beyond >= 10, "n={n} p={p}: {beyond} beyond");
        }
    }

    #[test]
    fn percentile_and_median_follow_their_definitions() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&xs, 50.0), 3.0);
        assert_eq!(percentile(&xs, 100.0), 5.0);
        assert_eq!(percentile(&xs, 1.0), 1.0);
        assert_eq!(median(&xs), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
