//! `trace-gen` — generate and export the Table-1 write traces.
//!
//! The paper published its (binary) write-interval traces online; this tool
//! produces the equivalent artifacts from the calibrated generators, as JSON
//! (the `WriteTrace::to_json` form) or a compact `time_ns page` text
//! listing.
//!
//! ```text
//! trace-gen <workload|all> [--scale S] [--window SECONDS] [--seed N]
//!           [--format json|text] [--out DIR]
//! ```
//!
//! `--scale` must lie in (0, 1] and `--window` in (0, the workload's
//! Table-1 duration]. Any other value, like an unknown workload or format,
//! is a usage error: an `error:` line and the usage on stderr, exit 2.

use std::io::Write as _;
use std::path::PathBuf;

use memtrace::workload::WorkloadProfile;

const USAGE: &str = "usage: trace-gen <workload|all> [--scale S] [--window SECONDS] [--seed N] \
                     [--format json|text] [--out DIR]";

struct Args {
    workload: String,
    scale: f64,
    window: Option<f64>,
    seed: u64,
    json: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        scale: 1.0,
        window: None,
        seed: 0xC0FFEE,
        json: false,
        out: PathBuf::from("."),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match a.as_str() {
            "--scale" => args.scale = value("--scale")?.parse().map_err(|e| format!("{e}"))?,
            "--window" => {
                args.window = Some(value("--window")?.parse().map_err(|e| format!("{e}"))?)
            }
            "--seed" => args.seed = value("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--format" => {
                args.json = match value("--format")?.as_str() {
                    "json" => true,
                    "text" => false,
                    other => return Err(format!("unknown format '{other}'")),
                }
            }
            "--out" => args.out = PathBuf::from(value("--out")?),
            w if !w.starts_with("--") && args.workload.is_empty() => args.workload = w.to_string(),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.workload.is_empty() {
        return Err("missing workload (a Table-1 name, or 'all')".into());
    }
    // 1 is the Table-1 footprint; the comparisons also refuse NaN.
    if !(args.scale > 0.0 && args.scale <= 1.0) {
        return Err(format!("--scale must be in (0, 1], got {:?}", args.scale));
    }
    Ok(args)
}

/// The profiles `args` names. A `--window` must be positive and no longer
/// than each profile's Table-1 capture, the trace it models.
fn profiles(args: &Args) -> Result<Vec<WorkloadProfile>, String> {
    let profiles = if args.workload == "all" {
        WorkloadProfile::all()
    } else {
        let profile = WorkloadProfile::by_name(&args.workload).ok_or_else(|| {
            format!(
                "unknown workload '{}'; known: {}, or 'all'",
                args.workload,
                WorkloadProfile::all()
                    .iter()
                    .map(|w| w.name.clone())
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        })?;
        vec![profile]
    };
    if let Some(window) = args.window {
        if let Some(p) = profiles
            .iter()
            .find(|p| !(window > 0.0 && window <= p.duration_s))
        {
            return Err(format!(
                "--window must be in (0, {}] s for {}, its Table-1 capture; got {window:?}",
                p.duration_s, p.name
            ));
        }
    }
    Ok(profiles)
}

fn export(profile: &WorkloadProfile, args: &Args) -> std::io::Result<()> {
    let mut w = profile.clone().scaled(args.scale);
    if let Some(window) = args.window {
        w = w.with_window(window);
    }
    let trace = w.generate(args.seed);
    std::fs::create_dir_all(&args.out)?;
    let ext = if args.json { "json" } else { "txt" };
    let path = args.out.join(format!("{}.trace.{ext}", w.name));
    let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
    if args.json {
        file.write_all(trace.to_json().emit().as_bytes())?;
    } else {
        writeln!(
            file,
            "# workload={} pages={} duration_ns={} events={}",
            w.name,
            trace.n_pages(),
            trace.duration_ns(),
            trace.len()
        )?;
        for e in trace.iter() {
            writeln!(file, "{} {}", e.time_ns, e.page)?;
        }
    }
    file.flush()?;
    eprintln!(
        "{}: {} events over {} pages -> {}",
        w.name,
        trace.len(),
        trace.n_pages(),
        path.display()
    );
    Ok(())
}

fn main() {
    let parsed = parse_args().and_then(|args| Ok((profiles(&args)?, args)));
    let (profiles, args) = match parsed {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    for profile in &profiles {
        if let Err(e) = export(profile, &args) {
            eprintln!("error writing {}: {e}", profile.name);
            std::process::exit(1);
        }
    }
}
