//! `cargo run -p xtask -- <command>` — workspace automation entry point.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("lint") => {
            let update = args.iter().any(|a| a == "--update-ratchet");
            let json = args.iter().find_map(|a| {
                if a == "--json" {
                    Some("-")
                } else {
                    a.strip_prefix("--json=")
                }
            });
            xtask::lint_cmd(update, json)
        }
        Some("ci") => xtask::ci_cmd(args.iter().any(|a| a == "--bench")),
        Some("obs") => xtask::obs::obs_cmd(&args[1..]),
        Some("chaos") => xtask::chaos::chaos_cmd(&args[1..]),
        Some("crash") => xtask::crash::crash_cmd(&args[1..]),
        Some("fleet") => xtask::fleet::fleet_cmd(&args[1..]),
        Some("top") => xtask::top::top_cmd(&args[1..]),
        Some("bench") => match args.get(1).map(String::as_str) {
            Some("baseline") => xtask::bench_baseline_cmd(),
            Some("compare") => xtask::bench_compare_cmd(),
            other => {
                eprintln!(
                    "xtask: unknown bench target {other:?} (expected `baseline` or `compare`)"
                );
                usage();
                2
            }
        },
        Some(other) => {
            eprintln!("xtask: unknown command {other:?}");
            usage();
            2
        }
        None => {
            usage();
            2
        }
    };
    std::process::exit(code);
}

fn usage() {
    eprintln!(
        "usage: cargo run -p xtask -- <command>\n\
         \n\
         commands:\n\
         \x20 lint [--update-ratchet] [--json[=PATH]]\n\
         \x20                           run memlint against the ratchet; --json\n\
         \x20                           emits the memcon-memlint/v1 report to\n\
         \x20                           stdout (or PATH, relative to the\n\
         \x20                           workspace root)\n\
         \x20 ci [--bench]              fmt-check (if rustfmt present), memlint,\n\
         \x20                           cargo build --release, a release run of\n\
         \x20                           each root example (quickstart,\n\
         \x20                           chip_testing, online_testing,\n\
         \x20                           refresh_performance), clippy -D warnings\n\
         \x20                           (if clippy present), cargo doc --no-deps\n\
         \x20                           with RUSTDOCFLAGS=-D warnings, the\n\
         \x20                           --jobs 1-vs-4 output + telemetry\n\
         \x20                           determinism gate (output also pinned\n\
         \x20                           to EXPERIMENTS_quick_expected.txt),\n\
         \x20                           obs --check, a quick 3-plan chaos soak,\n\
         \x20                           cargo test --workspace -q, the memcon,\n\
         \x20                           memsim and fleet tests with\n\
         \x20                           strict-invariants,\n\
         \x20                           the perfbench self-tests; --bench\n\
         \x20                           additionally runs `bench compare`,\n\
         \x20                           `obs overhead`, and `chaos overhead`\n\
         \x20 chaos [--plans N] [--quick] [health [--serve[=ADDR]]] [overhead]\n\
         \x20                           fault-injection soak gate: N seeded\n\
         \x20                           all-site plans over the fig9 workload\n\
         \x20                           set (no panic, no uncorrectable escape,\n\
         \x20                           refresh-correctness invariant, jobs 1-vs-4\n\
         \x20                           determinism) plus a faulted controller\n\
         \x20                           audit; `health` soaks a faulted fleet\n\
         \x20                           with the SLO monitor armed (alert within\n\
         \x20                           2 epochs of the first fault, flight-record\n\
         \x20                           dump, optional live scrape endpoint via\n\
         \x20                           --serve); `overhead` gates the\n\
         \x20                           idle-injector cost (<2% on the eval\n\
         \x20                           kernel)\n\
         \x20 crash [--quick] [--points=N]\n\
         \x20                           crash-recovery soak gate: N seeded\n\
         \x20                           durable-fleet crashes, each killed\n\
         \x20                           mid-publish of a barrier image (recover,\n\
         \x20                           resume, byte-compare against the fleet\n\
         \x20                           run in memory) plus a corrupt-checksum\n\
         \x20                           leg and an injected torn-write leg;\n\
         \x20                           --quick soaks 4 points\n\
         \x20 fleet [run|bench|soak|--smoke]\n\
         \x20                           fleet-scale simulation: `run` a sharded\n\
         \x20                           fleet (--nodes N --seed S --jobs J\n\
         \x20                           [--json] [--faults]), `bench` the 64-DIMM\n\
         \x20                           jobs 1-vs-4 scaling gate (>=2.5x on >=4\n\
         \x20                           CPUs), `soak` chaos plans over a faulted\n\
         \x20                           fleet, `--smoke` the quick jobs 1-vs-4\n\
         \x20                           byte-diff CI leg\n\
         \x20 top ADDR [--watch N] [--series NAME]\n\
         \x20                           view a live scrape endpoint (HEALTH +\n\
         \x20                           METRICS, plus named SERIES), one-shot or\n\
         \x20                           redrawn every N seconds\n\
         \x20 obs [print|--write|--check|diff A B|overhead]\n\
         \x20                           telemetry-report tooling: pretty-print the\n\
         \x20                           reference report, refresh/verify the\n\
         \x20                           TELEMETRY_expected.json golden file, diff\n\
         \x20                           two reports, or gate the enabled-telemetry\n\
         \x20                           overhead (<2% on the eval kernel)\n\
         \x20 bench baseline            run the micro bench suite and write\n\
         \x20                           BENCH_baseline.json (use --release)\n\
         \x20 bench compare             run the micro bench suite and compare\n\
         \x20                           medians against BENCH_baseline.json;\n\
         \x20                           exits non-zero on a >15% regression\n\
         \x20                           (use --release)"
    );
}
