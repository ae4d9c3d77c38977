//! `trace-gen` refuses out-of-range `--scale` and `--window` values with a
//! usage error (exit 2) before generating anything.

use std::process::{Command, Output};

use memtrace::workload::WorkloadProfile;

fn trace_gen(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_trace-gen"))
        .args(args)
        .output()
        .expect("trace-gen starts")
}

/// Runs `trace-gen` on `args` and checks it exits 2 with an `error:` line.
/// The output directory is a temp one, should the refusal ever regress.
fn assert_usage_error(args: &[&str]) -> String {
    let dir = std::env::temp_dir().join(format!("trace-gen-refused-{}", std::process::id()));
    let dir = dir.to_str().expect("temp dir is UTF-8");
    let out = trace_gen(&[args, &["--out", dir]].concat());
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
    stderr
}

#[test]
fn out_of_range_scale_and_window_exit_2() {
    for args in [
        ["Netflix", "--scale", "0"],
        ["Netflix", "--scale", "nan"],
        ["Netflix", "--window", "-5"],
        ["Netflix", "--window", "1e30"],
    ] {
        assert_usage_error(&args);
    }
}

#[test]
fn a_window_longer_than_a_capture_names_its_workload() {
    let short = WorkloadProfile::all()
        .into_iter()
        .find(|w| w.duration_s < 100.0)
        .expect("some Table-1 capture is shorter than 100 s");
    let stderr = assert_usage_error(&["all", "--window", "100"]);
    assert!(stderr.contains(&short.name), "{stderr}");
}

#[test]
fn an_in_range_request_exports_its_trace() {
    let dir = std::env::temp_dir().join(format!("trace-gen-cli-{}", std::process::id()));
    let out = trace_gen(&[
        "Netflix",
        "--scale",
        "0.05",
        "--window",
        "1",
        "--out",
        dir.to_str().expect("temp dir is UTF-8"),
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(dir.join("Netflix.trace.txt").is_file());
    std::fs::remove_dir_all(&dir).ok();
}
