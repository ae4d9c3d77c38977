//! Cross-artifact consistency checks — facts no single-file lexer can
//! verify, spanning code, the telemetry golden file, and the fault-site
//! registry:
//!
//! * **`telemetry-name`** — every metric name used in library/binary code
//!   must appear in `TELEMETRY_expected.json` (else the obs gate can't see
//!   it), and every golden key must still be emitted by code (else the
//!   golden is stale). Golden keys span counters, histograms, and the
//!   gauge names of the deterministic time-series points. Names only
//!   observed under rare conditions — absent from the reference run by
//!   design — are listed in [`KNOWN_CONDITIONAL_METRICS`], which is itself
//!   checked for staleness.
//! * **`fault-site`** — the `fault.<site>` keys in the golden file and the
//!   site names returned by `faultinject`'s `Site::name` must match
//!   exactly, both directions.
//! * **`schema-once`** — each `memcon-<kind>/vN` schema string must occur
//!   exactly once in non-test code (its one defining site); a second
//!   occurrence is a copy that can drift.

use crate::lexer::Kind;
use crate::rules::Violation;
use crate::source::{FileClass, FileScan, ItemKind};
use memutil::json::Json;
use std::collections::{BTreeMap, BTreeSet};

/// Metric names legitimately used in code but absent from the reference
/// telemetry run (and therefore from `TELEMETRY_expected.json`):
///
/// * `memcon.recovery.backoff_quanta` — a histogram observed only when a
///   recovery backoff actually occurs; the reference run has none.
/// * `fleet.step.latency_us` — a `Class::Timing` histogram (wall-clock
///   step latencies); timing metrics never appear in the golden file's
///   deterministic section by design.
pub const KNOWN_CONDITIONAL_METRICS: [&str; 2] =
    ["memcon.recovery.backoff_quanta", "fleet.step.latency_us"];

/// The file owning the fault-site registry (`Site::name`).
const FAULT_REGISTRY_FILE: &str = "crates/faultinject/src/lib.rs";

/// Path reported for findings anchored in the golden file itself.
const GOLDEN_PATH: &str = "TELEMETRY_expected.json";

/// One string literal occurrence in non-test code.
struct Lit {
    value: String,
    path: String,
    line: u32,
    excerpt: String,
}

/// Whether `s` is shaped like a telemetry metric name:
/// 3+ dot-separated segments, each `[a-z][a-z0-9_]*`.
fn metric_shaped(s: &str) -> bool {
    let segs: Vec<&str> = s.split('.').collect();
    segs.len() >= 3
        && segs.iter().all(|seg| {
            let mut chars = seg.chars();
            chars.next().is_some_and(|c| c.is_ascii_lowercase())
                && seg
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        })
}

/// Whether `s` is shaped like a fault-site name:
/// `<subsystem>.<event>` with exactly two `[a-z][a-z0-9_]*` segments.
fn site_shaped(s: &str) -> bool {
    let segs: Vec<&str> = s.split('.').collect();
    segs.len() == 2
        && segs.iter().all(|seg| {
            let mut chars = seg.chars();
            chars.next().is_some_and(|c| c.is_ascii_lowercase())
                && seg
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        })
}

/// Whether `s` is shaped like a schema tag: `memcon-<kind>/vN`.
fn schema_shaped(s: &str) -> bool {
    let Some((name, version)) = s.rsplit_once("/v") else {
        return false;
    };
    let Some(kind) = name.strip_prefix("memcon-") else {
        return false;
    };
    !kind.is_empty()
        && kind
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')
        && !version.is_empty()
        && version.chars().all(|c| c.is_ascii_digit())
}

/// Collects interesting string literals from one analyzed file.
fn collect_literals(scan: &FileScan<'_>, pred: fn(&str) -> bool, out: &mut Vec<Lit>) {
    for (_, t) in scan.code_tokens() {
        if t.kind != Kind::Str {
            continue;
        }
        let Some(value) = t.str_value() else { continue };
        if pred(value) {
            out.push(Lit {
                value: value.to_string(),
                path: scan.path.clone(),
                line: t.line,
                excerpt: scan.line_text(t.line).to_string(),
            });
        }
    }
}

/// Extracts the metric-name keys from the golden telemetry report:
/// `deterministic.counters`, `deterministic.histograms`, and the gauge
/// names of every `deterministic.timeseries` sample point (the live
/// observability plane's gauges are golden-pinned series names too).
fn golden_keys(golden: &Json) -> BTreeSet<String> {
    let mut keys = BTreeSet::new();
    if let Some(Json::Obj(sections)) = golden.get("deterministic") {
        for (section, value) in sections {
            match (section.as_str(), value) {
                ("counters" | "histograms", Json::Obj(fields)) => {
                    keys.extend(fields.iter().map(|(k, _)| k.clone()));
                }
                ("timeseries", ts) => {
                    let Some(Json::Arr(points)) = ts.get("points") else {
                        continue;
                    };
                    for point in points {
                        if let Some(Json::Obj(gauges)) = point.get("gauges") {
                            keys.extend(gauges.iter().map(|(k, _)| k.clone()));
                        }
                    }
                }
                _ => {}
            }
        }
    }
    keys
}

/// Extracts the fault-site registry: the 2-segment string literals inside
/// `fn name` in the faultinject crate, via the item model.
fn registry_sites(scans: &[FileScan<'_>]) -> (BTreeSet<String>, Option<(String, u32)>) {
    let Some(scan) = scans.iter().find(|s| s.path == FAULT_REGISTRY_FILE) else {
        return (BTreeSet::new(), None);
    };
    let Some(item) = scan
        .items
        .iter()
        .find(|it| it.kind == ItemKind::Fn && it.name == "name")
    else {
        return (BTreeSet::new(), None);
    };
    let sites = item
        .body
        .clone()
        .filter_map(|i| scan.tokens[i].str_value())
        .filter(|v| site_shaped(v))
        .map(str::to_string)
        .collect();
    (sites, Some((scan.path.clone(), item.line)))
}

/// Runs every cross-artifact check. `golden` is the text of
/// `TELEMETRY_expected.json` when present; without it the telemetry and
/// fault-site checks are skipped (the schema-once check still runs).
#[must_use]
pub fn check(scans: &[FileScan<'_>], golden: Option<&str>) -> Vec<Violation> {
    let mut out = Vec::new();
    let code_scans: Vec<&FileScan<'_>> = scans
        .iter()
        .filter(|s| s.class != FileClass::Test)
        .collect();

    // -- schema-once -------------------------------------------------------
    let mut schema_lits = Vec::new();
    for scan in &code_scans {
        collect_literals(scan, schema_shaped, &mut schema_lits);
    }
    let mut by_value: BTreeMap<&str, Vec<&Lit>> = BTreeMap::new();
    for lit in &schema_lits {
        by_value.entry(&lit.value).or_default().push(lit);
    }
    for (value, mut sites) in by_value {
        if sites.len() <= 1 {
            continue;
        }
        sites.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
        for dup in &sites[1..] {
            out.push(Violation {
                rule: "schema-once",
                path: dup.path.clone(),
                line: dup.line,
                excerpt: format!(
                    "{} — schema string {value:?} already defined at {}:{}",
                    dup.excerpt, sites[0].path, sites[0].line
                ),
            });
        }
    }

    let Some(golden_text) = golden else {
        return finish(scans, out);
    };
    let Ok(golden_json) = Json::parse(golden_text) else {
        out.push(Violation {
            rule: "telemetry-name",
            path: GOLDEN_PATH.to_string(),
            line: 1,
            excerpt: "golden telemetry report is not valid JSON".to_string(),
        });
        return finish(scans, out);
    };
    let golden_names = golden_keys(&golden_json);

    // -- fault-site --------------------------------------------------------
    let (sites, registry_at) = registry_sites(scans);
    if let Some((reg_path, reg_line)) = &registry_at {
        let golden_sites: BTreeSet<&str> = golden_names
            .iter()
            .filter_map(|k| k.strip_prefix("fault."))
            .collect();
        for site in &sites {
            if !golden_sites.contains(site.as_str()) {
                out.push(Violation {
                    rule: "fault-site",
                    path: reg_path.clone(),
                    line: *reg_line,
                    excerpt: format!(
                        "site {site:?} is registered but fault.{site} is missing from {GOLDEN_PATH}"
                    ),
                });
            }
        }
        for gsite in golden_sites {
            if !sites.contains(gsite) {
                out.push(Violation {
                    rule: "fault-site",
                    path: GOLDEN_PATH.to_string(),
                    line: 1,
                    excerpt: format!(
                        "fault.{gsite} is in the golden report but {gsite:?} is not a registered site"
                    ),
                });
            }
        }
    }

    // -- telemetry-name ----------------------------------------------------
    // memlint's own sources are excluded: the names in
    // KNOWN_CONDITIONAL_METRICS would otherwise count as "uses" and
    // satisfy their own staleness check.
    let mut metric_lits = Vec::new();
    for scan in &code_scans {
        if scan.path.starts_with("crates/memlint/") {
            continue;
        }
        collect_literals(scan, metric_shaped, &mut metric_lits);
    }
    let used: BTreeSet<&str> = metric_lits.iter().map(|l| l.value.as_str()).collect();
    for lit in &metric_lits {
        let known = golden_names.contains(&lit.value)
            || KNOWN_CONDITIONAL_METRICS.contains(&lit.value.as_str())
            || lit
                .value
                .strip_prefix("fault.")
                .is_some_and(|s| sites.contains(s));
        if !known {
            out.push(Violation {
                rule: "telemetry-name",
                path: lit.path.clone(),
                line: lit.line,
                excerpt: format!(
                    "{} — metric {:?} is not in {GOLDEN_PATH}",
                    lit.excerpt, lit.value
                ),
            });
        }
    }
    for name in &golden_names {
        // fault.* keys are justified by the registry, checked above.
        if name.starts_with("fault.") {
            continue;
        }
        if !used.contains(name.as_str()) {
            out.push(Violation {
                rule: "telemetry-name",
                path: GOLDEN_PATH.to_string(),
                line: 1,
                excerpt: format!("golden metric {name:?} is never emitted by code (stale golden?)"),
            });
        }
    }
    for name in KNOWN_CONDITIONAL_METRICS {
        if !used.contains(name) {
            out.push(Violation {
                rule: "telemetry-name",
                path: "crates/memlint/src/artifact.rs".to_string(),
                line: 1,
                excerpt: format!(
                    "KNOWN_CONDITIONAL_METRICS lists {name:?} but no code uses it (stale allowlist)"
                ),
            });
        }
    }

    finish(scans, out)
}

/// Applies allow markers and sorts the findings.
fn finish(scans: &[FileScan<'_>], mut out: Vec<Violation>) -> Vec<Violation> {
    out.retain(|v| {
        scans
            .iter()
            .find(|s| s.path == v.path)
            .is_none_or(|s| !s.allowed(v.rule, v.line))
    });
    out.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    out
}

/// The cross-artifact rule identifiers, in report order.
pub const ARTIFACT_RULES: [&str; 3] = ["telemetry-name", "fault-site", "schema-once"];

#[cfg(test)]
mod tests {
    use super::*;

    fn scan_of<'s>(path: &str, src: &'s str) -> FileScan<'s> {
        FileScan::new(path, src)
    }

    const GOLDEN: &str = r#"{
        "schema": "memcon-telemetry/v1",
        "deterministic": {
            "counters": {
                "demo.core.reads": {"v": 1},
                "fault.demo.glitch": {"v": 2}
            },
            "histograms": {
                "demo.core.latency": {"n": 3}
            }
        }
    }"#;

    const REGISTRY: &str = "pub enum Site { Glitch }\n\
         impl Site {\n\
             pub fn name(self) -> &'static str {\n\
                 match self { Site::Glitch => \"demo.glitch\" }\n\
             }\n\
         }\n";

    /// A fixture file exercising every conditional metric, so the
    /// allowlist staleness check stays quiet in unrelated tests.
    fn cond_uses() -> String {
        let calls: String = KNOWN_CONDITIONAL_METRICS
            .iter()
            .map(|m| format!("count(\"{m}\", 1); "))
            .collect();
        format!("fn cond() {{ {calls}}}\n")
    }

    #[test]
    fn shapes() {
        assert!(metric_shaped("memcon.pril.writes"));
        assert!(metric_shaped("failure_model.eval.bank_failures"));
        assert!(!metric_shaped("two.segments"));
        assert!(!metric_shaped("1.2.3"));
        assert!(!metric_shaped("Has.Upper.case"));
        assert!(site_shaped("memsim.cmd_drop"));
        assert!(!site_shaped("three.part.name"));
        assert!(schema_shaped("memcon-faultplan/v1"));
        assert!(schema_shaped("memcon-memlint/v12"));
        assert!(!schema_shaped("memcon-faultplan/v"));
        assert!(!schema_shaped("other-thing/v1"));
        assert!(!schema_shaped("memcon-/v1"));
    }

    #[test]
    fn used_metric_in_golden_passes_unknown_fails() {
        let lib = "fn f() { telemetry::count(\"demo.core.reads\", 1); }\n";
        let bad = "fn g() { telemetry::count(\"demo.core.writes\", 1); }\n";
        let cond = cond_uses();
        let files = [
            scan_of("crates/demo/src/lib.rs", lib),
            scan_of("crates/demo/src/extra.rs", bad),
            scan_of("crates/faultinject/src/lib.rs", REGISTRY),
            scan_of(
                "crates/demo/src/hist.rs",
                "fn h() { telemetry::observe(\"demo.core.latency\", 1); }\n",
            ),
            scan_of("crates/demo/src/cond.rs", &cond),
        ];
        let v = check(&files, Some(GOLDEN));
        let names: Vec<&str> = v.iter().map(|v| v.rule).collect();
        assert_eq!(names, vec!["telemetry-name"]);
        assert!(
            v[0].excerpt.contains("demo.core.writes"),
            "{}",
            v[0].excerpt
        );
        assert_eq!(v[0].path, "crates/demo/src/extra.rs");
    }

    #[test]
    fn stale_golden_key_reported() {
        // Nothing emits demo.core.reads or demo.core.latency.
        let files = [scan_of("crates/faultinject/src/lib.rs", REGISTRY)];
        let v = check(&files, Some(GOLDEN));
        let stale: Vec<&Violation> = v
            .iter()
            .filter(|v| v.path == "TELEMETRY_expected.json" && v.rule == "telemetry-name")
            .collect();
        assert_eq!(stale.len(), 2, "{v:?}");
    }

    #[test]
    fn metric_names_in_test_code_ignored() {
        let lib = "#[cfg(test)]\nmod tests {\n fn t() { count(\"t.free.fake\", 1); }\n}\n";
        let cond = cond_uses();
        let files = [
            scan_of("crates/demo/src/lib.rs", lib),
            scan_of("crates/faultinject/src/lib.rs", REGISTRY),
            scan_of(
                "crates/demo/src/u.rs",
                "fn f() { count(\"demo.core.reads\", 1); observe(\"demo.core.latency\", 2); }\n",
            ),
            scan_of("crates/demo/src/cond.rs", &cond),
        ];
        assert!(check(&files, Some(GOLDEN)).is_empty());
    }

    #[test]
    fn timeseries_gauge_keys_count_as_golden_names() {
        // A gauge name that only exists in the golden's deterministic
        // time-series points must satisfy the rule in both directions:
        // code using it is covered, and code covering it keeps the golden
        // fresh.
        const TS_GOLDEN: &str = r#"{
            "schema": "memcon-telemetry/v1",
            "deterministic": {
                "counters": {"fault.demo.glitch": {"v": 1}},
                "timeseries": {
                    "points": [
                        {"tick": 1, "counters": {}, "gauges": {"demo.gauge.load": 5}}
                    ]
                }
            }
        }"#;
        let lib = "fn f() { telemetry::sample_point(1, &[(\"demo.gauge.load\", 5)]); }\n";
        let cond = cond_uses();
        let files = [
            scan_of("crates/demo/src/lib.rs", lib),
            scan_of("crates/faultinject/src/lib.rs", REGISTRY),
            scan_of("crates/demo/src/cond.rs", &cond),
        ];
        let v = check(&files, Some(TS_GOLDEN));
        assert!(v.is_empty(), "{v:?}");

        // Without the code use, the gauge key is stale golden data.
        let files = [
            scan_of("crates/faultinject/src/lib.rs", REGISTRY),
            scan_of("crates/demo/src/cond.rs", &cond),
        ];
        let v = check(&files, Some(TS_GOLDEN));
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].excerpt.contains("demo.gauge.load"), "{}", v[0].excerpt);
    }

    #[test]
    fn fault_site_mismatches_both_directions() {
        let extra_site = "pub enum Site { Glitch }\n\
             impl Site {\n\
                 pub fn name(self) -> &'static str {\n\
                     match self {\n\
                         Site::Glitch => \"demo.glitch\",\n\
                         Site::Phantom => \"demo.phantom\",\n\
                     }\n\
                 }\n\
             }\n";
        let files = [
            scan_of("crates/faultinject/src/lib.rs", extra_site),
            scan_of(
                "crates/demo/src/u.rs",
                "fn f() { count(\"demo.core.reads\", 1); observe(\"demo.core.latency\", 2); }\n",
            ),
        ];
        let v = check(&files, Some(GOLDEN));
        let fault: Vec<&Violation> = v.iter().filter(|v| v.rule == "fault-site").collect();
        assert_eq!(fault.len(), 1, "{v:?}");
        assert!(fault[0].excerpt.contains("demo.phantom"));
        // Reverse: golden names a fault the registry lacks.
        let files2 = [
            scan_of(
                "crates/faultinject/src/lib.rs",
                "impl Site { pub fn name(self) -> &'static str { match self { _ => \"demo.other\" } } }\n",
            ),
            scan_of(
                "crates/demo/src/u.rs",
                "fn f() { count(\"demo.core.reads\", 1); observe(\"demo.core.latency\", 2); }\n",
            ),
        ];
        let v2 = check(&files2, Some(GOLDEN));
        assert!(
            v2.iter()
                .any(|v| v.rule == "fault-site" && v.excerpt.contains("demo.glitch")),
            "{v2:?}"
        );
    }

    #[test]
    fn duplicated_schema_string_flagged_once_per_copy() {
        let a = "pub const SCHEMA: &str = \"memcon-demo/v1\";\n";
        let b = "fn emit() -> String { String::from(\"memcon-demo/v1\") }\n";
        let files = [
            scan_of("crates/a/src/lib.rs", a),
            scan_of("crates/b/src/lib.rs", b),
        ];
        let v = check(&files, None);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "schema-once");
        assert_eq!(v[0].path, "crates/b/src/lib.rs");
        assert!(
            v[0].excerpt.contains("crates/a/src/lib.rs:1"),
            "{}",
            v[0].excerpt
        );
        // A single definition is fine, as are test-code mentions.
        let t = "#[cfg(test)]\nmod tests { fn t() { assert_eq!(S, \"memcon-demo/v1\"); } }\n";
        let files2 = [
            scan_of("crates/a/src/lib.rs", a),
            scan_of("crates/a/tests/check.rs", b),
            scan_of("crates/a/src/t.rs", t),
        ];
        assert!(check(&files2, None).is_empty());
    }

    #[test]
    fn stale_conditional_allowlist_reported() {
        let uses_all = format!(
            "fn f() {{ count(\"demo.core.reads\", 1); observe(\"demo.core.latency\", 2); }}\n{}",
            cond_uses()
        );
        let files = [
            scan_of("crates/demo/src/u.rs", &uses_all),
            scan_of("crates/faultinject/src/lib.rs", REGISTRY),
        ];
        assert!(check(&files, Some(GOLDEN)).is_empty());
        // Drop the conditional uses: every allowlist entry is now stale.
        let files2 = [
            scan_of(
                "crates/demo/src/u.rs",
                "fn f() { count(\"demo.core.reads\", 1); observe(\"demo.core.latency\", 2); }\n",
            ),
            scan_of("crates/faultinject/src/lib.rs", REGISTRY),
        ];
        let v = check(&files2, Some(GOLDEN));
        assert_eq!(v.len(), KNOWN_CONDITIONAL_METRICS.len(), "{v:?}");
        assert!(v.iter().all(|v| v.excerpt.contains("stale allowlist")));
    }
}
