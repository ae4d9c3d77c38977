//! The lint rules, implemented as patterns over the token stream.
//!
//! Every rule walks [`FileScan::code_tokens`]-style filtered tokens
//! (comments and `#[cfg(test)]` regions excluded), so string literals,
//! comments, and test code can never produce findings. Allow markers are
//! applied by the caller ([`scan_file`]) after a rule fires, keeping the
//! rules themselves oblivious to suppression.

use crate::lexer::Kind;
use crate::source::{FileClass, FileScan};
use std::fmt;

/// One rule hit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule identifier.
    pub rule: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line number.
    pub line: u32,
    /// The offending source line, trimmed.
    pub excerpt: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.path, self.line, self.rule, self.excerpt
        )
    }
}

/// All rule identifiers, in report order. The first five are the legacy
/// rules re-implemented on tokens (`wall-clock` subsumes the old
/// `no-instant`); the last four are the determinism/concurrency pass.
pub const RULES: [&str; 9] = [
    "no-unwrap",
    "no-panic",
    "cast-truncation",
    "float-eq",
    "wall-clock",
    "map-iter-order",
    "thread-outside-par",
    "global-mut-state",
    "env-read",
];

/// Integer types narrower than the 64-bit address/cycle domain.
const NARROW_TYPES: [&str; 6] = ["u8", "u16", "u32", "i8", "i16", "i32"];

/// Identifier fragments marking a line as address/cycle arithmetic.
const ADDR_CYCLE_WORDS: [&str; 6] = ["cycle", "addr", "row", "col", "bank", "page"];

/// Map/set methods whose results depend on hash iteration order.
const ITER_METHODS: [&str; 8] = [
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
];

/// Interior-mutability wrappers that make a `static` mutable global state.
const INTERIOR_MUT_TYPES: [&str; 18] = [
    "AtomicBool",
    "AtomicU8",
    "AtomicU16",
    "AtomicU32",
    "AtomicU64",
    "AtomicUsize",
    "AtomicI8",
    "AtomicI16",
    "AtomicI32",
    "AtomicI64",
    "AtomicIsize",
    "Mutex",
    "RwLock",
    "OnceLock",
    "OnceCell",
    "LazyLock",
    "RefCell",
    "UnsafeCell",
];

/// Files exempt from `global-mut-state`: the two sanctioned install-guard
/// registries, whose statics *are* the feature (guarded by install
/// discipline and covered by their own tests).
const GLOBAL_STATE_REGISTRIES: [&str; 2] = [
    "crates/telemetry/src/registry.rs",
    "crates/faultinject/src/lib.rs",
];

/// The one file allowed to spawn threads (the deterministic fan-out
/// helper) and to read the environment (`MEMCON_JOBS` config resolution).
const PAR_FILE: &str = "crates/memutil/src/par.rs";

/// Scans one analyzed file with every applicable rule, honoring allow
/// markers and the per-rule sanctioned-path exemptions.
#[must_use]
pub fn scan_file(scan: &FileScan<'_>) -> Vec<Violation> {
    if scan.class == FileClass::Test {
        return Vec::new();
    }
    let ctx = Ctx::new(scan);
    let mut out = Vec::new();

    if scan.class == FileClass::Library {
        no_unwrap(&ctx, &mut out);
        no_panic(&ctx, &mut out);
        if !GLOBAL_STATE_REGISTRIES.contains(&scan.path.as_str()) {
            global_mut_state(&ctx, &mut out);
        }
        map_iter_order(&ctx, &mut out);
        if scan.path != PAR_FILE {
            env_read(&ctx, &mut out);
        }
    }
    cast_truncation(&ctx, &mut out);
    float_eq(&ctx, &mut out);
    if !scan.path.starts_with("crates/telemetry/") {
        wall_clock(&ctx, &mut out);
    }
    if scan.path != PAR_FILE {
        thread_outside_par(&ctx, &mut out);
    }

    out.retain(|v| !scan.allowed(v.rule, v.line));
    out.sort_by_key(|v| (v.line, RULES.iter().position(|r| *r == v.rule)));
    out.dedup();
    out
}

/// Rule context: the scan plus its code-token index (non-comment,
/// non-test tokens, in source order).
struct Ctx<'a, 's> {
    scan: &'a FileScan<'s>,
    code: Vec<usize>,
}

impl<'a, 's> Ctx<'a, 's> {
    fn new(scan: &'a FileScan<'s>) -> Self {
        let code = scan
            .tokens
            .iter()
            .enumerate()
            .filter(|(i, t)| !t.is_comment() && !scan.in_test[*i])
            .map(|(i, _)| i)
            .collect();
        Ctx { scan, code }
    }

    fn text(&self, c: usize) -> &str {
        self.code.get(c).map_or("", |&i| self.scan.tokens[i].text)
    }

    fn kind(&self, c: usize) -> Option<Kind> {
        self.code.get(c).map(|&i| self.scan.tokens[i].kind)
    }

    fn line(&self, c: usize) -> u32 {
        self.code.get(c).map_or(0, |&i| self.scan.tokens[i].line)
    }

    fn is_ident(&self, c: usize, name: &str) -> bool {
        self.kind(c) == Some(Kind::Ident) && self.text(c) == name
    }

    fn push(&self, out: &mut Vec<Violation>, rule: &'static str, c: usize) {
        let line = self.line(c);
        out.push(Violation {
            rule,
            path: self.scan.path.clone(),
            line,
            excerpt: self.scan.line_text(line).to_string(),
        });
    }
}

/// `.unwrap()` / `.expect(…)` in non-test library code: library crates
/// must surface errors as values; aborting inside a long
/// figure-reproduction run loses hours of work.
fn no_unwrap(ctx: &Ctx<'_, '_>, out: &mut Vec<Violation>) {
    for c in 0..ctx.code.len() {
        if ctx.text(c) != "." || ctx.kind(c + 1) != Some(Kind::Ident) {
            continue;
        }
        let hit = match ctx.text(c + 1) {
            "unwrap" => ctx.text(c + 2) == "(" && ctx.text(c + 3) == ")",
            "expect" => ctx.text(c + 2) == "(",
            _ => false,
        };
        if hit {
            ctx.push(out, "no-unwrap", c + 1);
        }
    }
}

/// `panic!` in non-test library code, same rationale as `no-unwrap`.
/// Deliberate invariant panics carry an inline allow marker.
fn no_panic(ctx: &Ctx<'_, '_>, out: &mut Vec<Violation>) {
    for c in 0..ctx.code.len() {
        if ctx.is_ident(c, "panic") && ctx.text(c + 1) == "!" {
            ctx.push(out, "no-panic", c);
        }
    }
}

/// `as` casts to a type narrower than 64 bits on lines handling addresses
/// or cycle counts. A truncated cycle counter silently wraps after hours
/// of simulated time.
fn cast_truncation(ctx: &Ctx<'_, '_>, out: &mut Vec<Violation>) {
    for c in 0..ctx.code.len() {
        if !ctx.is_ident(c, "as") || !NARROW_TYPES.contains(&ctx.text(c + 1)) {
            continue;
        }
        let line = ctx.line(c);
        let addr_context = ctx.code.iter().any(|&i| {
            let t = &ctx.scan.tokens[i];
            t.line == line
                && t.kind == Kind::Ident
                && ADDR_CYCLE_WORDS
                    .iter()
                    .any(|w| t.text.to_lowercase().contains(w))
        });
        if addr_context {
            ctx.push(out, "cast-truncation", c);
        }
    }
}

/// Whether an identifier names a timing quantity.
fn timing_ident(text: &str) -> bool {
    text.contains("_ns") || text.contains("_ms")
}

/// `==` / `!=` where an operand chain mentions a timing identifier
/// (`*_ns` / `*_ms`). Timing arithmetic mixes ns→cycle conversions; exact
/// float comparison is almost always a bug outside test assertions.
fn float_eq(ctx: &Ctx<'_, '_>, out: &mut Vec<Violation>) {
    let operand_chain = |c: usize| -> bool {
        matches!(ctx.kind(c), Some(Kind::Ident | Kind::Num))
            || matches!(ctx.text(c), "." | "(" | ")" | "::")
    };
    for c in 0..ctx.code.len() {
        if !matches!(ctx.text(c), "==" | "!=") {
            continue;
        }
        let mut hit = false;
        // Walk each direction over the operand chain, bounded.
        for step in 1..=8usize {
            let Some(b) = c.checked_sub(step) else { break };
            if !operand_chain(b) {
                break;
            }
            hit |= ctx.kind(b) == Some(Kind::Ident) && timing_ident(ctx.text(b));
        }
        for step in 1..=8usize {
            if !operand_chain(c + step) {
                break;
            }
            hit |= ctx.kind(c + step) == Some(Kind::Ident) && timing_ident(ctx.text(c + step));
        }
        if hit {
            ctx.push(out, "float-eq", c);
        }
    }
}

/// `Instant::now` / `SystemTime::now` outside `crates/telemetry/`. Wall
/// clocks in simulation code are the classic way nondeterminism sneaks
/// into "deterministic" results; all timing must flow through telemetry
/// spans or the frozen `memutil::bench` harness. Subsumes the old
/// `no-instant` rule.
fn wall_clock(ctx: &Ctx<'_, '_>, out: &mut Vec<Violation>) {
    for c in 0..ctx.code.len() {
        if matches!(ctx.text(c), "Instant" | "SystemTime")
            && ctx.kind(c) == Some(Kind::Ident)
            && ctx.text(c + 1) == "::"
            && ctx.is_ident(c + 2, "now")
        {
            ctx.push(out, "wall-clock", c);
        }
    }
}

/// `std::thread::spawn` / `thread::scope` outside `memutil::par`. Ad-hoc
/// threads bypass the deterministic fan-out (fixed chunking, ordered
/// joins) that the jobs-invariance gate certifies.
fn thread_outside_par(ctx: &Ctx<'_, '_>, out: &mut Vec<Violation>) {
    for c in 0..ctx.code.len() {
        if ctx.is_ident(c, "thread")
            && ctx.text(c + 1) == "::"
            && matches!(ctx.text(c + 2), "spawn" | "scope")
        {
            ctx.push(out, "thread-outside-par", c);
        }
    }
}

/// `std::env::var` (and friends) outside config resolution. Environment
/// reads scattered through library code make results depend on invisible
/// ambient state; all knobs route through `memutil::par`'s jobs resolver
/// or explicit options structs.
fn env_read(ctx: &Ctx<'_, '_>, out: &mut Vec<Violation>) {
    for c in 0..ctx.code.len() {
        if ctx.is_ident(c, "env")
            && ctx.text(c + 1) == "::"
            && matches!(ctx.text(c + 2), "var" | "var_os" | "vars" | "vars_os")
        {
            ctx.push(out, "env-read", c);
        }
    }
}

/// `static` items with interior-mutability types (or `static mut`)
/// outside the sanctioned registries. Mutable globals are cross-run state
/// the determinism gates cannot see; `thread_local!` statics are exempt
/// (per-thread, torn down with the worker).
fn global_mut_state(ctx: &Ctx<'_, '_>, out: &mut Vec<Violation>) {
    for c in 0..ctx.code.len() {
        if !ctx.is_ident(c, "static") {
            continue;
        }
        let orig = ctx.code[c];
        if ctx.scan.in_thread_local[orig] {
            continue;
        }
        if ctx.is_ident(c + 1, "mut") {
            ctx.push(out, "global-mut-state", c);
            continue;
        }
        // `static NAME: <type…> =` — flag when the type mentions an
        // interior-mutability wrapper.
        if ctx.kind(c + 1) != Some(Kind::Ident) || ctx.text(c + 2) != ":" {
            continue;
        }
        if type_window_mentions(ctx, c + 3, &INTERIOR_MUT_TYPES) {
            ctx.push(out, "global-mut-state", c);
        }
    }
}

/// Scans a type position starting at code index `c` until a terminator at
/// angle-bracket depth zero (or a 40-token safety bound), returning whether
/// any identifier in the window is in `needles`.
fn type_window_mentions(ctx: &Ctx<'_, '_>, c: usize, needles: &[&str]) -> bool {
    let mut depth = 0i64;
    for step in 0..40usize {
        let d = c + step;
        if ctx.kind(d).is_none() {
            return false;
        }
        match ctx.text(d) {
            "<" => depth += 1,
            ">" => depth -= 1,
            ">>" => depth -= 2,
            "<<" => depth += 2,
            "," | ";" | "=" | "{" | "}" | ")" | "|" if depth <= 0 => return false,
            t if ctx.kind(d) == Some(Kind::Ident) && needles.contains(&t) => return true,
            _ => {}
        }
    }
    false
}

/// Iterating a `HashMap`/`HashSet` in non-test library code. `std`'s hash
/// maps use a per-process random seed, so iteration order differs between
/// runs — anything order-dependent downstream (output files, free-list
/// ordering, tie-breaks) silently breaks bit-identical reproduction.
///
/// Detection is two-pass and file-local: first collect every name bound
/// to a `HashMap`/`HashSet` (typed bindings, struct fields, parameters,
/// and `= HashMap::new()`-style initializers), then flag order-sensitive
/// method calls on those names and `for` loops whose iterated expression
/// mentions one.
fn map_iter_order(ctx: &Ctx<'_, '_>, out: &mut Vec<Violation>) {
    let names = collect_map_names(ctx);
    if names.is_empty() {
        return;
    }
    let mut lines_hit = std::collections::BTreeSet::new();

    for c in 0..ctx.code.len() {
        // name.iter() / name.keys() / name.drain() / …
        if ctx.kind(c) == Some(Kind::Ident)
            && names.contains(ctx.text(c))
            && ctx.text(c + 1) == "."
            && ctx.kind(c + 2) == Some(Kind::Ident)
            && ITER_METHODS.contains(&ctx.text(c + 2))
            && ctx.text(c + 3) == "("
            && lines_hit.insert(ctx.line(c))
        {
            ctx.push(out, "map-iter-order", c);
        }
        // for <pat> in <expr mentioning a map name> {
        if ctx.is_ident(c, "for") && ctx.text(c + 1) != "<" {
            let mut in_at = None;
            for step in 1..=40usize {
                match ctx.text(c + step) {
                    "" | "{" => break,
                    "in" if ctx.kind(c + step) == Some(Kind::Ident) => {
                        in_at = Some(c + step);
                        break;
                    }
                    _ => {}
                }
            }
            let Some(i0) = in_at else { continue };
            for step in 1..=40usize {
                let d = i0 + step;
                match ctx.text(d) {
                    "" | "{" => break,
                    t if ctx.kind(d) == Some(Kind::Ident) && names.contains(t) => {
                        if lines_hit.insert(ctx.line(c)) {
                            ctx.push(out, "map-iter-order", c);
                        }
                        break;
                    }
                    _ => {}
                }
            }
        }
    }
}

/// Collects identifiers bound to `HashMap`/`HashSet` anywhere in the file:
/// `name: …HashMap<…>` (fields, params, typed lets — scanned to the first
/// terminator at angle depth zero) and `name = …HashMap::…` initializers.
fn collect_map_names(ctx: &Ctx<'_, '_>) -> std::collections::BTreeSet<String> {
    let mut names = std::collections::BTreeSet::new();
    for c in 0..ctx.code.len() {
        if ctx.kind(c) != Some(Kind::Ident) {
            continue;
        }
        let is_map_ident = |d: usize| matches!(ctx.text(d), "HashMap" | "HashSet");
        if ctx.text(c + 1) == ":" && type_window_mentions(ctx, c + 2, &["HashMap", "HashSet"]) {
            names.insert(ctx.text(c).to_string());
        } else if ctx.text(c + 1) == "=" {
            // Walk a path (`std :: collections :: HashMap :: new`) only.
            let mut d = c + 2;
            while ctx.kind(d) == Some(Kind::Ident) || ctx.text(d) == "::" {
                if is_map_ident(d) && ctx.text(d + 1) == "::" {
                    names.insert(ctx.text(c).to_string());
                    break;
                }
                d += 1;
                if d > c + 10 {
                    break;
                }
            }
        }
    }
    names
}

#[cfg(test)]
mod tests {
    use super::*;

    const LIB: &str = "crates/demo/src/lib.rs";
    const BIN: &str = "crates/demo/src/main.rs";

    fn hits(path: &str, src: &str) -> Vec<(&'static str, u32)> {
        let scan = FileScan::new(path, src);
        scan_file(&scan)
            .into_iter()
            .map(|v| (v.rule, v.line))
            .collect()
    }

    fn rules_hit(path: &str, src: &str) -> Vec<&'static str> {
        let mut rules: Vec<&'static str> = hits(path, src).into_iter().map(|(r, _)| r).collect();
        rules.dedup();
        rules
    }

    // ---- legacy rules, re-implemented on tokens --------------------------

    #[test]
    fn unwrap_flagged_in_library_code() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        assert_eq!(hits(LIB, src), vec![("no-unwrap", 1)]);
        assert_eq!(
            rules_hit(LIB, "fn f(x: Option<u32>) -> u32 { x.expect(\"boom\") }\n"),
            vec!["no-unwrap"]
        );
    }

    #[test]
    fn unwrap_allowed_in_tests_binaries_and_cfg_test() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        assert!(hits("crates/demo/tests/it.rs", src).is_empty());
        assert!(hits(BIN, src).is_empty());
        let lib = "fn ok() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                   use super::*;\n\
                   #[test]\n\
                   fn t() { ok(); Some(3).unwrap(); panic!(\"fine here\") }\n\
                   }\n";
        assert!(hits(LIB, lib).is_empty());
    }

    #[test]
    fn code_after_cfg_test_region_is_scanned_again() {
        let src = "#[cfg(test)]\n\
                   mod tests {\n\
                   fn t() { Some(1).unwrap(); }\n\
                   }\n\
                   fn later(x: Option<u32>) -> u32 { x.unwrap() }\n";
        assert_eq!(hits(LIB, src), vec![("no-unwrap", 5)]);
    }

    #[test]
    fn panic_flagged_only_as_macro() {
        assert_eq!(
            rules_hit(LIB, "fn f() { panic!(\"no\") }\n"),
            vec!["no-panic"]
        );
        // Substrings of identifiers are distinct tokens and don't count.
        assert!(hits(LIB, "fn f() { my_should_panic_helper() }\n").is_empty());
        // `#[should_panic]` never fires: `should_panic` is one identifier.
        assert!(hits(LIB, "fn f() { std::panic::catch_unwind(|| ()); }\n").is_empty());
    }

    #[test]
    fn needles_inside_strings_and_comments_ignored() {
        let src = "const HELP: &str = \"call .unwrap() or panic!\";\n\
                   // the old code used row as u32 here\n\
                   /* block: cycle as u16 */\n";
        assert!(hits(LIB, src).is_empty());
        // …including raw strings, which defeat line-based stripping.
        let raw = "const R: &str = r#\"x.unwrap() \"quoted\" panic!\"#;\n";
        assert!(hits(LIB, raw).is_empty());
    }

    #[test]
    fn truncating_cast_on_cycle_line_flagged() {
        assert_eq!(
            hits(LIB, "fn f(cycle: u64) -> u32 { cycle as u32 }\n"),
            vec![("cast-truncation", 1)]
        );
        // Widening casts and off-domain lines pass.
        assert!(hits(LIB, "fn f(row: u32) -> u64 { row as u64 }\n").is_empty());
        assert!(hits(LIB, "fn g(flags: u64) -> u8 { flags as u8 }\n").is_empty());
        // Binaries are in scope for data-integrity rules.
        assert_eq!(
            rules_hit(BIN, "fn f(addr: u64) -> u16 { addr as u16 }\n"),
            vec!["cast-truncation"]
        );
    }

    #[test]
    fn float_eq_on_timing_values_flagged() {
        assert_eq!(
            rules_hit(LIB, "fn f(a_ns: f64, b: f64) -> bool { a_ns == b }\n"),
            vec!["float-eq"]
        );
        assert_eq!(
            rules_hit(LIB, "fn f(t: &T) -> bool { t.trcd_ns != 11.0 }\n"),
            vec!["float-eq"]
        );
        assert!(hits(LIB, "fn f(a_ns: f64) -> bool { a_ns >= 1.0 }\n").is_empty());
        assert!(hits(LIB, "fn f(n: u64) -> bool { n == 3 }\n").is_empty());
    }

    #[test]
    fn wall_clock_flagged_outside_telemetry() {
        let src = "fn f() { let t = std::time::Instant::now(); drop(t); }\n";
        assert_eq!(rules_hit(LIB, src), vec!["wall-clock"]);
        assert_eq!(rules_hit(BIN, src), vec!["wall-clock"]);
        let sys = "fn f() { let t = std::time::SystemTime::now(); drop(t); }\n";
        assert_eq!(rules_hit(LIB, sys), vec!["wall-clock"]);
        assert!(hits("crates/telemetry/src/metrics.rs", src).is_empty());
        assert!(hits("crates/demo/tests/it.rs", src).is_empty());
    }

    // ---- determinism / concurrency pass ---------------------------------

    #[test]
    fn map_iteration_flagged_for_typed_fields_and_lets() {
        let src = "use std::collections::HashMap;\n\
                   struct S { index: HashMap<u64, u64> }\n\
                   impl S {\n\
                       fn dump(&self) -> Vec<u64> { self.index.keys().copied().collect() }\n\
                   }\n";
        assert_eq!(hits(LIB, src), vec![("map-iter-order", 4)]);
        let set = "use std::collections::HashSet;\n\
                   fn f(live: &HashSet<u64>) -> u64 {\n\
                       let mut n = 0;\n\
                       for page in live { n += page; }\n\
                       n\n\
                   }\n";
        assert_eq!(hits(LIB, set), vec![("map-iter-order", 4)]);
    }

    #[test]
    fn map_iteration_flagged_for_initializers_and_drain() {
        let src = "fn f() {\n\
                       let mut seen = std::collections::HashMap::new();\n\
                       seen.insert(1u64, 2u64);\n\
                       for (k, v) in seen { let _ = (k, v); }\n\
                   }\n";
        assert_eq!(hits(LIB, src), vec![("map-iter-order", 4)]);
        let drain = "struct T { buffer: std::collections::HashSet<u64> }\n\
                     impl T {\n\
                         fn take(&mut self) -> Vec<u64> { self.buffer.drain().collect() }\n\
                     }\n";
        assert_eq!(hits(LIB, drain), vec![("map-iter-order", 3)]);
    }

    #[test]
    fn map_point_lookups_pass() {
        let src = "struct S { memo: std::collections::HashMap<u64, bool> }\n\
                   impl S {\n\
                       fn get(&self, k: u64) -> Option<bool> { self.memo.get(&k).copied() }\n\
                       fn put(&mut self, k: u64) { self.memo.insert(k, true); }\n\
                       fn n(&self) -> usize { self.memo.len() }\n\
                   }\n";
        assert!(hits(LIB, src).is_empty());
        // Iterating a Vec parameter next to a map parameter is fine: the
        // type window stops at the comma.
        let vecs = "use std::collections::HashMap;\n\
                    fn f(pages: Vec<u64>, memo: HashMap<u64, u64>) -> u64 {\n\
                        let mut n = memo.len() as u64;\n\
                        for p in pages { n += p; }\n\
                        n\n\
                    }\n";
        assert!(hits(LIB, vecs).is_empty());
    }

    #[test]
    fn thread_spawn_flagged_outside_par() {
        let src = "fn f() { std::thread::spawn(|| ()); }\n";
        assert_eq!(rules_hit(LIB, src), vec!["thread-outside-par"]);
        let scope = "fn f() { std::thread::scope(|s| { let _ = s; }); }\n";
        assert_eq!(rules_hit(LIB, scope), vec!["thread-outside-par"]);
        assert!(hits("crates/memutil/src/par.rs", src).is_empty());
    }

    #[test]
    fn mutable_statics_flagged_outside_registries() {
        let src =
            "static HITS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);\n";
        assert_eq!(rules_hit(LIB, src), vec!["global-mut-state"]);
        let lock = "static CACHE: OnceLock<Mutex<Vec<u64>>> = OnceLock::new();\n";
        assert_eq!(rules_hit(LIB, lock), vec!["global-mut-state"]);
        // Immutable statics are fine.
        assert!(hits(LIB, "static NAME: &str = \"memcon\";\n").is_empty());
        assert!(hits(LIB, "static EDGES: [u64; 3] = [1, 2, 3];\n").is_empty());
        // `&'static` lifetimes never look like the keyword.
        assert!(hits(LIB, "fn f(x: &'static str) -> &'static str { x }\n").is_empty());
        // thread-local statics are per-thread, not global.
        let tl =
            "thread_local! { static SCRATCH: RefCell<Vec<u64>> = RefCell::new(Vec::new()); }\n";
        assert!(hits(LIB, tl).is_empty());
        // The sanctioned registries are exempt.
        assert!(hits("crates/telemetry/src/registry.rs", src).is_empty());
        assert!(hits("crates/faultinject/src/lib.rs", src).is_empty());
    }

    #[test]
    fn env_reads_flagged_in_library_code_only() {
        let src = "fn f() -> Option<String> { std::env::var(\"MEMCON_X\").ok() }\n";
        assert_eq!(rules_hit(LIB, src), vec!["env-read"]);
        // Binaries resolve arguments/environment by design.
        assert!(hits(BIN, src).is_empty());
        assert!(hits("crates/memutil/src/par.rs", src).is_empty());
        // `env!` (compile-time) is not an env read.
        assert!(hits(
            LIB,
            "fn f() -> &'static str { env!(\"CARGO_MANIFEST_DIR\") }\n"
        )
        .is_empty());
    }

    // ---- allow markers ---------------------------------------------------

    #[test]
    fn inline_allow_marker_suppresses() {
        let src: String = [
            "fn f(x: Option<u32>) -> u32 { x.unwrap() } // memlint:",
            " allow\n",
        ]
        .concat();
        assert!(hits(LIB, &src).is_empty());
    }

    #[test]
    fn allow_marker_on_preceding_comment_line_suppresses() {
        let marker: String = ["// memlint:", " allow (deliberate)\n"].concat();
        let src = format!("{marker}fn f(x: Option<u32>) -> u32 {{ x.unwrap() }}\n");
        assert!(hits(LIB, &src).is_empty());
        // The marker covers exactly one line, not everything after it.
        let src2 = format!(
            "{marker}fn f(x: Option<u32>) -> u32 {{ x.unwrap() }}\nfn g(x: Option<u32>) -> u32 {{ x.unwrap() }}\n"
        );
        assert_eq!(hits(LIB, &src2), vec![("no-unwrap", 3)]);
    }

    #[test]
    fn rule_scoped_allow_marker_suppresses_only_named_rules() {
        let marker: String = ["// memlint:", " allow(map-iter-order): sorted below\n"].concat();
        let src = format!(
            "use std::collections::HashSet;\n\
             struct T {{ buffer: HashSet<u64> }}\n\
             impl T {{\n\
                 fn take(&mut self) -> Vec<u64> {{\n\
                     {marker}\
                     let mut v: Vec<u64> = self.buffer.drain().collect();\n\
                     v.sort_unstable();\n\
                     v\n\
                 }}\n\
             }}\n"
        );
        assert!(hits(LIB, &src).is_empty());
        // A different rule on the same line is NOT suppressed.
        let marker2: String = ["// memlint:", " allow(no-panic)\n"].concat();
        let src2 = format!("{marker2}fn f(x: Option<u32>) -> u32 {{ x.unwrap() }}\n");
        assert_eq!(hits(LIB, &src2), vec![("no-unwrap", 2)]);
    }

    #[test]
    fn lifetimes_survive_token_analysis() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x }\n";
        assert!(hits(LIB, src).is_empty());
        let src2 = "fn g() -> char { '\\'' }\n";
        assert!(hits(LIB, src2).is_empty());
    }
}
