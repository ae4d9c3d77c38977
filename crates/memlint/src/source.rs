//! Per-file analysis context: the token stream plus the structural facts
//! every rule needs — `#[cfg(test)]` scoping, `thread_local!` regions,
//! a lightweight item model, and allow-marker placement.

use crate::lexer::{self, Kind, Token};
use std::collections::BTreeMap;

/// How a source file is treated by the rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Library code: all rules apply.
    Library,
    /// Binary targets (`src/main.rs`, `src/bin/**`): panics and unwraps
    /// are legitimate CLI error handling; the data-integrity and
    /// determinism rules still apply (a wall clock in a CLI leaks into
    /// "deterministic" output just the same), but `env-read` does not —
    /// binaries are where arguments and environment get resolved.
    Binary,
    /// Tests, benches, examples: no rules apply.
    Test,
}

/// Classifies a workspace-relative path.
#[must_use]
pub fn classify(path: &str) -> FileClass {
    let p = path.replace('\\', "/");
    for dir in ["tests/", "benches/", "examples/"] {
        if p.starts_with(dir) || p.contains(&format!("/{dir}")) {
            return FileClass::Test;
        }
    }
    if p.ends_with("/main.rs") || p.contains("/bin/") {
        return FileClass::Binary;
    }
    FileClass::Library
}

/// Item kinds tracked by the lightweight item model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    /// `fn name(..) { .. }` (or a bodiless trait-method declaration).
    Fn,
    /// `mod name { .. }` / `mod name;`.
    Mod,
    /// `impl Type { .. }` / `impl Trait for Type { .. }`.
    Impl,
}

/// One item: kind, name, and the token-index span of its body.
#[derive(Debug, Clone)]
pub struct Item {
    /// Item kind.
    pub kind: ItemKind,
    /// Declared name (for `impl`, the first type-ish identifier).
    pub name: String,
    /// Token index of the introducing keyword.
    pub keyword: usize,
    /// Token-index range of the body, `{`-exclusive (empty for `;` items).
    pub body: std::ops::Range<usize>,
    /// 1-based line of the introducing keyword.
    pub line: u32,
}

/// What an allow marker suppresses on a line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Allow {
    /// `memlint: allow` / `memlint: allow (justification)` — every rule.
    All,
    /// `memlint: allow(rule-a, rule-b)` — only the named rules. Note the
    /// absence of a space before `(`: a space means the parenthesized text
    /// is prose justification, not a rule list.
    Rules(Vec<String>),
}

impl Allow {
    /// Whether this marker suppresses `rule`.
    #[must_use]
    pub fn covers(&self, rule: &str) -> bool {
        match self {
            Allow::All => true,
            Allow::Rules(rs) => rs.iter().any(|r| r == rule),
        }
    }
}

/// A fully analyzed source file, ready for rules to walk.
#[derive(Debug)]
pub struct FileScan<'s> {
    /// Workspace-relative path (`/`-separated).
    pub path: String,
    /// Rule applicability class, derived from the path.
    pub class: FileClass,
    /// The raw source.
    pub src: &'s str,
    /// The complete token stream.
    pub tokens: Vec<Token<'s>>,
    /// Parallel to `tokens`: token sits inside a `#[cfg(test)]` item.
    pub in_test: Vec<bool>,
    /// Parallel to `tokens`: token sits inside a `thread_local! { … }`
    /// invocation (whose statics are per-thread, not global state).
    pub in_thread_local: Vec<bool>,
    /// `fn` / `mod` / `impl` spans, in source order.
    pub items: Vec<Item>,
    /// Allow markers by 1-based line.
    allows: BTreeMap<u32, Allow>,
    /// Byte offset of each line start (index 0 ↦ line 1).
    line_starts: Vec<usize>,
}

impl<'s> FileScan<'s> {
    /// Lexes and analyzes one file.
    #[must_use]
    pub fn new(path: &str, src: &'s str) -> Self {
        let tokens = lexer::lex(src);
        let in_test = mark_cfg_test(&tokens);
        let in_thread_local = mark_macro_regions(&tokens, "thread_local");
        let items = collect_items(&tokens);
        let allows = collect_allows(&tokens);
        let mut line_starts = vec![0usize];
        line_starts.extend(
            src.char_indices()
                .filter(|&(_, c)| c == '\n')
                .map(|(i, _)| i + 1),
        );
        FileScan {
            path: path.replace('\\', "/"),
            class: classify(path),
            src,
            tokens,
            in_test,
            in_thread_local,
            items,
            allows,
            line_starts,
        }
    }

    /// Whether `rule` is suppressed on `line` by an allow marker.
    #[must_use]
    pub fn allowed(&self, rule: &str, line: u32) -> bool {
        self.allows.get(&line).is_some_and(|a| a.covers(rule))
    }

    /// The trimmed source text of a 1-based line (empty when out of range).
    #[must_use]
    pub fn line_text(&self, line: u32) -> &str {
        let idx = line.saturating_sub(1) as usize;
        let Some(&start) = self.line_starts.get(idx) else {
            return "";
        };
        let end = self
            .line_starts
            .get(idx + 1)
            .map_or(self.src.len(), |&e| e - 1);
        self.src[start..end.max(start)].trim()
    }

    /// The innermost `fn` item whose body contains token `idx`, if any.
    #[must_use]
    pub fn enclosing_fn(&self, idx: usize) -> Option<&Item> {
        self.items
            .iter()
            .rfind(|it| it.kind == ItemKind::Fn && it.body.contains(&idx))
    }

    /// Iterator over `(index, token)` for non-comment tokens outside
    /// `#[cfg(test)]` regions — the stream rules should pattern-match on.
    pub fn code_tokens(&self) -> impl Iterator<Item = (usize, &Token<'s>)> {
        self.tokens
            .iter()
            .enumerate()
            .filter(|(i, t)| !t.is_comment() && !self.in_test[*i])
    }
}

/// Marks tokens covered by a `#[cfg(test)]` attribute: the attribute
/// itself, any further attributes, and the annotated item through its
/// matching `}` (or terminating `;`).
fn mark_cfg_test(tokens: &[Token<'_>]) -> Vec<bool> {
    let mut out = vec![false; tokens.len()];
    let code: Vec<usize> = (0..tokens.len())
        .filter(|&i| !tokens[i].is_comment())
        .collect();
    let mut c = 0usize;
    while c < code.len() {
        if is_cfg_test_at(tokens, code.as_slice(), c) {
            // Cover this attribute, any subsequent attributes, then the item.
            let mut d = c;
            while let Some(next) = skip_attribute(tokens, &code, d) {
                d = next;
            }
            let end = skip_item(tokens, &code, d).min(code.len());
            for &j in &code[c..end] {
                out[j] = true;
            }
            c = end.max(c + 1);
        } else {
            c += 1;
        }
    }
    out
}

/// Whether the code-token sequence at position `c` spells `#[cfg(test)]`.
fn is_cfg_test_at(tokens: &[Token<'_>], code: &[usize], c: usize) -> bool {
    let texts: Vec<&str> = code[c..].iter().take(7).map(|&i| tokens[i].text).collect();
    texts.as_slice() == ["#", "[", "cfg", "(", "test", ")", "]"]
}

/// If the code token at `c` opens an attribute (`#` `[` … `]`), returns the
/// code position just past its closing `]`.
fn skip_attribute(tokens: &[Token<'_>], code: &[usize], c: usize) -> Option<usize> {
    if tokens[*code.get(c)?].text != "#" || tokens[*code.get(c + 1)?].text != "[" {
        return None;
    }
    let mut depth = 0i64;
    let mut d = c + 1;
    while d < code.len() {
        match tokens[code[d]].text {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    return Some(d + 1);
                }
            }
            _ => {}
        }
        d += 1;
    }
    Some(code.len())
}

/// Returns the code position just past the item starting at `c`: scans to
/// the first `{` at paren depth zero and through its matching `}`, or to a
/// terminating `;` before any brace.
fn skip_item(tokens: &[Token<'_>], code: &[usize], c: usize) -> usize {
    let mut paren = 0i64;
    let mut d = c;
    while d < code.len() {
        match tokens[code[d]].text {
            "(" => paren += 1,
            ")" => paren -= 1,
            ";" if paren == 0 => return d + 1,
            "{" if paren == 0 => {
                let mut depth = 0i64;
                while d < code.len() {
                    match tokens[code[d]].text {
                        "{" => depth += 1,
                        "}" => {
                            depth -= 1;
                            if depth == 0 {
                                return d + 1;
                            }
                        }
                        _ => {}
                    }
                    d += 1;
                }
                return code.len();
            }
            _ => {}
        }
        d += 1;
    }
    code.len()
}

/// Marks tokens inside `name! { … }` macro invocations (e.g.
/// `thread_local!`), whose contents other rules should treat specially.
fn mark_macro_regions(tokens: &[Token<'_>], name: &str) -> Vec<bool> {
    let mut out = vec![false; tokens.len()];
    let code: Vec<usize> = (0..tokens.len())
        .filter(|&i| !tokens[i].is_comment())
        .collect();
    let mut c = 0usize;
    while c + 2 < code.len() {
        let (a, b, br) = (code[c], code[c + 1], code[c + 2]);
        if tokens[a].kind == Kind::Ident
            && tokens[a].text == name
            && tokens[b].text == "!"
            && tokens[br].text == "{"
        {
            let mut depth = 0i64;
            let mut d = c + 2;
            while d < code.len() {
                out[code[d]] = true;
                match tokens[code[d]].text {
                    "{" => depth += 1,
                    "}" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                d += 1;
            }
            out[a] = true;
            out[b] = true;
            c = d + 1;
        } else {
            c += 1;
        }
    }
    out
}

/// Collects `fn` / `mod` / `impl` items (at any nesting depth).
fn collect_items(tokens: &[Token<'_>]) -> Vec<Item> {
    let mut items = Vec::new();
    let code: Vec<usize> = (0..tokens.len())
        .filter(|&i| !tokens[i].is_comment())
        .collect();
    for (c, &i) in code.iter().enumerate() {
        let t = &tokens[i];
        if t.kind != Kind::Ident {
            continue;
        }
        let kind = match t.text {
            "fn" => ItemKind::Fn,
            "mod" => ItemKind::Mod,
            "impl" => ItemKind::Impl,
            _ => continue,
        };
        // `fn`/`mod` must be followed by a name; this also rejects usages
        // like `Fn()` bounds (capital F) and `impl Trait` in type position
        // is accepted as an Impl item only when a body `{` actually follows
        // at depth 0 — harmless either way for our consumers.
        let name = match kind {
            ItemKind::Fn | ItemKind::Mod => {
                let Some(&n) = code.get(c + 1) else { continue };
                if tokens[n].kind != Kind::Ident {
                    continue;
                }
                tokens[n].text.to_string()
            }
            ItemKind::Impl => code
                .get(c + 1..)
                .and_then(|rest| {
                    rest.iter()
                        .map(|&j| &tokens[j])
                        .find(|t| t.kind == Kind::Ident)
                })
                .map_or_else(String::new, |t| t.text.to_string()),
        };
        // Body: from the first `{` at paren depth 0 to its match.
        let mut paren = 0i64;
        let mut body = 0..0;
        let mut d = c;
        'scan: while d < code.len() {
            match tokens[code[d]].text {
                "(" => paren += 1,
                ")" => paren -= 1,
                ";" if paren == 0 => break 'scan,
                "{" if paren == 0 => {
                    let open = d;
                    let mut depth = 0i64;
                    while d < code.len() {
                        match tokens[code[d]].text {
                            "{" => depth += 1,
                            "}" => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        d += 1;
                    }
                    body = code[open] + 1..code.get(d).copied().unwrap_or(tokens.len());
                    break 'scan;
                }
                _ => {}
            }
            d += 1;
        }
        items.push(Item {
            kind,
            name,
            keyword: i,
            body,
            line: t.line,
        });
    }
    items
}

/// Parses allow markers out of comment tokens.
///
/// A marker suppresses findings on its own line; when the comment is the
/// only thing on its line, it suppresses the *next* line instead (so
/// rustfmt splitting a trailing comment off a long statement keeps the
/// marker effective). Multi-line block comments cover the line after
/// their final line.
fn collect_allows(tokens: &[Token<'_>]) -> BTreeMap<u32, Allow> {
    // Marker needle assembled by concatenation so memlint's own sources
    // (which must self-lint cleanly) never trip rules on this literal.
    let needle: String = ["memlint:", " allow"].concat();
    let mut lines_with_code = std::collections::BTreeSet::new();
    for t in tokens {
        if !t.is_comment() {
            lines_with_code.insert(t.line);
        }
    }
    let mut out = BTreeMap::new();
    for t in tokens {
        if !t.is_comment() {
            continue;
        }
        let Some(at) = t.text.find(needle.as_str()) else {
            continue;
        };
        let spec = parse_allow_spec(&t.text[at + needle.len()..]);
        let last_line = t.line + t.text.bytes().filter(|&b| b == b'\n').count() as u32;
        if lines_with_code.contains(&t.line) {
            // Trailing comment: covers each line the comment touches.
            for l in t.line..=last_line {
                out.insert(l, spec.clone());
            }
        } else {
            // Standalone comment: covers its own lines and the next one.
            for l in t.line..=last_line + 1 {
                out.insert(l, spec.clone());
            }
        }
    }
    out
}

/// Parses the tail after `memlint: allow`. A `(` *immediately* following
/// names rules (`allow(map-iter-order)`); anything else — including
/// ` (justification prose)` with a leading space — means allow-all.
fn parse_allow_spec(tail: &str) -> Allow {
    let Some(rest) = tail.strip_prefix('(') else {
        return Allow::All;
    };
    let Some(end) = rest.find(')') else {
        return Allow::All;
    };
    let rules: Vec<String> = rest[..end]
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect();
    if rules.is_empty() {
        Allow::All
    } else {
        Allow::Rules(rules)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_paths() {
        assert_eq!(classify("crates/dram/src/bank.rs"), FileClass::Library);
        assert_eq!(
            classify("crates/memtrace/src/bin/gen.rs"),
            FileClass::Binary
        );
        assert_eq!(
            classify("crates/experiments/src/main.rs"),
            FileClass::Binary
        );
        assert_eq!(classify("crates/memcon/tests/props.rs"), FileClass::Test);
        assert_eq!(classify("crates/bench/benches/micro.rs"), FileClass::Test);
        assert_eq!(classify("tests/end_to_end.rs"), FileClass::Test);
        assert_eq!(classify("examples/quickstart.rs"), FileClass::Test);
        assert_eq!(classify("src/lib.rs"), FileClass::Library);
    }

    fn scan(src: &str) -> FileScan<'_> {
        FileScan::new("crates/demo/src/lib.rs", src)
    }

    #[test]
    fn cfg_test_region_marks_tokens() {
        let s = scan(
            "fn live() {}\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 fn t() { inner(); }\n\
             }\n\
             fn later() {}\n",
        );
        let flag = |name: &str| {
            let (i, _) = s
                .tokens
                .iter()
                .enumerate()
                .find(|(_, t)| t.text == name)
                .unwrap();
            s.in_test[i]
        };
        assert!(!flag("live"));
        assert!(flag("tests"));
        assert!(flag("inner"));
        assert!(!flag("later"));
    }

    #[test]
    fn cfg_test_with_further_attributes_and_semicolon_items() {
        let s = scan("#[cfg(test)]\n#[allow(dead_code)]\nmod tests;\nfn live() {}\n");
        let (i, _) = s
            .tokens
            .iter()
            .enumerate()
            .find(|(_, t)| t.text == "live")
            .unwrap();
        assert!(!s.in_test[i]);
        let (j, _) = s
            .tokens
            .iter()
            .enumerate()
            .find(|(_, t)| t.text == "tests")
            .unwrap();
        assert!(s.in_test[j]);
    }

    #[test]
    fn thread_local_region_marked() {
        let s =
            scan("thread_local! { static TL: Cell<u32> = Cell::new(0); }\nstatic G: u32 = 0;\n");
        let (i, _) = s
            .tokens
            .iter()
            .enumerate()
            .find(|(_, t)| t.text == "TL")
            .unwrap();
        assert!(s.in_thread_local[i]);
        let (j, _) = s
            .tokens
            .iter()
            .enumerate()
            .find(|(_, t)| t.text == "G")
            .unwrap();
        assert!(!s.in_thread_local[j]);
    }

    #[test]
    fn items_record_fn_mod_impl_spans() {
        let s = scan(
            "mod inner {\n\
                 pub fn name() -> &'static str { \"x\" }\n\
             }\n\
             impl Thing {\n\
                 fn helper(&self) { body(); }\n\
             }\n",
        );
        let kinds: Vec<(ItemKind, &str)> = s
            .items
            .iter()
            .map(|it| (it.kind, it.name.as_str()))
            .collect();
        assert_eq!(
            kinds,
            vec![
                (ItemKind::Mod, "inner"),
                (ItemKind::Fn, "name"),
                (ItemKind::Impl, "Thing"),
                (ItemKind::Fn, "helper"),
            ]
        );
        // `name`'s body contains its string literal.
        let name_item = &s.items[1];
        let strs: Vec<&str> = name_item
            .body
            .clone()
            .filter_map(|i| s.tokens[i].str_value())
            .collect();
        assert_eq!(strs, vec!["x"]);
        // enclosing_fn resolves the innermost fn.
        let (bi, _) = s
            .tokens
            .iter()
            .enumerate()
            .find(|(_, t)| t.text == "body")
            .unwrap();
        assert_eq!(s.enclosing_fn(bi).unwrap().name, "helper");
    }

    #[test]
    fn allow_markers_scope_and_placement() {
        let marker_all: String = ["// memlint:", " allow (why not)\n"].concat();
        let marker_ruled: String =
            ["// memlint:", " allow(map-iter-order, no-unwrap): ok\n"].concat();
        let trailing: String = ["fn f() {} // memlint:", " allow\n"].concat();

        // Standalone allow-all covers its line and the next.
        let src_all = format!("{marker_all}fn f() {{}}\n");
        let s = scan(&src_all);
        assert!(s.allowed("no-unwrap", 1));
        assert!(s.allowed("no-unwrap", 2));
        assert!(!s.allowed("no-unwrap", 3));

        // Rule-scoped covers only the named rules.
        let src_ruled = format!("{marker_ruled}fn f() {{}}\n");
        let s = scan(&src_ruled);
        assert!(s.allowed("map-iter-order", 2));
        assert!(s.allowed("no-unwrap", 2));
        assert!(!s.allowed("no-panic", 2));

        // Trailing marker covers only its own line.
        let src_trail = format!("{trailing}fn g() {{}}\n");
        let s = scan(&src_trail);
        assert!(s.allowed("anything", 1));
        assert!(!s.allowed("anything", 2));
    }

    #[test]
    fn line_text_trims() {
        let s = scan("fn f() {}\n    let x = 1;\n");
        assert_eq!(s.line_text(2), "let x = 1;");
        assert_eq!(s.line_text(99), "");
    }
}
