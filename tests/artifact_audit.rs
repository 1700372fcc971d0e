//! The artifacts that describe the system agree with its source:
//!
//! - `assets/obs/counters.txt` ↔ metric emit sites. Every catalogued
//!   name is emitted, or named in a string literal, somewhere in
//!   non-test source (`L007`); every emit with a literal name is
//!   catalogued (`L008`).
//! - Every catalogue name is lower-case dotted and renders to a legal
//!   Prometheus name (`L009`).
//! - Every code in the table of `crates/analyze/src/diag.rs` is
//!   constructed somewhere (`L010`) and listed by a
//!   `crates/analyze/tests/fixtures/bad/*.expected` golden (`L011`).
//!
//! Evidence comes from string literals only: a name in a comment or in
//! a `#[cfg(test)]` item does not count. [`scan`] splits a source file
//! into comment-free code and its literals; it reads rustfmt-formatted
//! text (a `#[cfg(test)]` item ends at the first `}` line indented like
//! its attribute), which CI's `cargo fmt --check` guarantees.
//! The determinism rules `L001`–`L005` are clippy configuration
//! (`clippy.toml`); see `tests/lint_fixtures.rs`.

#[path = "support/catalogue.rs"]
mod catalogue;

use catalogue::{parse_catalogue, CatEntry, EmitKind};
use exq::obs::{is_valid_metric_name, sanitize_name};
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

const CATALOGUE_PATH: &str = "assets/obs/counters.txt";
const DIAG_TABLE_PATH: &str = "crates/analyze/src/diag.rs";
const BAD_FIXTURES_DIR: &str = "crates/analyze/tests/fixtures/bad";

/// The non-test part of one source file.
struct Source {
    path: String,
    /// The text with comments and `#[cfg(test)]` items blanked and string
    /// literals kept as bare `"` marks, line structure intact.
    code: String,
    /// Each literal's value, keyed by the byte offset of its `"` mark in
    /// `code`.
    literals: BTreeMap<usize, String>,
}

impl Source {
    fn line_of(&self, offset: usize) -> usize {
        self.code[..offset].matches('\n').count() + 1
    }
}

/// Split `text` into code and string literals. Comments (`//`, nested
/// `/* */`) and `#[cfg(test)]` items vanish; a string literal (plain,
/// byte, or raw) becomes one `"` in the code, its value recorded
/// (escapes left raw: metric names and codes have none); a char literal
/// like `'"'` is skipped, so its quote opens nothing.
fn scan(path: &str, text: &str) -> Source {
    let text = drop_test_items(text);
    let s = text.as_bytes();
    let mut code = String::with_capacity(text.len());
    let mut literals = BTreeMap::new();
    let mut i = 0;
    while i < s.len() {
        let rest = &text[i..];
        if rest.starts_with("//") {
            i += rest.find('\n').unwrap_or(rest.len());
        } else if rest.starts_with("/*") {
            let mut depth = 0;
            while i < s.len() {
                if text[i..].starts_with("/*") {
                    depth += 1;
                    i += 2;
                } else if text[i..].starts_with("*/") {
                    depth -= 1;
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    if s[i] == b'\n' {
                        code.push('\n');
                    }
                    i += 1;
                }
            }
        } else if let Some((value, len)) = string_literal(rest, code.chars().next_back()) {
            literals.insert(code.len(), value.to_owned());
            code.push('"');
            code.extend(std::iter::repeat_n('\n', value.matches('\n').count()));
            i += len;
        } else if let Some(len) = char_literal(rest) {
            i += len;
        } else {
            let c = rest.chars().next().expect("non-empty");
            code.push(c);
            i += c.len_utf8();
        }
    }
    Source {
        path: path.to_owned(),
        code,
        literals,
    }
}

/// A string literal at the start of `rest` (`"…"`, `b"…"`, `r#"…"#`,
/// `br"…"`): its value and its length in bytes. `prev` is the code char
/// before it, so an identifier ending in `r` or `b` is not a prefix.
fn string_literal(rest: &str, prev: Option<char>) -> Option<(&str, usize)> {
    if prev.is_some_and(|c| c.is_alphanumeric() || c == '_') && !rest.starts_with('"') {
        return None;
    }
    let body = rest.strip_prefix('b').unwrap_or(rest);
    if let Some(raw) = body.strip_prefix('r') {
        let hashes = raw.len() - raw.trim_start_matches('#').len();
        let open = raw[hashes..].strip_prefix('"')?;
        let close = format!("\"{}", "#".repeat(hashes));
        let end = open.find(&close)?;
        let len = rest.len() - open.len() + end + close.len();
        return Some((&open[..end], len));
    }
    let open = body.strip_prefix('"')?;
    let mut escaped = false;
    for (j, c) in open.char_indices() {
        match c {
            _ if escaped => escaped = false,
            '\\' => escaped = true,
            '"' => return Some((&open[..j], rest.len() - open.len() + j + 1)),
            _ => {}
        }
    }
    None
}

/// A char literal at the start of `rest` (`'x'`, `'\n'`, `'\''`,
/// `'\u{1F600}'`), as its length in bytes; `None` for a lifetime.
fn char_literal(rest: &str) -> Option<usize> {
    let body = rest.strip_prefix('\'')?;
    let mut chars = body.char_indices();
    let (_, first) = chars.next()?;
    let close = if first == '\\' {
        body.get(2..)?.find('\'')? + 2
    } else {
        chars.next().filter(|&(_, c)| c == '\'')?.0
    };
    Some(1 + close + 1)
}

/// `text` with every `#[cfg(test)]` item blanked to empty lines: from
/// the attribute through the first line at the attribute's indentation
/// that closes a brace or ends a one-line item with `;`.
fn drop_test_items(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut item_indent: Option<usize> = None;
    for line in text.lines() {
        let trimmed = line.trim_start();
        let indent = line.len() - trimmed.len();
        match item_indent {
            Some(at) => {
                let ends = trimmed.starts_with('}')
                    || (trimmed.ends_with(';') && !trimmed.starts_with("#["));
                if indent == at && ends {
                    item_indent = None;
                }
            }
            None if trimmed.trim_end() == "#[cfg(test)]" => item_indent = Some(indent),
            None => out.push_str(line),
        }
        out.push('\n');
    }
    out
}

/// A metric emission with a literal name.
#[derive(Debug)]
struct EmitSite {
    kind: EmitKind,
    /// The name; for a `format!`-built name, its prefix up to the first
    /// `{`.
    name: String,
    prefix_only: bool,
    path: String,
    line: usize,
}

/// Every `.method("name", …)` or `.method(&format!("name{…}", …), …)`
/// call of a `MetricsSink` emit method.
fn collect_emits(sources: &[Source]) -> Vec<EmitSite> {
    let mut emits = Vec::new();
    for src in sources {
        for (dot, _) in src.code.match_indices('.') {
            let after = &src.code[dot + 1..];
            let method_len = after
                .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                .unwrap_or(after.len());
            let Some(kind) = EmitKind::of_method(&after[..method_len]) else {
                continue;
            };
            let Some(args) = after[method_len..].strip_prefix('(') else {
                continue;
            };
            let arg = args.trim_start();
            let arg = arg.strip_prefix('&').unwrap_or(arg);
            let (is_format, arg) = match arg.strip_prefix("format!(") {
                Some(inner) => (true, inner.trim_start()),
                None => (false, arg),
            };
            let offset = src.code.len() - arg.len();
            let Some(value) = src.literals.get(&offset) else {
                continue;
            };
            let (name, prefix_only) = match value.split_once('{') {
                Some((prefix, _)) if is_format => (prefix.to_owned(), true),
                _ => (value.clone(), false),
            };
            emits.push(EmitSite {
                kind,
                name,
                prefix_only,
                path: src.path.clone(),
                line: src.line_of(offset),
            });
        }
    }
    emits
}

fn entry_matches_emit(entry: &CatEntry, emit: &EmitSite) -> bool {
    if entry.kind != emit.kind {
        return false;
    }
    if entry.wildcard {
        // A `format!` prefix may be shorter than the catalogued prefix
        // (`"cube.{}"`) or longer (`"cube.cells.level.{}"` vs
        // `cube.*`); either direction is a match.
        emit.name.starts_with(&entry.name) || entry.name.starts_with(&emit.name)
    } else {
        !emit.prefix_only && entry.name == emit.name
    }
}

fn is_diag_code(s: &str) -> bool {
    let b = s.as_bytes();
    b.len() == 4 && (b[0] == b'E' || b[0] == b'W') && b[1..].iter().all(u8::is_ascii_digit)
}

/// Everything the audit reads, in memory.
struct Workspace {
    catalogue: String,
    sources: Vec<Source>,
    /// The text of `crates/analyze/src/diag.rs`; its module doc holds the
    /// code table (`//! | E001 | … |`).
    diag_table: String,
    /// The `fixtures/bad/*.expected` goldens; each line starts with a
    /// code.
    goldens: Vec<String>,
}

/// Every disagreement, as `(code, message)`.
fn audit(ws: &Workspace) -> Vec<(&'static str, String)> {
    let entries = parse_catalogue(&ws.catalogue);
    let emits = collect_emits(&ws.sources);
    let mentions: BTreeSet<&str> = ws
        .sources
        .iter()
        .flat_map(|s| s.literals.values().map(String::as_str))
        .collect();
    let mut found = Vec::new();

    for entry in &entries {
        let at = format!("{CATALOGUE_PATH}:{}", entry.line);
        let legal = entry
            .name
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || matches!(c, '.' | '_'))
            && is_valid_metric_name(&sanitize_name(entry.name.trim_end_matches('.')));
        if !legal {
            let msg = format!("{at}: `{}` cannot be a Prometheus metric name", entry.name);
            found.push(("L009", msg));
            continue;
        }
        let emitted = emits.iter().any(|e| entry_matches_emit(entry, e));
        let mentioned = if entry.wildcard {
            mentions.iter().any(|m| m.starts_with(&entry.name))
        } else {
            mentions.contains(entry.name.as_str())
        };
        if !emitted && !mentioned {
            let msg = format!(
                "{at}: catalogued {} `{}` has no emit site or literal mention in non-test source",
                entry.kind.label(),
                entry.name
            );
            found.push(("L007", msg));
        }
    }
    for emit in &emits {
        if !entries.iter().any(|e| entry_matches_emit(e, emit)) {
            let msg = format!(
                "{}:{}: {} `{}` is emitted but missing from {CATALOGUE_PATH}",
                emit.path,
                emit.line,
                emit.kind.label(),
                emit.name
            );
            found.push(("L008", msg));
        }
    }

    let covered: BTreeSet<&str> = ws
        .goldens
        .iter()
        .flat_map(|g| g.lines())
        .filter_map(|l| l.split_whitespace().next())
        .filter(|c| is_diag_code(c))
        .collect();
    for (i, line) in ws.diag_table.lines().enumerate() {
        let Some(row) = line.trim().strip_prefix("//! |") else {
            continue;
        };
        let code = row.split('|').next().unwrap_or("").trim();
        if !is_diag_code(code) {
            continue;
        }
        let at = format!("{DIAG_TABLE_PATH}:{}", i + 1);
        if !mentions.contains(code) {
            found.push((
                "L010",
                format!("{at}: {code} is documented but never constructed"),
            ));
        }
        if !covered.contains(code) {
            found.push((
                "L011",
                format!("{at}: {code} has no golden under {BAD_FIXTURES_DIR}"),
            ));
        }
    }
    found
}

fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for path in entries.map(|e| e.expect("dir entry").path()) {
        if path.is_dir() {
            rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn read(root: &Path, rel: &str) -> String {
    fs::read_to_string(root.join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

/// The workspace as the audit reads it: every `crates/*/src` and root
/// `src` file (integration tests and `vendor/` are out of scope).
fn workspace() -> Workspace {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for member in fs::read_dir(root.join("crates")).expect("crates/") {
        rs_files(&member.expect("crate dir").path().join("src"), &mut files);
    }
    rs_files(&root.join("src"), &mut files);
    files.sort();
    let sources = files
        .iter()
        .map(|f| {
            let rel = f.strip_prefix(root).expect("under root").to_string_lossy();
            scan(&rel, &fs::read_to_string(f).expect("source file"))
        })
        .collect();
    let mut goldens: Vec<PathBuf> = fs::read_dir(root.join(BAD_FIXTURES_DIR))
        .expect("bad fixtures")
        .map(|e| e.expect("fixture").path())
        .filter(|p| p.extension().is_some_and(|e| e == "expected"))
        .collect();
    goldens.sort();
    Workspace {
        catalogue: read(root, CATALOGUE_PATH),
        sources,
        diag_table: read(root, DIAG_TABLE_PATH),
        goldens: goldens
            .iter()
            .map(|p| fs::read_to_string(p).expect("golden"))
            .collect(),
    }
}

#[test]
fn workspace_artifacts_agree_with_the_source() {
    let ws = workspace();
    assert!(
        ws.sources.len() > 50,
        "source walk collapsed ({} files)",
        ws.sources.len()
    );
    assert!(collect_emits(&ws.sources).len() > 50, "emit scan collapsed");
    let found = audit(&ws);
    assert!(
        found.is_empty(),
        "the artifacts disagree with the source:\n{}",
        found
            .iter()
            .map(|(code, msg)| format!("{code} {msg}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// A one-file workspace around `source`, the catalogue and the diag
/// table.
fn one_file(catalogue: &str, source: &str, diag_table: &str, golden: &str) -> Workspace {
    Workspace {
        catalogue: catalogue.to_owned(),
        sources: vec![scan("crates/x/src/lib.rs", source)],
        diag_table: diag_table.to_owned(),
        goldens: vec![golden.to_owned()],
    }
}

fn codes(ws: &Workspace) -> Vec<&'static str> {
    audit(ws).into_iter().map(|(code, _)| code).collect()
}

#[test]
fn l007_rejects_a_name_mentioned_only_in_comments_and_tests() {
    let source = "\
// sink.add(\"ghost.metric\", 1);
/* \"ghost.metric\" */
pub fn live(sink: &S) {
    sink.add(\"live.metric\", 1);
}

#[cfg(test)]
mod tests {
    fn t(sink: &S) {
        sink.add(\"ghost.metric\", 1);
    }
}
";
    let ws = one_file("live.metric\nghost.metric\n", source, "", "");
    assert_eq!(codes(&ws), ["L007"]);
    assert!(audit(&ws)[0].1.contains("counters.txt:2"));
    // The same name in a literal of live code is evidence.
    let ws = one_file(
        "live.metric\nghost.metric\n",
        &source.replace("\"live.metric\"", "\"live.metric\", \"ghost.metric\""),
        "",
        "",
    );
    assert!(codes(&ws).is_empty());
}

#[test]
fn l008_rejects_an_uncatalogued_emit() {
    let source = "pub fn f(sink: &S) {\n    sink.observe(\n        \"not.catalogued\",\n        3,\n    );\n}\n";
    let ws = one_file("", source, "", "");
    let found = audit(&ws);
    assert_eq!(found.len(), 1);
    assert_eq!(found[0].0, "L008");
    assert!(found[0].1.starts_with("crates/x/src/lib.rs:3: histogram"));
}

#[test]
fn l009_rejects_an_illegal_metric_name() {
    let ws = one_file("Bad-Name\n", "const N: &str = \"Bad-Name\";\n", "", "");
    assert_eq!(codes(&ws), ["L009"]);
}

#[test]
fn l010_rejects_a_documented_code_never_constructed() {
    let table = "//! | code | meaning |\n//! | E098 | never built |\n";
    let ws = one_file(
        "",
        "// \"E098\" in a comment only\n",
        table,
        "E098 schema:1:1\n",
    );
    assert_eq!(codes(&ws), ["L010"]);
}

#[test]
fn l011_rejects_a_code_without_a_golden() {
    let table = "//! | code | meaning |\n//! | E099 | built, untested |\n";
    let ws = one_file(
        "",
        "const C: &str = \"E099\";\n",
        table,
        "E001 schema:1:1\n",
    );
    assert_eq!(codes(&ws), ["L011"]);
}

#[test]
fn scan_keeps_literals_and_drops_comments_chars_and_tests() {
    let src = scan(
        "x.rs",
        "let q = '\"'; // \"in comment\"\nlet s = r#\"raw \"q\"\"#;\nlet b = b\"bytes\"; fn f<'a>(x: &'a str) {}\nlet e = \"esc \\\" q\";\n#[cfg(test)]\nfn helper() -> u8 {\n    \"test only\";\n}\nlet after = \"after\";\n",
    );
    let values: Vec<&str> = src.literals.values().map(String::as_str).collect();
    assert_eq!(values, ["raw \"q\"", "bytes", "esc \\\" q", "after"]);
    assert!(!src.code.contains("comment") && src.code.contains("fn f<'a>"));
    assert_eq!(src.line_of(*src.literals.keys().last().unwrap()), 9);
}

#[test]
fn catalogue_parsing_covers_all_forms() {
    let text = "# comment\n\
                join.runs\n\
                aux cube.cells.level.*\n\
                span:prepare # trailing comment\n\
                hist:join.component_rows\n";
    let e = parse_catalogue(text);
    assert_eq!(e.len(), 4);
    assert_eq!(
        (e[0].name.as_str(), e[0].kind),
        ("join.runs", EmitKind::Counter)
    );
    assert!(e[1].aux && e[1].wildcard);
    assert_eq!(e[1].name, "cube.cells.level.");
    assert_eq!((e[2].name.as_str(), e[2].kind), ("prepare", EmitKind::Span));
    assert_eq!(e[2].line, 4);
    assert_eq!(e[3].kind, EmitKind::Hist);
}

#[test]
fn emit_collection_sees_literals_and_format_prefixes() {
    let src = scan(
        "crates/core/src/x.rs",
        "fn f(sink: &S) {\n\
         \u{20}   sink.add(\"join.runs\", 1);\n\
         \u{20}   sink.observe(\n\
         \u{20}       \"join.component_rows\",\n\
         \u{20}       3,\n\
         \u{20}   );\n\
         \u{20}   sink.add(&format!(\"cube.cells.level.{}\", 2), 5);\n\
         \u{20}   sink.time(\"prepare\", || ());\n\
         \u{20}   sink.add(dynamic_name, 1);\n\
         }\n",
    );
    let emits = collect_emits(std::slice::from_ref(&src));
    let got: Vec<(EmitKind, &str, bool)> = emits
        .iter()
        .map(|e| (e.kind, e.name.as_str(), e.prefix_only))
        .collect();
    assert_eq!(
        got,
        [
            (EmitKind::Counter, "join.runs", false),
            (EmitKind::Hist, "join.component_rows", false),
            (EmitKind::Counter, "cube.cells.level.", true),
            (EmitKind::Span, "prepare", false),
        ]
    );
    // The multiline observe's line is the name literal's.
    assert_eq!(emits[1].line, 4);
}

#[test]
fn wildcard_entries_match_both_prefix_directions() {
    let entry = &parse_catalogue("aux cube.cells.level.*\n")[0];
    let emit = |name: &str, prefix_only| EmitSite {
        kind: EmitKind::Counter,
        name: name.to_owned(),
        prefix_only,
        path: String::new(),
        line: 1,
    };
    assert!(entry_matches_emit(entry, &emit("cube.cells.level.", true)));
    assert!(entry_matches_emit(
        entry,
        &emit("cube.cells.level.3", false)
    ));
    assert!(!entry_matches_emit(entry, &emit("cube.runs", false)));
}

#[test]
fn diag_code_shape() {
    assert!(is_diag_code("E001"));
    assert!(is_diag_code("W005"));
    assert!(!is_diag_code("L001") && !is_diag_code("E1") && !is_diag_code("code"));
}
