//! Cross-artifact audits, `L007`–`L011`.
//!
//! The lint rules keep single files honest; these audits keep the
//! *artifacts that describe the system* honest against the system
//! itself:
//!
//! - `assets/obs/counters.txt` ↔ metric emit sites (`L007`/`L008`):
//!   every catalogued name must be emitted or mentioned somewhere in
//!   library/binary source, and every literal-name emit must be
//!   catalogued. Catalogue lines may be prefixed `aux ` for names the
//!   reference workloads do not pin (the presence test in
//!   `tests/trace_coverage.rs` skips them, the audit does not), and may
//!   end in `.*` to cover a family of `format!`-built names.
//! - catalogue names ↔ Prometheus naming (`L009`): each name must be
//!   lower-case dotted (`[a-z0-9._]`) and survive
//!   [`exq_obs::sanitize_name`] into a name the in-repo exposition
//!   checker ([`exq_obs::is_valid_metric_name`]) accepts.
//! - the `exq-analyze` diagnostic-code table ↔ reality (`L010`/`L011`):
//!   every code documented in `crates/analyze/src/diag.rs` must be
//!   constructed somewhere and exercised by a
//!   `crates/analyze/tests/fixtures/bad/*.expected` golden.

use crate::lexer::TokKind;
use crate::LintSource;
use exq_analyze::{Diagnostic, SourceFile, Span};
use std::collections::BTreeSet;
use std::path::Path;

/// Repo-relative path of the counter catalogue.
pub const CATALOGUE_PATH: &str = "assets/obs/counters.txt";
/// Repo-relative path of the diagnostic-code table.
pub const DIAG_TABLE_PATH: &str = "crates/analyze/src/diag.rs";
/// Repo-relative dir of the analyzer's seeded-violation goldens.
pub const BAD_FIXTURES_DIR: &str = "crates/analyze/tests/fixtures/bad";

/// What kind of metric an emit site or catalogue entry names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EmitKind {
    /// `MetricsSink::add`/`incr`.
    Counter,
    /// `MetricsSink::span`/`time`/`record_span`.
    Span,
    /// `MetricsSink::observe`/`observe_duration`.
    Hist,
}

impl EmitKind {
    fn label(self) -> &'static str {
        match self {
            EmitKind::Counter => "counter",
            EmitKind::Span => "span",
            EmitKind::Hist => "histogram",
        }
    }
}

/// One parsed `counters.txt` line.
#[derive(Debug, Clone)]
pub struct CatEntry {
    /// Metric name, `span:`/`hist:` prefix and `.*` suffix stripped.
    pub name: String,
    /// Counter, span, or histogram.
    pub kind: EmitKind,
    /// `aux` entries are emitted by the system but not pinned by the
    /// reference workloads; the catalogue presence test skips them.
    pub aux: bool,
    /// `name` is a prefix covering a `format!`-built family.
    pub wildcard: bool,
    /// 1-based line in the catalogue.
    pub line: usize,
}

/// Parse the catalogue. Total: unparseable lines are skipped (the
/// audit checks names, not grammar). The audit and the catalogue
/// presence test in `tests/trace_coverage.rs` share this parser.
pub fn parse_catalogue(text: &str) -> Vec<CatEntry> {
    let mut entries = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let (aux, line) = match line.strip_prefix("aux ") {
            Some(rest) => (true, rest.trim()),
            None => (false, line),
        };
        let (kind, name) = if let Some(n) = line.strip_prefix("span:") {
            (EmitKind::Span, n)
        } else if let Some(n) = line.strip_prefix("hist:") {
            (EmitKind::Hist, n)
        } else {
            (EmitKind::Counter, line)
        };
        let (wildcard, name) = match name.strip_suffix(".*") {
            Some(prefix) => (true, format!("{prefix}.")),
            None => (false, name.to_owned()),
        };
        entries.push(CatEntry {
            name,
            kind,
            aux,
            wildcard,
            line: i + 1,
        });
    }
    entries
}

/// A literal-name metric emission found in source.
#[derive(Debug)]
pub struct EmitSite {
    /// Counter, span, or histogram (from the method called).
    pub kind: EmitKind,
    /// The emitted name; for `format!`-built names, the literal prefix
    /// up to the first `{`.
    pub name: String,
    /// `true` when `name` is only a `format!` prefix.
    pub prefix_only: bool,
    /// Source path.
    pub path: String,
    /// 1-based position of the name argument.
    pub line: usize,
    /// 1-based column of the name argument.
    pub col: usize,
}

fn emit_kind_of(method: &str) -> Option<EmitKind> {
    match method {
        "add" | "incr" => Some(EmitKind::Counter),
        "span" | "time" | "record_span" => Some(EmitKind::Span),
        "observe" | "observe_duration" => Some(EmitKind::Hist),
        _ => None,
    }
}

/// The value of a string-literal token, quotes and `b`/`r#` framing
/// stripped. Escape sequences are left raw — metric names never
/// contain them, so an escaped literal simply matches nothing.
fn str_value(lit: &str) -> Option<&str> {
    let s = lit.strip_prefix('b').unwrap_or(lit);
    let s = match s.strip_prefix('r') {
        Some(rest) => rest
            .trim_start_matches('#')
            .strip_suffix('#')
            .unwrap_or(rest),
        None => s,
    };
    let s = s.trim_end_matches('#');
    s.strip_prefix('"')?.strip_suffix('"')
}

/// Scan `.method("name", …)` call shapes for metric emissions with a
/// literal (or literal-prefixed `format!`) name argument.
pub fn collect_emits(sources: &[LintSource]) -> Vec<EmitSite> {
    let mut emits = Vec::new();
    for s in sources {
        let text = |i: usize| s.code.get(i).map_or("", |t| t.text(&s.text));
        for i in 0..s.code.len() {
            if text(i) != "." {
                continue;
            }
            let Some(kind) = emit_kind_of(text(i + 1)) else {
                continue;
            };
            if text(i + 2) != "(" {
                continue;
            }
            // First argument: `"lit"` or `[&]format!("lit{…}", …)`.
            let mut j = i + 3;
            if text(j) == "&" {
                j += 1;
            }
            let is_format = text(j) == "format" && text(j + 1) == "!" && text(j + 2) == "(";
            if is_format {
                j += 3;
            }
            let Some(tok) = s.code.get(j).filter(|t| t.kind == TokKind::Str) else {
                continue;
            };
            let Some(value) = str_value(tok.text(&s.text)) else {
                continue;
            };
            let (name, prefix_only) = match value.split_once('{') {
                Some((prefix, _)) => (prefix.to_owned(), true),
                None if is_format => (value.to_owned(), false),
                None => (value.to_owned(), false),
            };
            emits.push(EmitSite {
                kind,
                name,
                prefix_only,
                path: s.path.clone(),
                line: tok.line,
                col: tok.col,
            });
        }
    }
    emits
}

/// Every string-literal value in (non-test) code, for `L007` mention
/// evidence: a catalogued name that appears in a literal — a
/// `match`-table arm, a counter-name array — is wired up even if the
/// emit call itself passes a variable.
fn collect_mentions(sources: &[LintSource]) -> BTreeSet<String> {
    let mut mentions = BTreeSet::new();
    for s in sources {
        for t in s.code.iter().filter(|t| t.kind == TokKind::Str) {
            if let Some(v) = str_value(t.text(&s.text)) {
                mentions.insert(v.to_owned());
            }
        }
    }
    mentions
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

/// `L007`/`L008`/`L009`: the catalogue ↔ emit-site ↔ Prometheus audit.
pub fn counters_audit(root: &Path, sources: &[LintSource]) -> std::io::Result<Vec<Diagnostic>> {
    let text = std::fs::read_to_string(root.join(CATALOGUE_PATH))?;
    let entries = parse_catalogue(&text);
    let emits = collect_emits(sources);
    let mentions = collect_mentions(sources);
    let mut diags = Vec::new();

    for entry in &entries {
        // L009 first: a malformed name will never match anything.
        let bad_char = entry
            .name
            .chars()
            .find(|c| !(c.is_ascii_lowercase() || c.is_ascii_digit() || matches!(c, '.' | '_')));
        let sanitized = exq_obs::sanitize_name(entry.name.trim_end_matches('.'));
        if bad_char.is_some() || !exq_obs::is_valid_metric_name(&sanitized) {
            diags.push(
                Diagnostic::error(
                    "L009",
                    CATALOGUE_PATH,
                    Span::new(entry.line, 1, entry.name.chars().count().max(1)),
                    format!(
                        "catalogue name `{}` cannot render to a legal Prometheus metric name",
                        entry.name
                    ),
                )
                .with_help("metric names are lower-case dotted: [a-z0-9._]"),
            );
            continue;
        }
        let emitted = emits.iter().any(|e| entry_matches_emit(entry, e));
        let mentioned = if entry.wildcard {
            mentions.iter().any(|m| m.starts_with(&entry.name))
        } else {
            mentions.contains(&entry.name)
        };
        if !emitted && !mentioned {
            diags.push(
                Diagnostic::error(
                    "L007",
                    CATALOGUE_PATH,
                    Span::new(entry.line, 1, entry.name.chars().count().max(1)),
                    format!(
                        "catalogued {} `{}` has no emit site or mention in workspace source",
                        entry.kind.label(),
                        entry.name
                    ),
                )
                .with_help(
                    "emit it through the MetricsSink, or delete the entry — a stale \
                     catalogue line makes the catalogue presence test lie",
                ),
            );
        }
    }

    for emit in &emits {
        if !entries.iter().any(|e| entry_matches_emit(e, emit)) {
            diags.push(
                Diagnostic::error(
                    "L008",
                    &emit.path,
                    Span::new(emit.line, emit.col, emit.name.chars().count().max(1)),
                    format!(
                        "{} `{}` is emitted here but missing from {}",
                        emit.kind.label(),
                        emit.name,
                        CATALOGUE_PATH
                    ),
                )
                .with_help(
                    "add it to the catalogue (prefix the line with `aux ` if the reference \
                     workloads do not pin it; suffix `.*` for a format!-built family)",
                ),
            );
        }
    }
    Ok(diags)
}

/// `L010`/`L011`: every code in the analyzer's documented table must be
/// constructed somewhere and covered by a bad-fixture golden.
pub fn diag_code_audit(root: &Path, sources: &[LintSource]) -> std::io::Result<Vec<Diagnostic>> {
    let Some(diag_src) = sources.iter().find(|s| s.path.ends_with(DIAG_TABLE_PATH)) else {
        return Ok(Vec::new()); // partial source set (explicit paths): skip
    };

    // Table rows live in the module doc: `//! | E001 | … |`.
    let mut table: Vec<(String, usize)> = Vec::new();
    for (i, line) in diag_src.text.lines().enumerate() {
        let t = line.trim();
        let Some(rest) = t.strip_prefix("//! |") else {
            continue;
        };
        let code = rest.split('|').next().unwrap_or("").trim();
        if is_diag_code(code) {
            table.push((code.to_owned(), i + 1));
        }
    }

    // Construction evidence: the code as a string literal anywhere in
    // (non-test) workspace source — diag constructors take the code as
    // a `&'static str`, and the engine crates share the same codes.
    let constructed = collect_mentions(sources);

    // Fixture coverage: first column of each golden line.
    let mut covered: BTreeSet<String> = BTreeSet::new();
    let fixtures = root.join(BAD_FIXTURES_DIR);
    if fixtures.is_dir() {
        let mut paths: Vec<_> = std::fs::read_dir(&fixtures)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == "expected"))
            .collect();
        paths.sort();
        for p in paths {
            for line in std::fs::read_to_string(&p)?.lines() {
                if let Some(code) = line.split_whitespace().next() {
                    if is_diag_code(code) {
                        covered.insert(code.to_owned());
                    }
                }
            }
        }
    }

    let mut diags = Vec::new();
    for (code, line) in &table {
        if !constructed.contains(code) {
            diags.push(
                Diagnostic::error(
                    "L010",
                    DIAG_TABLE_PATH,
                    Span::new(*line, 1, 4),
                    format!("diagnostic code {code} is documented but never constructed"),
                )
                .with_help("implement the check or drop the table row"),
            );
        }
        if !covered.contains(code) {
            diags.push(
                Diagnostic::error(
                    "L011",
                    DIAG_TABLE_PATH,
                    Span::new(*line, 1, 4),
                    format!("diagnostic code {code} has no golden under {BAD_FIXTURES_DIR}"),
                )
                .with_help("seed a bad fixture whose .expected lists the code"),
            );
        }
    }
    Ok(diags)
}

fn is_diag_code(s: &str) -> bool {
    let b = s.as_bytes();
    b.len() == 4 && (b[0] == b'E' || b[0] == b'W') && b[1..].iter().all(u8::is_ascii_digit)
}

/// Run all cross-artifact audits. Returns the diagnostics (allow
/// directives applied, sorted) plus extra [`SourceFile`]s — the
/// catalogue — so callers can render carets into non-Rust artifacts
/// too.
pub fn audit_workspace(
    root: &Path,
    sources: &[LintSource],
) -> std::io::Result<(Vec<Diagnostic>, Vec<SourceFile>)> {
    let mut diags = counters_audit(root, sources)?;
    diags.extend(diag_code_audit(root, sources)?);
    crate::apply_allows(sources, &mut diags);
    crate::sort_diags(&mut diags);
    let mut extra = Vec::new();
    if let Ok(text) = std::fs::read_to_string(root.join(CATALOGUE_PATH)) {
        extra.push(SourceFile::rust(CATALOGUE_PATH, text));
    }
    Ok((diags, extra))
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let src = LintSource::new(
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
        // The multiline observe's span points at the name literal.
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
            col: 1,
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
}
