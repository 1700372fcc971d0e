//! The metric catalogue, `assets/obs/counters.txt`, parsed. Shared by
//! the catalogue presence test (`tests/trace_coverage.rs`) and the
//! catalogue audit (`tests/artifact_audit.rs`), which each use a
//! different part of it.
//!
//! One name per line, `#` starts a comment. A line may be prefixed
//! `aux ` for a name the reference workloads do not pin (the presence
//! test skips it, the audit does not), prefixed `span:` or `hist:` for a
//! span or histogram, and may end in `.*` to cover a family of
//! `format!`-built names.

#![allow(dead_code)]

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
    /// The kind a `MetricsSink` method emits, if it emits one.
    pub fn of_method(method: &str) -> Option<EmitKind> {
        match method {
            "add" | "incr" => Some(EmitKind::Counter),
            "span" | "time" | "record_span" => Some(EmitKind::Span),
            "observe" | "observe_duration" => Some(EmitKind::Hist),
            _ => None,
        }
    }

    /// How a message names the kind.
    pub fn label(self) -> &'static str {
        match self {
            EmitKind::Counter => "counter",
            EmitKind::Span => "span",
            EmitKind::Hist => "histogram",
        }
    }
}

/// One parsed catalogue line.
#[derive(Debug, Clone)]
pub struct CatEntry {
    /// Metric name, `span:`/`hist:` prefix and `.*` suffix stripped (a
    /// wildcard keeps its trailing `.`).
    pub name: String,
    /// Counter, span, or histogram.
    pub kind: EmitKind,
    /// Not pinned by the reference workloads.
    pub aux: bool,
    /// `name` is a prefix covering a `format!`-built family.
    pub wildcard: bool,
    /// 1-based line in the catalogue.
    pub line: usize,
}

/// Parse the catalogue. Total: every non-blank, non-comment line is an
/// entry (the audit checks names, not grammar).
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
