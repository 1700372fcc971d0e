//! # exq-analyze — static analysis for the `.exq` DSLs
//!
//! A compiler-style, multi-diagnostic checker for schema and question
//! files. It has no grammar of its own: it runs the engine's (the
//! syntax layers and lowerings of `exq_relstore::parse` and
//! `exq_core::qparse`), which collect **every** fault rather than
//! stopping at the first, so `exq check` accepts exactly what the engine
//! accepts and reports each fault at the position and with the code the
//! engine would. Each finding is a [`Diagnostic`] with a stable code, a
//! `line:col` span, and — where there is a concrete fix — a help
//! suggestion.
//!
//! The catalogue (see [`diag`] for the full code table) covers the
//! faults the engine rejects (unknown names, duplicate declarations,
//! foreign-key arity/type errors, cyclic join graphs, ill-typed
//! comparisons such as `year = 'SIGMOD'`) plus paper-motivated
//! warnings the engine cannot see until run time ([`passes`]):
//! unsatisfiable constant ranges (`year >= 2007 and year <= 2004`),
//! division-prone `expr`s without a smoothing constant, Proposition
//! 3.11's one-back-and-forth-key-per-relation bound, join-graph
//! connectivity, and the cube dimensionality budget.
//!
//! ```
//! use exq_analyze::{analyze, SourceFile};
//!
//! let schema = SourceFile::schema("s.exq", "relation R(id: int key, year: int)");
//! let q = SourceFile::question("q.exq", "agg a = count(*) where year = 'x'\ndir high");
//! let analysis = analyze(Some(&schema), &[q.clone()]);
//! assert_eq!(analysis.diagnostics[0].code, "E008"); // type mismatch
//! assert!(analysis.has_errors());
//! println!("{}", analysis.render_pretty(&[&schema, &q]));
//! ```

#![warn(clippy::print_stdout, clippy::print_stderr)]

pub mod diag;
pub mod passes;
pub mod render;

pub use diag::{Diagnostic, Severity, Span};
pub use render::{render_json, render_pretty};

use exq_relstore::DatabaseSchema;

/// What kind of source file a [`SourceFile`] holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceKind {
    /// Schema DSL (`relation …` / `fk …`).
    Schema,
    /// Question DSL (`agg …` / `expr …` / `dir …` / `smoothing …`).
    Question,
}

/// A named input file.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Display name (usually the path), used in diagnostics.
    pub name: String,
    /// Full text.
    pub text: String,
    /// Schema or question.
    pub kind: SourceKind,
}

impl SourceFile {
    /// A schema source.
    pub fn schema(name: impl Into<String>, text: impl Into<String>) -> SourceFile {
        SourceFile {
            name: name.into(),
            text: text.into(),
            kind: SourceKind::Schema,
        }
    }

    /// A question source.
    pub fn question(name: impl Into<String>, text: impl Into<String>) -> SourceFile {
        SourceFile {
            name: name.into(),
            text: text.into(),
            kind: SourceKind::Question,
        }
    }
}

/// The result of an analysis run.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Every finding, ordered by (file, line, column).
    pub diagnostics: Vec<Diagnostic>,
}

impl Analysis {
    /// Number of error-severity diagnostics.
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity diagnostics.
    pub fn warning_count(&self) -> usize {
        self.diagnostics.len() - self.error_count()
    }

    /// Would the execution path reject these inputs?
    pub fn has_errors(&self) -> bool {
        self.error_count() > 0
    }

    /// Pretty terminal rendering (see [`render::render_pretty`]).
    pub fn render_pretty(&self, sources: &[&SourceFile]) -> String {
        render::render_pretty(&self.diagnostics, sources)
    }

    /// JSON rendering (see [`render::render_json`]).
    pub fn render_json(&self) -> String {
        render::render_json(&self.diagnostics)
    }
}

fn sort_key(d: &Diagnostic, order: &[&str]) -> (usize, usize, usize) {
    let file_rank = order
        .iter()
        .position(|f| *f == d.file)
        .unwrap_or(usize::MAX);
    (file_rank, d.span.line, d.span.col)
}

/// Analyze a schema and any number of question files against it.
///
/// With `schema: None` the questions are checked without name
/// resolution, which still catches syntax faults, duplicate names,
/// undeclared `expr` references, missing directives, and unsmoothed
/// division — use [`analyze_question_against`] when a validated
/// [`DatabaseSchema`] is already in hand.
pub fn analyze(schema: Option<&SourceFile>, questions: &[SourceFile]) -> Analysis {
    let mut diags = Vec::new();
    let relations = schema.map(|s| passes::check_schema(&s.name, &s.text, &mut diags));
    for q in questions {
        passes::check_question(&q.name, &q.text, relations.as_deref(), &mut diags);
    }
    let order: Vec<&str> = schema
        .iter()
        .map(|s| s.name.as_str())
        .chain(questions.iter().map(|q| q.name.as_str()))
        .collect();
    diags.sort_by_key(|d| sort_key(d, &order));
    Analysis { diagnostics: diags }
}

/// Analyze a question file against an already-validated schema (the
/// explainer's load path renders this when the question is rejected).
pub fn analyze_question_against(schema: &DatabaseSchema, question: &SourceFile) -> Analysis {
    let mut diags = Vec::new();
    passes::check_question(
        &question.name,
        &question.text,
        Some(schema.relations()),
        &mut diags,
    );
    diags.sort_by_key(|d| (d.span.line, d.span.col));
    Analysis { diagnostics: diags }
}

/// Analyze a schema file alone.
pub fn analyze_schema(schema: &SourceFile) -> Analysis {
    analyze(Some(schema), &[])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doc_example_runs() {
        let schema = SourceFile::schema("s.exq", "relation R(id: int key, year: int)");
        let q = SourceFile::question("q.exq", "agg a = count(*) where year = 'x'\ndir high");
        let analysis = analyze(Some(&schema), &[q]);
        assert_eq!(analysis.error_count(), 1);
        assert_eq!(analysis.diagnostics[0].code, "E008");
    }

    #[test]
    fn diagnostics_are_ordered() {
        let schema = SourceFile::schema(
            "s.exq",
            "relation R(id: int key)\nrelation R(id: int key)\n",
        );
        let q = SourceFile::question("q.exq", "agg a = count(*)\nagg a = count(*)\ndir high");
        let analysis = analyze(Some(&schema), &[q]);
        let files: Vec<&str> = analysis
            .diagnostics
            .iter()
            .map(|d| d.file.as_str())
            .collect();
        assert!(!files.is_empty());
        // Schema diagnostics come before question diagnostics.
        let first_q = files.iter().position(|f| *f == "q.exq").unwrap();
        assert!(files[..first_q].iter().all(|f| *f == "s.exq"), "{files:?}");
        assert!(files[first_q..].iter().all(|f| *f == "q.exq"), "{files:?}");
    }

    #[test]
    fn schema_free_question_analysis() {
        let q = SourceFile::question("q.exq", "agg a = count(*)\nexpr a / b\n");
        let analysis = analyze(None, &[q]);
        let codes: Vec<&str> = analysis.diagnostics.iter().map(|d| d.code).collect();
        assert!(codes.contains(&"E009"), "{codes:?}"); // `b` undeclared
        assert!(codes.contains(&"E014"), "{codes:?}"); // missing dir
        assert!(codes.contains(&"W004"), "{codes:?}"); // unsmoothed division
    }
}
