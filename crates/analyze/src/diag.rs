//! The [`Diagnostic`] type and the stable code catalogue.
//!
//! Every error code is produced by the engine's own grammar (the
//! [`Fault`]s of `exq_relstore::parse` and `exq_core::qparse`, which
//! `exq_relstore::Error::code` reports too), so a fault gets the same
//! code from `exq check` as from `exq explain` or the server; the
//! warnings come from this crate's passes:
//!
//! | code | meaning |
//! |------|---------|
//! | E001 | unknown relation |
//! | E002 | unknown attribute |
//! | E003 | duplicate relation declaration |
//! | E004 | duplicate attribute declaration |
//! | E005 | foreign-key arity mismatch |
//! | E006 | foreign-key type mismatch |
//! | E007 | cyclic foreign-key join graph |
//! | E008 | predicate type mismatch |
//! | E009 | unknown aggregate name in `expr` |
//! | E010 | schema syntax error |
//! | E011 | question syntax error |
//! | E012 | relation without a key column |
//! | E013 | ambiguous attribute reference |
//! | E014 | missing directive (`dir`, or `expr` with several aggregates) |
//! | E015 | duplicate aggregate name |
//! | W001 | several back-and-forth keys on one relation (Prop 3.11) |
//! | W002 | disconnected foreign-key join graph |
//! | W003 | unsatisfiable constant range |
//! | W004 | division in `expr` without smoothing |
//! | W005 | cube dimensionality over the enumeration budget |

use exq_relstore::text::Fault;
pub use exq_relstore::text::{suggest, Span};
use std::fmt;

/// How bad a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// The input will be rejected by the engine.
    Error,
    /// The input is legal but likely not what the author meant, or
    /// threatens performance/convergence.
    Warning,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Error => write!(f, "error"),
            Severity::Warning => write!(f, "warning"),
        }
    }
}

/// One finding: a coded, located message with an optional suggestion.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable code (`E0xx` error, `W0xx` warning); see the module docs.
    pub code: &'static str,
    /// Error or warning (consistent with the code's prefix).
    pub severity: Severity,
    /// Name of the file the span points into.
    pub file: String,
    /// Where in the file.
    pub span: Span,
    /// What is wrong.
    pub message: String,
    /// How to fix it, when the analyzer has a concrete suggestion.
    pub help: Option<String>,
}

impl Diagnostic {
    /// Build an error diagnostic.
    pub fn error(code: &'static str, file: &str, span: Span, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: Severity::Error,
            file: file.to_string(),
            span,
            message: message.into(),
            help: None,
        }
    }

    /// Build a warning diagnostic.
    pub fn warning(code: &'static str, file: &str, span: Span, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: Severity::Warning,
            file: file.to_string(),
            span,
            message: message.into(),
            help: None,
        }
    }

    /// An engine [`Fault`] found in `file`, as an error.
    pub fn from_fault(file: &str, fault: Fault) -> Self {
        Diagnostic {
            code: fault.code,
            severity: Severity::Error,
            file: file.to_string(),
            span: fault.span,
            message: fault.message,
            help: fault.help,
        }
    }

    /// Attach a help suggestion.
    pub fn with_help(mut self, help: impl Into<String>) -> Self {
        self.help = Some(help.into());
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exq_relstore::text::edit_distance;

    #[test]
    fn distances() {
        assert_eq!(edit_distance("year", "year"), 0);
        assert_eq!(edit_distance("yearr", "year"), 1);
        assert_eq!(edit_distance("venue", "value"), 2);
        assert_eq!(edit_distance("", "abc"), 3);
    }

    #[test]
    fn suggestions() {
        let cands = ["year", "venue", "pubid"];
        assert_eq!(suggest("yearr", cands), Some("year"));
        assert_eq!(suggest("Year", cands), Some("year"));
        assert_eq!(suggest("zzzzzz", cands), None);
        // An exact match is not a suggestion.
        assert_eq!(suggest("year", ["year"]), None);
    }

    #[test]
    fn span_widths() {
        assert_eq!(Span::new(1, 2, 0).len, 1);
        assert_eq!(Span::file().line, 0);
    }
}
