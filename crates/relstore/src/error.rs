//! Error type for the relational substrate.

use std::fmt;

/// Errors raised while building schemas, loading data, or evaluating
/// queries.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum Error {
    /// A relation name was declared twice in a schema.
    DuplicateRelation(String),
    /// An attribute name was declared twice within one relation.
    DuplicateAttribute { relation: String, attribute: String },
    /// A name lookup failed.
    UnknownRelation(String),
    /// An attribute lookup failed.
    UnknownAttribute { relation: String, attribute: String },
    /// A foreign key references column lists of different lengths.
    ForeignKeyArity { from: String, to: String },
    /// A foreign key's target columns are not the primary key of the target.
    ForeignKeyTarget { from: String, to: String },
    /// The foreign-key join graph is not a tree/forest (the universal
    /// relation and the semijoin reducer require an acyclic schema).
    CyclicSchema,
    /// A row has the wrong number of columns.
    RowArity {
        relation: String,
        expected: usize,
        got: usize,
    },
    /// A row value does not conform to the declared column type.
    TypeMismatch {
        relation: String,
        attribute: String,
        expected: String,
        got: String,
    },
    /// A primary-key value occurred twice.
    DuplicateKey { relation: String, key: String },
    /// A foreign-key value has no matching target tuple.
    DanglingForeignKey {
        from: String,
        to: String,
        key: String,
    },
    /// An aggregate or expression was applied to a non-numeric value.
    NotNumeric(String),
    /// An expression divided by zero (callers usually guard with the
    /// paper's +epsilon smoothing instead of hitting this).
    DivisionByZero,
    /// A query referenced an aggregate index out of range.
    BadAggregateIndex { index: usize, count: usize },
    /// Too many cube dimensions for the subset-enumeration strategy.
    TooManyCubeDimensions(usize),
    /// A fault in `.exq` text (schema, predicate, question), with its
    /// `exq-analyze` code. `line` and `col` are 1-based; both are 0 for a
    /// whole-file fault.
    Parse {
        code: &'static str,
        line: usize,
        col: usize,
        message: String,
    },
}

impl Error {
    /// Stable diagnostic code for this error, shared with the
    /// `exq-analyze` crate's `E0xx`/`E1xx` catalogue so every layer
    /// (builder validation, text parsers, data loading, static analysis)
    /// reports the same code for the same fault class.
    pub fn code(&self) -> &'static str {
        match self {
            Error::UnknownRelation(_) => "E001",
            Error::UnknownAttribute { .. } => "E002",
            Error::DuplicateRelation(_) => "E003",
            Error::DuplicateAttribute { .. } => "E004",
            Error::ForeignKeyArity { .. } => "E005",
            Error::ForeignKeyTarget { .. } => "E006",
            Error::CyclicSchema => "E007",
            Error::Parse { code, .. } => code,
            Error::RowArity { .. } => "E101",
            Error::TypeMismatch { .. } => "E102",
            Error::DuplicateKey { .. } => "E103",
            Error::DanglingForeignKey { .. } => "E104",
            Error::NotNumeric(_) => "E105",
            Error::DivisionByZero => "E106",
            Error::BadAggregateIndex { .. } => "E107",
            Error::TooManyCubeDimensions(_) => "E108",
        }
    }

    /// The `(line, col)` position of a parse error (1-based; col 0 when
    /// unknown), or `None` for non-parse errors.
    pub fn position(&self) -> Option<(usize, usize)> {
        match self {
            Error::Parse { line, col, .. } => Some((*line, *col)),
            _ => None,
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::DuplicateRelation(r) => write!(f, "duplicate relation `{r}`"),
            Error::DuplicateAttribute { relation, attribute } => {
                write!(f, "duplicate attribute `{attribute}` in relation `{relation}`")
            }
            Error::UnknownRelation(r) => write!(f, "unknown relation `{r}`"),
            Error::UnknownAttribute { relation, attribute } => {
                write!(f, "unknown attribute `{relation}.{attribute}`")
            }
            Error::ForeignKeyArity { from, to } => {
                write!(f, "foreign key {from} -> {to}: column lists differ in length")
            }
            Error::ForeignKeyTarget { from, to } => {
                write!(f, "foreign key {from} -> {to}: target columns are not the primary key")
            }
            Error::CyclicSchema => write!(
                f,
                "foreign-key join graph is cyclic; the universal relation requires an acyclic schema"
            ),
            Error::RowArity { relation, expected, got } => {
                write!(f, "row for `{relation}` has {got} columns, schema has {expected}")
            }
            Error::TypeMismatch { relation, attribute, expected, got } => write!(
                f,
                "type mismatch for `{relation}.{attribute}`: expected {expected}, got {got}"
            ),
            Error::DuplicateKey { relation, key } => {
                write!(f, "duplicate primary key in `{relation}`: {key}")
            }
            Error::DanglingForeignKey { from, to, key } => {
                write!(f, "dangling foreign key {from} -> {to}: no target for {key}")
            }
            Error::NotNumeric(what) => write!(f, "non-numeric value in {what}"),
            Error::DivisionByZero => write!(f, "division by zero"),
            Error::BadAggregateIndex { index, count } => {
                write!(f, "aggregate index {index} out of range (query has {count})")
            }
            Error::TooManyCubeDimensions(d) => {
                write!(f, "{d} cube dimensions exceed the subset-enumeration limit")
            }
            Error::Parse { line: 0, message, .. } => write!(f, "parse error: {message}"),
            Error::Parse { line, col: 0, message, .. } => {
                write!(f, "parse error (line {line}): {message}")
            }
            Error::Parse { line, col, message, .. } => {
                write!(f, "parse error (line {line}, col {col}): {message}")
            }
        }
    }
}

impl std::error::Error for Error {}

/// Result alias for substrate operations.
pub type Result<T> = std::result::Result<T, Error>;
