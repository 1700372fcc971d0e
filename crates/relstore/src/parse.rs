//! Text formats: the schema DSL and the predicate language.
//!
//! Real deployments declare schemas and selections in configuration, not
//! Rust code. Each language has one grammar, in two layers (see
//! [`crate::text`]): a *syntax layer* that turns text into an unresolved
//! AST with spans plus every syntax [`Fault`], and a *lowering* that
//! resolves the AST into engine values plus every semantic [`Fault`].
//! The strict entry points ([`parse_schema`], [`parse_predicate`]) run
//! both and return the first fault; `exq check` renders all of them.
//!
//! ## Schema DSL ([`parse_schema`])
//!
//! ```text
//! # comments start with '#'
//! relation Author(id: str key, name: str, inst: str, dom: str)
//! relation Authored(id: str key, pubid: str key)
//! relation Publication(pubid: str key, year: int, venue: str)
//! fk Authored(id) -> Author
//! fk Authored(pubid) <-> Publication      # back-and-forth
//! ```
//!
//! Column types: `str`, `int`, `float`, `bool`, `any`. Columns marked
//! `key` form the primary key. `->` declares a standard foreign key,
//! `<->` a back-and-forth one; the referenced columns are always the
//! target's primary key.
//!
//! ## Predicate language ([`parse_predicate`])
//!
//! ```text
//! venue = 'SIGMOD' and dom = 'com' and year >= 2000 and year <= 2004
//! (city = 'Oxford' or inst = 'Semmle Ltd.') and not year < 2001
//! ```
//!
//! Comparison operators `= != <> < <= > >=`, boolean `and`/`or`/`not`
//! (case-insensitive), parentheses, string literals in single or double
//! quotes, integer/float/true/false/null literals. Attributes are
//! `Relation.attr` or a bare `attr` when unambiguous across the schema;
//! a literal must suit the attribute's type (`E008`).

use crate::error::Result;
use crate::predicate::{CmpOp, Predicate};
use crate::schema::{AttrRef, Attribute, DatabaseSchema, FkKind, RelationSchema, SchemaBuilder};
use crate::text::{content_lines, describe, first_error, suggest, Fault, Span, Tok, Tokens};
use crate::value::{Value, ValueType};

// ---------------------------------------------------------------------
// Schema DSL: syntax layer
// ---------------------------------------------------------------------

/// One `name: type [key]` column.
#[derive(Debug, Clone)]
pub struct ColDecl {
    /// Column name.
    pub name: String,
    /// Where the name appears.
    pub span: Span,
    /// Declared type; `None` when the type token was faulty (already
    /// reported; read as `any` downstream so one fault does not cascade).
    pub ty: Option<ValueType>,
    /// Member of the primary key?
    pub key: bool,
}

/// One `relation Name(…)` declaration.
#[derive(Debug, Clone)]
pub struct RelDecl {
    /// Relation name.
    pub name: String,
    /// Where the name appears.
    pub span: Span,
    /// The columns, in declaration order.
    pub columns: Vec<ColDecl>,
}

impl RelDecl {
    /// The columns, a repeated name counting only at its first
    /// declaration.
    pub fn unique_columns(&self) -> impl Iterator<Item = &ColDecl> {
        self.columns
            .iter()
            .enumerate()
            .filter(|(i, c)| !self.columns[..*i].iter().any(|p| p.name == c.name))
            .map(|(_, c)| c)
    }
}

/// One `fk From(cols) -> To` / `<->` declaration.
#[derive(Debug, Clone)]
pub struct FkDecl {
    /// Source relation name.
    pub from: String,
    /// Where the source name appears.
    pub from_span: Span,
    /// Source columns with their spans.
    pub cols: Vec<(String, Span)>,
    /// `<->` (back-and-forth) rather than `->`.
    pub back_and_forth: bool,
    /// Target relation name.
    pub to: String,
    /// Where the target name appears.
    pub to_span: Span,
}

/// A schema file's declarations, names unresolved.
#[derive(Debug, Default)]
pub struct SchemaAst {
    /// Every syntactically recognizable relation declaration.
    pub relations: Vec<RelDecl>,
    /// Every syntactically recognizable foreign key.
    pub fks: Vec<FkDecl>,
}

impl SchemaAst {
    /// Index of the relation named `name`; the first declaration wins.
    pub fn rel_index(&self, name: &str) -> Option<usize> {
        self.relations.iter().position(|r| r.name == name)
    }

    /// The relations as engine schemas: the first declaration of a
    /// relation or column name wins and a faulty type reads as `any`.
    /// Lowering builds the schema from these; `exq check` resolves
    /// questions against them even when the schema itself faults.
    pub fn relation_schemas(&self) -> Vec<RelationSchema> {
        self.relations
            .iter()
            .enumerate()
            .filter(|(i, r)| self.rel_index(&r.name) == Some(*i))
            .map(|(_, r)| {
                let cols: Vec<&ColDecl> = r.unique_columns().collect();
                RelationSchema {
                    name: r.name.clone(),
                    attributes: cols
                        .iter()
                        .map(|c| Attribute {
                            name: c.name.clone(),
                            ty: c.ty.unwrap_or(ValueType::Any),
                        })
                        .collect(),
                    primary_key: (0..cols.len()).filter(|&i| cols[i].key).collect(),
                }
            })
            .collect()
    }

    /// Union-find over the foreign keys whose two ends resolve, in
    /// declaration order: the root of every relation (by index in
    /// [`SchemaAst::relations`]) and the indices of the keys that close
    /// a cycle.
    pub fn fk_forest(&self) -> (Vec<usize>, Vec<usize>) {
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        let mut parent: Vec<usize> = (0..self.relations.len()).collect();
        let mut closing = Vec::new();
        for (i, fk) in self.fks.iter().enumerate() {
            let (Some(a), Some(b)) = (self.rel_index(&fk.from), self.rel_index(&fk.to)) else {
                continue;
            };
            let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
            if ra == rb {
                closing.push(i);
            } else {
                parent[ra] = rb;
            }
        }
        let roots = (0..parent.len()).map(|i| find(&mut parent, i)).collect();
        (roots, closing)
    }
}

/// The schema syntax layer: every declaration it can recognize, and an
/// `E010` fault for each syntax problem. A faulty line is skipped (a
/// faulty column only drops that column) and parsing resumes.
pub fn schema_syntax(text: &str) -> (SchemaAst, Vec<Fault>) {
    let mut ast = SchemaAst::default();
    let mut faults = Vec::new();
    for (line_no, raw, line) in content_lines(text) {
        if let Some(rest) = line.strip_prefix("relation ") {
            ast.relations
                .extend(relation_decl(raw, rest.trim(), line_no, &mut faults));
        } else if let Some(rest) = line.strip_prefix("fk ") {
            ast.fks
                .extend(fk_decl(raw, rest.trim(), line_no, &mut faults));
        } else {
            let word = line.split_whitespace().next().unwrap_or(line);
            faults.push(
                Fault::new(
                    "E010",
                    Span::of(line_no, raw, word),
                    format!("expected `relation` or `fk`, got `{word}`"),
                )
                .with_suggestion(suggest(word, ["relation", "fk"])),
            );
        }
    }
    (ast, faults)
}

/// `Name(col: type [key], …)`
fn relation_decl(raw: &str, rest: &str, line: usize, faults: &mut Vec<Fault>) -> Option<RelDecl> {
    let at = |sub: &str| Span::of(line, raw, sub);
    let Some(open) = rest.find('(') else {
        faults.push(Fault::new(
            "E010",
            at(rest),
            "expected `(` after relation name",
        ));
        return None;
    };
    let name = rest[..open].trim();
    if name.is_empty() {
        faults.push(Fault::new("E010", at(rest), "missing relation name"));
        return None;
    }
    let body = rest[open + 1..].strip_suffix(')').unwrap_or_else(|| {
        faults.push(
            Fault::new(
                "E010",
                Span::new(line, at(rest).col + rest.chars().count(), 1),
                "expected `)` at end of relation declaration",
            )
            .with_help("close the column list with `)`"),
        );
        &rest[open + 1..] // recover: analyze the columns that are there
    });
    let mut columns = Vec::new();
    for col_spec in body.split(',') {
        let col_spec = col_spec.trim();
        if col_spec.is_empty() {
            faults.push(Fault::new("E010", at(body), "empty column declaration"));
            continue;
        }
        let Some((col_name, col_rest)) = col_spec.split_once(':') else {
            faults.push(
                Fault::new(
                    "E010",
                    at(col_spec),
                    format!("expected `name: type` in `{col_spec}`"),
                )
                .with_help("declare columns as `name: str|int|float|bool|any [key]`"),
            );
            continue;
        };
        let col_name = col_name.trim();
        let mut parts = col_rest.split_whitespace();
        let ty = match parts.next() {
            Some("str") => Some(ValueType::Str),
            Some("int") => Some(ValueType::Int),
            Some("float") => Some(ValueType::Float),
            Some("bool") => Some(ValueType::Bool),
            Some("any") => Some(ValueType::Any),
            Some(other) => {
                faults.push(
                    Fault::new("E010", at(other), format!("unknown type `{other}`"))
                        .with_suggestion(suggest(other, ["str", "int", "float", "bool", "any"])),
                );
                None
            }
            None => {
                faults.push(Fault::new(
                    "E010",
                    at(col_spec),
                    format!("missing type in `{col_spec}`"),
                ));
                None
            }
        };
        let key = match parts.next() {
            None => false,
            Some("key") => true,
            Some(other) => {
                faults.push(
                    Fault::new(
                        "E010",
                        at(other),
                        format!("unexpected token `{other}` after type"),
                    )
                    .with_help("only `key` may follow the column type"),
                );
                false
            }
        };
        if let Some(extra) = parts.next() {
            faults.push(Fault::new(
                "E010",
                at(extra),
                format!("trailing tokens in `{col_spec}`"),
            ));
        }
        columns.push(ColDecl {
            name: col_name.to_string(),
            span: at(col_name),
            ty,
            key,
        });
    }
    Some(RelDecl {
        name: name.to_string(),
        span: at(name),
        columns,
    })
}

/// `From(col, …) -> To` or `From(col, …) <-> To`
fn fk_decl(raw: &str, rest: &str, line: usize, faults: &mut Vec<Fault>) -> Option<FkDecl> {
    let at = |sub: &str| Span::of(line, raw, sub);
    let (head, target, back_and_forth) = if let Some((h, t)) = rest.split_once("<->") {
        (h.trim(), t.trim(), true)
    } else if let Some((h, t)) = rest.split_once("->") {
        (h.trim(), t.trim(), false)
    } else {
        faults.push(
            Fault::new("E010", at(rest), "expected `->` or `<->` in foreign key")
                .with_help("declare foreign keys as `fk From(col, …) -> To` (or `<->`)"),
        );
        return None;
    };
    if target.is_empty() {
        faults.push(Fault::new(
            "E010",
            Span::new(line, at(rest).col + rest.chars().count(), 1),
            "missing foreign-key target relation",
        ));
        return None;
    }
    let Some(open) = head.find('(') else {
        faults.push(Fault::new(
            "E010",
            at(head),
            "expected `(columns)` after relation",
        ));
        return None;
    };
    let body = head[open + 1..].strip_suffix(')').unwrap_or_else(|| {
        faults.push(Fault::new(
            "E010",
            Span::new(line, at(head).col + head.chars().count(), 1),
            "expected `)` after foreign-key columns",
        ));
        &head[open + 1..]
    });
    let from = head[..open].trim();
    let cols: Vec<(String, Span)> = body
        .split(',')
        .map(str::trim)
        .filter(|c| !c.is_empty())
        .map(|c| (c.to_string(), at(c)))
        .collect();
    if from.is_empty() || cols.is_empty() {
        faults.push(Fault::new(
            "E010",
            at(head),
            "malformed foreign-key declaration",
        ));
        return None;
    }
    Some(FkDecl {
        from: from.to_string(),
        from_span: at(from),
        cols,
        back_and_forth,
        to: target.to_string(),
        to_span: at(target),
    })
}

// ---------------------------------------------------------------------
// Schema DSL: lowering
// ---------------------------------------------------------------------

/// Lower a schema AST: every semantic fault — duplicate names (`E003`,
/// `E004`), keyless relations (`E012`), foreign keys naming unknown
/// relations or columns (`E001`, `E002`), with the wrong arity (`E005`)
/// or column types (`E006`), or closing a cycle (`E007`) — or the
/// validated schema when there is none.
pub fn lower_schema(ast: &SchemaAst) -> std::result::Result<DatabaseSchema, Vec<Fault>> {
    let mut faults = Vec::new();
    for (i, rel) in ast.relations.iter().enumerate() {
        if ast.rel_index(&rel.name) != Some(i) {
            faults.push(
                Fault::new(
                    "E003",
                    rel.span,
                    format!("duplicate relation `{}`", rel.name),
                )
                .with_help("the first declaration wins; remove or rename this one"),
            );
        }
        for (j, col) in rel.columns.iter().enumerate() {
            if rel.columns[..j].iter().any(|c| c.name == col.name) {
                faults.push(Fault::new(
                    "E004",
                    col.span,
                    format!(
                        "duplicate attribute `{}` in relation `{}`",
                        col.name, rel.name
                    ),
                ));
            }
        }
        if !rel.columns.is_empty() && !rel.columns.iter().any(|c| c.key) {
            faults.push(
                Fault::new(
                    "E012",
                    rel.span,
                    format!("relation `{}` declares no key column", rel.name),
                )
                .with_help("mark the identifying columns with `key`, e.g. `id: str key`"),
            );
        }
    }
    let rel_names = || ast.relations.iter().map(|r| r.name.as_str());
    for fk in &ast.fks {
        let lookup = |name: &str, span: Span, faults: &mut Vec<Fault>| {
            let rel = ast.rel_index(name).map(|i| &ast.relations[i]);
            if rel.is_none() {
                faults.push(
                    Fault::new(
                        "E001",
                        span,
                        format!("unknown relation `{name}` in foreign key"),
                    )
                    .with_suggestion(suggest(name, rel_names())),
                );
            }
            rel
        };
        let from = lookup(&fk.from, fk.from_span, &mut faults);
        let to = lookup(&fk.to, fk.to_span, &mut faults);
        let mut col_types: Vec<Option<ValueType>> = Vec::new();
        if let Some(from) = from {
            for (col, span) in &fk.cols {
                let found = from.unique_columns().find(|c| c.name == *col);
                if found.is_none() {
                    faults.push(
                        Fault::new(
                            "E002",
                            *span,
                            format!("unknown attribute `{}.{col}` in foreign key", fk.from),
                        )
                        .with_suggestion(suggest(
                            col,
                            from.unique_columns().map(|c| c.name.as_str()),
                        )),
                    );
                }
                col_types.push(found.and_then(|c| c.ty));
            }
        }
        let Some(to) = to else { continue };
        let pk: Vec<&ColDecl> = to.unique_columns().filter(|c| c.key).collect();
        if fk.cols.len() != pk.len() {
            faults.push(
                Fault::new(
                    "E005",
                    fk.from_span,
                    format!(
                        "foreign key {} -> {} references {} column{} but the target's primary \
                         key has {}",
                        fk.from,
                        fk.to,
                        fk.cols.len(),
                        if fk.cols.len() == 1 { "" } else { "s" },
                        pk.len()
                    ),
                )
                .with_help("a foreign key must cover the target's full primary key, in order"),
            );
            continue;
        }
        for ((from_ty, (col, span)), key) in col_types.iter().zip(&fk.cols).zip(&pk) {
            let (Some(from_ty), Some(to_ty)) = (*from_ty, key.ty) else {
                continue; // a faulty declaration, already reported
            };
            if from_ty != to_ty && from_ty != ValueType::Any && to_ty != ValueType::Any {
                faults.push(
                    Fault::new(
                        "E006",
                        *span,
                        format!(
                            "foreign key {} -> {}: column `{col}` has type {from_ty} but target \
                             key `{}.{}` has type {to_ty}",
                            fk.from, fk.to, fk.to, key.name
                        ),
                    )
                    .with_help("align the column types on both sides of the key"),
                );
            }
        }
    }
    for i in ast.fk_forest().1 {
        let fk = &ast.fks[i];
        let (kind, arrow) = if fk.back_and_forth {
            ("back-and-forth foreign key", "<->")
        } else {
            ("foreign key", "->")
        };
        faults.push(
            Fault::new(
                "E007",
                fk.from_span,
                format!(
                    "{kind} {} {arrow} {} closes a cycle in the join graph",
                    fk.from, fk.to
                ),
            )
            .with_help(
                "the universal relation and the intervention fixpoint require an acyclic \
                 foreign-key forest; remove this key or restructure the schema",
            ),
        );
    }
    if !faults.is_empty() {
        return Err(faults);
    }
    let mut builder = SchemaBuilder::new();
    for r in ast.relation_schemas() {
        builder = builder.push_relation(r);
    }
    for fk in &ast.fks {
        let cols: Vec<&str> = fk.cols.iter().map(|(c, _)| c.as_str()).collect();
        builder = if fk.back_and_forth {
            builder.back_and_forth_fk(&fk.from, &cols, &fk.to)
        } else {
            builder.standard_fk(&fk.from, &cols, &fk.to)
        };
    }
    // The checks above cover every rule `build` enforces.
    builder
        .build()
        .map_err(|e| vec![Fault::new(e.code(), Span::file(), e.to_string())])
}

/// Parse the schema DSL into a validated [`DatabaseSchema`]: the syntax
/// layer, then lowering; the first fault is the error.
pub fn parse_schema(text: &str) -> Result<DatabaseSchema> {
    let (ast, faults) = schema_syntax(text);
    if !faults.is_empty() {
        return Err(first_error(faults));
    }
    lower_schema(&ast).map_err(first_error)
}

/// Render a schema in the DSL ([`parse_schema`] ∘ `schema_to_text` is the
/// identity up to whitespace) — the persistence format the CLI reads.
pub fn schema_to_text(schema: &DatabaseSchema) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for r in schema.relations() {
        let cols: Vec<String> = r
            .attributes
            .iter()
            .enumerate()
            .map(|(i, a)| {
                let key = if r.primary_key.contains(&i) {
                    " key"
                } else {
                    ""
                };
                format!("{}: {}{key}", a.name, a.ty)
            })
            .collect();
        let _ = writeln!(out, "relation {}({})", r.name, cols.join(", "));
    }
    for fk in schema.foreign_keys() {
        let from = schema.relation(fk.from_rel);
        let cols: Vec<&str> = fk
            .from_cols
            .iter()
            .map(|&c| from.attributes[c].name.as_str())
            .collect();
        let arrow = match fk.kind {
            FkKind::Standard => "->",
            FkKind::BackAndForth => "<->",
        };
        let _ = writeln!(
            out,
            "fk {}({}) {} {}",
            from.name,
            cols.join(", "),
            arrow,
            schema.relation(fk.to_rel).name
        );
    }
    out
}

// ---------------------------------------------------------------------
// Predicate language: syntax layer
// ---------------------------------------------------------------------

/// A predicate, attribute names unresolved.
#[derive(Debug, Clone, PartialEq)]
pub enum PredAst {
    /// `attr op literal`.
    Atom {
        /// Attribute text (`attr` or `Rel.attr`).
        attr: String,
        /// Where the attribute appears.
        attr_span: Span,
        /// Comparison operator.
        op: CmpOp,
        /// The literal.
        value: Value,
        /// Where the literal appears.
        value_span: Span,
    },
    /// Conjunction (two or more parts).
    And(Vec<PredAst>),
    /// Disjunction (two or more parts).
    Or(Vec<PredAst>),
    /// Negation.
    Not(Box<PredAst>),
    /// `true` / `false` (and the empty predicate, `true`).
    Const(bool),
}

impl PredAst {
    /// Visit every atom.
    pub fn for_each_atom<'a>(&'a self, f: &mut impl FnMut(&'a PredAst)) {
        match self {
            PredAst::Atom { .. } => f(self),
            PredAst::And(parts) | PredAst::Or(parts) => {
                parts.iter().for_each(|p| p.for_each_atom(f));
            }
            PredAst::Not(inner) => inner.for_each_atom(f),
            PredAst::Const(_) => {}
        }
    }
}

/// Words a predicate reserves (ASCII case-insensitive).
const PRED_KEYWORDS: [&str; 6] = ["and", "or", "not", "true", "false", "null"];

/// The predicate syntax layer over `text`, found on line `line` at
/// 0-based char offset `col0` of its source (so spans point into the
/// original file). Every syntax fault is `E011`; after one, parsing
/// resumes at the next `and`/`or` clause.
pub fn predicate_syntax(
    text: &str,
    line: usize,
    col0: usize,
) -> std::result::Result<PredAst, Vec<Fault>> {
    let tokens = Tokens::lex(text, line, col0).map_err(|f| vec![f])?;
    if tokens.is_empty() {
        return Ok(PredAst::Const(true));
    }
    tokens.parse_clauses(
        disjunction,
        |t| matches!(t, Tok::Word(w) if w.eq_ignore_ascii_case("and") || w.eq_ignore_ascii_case("or")),
        "trailing tokens after predicate",
    )
}

fn expected(what: &str, tok: Option<Tok>, span: Span) -> Fault {
    Fault::new(
        "E011",
        span,
        format!("expected {what}, got {}", describe(tok.as_ref())),
    )
}

/// `item (kw item)*`, two or more items wrapped by `join`.
fn joined(
    t: &mut Tokens,
    kw: &str,
    item: fn(&mut Tokens) -> std::result::Result<PredAst, Fault>,
    join: fn(Vec<PredAst>) -> PredAst,
) -> std::result::Result<PredAst, Fault> {
    let mut parts = vec![item(t)?];
    while t.peek_word(kw) {
        t.bump();
        parts.push(item(t)?);
    }
    Ok(if parts.len() == 1 {
        parts.pop().expect("non-empty")
    } else {
        join(parts)
    })
}

fn disjunction(t: &mut Tokens) -> std::result::Result<PredAst, Fault> {
    joined(t, "or", conjunction, PredAst::Or)
}

fn conjunction(t: &mut Tokens) -> std::result::Result<PredAst, Fault> {
    joined(t, "and", unary, PredAst::And)
}

fn unary(t: &mut Tokens) -> std::result::Result<PredAst, Fault> {
    if t.peek_word("not") {
        t.bump();
        return Ok(PredAst::Not(Box::new(unary(t)?)));
    }
    for (kw, b) in [("true", true), ("false", false)] {
        if t.peek_word(kw) {
            t.bump();
            return Ok(PredAst::Const(b));
        }
    }
    if t.peek() != Some(&Tok::LParen) {
        return comparison(t);
    }
    t.bump();
    let inner = disjunction(t)?;
    match t.bump() {
        (Some(Tok::RParen), _) => Ok(inner),
        (other, span) => Err(expected("`)`", other, span)),
    }
}

fn comparison(t: &mut Tokens) -> std::result::Result<PredAst, Fault> {
    let attr = match t.bump() {
        (Some(Tok::Word(w)), span) if !PRED_KEYWORDS.iter().any(|k| w.eq_ignore_ascii_case(k)) => {
            (w, span)
        }
        (other, span) => return Err(expected("attribute", other, span)),
    };
    let op = match t.bump() {
        (Some(Tok::Op(op)), _) => op,
        (other, span) => return Err(expected("comparison operator", other, span)),
    };
    let (value, value_span) = match t.bump() {
        (Some(Tok::Str(s)), span) => (Value::str(s), span),
        (Some(Tok::Num(n)), span) => (number(&n, span)?, span),
        // A `-` directly before a number is its sign.
        (Some(Tok::Minus), minus) if t.here().col == minus.col + 1 => match t.bump() {
            (Some(Tok::Num(n)), span) => {
                let span = Span::new(span.line, minus.col, span.len + 1);
                (number(&format!("-{n}"), span)?, span)
            }
            (other, span) => return Err(expected("literal", other, span)),
        },
        (Some(Tok::Word(w)), span) if w.eq_ignore_ascii_case("true") => (Value::Bool(true), span),
        (Some(Tok::Word(w)), span) if w.eq_ignore_ascii_case("false") => (Value::Bool(false), span),
        (Some(Tok::Word(w)), span) if w.eq_ignore_ascii_case("null") => (Value::Null, span),
        (other, span) => return Err(expected("literal", other, span)),
    };
    Ok(PredAst::Atom {
        attr: attr.0,
        attr_span: attr.1,
        op,
        value,
        value_span,
    })
}

/// A numeric literal: a float when it has a `.`, else an integer.
fn number(text: &str, span: Span) -> std::result::Result<Value, Fault> {
    let value = if text.contains('.') {
        text.parse().map(Value::Float).ok()
    } else {
        text.parse().map(Value::Int).ok()
    };
    value.ok_or_else(|| Fault::new("E011", span, format!("bad number `{text}`")))
}

// ---------------------------------------------------------------------
// Predicate language: lowering
// ---------------------------------------------------------------------

/// The one attribute resolver: `Relation.attr`, or a bare `attr` that is
/// unique across `relations`, to its reference and declared type.
/// Faults: unknown relation (`E001`), unknown attribute (`E002`),
/// ambiguous bare name (`E013`).
pub fn lower_attr(
    relations: &[RelationSchema],
    name: &str,
    span: Span,
) -> std::result::Result<(AttrRef, ValueType), Fault> {
    let typed = |a: AttrRef| (a, relations[a.rel].attributes[a.col].ty);
    if let Some((rel_name, col_name)) = name.split_once('.') {
        let Some(rel) = relations.iter().position(|r| r.name == rel_name) else {
            let s = suggest(rel_name, relations.iter().map(|r| r.name.as_str()));
            return Err(
                Fault::new("E001", span, format!("unknown relation `{rel_name}`"))
                    .with_suggestion(s.map(|s| format!("{s}.{col_name}"))),
            );
        };
        let r = &relations[rel];
        return match r.attr_index(col_name) {
            Some(col) => Ok(typed(AttrRef { rel, col })),
            None => {
                let s = suggest(col_name, r.attributes.iter().map(|a| a.name.as_str()));
                Err(Fault::new(
                    "E002",
                    span,
                    format!("unknown attribute `{rel_name}.{col_name}`"),
                )
                .with_suggestion(s.map(|s| format!("{rel_name}.{s}"))))
            }
        };
    }
    let mut matches = relations
        .iter()
        .enumerate()
        .filter_map(|(rel, r)| r.attr_index(name).map(|col| AttrRef { rel, col }));
    match (matches.next(), matches.next()) {
        (Some(a), None) => Ok(typed(a)),
        (None, _) => {
            let all = relations
                .iter()
                .flat_map(|r| r.attributes.iter().map(|a| a.name.as_str()));
            Err(
                Fault::new("E002", span, format!("unknown attribute `{name}`"))
                    .with_suggestion(suggest(name, all)),
            )
        }
        (Some(first), Some(_)) => {
            let rels: Vec<&str> = relations
                .iter()
                .filter(|r| r.attr_index(name).is_some())
                .map(|r| r.name.as_str())
                .collect();
            Err(Fault::new(
                "E013",
                span,
                format!(
                    "attribute `{name}` is ambiguous (declared in {})",
                    rels.join(", ")
                ),
            )
            .with_help(format!(
                "qualify it, e.g. `{}.{name}`",
                relations[first.rel].name
            )))
        }
    }
}

/// Resolve an attribute name: `Relation.attr` or a bare `attr` that is
/// unique across the schema (see [`lower_attr`]).
pub fn resolve_attr(schema: &DatabaseSchema, name: &str) -> Result<AttrRef> {
    lower_attr(schema.relations(), name, Span::file())
        .map(|(a, _)| a)
        .map_err(Fault::into_error)
}

/// Lower a predicate AST against `relations`, pushing every fault:
/// unresolvable attributes and ill-typed comparisons (`E008` — a literal
/// must be null, or suit the attribute's type, ints and floats being
/// interchangeable). The result is meaningful only when no fault was
/// pushed.
pub fn lower_predicate(
    relations: &[RelationSchema],
    ast: &PredAst,
    faults: &mut Vec<Fault>,
) -> Predicate {
    let mut all = |parts: &[PredAst]| -> Vec<Predicate> {
        parts
            .iter()
            .map(|p| lower_predicate(relations, p, faults))
            .collect()
    };
    match ast {
        PredAst::Const(true) => Predicate::True,
        PredAst::Const(false) => Predicate::False,
        PredAst::And(parts) => Predicate::And(all(parts)),
        PredAst::Or(parts) => Predicate::Or(all(parts)),
        PredAst::Not(inner) => Predicate::not(lower_predicate(relations, inner, faults)),
        PredAst::Atom {
            attr,
            attr_span,
            op,
            value,
            value_span,
        } => match lower_attr(relations, attr, *attr_span) {
            Ok((a, ty)) => {
                let comparable =
                    ty.admits(value) || (ty == ValueType::Int && matches!(value, Value::Float(_)));
                if !comparable {
                    faults.push(type_mismatch(attr, ty, value, *value_span));
                }
                Predicate::cmp(a, *op, value.clone())
            }
            Err(f) => {
                faults.push(f);
                Predicate::True
            }
        },
    }
}

fn type_mismatch(attr: &str, ty: ValueType, value: &Value, span: Span) -> Fault {
    let kind = match value {
        Value::Str(_) => "a string",
        Value::Int(_) => "an integer",
        Value::Float(_) => "a float",
        Value::Bool(_) => "a boolean",
        Value::Null => "a null",
    };
    let fault = Fault::new(
        "E008",
        span,
        format!(
            "type mismatch: attribute `{attr}` has type {ty} but is compared to {kind} literal"
        ),
    );
    match (ty, value) {
        (ValueType::Str, Value::Int(_) | Value::Float(_)) => {
            fault.with_help(format!("quote the value: `'{value}'`"))
        }
        (ValueType::Int | ValueType::Float, Value::Str(s)) if s.parse::<f64>().is_ok() => {
            fault.with_help(format!("remove the quotes: `{s}`"))
        }
        _ => fault,
    }
}

/// Render a predicate as text the predicate language parses back
/// ([`parse_predicate`] ∘ `predicate_to_text` is semantics-preserving).
/// Attributes are fully qualified; strings are single-quoted with `''`
/// escaping. Non-finite floats have no literal syntax and render as
/// `null` comparisons (they match nothing under two-valued semantics, so
/// semantics are preserved).
pub fn predicate_to_text(schema: &DatabaseSchema, pred: &Predicate) -> String {
    fn value_text(v: &Value) -> String {
        match v {
            Value::Null => "null".to_string(),
            Value::Bool(b) => b.to_string(),
            Value::Int(i) => i.to_string(),
            // `Display` for f64 never uses scientific notation and prints
            // enough digits to round-trip; integral floats print as
            // integers, which re-parse as `Int` — equal under `Value`'s
            // numeric ordering.
            Value::Float(f) if f.is_finite() => f.to_string(),
            Value::Float(_) => "null".to_string(),
            Value::Str(s) => format!("'{}'", s.replace('\'', "''")),
        }
    }
    fn go(schema: &DatabaseSchema, p: &Predicate) -> String {
        match p {
            Predicate::True => "true".to_string(),
            Predicate::False => "false".to_string(),
            Predicate::Atom(a) => {
                format!(
                    "{} {} {}",
                    schema.attr_name(a.attr),
                    a.op,
                    value_text(&a.value)
                )
            }
            Predicate::And(parts) if parts.is_empty() => "true".to_string(),
            Predicate::And(parts) => {
                let inner: Vec<String> = parts.iter().map(|q| go(schema, q)).collect();
                format!("({})", inner.join(" and "))
            }
            Predicate::Or(parts) if parts.is_empty() => "false".to_string(),
            Predicate::Or(parts) => {
                let inner: Vec<String> = parts.iter().map(|q| go(schema, q)).collect();
                format!("({})", inner.join(" or "))
            }
            Predicate::Not(inner) => format!("not ({})", go(schema, inner)),
        }
    }
    go(schema, pred)
}

/// Parse a predicate expression against a schema.
pub fn parse_predicate(schema: &DatabaseSchema, text: &str) -> Result<Predicate> {
    parse_predicate_at(schema, text, 1, 0)
}

/// [`parse_predicate`] for predicate text embedded in a larger source:
/// errors report `line` and columns offset by `col0` (the 0-based char
/// offset of `text` within its source line).
pub fn parse_predicate_at(
    schema: &DatabaseSchema,
    text: &str,
    line: usize,
    col0: usize,
) -> Result<Predicate> {
    let ast = predicate_syntax(text, line, col0).map_err(first_error)?;
    let mut faults = Vec::new();
    let pred = lower_predicate(schema.relations(), &ast, &mut faults);
    if !faults.is_empty() {
        return Err(first_error(faults));
    }
    Ok(pred)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;
    use crate::join::Universal;
    use crate::text::strip_comment;

    const SCHEMA_TEXT: &str = "
# the running example
relation Author(id: str key, name: str, inst: str, dom: str)
relation Authored(id: str key, pubid: str key)
relation Publication(pubid: str key, year: int, venue: str)
fk Authored(id) -> Author
fk Authored(pubid) <-> Publication   # every author is necessary
";

    #[test]
    fn parses_running_example_schema() {
        let schema = parse_schema(SCHEMA_TEXT).unwrap();
        assert_eq!(schema.relation_count(), 3);
        assert!(schema.has_back_and_forth());
        assert_eq!(schema.attr("Author", "name").unwrap().rel, 0);
        let fk = &schema.foreign_keys()[1];
        assert_eq!(fk.kind, crate::schema::FkKind::BackAndForth);
    }

    #[test]
    fn composite_key_and_all_types() {
        let schema =
            parse_schema("relation T(a: int key, b: str key, c: float, d: bool, e: any)").unwrap();
        assert_eq!(schema.relation(0).primary_key, vec![0, 1]);
        assert_eq!(schema.relation(0).attributes[2].ty, ValueType::Float);
        assert_eq!(schema.relation(0).attributes[4].ty, ValueType::Any);
    }

    #[test]
    fn schema_errors() {
        for (text, fragment) in [
            ("relation X(a: int)", "no key column"),
            ("relation X(a int key)", "expected `name: type`"),
            ("relation X(a: blob key)", "unknown type"),
            ("wibble X", "expected `relation` or `fk`"),
            ("fk A(x) => B", "expected `->` or `<->`"),
            ("relation X(a: int key extra)", "trailing tokens"),
            ("relation X(a: int bogus)", "unexpected token"),
            ("relation X a: int", "expected `(`"),
        ] {
            let err = parse_schema(text).unwrap_err();
            let msg = err.to_string();
            assert!(
                msg.contains(fragment),
                "`{text}` → `{msg}` (wanted `{fragment}`)"
            );
        }
    }

    fn codes(faults: &[Fault]) -> Vec<&'static str> {
        faults.iter().map(|f| f.code).collect()
    }

    #[test]
    fn schema_recovers_past_errors() {
        let text = "relation A(id: blob key)\nwibble\nrelation B(id: int key)\nfk A(id) => B\n";
        let (ast, faults) = schema_syntax(text);
        // Both relations survive despite the bad type and the bad line.
        assert_eq!(ast.relations.len(), 2);
        assert_eq!(ast.fks.len(), 0);
        assert_eq!(codes(&faults), ["E010", "E010", "E010"]);
        // The unknown type has no type but keeps its name.
        assert_eq!(ast.relations[0].columns[0].ty, None);
        assert!(ast.relations[0].columns[0].key);
    }

    #[test]
    fn schema_spans_point_at_fragments() {
        let text = "relation A(id: blob key)";
        let (_, faults) = schema_syntax(text);
        assert_eq!(faults.len(), 1);
        let col = text.find("blob").unwrap() + 1;
        assert_eq!(faults[0].span, Span::new(1, col, 4));
        // The strict entry point reports the same fault.
        let err = parse_schema(text).unwrap_err();
        assert_eq!((err.code(), err.position()), ("E010", Some((1, col))));
    }

    #[test]
    fn schema_faults_carry_their_own_codes() {
        for (text, code) in [
            ("relation X(a: int)", "E012"),
            ("relation X(a: int key)\nrelation X(b: int key)", "E003"),
            ("relation X(a: int key, a: str)", "E004"),
            ("relation X(a: int key)\nfk X(a) -> Y", "E001"),
            (
                "relation X(a: int key)\nrelation Y(b: int key)\nfk X(z) -> Y",
                "E002",
            ),
            (
                "relation X(a: int key, b: int key)\nrelation Y(c: int key)\nfk Y(c) -> X",
                "E005",
            ),
            (
                "relation X(a: int key)\nrelation Y(c: str key)\nfk Y(c) -> X",
                "E006",
            ),
            ("relation X(a: int key)\nfk X(a) -> X", "E007"),
        ] {
            assert_eq!(parse_schema(text).unwrap_err().code(), code, "`{text}`");
        }
    }

    #[test]
    fn comments_and_quotes() {
        assert_eq!(strip_comment("abc # def"), "abc ");
        assert_eq!(strip_comment("a '#' b # c"), "a '#' b ");
        assert_eq!(strip_comment("no comment"), "no comment");
    }

    fn sample_db() -> Database {
        let schema = parse_schema(SCHEMA_TEXT).unwrap();
        let mut db = Database::new(schema);
        db.insert(
            "Author",
            vec!["A1".into(), "JG".into(), "C.edu".into(), "edu".into()],
        )
        .unwrap();
        db.insert("Authored", vec!["A1".into(), "P1".into()])
            .unwrap();
        db.insert(
            "Publication",
            vec!["P1".into(), 2001.into(), "SIGMOD".into()],
        )
        .unwrap();
        db.validate().unwrap();
        db
    }

    #[test]
    fn parses_and_evaluates_predicates() {
        let db = sample_db();
        let u = Universal::compute(&db, &db.full_view());
        let t = u.tuple(0);
        for (text, expected) in [
            ("venue = 'SIGMOD'", true),
            ("venue = 'PODS'", false),
            ("year >= 2000 and year <= 2004", true),
            ("year < 2000 or dom = 'edu'", true),
            ("not (dom = 'com')", true),
            ("Publication.year <> 2001", false),
            ("true", true),
            ("false or venue != 'VLDB'", true),
            ("name = \"JG\"", true),
        ] {
            let p = parse_predicate(db.schema(), text).unwrap();
            assert_eq!(p.eval(&db, t), expected, "`{text}`");
        }
    }

    #[test]
    fn empty_predicate_is_true() {
        let db = sample_db();
        assert_eq!(
            parse_predicate(db.schema(), "   ").unwrap(),
            Predicate::True
        );
    }

    #[test]
    fn bare_names_resolve_when_unambiguous() {
        let db = sample_db();
        // `venue` appears once → ok; `id` appears in Author and Authored →
        // ambiguous; `pubid` appears twice → ambiguous.
        assert!(parse_predicate(db.schema(), "venue = 'x'").is_ok());
        let err = parse_predicate(db.schema(), "id = 'A1'").unwrap_err();
        assert!(err.to_string().contains("ambiguous"));
        assert!(parse_predicate(db.schema(), "Authored.id = 'A1'").is_ok());
        assert!(parse_predicate(db.schema(), "zzz = 1").is_err());
    }

    #[test]
    fn literal_kinds() {
        let db = sample_db();
        let schema = db.schema();
        assert!(parse_predicate(schema, "year = 2001").is_ok());
        assert!(parse_predicate(schema, "year >= -5").is_ok());
        assert!(parse_predicate(schema, "year < 2001.5").is_ok());
        assert!(parse_predicate(schema, "venue = null").is_ok());
        assert!(parse_predicate(schema, "name = 'O''Neil'").is_ok());
    }

    #[test]
    fn predicate_errors() {
        let db = sample_db();
        let schema = db.schema();
        for text in [
            "venue =",
            "= 'x'",
            "(venue = 'x'",
            "venue = 'x' extra",
            "venue = 'unterminated",
            "venue @ 'x'",
            "venue 'x'",
        ] {
            assert!(
                parse_predicate(schema, text).is_err(),
                "`{text}` should fail"
            );
        }
    }

    #[test]
    fn schema_round_trips_through_text() {
        let original = parse_schema(SCHEMA_TEXT).unwrap();
        let text = schema_to_text(&original);
        let back = parse_schema(&text).unwrap();
        assert_eq!(original, back);
        // Idempotent rendering.
        assert_eq!(text, schema_to_text(&back));
        // All five types and composite keys survive.
        let s =
            parse_schema("relation T(a: int key, b: str key, c: float, d: bool, e: any)").unwrap();
        assert_eq!(parse_schema(&schema_to_text(&s)).unwrap(), s);
    }

    #[test]
    fn predicate_round_trips_through_text() {
        let db = sample_db();
        let schema = db.schema();
        let u = crate::join::Universal::compute(&db, &db.full_view());
        let year = schema.attr("Publication", "year").unwrap();
        let venue = schema.attr("Publication", "venue").unwrap();
        let dom = schema.attr("Author", "dom").unwrap();
        let preds = [
            Predicate::True,
            Predicate::False,
            Predicate::eq(venue, "SIG'MOD"),
            Predicate::between(year, 2000, 2004),
            Predicate::and([]),
            Predicate::or([]),
            Predicate::or([Predicate::eq(dom, "edu"), Predicate::eq(dom, "com")]),
            Predicate::not(Predicate::and([
                Predicate::eq(venue, "VLDB"),
                Predicate::cmp(year, CmpOp::Ne, 1999),
            ])),
            Predicate::cmp(year, CmpOp::Lt, 2001.5),
            Predicate::eq(venue, Value::Null),
        ];
        for p in preds {
            let text = predicate_to_text(schema, &p);
            let back = parse_predicate(schema, &text)
                .unwrap_or_else(|e| panic!("`{text}` failed to re-parse: {e}"));
            for t in u.iter() {
                assert_eq!(
                    p.eval(&db, t),
                    back.eval(&db, t),
                    "semantics changed via `{text}`"
                );
            }
        }
    }

    fn pred_syntax(text: &str) -> std::result::Result<PredAst, Vec<Fault>> {
        predicate_syntax(text, 3, 10)
    }

    #[test]
    fn parses_conjunctions() {
        let Ok(PredAst::And(parts)) = pred_syntax("venue = 'SIGMOD' and year >= 2000") else {
            panic!("expected And")
        };
        assert_eq!(parts.len(), 2);
        let PredAst::Atom { attr, value, .. } = &parts[0] else {
            panic!("expected Atom")
        };
        assert_eq!(attr, "venue");
        assert_eq!(*value, Value::str("SIGMOD"));
    }

    #[test]
    fn spans_are_offset() {
        let Ok(PredAst::Atom {
            attr_span,
            value_span,
            ..
        }) = pred_syntax("year >= -2000")
        else {
            panic!("expected Atom")
        };
        assert_eq!(attr_span, Span::new(3, 11, 4)); // col0 10 + col 1
        assert_eq!(value_span, Span::new(3, 19, 5));
    }

    #[test]
    fn syntax_faults_are_reported_not_fatal() {
        for text in [
            "venue =",
            "= 'x'",
            "(a = 1",
            "a = 1 extra",
            "'open",
            "a = 1.2.3",
        ] {
            let faults = pred_syntax(text).unwrap_err();
            assert_eq!(codes(&faults), ["E011"], "`{text}`");
            assert!(
                faults[0].span.col > 10,
                "`{text}` col {}",
                faults[0].span.col
            );
        }
        // Parsing resumes at the next clause: one fault per bad clause.
        let faults = pred_syntax("a = = 1 and b = 2 and c 3 or d = 4").unwrap_err();
        assert_eq!(codes(&faults), ["E011", "E011"]);
        assert!(
            faults[1].message.contains("got `3`"),
            "{}",
            faults[1].message
        );
    }

    #[test]
    fn empty_is_true() {
        assert_eq!(pred_syntax("   "), Ok(PredAst::Const(true)));
    }

    #[test]
    fn atom_visitor_reaches_nested() {
        let ast = pred_syntax("not (a = 1 or (b = 2 and c = 3))").unwrap();
        let mut n = 0;
        ast.for_each_atom(&mut |_| n += 1);
        assert_eq!(n, 3);
    }

    #[test]
    fn ill_typed_comparisons_are_rejected() {
        let db = sample_db();
        let schema = db.schema();
        for text in ["year = 'x'", "venue = 2004", "year = true", "venue < 1.5"] {
            let err = parse_predicate(schema, text).unwrap_err();
            assert_eq!(err.code(), "E008", "`{text}`: {err}");
        }
        for text in ["year = 2001.5", "venue = null", "year != -3"] {
            assert!(parse_predicate(schema, text).is_ok(), "`{text}`");
        }
    }

    #[test]
    fn resolution_faults_are_located() {
        let db = sample_db();
        for (text, code, col) in [
            ("year = 1 and zzz = 1", "E002", 14),
            ("Pub.year = 1", "E001", 1),
            ("id = 'A1'", "E013", 1),
        ] {
            let err = parse_predicate(db.schema(), text).unwrap_err();
            assert_eq!(
                (err.code(), err.position()),
                (code, Some((1, col))),
                "{err}"
            );
        }
    }

    #[test]
    fn operator_spellings() {
        let db = sample_db();
        let schema = db.schema();
        let a = parse_predicate(schema, "year != 2000").unwrap();
        let b = parse_predicate(schema, "year <> 2000").unwrap();
        assert_eq!(a, b);
    }
}
