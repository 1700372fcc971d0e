//! The checker's passes over the engine's ASTs.
//!
//! Every error comes from the engine's own grammar — the syntax layers
//! and lowerings of `exq_relstore::parse` and `exq_core::qparse` — so
//! `exq check` rejects exactly what the engine rejects, at the same
//! position and with the same code. The passes here add what only a
//! checker reports, the warnings the engine does not enforce:
//! Proposition 3.11's one-back-and-forth-key bound (`W001`), join-graph
//! connectivity (`W002`: a disconnected schema makes the universal
//! relation a cross product), unsatisfiable constant ranges (`W003`),
//! division without smoothing (`W004`), and the cube dimensionality
//! budget (`W005`). None of them aborts, so one run reports everything.

use crate::diag::{Diagnostic, Span};
use exq_core::qparse::{self, ExprAst, QuestionAst};
use exq_relstore::parse::{self, PredAst, SchemaAst};
use exq_relstore::schema::RelationSchema;
use exq_relstore::text::Fault;
use exq_relstore::{CmpOp, Value};

fn errors(file: &str, faults: impl IntoIterator<Item = Fault>, diags: &mut Vec<Diagnostic>) {
    diags.extend(faults.into_iter().map(|f| Diagnostic::from_fault(file, f)));
}

// ---------------------------------------------------------------------
// Schema passes
// ---------------------------------------------------------------------

/// Check a schema file: the engine's faults, then the graph and budget
/// warnings. Returns the relations to check questions against — the
/// schema's own when it is valid, a best effort when it faults (see
/// [`SchemaAst::relation_schemas`]).
pub fn check_schema(file: &str, text: &str, diags: &mut Vec<Diagnostic>) -> Vec<RelationSchema> {
    let (ast, faults) = parse::schema_syntax(text);
    errors(file, faults, diags);
    if let Err(faults) = parse::lower_schema(&ast) {
        errors(file, faults, diags);
    }
    graph_warnings(file, &ast, diags);
    let relations = ast.relation_schemas();
    cube_budget(file, &relations, diags);
    relations
}

/// Proposition 3.11's back-and-forth bound and join-graph connectivity.
fn graph_warnings(file: &str, ast: &SchemaAst, diags: &mut Vec<Diagnostic>) {
    let mut bf_counts = vec![0usize; ast.relations.len()];
    for fk in ast.fks.iter().filter(|fk| fk.back_and_forth) {
        let (Some(from), Some(_)) = (ast.rel_index(&fk.from), ast.rel_index(&fk.to)) else {
            continue;
        };
        bf_counts[from] += 1;
        if bf_counts[from] == 2 {
            diags.push(
                Diagnostic::warning(
                    "W001",
                    file,
                    fk.from_span,
                    format!(
                        "relation `{}` carries more than one back-and-forth foreign key",
                        fk.from
                    ),
                )
                .with_help(
                    "Proposition 3.11 guarantees single-pass fixpoint evaluation only with \
                     at most one back-and-forth key per relation; the intervention program \
                     may need recursive evaluation",
                ),
            );
        }
    }
    // One warning per join-graph component beyond the first.
    let (roots, _) = ast.fk_forest();
    let mut seen: Vec<usize> = Vec::new();
    for (i, rel) in ast.relations.iter().enumerate() {
        let root = roots[ast.rel_index(&rel.name).unwrap_or(i)];
        if seen.contains(&root) {
            continue;
        }
        seen.push(root);
        if seen.len() >= 2 {
            diags.push(
                Diagnostic::warning(
                    "W002",
                    file,
                    rel.span,
                    format!(
                        "relation `{}` is not connected to `{}` by any foreign key",
                        rel.name, ast.relations[0].name
                    ),
                )
                .with_help(
                    "the universal relation over a disconnected schema is a cross product; \
                     add a foreign key joining the components",
                ),
            );
        }
    }
}

fn cube_budget(file: &str, relations: &[RelationSchema], diags: &mut Vec<Diagnostic>) {
    let dims: usize = relations
        .iter()
        .map(|r| r.attributes.len().saturating_sub(r.primary_key.len()))
        .sum();
    let budget = exq_relstore::cube::MAX_CUBE_DIMS;
    if dims > budget {
        diags.push(
            Diagnostic::warning(
                "W005",
                file,
                Span::file(),
                format!(
                    "schema exposes {dims} non-key attributes as candidate cube dimensions, \
                     over the subset-enumeration budget of {budget}"
                ),
            )
            .with_help(
                "restrict candidate attributes with `--attrs Rel.a,Rel.b` when explaining; \
                 a cube over every attribute will be rejected at run time",
            ),
        );
    }
}

// ---------------------------------------------------------------------
// Question passes
// ---------------------------------------------------------------------

/// Check a question file against `relations`: the engine's faults, then
/// the range and smoothing warnings. With no schema (`None`) names are
/// not resolved, so their faults (`E001`, `E002`, `E013`) are dropped.
pub fn check_question(
    file: &str,
    text: &str,
    relations: Option<&[RelationSchema]>,
    diags: &mut Vec<Diagnostic>,
) {
    let (ast, faults) = qparse::question_syntax(text);
    errors(file, faults, diags);
    if let Err(faults) = qparse::lower_question(relations.unwrap_or_default(), &ast) {
        let resolved =
            |f: &Fault| relations.is_some() || !matches!(f.code, "E001" | "E002" | "E013");
        errors(file, faults.into_iter().filter(resolved), diags);
    }
    for pred in ast.aggs.iter().filter_map(|a| a.selection.as_ref()) {
        unsatisfiable_ranges(file, pred, diags);
    }
    unsmoothed_division(file, &ast, diags);
}

/// Detect conjunctions whose constant constraints on one attribute can
/// never hold, e.g. `year >= 2007 and year <= 2004` (W003).
fn unsatisfiable_ranges(file: &str, pred: &PredAst, diags: &mut Vec<Diagnostic>) {
    match pred {
        PredAst::And(parts) => {
            check_conjunction(file, parts, diags);
            for p in parts {
                unsatisfiable_ranges(file, p, diags);
            }
        }
        PredAst::Or(parts) => {
            for p in parts {
                unsatisfiable_ranges(file, p, diags);
            }
        }
        PredAst::Not(inner) => unsatisfiable_ranges(file, inner, diags),
        _ => {}
    }
}

fn check_conjunction(file: &str, parts: &[PredAst], diags: &mut Vec<Diagnostic>) {
    #[derive(Default)]
    struct Bounds {
        lo: Option<(f64, bool)>, // (bound, strict)
        hi: Option<(f64, bool)>,
        eq: Option<Value>,
        reported: bool,
    }
    let mut by_attr: Vec<(&str, Bounds)> = Vec::new();
    for part in parts {
        let PredAst::Atom {
            attr,
            op,
            value,
            value_span,
            ..
        } = part
        else {
            continue;
        };
        let idx = match by_attr.iter().position(|(a, _)| a == attr) {
            Some(i) => i,
            None => {
                by_attr.push((attr, Bounds::default()));
                by_attr.len() - 1
            }
        };
        let b = &mut by_attr[idx].1;
        if b.reported {
            continue;
        }
        let mut conflict = false;
        match (op, value.as_f64()) {
            (CmpOp::Eq, _) => {
                if let Some(prev) = &b.eq {
                    conflict = prev != value;
                } else {
                    b.eq = Some(value.clone());
                }
            }
            (CmpOp::Ge, Some(v)) if b.lo.is_none_or(|(lo, _)| v > lo) => {
                b.lo = Some((v, false));
            }
            (CmpOp::Gt, Some(v))
                if b.lo
                    .is_none_or(|(lo, strict)| v > lo || (v == lo && !strict)) =>
            {
                b.lo = Some((v, true));
            }
            (CmpOp::Le, Some(v)) if b.hi.is_none_or(|(hi, _)| v < hi) => {
                b.hi = Some((v, false));
            }
            (CmpOp::Lt, Some(v))
                if b.hi
                    .is_none_or(|(hi, strict)| v < hi || (v == hi && !strict)) =>
            {
                b.hi = Some((v, true));
            }
            _ => {}
        }
        if let (Some((lo, lo_strict)), Some((hi, hi_strict))) = (b.lo, b.hi) {
            conflict |= lo > hi || (lo == hi && (lo_strict || hi_strict));
        }
        if let Some(v) = b.eq.as_ref().and_then(Value::as_f64) {
            conflict |=
                b.lo.is_some_and(|(lo, strict)| v < lo || (v == lo && strict))
                    || b.hi
                        .is_some_and(|(hi, strict)| v > hi || (v == hi && strict));
        }
        if conflict {
            b.reported = true;
            diags.push(
                Diagnostic::warning(
                    "W003",
                    file,
                    *value_span,
                    format!(
                        "constraints on `{attr}` in this conjunction are unsatisfiable — the \
                         aggregate is constantly empty"
                    ),
                )
                .with_help("check the constant bounds; this predicate selects no tuples"),
            );
        }
    }
}

/// `W004`: an `expr` that divides, in a question without smoothing.
fn unsmoothed_division(file: &str, ast: &QuestionAst, diags: &mut Vec<Diagnostic>) {
    /// The leftmost `/` in source order.
    fn first_division(e: &ExprAst) -> Option<Span> {
        match e {
            ExprAst::Bin(op, span, a, b) => first_division(a)
                .or((*op == '/').then_some(*span))
                .or_else(|| first_division(b)),
            ExprAst::Neg(x) | ExprAst::Log(x) | ExprAst::Exp(x) => first_division(x),
            ExprAst::Num(_) | ExprAst::Name(..) => None,
        }
    }
    let Some(Some(expr)) = &ast.expr else { return };
    if ast.smoothing.is_some_and(|v| v > 0.0) {
        return;
    }
    if let Some(span) = first_division(expr) {
        diags.push(
            Diagnostic::warning(
                "W004",
                file,
                span,
                "expr divides but the question declares no smoothing constant",
            )
            .with_help(
                "an intervention can empty a denominator; add e.g. `smoothing 0.0001` \
                 (the paper's +epsilon in Section 5)",
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_schema_only(schema: &str) -> Vec<Diagnostic> {
        let mut diags = Vec::new();
        check_schema("s.exq", schema, &mut diags);
        diags
    }

    fn check_all(schema: &str, question: &str) -> Vec<Diagnostic> {
        let mut diags = Vec::new();
        let relations = check_schema("s.exq", schema, &mut diags);
        check_question("q.exq", question, Some(&relations), &mut diags);
        diags
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&str> {
        diags.iter().map(|d| d.code).collect()
    }

    const GOOD_SCHEMA: &str = "\
relation Author(id: str key, name: str, dom: str)
relation Authored(id: str key, pubid: str key)
relation Publication(pubid: str key, year: int, venue: str)
fk Authored(id) -> Author
fk Authored(pubid) <-> Publication
";

    #[test]
    fn clean_inputs_are_clean() {
        let diags = check_all(
            GOOD_SCHEMA,
            "agg a = count(*) where venue = 'SIGMOD' and year >= 2000\n\
             agg b = count(*) where dom = 'edu'\n\
             expr a / b\ndir high\nsmoothing 0.0001\n",
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn unknown_and_ambiguous_attributes() {
        let diags = check_all(
            GOOD_SCHEMA,
            "agg a = count(*) where yearr = 2000 and id = 'x' and Publication.veue = 'y'\n\
             dir high\n",
        );
        assert_eq!(codes(&diags), ["E002", "E013", "E002"]);
        assert_eq!(diags[0].help.as_deref(), Some("did you mean `year`?"));
        assert!(diags[1].help.as_deref().unwrap().contains("Author.id"));
        assert!(diags[2].message.contains("Publication.veue"));
    }

    #[test]
    fn predicate_type_mismatches() {
        let diags = check_all(
            GOOD_SCHEMA,
            "agg a = count(*) where year = 'SIGMOD' and venue = 2004\ndir high\n",
        );
        assert_eq!(codes(&diags), ["E008", "E008"]);
        assert!(diags[1].help.as_deref().unwrap().contains("'2004'"));
    }

    #[test]
    fn fk_cycle_and_prop_311() {
        let diags = check_schema_only(
            "\
relation A(id: int key)
relation B(id: int key, a: int, c: int)
relation C(id: int key)
fk B(a) <-> A
fk B(id) <-> C
fk C(id) -> A
",
        );
        let codes = codes(&diags);
        assert!(codes.contains(&"W001"), "{codes:?}");
        assert!(codes.contains(&"E007"), "{codes:?}");
    }

    #[test]
    fn disconnected_schema_warns() {
        let diags = check_schema_only("relation A(id: int key)\nrelation B(id: int key)\n");
        assert_eq!(codes(&diags), ["W002"]);
        assert_eq!(diags[0].span.line, 2);
    }

    #[test]
    fn fk_arity_and_type_mismatches() {
        let diags = check_schema_only(
            "\
relation A(x: int key, y: int key)
relation B(a: str key, b: int)
fk B(a) -> A
fk B(a, b) -> A
",
        );
        let codes = codes(&diags);
        // fk 1: arity (1 vs 2). fk 2: `a` is str vs x int; second
        // union-find edge on the same pair also closes a cycle.
        assert!(codes.contains(&"E005"), "{codes:?}");
        assert!(codes.contains(&"E006"), "{codes:?}");
        assert!(codes.contains(&"E007"), "{codes:?}");
    }

    #[test]
    fn unsatisfiable_range_detected() {
        let diags = check_all(
            GOOD_SCHEMA,
            "agg a = count(*) where year >= 2007 and year <= 2004\n\
             agg b = count(*) where year >= 2000 and year <= 2004\n\
             agg c = count(*) where venue = 'a' and venue = 'b'\n\
             agg d = count(*) where year = 2005 and year < 2005\n\
             expr a / b + c / d\ndir high\nsmoothing 1\n",
        );
        let w003 = diags.iter().filter(|d| d.code == "W003").count();
        assert_eq!(w003, 3, "{diags:?}");
    }

    #[test]
    fn expr_checks() {
        let diags = check_all(
            GOOD_SCHEMA,
            "agg alpha = count(*)\nagg beta = count(*)\nexpr alpa / beta\ndir low\n",
        );
        let codes = codes(&diags);
        assert!(codes.contains(&"E009"), "{codes:?}");
        assert!(codes.contains(&"W004"), "{codes:?}");
        let e9 = diags.iter().find(|d| d.code == "E009").unwrap();
        assert_eq!(e9.help.as_deref(), Some("did you mean `alpha`?"));
    }

    #[test]
    fn missing_directives() {
        let diags = check_all(GOOD_SCHEMA, "agg a = count(*)\nagg b = count(*)\n");
        assert_eq!(codes(&diags), ["E014", "E014"]); // missing dir, missing expr
    }

    #[test]
    fn sum_over_string_flagged() {
        let diags = check_all(GOOD_SCHEMA, "agg s = sum(venue)\ndir high\n");
        assert_eq!(codes(&diags), ["E008"]);
    }

    #[test]
    fn cube_budget_warning() {
        let cols: Vec<String> = (0..20).map(|i| format!("c{i}: int")).collect();
        let diags = check_schema_only(&format!(
            "relation Wide(id: int key, {})\n",
            cols.join(", ")
        ));
        assert_eq!(codes(&diags), ["W005"]);
    }

    #[test]
    fn symbol_table_from_real_schema() {
        let schema = exq_relstore::parse::parse_schema(GOOD_SCHEMA).unwrap();
        assert_eq!(schema.relations().len(), 3);
        let mut diags = Vec::new();
        check_question(
            "q.exq",
            "agg a = count(distinct Author.id)\ndir high\n",
            Some(schema.relations()),
            &mut diags,
        );
        assert!(diags.is_empty(), "{diags:?}");
    }
}
