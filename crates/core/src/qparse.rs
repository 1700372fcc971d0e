//! Text format for user questions.
//!
//! A *question file* declares the aggregate sub-queries, the combining
//! arithmetic expression, the direction, and (optionally) the smoothing
//! constant — everything in Definition 2.1 — so a question can live in
//! configuration instead of Rust code:
//!
//! ```text
//! # Q_Marital (Section 5.1)
//! agg q1 = count(*) where marital = 'married' and ap = 'good'
//! agg q2 = count(*) where marital = 'married' and ap = 'poor'
//! agg q3 = count(*) where marital = 'unmarried' and ap = 'good'
//! agg q4 = count(*) where marital = 'unmarried' and ap = 'poor'
//! expr (q1 / q2) / (q3 / q4)
//! dir high
//! smoothing 0.0001
//! ```
//!
//! Aggregates: `count(*)`, `count(distinct Attr)`, `sum(Attr)`,
//! `avg(Attr)`, `min(Attr)`, `max(Attr)`, each with an optional `where`
//! clause in the [`exq_relstore::parse`] predicate language. Expressions
//! support `+ - * /`, unary `-`, `log(…)`, `exp(…)`, parentheses, numeric
//! literals, and the declared aggregate names. The smoothing constant
//! must be finite.
//!
//! Like the schema and predicate grammars, the question grammar has a
//! syntax layer ([`question_syntax`]) and a lowering
//! ([`lower_question`]); [`parse_question`] runs both and returns the
//! first fault.

use crate::error::Result;
use crate::question::{AggregateQuery, Direction, NumExpr, NumericalQuery, UserQuestion};
use exq_relstore::aggregate::AggFunc;
use exq_relstore::parse::{lower_attr, lower_predicate, predicate_syntax, PredAst};
use exq_relstore::schema::RelationSchema;
use exq_relstore::text::{
    col_of, content_lines, describe, first_error, suggest, Fault, Span, Tok, Tokens,
};
use exq_relstore::{DatabaseSchema, Predicate, ValueType};

// --------------------------------------------------------------------
// Syntax layer
// --------------------------------------------------------------------

/// One `agg name = func(arg) [where …]` declaration.
#[derive(Debug, Clone)]
pub struct AggDecl {
    /// The aggregate's name (referenced from `expr`).
    pub name: String,
    /// Where the name appears.
    pub name_span: Span,
    /// Function name, lowercased (`count`, `sum`, …).
    pub func: String,
    /// Where the function name appears.
    pub func_span: Span,
    /// Argument text (`*`, `Attr`, `distinct Attr`) and its span; `None`
    /// when the call has no `(` (a syntax fault).
    pub arg: Option<(String, Span)>,
    /// The `where` clause (`true` when there is none); `None` when its
    /// syntax faulted.
    pub selection: Option<PredAst>,
}

/// An arithmetic expression over aggregate names, names unresolved.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprAst {
    /// Numeric literal.
    Num(f64),
    /// Aggregate name and where it appears.
    Name(String, Span),
    /// Unary minus.
    Neg(Box<ExprAst>),
    /// `log(…)`.
    Log(Box<ExprAst>),
    /// `exp(…)`.
    Exp(Box<ExprAst>),
    /// `+`, `-`, `*` or `/`, with the operator's span.
    Bin(char, Span, Box<ExprAst>, Box<ExprAst>),
}

/// A question file's declarations, names unresolved. A repeated
/// `expr`, `dir` or `smoothing` line overrides the earlier one.
#[derive(Debug, Default)]
pub struct QuestionAst {
    /// Aggregate declarations in order.
    pub aggs: Vec<AggDecl>,
    /// The `expr` line: `Some(None)` when its syntax faulted.
    pub expr: Option<Option<ExprAst>>,
    /// The `dir` directive.
    pub dir: Option<Direction>,
    /// The `smoothing` constant.
    pub smoothing: Option<f64>,
}

/// The question syntax layer: every declaration it can recognize, and
/// an `E011` fault for each syntax problem. Parsing resumes at the next
/// line, or at the next clause inside a `where` predicate or `expr`.
pub fn question_syntax(text: &str) -> (QuestionAst, Vec<Fault>) {
    let mut ast = QuestionAst::default();
    let mut faults = Vec::new();
    for (line_no, raw, line) in content_lines(text) {
        let at = |sub: &str| Span::of(line_no, raw, sub);
        if let Some(rest) = line.strip_prefix("agg ") {
            ast.aggs.extend(agg_decl(raw, rest, line_no, &mut faults));
        } else if let Some(rest) = line.strip_prefix("expr ") {
            let t = rest.trim();
            let expr = expr_syntax(t, line_no, col_of(raw, t) - 1);
            ast.expr = Some(expr.map_err(|f| faults.extend(f)).ok());
        } else if let Some(rest) = line.strip_prefix("dir ") {
            match rest.trim() {
                "high" => ast.dir = Some(Direction::High),
                "low" => ast.dir = Some(Direction::Low),
                other => faults.push(
                    Fault::new(
                        "E011",
                        at(other),
                        format!("direction must be high|low, got `{other}`"),
                    )
                    .with_help("write `dir high` or `dir low`"),
                ),
            }
        } else if let Some(rest) = line.strip_prefix("smoothing ") {
            let t = rest.trim();
            match t.parse::<f64>() {
                Ok(v) if v.is_finite() => ast.smoothing = Some(v),
                _ => faults.push(
                    Fault::new("E011", at(t), format!("bad smoothing constant `{t}`"))
                        .with_help("write a finite number, e.g. `smoothing 0.0001`"),
                ),
            }
        } else {
            let word = line.split_whitespace().next().unwrap_or(line);
            faults.push(
                Fault::new(
                    "E011",
                    at(word),
                    format!("expected agg/expr/dir/smoothing, got `{word}`"),
                )
                .with_suggestion(suggest(word, ["agg", "expr", "dir", "smoothing"])),
            );
        }
    }
    (ast, faults)
}

/// `name = function(args) [where predicate]`
fn agg_decl(raw: &str, rest: &str, line: usize, faults: &mut Vec<Fault>) -> Option<AggDecl> {
    let at = |sub: &str| Span::of(line, raw, sub);
    let Some((name, spec)) = rest.split_once('=') else {
        faults.push(
            Fault::new("E011", at(rest), "expected `agg name = function(...)`")
                .with_help("e.g. `agg q1 = count(*) where year >= 2000`"),
        );
        return None;
    };
    let name = name.trim();
    if name.is_empty() {
        faults.push(Fault::new(
            "E011",
            at(rest),
            "missing aggregate name before `=`",
        ));
        return None;
    }
    let spec = spec.trim();
    let (call, selection) = match split_where(spec) {
        Some((call, w)) => {
            let w = w.trim();
            let pred = predicate_syntax(w, line, col_of(raw, w) - 1);
            (call.trim(), pred.map_err(|f| faults.extend(f)).ok())
        }
        None => (spec, Some(PredAst::Const(true))),
    };
    let (func, arg) = match call.find('(') {
        Some(open) => {
            let arg = call[open + 1..].strip_suffix(')').unwrap_or_else(|| {
                faults.push(Fault::new(
                    "E011",
                    Span::new(line, at(call).col + call.chars().count(), 1),
                    "expected `)` after aggregate arguments",
                ));
                &call[open + 1..]
            });
            let arg = arg.trim();
            (call[..open].trim(), Some((arg.to_string(), at(arg))))
        }
        None => {
            faults.push(
                Fault::new("E011", at(call), "expected `(` in aggregate function").with_help(
                    "aggregates are count(*), count(distinct A), sum(A), avg(A), min(A), max(A)",
                ),
            );
            (call, None)
        }
    };
    Some(AggDecl {
        name: name.to_string(),
        name_span: at(name),
        func: func.to_ascii_lowercase(),
        func_span: at(func),
        arg,
        selection,
    })
}

/// Split at the first `where ` keyword outside quotes that starts the
/// spec or follows whitespace.
fn split_where(spec: &str) -> Option<(&str, &str)> {
    let mut in_quote: Option<char> = None;
    let mut prev = ' ';
    for (i, c) in spec.char_indices() {
        match in_quote {
            Some(q) if c == q => in_quote = None,
            Some(_) => {}
            None if c == '\'' || c == '"' => in_quote = Some(c),
            None if prev.is_ascii_whitespace()
                && spec[i..]
                    .get(.."where ".len())
                    .is_some_and(|w| w.eq_ignore_ascii_case("where ")) =>
            {
                return Some((&spec[..i], &spec[i + "where ".len()..]));
            }
            None => {}
        }
        prev = c;
    }
    None
}

/// The `expr` syntax layer over `text`, found on line `line` at 0-based
/// char offset `col0`. Every syntax fault is `E011`; after one, parsing
/// resumes at the next `+`/`-` term.
pub fn expr_syntax(
    text: &str,
    line: usize,
    col0: usize,
) -> std::result::Result<ExprAst, Vec<Fault>> {
    Tokens::lex(text, line, col0)
        .map_err(|f| vec![f])?
        .parse_clauses(
            sum,
            |t| matches!(t, Tok::Plus | Tok::Minus),
            "trailing tokens in expr",
        )
}

type Parsed = std::result::Result<ExprAst, Fault>;

/// `operand (op operand)*`, left-associative.
fn binary(t: &mut Tokens, ops: [(Tok, char); 2], operand: fn(&mut Tokens) -> Parsed) -> Parsed {
    let mut acc = operand(t)?;
    while let Some(&(_, op)) = ops.iter().find(|(tok, _)| t.peek() == Some(tok)) {
        let (_, span) = t.bump();
        acc = ExprAst::Bin(op, span, Box::new(acc), Box::new(operand(t)?));
    }
    Ok(acc)
}

fn sum(t: &mut Tokens) -> Parsed {
    binary(t, [(Tok::Plus, '+'), (Tok::Minus, '-')], product)
}

fn product(t: &mut Tokens) -> Parsed {
    binary(t, [(Tok::Star, '*'), (Tok::Slash, '/')], factor)
}

fn close(t: &mut Tokens, inner: ExprAst, what: &str) -> Parsed {
    match t.bump() {
        (Some(Tok::RParen), _) => Ok(inner),
        (other, span) => Err(Fault::new(
            "E011",
            span,
            format!("expected `)` {what}, got {}", describe(other.as_ref())),
        )),
    }
}

fn factor(t: &mut Tokens) -> Parsed {
    match t.bump() {
        (Some(Tok::Minus), _) => Ok(ExprAst::Neg(Box::new(factor(t)?))),
        (Some(Tok::Num(n)), span) => n
            .parse()
            .map(ExprAst::Num)
            .map_err(|_| Fault::new("E011", span, format!("bad number `{n}`"))),
        (Some(Tok::LParen), _) => {
            let inner = sum(t)?;
            close(t, inner, "in expr")
        }
        (Some(Tok::Word(w)), _) if w == "log" || w == "exp" => {
            match t.bump() {
                (Some(Tok::LParen), _) => {}
                (other, span) => {
                    return Err(Fault::new(
                        "E011",
                        span,
                        format!("expected `(` after {w}, got {}", describe(other.as_ref())),
                    ))
                }
            }
            let inner = sum(t)?;
            let inner = Box::new(close(t, inner, "after the log/exp argument")?);
            Ok(if w == "log" {
                ExprAst::Log(inner)
            } else {
                ExprAst::Exp(inner)
            })
        }
        (Some(Tok::Word(w)), span) => Ok(ExprAst::Name(w, span)),
        (other, span) => Err(Fault::new(
            "E011",
            span,
            format!("unexpected token in expr: {}", describe(other.as_ref())),
        )),
    }
}

// --------------------------------------------------------------------
// Lowering
// --------------------------------------------------------------------

const AGG_FUNCS: [&str; 5] = ["count", "sum", "avg", "min", "max"];

/// Lower a question AST against `relations`: every semantic fault —
/// duplicate aggregate names (`E015`), unknown functions or bad
/// arguments (`E011`), unresolvable attributes (`E001`/`E002`/`E013`),
/// ill-typed comparisons and `sum`/`avg` over `str`/`bool` (`E008`),
/// unknown `expr` names (`E009`), missing directives (`E014`) — or the
/// question when there is none. On a partial AST (one whose syntax layer
/// faulted) the faults are still complete but the question is not.
pub fn lower_question(
    relations: &[RelationSchema],
    ast: &QuestionAst,
) -> std::result::Result<UserQuestion, Vec<Fault>> {
    let mut faults = Vec::new();
    let mut aggregates = Vec::with_capacity(ast.aggs.len());
    for (i, agg) in ast.aggs.iter().enumerate() {
        if ast.aggs[..i].iter().any(|a| a.name == agg.name) {
            faults.push(
                Fault::new(
                    "E015",
                    agg.name_span,
                    format!("duplicate aggregate name `{}`", agg.name),
                )
                .with_help("each `agg` needs a distinct name for `expr` to reference"),
            );
        }
        let func = lower_func(relations, agg, &mut faults);
        let selection = match &agg.selection {
            Some(pred) => lower_predicate(relations, pred, &mut faults),
            None => Predicate::True, // faulted syntax, already reported
        };
        aggregates.push(AggregateQuery { func, selection });
    }
    let names: Vec<&str> = ast.aggs.iter().map(|a| a.name.as_str()).collect();
    let expr = match &ast.expr {
        Some(Some(e)) => lower_expr(e, &names, &mut faults),
        None if names.len() == 1 => NumExpr::Agg(0),
        _ => NumExpr::Const(0.0), // faulted syntax, or E014 below
    };
    if ast.aggs.is_empty() {
        faults.push(
            Fault::new(
                "E014",
                Span::file(),
                "question declares no aggregate sub-queries",
            )
            .with_help("declare at least one, e.g. `agg n = count(*)`"),
        );
    }
    if ast.dir.is_none() {
        faults.push(
            Fault::new("E014", Span::file(), "missing `dir high|low` directive")
                .with_help("state whether the question asks why the value is high or low"),
        );
    }
    if ast.expr.is_none() && names.len() > 1 {
        faults.push(
            Fault::new(
                "E014",
                Span::file(),
                format!(
                    "missing `expr …` directive ({} aggregates declared, so a combining \
                     expression is required)",
                    names.len()
                ),
            )
            .with_help("combine the aggregates, e.g. `expr (q1 / q2) / (q3 / q4)`"),
        );
    }
    if !faults.is_empty() {
        return Err(faults);
    }
    let query = NumericalQuery {
        aggregates,
        expr,
        smoothing: ast.smoothing.unwrap_or(0.0),
    };
    Ok(UserQuestion::new(query, ast.dir.unwrap_or(Direction::High)))
}

/// `func(arg)` to an [`AggFunc`], pushing its faults.
fn lower_func(relations: &[RelationSchema], agg: &AggDecl, faults: &mut Vec<Fault>) -> AggFunc {
    let func = agg.func.as_str();
    if !AGG_FUNCS.contains(&func) {
        let help = match suggest(func, AGG_FUNCS) {
            Some(s) => format!("did you mean `{s}`?"),
            None => "aggregates are count, sum, avg, min, max".to_string(),
        };
        faults.push(
            Fault::new(
                "E011",
                agg.func_span,
                format!("unknown aggregate function `{func}`"),
            )
            .with_help(help),
        );
        return AggFunc::CountStar;
    }
    let Some((arg, span)) = &agg.arg else {
        return AggFunc::CountStar; // faulted syntax, already reported
    };
    let mut attr = |name: &str| {
        lower_attr(relations, name, *span)
            .map_err(|f| faults.push(f))
            .ok()
    };
    if func == "count" {
        if arg == "*" {
            return AggFunc::CountStar;
        }
        if let Some(inner) = arg.strip_prefix("distinct ") {
            return attr(inner.trim())
                .map_or(AggFunc::CountStar, |(a, _)| AggFunc::CountDistinct(a));
        }
        faults.push(
            Fault::new("E011", *span, "count takes `*` or `distinct Attr`")
                .with_help("write `count(*)` or `count(distinct Rel.attr)`"),
        );
        return AggFunc::CountStar;
    }
    if arg.is_empty() {
        faults.push(Fault::new(
            "E011",
            *span,
            format!("{func} needs an attribute argument"),
        ));
        return AggFunc::CountStar;
    }
    let Some((a, ty)) = attr(arg) else {
        return AggFunc::CountStar;
    };
    if matches!(func, "sum" | "avg") && matches!(ty, ValueType::Str | ValueType::Bool) {
        faults.push(
            Fault::new(
                "E008",
                *span,
                format!("{func}({arg}) aggregates a non-numeric attribute of type {ty}"),
            )
            .with_help("sum/avg need an int or float attribute"),
        );
    }
    match func {
        "sum" => AggFunc::Sum(a),
        "avg" => AggFunc::Avg(a),
        "min" => AggFunc::Min(a),
        _ => AggFunc::Max(a),
    }
}

/// Resolve `expr`'s names against the declared aggregates (`E009`).
fn lower_expr(e: &ExprAst, names: &[&str], faults: &mut Vec<Fault>) -> NumExpr {
    let mut go = |x: &ExprAst| Box::new(lower_expr(x, names, faults));
    match e {
        ExprAst::Num(v) => NumExpr::Const(*v),
        ExprAst::Name(name, span) => match names.iter().position(|n| n == name) {
            Some(i) => NumExpr::Agg(i),
            None => {
                let help = match suggest(name, names.iter().copied()) {
                    Some(s) => format!("did you mean `{s}`?"),
                    None => format!("declare it first: `agg {name} = count(*) where …`"),
                };
                faults.push(
                    Fault::new(
                        "E009",
                        *span,
                        format!("unknown aggregate name `{name}` in expr"),
                    )
                    .with_help(help),
                );
                NumExpr::Const(0.0)
            }
        },
        ExprAst::Neg(x) => NumExpr::Neg(go(x)),
        ExprAst::Log(x) => NumExpr::Log(go(x)),
        ExprAst::Exp(x) => NumExpr::Exp(go(x)),
        ExprAst::Bin(op, _, a, b) => {
            let (a, b) = (go(a), go(b));
            match op {
                '+' => NumExpr::Add(a, b),
                '-' => NumExpr::Sub(a, b),
                '*' => NumExpr::Mul(a, b),
                _ => NumExpr::Div(a, b),
            }
        }
    }
}

/// Parse a question file against a schema: the syntax layer, then
/// lowering; the first fault is the error.
pub fn parse_question(schema: &DatabaseSchema, text: &str) -> Result<UserQuestion> {
    let (ast, faults) = question_syntax(text);
    if !faults.is_empty() {
        return Err(first_error(faults).into());
    }
    lower_question(schema.relations(), &ast).map_err(|f| first_error(f).into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use exq_relstore::parse::parse_schema;
    use exq_relstore::Database;

    fn schema() -> DatabaseSchema {
        parse_schema("relation R(id: int key, marital: str, ap: str, x: int)").unwrap()
    }

    fn sample_db() -> Database {
        let mut db = Database::new(schema());
        for (i, (m, ap, x)) in [
            ("married", "good", 10),
            ("married", "poor", 2),
            ("unmarried", "good", 5),
            ("unmarried", "poor", 5),
        ]
        .iter()
        .enumerate()
        {
            db.insert(
                "R",
                vec![(i as i64).into(), (*m).into(), (*ap).into(), (*x).into()],
            )
            .unwrap();
        }
        db
    }

    const Q_MARITAL: &str = "
# Q_Marital
agg q1 = count(*) where marital = 'married' and ap = 'good'
agg q2 = count(*) where marital = 'married' and ap = 'poor'
agg q3 = count(*) where marital = 'unmarried' and ap = 'good'
agg q4 = count(*) where marital = 'unmarried' and ap = 'poor'
expr (q1 / q2) / (q3 / q4)
dir high
smoothing 0.0001
";

    #[test]
    fn parses_and_evaluates_q_marital() {
        let db = sample_db();
        let q = parse_question(db.schema(), Q_MARITAL).unwrap();
        assert_eq!(q.direction, Direction::High);
        assert_eq!(q.query.arity(), 4);
        assert_eq!(q.query.smoothing, 1e-4);
        // (1/... counts: married 1 good? No: 1 row each → (1/1)/(1/1)=1.
        let v = q.query.eval(&db).unwrap();
        assert!((v - 1.0).abs() < 1e-3, "Q = {v}");
    }

    #[test]
    fn single_aggregate_defaults_expr() {
        let db = sample_db();
        let q = parse_question(db.schema(), "agg n = count(*)\ndir low\n").unwrap();
        assert_eq!(q.query.eval(&db).unwrap(), 4.0);
        assert_eq!(q.direction, Direction::Low);
    }

    /// The one aggregate of `agg a = {spec}`.
    fn aggregate(s: &DatabaseSchema, spec: &str) -> Result<AggregateQuery> {
        let q = parse_question(s, &format!("agg a = {spec}\ndir high"))?;
        Ok(q.query.aggregates.into_iter().next().unwrap())
    }

    #[test]
    fn all_aggregate_functions_parse() {
        let s = schema();
        for spec in [
            "count(*)",
            "count(distinct R.marital)",
            "count(distinct marital)",
            "sum(x)",
            "avg(R.x)",
            "min(x)",
            "max(x)",
            "min(marital)",
            "COUNT( * )",
        ] {
            aggregate(&s, spec).unwrap_or_else(|e| panic!("`{spec}`: {e}"));
        }
    }

    #[test]
    fn where_clause_optional_and_quoted_where_safe() {
        let s = schema();
        let a = aggregate(&s, "count(*) where marital = 'where '").unwrap();
        assert_eq!(
            a.selection,
            Predicate::cmp(
                s.attr("R", "marital").unwrap(),
                exq_relstore::CmpOp::Eq,
                "where "
            )
        );
        let b = aggregate(&s, "count(*)").unwrap();
        assert_eq!(b.selection, Predicate::True);
        assert!(aggregate(&s, "count(*) WHERE x = 1").is_ok());
    }

    #[test]
    fn where_split_is_quote_safe() {
        assert_eq!(
            split_where("count(*) where a = 'where b'"),
            Some(("count(*) ", "a = 'where b'"))
        );
        assert_eq!(split_where("count(*) wherë = 1"), None);
        assert_eq!(split_where("count(*)"), None);
    }

    #[test]
    fn expression_grammar() {
        let s = schema();
        for (text, vals, expected) in [
            ("a + b", [2.0, 3.0], 5.0),
            ("a - b * 2", [10.0, 3.0], 4.0),
            ("(a - b) * 2", [10.0, 3.0], 14.0),
            ("-a / b", [6.0, 3.0], -2.0),
            ("log(exp(a))", [2.5, 0.0], 2.5),
            ("a / b / 2", [8.0, 2.0], 2.0),
            ("0.5 * a", [8.0, 0.0], 4.0),
            ("a -1", [8.0, 0.0], 7.0),
        ] {
            let q = format!("agg a = count(*)\nagg b = count(*)\nexpr {text}\ndir high");
            let e = parse_question(&s, &q).unwrap().query.expr;
            assert!((e.eval(&vals) - expected).abs() < 1e-12, "`{text}`");
        }
    }

    #[test]
    fn question_recovers_past_errors() {
        let text = "agg a = frob(x)\nagg b = count(*) where x = 1\nexpr a / b\ndir sideways\n";
        let (ast, faults) = question_syntax(text);
        assert_eq!(ast.aggs.len(), 2);
        assert!(matches!(ast.expr, Some(Some(_))));
        assert!(ast.dir.is_none());
        // Only the bad dir is a syntax fault; the unknown function parses
        // and lowering flags it, along with the missing direction.
        assert_eq!(faults.len(), 1);
        assert_eq!((faults[0].code, faults[0].span.line), ("E011", 4));
        assert_eq!(ast.aggs[0].func, "frob");
        let faults = lower_question(schema().relations(), &ast).unwrap_err();
        let codes: Vec<&str> = faults.iter().map(|f| f.code).collect();
        assert_eq!(codes, ["E011", "E014"]);
    }

    #[test]
    fn faults_carry_the_checker_codes_and_positions() {
        let s = parse_schema(
            "relation R(id: int key, marital: str, x: int)\n\
             relation S(sid: int key, x: int, ok: bool)",
        )
        .unwrap();
        for (text, code, line, col) in [
            ("agg a = count(*) where x = 1\ndir high", "E013", 1, 24),
            ("agg a = count(*)\nexpr a + zz\ndir high", "E009", 2, 10),
            ("agg a = count(*)", "E014", 0, 0),
            ("agg a = count(*)\nagg a = count(*)\ndir high", "E015", 2, 5),
            ("agg a = sum(marital)\ndir high", "E008", 1, 13),
            ("agg a = avg(ok)\ndir high", "E008", 1, 13),
            (
                "agg a = count(*) where marital = 3\ndir high",
                "E008",
                1,
                34,
            ),
            ("agg a = count(*) where R.zz = 3\ndir high", "E002", 1, 24),
            ("agg a = count(*) wherë = 1\ndir high", "E011", 1, 27),
            ("agg a = count(*)\nexpr log a\ndir high", "E011", 2, 10),
        ] {
            let Err(crate::Error::Store(e)) = parse_question(&s, text) else {
                panic!("`{text}` should fail");
            };
            assert_eq!(
                (e.code(), e.position()),
                (code, Some((line, col))),
                "`{text}`: {e}"
            );
            assert!(!e.to_string().contains("Some("), "{e}");
        }
    }

    #[test]
    fn question_errors() {
        let s = schema();
        for (text, fragment) in [
            ("agg q1 = count(*)\n", "missing `dir"),
            (
                "agg q = count(*)\nagg q = count(*)\ndir high",
                "duplicate aggregate name",
            ),
            (
                "agg a = count(*)\nagg b = count(*)\ndir high",
                "missing `expr",
            ),
            (
                "agg a = count(*)\nexpr a + zz\ndir high",
                "unknown aggregate name",
            ),
            ("dir sideways", "high|low"),
            ("bogus line", "expected agg/expr/dir/smoothing"),
            ("agg a = frobnicate(x)\ndir high", "unknown aggregate"),
            ("agg a = count(x)\ndir high", "count takes"),
            ("agg a = count(*)\nsmoothing abc\ndir high", "bad smoothing"),
            (
                "agg a = count(*)\nexpr a +\ndir high",
                "unexpected token in expr",
            ),
            ("agg a = count(*)\nexpr a b\ndir high", "trailing tokens"),
            ("agg a = count(*)\nsmoothing NaN\ndir high", "bad smoothing"),
            ("agg a = count(*)\nsmoothing inf\ndir high", "bad smoothing"),
        ] {
            let err = parse_question(&s, text).unwrap_err().to_string();
            assert!(
                err.contains(fragment),
                "`{text}` → `{err}` (wanted `{fragment}`)"
            );
        }
    }

    #[test]
    fn regression_style_expression() {
        // A hand-written slope over three window counts.
        let db = sample_db();
        let q = parse_question(
            db.schema(),
            "agg w1 = count(*) where x >= 10\n\
             agg w2 = count(*) where x = 5\n\
             expr w2 - w1\n\
             dir high",
        )
        .unwrap();
        assert_eq!(q.query.eval(&db).unwrap(), 1.0);
    }
}
