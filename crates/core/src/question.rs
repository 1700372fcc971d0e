//! Numerical queries and user questions (Section 2, Eq. (1)).
//!
//! A *numerical query* is `Q = E(q_1, …, q_m)`: an arithmetic expression
//! `E` over `m` single-aggregate SQL queries, each of which aggregates the
//! universal relation under its own selection predicate. A *user question*
//! pairs `Q` with a direction — does the user find the value surprisingly
//! `high` or `low`?

use exq_relstore::aggregate::{evaluate, evaluate_many, AggFunc, Folded};
use exq_relstore::{Database, Predicate, Result, Universal, View};

/// One aggregate sub-query `q_j = SELECT agg(…) FROM R_1 ⋈ … ⋈ R_k WHERE
/// selection`.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregateQuery {
    /// The aggregate.
    pub func: AggFunc,
    /// The `WHERE` clause, evaluated per universal tuple.
    pub selection: Predicate,
}

impl AggregateQuery {
    /// `COUNT(*) WHERE selection`.
    pub fn count_star(selection: Predicate) -> AggregateQuery {
        AggregateQuery {
            func: AggFunc::CountStar,
            selection,
        }
    }

    /// Evaluate over a pre-computed universal relation.
    pub fn eval(&self, db: &Database, u: &Universal) -> Result<f64> {
        evaluate(db, u, &self.selection, &self.func)
    }
}

/// The arithmetic expression `E` over aggregate values, by index.
#[derive(Debug, Clone, PartialEq)]
pub enum NumExpr {
    /// A constant.
    Const(f64),
    /// The value of aggregate `q_{i+1}` (0-based index).
    Agg(usize),
    /// Sum.
    Add(Box<NumExpr>, Box<NumExpr>),
    /// Difference.
    Sub(Box<NumExpr>, Box<NumExpr>),
    /// Product.
    Mul(Box<NumExpr>, Box<NumExpr>),
    /// Quotient. Division by zero follows IEEE 754 (`±∞`/NaN) — the paper
    /// reports `∞` degrees (Figure 11) rather than erroring; callers that
    /// want finite ranks use [`NumericalQuery::smoothing`].
    Div(Box<NumExpr>, Box<NumExpr>),
    /// Natural logarithm.
    Log(Box<NumExpr>),
    /// Exponential.
    Exp(Box<NumExpr>),
    /// Negation.
    Neg(Box<NumExpr>),
}

impl NumExpr {
    /// `a / b` convenience constructor. (Not `std::ops::Div`: these build
    /// expression *trees*, they do not evaluate.)
    #[allow(clippy::should_implement_trait)]
    pub fn div(a: NumExpr, b: NumExpr) -> NumExpr {
        NumExpr::Div(Box::new(a), Box::new(b))
    }

    /// `a * b` convenience constructor.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(a: NumExpr, b: NumExpr) -> NumExpr {
        NumExpr::Mul(Box::new(a), Box::new(b))
    }

    /// Evaluate against the aggregate values `vals`.
    pub fn eval(&self, vals: &[f64]) -> f64 {
        self.eval_by(&|i| vals[i])
    }

    /// Evaluate with aggregate `i`'s value given by `val(i)`.
    fn eval_by(&self, val: &impl Fn(usize) -> f64) -> f64 {
        match self {
            NumExpr::Const(c) => *c,
            NumExpr::Agg(i) => val(*i),
            NumExpr::Add(a, b) => a.eval_by(val) + b.eval_by(val),
            NumExpr::Sub(a, b) => a.eval_by(val) - b.eval_by(val),
            NumExpr::Mul(a, b) => a.eval_by(val) * b.eval_by(val),
            NumExpr::Div(a, b) => a.eval_by(val) / b.eval_by(val),
            NumExpr::Log(a) => a.eval_by(val).ln(),
            NumExpr::Exp(a) => a.eval_by(val).exp(),
            NumExpr::Neg(a) => -a.eval_by(val),
        }
    }

    /// Render with aggregate names (e.g. `(q1 / q2)`); parses back with
    /// `exq_core::qparse`'s expression grammar.
    pub fn render(&self, names: &[String]) -> String {
        match self {
            NumExpr::Const(c) => c.to_string(),
            NumExpr::Agg(i) => names
                .get(*i)
                .cloned()
                .unwrap_or_else(|| format!("q{}", i + 1)),
            NumExpr::Add(a, b) => format!("({} + {})", a.render(names), b.render(names)),
            NumExpr::Sub(a, b) => format!("({} - {})", a.render(names), b.render(names)),
            NumExpr::Mul(a, b) => format!("({} * {})", a.render(names), b.render(names)),
            NumExpr::Div(a, b) => format!("({} / {})", a.render(names), b.render(names)),
            NumExpr::Log(a) => format!("log({})", a.render(names)),
            NumExpr::Exp(a) => format!("exp({})", a.render(names)),
            NumExpr::Neg(a) => format!("(-{})", a.render(names)),
        }
    }

    /// The largest aggregate index referenced, if any.
    pub fn max_agg_index(&self) -> Option<usize> {
        match self {
            NumExpr::Const(_) => None,
            NumExpr::Agg(i) => Some(*i),
            NumExpr::Add(a, b) | NumExpr::Sub(a, b) | NumExpr::Mul(a, b) | NumExpr::Div(a, b) => {
                match (a.max_agg_index(), b.max_agg_index()) {
                    (Some(x), Some(y)) => Some(x.max(y)),
                    (x, y) => x.or(y),
                }
            }
            NumExpr::Log(a) | NumExpr::Exp(a) | NumExpr::Neg(a) => a.max_agg_index(),
        }
    }
}

/// A numerical query `Q = E(q_1, …, q_m)`.
#[derive(Debug, Clone, PartialEq)]
pub struct NumericalQuery {
    /// The aggregate sub-queries `q_1, …, q_m`.
    pub aggregates: Vec<AggregateQuery>,
    /// The combining expression.
    pub expr: NumExpr,
    /// Added to every aggregate value before `expr` is evaluated — the
    /// paper's "+0.0001 to all counts to avoid division by zero"
    /// (Section 5.1.1). Zero by default.
    pub smoothing: f64,
}

impl NumericalQuery {
    /// Build a query, checking that `expr` only references declared
    /// aggregates.
    pub fn new(aggregates: Vec<AggregateQuery>, expr: NumExpr) -> Result<NumericalQuery> {
        if let Some(max) = expr.max_agg_index() {
            if max >= aggregates.len() {
                return Err(exq_relstore::Error::BadAggregateIndex {
                    index: max,
                    count: aggregates.len(),
                });
            }
        }
        Ok(NumericalQuery {
            aggregates,
            expr,
            smoothing: 0.0,
        })
    }

    /// A single-aggregate query `Q = q_1`.
    pub fn single(q: AggregateQuery) -> NumericalQuery {
        NumericalQuery {
            aggregates: vec![q],
            expr: NumExpr::Agg(0),
            smoothing: 0.0,
        }
    }

    /// The ratio `q_1 / q_2` (e.g. `Q_Race`, Section 5.1).
    pub fn ratio(q1: AggregateQuery, q2: AggregateQuery) -> NumericalQuery {
        NumericalQuery {
            aggregates: vec![q1, q2],
            expr: NumExpr::div(NumExpr::Agg(0), NumExpr::Agg(1)),
            smoothing: 0.0,
        }
    }

    /// The double ratio `(q_1/q_2) / (q_3/q_4)` (the running example's
    /// "bump" query and `Q_Marital`).
    pub fn double_ratio(
        q1: AggregateQuery,
        q2: AggregateQuery,
        q3: AggregateQuery,
        q4: AggregateQuery,
    ) -> NumericalQuery {
        NumericalQuery {
            aggregates: vec![q1, q2, q3, q4],
            expr: NumExpr::div(
                NumExpr::div(NumExpr::Agg(0), NumExpr::Agg(1)),
                NumExpr::div(NumExpr::Agg(2), NumExpr::Agg(3)),
            ),
            smoothing: 0.0,
        }
    }

    /// The least-squares regression slope over a *series* of aggregates —
    /// the Section 6(iv) complex question "why is this sequence of bars
    /// increasing?". With x-positions `0, 1, …, t−1`, the slope of the
    /// fitted line through `(x_j, q_j)` is the linear combination
    /// `Σ_j (x_j − x̄) q_j / Σ_j (x_j − x̄)²`, which is expressible as a
    /// [`NumExpr`] over the aggregates. Ask `(slope, high)` to explain an
    /// increase, `(slope, low)` a decrease.
    pub fn regression_slope(series: Vec<AggregateQuery>) -> NumericalQuery {
        let t = series.len();
        assert!(t >= 2, "a slope needs at least two points");
        let mean = (t as f64 - 1.0) / 2.0;
        let denom: f64 = (0..t).map(|x| (x as f64 - mean).powi(2)).sum();
        let mut expr: Option<NumExpr> = None;
        for (j, x) in (0..t).enumerate() {
            let coeff = (x as f64 - mean) / denom;
            let term = NumExpr::mul(NumExpr::Const(coeff), NumExpr::Agg(j));
            expr = Some(match expr {
                None => term,
                Some(acc) => NumExpr::Add(Box::new(acc), Box::new(term)),
            });
        }
        NumericalQuery {
            aggregates: series,
            expr: expr.expect("t >= 2"),
            smoothing: 0.0,
        }
    }

    /// Set the smoothing constant (builder style).
    pub fn with_smoothing(mut self, eps: f64) -> NumericalQuery {
        self.smoothing = eps;
        self
    }

    /// Number of aggregate sub-queries (`m`).
    pub fn arity(&self) -> usize {
        self.aggregates.len()
    }

    /// Evaluate `E` on pre-computed aggregate values, applying smoothing.
    pub fn combine(&self, vals: &[f64]) -> f64 {
        self.combine_by(|i| vals[i])
    }

    /// [`NumericalQuery::combine`] with aggregate `i`'s value given by
    /// `val(i)`, so a caller deriving the values (`u_j − v_j`) need not
    /// store them first.
    pub fn combine_by(&self, val: impl Fn(usize) -> f64) -> f64 {
        if self.smoothing == 0.0 {
            self.expr.eval_by(&val)
        } else {
            self.expr.eval_by(&|i| val(i) + self.smoothing)
        }
    }

    /// Evaluate all aggregates over a pre-computed universal relation, in
    /// one pass ([`NumericalQuery::fold`] without positions).
    pub fn aggregate_values(&self, db: &Database, u: &Universal) -> Result<Vec<f64>> {
        Ok(self.fold(db, u, false)?.values)
    }

    /// Every `q_j(D)` in one pass over `u` — each bit-identical to
    /// [`AggregateQuery::eval`] — and, with `keep_positions`, the
    /// positions of the tuples each `q_j`'s selection keeps. The m
    /// selections are compiled together ([`evaluate_many`]): each distinct
    /// atom is evaluated once per relation row into a bit word, and each
    /// selection is decided from the OR of a tuple's row words. Line 1 of
    /// Algorithm 1 keeps the positions so its cubes never evaluate a
    /// selection; an [`crate::explainer::Explainer`] runs it once and
    /// reads both `Q(D)` and `M` from it.
    pub fn fold(&self, db: &Database, u: &Universal, keep_positions: bool) -> Result<Folded> {
        let pairs: Vec<(&Predicate, &AggFunc)> = self
            .aggregates
            .iter()
            .map(|q| (&q.selection, &q.func))
            .collect();
        evaluate_many(db, u, &pairs, keep_positions)
    }

    /// Evaluate `Q` over a pre-computed universal relation.
    pub fn eval_universal(&self, db: &Database, u: &Universal) -> Result<f64> {
        Ok(self.combine(&self.aggregate_values(db, u)?))
    }

    /// Evaluate `Q` on a database view (`D`, `D − Δ`, …), computing its
    /// universal relation.
    pub fn eval_view(&self, db: &Database, view: &View) -> Result<f64> {
        let u = Universal::compute(db, view);
        self.eval_universal(db, &u)
    }

    /// Evaluate `Q` on the full database.
    pub fn eval(&self, db: &Database) -> Result<f64> {
        self.eval_view(db, &db.full_view())
    }
}

/// Is the observed value higher or lower than the user expected?
/// (Definition 2.1.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// The user thinks `Q` is higher than expected.
    High,
    /// The user thinks `Q` is lower than expected.
    Low,
}

impl Direction {
    /// Sign applied to `Q(D − Δ^φ)` in `μ_interv` (Definition 2.7):
    /// interventions should move `Q` *against* the direction.
    pub fn interv_sign(self) -> f64 {
        match self {
            Direction::Low => 1.0,
            Direction::High => -1.0,
        }
    }

    /// Sign applied to `Q(D_φ)` in `μ_aggr` (Definition 2.4): aggravation
    /// should move `Q` *along* the direction.
    pub fn aggr_sign(self) -> f64 {
        match self {
            Direction::Low => -1.0,
            Direction::High => 1.0,
        }
    }
}

/// A user question `(Q, dir)` (Definition 2.1).
#[derive(Debug, Clone, PartialEq)]
pub struct UserQuestion {
    /// The numerical query.
    pub query: NumericalQuery,
    /// The direction of surprise.
    pub direction: Direction,
}

impl UserQuestion {
    /// Pair a query with a direction.
    pub fn new(query: NumericalQuery, direction: Direction) -> UserQuestion {
        UserQuestion { query, direction }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exq_relstore::{SchemaBuilder, ValueType as T};

    fn db() -> Database {
        let schema = SchemaBuilder::new()
            .relation("R", &[("id", T::Int), ("g", T::Str)], &["id"])
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        for (i, g) in ["a", "a", "a", "b"].iter().enumerate() {
            db.insert("R", vec![(i as i64).into(), (*g).into()])
                .unwrap();
        }
        db
    }

    #[test]
    fn expr_eval() {
        let e = NumExpr::div(
            NumExpr::Add(Box::new(NumExpr::Agg(0)), Box::new(NumExpr::Const(1.0))),
            NumExpr::Agg(1),
        );
        assert_eq!(e.eval(&[3.0, 2.0]), 2.0);
        assert_eq!(e.max_agg_index(), Some(1));
        assert_eq!(NumExpr::Const(5.0).max_agg_index(), None);
        assert_eq!(NumExpr::Log(Box::new(NumExpr::Const(1.0))).eval(&[]), 0.0);
        assert_eq!(NumExpr::Exp(Box::new(NumExpr::Const(0.0))).eval(&[]), 1.0);
        assert_eq!(NumExpr::Neg(Box::new(NumExpr::Agg(0))).eval(&[2.0]), -2.0);
        assert_eq!(
            NumExpr::Sub(Box::new(NumExpr::Agg(0)), Box::new(NumExpr::Agg(1))).eval(&[5.0, 2.0]),
            3.0
        );
        assert_eq!(
            NumExpr::mul(NumExpr::Const(3.0), NumExpr::Const(4.0)).eval(&[]),
            12.0
        );
    }

    #[test]
    fn new_checks_agg_indices() {
        let q = AggregateQuery::count_star(Predicate::True);
        assert!(NumericalQuery::new(vec![q.clone()], NumExpr::Agg(0)).is_ok());
        assert!(NumericalQuery::new(vec![q], NumExpr::Agg(1)).is_err());
    }

    #[test]
    fn ratio_query_on_data() {
        let db = db();
        let g = db.schema().attr("R", "g").unwrap();
        let q = NumericalQuery::ratio(
            AggregateQuery::count_star(Predicate::eq(g, "a")),
            AggregateQuery::count_star(Predicate::eq(g, "b")),
        );
        assert_eq!(q.eval(&db).unwrap(), 3.0);
        assert_eq!(q.arity(), 2);
    }

    #[test]
    fn division_by_zero_yields_infinity_without_smoothing() {
        let db = db();
        let g = db.schema().attr("R", "g").unwrap();
        let q = NumericalQuery::ratio(
            AggregateQuery::count_star(Predicate::eq(g, "a")),
            AggregateQuery::count_star(Predicate::eq(g, "zzz")),
        );
        assert!(q.eval(&db).unwrap().is_infinite());
        let smoothed = q.with_smoothing(1e-4);
        assert!(smoothed.eval(&db).unwrap().is_finite());
    }

    #[test]
    fn double_ratio_shape() {
        let db = db();
        let g = db.schema().attr("R", "g").unwrap();
        let a = AggregateQuery::count_star(Predicate::eq(g, "a"));
        let b = AggregateQuery::count_star(Predicate::eq(g, "b"));
        let q = NumericalQuery::double_ratio(a.clone(), b.clone(), b, a);
        // (3/1)/(1/3) = 9
        assert_eq!(q.eval(&db).unwrap(), 9.0);
        assert_eq!(q.arity(), 4);
    }

    #[test]
    fn regression_slope_matches_least_squares() {
        // Perfectly linear series y = 2x + 1 → slope 2.
        let q = NumericalQuery::regression_slope(vec![
            AggregateQuery::count_star(Predicate::True),
            AggregateQuery::count_star(Predicate::True),
            AggregateQuery::count_star(Predicate::True),
            AggregateQuery::count_star(Predicate::True),
        ]);
        let slope = q.combine(&[1.0, 3.0, 5.0, 7.0]);
        assert!((slope - 2.0).abs() < 1e-12);
        // Flat series → slope 0; decreasing → negative.
        assert!(q.combine(&[4.0, 4.0, 4.0, 4.0]).abs() < 1e-12);
        assert!(q.combine(&[9.0, 6.0, 4.0, 1.0]) < 0.0);
        // Two points: slope = y1 − y0.
        let q2 = NumericalQuery::regression_slope(vec![
            AggregateQuery::count_star(Predicate::True),
            AggregateQuery::count_star(Predicate::True),
        ]);
        assert!((q2.combine(&[1.0, 4.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn regression_slope_over_data() {
        // Counts per group g: a → 3, b → 1; series (count(a), count(b))
        // decreases, so the slope is negative.
        let db = db();
        let g = db.schema().attr("R", "g").unwrap();
        let q = NumericalQuery::regression_slope(vec![
            AggregateQuery::count_star(Predicate::eq(g, "a")),
            AggregateQuery::count_star(Predicate::eq(g, "b")),
        ]);
        assert_eq!(q.eval(&db).unwrap(), -2.0);
    }

    #[test]
    #[should_panic(expected = "at least two points")]
    fn regression_slope_needs_two_points() {
        NumericalQuery::regression_slope(vec![AggregateQuery::count_star(Predicate::True)]);
    }

    #[test]
    fn fold_is_every_aggregate_in_one_pass() {
        let db = db();
        let u = Universal::compute(&db, &db.full_view());
        let g = db.schema().attr("R", "g").unwrap();
        let q = NumericalQuery::ratio(
            AggregateQuery::count_star(Predicate::eq(g, "a")),
            AggregateQuery::count_star(Predicate::eq(g, "b")),
        );
        let folded = q.fold(&db, &u, true).unwrap();
        assert_eq!(folded.values, vec![3.0, 1.0]);
        assert_eq!(folded.positions, vec![vec![0, 1, 2], vec![3]]);
        assert_eq!(q.aggregate_values(&db, &u).unwrap(), folded.values);
    }

    #[test]
    fn combine_by_smooths_each_derived_value_once() {
        let (u, v) = ([5.0, 3.0, 4.0, 2.0], [1.0, 0.0, 2.0, -0.0]);
        let q = |s: f64| {
            NumericalQuery::double_ratio(
                AggregateQuery::count_star(Predicate::True),
                AggregateQuery::count_star(Predicate::True),
                AggregateQuery::count_star(Predicate::True),
                AggregateQuery::count_star(Predicate::True),
            )
            .with_smoothing(s)
        };
        let s = 1e-4;
        let r = |j: usize| (u[j] - v[j]) + s;
        let want = (r(0) / r(1)) / (r(2) / r(3));
        assert_eq!(q(s).combine_by(|j| u[j] - v[j]).to_bits(), want.to_bits());
        // Without smoothing a value is used as is: -0.0 stays -0.0.
        let single = NumericalQuery::single(AggregateQuery::count_star(Predicate::True));
        assert_eq!(single.combine(&[-0.0]).to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn direction_signs() {
        assert_eq!(Direction::High.interv_sign(), -1.0);
        assert_eq!(Direction::Low.interv_sign(), 1.0);
        assert_eq!(Direction::High.aggr_sign(), 1.0);
        assert_eq!(Direction::Low.aggr_sign(), -1.0);
    }

    #[test]
    fn eval_on_view_respects_live_set() {
        let db = db();
        let q = NumericalQuery::single(AggregateQuery::count_star(Predicate::True));
        let mut delta = db.empty_delta();
        delta[0].insert(0);
        delta[0].insert(3);
        assert_eq!(q.eval_view(&db, &db.view_minus(&delta)).unwrap(), 2.0);
    }
}
