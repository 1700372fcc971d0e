//! Aggregate functions over (filtered) universal relations.
//!
//! Each of the paper's sub-queries `q_j` is a single-aggregate SQL query
//! over the universal relation: `SELECT agg(…) FROM R_1 ⋈ … ⋈ R_k WHERE
//! selection`. [`AggFunc`] is the aggregate; evaluation filters universal
//! tuples by the selection predicate and folds an [`AggState`].

use crate::column::ColumnStore;
use crate::database::Database;
use crate::dict::Dict;
use crate::error::{Error, Result};
use crate::join::Universal;
use crate::lookup::LookupSet;
use crate::predicate::Predicate;
use crate::schema::{AttrRef, DatabaseSchema};
use crate::value::{Value, ValueType};

/// An aggregate function.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// `COUNT(*)` over universal tuples.
    CountStar,
    /// `COUNT(DISTINCT attr)`.
    CountDistinct(AttrRef),
    /// `SUM(attr)` (numeric attr).
    Sum(AttrRef),
    /// `AVG(attr)` (numeric attr).
    Avg(AttrRef),
    /// `MIN(attr)` (numeric attr).
    Min(AttrRef),
    /// `MAX(attr)` (numeric attr).
    Max(AttrRef),
}

impl AggFunc {
    /// The attribute aggregated over, if any.
    pub fn attr(&self) -> Option<AttrRef> {
        match self {
            AggFunc::CountStar => None,
            AggFunc::CountDistinct(a)
            | AggFunc::Sum(a)
            | AggFunc::Avg(a)
            | AggFunc::Min(a)
            | AggFunc::Max(a) => Some(*a),
        }
    }

    /// Check the aggregated attribute is numeric where required.
    pub fn validate(&self, schema: &DatabaseSchema) -> Result<()> {
        match self {
            AggFunc::CountStar | AggFunc::CountDistinct(_) => Ok(()),
            AggFunc::Sum(a) | AggFunc::Avg(a) | AggFunc::Min(a) | AggFunc::Max(a) => {
                let ty = schema.relation(a.rel).attributes[a.col].ty;
                if matches!(ty, ValueType::Int | ValueType::Float | ValueType::Any) {
                    Ok(())
                } else {
                    Err(Error::NotNumeric(schema.attr_name(*a)))
                }
            }
        }
    }

    /// A fresh accumulator for this function.
    pub fn new_state(&self) -> AggState {
        match self {
            AggFunc::CountStar => AggState::Count(0),
            AggFunc::CountDistinct(_) => AggState::DistinctCodes(LookupSet::new()),
            AggFunc::Sum(_) => AggState::Sum { int: 0, float: 0.0 },
            AggFunc::Avg(_) => AggState::Avg {
                int: 0,
                float: 0.0,
                n: 0,
            },
            AggFunc::Min(_) => AggState::Min(None),
            AggFunc::Max(_) => AggState::Max(None),
        }
    }

    /// Whether roll-up merging of two states loses nothing (distributive or
    /// algebraic aggregates). True for every [`AggFunc`] — COUNT DISTINCT
    /// keeps its key set in the state precisely so it merges exactly.
    pub fn mergeable(&self) -> bool {
        true
    }

    /// Compile this aggregate against a column store for a hot loop.
    ///
    /// The only shape that changes is `COUNT(DISTINCT a)`, whose column
    /// lookup is hoisted out of the per-tuple update. Every other
    /// aggregate delegates to the uncompiled update path.
    pub fn compile<'a>(&'a self, store: &'a ColumnStore) -> AggEval<'a> {
        let distinct = match self {
            AggFunc::CountDistinct(a) => {
                let (codes, dict) = store.dict_column(*a);
                Some((a.rel, codes, dict))
            }
            _ => None,
        };
        AggEval {
            func: self,
            distinct,
        }
    }
}

/// An aggregate resolved against a column store — see [`AggFunc::compile`].
pub struct AggEval<'a> {
    func: &'a AggFunc,
    /// For `CountDistinct`: the aggregated column's (relation, codes, dict).
    distinct: Option<(usize, &'a [u32], &'a Dict)>,
}

impl AggEval<'_> {
    /// Fold one universal tuple into `state`.
    #[inline]
    pub fn update(&self, state: &mut AggState, db: &Database, utuple: &[u32]) -> Result<()> {
        match (state, self.distinct) {
            (AggState::DistinctCodes(set), Some((rel, codes, dict))) => {
                let code = codes[utuple[rel] as usize];
                if !dict.is_null_code(code) {
                    set.insert(code);
                }
                Ok(())
            }
            (state, _) => state.update(self.func, db, utuple),
        }
    }
}

/// A mergeable accumulator for one aggregate.
///
/// SUM and AVG keep integer and float contributions in **separate
/// lanes**: `Value::Int`s accumulate exactly in an `i128` (no `i64` sum
/// of row values can overflow it — even 2⁶³·n fits for any feasible row
/// count) and `Value::Float`s in an `f64`. Folding every `Int` through
/// `Value::as_f64` — the old behaviour — silently loses precision above
/// 2⁵³: `SUM` over `[2⁵³, 1, −2⁵³]` came out 0 instead of 1. The lanes
/// combine only in [`AggState::finalize`], with a single rounding at the
/// end.
#[derive(Debug, Clone)]
pub enum AggState {
    /// COUNT(*) accumulator.
    Count(u64),
    /// SUM accumulator.
    Sum {
        /// Exact running sum of the `Value::Int` contributions.
        int: i128,
        /// Running sum of the `Value::Float` contributions.
        float: f64,
    },
    /// AVG accumulator.
    Avg {
        /// Exact running sum of the `Value::Int` contributions.
        int: i128,
        /// Running sum of the `Value::Float` contributions.
        float: f64,
        /// Running count of non-null values.
        n: u64,
    },
    /// MIN accumulator.
    Min(Option<Value>),
    /// MAX accumulator.
    Max(Option<Value>),
    /// COUNT DISTINCT accumulator: the set of dictionary codes seen, nulls
    /// skipped. Exact — the dictionary assigns one code per `Value`
    /// equivalence class — and it keeps the key set so roll-up merges stay
    /// correct.
    DistinctCodes(LookupSet<u32>),
}

impl AggState {
    /// Fold one universal tuple into the state.
    #[inline]
    pub fn update(&mut self, func: &AggFunc, db: &Database, utuple: &[u32]) -> Result<()> {
        let attr_value = |a: AttrRef| db.value(a, utuple[a.rel] as usize);
        match (self, func) {
            (AggState::Count(c), AggFunc::CountStar) => *c += 1,
            (AggState::DistinctCodes(set), AggFunc::CountDistinct(a)) => {
                let (codes, dict) = db.columns().dict_column(*a);
                let code = codes[utuple[a.rel] as usize];
                if !dict.is_null_code(code) {
                    set.insert(code);
                }
            }
            (AggState::Sum { int, float }, AggFunc::Sum(a)) => match attr_value(*a) {
                Value::Null => {}
                Value::Int(i) => *int += i128::from(*i),
                Value::Float(f) => *float += f,
                _ => return Err(Error::NotNumeric(db.schema().attr_name(*a))),
            },
            (AggState::Avg { int, float, n }, AggFunc::Avg(a)) => match attr_value(*a) {
                Value::Null => {}
                Value::Int(i) => {
                    *int += i128::from(*i);
                    *n += 1;
                }
                Value::Float(f) => {
                    *float += f;
                    *n += 1;
                }
                _ => return Err(Error::NotNumeric(db.schema().attr_name(*a))),
            },
            (AggState::Min(m), AggFunc::Min(a)) => {
                let v = attr_value(*a);
                if !v.is_null() && m.as_ref().is_none_or(|cur| v < cur) {
                    *m = Some(v.clone());
                }
            }
            (AggState::Max(m), AggFunc::Max(a)) => {
                let v = attr_value(*a);
                if !v.is_null() && m.as_ref().is_none_or(|cur| v > cur) {
                    *m = Some(v.clone());
                }
            }
            (state, func) => unreachable!("state {state:?} does not match function {func:?}"),
        }
        Ok(())
    }

    /// Merge another state of the same shape into this one (roll-up).
    pub fn merge(&mut self, other: &AggState) {
        match (self, other) {
            (AggState::Count(a), AggState::Count(b)) => *a += b,
            (AggState::Sum { int: i1, float: f1 }, AggState::Sum { int: i2, float: f2 }) => {
                *i1 += i2;
                *f1 += f2;
            }
            (
                AggState::Avg {
                    int: i1,
                    float: f1,
                    n: n1,
                },
                AggState::Avg {
                    int: i2,
                    float: f2,
                    n: n2,
                },
            ) => {
                *i1 += i2;
                *f1 += f2;
                *n1 += n2;
            }
            (AggState::Min(a), AggState::Min(b)) => {
                if let Some(bv) = b {
                    if a.as_ref().is_none_or(|av| bv < av) {
                        *a = Some(bv.clone());
                    }
                }
            }
            (AggState::Max(a), AggState::Max(b)) => {
                if let Some(bv) = b {
                    if a.as_ref().is_none_or(|av| bv > av) {
                        *a = Some(bv.clone());
                    }
                }
            }
            (AggState::DistinctCodes(a), AggState::DistinctCodes(b)) => {
                #[expect(clippy::disallowed_methods, reason = "a set union is order-free")]
                a.extend(b.iter_unordered().copied());
            }
            (a, b) => unreachable!("cannot merge {a:?} with {b:?}"),
        }
    }

    /// Extract the numeric result. Empty MIN/MAX/AVG yield SQL-null, which
    /// the numerical-query layer treats as 0 (the paper's outer-join
    /// convention: explanations missing from a cube count as zero).
    pub fn finalize(&self) -> f64 {
        match self {
            AggState::Count(c) => *c as f64,
            AggState::Sum { int, float } => sum_finalize(*int, *float),
            AggState::Avg { int, float, n } => {
                if *n == 0 {
                    0.0
                } else {
                    sum_finalize(*int, *float) / *n as f64
                }
            }
            AggState::Min(v) | AggState::Max(v) => {
                v.as_ref().and_then(Value::as_f64).unwrap_or(0.0)
            }
            AggState::DistinctCodes(set) => set.len() as f64,
        }
    }
}

/// Combine the two sum lanes with one rounding. The `int == 0` branch
/// returns the float lane untouched so pure-float sums keep their exact
/// bit pattern (adding `0.0` would e.g. turn `-0.0` into `+0.0`).
fn sum_finalize(int: i128, float: f64) -> f64 {
    if int == 0 {
        float
    } else {
        int as f64 + float
    }
}

/// Evaluate `func` over the universal tuples of `u` that satisfy
/// `selection`.
///
/// The selection is compiled against the column store first
/// ([`crate::ColumnStore::compile_predicate`]) so each atom costs two
/// array loads per tuple instead of a `Value` comparison; the compiled
/// form returns bit-identical decisions, so this is unobservable apart
/// from speed.
pub fn evaluate(
    db: &Database,
    u: &Universal,
    selection: &Predicate,
    func: &AggFunc,
) -> Result<f64> {
    Ok(evaluate_many(db, u, &[(selection, func)], false)?.values[0])
}

/// Several aggregates over one universal relation, folded in one pass by
/// [`evaluate_many`].
#[derive(Debug, Clone, PartialEq)]
pub struct Folded {
    /// Each aggregate's value over the tuples its selection keeps.
    pub values: Vec<f64>,
    /// Per aggregate, the positions in `u` of those tuples, ascending;
    /// empty unless asked for.
    pub positions: Vec<Vec<u32>>,
}

/// Evaluate every `(selection, func)` pair over `u` in one sequential
/// pass: each tuple is tested against every compiled selection, and each
/// aggregate folds the tuples its selection keeps in tuple order — the
/// order [`evaluate`] folds in, so every value is bit-identical to
/// evaluating its pair alone. With `keep_positions`, the pass also
/// records which tuples each selection kept, so a consumer that groups
/// exactly those tuples (Algorithm 1's cubes) never evaluates the
/// selection again.
///
/// The error is the one evaluating the pairs one by one, in order, would
/// return: the first failing pair's, at its first failing tuple.
///
/// # Panics
///
/// With `keep_positions`, if `u` has more tuples than a `u32` addresses.
pub fn evaluate_many(
    db: &Database,
    u: &Universal,
    queries: &[(&Predicate, &AggFunc)],
    keep_positions: bool,
) -> Result<Folded> {
    let store = std::sync::Arc::clone(db.columns());
    let compiled: Vec<_> = queries
        .iter()
        .map(|&(selection, func)| (store.compile_predicate(selection), func.compile(&store)))
        .collect();
    let mut states: Vec<AggState> = queries.iter().map(|(_, f)| f.new_state()).collect();
    let mut positions = vec![Vec::new(); if keep_positions { queries.len() } else { 0 }];
    if keep_positions {
        assert!(
            u32::try_from(u.len()).is_ok(),
            "universal positions must fit in u32"
        );
    }
    let mut failed: Option<(usize, Error)> = None;
    for (i, t) in u.iter().enumerate() {
        for (j, ((selection, agg), state)) in compiled.iter().zip(&mut states).enumerate() {
            if !selection.eval(t) {
                continue;
            }
            if let Err(e) = agg.update(state, db, t) {
                if failed.as_ref().is_none_or(|&(k, _)| j < k) {
                    failed = Some((j, e));
                }
            }
            if keep_positions {
                positions[j].push(i as u32);
            }
        }
    }
    if let Some((_, e)) = failed {
        return Err(e);
    }
    Ok(Folded {
        values: states.iter().map(AggState::finalize).collect(),
        positions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::SchemaBuilder;
    use crate::value::ValueType as T;

    fn db() -> Database {
        let schema = SchemaBuilder::new()
            .relation("R", &[("g", T::Str), ("x", T::Int)], &["g", "x"])
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        for (g, x) in [("a", 1), ("a", 2), ("b", 3), ("b", 3), ("c", 10)] {
            db.insert("R", vec![g.into(), x.into()]).unwrap();
        }
        db
    }

    fn x(db: &Database) -> AttrRef {
        db.schema().attr("R", "x").unwrap()
    }
    fn g(db: &Database) -> AttrRef {
        db.schema().attr("R", "g").unwrap()
    }

    #[test]
    fn count_star() {
        let db = db();
        let u = Universal::compute(&db, &db.full_view());
        assert_eq!(
            evaluate(&db, &u, &Predicate::True, &AggFunc::CountStar).unwrap(),
            5.0
        );
        let sel = Predicate::eq(g(&db), "a");
        assert_eq!(evaluate(&db, &u, &sel, &AggFunc::CountStar).unwrap(), 2.0);
    }

    #[test]
    fn count_distinct() {
        let db = db();
        let u = Universal::compute(&db, &db.full_view());
        assert_eq!(
            evaluate(&db, &u, &Predicate::True, &AggFunc::CountDistinct(x(&db))).unwrap(),
            4.0,
            "values 1,2,3,10"
        );
        assert_eq!(
            evaluate(&db, &u, &Predicate::True, &AggFunc::CountDistinct(g(&db))).unwrap(),
            3.0
        );
    }

    #[test]
    fn sum_avg_min_max() {
        let db = db();
        let u = Universal::compute(&db, &db.full_view());
        assert_eq!(
            evaluate(&db, &u, &Predicate::True, &AggFunc::Sum(x(&db))).unwrap(),
            19.0
        );
        assert_eq!(
            evaluate(&db, &u, &Predicate::True, &AggFunc::Avg(x(&db))).unwrap(),
            3.8
        );
        assert_eq!(
            evaluate(&db, &u, &Predicate::True, &AggFunc::Min(x(&db))).unwrap(),
            1.0
        );
        assert_eq!(
            evaluate(&db, &u, &Predicate::True, &AggFunc::Max(x(&db))).unwrap(),
            10.0
        );
    }

    #[test]
    fn empty_selection_finalizes_to_zero() {
        let db = db();
        let u = Universal::compute(&db, &db.full_view());
        let none = Predicate::False;
        for f in [
            AggFunc::CountStar,
            AggFunc::CountDistinct(x(&db)),
            AggFunc::Sum(x(&db)),
            AggFunc::Avg(x(&db)),
            AggFunc::Min(x(&db)),
            AggFunc::Max(x(&db)),
        ] {
            assert_eq!(evaluate(&db, &u, &none, &f).unwrap(), 0.0);
        }
    }

    #[test]
    fn sum_is_exact_beyond_f64_precision() {
        // 2^53 + 1 is not representable in f64: the old f64-lane-only sum
        // computed (2^53 + 1) - 2^53 = 0. The i128 lane gets 1 exactly.
        let schema = SchemaBuilder::new()
            .relation("R", &[("id", T::Int), ("x", T::Int)], &["id"])
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        let big = 1i64 << 53;
        for (id, x) in [(1, big), (2, 1), (3, -big)] {
            db.insert("R", vec![id.into(), x.into()]).unwrap();
        }
        let u = Universal::compute(&db, &db.full_view());
        let x = db.schema().attr("R", "x").unwrap();
        assert_eq!(
            evaluate(&db, &u, &Predicate::True, &AggFunc::Sum(x)).unwrap(),
            1.0
        );
        assert_eq!(
            evaluate(&db, &u, &Predicate::True, &AggFunc::Avg(x)).unwrap(),
            1.0 / 3.0
        );
    }

    #[test]
    fn pure_float_sum_keeps_bit_pattern() {
        // The zero int lane must not contaminate a float-only sum: the
        // result is bit-identical to the plain left-to-right f64 fold the
        // single-lane accumulator used to compute (0.1 + 0.2 + 0.3 is not
        // 0.6, and finalize must not add any rounding of its own).
        let schema = SchemaBuilder::new()
            .relation("R", &[("id", T::Int), ("x", T::Float)], &["id"])
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        for (id, x) in [(1, 0.1), (2, 0.2), (3, 0.3)] {
            db.insert("R", vec![id.into(), Value::Float(x)]).unwrap();
        }
        let u = Universal::compute(&db, &db.full_view());
        let x = db.schema().attr("R", "x").unwrap();
        let s = evaluate(&db, &u, &Predicate::True, &AggFunc::Sum(x)).unwrap();
        assert_eq!(s.to_bits(), (0.0f64 + 0.1 + 0.2 + 0.3).to_bits());
    }

    #[test]
    fn mixed_int_float_sum_rounds_once() {
        let schema = SchemaBuilder::new()
            .relation("R", &[("id", T::Int), ("x", T::Any)], &["id"])
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        db.insert("R", vec![1.into(), Value::Int(1 << 53)]).unwrap();
        db.insert("R", vec![2.into(), Value::Float(0.5)]).unwrap();
        db.insert("R", vec![3.into(), Value::Int(1)]).unwrap();
        let u = Universal::compute(&db, &db.full_view());
        let x = db.schema().attr("R", "x").unwrap();
        let s = evaluate(&db, &u, &Predicate::True, &AggFunc::Sum(x)).unwrap();
        // Exactly ((2^53 + 1) as f64) + 0.5, one rounding at the end.
        assert_eq!(s, ((1i128 << 53) + 1) as f64 + 0.5);
    }

    #[test]
    fn validate_rejects_sum_over_strings() {
        let db = db();
        assert!(AggFunc::Sum(g(&db)).validate(db.schema()).is_err());
        assert!(AggFunc::Sum(x(&db)).validate(db.schema()).is_ok());
        assert!(AggFunc::CountDistinct(g(&db)).validate(db.schema()).is_ok());
    }

    #[test]
    fn state_merge_matches_single_pass() {
        let db = db();
        let u = Universal::compute(&db, &db.full_view());
        for f in [
            AggFunc::CountStar,
            AggFunc::CountDistinct(x(&db)),
            AggFunc::Sum(x(&db)),
            AggFunc::Avg(x(&db)),
            AggFunc::Min(x(&db)),
            AggFunc::Max(x(&db)),
        ] {
            // Split tuples into two halves, accumulate separately, merge.
            let mut s1 = f.new_state();
            let mut s2 = f.new_state();
            for (i, t) in u.iter().enumerate() {
                let s = if i % 2 == 0 { &mut s1 } else { &mut s2 };
                s.update(&f, &db, t).unwrap();
            }
            s1.merge(&s2);
            let whole = evaluate(&db, &u, &Predicate::True, &f).unwrap();
            assert_eq!(s1.finalize(), whole, "merge mismatch for {f:?}");
        }
    }

    #[test]
    fn evaluate_many_folds_each_pair_as_evaluate_does() {
        let db = db();
        let u = Universal::compute(&db, &db.full_view());
        let pairs = [
            (Predicate::eq(g(&db), "a"), AggFunc::Sum(x(&db))),
            (Predicate::True, AggFunc::CountDistinct(x(&db))),
            (Predicate::eq(g(&db), "b"), AggFunc::Avg(x(&db))),
            (Predicate::False, AggFunc::Max(x(&db))),
        ];
        let refs: Vec<(&Predicate, &AggFunc)> = pairs.iter().map(|(p, f)| (p, f)).collect();
        let folded = evaluate_many(&db, &u, &refs, true).unwrap();
        for (j, (p, f)) in pairs.iter().enumerate() {
            let alone = evaluate(&db, &u, p, f).unwrap();
            assert_eq!(folded.values[j].to_bits(), alone.to_bits(), "{f:?}");
        }
        let positions: [&[u32]; 4] = [&[0, 1], &[0, 1, 2, 3, 4], &[2, 3], &[]];
        assert_eq!(folded.positions, positions);
        let unkept = evaluate_many(&db, &u, &refs, false).unwrap();
        assert_eq!(unkept.values, folded.values);
        assert!(unkept.positions.is_empty());
    }

    #[test]
    fn evaluate_many_reports_the_first_failing_pair() {
        // Pair 1 fails on an earlier tuple than pair 0 does; evaluating
        // the pairs in order meets pair 0's failure first.
        let schema = SchemaBuilder::new()
            .relation(
                "R",
                &[("id", T::Int), ("x", T::Any), ("y", T::Any)],
                &["id"],
            )
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        db.insert("R", vec![1.into(), 1.into(), 1.into()]).unwrap();
        db.insert("R", vec![2.into(), 2.into(), "y2".into()])
            .unwrap();
        db.insert("R", vec![3.into(), "x3".into(), 3.into()])
            .unwrap();
        let u = Universal::compute(&db, &db.full_view());
        let (x, y) = (
            db.schema().attr("R", "x").unwrap(),
            db.schema().attr("R", "y").unwrap(),
        );
        let (sum_x, sum_y) = (AggFunc::Sum(x), AggFunc::Sum(y));
        let err = evaluate_many(
            &db,
            &u,
            &[(&Predicate::True, &sum_x), (&Predicate::True, &sum_y)],
            true,
        )
        .unwrap_err();
        assert_eq!(err, Error::NotNumeric("R.x".to_string()));
    }

    #[test]
    fn nulls_ignored_by_value_aggregates() {
        let schema = SchemaBuilder::new()
            .relation("R", &[("id", T::Int), ("x", T::Int)], &["id"])
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        db.insert("R", vec![1.into(), 5.into()]).unwrap();
        db.insert("R", vec![2.into(), Value::Null]).unwrap();
        let u = Universal::compute(&db, &db.full_view());
        let x = db.schema().attr("R", "x").unwrap();
        assert_eq!(
            evaluate(&db, &u, &Predicate::True, &AggFunc::CountStar).unwrap(),
            2.0
        );
        assert_eq!(
            evaluate(&db, &u, &Predicate::True, &AggFunc::CountDistinct(x)).unwrap(),
            1.0
        );
        assert_eq!(
            evaluate(&db, &u, &Predicate::True, &AggFunc::Avg(x)).unwrap(),
            5.0
        );
        assert_eq!(
            evaluate(&db, &u, &Predicate::True, &AggFunc::Min(x)).unwrap(),
            5.0
        );
    }
}
