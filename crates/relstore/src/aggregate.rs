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
use crate::predicate::{Atom, Predicate};
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

    /// Compile this aggregate against a column store for a hot loop.
    ///
    /// `COUNT(DISTINCT a)` resolves its column's codes and dictionary here,
    /// once, instead of per tuple; every other aggregate reads its
    /// attribute's value per tuple.
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
        let attr_value = |a: AttrRef| db.value(a, utuple[a.rel] as usize);
        match (state, self.func, self.distinct) {
            (AggState::Count(c), AggFunc::CountStar, _) => *c += 1,
            (AggState::DistinctCodes(set), AggFunc::CountDistinct(_), Some((rel, codes, dict))) => {
                let code = codes[utuple[rel] as usize];
                if !dict.is_null_code(code) {
                    set.insert(code);
                }
            }
            (AggState::Sum { int, float }, AggFunc::Sum(a), _) => match attr_value(*a) {
                Value::Null => {}
                Value::Int(i) => *int += i128::from(*i),
                Value::Float(f) => *float += f,
                _ => return Err(Error::NotNumeric(db.schema().attr_name(*a))),
            },
            (AggState::Avg { int, float, n }, AggFunc::Avg(a), _) => match attr_value(*a) {
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
            (AggState::Min(m), AggFunc::Min(a), _) => {
                let v = attr_value(*a);
                if !v.is_null() && m.as_ref().is_none_or(|cur| v < cur) {
                    *m = Some(v.clone());
                }
            }
            (AggState::Max(m), AggFunc::Max(a), _) => {
                let v = attr_value(*a);
                if !v.is_null() && m.as_ref().is_none_or(|cur| v > cur) {
                    *m = Some(v.clone());
                }
            }
            (state, func, _) => unreachable!("state {state:?} does not match function {func:?}"),
        }
        Ok(())
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
/// `selection`: [`evaluate_many`] with one pair, so the selection is
/// decided from per-relation atom words rather than a `Value` comparison
/// per tuple, with bit-identical results.
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
/// pass, with the selections compiled together into bit tests:
///
/// - every distinct atom of the selections gets a bit, the atoms of one
///   relation on adjacent bits;
/// - each relation with atoms gets a word per row (more than one past 64
///   atoms), filled by one sequential pass per attribute over its code
///   column through a per-code word of atom outcomes;
/// - a tuple's word is the OR of one row word per such relation, and each
///   selection is a test on it: a conjunction of atoms is
///   `w & need == need`, and `Or` and `Not` combine such tests.
///
/// The bits are exact, not close: `Value`'s equality and order are the
/// total order, every [`crate::predicate::CmpOp`] therefore depends only
/// on a value's total-order class, and a dictionary assigns one code per
/// class — so each test decides what [`Predicate::eval`] decides.
///
/// `U` is scanned in blocks of 64 tuples: the block's words, then per
/// selection a 64-bit mask of the tuples it keeps (the combinators are
/// `&`, `|` and `!` on masks), then the aggregate folds those tuples.
/// So each aggregate still folds the tuples its selection keeps in tuple
/// order — the order [`evaluate`] folds in, and every value is
/// bit-identical to evaluating its pair alone. `COUNT(DISTINCT a)` marks
/// the codes it meets in a dense bitset, since codes run from 0 to the
/// dictionary's length. With `keep_positions`, the pass also records
/// which tuples each selection kept, so a consumer that groups exactly
/// those tuples (Algorithm 1's cubes) never evaluates the selection
/// again.
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
    if keep_positions {
        assert!(
            u32::try_from(u.len()).is_ok(),
            "universal positions must fit in u32"
        );
    }
    let store = std::sync::Arc::clone(db.columns());
    let selections: Vec<&Predicate> = queries.iter().map(|&(p, _)| p).collect();
    let selections = Selections::compile(&store, &selections);
    let mut folds: Vec<Fold<'_>> = queries
        .iter()
        .map(|&(_, func)| Fold::new(func, &store))
        .collect();
    let mut positions = vec![Vec::new(); if keep_positions { queries.len() } else { 0 }];
    let mut failed: Option<(usize, Error)> = None;
    let width = selections.width;
    let mut columns: Vec<_> = selections.rels.iter().map(|r| u.column(r.rel)).collect();
    let mut words = vec![0u64; BLOCK * width];
    for start in (0..u.len()).step_by(BLOCK) {
        let n = BLOCK.min(u.len() - start);
        let words = &mut words[..n * width];
        words.fill(0);
        for (r, column) in selections.rels.iter().zip(&mut columns) {
            r.or_into(words, width, column.by_ref().take(n));
        }
        let block = if n == BLOCK { !0 } else { (1 << n) - 1 };
        for (j, (test, fold)) in selections.tests.iter().zip(&mut folds).enumerate() {
            let mut kept = test.eval(words, width, block);
            while kept != 0 {
                let i = start + kept.trailing_zeros() as usize;
                kept &= kept - 1;
                if let Err(e) = fold.update(db, u.tuple(i)) {
                    if failed.as_ref().is_none_or(|&(k, _)| j < k) {
                        failed = Some((j, e));
                    }
                }
                if keep_positions {
                    positions[j].push(i as u32);
                }
            }
        }
    }
    if let Some((_, e)) = failed {
        return Err(e);
    }
    Ok(Folded {
        values: folds.iter().map(Fold::finalize).collect(),
        positions,
    })
}

/// Tuples per block of [`evaluate_many`]'s scan: one bit each of a
/// selection's keep mask.
const BLOCK: usize = 64;

/// The selections of one [`evaluate_many`] call, compiled together.
struct Selections {
    /// Words per universal tuple: one bit per distinct atom, and at least
    /// one word. One word (up to 64 atoms) is the common case, and the
    /// loops below give it its own arm: through the general one a fold
    /// measured 1.8–3x slower.
    width: usize,
    /// The row words of each relation with atoms.
    rels: Vec<RowWords>,
    /// One test per selection, on a tuple's words.
    tests: Vec<BitTest>,
}

impl Selections {
    fn compile(store: &ColumnStore, selections: &[&Predicate]) -> Selections {
        let mut atoms: Vec<&Atom> = Vec::new();
        for p in selections {
            collect_atoms(p, &mut atoms);
        }
        // Stable: one attribute's atoms, and so one relation's, are
        // adjacent bits.
        atoms.sort_by_key(|a| a.attr);
        let width = atoms.len().div_ceil(64).max(1);
        let mut rels = Vec::new();
        let mut bit = 0;
        for group in atoms.chunk_by(|a, b| a.attr.rel == b.attr.rel) {
            rels.push(RowWords::fill(store, group, bit));
            bit += group.len();
        }
        let tests = selections
            .iter()
            .map(|p| BitTest::compile(p, &atoms, width))
            .collect();
        Selections { width, rels, tests }
    }
}

/// Push each atom of `p` not already in `atoms`.
fn collect_atoms<'p>(p: &'p Predicate, atoms: &mut Vec<&'p Atom>) {
    match p {
        Predicate::True | Predicate::False => {}
        Predicate::Atom(a) => {
            if !atoms.contains(&a) {
                atoms.push(a);
            }
        }
        Predicate::And(ps) | Predicate::Or(ps) => {
            for p in ps {
                collect_atoms(p, atoms);
            }
        }
        Predicate::Not(p) => collect_atoms(p, atoms),
    }
}

/// One relation's atom outcomes: the bits of row `r` in tuple words
/// `first..first + width` are `words[r·width..(r + 1)·width]`.
struct RowWords {
    rel: usize,
    first: usize,
    width: usize,
    words: Vec<u64>,
}

impl RowWords {
    /// Evaluate `atoms` — all on one relation, sorted by attribute,
    /// numbered from bit `first_bit` on — over every row of the relation:
    /// per attribute, each code's word once, then one pass over the code
    /// column.
    fn fill(store: &ColumnStore, atoms: &[&Atom], first_bit: usize) -> RowWords {
        let first = first_bit / 64;
        let width = (first_bit + atoms.len() - 1) / 64 + 1 - first;
        let rows = store.dict_column(atoms[0].attr).0.len();
        let mut words = vec![0u64; rows * width];
        let mut bit = first_bit - first * 64;
        for same_attr in atoms.chunk_by(|a, b| a.attr == b.attr) {
            let (codes, dict) = store.dict_column(same_attr[0].attr);
            let mut per_code = vec![0u64; dict.len() * width];
            for atom in same_attr {
                let (word, mask) = (bit / 64, 1u64 << (bit % 64));
                for (code, code_words) in per_code.chunks_exact_mut(width).enumerate() {
                    if atom.op.eval(dict.value(code as u32), &atom.value) {
                        code_words[word] |= mask;
                    }
                }
                bit += 1;
            }
            if width == 1 {
                for (w, &code) in words.iter_mut().zip(codes) {
                    *w |= per_code[code as usize];
                }
            } else {
                for (row, &code) in words.chunks_exact_mut(width).zip(codes) {
                    let at = code as usize * width;
                    for (w, c) in row.iter_mut().zip(&per_code[at..at + width]) {
                        *w |= c;
                    }
                }
            }
        }
        RowWords {
            rel: atoms[0].attr.rel,
            first,
            width,
            words,
        }
    }

    /// OR the words of `rows` into a block of tuple words, `stride` words
    /// per tuple.
    #[inline]
    fn or_into(&self, block: &mut [u64], stride: usize, rows: impl Iterator<Item = u32>) {
        if stride == 1 {
            for (w, row) in block.iter_mut().zip(rows) {
                *w |= self.words[row as usize];
            }
        } else {
            for (tuple, row) in block.chunks_exact_mut(stride).zip(rows) {
                let at = row as usize * self.width;
                for (w, b) in tuple[self.first..self.first + self.width]
                    .iter_mut()
                    .zip(&self.words[at..at + self.width])
                {
                    *w |= b;
                }
            }
        }
    }
}

/// A selection as a test on a tuple's atom words.
enum BitTest {
    /// Every bit of `need` is set: a conjunction of atoms (`True` when
    /// `need` is all zero).
    Need(Box<[u64]>),
    /// Every part holds.
    And(Vec<BitTest>),
    /// Some part holds (`False` when empty).
    Or(Vec<BitTest>),
    /// The part fails.
    Not(Box<BitTest>),
}

impl BitTest {
    /// Compile `p`, whose atoms all occur in `atoms`: atom `k` is bit `k`.
    fn compile(p: &Predicate, atoms: &[&Atom], width: usize) -> BitTest {
        match p {
            Predicate::True => BitTest::Need(vec![0; width].into()),
            Predicate::False => BitTest::Or(Vec::new()),
            Predicate::Atom(a) => {
                let bit = atoms
                    .iter()
                    .position(|b| *b == a)
                    .expect("every atom was collected");
                let mut need = vec![0; width];
                need[bit / 64] |= 1 << (bit % 64);
                BitTest::Need(need.into())
            }
            Predicate::And(ps) => {
                // The atoms among the parts become one `Need`, tested first.
                let mut need = vec![0; width];
                let mut rest = Vec::new();
                for part in ps.iter().map(|p| BitTest::compile(p, atoms, width)) {
                    match part {
                        BitTest::Need(n) => {
                            for (w, b) in need.iter_mut().zip(n.iter()) {
                                *w |= b;
                            }
                        }
                        other => rest.push(other),
                    }
                }
                if rest.is_empty() {
                    BitTest::Need(need.into())
                } else {
                    rest.insert(0, BitTest::Need(need.into()));
                    BitTest::And(rest)
                }
            }
            Predicate::Or(ps) => BitTest::Or(
                ps.iter()
                    .map(|p| BitTest::compile(p, atoms, width))
                    .collect(),
            ),
            Predicate::Not(p) => BitTest::Not(Box::new(BitTest::compile(p, atoms, width))),
        }
    }

    /// The mask of the tuples of a block this test keeps: bit `k` for
    /// the tuple at `words[k·width..(k + 1)·width]`, within `block`.
    fn eval(&self, words: &[u64], width: usize, block: u64) -> u64 {
        match self {
            BitTest::Need(need) if width == 1 => {
                let need = need[0];
                words
                    .iter()
                    .enumerate()
                    .fold(0, |m, (k, &w)| m | u64::from(w & need == need) << k)
            }
            BitTest::Need(need) => {
                words
                    .chunks_exact(width)
                    .enumerate()
                    .fold(0, |m, (k, tuple)| {
                        let all = tuple.iter().zip(need.iter()).all(|(w, n)| w & n == *n);
                        m | u64::from(all) << k
                    })
            }
            BitTest::And(parts) => {
                let mut m = block;
                for part in parts {
                    if m == 0 {
                        break;
                    }
                    m &= part.eval(words, width, block);
                }
                m
            }
            BitTest::Or(parts) => {
                let mut m = 0;
                for part in parts {
                    if m == block {
                        break;
                    }
                    m |= part.eval(words, width, block);
                }
                m
            }
            BitTest::Not(part) => block & !part.eval(words, width, block),
        }
    }
}

/// One aggregate's accumulator in [`evaluate_many`].
enum Fold<'a> {
    /// `COUNT(DISTINCT a)`: a dense bitset over the column's codes. The
    /// null code's bit starts set, so a NULL is never counted.
    Distinct {
        rel: usize,
        codes: &'a [u32],
        seen: Vec<u64>,
        count: u64,
    },
    /// Every other aggregate.
    State(AggEval<'a>, AggState),
}

impl<'a> Fold<'a> {
    fn new(func: &'a AggFunc, store: &'a ColumnStore) -> Fold<'a> {
        match func {
            AggFunc::CountDistinct(a) => {
                let (codes, dict) = store.dict_column(*a);
                let mut seen = vec![0u64; dict.len().div_ceil(64)];
                if let Some(null) = dict.null_code() {
                    seen[null as usize / 64] |= 1 << (null % 64);
                }
                Fold::Distinct {
                    rel: a.rel,
                    codes,
                    seen,
                    count: 0,
                }
            }
            _ => Fold::State(func.compile(store), func.new_state()),
        }
    }

    #[inline]
    fn update(&mut self, db: &Database, t: &[u32]) -> Result<()> {
        match self {
            Fold::Distinct {
                rel,
                codes,
                seen,
                count,
            } => {
                let code = codes[t[*rel] as usize] as usize;
                let (word, bit) = (&mut seen[code / 64], 1u64 << (code % 64));
                *count += u64::from(*word & bit == 0);
                *word |= bit;
                Ok(())
            }
            Fold::State(eval, state) => eval.update(state, db, t),
        }
    }

    fn finalize(&self) -> f64 {
        match self {
            Fold::Distinct { count, .. } => *count as f64,
            Fold::State(_, state) => state.finalize(),
        }
    }
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
            let store = std::sync::Arc::clone(db.columns());
            let eval = f.compile(&store);
            let mut s1 = f.new_state();
            let mut s2 = f.new_state();
            for (i, t) in u.iter().enumerate() {
                let s = if i % 2 == 0 { &mut s1 } else { &mut s2 };
                eval.update(s, &db, t).unwrap();
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
