//! Algorithm 1: computing all degrees with data cubes (Section 4.2).
//!
//! For an intervention-additive numerical query `Q = E(q_1, …, q_m)`:
//!
//! 1. compute `u_j = q_j(D)` for every sub-query, in one pass over `U`
//!    that also records which tuples each `q_j` selects;
//! 2. compute one data cube `C_j` per sub-query over the explanation
//!    attributes `A'`, grouping exactly those tuples, so each cube row
//!    holds `v_j(φ) = q_j(D_φ)`;
//! 3. full-outer-join the cubes into the table `M` (missing explanations
//!    count as zero). The paper substitutes a dummy value for the cube's
//!    NULLs so the join is a plain hash equi-join; here cells are keyed
//!    by dictionary codes, whose "don't care" code already differs from
//!    every value's, so each cube folds straight into one table with a
//!    lane per sub-query;
//! 4. per row, `μ_interv(φ) = sign · E(u_1 − v_1, …, u_m − v_m)` and
//!    `μ_aggr(φ) = sign · E(v_1, …, v_m)`.
//!
//! [`explanation_table_reference`] runs the join and derivation the
//! paper's way, on the same cube kernel's decoded cells, as their oracle;
//! the cube's own oracle is `exq-relstore`'s brute-force property test.

use crate::additivity::check_query;
use crate::error::{Error, Result};
use crate::question::UserQuestion;
use crate::table_m::{self, ExplanationRow, ExplanationTable};
use exq_relstore::aggregate::Folded;
use exq_relstore::cube::{self, CodedCube, Coord, CubeStrategy};
use exq_relstore::dict::NO_CODE;
use exq_relstore::lookup::LookupMap;
use exq_relstore::{
    AttrRef, CodeTuples, Database, Dict, ExecConfig, MetricsSink, Universal, Value,
};

/// Configuration for Algorithm 1.
#[derive(Debug, Clone)]
pub struct CubeAlgoConfig {
    /// Which cube implementation to use.
    pub strategy: CubeStrategy,
    /// When `true` (the safe default is `true`), refuse queries failing
    /// both additivity conditions. Setting it to `false` computes `M`
    /// anyway — the μ_interv column is then an *approximation* (the
    /// μ_aggr column is always exact).
    pub enforce_additivity: bool,
    /// The executor the cubes run under; carries the metrics sink.
    pub exec: ExecConfig,
}

impl Default for CubeAlgoConfig {
    /// [`CubeAlgoConfig::checked`]: the safe default.
    fn default() -> CubeAlgoConfig {
        CubeAlgoConfig::checked()
    }
}

impl CubeAlgoConfig {
    /// The checked default configuration.
    pub fn checked() -> CubeAlgoConfig {
        CubeAlgoConfig {
            strategy: CubeStrategy::default(),
            enforce_additivity: true,
            exec: ExecConfig::sequential(),
        }
    }

    /// An unchecked configuration (μ_interv approximate if not additive).
    pub fn unchecked() -> CubeAlgoConfig {
        CubeAlgoConfig {
            strategy: CubeStrategy::default(),
            enforce_additivity: false,
            exec: ExecConfig::sequential(),
        }
    }

    /// Replace the executor.
    pub fn with_exec(mut self, exec: ExecConfig) -> CubeAlgoConfig {
        self.exec = exec;
        self
    }
}

/// Run Algorithm 1, producing the explanation table `M`.
///
/// `u` must be the universal relation of the full database.
pub fn explanation_table(
    db: &Database,
    u: &Universal,
    question: &UserQuestion,
    dims: &[AttrRef],
    config: CubeAlgoConfig,
) -> Result<ExplanationTable> {
    let sink = config.exec.metrics().clone();
    let _span = sink.span("cube_algo");
    begin(db, u, question, &config, &sink)?;
    let folded = line_1(db, u, question, &sink)?;
    lines_2_to_5(db, u, question, dims, &config, &sink, &folded)
}

/// Line 1 of Algorithm 1: the totals u_j = q_j(D), and the tuples each
/// q_j selects, in one pass over `u`. [`crate::explainer::Explainer`]
/// runs it once and reads both Q(D) and `M` from it.
pub(crate) fn line_1(
    db: &Database,
    u: &Universal,
    question: &UserQuestion,
    sink: &MetricsSink,
) -> Result<Folded> {
    Ok(sink.time("cube_algo.totals", || question.query.fold(db, u, true))?)
}

/// [`explanation_table`] with line 1 already run: `folded` must be
/// [`line_1`]'s result for the same `db`, `u` and `question`.
pub(crate) fn explanation_table_folded(
    db: &Database,
    u: &Universal,
    question: &UserQuestion,
    dims: &[AttrRef],
    config: CubeAlgoConfig,
    folded: &Folded,
) -> Result<ExplanationTable> {
    let sink = config.exec.metrics().clone();
    let _span = sink.span("cube_algo");
    begin(db, u, question, &config, &sink)?;
    lines_2_to_5(db, u, question, dims, &config, &sink, folded)
}

/// Lines 2–5: one cube per sub-query over the tuples line 1 selected,
/// folded into M's lanes as it finishes, then the degree columns.
fn lines_2_to_5(
    db: &Database,
    u: &Universal,
    question: &UserQuestion,
    dims: &[AttrRef],
    config: &CubeAlgoConfig,
    sink: &MetricsSink,
    folded: &Folded,
) -> Result<ExplanationTable> {
    sink.add("cube_algo.sub_queries", question.query.arity() as u64);
    let mut joined = Joined::new(dims.len(), question.query.arity());
    for ((j, q), positions) in question
        .query
        .aggregates
        .iter()
        .enumerate()
        .zip(&folded.positions)
    {
        let c = sink.time("cube_algo.cubes", || {
            cube::compute_coded_at(
                db,
                u,
                positions,
                dims,
                &q.func,
                config.strategy,
                &config.exec,
            )
        })?;
        let _join_span = sink.span("cube_algo.join");
        joined.fold(j, &c);
    }
    sink.add("cube_algo.joined_cells", joined.keys.len() as u64);

    // Lines 4–5: degree columns.
    let store = db.columns();
    let dicts: Vec<&Dict> = dims.iter().map(|&a| store.dict_column(a).1).collect();
    let rows = sink.time("cube_algo.derive", || {
        joined.derive(question, &folded.values, &dicts)
    });
    // Same name the naive engine records, so the differential test can
    // assert both engines evaluated the same candidate set.
    sink.add("engine.candidates_evaluated", rows.len() as u64);

    Ok(ExplanationTable {
        dims: dims.to_vec(),
        totals: folded.values.clone(),
        rows,
    })
}

/// [`explanation_table`] the way §4.2 writes it: each `u_j` by its own
/// scan, one decoded cube per sub-query ([`cube::compute_with`]), a hash
/// join on dummy-substituted `Value` coordinates, and
/// [`table_m::derive_rows`]. The oracle the differential tests compare
/// the engine against; tables are bit-identical to
/// [`explanation_table`]'s.
pub fn explanation_table_reference(
    db: &Database,
    u: &Universal,
    question: &UserQuestion,
    dims: &[AttrRef],
    config: CubeAlgoConfig,
) -> Result<ExplanationTable> {
    let sink = config.exec.metrics().clone();
    let _span = sink.span("cube_algo");
    begin(db, u, question, &config, &sink)?;
    let totals = sink.time("cube_algo.totals", || {
        question
            .query
            .aggregates
            .iter()
            .map(|q| q.eval(db, u))
            .collect::<exq_relstore::Result<Vec<f64>>>()
    })?;
    sink.add("cube_algo.sub_queries", question.query.arity() as u64);
    let cells = joined_value_cells(db, u, question, dims, &config, &sink)?;
    sink.add("cube_algo.joined_cells", cells.len() as u64);
    let rows = sink.time("cube_algo.derive", || {
        table_m::derive_rows(question, &totals, &cells)
    });
    sink.add("engine.candidates_evaluated", rows.len() as u64);
    Ok(ExplanationTable {
        dims: dims.to_vec(),
        totals,
        rows,
    })
}

/// What both engines do first: count the run and, when configured to,
/// refuse a query Algorithm 1 cannot answer exactly.
fn begin(
    db: &Database,
    u: &Universal,
    question: &UserQuestion,
    config: &CubeAlgoConfig,
    sink: &MetricsSink,
) -> Result<()> {
    sink.incr("cube_algo.runs");
    if config.enforce_additivity {
        let checks = sink.time("cube_algo.additivity_check", || {
            check_query(db, u, &question.query)
        });
        let failing: Vec<usize> = checks
            .iter()
            .enumerate()
            .filter(|(_, a)| !a.is_additive())
            .map(|(i, _)| i)
            .collect();
        if !failing.is_empty() {
            return Err(Error::NotInterventionAdditive { failing });
        }
    }
    Ok(())
}

/// `M` while the cubes are joined: one code tuple per candidate
/// explanation, and beside it one lane per sub-query holding `v_j` — 0
/// until cube `j` has the cell, which is the outer join's zero fill.
struct Joined {
    keys: CodeTuples,
    /// Cell `id`'s lanes are `lanes[id·m..(id+1)·m]`.
    lanes: Vec<f64>,
    m: usize,
}

impl Joined {
    fn new(d: usize, m: usize) -> Joined {
        Joined {
            keys: CodeTuples::new(d),
            lanes: Vec::new(),
            m,
        }
    }

    /// Line 3 for sub-query `j`: fill lane `j` from its cube.
    fn fold(&mut self, j: usize, cube: &CodedCube) {
        for (key, v) in cube.cells() {
            let (id, new) = self.keys.insert(key);
            if new {
                self.lanes.resize(self.lanes.len() + self.m, 0.0);
            }
            self.lanes[id as usize * self.m + j] = v;
        }
    }

    /// Lines 4–5: one degree row per cell, in coordinate order (the rank
    /// order of the code keys), the trivial all-"don't care" explanation
    /// dropped. A `Value` coordinate is built once per row of `M`.
    fn derive(
        &self,
        question: &UserQuestion,
        totals: &[f64],
        dicts: &[&Dict],
    ) -> Vec<ExplanationRow> {
        let interv_sign = question.direction.interv_sign();
        let aggr_sign = question.direction.aggr_sign();
        self.keys
            .value_order(dicts)
            .into_iter()
            .filter_map(|id| {
                let key = self.keys.get(id);
                if key.iter().all(|&code| code == NO_CODE) {
                    return None; // trivial explanation, excluded from M
                }
                let at = id as usize * self.m;
                let values = &self.lanes[at..at + self.m];
                let residual = |j: usize| totals[j] - values[j];
                Some(ExplanationRow {
                    coord: cube::decode_key(dicts, key),
                    mu_interv: interv_sign * question.query.combine_by(residual),
                    mu_aggr: aggr_sign * question.query.combine(values),
                    values: values.to_vec(),
                })
            })
            .collect()
    }
}

/// Lines 2–3 in `Value` space: one decoded cube per sub-query,
/// hash-joined on dummy-substituted coordinates. The reference path.
fn joined_value_cells(
    db: &Database,
    u: &Universal,
    question: &UserQuestion,
    dims: &[AttrRef],
    config: &CubeAlgoConfig,
    sink: &MetricsSink,
) -> Result<Vec<(Coord, Vec<f64>)>> {
    let m = question.query.arity();
    let mut joined: LookupMap<Coord, Vec<f64>> = LookupMap::new();
    for (j, q) in question.query.aggregates.iter().enumerate() {
        let c = sink.time("cube_algo.cubes", || {
            cube::compute_with(
                db,
                u,
                &q.selection,
                dims,
                &q.func,
                config.strategy,
                &config.exec,
            )
        })?;
        // Line 3: full outer join via the dummy-value trick — null
        // coordinates are replaced by the reserved dummy so the hash join
        // key is a plain value vector (Section 4.2's optimization).
        let _join_span = sink.span("cube_algo.join");
        for (coord, value) in c.cells.into_sorted() {
            let key: Coord = coord
                .iter()
                .map(|v| {
                    if v.is_null() {
                        Value::dummy()
                    } else {
                        v.clone()
                    }
                })
                .collect();
            joined.entry(key).or_insert_with(|| vec![0.0; m])[j] = value;
        }
    }
    Ok(joined.into_sorted())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::question::{AggregateQuery, Direction, NumExpr, NumericalQuery};
    use exq_relstore::aggregate::AggFunc;
    use exq_relstore::{Predicate, SchemaBuilder, ValueType as T};

    /// Single-table instance: no back-and-forth keys, COUNT(*) additive.
    fn flat_db() -> Database {
        let schema = SchemaBuilder::new()
            .relation(
                "R",
                &[
                    ("id", T::Int),
                    ("g", T::Str),
                    ("h", T::Str),
                    ("outcome", T::Str),
                ],
                &["id"],
            )
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        let rows = [
            ("a", "x", "good"),
            ("a", "x", "good"),
            ("a", "y", "good"),
            ("a", "y", "poor"),
            ("b", "x", "good"),
            ("b", "y", "poor"),
            ("b", "y", "poor"),
        ];
        for (i, (g, h, o)) in rows.iter().enumerate() {
            db.insert(
                "R",
                vec![(i as i64).into(), (*g).into(), (*h).into(), (*o).into()],
            )
            .unwrap();
        }
        db
    }

    fn question(db: &Database) -> UserQuestion {
        let outcome = db.schema().attr("R", "outcome").unwrap();
        // Q = #good / #poor, observed "high".
        UserQuestion::new(
            NumericalQuery::ratio(
                AggregateQuery::count_star(Predicate::eq(outcome, "good")),
                AggregateQuery::count_star(Predicate::eq(outcome, "poor")),
            )
            .with_smoothing(1e-4),
            Direction::High,
        )
    }

    fn dims(db: &Database) -> Vec<AttrRef> {
        vec![
            db.schema().attr("R", "g").unwrap(),
            db.schema().attr("R", "h").unwrap(),
        ]
    }

    #[test]
    fn default_config_enforces_additivity() {
        let config = CubeAlgoConfig::default();
        assert!(config.enforce_additivity);
        assert_eq!(config.strategy, CubeAlgoConfig::checked().strategy);
        assert!(!config.exec.is_parallel());
    }

    #[test]
    fn table_shape_and_totals() {
        let db = flat_db();
        let u = Universal::compute(&db, &db.full_view());
        let t = explanation_table(
            &db,
            &u,
            &question(&db),
            &dims(&db),
            CubeAlgoConfig::checked(),
        )
        .unwrap();
        assert_eq!(t.totals, vec![4.0, 3.0]);
        // Coordinates: (a,x),(a,y),(b,x),(b,y) + 2 g-only + 2 h-only = 8,
        // trivial excluded.
        assert_eq!(t.len(), 8);
        assert!(t.find(&[Value::Null, Value::Null]).is_none());
    }

    #[test]
    fn zero_sub_query_question_yields_an_empty_table() {
        // A constant query has no cubes to build, hence no candidates.
        let db = flat_db();
        let u = Universal::compute(&db, &db.full_view());
        let q = UserQuestion::new(
            NumericalQuery::new(Vec::new(), NumExpr::Const(1.0)).unwrap(),
            Direction::High,
        );
        let t = explanation_table(&db, &u, &q, &dims(&db), CubeAlgoConfig::checked()).unwrap();
        assert!(t.is_empty());
        assert!(t.totals.is_empty());
        let reference =
            explanation_table_reference(&db, &u, &q, &dims(&db), CubeAlgoConfig::checked())
                .unwrap();
        assert_eq!(t, reference);
    }

    #[test]
    fn values_column_is_q_of_d_phi() {
        let db = flat_db();
        let u = Universal::compute(&db, &db.full_view());
        let t = explanation_table(
            &db,
            &u,
            &question(&db),
            &dims(&db),
            CubeAlgoConfig::checked(),
        )
        .unwrap();
        let row = t.find(&[Value::str("a"), Value::Null]).unwrap();
        assert_eq!(row.values, vec![3.0, 1.0], "g=a has 3 good, 1 poor");
        let row = t.find(&[Value::str("b"), Value::str("y")]).unwrap();
        assert_eq!(row.values, vec![0.0, 2.0], "missing from the good-cube → 0");
    }

    #[test]
    fn degrees_match_direct_formulas() {
        let db = flat_db();
        let u = Universal::compute(&db, &db.full_view());
        let q = question(&db);
        let t = explanation_table(&db, &u, &q, &dims(&db), CubeAlgoConfig::checked()).unwrap();
        let row = t.find(&[Value::str("a"), Value::Null]).unwrap();
        // μ_interv = -( (4-3+ε) / (3-1+ε) ), μ_aggr = +( (3+ε)/(1+ε) ).
        let eps = 1e-4;
        assert!((row.mu_interv - (-(1.0 + eps) / (2.0 + eps))).abs() < 1e-12);
        assert!((row.mu_aggr - (3.0 + eps) / (1.0 + eps)).abs() < 1e-12);
    }

    #[test]
    fn cube_strategies_agree() {
        let db = flat_db();
        let u = Universal::compute(&db, &db.full_view());
        let q = question(&db);
        let a = explanation_table(
            &db,
            &u,
            &q,
            &dims(&db),
            CubeAlgoConfig {
                strategy: CubeStrategy::SubsetEnumeration,
                ..CubeAlgoConfig::checked()
            },
        )
        .unwrap();
        let b = explanation_table(
            &db,
            &u,
            &q,
            &dims(&db),
            CubeAlgoConfig {
                strategy: CubeStrategy::LatticeRollup,
                ..CubeAlgoConfig::checked()
            },
        )
        .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn non_additive_query_rejected_when_enforcing() {
        let db = flat_db();
        let u = Universal::compute(&db, &db.full_view());
        let id = db.schema().attr("R", "id").unwrap();
        let q = UserQuestion::new(
            NumericalQuery::single(AggregateQuery {
                func: AggFunc::Sum(id),
                selection: Predicate::True,
            }),
            Direction::High,
        );
        let err =
            explanation_table(&db, &u, &q, &dims(&db), CubeAlgoConfig::checked()).unwrap_err();
        assert_eq!(err, Error::NotInterventionAdditive { failing: vec![0] });
        // Unchecked mode computes anyway.
        assert!(explanation_table(&db, &u, &q, &dims(&db), CubeAlgoConfig::unchecked()).is_ok());
    }

    #[test]
    fn direction_flips_interv_sign() {
        let db = flat_db();
        let u = Universal::compute(&db, &db.full_view());
        let mut q = question(&db);
        let t_high = explanation_table(&db, &u, &q, &dims(&db), CubeAlgoConfig::checked()).unwrap();
        q.direction = Direction::Low;
        let t_low = explanation_table(&db, &u, &q, &dims(&db), CubeAlgoConfig::checked()).unwrap();
        for (a, b) in t_high.rows.iter().zip(&t_low.rows) {
            assert_eq!(a.mu_interv, -b.mu_interv);
            assert_eq!(a.mu_aggr, -b.mu_aggr);
        }
    }
}
