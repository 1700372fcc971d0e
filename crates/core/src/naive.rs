//! The naive ("No Cube") baseline of Figure 12.
//!
//! Enumerates every candidate equality explanation over `A'` and, for each
//! one, runs program **P** and re-evaluates `Q` on the residual database.
//! Exact for *any* numerical query — no additivity needed — but every
//! candidate costs a fixpoint computation plus a universal-relation
//! evaluation, which is why the paper's Figure 12 shows the cube winning
//! dramatically. Used here both as the benchmark baseline and as ground
//! truth in the cube-correctness tests.

use crate::degree::{mu_aggr, mu_interv_of};
use crate::error::Result;
use crate::explanation::{enumerate_candidates, Explanation};
use crate::intervention::InterventionEngine;
use crate::question::UserQuestion;
use crate::table_m::{ExplanationRow, ExplanationTable};
use exq_relstore::aggregate::evaluate;
use exq_relstore::{par, AttrRef, Database, ExecConfig, Predicate};

/// Compute the explanation table `M` by brute force.
pub fn explanation_table_naive(
    db: &Database,
    engine: &InterventionEngine<'_>,
    question: &UserQuestion,
    dims: &[AttrRef],
) -> Result<ExplanationTable> {
    explanation_table_naive_with(db, engine, question, dims, &ExecConfig::sequential())
}

/// [`explanation_table_naive`] on an explicit executor — the Section 6(i)
/// "optimize the iterative algorithm" direction, and the engine's one
/// parallel site. Program **P** runs against shared immutable state
/// (`&Database`, the pre-computed universal relation, the
/// backward-cascade maps), so candidates partition embarrassingly; each
/// worker builds its own row set and the results are stitched back in
/// candidate order, making the output bit-identical to the sequential
/// path. If candidates fail, the error returned is the **first failing
/// candidate's in candidate order** — never a thread-completion-order
/// artifact.
///
/// Measured on a 2-vCPU Xeon guest, two threads run this sweep at
/// 0.9x to 1.6x of one (`repro scaling`, Figure 12 workload at 8k and
/// 40k rows). The spread follows what else the process has allocated,
/// not the candidates: at ≈ 1.0x a traced run showed each candidate
/// taking about twice as long with two running at once. It is kept
/// because it is the paper's §6(i) direction and the subject of
/// `repro scaling`, and because its candidates are independent, so it
/// is the site that can gain once program P is cheap.
pub fn explanation_table_naive_with(
    db: &Database,
    engine: &InterventionEngine<'_>,
    question: &UserQuestion,
    dims: &[AttrRef],
    exec: &ExecConfig,
) -> Result<ExplanationTable> {
    let u = engine.universal();
    // Same candidate set as Algorithm 1: explanations observed under at
    // least one sub-query selection.
    let relevance = Predicate::or(
        question
            .query
            .aggregates
            .iter()
            .map(|q| q.selection.clone()),
    );
    let candidates = enumerate_candidates(db, u, dims, &relevance);
    let sink = exec.metrics();
    let _span = sink.span("naive");
    sink.incr("naive.runs");
    sink.add("engine.candidates_evaluated", candidates.len() as u64);

    let block = par::even_block_size(exec, candidates.len());
    let parts = par::try_map_blocks(exec, &candidates, block, |_, chunk| -> Result<_> {
        let mut rows = Vec::with_capacity(chunk.len());
        for phi in chunk {
            // Per-candidate wall-clock timing; the span *count* (one per
            // candidate) is deterministic, the duration is not.
            rows.push(sink.time("naive.candidate", || {
                candidate_row(db, engine, question, dims, phi)
            })?);
        }
        Ok(rows)
    })?;
    let mut rows: Vec<ExplanationRow> = parts.into_iter().flatten().collect();
    rows.sort_by(|a, b| a.coord.cmp(&b.coord));

    // Totals after the candidate sweep, so the error surfaced by a failing
    // run is the deterministic per-candidate one above, not a phase-order
    // accident.
    let totals = question.query.aggregate_values(db, u)?;
    Ok(ExplanationTable {
        dims: dims.to_vec(),
        totals,
        rows,
    })
}

/// One candidate's full evaluation: program **P**, `μ_interv`, the `v_j`
/// column values, and `μ_aggr`.
fn candidate_row(
    db: &Database,
    engine: &InterventionEngine<'_>,
    question: &UserQuestion,
    dims: &[AttrRef],
    phi: &Explanation,
) -> Result<ExplanationRow> {
    // μ_interv: program P then direct evaluation of Q(D − Δ^φ).
    let iv = engine.compute(phi);
    let mu_i = mu_interv_of(db, question, &iv)?;

    // μ_aggr and the v_j values over σ_φ(U).
    let u = engine.universal();
    let phi_pred = phi.conjunction().to_predicate();
    let mut values = Vec::with_capacity(question.query.arity());
    for q in &question.query.aggregates {
        let sel = Predicate::and([phi_pred.clone(), q.selection.clone()]);
        values.push(evaluate(db, u, &sel, &q.func)?);
    }
    let mu_a = mu_aggr(db, u, question, phi)?;

    Ok(ExplanationRow {
        coord: phi
            .to_coord(dims)
            .expect("enumerated candidates are equality-only over dims"),
        values,
        mu_interv: mu_i,
        mu_aggr: mu_a,
    })
}

/// Compute the degrees of a *single* explanation exactly (the drill-down
/// path: a user clicks one explanation and wants its exact effect).
pub fn degrees_of(
    db: &Database,
    engine: &InterventionEngine<'_>,
    question: &UserQuestion,
    phi: &Explanation,
) -> Result<(f64, f64)> {
    let iv = engine.compute(phi);
    let mu_i = mu_interv_of(db, question, &iv)?;
    let mu_a = mu_aggr(db, engine.universal(), question, phi)?;
    Ok((mu_i, mu_a))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube_algo::{explanation_table, CubeAlgoConfig};
    use crate::question::{AggregateQuery, Direction, NumericalQuery};
    use exq_relstore::{SchemaBuilder, Universal, Value, ValueType as T};

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
        UserQuestion::new(
            NumericalQuery::ratio(
                AggregateQuery::count_star(Predicate::eq(outcome, "good")),
                AggregateQuery::count_star(Predicate::eq(outcome, "poor")),
            )
            .with_smoothing(1e-4),
            Direction::High,
        )
    }

    /// On a single-table schema with no foreign keys, COUNT(*) is
    /// intervention-additive, so the cube and naive tables must agree
    /// exactly — this is the headline correctness test for Algorithm 1.
    #[test]
    fn naive_and_cube_tables_agree_when_additive() {
        let db = flat_db();
        let engine = InterventionEngine::new(&db);
        let q = question(&db);
        let dims = vec![
            db.schema().attr("R", "g").unwrap(),
            db.schema().attr("R", "h").unwrap(),
        ];

        let naive = explanation_table_naive(&db, &engine, &q, &dims).unwrap();
        let u = Universal::compute(&db, &db.full_view());
        let cube = explanation_table(&db, &u, &q, &dims, CubeAlgoConfig::checked()).unwrap();

        assert_eq!(naive.totals, cube.totals);
        assert_eq!(naive.len(), cube.len());
        for (n, c) in naive.rows.iter().zip(&cube.rows) {
            assert_eq!(n.coord, c.coord);
            assert_eq!(n.values, c.values, "v_j mismatch at {:?}", n.coord);
            assert!(
                (n.mu_interv - c.mu_interv).abs() < 1e-9,
                "μ_interv mismatch at {:?}: naive {} cube {}",
                n.coord,
                n.mu_interv,
                c.mu_interv
            );
            assert!(
                (n.mu_aggr - c.mu_aggr).abs() < 1e-9,
                "μ_aggr mismatch at {:?}",
                n.coord
            );
        }
    }

    #[test]
    fn single_explanation_drilldown() {
        let db = flat_db();
        let engine = InterventionEngine::new(&db);
        let q = question(&db);
        let g = db.schema().attr("R", "g").unwrap();
        let phi = Explanation::new(vec![exq_relstore::Atom::eq(g, "a")]);
        let (mu_i, mu_a) = degrees_of(&db, &engine, &q, &phi).unwrap();
        // Removing g=a leaves 1 good, 2 poor: μ_interv = -(1+ε)/(2+ε).
        let eps = 1e-4;
        assert!((mu_i - (-(1.0 + eps) / (2.0 + eps))).abs() < 1e-12);
        assert!((mu_a - (3.0 + eps) / (1.0 + eps)).abs() < 1e-12);
    }

    #[test]
    fn parallel_naive_matches_sequential() {
        let db = flat_db();
        let engine = InterventionEngine::new(&db);
        let q = question(&db);
        let dims = vec![
            db.schema().attr("R", "g").unwrap(),
            db.schema().attr("R", "h").unwrap(),
        ];
        let sequential = explanation_table_naive(&db, &engine, &q, &dims).unwrap();
        for threads in [1, 2, 5, 16] {
            let exec = ExecConfig::with_threads(threads);
            let parallel = explanation_table_naive_with(&db, &engine, &q, &dims, &exec).unwrap();
            assert_eq!(sequential, parallel, "threads = {threads}");
        }
    }

    #[test]
    fn parallel_error_is_first_failing_candidates_in_candidate_order() {
        // Two groups fail with *different* errors: removing g=a leaves
        // group b's non-numeric y in the residual (NotNumeric on R.y),
        // removing g=b leaves group a's non-numeric x (NotNumeric on R.x).
        // The reported error must be candidate a's — the first in candidate
        // order — at every thread count, not whichever worker finished
        // first.
        let schema = SchemaBuilder::new()
            .relation(
                "R",
                &[("id", T::Int), ("g", T::Str), ("x", T::Any), ("y", T::Any)],
                &["id"],
            )
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        db.insert("R", vec![0.into(), "a".into(), "bad-a".into(), 1.into()])
            .unwrap();
        db.insert("R", vec![1.into(), "b".into(), 1.into(), "bad-b".into()])
            .unwrap();
        let x = db.schema().attr("R", "x").unwrap();
        let y = db.schema().attr("R", "y").unwrap();
        let q = UserQuestion::new(
            NumericalQuery::ratio(
                AggregateQuery {
                    func: exq_relstore::aggregate::AggFunc::Sum(x),
                    selection: Predicate::True,
                },
                AggregateQuery {
                    func: exq_relstore::aggregate::AggFunc::Sum(y),
                    selection: Predicate::True,
                },
            ),
            Direction::High,
        );
        let engine = InterventionEngine::new(&db);
        let dims = vec![db.schema().attr("R", "g").unwrap()];
        let sequential = explanation_table_naive(&db, &engine, &q, &dims).unwrap_err();
        assert!(
            sequential.to_string().contains("R.y"),
            "candidate g=a fails first, on the residual's y column: {sequential}"
        );
        for threads in [2, 7, 64] {
            let exec = ExecConfig::with_threads(threads);
            let parallel =
                explanation_table_naive_with(&db, &engine, &q, &dims, &exec).unwrap_err();
            assert_eq!(parallel, sequential, "threads = {threads}");
        }
    }

    #[test]
    fn parallel_naive_with_more_threads_than_candidates() {
        let db = flat_db();
        let engine = InterventionEngine::new(&db);
        let q = question(&db);
        let dims = vec![db.schema().attr("R", "g").unwrap()];
        let sequential = explanation_table_naive(&db, &engine, &q, &dims).unwrap();
        assert!(sequential.len() < 64);
        let exec = ExecConfig::with_threads(64);
        let parallel = explanation_table_naive_with(&db, &engine, &q, &dims, &exec).unwrap();
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn parallel_naive_with_no_candidates() {
        let db = flat_db();
        let engine = InterventionEngine::new(&db);
        let outcome = db.schema().attr("R", "outcome").unwrap();
        // No tuple matches either selection → empty candidate set.
        let q = UserQuestion::new(
            NumericalQuery::ratio(
                AggregateQuery::count_star(Predicate::eq(outcome, "zzz")),
                AggregateQuery::count_star(Predicate::eq(outcome, "qqq")),
            )
            .with_smoothing(1e-4),
            Direction::High,
        );
        let dims = vec![db.schema().attr("R", "g").unwrap()];
        for threads in [1, 8] {
            let exec = ExecConfig::with_threads(threads);
            let t = explanation_table_naive_with(&db, &engine, &q, &dims, &exec).unwrap();
            assert!(t.is_empty());
            assert_eq!(t.totals, vec![0.0, 0.0]);
        }
    }

    #[test]
    fn naive_handles_non_additive_queries() {
        // SUM over a single table: the cube pipeline refuses, the naive
        // engine answers.
        let db = flat_db();
        let engine = InterventionEngine::new(&db);
        let id = db.schema().attr("R", "id").unwrap();
        let q = UserQuestion::new(
            NumericalQuery::single(AggregateQuery {
                func: exq_relstore::aggregate::AggFunc::Sum(id),
                selection: Predicate::True,
            }),
            Direction::Low,
        );
        let dims = vec![db.schema().attr("R", "g").unwrap()];
        let t = explanation_table_naive(&db, &engine, &q, &dims).unwrap();
        // ids: g=a → {0,1,2,3} sums to 6; g=b → {4,5,6} sums to 15.
        // μ_interv(g=a) = +Q(D−Δ) = 15 (dir low).
        let row = t.find(&[Value::str("a")]).unwrap();
        assert_eq!(row.mu_interv, 15.0);
        assert_eq!(row.values, vec![6.0]);
    }
}
