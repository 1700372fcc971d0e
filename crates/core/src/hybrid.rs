//! The hybrid degree of explanation (Section 6(iii)).
//!
//! Aggravation is always cube-computable but ignores causal paths;
//! intervention honours causal paths but is cube-computable only for
//! intervention-additive queries. The paper's discussion proposes a
//! *hybrid*: a degree that uses some — but not all — causal structure and
//! can **always** be evaluated by the data cube.
//!
//! The hybrid implemented here is the *subtractive* degree:
//!
//! ```text
//! μ_hybrid(φ) = sign · E(u_1 − v_1, …, u_m − v_m)
//!   where u_j = q_j(D),  v_j = q_j(D_φ)
//! ```
//!
//! It removes exactly the direct contribution of the φ-satisfying
//! universal tuples (the Rule (i) seeds and their immediate join
//! partners), but does not charge φ for the *indirect* deletions the
//! backward cascade and semijoin reduction would add. Three properties
//! make it the natural middle point:
//!
//! * it **equals μ_interv exactly** whenever the query is
//!   intervention-additive (Definition 4.2) — in that case
//!   `q_j(D − Δ^φ) = u_j − v_j` by definition;
//! * it is a **lower bound on the causal effect** for monotone count
//!   queries: the true intervention deletes a superset of the direct
//!   tuples, so `q_j(D − Δ^φ) ≤ u_j − v_j` for counts;
//! * it is computed from the same cubes as μ_aggr, so it is *always*
//!   available in one cube pass (it is exactly the μ_interv column that
//!   [`crate::cube_algo`] produces under
//!   [`CubeAlgoConfig::unchecked`](crate::cube_algo::CubeAlgoConfig)).

use crate::question::UserQuestion;

/// `μ_hybrid(φ)` from `Q`'s totals `u_j` (line 1 of Algorithm 1) and φ's
/// values `v_j` ([`crate::degree::Degrees::values`]); the cube pipeline
/// computes the same quantity for all candidates at once.
pub fn mu_hybrid(question: &UserQuestion, totals: &[f64], values: &[f64]) -> f64 {
    question.direction.interv_sign() * question.query.combine_by(|j| totals[j] - values[j])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube_algo::{explanation_table, CubeAlgoConfig};
    use crate::degree::evaluate;
    use crate::explanation::Explanation;
    use crate::intervention::InterventionEngine;
    use crate::question::{AggregateQuery, Direction, NumericalQuery};
    use exq_relstore::aggregate::AggFunc;
    use exq_relstore::{Atom, Database, Predicate, SchemaBuilder, ValueType as T};

    /// `(μ_hybrid, μ_interv)` of φ, with the totals folded over `U`.
    fn hybrid_and_interv(
        engine: &InterventionEngine<'_>,
        question: &UserQuestion,
        phi: &Explanation,
    ) -> (f64, f64) {
        let totals = question
            .query
            .aggregate_values(engine.db(), engine.universal())
            .unwrap();
        let d = evaluate(engine, question, &phi.conjunction().to_predicate()).unwrap();
        (mu_hybrid(question, &totals, &d.values), d.mu_interv)
    }

    /// Figure 3 with the back-and-forth key (COUNT(*) not additive).
    fn figure3_db() -> Database {
        let schema = SchemaBuilder::new()
            .relation(
                "Author",
                &[
                    ("id", T::Str),
                    ("name", T::Str),
                    ("inst", T::Str),
                    ("dom", T::Str),
                ],
                &["id"],
            )
            .relation(
                "Authored",
                &[("id", T::Str), ("pubid", T::Str)],
                &["id", "pubid"],
            )
            .relation(
                "Publication",
                &[("pubid", T::Str), ("year", T::Int), ("venue", T::Str)],
                &["pubid"],
            )
            .standard_fk("Authored", &["id"], "Author")
            .back_and_forth_fk("Authored", &["pubid"], "Publication")
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        for (id, name, inst, dom) in [
            ("A1", "JG", "C.edu", "edu"),
            ("A2", "RR", "M.com", "com"),
            ("A3", "CM", "I.com", "com"),
        ] {
            db.insert(
                "Author",
                vec![id.into(), name.into(), inst.into(), dom.into()],
            )
            .unwrap();
        }
        for (id, pubid) in [
            ("A1", "P1"),
            ("A2", "P1"),
            ("A1", "P2"),
            ("A3", "P2"),
            ("A2", "P3"),
            ("A3", "P3"),
        ] {
            db.insert("Authored", vec![id.into(), pubid.into()])
                .unwrap();
        }
        for (pubid, year, venue) in [
            ("P1", 2001, "SIGMOD"),
            ("P2", 2011, "VLDB"),
            ("P3", 2001, "SIGMOD"),
        ] {
            db.insert("Publication", vec![pubid.into(), year.into(), venue.into()])
                .unwrap();
        }
        db
    }

    #[test]
    fn hybrid_equals_interv_when_additive() {
        // COUNT(DISTINCT pubid) is additive on this schema.
        let db = figure3_db();
        let engine = InterventionEngine::new(&db);
        let venue = db.schema().attr("Publication", "venue").unwrap();
        let pubid = db.schema().attr("Publication", "pubid").unwrap();
        let question = UserQuestion::new(
            NumericalQuery::single(AggregateQuery {
                func: AggFunc::CountDistinct(pubid),
                selection: Predicate::eq(venue, "SIGMOD"),
            }),
            Direction::High,
        );
        for name in ["JG", "RR", "CM"] {
            let phi = Explanation::new(vec![Atom::eq(
                db.schema().attr("Author", "name").unwrap(),
                name,
            )]);
            let (h, i) = hybrid_and_interv(&engine, &question, &phi);
            assert_eq!(h, i, "hybrid ≠ interv for {name}");
        }
    }

    #[test]
    fn hybrid_upper_bounds_interv_for_counts() {
        // COUNT(*) on the back-and-forth schema is NOT additive: the true
        // intervention deletes extra tuples, so Q(D−Δ) ≤ u − v, and with
        // dir = high (sign −1) μ_hybrid ≤ μ_interv.
        let db = figure3_db();
        let engine = InterventionEngine::new(&db);
        let venue = db.schema().attr("Publication", "venue").unwrap();
        let question = UserQuestion::new(
            NumericalQuery::single(AggregateQuery::count_star(Predicate::eq(venue, "SIGMOD"))),
            Direction::High,
        );
        let mut diverged = false;
        for name in ["JG", "RR", "CM"] {
            let phi = Explanation::new(vec![Atom::eq(
                db.schema().attr("Author", "name").unwrap(),
                name,
            )]);
            let (h, i) = hybrid_and_interv(&engine, &question, &phi);
            assert!(h <= i + 1e-12, "count bound violated for {name}: {h} > {i}");
            diverged |= (h - i).abs() > 1e-12;
        }
        assert!(
            diverged,
            "the back-and-forth cascade must show up somewhere"
        );
    }

    #[test]
    fn hybrid_is_the_unchecked_cube_column() {
        let db = figure3_db();
        let engine = InterventionEngine::new(&db);
        let u = engine.universal();
        let venue = db.schema().attr("Publication", "venue").unwrap();
        let question = UserQuestion::new(
            NumericalQuery::single(AggregateQuery::count_star(Predicate::eq(venue, "SIGMOD"))),
            Direction::High,
        );
        let dims = vec![db.schema().attr("Author", "name").unwrap()];
        let m = explanation_table(&db, u, &question, &dims, CubeAlgoConfig::unchecked()).unwrap();
        for row in &m.rows {
            let phi = m.explanation(row);
            let (h, _) = hybrid_and_interv(&engine, &question, &phi);
            assert!(
                (row.mu_interv - h).abs() < 1e-12,
                "cube row {:?}",
                row.coord
            );
        }
    }
}
