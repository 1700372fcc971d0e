//! Degrees of explanation (Definitions 2.4 and 2.7), computed directly
//! (without the data cube), all of them from one run of program **P**.
//!
//! * **Aggravation** `μ_aggr(φ) = ± Q(D_φ)`: restrict the database to the
//!   tuples satisfying φ and re-evaluate `Q`. Because a candidate
//!   explanation is a conjunction of per-relation atoms, `σ_φ(U(D))` is
//!   itself the universal relation of `D_φ` (it equals the join of the
//!   selected relations), so `q_j(D_φ) = q_j(σ_φ(U))` — the identity
//!   Section 4.1 relies on. For rich predicates (ranges, disjunctions —
//!   Section 6(ii)) it is the natural sub-population reading.
//! * **Intervention** `μ_interv(φ) = ∓ Q(D − Δ^φ)`: run program **P** and
//!   re-evaluate `Q` on the residual database, whose universal relation
//!   is the tuples of `U(D)` that keep all their rows.
//!
//! These direct evaluations are the ground truth the cube pipeline
//! (`cube_algo`) is tested against, and the engine behind the naive
//! baseline of Figure 12.

use crate::error::Result;
use crate::explanation::matching;
use crate::intervention::{Intervention, InterventionEngine};
use crate::question::UserQuestion;
use exq_relstore::Predicate;

/// One candidate's exact evaluation.
#[derive(Debug, Clone)]
pub struct Degrees {
    /// The intervention `Δ^φ`.
    pub intervention: Intervention,
    /// `v_j = q_j(σ_φ(U(D)))`, one per sub-query.
    pub values: Vec<f64>,
    /// `μ_interv(φ)`, from `Q(D − Δ^φ)`.
    pub mu_interv: f64,
    /// `μ_aggr(φ) = ± E(v_1, …, v_m)`.
    pub mu_aggr: f64,
}

/// Evaluate φ exactly: program **P** over the engine's `U`, then `Q`
/// folded over the tuples of `U` that survive `Δ^φ`, and the `v_j`
/// folded over the tuples that satisfy φ. Both folds read `U` in its
/// tuple order, so each value is bit-identical to joining `D − Δ^φ`
/// (or `D_φ`) afresh and folding that. A failure of `Q(D − Δ^φ)` is
/// reported before one of the `v_j`.
pub fn evaluate(
    engine: &InterventionEngine<'_>,
    question: &UserQuestion,
    phi: &Predicate,
) -> Result<Degrees> {
    let (db, u) = (engine.db(), engine.universal());
    let matches = matching(db, u, phi);
    let (intervention, survivors) = engine.run(&matches);
    let residual = u.select(survivors.iter());
    let q = question.query.eval_universal(db, &residual)?;
    let on_phi = u.select(matches.iter().map(|&i| i as usize));
    let values = question.query.aggregate_values(db, &on_phi)?;
    Ok(Degrees {
        mu_interv: question.direction.interv_sign() * q,
        mu_aggr: question.direction.aggr_sign() * question.query.combine(&values),
        values,
        intervention,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explanation::Explanation;
    use crate::question::{AggregateQuery, Direction, NumericalQuery};
    use exq_relstore::aggregate::AggFunc;
    use exq_relstore::{Atom, Database, SchemaBuilder, ValueType as T};

    fn degrees(db: &Database, question: &UserQuestion, phi: &Explanation) -> Degrees {
        let engine = InterventionEngine::new(db);
        evaluate(&engine, question, &phi.conjunction().to_predicate()).unwrap()
    }

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

    /// `Q` = COUNT(DISTINCT pubid) of SIGMOD publications.
    fn sigmod_count(db: &Database) -> NumericalQuery {
        let venue = db.schema().attr("Publication", "venue").unwrap();
        let pubid = db.schema().attr("Publication", "pubid").unwrap();
        NumericalQuery::single(AggregateQuery {
            func: AggFunc::CountDistinct(pubid),
            selection: Predicate::eq(venue, "SIGMOD"),
        })
    }

    #[test]
    fn aggravation_of_author_explanation() {
        let db = figure3_db();
        let question = UserQuestion::new(sigmod_count(&db), Direction::High);
        // φ = [Author.name = RR]: restricting to RR keeps P1 and P3, both
        // SIGMOD → Q(D_φ) = 2; sign is + for dir = high.
        let phi = Explanation::new(vec![Atom::eq(
            db.schema().attr("Author", "name").unwrap(),
            "RR",
        )]);
        assert_eq!(degrees(&db, &question, &phi).mu_aggr, 2.0);

        // φ = [Author.name = JG]: JG's pubs are P1 (SIGMOD) and P2 (VLDB).
        let phi = Explanation::new(vec![Atom::eq(
            db.schema().attr("Author", "name").unwrap(),
            "JG",
        )]);
        assert_eq!(degrees(&db, &question, &phi).mu_aggr, 1.0);
    }

    #[test]
    fn aggravation_sign_flips_with_direction() {
        let db = figure3_db();
        let phi = Explanation::new(vec![Atom::eq(
            db.schema().attr("Author", "name").unwrap(),
            "RR",
        )]);
        let high = UserQuestion::new(sigmod_count(&db), Direction::High);
        let low = UserQuestion::new(sigmod_count(&db), Direction::Low);
        assert_eq!(
            degrees(&db, &high, &phi).mu_aggr,
            -degrees(&db, &low, &phi).mu_aggr
        );
    }

    #[test]
    fn intervention_degree_on_running_example() {
        let db = figure3_db();
        let question = UserQuestion::new(sigmod_count(&db), Direction::High);
        // φ = [name = RR]: deleting RR deletes his rows s2, s5, which
        // backward-cascade to P1 and P3 — both SIGMOD pubs vanish.
        // Q(D − Δ) = 0, μ = -0.
        let phi = Explanation::new(vec![Atom::eq(
            db.schema().attr("Author", "name").unwrap(),
            "RR",
        )]);
        let Degrees {
            mu_interv: mu,
            intervention: iv,
            ..
        } = degrees(&db, &question, &phi);
        assert_eq!(mu, 0.0);
        assert!(!iv.is_empty());

        // φ = [name = JG]: deleting JG kills P1 and P2; P3 (SIGMOD)
        // survives. Q(D − Δ) = 1, μ = -1 (dir = high).
        let phi = Explanation::new(vec![Atom::eq(
            db.schema().attr("Author", "name").unwrap(),
            "JG",
        )]);
        let mu = degrees(&db, &question, &phi).mu_interv;
        assert_eq!(mu, -1.0);
    }

    #[test]
    fn better_explanations_rank_higher_by_intervention() {
        // For (Q = #SIGMOD pubs, high), removing RR flattens Q more than
        // removing JG, so μ(RR) > μ(JG).
        let db = figure3_db();
        let question = UserQuestion::new(sigmod_count(&db), Direction::High);
        let name = db.schema().attr("Author", "name").unwrap();
        let mu_rr = degrees(
            &db,
            &question,
            &Explanation::new(vec![Atom::eq(name, "RR")]),
        )
        .mu_interv;
        let mu_jg = degrees(
            &db,
            &question,
            &Explanation::new(vec![Atom::eq(name, "JG")]),
        )
        .mu_interv;
        assert!(mu_rr > mu_jg);
    }

    #[test]
    fn trivial_explanation_aggravates_to_original_value() {
        let db = figure3_db();
        let question = UserQuestion::new(sigmod_count(&db), Direction::High);
        let q_d = question.query.eval(&db).unwrap();
        let mu = degrees(&db, &question, &Explanation::trivial()).mu_aggr;
        assert_eq!(mu, q_d);
    }
}
