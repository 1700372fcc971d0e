//! Degrees of explanation (Definitions 2.4 and 2.7), computed directly
//! (without the data cube).
//!
//! * **Aggravation** `μ_aggr(φ) = ± Q(D_φ)`: restrict the database to the
//!   tuples satisfying φ and re-evaluate `Q`. Because a candidate
//!   explanation is a conjunction of per-relation atoms, `σ_φ(U(D))` is
//!   itself the universal relation of `D_φ` (it equals the join of the
//!   selected relations), so `q_j(D_φ) = q_j(σ_φ(U))` — the identity
//!   Section 4.1 relies on.
//! * **Intervention** `μ_interv(φ) = ∓ Q(D − Δ^φ)`: run program **P** and
//!   re-evaluate `Q` on the residual database.
//!
//! These direct evaluations are the ground truth the cube pipeline
//! (`cube_algo`) is tested against, and the engine behind the naive
//! baseline of Figure 12.

use crate::explanation::Explanation;
use crate::intervention::{Intervention, InterventionEngine};
use crate::question::UserQuestion;
use exq_relstore::aggregate::evaluate_many;
use exq_relstore::{Database, Predicate, Result, Universal};

/// `μ_aggr(φ)` by direct evaluation over `σ_φ(U(D))`.
pub fn mu_aggr(
    db: &Database,
    u: &Universal,
    question: &UserQuestion,
    phi: &Explanation,
) -> Result<f64> {
    mu_aggr_predicate(db, u, question, &phi.conjunction().to_predicate())
}

/// `μ_aggr` for an arbitrary boolean predicate φ, evaluated over
/// `σ_φ(U(D))`. For conjunctive φ this equals `Q(D_φ)` exactly (see the
/// module docs); for rich predicates (ranges, disjunctions — Section
/// 6(ii)) it is the natural sub-population reading of aggravation.
pub fn mu_aggr_predicate(
    db: &Database,
    u: &Universal,
    question: &UserQuestion,
    phi: &Predicate,
) -> Result<f64> {
    Ok(aggr_values_predicate(db, u, question, phi)?.1)
}

/// The values `q_j(σ_φ(U(D)))` of every sub-query, folded in one pass
/// over `U`, together with the `μ_aggr` combined from them.
pub fn aggr_values_predicate(
    db: &Database,
    u: &Universal,
    question: &UserQuestion,
    phi: &Predicate,
) -> Result<(Vec<f64>, f64)> {
    let aggregates = &question.query.aggregates;
    let selections: Vec<Predicate> = aggregates
        .iter()
        .map(|q| Predicate::and([phi.clone(), q.selection.clone()]))
        .collect();
    let pairs: Vec<_> = selections
        .iter()
        .zip(aggregates)
        .map(|(sel, q)| (sel, &q.func))
        .collect();
    let values = evaluate_many(db, u, &pairs, false)?.values;
    let mu = question.direction.aggr_sign() * question.query.combine(&values);
    Ok((values, mu))
}

/// `μ_interv(φ)` by running program **P** and evaluating `Q(D − Δ^φ)`
/// directly. Returns the degree together with the intervention (callers
/// often want both).
pub fn mu_interv(
    engine: &InterventionEngine<'_>,
    question: &UserQuestion,
    phi: &Explanation,
) -> Result<(f64, Intervention)> {
    let iv = engine.compute(phi);
    let degree = mu_interv_of(engine.db(), question, &iv)?;
    Ok((degree, iv))
}

/// `μ_interv` for an already-computed intervention.
pub fn mu_interv_of(db: &Database, question: &UserQuestion, iv: &Intervention) -> Result<f64> {
    let residual = db.view_minus(&iv.delta);
    let q = question.query.eval_view(db, &residual)?;
    Ok(question.direction.interv_sign() * q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::question::{AggregateQuery, Direction, NumericalQuery};
    use exq_relstore::aggregate::AggFunc;
    use exq_relstore::{Atom, SchemaBuilder, ValueType as T};

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
        let u = Universal::compute(&db, &db.full_view());
        let question = UserQuestion::new(sigmod_count(&db), Direction::High);
        // φ = [Author.name = RR]: restricting to RR keeps P1 and P3, both
        // SIGMOD → Q(D_φ) = 2; sign is + for dir = high.
        let phi = Explanation::new(vec![Atom::eq(
            db.schema().attr("Author", "name").unwrap(),
            "RR",
        )]);
        assert_eq!(mu_aggr(&db, &u, &question, &phi).unwrap(), 2.0);

        // φ = [Author.name = JG]: JG's pubs are P1 (SIGMOD) and P2 (VLDB).
        let phi = Explanation::new(vec![Atom::eq(
            db.schema().attr("Author", "name").unwrap(),
            "JG",
        )]);
        assert_eq!(mu_aggr(&db, &u, &question, &phi).unwrap(), 1.0);
    }

    #[test]
    fn aggravation_sign_flips_with_direction() {
        let db = figure3_db();
        let u = Universal::compute(&db, &db.full_view());
        let phi = Explanation::new(vec![Atom::eq(
            db.schema().attr("Author", "name").unwrap(),
            "RR",
        )]);
        let high = UserQuestion::new(sigmod_count(&db), Direction::High);
        let low = UserQuestion::new(sigmod_count(&db), Direction::Low);
        assert_eq!(
            mu_aggr(&db, &u, &high, &phi).unwrap(),
            -mu_aggr(&db, &u, &low, &phi).unwrap()
        );
    }

    #[test]
    fn intervention_degree_on_running_example() {
        let db = figure3_db();
        let engine = InterventionEngine::new(&db);
        let question = UserQuestion::new(sigmod_count(&db), Direction::High);
        // φ = [name = RR]: deleting RR deletes his rows s2, s5, which
        // backward-cascade to P1 and P3 — both SIGMOD pubs vanish.
        // Q(D − Δ) = 0, μ = -0.
        let phi = Explanation::new(vec![Atom::eq(
            db.schema().attr("Author", "name").unwrap(),
            "RR",
        )]);
        let (mu, iv) = mu_interv(&engine, &question, &phi).unwrap();
        assert_eq!(mu, 0.0);
        assert!(!iv.is_empty());

        // φ = [name = JG]: deleting JG kills P1 and P2; P3 (SIGMOD)
        // survives. Q(D − Δ) = 1, μ = -1 (dir = high).
        let phi = Explanation::new(vec![Atom::eq(
            db.schema().attr("Author", "name").unwrap(),
            "JG",
        )]);
        let (mu, _) = mu_interv(&engine, &question, &phi).unwrap();
        assert_eq!(mu, -1.0);
    }

    #[test]
    fn better_explanations_rank_higher_by_intervention() {
        // For (Q = #SIGMOD pubs, high), removing RR flattens Q more than
        // removing JG, so μ(RR) > μ(JG).
        let db = figure3_db();
        let engine = InterventionEngine::new(&db);
        let question = UserQuestion::new(sigmod_count(&db), Direction::High);
        let name = db.schema().attr("Author", "name").unwrap();
        let (mu_rr, _) = mu_interv(
            &engine,
            &question,
            &Explanation::new(vec![Atom::eq(name, "RR")]),
        )
        .unwrap();
        let (mu_jg, _) = mu_interv(
            &engine,
            &question,
            &Explanation::new(vec![Atom::eq(name, "JG")]),
        )
        .unwrap();
        assert!(mu_rr > mu_jg);
    }

    #[test]
    fn trivial_explanation_aggravates_to_original_value() {
        let db = figure3_db();
        let u = Universal::compute(&db, &db.full_view());
        let question = UserQuestion::new(sigmod_count(&db), Direction::High);
        let q_d = question.query.eval(&db).unwrap();
        let mu = mu_aggr(&db, &u, &question, &Explanation::trivial()).unwrap();
        assert_eq!(mu, q_d);
    }
}
