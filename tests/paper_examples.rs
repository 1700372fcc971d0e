//! Integration tests pinning the paper's worked examples end to end:
//! Example 2.8 (asymmetric intervention), Example 2.9 (semijoin-reduction
//! requirement forces uniqueness), Example 2.10 (non-monotonicity in the
//! input), Example 4.1 (the cube), and Corollary 3.6.

use exq::datagen::paper_examples;
use exq::prelude::*;
use exq_core::explanation::Explanation;
use exq_core::intervention::{is_valid_intervention, InterventionEngine};
use exq_relstore::aggregate::AggFunc;
use exq_relstore::cube::{self, CubeStrategy};
use exq_relstore::semijoin;

fn phi_jg_2001(db: &Database) -> Explanation {
    Explanation::new(vec![
        Atom::eq(db.schema().attr("Author", "name").unwrap(), "JG"),
        Atom::eq(db.schema().attr("Publication", "year").unwrap(), 2001),
    ])
}

#[test]
fn example_28_back_and_forth_vs_standard() {
    // With the Eq. (2) keys: Δ_Author = ∅, Δ_Authored = {s1, s2},
    // Δ_Publication = {t1}.
    let db = paper_examples::figure3();
    let engine = InterventionEngine::new(&db);
    let iv = engine.compute(&phi_jg_2001(&db));
    let rel = |n: &str| db.schema().relation_index(n).unwrap();
    assert!(iv.delta[rel("Author")].is_empty());
    assert_eq!(
        iv.delta[rel("Authored")].iter().collect::<Vec<_>>(),
        vec![0, 1]
    );
    assert_eq!(
        iv.delta[rel("Publication")].iter().collect::<Vec<_>>(),
        vec![0]
    );

    // With standard keys only: Δ_Authored = {s1}, everything else empty.
    let db = paper_examples::figure3_standard_only();
    let engine = InterventionEngine::new(&db);
    let iv = engine.compute(&phi_jg_2001(&db));
    assert_eq!(iv.total_deleted(), 1);
    assert_eq!(
        iv.delta[rel("Authored")].iter().collect::<Vec<_>>(),
        vec![0]
    );
}

#[test]
fn example_29_unique_minimal_intervention_is_whole_database() {
    // φ = [R1.x = a ∧ R2.y = b ∧ R3.z = c]. Without the semijoin-reduction
    // requirement there would be two minimal interventions ({S1} or {S2});
    // with it, the minimal intervention is all of D.
    let db = paper_examples::example_29();
    let schema = db.schema();
    let phi = Explanation::new(vec![
        Atom::eq(schema.attr("R1", "x").unwrap(), "a"),
        Atom::eq(schema.attr("R2", "y").unwrap(), "b"),
        Atom::eq(schema.attr("R3", "z").unwrap(), "c"),
    ]);
    let engine = InterventionEngine::new(&db);
    let iv = engine.compute(&phi);
    assert_eq!(iv.total_deleted(), db.total_tuples(), "Δ^φ = D");
    assert!(is_valid_intervention(&db, phi.conjunction(), &iv.delta));

    // The two would-be minimal candidates are NOT valid interventions:
    // their residuals are not semijoin-reduced.
    for rel in ["S1", "S2"] {
        let mut delta = db.empty_delta();
        delta[schema.relation_index(rel).unwrap()].insert(0);
        assert!(
            !is_valid_intervention(&db, phi.conjunction(), &delta),
            "deleting only {rel} must be invalid"
        );
        let residual = db.view_minus(&delta);
        assert!(!semijoin::is_reduced(&db, &residual));
    }
}

#[test]
fn example_210_intervention_is_non_monotone_in_the_input() {
    // Adding tuples to D makes Δ^φ smaller.
    let small = paper_examples::example_29();
    let big = paper_examples::example_210();
    let phi = |db: &Database| {
        Explanation::new(vec![
            Atom::eq(db.schema().attr("R1", "x").unwrap(), "a"),
            Atom::eq(db.schema().attr("R2", "y").unwrap(), "b"),
            Atom::eq(db.schema().attr("R3", "z").unwrap(), "c"),
        ])
    };

    let iv_small = InterventionEngine::new(&small).compute(&phi(&small));
    assert_eq!(iv_small.total_deleted(), 5, "everything goes");

    let iv_big = InterventionEngine::new(&big).compute(&phi(&big));
    assert_eq!(iv_big.total_deleted(), 3, "only S1(a,b), R2(b), S2(b,c) go");
    let schema = big.schema();
    assert!(iv_big.delta[schema.relation_index("S1").unwrap()].contains(0));
    assert!(iv_big.delta[schema.relation_index("R2").unwrap()].contains(0));
    assert!(iv_big.delta[schema.relation_index("S2").unwrap()].contains(0));
    // R1(a) and R3(c) survive thanks to the alternative path through b2.
    assert!(iv_big.delta[schema.relation_index("R1").unwrap()].is_empty());
    assert!(iv_big.delta[schema.relation_index("R3").unwrap()].is_empty());
    assert!(is_valid_intervention(
        &big,
        phi(&big).conjunction(),
        &iv_big.delta
    ));
}

#[test]
fn example_41_cube_rows() {
    // The 11-row cube over (name, year) with COUNT(*).
    let db = paper_examples::figure3();
    let u = Universal::compute(&db, &db.full_view());
    let dims = vec![
        db.schema().attr("Author", "name").unwrap(),
        db.schema().attr("Publication", "year").unwrap(),
    ];
    for strategy in [CubeStrategy::SubsetEnumeration, CubeStrategy::LatticeRollup] {
        let c = cube::compute(
            &db,
            &u,
            &Predicate::True,
            &dims,
            &AggFunc::CountStar,
            strategy,
        )
        .unwrap();
        assert_eq!(c.len(), 11);
        assert_eq!(c.get(&[Value::str("RR"), Value::Int(2001)]), Some(2.0));
        assert_eq!(c.get(&[Value::Null, Value::Int(2001)]), Some(4.0));
        assert_eq!(c.grand_total(), Some(6.0));
    }
}

#[test]
fn corollary_36_residual_universal_equals_negated_selection() {
    // With no back-and-forth keys:
    // (R1−Δ1) ⋈ … ⋈ (Rk−Δk) = σ_{¬φ}(R1 ⋈ … ⋈ Rk).
    let db = paper_examples::figure3_standard_only();
    let engine = InterventionEngine::new(&db);
    let u = Universal::compute(&db, &db.full_view());
    for phi in [
        phi_jg_2001(&db),
        Explanation::new(vec![Atom::eq(
            db.schema().attr("Author", "dom").unwrap(),
            "com",
        )]),
        Explanation::new(vec![Atom::eq(
            db.schema().attr("Publication", "venue").unwrap(),
            "SIGMOD",
        )]),
    ] {
        let iv = engine.compute(&phi);
        let residual_u = Universal::compute(&db, &db.view_minus(&iv.delta));
        let mut lhs: Vec<Vec<u32>> = residual_u.iter().map(|t| t.to_vec()).collect();
        let mut rhs: Vec<Vec<u32>> = u
            .iter()
            .filter(|t| !phi.eval(&db, t))
            .map(|t| t.to_vec())
            .collect();
        lhs.sort();
        rhs.sort();
        assert_eq!(lhs, rhs, "Corollary 3.6 fails for {}", phi.display(&db));
    }
}

#[test]
fn figure6_schema_causal_graph() {
    let db = paper_examples::figure3();
    let g = db.schema().causal_graph();
    assert!(g.is_simple());
    assert_eq!(g.dotted.len(), 1);
    assert_eq!(g.solid.len(), 2);
    assert_eq!(g.max_back_and_forth_per_relation(), 1);
}

#[test]
fn example_22_numerical_query_on_figure3() {
    // Q = (q1/q2) × (q4/q3) from Example 2.2, evaluated on the tiny
    // instance (with smoothing — several windows are empty).
    let db = paper_examples::figure3();
    let query = exq_bench::bump_question(&db).query;
    let v = query.eval(&db).unwrap();
    // q1 = 2 (P1, P3 have com authors), q2 = 0, q3 = 1 (P1 has JG), q4 = 0:
    // Q = (2+ε)/(ε) / ((1+ε)/(ε)) = (2+ε)/(1+ε) ≈ 2.
    assert!((v - 2.0).abs() < 1e-3, "Q = {v}");
}
