//! The Section 4.1 back-and-forth elimination workflow.
//!
//! `COUNT(*)` questions are *not* intervention-additive in the presence of
//! a back-and-forth foreign key, so Algorithm 1 refuses them (the checked
//! cube returns an error) and the exact naive engine must run per
//! candidate. The paper's workaround: bound the key's fan-out (every paper
//! has at most c authors), copy the referencing tables c times, and turn
//! every key standard — after which `COUNT(*)` *is* additive and the cube
//! applies.
//!
//! This example walks the whole path on the running example: the refusal,
//! the naive ground truth, the transform, and the cube on the transformed
//! database agreeing with the ground truth.
//!
//! Run with `cargo run --example transform`.

use exq::datagen::paper_examples;
use exq::prelude::*;
use exq_core::explanation::Explanation;
use exq_core::intervention::InterventionEngine;
use exq_core::{additivity, cube_algo, degree, transform};
use exq_relstore::aggregate::{evaluate, AggFunc};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let db = paper_examples::figure3();
    let u = Universal::compute(&db, &db.full_view());
    let venue = db.schema().attr("Publication", "venue")?;

    // COUNT(*) of SIGMOD universal tuples, dir = high.
    let question = UserQuestion::new(
        NumericalQuery::single(AggregateQuery::count_star(Predicate::eq(venue, "SIGMOD"))),
        Direction::High,
    );
    println!(
        "Q(D) = {} (COUNT(*) of SIGMOD universal tuples)",
        question.query.eval(&db)?
    );

    // 1. The additivity check fails — the checked cube refuses.
    let check = additivity::check_aggregate(&db, &u, &AggFunc::CountStar);
    println!("additivity check: {check:?}");
    let dims = vec![db.schema().attr("Author", "name")?];
    let refused =
        cube_algo::explanation_table(&db, &u, &question, &dims, CubeAlgoConfig::checked());
    println!("checked cube: {}", refused.unwrap_err());

    // 2. Exact ground truth via program P per candidate.
    let engine = InterventionEngine::new(&db);
    println!("\nexact μ_interv per author (naive engine):");
    let name = db.schema().attr("Author", "name")?;
    for n in ["JG", "RR", "CM"] {
        let phi = Explanation::new(vec![Atom::eq(name, n)]);
        let d = degree::evaluate(&engine, &question, &phi.conjunction().to_predicate())?;
        println!(
            "  [name = {n}]  μ = {:+.1}  ({} tuples deleted)",
            d.mu_interv,
            d.intervention.total_deleted()
        );
    }

    // 3. The Section 4.1 transform: every paper here has ≤ 2 authors, so
    //    two copies suffice; all keys become standard.
    let bf = db
        .schema()
        .foreign_keys()
        .iter()
        .position(|fk| fk.kind == exq::relstore::FkKind::BackAndForth)
        .expect("the running example has one back-and-forth key");
    let elim = transform::eliminate_back_and_forth(&db, bf)?;
    println!(
        "\ntransformed schema: {} relations, {} copies, back-and-forth keys: {}",
        elim.db.schema().relation_count(),
        elim.copies,
        elim.db.schema().back_and_forth_count()
    );
    let u2 = Universal::compute(&elim.db, &elim.db.full_view());
    println!(
        "COUNT(*) on the transform is additive: {:?}",
        additivity::check_aggregate(&elim.db, &u2, &AggFunc::CountStar)
    );

    // 4. One universal row per publication now, so COUNT(*) equals the
    //    original COUNT(DISTINCT pubid); author predicates become
    //    disjunctions over the copies.
    let venue2 = elim.db.schema().attr(&elim.target_name, "venue")?;
    let sigmod_pubs = evaluate(
        &elim.db,
        &u2,
        &Predicate::eq(venue2, "SIGMOD"),
        &AggFunc::CountStar,
    )?;
    println!("SIGMOD publications via transformed COUNT(*): {sigmod_pubs}");

    let com_pred = elim.rewrite_eq("dom", "com")?;
    let com_pubs = evaluate(&elim.db, &u2, &com_pred, &AggFunc::CountStar)?;
    println!("publications with a com author (disjunction over copies): {com_pubs}");
    Ok(())
}
