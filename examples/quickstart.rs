//! Quickstart: the paper's running example end to end.
//!
//! Builds the Figure 3 instance (three authors, three publications),
//! asks "why are there so many SIGMOD publications?", and prints the
//! explanations ranked by intervention and by aggravation.
//!
//! Run with `cargo run --example quickstart`.

use exq::prelude::*;
use exq_core::{cube_algo, degree, topk};
use exq_relstore::aggregate::AggFunc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The Figure 3 instance, with the Eq. (2) foreign keys:
    // Authored.id → Author.id (standard: deleting an author deletes her
    // authorship records) and Authored.pubid ↪ Publication.pubid
    // (back-and-forth: every author is necessary for her paper).
    let db = exq::datagen::paper_examples::figure3();
    println!("schema:\n{}", db.schema());

    // The user question: Q = COUNT(DISTINCT pubid) of SIGMOD papers,
    // which the user finds surprisingly HIGH.
    let venue = db.schema().attr("Publication", "venue")?;
    let pubid = db.schema().attr("Publication", "pubid")?;
    let question = UserQuestion::new(
        NumericalQuery::single(AggregateQuery {
            func: AggFunc::CountDistinct(pubid),
            selection: Predicate::eq(venue, "SIGMOD"),
        }),
        Direction::High,
    );
    println!("Q(D) = {}", question.query.eval(&db)?);

    // One candidate explanation, inspected by hand (Example 2.8): note the
    // asymmetric intervention the causal path produces — the publication
    // from 2001 is deleted, but the author JG is not.
    let phi = Explanation::new(vec![
        Atom::eq(db.schema().attr("Author", "name")?, "JG"),
        Atom::eq(db.schema().attr("Publication", "year")?, 2001),
    ]);
    let engine = InterventionEngine::new(&db);
    let iv = engine.compute(&phi);
    println!("\nφ = {}", phi.display(&db));
    for (rel, delta) in iv.delta.iter().enumerate() {
        let name = &db.schema().relation(rel).name;
        let rows: Vec<usize> = delta.iter().collect();
        println!("  Δ_{name} = {rows:?}");
    }
    println!("  fixpoint reached in {} iterations", iv.iterations);
    let d = degree::evaluate(&engine, &question, &phi.conjunction().to_predicate())?;
    println!("  μ_interv = {}, μ_aggr = {}", d.mu_interv, d.mu_aggr);

    // All explanations over A' = {Author.name, Publication.year} via
    // Algorithm 1 (COUNT(DISTINCT pubid) is intervention-additive here),
    // then minimal top-3.
    let u = Universal::compute(&db, &db.full_view());
    let dims = vec![
        db.schema().attr("Author", "name")?,
        db.schema().attr("Publication", "year")?,
    ];
    let m = cube_algo::explanation_table(&db, &u, &question, &dims, CubeAlgoConfig::checked())?;
    println!("\nexplanation table M ({} candidates):", m.len());
    print!("{}", m.render(&db, 20));

    println!("top-3 minimal explanations by intervention:");
    for r in topk::top_k(
        &m,
        DegreeKind::Intervention,
        3,
        TopKStrategy::MinimalSelfJoin,
        MinimalityPolarity::PreferGeneral,
    ) {
        println!(
            "  {}. {}  (μ = {:.3})",
            r.rank,
            r.explanation.display(&db),
            r.degree
        );
    }

    println!("top-3 minimal explanations by aggravation:");
    for r in topk::top_k(
        &m,
        DegreeKind::Aggravation,
        3,
        TopKStrategy::MinimalSelfJoin,
        MinimalityPolarity::PreferGeneral,
    ) {
        println!(
            "  {}. {}  (μ = {:.3})",
            r.rank,
            r.explanation.display(&db),
            r.degree
        );
    }

    // Aggravation of a single explanation, straight from Definition 2.4.
    let phi = Explanation::new(vec![Atom::eq(db.schema().attr("Author", "name")?, "RR")]);
    println!(
        "\nμ_aggr([Author.name = RR]) = {}",
        degree::evaluate(&engine, &question, &phi.conjunction().to_predicate())?.mu_aggr
    );
    Ok(())
}
