//! Loading your own data: CSV import, the high-level `Explainer` façade,
//! rich explanations (ranges/disjunctions), and a regression-slope
//! question (the Section 6 extensions).
//!
//! A small web-shop scenario: weekly order counts are *declining* and we
//! want to know why. The data is a CSV of orders; explanations are sought
//! over categorical attributes, and the user question is "why is the
//! slope of the weekly series negative?".
//!
//! Run with `cargo run --example csv_explainer`.

use exq::prelude::*;
use exq_core::explainer::Explainer;
use exq_core::rich::{self, RichExplanation, RichPart};
use exq_relstore::csv;

const ORDERS_CSV: &str = "\
id,week,region,channel,status
1,1,north,web,ok
2,1,north,web,ok
3,1,south,web,ok
4,1,south,store,ok
5,1,north,store,ok
6,2,north,web,ok
7,2,south,web,ok
8,2,north,store,ok
9,2,south,store,ok
10,3,north,web,ok
11,3,south,store,ok
12,3,north,store,cancelled
13,4,north,web,ok
14,4,south,store,cancelled
15,4,north,store,cancelled
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Declare the schema and load the CSV.
    let schema = SchemaBuilder::new()
        .relation(
            "Orders",
            &[
                ("id", ValueType::Int),
                ("week", ValueType::Int),
                ("region", ValueType::Str),
                ("channel", ValueType::Str),
                ("status", ValueType::Str),
            ],
            &["id"],
        )
        .build()?;
    let mut db = Database::new(schema);
    let loaded = csv::load_relation(&mut db, "Orders", ORDERS_CSV.as_bytes())?;
    db.validate()?;
    println!("loaded {loaded} orders from CSV");

    // 2. The user question: the weekly series of successful orders is
    //    declining — why is its regression slope so low?
    let week = db.schema().attr("Orders", "week")?;
    let status = db.schema().attr("Orders", "status")?;
    let weekly = (1..=4)
        .map(|w| {
            AggregateQuery::count_star(Predicate::and([
                Predicate::eq(week, w),
                Predicate::eq(status, "ok"),
            ]))
        })
        .collect();
    let question = UserQuestion::new(NumericalQuery::regression_slope(weekly), Direction::Low);
    println!(
        "slope of the weekly ok-order series: {:.3}",
        question.query.eval(&db)?
    );

    // 3. Rank explanations over the categorical attributes with the
    //    Explainer façade (it checks additivity and picks Algorithm 1).
    let explainer =
        Explainer::new(&db, question.clone()).attr_names(&["Orders.region", "Orders.channel"])?;
    println!("\ntop explanations by intervention (what, if removed, flattens the decline?):");
    for r in explainer.top(DegreeKind::Intervention, 3)? {
        println!(
            "  {}. {}  (μ = {:.3})",
            r.rank,
            r.explanation.display(&db),
            r.degree
        );
    }

    // 4. Drill into the best explanation: exact intervention + all three
    //    degrees.
    let top = explainer.top(DegreeKind::Intervention, 1)?;
    let report = explainer.explain(&top[0].explanation)?;
    println!(
        "\ndrill-down on {}: deletes {} tuples, μ_interv = {:.3}, μ_aggr = {:.3}, μ_hybrid = {:.3}",
        top[0].explanation.display(&db),
        report.intervention.total_deleted(),
        report.mu_interv,
        report.mu_aggr,
        report.mu_hybrid,
    );

    // 5. Rich explanations: which *week range* explains the decline?
    let u = Universal::compute(&db, &db.full_view());
    let candidates = rich::range_candidates(&db, &u, week, 2);
    let ranked = explainer.rich_top(candidates, 3)?;
    println!("\nbest week-range explanations (exact, per-candidate evaluation):");
    for r in ranked.iter().take(3) {
        println!(
            "  {}  (μ_interv = {:.3})",
            r.explanation.display(&db),
            r.mu_interv
        );
    }

    // And a disjunction, the "Levy ∨ Halevy" shape:
    let channel = db.schema().attr("Orders", "channel")?;
    let disj = RichExplanation::new(vec![RichPart::OneOf {
        attr: channel,
        values: vec!["store".into(), "web".into()],
    }]);
    let ranked = explainer.rich_top(vec![disj], 1)?;
    println!(
        "\ndisjunction over both channels (removes everything): μ_interv = {:.3}",
        ranked[0].mu_interv
    );
    Ok(())
}
