//! Integration tests for the Section 4.1 transform and the Section 6
//! extensions, across crates: the Geo-DBLP 8-table pipeline, hybrid vs
//! intervention divergence, rich explanations on the bibliographic data,
//! and the copy transform as a route to cube-computing COUNT(*) under a
//! back-and-forth key.

use exq::datagen::{dblp, geodblp, paper_examples};
use exq::prelude::*;
use exq_core::explainer::{EngineChoice, Explainer};
use exq_core::explanation::Explanation;
use exq_core::intervention::InterventionEngine;
use exq_core::rich::{self, RichPart};
use exq_core::{topk, transform};
use exq_relstore::aggregate::{evaluate, AggFunc};

#[test]
fn geodblp_end_to_end_uk_question() {
    let db = geodblp::generate(&geodblp::GeoDblpConfig {
        papers: 1500,
        seed: 11,
    });
    let schema = db.schema();
    let pubid = schema.attr("Publication", "pubid").unwrap();
    let venue = schema.attr("Publication", "venue").unwrap();
    let country = schema.attr("CountryG", "country").unwrap();
    let uk = Predicate::eq(country, "United Kingdom");
    let q = |v: &str| AggregateQuery {
        func: AggFunc::CountDistinct(pubid),
        selection: Predicate::and([uk.clone(), Predicate::eq(venue, v)]),
    };
    let question = UserQuestion::new(
        NumericalQuery::ratio(q("SIGMOD"), q("PODS")).with_smoothing(1e-4),
        Direction::Low,
    );

    let explainer = Explainer::new(&db, question)
        .attr_names(&["AffiliationG.inst", "CityG.city"])
        .unwrap();
    let (table, choice) = explainer.table().unwrap();
    assert_eq!(
        choice,
        EngineChoice::Cube,
        "COUNT(DISTINCT pubid) is additive here"
    );
    assert!(!table.is_empty());

    // Top explanations are UK-side: every top-5 coordinate names a UK
    // institution or city.
    let top = explainer.top(DegreeKind::Intervention, 5).unwrap();
    let uk_names = [
        "Oxford Univ.",
        "Semmle Ltd.",
        "Univ. of Edinburgh",
        "Imperial College",
        "Oxford",
        "Edinburgh",
        "London",
    ];
    for r in &top {
        let text = r.explanation.display(&db).to_string();
        assert!(
            uk_names.iter().any(|n| text.contains(n)),
            "non-UK explanation in top-5: {text}"
        );
    }

    // The city-level Oxford explanation dominates the institution-level
    // one (Figure 15b's [city = Oxford] vs [inst = Oxford Univ.]): its
    // intervention is at least as strong.
    let city = schema.attr("CityG", "city").unwrap();
    let inst = schema.attr("AffiliationG", "inst").unwrap();
    let mu_city = explainer
        .explain(&Explanation::new(vec![Atom::eq(city, "Oxford")]))
        .unwrap()
        .mu_interv;
    let mu_inst = explainer
        .explain(&Explanation::new(vec![Atom::eq(inst, "Oxford Univ.")]))
        .unwrap()
        .mu_interv;
    assert!(
        mu_city >= mu_inst,
        "city {mu_city} should beat institution {mu_inst}"
    );
}

#[test]
fn hybrid_and_interv_differ_exactly_where_additivity_fails() {
    // On the Figure 3 instance with the back-and-forth key, COUNT(*) is
    // not additive: μ_hybrid bounds μ_interv from below on every row and
    // diverges on at least one, while COUNT(DISTINCT pubid) (additive)
    // agrees everywhere (Section 6(iii)).
    let table = exq_bench::hybrid::hybrid();
    for r in &table.count_star {
        assert!(r.mu_hybrid <= r.mu_interv, "COUNT(*), {}: {r:?}", r.name);
    }
    assert!(
        table.count_star.iter().any(|r| r.mu_hybrid < r.mu_interv),
        "COUNT(*) with a back-and-forth key must diverge somewhere: {:?}",
        table.count_star
    );
    for r in &table.count_distinct {
        assert_eq!(
            r.mu_interv, r.mu_hybrid,
            "additive query: hybrid must equal intervention for {}",
            r.name
        );
    }
    assert_eq!(table.count_star.len(), 3);
    assert_eq!(table.count_distinct.len(), 3);
}

#[test]
fn transform_enables_cube_for_count_star() {
    // COUNT(*) on the original (back-and-forth) schema fails the
    // additivity check; after the Section 4.1 copy transform the
    // rewritten COUNT(*) is additive and equals the original
    // COUNT(DISTINCT pubid) under equivalent selections.
    let db = paper_examples::figure3();
    let u = Universal::compute(&db, &db.full_view());
    assert_eq!(
        exq_core::additivity::check_aggregate(&db, &u, &AggFunc::CountStar),
        exq_core::additivity::Additivity::Unknown
    );

    let bf_idx = db
        .schema()
        .foreign_keys()
        .iter()
        .position(|fk| fk.kind == exq_relstore::FkKind::BackAndForth)
        .unwrap();
    let elim = transform::eliminate_back_and_forth(&db, bf_idx).unwrap();
    let u2 = Universal::compute(&elim.db, &elim.db.full_view());
    assert_eq!(
        exq_core::additivity::check_aggregate(&elim.db, &u2, &AggFunc::CountStar),
        exq_core::additivity::Additivity::CountStarNoBackAndForth
    );

    // Equivalence on a domain predicate, rewritten as a disjunction.
    let dom_pred = elim.rewrite_eq("dom", "com").unwrap();
    let transformed = evaluate(&elim.db, &u2, &dom_pred, &AggFunc::CountStar).unwrap();
    let pubid = db.schema().attr("Publication", "pubid").unwrap();
    let dom = db.schema().attr("Author", "dom").unwrap();
    let original = evaluate(
        &db,
        &u,
        &Predicate::eq(dom, "com"),
        &AggFunc::CountDistinct(pubid),
    )
    .unwrap();
    assert_eq!(transformed, original, "pubs with ≥1 com author");
}

#[test]
fn rich_year_ranges_on_dblp() {
    // "Which year range explains the industrial decline?" — rich range
    // explanations over Publication.year on the synthetic bibliography.
    let db = dblp::generate(&dblp::DblpConfig {
        papers_per_year_base: 10,
        years: (1995, 2010),
        authors_per_institution: 5,
        seed: 4,
    });
    let schema = db.schema();
    let pubid = schema.attr("Publication", "pubid").unwrap();
    let venue = schema.attr("Publication", "venue").unwrap();
    let dom = schema.attr("Author", "dom").unwrap();
    let year = schema.attr("Publication", "year").unwrap();
    // Why is the industrial share of SIGMOD so high overall? (It is
    // driven by the pre-2005 era.)
    let question = UserQuestion::new(
        NumericalQuery::ratio(
            AggregateQuery {
                func: AggFunc::CountDistinct(pubid),
                selection: Predicate::and([
                    Predicate::eq(venue, "SIGMOD"),
                    Predicate::eq(dom, "com"),
                ]),
            },
            AggregateQuery {
                func: AggFunc::CountDistinct(pubid),
                selection: Predicate::and([
                    Predicate::eq(venue, "SIGMOD"),
                    Predicate::eq(dom, "edu"),
                ]),
            },
        )
        .with_smoothing(1e-4),
        Direction::High,
    );
    let engine = InterventionEngine::new(&db);
    let candidates = rich::range_candidates(&db, engine.universal(), year, 6);
    let ranked = Explainer::new(&db, question)
        .rich_top(candidates, usize::MAX)
        .unwrap();
    // The best range must end by 2005 (the com-heavy era): removing it
    // drops the ratio the most.
    let best = &ranked[0].explanation;
    match &best.parts[0] {
        RichPart::Range { hi, .. } => {
            let hi = hi.as_int().unwrap();
            assert!(
                hi <= 2006,
                "best range should cover the industrial era, got hi={hi}"
            );
        }
        other => panic!("expected a range, got {other:?}"),
    }
    // Every candidate's intervention is valid.
    for r in ranked.iter().take(5) {
        let pred = r.explanation.to_predicate();
        let iv = engine.compute_predicate(&pred);
        assert!(exq_core::intervention::is_valid_for_predicate(
            &db, &pred, &iv.delta
        ));
    }
}

#[test]
fn minimal_topk_polarities_on_figure3() {
    // Footnote 12's two polarities on a real table: general-first prefers
    // short explanations, specific-first prefers long ones.
    let db = paper_examples::figure3();
    let venue = db.schema().attr("Publication", "venue").unwrap();
    let pubid = db.schema().attr("Publication", "pubid").unwrap();
    let question = UserQuestion::new(
        NumericalQuery::single(AggregateQuery {
            func: AggFunc::CountDistinct(pubid),
            selection: Predicate::eq(venue, "SIGMOD"),
        }),
        Direction::High,
    );
    let e = Explainer::new(&db, question)
        .attr_names(&["Author.name", "Publication.year"])
        .unwrap();
    let (m, _) = e.table().unwrap();

    let general = topk::top_k(
        &m,
        DegreeKind::Intervention,
        3,
        TopKStrategy::MinimalSelfJoin,
        MinimalityPolarity::PreferGeneral,
    );
    let specific = topk::top_k(
        &m,
        DegreeKind::Intervention,
        3,
        TopKStrategy::MinimalSelfJoin,
        MinimalityPolarity::PreferSpecific,
    );
    let avg = |rs: &[topk::Ranked]| {
        rs.iter().map(|r| r.explanation.len()).sum::<usize>() as f64 / rs.len() as f64
    };
    assert!(
        avg(&general) <= avg(&specific),
        "polarity must shift explanation length"
    );
}
