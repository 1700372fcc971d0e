//! End-to-end agreement between Algorithm 1 (cube) and the naive
//! baseline, on both datasets where the additivity conditions hold:
//! the natality table (COUNT(*) with no foreign keys) and the DBLP
//! bibliography (COUNT(DISTINCT pubid) through the back-and-forth key).

use exq::datagen::{dblp, natality};
use exq::prelude::*;
use exq_core::intervention::InterventionEngine;
use exq_core::{additivity, cube_algo, naive, topk};
use exq_relstore::aggregate::AggFunc;

fn assert_tables_agree(
    naive_t: &exq_core::table_m::ExplanationTable,
    cube_t: &exq_core::table_m::ExplanationTable,
) {
    assert_eq!(naive_t.totals, cube_t.totals);
    assert_eq!(naive_t.len(), cube_t.len(), "same candidate set");
    for (n, c) in naive_t.rows.iter().zip(&cube_t.rows) {
        assert_eq!(n.coord, c.coord);
        assert_eq!(n.values, c.values, "v_j at {:?}", n.coord);
        assert!(
            (n.mu_interv - c.mu_interv).abs() < 1e-9,
            "μ_interv at {:?}: naive {} vs cube {}",
            n.coord,
            n.mu_interv,
            c.mu_interv
        );
        assert!(
            (n.mu_aggr - c.mu_aggr).abs() < 1e-9,
            "μ_aggr at {:?}",
            n.coord
        );
    }
}

#[test]
fn natality_count_star_tables_agree() {
    let db = natality::generate(&natality::NatalityConfig {
        rows: 2_000,
        seed: 3,
    });
    let schema = db.schema();
    let question = exq_bench::q_marital(&db);
    let dims = vec![
        schema.attr("Natality", "tobacco").unwrap(),
        schema.attr("Natality", "edu").unwrap(),
    ];

    let engine = InterventionEngine::new(&db);
    assert!(additivity::query_is_additive(
        &db,
        engine.universal(),
        &question.query
    ));

    let naive_t = naive::explanation_table_naive(&db, &engine, &question, &dims).unwrap();
    let u = Universal::compute(&db, &db.full_view());
    let cube_t = cube_algo::explanation_table(
        &db,
        &u,
        &question,
        &dims,
        cube_algo::CubeAlgoConfig::checked(),
    )
    .unwrap();
    assert_tables_agree(&naive_t, &cube_t);
}

#[test]
fn dblp_count_distinct_tables_agree() {
    // COUNT(DISTINCT pubid) through the back-and-forth key, three-table
    // join, selections on attributes of both Author and Publication whose
    // consistency with the explanation atoms the footnote-11 argument
    // needs (venue/year live on Publication; the explanation attributes
    // are Author-side).
    let db = dblp::generate(&dblp::DblpConfig {
        papers_per_year_base: 6,
        years: (1998, 2008),
        authors_per_institution: 4,
        seed: 9,
    });
    let schema = db.schema();
    let pubid = schema.attr("Publication", "pubid").unwrap();
    let venue = schema.attr("Publication", "venue").unwrap();
    let year = schema.attr("Publication", "year").unwrap();
    let question = UserQuestion::new(
        NumericalQuery::ratio(
            AggregateQuery {
                func: AggFunc::CountDistinct(pubid),
                selection: Predicate::and([
                    Predicate::eq(venue, "SIGMOD"),
                    Predicate::between(year, 1998, 2003),
                ]),
            },
            AggregateQuery {
                func: AggFunc::CountDistinct(pubid),
                selection: Predicate::and([
                    Predicate::eq(venue, "SIGMOD"),
                    Predicate::between(year, 2004, 2008),
                ]),
            },
        )
        .with_smoothing(1e-4),
        Direction::High,
    );
    let dims = vec![schema.attr("Author", "inst").unwrap()];

    let engine = InterventionEngine::new(&db);
    assert!(additivity::query_is_additive(
        &db,
        engine.universal(),
        &question.query
    ));

    let naive_t = naive::explanation_table_naive(&db, &engine, &question, &dims).unwrap();
    let u = Universal::compute(&db, &db.full_view());
    let cube_t = cube_algo::explanation_table(
        &db,
        &u,
        &question,
        &dims,
        cube_algo::CubeAlgoConfig::checked(),
    )
    .unwrap();
    assert_tables_agree(&naive_t, &cube_t);
}

#[test]
fn topk_strategies_agree_on_real_table() {
    let db = natality::generate(&natality::NatalityConfig {
        rows: 5_000,
        seed: 5,
    });
    let schema = db.schema();
    let ap = schema.attr("Natality", "ap").unwrap();
    let question = UserQuestion::new(
        NumericalQuery::ratio(
            AggregateQuery::count_star(Predicate::eq(ap, "good")),
            AggregateQuery::count_star(Predicate::eq(ap, "poor")),
        )
        .with_smoothing(1e-4),
        Direction::High,
    );
    let dims = vec![
        schema.attr("Natality", "tobacco").unwrap(),
        schema.attr("Natality", "prenatal").unwrap(),
        schema.attr("Natality", "edu").unwrap(),
    ];
    let u = Universal::compute(&db, &db.full_view());
    let m = cube_algo::explanation_table(
        &db,
        &u,
        &question,
        &dims,
        cube_algo::CubeAlgoConfig::checked(),
    )
    .unwrap();

    for kind in [
        topk::DegreeKind::Intervention,
        topk::DegreeKind::Aggravation,
    ] {
        for k in [1, 5, 20] {
            let sj = topk::top_k(
                &m,
                kind,
                k,
                topk::TopKStrategy::MinimalSelfJoin,
                topk::MinimalityPolarity::PreferGeneral,
            );
            let ap_ = topk::top_k(
                &m,
                kind,
                k,
                topk::TopKStrategy::MinimalAppend,
                topk::MinimalityPolarity::PreferGeneral,
            );
            // The two minimality strategies agree whenever degrees are
            // distinct; with the smoothing the real table has distinct
            // degrees almost surely. Compare explanation sets.
            let a: Vec<_> = sj.iter().map(|r| r.row).collect();
            let b: Vec<_> = ap_.iter().map(|r| r.row).collect();
            assert_eq!(a, b, "kind={kind:?} k={k}");

            // Every returned explanation must be minimal: no strict
            // generalization in M with ≥ degree.
            for r in &sj {
                let row = &m.rows[r.row];
                for other in &m.rows {
                    let degree = |x: &exq_core::table_m::ExplanationRow| match kind {
                        topk::DegreeKind::Intervention => x.mu_interv,
                        topk::DegreeKind::Aggravation => x.mu_aggr,
                    };
                    if other.arity() < row.arity() && other.coord_generalizes(row) {
                        assert!(
                            degree(other) < degree(row),
                            "non-minimal output {:?}",
                            row.coord
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn no_minimal_contains_minimal_results() {
    // Every minimal top-k explanation appears in a long-enough NoMinimal
    // prefix (minimality only filters, never invents).
    let db = natality::generate(&natality::NatalityConfig {
        rows: 3_000,
        seed: 6,
    });
    let schema = db.schema();
    let ap = schema.attr("Natality", "ap").unwrap();
    let question = UserQuestion::new(
        NumericalQuery::ratio(
            AggregateQuery::count_star(Predicate::eq(ap, "good")),
            AggregateQuery::count_star(Predicate::eq(ap, "poor")),
        )
        .with_smoothing(1e-4),
        Direction::High,
    );
    let dims = vec![
        schema.attr("Natality", "age").unwrap(),
        schema.attr("Natality", "edu").unwrap(),
    ];
    let u = Universal::compute(&db, &db.full_view());
    let m = cube_algo::explanation_table(
        &db,
        &u,
        &question,
        &dims,
        cube_algo::CubeAlgoConfig::checked(),
    )
    .unwrap();
    let all = topk::top_k(
        &m,
        topk::DegreeKind::Intervention,
        m.len(),
        topk::TopKStrategy::NoMinimal,
        topk::MinimalityPolarity::PreferGeneral,
    );
    let minimal = topk::top_k(
        &m,
        topk::DegreeKind::Intervention,
        10,
        topk::TopKStrategy::MinimalSelfJoin,
        topk::MinimalityPolarity::PreferGeneral,
    );
    let all_rows: Vec<usize> = all.iter().map(|r| r.row).collect();
    for r in &minimal {
        assert!(all_rows.contains(&r.row));
    }
}

/// Differential metrics: both engines must report the *same*
/// `engine.candidates_evaluated`, equal to the table length — the cube
/// engine may not silently skip (or invent) candidates relative to the
/// per-candidate baseline.
fn assert_candidate_counters_agree(
    db: &exq_relstore::Database,
    question: &UserQuestion,
    dims: &[exq_relstore::AttrRef],
) {
    let naive_sink = exq::obs::MetricsSink::recording();
    let naive_exec = exq_relstore::ExecConfig::sequential().with_metrics(naive_sink.clone());
    let engine = InterventionEngine::new(db);
    let naive_t =
        naive::explanation_table_naive_with(db, &engine, question, dims, &naive_exec).unwrap();

    let cube_sink = exq::obs::MetricsSink::recording();
    let cube_exec = exq_relstore::ExecConfig::sequential().with_metrics(cube_sink.clone());
    let u = Universal::compute(db, &db.full_view());
    let cube_t = cube_algo::explanation_table(
        db,
        &u,
        question,
        dims,
        cube_algo::CubeAlgoConfig::checked().with_exec(cube_exec),
    )
    .unwrap();

    assert_tables_agree(&naive_t, &cube_t);
    let n = naive_sink.snapshot().counter("engine.candidates_evaluated");
    let c = cube_sink.snapshot().counter("engine.candidates_evaluated");
    assert_eq!(n, naive_t.len() as u64, "naive counter == |M|");
    assert_eq!(c, cube_t.len() as u64, "cube counter == |M|");
    assert_eq!(n, c, "engines evaluated different candidate sets");
}

#[test]
fn natality_engines_report_same_candidates_evaluated() {
    let db = natality::generate(&natality::NatalityConfig {
        rows: 2_000,
        seed: 3,
    });
    let schema = db.schema();
    let ap = schema.attr("Natality", "ap").unwrap();
    let question = UserQuestion::new(
        NumericalQuery::ratio(
            AggregateQuery::count_star(Predicate::eq(ap, "good")),
            AggregateQuery::count_star(Predicate::eq(ap, "poor")),
        )
        .with_smoothing(1e-4),
        Direction::High,
    );
    let dims = vec![
        schema.attr("Natality", "tobacco").unwrap(),
        schema.attr("Natality", "edu").unwrap(),
    ];
    assert_candidate_counters_agree(&db, &question, &dims);
}

#[test]
fn dblp_engines_report_same_candidates_evaluated() {
    let db = dblp::generate(&dblp::DblpConfig {
        papers_per_year_base: 6,
        years: (1998, 2008),
        authors_per_institution: 4,
        seed: 9,
    });
    let schema = db.schema();
    let pubid = schema.attr("Publication", "pubid").unwrap();
    let venue = schema.attr("Publication", "venue").unwrap();
    let year = schema.attr("Publication", "year").unwrap();
    let question = UserQuestion::new(
        NumericalQuery::ratio(
            AggregateQuery {
                func: AggFunc::CountDistinct(pubid),
                selection: Predicate::and([
                    Predicate::eq(venue, "SIGMOD"),
                    Predicate::between(year, 1998, 2003),
                ]),
            },
            AggregateQuery {
                func: AggFunc::CountDistinct(pubid),
                selection: Predicate::and([
                    Predicate::eq(venue, "SIGMOD"),
                    Predicate::between(year, 2004, 2008),
                ]),
            },
        )
        .with_smoothing(1e-4),
        Direction::High,
    );
    let dims = vec![schema.attr("Author", "inst").unwrap()];
    assert_candidate_counters_agree(&db, &question, &dims);
}
