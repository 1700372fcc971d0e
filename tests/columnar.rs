//! Differential tests for the columnar storage rebuild: the
//! dictionary-coded cube/join path against the retained row-oriented
//! `Value` reference path, bit for bit, on the two headline experiment
//! workloads (DBLP Figure 2, natality Figure 10) — plus the
//! thread-count stability of dictionary code assignment.

use exq::datagen::{dblp, natality};
use exq::prelude::*;
use exq_core::cube_algo::{self, CubeAlgoConfig};
use exq_core::prepared::PreparedDb;
use exq_relstore::aggregate::AggFunc;
use exq_relstore::cube::{self, CubeStrategy};
use exq_relstore::{AttrRef, Database, ExecConfig, Universal};
use std::sync::Arc;

const THREADS: [usize; 3] = [1, 2, 7];

fn dblp_question(db: &Database) -> UserQuestion {
    let schema = db.schema();
    let pubid = schema.attr("Publication", "pubid").unwrap();
    let venue = schema.attr("Publication", "venue").unwrap();
    let year = schema.attr("Publication", "year").unwrap();
    let dom = schema.attr("Author", "dom").unwrap();
    let q = |d: &str, w: (i32, i32)| AggregateQuery {
        func: AggFunc::CountDistinct(pubid),
        selection: Predicate::and([
            Predicate::eq(venue, "SIGMOD"),
            Predicate::eq(dom, d),
            Predicate::between(year, w.0, w.1),
        ]),
    };
    UserQuestion::new(
        NumericalQuery::double_ratio(
            q("com", (2000, 2004)),
            q("com", (2007, 2011)),
            q("edu", (2000, 2004)),
            q("edu", (2007, 2011)),
        )
        .with_smoothing(1e-4),
        Direction::High,
    )
}

fn natality_question(db: &Database) -> UserQuestion {
    let schema = db.schema();
    let ap = schema.attr("Natality", "ap").unwrap();
    let race = schema.attr("Natality", "race").unwrap();
    let q = |o: &str| {
        AggregateQuery::count_star(Predicate::and([
            Predicate::eq(ap, o),
            Predicate::eq(race, "Asian"),
        ]))
    };
    UserQuestion::new(
        NumericalQuery::ratio(q("good"), q("poor")).with_smoothing(1e-4),
        Direction::High,
    )
}

/// `explanation_table` (the coded engine) against
/// `explanation_table_reference` (the row-oriented oracle), requiring
/// full bit-identity, at every thread count.
fn assert_coded_matches_reference(db: &Database, question: &UserQuestion, dims: &[AttrRef]) {
    let u = Universal::compute(db, &db.full_view());
    for threads in THREADS {
        let config = || CubeAlgoConfig::checked().with_exec(ExecConfig::with_threads(threads));
        let coded = cube_algo::explanation_table(db, &u, question, dims, config()).unwrap();
        let reference =
            cube_algo::explanation_table_reference(db, &u, question, dims, config()).unwrap();
        assert!(!coded.is_empty());
        assert_eq!(coded, reference, "threads = {threads}");
    }
}

#[test]
fn dblp_columnar_table_matches_row_reference() {
    let db = dblp::generate(&dblp::DblpConfig::default());
    let schema = db.schema();
    let dims = vec![
        schema.attr("Author", "inst").unwrap(),
        schema.attr("Author", "name").unwrap(),
    ];
    assert_coded_matches_reference(&db, &dblp_question(&db), &dims);
}

#[test]
fn natality_columnar_table_matches_row_reference() {
    let db = natality::generate(&natality::NatalityConfig {
        rows: 20_000,
        seed: 7,
    });
    let schema = db.schema();
    let dims = vec![
        schema.attr("Natality", "age").unwrap(),
        schema.attr("Natality", "tobacco").unwrap(),
        schema.attr("Natality", "prenatal").unwrap(),
        schema.attr("Natality", "edu").unwrap(),
        schema.attr("Natality", "marital").unwrap(),
    ];
    assert_coded_matches_reference(&db, &natality_question(&db), &dims);
}

/// Cube-level differential, per strategy: the decoded coded cube equals
/// the row-oriented cube cell for cell, down to the last float bit.
#[test]
fn coded_cube_is_bit_identical_to_row_cube_per_strategy() {
    let db = natality::generate(&natality::NatalityConfig {
        rows: 5_000,
        seed: 11,
    });
    let schema = db.schema();
    let u = Universal::compute(&db, &db.full_view());
    let dims = vec![
        schema.attr("Natality", "tobacco").unwrap(),
        schema.attr("Natality", "edu").unwrap(),
        schema.attr("Natality", "marital").unwrap(),
    ];
    let id = schema.attr("Natality", "id").unwrap();
    for strategy in [CubeStrategy::SubsetEnumeration, CubeStrategy::LatticeRollup] {
        for agg in [AggFunc::CountStar, AggFunc::Avg(id)] {
            let exec = ExecConfig::with_threads(3);
            let coded =
                cube::compute_coded_with(&db, &u, &Predicate::True, &dims, &agg, strategy, &exec)
                    .unwrap()
                    .decode();
            let rows =
                cube::compute_rows_with(&db, &u, &Predicate::True, &dims, &agg, strategy, &exec)
                    .unwrap();
            assert_eq!(coded.len(), rows.len(), "{strategy:?} / {agg:?}");
            for (coord, value) in &rows.cells {
                let c = coded
                    .cells
                    .get(coord)
                    .unwrap_or_else(|| panic!("coded cube missing {coord:?}"));
                assert_eq!(
                    c.to_bits(),
                    value.to_bits(),
                    "{strategy:?} / {agg:?} at {coord:?}"
                );
            }
        }
    }
}

/// Dictionary code assignment depends only on stored row order: preparing
/// the same instance on 1, 2, and 7 worker threads yields bit-identical
/// code arrays for every column.
#[test]
fn dictionary_codes_are_stable_across_thread_counts() {
    let db = dblp::generate(&dblp::DblpConfig::default());
    let all_attrs: Vec<AttrRef> = {
        let schema = db.schema();
        (0..schema.relation_count())
            .flat_map(|rel| (0..schema.relation(rel).arity()).map(move |col| AttrRef { rel, col }))
            .collect()
    };
    let codes_at = |threads: usize| -> Vec<Vec<u32>> {
        // A fresh instance (materialize starts with an empty column cache)
        // prepared on `threads` workers; the store is built inside build_with.
        let fresh = db.materialize(&db.full_view());
        let prepared = PreparedDb::build_with(Arc::new(fresh), &ExecConfig::with_threads(threads));
        let store = Arc::clone(prepared.db().columns());
        all_attrs
            .iter()
            .map(|&a| store.dict_column(a).0.to_vec())
            .collect()
    };
    let baseline = codes_at(1);
    for threads in THREADS {
        assert_eq!(codes_at(threads), baseline, "threads = {threads}");
    }
}
