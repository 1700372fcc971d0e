//! Differential tests for the columnar engine: Algorithm 1 in code space
//! (one selection pass, the coded cube kernel, the m-lane join) against
//! `explanation_table_reference` (a scan per sub-query, the same kernel's
//! cubes decoded, the `Value`-keyed dummy-value join and
//! `table_m::derive_rows`), bit for bit, for every cube strategy at 1, 2
//! and 7 threads — on the three experiment workloads (DBLP Figure 2,
//! natality Figure 10, Geo-DBLP Figure 15) and on a float measure whose
//! sums depend on the addition order — plus the thread-count stability
//! of dictionary code assignment. The cube kernel itself is checked
//! against brute force per strategy in `exq-relstore`'s property tests.

use exq::datagen::{dblp, geodblp, natality};
use exq::prelude::*;
use exq_bench::{bump_question, q_race};
use exq_core::cube_algo::{self, CubeAlgoConfig};
use exq_core::prepared::PreparedDb;
use exq_core::table_m::ExplanationTable;
use exq_relstore::aggregate::AggFunc;
use exq_relstore::cube::CubeStrategy;
use exq_relstore::{AttrRef, Database, ExecConfig, SchemaBuilder, Universal, ValueType};
use std::sync::Arc;

const THREADS: [usize; 3] = [1, 2, 7];

const STRATEGIES: [CubeStrategy; 3] = [
    CubeStrategy::Auto,
    CubeStrategy::SubsetEnumeration,
    CubeStrategy::LatticeRollup,
];

/// Equal coordinates, and equal bits in every float — `==` on `f64`
/// would let `-0.0` pass for `0.0`.
fn assert_bit_identical(got: &ExplanationTable, want: &ExplanationTable, ctx: &str) {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    assert_eq!(got.dims, want.dims, "{ctx}: dims");
    assert_eq!(bits(&got.totals), bits(&want.totals), "{ctx}: totals");
    assert_eq!(got.rows.len(), want.rows.len(), "{ctx}: row count");
    for (g, w) in got.rows.iter().zip(&want.rows) {
        assert_eq!(g.coord, w.coord, "{ctx}: row order");
        assert_eq!(
            bits(&g.values),
            bits(&w.values),
            "{ctx}: v at {:?}",
            g.coord
        );
        assert_eq!(
            bits(&[g.mu_interv, g.mu_aggr]),
            bits(&[w.mu_interv, w.mu_aggr]),
            "{ctx}: degrees at {:?}",
            g.coord
        );
    }
}

/// `explanation_table` (the coded engine) against
/// `explanation_table_reference` (the `Value`-space oracle), requiring
/// bit-identity per strategy at every thread count, with the
/// one-thread reference as the common yardstick.
fn assert_coded_matches_reference(
    db: &Database,
    question: &UserQuestion,
    dims: &[AttrRef],
    base: CubeAlgoConfig,
) {
    let u = Universal::compute(db, &db.full_view());
    for strategy in STRATEGIES {
        let config = |threads| {
            CubeAlgoConfig {
                strategy,
                ..base.clone()
            }
            .with_exec(ExecConfig::with_threads(threads))
        };
        let want =
            cube_algo::explanation_table_reference(db, &u, question, dims, config(1)).unwrap();
        assert!(!want.is_empty());
        for threads in THREADS {
            let ctx = format!("{strategy:?}, threads = {threads}");
            let coded = cube_algo::explanation_table(db, &u, question, dims, config(threads));
            assert_bit_identical(&coded.unwrap(), &want, &ctx);
            let reference =
                cube_algo::explanation_table_reference(db, &u, question, dims, config(threads));
            assert_bit_identical(&reference.unwrap(), &want, &format!("reference, {ctx}"));
        }
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
    assert_coded_matches_reference(&db, &bump_question(&db), &dims, CubeAlgoConfig::checked());
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
    assert_coded_matches_reference(&db, &q_race(&db), &dims, CubeAlgoConfig::checked());
}

/// The Figure 15 question over the eight-relation Geo-DBLP join.
#[test]
fn geodblp_columnar_table_matches_row_reference() {
    let db = geodblp::generate(&geodblp::GeoDblpConfig {
        papers: 1500,
        seed: 11,
    });
    let schema = db.schema();
    let pubid = schema.attr("Publication", "pubid").unwrap();
    let venue = schema.attr("Publication", "venue").unwrap();
    let country = schema.attr("CountryG", "country").unwrap();
    let q = |v: &str| AggregateQuery {
        func: AggFunc::CountDistinct(pubid),
        selection: Predicate::and([
            Predicate::eq(country, "United Kingdom"),
            Predicate::eq(venue, v),
        ]),
    };
    let question = UserQuestion::new(
        NumericalQuery::ratio(q("SIGMOD"), q("PODS")).with_smoothing(1e-4),
        Direction::Low,
    );
    let dims = vec![
        schema.attr("Author", "name").unwrap(),
        schema.attr("AffiliationG", "inst").unwrap(),
        schema.attr("CityG", "city").unwrap(),
    ];
    assert_coded_matches_reference(&db, &question, &dims, CubeAlgoConfig::checked());
}

/// A float measure, so every sum depends on the order its tuples fold
/// in, under selections that leave long runs of U (positions 1 501 to
/// 16 383) without a single selected tuple. SUM is not intervention-
/// additive, so the tables are computed unchecked — identically by both
/// engines.
#[test]
fn float_measures_over_sparse_blocks_match_row_reference() {
    let schema = SchemaBuilder::new()
        .relation(
            "R",
            &[
                ("id", ValueType::Int),
                ("g", ValueType::Str),
                ("h", ValueType::Int),
                ("x", ValueType::Float),
            ],
            &["id"],
        )
        .build()
        .unwrap();
    let mut db = Database::new(schema);
    for i in 0..20_000i64 {
        let g = format!("g{}", i % 7);
        let x = (i as f64) * 0.1 + 0.3;
        db.insert(
            "R",
            vec![i.into(), g.as_str().into(), (i % 3).into(), x.into()],
        )
        .unwrap();
    }
    let schema = db.schema();
    let (id, x) = (
        schema.attr("R", "id").unwrap(),
        schema.attr("R", "x").unwrap(),
    );
    // Two separate runs of ids, nothing in between.
    let sparse = |hi: i64| {
        Predicate::or([
            Predicate::between(id, 100, 1_500),
            Predicate::between(id, 16_384, hi),
        ])
    };
    let question = UserQuestion::new(
        NumericalQuery::ratio(
            AggregateQuery {
                func: AggFunc::Sum(x),
                selection: sparse(19_999),
            },
            AggregateQuery {
                func: AggFunc::Avg(x),
                selection: sparse(17_000),
            },
        ),
        Direction::High,
    );
    let dims = vec![
        schema.attr("R", "g").unwrap(),
        schema.attr("R", "h").unwrap(),
    ];
    assert_coded_matches_reference(&db, &question, &dims, CubeAlgoConfig::unchecked());
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

/// A foreign-key column and the key it references share one dictionary —
/// their key class's — on DBLP, Geo-DBLP and random tree schemas.
/// Natality has no foreign key, so each of its columns keeps a dictionary
/// of its own.
#[test]
fn foreign_key_edges_share_one_dictionary() {
    use exq::datagen::random::{random_tree_db, RandomDbConfig};
    use exq_relstore::Dict;
    let dict_of = |db: &Database, rel, col| -> *const Dict {
        db.columns().dict_column(AttrRef { rel, col }).1
    };
    let mut dbs = vec![
        dblp::generate(&dblp::DblpConfig::default()),
        geodblp::generate(&geodblp::GeoDblpConfig {
            papers: 1500,
            seed: 11,
        }),
    ];
    dbs.extend((0..32u64).filter_map(|seed| {
        random_tree_db(&RandomDbConfig {
            relations: 2 + (seed % 6) as usize,
            rows_per_relation: 8,
            key_domain: 6,
            back_and_forth_probability: 0.5,
            seed,
        })
    }));
    let mut edges = 0;
    for db in &dbs {
        for fk in db.schema().foreign_keys() {
            for (&from, &to) in fk.from_cols.iter().zip(&fk.to_cols) {
                assert!(
                    std::ptr::eq(dict_of(db, fk.from_rel, from), dict_of(db, fk.to_rel, to)),
                    "{fk:?}"
                );
                edges += 1;
            }
        }
    }
    assert!(edges > 40, "only {edges} foreign-key column pairs checked");

    let db = natality::generate(&natality::NatalityConfig {
        rows: 2_000,
        seed: 7,
    });
    assert!(db.schema().foreign_keys().is_empty());
    let dicts: Vec<*const Dict> = (0..db.schema().relation(0).arity())
        .map(|col| dict_of(&db, 0, col))
        .collect();
    for (i, a) in dicts.iter().enumerate() {
        assert!(dicts[..i].iter().all(|b| !std::ptr::eq(*a, *b)));
    }
}
