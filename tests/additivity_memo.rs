//! The additivity check's row-uniqueness fact is remembered on each
//! universal relation. These tests pin the remembered answer to the
//! plain walk over `U` it replaced — on random tree schemas, DBLP and
//! Geo-DBLP, at every epoch of an append sequence — and check that one
//! epoch's answer never stands in for the next epoch's.

use exq::core::additivity::rows_unique;
use exq::core::prepared::PreparedDb;
use exq::datagen::random::{random_tree_db, RandomDbConfig};
use exq::datagen::{dblp, geodblp};
use exq::prelude::*;
use exq_relstore::{Database, SchemaBuilder, ValueType as T};
use std::sync::Arc;

#[path = "support/serving.rs"]
mod serving;
use serving::hold_back;

/// Every row of `rel` occurs in exactly one tuple of `u`, by counting.
fn walk(db: &Database, u: &Universal, rel: usize) -> bool {
    let mut counts = vec![0u32; db.relation_len(rel)];
    for t in u.iter() {
        counts[t[rel] as usize] += 1;
    }
    counts.iter().all(|&c| c == 1)
}

/// For every relation, the remembered answer equals the walk, on the
/// first ask and on the asks it answers from memory.
fn assert_memo_matches_walk(db: &Database, u: &Universal, what: &str) {
    for rel in 0..db.schema().relation_count() {
        let expected = walk(db, u, rel);
        for ask in 0..2 {
            assert_eq!(
                rows_unique(db, u, rel),
                expected,
                "{what}: relation {} (ask {ask})",
                db.schema().relation(rel).name
            );
        }
    }
}

/// Walk an append sequence, checking the memo at every epoch.
fn assert_memo_matches_walk_across_epochs(db: &Database, relation: &str, batches: usize) {
    let keep = db.relation_len(db.schema().relation_index(relation).unwrap()) * 4 / 5;
    let (initial, batches) = hold_back(db, relation, keep, batches);
    let mut prepared = PreparedDb::build(Arc::new(initial));
    assert_memo_matches_walk(prepared.db(), prepared.universal(), "epoch 0");
    for (epoch, batch) in batches.into_iter().enumerate() {
        prepared = prepared.append(batch).unwrap().0;
        let what = format!("epoch {}", epoch + 1);
        assert_memo_matches_walk(prepared.db(), prepared.universal(), &what);
    }
}

#[test]
fn memo_matches_walk_on_random_tree_schemas() {
    let mut checked = 0;
    for seed in 0..120 {
        let cfg = RandomDbConfig {
            relations: 1 + (seed as usize) % 5,
            back_and_forth_probability: (seed % 4) as f64 / 3.0,
            seed,
            ..RandomDbConfig::default()
        };
        let Some(db) = random_tree_db(&cfg) else {
            continue;
        };
        let u = Universal::compute(&db, &db.full_view());
        assert_memo_matches_walk(&db, &u, &format!("seed {seed}"));
        checked += 1;
    }
    assert!(
        checked > 60,
        "only {checked} random instances were non-empty"
    );
}

#[test]
fn memo_matches_walk_on_dblp_across_appends() {
    let db = dblp::generate(&dblp::DblpConfig {
        papers_per_year_base: 6,
        authors_per_institution: 4,
        ..dblp::DblpConfig::default()
    });
    assert_memo_matches_walk_across_epochs(&db, "Authored", 3);
}

#[test]
fn memo_matches_walk_on_geodblp_across_appends() {
    let db = geodblp::generate(&geodblp::GeoDblpConfig {
        papers: 400,
        seed: 11,
    });
    assert_memo_matches_walk_across_epochs(&db, "Authored", 3);
}

/// Author `a1` wrote one paper; `extra` more papers by `a1` make its one
/// row occur in `1 + extra` universal tuples.
fn one_author(extra: usize) -> Database {
    let schema = SchemaBuilder::new()
        .relation("Author", &[("id", T::Str)], &["id"])
        .relation(
            "Authored",
            &[("id", T::Str), ("pubid", T::Str)],
            &["id", "pubid"],
        )
        .relation("Publication", &[("pubid", T::Str)], &["pubid"])
        .standard_fk("Authored", &["id"], "Author")
        .back_and_forth_fk("Authored", &["pubid"], "Publication")
        .build()
        .unwrap();
    let mut db = Database::new(schema);
    db.insert("Author", vec!["a1".into()]).unwrap();
    for p in 0..=extra {
        let pubid = format!("p{p}");
        db.insert("Publication", vec![pubid.as_str().into()])
            .unwrap();
        db.insert("Authored", vec!["a1".into(), pubid.as_str().into()])
            .unwrap();
    }
    db
}

#[test]
fn a_row_in_two_tuples_reads_non_unique() {
    let db = one_author(1);
    let u = Universal::compute(&db, &db.full_view());
    let author = db.schema().relation_index("Author").unwrap();
    let authored = db.schema().relation_index("Authored").unwrap();
    assert_eq!(u.len(), 2);
    assert!(!rows_unique(&db, &u, author), "a1 is in both tuples");
    assert!(!walk(&db, &u, author));
    assert!(rows_unique(&db, &u, authored));
}

#[test]
fn an_epochs_memo_never_answers_for_the_next() {
    let epoch0 = PreparedDb::build(Arc::new(one_author(0)));
    let author = epoch0.db().schema().relation_index("Author").unwrap();
    assert!(rows_unique(epoch0.db(), epoch0.universal(), author));

    // An empty batch leaves every relation as it was: the next epoch
    // shares `U`, and with it the remembered answer, which still holds.
    let same = epoch0.append(Vec::new()).unwrap().0;
    assert!(rows_unique(same.db(), same.universal(), author));
    assert!(walk(same.db(), same.universal(), author));

    // A second paper puts a1 in two tuples: the new epoch must say so,
    // and the old epoch keeps its own answer.
    let epoch1 = same
        .append(vec![
            ("Publication".to_string(), vec![vec!["p1".into()]]),
            ("Authored".to_string(), vec![vec!["a1".into(), "p1".into()]]),
        ])
        .unwrap()
        .0;
    assert!(!rows_unique(epoch1.db(), epoch1.universal(), author));
    assert!(!walk(epoch1.db(), epoch1.universal(), author));
    assert!(rows_unique(epoch0.db(), epoch0.universal(), author));
}
