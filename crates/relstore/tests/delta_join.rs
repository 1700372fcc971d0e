//! The join against a nested-loop oracle that shares no key-matching
//! code with it. A valid instance is split into an epoch-0 prefix and
//! foreign-key-valid append batches. At every epoch,
//! [`Universal::compute_with`] must equal the oracle tuple for tuple over
//! the full view, the semijoin-reduced view and a view with random rows
//! removed; after every batch, [`Universal::extend_for_append_with`] must
//! equal it over the full view, and the rows it reports touched must be
//! exactly the projections of the tuples that are new.

use exq_datagen::random::{random_tree_db, RandomDbConfig};
use exq_relstore::join::{join_forest, referenced_rows, TreeEdge};
use exq_relstore::{
    semijoin, AppendBatch, AttrRef, Database, Error, ExecConfig, MetricsSink, SchemaBuilder,
    TupleSet, Universal, Value, ValueType as T, View,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Per relation, per row, the epoch the row arrives in (0 is the
/// prefix). A row draws 0 with probability `stay` and a batch in
/// `1..=batches` otherwise, then arrives no earlier than any row it
/// references, so every epoch's rows are foreign-key-valid.
fn draw_epochs(db: &Database, batches: usize, stay: f64, rng: &mut SmallRng) -> Vec<Vec<usize>> {
    let schema = db.schema();
    let n = schema.relation_count();
    let mut epochs: Vec<Option<Vec<usize>>> = vec![None; n];
    // Referenced relations first; the foreign-key graph is a forest.
    while epochs.iter().any(Option::is_none) {
        for rel in 0..n {
            let fks: Vec<_> = schema
                .foreign_keys()
                .iter()
                .filter(|fk| fk.from_rel == rel)
                .collect();
            if epochs[rel].is_some() || fks.iter().any(|fk| epochs[fk.to_rel].is_none()) {
                continue;
            }
            let targets: Vec<BTreeMap<Vec<Value>, usize>> = fks
                .iter()
                .map(|fk| {
                    let to = db.relation(fk.to_rel);
                    let arrives = epochs[fk.to_rel].as_ref().expect("done above");
                    (0..to.len())
                        .map(|row| (to.project(row, &fk.to_cols), arrives[row]))
                        .collect()
                })
                .collect();
            let rows = db.relation(rel);
            let arrives = (0..rows.len())
                .map(|row| {
                    let drawn = if rng.random::<f64>() < stay {
                        0
                    } else {
                        rng.random_range(1..=batches)
                    };
                    fks.iter().zip(&targets).fold(drawn, |e, (fk, target)| {
                        e.max(target[&rows.project(row, &fk.from_cols)])
                    })
                })
                .collect();
            epochs[rel] = Some(arrives);
        }
    }
    epochs.into_iter().map(Option::unwrap).collect()
}

/// The universal relation over `live` by nested loops over rows,
/// comparing key `Value`s pair by pair. Per component of the join
/// forest, tuples come in (root row, edge-child rows…) order; components
/// are crossed with the last one outermost, as the join crosses them.
fn nested_loop_join(db: &Database, live: &[TupleSet]) -> Vec<Vec<u32>> {
    fn expand(
        db: &Database,
        live: &[TupleSet],
        edges: &[TreeEdge],
        tuple: &mut Vec<u32>,
        out: &mut Vec<Vec<u32>>,
    ) {
        let Some((edge, rest)) = edges.split_first() else {
            out.push(tuple.clone());
            return;
        };
        let parent_row = tuple[edge.parent] as usize;
        for child_row in live[edge.child].iter() {
            let keys_equal = edge
                .parent_cols
                .iter()
                .zip(&edge.child_cols)
                .all(|(&p, &c)| {
                    let parent = AttrRef {
                        rel: edge.parent,
                        col: p,
                    };
                    let child = AttrRef {
                        rel: edge.child,
                        col: c,
                    };
                    db.value(parent, parent_row) == db.value(child, child_row)
                });
            if keys_equal {
                tuple[edge.child] = child_row as u32;
                expand(db, live, rest, tuple, out);
            }
        }
        tuple[edge.child] = u32::MAX;
    }
    let n = db.schema().relation_count();
    let mut per_component: Vec<Vec<Vec<u32>>> = join_forest(db.schema())
        .iter()
        .map(|comp| {
            let mut out = Vec::new();
            let mut tuple = vec![u32::MAX; n];
            for root in live[comp.root].iter() {
                tuple[comp.root] = root as u32;
                expand(db, live, &comp.edges, &mut tuple, &mut out);
            }
            out
        })
        .collect();
    let mut tuples = per_component.pop().unwrap_or_default();
    for other in per_component.into_iter().rev() {
        tuples = tuples
            .iter()
            .flat_map(|a| {
                other
                    .iter()
                    .map(move |b| a.iter().zip(b).map(|(&x, &y)| x.min(y)).collect())
            })
            .collect();
    }
    tuples
}

fn tuples_of(u: &Universal) -> Vec<Vec<u32>> {
    u.iter().map(<[u32]>::to_vec).collect()
}

/// `Universal::compute_with` over `view` against the oracle.
fn check_join(db: &Database, view: &View, what: &str) -> Result<(), TestCaseError> {
    let joined = Universal::compute_with(db, view, &ExecConfig::sequential());
    prop_assert_eq!(
        tuples_of(&joined),
        nested_loop_join(db, &view.live),
        "{}",
        what
    );
    Ok(())
}

/// The join over the full view, the reduced view, and the full view with
/// about a quarter of the rows removed at random, the shape of a naive
/// residual `D − Δ`.
fn check_views(db: &Database, epoch: usize, rng: &mut SmallRng) -> Result<(), TestCaseError> {
    let full = db.full_view();
    check_join(db, &full, &format!("epoch {epoch}: full view"))?;
    let reduced = semijoin::reduce(db, &full);
    check_join(db, &reduced, &format!("epoch {epoch}: reduced view"))?;
    let mut residual = full;
    for live in &mut residual.live {
        for row in 0..live.capacity() {
            if rng.random::<f64>() < 0.25 {
                live.remove(row);
            }
        }
    }
    check_join(db, &residual, &format!("epoch {epoch}: residual view"))
}

/// Per batch, the relations that gained rows.
type Grown = Vec<Vec<usize>>;

/// Load the rows of `full` that arrive in epoch 0, then append each
/// later epoch's rows as one batch, checking the join at every epoch and
/// the delta join after each batch. `reduced_start` joins epoch 0 over
/// its semijoin-reduced view, as `PreparedDb` does. A forest of several
/// components takes the delta join's rebuild fallback, which reports
/// every row of the new `U` touched.
fn check_epochs(
    full: &Database,
    epochs: &[Vec<usize>],
    batches: usize,
    reduced_start: bool,
    seed: u64,
) -> Result<Grown, TestCaseError> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let fallback = join_forest(full.schema()).len() > 1;
    let schema = full.schema();
    let n = schema.relation_count();
    let rows_of = |rel: usize, epoch: usize| -> Vec<Vec<Value>> {
        (0..full.relation_len(rel))
            .filter(|&row| epochs[rel][row] == epoch)
            .map(|row| full.relation(rel).row(row).to_vec())
            .collect()
    };
    let mut db = Database::new(schema.clone());
    for rel in 0..n {
        for row in rows_of(rel, 0) {
            db.insert_at(rel, row).expect("rows of a valid instance");
        }
    }
    let start = if reduced_start {
        semijoin::reduce(&db, &db.full_view())
    } else {
        db.full_view()
    };
    check_views(&db, 0, &mut rng)?;
    let mut u = Universal::compute(&db, &start);
    let mut grown = Vec::with_capacity(batches);
    for epoch in 1..=batches {
        let old_lens: Vec<usize> = (0..n).map(|rel| db.relation_len(rel)).collect();
        let batch: AppendBatch = (0..n)
            .map(|rel| (schema.relation(rel).name.clone(), rows_of(rel, epoch)))
            .filter(|(_, rows)| !rows.is_empty())
            .collect();
        if let Err(e) = db.append_batch(batch) {
            return Err(TestCaseError::fail(format!("epoch {epoch}: append: {e}")));
        }
        grown.push(
            (0..n)
                .filter(|&rel| db.relation_len(rel) > old_lens[rel])
                .collect(),
        );

        let sink = MetricsSink::recording();
        let exec = ExecConfig::sequential().with_metrics(sink.clone());
        let (extended, touched) = Universal::extend_for_append_with(&u, &db, &old_lens, &exec);
        let oracle = nested_loop_join(&db, &db.full_view().live);
        prop_assert_eq!(
            tuples_of(&extended),
            oracle.clone(),
            "epoch {}: the delta join left the oracle",
            epoch
        );
        check_views(&db, epoch, &mut rng)?;

        // A tuple is new iff it holds a row past its relation's old
        // length; the fallback reports every tuple's rows.
        let mut expected: Vec<TupleSet> = (0..n)
            .map(|rel| TupleSet::empty(db.relation_len(rel)))
            .collect();
        let mut new_tuples = 0u64;
        for t in &oracle {
            if fallback
                || t.iter()
                    .zip(&old_lens)
                    .any(|(&row, &len)| row as usize >= len)
            {
                new_tuples += 1;
                for (rel, &row) in t.iter().enumerate() {
                    expected[rel].insert(row as usize);
                }
            }
        }
        prop_assert_eq!(&touched, &expected, "epoch {}: touched rows", epoch);
        let counters = sink.snapshot();
        let (counter, count) = if fallback {
            ("ingest.delta.full_rebuilds", 1)
        } else {
            ("ingest.delta.tuples", new_tuples)
        };
        prop_assert_eq!(counters.counter(counter), count, "epoch {}", epoch);
        u = extended;
    }
    Ok(grown)
}

/// Random tree schemas and instances, split at random into a prefix and
/// one to three batches. Appends land in the root, inner relations and
/// leaves, often several per batch, so the delta join runs several
/// pivots, rooted away from the join tree's root.
#[test]
fn delta_join_matches_rebuild_on_random_tree_instances() {
    let config = ProptestConfig::default();
    let cases = config.cases as usize;
    let appended_cases = AtomicUsize::new(0);
    // Batches growing several relations; batches growing the join
    // tree's root, an inner relation, and a leaf.
    let coverage: [AtomicUsize; 4] = Default::default();
    let strategy = (any::<u64>(), 1usize..7, 3usize..14, 1usize..4);
    TestRunner::new(config).run(&strategy, |(seed, relations, key_domain, batches)| {
        let Some(full) = random_tree_db(&RandomDbConfig {
            relations,
            rows_per_relation: 16,
            key_domain,
            back_and_forth_probability: 0.5,
            seed,
        }) else {
            return Ok(());
        };
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EED);
        let epochs = draw_epochs(&full, batches, 0.6, &mut rng);
        let grown = check_epochs(&full, &epochs, batches, seed % 2 == 0, seed)?;
        if grown.iter().any(|rels| !rels.is_empty()) {
            appended_cases.fetch_add(1, Ordering::Relaxed);
        }
        // `join_forest` roots the tree at relation 0.
        let degree = |rel: usize| {
            full.schema()
                .foreign_keys()
                .iter()
                .filter(|fk| fk.from_rel == rel || fk.to_rel == rel)
                .count()
        };
        for rels in &grown {
            let kinds = [
                rels.len() > 1,
                rels.contains(&0),
                rels.iter().any(|&r| r != 0 && degree(r) > 1),
                rels.iter().any(|&r| r != 0 && degree(r) == 1),
            ];
            for (count, hit) in coverage.iter().zip(kinds) {
                count.fetch_add(usize::from(hit), Ordering::Relaxed);
            }
        }
        Ok(())
    });
    let appended = appended_cases.into_inner();
    assert!(
        appended * 2 >= cases,
        "only {appended} of {cases} cases appended anything"
    );
    let coverage = coverage.map(AtomicUsize::into_inner);
    assert!(
        coverage.iter().all(|&c| c > 0),
        "batches growing several relations / the root / an inner relation / a leaf: {coverage:?}"
    );
}

/// A composite foreign key, `Emp(org, dno) -> Dept`, probed from both
/// sides: new employees of old and new departments, new projects of old
/// employees, and keys that match an old department on one column only.
#[test]
fn delta_join_matches_rebuild_over_a_composite_key() {
    let schema = SchemaBuilder::new()
        .relation(
            "Dept",
            &[("org", T::Str), ("dno", T::Int), ("name", T::Str)],
            &["org", "dno"],
        )
        .relation(
            "Emp",
            &[("eid", T::Int), ("org", T::Str), ("dno", T::Int)],
            &["eid"],
        )
        .relation("Proj", &[("pid", T::Int), ("eid", T::Int)], &["pid"])
        .standard_fk("Emp", &["org", "dno"], "Dept")
        .back_and_forth_fk("Proj", &["eid"], "Emp")
        .build()
        .unwrap();
    let mut full = Database::new(schema);
    // Emp codes `org` and `dno` in another order than Dept does, so a
    // key must be translated between the two relations' dictionaries.
    for (org, dno, name) in [("a", 2, "y"), ("a", 1, "x"), ("b", 1, "z"), ("b", 2, "w")] {
        full.insert("Dept", vec![org.into(), dno.into(), name.into()])
            .unwrap();
    }
    for (eid, org, dno) in [
        (1, "b", 1),
        (2, "a", 2),
        (3, "a", 1),
        (4, "b", 2),
        (5, "a", 1),
        (6, "b", 1),
    ] {
        full.insert("Emp", vec![eid.into(), org.into(), dno.into()])
            .unwrap();
    }
    for (pid, eid) in [(1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (6, 1), (7, 6)] {
        full.insert("Proj", vec![pid.into(), eid.into()]).unwrap();
    }
    full.validate().unwrap();
    let epochs = vec![
        vec![0, 0, 0, 1],
        vec![0, 0, 1, 1, 2, 2],
        vec![0, 2, 1, 2, 2, 1, 2],
    ];
    for reduced_start in [false, true] {
        let grown = check_epochs(&full, &epochs, 2, reduced_start, 7).unwrap();
        assert_eq!(grown, vec![vec![0, 1, 2], vec![1, 2]]);
    }
}

/// Keys meet across an edge exactly when their `Value`s are equal: over
/// an `Any`-typed edge a parent `Int(2)` meets a child `Float(2.0)` and a
/// child `Int(2)`, a parent NULL meets a child NULL, and a child key no
/// parent holds dangles. The join, the semijoin, `referenced_rows` and
/// append validation all agree with the nested-loop oracle's `==`.
#[test]
fn keys_meet_across_an_edge_as_values_are_equal() {
    let schema = SchemaBuilder::new()
        .relation("P", &[("k", T::Any)], &["k"])
        .relation("C", &[("id", T::Int), ("k", T::Any)], &["id"])
        .standard_fk("C", &["k"], "P")
        .build()
        .unwrap();
    let load = |children: &[Value]| {
        let mut db = Database::new(schema.clone());
        for k in [Value::Int(2), Value::Null, Value::str("s")] {
            db.insert("P", vec![k]).unwrap();
        }
        for (id, k) in children.iter().enumerate() {
            db.insert("C", vec![(id as i64).into(), k.clone()]).unwrap();
        }
        db
    };
    let db = load(&[
        Value::Float(2.0),
        Value::Null,
        Value::str("t"),
        Value::Int(2),
    ]);
    let full = db.full_view();
    let oracle = nested_loop_join(&db, &full.live);
    assert_eq!(oracle, vec![vec![0, 0], vec![0, 3], vec![1, 1]]);
    check_join(&db, &full, "full view").unwrap();

    let mut projected: Vec<TupleSet> = (0..2)
        .map(|rel| TupleSet::empty(db.relation_len(rel)))
        .collect();
    for t in &oracle {
        for (rel, &row) in t.iter().enumerate() {
            projected[rel].insert(row as usize);
        }
    }
    assert_eq!(semijoin::reduce(&db, &full).live, projected);

    for fk in db.schema().foreign_keys() {
        let (from, to) = (db.relation(fk.from_rel), db.relation(fk.to_rel));
        let expected: Vec<u32> = (0..from.len())
            .map(|row| {
                let key = from.project(row, &fk.from_cols);
                (0..to.len())
                    .find(|&r| to.project(r, &fk.to_cols) == key)
                    .map_or(u32::MAX, |r| r as u32)
            })
            .collect();
        assert_eq!(expected, vec![0, 1, u32::MAX, 0]);
        assert_eq!(referenced_rows(&db, fk), expected);
    }

    // Appends onto a prefix whose foreign keys hold, with columns built.
    let mut db = load(&[Value::Float(2.0)]);
    db.validate().unwrap();
    let _ = db.columns();
    let child = |id: i64, k: Value| vec![("C".to_string(), vec![vec![id.into(), k]])];
    let parent = |k: Value| ("P".to_string(), vec![vec![k]]);
    db.append_batch(child(1, Value::Null)).unwrap();
    db.append_batch(child(2, Value::Int(2))).unwrap();
    assert!(matches!(
        db.append_batch(child(3, Value::str("t"))),
        Err(Error::DanglingForeignKey { .. })
    ));
    for k in [Value::Float(2.0), Value::Null] {
        assert!(matches!(
            db.append_batch(vec![parent(k)]),
            Err(Error::DuplicateKey { .. })
        ));
    }
    let mut batch = child(3, Value::str("t"));
    batch.push(parent(Value::str("t")));
    db.append_batch(batch).unwrap();
    db.validate().unwrap();
    check_join(&db, &db.full_view(), "after the appends").unwrap();
    assert_eq!(
        nested_loop_join(&db, &db.full_view().live),
        vec![vec![0, 0], vec![0, 2], vec![1, 1], vec![3, 3]]
    );
}

/// `C.x` is a foreign key into both `A` and `B`, so its key class has two
/// tops. The join, the semijoin and the delta join still match the
/// oracle and a rebuild at every epoch, and every column decodes to the
/// rebuild's values; only the codes may be numbered differently, as
/// `B`'s are here: `B` coded 3 before `A` held it.
#[test]
fn a_key_class_with_two_tops_appends_as_a_rebuild_does() {
    let schema = SchemaBuilder::new()
        .relation("A", &[("k", T::Int)], &["k"])
        .relation("B", &[("k", T::Int)], &["k"])
        .relation("C", &[("id", T::Int), ("x", T::Int)], &["id"])
        .standard_fk("C", &["x"], "A")
        .back_and_forth_fk("C", &["x"], "B")
        .build()
        .unwrap();
    let mut full = Database::new(schema.clone());
    for k in [1, 2, 3, 4] {
        full.insert("A", vec![k.into()]).unwrap();
    }
    for k in [1, 3, 2, 4, 5] {
        full.insert("B", vec![k.into()]).unwrap();
    }
    for (id, x) in [(1, 1), (2, 2), (3, 3), (4, 4)] {
        full.insert("C", vec![id.into(), x.into()]).unwrap();
    }
    full.validate().unwrap();
    let epochs = vec![vec![0, 1, 1, 2], vec![0, 0, 0, 2, 2], vec![0, 1, 2, 2]];
    for reduced_start in [false, true] {
        check_epochs(&full, &epochs, 2, reduced_start, 5).unwrap();
    }

    let rows_of = |rel: usize, epoch: usize| -> Vec<Vec<Value>> {
        (0..full.relation_len(rel))
            .filter(|&row| epochs[rel][row] == epoch)
            .map(|row| full.relation(rel).row(row).to_vec())
            .collect()
    };
    let rebuild = |db: &Database| {
        let mut rebuilt = Database::new(schema.clone());
        for rel in 0..3 {
            for row in db.relation(rel).rows() {
                rebuilt.insert_at(rel, row.to_vec()).unwrap();
            }
        }
        rebuilt
    };
    let mut db = Database::new(schema.clone());
    for rel in 0..3 {
        for row in rows_of(rel, 0) {
            db.insert_at(rel, row).unwrap();
        }
    }
    let _ = db.columns();
    for epoch in 1..=2 {
        let batch: AppendBatch = (0..3)
            .map(|rel| (schema.relation(rel).name.clone(), rows_of(rel, epoch)))
            .filter(|(_, rows)| !rows.is_empty())
            .collect();
        db.append_batch(batch).unwrap();
        let rebuilt = rebuild(&db);
        let (view, rebuilt_view) = (db.full_view(), rebuilt.full_view());
        assert_eq!(
            tuples_of(&Universal::compute(&db, &view)),
            tuples_of(&Universal::compute(&rebuilt, &rebuilt_view)),
            "epoch {epoch}"
        );
        assert_eq!(
            semijoin::reduce(&db, &view),
            semijoin::reduce(&rebuilt, &rebuilt_view),
            "epoch {epoch}"
        );
        for rel in 0..3 {
            for col in 0..schema.relation(rel).arity() {
                let attr = AttrRef { rel, col };
                let decoded = |db: &Database| -> Vec<Value> {
                    let (codes, dict) = db.columns().dict_column(attr);
                    codes.iter().map(|&c| dict.value(c).clone()).collect()
                };
                assert_eq!(decoded(&db), decoded(&rebuilt), "epoch {epoch}: {attr:?}");
            }
        }
    }
    let b_codes = |db: &Database| {
        db.columns()
            .dict_column(AttrRef { rel: 1, col: 0 })
            .0
            .to_vec()
    };
    assert_eq!(b_codes(&db), vec![0, 1, 2, 3, 4]);
    assert_eq!(b_codes(&rebuild(&db)), vec![0, 2, 1, 3, 4]);
    // 5 is in `B` but not in `A`.
    assert!(matches!(
        db.append_batch(vec![("C".into(), vec![vec![9.into(), 5.into()]])]),
        Err(Error::DanglingForeignKey { .. })
    ));
}

/// Two join trees, `Dept <- Emp` and `Cat <- Item`, whose universal
/// relation is their cross product. The delta join falls back to a
/// rebuild (`ingest.delta.full_rebuilds`); batches grow one component,
/// then both, starting from an empty second component.
#[test]
fn delta_join_matches_oracle_over_two_components() {
    let schema = SchemaBuilder::new()
        .relation("Dept", &[("dno", T::Int)], &["dno"])
        .relation("Emp", &[("eid", T::Int), ("dno", T::Int)], &["eid"])
        .relation("Cat", &[("cid", T::Str)], &["cid"])
        .relation("Item", &[("iid", T::Int), ("cid", T::Str)], &["iid"])
        .standard_fk("Emp", &["dno"], "Dept")
        .back_and_forth_fk("Item", &["cid"], "Cat")
        .build()
        .unwrap();
    assert_eq!(join_forest(&schema).len(), 2);
    let mut full = Database::new(schema);
    for dno in [2, 1, 3] {
        full.insert("Dept", vec![dno.into()]).unwrap();
    }
    for (eid, dno) in [(1, 1), (2, 2), (3, 1), (4, 3), (5, 2)] {
        full.insert("Emp", vec![eid.into(), dno.into()]).unwrap();
    }
    for cid in ["x", "y"] {
        full.insert("Cat", vec![cid.into()]).unwrap();
    }
    for (iid, cid) in [(1, "y"), (2, "x"), (3, "y")] {
        full.insert("Item", vec![iid.into(), cid.into()]).unwrap();
    }
    full.validate().unwrap();
    let epochs = vec![
        vec![0, 0, 2],
        vec![0, 0, 1, 2, 3],
        vec![1, 2],
        vec![3, 1, 2],
    ];
    for reduced_start in [false, true] {
        let grown = check_epochs(&full, &epochs, 3, reduced_start, 11).unwrap();
        assert_eq!(grown, vec![vec![1, 2, 3], vec![0, 1, 2, 3], vec![1, 3]]);
    }
}

/// Rooted at its own root, a component's tree is its BFS edges, in
/// order and orientation: the join from the root therefore expands in
/// the rebuild's order, which the delta join's merge relies on.
#[test]
fn rooting_a_component_at_its_root_keeps_its_edges() {
    let mut components = 0;
    for seed in 0..256u64 {
        let Some(db) = random_tree_db(&RandomDbConfig {
            relations: 1 + (seed % 9) as usize,
            rows_per_relation: 4,
            key_domain: 4,
            back_and_forth_probability: 0.5,
            seed,
        }) else {
            continue;
        };
        for comp in join_forest(db.schema()) {
            assert_eq!(comp.rooted_at(comp.root), comp.edges, "seed {seed}");
            components += 1;
        }
    }
    assert!(components > 128, "only {components} schemas drawn");
}
