//! Property tests over *random tree schemas* — arbitrary depth, arbitrary
//! mixes of standard and back-and-forth foreign keys (including several
//! back-and-forth keys meeting at one relation, where recursion is
//! genuinely required). This is the broadest exercise of program **P**'s
//! invariants.

use exq::datagen::random::{random_tree_db, RandomDbConfig};
use exq::prelude::*;
use exq_core::explanation::Explanation;
use exq_core::intervention::{is_valid_intervention, InterventionEngine};
use exq_relstore::{semijoin, FkKind, TupleSet, ValueType};
use proptest::prelude::*;

/// A single-atom explanation over a random attribute/value of the
/// instance, addressed by indices so it is always resolvable.
fn pick_phi(db: &Database, rel_sel: usize, row_sel: usize, col_sel: usize) -> Explanation {
    let rel = rel_sel % db.schema().relation_count();
    let arity = db.schema().relation(rel).arity();
    let col = col_sel % arity;
    let rows = db.relation_len(rel);
    let row = row_sel % rows.max(1);
    let attr = AttrRef { rel, col };
    let value = db.value(attr, row).clone();
    Explanation::new(vec![Atom::eq(attr, value)])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Validity, minimality and the Prop 3.4 bound on random tree schemas.
    #[test]
    fn program_p_invariants_on_random_schemas(
        seed in 0u64..10_000,
        relations in 1usize..6,
        bf_prob in 0.0f64..1.0,
        rel_sel in any::<usize>(),
        row_sel in any::<usize>(),
        col_sel in any::<usize>(),
        extra_row in any::<usize>(),
    ) {
        let cfg = RandomDbConfig {
            relations,
            back_and_forth_probability: bf_prob,
            seed,
            ..RandomDbConfig::default()
        };
        let Some(db) = random_tree_db(&cfg) else { return Ok(()) };
        let engine = InterventionEngine::new(&db);
        let phi = pick_phi(&db, rel_sel, row_sel, col_sel);
        let iv = engine.compute(&phi);

        // Definition 2.6 (validity).
        prop_assert!(
            is_valid_intervention(&db, phi.conjunction(), &iv.delta),
            "invalid intervention for {} on seed {seed}",
            phi.display(&db)
        );

        // Proposition 3.4 (global bound).
        prop_assert!(iv.iterations <= db.total_tuples());

        // Proposition 3.5 when no back-and-forth keys.
        if !db.schema().has_back_and_forth() {
            prop_assert!(iv.iterations <= 2);
        }

        // Proposition 3.11 when its preconditions hold.
        let g = db.schema().causal_graph();
        if g.is_simple() && g.max_back_and_forth_per_relation() <= 1 {
            let s = db.schema().back_and_forth_count();
            prop_assert!(iv.iterations <= 2 * s + 2, "{} > 2*{s}+2", iv.iterations);
        }

        // Theorem 3.3 (minimality): the closure of a seed superset
        // contains Δ^φ.
        let mut seeds = iv.seeds.clone();
        let rel = rel_sel % db.schema().relation_count();
        if db.relation_len(rel) > 0 {
            seeds[rel].insert(extra_row % db.relation_len(rel));
        }
        let (closure, _) = engine.close_from_seeds(&seeds);
        prop_assert!(is_valid_intervention(&db, phi.conjunction(), &closure));
        for (small, big) in iv.delta.iter().zip(&closure) {
            prop_assert!(small.is_subset(big));
        }

        // The residual database is semijoin-reduced and φ-free.
        let residual = db.view_minus(&iv.delta);
        prop_assert!(semijoin::is_reduced(&db, &residual));
        let u = Universal::compute(&db, &residual);
        for t in u.iter() {
            prop_assert!(!phi.eval(&db, t));
        }
    }

    /// The Section 3.3 non-recursive pipeline equals the fixpoint wherever
    /// it applies (Props 3.5/3.11 schemas).
    #[test]
    fn unrolled_equals_fixpoint_on_random_schemas(
        seed in 0u64..10_000,
        relations in 1usize..6,
        bf_prob in 0.0f64..1.0,
        rel_sel in any::<usize>(),
        row_sel in any::<usize>(),
        col_sel in any::<usize>(),
    ) {
        let cfg = RandomDbConfig {
            relations,
            back_and_forth_probability: bf_prob,
            seed,
            ..RandomDbConfig::default()
        };
        let Some(db) = random_tree_db(&cfg) else { return Ok(()) };
        let engine = InterventionEngine::new(&db);
        let phi = pick_phi(&db, rel_sel, row_sel, col_sel);
        let fixpoint = engine.compute(&phi);
        match engine.compute_unrolled(&phi) {
            Some(unrolled) => prop_assert_eq!(unrolled.delta, fixpoint.delta),
            None => {
                // Refusal must coincide with the recursive classification.
                prop_assert_eq!(
                    exq_core::causal::convergence_bound(db.schema()),
                    exq_core::causal::ConvergenceBound::RequiresRecursion
                );
            }
        }
    }

    /// Materializing the residual database and re-running the question
    /// gives the same answer as evaluating on the view — the two
    /// evaluation paths agree.
    #[test]
    fn residual_view_equals_materialized_database(
        seed in 0u64..10_000,
        relations in 1usize..5,
        rel_sel in any::<usize>(),
        row_sel in any::<usize>(),
        col_sel in any::<usize>(),
    ) {
        let cfg = RandomDbConfig { relations, seed, ..RandomDbConfig::default() };
        let Some(db) = random_tree_db(&cfg) else { return Ok(()) };
        let engine = InterventionEngine::new(&db);
        let phi = pick_phi(&db, rel_sel, row_sel, col_sel);
        let iv = engine.compute(&phi);

        let question = UserQuestion::new(
            NumericalQuery::single(AggregateQuery::count_star(Predicate::True)),
            Direction::High,
        );
        let on_view = question.query.eval_view(&db, &db.view_minus(&iv.delta)).unwrap();
        let materialized = db.materialize(&db.view_minus(&iv.delta));
        let on_db = question.query.eval(&materialized).unwrap();
        prop_assert_eq!(on_view, on_db);
    }

    /// The Explainer façade always returns the exact table: whenever it
    /// chooses the cube it must agree with the forced-naive ground truth.
    #[test]
    fn facade_matches_ground_truth(
        seed in 0u64..10_000,
        relations in 1usize..5,
        bf_prob in 0.0f64..1.0,
    ) {
        use exq_core::explainer::Explainer;
        use exq_relstore::aggregate::AggFunc;
        let cfg = RandomDbConfig {
            relations,
            back_and_forth_probability: bf_prob,
            seed,
            ..RandomDbConfig::default()
        };
        let Some(db) = random_tree_db(&cfg) else { return Ok(()) };
        // COUNT(DISTINCT R0.id): additive on some draws (depends on the
        // data-level uniqueness check), not on others — exactly the fork
        // the facade automates.
        let id = db.schema().attr("R0", "id").unwrap();
        let data = db.schema().attr("R0", "data").unwrap();
        let question = UserQuestion::new(
            NumericalQuery::ratio(
                AggregateQuery {
                    func: AggFunc::CountDistinct(id),
                    selection: Predicate::eq(data, "v0"),
                },
                AggregateQuery {
                    func: AggFunc::CountDistinct(id),
                    selection: Predicate::True,
                },
            ).with_smoothing(1e-4),
            Direction::High,
        );
        let last = db.schema().relation_count() - 1;
        let attr_name = format!("R{last}.data");
        let auto = Explainer::new(&db, question.clone())
            .attr_names(&[&attr_name]).unwrap();
        let naive = Explainer::new(&db, question)
            .attr_names(&[&attr_name]).unwrap()
            .force_naive();
        let (auto_t, _) = auto.table().unwrap();
        let (naive_t, _) = naive.table().unwrap();
        prop_assert_eq!(auto_t.len(), naive_t.len());
        for (a, n) in auto_t.rows.iter().zip(&naive_t.rows) {
            prop_assert_eq!(&a.coord, &n.coord);
            prop_assert!((a.mu_interv - n.mu_interv).abs() < 1e-9,
                "facade diverged from ground truth at {:?}: {} vs {}",
                a.coord, a.mu_interv, n.mu_interv);
            prop_assert!((a.mu_aggr - n.mu_aggr).abs() < 1e-9);
        }
    }

    /// Interventions are *monotone in φ's strength*: a conjunction's
    /// intervention is contained in each conjunct's intervention
    /// (σ_{φ∧ψ}(U) ⊆ σ_φ(U), and the closure is monotone in the seeds).
    #[test]
    fn conjunction_shrinks_intervention(
        seed in 0u64..10_000,
        relations in 2usize..5,
        sel in any::<(usize, usize, usize)>(),
        sel2 in any::<(usize, usize, usize)>(),
    ) {
        let cfg = RandomDbConfig { relations, seed, ..RandomDbConfig::default() };
        let Some(db) = random_tree_db(&cfg) else { return Ok(()) };
        let engine = InterventionEngine::new(&db);
        let a = pick_phi(&db, sel.0, sel.1, sel.2);
        let b = pick_phi(&db, sel2.0, sel2.1, sel2.2);
        let mut both = a.atoms().to_vec();
        both.extend(b.atoms().iter().cloned());
        let conj = Explanation::new(both);

        let iv_a = engine.compute(&a);
        let iv_conj = engine.compute(&conj);
        for (c, single) in iv_conj.delta.iter().zip(&iv_a.delta) {
            prop_assert!(c.is_subset(single), "Δ^(φ∧ψ) ⊄ Δ^φ");
        }
    }
}

/// A random forest schema and an unreduced instance: relation `i ≥ 1`
/// hangs under a random earlier relation, or starts a component of its
/// own one time in three, and each foreign key is back-and-forth with
/// probability `bf_prob`. Every foreign key references an existing key,
/// but rows that join nothing are kept.
fn random_forest_db(seed: u64, relations: usize, bf_prob: f64) -> Database {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(seed);
    let parents: Vec<Option<usize>> = (0..relations)
        .map(|i| (i > 0 && rng.random_range(0..3) > 0).then(|| rng.random_range(0..i)))
        .collect();
    let mut b = SchemaBuilder::new();
    for (i, parent) in parents.iter().enumerate() {
        let name = format!("R{i}");
        b = match parent {
            None => b.relation(
                &name,
                &[("id", ValueType::Int), ("data", ValueType::Str)],
                &["id"],
            ),
            Some(_) => b.relation(
                &name,
                &[
                    ("id", ValueType::Int),
                    ("parent_id", ValueType::Int),
                    ("data", ValueType::Str),
                ],
                &["id"],
            ),
        };
    }
    for (i, parent) in parents.iter().enumerate() {
        if let Some(p) = parent {
            let (name, parent) = (format!("R{i}"), format!("R{p}"));
            b = if rng.random::<f64>() < bf_prob {
                b.back_and_forth_fk(&name, &["parent_id"], &parent)
            } else {
                b.standard_fk(&name, &["parent_id"], &parent)
            };
        }
    }
    let mut db = Database::new(b.build().expect("a forest is acyclic"));
    let keys: Vec<Vec<i64>> = (0..relations)
        .map(|_| (0..6).filter(|_| rng.random::<f64>() < 0.8).collect())
        .collect();
    for (i, parent) in parents.iter().enumerate() {
        for &key in &keys[i] {
            let data = Value::str(format!("v{}", rng.random_range(0..3)));
            let row = match parent {
                None => vec![Value::Int(key), data],
                Some(p) if keys[*p].is_empty() => continue,
                Some(p) => {
                    let parent_key = keys[*p][rng.random_range(0..keys[*p].len())];
                    vec![Value::Int(key), Value::Int(parent_key), data]
                }
            };
            db.insert(&format!("R{i}"), row).unwrap();
        }
    }
    db.validate()
        .expect("every foreign key references an existing key");
    db
}

/// Program P as it ran with a semijoin per round: Rule (i) evaluates φ
/// per tuple of `U(D)`, and every round's Rule (ii) fully reduces
/// `D − Δ^ℓ`.
struct ReferenceP {
    seeds: Vec<TupleSet>,
    delta: Vec<TupleSet>,
    iterations: usize,
    /// Whether Rule (iii) ever added a row the other rules did not.
    cascaded: bool,
}

fn reference_p(db: &Database, phi: &Predicate) -> ReferenceP {
    use exq_relstore::join::referenced_rows;
    let u = Universal::compute(db, &db.full_view());
    let mut kept = db.empty_delta();
    for t in u.iter().filter(|t| !phi.eval(db, t)) {
        for (rel, &row) in t.iter().enumerate() {
            kept[rel].insert(row as usize);
        }
    }
    let seeds: Vec<TupleSet> = kept.iter().map(TupleSet::complement).collect();
    let bf_maps: Vec<_> = db
        .schema()
        .foreign_keys()
        .iter()
        .filter(|fk| fk.kind == FkKind::BackAndForth)
        .map(|fk| (fk.from_rel, fk.to_rel, referenced_rows(db, fk)))
        .collect();
    let (mut delta, mut iterations, mut cascaded) = (db.empty_delta(), 0, false);
    loop {
        let mut next = delta.clone();
        let mut changed = false;
        for (n, s) in next.iter_mut().zip(&seeds) {
            changed |= n.union_with(s);
        }
        for (from_rel, to_rel, map) in &bf_maps {
            for row in delta[*from_rel].iter() {
                if map[row] != u32::MAX && next[*to_rel].insert(map[row] as usize) {
                    changed = true;
                    cascaded = true;
                }
            }
        }
        let reduced = semijoin::reduce(db, &db.view_minus(&delta));
        for (n, live) in next.iter_mut().zip(&reduced.live) {
            changed |= n.union_with(&live.complement());
        }
        if !changed {
            return ReferenceP {
                seeds,
                delta,
                iterations,
                cascaded,
            };
        }
        delta = next;
        iterations += 1;
    }
}

/// Program P over the engine's `U` against the per-round-semijoin
/// reference, on random forests that need not be reduced: the same seeds,
/// Δ and iteration counts, a bit-identical μ_interv and v_j, and a valid
/// intervention wherever Rule (i) guarantees one. The cases must include runs of three or more rounds,
/// backward cascades, disconnected schemas and unreduced instances.
#[test]
fn program_p_matches_per_round_semijoin_reference() {
    use exq_core::degree::evaluate;
    use exq_core::intervention::is_valid_for_predicate;
    use exq_relstore::aggregate::AggFunc;
    use std::cell::Cell;
    let (long_runs, cascades, forests, unreduced) =
        (Cell::new(0), Cell::new(0), Cell::new(0), Cell::new(0));
    let mut runner = TestRunner::new(ProptestConfig::with_cases(192));
    let strategy = (
        0u64..1_000_000,
        1usize..6,
        0.0f64..1.0,
        any::<(usize, usize, usize)>(),
        any::<(usize, usize, usize)>(),
        0u8..3,
    );
    runner.run(&strategy, |(seed, relations, bf_prob, a, b, shape)| {
        let db = random_forest_db(seed, relations, bf_prob);
        let pick = |(rel, row, col): (usize, usize, usize)| {
            let rel = rel % relations;
            let attr = AttrRef {
                rel,
                col: col % db.schema().relation(rel).arity(),
            };
            let value = match db.relation_len(rel) {
                0 => Value::Int(0),
                n => db.value(attr, row % n).clone(),
            };
            Predicate::eq(attr, value)
        };
        let phi = match shape {
            0 => pick(a),
            1 => Predicate::and([pick(a), pick(b)]),
            _ => Predicate::or([pick(a), pick(b)]),
        };
        let r0_data = db.schema().attr("R0", "data").unwrap();
        let r0_id = db.schema().attr("R0", "id").unwrap();
        let question = UserQuestion::new(
            NumericalQuery::ratio(
                AggregateQuery::count_star(Predicate::eq(r0_data, "v0")),
                AggregateQuery {
                    func: AggFunc::Sum(r0_id),
                    selection: Predicate::True,
                },
            )
            .with_smoothing(1e-4),
            Direction::Low,
        );

        let reference = reference_p(&db, &phi);
        let engine = InterventionEngine::new(&db);
        prop_assert_eq!(&engine.seeds_predicate(&phi), &reference.seeds);
        let d = evaluate(&engine, &question, &phi).unwrap();
        let iv = &d.intervention;
        prop_assert_eq!(&iv.seeds, &reference.seeds);
        prop_assert_eq!(&iv.delta, &reference.delta);
        prop_assert_eq!(iv.iterations, reference.iterations);
        // A tuple that satisfies one atom holds a row all of whose tuples
        // do, so single atoms and their disjunctions always seed it. Two
        // atoms conjoined across sibling relations (or components) can be
        // met by tuples none of whose rows is a seed, and Rule (i) then
        // leaves them in U(D − Δ): there the reference is the oracle.
        if shape != 1 {
            prop_assert!(is_valid_for_predicate(&db, &phi, &iv.delta));
        }

        let residual = db.view_minus(&reference.delta);
        let q = question.query.eval_view(&db, &residual).unwrap();
        let mu_interv = question.direction.interv_sign() * q;
        prop_assert_eq!(d.mu_interv.to_bits(), mu_interv.to_bits());
        let u = engine.universal();
        for (v, q) in d.values.iter().zip(&question.query.aggregates) {
            let on_phi = Predicate::and([phi.clone(), q.selection.clone()]);
            let expected = exq_relstore::aggregate::evaluate(&db, u, &on_phi, &q.func).unwrap();
            prop_assert_eq!(v.to_bits(), expected.to_bits());
        }

        long_runs.set(long_runs.get() + usize::from(reference.iterations >= 3));
        cascades.set(cascades.get() + usize::from(reference.cascaded));
        let components = exq_relstore::join::join_forest(db.schema()).len();
        forests.set(forests.get() + usize::from(components > 1));
        let reduced = semijoin::is_reduced(&db, &db.full_view());
        unreduced.set(unreduced.get() + usize::from(!reduced));
        Ok(())
    });
    for (what, n) in [
        ("three or more rounds", long_runs.get()),
        ("a backward cascade", cascades.get()),
        ("a disconnected schema", forests.get()),
        ("an unreduced instance", unreduced.get()),
    ] {
        assert!(n >= 5, "only {n} cases with {what}");
    }
}
