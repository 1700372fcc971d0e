//! Property-based tests (proptest) for the engine's core invariants:
//!
//! * program **P** always produces a *valid* intervention (Definition 2.6)
//!   and a *minimal* one (Theorem 3.3): it is contained in the closure of
//!   every seed superset;
//! * convergence bounds (Propositions 3.4, 3.5, 3.11) hold on random
//!   instances;
//! * semijoin reduction equals the universal-relation projection;
//! * the two cube implementations agree;
//! * Algorithm 1 equals the naive baseline whenever the additivity
//!   conditions hold.

use exq::prelude::*;
use exq_core::explanation::Explanation;
use exq_core::intervention::{is_valid_intervention, InterventionEngine};
use exq_core::{cube_algo, naive, topk};
use exq_relstore::aggregate::AggFunc;
use exq_relstore::cube::{self, CubeStrategy};
use exq_relstore::{semijoin, ValueType as T};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------

/// A random bipartite DBLP-like instance: authors × publications with the
/// Eq. (2) foreign keys (one standard, one back-and-forth). Semijoin-
/// reduced by construction (only referenced authors/pubs are emitted).
fn dblp_like(edges: Vec<(u8, u8)>, back_and_forth: bool) -> Option<Database> {
    if edges.is_empty() {
        return None;
    }
    let mut b = SchemaBuilder::new()
        .relation("Author", &[("id", T::Int), ("grp", T::Str)], &["id"])
        .relation(
            "Authored",
            &[("id", T::Int), ("pubid", T::Int)],
            &["id", "pubid"],
        )
        .relation(
            "Publication",
            &[("pubid", T::Int), ("tag", T::Str)],
            &["pubid"],
        )
        .standard_fk("Authored", &["id"], "Author");
    b = if back_and_forth {
        b.back_and_forth_fk("Authored", &["pubid"], "Publication")
    } else {
        b.standard_fk("Authored", &["pubid"], "Publication")
    };
    let mut db = Database::new(b.build().unwrap());

    let mut edges: Vec<(u8, u8)> = edges.into_iter().map(|(a, p)| (a % 6, p % 6)).collect();
    edges.sort_unstable();
    edges.dedup();
    let mut authors: Vec<u8> = edges.iter().map(|e| e.0).collect();
    authors.sort_unstable();
    authors.dedup();
    let mut pubs: Vec<u8> = edges.iter().map(|e| e.1).collect();
    pubs.sort_unstable();
    pubs.dedup();
    for &a in &authors {
        let grp = if a % 2 == 0 { "even" } else { "odd" };
        db.insert("Author", vec![(a as i64).into(), grp.into()])
            .unwrap();
    }
    for &(a, p) in &edges {
        db.insert("Authored", vec![(a as i64).into(), (p as i64).into()])
            .unwrap();
    }
    for &p in &pubs {
        let tag = if p < 3 { "lo" } else { "hi" };
        db.insert("Publication", vec![(p as i64).into(), tag.into()])
            .unwrap();
    }
    db.validate().unwrap();
    Some(db)
}

/// A random single-table instance with two low-cardinality attributes and
/// a binary outcome.
fn flat_db(rows: Vec<(u8, u8, bool)>) -> Option<Database> {
    if rows.is_empty() {
        return None;
    }
    let schema = SchemaBuilder::new()
        .relation(
            "R",
            &[("id", T::Int), ("g", T::Int), ("h", T::Int), ("ok", T::Str)],
            &["id"],
        )
        .build()
        .unwrap();
    let mut db = Database::new(schema);
    for (i, (g, h, ok)) in rows.iter().enumerate() {
        db.insert(
            "R",
            vec![
                (i as i64).into(),
                ((g % 4) as i64).into(),
                ((h % 3) as i64).into(),
                if *ok { "y" } else { "n" }.into(),
            ],
        )
        .unwrap();
    }
    Some(db)
}

/// A random single-atom explanation over the DBLP-like schema.
fn dblp_phi(db: &Database, selector: u8, value: u8) -> Explanation {
    let schema = db.schema();
    let atom = match selector % 4 {
        0 => Atom::eq(schema.attr("Author", "id").unwrap(), (value % 6) as i64),
        1 => Atom::eq(
            schema.attr("Author", "grp").unwrap(),
            if value.is_multiple_of(2) {
                "even"
            } else {
                "odd"
            },
        ),
        2 => Atom::eq(
            schema.attr("Publication", "pubid").unwrap(),
            (value % 6) as i64,
        ),
        _ => Atom::eq(
            schema.attr("Publication", "tag").unwrap(),
            if value.is_multiple_of(2) { "lo" } else { "hi" },
        ),
    };
    Explanation::new(vec![atom])
}

// ---------------------------------------------------------------------
// Intervention invariants
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Program P's output is a valid intervention (Definition 2.6).
    #[test]
    fn intervention_is_valid(
        edges in proptest::collection::vec((0u8..6, 0u8..6), 1..12),
        bf in any::<bool>(),
        selector in any::<u8>(),
        value in any::<u8>(),
    ) {
        let Some(db) = dblp_like(edges, bf) else { return Ok(()) };
        let engine = InterventionEngine::new(&db);
        let phi = dblp_phi(&db, selector, value);
        let iv = engine.compute(&phi);
        prop_assert!(is_valid_intervention(&db, phi.conjunction(), &iv.delta));
        // Prop 3.4 global bound.
        prop_assert!(iv.iterations <= db.total_tuples());
        // Prop 3.5 / 3.11 bounds.
        if bf {
            prop_assert!(iv.iterations <= 2 * db.schema().back_and_forth_count() + 2);
        } else {
            prop_assert!(iv.iterations <= 2);
        }
        // Seeds are contained in the fixpoint (monotonicity).
        for (s, d) in iv.seeds.iter().zip(&iv.delta) {
            prop_assert!(s.is_subset(d));
        }
    }

    /// Minimality (Theorem 3.3): Δ^φ is contained in the closure of any
    /// seed superset.
    #[test]
    fn intervention_is_minimal(
        edges in proptest::collection::vec((0u8..6, 0u8..6), 1..12),
        bf in any::<bool>(),
        selector in any::<u8>(),
        value in any::<u8>(),
        extra in proptest::collection::vec((0usize..3, 0usize..8), 0..4),
    ) {
        let Some(db) = dblp_like(edges, bf) else { return Ok(()) };
        let engine = InterventionEngine::new(&db);
        let phi = dblp_phi(&db, selector, value);
        let iv = engine.compute(&phi);

        let mut seeds = iv.seeds.clone();
        for (rel, row) in extra {
            if row < db.relation_len(rel) {
                seeds[rel].insert(row);
            }
        }
        let (closure, _) = engine.close_from_seeds(&seeds);
        // The closure of a seed superset is valid, hence must contain the
        // minimal intervention.
        prop_assert!(is_valid_intervention(&db, phi.conjunction(), &closure));
        for (small, big) in iv.delta.iter().zip(&closure) {
            prop_assert!(small.is_subset(big));
        }
    }

    /// The residual database never contains a φ-satisfying universal tuple,
    /// and re-running P on the residual from scratch finds nothing to do.
    #[test]
    fn residual_is_a_fixed_point(
        edges in proptest::collection::vec((0u8..6, 0u8..6), 1..12),
        selector in any::<u8>(),
        value in any::<u8>(),
    ) {
        let Some(db) = dblp_like(edges, true) else { return Ok(()) };
        let engine = InterventionEngine::new(&db);
        let phi = dblp_phi(&db, selector, value);
        let iv = engine.compute(&phi);
        let (closed_again, extra_iterations) = engine.close_from_seeds(&iv.delta);
        prop_assert_eq!(&closed_again, &iv.delta);
        prop_assert!(extra_iterations <= 1);
    }
}

// ---------------------------------------------------------------------
// Semijoin reduction and universal relation
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Full reduction equals the projection of the universal relation —
    /// the defining property (R_i = Π_{A_i}(U(D))).
    #[test]
    fn reduction_equals_universal_projection(
        edges in proptest::collection::vec((0u8..6, 0u8..6), 1..12),
        bf in any::<bool>(),
        drop in proptest::collection::vec((0usize..3, 0usize..10), 0..5),
    ) {
        let Some(db) = dblp_like(edges, bf) else { return Ok(()) };
        let mut view = db.full_view();
        for (rel, row) in drop {
            if row < db.relation_len(rel) {
                view.live[rel].remove(row);
            }
        }
        let reduced = semijoin::reduce(&db, &view);
        let u = Universal::compute(&db, &view);
        for rel in 0..db.schema().relation_count() {
            prop_assert_eq!(reduced.live(rel), &u.projected_rows(&db, rel));
        }
        // Idempotence.
        prop_assert_eq!(semijoin::reduce(&db, &reduced), reduced.clone());
    }
}

// ---------------------------------------------------------------------
// Cube implementations and Algorithm 1
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Subset enumeration and lattice roll-up build identical cubes, for
    /// every aggregate.
    #[test]
    fn cube_strategies_agree(rows in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 1..40)) {
        let Some(db) = flat_db(rows) else { return Ok(()) };
        let u = Universal::compute(&db, &db.full_view());
        let schema = db.schema();
        let dims = vec![schema.attr("R", "g").unwrap(), schema.attr("R", "h").unwrap()];
        let id = schema.attr("R", "id").unwrap();
        for agg in [
            AggFunc::CountStar,
            AggFunc::CountDistinct(id),
            AggFunc::Sum(id),
            AggFunc::Avg(id),
            AggFunc::Min(id),
            AggFunc::Max(id),
        ] {
            let a = cube::compute(&db, &u, &Predicate::True, &dims, &agg, CubeStrategy::SubsetEnumeration).unwrap();
            let b = cube::compute(&db, &u, &Predicate::True, &dims, &agg, CubeStrategy::LatticeRollup).unwrap();
            prop_assert_eq!(a.cells, b.cells, "strategy mismatch for {:?}", agg);
        }
    }

    /// Algorithm 1 equals the naive baseline on flat COUNT(*) queries
    /// (additive by construction): same candidates, same degrees.
    #[test]
    fn cube_algo_equals_naive(rows in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 1..40)) {
        let Some(db) = flat_db(rows) else { return Ok(()) };
        let schema = db.schema();
        let ok = schema.attr("R", "ok").unwrap();
        let question = UserQuestion::new(
            NumericalQuery::ratio(
                AggregateQuery::count_star(Predicate::eq(ok, "y")),
                AggregateQuery::count_star(Predicate::eq(ok, "n")),
            ).with_smoothing(1e-4),
            Direction::High,
        );
        let dims = vec![schema.attr("R", "g").unwrap(), schema.attr("R", "h").unwrap()];
        let engine = InterventionEngine::new(&db);
        let naive_t = naive::explanation_table_naive(&db, &engine, &question, &dims).unwrap();
        let u = Universal::compute(&db, &db.full_view());
        let cube_t = cube_algo::explanation_table(&db, &u, &question, &dims, CubeAlgoConfig::checked()).unwrap();
        prop_assert_eq!(naive_t.totals.clone(), cube_t.totals.clone());
        prop_assert_eq!(naive_t.len(), cube_t.len());
        for (n, c) in naive_t.rows.iter().zip(&cube_t.rows) {
            prop_assert_eq!(&n.coord, &c.coord);
            prop_assert_eq!(&n.values, &c.values);
            prop_assert!((n.mu_interv - c.mu_interv).abs() < 1e-9,
                "mu_interv mismatch at {:?}: {} vs {}", n.coord, n.mu_interv, c.mu_interv);
            prop_assert!((n.mu_aggr - c.mu_aggr).abs() < 1e-9);
        }
    }

    /// Top-K invariants: outputs are sorted by degree, contain no
    /// dominated explanation (for the minimal strategies), and the two
    /// minimal strategies return identical sets when degrees are distinct.
    #[test]
    fn topk_invariants(
        rows in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 4..40),
        k in 1usize..8,
    ) {
        let Some(db) = flat_db(rows) else { return Ok(()) };
        let schema = db.schema();
        let ok = schema.attr("R", "ok").unwrap();
        let question = UserQuestion::new(
            NumericalQuery::ratio(
                AggregateQuery::count_star(Predicate::eq(ok, "y")),
                AggregateQuery::count_star(Predicate::eq(ok, "n")),
            ).with_smoothing(1e-4),
            Direction::High,
        );
        let dims = vec![schema.attr("R", "g").unwrap(), schema.attr("R", "h").unwrap()];
        let u = Universal::compute(&db, &db.full_view());
        let m = cube_algo::explanation_table(&db, &u, &question, &dims, CubeAlgoConfig::checked()).unwrap();

        for strategy in [topk::TopKStrategy::NoMinimal, topk::TopKStrategy::MinimalSelfJoin, topk::TopKStrategy::MinimalAppend] {
            let out = topk::top_k(&m, DegreeKind::Intervention, k, strategy, MinimalityPolarity::PreferGeneral);
            prop_assert!(out.len() <= k);
            for w in out.windows(2) {
                prop_assert!(w[0].degree >= w[1].degree, "unsorted output");
            }
            for r in &out {
                prop_assert!(!r.explanation.is_trivial());
            }
        }

        // Self-join output is dominance-free.
        let sj = topk::top_k(&m, DegreeKind::Intervention, k, topk::TopKStrategy::MinimalSelfJoin, MinimalityPolarity::PreferGeneral);
        for r in &sj {
            let row = &m.rows[r.row];
            for other in &m.rows {
                if other.arity() < row.arity() && other.coord_generalizes(row) {
                    prop_assert!(other.mu_interv < row.mu_interv,
                        "dominated row {:?} in output", row.coord);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Degrees
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// μ_interv of the empty-match explanation equals ±Q(D); flipping the
    /// direction flips both degrees.
    #[test]
    fn degree_sign_laws(
        edges in proptest::collection::vec((0u8..6, 0u8..6), 1..10),
        selector in any::<u8>(),
        value in any::<u8>(),
    ) {
        let Some(db) = dblp_like(edges, true) else { return Ok(()) };
        let schema = db.schema();
        let tag = schema.attr("Publication", "tag").unwrap();
        let pubid = schema.attr("Publication", "pubid").unwrap();
        let mk = |dir| UserQuestion::new(
            NumericalQuery::single(AggregateQuery {
                func: AggFunc::CountDistinct(pubid),
                selection: Predicate::eq(tag, "lo"),
            }),
            dir,
        );
        let engine = InterventionEngine::new(&db);
        let phi = dblp_phi(&db, selector, value);
        let pred = phi.conjunction().to_predicate();
        let hi = exq_core::degree::evaluate(&engine, &mk(Direction::High), &pred).unwrap();
        let lo = exq_core::degree::evaluate(&engine, &mk(Direction::Low), &pred).unwrap();
        prop_assert_eq!(hi.mu_interv, -lo.mu_interv);
        prop_assert_eq!(hi.mu_aggr, -lo.mu_aggr);
    }
}
