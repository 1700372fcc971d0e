//! Cross-thread-count determinism: the whole pipeline (universal join →
//! cubes → Algorithm 1, and the naive engine) must produce *bit-identical*
//! explanation tables at every thread count. These run the two headline
//! experiment workloads (DBLP Figure 2, natality Figure 10) through the
//! facade at 1, 2, and 7 threads and require full `ExplanationTable`
//! equality — coordinates, `v_j` columns, and both degree columns, down
//! to the last float bit.

use exq::core::explainer::Explainer;
use exq::datagen::{dblp, natality};
use exq::prelude::*;
use exq_bench::{bump_question, q_race};

const THREADS: [usize; 3] = [1, 2, 7];

#[test]
fn dblp_explanation_table_is_identical_across_thread_counts() {
    let db = dblp::generate(&dblp::DblpConfig::default());
    let build = |threads: usize| {
        Explainer::new(&db, bump_question(&db))
            .attr_names(&["Author.inst", "Author.name"])
            .unwrap()
            .threads(threads)
    };
    let (baseline, choice) = build(1).table().unwrap();
    assert!(!baseline.is_empty());
    for threads in THREADS {
        let (table, c) = build(threads).table().unwrap();
        assert_eq!(c, choice, "threads = {threads}");
        assert_eq!(table, baseline, "threads = {threads}");
    }
}

#[test]
fn natality_explanation_table_is_identical_across_thread_counts() {
    let db = natality::generate(&natality::NatalityConfig {
        rows: 20_000,
        seed: 7,
    });
    let dims = [
        "Natality.age",
        "Natality.tobacco",
        "Natality.prenatal",
        "Natality.edu",
        "Natality.marital",
    ];
    let build = |threads: usize| {
        Explainer::new(&db, q_race(&db))
            .attr_names(&dims)
            .unwrap()
            .threads(threads)
    };
    let (baseline, _) = build(1).table().unwrap();
    assert!(!baseline.is_empty());
    for threads in THREADS {
        let (table, _) = build(threads).table().unwrap();
        assert_eq!(table, baseline, "threads = {threads}");
    }
}

#[test]
fn naive_engine_is_identical_across_thread_counts_on_natality() {
    // The naive engine runs program P per candidate; restrict to two
    // dimensions to keep the candidate count (and runtime) small.
    let db = natality::generate(&natality::NatalityConfig {
        rows: 2_000,
        seed: 7,
    });
    let schema = db.schema();
    let ap = schema.attr("Natality", "ap").unwrap();
    let q = |o: &str| AggregateQuery::count_star(Predicate::eq(ap, o));
    let question = || {
        UserQuestion::new(
            NumericalQuery::ratio(q("good"), q("poor")).with_smoothing(1e-4),
            Direction::High,
        )
    };
    let build = |threads: usize| {
        Explainer::new(&db, question())
            .attr_names(&["Natality.tobacco", "Natality.marital"])
            .unwrap()
            .force_naive()
            .threads(threads)
    };
    let (baseline, choice) = build(1).table().unwrap();
    assert_eq!(choice, exq::core::explainer::EngineChoice::Naive);
    assert!(!baseline.is_empty());
    for threads in THREADS {
        let (table, _) = build(threads).table().unwrap();
        assert_eq!(table, baseline, "threads = {threads}");
    }
}

#[test]
fn metrics_snapshot_is_identical_across_thread_counts_on_dblp() {
    // The observability contract: the *normalized* snapshot (counters and
    // span counts; wall-clock zeroed) is bit-identical at every thread
    // count, and so is its rendered JSON.
    let db = dblp::generate(&dblp::DblpConfig::default());
    let snapshot = |threads: usize| {
        let sink = exq::obs::MetricsSink::recording();
        let (table, _) = Explainer::new(&db, bump_question(&db))
            .attr_names(&["Author.inst", "Author.name"])
            .unwrap()
            .threads(threads)
            .metrics(sink.clone())
            .table()
            .unwrap();
        assert!(!table.is_empty());
        sink.snapshot().normalized()
    };
    let base = snapshot(1);
    assert!(base.counter("join.runs") >= 1);
    assert!(base.counter("cube.cells") > 0);
    assert!(base.counter("engine.candidates_evaluated") > 0);
    for threads in THREADS {
        let snap = snapshot(threads);
        assert_eq!(snap, base, "threads = {threads}");
        assert_eq!(snap.to_json(), base.to_json(), "threads = {threads}");
    }
}

#[test]
fn metrics_snapshot_is_identical_across_thread_counts_on_naive_natality() {
    // Same contract through the naive engine: program P per candidate,
    // parallel across candidates, fixpoint counters merged from workers.
    let db = natality::generate(&natality::NatalityConfig {
        rows: 2_000,
        seed: 7,
    });
    let schema = db.schema();
    let ap = schema.attr("Natality", "ap").unwrap();
    let q = |o: &str| AggregateQuery::count_star(Predicate::eq(ap, o));
    let question = || {
        UserQuestion::new(
            NumericalQuery::ratio(q("good"), q("poor")).with_smoothing(1e-4),
            Direction::High,
        )
    };
    let snapshot = |threads: usize| {
        let sink = exq::obs::MetricsSink::recording();
        let (table, choice) = Explainer::new(&db, question())
            .attr_names(&["Natality.tobacco", "Natality.marital"])
            .unwrap()
            .force_naive()
            .threads(threads)
            .metrics(sink.clone())
            .table()
            .unwrap();
        assert_eq!(choice, exq::core::explainer::EngineChoice::Naive);
        let snap = sink.snapshot().normalized();
        assert_eq!(
            snap.counter("engine.candidates_evaluated"),
            table.len() as u64
        );
        snap
    };
    let base = snapshot(1);
    assert!(base.counter("naive.runs") >= 1);
    assert!(base.counter("fixpoint.runs") > 0);
    for threads in THREADS {
        assert_eq!(snapshot(threads), base, "threads = {threads}");
    }
}
