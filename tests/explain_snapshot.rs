//! The metrics an explain records, pinned byte for byte.
//!
//! A served explain embeds its request sink's snapshot in the response
//! body, and only span durations (`total_ns`) and the epoch are scrubbed
//! before bodies are compared. So every counter value and every span name
//! and call count on the explain path is part of the answer: a change
//! that adds, drops, renames or re-counts one changes what clients see.
//! These tests run explains the way `exq serve` does — a `PreparedDb`,
//! a fresh recording sink per request, `q_d`, `table`, `top` — and compare
//! the normalized snapshot with the JSON below, at 1, 2 and 7 threads.

use exq::datagen::{dblp, natality};
use exq_core::prepared::PreparedDb;
use exq_core::qparse;
use exq_core::topk::DegreeKind;
use exq_obs::MetricsSink;
use exq_relstore::{Database, ExecConfig};
use std::sync::Arc;

const THREADS: [usize; 3] = [1, 2, 7];

/// The normalized snapshot of one explain of `question` over `attrs`.
fn explain_snapshot(
    prepared: &PreparedDb,
    question: &str,
    attrs: &[&str],
    threads: usize,
) -> String {
    let question = qparse::parse_question(prepared.db().schema(), question).unwrap();
    let sink = MetricsSink::recording();
    let explainer = prepared
        .explainer(question)
        .exec(ExecConfig::with_threads(threads).with_metrics(sink.clone()))
        .attr_names(attrs)
        .unwrap();
    explainer.q_d().unwrap();
    explainer.table().unwrap();
    assert!(!explainer
        .top(DegreeKind::Intervention, 5)
        .unwrap()
        .is_empty());
    sink.snapshot().normalized().to_json()
}

fn assert_pinned(db: Database, question: &str, attrs: &[&str], expected: &str) {
    let prepared = PreparedDb::build_with(Arc::new(db), &ExecConfig::sequential());
    for threads in THREADS {
        assert_eq!(
            explain_snapshot(&prepared, question, attrs, threads),
            expected,
            "threads = {threads}"
        );
    }
}

#[test]
fn dblp_bump_explain_metrics_are_pinned() {
    assert_pinned(
        dblp::generate(&dblp::DblpConfig::default()),
        include_str!("../assets/questions/bump.exq"),
        &["Author.inst", "Author.name"],
        DBLP_BUMP,
    );
}

#[test]
fn natality_q_marital_explain_metrics_are_pinned() {
    assert_pinned(
        natality::generate(&natality::NatalityConfig {
            rows: 20_000,
            seed: 7,
        }),
        include_str!("../assets/questions/q_marital.exq"),
        &[
            "Natality.age",
            "Natality.tobacco",
            "Natality.prenatal",
            "Natality.edu",
        ],
        NATALITY_Q_MARITAL,
    );
}

const DBLP_BUMP: &str = r#"{
  "counters": {
    "cube.cells": 668,
    "cube.cells.level.0": 4,
    "cube.cells.level.1": 348,
    "cube.cells.level.2": 316,
    "cube.input_tuples": 1211,
    "cube.runs": 4,
    "cube.strategy.lattice_rollup": 4,
    "cube_algo.joined_cells": 387,
    "cube_algo.runs": 1,
    "cube_algo.sub_queries": 4,
    "engine.candidates_evaluated": 386
  },
  "spans": {
    "cube": { "count": 4, "total_ns": 0 },
    "cube_algo": { "count": 1, "total_ns": 0 },
    "cube_algo.additivity_check": { "count": 1, "total_ns": 0 },
    "cube_algo.cubes": { "count": 4, "total_ns": 0 },
    "cube_algo.derive": { "count": 1, "total_ns": 0 },
    "cube_algo.join": { "count": 4, "total_ns": 0 },
    "cube_algo.totals": { "count": 1, "total_ns": 0 },
    "explain.table": { "count": 1, "total_ns": 0 }
  },
  "histograms": {},
  "notes": []
}"#;

const NATALITY_Q_MARITAL: &str = r#"{
  "counters": {
    "cube.cells": 1954,
    "cube.cells.level.0": 4,
    "cube.cells.level.1": 71,
    "cube.cells.level.2": 421,
    "cube.cells.level.3": 887,
    "cube.cells.level.4": 571,
    "cube.input_tuples": 20000,
    "cube.runs": 4,
    "cube.strategy.lattice_rollup": 4,
    "cube_algo.joined_cells": 654,
    "cube_algo.runs": 1,
    "cube_algo.sub_queries": 4,
    "engine.candidates_evaluated": 653
  },
  "spans": {
    "cube": { "count": 4, "total_ns": 0 },
    "cube_algo": { "count": 1, "total_ns": 0 },
    "cube_algo.additivity_check": { "count": 1, "total_ns": 0 },
    "cube_algo.cubes": { "count": 4, "total_ns": 0 },
    "cube_algo.derive": { "count": 1, "total_ns": 0 },
    "cube_algo.join": { "count": 4, "total_ns": 0 },
    "cube_algo.totals": { "count": 1, "total_ns": 0 },
    "explain.table": { "count": 1, "total_ns": 0 }
  },
  "histograms": {},
  "notes": []
}"#;
