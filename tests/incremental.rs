//! Epoch-parity differential suite for live appends (ISSUE 8).
//!
//! The incremental-maintenance contract: appending rows to a
//! [`PreparedDb`] and delta-maintaining its intermediates must be
//! **indistinguishable** from throwing everything away and rebuilding
//! from scratch — at every epoch, for every workload, at every thread
//! count. These tests interleave append batches with explains on the
//! headline workloads (DBLP Figure 2, natality Figure 10, Geo-DBLP
//! Figure 15) and require bit-identical reduced views, universal relations, and
//! explanation tables between the incremental and rebuilt pipelines,
//! then re-run the whole epoch sequence at 2 and 7 threads against the
//! sequential baseline (the PR 2 bit-identity contract).

use exq::core::prepared::PreparedDb;
use exq::datagen::{geodblp, natality};
use exq::prelude::*;
use exq_bench::{bump_question, q_race};
use exq_relstore::aggregate::AggFunc;
use exq_relstore::{AppendBatch, Database, ExecConfig};
use std::sync::Arc;

#[path = "support/serving.rs"]
mod serving;
use serving::{hold_back, Step, Target};

const THREADS: [usize; 3] = [1, 2, 7];

/// The differential driver. Sequentially: at every epoch (including
/// epoch 0), the incrementally maintained `PreparedDb` must equal a
/// from-scratch rebuild of the same rows — reduced view, universal
/// relation, and explanation table, bit for bit. Then the same epoch
/// walk at 2 and 7 threads must reproduce the sequential tables.
fn epochs_match_rebuild(
    initial: &Database,
    batches: &[AppendBatch],
    question: impl Fn(&Database) -> UserQuestion,
    attrs: &[&str],
) {
    let table_of = |p: &PreparedDb| {
        p.explainer(question(p.db()))
            .attr_names(attrs)
            .unwrap()
            .table()
            .unwrap()
            .0
    };

    // Sequential pass: full differential against the rebuild.
    let mut baseline_tables = Vec::with_capacity(batches.len() + 1);
    let exec = ExecConfig::sequential();
    let mut prepared = PreparedDb::build_with(Arc::new(initial.clone()), &exec);
    for epoch in 0..=batches.len() {
        if epoch > 0 {
            let (next, appended) = prepared
                .append_with(batches[epoch - 1].clone(), &exec)
                .unwrap();
            assert!(appended > 0, "epoch {epoch} appended nothing");
            prepared = next;
        }
        let rebuilt = PreparedDb::build_with(Arc::new(prepared.db().clone()), &exec);
        assert_eq!(
            prepared.reduced(),
            rebuilt.reduced(),
            "epoch {epoch}: reduced view diverged from rebuild"
        );
        assert_eq!(prepared.universal().len(), rebuilt.universal().len());
        assert!(
            prepared.universal().iter().eq(rebuilt.universal().iter()),
            "epoch {epoch}: universal relation diverged from rebuild"
        );
        let incremental = table_of(&prepared);
        assert!(!incremental.is_empty(), "epoch {epoch}: empty table");
        assert_eq!(
            incremental,
            table_of(&rebuilt),
            "epoch {epoch}: incremental explain differs from rebuild-from-scratch"
        );
        baseline_tables.push(incremental);
    }

    // Parallel passes: the same epoch walk reproduces the sequential
    // tables bit-for-bit (and therefore the rebuilds, transitively).
    for threads in THREADS {
        let exec = ExecConfig::with_threads(threads);
        let mut prepared = PreparedDb::build_with(Arc::new(initial.clone()), &exec);
        for epoch in 0..=batches.len() {
            if epoch > 0 {
                prepared = prepared
                    .append_with(batches[epoch - 1].clone(), &exec)
                    .unwrap()
                    .0;
            }
            assert_eq!(
                table_of(&prepared),
                baseline_tables[epoch],
                "threads = {threads}, epoch {epoch}"
            );
        }
    }
}

#[test]
fn dblp_appends_are_indistinguishable_from_rebuild_at_every_epoch() {
    let ds = &serving::fixtures().datasets[0];
    assert_eq!(
        ds.batches.len(),
        3,
        "need enough held-back rows for 3 batches"
    );
    let attrs = ["Author.inst", "Author.name"];
    epochs_match_rebuild(&ds.initial, &ds.batches, bump_question, &attrs);
}

#[test]
fn natality_appends_are_indistinguishable_from_rebuild_at_every_epoch() {
    let full = natality::generate(&natality::NatalityConfig {
        rows: 6_000,
        seed: 7,
    });
    let (initial, batches) = hold_back(&full, "Natality", 4_800, 2);
    epochs_match_rebuild(
        &initial,
        &batches,
        q_race,
        &[
            "Natality.age",
            "Natality.tobacco",
            "Natality.prenatal",
            "Natality.edu",
            "Natality.marital",
        ],
    );
}

/// The Fig. 15 question: UK SIGMOD over PODS output (Section 5.2).
fn geobump_question(db: &Database) -> UserQuestion {
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
    UserQuestion::new(
        NumericalQuery::ratio(q("SIGMOD"), q("PODS")).with_smoothing(1e-4),
        Direction::Low,
    )
}

/// The 8-relation Geo-DBLP tree, rooted at `Author`, grows through
/// `Authored`: every delta partition joins from a pivot that is not the
/// root, outward through both of its neighbours.
#[test]
fn geodblp_appends_are_indistinguishable_from_rebuild_at_every_epoch() {
    let full = geodblp::generate(&geodblp::GeoDblpConfig {
        papers: 2_000,
        seed: 11,
    });
    let authored = full.schema().relation_index("Authored").unwrap();
    let keep = full.relation(authored).len() * 8 / 10;
    let (initial, batches) = hold_back(&full, "Authored", keep, 3);
    epochs_match_rebuild(
        &initial,
        &batches,
        geobump_question,
        &["Author.name", "AffiliationG.inst", "CityG.city"],
    );
}

/// The append path's own metrics obey the observability contract: the
/// normalized snapshot (counters and span counts, wall-clock zeroed) is
/// bit-identical at every thread count, and DBLP's single join
/// component takes the delta path, never the full-rebuild fallback.
#[test]
fn append_metrics_snapshot_is_identical_across_thread_counts() {
    let ds = &serving::fixtures().datasets[0];
    let (initial, batch) = (&ds.initial, &ds.batches[0]);
    let snapshot = |threads: usize| {
        let sink = exq::obs::MetricsSink::recording();
        let exec = ExecConfig::with_threads(threads).with_metrics(sink.clone());
        let prepared = PreparedDb::build_with(
            Arc::new(initial.clone()),
            &ExecConfig::with_threads(threads),
        );
        prepared.append_with(batch.clone(), &exec).unwrap();
        sink.snapshot().normalized()
    };
    let base = snapshot(1);
    assert!(base.counter("ingest.delta.tuples") > 0);
    assert_eq!(base.counter("ingest.delta.full_rebuilds"), 0);
    for threads in THREADS {
        assert_eq!(snapshot(threads), base, "threads = {threads}");
    }
}

/// Concurrent HTTP appends, one client per batch, then a read: the
/// batches take epochs 1..=n once each, and `check` holds every answer to
/// a fresh server over the batches replayed in the acknowledged order.
#[test]
fn concurrent_http_appends_serialize_into_monotonic_epochs() {
    let fx = serving::fixtures();
    let n = fx.datasets[0].batches.len();
    for threads in [1, n] {
        let appends = (0..n).map(|b| vec![serving::append(fx, 0, b)]).collect();
        let read = vec![vec![serving::ask(fx, 0, "Author.inst", 3, false)]];
        let steps = [Step::Clients(appends), Step::Clients(read)];
        let done = serving::run(fx, Target::Server, threads, &steps);
        serving::check(fx, &done);
        let epoch = |r: &serving::Record| r.response.header("x-exq-epoch").map(str::to_string);
        let mut acked: Vec<_> = done.history[..n].iter().map(epoch).collect();
        acked.sort();
        let want: Vec<_> = (1..=n).map(|e| Some(e.to_string())).collect();
        assert_eq!(acked, want, "{threads} threads");
        assert_eq!(done.history[n].epochs, [(0, n as u64)], "{threads} threads");
    }
}
