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
use exq::datagen::{dblp, geodblp, natality};
use exq::prelude::*;
use exq_bench::{bump_question, q_race};
use exq_relstore::aggregate::AggFunc;
use exq_relstore::{AppendBatch, Database, ExecConfig, Value};
use std::sync::Arc;

const THREADS: [usize; 3] = [1, 2, 7];

/// A small-but-signal-bearing DBLP instance (the CLI's `dblp-small`).
fn dblp_db() -> Database {
    dblp::generate(&dblp::DblpConfig {
        papers_per_year_base: 6,
        authors_per_institution: 4,
        ..dblp::DblpConfig::default()
    })
}

/// Clone `db` keeping only the first `keep` rows of `relation`; the
/// held-back tail comes back as append-ready rows. Holding back a
/// relation nothing references (the bridge table, or the only table)
/// keeps every prefix foreign-key-consistent.
fn hold_back(db: &Database, relation: &str, keep: usize) -> (Database, Vec<Vec<Value>>) {
    let rel_idx = db.schema().relation_index(relation).unwrap();
    let mut initial = Database::new(db.schema().clone());
    for r in 0..db.schema().relation_count() {
        let name = db.schema().relation(r).name.clone();
        let limit = if r == rel_idx {
            keep
        } else {
            db.relation(r).len()
        };
        for row in db.relation(r).rows().take(limit) {
            initial.insert(&name, row.to_vec()).unwrap();
        }
    }
    let held: Vec<Vec<Value>> = db
        .relation(rel_idx)
        .rows()
        .skip(keep)
        .map(<[Value]>::to_vec)
        .collect();
    (initial, held)
}

/// Split `rows` into `n` append batches for `relation`.
fn batches_of(relation: &str, rows: Vec<Vec<Value>>, n: usize) -> Vec<AppendBatch> {
    let chunk = rows.len().div_ceil(n);
    rows.chunks(chunk.max(1))
        .map(|c| vec![(relation.to_string(), c.to_vec())])
        .collect()
}

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
    let full = dblp_db();
    let authored = full.schema().relation_index("Authored").unwrap();
    let keep = full.relation(authored).len() * 8 / 10;
    let (initial, held) = hold_back(&full, "Authored", keep);
    assert!(held.len() >= 3, "need enough held-back rows for 3 batches");
    let batches = batches_of("Authored", held, 3);
    epochs_match_rebuild(
        &initial,
        &batches,
        bump_question,
        &["Author.inst", "Author.name"],
    );
}

#[test]
fn natality_appends_are_indistinguishable_from_rebuild_at_every_epoch() {
    let full = natality::generate(&natality::NatalityConfig {
        rows: 6_000,
        seed: 7,
    });
    let (initial, held) = hold_back(&full, "Natality", 4_800);
    let batches = batches_of("Natality", held, 2);
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
    let (initial, held) = hold_back(&full, "Authored", keep);
    let batches = batches_of("Authored", held, 3);
    epochs_match_rebuild(
        &initial,
        &batches,
        geobump_question,
        &["Author.name", "AffiliationG.inst", "CityG.city"],
    );
}

/// A `POST /v1/datasets/{name}/rows` body for one append batch.
fn append_body(batch: &AppendBatch) -> String {
    use std::fmt::Write as _;
    let cell = |v: &Value| match v {
        Value::Str(s) => format!("\"{}\"", exq::obs::escape_json(s)),
        other => other.to_string(),
    };
    let mut body = String::from("{\"rows\": {");
    for (i, (rel, rows)) in batch.iter().enumerate() {
        if i > 0 {
            body.push_str(", ");
        }
        let _ = write!(body, "\"{}\": [", exq::obs::escape_json(rel));
        for (j, row) in rows.iter().enumerate() {
            if j > 0 {
                body.push(',');
            }
            let cells: Vec<String> = row.iter().map(cell).collect();
            let _ = write!(body, "[{}]", cells.join(","));
        }
        body.push(']');
    }
    body.push_str("}}");
    body
}

/// Zero every `"total_ns": N` so two servers' explain documents compare
/// byte-for-byte (span durations are the only wall-clock content).
fn scrub_total_ns(body: &str) -> String {
    let mut out = String::with_capacity(body.len());
    let mut rest = body;
    while let Some(at) = rest.find("\"total_ns\": ") {
        let (head, tail) = rest.split_at(at + "\"total_ns\": ".len());
        out.push_str(head);
        out.push('0');
        rest = tail.trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

/// ISSUE 9 satellite: concurrent appends to the *same* dataset from
/// multiple HTTP clients serialize cleanly. The N responses must carry
/// epochs `1..=N` exactly once each (the server's write lock makes the
/// bumps strictly monotonic — no epoch is skipped or handed out twice),
/// and the final state must be byte-identical to replaying the same
/// batches serially in the order the server chose.
#[test]
fn concurrent_http_appends_serialize_into_monotonic_epochs() {
    use exq::serve::{client, Catalog, ServerConfig};

    let full = dblp_db();
    let authored = full.schema().relation_index("Authored").unwrap();
    let keep = full.relation(authored).len() * 8 / 10;
    let (initial, held) = hold_back(&full, "Authored", keep);
    let clients = 4usize;
    let batches = batches_of("Authored", held, clients);
    assert_eq!(batches.len(), clients, "need one batch per client");

    let question = include_str!("../assets/questions/bump.exq");
    let explain_request = format!(
        "{{\"dataset\": \"dblp\", \"question\": \"{}\", \"attrs\": [\"Author.inst\"], \"top\": 3}}",
        exq::obs::escape_json(question)
    );
    let boot = |db: &Database| {
        let mut catalog = Catalog::new();
        catalog
            .insert_database("dblp", Arc::new(db.clone()), &ExecConfig::auto())
            .unwrap();
        exq::serve::start(
            catalog,
            ServerConfig {
                threads: clients,
                ..ServerConfig::default()
            },
            exq::obs::MetricsSink::recording(),
        )
        .expect("bind append server")
    };

    // Fire all batches at once, one keep-alive connection per client.
    let concurrent = boot(&initial);
    let addr = concurrent.addr();
    let mut outcomes: Vec<(usize, u64)> = std::thread::scope(|scope| {
        let workers: Vec<_> = batches
            .iter()
            .enumerate()
            .map(|(i, batch)| {
                scope.spawn(move || {
                    let mut conn = client::Connection::new(addr);
                    let response = conn
                        .post_json("/v1/datasets/dblp/rows", &append_body(batch))
                        .unwrap();
                    assert_eq!(response.status, 200, "{}", response.text());
                    let epoch: u64 = response
                        .header("x-exq-epoch")
                        .expect("append response must carry X-Exq-Epoch")
                        .parse()
                        .unwrap();
                    (i, epoch)
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });

    // Epochs are a permutation of 1..=N: strictly monotonic bumps, none
    // skipped, none duplicated.
    outcomes.sort_by_key(|&(_, epoch)| epoch);
    let epochs: Vec<u64> = outcomes.iter().map(|&(_, e)| e).collect();
    assert_eq!(
        epochs,
        (1..=clients as u64).collect::<Vec<_>>(),
        "concurrent appends must serialize into consecutive epochs"
    );

    // Replay the batches serially in the server's chosen order on a
    // fresh server: the two must now be indistinguishable — catalog
    // listing and explain document, byte for byte.
    let replay = boot(&initial);
    for &(batch_idx, _) in &outcomes {
        let response = client::post_json(
            replay.addr(),
            "/v1/datasets/dblp/rows",
            &append_body(&batches[batch_idx]),
        )
        .unwrap();
        assert_eq!(response.status, 200, "{}", response.text());
    }
    let listing = client::get(addr, "/v1/datasets").unwrap();
    let replay_listing = client::get(replay.addr(), "/v1/datasets").unwrap();
    assert_eq!(listing.status, 200);
    assert_eq!(
        listing.text(),
        replay_listing.text(),
        "catalog listing must match a serial replay"
    );
    assert!(listing.text().contains(&format!("\"epoch\": {clients}")));

    let concurrent_explain = client::post_json(addr, "/v1/explain", &explain_request).unwrap();
    let replay_explain = client::post_json(replay.addr(), "/v1/explain", &explain_request).unwrap();
    assert_eq!(
        concurrent_explain.status,
        200,
        "{}",
        concurrent_explain.text()
    );
    assert_eq!(replay_explain.status, 200, "{}", replay_explain.text());
    assert_eq!(
        scrub_total_ns(&concurrent_explain.text()),
        scrub_total_ns(&replay_explain.text()),
        "post-append explain must be byte-identical to a serial replay"
    );

    concurrent.shutdown();
    replay.shutdown();
}

/// The append path's own metrics obey the observability contract: the
/// normalized snapshot (counters and span counts, wall-clock zeroed) is
/// bit-identical at every thread count, and DBLP's single join
/// component takes the delta path, never the full-rebuild fallback.
#[test]
fn append_metrics_snapshot_is_identical_across_thread_counts() {
    let full = dblp_db();
    let authored = full.schema().relation_index("Authored").unwrap();
    let keep = full.relation(authored).len() * 9 / 10;
    let (initial, held) = hold_back(&full, "Authored", keep);
    let batch = vec![("Authored".to_string(), held)];
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
