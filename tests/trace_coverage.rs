//! Observability coverage. A full DBLP explain (semijoin reduction,
//! universal join, Algorithm 1) under an armed trace ring yields a
//! Chrome trace export — parsed with the server's own JSON reader —
//! that is stack-balanced and covers every pipeline phase; and every
//! name the metrics catalogue pins is emitted by a small set of
//! reference workloads.

use exq::core::intervention::InterventionEngine;
use exq::core::prelude::*;
use exq::core::prepared::PreparedDb;
use exq::core::{cube_algo, naive, qparse};
use exq::datagen::{dblp, natality};
use exq::obs::MetricsSink;
use exq::relstore::aggregate::AggFunc;
use exq::relstore::{Database, ExecConfig, Predicate, Universal};
use exq::router::{Front, FrontConfig};
use exq::serve::{client, Catalog, ServerConfig};
use std::sync::Arc;

#[path = "support/catalogue.rs"]
mod catalogue;
use catalogue::{parse_catalogue, EmitKind};

/// The small DBLP instance (the CLI's `dblp-small`).
fn small_dblp() -> Database {
    dblp::generate(&dblp::DblpConfig {
        papers_per_year_base: 6,
        authors_per_institution: 4,
        ..dblp::DblpConfig::default()
    })
}

/// The Figure 2 "SIGMOD com/edu bump" question.
fn bump_question(db: &Database) -> UserQuestion {
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

#[test]
fn dblp_explain_trace_is_balanced_and_covers_all_phases() {
    let sink = MetricsSink::recording();
    sink.enable_tracing(65_536);
    sink.set_trace(1);
    let exec = ExecConfig::sequential().with_metrics(sink.clone());

    let db = Arc::new(small_dblp());
    let question = bump_question(&db);
    let prepared = PreparedDb::build_with(Arc::clone(&db), &exec);
    let explainer = prepared
        .explainer(question)
        .exec(exec.clone())
        .attr_names(&["Author.inst"])
        .unwrap();
    explainer.q_d().unwrap();
    let (_, choice) = explainer.table().unwrap();
    assert_eq!(choice, EngineChoice::Cube);
    let top = explainer.top(DegreeKind::Intervention, 5).unwrap();
    assert!(!top.is_empty());

    let text = sink.trace_chrome_json().expect("tracing is armed");
    let doc = exq::serve::json::parse(text.as_bytes()).expect("export must parse");
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");

    // Balanced: every E closes the innermost open B on its thread.
    let mut stacks: std::collections::BTreeMap<usize, Vec<(String, usize)>> =
        std::collections::BTreeMap::new();
    let mut begin_names = std::collections::BTreeSet::new();
    for event in events {
        let name = event
            .get("name")
            .and_then(|v| v.as_str())
            .expect("event name")
            .to_owned();
        let tid = event.get("tid").and_then(|v| v.as_usize()).unwrap();
        let span_id = event
            .get("args")
            .and_then(|a| a.get("span_id"))
            .and_then(|v| v.as_usize())
            .unwrap();
        match event.get("ph").and_then(|v| v.as_str()).unwrap() {
            "B" => {
                begin_names.insert(name.clone());
                stacks.entry(tid).or_default().push((name, span_id));
            }
            "E" => {
                let top = stacks
                    .get_mut(&tid)
                    .and_then(Vec::pop)
                    .expect("E without open B");
                assert_eq!(top, (name, span_id));
            }
            other => panic!("unexpected phase {other:?}"),
        }
    }
    for stack in stacks.values() {
        assert!(stack.is_empty(), "unclosed B events");
    }

    // Coverage: the trace spans the whole pipeline — preparation
    // (semijoin + universal join), the cube, and Algorithm 1.
    for phase in [
        "prepare",
        "semijoin",
        "join",
        "cube",
        "cube_algo",
        "explain.table",
    ] {
        assert!(
            begin_names.contains(phase),
            "phase {phase} missing from trace; saw {begin_names:?}"
        );
    }
}

/// Every non-`aux` name in `assets/obs/counters.txt` appears in the
/// union of the recording-sink snapshots of three reference workloads:
/// a DBLP explain, a small natality naive + cube run, and one server
/// answering explain, report, append and the GET endpoints behind a
/// one-worker front. `aux` names are data- or strategy-dependent, so
/// only the catalogue audit (`tests/artifact_audit.rs`, L007/L008)
/// checks them: each must have an emit site, as every non-`aux` name
/// must too.
#[test]
fn every_pinned_catalogue_name_is_emitted_by_the_reference_workloads() {
    let sink = MetricsSink::recording();
    let exec = ExecConfig::sequential().with_metrics(sink.clone());

    let db = Arc::new(small_dblp());
    let prepared = PreparedDb::build_with(Arc::clone(&db), &exec);
    prepared
        .explainer(bump_question(&db))
        .exec(exec.clone())
        .attr_names(&["Author.inst"])
        .unwrap()
        .table()
        .unwrap();

    let nat = natality::generate(&natality::NatalityConfig {
        rows: 2_000,
        seed: 7,
    });
    let question =
        qparse::parse_question(nat.schema(), include_str!("../assets/questions/q_race.exq"))
            .unwrap();
    let dims = ["age", "tobacco"].map(|a| nat.schema().attr("Natality", a).unwrap());
    let u = Arc::new(Universal::compute_with(&nat, &nat.full_view(), &exec));
    let engine = InterventionEngine::with_universal(&nat, Arc::clone(&u))
        .with_metrics(exec.metrics().clone());
    naive::explanation_table_naive_with(&nat, &engine, &question, &dims, &exec).unwrap();
    let config = CubeAlgoConfig::checked().with_exec(exec.clone());
    cube_algo::explanation_table(&nat, &u, &question, &dims, config).unwrap();

    let mut catalog = Catalog::new();
    catalog
        .insert_database("dblp", db, &ExecConfig::sequential())
        .unwrap();
    let worker = exq::serve::start(
        catalog,
        ServerConfig {
            threads: 1,
            shard_id: Some(0),
            ..ServerConfig::default()
        },
        MetricsSink::recording(),
    )
    .unwrap();
    let front = Front::start_on(
        "127.0.0.1:0",
        FrontConfig {
            per_worker_connections: 1,
            datasets: vec!["dblp".to_string()],
            ..FrontConfig::default()
        },
        MetricsSink::recording(),
    )
    .unwrap();
    front.upstreams().set_addr(0, Some(worker.addr()));
    let addr = front.addr();
    let body = format!(
        "{{\"dataset\": \"dblp\", \"question\": \"{}\", \"attrs\": [\"Author.inst\"], \"top\": 3}}",
        exq::obs::escape_json(include_str!("../assets/questions/bump.exq"))
    );
    // Each question twice: a miss, then a hit.
    for path in ["/v1/explain", "/v1/explain", "/v1/report", "/v1/report"] {
        let response = client::post_json(addr, path, &body).unwrap();
        assert_eq!(response.status, 200, "{path}: {}", response.text());
    }
    let append = client::post_json(
        addr,
        "/v1/datasets/dblp/rows",
        r#"{"rows": {"Author": [["new-author", "New Author", "new.edu", "edu"]]}}"#,
    )
    .unwrap();
    assert_eq!(append.status, 200, "{}", append.text());
    for path in [
        "/healthz",
        "/v1/health",
        "/v1/datasets",
        "/metrics",
        "/v1/debug/requests",
    ] {
        let response = client::get(addr, path).unwrap();
        assert_eq!(response.status, 200, "{path}: {}", response.text());
    }
    let mut union = sink.snapshot();
    union.merge(&front.shutdown());
    union.merge(&worker.shutdown());

    let missing: Vec<String> = parse_catalogue(include_str!("../assets/obs/counters.txt"))
        .into_iter()
        .filter(|entry| !entry.aux)
        .filter(|entry| match entry.kind {
            EmitKind::Counter => !union.counters.contains_key(&entry.name),
            EmitKind::Span => !union.spans.contains_key(&entry.name),
            EmitKind::Hist => !union.histograms.contains_key(&entry.name),
        })
        .map(|entry| {
            format!(
                "{:?} {} (counters.txt:{})",
                entry.kind, entry.name, entry.line
            )
        })
        .collect();
    assert!(
        missing.is_empty(),
        "catalogued names no reference workload emitted: {missing:#?}"
    );
}
