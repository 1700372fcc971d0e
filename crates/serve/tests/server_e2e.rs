//! End-to-end tests over a real socket: routing, caching, error paths,
//! backpressure, and graceful shutdown accounting.

use exq_relstore::{Database, ExecConfig, SchemaBuilder, ValueType as T};
use exq_serve::{client, Catalog, ServerConfig, SERVER_COUNTERS};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Two joined relations, enough signal for a real ranking.
fn test_db() -> Database {
    let schema = SchemaBuilder::new()
        .relation("A", &[("id", T::Int), ("g", T::Str)], &["id"])
        .relation(
            "B",
            &[("id", T::Int), ("a", T::Int), ("ok", T::Str)],
            &["id"],
        )
        .standard_fk("B", &["a"], "A")
        .build()
        .unwrap();
    let mut db = Database::new(schema);
    for (id, g) in [(1, "x"), (2, "y"), (3, "z")] {
        db.insert("A", vec![id.into(), g.into()]).unwrap();
    }
    for (id, a, ok) in [
        (10, 1, "y"),
        (11, 1, "y"),
        (12, 1, "n"),
        (13, 2, "y"),
        (14, 2, "n"),
        (15, 3, "n"),
    ] {
        db.insert("B", vec![id.into(), a.into(), ok.into()])
            .unwrap();
    }
    db
}

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.insert_database("test", Arc::new(test_db()), &ExecConfig::sequential())
        .unwrap();
    c
}

fn start(config: ServerConfig) -> exq_serve::Handle {
    exq_serve::start(catalog(), config, exq_obs::MetricsSink::recording()).unwrap()
}

const EXPLAIN_BODY: &str = r#"{
  "dataset": "test",
  "question": "agg y = count(*) where ok = 'y'\nagg n = count(*) where ok = 'n'\nexpr y / n\ndir high\nsmoothing 0.0001",
  "attrs": ["A.g"],
  "top": 3
}"#;

#[test]
fn health_datasets_metrics_and_errors() {
    let handle = start(ServerConfig::default());
    let addr = handle.addr();

    let health = client::get(addr, "/healthz").unwrap();
    assert_eq!(health.status, 200);
    assert!(health.text().contains("\"status\": \"ok\""));

    let datasets = client::get(addr, "/v1/datasets").unwrap();
    assert_eq!(datasets.status, 200);
    assert!(
        datasets.text().contains("\"name\": \"test\""),
        "{}",
        datasets.text()
    );
    assert!(
        datasets.text().contains("\"tuples\": 9"),
        "{}",
        datasets.text()
    );

    // Every catalogued server counter appears in /v1/metrics even on an
    // idle server (pre-registered at 0).
    let metrics = client::get(addr, "/v1/metrics").unwrap();
    for counter in SERVER_COUNTERS {
        assert!(
            metrics.text().contains(&format!("\"{counter}\"")),
            "missing {counter} in {}",
            metrics.text()
        );
    }

    assert_eq!(client::get(addr, "/nope").unwrap().status, 404);
    assert_eq!(client::get(addr, "/v1/explain").unwrap().status, 405);
    assert_eq!(
        client::post_json(addr, "/v1/explain", "{not json")
            .unwrap()
            .status,
        400
    );
    assert_eq!(
        client::post_json(addr, "/v1/explain", "{}").unwrap().status,
        422
    );
    assert_eq!(
        client::post_json(
            addr,
            "/v1/explain",
            r#"{"dataset": "absent", "question": "x", "attrs": []}"#
        )
        .unwrap()
        .status,
        404
    );
    let bad_question = client::post_json(
        addr,
        "/v1/explain",
        r#"{"dataset": "test", "question": "agg a = frobnicate(*)", "attrs": ["A.g"]}"#,
    )
    .unwrap();
    assert_eq!(bad_question.status, 422);
    assert!(bad_question.text().contains("\"error\""));

    let snapshot = handle.shutdown();
    assert_eq!(snapshot.counter("server.requests"), 9);
    assert_eq!(snapshot.counter("server.responses.ok"), 3);
    assert_eq!(snapshot.counter("server.responses.client_error"), 6);
    assert_eq!(snapshot.counter("server.responses.server_error"), 0);
}

#[test]
fn keep_alive_hits_have_no_nagle_stall() {
    // A request written as head then body on a Nagle socket waits for
    // the server's delayed ACK (≥ 40 ms) on every keep-alive request
    // after the first: 20 requests took ≈ 880 ms that way.
    let handle = start(ServerConfig::default());
    let mut conn = client::Connection::new(handle.addr());
    #[expect(clippy::disallowed_methods, reason = "measures the wire stall")]
    let started = Instant::now();
    for _ in 0..20 {
        let response = conn.post_json("/v1/explain", EXPLAIN_BODY).unwrap();
        assert_eq!(response.status, 200);
    }
    let took = started.elapsed();
    assert_eq!(conn.connects(), 1);
    assert!(
        took < Duration::from_millis(400),
        "20 explains took {took:?}"
    );
    let snapshot = handle.shutdown();
    assert_eq!(snapshot.counter("server.cache.hits"), 19);
}

#[test]
fn report_endpoint_returns_rankings_and_drill() {
    let handle = start(ServerConfig::default());
    let report = client::post_json(handle.addr(), "/v1/report", EXPLAIN_BODY).unwrap();
    assert_eq!(report.status, 200);
    let text = report.text();
    for key in [
        "\"rankings\": {",
        "\"intervention\": [",
        "\"aggravation\": [",
        "\"tau\":",
        "\"drill\": {",
        "\"mu_hybrid\":",
    ] {
        assert!(text.contains(key), "missing {key} in {text}");
    }
    let snapshot = handle.shutdown();
    assert_eq!(snapshot.counter("server.report.runs"), 1);
}

/// ISSUE 5 surface: every response carries a trace id, `GET /metrics`
/// is valid Prometheus text exposition with per-endpoint latency
/// histograms, and the flight recorder remembers recent requests by
/// trace id and cache outcome.
#[test]
fn tracing_metrics_and_flight_recorder() {
    let handle = start(ServerConfig::default());
    let addr = handle.addr();

    let cold = client::post_json(addr, "/v1/explain", EXPLAIN_BODY).unwrap();
    assert_eq!(cold.status, 200);
    let first: u64 = cold.header("x-exq-trace-id").unwrap().parse().unwrap();
    let warm = client::post_json(addr, "/v1/explain", EXPLAIN_BODY).unwrap();
    let second: u64 = warm.header("x-exq-trace-id").unwrap().parse().unwrap();
    // Sequential requests get consecutive trace ids.
    assert_eq!(second, first + 1);

    // The scrape target validates against the in-repo checker and
    // carries the endpoint latency histograms split by cache outcome.
    let prom = client::get(addr, "/metrics").unwrap();
    assert_eq!(prom.status, 200);
    assert!(
        prom.header("content-type").unwrap().contains("text/plain"),
        "{:?}",
        prom.header("content-type")
    );
    let text = prom.text();
    exq_obs::check_prometheus(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
    for family in [
        "exq_server_latency_explain_miss_bucket",
        "exq_server_latency_explain_hit_bucket",
        "exq_span_calls_total{span=\"server.request\"}",
    ] {
        assert!(text.contains(family), "missing {family} in {text}");
    }
    assert!(text.contains("le=\"+Inf\""), "{text}");

    // Same exposition through the JSON endpoint's format switch.
    let prom2 = client::get(addr, "/v1/metrics?format=prometheus").unwrap();
    assert_eq!(prom2.status, 200);
    exq_obs::check_prometheus(&prom2.text()).unwrap();

    // The flight recorder remembers both explain requests, matching
    // the trace ids the client saw, with their cache outcomes.
    let flight = client::get(addr, "/v1/debug/requests").unwrap();
    assert_eq!(flight.status, 200);
    let doc = exq_serve::json::parse(flight.text().as_bytes()).unwrap();
    let requests = doc.get("requests").and_then(|v| v.as_array()).unwrap();
    let find = |trace: u64| {
        requests
            .iter()
            .find(|r| r.get("trace_id").and_then(|v| v.as_usize()) == Some(trace as usize))
            .unwrap_or_else(|| panic!("trace {trace} not in flight recorder"))
    };
    assert_eq!(
        find(first).get("cache").and_then(|v| v.as_str()),
        Some("miss")
    );
    assert_eq!(
        find(second).get("cache").and_then(|v| v.as_str()),
        Some("hit")
    );
    assert_eq!(
        find(first).get("path").and_then(|v| v.as_str()),
        Some("/v1/explain")
    );

    let snapshot = handle.shutdown();
    for (hist, expected) in [
        ("server.latency.explain.miss", 1),
        ("server.latency.explain.hit", 1),
    ] {
        assert_eq!(
            snapshot.histograms.get(hist).map(|h| h.count),
            Some(expected),
            "histogram {hist}"
        );
    }
    // The GETs above land in the pooled bucket.
    assert!(snapshot.histograms["server.latency.other"].count >= 3);
    // Request-phase spans fired on the server-global sink.
    for span in [
        "server.request",
        "server.request.parse",
        "server.request.explain",
    ] {
        assert!(snapshot.spans.contains_key(span), "missing span {span}");
    }
}

/// ISSUE 8 surface: malformed append bodies get the right 4xx without
/// touching the dataset, and the epoch never moves on a failure.
#[test]
fn append_error_paths_leave_the_epoch_alone() {
    let handle = start(ServerConfig::default());
    let addr = handle.addr();
    let path = "/v1/datasets/test/rows";

    // Method and path shape.
    assert_eq!(client::get(addr, path).unwrap().status, 405);
    assert_eq!(
        client::post_json(
            addr,
            "/v1/datasets/absent/rows",
            r#"{"rows":{"A":[[9,"q"]]}}"#
        )
        .unwrap()
        .status,
        404
    );

    // Body shape: bad JSON → 400, everything semantic → 422.
    assert_eq!(
        client::post_json(addr, path, "{not json").unwrap().status,
        400
    );
    for (body, why) in [
        (r#"{}"#, "missing rows"),
        (r#"{"rows": []}"#, "rows not an object"),
        (r#"{"rows": {}}"#, "empty batch"),
        (r#"{"rows": {"Nope": [[1]]}}"#, "unknown relation"),
        (r#"{"rows": {"A": [[9]]}}"#, "arity mismatch"),
        (r#"{"rows": {"A": [[9, 7]]}}"#, "type mismatch"),
        (r#"{"rows": {"A": [[1, "dup"]]}}"#, "duplicate primary key"),
        (
            r#"{"rows": {"B": [[99, 42, "y"]]}}"#,
            "dangling foreign key",
        ),
    ] {
        let response = client::post_json(addr, path, body).unwrap();
        assert_eq!(response.status, 422, "{why}: {}", response.text());
    }

    // Nothing above changed the data or the epoch.
    let datasets = client::get(addr, "/v1/datasets").unwrap();
    assert!(
        datasets.text().contains("\"tuples\": 9"),
        "{}",
        datasets.text()
    );
    assert!(
        datasets.text().contains("\"epoch\": 0"),
        "{}",
        datasets.text()
    );

    let snapshot = handle.shutdown();
    assert_eq!(snapshot.counter("ingest.rows_appended"), 0);
    assert_eq!(snapshot.counter("ingest.epoch_bumps"), 0);
}

/// A body over the HTTP limit answers 413 before any parsing happens.
#[test]
fn oversized_append_batch_is_rejected_with_413() {
    let handle = start(ServerConfig {
        limits: exq_serve::http::Limits {
            max_body: 256,
            ..exq_serve::http::Limits::default()
        },
        ..ServerConfig::default()
    });
    let rows: Vec<String> = (0..50).map(|i| format!("[{},\"g\"]", 100 + i)).collect();
    let big = format!(r#"{{"rows":{{"A":[{}]}}}}"#, rows.join(","));
    assert!(big.len() > 256);
    let response = client::post_json(handle.addr(), "/v1/datasets/test/rows", &big).unwrap();
    assert_eq!(response.status, 413);
    handle.shutdown();
}

#[test]
fn zero_queue_depth_sheds_load_with_503_and_retry_after() {
    let handle = start(ServerConfig {
        queue_depth: 0,
        ..ServerConfig::default()
    });
    // The busy rejection is the server's only 503 source (shutdown drains
    // the queue instead of shedding it), so hammering a zero-depth queue
    // covers every 503 the server can emit. Each one must carry a
    // `Retry-After` in RFC 9110 delay-seconds form: a non-empty unsigned
    // ASCII-digit integer — no sign, no unit suffix, no HTTP-date.
    for path in ["/healthz", "/v1/datasets", "/metrics"] {
        let response = client::get(handle.addr(), path).unwrap();
        assert_eq!(response.status, 503, "{path}");
        let retry = response
            .header("retry-after")
            .unwrap_or_else(|| panic!("503 for {path} lacks Retry-After"));
        assert!(
            !retry.is_empty() && retry.bytes().all(|b| b.is_ascii_digit()),
            "Retry-After {retry:?} is not RFC 9110 delay-seconds"
        );
        let delay: u64 = retry.parse().expect("delay-seconds parses as u64");
        assert!(delay >= 1, "a zero delay would invite an immediate retry");
    }
    let snapshot = handle.shutdown();
    assert_eq!(snapshot.counter("server.rejected_busy"), 3);
    assert_eq!(snapshot.counter("server.requests"), 0);
}

#[test]
fn oversized_body_is_rejected_with_413() {
    let handle = start(ServerConfig {
        limits: exq_serve::http::Limits {
            max_body: 64,
            ..exq_serve::http::Limits::default()
        },
        ..ServerConfig::default()
    });
    let big = format!(
        r#"{{"dataset": "test", "question": "{}", "attrs": []}}"#,
        "x".repeat(200)
    );
    let response = client::post_json(handle.addr(), "/v1/explain", &big).unwrap();
    assert_eq!(response.status, 413);
    handle.shutdown();
}

#[test]
fn slow_request_times_out_with_408() {
    let handle = start(ServerConfig {
        request_timeout: Duration::from_millis(300),
        ..ServerConfig::default()
    });
    // Open a connection, send half a request, then stall.
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(handle.addr()).unwrap();
    stream
        .write_all(b"POST /v1/explain HTTP/1.1\r\ncontent-length: 100\r\n\r\nhalf")
        .unwrap();
    let mut response = String::new();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 408 "), "{response}");
    handle.shutdown();
}

/// ISSUE 10 surface: per-request cost accounting (header, body block,
/// per-tenant counters), the mergeable snapshot wire format, and
/// tail-sampled trace retention with exemplars.
#[test]
fn cost_accounting_snapshot_wire_and_trace_retention() {
    let dir = std::env::temp_dir().join(format!("exq-obsplane-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let traces_path = dir.join("traces.jsonl");
    let access_path = dir.join("access.log");
    let handle = start(ServerConfig {
        shard_id: Some(7),
        trace_slow_ms: Some(0), // retain every request deterministically
        trace_retain: Some(traces_path.clone()),
        access_log: exq_serve::AccessLog::open(&access_path, true).unwrap(),
        ..ServerConfig::default()
    });
    let mut conn = client::Connection::new(handle.addr());
    let tenant_headers = [("x-exq-tenant", "Acme-Corp")];

    // Cold explain: the cost header describes the work actually done,
    // and the body carries the same facts as a `cost` block.
    let cold = conn
        .request_with(
            "POST",
            "/v1/explain",
            Some(EXPLAIN_BODY.as_bytes()),
            &tenant_headers,
        )
        .unwrap();
    assert_eq!(cold.status, 200);
    let cold_trace: u64 = cold.header("x-exq-trace-id").unwrap().parse().unwrap();
    let cost_header = cold.header("x-exq-cost").unwrap().to_string();
    assert!(
        cost_header.contains("cache=miss") && cost_header.contains("epoch=0"),
        "{cost_header}"
    );
    let doc = exq_serve::json::parse(cold.text().as_bytes()).unwrap();
    let cost = doc.get("cost").expect("response body carries a cost block");
    assert_eq!(cost.get("cache").and_then(|v| v.as_str()), Some("miss"));
    assert_eq!(cost.get("epoch").and_then(|v| v.as_usize()), Some(0));
    let candidates = cost.get("candidates").and_then(|v| v.as_usize()).unwrap();
    let cube_cells = cost.get("cube_cells").and_then(|v| v.as_usize()).unwrap();
    assert!(candidates > 0, "explain evaluated no candidates?");
    assert!(cube_cells > 0, "explain materialized no cube cells?");
    assert!(cost_header.contains(&format!("candidates={candidates}")));

    // Warm repeat: byte-identical body (the cost block is baked into
    // the cached bytes), while the header reports the hit's own cost.
    let warm = conn
        .request_with(
            "POST",
            "/v1/explain",
            Some(EXPLAIN_BODY.as_bytes()),
            &tenant_headers,
        )
        .unwrap();
    assert_eq!(warm.status, 200);
    assert_eq!(cold.body, warm.body, "hit must replay the cold bytes");
    assert_eq!(
        warm.header("x-exq-cost"),
        Some("rows=0;candidates=0;cells=0;cache=hit;epoch=0")
    );

    // The mergeable wire encoding round-trips through the decoder and
    // carries the exemplar of the retained cold request.
    let wire = conn.get("/v1/metrics?format=snapshot").unwrap();
    assert_eq!(wire.status, 200);
    let wire_text = wire.text();
    assert!(wire_text.starts_with(exq_obs::WIRE_MAGIC), "{wire_text}");
    let (snapshot, exemplars) = exq_obs::decode_snapshot(&wire_text).unwrap();
    assert!(snapshot.counter("server.requests") >= 2);
    let explain_exemplar = exemplars
        .iter()
        .find(|e| e.hist == "server.latency.explain.miss")
        .expect("retained cold request must be the explain.miss exemplar");
    assert_eq!(explain_exemplar.trace_id, cold_trace);

    // The Prometheus exposition stays checker-clean with the exemplar
    // comments appended, shard-labelled.
    let prom = conn.get("/metrics").unwrap();
    let prom_text = prom.text();
    exq_obs::check_prometheus(&prom_text).unwrap_or_else(|e| panic!("{e}\n{prom_text}"));
    assert!(
        prom_text.contains(&format!(
            "# exemplar exq_server_latency_explain_miss_bucket{{le=\"{}\",shard=\"7\"}} trace_id={cold_trace}",
            explain_exemplar.bucket_upper
        )),
        "{prom_text}"
    );

    // Retained traces are fetchable by the exemplar's trace id.
    let traces = conn.get("/v1/debug/traces").unwrap();
    assert_eq!(traces.status, 200);
    let traces_doc = exq_serve::json::parse(traces.text().as_bytes()).unwrap();
    let entries = traces_doc.get("traces").and_then(|v| v.as_array()).unwrap();
    let retained = entries
        .iter()
        .find(|t| t.get("trace_id").and_then(|v| v.as_usize()) == Some(cold_trace as usize))
        .expect("cold request retained");
    assert_eq!(
        retained.get("reason").and_then(|v| v.as_str()),
        Some("slow")
    );

    let snapshot = handle.shutdown();
    // Tenant accounting: both requests billed to the sanitized tenant;
    // the hit added zero work on top of the miss's engine counters.
    assert_eq!(snapshot.counter("server.tenant.cost.acme_corp.requests"), 2);
    assert_eq!(
        snapshot.counter("server.tenant.cost.acme_corp.candidates"),
        candidates as u64
    );
    assert_eq!(
        snapshot.counter("server.tenant.cost.acme_corp.cells"),
        cube_cells as u64
    );
    assert!(snapshot.counter("server.trace.retained") >= 2);
    // Retention persisted JSONL, and the deterministic access log tagged
    // every line with tenant and shard.
    let persisted = std::fs::read_to_string(&traces_path).unwrap();
    assert!(
        persisted
            .lines()
            .any(|l| l.contains(&format!("\"trace_id\": {cold_trace}"))),
        "{persisted}"
    );
    let access = std::fs::read_to_string(&access_path).unwrap();
    let explain_lines: Vec<&str> = access
        .lines()
        .filter(|l| l.contains("\"endpoint\": \"explain\""))
        .collect();
    assert_eq!(explain_lines.len(), 2, "{access}");
    assert!(explain_lines[0].contains("\"tenant\": \"Acme-Corp\""));
    assert!(explain_lines[0].contains("\"shard\": 7"));
    assert!(explain_lines[0].contains("\"ts_bucket\": 0"));
    assert!(explain_lines[1].contains("\"cache\": \"hit\""));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A malformed or ill-typed question is the client's fault: 422, and
/// the worker that parsed it keeps serving.
#[test]
fn malformed_questions_get_422_and_leave_the_worker_alive() {
    // One worker: if a request killed it, nothing would answer after.
    let handle = start(ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    });
    let addr = handle.addr();
    for question in [
        // A non-ASCII byte where `where` is expected.
        r"agg a = count(*) wherë = 1\ndir high",
        // Ill-typed: `A.g` is a string, `sum` needs a number.
        r"agg a = count(*) where g = 1\ndir high",
        r"agg a = sum(g)\ndir high",
    ] {
        let body = format!(r#"{{"dataset": "test", "question": "{question}", "attrs": ["A.g"]}}"#);
        let response = client::post_json(addr, "/v1/explain", &body).unwrap();
        assert_eq!(response.status, 422, "{question}: {}", response.text());
    }
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(client::get(addr, "/healthz").map(|r| r.status));
    });
    let health = rx
        .recv_timeout(Duration::from_secs(1))
        .expect("/healthz answers within 1 s");
    assert_eq!(health.unwrap(), 200);
    let snapshot = handle.shutdown();
    assert_eq!(snapshot.counter("server.responses.server_error"), 0);
    assert_eq!(snapshot.counter("server.responses.client_error"), 3);
}

/// Shutdown drains: requests accepted before the signal complete.
#[test]
fn shutdown_completes_queued_work() {
    let handle = start(ServerConfig {
        threads: 2,
        ..ServerConfig::default()
    });
    let addr = handle.addr();
    let workers: Vec<_> = (0..4)
        .map(|_| std::thread::spawn(move || client::post_json(addr, "/v1/explain", EXPLAIN_BODY)))
        .collect();
    // Give the clients a moment to be accepted, then shut down while
    // some are likely still in flight.
    std::thread::sleep(Duration::from_millis(50));
    let snapshot = handle.shutdown();
    let mut ok = 0;
    for w in workers {
        if let Ok(Ok(response)) = w.join() {
            assert_eq!(response.status, 200);
            ok += 1;
        }
    }
    // Everything the server accepted it answered; the final snapshot
    // saw every completed response.
    assert_eq!(snapshot.counter("server.responses.ok"), ok);
}
