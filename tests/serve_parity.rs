//! Server ↔ CLI parity on the DBLP workload (ISSUE 4 acceptance): N
//! parallel HTTP clients must get responses whose semantic content is
//! byte-identical to the single-shot CLI's `--format json` document, at
//! 1, 2, and 7 server worker threads.
//!
//! The two surfaces share one serializer (`exq_core::jsonout`), so the
//! document *up to the `"notes"` field* is comparable byte-for-byte:
//! after it, the CLI carries CSV-load provenance notes and join
//! counters from its cold build that the server's request-scoped
//! metrics (running over pre-built intermediates) legitimately lack.
//! Across clients the *full* bodies must agree after zeroing span
//! wall-times — and on cache hits they agree without normalization.
//! The same normalization makes a sharded `exq-router` front over real
//! workers comparable with one single-process server.

use exq::datagen::dblp;
use exq::relstore::csv::dump_relation;
use exq::relstore::ExecConfig;
use exq::serve::{client, Catalog, ServerConfig};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("exq-serve-parity-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn asset(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("assets")
        .join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Write the generated DBLP dataset as a `Catalog::load_dir` directory:
/// `schema.exq` + one `<Relation>.csv` per relation.
fn write_dataset(dir: &Path) {
    let db = dblp::generate(&dblp::DblpConfig {
        papers_per_year_base: 6,
        authors_per_institution: 4,
        ..dblp::DblpConfig::default()
    });
    fs::write(dir.join("schema.exq"), asset("schemas/dblp.exq")).unwrap();
    for rel in ["Author", "Authored", "Publication"] {
        let f = fs::File::create(dir.join(format!("{rel}.csv"))).unwrap();
        dump_relation(&db, rel, std::io::BufWriter::new(f)).unwrap();
    }
    fs::write(dir.join("question.exq"), asset("questions/bump.exq")).unwrap();
}

fn cli_explain_json(dir: &Path) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_exq"))
        .args([
            "explain",
            "--schema",
            dir.join("schema.exq").to_str().unwrap(),
            "--table",
            &format!("Author={}", dir.join("Author.csv").display()),
            "--table",
            &format!("Authored={}", dir.join("Authored.csv").display()),
            "--table",
            &format!("Publication={}", dir.join("Publication.csv").display()),
            "--question",
            dir.join("question.exq").to_str().unwrap(),
            "--attrs",
            "Author.inst",
            "--top",
            "5",
            "--threads",
            "1",
            "--format",
            "json",
        ])
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "CLI failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(output.stderr.is_empty(), "json mode must keep stderr empty");
    String::from_utf8(output.stdout).unwrap()
}

/// The document up to its `"notes"` field: q_d, engine, candidate
/// count, and the full ranked top-K.
fn semantic_prefix(doc: &str) -> &str {
    let idx = doc
        .find("\"notes\"")
        .unwrap_or_else(|| panic!("no notes field in {doc}"));
    &doc[..idx]
}

/// Zero the digits after every `"total_ns": ` (same normalization as
/// the CLI golden-fixture tests).
fn normalize(text: &str) -> String {
    let mut out = String::new();
    for line in text.lines() {
        match line.find("\"total_ns\": ") {
            Some(idx) => {
                let head = &line[..idx + "\"total_ns\": ".len()];
                let tail: String = line[idx + "\"total_ns\": ".len()..]
                    .chars()
                    .skip_while(char::is_ascii_digit)
                    .collect();
                out.push_str(head);
                out.push('0');
                out.push_str(&tail);
            }
            None => out.push_str(line),
        }
        out.push('\n');
    }
    out
}

fn request_body(dir: &Path) -> String {
    let question = fs::read_to_string(dir.join("question.exq")).unwrap();
    format!(
        "{{\"dataset\": \"dblp\", \"question\": \"{}\", \"attrs\": [\"Author.inst\"], \"top\": 5}}",
        exq::obs::escape_json(&question)
    )
}

#[test]
fn parallel_clients_match_single_shot_cli_at_1_2_and_7_threads() {
    let dir = workdir("dblp");
    write_dataset(&dir);
    let cli_doc = cli_explain_json(&dir);
    let cli_prefix = semantic_prefix(&cli_doc).to_string();
    assert!(
        cli_prefix.contains("\"engine\": \"Cube\""),
        "unexpected CLI doc: {cli_prefix}"
    );
    let body = request_body(&dir);

    for threads in [1usize, 2, 7] {
        let mut catalog = Catalog::new();
        catalog
            .load_dir("dblp", &dir, &ExecConfig::sequential())
            .unwrap();
        let handle = exq::serve::start(
            catalog,
            ServerConfig {
                threads,
                ..ServerConfig::default()
            },
            exq::obs::MetricsSink::recording(),
        )
        .unwrap();
        let addr = handle.addr();

        let bodies: Vec<String> = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..6)
                .map(|_| {
                    let body = body.as_str();
                    scope.spawn(move || {
                        let response = client::post_json(addr, "/v1/explain", body).unwrap();
                        assert_eq!(response.status, 200, "{}", response.text());
                        response.text()
                    })
                })
                .collect();
            clients.into_iter().map(|c| c.join().unwrap()).collect()
        });

        for response in &bodies {
            // Semantic parity with the CLI, byte for byte.
            assert_eq!(
                semantic_prefix(response),
                cli_prefix,
                "server response diverged from CLI at {threads} threads"
            );
        }
        // Full-document agreement across parallel clients (normalized:
        // racing cache misses may differ only in span wall-times).
        let first = normalize(&bodies[0]);
        for response in &bodies[1..] {
            assert_eq!(
                normalize(response),
                first,
                "parallel clients diverged at {threads} threads"
            );
        }

        // A follow-up request is a cache hit: identical without
        // normalization, and the hit counter proves it was served from
        // the cache.
        let warm = client::post_json(addr, "/v1/explain", &body).unwrap();
        assert_eq!(warm.status, 200);
        assert_eq!(semantic_prefix(&warm.text()), cli_prefix);
        let snapshot = handle.shutdown();
        assert!(
            snapshot.counter("server.cache.hits") >= 1,
            "expected at least one cache hit"
        );
        assert_eq!(
            snapshot.counter("server.responses.ok"),
            7,
            "all requests must succeed"
        );
    }
}

/// ISSUE 5 acceptance: for a *sequential* request mix (so cache
/// hit/miss outcomes are deterministic), the server's final metrics
/// snapshot — counters, span counts, and histogram bucket counts —
/// normalizes to a bit-identical JSON document at 1, 2, and 7 worker
/// threads. Wall-clock (span totals, latency histogram sums/buckets)
/// is collapsed by `Snapshot::normalized()`; everything else must not
/// depend on the thread count.
#[test]
fn sequential_snapshots_normalize_identically_at_1_2_and_7_threads() {
    let dir = workdir("dblp-snapshot");
    write_dataset(&dir);
    let body = request_body(&dir);

    let mut reference: Option<String> = None;
    for threads in [1usize, 2, 7] {
        let mut catalog = Catalog::new();
        catalog
            .load_dir("dblp", &dir, &ExecConfig::sequential())
            .unwrap();
        let handle = exq::serve::start(
            catalog,
            ServerConfig {
                threads,
                ..ServerConfig::default()
            },
            exq::obs::MetricsSink::recording(),
        )
        .unwrap();
        let addr = handle.addr();

        // Deterministic mix: explain miss + hit, report miss + hit,
        // and a sweep of the GET endpoints.
        for _ in 0..2 {
            let response = client::post_json(addr, "/v1/explain", &body).unwrap();
            assert_eq!(response.status, 200, "{}", response.text());
        }
        for _ in 0..2 {
            let response = client::post_json(addr, "/v1/report", &body).unwrap();
            assert_eq!(response.status, 200, "{}", response.text());
        }
        for path in ["/healthz", "/v1/datasets", "/metrics", "/v1/debug/requests"] {
            assert_eq!(client::get(addr, path).unwrap().status, 200);
        }
        assert_eq!(client::get(addr, "/nope").unwrap().status, 404);

        let doc = handle.shutdown().normalized().to_json();
        match &reference {
            None => reference = Some(doc),
            Some(expected) => assert_eq!(
                &doc, expected,
                "normalized snapshot changed at {threads} threads"
            ),
        }
    }
}

/// `report --format json` through the CLI matches `/v1/report` through
/// the server the same way.
#[test]
fn report_parity_cli_vs_server() {
    let dir = workdir("dblp-report");
    write_dataset(&dir);
    let output = Command::new(env!("CARGO_BIN_EXE_exq"))
        .args([
            "report",
            "--schema",
            dir.join("schema.exq").to_str().unwrap(),
            "--table",
            &format!("Author={}", dir.join("Author.csv").display()),
            "--table",
            &format!("Authored={}", dir.join("Authored.csv").display()),
            "--table",
            &format!("Publication={}", dir.join("Publication.csv").display()),
            "--question",
            dir.join("question.exq").to_str().unwrap(),
            "--attrs",
            "Author.inst",
            "--top",
            "5",
            "--threads",
            "1",
            "--format",
            "json",
        ])
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "CLI failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(output.stderr.is_empty());
    let cli_doc = String::from_utf8(output.stdout).unwrap();

    let mut catalog = Catalog::new();
    catalog
        .load_dir("dblp", &dir, &ExecConfig::sequential())
        .unwrap();
    let handle = exq::serve::start(
        catalog,
        ServerConfig::default(),
        exq::obs::MetricsSink::recording(),
    )
    .unwrap();
    let response = client::post_json(handle.addr(), "/v1/report", &request_body(&dir)).unwrap();
    assert_eq!(response.status, 200, "{}", response.text());
    assert_eq!(semantic_prefix(&response.text()), semantic_prefix(&cli_doc));
    handle.shutdown();
}

/// A 2-worker in-process front over real `exq_serve` workers, each
/// owning one DBLP dataset: routed explains are byte-identical to one
/// single-process server holding both datasets; a killed worker costs
/// its dataset bounded `503` + `Retry-After` answers while the other
/// shard keeps answering `200`; a published replacement serves the
/// pre-kill bytes; and a retained trace named by the fleet exposition's
/// exemplar is retrievable through the front.
#[test]
fn front_over_two_workers_matches_one_server_and_survives_a_kill() {
    use exq::router::{Front, FrontConfig, ShardMap};
    use std::sync::Arc;

    let db = Arc::new(dblp::generate(&dblp::DblpConfig {
        papers_per_year_base: 6,
        authors_per_institution: 4,
        ..dblp::DblpConfig::default()
    }));
    // names[s] is the one dataset the hash ring assigns to shard s.
    let map = ShardMap::new(2);
    let mut owned: [Option<String>; 2] = [None, None];
    for i in 0.. {
        if owned.iter().all(Option::is_some) {
            break;
        }
        let name = format!("dblp-{i}");
        owned[map.shard_of(&name)].get_or_insert(name);
    }
    let names = owned.map(Option::unwrap);
    let catalog_of = |names: &[String]| {
        let mut catalog = Catalog::new();
        for name in names {
            catalog
                .insert_database(name, Arc::clone(&db), &ExecConfig::sequential())
                .unwrap();
        }
        catalog
    };
    let start_worker = |shard: usize| {
        exq::serve::start(
            catalog_of(std::slice::from_ref(&names[shard])),
            ServerConfig {
                threads: 1,
                shard_id: Some(shard as u64),
                // Retain every trace, so the fleet exposition carries
                // exemplars.
                trace_slow_ms: Some(0),
                ..ServerConfig::default()
            },
            exq::obs::MetricsSink::recording(),
        )
        .unwrap()
    };
    let front = Front::start_on(
        "127.0.0.1:0",
        FrontConfig {
            workers: 2,
            per_worker_connections: 1,
            datasets: names.to_vec(),
            ..FrontConfig::default()
        },
        exq::obs::MetricsSink::recording(),
    )
    .unwrap();
    let mut workers: Vec<Option<exq::serve::Handle>> = (0..2)
        .map(|shard| {
            let worker = start_worker(shard);
            front.upstreams().set_addr(shard, Some(worker.addr()));
            Some(worker)
        })
        .collect();
    let question = asset("questions/bump.exq");
    let body_for = |name: &str| {
        format!(
            "{{\"dataset\": \"{name}\", \"question\": \"{}\", \"attrs\": [\"Author.inst\"], \"top\": 3}}",
            exq::obs::escape_json(&question)
        )
    };
    let explain =
        |name: &str| client::post_json(front.addr(), "/v1/explain", &body_for(name)).unwrap();

    let reference = exq::serve::start(
        catalog_of(&names),
        ServerConfig {
            threads: 1,
            ..ServerConfig::default()
        },
        exq::obs::MetricsSink::recording(),
    )
    .unwrap();
    let mut routed = Vec::new();
    for name in &names {
        let through = explain(name);
        assert_eq!(through.status, 200, "{}", through.text());
        let direct = client::post_json(reference.addr(), "/v1/explain", &body_for(name)).unwrap();
        assert_eq!(direct.status, 200, "{}", direct.text());
        assert_eq!(
            normalize(&through.text()),
            normalize(&direct.text()),
            "{name}: routed explain must be byte-identical to a single-process server"
        );
        routed.push(normalize(&through.text()));
    }
    reference.shutdown();

    // Kill shard 0: its dataset degrades to bounded 503s, never a wrong
    // answer or a hang, while shard 1 keeps serving.
    workers[0].take().unwrap().shutdown();
    front.upstreams().set_addr(0, None);
    for _ in 0..3 {
        let down = explain(&names[0]);
        assert_eq!(down.status, 503, "{}", down.text());
        assert!(down.header("retry-after").is_some());
        let alive = explain(&names[1]);
        assert_eq!(alive.status, 200, "{}", alive.text());
    }

    // A published replacement answers with the pre-kill bytes.
    let replacement = start_worker(0);
    front.upstreams().set_addr(0, Some(replacement.addr()));
    workers[0] = Some(replacement);
    let back = explain(&names[0]);
    assert_eq!(back.status, 200, "{}", back.text());
    assert_eq!(
        normalize(&back.text()),
        routed[0],
        "post-recovery explain must match the pre-kill bytes"
    );

    // The fleet exposition is checker-clean, and the trace its exemplar
    // names is retrievable through the front's merged trace fan-in.
    let prom = client::get(front.addr(), "/metrics").unwrap().text();
    exq::obs::check_prometheus(&prom).unwrap_or_else(|e| panic!("{e}\n{prom}"));
    let exemplar: u64 = prom
        .lines()
        .find_map(|line| {
            line.strip_prefix("# exemplar ")?
                .rsplit_once("trace_id=")?
                .1
                .parse()
                .ok()
        })
        .expect("fleet exposition must carry an exemplar");
    let traces = client::get(front.addr(), "/v1/debug/traces").unwrap();
    assert_eq!(traces.status, 200);
    assert!(
        traces.text().contains(&format!("\"trace_id\": {exemplar}")),
        "exemplar trace {exemplar} must be retrievable through the front"
    );

    front.shutdown();
    for worker in workers.into_iter().flatten() {
        worker.shutdown();
    }
}
