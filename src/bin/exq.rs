//! `exq` — command-line explanation engine.
//!
//! ```text
//! exq check    SCHEMA [QUESTION…] [--format pretty|json]
//! exq schema   --schema FILE
//! exq validate --schema FILE --table Rel=FILE…
//! exq explain  --schema FILE --table Rel=FILE… --question FILE
//!              --attrs Rel.a,Rel.b[,…] [--top K] [--by interv|aggr]
//!              [--strategy nominimal|selfjoin|append]
//!              [--polarity general|specific] [--min-support N] [--naive]
//! exq drill    --schema FILE --table Rel=FILE… --question FILE
//!              --phi "Rel.a = 'v' and Rel.b = 'w'"
//! ```
//!
//! Schemas use the `exq_relstore::parse` DSL, data is CSV (header row),
//! questions use the `exq_core::qparse` format, and `--phi` takes a
//! conjunction in the predicate language. `exq check` runs the
//! `exq_analyze` static analyzer and reports every problem in one pass;
//! the same analyzer guards the `explain`/`report`/`drill` load path so
//! bad inputs fail fast with full diagnostics instead of the engine's
//! first-error-only parse failure.

use exq::analyze::{self, SourceFile};
use exq::core::explainer::Explainer;
use exq::core::explanation::Explanation;
use exq::core::prelude::*;
use exq::core::{jsonout, qparse};
use exq::obs::MetricsSink;
use exq::relstore::{csv, parse, Database, ExecConfig};
use std::collections::BTreeMap;
use std::fs;
use std::process::ExitCode;

struct Args {
    command: String,
    options: BTreeMap<String, Vec<String>>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let command = argv.first().cloned().ok_or("missing command")?;
    let mut options: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut i = 1;
    while i < argv.len() {
        let flag = argv[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got `{}`", argv[i]))?
            .to_string();
        if flag == "naive" || flag == "trace" {
            options.entry(flag).or_default().push("true".to_string());
            i += 1;
            continue;
        }
        let value = argv
            .get(i + 1)
            .cloned()
            .ok_or_else(|| format!("missing value for --{flag}"))?;
        options.entry(flag).or_default().push(value);
        i += 2;
    }
    Ok(Args { command, options })
}

impl Args {
    fn one(&self, flag: &str) -> Result<&str, String> {
        match self.options.get(flag).map(Vec::as_slice) {
            Some([v]) => Ok(v),
            Some(_) => Err(format!("--{flag} given more than once")),
            None => Err(format!("missing --{flag}")),
        }
    }

    fn optional(&self, flag: &str) -> Option<&str> {
        self.options
            .get(flag)
            .and_then(|v| v.first())
            .map(String::as_str)
    }

    fn many(&self, flag: &str) -> &[String] {
        self.options.get(flag).map_or(&[], Vec::as_slice)
    }

    /// `--threads N`, defaulting to all available cores.
    fn exec(&self) -> Result<ExecConfig, String> {
        match self.optional("threads") {
            None => Ok(ExecConfig::auto()),
            Some(s) => match s.parse::<usize>() {
                Ok(n) if n >= 1 => Ok(ExecConfig::with_threads(n)),
                _ => Err(format!("bad --threads `{s}` (need an integer >= 1)")),
            },
        }
    }
}

/// Per-invocation observability state: one shared [`MetricsSink`], the
/// `--metrics`/`--trace`/`--format` flags, and the status-note routing
/// (stderr in pretty mode, sink-only in json mode — json runs keep
/// stderr empty).
struct Obs {
    sink: MetricsSink,
    metrics_out: Option<String>,
    trace: bool,
    trace_out: Option<String>,
    json: bool,
}

/// Trace ring depth for `--trace-out`: one explain emits well under a
/// hundred spans, so 64k events never drops anything in practice.
const TRACE_RING_CAPACITY: usize = 65_536;

impl Obs {
    fn from_args(args: &Args) -> Result<Obs, String> {
        let json = match args.optional("format") {
            None | Some("pretty") => false,
            Some("json") => true,
            Some(other) => return Err(format!("--format takes pretty|json, got `{other}`")),
        };
        let metrics_out = args.optional("metrics").map(str::to_string);
        let trace = args.optional("trace").is_some();
        let trace_out = args.optional("trace-out").map(str::to_string);
        let sink = if metrics_out.is_some() || trace || trace_out.is_some() || json {
            MetricsSink::recording()
        } else {
            MetricsSink::disabled()
        };
        if trace_out.is_some() {
            sink.enable_tracing(TRACE_RING_CAPACITY);
            // One CLI invocation is one trace.
            sink.set_trace(1);
        }
        Ok(Obs {
            sink,
            metrics_out,
            trace,
            trace_out,
            json,
        })
    }

    /// Record a status note; echo to stderr unless in json mode.
    fn note(&self, text: String) {
        self.sink.note(&text);
        if !self.json {
            eprintln!("{text}");
        }
    }

    /// Emit `--trace` / `--metrics` output. In json mode the snapshot is
    /// embedded in the stdout document instead (see [`cmd_explain`]), so
    /// only a `--metrics PATH` file write happens here.
    fn finish(&self) -> Result<(), String> {
        if self.trace && !self.json {
            eprint!("{}", self.sink.snapshot().render_pretty());
        }
        if let Some(path) = &self.metrics_out {
            let json = self.sink.snapshot().to_json();
            if path == "-" {
                if !self.json {
                    println!("{json}");
                }
            } else {
                fs::write(path, json + "\n").map_err(|e| format!("{path}: {e}"))?;
                self.note(format!("wrote metrics to {path}"));
            }
        }
        if let Some(path) = &self.trace_out {
            let json = self
                .sink
                .trace_chrome_json()
                .ok_or("tracing was not armed (internal error)")?;
            fs::write(path, json + "\n").map_err(|e| format!("{path}: {e}"))?;
            self.note(format!(
                "wrote Chrome trace to {path} (load in Perfetto or chrome://tracing)"
            ));
        }
        Ok(())
    }
}

fn load_database(args: &Args, obs: &Obs) -> Result<Database, String> {
    let schema_file = args.one("schema")?;
    let schema_text = fs::read_to_string(schema_file).map_err(|e| format!("{schema_file}: {e}"))?;
    let schema = parse::parse_schema(&schema_text).map_err(|_| {
        let source = SourceFile::schema(schema_file, schema_text.as_str());
        let analysis = analyze::analyze_schema(&source);
        format!(
            "schema rejected by `exq check`:\n\n{}",
            analysis.render_pretty(&[&source])
        )
    })?;
    let mut db = Database::new(schema);
    for spec in args.many("table") {
        let (rel, file) = spec
            .split_once('=')
            .ok_or_else(|| format!("--table takes Rel=FILE, got `{spec}`"))?;
        let reader = fs::File::open(file)
            .map_err(|e| format!("{file}: {e}"))
            .map(std::io::BufReader::new)?;
        let n = csv::load_relation(&mut db, rel, reader).map_err(|e| e.to_string())?;
        obs.note(format!("loaded {n} rows into {rel}"));
    }
    db.validate().map_err(|e| e.to_string())?;
    Ok(db)
}

fn build_explainer<'a>(db: &'a Database, args: &Args, obs: &Obs) -> Result<Explainer<'a>, String> {
    let question_file = args.one("question")?;
    let question_text =
        fs::read_to_string(question_file).map_err(|e| format!("{question_file}: {e}"))?;
    let question = qparse::parse_question(db.schema(), &question_text).map_err(|_| {
        let source = SourceFile::question(question_file, question_text.as_str());
        let analysis = analyze::analyze_question_against(db.schema(), &source);
        format!(
            "question rejected by `exq check`:\n\n{}",
            analysis.render_pretty(&[&source])
        )
    })?;
    let mut explainer =
        Explainer::new(db, question).exec(args.exec()?.with_metrics(obs.sink.clone()));
    if let Some(attrs) = args.optional("attrs") {
        let names: Vec<&str> = attrs.split(',').map(str::trim).collect();
        explainer = explainer.attr_names(&names).map_err(|e| e.to_string())?;
    }
    if let Some(s) = args.optional("min-support") {
        explainer =
            explainer.min_support(s.parse().map_err(|_| format!("bad --min-support `{s}`"))?);
    }
    if let Some(s) = args.optional("strategy") {
        explainer = explainer.topk_strategy(match s {
            "nominimal" => TopKStrategy::NoMinimal,
            "selfjoin" => TopKStrategy::MinimalSelfJoin,
            "append" => TopKStrategy::MinimalAppend,
            other => return Err(format!("unknown strategy `{other}`")),
        });
    }
    if let Some(p) = args.optional("polarity") {
        explainer = explainer.polarity(match p {
            "general" => MinimalityPolarity::PreferGeneral,
            "specific" => MinimalityPolarity::PreferSpecific,
            other => return Err(format!("unknown polarity `{other}`")),
        });
    }
    if args.optional("naive").is_some() {
        explainer = explainer.force_naive();
    }
    Ok(explainer)
}

fn cmd_schema(args: &Args) -> Result<(), String> {
    let schema_file = args.one("schema")?;
    let text = fs::read_to_string(schema_file).map_err(|e| format!("{schema_file}: {e}"))?;
    let schema = parse::parse_schema(&text).map_err(|e| e.to_string())?;
    print!("{schema}");
    let g = schema.causal_graph();
    println!(
        "back-and-forth keys: {} (simple: {}, max per relation: {})",
        schema.back_and_forth_count(),
        g.is_simple(),
        g.max_back_and_forth_per_relation()
    );
    Ok(())
}

fn cmd_validate(args: &Args) -> Result<(), String> {
    let obs = Obs::from_args(args)?;
    let db = load_database(args, &obs)?;
    let reduced = exq::relstore::semijoin::is_reduced(&db, &db.full_view());
    println!(
        "ok: {} relations, {} tuples, semijoin-reduced: {reduced}",
        db.schema().relation_count(),
        db.total_tuples()
    );
    if !reduced {
        println!("note: the explanation engine assumes a reduced instance (Section 2)");
    }
    Ok(())
}

fn cmd_explain(args: &Args) -> Result<(), String> {
    let obs = Obs::from_args(args)?;
    let db = load_database(args, &obs)?;
    let explainer = build_explainer(&db, args, &obs)?;
    let k: usize = args
        .optional("top")
        .map_or(Ok(5), |s| s.parse().map_err(|_| format!("bad --top `{s}`")))?;
    let kind = match args.optional("by").unwrap_or("interv") {
        "interv" => DegreeKind::Intervention,
        "aggr" => DegreeKind::Aggravation,
        other => return Err(format!("unknown degree `{other}` (interv|aggr)")),
    };
    let q_d = explainer.q_d().map_err(|e| e.to_string())?;
    if !obs.json {
        println!("Q(D) = {q_d}");
    }
    let (table, choice) = explainer.table_ref().map_err(|e| e.to_string())?;
    if !obs.json {
        println!(
            "{} candidate explanations (engine: {choice:?})",
            table.len()
        );
    }
    if let Some(path) = args.optional("dump-m") {
        fs::write(path, table.to_csv(&db)).map_err(|e| format!("{path}: {e}"))?;
        obs.note(format!("wrote M to {path}"));
    }
    let ranked = explainer.top(kind, k).map_err(|e| e.to_string())?;
    if obs.json {
        // One JSON document on stdout, nothing on stderr — same
        // serializer the exq-serve HTTP endpoints use.
        let snapshot = obs.sink.snapshot();
        println!(
            "{}",
            jsonout::explain_doc(&db, q_d, choice, table.len(), &ranked, &snapshot)
        );
    } else {
        for r in &ranked {
            println!(
                "{:>3}. {}  ({:.6})",
                r.rank,
                r.explanation.display(&db),
                r.degree
            );
        }
    }
    obs.finish()
}

fn cmd_profile(args: &Args) -> Result<(), String> {
    let obs = Obs::from_args(args)?;
    let exec = ExecConfig::sequential().with_metrics(obs.sink.clone());
    let db = load_database(args, &obs)?;
    print!("{}", exq::relstore::stats::profile_with(&db, &exec));
    obs.finish()
}

fn cmd_report(args: &Args) -> Result<(), String> {
    let obs = Obs::from_args(args)?;
    let db = load_database(args, &obs)?;
    let explainer = build_explainer(&db, args, &obs)?;
    let k: usize = args
        .optional("top")
        .map_or(Ok(5), |s| s.parse().map_err(|_| format!("bad --top `{s}`")))?;
    let config = exq::core::report::ReportConfig {
        top_k: k,
        drill_best: true,
        // Same sink the explainer records into, so the report's metrics
        // section sees the whole run.
        exec: args.exec()?.with_metrics(obs.sink.clone()),
    };
    if obs.json {
        let doc = jsonout::report_doc(&explainer, &config).map_err(|e| e.to_string())?;
        println!("{doc}");
    } else {
        let text = exq::core::report::generate(&explainer, &config).map_err(|e| e.to_string())?;
        print!("{text}");
    }
    obs.finish()
}

fn cmd_drill(args: &Args) -> Result<(), String> {
    let obs = Obs::from_args(args)?;
    let db = load_database(args, &obs)?;
    let explainer = build_explainer(&db, args, &obs)?;
    let phi_text = args.one("phi")?;
    let pred = parse::parse_predicate(db.schema(), phi_text).map_err(|e| e.to_string())?;
    let phi = Explanation::from_predicate(&pred)
        .ok_or("--phi must be a conjunction of comparisons (no or/not)")?;
    let report = explainer.explain(&phi).map_err(|e| e.to_string())?;
    if obs.json {
        let snapshot = obs.sink.snapshot();
        println!(
            "{}",
            jsonout::drill_doc(&db, &phi.display(&db).to_string(), &report, &snapshot)
        );
        return obs.finish();
    }
    println!("phi       = {}", phi.display(&db));
    println!("mu_interv = {}", report.mu_interv);
    println!("mu_aggr   = {}", report.mu_aggr);
    println!("mu_hybrid = {}", report.mu_hybrid);
    println!(
        "intervention: {} tuples deleted in {} iterations",
        report.intervention.total_deleted(),
        report.intervention.iterations
    );
    for (rel, delta) in report.intervention.delta.iter().enumerate() {
        if !delta.is_empty() {
            println!(
                "  {}: {} tuples",
                db.schema().relation(rel).name,
                delta.count()
            );
        }
    }
    obs.finish()
}

/// Parse one `--preload NAME=SOURCE` spec into a catalog entry.
/// `SOURCE` is either a directory (schema.exq + per-relation CSVs) or
/// `gen:NAME` for a built-in seeded generator.
fn preload_dataset(
    catalog: &mut exq::serve::Catalog,
    spec: &str,
    exec: &ExecConfig,
) -> Result<(), String> {
    use exq::datagen::{dblp, natality, paper_examples};
    use std::sync::Arc;
    let (name, source) = spec
        .split_once('=')
        .ok_or_else(|| format!("--preload takes NAME=DIR or NAME=gen:SPEC, got `{spec}`"))?;
    match source.strip_prefix("gen:") {
        Some(generator) => {
            let db = match generator {
                "dblp" => dblp::generate(&dblp::DblpConfig::default()),
                "dblp-small" => dblp::generate(&dblp::DblpConfig {
                    papers_per_year_base: 6,
                    authors_per_institution: 4,
                    ..dblp::DblpConfig::default()
                }),
                "natality" => natality::generate(&natality::NatalityConfig::default()),
                "figure3" => paper_examples::figure3(),
                other => {
                    return Err(format!(
                        "unknown generator `{other}` (dblp|dblp-small|natality|figure3)"
                    ))
                }
            };
            catalog.insert_database(name, Arc::new(db), exec)
        }
        None => catalog.load_dir(name, std::path::Path::new(source), exec),
    }
}

/// `exq serve`: load the catalog, bind, serve until SIGINT/SIGTERM,
/// then drain in-flight requests and flush the final metrics snapshot.
/// With `--router N` the process instead becomes the front of a sharded
/// multi-process tier (see [`cmd_serve_router`]).
fn cmd_serve(args: &Args) -> Result<(), String> {
    if args.optional("router").is_some() {
        return cmd_serve_router(args);
    }
    let obs = Obs::from_args(args)?;
    let addr = args.optional("addr").unwrap_or("127.0.0.1:8080");
    let exec = args.exec()?;
    let cache_mb: usize = args.optional("cache-mb").map_or(Ok(32), |s| {
        s.parse().map_err(|_| format!("bad --cache-mb `{s}`"))
    })?;
    let queue_depth: usize = args.optional("queue-depth").map_or(Ok(64), |s| {
        s.parse().map_err(|_| format!("bad --queue-depth `{s}`"))
    })?;
    let shard_id: Option<u64> = match args.optional("shard-id") {
        None => None,
        Some(s) => Some(
            s.parse()
                .map_err(|_| format!("bad --shard-id `{s}` (need an integer)"))?,
        ),
    };
    let trace_slow_ms: Option<u64> = match args.optional("trace-slow-ms") {
        None => None,
        Some(s) => Some(
            s.parse()
                .map_err(|_| format!("bad --trace-slow-ms `{s}` (need milliseconds)"))?,
        ),
    };
    // Under `--state-dir` the worker persists retained traces next to
    // its warm-start cache file; shard-tagged so a fleet's files can
    // share one directory.
    let trace_retain: Option<std::path::PathBuf> = match args.optional("state-dir") {
        None => None,
        Some(dir) => {
            fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
            Some(std::path::PathBuf::from(match shard_id {
                Some(id) => format!("{dir}/shard-{id}.traces.jsonl"),
                None => format!("{dir}/traces.jsonl"),
            }))
        }
    };
    let access_log = match args.optional("access-log") {
        None => exq::serve::AccessLog::disabled(),
        Some(path) => exq::serve::AccessLog::open(std::path::Path::new(path), false)
            .map_err(|e| format!("{path}: {e}"))?,
    };
    let preloads = args.many("preload");
    // A router worker may legitimately own zero datasets (the hash ring
    // assigned it none); standalone serve still demands a catalog.
    if preloads.is_empty() && shard_id.is_none() {
        return Err("serve needs at least one --preload NAME=DIR or NAME=gen:SPEC".to_string());
    }
    let mut catalog = exq::serve::Catalog::new();
    for spec in preloads {
        #[expect(clippy::disallowed_methods, reason = "preload time is only printed")]
        let t0 = std::time::Instant::now();
        preload_dataset(&mut catalog, spec, &exec)?;
        eprintln!("preloaded {spec} in {:.2?}", t0.elapsed());
    }

    exq::serve::signal::install();
    let sink = MetricsSink::recording();
    if obs.trace_out.is_some() {
        sink.enable_tracing(TRACE_RING_CAPACITY);
    }
    let config = exq::serve::ServerConfig {
        threads: match args.optional("threads") {
            // `--threads` sizes the worker pool here.
            Some(_) => exec.threads(),
            None => 4,
        },
        cache_bytes: cache_mb * 1024 * 1024,
        queue_depth,
        shard_id,
        cache_persist: args.optional("cache-persist").map(std::path::PathBuf::from),
        trace_slow_ms,
        trace_retain,
        access_log,
        ..exq::serve::ServerConfig::default()
    };
    let threads = config.threads;
    let handle = exq::serve::start_on(addr, catalog, config, sink.clone())
        .map_err(|e| format!("bind {addr}: {e}"))?;
    // Machine-readable ready line (the CI smoke jobs and the router's
    // worker supervisor parse the port from it), then serve until a
    // signal lands.
    println!(
        "ready: listening on http://{} ({threads} workers)",
        handle.addr()
    );
    use std::io::Write as _;
    std::io::stdout().flush().ok();
    while !exq::serve::signal::requested() {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    eprintln!("signal received; draining in-flight requests");
    let flight_json = handle.recent_requests_json();
    let snapshot = handle.shutdown();
    if let Some(path) = &obs.metrics_out {
        let json = snapshot.to_json();
        if path == "-" {
            println!("{json}");
        } else {
            fs::write(path, json + "\n").map_err(|e| format!("{path}: {e}"))?;
            eprintln!("wrote final metrics snapshot to {path}");
            // Flight recorder lands next to the snapshot.
            let flight_path = match path.strip_suffix(".json") {
                Some(stem) => format!("{stem}.requests.json"),
                None => format!("{path}.requests.json"),
            };
            fs::write(&flight_path, flight_json + "\n")
                .map_err(|e| format!("{flight_path}: {e}"))?;
            eprintln!("wrote flight recorder to {flight_path}");
        }
    }
    if let Some(path) = &obs.trace_out {
        let json = sink
            .trace_chrome_json()
            .ok_or("tracing was not armed (internal error)")?;
        fs::write(path, json + "\n").map_err(|e| format!("{path}: {e}"))?;
        eprintln!("wrote Chrome trace to {path}");
    }
    eprintln!(
        "shutdown complete: {} requests served, {} cache hits / {} misses",
        snapshot.counter("server.requests"),
        snapshot.counter("server.cache.hits"),
        snapshot.counter("server.cache.misses"),
    );
    Ok(())
}

/// A per-shard sibling of a `--metrics`/`--trace-out` path:
/// `bench/serve.json` → `bench/serve.shard0.json`.
fn shard_sibling_path(path: &str, shard: usize) -> String {
    match path.strip_suffix(".json") {
        Some(stem) => format!("{stem}.shard{shard}.json"),
        None => format!("{path}.shard{shard}"),
    }
}

/// `exq serve --router N`: the sharded multi-process serving tier.
///
/// This process becomes the *front*: it partitions the `--preload`
/// specs over N shards with the consistent-hash ring, spawns one
/// ordinary `exq serve` worker process per shard (loopback, port 0,
/// `--shard-id`, and — under `--state-dir` — a per-shard warm-start
/// cache file), and proxies requests to the owning worker. The
/// supervisor health-checks and restarts crashed workers with the
/// front answering bounded `503`s meanwhile. SIGTERM drains front
/// first, then the workers (each dumps its cache snapshot and metrics
/// file); with `--trace-out` the per-process Chrome traces are merged
/// into one two-tier timeline.
fn cmd_serve_router(args: &Args) -> Result<(), String> {
    let obs = Obs::from_args(args)?;
    let workers: usize = {
        let s = args.one("router")?;
        s.parse()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or(format!("bad --router `{s}` (need an integer >= 1)"))?
    };
    let addr = args.optional("addr").unwrap_or("127.0.0.1:8080");
    let queue_depth: usize = args.optional("queue-depth").map_or(Ok(64), |s| {
        s.parse().map_err(|_| format!("bad --queue-depth `{s}`"))
    })?;
    let rate_limit: Option<f64> = match args.optional("rate-limit") {
        None => None,
        Some(s) => Some(
            s.parse::<f64>()
                .ok()
                .filter(|&r| r > 0.0)
                .ok_or(format!("bad --rate-limit `{s}` (need a rate > 0)"))?,
        ),
    };
    let worker_threads: usize = args.optional("threads").map_or(Ok(4), |s| {
        s.parse()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or(format!("bad --threads `{s}` (need an integer >= 1)"))
    })?;
    let preloads = args.many("preload");
    if preloads.is_empty() {
        return Err("serve needs at least one --preload NAME=DIR or NAME=gen:SPEC".to_string());
    }
    let mut names = Vec::new();
    for spec in preloads {
        let (name, _) = spec
            .split_once('=')
            .ok_or_else(|| format!("--preload takes NAME=DIR or NAME=gen:SPEC, got `{spec}`"))?;
        names.push(name.to_string());
    }
    let shards = exq::router::ShardMap::new(workers);
    let mut groups: Vec<Vec<&str>> = vec![Vec::new(); workers];
    for (spec, name) in preloads.iter().zip(&names) {
        groups[shards.shard_of(name)].push(spec);
    }
    let state_dir = args.optional("state-dir");
    if let Some(dir) = state_dir {
        fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
    }
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut specs = Vec::with_capacity(workers);
    for (shard, group) in groups.iter().enumerate() {
        let mut wargs: Vec<String> = [
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--threads",
            &worker_threads.to_string(),
            "--shard-id",
            &shard.to_string(),
        ]
        .map(str::to_string)
        .into();
        for flag in ["cache-mb", "queue-depth", "trace-slow-ms"] {
            if let Some(value) = args.optional(flag) {
                wargs.push(format!("--{flag}"));
                wargs.push(value.to_string());
            }
        }
        if let Some(dir) = state_dir {
            wargs.push("--cache-persist".to_string());
            wargs.push(format!("{dir}/shard-{shard}.cache"));
            // The worker derives its own `shard-N.traces.jsonl` from
            // the directory plus its `--shard-id`.
            wargs.push("--state-dir".to_string());
            wargs.push(dir.to_string());
        }
        if let Some(path) = args.optional("access-log").filter(|p| *p != "-") {
            wargs.push("--access-log".to_string());
            wargs.push(shard_sibling_path(path, shard));
        }
        if let Some(path) = obs.metrics_out.as_deref().filter(|p| *p != "-") {
            wargs.push("--metrics".to_string());
            wargs.push(shard_sibling_path(path, shard));
        }
        if let Some(path) = &obs.trace_out {
            wargs.push("--trace-out".to_string());
            wargs.push(shard_sibling_path(path, shard));
        }
        for spec in group {
            wargs.push("--preload".to_string());
            wargs.push((*spec).to_string());
        }
        specs.push(exq::router::WorkerSpec { shard, args: wargs });
    }

    exq::serve::signal::install();
    let sink = MetricsSink::recording();
    if obs.trace_out.is_some() {
        sink.enable_tracing(TRACE_RING_CAPACITY);
    }
    let config = exq::router::FrontConfig {
        threads: 4,
        queue_depth,
        workers,
        // A pooled keep-alive connection pins a worker thread; never
        // hold more than the worker can serve concurrently.
        per_worker_connections: worker_threads,
        rate_limit,
        datasets: names,
        // The front logs every request it answers (with the shard that
        // served it); workers log their own shard-sibling files. `-`
        // stays front-only: worker stdout is the supervisor's.
        access_log: match args.optional("access-log") {
            None => exq::serve::AccessLog::disabled(),
            Some(path) => exq::serve::AccessLog::open(std::path::Path::new(path), false)
                .map_err(|e| format!("{path}: {e}"))?,
        },
        ..exq::router::FrontConfig::default()
    };
    let front = exq::router::Front::start_on(addr, config, sink.clone())
        .map_err(|e| format!("bind {addr}: {e}"))?;
    let supervisor = exq::router::Supervisor::start(exe, specs, front.upstreams(), sink.clone(), 3)
        .map_err(|e| format!("spawning workers: {e}"))?;
    let pids: Vec<String> = supervisor
        .pids()
        .iter()
        .map(|p| p.map_or("-".to_string(), |pid| pid.to_string()))
        .collect();
    println!(
        "ready: listening on http://{} (router, {workers} shards, worker pids {})",
        front.addr(),
        pids.join(",")
    );
    use std::io::Write as _;
    std::io::stdout().flush().ok();
    while !exq::serve::signal::requested() {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    eprintln!("signal received; draining front, then workers");
    // A terminal SIGINT reaches the whole process group: stop the
    // restart machinery *before* workers start exiting on their own.
    supervisor.halt_restarts();
    let snapshot = front.shutdown();
    supervisor.shutdown();
    if let Some(path) = &obs.metrics_out {
        let json = snapshot.to_json();
        if path == "-" {
            println!("{json}");
        } else {
            fs::write(path, json + "\n").map_err(|e| format!("{path}: {e}"))?;
            eprintln!("wrote front metrics snapshot to {path}");
        }
    }
    if let Some(path) = &obs.trace_out {
        let front_json = sink
            .trace_chrome_json()
            .ok_or("tracing was not armed (internal error)")?;
        let mut worker_traces = Vec::new();
        for shard in 0..workers {
            let shard_path = shard_sibling_path(path, shard);
            if let Ok(doc) = fs::read_to_string(&shard_path) {
                worker_traces.push((shard, doc));
            }
        }
        let merged = exq::router::trace::merge_chrome_traces(&front_json, &worker_traces);
        fs::write(path, merged).map_err(|e| format!("{path}: {e}"))?;
        eprintln!(
            "wrote merged two-tier Chrome trace to {path} ({} worker traces)",
            worker_traces.len()
        );
    }
    eprintln!(
        "router shutdown complete: {} requests fronted, {} proxy errors, {} worker restarts",
        snapshot.counter("router.requests"),
        snapshot.counter("router.proxy.errors"),
        snapshot.counter("router.worker.restarts"),
    );
    Ok(())
}

/// Render one stored [`Value`](exq::relstore::Value) as a JSON cell for
/// an append request. Numbers use Rust's shortest round-trip `Display`;
/// non-finite floats fall back to strings, which the server re-parses
/// with the CSV rules.
fn value_to_json_cell(v: &exq::relstore::Value) -> String {
    use exq::relstore::Value;
    match v {
        Value::Null => "null".to_string(),
        Value::Bool(b) => b.to_string(),
        Value::Int(i) => i.to_string(),
        Value::Float(f) if f.is_finite() => f.to_string(),
        Value::Float(f) => format!("\"{f}\""),
        Value::Str(s) => format!("\"{}\"", exq::obs::escape_json(s)),
    }
}

/// `exq append`: batch-append CSV rows to a running server's dataset.
///
/// Loads the schema and CSVs locally (same parser as `exq explain`, but
/// without whole-database key validation — the *server* validates each
/// batch against its live data), then posts
/// `POST /v1/datasets/{name}/rows` requests of at most `--batch` rows,
/// one relation at a time in `--table` order. List referenced relations
/// before referencing ones so foreign keys resolve batch by batch.
fn cmd_append(args: &Args) -> Result<(), String> {
    let addr = args.one("addr")?;
    let dataset = args.one("dataset")?;
    let batch_size: usize = args.optional("batch").map_or(Ok(5000), |s| {
        s.parse()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or(format!("bad --batch `{s}` (need an integer >= 1)"))
    })?;
    let max_retries: u32 = args.optional("max-retries").map_or(Ok(5), |s| {
        s.parse()
            .map_err(|_| format!("bad --max-retries `{s}` (need an integer >= 0)"))
    })?;
    let schema_file = args.one("schema")?;
    let schema_text = fs::read_to_string(schema_file).map_err(|e| format!("{schema_file}: {e}"))?;
    let schema = parse::parse_schema(&schema_text).map_err(|e| e.to_string())?;

    let sock_addr: std::net::SocketAddr = addr
        .parse()
        .map_err(|_| format!("bad --addr `{addr}` (need HOST:PORT)"))?;

    // A scratch database gives us the CSV reader's type coercion; key
    // and foreign-key checks happen server-side against the live data.
    let mut scratch = Database::new(schema);
    let mut loaded: Vec<(String, usize)> = Vec::new();
    for spec in args.many("table") {
        let (rel, file) = spec
            .split_once('=')
            .ok_or_else(|| format!("--table takes Rel=FILE, got `{spec}`"))?;
        let reader = fs::File::open(file)
            .map_err(|e| format!("{file}: {e}"))
            .map(std::io::BufReader::new)?;
        let n = csv::load_relation(&mut scratch, rel, reader).map_err(|e| e.to_string())?;
        loaded.push((rel.to_string(), n));
    }
    if loaded.iter().all(|(_, n)| *n == 0) {
        return Err("nothing to append (no --table rows)".to_string());
    }

    let path = format!("/v1/datasets/{dataset}/rows");
    // One keep-alive connection for the whole run: every batch reuses
    // the same TCP stream (and the same server worker thread) instead
    // of re-dialing per request. A busy server's `503` + `Retry-After`
    // is honored with bounded backoff rather than failing the run.
    let mut conn = exq::serve::client::Connection::new(sock_addr);
    let mut total = 0usize;
    let mut last_epoch = 0u64;
    for (rel, _) in &loaded {
        let rel_idx = scratch
            .schema()
            .relation_index(rel)
            .map_err(|e| e.to_string())?;
        let rows: Vec<String> = scratch
            .relation(rel_idx)
            .rows()
            .map(|row| {
                let cells: Vec<String> = row.iter().map(value_to_json_cell).collect();
                format!("[{}]", cells.join(","))
            })
            .collect();
        for chunk in rows.chunks(batch_size) {
            let body = format!(
                "{{\"rows\":{{\"{}\":[{}]}}}}",
                exq::obs::escape_json(rel),
                chunk.join(",")
            );
            let response = conn
                .post_json_retry(&path, &body, max_retries)
                .map_err(|e| format!("POST {path}: {e}"))?;
            if response.status == 503 {
                return Err(format!(
                    "POST {path} still busy after {max_retries} retries: {}",
                    response.text().trim()
                ));
            }
            if response.status != 200 {
                return Err(format!(
                    "POST {path} failed with {}: {}",
                    response.status,
                    response.text().trim()
                ));
            }
            last_epoch = response
                .header("x-exq-epoch")
                .and_then(|v| v.parse().ok())
                .unwrap_or(last_epoch);
            total += chunk.len();
            eprintln!(
                "appended {} rows to {rel} (epoch {last_epoch})",
                chunk.len()
            );
        }
    }
    println!("appended {total} rows to {dataset}; epoch is now {last_epoch}");
    Ok(())
}

/// `exq check SCHEMA [QUESTION…] [--format pretty|json]`.
///
/// Positional arguments (unlike the other subcommands): the first path
/// is the schema, the rest are question files checked against it.
/// Exits 0 when clean (warnings allowed), 1 when any error-severity
/// diagnostic fires, 2 on usage errors.
fn cmd_check(argv: &[String]) -> ExitCode {
    let mut format = "pretty".to_string();
    let mut paths: Vec<String> = Vec::new();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--format" => match argv.get(i + 1) {
                Some(v) if v == "pretty" || v == "json" => {
                    format = v.clone();
                    i += 2;
                }
                Some(v) => {
                    eprintln!("error: --format takes pretty|json, got `{v}`\n{USAGE}");
                    return ExitCode::from(2);
                }
                None => {
                    eprintln!("error: missing value for --format\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            flag if flag.starts_with("--") => {
                eprintln!("error: unknown flag `{flag}` for check\n{USAGE}");
                return ExitCode::from(2);
            }
            path => {
                paths.push(path.to_string());
                i += 1;
            }
        }
    }
    let Some((schema_path, question_paths)) = paths.split_first() else {
        eprintln!("error: check needs a schema file\n{USAGE}");
        return ExitCode::from(2);
    };
    let read = |path: &str| -> Result<String, String> {
        fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
    };
    let schema = match read(schema_path) {
        Ok(text) => SourceFile::schema(schema_path.as_str(), text),
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let mut questions = Vec::new();
    for path in question_paths {
        match read(path) {
            Ok(text) => questions.push(SourceFile::question(path.as_str(), text)),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        }
    }
    let analysis = analyze::analyze(Some(&schema), &questions);
    if format == "json" {
        println!("{}", analysis.render_json());
    } else {
        let sources: Vec<&SourceFile> = std::iter::once(&schema).chain(questions.iter()).collect();
        print!("{}", analysis.render_pretty(&sources));
    }
    if analysis.has_errors() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

const USAGE: &str =
    "usage: exq <check|schema|validate|profile|explain|report|drill|serve|append> [--flags]
  exq check    SCHEMA [QUESTION...] [--format pretty|json]
  exq schema   --schema FILE
  exq validate --schema FILE --table Rel=FILE...
  exq profile  --schema FILE --table Rel=FILE... [--metrics PATH|-] [--trace] \\
               [--trace-out PATH]
  exq report   --schema FILE --table Rel=FILE... --question FILE --attrs ... \\
               [--top K] [--threads N] [--format pretty|json] [--metrics PATH|-] \\
               [--trace] [--trace-out PATH]
  exq explain  --schema FILE --table Rel=FILE... --question FILE \\
               --attrs Rel.a,Rel.b [--top K] [--by interv|aggr] \\
               [--strategy nominimal|selfjoin|append] [--polarity general|specific] \\
               [--min-support N] [--naive] [--dump-m FILE] [--threads N] \\
               [--format pretty|json] [--metrics PATH|-] [--trace] [--trace-out PATH]
  exq drill    --schema FILE --table Rel=FILE... --question FILE --phi \"a = 'v'\" \\
               [--threads N] [--format pretty|json] [--metrics PATH|-] \\
               [--trace] [--trace-out PATH]
  exq serve    --addr HOST:PORT --preload NAME=DIR|NAME=gen:SPEC... \\
               [--threads N] [--cache-mb MB] [--queue-depth N] [--metrics PATH|-] \\
               [--router N] [--state-dir DIR] [--rate-limit R] [--trace-out PATH] \\
               [--shard-id I] [--cache-persist PATH] [--trace-slow-ms MS] \\
               [--access-log PATH|-]
  exq append   --addr HOST:PORT --dataset NAME --schema FILE --table Rel=FILE... \\
               [--batch N] [--max-retries N]

--threads N sizes the naive engine's candidate sweep, the one parallel
operator, for explain, report and drill (default: all available cores),
and the worker pool for serve. Results are bit-identical at every
thread count.
--metrics PATH writes a JSON counter/span/histogram snapshot after the
run (`-` for stdout); counters and value-histogram buckets are
bit-identical at every thread count.
--trace prints a per-span timing tree to stderr. --trace-out PATH writes
the run as Chrome trace-event JSON (load in Perfetto/chrome://tracing).
--format json (explain, report, drill) emits one machine-readable JSON
document on stdout and keeps stderr empty — the same document shape
`exq serve` returns.
serve runs until SIGINT/SIGTERM, then drains in-flight requests and
flushes a final metrics snapshot (--metrics PATH) plus the flight
recorder's last-requests ring (PATH.requests.json); while running it
exposes GET /metrics (Prometheus) and GET /v1/debug/requests.
Every serve response carries an X-Exq-Cost header (rows, candidates,
cube cells, cache outcome, epoch) and the JSON body a matching `cost`
block; requests tagged X-Exq-Tenant accumulate per-tenant
server.tenant.cost.* counters. --trace-slow-ms MS retains traces of
requests slower than MS (or any 5xx) under --state-dir as
traces.jsonl, browsable at GET /v1/debug/traces and flagged as
Prometheus exemplar comments; without the flag the slow bound adapts
to the live p99. --access-log PATH appends one JSON line per request
(`-` for stdout).
serve --router N spawns N worker processes, each owning a
consistent-hash shard of the --preload catalog, behind this process as
a routing front with per-tenant admission control (--rate-limit R
requests/s per X-Exq-Tenant), worker health checks and bounded
restarts; --state-dir DIR persists each worker's result cache for warm
restarts plus its retained traces (shard-N.traces.jsonl),
--metrics/--trace-out/--access-log write per-shard sibling files plus
the front's (traces are merged into one two-tier timeline). The
front's GET /metrics fans out to every live worker and renders one
fleet exposition: per-shard labelled families plus exact
bucket-merged aggregate histograms (a downed shard degrades the
scrape — router.scrape.partial — never fails it); /v1/debug/requests
and /v1/debug/traces are merged shard-tagged fan-ins. --shard-id and
--cache-persist are the worker-side halves of those flags.
append posts CSV rows to a running server (POST /v1/datasets/NAME/rows)
in --batch-row chunks (default 5000) over one keep-alive connection,
one relation per request in --table order; each accepted batch bumps
the dataset's epoch and the server maintains its join intermediates
incrementally. A 503 (busy/throttled) is retried with Retry-After-aware
backoff up to --max-retries times (default 5). List referenced
relations before referencing ones so foreign keys resolve.";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // `check` takes positional paths, unlike the --flag-only commands.
    if argv.first().map(String::as_str) == Some("check") {
        return cmd_check(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match args.command.as_str() {
        "schema" => cmd_schema(&args),
        "validate" => cmd_validate(&args),
        "profile" => cmd_profile(&args),
        "explain" => cmd_explain(&args),
        "report" => cmd_report(&args),
        "drill" => cmd_drill(&args),
        "serve" => cmd_serve(&args),
        "append" => cmd_append(&args),
        other => {
            eprintln!("error: unknown command `{other}`\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
