//! The HTTP server: accept loop, bounded worker pool, request routing.
//!
//! Threading model: one nonblocking accept thread pushes connections
//! into a bounded queue; `threads` workers pop and serve a connection
//! to completion — one request by default, or a whole keep-alive
//! session when the client asks for one (so a persistent connection
//! pins a worker thread: peers that hold many open connections, like
//! the router front, must cap them at the worker's thread count).
//! When the queue is full the accept thread answers
//! `503` + `Retry-After` immediately instead of letting latency grow
//! unbounded (load-shedding backpressure). Shutdown is cooperative: a
//! flag stops the accept loop, workers drain the queue and finish
//! in-flight requests, and [`Handle::shutdown`] joins everything and
//! returns the final metrics snapshot for the caller to flush.
//!
//! Request handlers run the explanation pipeline **sequentially** per
//! request — parallelism comes from serving many requests at once, and
//! results are bit-identical at every thread count anyway (the PR 2
//! contract), which is what makes the response cache sound.

use crate::accesslog::{AccessEntry, AccessLog};
use crate::cache::ResultCache;
use crate::catalog::{Catalog, Dataset};
use crate::flight::FlightRecorder;
use crate::http::{Limits, Request, Response};
use crate::json::Json;
use crate::key::{cache_key, CanonicalRequest};
use crate::malloc;
use crate::pump;
use crate::retain::TraceRetention;
use exq_core::jsonout;
use exq_core::prelude::*;
use exq_core::qparse;
use exq_core::report::ReportConfig;
use exq_obs::{MetricsSink, Snapshot};
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every `server.*` counter the server records, in one place so they
/// can be pre-registered at startup (a counter that never fires still
/// appears in snapshots at 0) and catalogued in `assets/obs/counters.txt`.
pub const SERVER_COUNTERS: &[&str] = &[
    "server.requests",
    "server.responses.ok",
    "server.responses.client_error",
    "server.responses.server_error",
    "server.rejected_busy",
    "server.cache.hits",
    "server.cache.misses",
    "server.cache.inserts",
    "server.cache.evictions",
    "server.explain.runs",
    "server.report.runs",
    "server.append.runs",
    "server.cache.warm_loaded",
    "server.trace.retained",
];

/// Ingestion counters recorded on the append path. `rows_appended` and
/// `epoch_bumps` fire in [`Dataset::append`]; the `delta.*` pair fires
/// inside `exq_relstore`'s incremental join maintenance through the
/// append's `ExecConfig` sink. Pre-registered alongside
/// [`SERVER_COUNTERS`] so an idle server exposes them at 0.
pub const INGEST_COUNTERS: &[&str] = &[
    "ingest.rows_appended",
    "ingest.epoch_bumps",
    "ingest.delta.tuples",
    "ingest.delta.full_rebuilds",
];

/// Largest number of rows one append request may carry. Bounds the work
/// a single `POST .../rows` can queue behind a dataset's write lock;
/// bigger loads should go through repeated batches (the CLI's
/// `--batch` flag does exactly that).
pub const MAX_APPEND_ROWS: usize = 100_000;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads serving requests.
    pub threads: usize,
    /// Response-cache budget in bytes (0 disables caching).
    pub cache_bytes: usize,
    /// Pending-connection queue depth; beyond it new connections get
    /// `503` + `Retry-After`.
    pub queue_depth: usize,
    /// Per-request wall-clock budget for *reading* the request.
    pub request_timeout: Duration,
    /// HTTP parser limits (head/body size, header count).
    pub limits: Limits,
    /// Flight-recorder depth: how many recent request summaries
    /// `GET /v1/debug/requests` retains.
    pub flight_capacity: usize,
    /// Which router shard this process serves, if any. Surfaced by
    /// `GET /v1/health` so the front (and CI) can verify the topology.
    pub shard_id: Option<u64>,
    /// Warm-start snapshot path. When set, the server reloads the
    /// [`ResultCache`] from this file at boot (dropping entries whose
    /// dataset/epoch no longer matches the catalog) and dumps the cache
    /// back on shutdown, so a rolling restart does not stampede the
    /// cold explain path.
    pub cache_persist: Option<std::path::PathBuf>,
    /// Static slow-trace threshold in milliseconds. Requests at or over
    /// it are retained by the tail sampler ([`crate::retain`]); `None`
    /// selects the adaptive policy (above the endpoint's own p99 bucket
    /// bound, once armed).
    pub trace_slow_ms: Option<u64>,
    /// Where retained traces are appended as JSONL (the CLI points this
    /// into `--state-dir`); `None` keeps them in memory only.
    pub trace_retain: Option<std::path::PathBuf>,
    /// Structured access log destination. Defaults to disabled.
    pub access_log: AccessLog,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            threads: 4,
            cache_bytes: 32 * 1024 * 1024,
            queue_depth: 64,
            request_timeout: Duration::from_secs(10),
            limits: Limits::default(),
            flight_capacity: 128,
            shard_id: None,
            cache_persist: None,
            trace_slow_ms: None,
            trace_retain: None,
            access_log: AccessLog::disabled(),
        }
    }
}

struct Inner {
    catalog: Catalog,
    cache: ResultCache,
    sink: MetricsSink,
    config: ServerConfig,
    shutdown: Arc<AtomicBool>,
    flight: FlightRecorder,
    /// Tail-sampling policy: which traces outlive the flight ring.
    retention: TraceRetention,
    /// Monotone per-request trace-id allocator (first request gets 1).
    next_trace: AtomicU64,
}

/// A running server. Dropping the handle without calling
/// [`Handle::shutdown`] detaches the threads (they exit with the
/// process); tests and the CLI always shut down explicitly.
pub struct Handle {
    addr: SocketAddr,
    inner: Arc<Inner>,
    pump: pump::Pump,
}

impl Handle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.inner.shutdown.load(Ordering::SeqCst)
    }

    /// The flight recorder's current contents as the same JSON document
    /// `GET /v1/debug/requests` serves. The CLI dumps this next to the
    /// final metrics snapshot on SIGTERM.
    pub fn recent_requests_json(&self) -> String {
        self.inner.flight.to_json()
    }

    /// Stop accepting, drain queued and in-flight requests, join all
    /// threads, dump the warm-start snapshot (if configured), give the
    /// freed memory back to the OS, and return the final metrics
    /// snapshot.
    pub fn shutdown(self) -> Snapshot {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.pump.join();
        if let Some(path) = &self.inner.config.cache_persist {
            let dump = self.inner.cache.entries_sorted();
            let entries: Vec<(&str, &str)> =
                dump.iter().map(|(k, d)| (k.as_str(), d.as_str())).collect();
            // Best-effort: a failed dump costs the next boot its warm
            // cache, nothing more.
            let _ = crate::persist::write_entries(path, &entries);
        }
        let snapshot = self.inner.sink.snapshot();
        // Cache and epochs go before the trim, so their pages go back too.
        drop(self.inner);
        malloc::release_freed_pages();
        snapshot
    }
}

/// Reload the warm-start snapshot, if configured and present. Entries
/// are filtered against the *booted* catalog: a persisted key whose
/// `dataset`/`epoch` fragment matches no current dataset was computed
/// against state this process does not hold (the epoch counter restarts
/// at the loaded data), so serving it could be a wrong answer — those
/// entries are dropped. Unreadable or corrupt snapshots mean a cold
/// boot, never an error.
fn warm_start(inner: &Inner) {
    let Some(path) = &inner.config.cache_persist else {
        return;
    };
    if !path.exists() {
        return;
    }
    let Ok(entries) = crate::persist::read_entries(path) else {
        return;
    };
    let fragments: Vec<String> = inner
        .catalog
        .names()
        .iter()
        .filter_map(|name| inner.catalog.get(name))
        .map(|ds| crate::key::dataset_epoch_fragment(&ds.name, ds.epoch()))
        .collect();
    let live = entries
        .into_iter()
        .filter(|(key, _)| fragments.iter().any(|f| key.contains(f.as_str())));
    inner.cache.load(live);
}

/// Bind `addr` and start the accept and worker threads. All `server.*`
/// counters are pre-registered on `sink` so even an idle server exposes
/// the full catalogue through `GET /v1/metrics`.
pub fn start(catalog: Catalog, config: ServerConfig, sink: MetricsSink) -> std::io::Result<Handle> {
    start_on(("127.0.0.1", 0), catalog, config, sink)
}

/// [`start`] on an explicit address.
pub fn start_on(
    addr: impl ToSocketAddrs,
    catalog: Catalog,
    config: ServerConfig,
    sink: MetricsSink,
) -> std::io::Result<Handle> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let local = listener.local_addr()?;
    malloc::pin_thresholds();
    for counter in SERVER_COUNTERS.iter().chain(INGEST_COUNTERS) {
        sink.add(counter, 0);
    }
    let shutdown = Arc::new(AtomicBool::new(false));
    let inner = Arc::new(Inner {
        cache: ResultCache::new(config.cache_bytes, config.threads.max(1) * 2, sink.clone()),
        catalog,
        sink,
        flight: FlightRecorder::new(config.flight_capacity),
        retention: TraceRetention::new(config.trace_slow_ms, config.trace_retain.clone()),
        next_trace: AtomicU64::new(0),
        shutdown: Arc::clone(&shutdown),
        config: config.clone(),
    });
    warm_start(&inner);
    let options = pump::PumpOptions {
        threads: config.threads,
        queue_depth: config.queue_depth,
        name: "exq-serve",
    };
    let reject_inner = Arc::clone(&inner);
    let serve_inner = Arc::clone(&inner);
    let pump = pump::start(
        listener,
        &options,
        shutdown,
        move |stream| {
            reject_inner.sink.incr("server.rejected_busy");
            pump::reject(stream, &pump::busy_response());
        },
        // Keep-alive lifecycle: a client that sends
        // `Connection: keep-alive` (the router front, the CLI batch
        // client) gets the stream kept open and its next request served
        // by the *same* worker thread — which is why the front caps
        // per-worker connections at the worker's thread count.
        move |stream| {
            let inner = Arc::clone(&serve_inner);
            pump::serve_connection(stream, move |stream, carry| {
                serve_one(&inner, stream, carry)
            })
        },
    )?;
    Ok(Handle {
        addr: local,
        inner,
        pump,
    })
}

/// Read one request (within the timeout budget), route it, write the
/// response (stamped with its `X-Exq-Trace-Id`), record latency into
/// the per-endpoint histogram and the flight recorder. Returns whether
/// the connection should be kept open for another request.
fn serve_one(inner: &Inner, stream: &mut TcpStream, carry: &mut Vec<u8>) -> bool {
    #[expect(clippy::disallowed_methods, reason = "timeouts and latency only")]
    let started = Instant::now();
    let deadline = started + inner.config.request_timeout;
    let read = pump::read_request(
        stream,
        &inner.config.limits,
        deadline,
        carry,
        &inner.shutdown,
    );
    let (request, response, meta, trace_id) = match read {
        Ok(Some(request)) => {
            // Trace ids are normally allocated here, but a front tier
            // that already assigned one passes it down in
            // `x-exq-trace-id` so one trace identifies the request
            // across both tiers — stamped onto trace events too, so a
            // merged Chrome trace correlates the front's span with the
            // worker's.
            let trace_id = request
                .header("x-exq-trace-id")
                .and_then(|v| v.trim().parse::<u64>().ok())
                .filter(|&id| id > 0)
                .unwrap_or_else(|| inner.next_trace.fetch_add(1, Ordering::Relaxed) + 1);
            inner.sink.set_trace(trace_id);
            let (response, meta) = {
                let _span = inner.sink.span("server.request");
                route(inner, &request)
            };
            (Some(request), response, meta, trace_id)
        }
        Ok(None) => return false, // peer closed / idle timeout: no request started
        Err(response) => (
            None,
            response,
            RouteMeta::other(),
            inner.next_trace.fetch_add(1, Ordering::Relaxed) + 1,
        ),
    };
    let keep_alive = request.as_ref().is_some_and(|r| {
        r.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("keep-alive"))
    }) && response.status != 408
        && !inner.shutdown.load(Ordering::SeqCst);
    let response = response.with_header("x-exq-trace-id", &trace_id.to_string());
    match response.status {
        200 => inner.sink.incr("server.responses.ok"),
        400..=499 => inner.sink.incr("server.responses.client_error"),
        _ => inner.sink.incr("server.responses.server_error"),
    }
    let written = stream
        .write_all(&response.to_bytes_with(keep_alive))
        .and_then(|()| stream.flush());
    let latency = started.elapsed();
    inner
        .sink
        .observe_duration(meta.latency_histogram(), latency);
    let latency_ns = u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX);
    let (method, path) = match &request {
        Some(r) => (r.method.as_str(), r.path.as_str()),
        None => ("-", "-"),
    };
    inner.flight.record(
        trace_id,
        method,
        path,
        response.status,
        latency_ns,
        meta.cache,
    );
    if inner.retention.observe(
        trace_id,
        method,
        path,
        response.status,
        latency_ns,
        meta.latency_histogram(),
    ) {
        inner.sink.incr("server.trace.retained");
    }
    inner.config.access_log.record(&AccessEntry {
        tenant: request.as_ref().and_then(|r| r.header("x-exq-tenant")),
        shard: inner.config.shard_id,
        endpoint: meta.endpoint,
        status: response.status,
        latency_ns,
        trace_id,
        cache: meta.cache,
    });
    keep_alive && written.is_ok()
}

/// What a routed request was, for latency attribution: which endpoint
/// handled it and whether the response came from the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RouteMeta {
    endpoint: &'static str,
    /// `"hit"`, `"miss"`, or `"-"` for uncached routes and errors.
    cache: &'static str,
}

impl RouteMeta {
    fn uncached(endpoint: &'static str) -> RouteMeta {
        RouteMeta {
            endpoint,
            cache: "-",
        }
    }

    fn other() -> RouteMeta {
        RouteMeta::uncached("other")
    }

    /// The latency histogram this request lands in: explain/report
    /// split by cache outcome (errors excluded), everything else pooled.
    fn latency_histogram(&self) -> &'static str {
        match (self.endpoint, self.cache) {
            ("explain", "hit") => "server.latency.explain.hit",
            ("explain", "miss") => "server.latency.explain.miss",
            ("report", "hit") => "server.latency.report.hit",
            ("report", "miss") => "server.latency.report.miss",
            _ => "server.latency.other",
        }
    }
}

fn route(inner: &Inner, request: &Request) -> (Response, RouteMeta) {
    inner.sink.incr("server.requests");
    let (path, query) = match request.path.split_once('?') {
        Some((path, query)) => (path, query),
        None => (request.path.as_str(), ""),
    };
    // `POST /v1/datasets/{name}/rows` — the only parameterized path, so
    // it gets a prefix match ahead of the exact-path table.
    if let Some(name) = path
        .strip_prefix("/v1/datasets/")
        .and_then(|rest| rest.strip_suffix("/rows"))
        .filter(|name| !name.is_empty() && !name.contains('/'))
    {
        return match request.method.as_str() {
            "POST" => handle_append(inner, request, name),
            _ => (
                Response::error(405, "method not allowed"),
                RouteMeta::other(),
            ),
        };
    }
    match (request.method.as_str(), path) {
        ("GET", "/healthz") => (
            Response::json(200, "{\n  \"status\": \"ok\"\n}\n"),
            RouteMeta::uncached("healthz"),
        ),
        ("GET", "/v1/health") => (
            Response::json(200, health_doc(inner)),
            RouteMeta::uncached("health"),
        ),
        ("GET", "/v1/datasets") => {
            let mut doc = inner.catalog.datasets_doc();
            doc.push('\n');
            (Response::json(200, doc), RouteMeta::uncached("datasets"))
        }
        ("GET", "/metrics") => (
            Response::text(200, prometheus_doc(inner)),
            RouteMeta::uncached("metrics"),
        ),
        ("GET", "/v1/metrics") => {
            let response = if query.split('&').any(|pair| pair == "format=prometheus") {
                Response::text(200, prometheus_doc(inner))
            } else if query.split('&').any(|pair| pair == "format=snapshot") {
                // The mergeable wire encoding: exact integers (the JSON
                // path goes through f64), exemplars included — what the
                // router front scrapes and merges into the fleet view.
                Response::text(
                    200,
                    exq_obs::encode_snapshot(&inner.sink.snapshot(), &inner.retention.exemplars()),
                )
            } else {
                Response::json(200, inner.sink.snapshot().to_json() + "\n")
            };
            (response, RouteMeta::uncached("metrics"))
        }
        ("GET", "/v1/debug/requests") => (
            Response::json(200, inner.flight.to_json() + "\n"),
            RouteMeta::uncached("debug"),
        ),
        ("GET", "/v1/debug/traces") => (
            Response::json(200, inner.retention.to_json() + "\n"),
            RouteMeta::uncached("debug"),
        ),
        ("POST", "/v1/explain") => handle_question(inner, request, Endpoint::Explain),
        ("POST", "/v1/report") => handle_question(inner, request, Endpoint::Report),
        (
            _,
            "/healthz" | "/v1/health" | "/v1/datasets" | "/metrics" | "/v1/metrics"
            | "/v1/debug/requests" | "/v1/debug/traces" | "/v1/explain" | "/v1/report",
        ) => (
            Response::error(405, "method not allowed"),
            RouteMeta::other(),
        ),
        _ => (Response::error(404, "no such endpoint"), RouteMeta::other()),
    }
}

/// The Prometheus exposition plus one exemplar comment per histogram
/// that has a retained trace: the breadcrumb linking a latency bucket
/// to a concrete trace id fetchable from `/v1/debug/traces`. Comment
/// lines that are not `HELP`/`TYPE` are legal exposition-format free
/// text, so scrapers that don't understand exemplars ignore them.
fn prometheus_doc(inner: &Inner) -> String {
    let mut text = inner.sink.snapshot().to_prometheus();
    for exemplar in inner.retention.exemplars() {
        text.push_str(&exemplar.to_prometheus_comment(inner.config.shard_id));
        text.push('\n');
    }
    text
}

/// The `GET /v1/health` document: worker identity and readiness at a
/// glance — shard id (when running under the router, else `null`),
/// per-dataset epochs, and live cache occupancy.
fn health_doc(inner: &Inner) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("{\n  \"status\": \"ok\",\n  \"shard\": ");
    match inner.config.shard_id {
        Some(id) => {
            let _ = write!(out, "{id}");
        }
        None => out.push_str("null"),
    }
    out.push_str(",\n  \"epochs\": {");
    let names = inner.catalog.names();
    let last = names.len();
    for (i, name) in names.iter().enumerate() {
        let Some(ds) = inner.catalog.get(name) else {
            continue;
        };
        let sep = if i + 1 == last { "" } else { "," };
        let _ = write!(
            out,
            " \"{}\": {}{sep}",
            exq_obs::escape_json(name),
            ds.epoch()
        );
    }
    let _ = write!(
        out,
        " }},\n  \"cache\": {{ \"entries\": {} }}\n}}\n",
        inner.cache.len()
    );
    out
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Endpoint {
    Explain,
    Report,
}

/// Per-request cost accounting: the engine-phase counters that say how
/// much work an answer took, extracted from the request-scoped sink
/// (the same recording sink whose snapshot is embedded in the response
/// document, so the numbers are deterministic and cache-safe).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Cost {
    /// Base rows the join/semijoin phases touched: root scan + hash
    /// build inputs + semijoin reduction inputs.
    rows_scanned: u64,
    /// Candidate explanations the engine scored.
    candidates: u64,
    /// Data-cube cells materialized for the candidate lattice.
    cube_cells: u64,
}

impl Cost {
    fn from_snapshot(snapshot: &Snapshot) -> Cost {
        let counter = |name: &str| snapshot.counters.get(name).copied().unwrap_or(0);
        Cost {
            rows_scanned: counter("join.root_rows")
                + counter("join.build_rows")
                + counter("semijoin.rows_in"),
            candidates: counter("engine.candidates_evaluated"),
            cube_cells: counter("cube.cells"),
        }
    }

    /// The JSON object spliced into the response document.
    fn to_json(self, cache: &str, epoch: u64) -> String {
        format!(
            "{{ \"rows_scanned\": {}, \"candidates\": {}, \"cube_cells\": {}, \
             \"cache\": \"{cache}\", \"epoch\": {epoch} }}",
            self.rows_scanned, self.candidates, self.cube_cells,
        )
    }

    /// The `X-Exq-Cost` header value: same facts, flat `k=v` pairs.
    fn to_header(self, cache: &str, epoch: u64) -> String {
        format!(
            "rows={};candidates={};cells={};cache={cache};epoch={epoch}",
            self.rows_scanned, self.candidates, self.cube_cells,
        )
    }
}

/// Splice `"cost": {...}` in as the last member of a rendered response
/// document (which always ends `…}\n` with the metrics block as its
/// final member). Done at render time, so the cost block is baked into
/// the cached bytes — a cache hit replays the *production* cost of the
/// answer it serves, while the `X-Exq-Cost` header reports the
/// (near-zero) cost of the hit itself.
fn with_cost_block(doc: &str, cost_json: &str) -> String {
    let trimmed = doc.trim_end();
    match trimmed.strip_suffix('}') {
        Some(body) => format!("{},\n  \"cost\": {cost_json}\n}}\n", body.trim_end()),
        None => doc.to_owned(), // not an object; leave untouched
    }
}

/// Fold a request's cost into the per-tenant accounting counters, keyed
/// by a sanitized `X-Exq-Tenant` value. Tenant names are normalized to
/// `[a-z0-9_]` (other characters become `_`) and capped, so arbitrary
/// header bytes cannot mint unbounded or exposition-breaking counter
/// names. Requests without the header are not accounted.
fn account_tenant(inner: &Inner, tenant: Option<&str>, cost: &Cost) {
    let Some(tenant) = tenant.and_then(sanitize_tenant) else {
        return;
    };
    inner
        .sink
        .add(&format!("server.tenant.cost.{tenant}.requests"), 1);
    inner.sink.add(
        &format!("server.tenant.cost.{tenant}.rows"),
        cost.rows_scanned,
    );
    inner.sink.add(
        &format!("server.tenant.cost.{tenant}.candidates"),
        cost.candidates,
    );
    inner.sink.add(
        &format!("server.tenant.cost.{tenant}.cells"),
        cost.cube_cells,
    );
}

/// Normalize a tenant header value into a counter-name-safe token.
fn sanitize_tenant(raw: &str) -> Option<String> {
    const MAX_TENANT_LEN: usize = 32;
    let token: String = raw
        .trim()
        .chars()
        .take(MAX_TENANT_LEN)
        .map(|c| match c.to_ascii_lowercase() {
            c @ ('a'..='z' | '0'..='9' | '_') => c,
            _ => '_',
        })
        .collect();
    (!token.is_empty()).then_some(token)
}

/// Fields shared by `/v1/explain` and `/v1/report` bodies.
struct QuestionParams {
    dataset: Arc<Dataset>,
    /// The dataset state this request runs against, snapshotted once at
    /// parse time: every step (schema resolution, cache key, pipeline)
    /// sees one consistent epoch even if an append lands mid-request.
    prepared: Arc<exq_core::prepared::PreparedDb>,
    epoch: u64,
    question: UserQuestion,
    attrs: Vec<exq_relstore::AttrRef>,
    top_k: usize,
    kind: DegreeKind,
    strategy: TopKStrategy,
    polarity: MinimalityPolarity,
    min_support: Option<f64>,
    naive: bool,
}

fn parse_params(inner: &Inner, body: &[u8]) -> Result<QuestionParams, Response> {
    let doc = crate::json::parse(body).map_err(|e| Response::error(400, &e.to_string()))?;
    let field_str = |name: &str| -> Result<String, Response> {
        doc.get(name)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| Response::error(422, &format!("missing or non-string `{name}`")))
    };
    let dataset_name = field_str("dataset")?;
    let dataset = inner
        .catalog
        .get(&dataset_name)
        .ok_or_else(|| Response::error(404, &format!("unknown dataset `{dataset_name}`")))?;
    let (prepared, epoch) = dataset.snapshot();
    let schema = prepared.db().schema();

    let question_text = field_str("question")?;
    let question = qparse::parse_question(schema, &question_text)
        .map_err(|e| Response::error(422, &format!("bad question: {e}")))?;

    let attr_items = doc
        .get("attrs")
        .and_then(Json::as_array)
        .ok_or_else(|| Response::error(422, "missing or non-array `attrs`"))?;
    let mut attrs = Vec::with_capacity(attr_items.len());
    for item in attr_items {
        let name = item
            .as_str()
            .ok_or_else(|| Response::error(422, "`attrs` entries must be strings"))?;
        let (rel, col) = name
            .split_once('.')
            .ok_or_else(|| Response::error(422, &format!("bad attr `{name}` (want Rel.attr)")))?;
        let attr = schema
            .attr(rel.trim(), col.trim())
            .map_err(|e| Response::error(422, &format!("bad attr `{name}`: {e}")))?;
        attrs.push(attr);
    }

    let opt_field = |name: &str| doc.get(name).filter(|v| !matches!(v, Json::Null));
    let top_k = match opt_field("top") {
        None => 5,
        Some(v) => v
            .as_usize()
            .ok_or_else(|| Response::error(422, "`top` must be a non-negative integer"))?,
    };
    let kind = match opt_field("by").map(|v| v.as_str()) {
        None | Some(Some("interv")) => DegreeKind::Intervention,
        Some(Some("aggr")) => DegreeKind::Aggravation,
        _ => return Err(Response::error(422, "`by` must be \"interv\" or \"aggr\"")),
    };
    let strategy = match opt_field("strategy").map(|v| v.as_str()) {
        None | Some(Some("selfjoin")) => TopKStrategy::MinimalSelfJoin,
        Some(Some("nominimal")) => TopKStrategy::NoMinimal,
        Some(Some("append")) => TopKStrategy::MinimalAppend,
        _ => {
            return Err(Response::error(
                422,
                "`strategy` must be \"nominimal\", \"selfjoin\", or \"append\"",
            ))
        }
    };
    let polarity = match opt_field("polarity").map(|v| v.as_str()) {
        None | Some(Some("general")) => MinimalityPolarity::PreferGeneral,
        Some(Some("specific")) => MinimalityPolarity::PreferSpecific,
        _ => {
            return Err(Response::error(
                422,
                "`polarity` must be \"general\" or \"specific\"",
            ))
        }
    };
    let min_support = match opt_field("min_support") {
        None => None,
        Some(v) => Some(
            v.as_f64()
                .ok_or_else(|| Response::error(422, "`min_support` must be a number"))?,
        ),
    };
    let naive = match opt_field("naive") {
        None => false,
        Some(v) => v
            .as_bool()
            .ok_or_else(|| Response::error(422, "`naive` must be a boolean"))?,
    };
    Ok(QuestionParams {
        dataset,
        prepared,
        epoch,
        question,
        attrs,
        top_k,
        kind,
        strategy,
        polarity,
        min_support,
        naive,
    })
}

fn handle_question(inner: &Inner, request: &Request, endpoint: Endpoint) -> (Response, RouteMeta) {
    let endpoint_name = match endpoint {
        Endpoint::Explain => "explain",
        Endpoint::Report => "report",
    };
    let meta = |cache: &'static str| RouteMeta {
        endpoint: endpoint_name,
        cache,
    };
    let parsed = inner.sink.time("server.request.parse", || {
        parse_params(inner, &request.body)
    });
    let params = match parsed {
        Ok(params) => params,
        Err(response) => return (response, meta("-")),
    };
    let schema = params.prepared.db().schema();
    let key = cache_key(
        schema,
        &CanonicalRequest {
            endpoint: endpoint_name,
            dataset: &params.dataset.name,
            epoch: params.epoch,
            question: &params.question,
            attrs: &params.attrs,
            top_k: params.top_k,
            kind: params.kind,
            strategy: params.strategy,
            polarity: params.polarity,
            min_support: params.min_support,
            naive: params.naive,
        },
    );
    let tenant = request.header("x-exq-tenant");
    let cached = inner
        .sink
        .time("server.request.cache", || inner.cache.get(&key));
    if let Some(doc) = cached {
        // The body already carries the production cost (baked in at
        // miss time, so hits stay byte-identical); the header reports
        // this request's own near-zero cost.
        let hit_cost = Cost::default();
        account_tenant(inner, tenant, &hit_cost);
        let response = Response::json(200, doc.as_bytes().to_vec())
            .with_header("x-exq-cost", &hit_cost.to_header("hit", params.epoch));
        return (response, meta("hit"));
    }
    let rendered = match endpoint {
        Endpoint::Explain => run_explain(inner, &params),
        Endpoint::Report => run_report(inner, &params),
    };
    let response = match rendered {
        Ok((doc, cost)) => {
            let doc = Arc::new(with_cost_block(&doc, &cost.to_json("miss", params.epoch)));
            inner.cache.insert(&key, Arc::clone(&doc));
            account_tenant(inner, tenant, &cost);
            Response::json(200, doc.as_bytes().to_vec())
                .with_header("x-exq-cost", &cost.to_header("miss", params.epoch))
        }
        Err(message) => Response::error(422, &message),
    };
    (response, meta("miss"))
}

/// A request-scoped explainer over the dataset's shared intermediates
/// (the epoch snapshot taken at parse time). Each request gets its own
/// recording sink, so the metrics embedded in the response describe
/// that request's work alone (deterministic → cacheable); the pipeline
/// itself runs sequentially per request.
fn request_explainer<'a>(params: &'a QuestionParams, sink: &MetricsSink) -> Explainer<'a> {
    let mut explainer = params
        .prepared
        .explainer(params.question.clone())
        .exec(exq_relstore::ExecConfig::sequential().with_metrics(sink.clone()))
        .attrs(params.attrs.iter().copied())
        .topk_strategy(params.strategy)
        .polarity(params.polarity);
    if let Some(threshold) = params.min_support {
        explainer = explainer.min_support(threshold);
    }
    if params.naive {
        explainer = explainer.force_naive();
    }
    explainer
}

fn run_explain(inner: &Inner, params: &QuestionParams) -> Result<(String, Cost), String> {
    inner.sink.incr("server.explain.runs");
    let request_sink = MetricsSink::recording();
    let db = params.prepared.db();
    let explainer = request_explainer(params, &request_sink);
    let (q_d, table_len, choice, ranked) = {
        let _span = inner.sink.span("server.request.explain");
        let q_d = explainer.q_d().map_err(|e| e.to_string())?;
        let (table, choice) = explainer.table().map_err(|e| e.to_string())?;
        let ranked = explainer
            .top(params.kind, params.top_k)
            .map_err(|e| e.to_string())?;
        (q_d, table.len(), choice, ranked)
    };
    let snapshot = request_sink.snapshot();
    let mut doc = inner.sink.time("server.request.render", || {
        jsonout::explain_doc(db, q_d, choice, table_len, &ranked, &snapshot)
    });
    doc.push('\n');
    Ok((doc, Cost::from_snapshot(&snapshot)))
}

fn run_report(inner: &Inner, params: &QuestionParams) -> Result<(String, Cost), String> {
    inner.sink.incr("server.report.runs");
    let request_sink = MetricsSink::recording();
    let explainer = request_explainer(params, &request_sink);
    let config = ReportConfig {
        top_k: params.top_k,
        drill_best: true,
        exec: exq_relstore::ExecConfig::sequential().with_metrics(request_sink.clone()),
    };
    // `report_doc` computes and renders in one pass, so the report path
    // books it all under the explain phase.
    let _span = inner.sink.span("server.request.explain");
    let mut doc = jsonout::report_doc(&explainer, &config).map_err(|e| e.to_string())?;
    doc.push('\n');
    Ok((doc, Cost::from_snapshot(&request_sink.snapshot())))
}

/// `POST /v1/datasets/{name}/rows`: append a batch of rows and bump the
/// dataset's epoch. Body shape:
///
/// ```json
/// { "rows": { "Author": [[1, "Ada", "MIT"], ...], "Authored": [...] } }
/// ```
///
/// Errors: malformed JSON → 400, unknown dataset → 404, over
/// [`MAX_APPEND_ROWS`] → 413, everything semantic (unknown relation,
/// arity or type mismatch, key violations) → 422. Success answers 200
/// with the new epoch in both the body and the `X-Exq-Epoch` header.
fn handle_append(inner: &Inner, request: &Request, name: &str) -> (Response, RouteMeta) {
    let meta = RouteMeta::uncached("append");
    let dataset = match inner.catalog.get(name) {
        Some(dataset) => dataset,
        None => {
            return (
                Response::error(404, &format!("unknown dataset `{name}`")),
                meta,
            )
        }
    };
    let doc = match crate::json::parse(&request.body) {
        Ok(doc) => doc,
        Err(e) => return (Response::error(400, &e.to_string()), meta),
    };
    // Parse against the *current* schema; the schema never changes
    // across epochs, so racing with a concurrent append is harmless.
    let (prepared, _epoch) = dataset.snapshot();
    let batch = match parse_append_batch(prepared.db().schema(), &doc) {
        Ok(batch) => batch,
        Err(response) => return (response, meta),
    };
    drop(prepared);
    let total: usize = batch.iter().map(|(_, rows)| rows.len()).sum();
    if total == 0 {
        return (Response::error(422, "batch appends no rows"), meta);
    }
    if total > MAX_APPEND_ROWS {
        return (
            Response::error(
                413,
                &format!("batch of {total} rows exceeds the {MAX_APPEND_ROWS}-row limit"),
            ),
            meta,
        );
    }
    inner.sink.incr("server.append.runs");
    let exec = exq_relstore::ExecConfig::sequential().with_metrics(inner.sink.clone());
    let appended = inner
        .sink
        .time("server.request.append", || dataset.append(batch, &exec));
    match appended {
        Ok((epoch, rows)) => {
            let body = format!(
                "{{\n  \"dataset\": \"{}\",\n  \"epoch\": {epoch},\n  \"rows_appended\": {rows}\n}}\n",
                exq_obs::escape_json(name),
            );
            (
                Response::json(200, body).with_header("x-exq-epoch", &epoch.to_string()),
                meta,
            )
        }
        Err(message) => (Response::error(422, &message), meta),
    }
}

/// Decode the `rows` object of an append body into `(relation, rows)`
/// pairs, coercing each JSON cell to the column's declared type.
fn parse_append_batch(
    schema: &exq_relstore::DatabaseSchema,
    doc: &Json,
) -> Result<exq_relstore::AppendBatch, Response> {
    let rows = doc
        .get("rows")
        .ok_or_else(|| Response::error(422, "missing `rows`"))?;
    let map = match rows {
        Json::Obj(map) => map,
        _ => {
            return Err(Response::error(
                422,
                "`rows` must be an object mapping relation names to arrays of rows",
            ))
        }
    };
    let mut batch = Vec::with_capacity(map.len());
    // `map` is a BTreeMap, so batch order is the sorted relation-name
    // order regardless of how the request spelled the object.
    for (rel_name, rel_rows) in map {
        let rel_idx = schema
            .relation_index(rel_name)
            .map_err(|e| Response::error(422, &e.to_string()))?;
        let rel = schema.relation(rel_idx);
        let items = rel_rows.as_array().ok_or_else(|| {
            Response::error(422, &format!("rows for `{rel_name}` must be an array"))
        })?;
        let mut decoded = Vec::with_capacity(items.len());
        for item in items {
            let cells = item.as_array().ok_or_else(|| {
                Response::error(422, &format!("each `{rel_name}` row must be an array"))
            })?;
            if cells.len() != rel.arity() {
                return Err(Response::error(
                    422,
                    &format!(
                        "`{rel_name}` rows have {} columns, got {}",
                        rel.arity(),
                        cells.len()
                    ),
                ));
            }
            let mut row = Vec::with_capacity(cells.len());
            for (col, cell) in cells.iter().enumerate() {
                let attr = &rel.attributes[col];
                row.push(json_cell_to_value(cell, attr.ty).map_err(|why| {
                    Response::error(422, &format!("{rel_name}.{}: {why}", attr.name))
                })?);
            }
            decoded.push(row);
        }
        batch.push((rel_name.clone(), decoded));
    }
    Ok(batch)
}

/// One JSON cell as a [`Value`](exq_relstore::Value) of declared type
/// `ty`. Native JSON values are used directly; strings on typed columns
/// are parsed with the same rules the CSV loader applies, so the HTTP
/// and CSV ingestion paths accept the same spellings.
fn json_cell_to_value(
    cell: &Json,
    ty: exq_relstore::ValueType,
) -> Result<exq_relstore::Value, String> {
    use exq_relstore::{Value, ValueType};
    // JSON has one number type; integers are exact only within 2^53.
    let as_exact_int =
        |n: f64| (n.fract() == 0.0 && n.abs() <= 9_007_199_254_740_992.0).then_some(n as i64);
    match (cell, ty) {
        (Json::Null, _) => Ok(Value::Null),
        (Json::Bool(b), ValueType::Bool | ValueType::Any) => Ok(Value::Bool(*b)),
        (Json::Num(n), ValueType::Int) => as_exact_int(*n)
            .map(Value::Int)
            .ok_or_else(|| format!("`{n}` is not an exact integer")),
        (Json::Num(n), ValueType::Float) => Ok(Value::Float(*n)),
        (Json::Num(n), ValueType::Any) => {
            Ok(as_exact_int(*n).map(Value::Int).unwrap_or(Value::Float(*n)))
        }
        (Json::Str(s), ValueType::Str | ValueType::Any) => Ok(Value::str(s)),
        (Json::Str(s), _) => {
            exq_relstore::csv::parse_value(s, ty).map_err(|_| format!("cannot parse `{s}` as {ty}"))
        }
        (_, _) => Err(format!("expected a {ty} value")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_block_splices_as_last_member() {
        let doc = "{\n  \"answer\": 1,\n  \"metrics\": {\n    \"x\": 2\n  }\n}\n";
        let cost = Cost {
            rows_scanned: 10,
            candidates: 3,
            cube_cells: 7,
        };
        let spliced = with_cost_block(doc, &cost.to_json("miss", 4));
        let parsed = crate::json::parse(spliced.as_bytes()).expect("spliced doc must parse");
        let block = parsed.get("cost").expect("cost present");
        assert_eq!(block.get("rows_scanned").and_then(Json::as_usize), Some(10));
        assert_eq!(block.get("cache").and_then(Json::as_str), Some("miss"));
        assert_eq!(block.get("epoch").and_then(Json::as_usize), Some(4));
        // Original members survive the splice.
        assert_eq!(parsed.get("answer").and_then(Json::as_usize), Some(1));
        assert!(spliced.ends_with("}\n"));
    }

    #[test]
    fn cost_reads_engine_counters_from_snapshot() {
        let sink = MetricsSink::recording();
        sink.add("join.root_rows", 5);
        sink.add("join.build_rows", 7);
        sink.add("semijoin.rows_in", 11);
        sink.add("engine.candidates_evaluated", 13);
        sink.add("cube.cells", 17);
        let cost = Cost::from_snapshot(&sink.snapshot());
        assert_eq!(
            cost,
            Cost {
                rows_scanned: 23,
                candidates: 13,
                cube_cells: 17,
            }
        );
        assert_eq!(
            cost.to_header("hit", 2),
            "rows=23;candidates=13;cells=17;cache=hit;epoch=2"
        );
    }

    #[test]
    fn tenant_names_are_sanitized_and_bounded() {
        assert_eq!(sanitize_tenant("Acme"), Some("acme".to_string()));
        assert_eq!(sanitize_tenant("  a-b.c  "), Some("a_b_c".to_string()));
        assert_eq!(sanitize_tenant(""), None);
        assert_eq!(sanitize_tenant("   "), None);
        let long = sanitize_tenant(&"x".repeat(100)).unwrap();
        assert_eq!(long.len(), 32);
        // Sanitized names render as legal Prometheus counter names.
        let sink = MetricsSink::recording();
        sink.add(
            &format!(
                "server.tenant.cost.{}.requests",
                sanitize_tenant("we?ird").unwrap()
            ),
            1,
        );
        assert!(sink.snapshot().to_prometheus().contains("we_ird"));
    }
}
