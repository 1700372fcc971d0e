//! The front process: parse a sliver, admit, route, proxy, observe.
//!
//! The front is deliberately thin. It parses each request only far
//! enough to learn **which dataset** it names — the path segment for
//! appends, the `"dataset"` field for explain/report — then proxies the
//! request verbatim to the owning worker over a pooled keep-alive
//! connection and streams the worker's body back unchanged, so a
//! response through the router is byte-identical to one from a
//! single-process server. Requests the front cannot attribute to a
//! dataset still go to a worker (shard 0), which renders the same
//! canonical error body a direct client would see.
//!
//! What the front *adds*: per-tenant admission control (the
//! [`crate::bucket`] gate, `X-Exq-Tenant` header), trace-id propagation
//! (the front allocates the id and passes it down in `X-Exq-Trace-Id`,
//! so one trace names the request in both tiers), an `X-Exq-Shard`
//! response header naming the worker that answered, and the `router.*`
//! counter family with a front-latency histogram.

use crate::bucket::TokenBuckets;
use crate::shard::ShardMap;
use crate::upstream::{CheckoutError, Upstreams};
use exq_obs::{Exemplar, MetricsSink, Snapshot};
use exq_serve::accesslog::{AccessEntry, AccessLog};
use exq_serve::client::ClientResponse;
use exq_serve::http::{Limits, Request, Response};
use exq_serve::{json, pump};
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every fixed-name `router.*` counter the front and supervisor record,
/// pre-registered at startup and catalogued in `assets/obs/counters.txt`.
/// The per-shard `router.proxied.shard.{i}` family is registered
/// dynamically (one per worker) and catalogued as a wildcard.
pub const ROUTER_COUNTERS: &[&str] = &[
    "router.requests",
    "router.responses.ok",
    "router.responses.client_error",
    "router.responses.server_error",
    "router.throttled",
    "router.proxy.errors",
    "router.upstream.connects",
    "router.upstream.reuses",
    "router.health.checks",
    "router.health.failures",
    "router.worker.restarts",
    "router.scrape.partial",
];

/// Front tuning knobs.
#[derive(Debug, Clone)]
pub struct FrontConfig {
    /// Front worker threads serving client connections.
    pub threads: usize,
    /// Pending-connection queue depth; beyond it, `503` + `Retry-After`.
    pub queue_depth: usize,
    /// How many worker processes sit behind the front.
    pub workers: usize,
    /// Connection-pool capacity per worker. Must not exceed the
    /// worker's thread count: a keep-alive connection pins a worker
    /// thread.
    pub per_worker_connections: usize,
    /// Per-tenant admitted requests per second (`None` disables
    /// admission control).
    pub rate_limit: Option<f64>,
    /// How long a proxying thread may wait for a pooled upstream
    /// connection before answering `503` (saturated worker). The
    /// default keeps the front snappy under overload; embedders that
    /// prefer queueing to shedding (the bench harness) raise it.
    pub upstream_wait: Duration,
    /// Per-request wall-clock budget for reading the client's request.
    pub request_timeout: Duration,
    /// HTTP parser limits for client requests.
    pub limits: Limits,
    /// Every dataset name in the catalog, for the front's
    /// `GET /v1/health` topology document.
    pub datasets: Vec<String>,
    /// Structured access log destination (same line shape as the
    /// workers', with `shard` naming the worker that answered).
    /// Defaults to disabled.
    pub access_log: AccessLog,
}

impl Default for FrontConfig {
    fn default() -> FrontConfig {
        FrontConfig {
            threads: 4,
            queue_depth: 64,
            workers: 1,
            per_worker_connections: 4,
            rate_limit: None,
            upstream_wait: Duration::from_millis(500),
            request_timeout: Duration::from_secs(10),
            limits: Limits::default(),
            datasets: Vec::new(),
            access_log: AccessLog::disabled(),
        }
    }
}

struct FrontInner {
    shards: ShardMap,
    upstreams: Arc<Upstreams>,
    buckets: Option<TokenBuckets>,
    sink: MetricsSink,
    shutdown: Arc<AtomicBool>,
    next_trace: AtomicU64,
    config: FrontConfig,
}

/// A running front. Workers are *not* started here: the supervisor (or
/// an embedding test) publishes their addresses through
/// [`Front::upstreams`].
pub struct Front {
    addr: SocketAddr,
    inner: Arc<FrontInner>,
    pump: pump::Pump,
}

impl Front {
    /// Bind `addr` and start the front's accept and worker threads.
    /// Pre-registers the full `router.*` catalogue (idle fronts expose
    /// every counter at 0).
    pub fn start_on(
        addr: impl ToSocketAddrs,
        config: FrontConfig,
        sink: MetricsSink,
    ) -> std::io::Result<Front> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        for counter in ROUTER_COUNTERS {
            sink.add(counter, 0);
        }
        for shard in 0..config.workers.max(1) {
            sink.add(&format!("router.proxied.shard.{shard}"), 0);
        }
        let shutdown = Arc::new(AtomicBool::new(false));
        let inner = Arc::new(FrontInner {
            shards: ShardMap::new(config.workers),
            upstreams: Arc::new(Upstreams::new(
                config.workers,
                config.per_worker_connections,
                config.upstream_wait,
            )),
            buckets: config.rate_limit.map(TokenBuckets::new),
            sink,
            shutdown: Arc::clone(&shutdown),
            next_trace: AtomicU64::new(0),
            config,
        });
        let options = pump::PumpOptions {
            threads: inner.config.threads,
            queue_depth: inner.config.queue_depth,
            name: "exq-front",
        };
        let reject_inner = Arc::clone(&inner);
        let serve_inner = Arc::clone(&inner);
        let pump = pump::start(
            listener,
            &options,
            shutdown,
            move |stream| {
                reject_inner.sink.incr("router.throttled");
                pump::reject(stream, &pump::busy_response());
            },
            move |stream| {
                let inner = Arc::clone(&serve_inner);
                pump::serve_connection(stream, move |stream, carry| {
                    serve_one(&inner, stream, carry)
                })
            },
        )?;
        Ok(Front {
            addr: local,
            inner,
            pump,
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The per-shard connection pools — the supervisor publishes worker
    /// addresses here as they come up, move, or die.
    pub fn upstreams(&self) -> Arc<Upstreams> {
        Arc::clone(&self.inner.upstreams)
    }

    /// Stop accepting, drain in-flight client connections, join all
    /// threads, and return the front's final metrics snapshot.
    pub fn shutdown(self) -> Snapshot {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.pump.join();
        self.inner.sink.snapshot()
    }
}

/// One front request: read, admit, route, proxy, respond. Runs inside
/// [`pump::serve_connection`], exactly like the worker tier: keep-alive
/// on request, silent idle close.
fn serve_one(inner: &FrontInner, stream: &mut TcpStream, carry: &mut Vec<u8>) -> bool {
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
    let (request, response, trace_id) = match read {
        Ok(Some(request)) => {
            inner.sink.incr("router.requests");
            // The front allocates the trace id (honoring one the client
            // already sent) and hands it to the worker, so both tiers
            // log the same id for one request — and stamps it onto its
            // own trace events for the merged Chrome timeline.
            let trace_id = request
                .header("x-exq-trace-id")
                .and_then(|v| v.trim().parse::<u64>().ok())
                .filter(|&id| id > 0)
                .unwrap_or_else(|| inner.next_trace.fetch_add(1, Ordering::Relaxed) + 1);
            inner.sink.set_trace(trace_id);
            let response = {
                let _span = inner.sink.span("router.request");
                route(inner, &request, trace_id)
            }
            .with_header("x-exq-trace-id", &trace_id.to_string());
            (Some(request), response, trace_id)
        }
        Ok(None) => return false,
        Err(response) => (None, response, 0),
    };
    match response.status {
        200 => inner.sink.incr("router.responses.ok"),
        400..=499 => inner.sink.incr("router.responses.client_error"),
        _ => inner.sink.incr("router.responses.server_error"),
    }
    let keep_alive = request.as_ref().is_some_and(|r| {
        r.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("keep-alive"))
    }) && response.status != 408
        && !inner.shutdown.load(Ordering::SeqCst);
    let written = stream
        .write_all(&response.to_bytes_with(keep_alive))
        .and_then(|()| stream.flush());
    let latency = started.elapsed();
    inner.sink.observe_duration("router.latency.front", latency);
    if inner.config.access_log.is_enabled() {
        let header_of = |name: &str| {
            response
                .extra_headers
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| v.as_str())
        };
        // The worker that answered, as stamped by the proxy; the cache
        // outcome rides in the `X-Exq-Cost` header it copied through.
        let shard = header_of("x-exq-shard").and_then(|v| v.parse::<u64>().ok());
        let cache = header_of("x-exq-cost")
            .and_then(|v| v.split(';').find_map(|kv| kv.strip_prefix("cache=")))
            .unwrap_or("-");
        inner.config.access_log.record(&AccessEntry {
            tenant: request.as_ref().and_then(|r| r.header("x-exq-tenant")),
            shard,
            endpoint: request.as_ref().map_or("-", |r| {
                r.path.split_once('?').map_or(r.path.as_str(), |(p, _)| p)
            }),
            status: response.status,
            latency_ns: u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX),
            trace_id,
            cache,
        });
    }
    keep_alive && written.is_ok()
}

fn route(inner: &FrontInner, request: &Request, trace_id: u64) -> Response {
    let path = request
        .path
        .split_once('?')
        .map_or(request.path.as_str(), |(p, _)| p);
    // Work-bearing routes pass admission control, then proxy to the
    // dataset's shard.
    if request.method == "POST" {
        let dataset = match path {
            "/v1/explain" | "/v1/report" => dataset_from_body(&request.body),
            _ => dataset_from_append_path(path).map(str::to_string),
        };
        let routable = matches!(path, "/v1/explain" | "/v1/report")
            || dataset_from_append_path(path).is_some();
        if routable {
            if let Some(throttled) = admit(inner, request) {
                return throttled;
            }
            // No dataset parsed (bad JSON, missing field): any worker
            // renders the same canonical error body a single-process
            // server would, so shard 0 serves it.
            let shard = dataset.map_or(0, |name| inner.shards.shard_of(&name));
            return proxy(inner, request, shard, trace_id);
        }
    }
    match (request.method.as_str(), path) {
        ("GET", "/healthz") => {
            Response::json(200, "{\n  \"status\": \"ok\",\n  \"role\": \"front\"\n}\n")
        }
        ("GET", "/v1/health") => Response::json(200, health_doc(inner)),
        ("GET", "/metrics") => Response::text(200, fleet_prometheus(inner, trace_id)),
        ("GET", "/v1/metrics") => {
            let query = request.path.split_once('?').map_or("", |(_, q)| q);
            if query.split('&').any(|pair| pair == "format=prometheus") {
                Response::text(200, fleet_prometheus(inner, trace_id))
            } else if query.split('&').any(|pair| pair == "format=snapshot") {
                let (fleet, exemplars) = fleet_snapshot(inner, trace_id);
                let plain: Vec<Exemplar> = exemplars.into_iter().map(|(_, e)| e).collect();
                Response::text(200, exq_obs::encode_snapshot(&fleet, &plain))
            } else {
                let (fleet, _) = fleet_snapshot(inner, trace_id);
                Response::json(200, fleet.to_json() + "\n")
            }
        }
        ("GET", "/v1/datasets") => merged_datasets(inner, trace_id),
        ("GET", "/v1/debug/requests") => merged_debug(inner, "/v1/debug/requests", trace_id),
        ("GET", "/v1/debug/traces") => merged_debug(inner, "/v1/debug/traces", trace_id),
        (
            _,
            "/healthz" | "/v1/health" | "/v1/datasets" | "/metrics" | "/v1/metrics"
            | "/v1/debug/requests" | "/v1/debug/traces" | "/v1/explain" | "/v1/report",
        ) => Response::error(405, "method not allowed"),
        _ => Response::error(404, "no such endpoint"),
    }
}

/// Apply admission control; `Some` is the throttle response.
fn admit(inner: &FrontInner, request: &Request) -> Option<Response> {
    let buckets = inner.buckets.as_ref()?;
    let tenant = request.header("x-exq-tenant").unwrap_or("");
    if buckets.try_take(tenant) {
        None
    } else {
        inner.sink.incr("router.throttled");
        Some(
            Response::error(503, "rate limit exceeded; retry shortly")
                .with_header("retry-after", "1"),
        )
    }
}

/// The `"dataset"` field of an explain/report body, if it parses.
fn dataset_from_body(body: &[u8]) -> Option<String> {
    let doc = json::parse(body).ok()?;
    doc.get("dataset")?.as_str().map(str::to_string)
}

/// The `{name}` of `/v1/datasets/{name}/rows`.
fn dataset_from_append_path(path: &str) -> Option<&str> {
    path.strip_prefix("/v1/datasets/")
        .and_then(|rest| rest.strip_suffix("/rows"))
        .filter(|name| !name.is_empty() && !name.contains('/'))
}

/// Forward `request` to `shard`'s worker and convert the reply. Any
/// failure to reach the worker is a `503` + `Retry-After` — the
/// supervisor is restarting it, and clients already speak that dialect
/// — never a hang and never a made-up answer.
fn proxy(inner: &FrontInner, request: &Request, shard: usize, trace_id: u64) -> Response {
    let mut lease = match inner.upstreams.checkout(shard) {
        Ok(lease) => lease,
        Err(CheckoutError::Down) => {
            return Response::error(503, "shard worker unavailable; retry shortly")
                .with_header("retry-after", "1");
        }
        Err(CheckoutError::Busy) => {
            return Response::error(503, "shard worker saturated; retry shortly")
                .with_header("retry-after", "1");
        }
    };
    inner.sink.incr(if lease.was_pooled() {
        "router.upstream.reuses"
    } else {
        "router.upstream.connects"
    });
    let trace = trace_id.to_string();
    // Forward the tenant too: the worker's per-tenant cost accounting
    // keys off the same header the front's admission control uses.
    let mut headers: Vec<(&str, &str)> = vec![("x-exq-trace-id", &trace)];
    if let Some(tenant) = request.header("x-exq-tenant") {
        headers.push(("x-exq-tenant", tenant));
    }
    let sent = lease.conn.request_with(
        &request.method,
        &request.path,
        Some(&request.body),
        &headers,
    );
    match sent {
        Ok(upstream) => {
            inner.sink.incr(&format!("router.proxied.shard.{shard}"));
            inner.upstreams.checkin(shard, lease);
            convert(upstream, shard)
        }
        Err(_) => {
            inner.sink.incr("router.proxy.errors");
            inner.upstreams.discard(shard, lease);
            Response::error(503, "shard worker failed mid-request; retry shortly")
                .with_header("retry-after", "1")
        }
    }
}

/// A worker's reply as a front [`Response`]: body bytes verbatim,
/// meaningful headers (`X-Exq-Epoch`, `Retry-After`) copied through,
/// plus an `X-Exq-Shard` header naming the worker that answered. The
/// worker's own trace-id header is dropped — the front stamps the same
/// id on its way out.
fn convert(upstream: ClientResponse, shard: usize) -> Response {
    let content_type = match upstream.header("content-type") {
        Some(value) if value.starts_with("text/plain") => {
            "text/plain; version=0.0.4; charset=utf-8"
        }
        _ => "application/json",
    };
    let mut extra_headers = Vec::new();
    for name in ["x-exq-epoch", "x-exq-cost", "retry-after"] {
        if let Some(value) = upstream.header(name) {
            extra_headers.push((name.to_string(), value.to_string()));
        }
    }
    extra_headers.push(("x-exq-shard".to_string(), shard.to_string()));
    Response {
        status: upstream.status,
        body: upstream.body,
        content_type,
        extra_headers,
    }
}

/// `GET /v1/datasets` through the front: every worker holds only its
/// shard of the catalog, so the front fans out and merges. Entry lines
/// are re-sorted by dataset name so the merged document is byte-for-byte
/// what a single-process server holding the full catalog would emit.
/// Any unreachable worker fails the whole listing (a partial catalog
/// silently missing datasets is worse than a retryable error).
fn merged_datasets(inner: &FrontInner, trace_id: u64) -> Response {
    let mut entries: Vec<(String, String)> = Vec::new();
    for shard in 0..inner.shards.workers() {
        let mut lease = match inner.upstreams.checkout(shard) {
            Ok(lease) => lease,
            Err(_) => {
                return Response::error(503, "shard worker unavailable; retry shortly")
                    .with_header("retry-after", "1");
            }
        };
        inner.sink.incr(if lease.was_pooled() {
            "router.upstream.reuses"
        } else {
            "router.upstream.connects"
        });
        let trace = trace_id.to_string();
        let fetched =
            lease
                .conn
                .request_with("GET", "/v1/datasets", None, &[("x-exq-trace-id", &trace)]);
        let body = match fetched {
            Ok(response) if response.status == 200 => {
                inner.sink.incr(&format!("router.proxied.shard.{shard}"));
                inner.upstreams.checkin(shard, lease);
                response.text()
            }
            Ok(_) | Err(_) => {
                inner.sink.incr("router.proxy.errors");
                inner.upstreams.discard(shard, lease);
                return Response::error(503, "shard catalog listing failed; retry shortly")
                    .with_header("retry-after", "1");
            }
        };
        for line in body.lines() {
            if let Some(rest) = line.strip_prefix("    { \"name\": \"") {
                let name = json_string_prefix(rest);
                entries.push((name, line.trim_end_matches(',').to_string()));
            }
        }
    }
    entries.sort();
    let mut doc = String::from("{\n  \"datasets\": [\n");
    let last = entries.len();
    for (i, (_, line)) in entries.iter().enumerate() {
        doc.push_str(line);
        if i + 1 != last {
            doc.push(',');
        }
        doc.push('\n');
    }
    doc.push_str("  ]\n}\n");
    Response::json(200, doc)
}

/// Fetch one worker's GET endpoint over a pooled connection, returning
/// the body on a 200. Scrape traffic is the front's own observability
/// fan-in, not routed client work, so it books neither
/// `router.proxied.shard.*` nor — crucially — `router.proxy.errors`:
/// a worker mid-restart must degrade a scrape (the caller counts
/// `router.scrape.partial`), never fail it or dirty the proxy-error
/// budget the supervisor's drain report asserts on.
fn fetch_from_worker(
    inner: &FrontInner,
    shard: usize,
    path: &str,
    trace_id: u64,
) -> Result<String, ()> {
    let mut lease = inner.upstreams.checkout(shard).map_err(|_| ())?;
    inner.sink.incr(if lease.was_pooled() {
        "router.upstream.reuses"
    } else {
        "router.upstream.connects"
    });
    let trace = trace_id.to_string();
    let fetched = lease
        .conn
        .request_with("GET", path, None, &[("x-exq-trace-id", &trace)]);
    match fetched {
        Ok(response) if response.status == 200 => {
            inner.upstreams.checkin(shard, lease);
            Ok(response.text())
        }
        Ok(_) => {
            inner.upstreams.checkin(shard, lease);
            Err(())
        }
        Err(_) => {
            inner.upstreams.discard(shard, lease);
            Err(())
        }
    }
}

/// Scrape-time fan-in: pull every live worker's mergeable snapshot and
/// fold them into the front's own. The merged result carries
///
/// * **fleet-aggregate** counters and histograms — exact sums and
///   bucket-wise histogram merges, so a fleet p99 read off the merged
///   buckets is the true quantile bound of the concatenated samples,
///   not an average of per-shard percentiles;
/// * **per-shard labelled copies** of every worker counter, named
///   `<counter>.shard.<i>` so the Prometheus renderer's shard-family
///   rule turns them into `exq_<counter>_shard{shard="i"}`.
///
/// Downed or mid-restart shards are skipped and tallied in
/// `router.scrape.partial`; a scrape never fails outright. Returns the
/// merged snapshot and each retained exemplar tagged with its shard.
fn fleet_snapshot(inner: &FrontInner, trace_id: u64) -> (Snapshot, Vec<(usize, Exemplar)>) {
    let mut scraped: Vec<(usize, Snapshot, Vec<Exemplar>)> = Vec::new();
    let mut partial = 0u64;
    for shard in 0..inner.shards.workers() {
        match fetch_from_worker(inner, shard, "/v1/metrics?format=snapshot", trace_id)
            .and_then(|text| exq_obs::decode_snapshot(&text).map_err(|_| ()))
        {
            Ok((snapshot, exemplars)) => scraped.push((shard, snapshot, exemplars)),
            Err(()) => partial += 1,
        }
    }
    if partial > 0 {
        inner.sink.add("router.scrape.partial", partial);
    }
    // The front's own snapshot is the merge base, taken *after* the
    // fan-out so the scrape bookkeeping above is already in it.
    let mut fleet = inner.sink.snapshot();
    let mut tagged = Vec::new();
    for (shard, snapshot, exemplars) in scraped {
        for (name, value) in &snapshot.counters {
            fleet
                .counters
                .insert(format!("{name}.shard.{shard}"), *value);
        }
        fleet.merge(&snapshot);
        tagged.extend(exemplars.into_iter().map(|e| (shard, e)));
    }
    (fleet, tagged)
}

/// The fleet Prometheus exposition: merged families plus one
/// shard-labelled exemplar comment per retained trace.
fn fleet_prometheus(inner: &FrontInner, trace_id: u64) -> String {
    let (fleet, exemplars) = fleet_snapshot(inner, trace_id);
    let mut text = fleet.to_prometheus();
    for (shard, exemplar) in &exemplars {
        text.push_str(&exemplar.to_prometheus_comment(Some(*shard as u64)));
        text.push('\n');
    }
    text
}

/// Debug fan-in (`/v1/debug/requests`, `/v1/debug/traces`): each live
/// worker's document embedded verbatim under its shard id, downed
/// shards counted in `"partial"` (and `router.scrape.partial`). Always
/// answers 200 — a half-degraded fleet is exactly when the flight
/// recorders are most wanted.
fn merged_debug(inner: &FrontInner, path: &str, trace_id: u64) -> Response {
    use std::fmt::Write as _;
    let mut shard_docs: Vec<(usize, String)> = Vec::new();
    let mut partial = 0u64;
    for shard in 0..inner.shards.workers() {
        match fetch_from_worker(inner, shard, path, trace_id) {
            Ok(doc) => shard_docs.push((shard, doc)),
            Err(()) => partial += 1,
        }
    }
    if partial > 0 {
        inner.sink.add("router.scrape.partial", partial);
    }
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"partial\": {partial},");
    out.push_str("  \"shards\": {");
    let last = shard_docs.len();
    for (i, (shard, doc)) in shard_docs.iter().enumerate() {
        let sep = if i + 1 == last { "" } else { "," };
        // Worker documents are single JSON objects; embed them verbatim
        // (re-indenting would mean re-serializing, and byte fidelity is
        // worth more than pretty nesting here).
        let _ = write!(out, "\n    \"{shard}\": {}{sep}", doc.trim_end());
    }
    out.push_str(if shard_docs.is_empty() {
        "}\n}\n"
    } else {
        "\n  }\n}\n"
    });
    Response::json(200, out)
}

/// The decoded content of a JSON string whose opening quote was already
/// consumed: scan to the closing quote (backslash-escape aware) and
/// unescape. Used to sort merged catalog entries by their *actual*
/// dataset name, matching the BTreeMap order a single process uses.
fn json_string_prefix(rest: &str) -> String {
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => break,
            '\\' => match chars.next() {
                Some('n') => out.push('\n'),
                Some('r') => out.push('\r'),
                Some('t') => out.push('\t'),
                Some('u') => {
                    let hex: String = chars.by_ref().take(4).collect();
                    if let Some(decoded) =
                        u32::from_str_radix(&hex, 16).ok().and_then(char::from_u32)
                    {
                        out.push(decoded);
                    }
                }
                Some(other) => out.push(other),
                None => break,
            },
            _ => out.push(c),
        }
    }
    out
}

/// The front's `GET /v1/health`: topology at a glance — worker count,
/// which shards are currently routable, and which datasets the
/// consistent-hash ring assigns to each.
fn health_doc(inner: &FrontInner) -> String {
    use std::fmt::Write as _;
    let workers = inner.shards.workers();
    let mut groups: Vec<Vec<&str>> = vec![Vec::new(); workers];
    for name in &inner.config.datasets {
        groups[inner.shards.shard_of(name)].push(name);
    }
    let mut out = format!(
        "{{\n  \"status\": \"ok\",\n  \"role\": \"front\",\n  \"workers\": {workers},\n  \"shards\": [\n"
    );
    for (shard, group) in groups.iter().enumerate() {
        let alive = inner.upstreams.addr(shard).is_some();
        let sep = if shard + 1 == workers { "" } else { "," };
        let names: Vec<String> = group
            .iter()
            .map(|n| format!("\"{}\"", exq_obs::escape_json(n)))
            .collect();
        let _ = writeln!(
            out,
            "    {{ \"shard\": {shard}, \"alive\": {alive}, \"datasets\": [{}{}{}] }}{sep}",
            if names.is_empty() { "" } else { " " },
            names.join(", "),
            if names.is_empty() { "" } else { " " },
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use exq_serve::client;
    use exq_serve::http;
    use std::io::Read;
    use std::sync::atomic::AtomicUsize;

    /// A stub worker: parses real HTTP, answers via `handler`, honors
    /// keep-alive. Good enough to test routing, proxying, and header
    /// conversion without building a catalog.
    fn stub_worker(handler: impl Fn(&Request) -> Response + Send + 'static) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(mut stream) = stream else { continue };
                let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
                let mut carry = Vec::new();
                let mut chunk = [0u8; 4096];
                loop {
                    let request = loop {
                        match http::parse_request(&carry, &Limits::default()) {
                            Ok(Some((request, consumed))) => {
                                carry.drain(..consumed);
                                break Some(request);
                            }
                            Ok(None) => match stream.read(&mut chunk) {
                                Ok(0) => break None,
                                Ok(n) => carry.extend_from_slice(&chunk[..n]),
                                Err(_) => break None,
                            },
                            Err(_) => break None,
                        }
                    };
                    let Some(request) = request else { break };
                    let keep = request
                        .header("connection")
                        .is_some_and(|v| v.eq_ignore_ascii_case("keep-alive"));
                    let response = handler(&request);
                    if stream.write_all(&response.to_bytes_with(keep)).is_err() || !keep {
                        break;
                    }
                }
            }
        });
        addr
    }

    fn front_with(config: FrontConfig, worker: Option<SocketAddr>) -> Front {
        let front =
            Front::start_on(("127.0.0.1", 0), config, MetricsSink::recording()).expect("front");
        if let Some(addr) = worker {
            front.upstreams().set_addr(0, Some(addr));
        }
        front
    }

    #[test]
    fn front_serves_its_own_endpoints() {
        let front = front_with(
            FrontConfig {
                datasets: vec!["dblp".to_string()],
                ..FrontConfig::default()
            },
            None,
        );
        let healthz = client::get(front.addr(), "/healthz").unwrap();
        assert_eq!(healthz.status, 200);
        assert!(healthz.text().contains("\"role\": \"front\""));
        let health = client::get(front.addr(), "/v1/health").unwrap();
        assert!(health.text().contains("\"alive\": false"));
        assert!(health.text().contains("\"dblp\""));
        // With its only worker down, the fleet scrape degrades to the
        // front's own families — a valid exposition, never a failure.
        let metrics = client::get(front.addr(), "/metrics").unwrap();
        assert_eq!(metrics.status, 200);
        let exposition = metrics.text();
        exq_obs::check_prometheus(&exposition).unwrap_or_else(|e| panic!("{e}\n{exposition}"));
        assert!(exposition.contains("router_requests"), "{exposition}");
        // Debug fan-in likewise: 200 with the downed shard tallied.
        let debug = client::get(front.addr(), "/v1/debug/requests").unwrap();
        assert_eq!(debug.status, 200);
        let doc = json::parse(debug.text().as_bytes()).unwrap();
        assert_eq!(doc.get("partial").and_then(|v| v.as_usize()), Some(1));
        let snapshot = front.shutdown();
        assert_eq!(snapshot.counter("router.requests"), 4);
        assert_eq!(snapshot.counter("router.responses.ok"), 4);
        // One partial per degraded fan-out: /metrics and the debug fan-in.
        assert_eq!(snapshot.counter("router.scrape.partial"), 2);
        assert_eq!(snapshot.counter("router.proxy.errors"), 0);
    }

    /// ISSUE 10 regression: every GET endpoint a worker serves must be
    /// reachable *through* the front — either answered by the front
    /// itself or fanned in from the workers. `/v1/debug/requests`
    /// 404ing at the front was the original bug.
    #[test]
    fn every_worker_get_endpoint_is_reachable_through_the_front() {
        let worker = exq_serve::start(
            exq_serve::Catalog::new(),
            exq_serve::ServerConfig {
                threads: 1,
                shard_id: Some(0),
                ..exq_serve::ServerConfig::default()
            },
            MetricsSink::recording(),
        )
        .unwrap();
        let front = front_with(FrontConfig::default(), Some(worker.addr()));
        for path in [
            "/healthz",
            "/v1/health",
            "/v1/datasets",
            "/metrics",
            "/v1/metrics",
            "/v1/metrics?format=prometheus",
            "/v1/metrics?format=snapshot",
            "/v1/debug/requests",
            "/v1/debug/traces",
        ] {
            let reply = client::get(front.addr(), path).unwrap();
            assert_eq!(reply.status, 200, "GET {path} through the front");
        }
        front.shutdown();
        worker.shutdown();
    }

    /// Fleet scrape: merged counters conserve the per-worker values,
    /// per-shard labelled families appear, fleet histograms merge
    /// bucket-wise, and retained-trace exemplars ride along
    /// shard-tagged. Uses two *real* workers so the wire format, the
    /// merge, and the exposition are all exercised end to end.
    #[test]
    fn fleet_scrape_merges_workers_with_conservation_and_exemplars() {
        let start_worker = |shard: u64| {
            exq_serve::start(
                exq_serve::Catalog::new(),
                exq_serve::ServerConfig {
                    threads: 1,
                    shard_id: Some(shard),
                    trace_slow_ms: Some(0), // retain everything → exemplars exist
                    ..exq_serve::ServerConfig::default()
                },
                MetricsSink::recording(),
            )
            .unwrap()
        };
        let workers = [start_worker(0), start_worker(1)];
        let front = front_with(
            FrontConfig {
                workers: 2,
                ..FrontConfig::default()
            },
            None,
        );
        for (shard, worker) in workers.iter().enumerate() {
            front.upstreams().set_addr(shard, Some(worker.addr()));
        }
        // Touch both workers through the front (the datasets fan-out
        // hits every shard) so they have non-trivial counters and at
        // least one retained trace each before the first scrape.
        let listing = client::get(front.addr(), "/v1/datasets").unwrap();
        assert_eq!(listing.status, 200);

        // Fleet exposition: checker-clean, with per-shard families for
        // worker counters and shard-tagged exemplar comments.
        let prom = client::get(front.addr(), "/metrics").unwrap();
        let text = prom.text();
        exq_obs::check_prometheus(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        for family in [
            "exq_server_requests_shard{shard=\"0\"}",
            "exq_server_requests_shard{shard=\"1\"}",
            "exq_server_requests ",
            "exq_server_latency_other_bucket",
        ] {
            assert!(text.contains(family), "missing {family} in {text}");
        }
        assert!(
            text.lines()
                .any(|l| l.starts_with("# exemplar ") && l.contains("shard=\"")),
            "no shard-tagged exemplar comment in {text}"
        );

        // Conservation: fleet server.requests == Σ per-worker values,
        // accounting for the deterministic self-counting offsets (a
        // worker's scrape GET increments its own counter before the
        // snapshot is taken, so each later direct scrape reads one
        // more than the fleet scrape saw).
        let wire = client::get(front.addr(), "/v1/metrics?format=snapshot").unwrap();
        let (fleet, _) = exq_obs::decode_snapshot(&wire.text()).unwrap();
        let fleet_requests = fleet.counter("server.requests");
        let mut direct_sum = 0;
        for worker in &workers {
            let direct = client::get(worker.addr(), "/v1/metrics?format=snapshot").unwrap();
            let (snapshot, _) = exq_obs::decode_snapshot(&direct.text()).unwrap();
            direct_sum += snapshot.counter("server.requests");
        }
        assert_eq!(
            direct_sum,
            fleet_requests + 2,
            "fleet scrape must conserve per-worker request counts"
        );
        // The per-shard labelled copies sum to the fleet aggregate too.
        assert_eq!(
            fleet.counter("server.requests.shard.0") + fleet.counter("server.requests.shard.1"),
            fleet_requests,
        );
        // Histogram mass conserves bucket-wise: the merged histogram's
        // count equals its bucket-count total.
        let merged = fleet
            .histograms
            .get("server.latency.other")
            .expect("fleet latency histogram");
        assert_eq!(
            merged.count,
            merged.buckets.iter().map(|(_, c)| c).sum::<u64>()
        );

        let snapshot = front.shutdown();
        assert_eq!(snapshot.counter("router.scrape.partial"), 0);
        assert_eq!(snapshot.counter("router.proxy.errors"), 0);
        for worker in workers {
            worker.shutdown();
        }
    }

    #[test]
    fn proxy_round_trips_bodies_and_tags_the_shard() {
        let body = "{\n  \"explanations\": []\n}\n";
        let worker = stub_worker(move |request| {
            assert!(
                request.header("x-exq-trace-id").is_some(),
                "front must propagate a trace id"
            );
            Response::json(200, body).with_header("x-exq-epoch", "7")
        });
        let front = front_with(FrontConfig::default(), Some(worker));
        let reply = client::post_json(
            front.addr(),
            "/v1/explain",
            "{ \"dataset\": \"dblp\", \"question\": \"?\" }",
        )
        .unwrap();
        assert_eq!(reply.status, 200);
        assert_eq!(reply.text(), body, "proxied body is byte-identical");
        assert_eq!(reply.header("x-exq-shard"), Some("0"));
        assert_eq!(reply.header("x-exq-epoch"), Some("7"));
        assert!(reply.header("x-exq-trace-id").is_some());
        let snapshot = front.shutdown();
        assert_eq!(snapshot.counter("router.proxied.shard.0"), 1);
        assert_eq!(snapshot.counter("router.upstream.connects"), 1);
    }

    #[test]
    fn down_worker_means_bounded_503_not_a_hang() {
        let front = front_with(FrontConfig::default(), None);
        let reply =
            client::post_json(front.addr(), "/v1/explain", "{ \"dataset\": \"x\" }").unwrap();
        assert_eq!(reply.status, 503);
        assert_eq!(reply.header("retry-after"), Some("1"));
        front.shutdown();
    }

    #[test]
    fn admission_control_throttles_past_the_burst() {
        let served = Arc::new(AtomicUsize::new(0));
        let counted = Arc::clone(&served);
        let worker = stub_worker(move |_| {
            counted.fetch_add(1, Ordering::SeqCst);
            Response::json(200, "{}\n")
        });
        let front = front_with(
            FrontConfig {
                // rate 0.5/s → burst max(1.0) = 1 token: first request
                // admitted, second throttled (no refill that fast).
                rate_limit: Some(0.5),
                ..FrontConfig::default()
            },
            Some(worker),
        );
        let first =
            client::post_json(front.addr(), "/v1/explain", "{ \"dataset\": \"x\" }").unwrap();
        assert_eq!(first.status, 200);
        let second =
            client::post_json(front.addr(), "/v1/explain", "{ \"dataset\": \"x\" }").unwrap();
        assert_eq!(second.status, 503);
        assert_eq!(second.header("retry-after"), Some("1"));
        // A different tenant has its own bucket.
        let mut conn = client::Connection::new(front.addr());
        let other = conn
            .request_with(
                "POST",
                "/v1/explain",
                Some(b"{ \"dataset\": \"x\" }"),
                &[("x-exq-tenant", "other")],
            )
            .unwrap();
        assert_eq!(other.status, 200);
        let snapshot = front.shutdown();
        assert_eq!(snapshot.counter("router.throttled"), 1);
        assert_eq!(served.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn unparseable_bodies_still_reach_a_worker_for_the_canonical_error() {
        let worker = stub_worker(|_| Response::error(400, "bad json"));
        let front = front_with(FrontConfig::default(), Some(worker));
        let reply = client::post_json(front.addr(), "/v1/explain", "not json at all").unwrap();
        assert_eq!(reply.status, 400, "the worker's error comes through");
        assert_eq!(reply.header("x-exq-shard"), Some("0"));
        front.shutdown();
    }
}
