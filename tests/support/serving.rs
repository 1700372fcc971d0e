//! The serving contract, checked one way. Theorem 3.3 makes an answer a
//! function of the data alone, so a `200` served at epoch e must equal
//! the [`Model`]'s: a fresh one-thread server over a database rebuilt
//! from the first e acknowledged batches, asked one request at a time.
//! [`run`] drives [`Step`]s of concurrent clients against one server, an
//! in-process two-shard `router::Front` over `exq_serve` workers, or one
//! server behind a lying proxy, into a history of [`Record`]s; [`check`]
//! asserts the four [`Invariant`]s over it.

#![allow(dead_code)]

use exq::datagen::dblp;
use exq::obs::{escape_json, MetricsSink, Snapshot};
use exq::relstore::{AppendBatch, Database, ExecConfig, Value};
use exq::router::{Front, FrontConfig, ShardMap};
use exq::serve::client::{self, ClientResponse};
use exq::serve::{json, Catalog, Handle, ServerConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::{Arc, Barrier, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Zero every `"total_ns": N`: span wall times are the only wall-clock
/// content of an answer or a metrics dump.
pub fn scrub_total_ns(text: &str) -> String {
    let mut parts = text.split("\"total_ns\": ");
    let mut out = parts.next().unwrap_or_default().to_string();
    for part in parts {
        out += "\"total_ns\": 0";
        out += part.trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out
}

/// A named dataset: its initial rows, and batches a schedule may append
/// in any order (each adds `Authored` rows only).
pub struct Dataset {
    pub name: String,
    pub initial: Database,
    pub batches: Vec<AppendBatch>,
}

pub struct Fixtures {
    pub datasets: Vec<Dataset>,
    /// The question every read asks.
    pub question: String,
}

/// `db` without the rows of `rel` after its first `keep`, and those rows
/// cut into `n` append batches. Holding back a relation nothing references
/// keeps every prefix foreign-key-consistent.
pub fn hold_back(db: &Database, rel: &str, keep: usize, n: usize) -> (Database, Vec<AppendBatch>) {
    let held = db.schema().relation_index(rel).unwrap();
    let mut initial = Database::new(db.schema().clone());
    for r in 0..db.schema().relation_count() {
        let name = &db.schema().relation(r).name;
        let limit = if r == held { keep } else { usize::MAX };
        for row in db.relation(r).rows().take(limit) {
            initial.insert(name, row.to_vec()).unwrap();
        }
    }
    let rows: Vec<_> = db.relation(held).rows().skip(keep).collect();
    let batch = |c: &[&[Value]]| vec![(rel.to_string(), c.iter().map(|r| r.to_vec()).collect())];
    let batches = rows.chunks(rows.len().div_ceil(n).max(1));
    (initial, batches.map(batch).collect())
}

/// Two small DBLP datasets, named so that a two-shard front gives dataset
/// `i` to shard `i`, each holding back a fifth of its `Authored` rows as
/// three batches. Built once per test binary.
pub fn fixtures() -> &'static Fixtures {
    static FIXTURES: OnceLock<Fixtures> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        let map = ShardMap::new(2);
        let datasets = [(0, 42), (1, 7)].map(|(shard, seed)| {
            let full = dblp::generate(&dblp::DblpConfig {
                papers_per_year_base: 6,
                authors_per_institution: 4,
                seed,
                ..dblp::DblpConfig::default()
            });
            let keep = full.relation(1).len() * 4 / 5; // `Authored`
            let (initial, batches) = hold_back(&full, "Authored", keep, 3);
            let mut names = (0..).map(|i| format!("dblp-{i}"));
            let name = names.find(|n| map.shard_of(n) == shard).unwrap();
            Dataset {
                name,
                initial,
                batches,
            }
        });
        let question = include_str!("../../assets/questions/bump.exq").to_string();
        let datasets = datasets.into();
        Fixtures { datasets, question }
    })
}

#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct Request {
    /// The dataset the request names, if that dataset exists.
    pub dataset: Option<usize>,
    /// The fixture batch an append carries.
    pub batch: Option<usize>,
    pub path: String,
    /// `None` for a `GET`.
    pub body: Option<String>,
    /// Announce the body, send half of it, then close the write side.
    pub half: bool,
}

fn post(dataset: Option<usize>, path: &str, body: String) -> Request {
    let mut post = get(path);
    (post.dataset, post.body) = (dataset, Some(body));
    post
}

/// A `GET` of `path`.
pub fn get(path: &str) -> Request {
    let path = path.to_string();
    Request {
        path,
        ..Request::default()
    }
}

fn response(status: u16, headers: Vec<(String, String)>, body: String) -> ClientResponse {
    let body = body.into_bytes();
    ClientResponse {
        status,
        headers,
        body,
    }
}

impl Request {
    fn is_append(&self) -> bool {
        self.path.ends_with("/rows")
    }

    /// Send on a fresh connection and read the whole response.
    pub fn send(&self, addr: SocketAddr) -> std::io::Result<ClientResponse> {
        let body = self.body.as_deref().map(str::as_bytes);
        let method = if body.is_some() { "POST" } else { "GET" };
        if !self.half {
            return client::request(addr, method, &self.path, body);
        }
        let (path, body) = (&self.path, body.unwrap_or_default());
        let mut stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        let length = 2 * body.len();
        let head = format!("POST {path} HTTP/1.1\r\ncontent-length: {length}\r\n\r\n");
        stream.write_all(&[head.as_bytes(), body].concat())?;
        stream.shutdown(Shutdown::Write)?;
        let mut raw = String::new();
        stream.read_to_string(&mut raw)?;
        let (head, body) = raw.split_once("\r\n\r\n").unwrap_or((&raw, ""));
        let status = head.get(9..12).and_then(|s| s.parse().ok()).unwrap_or(0);
        Ok(response(status, Vec::new(), body.to_string()))
    }
}

/// A `POST /v1/datasets/{name}/rows` body for one append batch.
pub fn append_body(batch: &AppendBatch) -> String {
    let cell = |v: &Value| match v {
        Value::Str(s) => format!("\"{}\"", escape_json(s)),
        other => other.to_string(),
    };
    let row = |r: &Vec<Value>| format!("[{}]", r.iter().map(cell).collect::<Vec<_>>().join(","));
    let relation = |(name, rows): &(String, Vec<Vec<Value>>)| {
        let rows: Vec<String> = rows.iter().map(row).collect();
        format!("\"{}\": [{}]", escape_json(name), rows.join(","))
    };
    let relations: Vec<String> = batch.iter().map(relation).collect();
    format!("{{\"rows\": {{{}}}}}", relations.join(", "))
}

/// An explain naming dataset `name` as written (so it may carry escapes).
/// `respell` reorders the keys, re-spaces the JSON and writes the
/// smoothing constant as `1e-4`: the same canonical request.
fn explain(fx: &Fixtures, name: &str, attrs: &str, top: usize, respell: bool) -> String {
    let attrs: Vec<_> = attrs.split(' ').map(|a| format!("\"{a}\"")).collect();
    let attrs = attrs.join(", ");
    if respell {
        let q = escape_json(&fx.question.replace("smoothing 0.0001", "smoothing 1e-4"));
        format!("{{\n  \"top\": {top},\n  \"attrs\": [{attrs}],\n  \"question\": \"{q}\",\n  \"dataset\": \"{name}\"\n}}")
    } else {
        let q = escape_json(&fx.question);
        format!("{{\"dataset\": \"{name}\", \"question\": \"{q}\", \"attrs\": [{attrs}], \"top\": {top}}}")
    }
}

/// An explain of dataset `d` over the space-separated `attrs`; [`report`]
/// turns it into a report.
pub fn ask(fx: &Fixtures, d: usize, attrs: &str, top: usize, respell: bool) -> Request {
    let body = explain(fx, &fx.datasets[d].name, attrs, top, respell);
    post(Some(d), "/v1/explain", body)
}

pub fn report(explain: Request) -> Request {
    let path = "/v1/report".to_string();
    Request { path, ..explain }
}

/// Append fixture batch `b` to dataset `d`.
pub fn append(fx: &Fixtures, d: usize, b: usize) -> Request {
    let ds = &fx.datasets[d];
    let path = format!("/v1/datasets/{}/rows", ds.name);
    let mut append = post(Some(d), &path, append_body(&ds.batches[b]));
    append.batch = Some(b);
    append
}

/// The distinct reads a seed's clients draw from and every sweep asks:
/// per dataset, an explain and its respelling, another explain, and a
/// report, with seeded attrs and `top`.
pub fn reads(fx: &Fixtures, seed: u64) -> Vec<Request> {
    let attrs = ["Author.inst", "Author.name", "Author.dom Author.inst"];
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out = Vec::new();
    for d in 0..fx.datasets.len() {
        // Attrs and `top` in 1, 3, 5, both seeded.
        let ask = |i: usize, respell| ask(fx, d, attrs[i % 3], 2 * (i / 3) + 1, respell);
        let [a, b, c] = [0; 3].map(|_| rng.random_range(0..9));
        out.extend([ask(a, false), ask(a, true)]);
        out.extend([ask(b, false), report(ask(c, false))]);
    }
    out
}

/// Requests to refuse. The malformed explains must be refused alike by
/// both tiers although the front reads the dataset out of the body
/// itself; the appends (a duplicate key, a dangling foreign key, bad
/// JSON) must leave the epoch alone.
pub fn refusals(fx: &Fixtures) -> Vec<Request> {
    let (a, b) = (&fx.datasets[0].name, &fx.datasets[1].name);
    let bad = |d, body| post(d, "/v1/explain", body);
    let whole = explain(fx, a, "Author.inst", 3, false);
    let named = format!("\"dataset\": \"{a}\"");
    let respell = |with: &str| bad(None, whole.replacen(&named, with, 1));
    let escaped = a.replace('-', "\\u002d");
    let mut out = vec![
        bad(Some(0), explain(fx, &escaped, "Author.inst", 3, false)),
        respell(&format!("{named}, \"dataset\": \"{b}\"")),
        respell(&format!("\"options\": {{{named}}}")),
        respell("\"dataset\": 7"),
        bad(None, whole[..whole.len() / 2].to_string()),
        bad(None, explain(fx, "absent", "Author.inst", 3, false)),
        bad(Some(1), explain(fx, b, "Author.nope", 3, false)),
        get("/v1/explain"),
        get("/nope"),
    ];
    for (d, ds) in fx.datasets.iter().enumerate() {
        let duplicate = ds.initial.relation(1).row(0).to_vec(); // `Authored`
        let dangling = vec![Value::str("nobody"), duplicate[1].clone()];
        let path = format!("/v1/datasets/{}/rows", ds.name);
        let one = |row| append_body(&vec![("Authored".to_string(), vec![row])]);
        let refuse = |body| post(Some(d), &path, body);
        out.extend([refuse(one(duplicate)), refuse(one(dangling))]);
        out.push(refuse("{\"rows\": {\"A\": [[".into()));
    }
    out
}

/// `clients` seeded lists of ten: reads, refusals, half-written bodies
/// and scrapes; every batch of each dataset in `appendable` is sent once,
/// by a random client at a random point.
pub fn mix(fx: &Fixtures, seed: u64, clients: usize, appendable: &[usize]) -> Vec<Vec<Request>> {
    // Reads weigh three times as much as the other requests.
    let scrapes = ["/metrics", "/v1/datasets", "/healthz"].map(get).into();
    let reads = reads(fx, seed);
    let pool = [reads.clone(), reads.clone(), reads, refusals(fx), scrapes].concat();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed);
    let mut lists = vec![Vec::new(); clients];
    for list in &mut lists {
        for _ in 0..10 {
            let mut pick = pool[rng.random_range(0..pool.len())].clone();
            pick.half = rng.random_range(0..20) == 0 && pick.body.is_some();
            list.push(pick);
        }
    }
    for &d in appendable {
        for b in 0..fx.datasets[d].batches.len() {
            let list = &mut lists[rng.random_range(0..clients)];
            list.insert(rng.random_range(0..=list.len()), append(fx, d, b));
        }
    }
    lists
}

/// What a run drives: a correct server, or one behind a proxy in the
/// clients' path that breaks the contract on purpose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// One server holding every dataset.
    Server,
    /// An in-process front over one worker per dataset.
    Front,
    /// Replays the first `200` seen for a body, whatever was appended since.
    StaleCache,
    /// Acknowledges every append at epoch 1 without forwarding it.
    AckWithoutForward,
}

pub enum Step {
    /// Concurrent clients, each sending its list in order.
    Clients(Vec<Vec<Request>>),
    /// Shut worker `i` down and unpublish it.
    Kill(usize),
    /// Publish a fresh worker `i` over the original catalog.
    Replace(usize),
}

/// Sweep, run `clients` all at once, sweep again. A sweep is one client
/// asking `seed`'s reads, the catalog listing, a scrape and the retained
/// traces (so a scraped exemplar can be looked up).
pub fn swept(fx: &Fixtures, seed: u64, clients: Vec<Vec<Request>>) -> Vec<Step> {
    let gets = ["/v1/datasets", "/metrics", "/v1/debug/traces"].map(get);
    let sweep = vec![reads(fx, seed).into_iter().chain(gets).collect()];
    [sweep.clone(), clients, sweep].map(Step::Clients).into()
}

/// [`swept`] around four clients' seeded mix, which appends dataset 1's
/// batches at random points, one client per batch of dataset 0, and one
/// client sending every refusal and a half-written read.
pub fn seeded(fx: &Fixtures, seed: u64) -> Vec<Step> {
    let mut refusals = refusals(fx);
    refusals.push(reads(fx, seed).swap_remove(0));
    refusals.last_mut().unwrap().half = true;
    let mut clients = mix(fx, seed, 4, &[1]);
    clients.extend((0..fx.datasets[0].batches.len()).map(|b| vec![append(fx, 0, b)]));
    clients.push(refusals);
    swept(fx, seed, clients)
}

/// One request of a run's history.
#[derive(Debug, Clone)]
pub struct Record {
    pub client: usize,
    /// The step that sent it.
    pub step: usize,
    pub request: Request,
    /// Status `0` when no response arrived.
    pub response: ClientResponse,
    /// The epoch a `200` claims per dataset.
    pub epochs: Vec<(usize, u64)>,
    pub start: Instant,
    pub end: Instant,
}

impl Record {
    /// The cache outcome its `X-Exq-Cost` names, `hit` or `miss`.
    pub fn cache(&self) -> Option<&str> {
        let cost = self.response.header("x-exq-cost")?;
        cost.split(';').find_map(|kv| kv.strip_prefix("cache="))
    }

    fn describe(&self) -> String {
        let (c, step, epochs) = (self.client, self.step, &self.epochs);
        let (path, status) = (&self.request.path, self.response.status);
        format!("client {c} step {step}: {path} -> {status} at {epochs:?}")
    }
}

/// A run's history, the final snapshot of the tier that answered the
/// clients (the server, or the front), and the workers' merged.
pub struct Run {
    pub history: Vec<Record>,
    pub tier: Snapshot,
    pub workers: Snapshot,
}

#[expect(clippy::disallowed_methods, reason = "a history's wall intervals")]
fn now() -> Instant {
    Instant::now()
}

/// The number after the first `"epoch": ` in `text`.
fn epoch_in(text: &str) -> Option<u64> {
    let rest = text.split_once("\"epoch\": ")?.1;
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The dataset a body line names, else the one `q` names.
fn dataset_of(fx: &Fixtures, q: &Request, line: &str) -> Option<usize> {
    let named = |d: &usize| line.contains(&format!("\"name\": \"{}\"", fx.datasets[*d].name));
    (0..fx.datasets.len()).find(named).or(q.dataset)
}

/// The (dataset, epoch) of each `"epoch": N` line of a `200`'s body.
fn claimed_epochs(fx: &Fixtures, q: &Request, response: &ClientResponse) -> Vec<(usize, u64)> {
    if response.status != 200 {
        return Vec::new();
    }
    let body = response.text();
    let claim = |line: &str| Some((dataset_of(fx, q, line)?, epoch_in(line)?));
    body.lines().filter_map(claim).collect()
}

/// A `t`-thread server holding every dataset (or as `shard` `i`, dataset
/// `i` alone) rebuilt from its initial rows and its `held` batches.
fn rebuilt(fx: &Fixtures, held: &[Vec<usize>], t: usize, shard: Option<usize>) -> Handle {
    let mut catalog = Catalog::new();
    for (d, (ds, batches)) in fx.datasets.iter().zip(held).enumerate() {
        let mut db = ds.initial.clone();
        for (relation, rows) in batches.iter().flat_map(|&b| &ds.batches[b]) {
            for row in rows {
                db.insert(relation, row.clone()).unwrap();
            }
        }
        if shard.is_none_or(|i| i == d) {
            let exec = ExecConfig::sequential();
            let added = catalog.insert_database(&ds.name, Arc::new(db), &exec);
            added.unwrap();
        }
    }
    let config = ServerConfig {
        threads: t,
        shard_id: shard.map(|i| i as u64),
        // Retain every trace, so scrapes carry exemplars.
        trace_slow_ms: Some(0),
        ..ServerConfig::default()
    };
    exq::serve::start(catalog, config, MetricsSink::recording()).unwrap()
}

/// The replies a [`Target::StaleCache`] proxy replays.
type Seen = Mutex<BTreeMap<Request, ClientResponse>>;

/// What a lying proxy answers: one request at a time, forwarded to the
/// server at `to` unless it lies.
fn proxy(lie: Target, seen: &Seen, q: &Request, to: SocketAddr) -> std::io::Result<ClientResponse> {
    let mut seen = seen.lock().unwrap();
    if let Some(stale) = seen.get(q) {
        return Ok(stale.clone());
    }
    if lie == Target::AckWithoutForward && q.batch.is_some() {
        let ack = format!("{{\n  \"dataset\": \"{}\",\n  \"epoch\": 1\n}}\n", q.path);
        return Ok(response(200, vec![("x-exq-epoch".into(), "1".into())], ack));
    }
    let reply = q.send(to)?;
    if lie == Target::StaleCache && q.body.is_some() && reply.status == 200 {
        seen.insert(q.clone(), reply.clone());
    }
    Ok(reply)
}

/// Run `steps` against a fresh `target` over `fx`. Server threads, and
/// through a front its threads, worker threads and per-worker
/// connections, are all `t`.
pub fn run(fx: &Fixtures, target: Target, t: usize, steps: &[Step]) -> Run {
    let (n, sharded) = (fx.datasets.len(), target == Target::Front);
    let worker = |i| rebuilt(fx, &vec![Vec::new(); n], t, sharded.then_some(i));
    let count = if sharded { n } else { 1 };
    let mut workers: Vec<_> = (0..count).map(|i| Some(worker(i))).collect();
    let front = sharded.then(|| {
        let config = FrontConfig {
            threads: t,
            workers: n,
            per_worker_connections: t,
            datasets: fx.datasets.iter().map(|ds| ds.name.clone()).collect(),
            ..FrontConfig::default()
        };
        let front = Front::start_on("127.0.0.1:0", config, MetricsSink::recording()).unwrap();
        for (i, worker) in workers.iter().flatten().enumerate() {
            front.upstreams().set_addr(i, Some(worker.addr()));
        }
        front
    });
    let upstreams = front.as_ref().map(Front::upstreams);
    let server = workers[0].as_ref().map(Handle::addr).unwrap();
    let addr = front.as_ref().map_or(server, Front::addr);
    let seen = Mutex::default();
    let record = |client, step, request: &Request| {
        let start = now();
        let sent = match target {
            Target::Server | Target::Front => request.send(addr),
            lie => proxy(lie, &seen, request, addr),
        };
        let end = now();
        let response = sent.unwrap_or_else(|e| response(0, Vec::new(), e.to_string()));
        let (epochs, request) = (claimed_epochs(fx, request, &response), request.clone());
        Record {
            client,
            step,
            request,
            response,
            epochs,
            start,
            end,
        }
    };
    let (mut history, mut merged) = (Vec::new(), Snapshot::default());
    for (step, action) in steps.iter().enumerate() {
        let (i, replace) = match action {
            Step::Kill(i) => (*i, false),
            Step::Replace(i) => (*i, true),
            Step::Clients(lists) => {
                // Every client starts together.
                let start = Barrier::new(lists.len());
                std::thread::scope(|scope| {
                    let (record, start, mut clients) = (&record, &start, Vec::new());
                    for (c, list) in lists.iter().enumerate() {
                        let sent = move || {
                            start.wait();
                            list.iter().map(|q| record(c, step, q)).collect::<Vec<_>>()
                        };
                        clients.push(scope.spawn(sent));
                    }
                    history.extend(clients.into_iter().flat_map(|c| c.join().unwrap()));
                });
                continue;
            }
        };
        if let Some(old) = workers[i].take() {
            merged.merge(&old.shutdown());
        }
        workers[i] = replace.then(|| worker(i));
        let (addr, front) = (workers[i].as_ref().map(Handle::addr), upstreams.as_ref());
        front.expect("a front's worker").set_addr(i, addr);
    }
    let front = front.map(Front::shutdown);
    for worker in workers.into_iter().flatten() {
        merged.merge(&worker.shutdown());
    }
    let tier = front.unwrap_or_else(|| merged.clone());
    Run {
        history,
        tier,
        workers: merged,
    }
}

/// Answers from fresh one-thread servers over rebuilt databases.
pub struct Model<'a> {
    fx: &'a Fixtures,
    /// Per dataset, the acknowledged batches in epoch order.
    acked: Vec<Vec<usize>>,
    /// Reference servers by the batches each dataset holds.
    servers: BTreeMap<Vec<Vec<usize>>, Handle>,
}

impl<'a> Model<'a> {
    pub fn new(fx: &'a Fixtures, acked: Vec<Vec<usize>>) -> Model<'a> {
        let servers = BTreeMap::new();
        Model { fx, acked, servers }
    }

    /// What a fresh server over each dataset rebuilt at its epoch in
    /// `epochs` answers, with those epochs written over the rebuilt
    /// datasets' epoch 0; `None` past the acknowledged batches.
    pub fn answer(&mut self, epochs: &[u64], request: &Request) -> Option<(u16, String)> {
        let mut held = Vec::new();
        for (acked, &e) in self.acked.iter().zip(epochs) {
            held.push(acked.get(..e as usize)?.to_vec());
        }
        let fx = self.fx;
        let server = self.servers.entry(held.clone());
        let server = server.or_insert_with(|| rebuilt(fx, &held, 1, None));
        let response = request.send(server.addr()).ok()?;
        let mut body = String::new();
        for line in response.text().split_inclusive('\n') {
            let epoch = dataset_of(fx, request, line).map_or(0, |d| epochs[d]);
            body.push_str(&line.replacen("\"epoch\": 0 }", &format!("\"epoch\": {epoch} }}"), 1));
        }
        Some((response.status, body))
    }
}

impl Drop for Model<'_> {
    fn drop(&mut self) {
        for (_, server) in std::mem::take(&mut self.servers) {
            server.shutdown();
        }
    }
}

/// The serving contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Invariant {
    /// A `200` at epoch e equals the model on the first e batches after
    /// [`scrub_total_ns`], and a cache hit replays a miss's bytes.
    Answer,
    /// A dataset's acknowledged epochs are 1..=n, one per batch, and no
    /// response is older than an acknowledgement that ended before its
    /// request began (so none is stale and no batch is lost).
    Epoch,
    /// A non-`200` is an enumerated, bounded error, and every response is
    /// counted exactly once by the tier that wrote it.
    Error,
    /// A refusal equals what one server holding every dataset answers.
    Parity,
}

#[derive(Debug, Clone)]
pub struct Violation {
    pub invariant: Invariant,
    pub what: String,
}

/// The statuses a request may be refused with.
const REFUSALS: [u16; 7] = [400, 404, 405, 408, 413, 422, 503];

/// Every violation of the contract in `run`.
pub fn violations(fx: &Fixtures, run: &Run) -> Vec<Violation> {
    use Invariant::*;
    let mut out = Vec::new();
    macro_rules! flag {
        ($invariant:expr, $($what:tt)*) => {
            out.push(Violation { invariant: $invariant, what: format!($($what)*) })
        };
    }
    let (h, n) = (&run.history, fx.datasets.len());

    // Acknowledgements first: the model is built from them.
    let mut acked = vec![Vec::new(); n];
    for (d, acked) in acked.iter_mut().enumerate() {
        let name = &fx.datasets[d].name;
        let of = |r: &Record| r.epochs.iter().find(|c| c.0 == d).map(|c| c.1);
        let claims: Vec<_> = h.iter().filter_map(|r| Some((r, of(r)?))).collect();
        let appends = claims.iter().filter(|c| c.0.request.is_append());
        let mut acks: Vec<_> = appends.map(|(r, e)| (*e, r.request.batch)).collect();
        acks.sort();
        *acked = acks.iter().filter_map(|a| a.1).collect();
        let once = acked.iter().collect::<BTreeSet<_>>().len() == acks.len();
        if !once || !(1..).zip(&acks).all(|(e, a)| a.0 == e) {
            flag!(Epoch, "{name}: acknowledged (epoch, batch) {acks:?}");
        }
        for &(later, epoch) in &claims {
            let newer = |c: &&(&Record, u64)| c.0.end < later.start && c.1 > epoch;
            if let Some((earlier, _)) = claims.iter().filter(newer).max_by_key(|c| c.1) {
                let (later, earlier) = (later.describe(), earlier.describe());
                flag!(
                    Epoch,
                    "{name}: [{later}] began after [{earlier}] ended: stale or lost"
                );
            }
        }
    }

    let mut model = Model::new(fx, acked);
    for r in h {
        let (q, what, body) = (&r.request, r.describe(), r.response.text());
        match r.response.status {
            // Health, scrapes and debug documents describe the tier, not the data.
            200 if q.path.starts_with("/v1/debug/") || q.path.contains("health") => {}
            200 if q.path == "/metrics" => {}
            200 if q.is_append() => {
                let ack = q.batch.zip(r.epochs.first()).map(|(b, &(d, e))| {
                    let rows: usize = fx.datasets[d].batches[b].iter().map(|(_, r)| r.len()).sum();
                    let name = &fx.datasets[d].name;
                    format!("{{\n  \"dataset\": \"{name}\",\n  \"epoch\": {e},\n  \"rows_appended\": {rows}\n}}\n")
                });
                let header = r
                    .response
                    .header("x-exq-epoch")
                    .and_then(|v| v.parse().ok());
                if ack.as_deref() != Some(&*body) || header != r.epochs.first().map(|c| c.1) {
                    flag!(Answer, "[{what}] acknowledged as {body:?}");
                }
            }
            200 => {
                let mut epochs = vec![0; n];
                r.epochs.iter().for_each(|&(d, e)| epochs[d] = e);
                let Some((status, want)) = model.answer(&epochs, q) else {
                    flag!(Epoch, "[{what}] is past every acknowledgement");
                    continue;
                };
                let (got, want) = (scrub_total_ns(&body), scrub_total_ns(&want));
                if status != 200 || got != want {
                    let first = got.lines().zip(want.lines()).find(|(a, b)| a != b);
                    flag!(Answer, "[{what}] is not the model's {status}: {first:?}");
                }
                let missed =
                    |m: &Record| m.cache() == Some("miss") && m.response.body == r.response.body;
                if r.cache() == Some("hit") && !h.iter().any(missed) {
                    flag!(Answer, "[{what}] hit replays no miss's bytes");
                }
            }
            s if !REFUSALS.contains(&s) => flag!(Error, "[{what}] is no refusal: {body}"),
            s => {
                let error = |m: &BTreeMap<String, json::Json>| {
                    m.get("error").and_then(json::Json::as_str).is_some() && m.len() == 1
                };
                if !matches!(json::parse(body.as_bytes()), Ok(json::Json::Obj(m)) if error(&m)) {
                    flag!(Error, "[{what}] body is not {{\"error\": …}}: {body:?}");
                }
                let retry = r.response.header("retry-after").unwrap_or("0");
                if s == 503 && !retry.parse::<u64>().is_ok_and(|s| s > 0) {
                    flag!(Error, "[{what}] has no delay-seconds Retry-After");
                } else if s != 503 && q.batch.is_some() {
                    flag!(Parity, "[{what}] refused a fixture batch: {body}");
                } else if s != 503 && s != 408 {
                    // Unlike 503 and 408, a refusal is a function of the request.
                    let (want, got) = (model.answer(&vec![0; n], q), (s, body));
                    if want.as_ref().is_some_and(|want| *want != got) {
                        flag!(Parity, "[{what}] {got:?}; one server answers {want:?}");
                    }
                }
            }
        }
    }

    // A snapshot holds one tier's counters: the server's or the front's.
    let shed = run.tier.counter("server.rejected_busy") + run.tier.counter("router.throttled");
    let classes = [
        ("ok", 200..201, 0),
        ("client_error", 400..500, 0),
        ("server_error", 500..600, shed),
    ];
    for (class, statuses, shed) in classes {
        let count = |tier| run.tier.counter(&format!("{tier}.responses.{class}"));
        let got = count("server") + count("router") + shed;
        let is = |r: &&Record| statuses.contains(&r.response.status);
        let want = h.iter().filter(is).count() as u64;
        if got != want {
            flag!(Error, "responses.{class} counted {got}, not {want}");
        }
    }
    out
}

/// Assert the contract over `run`, naming each violation.
pub fn check(fx: &Fixtures, run: &Run) {
    let found = violations(fx, run);
    assert!(found.is_empty(), "{} violations: {found:#?}", found.len());
}
