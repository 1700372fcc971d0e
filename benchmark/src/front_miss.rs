//! `front-miss`: through an in-process `router::Front` (2 threads, one
//! pooled connection per worker) to 2 one-thread workers, one
//! default-scale DBLP dataset per shard. 2 clients, a new connection per
//! request (how a one-shot CLI call or curl behaves), every request a
//! `top` nobody asked before, so every request is a miss. The explain is
//! small; proxy, pool and wire cost are the majority.

use crate::data;
use crate::harness::{ms_since, ns_per_call, Built, Class, Tally};
use crate::httprun::{span_mean_ms, Http, Live};
use crate::httpx::{self, explain_body, explain_digest, Req, Table, Via, CLIENTS};
use crate::report::Report;
use crate::rng::Rng;
use crate::serve_mix::{boot_server, Server};
use exq_obs::{MetricsSink, Snapshot};
use exq_relstore::Database;
use exq_router::{Front, FrontConfig, ShardMap};
use exq_serve::client;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

const WORKERS: usize = 2;
/// Requests per client per cycle.
const REQUESTS: usize = 25;

pub struct Topology {
    front: Front,
    workers: Vec<Server>,
}

impl Live for Topology {
    fn addr(&self) -> SocketAddr {
        self.front.addr()
    }

    /// Every tier records into one sink, so the snapshot of the tier
    /// that stops last holds all of them.
    fn stop(self) -> Snapshot {
        let mut last = self.front.shutdown();
        for worker in self.workers {
            last = worker.stop();
        }
        last
    }
}

pub struct FrontMiss {
    db: Arc<Database>,
    /// One dataset name per shard, index = shard.
    names: Vec<String>,
    lists: Vec<Vec<Req>>,
}

/// Names the 2-shard ring gives one each, as `repro loadtest` picks them.
fn one_name_per_shard() -> Vec<String> {
    let map = ShardMap::new(WORKERS);
    let mut names = vec![None; WORKERS];
    for i in 0.. {
        if names.iter().all(Option::is_some) {
            break;
        }
        let candidate = format!("dblp-{i}");
        names[map.shard_of(&candidate)].get_or_insert(candidate);
    }
    names.into_iter().flatten().collect()
}

/// Request `i` of client `c` sits in slot `c * REQUESTS + i` and asks the
/// dataset of shard `(c + i) % WORKERS`, so each client alternates shards.
fn shard_of_slot(slot: usize) -> usize {
    (slot / REQUESTS + slot % REQUESTS) % WORKERS
}

/// `[inst]`, and one request in five the heavier `[inst, name]`, so that
/// the 90th percentile sits in the middle of the heavy shape's cluster and
/// not on the noise tail of a single shape (today a timer hides both).
fn attrs_of_request(i: usize) -> &'static [&'static str] {
    data::DBLP_ATTRS[if i % 5 == 4 { 2 } else { 0 }]
}

pub fn setup(seed: u64) -> Built<FrontMiss> {
    let start = Instant::now();
    let pristine = data::dblp_db(seed, false);
    let generate_ms = ms_since(start);
    let names = one_name_per_shard();
    let mut tops: Vec<usize> = (1..=CLIENTS * REQUESTS).collect();
    Rng::stream(seed, "front-miss/tops").shuffle(&mut tops);
    let lists = (0..CLIENTS)
        .map(|c| {
            (0..REQUESTS)
                .map(|i| {
                    let slot = c * REQUESTS + i;
                    Req {
                        path: "/v1/explain".into(),
                        body: explain_body(
                            &names[shard_of_slot(slot)],
                            data::BUMP,
                            attrs_of_request(i),
                            tops[slot],
                        ),
                        slot,
                        append_order: None,
                    }
                })
                .collect()
        })
        .collect();
    Built {
        workload: FrontMiss {
            db: Arc::new(pristine.clone()),
            names,
            lists,
        },
        generate_ms,
        pristine,
    }
}

impl FrontMiss {
    fn boot_workers(&self, sink: &MetricsSink) -> Vec<Server> {
        self.names
            .iter()
            .enumerate()
            .map(|(shard, name)| boot_server(name, &self.db, 1, Some(shard as u64), sink))
            .collect()
    }

    /// The address of the worker owning the dataset a request names.
    fn owner(&self, workers: &[Server], req: &Req) -> SocketAddr {
        workers[shard_of_slot(req.slot)].addr()
    }
}

impl Http for FrontMiss {
    type Topology = Topology;

    fn boot(&self, sink: &MetricsSink) -> Topology {
        let front = Front::start_on(
            "127.0.0.1:0",
            FrontConfig {
                threads: CLIENTS,
                workers: WORKERS,
                per_worker_connections: 1,
                upstream_wait: Duration::from_secs(30),
                datasets: self.names.clone(),
                ..FrontConfig::default()
            },
            sink.clone(),
        )
        .expect("bind loopback front");
        let workers = self.boot_workers(sink);
        for (shard, worker) in workers.iter().enumerate() {
            front.upstreams().set_addr(shard, Some(worker.addr()));
        }
        Topology { front, workers }
    }

    fn lists(&self) -> &[Vec<Req>] {
        &self.lists
    }

    fn via(&self) -> Via {
        Via::Fresh
    }

    /// Every request asked directly of the worker that owns its dataset:
    /// through the front the answer must be the same bytes.
    fn reference(&self) -> Result<Table, String> {
        let workers = self.boot_workers(&MetricsSink::disabled());
        let mut table = Table::new();
        let mut ask = || {
            for req in self.lists.iter().flatten() {
                let response = client::post_json(self.owner(&workers, req), &req.path, &req.body)
                    .map_err(|e| format!("direct explain: {e}"))?;
                let (digest, epoch) = explain_digest(&response)
                    .ok_or_else(|| format!("slot {}: {}", req.slot, response.text()))?;
                table.insert((req.slot, epoch), digest);
            }
            Ok(())
        };
        let asked = ask();
        for worker in workers {
            worker.stop();
        }
        asked.map(|()| table)
    }

    fn extra_layers(
        &self,
        report: &mut Report,
        plain: &Tally,
        traced: &Tally,
        snapshot: &Snapshot,
    ) {
        let front = span_mean_ms(snapshot, "router.request");
        report.set("router.front.request_ms", front, traced.completed());
        report.set(
            "router.front.unattributed_ms",
            traced.mean_ms() - front,
            traced.completed(),
        );
        let (connects, reuses) = (
            snapshot.counter("router.upstream.connects"),
            snapshot.counter("router.upstream.reuses"),
        );
        report.set(
            "router.upstream.reuse_ratio",
            reuses as f64 / (connects + reuses).max(1) as f64,
            (connects + reuses) as usize,
        );
        let proxied: Vec<u64> = (0..WORKERS)
            .map(|s| snapshot.counter(&format!("router.proxied.shard.{s}")))
            .collect();
        let (most, least) = (proxied.iter().max().copied(), proxied.iter().min().copied());
        if let (Some(most), Some(least @ 1..)) = (most, least) {
            report.set("router.shard.balance", most as f64 / least as f64, WORKERS);
        }
        for (metric, counter) in [
            ("router.proxy.errors", "router.proxy.errors"),
            ("router.throttled", "router.throttled"),
        ] {
            report.set_per_cycle(metric, snapshot.counter(counter), traced.cycles);
        }

        let map = ShardMap::new(WORKERS);
        let mut i = 0;
        let ns = ns_per_call(20, 1000, || {
            i += 1;
            std::hint::black_box(map.shard_of(&self.names[i % WORKERS]));
        });
        report.set("router.shard.lookup_ns", ns, 20 * 1000);

        // The same cycle with the front taken out: each client posts to
        // the owning worker itself.
        let workers = self.boot_workers(&MetricsSink::disabled());
        let (direct, _) = httpx::cycle(
            |req| self.owner(&workers, req),
            &self.lists,
            Via::Fresh,
            f64::INFINITY,
            None,
            None,
        );
        for worker in workers {
            worker.stop();
        }
        report.attempted += direct.attempted;
        report.failed += direct.failed;
        let p50 = |t: &Tally| t.class(Class::Explain).p(50.0).unwrap_or(0.0);
        report.set(
            "router.added_p50_ms",
            p50(plain) - p50(&direct),
            direct.completed(),
        );
    }
}
