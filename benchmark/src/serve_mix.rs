//! `serve-mix`: the serving path users get through the CLI batch client.
//! One `exq_serve` on loopback (2 threads, default cache) over the
//! `dblp-live` dataset; 2 clients on keep-alive connections; per client
//! per cycle 100 requests: 2 appends of 100 held-back `Authored` rows, 10
//! forced misses (a `top` nobody asked before), 88 re-asks from a hot set
//! of 4 questions. Appends bump the epoch beside the reads, so a cache or
//! ingest change that hurts the other shows.

use crate::data;
use crate::harness::{explain, ms_since, ns_per_call, Built, Class, Tally};
use crate::httprun::{p50_of_posts, Http, Live};
use crate::httpx::{append_body, explain_body, explain_digest, Req, Table, Via, CLIENTS};
use crate::report::Report;
use crate::rng::Rng;
use crate::spans::Recorder;
use exq_core::prepared::PreparedDb;
use exq_obs::{MetricsSink, Snapshot};
use exq_relstore::{Database, ExecConfig};
use exq_serve::{client, Catalog, ResultCache, ServerConfig};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

const DATASET: &str = "dblp";
const REQUESTS: usize = 100;
const APPENDS: usize = 2;
const MISSES: usize = 10;
const APPEND_ROWS: usize = 100;
/// The hot set: the bump question over four attribute sets, `top` 5.
const HOT: [usize; 4] = [0, 1, 3, 4];

pub struct Server(exq_serve::Handle);

impl Live for Server {
    fn addr(&self) -> SocketAddr {
        self.0.addr()
    }

    fn stop(self) -> Snapshot {
        self.0.shutdown()
    }
}

pub fn boot_server(
    name: &str,
    db: &Arc<Database>,
    threads: usize,
    shard: Option<u64>,
    sink: &MetricsSink,
) -> Server {
    let mut catalog = Catalog::new();
    catalog
        .insert_database(name, Arc::clone(db), &ExecConfig::sequential())
        .expect("fresh catalog takes any name");
    let config = ServerConfig {
        threads,
        shard_id: shard,
        ..ServerConfig::default()
    };
    Server(exq_serve::start(catalog, config, sink.clone()).expect("bind loopback server"))
}

pub struct ServeMix {
    db: Arc<Database>,
    /// Distinct explain bodies: the hot set first, then the forced misses.
    bodies: Vec<String>,
    /// Append bodies in the cycle's global append order.
    appends: Vec<String>,
    lists: Vec<Vec<Req>>,
}

pub fn setup(seed: u64) -> Built<ServeMix> {
    let start = Instant::now();
    let full = data::dblp_db(seed, true);
    let (pristine, batches) = data::hold_back_authored(&full, APPEND_ROWS);
    let generate_ms = ms_since(start);
    let appends: Vec<String> = batches[..CLIENTS * APPENDS]
        .iter()
        .map(append_body)
        .collect();

    let mut rng = Rng::stream(seed, "serve-mix/schedule");
    let mut bodies: Vec<String> = HOT
        .iter()
        .map(|&s| explain_body(DATASET, data::BUMP, data::DBLP_ATTRS[s], 5))
        .collect();
    // Forced misses: each asks for a `top` no other request of the cycle
    // uses, over an attribute set drawn from the hot four.
    for k in 0..CLIENTS * MISSES {
        let attrs = data::DBLP_ATTRS[HOT[rng.below(HOT.len())]];
        bodies.push(explain_body(DATASET, data::BUMP, attrs, 6 + k));
    }

    let mut lists = Vec::with_capacity(CLIENTS);
    for c in 0..CLIENTS {
        // Slot of each request: an append (None), a forced miss, or a
        // draw from the hot set; then shuffled. The two clients' appends
        // alternate in the global order, each inside its own quarter of
        // the list, so a client seldom has to wait for its turn.
        let mut asks: Vec<usize> = (0..MISSES).map(|m| HOT.len() + c * MISSES + m).collect();
        asks.extend((0..REQUESTS - APPENDS - MISSES).map(|_| rng.below(HOT.len())));
        rng.shuffle(&mut asks);
        let quarter = REQUESTS / (CLIENTS * APPENDS);
        let mut list: Vec<Req> = asks
            .into_iter()
            .map(|slot| Req {
                path: "/v1/explain".into(),
                body: bodies[slot].clone(),
                slot,
                append_order: None,
            })
            .collect();
        for a in 0..APPENDS {
            let order = a * CLIENTS + c;
            let at = order * quarter + rng.below(quarter - 1);
            list.insert(
                at,
                Req {
                    path: format!("/v1/datasets/{DATASET}/rows"),
                    body: appends[order].clone(),
                    slot: usize::MAX,
                    append_order: Some(order),
                },
            );
        }
        lists.push(list);
    }
    Built {
        workload: ServeMix {
            db: Arc::new(pristine.clone()),
            bodies,
            appends,
            lists,
        },
        generate_ms,
        pristine,
    }
}

impl Http for ServeMix {
    type Topology = Server;

    fn boot(&self, sink: &MetricsSink) -> Server {
        boot_server(DATASET, &self.db, CLIENTS, None, sink)
    }

    fn lists(&self) -> &[Vec<Req>] {
        &self.lists
    }

    fn via(&self) -> Via {
        Via::KeepAlive
    }

    /// Every distinct body at every epoch of the cycle, asked one at a
    /// time of a server of its own.
    fn reference(&self) -> Result<Table, String> {
        let server = self.boot(&MetricsSink::disabled());
        let mut table = Table::new();
        let mut ask = || {
            for epoch in 0..=self.appends.len() {
                for (slot, body) in self.bodies.iter().enumerate() {
                    let response = client::post_json(server.addr(), "/v1/explain", body)
                        .map_err(|e| format!("explain: {e}"))?;
                    match explain_digest(&response) {
                        Some((digest, at)) if at == epoch as u64 => {
                            table.insert((slot, at), digest)
                        }
                        _ => {
                            return Err(format!(
                                "slot {slot} at epoch {epoch}: {}",
                                response.text()
                            ))
                        }
                    };
                }
                if let Some(body) = self.appends.get(epoch) {
                    let path = format!("/v1/datasets/{DATASET}/rows");
                    let response = client::post_json(server.addr(), &path, body)
                        .map_err(|e| format!("append: {e}"))?;
                    if response.status != 200 {
                        return Err(format!("append {epoch}: {}", response.text()));
                    }
                }
            }
            Ok(())
        };
        let asked = ask();
        server.stop();
        asked.map(|()| table)
    }

    fn extra_layers(
        &self,
        report: &mut Report,
        plain: &Tally,
        traced: &Tally,
        snapshot: &Snapshot,
    ) {
        let (hits, misses) = (
            plain.class(Class::Hit).len(),
            plain.class(Class::Explain).len(),
        );
        report.set(
            "serve.cache.hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
            hits + misses,
        );
        let appends = plain.class(Class::Append);
        if !appends.is_empty() {
            let rows = (appends.len() * APPEND_ROWS) as f64;
            report.set(
                "serve.append.rows_per_s",
                rows / (appends.sum() / 1e3),
                appends.len(),
            );
        }
        // What the client saw that no handler span covers: accept, read,
        // write, kernel, client. Means, so the two sides add up.
        let handler = crate::httprun::span_mean_ms(snapshot, "server.request");
        report.set(
            "serve.wire.unattributed_ms",
            traced.mean_ms() - handler,
            traced.completed(),
        );

        self.time_parsers(report);
        self.compare_connections(report);
    }
}

impl ServeMix {
    /// The serve layer's pure functions, timed from outside on the bytes
    /// of a real request.
    fn time_parsers(&self, report: &mut Report) {
        const BATCHES: usize = 20;
        const CALLS: usize = 50;
        let mut time_us = |metric, f: &mut dyn FnMut()| {
            report.set(
                metric,
                ns_per_call(BATCHES, CALLS, f) / 1e3,
                BATCHES * CALLS,
            );
        };
        let body = &self.bodies[0];
        let raw = format!(
            "POST /v1/explain HTTP/1.1\r\nhost: exq\r\nconnection: keep-alive\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        );
        let limits = exq_serve::http::Limits::default();
        time_us("serve.http.parse_us", &mut || {
            std::hint::black_box(exq_serve::http::parse_request(raw.as_bytes(), &limits).ok());
        });
        time_us("serve.json.parse_us", &mut || {
            std::hint::black_box(exq_serve::json::parse(body.as_bytes()).ok());
        });
        let schema = self.db.schema();
        time_us("core.qparse.parse_us", &mut || {
            std::hint::black_box(exq_core::qparse::parse_question(schema, data::BUMP).ok());
        });
        let cache = ResultCache::new(32 * 1024 * 1024, 4, MetricsSink::disabled());
        let doc = Arc::new("x".repeat(4096));
        let mut key = 0u64;
        time_us("serve.cache.insert_us", &mut || {
            key += 1;
            cache.insert(&format!("k{key}"), Arc::clone(&doc));
        });
        time_us("serve.cache.get_us", &mut || {
            std::hint::black_box(cache.get("k1"));
        });
    }

    /// One client, one question, asked three ways of one server: what the
    /// keep-alive connection costs over a fresh one, what the shipped
    /// client costs over one that writes once with `TCP_NODELAY`, and
    /// what HTTP adds to an explain over calling it in process.
    fn compare_connections(&self, report: &mut Report) {
        const N: usize = 30;
        let server = self.boot(&MetricsSink::disabled());
        let hot = &self.bodies[..1];
        let fresh = p50_of_posts(report, server.addr(), Via::Fresh, hot, N + 1, Class::Hit);
        let kept = p50_of_posts(report, server.addr(), Via::KeepAlive, hot, N, Class::Hit);
        let one_write = p50_of_posts(report, server.addr(), Via::OneWrite, hot, N, Class::Hit);
        report.set("serve.keepalive_penalty_ms", kept - fresh, N);
        report.set("serve.client.penalty_ms", kept - one_write, N);

        let attrs = data::DBLP_ATTRS[HOT[0]];
        let misses: Vec<String> = (0..N)
            .map(|k| explain_body(DATASET, data::BUMP, attrs, 100 + k))
            .collect();
        let over_http = p50_of_posts(
            report,
            server.addr(),
            Via::Fresh,
            &misses,
            N,
            Class::Explain,
        );
        server.stop();
        let prepared = PreparedDb::build_with(Arc::clone(&self.db), &ExecConfig::sequential());
        let shapes = data::dblp_shapes(prepared.db());
        let mut in_process = crate::stats::Sample::default();
        for k in 0..N {
            let shape = data::Shape {
                top: 100 + k,
                ..shapes[HOT[0]].clone()
            };
            let done = explain(
                &prepared,
                &shape,
                &ExecConfig::sequential(),
                &mut Recorder::disabled(),
            );
            in_process.push(done.ms);
        }
        report.set(
            "serve.added_p50_ms",
            over_http - in_process.p(50.0).unwrap_or(0.0),
            N,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wire(w: &ServeMix) -> Vec<(String, String)> {
        w.lists
            .iter()
            .flatten()
            .map(|r| (r.path.clone(), r.body.clone()))
            .collect()
    }

    /// Byte-identical requests from one seed, different ones from
    /// another, and the mix the workload promises.
    #[test]
    fn the_schedule_is_a_function_of_the_seed() {
        let (a, b, c) = (setup(5).workload, setup(5).workload, setup(6).workload);
        assert_eq!(wire(&a), wire(&b));
        assert_ne!(wire(&a), wire(&c));
        for list in &a.lists {
            assert_eq!(list.len(), REQUESTS);
            assert_eq!(
                list.iter().filter(|r| r.append_order.is_some()).count(),
                APPENDS
            );
            let misses = list
                .iter()
                .filter(|r| r.append_order.is_none() && r.slot >= HOT.len());
            assert_eq!(misses.count(), MISSES);
        }
        let mut orders: Vec<usize> = a
            .lists
            .iter()
            .flatten()
            .filter_map(|r| r.append_order)
            .collect();
        orders.sort_unstable();
        assert_eq!(orders, vec![0, 1, 2, 3]);
    }
}
