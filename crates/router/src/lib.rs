//! # exq-router — the sharded multi-process serving tier
//!
//! One `exq serve --router N` command runs N independent worker
//! processes (each an ordinary `exq serve` on a loopback port, owning a
//! consistent-hash shard of the dataset catalog) behind a thin *front*
//! process that:
//!
//! * parses just enough of each request to learn which dataset it
//!   names, picks the owning worker off the [`shard::ShardMap`] ring,
//!   and proxies the request over a pooled keep-alive connection
//!   ([`upstream`]), streaming the worker's bytes back unchanged;
//! * applies per-tenant token-bucket admission control ([`bucket`])
//!   ahead of the workers, answering `503` + `Retry-After` in the same
//!   backpressure dialect the workers' accept queues already speak;
//! * supervises the workers ([`supervisor`]): parses their ready lines,
//!   health-checks `GET /v1/health`, and restarts a crashed worker a
//!   bounded number of times, routing around it (bounded `503`s, never
//!   wrong answers) while it warm-starts from its persisted result
//!   cache;
//! * observes everything ([`front`] records `router.*` counters and a
//!   front-latency histogram; trace ids propagate front → worker so one
//!   Chrome trace spans both tiers — [`trace`] merges the per-process
//!   trace files into a single timeline).
//!
//! The whole tier stays inside the workspace's std-only,
//! deterministic-observability rules: no async runtime, no HTTP or RPC
//! crates, every counter pre-registered and catalogued.

#![warn(missing_docs)]
#![warn(clippy::print_stdout, clippy::print_stderr)]

pub mod bucket;
pub mod front;
pub mod shard;
pub mod supervisor;
pub mod trace;
pub mod upstream;

pub use bucket::TokenBuckets;
pub use front::{Front, FrontConfig, ROUTER_COUNTERS};
pub use shard::ShardMap;
pub use supervisor::{Supervisor, WorkerSpec};
pub use upstream::{CheckoutError, Upstreams};
