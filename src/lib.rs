//! # exq — intervention-based explanations for database queries
//!
//! Umbrella crate re-exporting the workspace:
//!
//! * [`relstore`] (`exq-relstore`) — the in-memory relational substrate:
//!   schemas with standard and back-and-forth foreign keys, universal
//!   relation, semijoin reduction, aggregates, data cube;
//! * [`core`] (`exq-core`) — the explanation engine of Roy & Suciu
//!   (SIGMOD 2014): interventions via program **P**, degrees of
//!   explanation, Algorithm 1, minimal top-K;
//! * [`obs`] (`exq-obs`) — the deterministic observability layer:
//!   monotonic counters and span timers threaded through every hot path,
//!   with counter totals bit-identical across thread counts;
//! * [`analyze`] (`exq-analyze`) — the `exq check` static analyzer:
//!   tolerant parsing plus semantic lint passes producing multi-error
//!   diagnostics with stable codes, spans, and fix suggestions;
//! * [`datagen`] (`exq-datagen`) — seeded synthetic datasets standing in
//!   for the paper's DBLP, natality, and Geo-DBLP data;
//! * [`serve`] (`exq-serve`) — the resident HTTP explanation server:
//!   dataset catalog with shared pre-built intermediates, canonical-key
//!   LRU result cache, and a std-only HTTP/1.1 front end (`exq serve`);
//! * [`router`] (`exq-router`) — the sharded multi-process serving tier
//!   (`exq serve --router N`): consistent-hash routing front, per-tenant
//!   admission control, worker supervision with warm restarts;
//! * [`lint`] (`exq-lint`) — the `exq lint` workspace auditor: a
//!   tolerant Rust lexer, determinism lint rules with stable `L`-codes,
//!   and cross-artifact audits tying the counter catalogue, Prometheus
//!   naming, and the diagnostic-code table to actual source.
//!
//! See the `examples/` directory for end-to-end walkthroughs
//! (`quickstart`, `dblp_bump`, `natality`, `sigmod_pods`, `convergence`)
//! and the `exq-bench` crate's `repro` binary, which regenerates every
//! table and figure of the paper's evaluation.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use exq_analyze as analyze;
pub use exq_core as core;
pub use exq_datagen as datagen;
pub use exq_lint as lint;
pub use exq_obs as obs;
pub use exq_relstore as relstore;
pub use exq_router as router;
pub use exq_serve as serve;

/// Everything an application typically needs.
pub mod prelude {
    pub use exq_core::prelude::*;
    pub use exq_relstore::{
        Atom, AttrRef, CmpOp, Conjunction, Database, Predicate, SchemaBuilder, TupleSet, Universal,
        Value, ValueType, View,
    };
}
