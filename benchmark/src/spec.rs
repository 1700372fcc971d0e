//! The benchmark's fixed vocabulary: workload names, end-to-end metrics
//! with their bounds, per-layer metrics. `BENCHMARK.json` at the root of
//! the repository is this file written out (a test holds them equal).

pub const DEFAULT_SEED: u64 = 1;

/// How the driver starts one run; it appends
/// `--workload W --seed N --seconds S --trace 0|1`.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
    "run",
];

/// Seconds one run measures (`--seconds` of the driver's runs).
pub const RUN_SECONDS: u32 = 15;

/// `(name, why)`. Later issues cite these names.
pub const WORKLOADS: &[(&str, &str)] = &[
    ("nat-cube", "In-process, natality 200k rows, 5 cold explains per cycle at d=4..7: relstore::cube and core::cube_algo do nearly all the work (paper Fig. 12/13)"),
    ("dblp-live", "In-process, 4x DBLP, per 200-row Authored batch one append then 5 cold explains: tiny cubes, so time goes to core and, on appends, to the delta join"),
    ("geo-cold", "In-process, Geo-DBLP 40k papers (8-relation join): one cold PreparedDb build then 10 x (append + explain) per cycle, where semijoin and join dominate (paper Fig. 15)"),
    ("serve-mix", "HTTP loopback to one exq_serve, 2 keep-alive clients, per 100 requests 2 appends, 10 forced misses, 88 hot re-asks: the wire, cache and ingest path users get through the CLI client"),
    ("front-miss", "HTTP through router::Front to 2 one-thread workers, 2 clients, new connection per request, every request a miss: explain is small, so proxy, pool and wire cost dominate"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

use Better::{Higher, Lower};

/// `(name, unit, better, bound)`: every workload reports every one.
/// The time bounds are the widest the driver allows because the
/// reference box drifts (see README, "Why the bounds are wide").
pub const END_TO_END: &[(&str, &str, Better, f64)] = &[
    ("setup_s", "s", Lower, 0.25),
    ("explain_p50_ms", "ms", Lower, 0.25),
    ("explain_p90_ms", "ms", Lower, 0.25),
    ("ops_per_s", "1/s", Higher, 0.25),
    ("peak_rss_mb", "MiB", Lower, 0.15),
];

/// `(name, unit, better)`. A metric a workload does not exercise reads 0
/// there. `client.*` are client-observed latencies of the operation
/// classes only some workloads have, which is why they cannot sit in the
/// end-to-end list; they are measured untraced all the same.
pub const PER_LAYER: &[(&str, &str, Better)] = &[
    ("client.hit_p50_ms", "ms", Lower),
    ("client.hit_p90_ms", "ms", Lower),
    ("client.append_p50_ms", "ms", Lower),
    ("client.append_p90_ms", "ms", Lower),
    ("client.prepare_p50_ms", "ms", Lower),
    ("datagen.generate_ms", "ms", Lower),
    ("relstore.column.build_ms", "ms", Lower),
    ("relstore.semijoin.reduce_ms", "ms", Lower),
    ("relstore.join.universal_ms", "ms", Lower),
    ("relstore.join.delta_ms", "ms", Lower),
    ("relstore.cube.busy_ms", "ms", Lower),
    ("relstore.cube.ns_per_cell", "ns", Lower),
    ("relstore.par.speedup_2t", "ratio", Higher),
    ("relstore.semijoin.rows_dropped", "count", Lower),
    ("relstore.join.tuples", "count", Lower),
    ("relstore.join.probe_matches", "count", Lower),
    ("relstore.join.delta_tuples", "count", Lower),
    ("relstore.join.full_rebuilds", "count", Lower),
    ("relstore.cube.cells", "count", Lower),
    ("relstore.cube.input_tuples", "count", Lower),
    ("core.prepared.build_ms", "ms", Lower),
    ("core.prepared.append_ms", "ms", Lower),
    ("core.prepared.append_self_ms", "ms", Lower),
    ("core.explainer.q_d_ms", "ms", Lower),
    ("core.explainer.table_ms", "ms", Lower),
    ("core.explainer.top_ms", "ms", Lower),
    ("core.cube_algo.busy_ms", "ms", Lower),
    ("core.cube_algo.self_ms", "ms", Lower),
    ("core.qparse.parse_us", "us", Lower),
    ("core.cube_algo.sub_queries", "count", Lower),
    ("core.cube_algo.joined_cells", "count", Lower),
    ("core.engine.candidates", "count", Lower),
    ("core.explainer.naive_fallbacks", "count", Lower),
    ("serve.http.parse_us", "us", Lower),
    ("serve.json.parse_us", "us", Lower),
    ("serve.cache.get_us", "us", Lower),
    ("serve.cache.insert_us", "us", Lower),
    ("serve.server.parse_ms", "ms", Lower),
    ("serve.server.cache_ms", "ms", Lower),
    ("serve.server.explain_ms", "ms", Lower),
    ("serve.server.render_ms", "ms", Lower),
    ("serve.server.append_ms", "ms", Lower),
    ("serve.server.request_ms", "ms", Lower),
    ("serve.wire.unattributed_ms", "ms", Lower),
    ("serve.added_p50_ms", "ms", Lower),
    ("serve.keepalive_penalty_ms", "ms", Lower),
    ("serve.client.penalty_ms", "ms", Lower),
    ("serve.cache.hit_ratio", "ratio", Higher),
    ("serve.append.rows_per_s", "1/s", Higher),
    ("serve.server.rejected_busy", "count", Lower),
    ("serve.cache.evictions", "count", Lower),
    ("router.shard.lookup_ns", "ns", Lower),
    ("router.front.request_ms", "ms", Lower),
    ("router.added_p50_ms", "ms", Lower),
    ("router.front.unattributed_ms", "ms", Lower),
    ("router.upstream.reuse_ratio", "ratio", Higher),
    ("router.shard.balance", "ratio", Lower),
    ("router.proxy.errors", "count", Lower),
    ("router.throttled", "count", Lower),
    ("obs.recording_overhead_ratio", "ratio", Lower),
    ("bench.trace_overhead_ratio", "ratio", Lower),
];

/// `BENCHMARK.json`, in the shape the driver's contract gives.
pub fn manifest_json() -> String {
    let quoted = |items: &[&str]| -> String {
        let items: Vec<String> = items.iter().map(|i| format!("\"{i}\"")).collect();
        items.join(", ")
    };
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|(name, unit, better, bound)| {
            format!(
                "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\", \"bound\": {bound}}}",
                better.as_str()
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|(name, unit, better)| {
            format!(
                "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}",
                better.as_str()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        quoted(COMMAND),
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The contract's limits on names, units and reasons, and the
    /// committed `BENCHMARK.json` being this file written out.
    #[test]
    fn the_manifest_is_this_file_and_within_the_contract() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(
            committed,
            manifest_json(),
            "regenerate with `exq-benchmark manifest`"
        );
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        names.extend(END_TO_END.iter().map(|m| m.0));
        names.extend(PER_LAYER.iter().map(|m| m.0));
        assert!(names.iter().all(|n| name_ok(n)), "{names:?}");
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "a name is used once");
        assert!(END_TO_END
            .iter()
            .all(|m| unit_ok(m.1) && m.3 > 0.0 && m.3 <= 0.25));
        assert!(PER_LAYER.iter().all(|m| unit_ok(m.1)));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.1.len() <= 200 && !w.1.contains(['\n', '"'])));
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        let setup = END_TO_END
            .iter()
            .find(|m| m.0 == "setup_s")
            .expect("setup_s is owed");
        assert_eq!((setup.1, setup.2), ("s", Better::Lower));
        assert!(
            END_TO_END.iter().all(|m| m.3 <= setup.3),
            "setup_s has the largest bound"
        );
        assert!(committed.len() <= 64 * 1024);
    }
}
