//! Tail-sampled trace retention: keep the requests worth keeping.
//!
//! The flight recorder ([`crate::flight`]) remembers the last N
//! requests indiscriminately and briefly — useful for "what just
//! happened", useless an hour later when someone asks why yesterday's
//! p99 spiked. Retention is the complementary policy: a request's trace
//! is **retained** when it is interesting —
//!
//! * an **error** (status ≥ 500), or
//! * **slow**: latency at or above a static threshold
//!   (`--trace-slow-ms`), or, when no static threshold is configured,
//!   above the *adaptive* bound — the current p99 bucket upper of that
//!   endpoint's own latency distribution (tracked per histogram name
//!   with the same log-bucketing as the histograms themselves, so the
//!   bound is exact at bucket granularity). The adaptive bound arms
//!   only after a minimum sample count; a cold server retains nothing
//!   by surprise.
//!
//! Retained traces land in a bounded in-memory ring served at
//! `GET /v1/debug/traces`, are appended as JSONL to
//! `<state-dir>/…traces.jsonl` when a state dir is configured
//! (best-effort, like the cache dump), and the most recent retained
//! trace per histogram is exported as a Prometheus *exemplar comment*
//! on the owning bucket of the `/metrics` exposition — the breadcrumb
//! that links a fleet-level p99 to one replayable trace id.

use exq_obs::{bucket_index, bucket_upper, Exemplar};
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::Mutex;

/// Minimum observations of a histogram before the adaptive p99 bound
/// arms. Below this, only errors and static-threshold hits retain.
const ADAPTIVE_MIN_SAMPLES: u64 = 64;

/// Retained traces kept in memory (oldest evicted first).
const RETAINED_CAPACITY: usize = 128;

/// One retained trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetainedTrace {
    /// The request's trace id (as sent in `X-Exq-Trace-Id`).
    pub trace_id: u64,
    /// Request method.
    pub method: String,
    /// Request path.
    pub path: String,
    /// Response status.
    pub status: u16,
    /// Wall-clock latency in nanoseconds.
    pub latency_ns: u64,
    /// Why it was kept: `"error"` or `"slow"`.
    pub reason: &'static str,
    /// Latency histogram this trace is an exemplar candidate for.
    pub hist: &'static str,
    /// Log-bucket upper bound the latency fell in.
    pub bucket_upper: u64,
}

impl RetainedTrace {
    fn to_json_line(&self) -> String {
        format!(
            "{{\"trace_id\": {}, \"method\": \"{}\", \"path\": \"{}\", \"status\": {}, \
             \"latency_ns\": {}, \"reason\": \"{}\", \"hist\": \"{}\", \"bucket_upper\": {}}}",
            self.trace_id,
            exq_obs::escape_json(&self.method),
            exq_obs::escape_json(&self.path),
            self.status,
            self.latency_ns,
            self.reason,
            self.hist,
            self.bucket_upper,
        )
    }
}

#[derive(Debug, Default)]
struct RetainState {
    /// Per-histogram log-bucket counts, maintained locally so the
    /// adaptive p99 bound never has to walk the global sink.
    dist: BTreeMap<&'static str, (u64, Vec<u64>)>,
    ring: VecDeque<RetainedTrace>,
    retained: u64,
    /// Most recent retained trace per histogram — the exemplar.
    exemplars: BTreeMap<&'static str, (u64, u64)>,
}

/// The retention policy plus its retained-trace store.
#[derive(Debug)]
pub struct TraceRetention {
    /// Static slow threshold in nanoseconds; `None` means adaptive.
    slow_ns: Option<u64>,
    /// JSONL sink for retained traces; `None` keeps them in memory only.
    file: Option<PathBuf>,
    state: Mutex<RetainState>,
}

impl TraceRetention {
    /// A policy with the given static threshold (milliseconds; `None`
    /// selects the adaptive p99 bound) persisting to `file` if set.
    pub fn new(slow_ms: Option<u64>, file: Option<PathBuf>) -> TraceRetention {
        TraceRetention {
            slow_ns: slow_ms.map(|ms| ms.saturating_mul(1_000_000)),
            file,
            state: Mutex::new(RetainState::default()),
        }
    }

    /// Observe one completed request. Returns `true` when the trace was
    /// retained (the caller bumps the `server.trace.retained` counter —
    /// metrics stay the sink's job, policy stays ours).
    pub fn observe(
        &self,
        trace_id: u64,
        method: &str,
        path: &str,
        status: u16,
        latency_ns: u64,
        hist: &'static str,
    ) -> bool {
        let mut state = self.state.lock().expect("trace retention poisoned");
        // Update the local distribution first so the adaptive bound
        // includes the request being judged.
        let (count, buckets) = state.dist.entry(hist).or_insert_with(|| (0, Vec::new()));
        let idx = bucket_index(latency_ns);
        if buckets.len() <= idx {
            buckets.resize(idx + 1, 0);
        }
        buckets[idx] += 1;
        *count += 1;

        let reason = if status >= 500 {
            Some("error")
        } else if self.is_slow(&state, latency_ns, hist) {
            Some("slow")
        } else {
            None
        };
        let Some(reason) = reason else {
            return false;
        };

        let upper = bucket_upper(idx);
        let trace = RetainedTrace {
            trace_id,
            method: method.to_owned(),
            path: path.to_owned(),
            status,
            latency_ns,
            reason,
            hist,
            bucket_upper: upper,
        };
        state.retained += 1;
        state.exemplars.insert(hist, (upper, trace_id));
        if state.ring.len() == RETAINED_CAPACITY {
            state.ring.pop_front();
        }
        state.ring.push_back(trace.clone());
        drop(state);

        if let Some(file) = &self.file {
            // Best-effort, like the cache dump: losing a line never
            // fails the request.
            let _ = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(file)
                .and_then(|mut f| writeln!(f, "{}", trace.to_json_line()).map(|()| ()));
        }
        true
    }

    /// Whether `latency_ns` clears the slow bar for `hist`.
    fn is_slow(&self, state: &RetainState, latency_ns: u64, hist: &'static str) -> bool {
        if let Some(slow_ns) = self.slow_ns {
            return latency_ns >= slow_ns;
        }
        // Adaptive: above the current p99 bucket upper of this
        // histogram's own distribution, once it has enough samples.
        let Some((count, buckets)) = state.dist.get(hist) else {
            return false;
        };
        if *count < ADAPTIVE_MIN_SAMPLES {
            return false;
        }
        let rank = (*count * 99).div_ceil(100);
        let mut seen = 0u64;
        for (i, c) in buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return latency_ns > bucket_upper(i);
            }
        }
        false
    }

    /// Number of traces ever retained.
    pub fn retained(&self) -> u64 {
        self.state
            .lock()
            .expect("trace retention poisoned")
            .retained
    }

    /// Current exemplars: the most recent retained trace per histogram.
    pub fn exemplars(&self) -> Vec<Exemplar> {
        let state = self.state.lock().expect("trace retention poisoned");
        state
            .exemplars
            .iter()
            .map(|(hist, (upper, trace_id))| Exemplar {
                hist: (*hist).to_owned(),
                bucket_upper: *upper,
                trace_id: *trace_id,
            })
            .collect()
    }

    /// A copy of the retained ring, oldest first.
    pub fn entries(&self) -> Vec<RetainedTrace> {
        let state = self.state.lock().expect("trace retention poisoned");
        state.ring.iter().cloned().collect()
    }

    /// Render as the `GET /v1/debug/traces` JSON document.
    pub fn to_json(&self) -> String {
        let state = self.state.lock().expect("trace retention poisoned");
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"capacity\": {RETAINED_CAPACITY},");
        let _ = writeln!(out, "  \"retained\": {},", state.retained);
        let policy = match self.slow_ns {
            Some(ns) => format!("\"static\", \"slow_ns\": {ns}"),
            None => "\"adaptive-p99\"".to_string(),
        };
        let _ = writeln!(out, "  \"policy\": {policy},");
        out.push_str("  \"traces\": [");
        for (i, t) in state.ring.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(out, "{sep}    {}", t.to_json_line());
        }
        out.push_str(if state.ring.is_empty() {
            "]\n"
        } else {
            "\n  ]\n"
        });
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HIST: &str = "server.latency.explain.miss";

    #[test]
    fn static_threshold_retains_slow_and_errors_only() {
        let retention = TraceRetention::new(Some(10), None); // 10ms
        assert!(!retention.observe(1, "POST", "/v1/explain", 200, 9_999_999, HIST));
        assert!(retention.observe(2, "POST", "/v1/explain", 200, 10_000_000, HIST));
        assert!(retention.observe(3, "POST", "/v1/explain", 503, 5, HIST));
        assert_eq!(retention.retained(), 2);
        let entries = retention.entries();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].reason, "slow");
        assert_eq!(entries[1].reason, "error");
        // Exemplar is the most recent retained trace for the histogram.
        let ex = retention.exemplars();
        assert_eq!(ex.len(), 1);
        assert_eq!(ex[0].trace_id, 3);
        assert_eq!(ex[0].bucket_upper, bucket_upper(bucket_index(5)));
    }

    #[test]
    fn zero_threshold_retains_everything() {
        let retention = TraceRetention::new(Some(0), None);
        assert!(retention.observe(1, "GET", "/healthz", 200, 1, HIST));
        assert_eq!(retention.retained(), 1);
    }

    #[test]
    fn adaptive_bound_arms_after_min_samples() {
        let retention = TraceRetention::new(None, None);
        // A wild outlier before the bound arms is NOT retained.
        assert!(!retention.observe(0, "POST", "/v1/explain", 200, u64::MAX / 2, HIST));
        // Build a tight distribution around ~1000ns, deep enough that
        // the p99 rank falls inside it (not at the distribution max).
        for i in 0..200 {
            assert!(!retention.observe(i + 1, "POST", "/v1/explain", 200, 1000 + i % 16, HIST));
        }
        // Now an outlier far above the p99 bucket upper retains...
        assert!(retention.observe(999, "POST", "/v1/explain", 200, 50_000_000, HIST));
        // ...while a typical latency still does not.
        assert!(!retention.observe(1000, "POST", "/v1/explain", 200, 1001, HIST));
        assert_eq!(retention.entries()[0].reason, "slow");
    }

    #[test]
    fn persists_jsonl_when_file_configured() {
        let dir = std::env::temp_dir().join(format!("exq-retain-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("traces.jsonl");
        let retention = TraceRetention::new(Some(0), Some(file.clone()));
        retention.observe(7, "POST", "/v1/explain", 200, 123, HIST);
        retention.observe(8, "GET", "/v1/datasets", 500, 456, HIST);
        let text = std::fs::read_to_string(&file).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            crate::json::parse(line.as_bytes()).expect("retained line must be JSON");
        }
        assert!(lines[0].contains("\"trace_id\": 7"));
        assert!(lines[1].contains("\"reason\": \"error\""));
    }

    #[test]
    fn debug_document_is_parseable_in_both_policies() {
        for slow_ms in [Some(5), None] {
            let retention = TraceRetention::new(slow_ms, None);
            retention.observe(1, "POST", "/v1/explain", 500, 1, HIST);
            let doc = retention.to_json();
            let parsed = crate::json::parse(doc.as_bytes()).expect("traces JSON must parse");
            let traces = parsed.get("traces").and_then(|v| v.as_array()).unwrap();
            assert_eq!(traces.len(), 1);
            assert_eq!(
                traces[0].get("reason").and_then(|v| v.as_str()),
                Some("error")
            );
        }
        let empty = TraceRetention::new(None, None).to_json();
        assert!(crate::json::parse(empty.as_bytes()).is_ok(), "{empty}");
    }

    #[test]
    fn ring_is_bounded() {
        let retention = TraceRetention::new(Some(0), None);
        for i in 0..(RETAINED_CAPACITY as u64 + 10) {
            retention.observe(i, "GET", "/healthz", 200, 1, HIST);
        }
        assert_eq!(retention.entries().len(), RETAINED_CAPACITY);
        assert_eq!(retention.retained(), RETAINED_CAPACITY as u64 + 10);
        assert_eq!(retention.entries()[0].trace_id, 10);
    }
}
