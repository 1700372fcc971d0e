//! Structured access log: one JSON line per served request.
//!
//! Both tiers write the same shape — workers tag lines with their shard
//! id, the front with the shard that answered the proxied request — so
//! a fleet's logs concatenate into one stream that standard tooling
//! (`jq`, log shippers) can group by tenant, endpoint, or trace id:
//!
//! ```json
//! {"ts_bucket": 29473921, "tenant": "acme", "shard": 0, "endpoint": "explain",
//!  "status": 200, "latency_bucket": 1048575, "trace_id": 7, "cache": "miss"}
//! ```
//!
//! Two fields are wall-clock-derived and therefore deterministic-mode
//! hazards: `ts_bucket` (minutes since the Unix epoch — deliberately
//! coarse, an access log is not a tracing system) and `latency_bucket`
//! (the request latency's log-bucket upper bound, the same bucketing as
//! the latency histograms). In deterministic mode (tests, the bench
//! harness) both are written as 0 so log bytes are reproducible; every
//! other field is deterministic already.
//!
//! The writer is line-buffered behind a mutex: one `write_all` per
//! request, so concurrent workers never interleave partial lines.

use exq_obs::{bucket_index, bucket_upper, escape_json};
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// One request's loggable facts, assembled by the serving loop.
#[derive(Debug, Clone, Copy)]
pub struct AccessEntry<'a> {
    /// Value of the request's `X-Exq-Tenant` header, if any.
    pub tenant: Option<&'a str>,
    /// Shard that answered: the worker's own id, or (on the front) the
    /// shard the request was proxied to. `None` renders as `null`.
    pub shard: Option<u64>,
    /// Routed endpoint name (worker) or request path (front).
    pub endpoint: &'a str,
    /// HTTP status of the response.
    pub status: u16,
    /// Wall-clock latency in nanoseconds; logged as its log-bucket
    /// upper bound, never raw.
    pub latency_ns: u64,
    /// The request's trace id.
    pub trace_id: u64,
    /// Cache outcome: `"hit"`, `"miss"`, or `"-"`.
    pub cache: &'a str,
}

struct LogInner {
    out: Mutex<Box<dyn Write + Send>>,
    deterministic: bool,
}

/// A cheap, cloneable handle to one access-log destination. The
/// disabled log (the default) makes [`AccessLog::record`] a no-op.
#[derive(Clone, Default)]
pub struct AccessLog(Option<Arc<LogInner>>);

impl AccessLog {
    /// A log that writes nothing.
    pub fn disabled() -> AccessLog {
        AccessLog(None)
    }

    /// Open the destination: `-` is standard output, anything else is a
    /// file created (or appended to) at that path. With `deterministic`
    /// set, wall-clock-derived fields are written as 0.
    pub fn open(path: &Path, deterministic: bool) -> std::io::Result<AccessLog> {
        let out: Box<dyn Write + Send> = if path.as_os_str() == "-" {
            Box::new(std::io::stdout())
        } else {
            Box::new(
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)?,
            )
        };
        Ok(AccessLog(Some(Arc::new(LogInner {
            out: Mutex::new(out),
            deterministic,
        }))))
    }

    /// Whether this log writes anywhere.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Append one line for `entry`. Best-effort: an I/O error costs the
    /// line, never the request.
    pub fn record(&self, entry: &AccessEntry<'_>) {
        let Some(inner) = &self.0 else {
            return;
        };
        let (ts_bucket, latency_bucket) = if inner.deterministic {
            (0, 0)
        } else {
            (
                minute_bucket(),
                bucket_upper(bucket_index(entry.latency_ns)),
            )
        };
        let tenant = match entry.tenant {
            Some(tenant) => format!("\"{}\"", escape_json(tenant)),
            None => "null".to_string(),
        };
        let shard = match entry.shard {
            Some(shard) => shard.to_string(),
            None => "null".to_string(),
        };
        let line = format!(
            "{{\"ts_bucket\": {ts_bucket}, \"tenant\": {tenant}, \"shard\": {shard}, \
             \"endpoint\": \"{}\", \"status\": {}, \"latency_bucket\": {latency_bucket}, \
             \"trace_id\": {}, \"cache\": \"{}\"}}\n",
            escape_json(entry.endpoint),
            entry.status,
            entry.trace_id,
            escape_json(entry.cache),
        );
        let mut out = inner.out.lock().expect("access log poisoned");
        let _ = out.write_all(line.as_bytes());
        let _ = out.flush();
    }
}

impl std::fmt::Debug for AccessLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AccessLog")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

/// Minutes since the Unix epoch — the log's coarse timestamp bucket.
fn minute_bucket() -> u64 {
    // exq-lint: allow(L002): access-log timestamp bucket, never reaches explanation results
    let since_epoch = std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH);
    since_epoch.map(|d| d.as_secs() / 60).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("exq-accesslog-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("access.log")
    }

    fn entry() -> AccessEntry<'static> {
        AccessEntry {
            tenant: Some("acme \"inc\""),
            shard: Some(1),
            endpoint: "explain",
            status: 200,
            latency_ns: 1_234_567,
            trace_id: 42,
            cache: "miss",
        }
    }

    #[test]
    fn deterministic_mode_produces_stable_bytes() {
        let path = temp_path("deterministic");
        let log = AccessLog::open(&path, true).unwrap();
        assert!(log.is_enabled());
        log.record(&entry());
        log.record(&AccessEntry {
            tenant: None,
            shard: None,
            endpoint: "/v1/datasets",
            status: 503,
            latency_ns: 5,
            trace_id: 43,
            cache: "-",
        });
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            text,
            concat!(
                "{\"ts_bucket\": 0, \"tenant\": \"acme \\\"inc\\\"\", \"shard\": 1, ",
                "\"endpoint\": \"explain\", \"status\": 200, \"latency_bucket\": 0, ",
                "\"trace_id\": 42, \"cache\": \"miss\"}\n",
                "{\"ts_bucket\": 0, \"tenant\": null, \"shard\": null, ",
                "\"endpoint\": \"/v1/datasets\", \"status\": 503, \"latency_bucket\": 0, ",
                "\"trace_id\": 43, \"cache\": \"-\"}\n",
            )
        );
        // Every line is parseable JSON.
        for line in text.lines() {
            crate::json::parse(line.as_bytes()).unwrap();
        }
    }

    #[test]
    fn live_mode_buckets_latency_and_timestamps() {
        let path = temp_path("live");
        let log = AccessLog::open(&path, false).unwrap();
        log.record(&entry());
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = crate::json::parse(text.lines().next().unwrap().as_bytes()).unwrap();
        let bucket = doc
            .get("latency_bucket")
            .and_then(|v| v.as_usize())
            .unwrap() as u64;
        // The bucket bound is the histogram bucketing of the latency.
        assert_eq!(bucket, bucket_upper(bucket_index(1_234_567)));
        assert!(doc.get("ts_bucket").and_then(|v| v.as_usize()).unwrap() > 0);
    }

    #[test]
    fn disabled_log_is_a_no_op() {
        let log = AccessLog::disabled();
        assert!(!log.is_enabled());
        log.record(&entry());
    }
}
