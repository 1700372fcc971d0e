//! Versioned, exact-integer wire encoding for [`Snapshot`]s.
//!
//! The router front scrapes every worker's snapshot and merges them
//! into one fleet exposition. That transport must preserve `u64`
//! counters and `u128` histogram sums *exactly* — round-tripping
//! through a general JSON parser would squash them into `f64` and lose
//! integer exactness above 2^53 — so snapshots travel in a purpose-
//! built line format with a strict parser, in the same spirit as the
//! serve tier's cache snapshot files:
//!
//! ```text
//! exq-snapshot v1
//! c <value> <name>
//! s <count> <total_ns> <name>
//! h <kind> <count> <sum> <upper>:<count>,... <name>
//! n <escaped note>
//! e <bucket_upper> <trace_id> <hist name>
//! ```
//!
//! Names go last on each line so they may contain spaces; notes are
//! backslash-escaped onto one line. `e` lines carry retained-trace
//! exemplars ([`Exemplar`]): the worker's tail-sampling retention
//! attaches the trace id of a retained slow/error request to the
//! histogram bucket its latency landed in, and the front re-emits them
//! as comment lines on the fleet Prometheus exposition.
//!
//! Corruption policy mirrors the cache snapshot reader: any malformed
//! line makes [`decode_snapshot`] return an error and the caller treats
//! the whole scrape as failed (the front skips the shard and counts
//! `router.scrape.partial`) rather than merging a partial snapshot.

use crate::hist::{HistKind, HistogramSnapshot};
use crate::prom::sanitize_name;
use crate::{Snapshot, SpanStat};
use std::fmt::Write as _;

/// Magic first line of an encoded snapshot.
pub const WIRE_MAGIC: &str = "exq-snapshot v1";

/// A retained-trace exemplar: the trace id of a tail-sampled request,
/// attached to the latency-histogram bucket the request landed in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Exemplar {
    /// Name of the owning histogram (e.g. `server.latency.explain.miss`).
    pub hist: String,
    /// Inclusive upper bound of the bucket the sample fell into.
    pub bucket_upper: u64,
    /// Trace id of the retained request.
    pub trace_id: u64,
}

impl Exemplar {
    /// Render as a Prometheus comment line anchored to the owning
    /// histogram bucket, e.g.
    /// `# exemplar exq_server_latency_explain_miss_bucket{le="1048575"} trace_id=42`.
    /// Free-form `#` comments are legal exposition text (and accepted by
    /// [`crate::check_prometheus`]); `shard`, when given, is added as a
    /// label so fleet-level exemplars stay attributable.
    pub fn to_prometheus_comment(&self, shard: Option<u64>) -> String {
        let family = sanitize_name(&self.hist);
        match shard {
            Some(shard) => format!(
                "# exemplar {family}_bucket{{le=\"{}\",shard=\"{shard}\"}} trace_id={}",
                self.bucket_upper, self.trace_id
            ),
            None => format!(
                "# exemplar {family}_bucket{{le=\"{}\"}} trace_id={}",
                self.bucket_upper, self.trace_id
            ),
        }
    }
}

/// Encode `snapshot` (plus retained-trace `exemplars`) in the versioned
/// wire format. Exact inverse of [`decode_snapshot`].
pub fn encode_snapshot(snapshot: &Snapshot, exemplars: &[Exemplar]) -> String {
    let mut out = String::with_capacity(256);
    out.push_str(WIRE_MAGIC);
    out.push('\n');
    for (name, v) in &snapshot.counters {
        let _ = writeln!(out, "c {v} {name}");
    }
    for (name, stat) in &snapshot.spans {
        let _ = writeln!(out, "s {} {} {name}", stat.count, stat.total_ns);
    }
    for (name, hist) in &snapshot.histograms {
        let buckets = if hist.buckets.is_empty() {
            "-".to_string()
        } else {
            hist.buckets
                .iter()
                .map(|(upper, c)| format!("{upper}:{c}"))
                .collect::<Vec<_>>()
                .join(",")
        };
        let _ = writeln!(
            out,
            "h {} {} {} {buckets} {name}",
            hist.kind.as_str(),
            hist.count,
            hist.sum
        );
    }
    for note in &snapshot.notes {
        let _ = writeln!(out, "n {}", escape_line(note));
    }
    for exemplar in exemplars {
        let _ = writeln!(
            out,
            "e {} {} {}",
            exemplar.bucket_upper, exemplar.trace_id, exemplar.hist
        );
    }
    out
}

/// Decode a wire-encoded snapshot. Strict: a missing magic line, an
/// unknown record tag, or any malformed field is an error describing
/// the offending line — the caller discards the whole scrape.
pub fn decode_snapshot(text: &str) -> Result<(Snapshot, Vec<Exemplar>), String> {
    let mut lines = text.lines();
    if lines.next() != Some(WIRE_MAGIC) {
        return Err(format!("missing `{WIRE_MAGIC}` magic line"));
    }
    let mut snapshot = Snapshot::default();
    let mut exemplars = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let bad = || format!("malformed wire line: {line:?}");
        let (tag, rest) = line.split_once(' ').ok_or_else(bad)?;
        match tag {
            "c" => {
                let (value, name) = rest.split_once(' ').ok_or_else(bad)?;
                let value: u64 = value.parse().map_err(|_| bad())?;
                if snapshot.counters.insert(name.to_owned(), value).is_some() {
                    return Err(format!("duplicate counter: {name:?}"));
                }
            }
            "s" => {
                let mut fields = rest.splitn(3, ' ');
                let count: u64 = fields.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
                let total_ns: u128 = fields.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
                let name = fields.next().ok_or_else(bad)?;
                let stat = SpanStat { count, total_ns };
                if snapshot.spans.insert(name.to_owned(), stat).is_some() {
                    return Err(format!("duplicate span: {name:?}"));
                }
            }
            "h" => {
                let mut fields = rest.splitn(5, ' ');
                let kind = HistKind::parse(fields.next().ok_or_else(bad)?).ok_or_else(bad)?;
                let count: u64 = fields.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
                let sum: u128 = fields.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
                let buckets_field = fields.next().ok_or_else(bad)?;
                let name = fields.next().ok_or_else(bad)?;
                let mut buckets = Vec::new();
                if buckets_field != "-" {
                    for pair in buckets_field.split(',') {
                        let (upper, c) = pair.split_once(':').ok_or_else(bad)?;
                        let upper: u64 = upper.parse().map_err(|_| bad())?;
                        let c: u64 = c.parse().map_err(|_| bad())?;
                        if buckets.last().is_some_and(|&(prev, _)| prev >= upper) {
                            return Err(format!("unsorted buckets in: {line:?}"));
                        }
                        buckets.push((upper, c));
                    }
                }
                let hist = HistogramSnapshot {
                    kind,
                    count,
                    sum,
                    buckets,
                };
                if snapshot.histograms.insert(name.to_owned(), hist).is_some() {
                    return Err(format!("duplicate histogram: {name:?}"));
                }
            }
            "n" => snapshot.notes.push(unescape_line(rest).ok_or_else(bad)?),
            "e" => {
                let mut fields = rest.splitn(3, ' ');
                let bucket_upper: u64 =
                    fields.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
                let trace_id: u64 = fields.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
                let hist = fields.next().ok_or_else(bad)?.to_owned();
                exemplars.push(Exemplar {
                    hist,
                    bucket_upper,
                    trace_id,
                });
            }
            _ => return Err(format!("unknown wire record tag: {line:?}")),
        }
    }
    Ok((snapshot, exemplars))
}

/// Escape a note onto a single line: backslash, newline, and carriage
/// return get two-character escapes; everything else passes through.
fn escape_line(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

/// Inverse of [`escape_line`]. `None` on a dangling or unknown escape.
fn unescape_line(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next()? {
            '\\' => out.push('\\'),
            'n' => out.push('\n'),
            'r' => out.push('\r'),
            _ => return None,
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricsSink;
    use std::time::Duration;

    fn sample_snapshot() -> Snapshot {
        let sink = MetricsSink::recording();
        sink.add("server.requests", 7);
        // Values above 2^53: the reason this codec exists.
        sink.add("big.counter", u64::MAX - 3);
        sink.record_span("server.request", Duration::from_nanos(123_456));
        sink.observe("engine.rows", 42);
        sink.observe("engine.rows", u64::MAX);
        sink.observe_duration("server.latency.other", Duration::from_micros(250));
        sink.note("a note with spaces\nand a newline \\ backslash");
        sink.snapshot()
    }

    #[test]
    fn round_trips_exactly_including_u64_extremes() {
        let snapshot = sample_snapshot();
        let exemplars = vec![Exemplar {
            hist: "server.latency.explain.miss".into(),
            bucket_upper: 1_048_575,
            trace_id: 42,
        }];
        let text = encode_snapshot(&snapshot, &exemplars);
        let (decoded, decoded_exemplars) = decode_snapshot(&text).unwrap();
        assert_eq!(decoded, snapshot);
        assert_eq!(decoded_exemplars, exemplars);
        // And the re-encoding is byte-identical (canonical form).
        assert_eq!(encode_snapshot(&decoded, &decoded_exemplars), text);
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let text = encode_snapshot(&Snapshot::default(), &[]);
        assert_eq!(text, format!("{WIRE_MAGIC}\n"));
        let (decoded, exemplars) = decode_snapshot(&text).unwrap();
        assert_eq!(decoded, Snapshot::default());
        assert!(exemplars.is_empty());
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        for bad in [
            "",                                               // no magic
            "exq-snapshot v0\n",                              // wrong version
            &format!("{WIRE_MAGIC}\nx 1 name"),               // unknown tag
            &format!("{WIRE_MAGIC}\nc notanum name"),         // bad counter value
            &format!("{WIRE_MAGIC}\nc 5"),                    // missing name
            &format!("{WIRE_MAGIC}\ns 1 nan name"),           // bad span total
            &format!("{WIRE_MAGIC}\nh bogus 1 1 - x"),        // bad kind
            &format!("{WIRE_MAGIC}\nh values 1 1 9 x"),       // bad bucket pair
            &format!("{WIRE_MAGIC}\nh values 2 2 3:1,1:1 x"), // unsorted buckets
            &format!("{WIRE_MAGIC}\nc 1 a\nc 2 a"),           // duplicate counter
            &format!("{WIRE_MAGIC}\nn trailing\\"),           // dangling escape
            &format!("{WIRE_MAGIC}\ne 1 2"),                  // exemplar missing hist
        ] {
            assert!(decode_snapshot(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn exemplar_comment_is_checker_safe() {
        let exemplar = Exemplar {
            hist: "server.latency.explain.miss".into(),
            bucket_upper: 1023,
            trace_id: 9,
        };
        assert_eq!(
            exemplar.to_prometheus_comment(None),
            "# exemplar exq_server_latency_explain_miss_bucket{le=\"1023\"} trace_id=9"
        );
        assert_eq!(
            exemplar.to_prometheus_comment(Some(1)),
            "# exemplar exq_server_latency_explain_miss_bucket{le=\"1023\",shard=\"1\"} trace_id=9"
        );
        // A comment line appended to a valid exposition keeps it valid.
        let sink = MetricsSink::recording();
        sink.observe_duration("server.latency.explain.miss", Duration::from_millis(1));
        let text = format!(
            "{}{}\n",
            sink.snapshot().to_prometheus(),
            exemplar.to_prometheus_comment(Some(0))
        );
        crate::check_prometheus(&text).unwrap();
    }
}
