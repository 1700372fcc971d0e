//! Prometheus text exposition (format 0.0.4) rendering and a small
//! format checker.
//!
//! [`crate::Snapshot::to_prometheus`] renders counters as `counter`
//! families, span totals as two labelled counter families
//! (`exq_span_calls_total{span="…"}` / `exq_span_ns_total{span="…"}`),
//! and histograms as `histogram` families with cumulative `_bucket`
//! samples, a terminal `le="+Inf"` bucket, and `_sum`/`_count` samples —
//! the shape Prometheus' scraper and `promtool check metrics` expect.
//!
//! Counters named `<prefix>.shard.<digits>` (the router's per-worker
//! series) collapse into one labelled family:
//! `exq_<prefix>_shard{shard="<digits>"}`. One family with a `shard`
//! label is what dashboards want to sum and facet over; N families
//! differing only in a trailing integer is what they get by accident.
//!
//! [`check_prometheus`] validates that shape without any dependency: it
//! is what CI runs against a live `GET /metrics` scrape.

use crate::Snapshot;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Map a dotted metric name to a Prometheus-legal one: `exq_` prefix,
/// every non-alphanumeric character folded to `_`.
pub fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    out.push_str("exq_");
    for c in name.chars() {
        out.push(if c.is_ascii_alphanumeric() { c } else { '_' });
    }
    out
}

fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Split `<prefix>.shard.<digits>` into `(prefix.shard, digits)`; `None`
/// for every other counter name. Requiring the literal `.shard.` hop
/// keeps ordinary counters that merely end in a number out of the
/// labelled path.
fn shard_split(name: &str) -> Option<(&str, &str)> {
    let (family, digits) = name.rsplit_once('.')?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    family.ends_with(".shard").then_some((family, digits))
}

pub(crate) fn render(snapshot: &Snapshot) -> String {
    let mut out = String::new();
    // BTreeMap iteration keeps every `<prefix>.shard.<n>` member of a
    // family contiguous (they share the `<prefix>.shard.` string
    // prefix), so one HELP/TYPE header per family is enough.
    let mut open_family: Option<String> = None;
    for (name, value) in &snapshot.counters {
        if let Some((family, shard)) = shard_split(name) {
            let prom = sanitize_name(family);
            if open_family.as_deref() != Some(family) {
                let _ = writeln!(out, "# HELP {prom} exq counter {family} by shard");
                let _ = writeln!(out, "# TYPE {prom} counter");
                open_family = Some(family.to_owned());
            }
            let _ = writeln!(out, "{prom}{{shard=\"{}\"}} {value}", escape_label(shard));
            continue;
        }
        open_family = None;
        let prom = sanitize_name(name);
        let _ = writeln!(out, "# HELP {prom} exq counter {name}");
        let _ = writeln!(out, "# TYPE {prom} counter");
        let _ = writeln!(out, "{prom} {value}");
    }
    if !snapshot.spans.is_empty() {
        out.push_str("# HELP exq_span_calls_total completed spans per span name\n");
        out.push_str("# TYPE exq_span_calls_total counter\n");
        for (name, stat) in &snapshot.spans {
            let _ = writeln!(
                out,
                "exq_span_calls_total{{span=\"{}\"}} {}",
                escape_label(name),
                stat.count
            );
        }
        out.push_str("# HELP exq_span_ns_total wall-clock nanoseconds per span name\n");
        out.push_str("# TYPE exq_span_ns_total counter\n");
        for (name, stat) in &snapshot.spans {
            let _ = writeln!(
                out,
                "exq_span_ns_total{{span=\"{}\"}} {}",
                escape_label(name),
                stat.total_ns
            );
        }
    }
    for (name, hist) in &snapshot.histograms {
        let prom = sanitize_name(name);
        let _ = writeln!(out, "# HELP {prom} exq {} histogram {name}", hist.kind);
        let _ = writeln!(out, "# TYPE {prom} histogram");
        let mut cumulative = 0u64;
        for &(upper, count) in &hist.buckets {
            cumulative += count;
            let _ = writeln!(out, "{prom}_bucket{{le=\"{upper}\"}} {cumulative}");
        }
        let _ = writeln!(out, "{prom}_bucket{{le=\"+Inf\"}} {}", hist.count);
        let _ = writeln!(out, "{prom}_sum {}", hist.sum);
        let _ = writeln!(out, "{prom}_count {}", hist.count);
    }
    out
}

/// Is `name` a legal Prometheus metric name (`[a-zA-Z_:][a-zA-Z0-9_:]*`)?
///
/// Used by [`check_prometheus`] on every exposition line, and by
/// the catalogue audit (`tests/artifact_audit.rs`) to prove each
/// `counters.txt` entry will render to a scrapeable name.
pub fn is_valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

#[derive(Default)]
struct HistState {
    last_le: Option<f64>,
    last_cumulative: Option<u128>,
    inf_value: Option<u128>,
    count_value: Option<u128>,
}

/// Split one sample line into `(metric_name, le_label_if_any, value)`.
fn parse_sample(line: &str) -> Result<(String, Option<String>, u128), String> {
    let (name_and_labels, value) = match line.rfind(' ') {
        Some(i) => (&line[..i], &line[i + 1..]),
        None => return Err(format!("sample line has no value: {line:?}")),
    };
    let value: u128 = value
        .parse()
        .map_err(|_| format!("non-integer sample value in {line:?}"))?;
    match name_and_labels.find('{') {
        None => Ok((name_and_labels.to_owned(), None, value)),
        Some(open) => {
            let name = &name_and_labels[..open];
            let rest = &name_and_labels[open + 1..];
            let close = rest
                .rfind('}')
                .ok_or_else(|| format!("unterminated label set in {line:?}"))?;
            let labels = &rest[..close];
            let mut le = None;
            for pair in labels.split(',') {
                if let Some(v) = pair.strip_prefix("le=\"") {
                    le = Some(
                        v.strip_suffix('"')
                            .ok_or_else(|| format!("unterminated le label in {line:?}"))?
                            .to_owned(),
                    );
                }
            }
            Ok((name.to_owned(), le, value))
        }
    }
}

/// Validate a Prometheus text exposition document.
///
/// Checks, per family: `# HELP` precedes `# TYPE` precedes samples;
/// names are legal; histogram `_bucket` samples have strictly increasing
/// `le` bounds with monotone non-decreasing cumulative counts, end with
/// a `le="+Inf"` bucket, and that terminal bucket equals `_count`.
pub fn check_prometheus(text: &str) -> Result<(), String> {
    let mut helped: BTreeMap<String, bool> = BTreeMap::new(); // name -> typed yet
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    let mut hists: BTreeMap<String, HistState> = BTreeMap::new();
    let mut samples = 0usize;

    for (lineno, line) in text.lines().enumerate() {
        let loc = |msg: String| format!("line {}: {msg}", lineno + 1);
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split(' ').next().unwrap_or("");
            if !is_valid_metric_name(name) {
                return Err(loc(format!("bad metric name in HELP: {name:?}")));
            }
            if helped.insert(name.to_owned(), false).is_some() {
                return Err(loc(format!("duplicate HELP for {name}")));
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split(' ');
            let name = parts.next().unwrap_or("");
            let kind = parts.next().unwrap_or("");
            match helped.get_mut(name) {
                None => return Err(loc(format!("TYPE before HELP for {name}"))),
                Some(typed @ false) => *typed = true,
                Some(true) => return Err(loc(format!("duplicate TYPE for {name}"))),
            }
            if !matches!(
                kind,
                "counter" | "gauge" | "histogram" | "summary" | "untyped"
            ) {
                return Err(loc(format!("unknown TYPE {kind:?} for {name}")));
            }
            types.insert(name.to_owned(), kind.to_owned());
            if kind == "histogram" {
                hists.insert(name.to_owned(), HistState::default());
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // free-form comment
        }

        let (name, le, value) = parse_sample(line).map_err(loc)?;
        if !is_valid_metric_name(&name) {
            return Err(loc(format!("bad metric name {name:?}")));
        }
        samples += 1;
        // Resolve the family: histogram samples use suffixed names.
        let family = ["_bucket", "_sum", "_count"]
            .iter()
            .filter_map(|suffix| name.strip_suffix(suffix))
            .find(|base| types.get(*base).is_some_and(|t| t == "histogram"))
            .unwrap_or(&name)
            .to_owned();
        if !types.contains_key(&family) {
            return Err(loc(format!("sample for {name} without HELP/TYPE")));
        }

        if let Some(state) = hists.get_mut(&family) {
            if name == format!("{family}_bucket") {
                let le = le.ok_or_else(|| loc(format!("bucket without le label: {line:?}")))?;
                let bound = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse::<f64>()
                        .map_err(|_| loc(format!("unparseable le bound {le:?}")))?
                };
                if let Some(prev) = state.last_le {
                    if bound <= prev {
                        return Err(loc(format!(
                            "le bounds not strictly increasing in {family}: {prev} then {bound}"
                        )));
                    }
                }
                if let Some(prev) = state.last_cumulative {
                    if value < prev {
                        return Err(loc(format!(
                            "cumulative bucket counts decreased in {family}: {prev} then {value}"
                        )));
                    }
                }
                state.last_le = Some(bound);
                state.last_cumulative = Some(value);
                if bound.is_infinite() {
                    state.inf_value = Some(value);
                }
            } else if name == format!("{family}_count") {
                state.count_value = Some(value);
            }
        }
    }

    for (family, state) in &hists {
        let inf = state
            .inf_value
            .ok_or_else(|| format!("histogram {family} has no le=\"+Inf\" bucket"))?;
        let count = state
            .count_value
            .ok_or_else(|| format!("histogram {family} has no _count sample"))?;
        if inf != count {
            return Err(format!(
                "histogram {family}: le=\"+Inf\" bucket {inf} != _count {count}"
            ));
        }
    }
    for (name, typed) in &helped {
        if !typed {
            return Err(format!("HELP without TYPE for {name}"));
        }
    }
    if samples == 0 {
        return Err("no samples in exposition".to_owned());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HistKind, MetricsSink};
    use std::time::Duration;

    fn sample_snapshot() -> Snapshot {
        let sink = MetricsSink::recording();
        sink.add("join.tuples", 42);
        sink.record_span("cube", Duration::from_nanos(500));
        sink.observe("join.component_rows", 3);
        sink.observe("join.component_rows", 900);
        sink.observe_duration("server.latency.explain.miss", Duration::from_micros(120));
        sink.snapshot()
    }

    #[test]
    fn render_passes_own_checker() {
        let text = render(&sample_snapshot());
        check_prometheus(&text).unwrap_or_else(|e| panic!("{e}\n---\n{text}"));
    }

    #[test]
    fn render_shape_is_as_documented() {
        let text = render(&sample_snapshot());
        assert!(text.contains("# TYPE exq_join_tuples counter"), "{text}");
        assert!(text.contains("exq_join_tuples 42"), "{text}");
        assert!(
            text.contains("exq_span_calls_total{span=\"cube\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("# TYPE exq_join_component_rows histogram"),
            "{text}"
        );
        assert!(
            text.contains("exq_join_component_rows_bucket{le=\"3\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("exq_join_component_rows_bucket{le=\"+Inf\"} 2"),
            "{text}"
        );
        assert!(text.contains("exq_join_component_rows_sum 903"), "{text}");
        assert!(text.contains("exq_join_component_rows_count 2"), "{text}");
        assert!(
            text.contains("# TYPE exq_server_latency_explain_miss histogram"),
            "{text}"
        );
    }

    #[test]
    fn empty_histograms_still_expose_inf_bucket() {
        let mut snap = Snapshot::default();
        snap.counters.insert("a".into(), 1);
        snap.histograms.insert(
            "empty.hist".into(),
            crate::HistogramSnapshot {
                kind: HistKind::Values,
                count: 0,
                sum: 0,
                buckets: Vec::new(),
            },
        );
        let text = render(&snap);
        assert!(
            text.contains("exq_empty_hist_bucket{le=\"+Inf\"} 0"),
            "{text}"
        );
        check_prometheus(&text).unwrap();
    }

    #[test]
    fn checker_rejects_missing_help() {
        assert!(check_prometheus("exq_orphan 1\n").is_err());
    }

    #[test]
    fn checker_rejects_type_before_help() {
        let text = "# TYPE exq_x counter\n# HELP exq_x x\nexq_x 1\n";
        assert!(check_prometheus(text)
            .unwrap_err()
            .contains("TYPE before HELP"));
    }

    #[test]
    fn checker_rejects_non_monotone_buckets() {
        let text = concat!(
            "# HELP exq_h h\n",
            "# TYPE exq_h histogram\n",
            "exq_h_bucket{le=\"1\"} 5\n",
            "exq_h_bucket{le=\"2\"} 3\n",
            "exq_h_bucket{le=\"+Inf\"} 5\n",
            "exq_h_sum 9\n",
            "exq_h_count 5\n",
        );
        assert!(check_prometheus(text)
            .unwrap_err()
            .contains("cumulative bucket counts decreased"));
    }

    #[test]
    fn checker_rejects_missing_inf_bucket() {
        let text = concat!(
            "# HELP exq_h h\n",
            "# TYPE exq_h histogram\n",
            "exq_h_bucket{le=\"1\"} 5\n",
            "exq_h_sum 9\n",
            "exq_h_count 5\n",
        );
        assert!(check_prometheus(text).unwrap_err().contains("+Inf"));
    }

    #[test]
    fn checker_rejects_inf_count_mismatch() {
        let text = concat!(
            "# HELP exq_h h\n",
            "# TYPE exq_h histogram\n",
            "exq_h_bucket{le=\"+Inf\"} 5\n",
            "exq_h_sum 9\n",
            "exq_h_count 6\n",
        );
        assert!(check_prometheus(text).unwrap_err().contains("!= _count"));
    }

    #[test]
    fn checker_rejects_unordered_le_bounds() {
        let text = concat!(
            "# HELP exq_h h\n",
            "# TYPE exq_h histogram\n",
            "exq_h_bucket{le=\"4\"} 1\n",
            "exq_h_bucket{le=\"2\"} 2\n",
            "exq_h_bucket{le=\"+Inf\"} 2\n",
            "exq_h_sum 9\n",
            "exq_h_count 2\n",
        );
        assert!(check_prometheus(text)
            .unwrap_err()
            .contains("not strictly increasing"));
    }

    #[test]
    fn shard_counters_render_as_one_labelled_family() {
        let sink = MetricsSink::recording();
        sink.add("router.proxied.shard.0", 7);
        sink.add("router.proxied.shard.1", 3);
        sink.add("router.requests", 10);
        let text = render(&sink.snapshot());
        assert!(
            text.contains("# TYPE exq_router_proxied_shard counter"),
            "{text}"
        );
        assert!(
            text.contains("exq_router_proxied_shard{shard=\"0\"} 7"),
            "{text}"
        );
        assert!(
            text.contains("exq_router_proxied_shard{shard=\"1\"} 3"),
            "{text}"
        );
        // One header for the family, not one per shard.
        assert_eq!(text.matches("# HELP exq_router_proxied_shard ").count(), 1);
        assert!(!text.contains("exq_router_proxied_shard_0"), "{text}");
        // The plain counter is untouched.
        assert!(text.contains("exq_router_requests 10"), "{text}");
        check_prometheus(&text).unwrap_or_else(|e| panic!("{e}\n---\n{text}"));
    }

    #[test]
    fn shard_split_requires_the_literal_shard_hop() {
        assert_eq!(
            shard_split("router.proxied.shard.12"),
            Some(("router.proxied.shard", "12"))
        );
        assert_eq!(shard_split("router.proxied.shard.x"), None);
        assert_eq!(shard_split("server.requests.2"), None);
        assert_eq!(shard_split("router.proxied.shard."), None);
        assert_eq!(shard_split("shard.0"), None);
        assert_eq!(shard_split("plain"), None);
    }

    #[test]
    fn sanitizer_folds_dots_and_dashes() {
        assert_eq!(sanitize_name("a.b-c"), "exq_a_b_c");
        assert_eq!(sanitize_name("server.latency"), "exq_server_latency");
    }
}
