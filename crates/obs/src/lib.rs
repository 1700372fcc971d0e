//! # exq-obs — deterministic metrics & tracing for the explanation pipeline
//!
//! A zero-dependency observability layer: monotonic counters, hierarchical
//! span timers (hierarchy is lexical — dotted names such as
//! `cube_algo.derive` nest under `cube_algo`), log-bucketed histograms,
//! structured trace events, free-form notes, and a snapshot type that
//! renders to JSON, plain text, or Prometheus text exposition.
//!
//! ## The determinism contract
//!
//! Counters recorded by the engine are **bit-identical across thread
//! counts**. The hot paths achieve this with the same discipline the
//! `par` executor uses for results: per-operator counts are derived from
//! the stitched block outputs (or from effects, like `TupleSet::remove`
//! returning `true`, that are identical on the sequential and parallel
//! paths), then added to the sink once, on the orchestrating thread, in a
//! fixed order. Integer adds commute, so the few counters fed from worker
//! threads (e.g. fixpoint iterations under the naive candidate sweep) are
//! deterministic as well.
//!
//! Histograms extend the contract to distributions: bucketing is pure
//! integer arithmetic ([`bucket_index`]), so [`HistKind::Values`]
//! histograms fed deterministic samples have bit-identical bucket counts
//! at every thread count. [`HistKind::WallClock`] histograms (latencies)
//! are timing-dependent, exactly like span durations.
//!
//! Span timers measure wall-clock time and are *not* deterministic; every
//! comparison helper ([`Snapshot::normalized`]) therefore zeroes
//! durations — and collapses wall-clock histograms to their sample
//! count — while keeping call counts and value-histogram buckets, which
//! *are* deterministic.
//!
//! ## Usage
//!
//! ```
//! use exq_obs::MetricsSink;
//!
//! let sink = MetricsSink::recording();
//! sink.add("join.tuples", 42);
//! sink.observe("join.component_rows", 7);
//! let out = sink.time("explain.table", || 1 + 1);
//! assert_eq!(out, 2);
//! let snap = sink.snapshot();
//! assert_eq!(snap.counter("join.tuples"), 42);
//! assert_eq!(snap.spans["explain.table"].count, 1);
//! assert_eq!(snap.histograms["join.component_rows"].count, 1);
//! ```
//!
//! A [`MetricsSink::disabled`] sink (the default) makes every recording
//! call a no-op against a `None`, so instrumented code pays nothing when
//! observability is off.
//!
//! ## Tracing
//!
//! [`MetricsSink::enable_tracing`] arms a bounded ring buffer; from then
//! on every span guard pushes begin/end [`TraceEvent`]s, and
//! [`MetricsSink::trace_chrome_json`] exports the ring as Chrome
//! trace-event JSON (loadable in Perfetto or `chrome://tracing`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod hist;
mod prom;
mod trace;
mod wire;

pub use hist::{bucket_index, bucket_upper, HistKind, Histogram, HistogramSnapshot};
pub use prom::{check_prometheus, is_valid_metric_name, sanitize_name};
pub use trace::{current_tid, TraceEvent, TracePhase};
pub use wire::{decode_snapshot, encode_snapshot, Exemplar, WIRE_MAGIC};

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use trace::TraceBuf;

// ---------------------------------------------------------------------
// Sink & registry
// ---------------------------------------------------------------------

#[derive(Debug)]
struct Registry {
    state: Mutex<State>,
    trace: Mutex<TraceBuf>,
    /// Fast-path flag mirroring `trace.capacity > 0`.
    trace_enabled: AtomicBool,
    /// Trace id stamped onto subsequent trace events (0 = none).
    active_trace: AtomicU64,
    /// All trace timestamps are relative to this instant.
    epoch: Instant,
}

impl Default for Registry {
    fn default() -> Registry {
        Registry {
            state: Mutex::default(),
            trace: Mutex::default(),
            trace_enabled: AtomicBool::new(false),
            active_trace: AtomicU64::new(0),
            epoch: Instant::now(),
        }
    }
}

#[derive(Debug, Default)]
struct State {
    counters: BTreeMap<String, u64>,
    spans: BTreeMap<String, SpanStat>,
    hists: BTreeMap<String, HistEntry>,
    notes: Vec<String>,
}

#[derive(Debug)]
struct HistEntry {
    kind: HistKind,
    hist: Histogram,
}

/// A cheap, cloneable handle to a metrics registry.
///
/// Clones share the same registry, so a sink can be carried inside an
/// `ExecConfig` through the whole pipeline and drained once at the end.
/// The disabled sink (the [`Default`]) records nothing.
#[derive(Debug, Clone, Default)]
pub struct MetricsSink(Option<Arc<Registry>>);

impl MetricsSink {
    /// A sink that records nothing; every call is a no-op.
    pub const fn disabled() -> MetricsSink {
        MetricsSink(None)
    }

    /// A fresh, empty, recording sink.
    pub fn recording() -> MetricsSink {
        MetricsSink(Some(Arc::new(Registry::default())))
    }

    /// Whether this sink records anything. Use to skip expensive
    /// formatting when observability is off.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Add `n` to the named monotonic counter (creating it at 0).
    pub fn add(&self, counter: &str, n: u64) {
        if let Some(reg) = &self.0 {
            let mut state = reg.state.lock().expect("metrics registry poisoned");
            match state.counters.get_mut(counter) {
                Some(slot) => *slot += n,
                None => {
                    state.counters.insert(counter.to_owned(), n);
                }
            }
        }
    }

    /// Add 1 to the named counter.
    pub fn incr(&self, counter: &str) {
        self.add(counter, 1);
    }

    /// Record one sample into the named value histogram. Values must be
    /// deterministic (row counts, sizes — not times); the histogram's
    /// bucket counts are part of the determinism contract.
    pub fn observe(&self, hist: &str, value: u64) {
        self.observe_kind(hist, value, HistKind::Values);
    }

    /// Record one wall-clock duration sample (as nanoseconds) into the
    /// named latency histogram. Collapsed by [`Snapshot::normalized`].
    pub fn observe_duration(&self, hist: &str, elapsed: Duration) {
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.observe_kind(hist, ns, HistKind::WallClock);
    }

    fn observe_kind(&self, hist: &str, value: u64, kind: HistKind) {
        if let Some(reg) = &self.0 {
            let mut state = reg.state.lock().expect("metrics registry poisoned");
            match state.hists.get_mut(hist) {
                Some(entry) => entry.hist.record(value),
                None => {
                    let mut entry = HistEntry {
                        kind,
                        hist: Histogram::new(),
                    };
                    entry.hist.record(value);
                    state.hists.insert(hist.to_owned(), entry);
                }
            }
        }
    }

    /// Record one completed span of `elapsed` wall-clock time.
    pub fn record_span(&self, span: &str, elapsed: Duration) {
        if let Some(reg) = &self.0 {
            let mut state = reg.state.lock().expect("metrics registry poisoned");
            match state.spans.get_mut(span) {
                Some(slot) => slot.absorb(elapsed),
                None => {
                    let mut stat = SpanStat::default();
                    stat.absorb(elapsed);
                    state.spans.insert(span.to_owned(), stat);
                }
            }
        }
    }

    /// Time `f` as one span named `span`, returning its value.
    pub fn time<T>(&self, span: &str, f: impl FnOnce() -> T) -> T {
        let _guard = self.span(span);
        f()
    }

    /// Open a span closed (and recorded) when the guard drops. When
    /// tracing is armed the guard also emits begin/end trace events.
    pub fn span(&self, span: &str) -> SpanGuard<'_> {
        let trace_span = self.trace_record(span, TracePhase::Begin, None);
        SpanGuard {
            sink: self,
            name: if self.is_enabled() {
                span.to_owned()
            } else {
                String::new()
            },
            start: self.is_enabled().then(Instant::now),
            trace_span,
        }
    }

    /// Append a free-form status note (e.g. `loaded 42 rows into R`).
    pub fn note(&self, text: impl AsRef<str>) {
        if let Some(reg) = &self.0 {
            let mut state = reg.state.lock().expect("metrics registry poisoned");
            state.notes.push(text.as_ref().to_owned());
        }
    }

    // -- tracing ------------------------------------------------------

    /// Arm the trace ring with room for `capacity` events (clamped to at
    /// least 2 so one begin/end pair always fits). From this point every
    /// span guard records begin/end [`TraceEvent`]s; once `capacity`
    /// events are buffered the oldest are dropped (and counted).
    pub fn enable_tracing(&self, capacity: usize) {
        if let Some(reg) = &self.0 {
            let mut buf = reg.trace.lock().expect("trace ring poisoned");
            buf.capacity = capacity.max(2);
            reg.trace_enabled.store(true, Ordering::Release);
        }
    }

    /// Whether trace events are currently being captured.
    pub fn tracing_enabled(&self) -> bool {
        match &self.0 {
            Some(reg) => reg.trace_enabled.load(Ordering::Acquire),
            None => false,
        }
    }

    /// Stamp `id` onto subsequent trace events (0 clears). Server
    /// handlers set this to the per-request trace id.
    pub fn set_trace(&self, id: u64) {
        if let Some(reg) = &self.0 {
            reg.active_trace.store(id, Ordering::Relaxed);
        }
    }

    /// A copy of the buffered trace events in capture order.
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        match &self.0 {
            None => Vec::new(),
            Some(reg) => {
                let buf = reg.trace.lock().expect("trace ring poisoned");
                buf.events.iter().cloned().collect()
            }
        }
    }

    /// Export the trace ring as a Chrome trace-event JSON document
    /// (Perfetto / `chrome://tracing` compatible). Returns `None` when
    /// tracing was never armed. Orphaned begin/end records (ring
    /// overflow, still-open spans) are dropped so the exported document
    /// is always stack-balanced per thread.
    pub fn trace_chrome_json(&self) -> Option<String> {
        let reg = self.0.as_ref()?;
        if !reg.trace_enabled.load(Ordering::Acquire) {
            return None;
        }
        let buf = reg.trace.lock().expect("trace ring poisoned");
        let events: Vec<TraceEvent> = buf.events.iter().cloned().collect();
        Some(trace::chrome_json(&events, buf.dropped))
    }

    /// Push one trace event if tracing is armed; returns the span id so
    /// the matching `End` can reuse it.
    fn trace_record(&self, name: &str, phase: TracePhase, span_id: Option<u64>) -> Option<u64> {
        let reg = self.0.as_ref()?;
        if !reg.trace_enabled.load(Ordering::Acquire) {
            return None;
        }
        let ts_ns = u64::try_from(reg.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let trace_id = reg.active_trace.load(Ordering::Relaxed);
        let mut buf = reg.trace.lock().expect("trace ring poisoned");
        let span_id = span_id.unwrap_or_else(|| {
            buf.next_span += 1;
            buf.next_span
        });
        buf.push(TraceEvent {
            name: name.to_owned(),
            phase,
            ts_ns,
            tid: current_tid(),
            trace_id,
            span_id,
        });
        Some(span_id)
    }

    /// A point-in-time copy of everything recorded so far.
    pub fn snapshot(&self) -> Snapshot {
        match &self.0 {
            None => Snapshot::default(),
            Some(reg) => {
                let state = reg.state.lock().expect("metrics registry poisoned");
                Snapshot {
                    counters: state.counters.clone(),
                    spans: state.spans.clone(),
                    histograms: state
                        .hists
                        .iter()
                        .map(|(name, entry)| (name.clone(), entry.hist.snapshot(entry.kind)))
                        .collect(),
                    notes: state.notes.clone(),
                }
            }
        }
    }
}

/// Records one span into its sink when dropped. Created by
/// [`MetricsSink::span`].
#[derive(Debug)]
pub struct SpanGuard<'a> {
    sink: &'a MetricsSink,
    name: String,
    start: Option<Instant>,
    trace_span: Option<u64>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            self.sink.record_span(&self.name, start.elapsed());
        }
        if self.trace_span.is_some() {
            self.sink
                .trace_record(&self.name, TracePhase::End, self.trace_span);
        }
    }
}

// ---------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------

/// Aggregate statistics for one named span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Number of completed spans under this name. Deterministic.
    pub count: u64,
    /// Total wall-clock nanoseconds across those spans. *Not*
    /// deterministic; zeroed by [`Snapshot::normalized`].
    pub total_ns: u128,
}

impl SpanStat {
    fn absorb(&mut self, elapsed: Duration) {
        self.count += 1;
        self.total_ns += elapsed.as_nanos();
    }
}

/// A point-in-time copy of a sink's contents, rendered to JSON by
/// [`Snapshot::to_json`], to plain text by [`Snapshot::render_pretty`],
/// or to Prometheus text exposition by [`Snapshot::to_prometheus`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Monotonic counters, sorted by name. Deterministic across thread
    /// counts (the engine's determinism contract).
    pub counters: BTreeMap<String, u64>,
    /// Span timers, sorted by name. Counts deterministic, durations not.
    pub spans: BTreeMap<String, SpanStat>,
    /// Histograms, sorted by name. [`HistKind::Values`] buckets are
    /// deterministic; [`HistKind::WallClock`] buckets are not.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Status notes in recording order.
    pub notes: Vec<String>,
}

impl Snapshot {
    /// The value of a counter, 0 if never recorded.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Merge `other` into `self` — the fleet fan-in operation. Exact,
    /// associative, and commutative: counters sum; span call counts and
    /// wall-clock totals sum (durations stay quarantined, exactly as
    /// before — [`Snapshot::normalized`] still zeroes them); histograms
    /// merge bucket-wise via [`HistogramSnapshot::merge`], so merged
    /// [`HistKind::Values`] data is bit-identical to a single histogram
    /// fed the concatenated sample streams and fleet quantiles come from
    /// merged buckets, never averaged percentiles. Notes become the
    /// sorted set union, which is what keeps the operation commutative.
    pub fn merge(&mut self, other: &Snapshot) {
        for (name, v) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += v;
        }
        for (name, stat) in &other.spans {
            let slot = self.spans.entry(name.clone()).or_default();
            slot.count += stat.count;
            slot.total_ns += stat.total_ns;
        }
        for (name, hist) in &other.histograms {
            match self.histograms.get_mut(name) {
                Some(mine) => mine.merge(hist),
                None => {
                    self.histograms.insert(name.clone(), hist.clone());
                }
            }
        }
        self.notes.extend(other.notes.iter().cloned());
        self.notes.sort();
        self.notes.dedup();
    }

    /// A copy with every wall-clock quantity zeroed, keeping everything
    /// deterministic: span call counts, value-histogram buckets, and
    /// wall-clock histograms' sample counts (their buckets and sums are
    /// dropped). Two normalized snapshots from runs at different thread
    /// counts must be equal; this is what the determinism tests compare.
    pub fn normalized(&self) -> Snapshot {
        let mut out = self.clone();
        for stat in out.spans.values_mut() {
            stat.total_ns = 0;
        }
        for hist in out.histograms.values_mut() {
            if hist.kind == HistKind::WallClock {
                hist.sum = 0;
                hist.buckets.clear();
            }
        }
        out
    }

    /// Render as a multi-line JSON document with sorted keys: a
    /// `"counters"` object first, then `"spans"` (objects with `count`
    /// and `total_ns`), then `"histograms"` (objects with `kind`,
    /// `count`, `sum`, and `[upper_bound, count]` bucket pairs), then
    /// `"notes"`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(out, "{sep}    \"{}\": {v}", escape_json(name));
        }
        out.push_str(if self.counters.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });
        out.push_str("  \"spans\": {");
        for (i, (name, s)) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(
                out,
                "{sep}    \"{}\": {{ \"count\": {}, \"total_ns\": {} }}",
                escape_json(name),
                s.count,
                s.total_ns
            );
        }
        out.push_str(if self.spans.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });
        out.push_str("  \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(
                out,
                "{sep}    \"{}\": {{ \"kind\": \"{}\", \"count\": {}, \"sum\": {}, \"buckets\": [",
                escape_json(name),
                h.kind,
                h.count,
                h.sum
            );
            for (j, (upper, c)) in h.buckets.iter().enumerate() {
                let sep = if j == 0 { "" } else { ", " };
                let _ = write!(out, "{sep}[{upper}, {c}]");
            }
            out.push_str("] }");
        }
        out.push_str(if self.histograms.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });
        out.push_str("  \"notes\": [");
        for (i, note) in self.notes.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(out, "{sep}    \"{}\"", escape_json(note));
        }
        out.push_str(if self.notes.is_empty() {
            "]\n"
        } else {
            "\n  ]\n"
        });
        out.push('}');
        out
    }

    /// Render in Prometheus text exposition format 0.0.4: counters as
    /// `counter` families, span totals as labelled
    /// `exq_span_calls_total`/`exq_span_ns_total` families, histograms
    /// as `histogram` families with cumulative `_bucket` samples, a
    /// terminal `le="+Inf"` bucket, and `_sum`/`_count`. The output
    /// passes [`check_prometheus`].
    pub fn to_prometheus(&self) -> String {
        prom::render(self)
    }

    /// Render as indented plain text. Spans are indented by their dotted
    /// depth, so `cube_algo.derive` prints nested under `cube_algo`.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (name, v) in &self.counters {
                let _ = writeln!(out, "  {name} = {v}");
            }
        }
        if !self.spans.is_empty() {
            out.push_str("spans (wall-clock):\n");
            for (name, s) in &self.spans {
                let depth = name.matches('.').count();
                let _ = writeln!(
                    out,
                    "  {:indent$}{name}: {} call{}, {} total",
                    "",
                    s.count,
                    if s.count == 1 { "" } else { "s" },
                    format_ns(s.total_ns),
                    indent = depth * 2,
                );
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms:\n");
            for (name, h) in &self.histograms {
                let render = |v: u64| match h.kind {
                    HistKind::Values => v.to_string(),
                    HistKind::WallClock => format_ns(u128::from(v)),
                };
                let _ = writeln!(
                    out,
                    "  {name}: {} sample{}, p50 <= {}, p95 <= {}, p99 <= {}",
                    h.count,
                    if h.count == 1 { "" } else { "s" },
                    render(h.quantile(0.50)),
                    render(h.quantile(0.95)),
                    render(h.quantile(0.99)),
                );
            }
        }
        if !self.notes.is_empty() {
            out.push_str("notes:\n");
            for note in &self.notes {
                let _ = writeln!(out, "  - {note}");
            }
        }
        if out.is_empty() {
            out.push_str("(no metrics recorded)\n");
        }
        out
    }
}

/// Format a nanosecond total with a human-friendly unit.
pub fn format_ns(ns: u128) -> String {
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.1} us", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.3} s", ns as f64 / 1e9)
    }
}

/// Escape a string for inclusion inside a JSON string literal.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_records_nothing() {
        let sink = MetricsSink::disabled();
        assert!(!sink.is_enabled());
        sink.add("a", 3);
        sink.incr("b");
        sink.note("hello");
        sink.observe("h", 1);
        sink.observe_duration("d", Duration::from_millis(1));
        sink.enable_tracing(16);
        sink.set_trace(9);
        assert_eq!(sink.time("t", || 7), 7);
        assert!(!sink.tracing_enabled());
        assert!(sink.trace_chrome_json().is_none());
        assert!(sink.trace_events().is_empty());
        let snap = sink.snapshot();
        assert_eq!(snap, Snapshot::default());
        assert_eq!(snap.counter("a"), 0);
    }

    #[test]
    fn default_sink_is_disabled() {
        assert!(!MetricsSink::default().is_enabled());
    }

    #[test]
    fn counters_accumulate_and_sort() {
        let sink = MetricsSink::recording();
        sink.add("z.last", 1);
        sink.add("a.first", 2);
        sink.add("a.first", 3);
        sink.incr("a.first");
        let snap = sink.snapshot();
        assert_eq!(snap.counter("a.first"), 6);
        assert_eq!(snap.counter("z.last"), 1);
        assert_eq!(snap.counter("missing"), 0);
        let names: Vec<&str> = snap.counters.keys().map(String::as_str).collect();
        assert_eq!(names, ["a.first", "z.last"]);
    }

    #[test]
    fn clones_share_one_registry() {
        let sink = MetricsSink::recording();
        let clone = sink.clone();
        sink.add("shared", 1);
        clone.add("shared", 2);
        assert_eq!(sink.snapshot().counter("shared"), 3);
    }

    #[test]
    fn sink_is_safe_to_feed_from_threads() {
        let sink = MetricsSink::recording();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let sink = sink.clone();
                scope.spawn(move || {
                    for _ in 0..1000 {
                        sink.incr("hits");
                    }
                });
            }
        });
        assert_eq!(sink.snapshot().counter("hits"), 4000);
    }

    #[test]
    fn spans_record_counts_and_durations() {
        let sink = MetricsSink::recording();
        sink.time("outer", || {
            sink.time("outer.inner", || {
                std::thread::sleep(Duration::from_millis(1))
            })
        });
        sink.time("outer.inner", || ());
        let snap = sink.snapshot();
        assert_eq!(snap.spans["outer"].count, 1);
        assert_eq!(snap.spans["outer.inner"].count, 2);
        assert!(snap.spans["outer"].total_ns >= 1_000_000);
    }

    #[test]
    fn value_histograms_are_thread_count_invariant() {
        // The same multiset of samples, fed once from one thread and
        // once split across four, produces identical snapshots.
        let samples: Vec<u64> = (0..400).map(|i| (i * i) % 10_000).collect();
        let sequential = MetricsSink::recording();
        for &v in &samples {
            sequential.observe("h", v);
        }
        let parallel = MetricsSink::recording();
        std::thread::scope(|scope| {
            for chunk in samples.chunks(100) {
                let parallel = parallel.clone();
                scope.spawn(move || {
                    for &v in chunk {
                        parallel.observe("h", v);
                    }
                });
            }
        });
        assert_eq!(
            sequential.snapshot().histograms["h"],
            parallel.snapshot().histograms["h"]
        );
    }

    #[test]
    fn normalized_zeroes_durations_but_keeps_counts() {
        let sink = MetricsSink::recording();
        sink.time("t", || std::thread::sleep(Duration::from_millis(1)));
        sink.add("c", 5);
        sink.observe("rows", 17);
        sink.observe_duration("latency", Duration::from_millis(2));
        let norm = sink.snapshot().normalized();
        assert_eq!(
            norm.spans["t"],
            SpanStat {
                count: 1,
                total_ns: 0
            }
        );
        assert_eq!(norm.counter("c"), 5);
        // Value histograms survive untouched; wall-clock ones collapse
        // to their (deterministic) sample count.
        assert_eq!(
            norm.histograms["rows"],
            HistogramSnapshot {
                kind: HistKind::Values,
                count: 1,
                sum: 17,
                buckets: vec![(19, 1)],
            }
        );
        assert_eq!(
            norm.histograms["latency"],
            HistogramSnapshot {
                kind: HistKind::WallClock,
                count: 1,
                sum: 0,
                buckets: Vec::new(),
            }
        );
    }

    #[test]
    fn json_shape_is_stable() {
        let sink = MetricsSink::recording();
        sink.add("b", 2);
        sink.add("a", 1);
        sink.record_span("s", Duration::from_nanos(50));
        sink.observe("h", 0);
        sink.observe("h", 9);
        sink.note("a \"quoted\"\nnote");
        let json = sink.snapshot().to_json();
        assert_eq!(
            json,
            concat!(
                "{\n",
                "  \"counters\": {\n",
                "    \"a\": 1,\n",
                "    \"b\": 2\n",
                "  },\n",
                "  \"spans\": {\n",
                "    \"s\": { \"count\": 1, \"total_ns\": 50 }\n",
                "  },\n",
                "  \"histograms\": {\n",
                "    \"h\": { \"kind\": \"values\", \"count\": 2, \"sum\": 9, ",
                "\"buckets\": [[0, 1], [9, 1]] }\n",
                "  },\n",
                "  \"notes\": [\n",
                "    \"a \\\"quoted\\\"\\nnote\"\n",
                "  ]\n",
                "}"
            )
        );
    }

    #[test]
    fn empty_snapshot_json_is_valid() {
        let json = Snapshot::default().to_json();
        assert_eq!(
            json,
            "{\n  \"counters\": {},\n  \"spans\": {},\n  \"histograms\": {},\n  \"notes\": []\n}"
        );
    }

    #[test]
    fn pretty_render_lists_everything() {
        let sink = MetricsSink::recording();
        sink.add("join.tuples", 9);
        sink.record_span("explain", Duration::from_micros(3));
        sink.record_span("explain.table", Duration::from_micros(2));
        sink.observe("join.component_rows", 40);
        sink.note("loaded 9 rows");
        let text = sink.snapshot().render_pretty();
        assert!(text.contains("join.tuples = 9"), "{text}");
        assert!(text.contains("explain: 1 call"), "{text}");
        assert!(text.contains("    explain.table: 1 call"), "{text}");
        assert!(
            text.contains("join.component_rows: 1 sample, p50 <= 47"),
            "{text}"
        );
        assert!(text.contains("- loaded 9 rows"), "{text}");
        assert_eq!(
            MetricsSink::disabled().snapshot().render_pretty(),
            "(no metrics recorded)\n"
        );
    }

    #[test]
    fn span_guards_emit_balanced_trace_events() {
        let sink = MetricsSink::recording();
        sink.enable_tracing(64);
        sink.set_trace(42);
        sink.time("outer", || sink.time("outer.inner", || ()));
        let events = sink.trace_events();
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].name, "outer");
        assert_eq!(events[0].phase, TracePhase::Begin);
        assert_eq!(events[1].name, "outer.inner");
        assert_eq!(events[2].phase, TracePhase::End);
        assert_eq!(events[3].name, "outer");
        assert_eq!(events[3].phase, TracePhase::End);
        assert!(events.iter().all(|e| e.trace_id == 42));
        // Begin/end of one span share an id; nested spans do not.
        assert_eq!(events[0].span_id, events[3].span_id);
        assert_ne!(events[0].span_id, events[1].span_id);
        // Timestamps are monotone within the thread.
        assert!(events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
        let json = sink.trace_chrome_json().unwrap();
        assert!(json.contains("\"ph\": \"B\""), "{json}");
        assert!(json.contains("\"trace_id\": 42"), "{json}");
    }

    #[test]
    fn spans_before_tracing_armed_leave_no_events() {
        let sink = MetricsSink::recording();
        sink.time("early", || ());
        assert!(sink.trace_chrome_json().is_none());
        sink.enable_tracing(8);
        sink.time("late", || ());
        let events = sink.trace_events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "late");
        assert_eq!(sink.snapshot().spans["early"].count, 1);
    }

    #[test]
    fn trace_ring_is_bounded() {
        let sink = MetricsSink::recording();
        sink.enable_tracing(4);
        for _ in 0..10 {
            sink.time("s", || ());
        }
        let events = sink.trace_events();
        assert_eq!(events.len(), 4);
        // The export still balances despite the evictions.
        let json = sink.trace_chrome_json().unwrap();
        assert!(json.contains("\"dropped_events\": 16"), "{json}");
    }

    /// Deterministic pseudo-random snapshot generator for the merge
    /// property tests (no external proptest dependency): an LCG drives
    /// a random mix of counter adds, span records, histogram samples,
    /// and notes over a small shared name pool so merges collide.
    fn random_snapshot(seed: u64, ops: usize) -> Snapshot {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        let sink = MetricsSink::recording();
        for _ in 0..ops {
            let r = next();
            let name = format!("m.{}", r % 7);
            match r % 4 {
                0 => sink.add(&name, next() >> (next() % 32)),
                1 => sink.record_span(&name, Duration::from_nanos(next() % 1_000_000)),
                2 => sink.observe(&name, next() >> (next() % 50)),
                _ => sink.note(format!("note {}", next() % 5)),
            }
        }
        sink.snapshot()
    }

    fn merged(a: &Snapshot, b: &Snapshot) -> Snapshot {
        let mut out = a.clone();
        out.merge(b);
        out
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        for seed in 0..24u64 {
            let a = random_snapshot(seed * 3 + 1, 60);
            let b = random_snapshot(seed * 3 + 2, 45);
            let c = random_snapshot(seed * 3 + 3, 30);
            let ab_c = merged(&merged(&a, &b), &c);
            let a_bc = merged(&a, &merged(&b, &c));
            assert_eq!(
                ab_c.to_json(),
                a_bc.to_json(),
                "associativity broke at seed {seed}"
            );
            assert_eq!(
                merged(&a, &b).to_json(),
                merged(&b, &a).to_json(),
                "commutativity broke at seed {seed}"
            );
            // Identity: merging an empty snapshot changes nothing but
            // note ordering, which merge canonicalizes either way.
            let mut canonical = a.clone();
            canonical.merge(&Snapshot::default());
            assert_eq!(merged(&canonical, &Snapshot::default()), canonical);
        }
    }

    #[test]
    fn merge_conserves_counters_and_histogram_mass() {
        for seed in 0..16u64 {
            let parts: Vec<Snapshot> = (0..4).map(|i| random_snapshot(seed * 5 + i, 40)).collect();
            let mut fleet = Snapshot::default();
            for part in &parts {
                fleet.merge(part);
            }
            for name in fleet.counters.keys() {
                let sum: u64 = parts.iter().map(|p| p.counter(name)).sum();
                assert_eq!(fleet.counter(name), sum, "counter {name} not conserved");
            }
            for (name, hist) in &fleet.histograms {
                let count: u64 = parts
                    .iter()
                    .filter_map(|p| p.histograms.get(name))
                    .map(|h| h.count)
                    .sum();
                let mass: u64 = hist.buckets.iter().map(|&(_, c)| c).sum();
                assert_eq!(hist.count, count, "histogram {name} count not conserved");
                assert_eq!(mass, count, "histogram {name} lost bucket mass");
            }
            for (name, span) in &fleet.spans {
                let calls: u64 = parts
                    .iter()
                    .filter_map(|p| p.spans.get(name))
                    .map(|s| s.count)
                    .sum();
                assert_eq!(span.count, calls, "span {name} calls not conserved");
            }
        }
    }

    #[test]
    fn merged_values_histograms_stay_deterministic_under_normalize() {
        // Values histograms merged across "shards" survive normalization
        // untouched; wall-clock ones still collapse.
        let a = MetricsSink::recording();
        let b = MetricsSink::recording();
        for (sink, values) in [(&a, [1u64, 9, 100]), (&b, [9, 500, 4])] {
            for v in values {
                sink.observe("rows", v);
                sink.observe_duration("lat", Duration::from_nanos(v));
            }
        }
        let mut fleet = a.snapshot();
        fleet.merge(&b.snapshot());
        let norm = fleet.normalized();
        assert_eq!(norm.histograms["rows"], fleet.histograms["rows"]);
        assert_eq!(norm.histograms["lat"].count, 6);
        assert!(norm.histograms["lat"].buckets.is_empty());
    }

    #[test]
    fn json_escaping_covers_controls() {
        assert_eq!(
            escape_json("a\"b\\c\nd\re\tf\u{1}"),
            "a\\\"b\\\\c\\nd\\re\\tf\\u0001"
        );
    }

    #[test]
    fn ns_formatting_picks_units() {
        assert_eq!(format_ns(999), "999 ns");
        assert_eq!(format_ns(1_500), "1.5 us");
        assert_eq!(format_ns(2_500_000), "2.50 ms");
        assert_eq!(format_ns(3_000_000_000), "3.000 s");
    }
}
