//! The Chrome trace exporter feeds external tools (Perfetto,
//! `chrome://tracing`), so its output must always be well-formed JSON
//! with stack-balanced begin/end events — even when span guards drop in
//! arbitrary orders or the bounded ring evicts the oldest half of a
//! trace. Drive random span schedules across several threads through a
//! traced [`exq_obs::MetricsSink`] and check the export with the
//! server's own JSON reader. Also round-trip arbitrary strings
//! (control characters included) through [`exq_obs::escape_json`] and
//! the reader, since every JSON document the workspace emits leans on
//! that escaper.

use exq_obs::{escape_json, MetricsSink};
use exq_serve::json::{self, Json};
use proptest::prelude::*;
use std::collections::BTreeMap;

const NAMES: [&str; 4] = ["join", "cube", "semijoin", "cube_algo"];

/// Interpret `plan` as a push/pop schedule of nested spans: each byte
/// either opens a span (name picked from a small pool) or closes the
/// innermost open one. Leftover spans close innermost-first, as real
/// scoped guards do.
fn run_plan(sink: &MetricsSink, plan: &[u8]) {
    let mut open = Vec::new();
    for &b in plan {
        if b % 3 != 0 && open.len() < 8 {
            open.push(sink.span(NAMES[(b as usize / 3) % NAMES.len()]));
        } else {
            open.pop();
        }
    }
    while open.pop().is_some() {}
}

/// Walk `traceEvents` keeping one stack per tid: every `E` must match
/// the innermost open `B` (same name and span id), and every stack must
/// be empty at the end.
fn assert_balanced(doc: &Json) {
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    let mut stacks: BTreeMap<usize, Vec<(String, usize)>> = BTreeMap::new();
    for event in events {
        let name = event
            .get("name")
            .and_then(|v| v.as_str())
            .expect("event name")
            .to_owned();
        let phase = event.get("ph").and_then(|v| v.as_str()).expect("event ph");
        let tid = event
            .get("tid")
            .and_then(|v| v.as_usize())
            .expect("event tid");
        let span_id = event
            .get("args")
            .and_then(|a| a.get("span_id"))
            .and_then(|v| v.as_usize())
            .expect("event span_id");
        assert!(
            event.get("ts").and_then(|v| v.as_f64()).is_some(),
            "ts must be numeric"
        );
        match phase {
            "B" => stacks.entry(tid).or_default().push((name, span_id)),
            "E" => {
                let top = stacks
                    .get_mut(&tid)
                    .and_then(Vec::pop)
                    .unwrap_or_else(|| panic!("E without open B on tid {tid}"));
                assert_eq!(top, (name, span_id), "E must close the innermost B");
            }
            other => panic!("unexpected phase {other:?}"),
        }
    }
    for (tid, stack) in stacks {
        assert!(stack.is_empty(), "unclosed B events on tid {tid}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64 })]

    #[test]
    fn chrome_export_is_parseable_and_stack_balanced(
        plans in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..40),
            1..4,
        ),
    ) {
        let sink = MetricsSink::recording();
        sink.enable_tracing(4096);
        sink.set_trace(7);
        std::thread::scope(|scope| {
            for plan in &plans {
                scope.spawn(|| run_plan(&sink, plan));
            }
        });
        let text = sink.trace_chrome_json().expect("tracing is armed");
        let doc = json::parse(text.as_bytes()).expect("export must parse");
        assert_balanced(&doc);
        prop_assert!(
            doc.get("metadata")
                .and_then(|m| m.get("dropped_events"))
                .and_then(|v| v.as_usize())
                .is_some()
        );
    }

    #[test]
    fn overflowing_ring_still_exports_balanced_events(
        plan in proptest::collection::vec(any::<u8>(), 32..160),
        capacity in 2usize..24,
    ) {
        // A tiny ring evicts begin events out from under their ends;
        // the exporter must drop the orphans rather than emit them.
        let sink = MetricsSink::recording();
        sink.enable_tracing(capacity);
        sink.set_trace(1);
        run_plan(&sink, &plan);
        let text = sink.trace_chrome_json().expect("tracing is armed");
        let doc = json::parse(text.as_bytes()).expect("export must parse");
        assert_balanced(&doc);
    }

    #[test]
    fn escape_json_round_trips_through_the_reader(
        chars in proptest::collection::vec(any::<char>(), 0..80),
    ) {
        let original: String = chars.into_iter().collect();
        let doc = format!("{{\"s\": \"{}\"}}", escape_json(&original));
        let parsed = json::parse(doc.as_bytes()).expect("escaped string must parse");
        prop_assert_eq!(
            parsed.get("s").and_then(|v| v.as_str()),
            Some(original.as_str())
        );
    }
}
