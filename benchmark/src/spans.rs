//! Benchmark-side spans: recorded in memory around each call into a
//! public function, written as Chrome-trace JSON when the run ends.
//!
//! The program's own spans (`MetricsSink`) are aggregated totals; these
//! keep every interval with the span that caused it, which is what
//! self time needs.

use std::time::Instant;

/// Token for a span that was not recorded (recorder disabled).
const OFF: usize = usize::MAX;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// One id per operation; every span of the operation shares it.
    pub op_id: u64,
    /// Recording thread (one recorder per client thread, merged later).
    pub tid: u32,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span recorder for one thread. Disabled, `enter`/`exit` read no
/// clock and store nothing, so the timed run pays nothing for sharing
/// its code path with the traced run.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    tid: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
    ops: u64,
}

impl Recorder {
    pub fn disabled() -> Recorder {
        Recorder::new(Instant::now(), false, 0)
    }

    /// Recorders of one run share `origin` so their spans share a clock.
    pub fn new(origin: Instant, enabled: bool, tid: u32) -> Recorder {
        Recorder {
            origin,
            enabled,
            tid,
            spans: Vec::new(),
            open: Vec::new(),
            ops: 0,
        }
    }

    /// A fresh operation id; every span of one operation carries it.
    /// Ids of different threads differ in their high half.
    pub fn next_op(&mut self) -> u64 {
        self.ops += 1;
        (u64::from(self.tid) << 32) | self.ops
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn enter(&mut self, name: &'static str, op_id: u64) -> usize {
        if !self.enabled {
            return OFF;
        }
        let now = self.now();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            op_id,
            tid: self.tid,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Close `token` and, with it, any span still open inside it (an
    /// operation that failed half-way leaves its children open).
    pub fn exit(&mut self, token: usize) {
        if token == OFF {
            return;
        }
        let now = self.now();
        while let Some(open) = self.open.pop() {
            self.spans[open].end_ns = now;
            if open == token {
                break;
            }
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Append another thread's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Recorder) {
        let shift = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + shift);
            s
        }));
    }
}

/// Self time of every span: its duration minus the part of its interval
/// its direct children cover (children of one parent on one thread never
/// overlap, so their durations add).
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.ns());
        }
    }
    own
}

/// Median duration in milliseconds of the spans called `name` (0 if
/// none), and how many there were.
pub fn p50_ms(spans: &[Span], name: &str) -> (f64, usize) {
    let ms: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.ns() as f64 / 1e6)
        .collect();
    if ms.is_empty() {
        (0.0, 0)
    } else {
        (crate::stats::median(&ms), ms.len())
    }
}

/// Chrome-trace JSON (`chrome://tracing`, Perfetto): one complete event
/// per span, `args` carrying the operation id, the parent and self time.
pub fn chrome_json(spans: &[Span]) -> String {
    use std::fmt::Write as _;
    let own = self_ns(spans);
    let mut out = String::from("{\"traceEvents\": [\n");
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}, \
             \"args\": {{\"id\": {i}, \"parent\": {parent}, \"op_id\": {}, \"self_us\": {:.3}}}}}{sep}",
            s.name,
            s.tid,
            s.start_ns as f64 / 1e3,
            s.ns() as f64 / 1e3,
            s.op_id,
            own[i] as f64 / 1e3,
        );
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            start_ns,
            end_ns,
            parent,
            op_id: 0,
            tid: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_covered_child_time() {
        // op 0..100 with children 10..30 and 40..90; the second child
        // has a grandchild 50..60 that must not be charged to the op.
        let spans = [
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(40, 90, Some(0)),
            span(50, 60, Some(2)),
        ];
        assert_eq!(self_ns(&spans), vec![30, 20, 40, 10]);
        let total: u64 = self_ns(&spans).iter().sum();
        assert_eq!(total, 100, "self times partition the root span");
    }

    #[test]
    fn recorder_links_parents_and_disabled_records_nothing() {
        let mut r = Recorder::new(Instant::now(), true, 3);
        let id = r.next_op();
        assert_ne!(id, r.next_op());
        let op = r.enter("op", id);
        let child = r.enter("child", id);
        r.exit(child);
        r.exit(op);
        assert_eq!(r.spans()[1].parent, Some(0));
        assert_eq!(r.spans()[0].parent, None);
        assert!(r.spans()[0].ns() >= r.spans()[1].ns());
        assert_eq!(r.spans()[1].tid, 3);

        let mut off = Recorder::disabled();
        let t = off.enter("op", 1);
        off.exit(t);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn absorb_keeps_parent_links() {
        let origin = Instant::now();
        let mut a = Recorder::new(origin, true, 0);
        let t = a.enter("a", 0);
        a.exit(t);
        let mut b = Recorder::new(origin, true, 1);
        let outer = b.enter("outer", 1);
        let inner = b.enter("inner", 1);
        b.exit(inner);
        b.exit(outer);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert!(chrome_json(a.spans()).contains("\"name\": \"inner\""));
    }
}
