//! What every workload shares: operation classes and their tally, the
//! replay loop of the in-process workloads, the explain operation itself,
//! repeated set-up, and the metrics every run owes.

use crate::data::Shape;
use crate::digest::Fnv;
use crate::report::Report;
use crate::spans::Recorder;
use crate::stats::{median, Sample};
use exq_core::explainer::EngineChoice;
use exq_core::prelude::DegreeKind;
use exq_core::prepared::PreparedDb;
use exq_obs::MetricsSink;
use exq_relstore::{semijoin, ColumnStore, Database, ExecConfig, Universal};
use std::sync::Arc;
use std::time::Instant;

/// Operation classes. Latencies are reported per class, never pooled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// A non-cached explain at the workload's entry point.
    Explain,
    /// A cache-hit explain (HTTP only).
    Hit,
    /// One acknowledged append batch.
    Append,
    /// One cold `PreparedDb::build_with`.
    Prepare,
}

pub const CLASSES: usize = 4;

/// What one operation did.
#[derive(Debug, Clone, Copy)]
pub struct Done {
    pub class: Class,
    pub ms: f64,
    /// Digest of the ranked answer; `None` marks a failed operation.
    pub digest: Option<u64>,
    /// The explain left the cube path (`EngineChoice` was not `Cube`).
    pub fell_back: bool,
}

/// Latencies and failure counts of one replay.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    pub by_class: [Sample; CLASSES],
    pub attempted: u64,
    pub failed: u64,
    /// Seconds the operations took (in-process: their sum; HTTP: wall
    /// time of the cycles, since two clients overlap).
    pub timed_s: f64,
    pub cycles: u64,
    pub fell_back: u64,
}

impl Tally {
    pub fn class(&self, class: Class) -> &Sample {
        &self.by_class[class as usize]
    }

    /// Book one operation; `expected` is the digest the same schedule
    /// slot must always produce.
    pub fn book(&mut self, done: Done, expected: &mut Option<u64>) {
        self.attempted += 1;
        self.fell_back += u64::from(done.fell_back);
        let agrees = match (done.digest, *expected) {
            (None, _) => false,
            (Some(d), Some(e)) => d == e,
            (Some(d), None) => {
                *expected = Some(d);
                true
            }
        };
        if agrees {
            self.by_class[done.class as usize].push(done.ms);
        } else {
            self.failed += 1;
        }
    }

    pub fn absorb(&mut self, other: &Tally) {
        for (mine, theirs) in self.by_class.iter_mut().zip(&other.by_class) {
            mine.extend(theirs);
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.fell_back += other.fell_back;
        self.timed_s += other.timed_s;
        self.cycles += other.cycles;
    }

    pub fn completed(&self) -> usize {
        self.by_class.iter().map(Sample::len).sum()
    }

    /// Mean latency over every class, in milliseconds.
    pub fn mean_ms(&self) -> f64 {
        self.by_class.iter().map(Sample::sum).sum::<f64>() / self.completed().max(1) as f64
    }
}

/// When a replay stops.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After this many seconds of operations (checked before each one).
    Seconds(f64),
    /// After this many full cycles.
    Cycles(u64),
}

/// An in-process workload: a fixed schedule of operations per cycle, one
/// caller thread.
pub trait InProcess {
    fn ops_per_cycle(&self) -> usize;
    /// Reset to the state the first operation expects. Not timed.
    fn begin_cycle(&mut self);
    /// Run operation `i` of the cycle on `exec`.
    fn op(&mut self, i: usize, exec: &ExecConfig, rec: &mut Recorder) -> Done;
    /// Cross-check the cube path against `Explainer::force_naive` on a
    /// small shape. Runs once after set-up, outside every clock.
    fn cube_agrees_with_naive(&self) -> bool {
        true
    }
    /// Per-layer numbers only this workload can give (traced run only).
    fn extra_layers(&mut self, _report: &mut Report, _expected: &mut Vec<Option<u64>>) {}
}

/// Replay the schedule cycle after cycle. `expected[i]` pins the digest
/// of schedule slot `i` across cycles (and across replays that share it).
pub fn replay(
    w: &mut impl InProcess,
    exec: &ExecConfig,
    rec: &mut Recorder,
    stop: Stop,
    expected: &mut Vec<Option<u64>>,
) -> Tally {
    let n = w.ops_per_cycle();
    expected.resize(n, None);
    let mut tally = Tally::default();
    'cycles: loop {
        if matches!(stop, Stop::Cycles(c) if tally.cycles >= c) {
            break;
        }
        w.begin_cycle();
        let cycle = rec.enter("cycle", tally.cycles);
        for (i, slot) in expected.iter_mut().enumerate() {
            if matches!(stop, Stop::Seconds(s) if tally.timed_s >= s) {
                rec.exit(cycle);
                break 'cycles;
            }
            let done = w.op(i, exec, rec);
            tally.timed_s += done.ms / 1e3;
            tally.book(done, slot);
        }
        rec.exit(cycle);
        tally.cycles += 1;
    }
    tally
}

/// Median nanoseconds per call of `f`, over `batches` timed batches of
/// `calls` calls each (one clock read per batch, so calls far shorter
/// than the clock's own cost still resolve).
pub fn ns_per_call(batches: usize, calls: usize, mut f: impl FnMut()) -> f64 {
    let per_call: Vec<f64> = (0..batches)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..calls {
                f();
            }
            start.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&per_call)
}

/// Milliseconds since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// One cold explain the way `serve::server::request_explainer` runs it:
/// a fresh `Explainer` over the shared intermediates, sequential, then
/// `q_d`, `table`, `top`. The digest (explanations and degree bits) is
/// taken after the clock stops. Falling off the cube path fails the
/// operation: the benchmark is sized for Algorithm 1.
pub fn explain(
    prepared: &PreparedDb,
    shape: &Shape,
    exec: &ExecConfig,
    rec: &mut Recorder,
) -> Done {
    let op_id = rec.next_op();
    let start = Instant::now();
    let op = rec.enter("explain", op_id);
    let answer = (|| {
        let explainer = prepared
            .explainer(shape.question.clone())
            .exec(exec.clone())
            .attr_names(&shape.attrs)?;
        let s = rec.enter("q_d", op_id);
        let q_d = explainer.q_d()?;
        rec.exit(s);
        let s = rec.enter("table", op_id);
        let (table, choice) = explainer.table()?;
        rec.exit(s);
        let s = rec.enter("top", op_id);
        let ranked = explainer.top(DegreeKind::Intervention, shape.top)?;
        rec.exit(s);
        Ok::<_, exq_core::error::Error>((q_d, table.len(), choice, ranked))
    })();
    rec.exit(op);
    let ms = ms_since(start);
    let fell_back = matches!(answer, Ok((_, _, EngineChoice::Naive, _)));
    let digest = match answer {
        Ok((q_d, rows, EngineChoice::Cube, ranked)) => {
            let mut h = Fnv::new();
            h.u64(q_d.to_bits());
            h.u64(rows as u64);
            for r in &ranked {
                h.bytes(r.explanation.display(prepared.db()).to_string().as_bytes());
                h.u64(r.degree.to_bits());
            }
            Some(h.finish())
        }
        _ => None,
    };
    Done {
        class: Class::Explain,
        ms,
        digest,
        fell_back,
    }
}

/// Set-up is repeated and its median reported, so one slow allocation
/// does not decide `setup_s`: at least `SETUP_REPEATS` times, and cheap
/// set-ups (tens of milliseconds, where noise is a large share) up to
/// `SETUP_REPEATS_MAX` times while they fit in `SETUP_BUDGET_S`.
pub const SETUP_REPEATS: usize = 3;
const SETUP_REPEATS_MAX: usize = 41;
const SETUP_BUDGET_S: f64 = 1.0;

/// A workload as set-up leaves it.
pub struct Built<W> {
    pub workload: W,
    pub generate_ms: f64,
    /// The loaded database before anything built columns on it, for the
    /// probes that time each preparation step on its own.
    pub pristine: Database,
}

/// Run `setup` repeatedly; keep the last, report the median of the
/// repeats and how many there were. Earlier repeats are retired outside
/// the clock.
pub fn timed_setup<T>(setup: impl Fn() -> T, retire: impl Fn(T)) -> (T, f64, usize) {
    let mut seconds = Vec::new();
    let mut last = None;
    while seconds.len() < SETUP_REPEATS
        || (seconds.len() < SETUP_REPEATS_MAX && seconds.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        if let Some(previous) = last.take() {
            retire(previous);
        }
        let start = Instant::now();
        last = Some(setup());
        seconds.push(start.elapsed().as_secs_f64());
    }
    (
        last.expect("at least one set-up"),
        median(&seconds),
        seconds.len(),
    )
}

/// End-to-end metrics every workload owes, from its timed tally.
pub fn end_to_end(report: &mut Report, tally: &Tally, (setup_s, setups): (f64, usize)) {
    let explain = tally.class(Class::Explain);
    report.attempted += tally.attempted;
    report.failed += tally.failed;
    report.set("setup_s", setup_s, setups);
    if let (Some(p50), Some(p90)) = (explain.p(50.0), explain.p(90.0)) {
        report.set("explain_p50_ms", p50, explain.len());
        report.set("explain_p90_ms", p90, explain.len());
    }
    report.set(
        "ops_per_s",
        tally.completed() as f64 / tally.timed_s.max(1e-9),
        tally.completed(),
    );
    report.set("peak_rss_mb", crate::sys::peak_rss_mb(), 1);
    for (class, label) in [
        (Class::Explain, "explain"),
        (Class::Hit, "hit"),
        (Class::Append, "append"),
        (Class::Prepare, "prepare"),
    ] {
        let sample = tally.class(class);
        if crate::stats::highest_supported(sample.len()) == 99 {
            let p99 = sample.p(99.0).expect("non-empty");
            report
                .info
                .push((format!("{label}_p99_ms"), p99, "ms", sample.len()));
        }
    }
    report.info.push((
        "cycles".into(),
        tally.cycles as f64,
        "count",
        tally.completed(),
    ));
}

/// Client-observed latencies of the classes only some workloads have.
pub fn client_classes(report: &mut Report, tally: &Tally) {
    for (class, p50, p90) in [
        (Class::Hit, "client.hit_p50_ms", Some("client.hit_p90_ms")),
        (
            Class::Append,
            "client.append_p50_ms",
            Some("client.append_p90_ms"),
        ),
        (Class::Prepare, "client.prepare_p50_ms", None),
    ] {
        let sample = tally.class(class);
        if let Some(v) = sample.p(50.0) {
            report.set(p50, v, sample.len());
        }
        if let (Some(name), Some(v)) = (p90, sample.p(90.0)) {
            report.set(name, v, sample.len());
        }
    }
}

/// Time each preparation step on its own, from outside, on a copy of the
/// loaded database; counts come from the program's own sink.
pub fn probe_preparation(report: &mut Report, pristine: &Database, generate_ms: f64) {
    report.set("datagen.generate_ms", generate_ms, 1);
    let start = Instant::now();
    std::hint::black_box(ColumnStore::build(pristine));
    report.set("relstore.column.build_ms", ms_since(start), 1);

    // The steps below read the columns; build them outside the clocks.
    let db = pristine.clone();
    let _ = db.columns();
    let exec = ExecConfig::sequential();
    let start = Instant::now();
    let reduced = semijoin::reduce_with(&db, &db.full_view(), &exec);
    report.set("relstore.semijoin.reduce_ms", ms_since(start), 1);
    let start = Instant::now();
    std::hint::black_box(Universal::compute_with(&db, &reduced, &exec));
    report.set("relstore.join.universal_ms", ms_since(start), 1);

    let sink = MetricsSink::recording();
    let cold = Arc::new(pristine.clone());
    let start = Instant::now();
    std::hint::black_box(PreparedDb::build_with(
        cold,
        &ExecConfig::sequential().with_metrics(sink.clone()),
    ));
    report.set("core.prepared.build_ms", ms_since(start), 1);
    let snapshot = sink.snapshot();
    for (metric, counter) in [
        ("relstore.semijoin.rows_dropped", "semijoin.rows_dropped"),
        ("relstore.join.tuples", "join.tuples"),
        ("relstore.join.probe_matches", "join.probe_matches"),
    ] {
        report.set(metric, snapshot.counter(counter) as f64, 1);
    }
}
