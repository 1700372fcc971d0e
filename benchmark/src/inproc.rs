//! The run of an in-process workload: set-up, warm-up, the timed replay,
//! and under `--trace 1` the probes and the traced replay that give the
//! per-layer numbers.

use crate::harness::{
    client_classes, end_to_end, probe_preparation, replay, timed_setup, Built, Class, InProcess,
    Stop, Tally,
};
use crate::report::Report;
use crate::spans::{self, Recorder};
use crate::Args;
use exq_obs::{MetricsSink, Snapshot};
use exq_relstore::ExecConfig;
use std::time::Instant;

/// The traced run replays at least this many full cycles traced.
const MIN_TRACED_CYCLES: u64 = 2;

fn span_ms(snapshot: &Snapshot, name: &str) -> f64 {
    snapshot
        .spans
        .get(name)
        .map_or(0.0, |s| s.total_ns as f64 / 1e6)
}

/// Per-layer numbers of a traced replay: program spans and counters from
/// the recording sink, benchmark spans from the recorder.
fn layers_of_traced(report: &mut Report, traced: &Tally, snapshot: &Snapshot, rec: &Recorder) {
    let explains = traced.class(Class::Explain).len().max(1) as f64;
    let appends = traced.class(Class::Append).len();
    let cube = span_ms(snapshot, "cube") / explains;
    let cube_algo = span_ms(snapshot, "cube_algo") / explains;
    report.set("relstore.cube.busy_ms", cube, explains as usize);
    report.set("core.cube_algo.busy_ms", cube_algo, explains as usize);
    report.set(
        "core.cube_algo.self_ms",
        (cube_algo - cube).max(0.0),
        explains as usize,
    );
    let cells = snapshot.counter("cube.cells");
    if cells > 0 {
        let ns = span_ms(snapshot, "cube") * 1e6 / cells as f64;
        report.set("relstore.cube.ns_per_cell", ns, cells as usize);
    }
    for (metric, span) in [
        ("core.explainer.q_d_ms", "q_d"),
        ("core.explainer.table_ms", "table"),
        ("core.explainer.top_ms", "top"),
    ] {
        let (p50, n) = spans::p50_ms(rec.spans(), span);
        report.set(metric, p50, n);
    }
    if appends > 0 {
        let delta = span_ms(snapshot, "ingest.delta_join") / appends as f64;
        let (append, _) = spans::p50_ms(rec.spans(), "append");
        report.set("relstore.join.delta_ms", delta, appends);
        report.set("core.prepared.append_ms", append, appends);
        report.set(
            "core.prepared.append_self_ms",
            (append - delta).max(0.0),
            appends,
        );
    }
    for (metric, counter) in [
        ("relstore.join.delta_tuples", "ingest.delta.tuples"),
        ("relstore.join.full_rebuilds", "ingest.delta.full_rebuilds"),
        ("relstore.cube.cells", "cube.cells"),
        ("relstore.cube.input_tuples", "cube.input_tuples"),
        ("core.cube_algo.sub_queries", "cube_algo.sub_queries"),
        ("core.cube_algo.joined_cells", "cube_algo.joined_cells"),
        ("core.engine.candidates", "engine.candidates_evaluated"),
    ] {
        report.set_per_cycle(metric, snapshot.counter(counter), traced.cycles);
    }
    report.set(
        "core.explainer.naive_fallbacks",
        traced.fell_back as f64,
        explains as usize,
    );
}

/// Explain p50 of `tally`, for the overhead ratios.
fn explain_p50(tally: &Tally) -> f64 {
    tally.class(Class::Explain).p(50.0).unwrap_or(f64::NAN)
}

/// Run one in-process workload as `args` ask.
pub fn run<W: InProcess>(args: &Args, setup: impl Fn() -> Built<W>) -> Report {
    let mut report = Report::default();
    let (built, setup_s, setups) = if args.trace {
        (setup(), 0.0, 0)
    } else {
        timed_setup(&setup, drop)
    };
    let Built {
        workload: mut w,
        generate_ms,
        pristine,
    } = built;
    if !w.cube_agrees_with_naive() {
        report.problem("the cube path disagrees with Explainer::force_naive");
    }
    let mut expected = Vec::new();
    let sequential = ExecConfig::sequential();

    // First cycle: untimed warm-up, and the reference digests.
    let warm = replay(
        &mut w,
        &sequential,
        &mut Recorder::disabled(),
        Stop::Cycles(1),
        &mut expected,
    );
    report.attempted += warm.attempted;
    report.failed += warm.failed;

    if !args.trace {
        let timed = replay(
            &mut w,
            &sequential,
            &mut Recorder::disabled(),
            Stop::Seconds(args.seconds),
            &mut expected,
        );
        end_to_end(&mut report, &timed, (setup_s, setups));
    } else {
        probe_preparation(&mut report, &pristine, generate_ms);
        // Rounds of one cycle untraced, one traced (recording sink and
        // benchmark spans), one with the recording sink alone. The three
        // alternate, and the order rotates from round to round, so that
        // they sample the same machine weather and none is always first;
        // the ratios between them are what tracing and recording cost.
        let sink = MetricsSink::recording();
        let with_sink = ExecConfig::sequential().with_metrics(sink.clone());
        let recording_only = ExecConfig::sequential().with_metrics(MetricsSink::recording());
        let mut rec = Recorder::new(Instant::now(), true, 0);
        let (mut plain, mut traced, mut recording) =
            (Tally::default(), Tally::default(), Tally::default());
        let started = Instant::now();
        let mut round = 0;
        while traced.cycles < MIN_TRACED_CYCLES
            || started.elapsed().as_secs_f64() < args.seconds * 0.8
        {
            for k in 0..3 {
                let (exec, rec, tally) = match (k + round) % 3 {
                    0 => (&sequential, &mut Recorder::disabled(), &mut plain),
                    1 => (&with_sink, &mut rec, &mut traced),
                    _ => (&recording_only, &mut Recorder::disabled(), &mut recording),
                };
                tally.absorb(&replay(&mut w, exec, rec, Stop::Cycles(1), &mut expected));
            }
            round += 1;
        }
        client_classes(&mut report, &plain);
        layers_of_traced(&mut report, &traced, &sink.snapshot(), &rec);
        report.set(
            "bench.trace_overhead_ratio",
            explain_p50(&traced) / explain_p50(&plain),
            traced.class(Class::Explain).len(),
        );
        report.set(
            "obs.recording_overhead_ratio",
            explain_p50(&recording) / explain_p50(&plain),
            recording.class(Class::Explain).len(),
        );
        w.extra_layers(&mut report, &mut expected);
        for t in [&plain, &traced, &recording] {
            report.attempted += t.attempted;
            report.failed += t.failed;
        }
        crate::write_trace(args, rec.spans(), &mut report);
    }
    report.digests = expected.into_iter().flatten().collect();
    report
}
