//! The run of an HTTP workload: set-up with a first boot, the reference
//! pass that fixes what every answer must be, then cycles against a
//! fresh topology each, timed untraced or replayed traced.

use crate::harness::{
    client_classes, end_to_end, probe_preparation, timed_setup, Built, Class, Tally,
};
use crate::httpx::{self, Req, Table, Via, CLIENTS};
use crate::report::Report;
use crate::spans::Recorder;
use crate::Args;
use exq_obs::{MetricsSink, Snapshot};
use std::net::SocketAddr;
use std::time::Instant;

/// A booted server or front-plus-workers. Stopping joins every thread.
pub trait Live {
    fn addr(&self) -> SocketAddr;
    /// Shut down and return the merged metrics of every tier.
    fn stop(self) -> Snapshot;
}

pub trait Http {
    type Topology: Live;
    /// Boot a fresh topology over the initial dataset; every tier records
    /// into a clone of `sink`.
    fn boot(&self, sink: &MetricsSink) -> Self::Topology;
    /// Each client's requests for one cycle.
    fn lists(&self) -> &[Vec<Req>];
    fn via(&self) -> Via;
    /// What every answer must be, from a pass that shares no state with
    /// the measured topologies. Also the warm-up.
    fn reference(&self) -> Result<Table, String>;
    /// Per-layer numbers only this workload can give (traced run only).
    fn extra_layers(&self, report: &mut Report, plain: &Tally, traced: &Tally, snapshot: &Snapshot);
}

/// Mean duration in milliseconds of a program span (0 if it never ran).
pub fn span_mean_ms(snapshot: &Snapshot, name: &str) -> f64 {
    match snapshot.spans.get(name) {
        Some(s) if s.count > 0 => s.total_ns as f64 / s.count as f64 / 1e6,
        _ => 0.0,
    }
}

/// Replay cycles, a fresh topology each, until `seconds` of cycle wall
/// time are spent or `max_cycles` are done. Returns the tally and the
/// metrics the last topology handed back when it stopped.
fn cycles<W: Http>(
    w: &W,
    table: &Table,
    (seconds, max_cycles): (f64, u64),
    sink: &MetricsSink,
    mut trace: Option<&mut Recorder>,
) -> (Tally, Snapshot) {
    let mut tally = Tally::default();
    let mut snapshot = Snapshot::default();
    while tally.timed_s < seconds && tally.cycles < max_cycles {
        let live = w.boot(sink);
        let span = trace
            .as_mut()
            .map(|rec| (rec.enter("cycle", 0), rec.origin()));
        let addr = live.addr();
        let (one, clients) = httpx::cycle(
            |_| addr,
            w.lists(),
            w.via(),
            seconds - tally.timed_s,
            Some(table),
            span.map(|(_, origin)| origin),
        );
        snapshot = live.stop();
        tally.absorb(&one);
        if let (Some(rec), Some((span, _))) = (trace.as_mut(), span) {
            rec.exit(span);
            for client in clients {
                rec.absorb(client);
            }
        }
    }
    (tally, snapshot)
}

pub fn run<W: Http>(args: &Args, setup: impl Fn() -> Built<W>) -> Report {
    let mut report = Report::default();
    let off = MetricsSink::disabled();
    // Set-up ends when the first topology answers its port; stopping it
    // is not part of it.
    let boot_too = || {
        let built = setup();
        let live = built.workload.boot(&off);
        (built, live)
    };
    let stop = |(_, live): (Built<W>, W::Topology)| drop(live.stop());
    let ((built, first), setup_s, setups) = if args.trace {
        (boot_too(), 0.0, 0)
    } else {
        timed_setup(boot_too, stop)
    };
    first.stop();
    let Built {
        workload: w,
        generate_ms,
        pristine,
    } = built;
    let table = match w.reference() {
        Ok(table) => table,
        Err(why) => {
            report.problem(format!("reference pass failed: {why}"));
            return report;
        }
    };
    report.digests = table.values().copied().collect();

    if !args.trace {
        let (timed, _) = cycles(&w, &table, (args.seconds, u64::MAX), &off, None);
        end_to_end(&mut report, &timed, (setup_s, setups));
    } else {
        probe_preparation(&mut report, &pristine, generate_ms);
        // Rounds of one full cycle untraced, one traced (every tier on one
        // recording sink, a span per request), alternating so that both
        // sample the same machine weather.
        let sink = MetricsSink::recording();
        let mut rec = Recorder::new(Instant::now(), true, CLIENTS as u32);
        let (mut plain, mut traced) = (Tally::default(), Tally::default());
        let mut snapshot = Snapshot::default();
        let one_cycle = (f64::INFINITY, 1);
        let started = Instant::now();
        while traced.cycles == 0 || started.elapsed().as_secs_f64() < args.seconds * 0.5 {
            plain.absorb(&cycles(&w, &table, one_cycle, &off, None).0);
            let (one, all_so_far) = cycles(&w, &table, one_cycle, &sink, Some(&mut rec));
            traced.absorb(&one);
            snapshot = all_so_far;
        }
        client_classes(&mut report, &plain);
        server_layers(&mut report, &snapshot, traced.cycles);
        report.set(
            "bench.trace_overhead_ratio",
            traced.mean_ms() / plain.mean_ms(),
            traced.completed(),
        );
        w.extra_layers(&mut report, &plain, &traced, &snapshot);
        for t in [&plain, &traced] {
            report.attempted += t.attempted;
            report.failed += t.failed;
        }
        crate::write_trace(args, rec.spans(), &mut report);
    }
    report
}

/// The `serve` layer's own spans and counters, as the workers recorded
/// them: mean per run of each span, counts per cycle.
fn server_layers(report: &mut Report, snapshot: &Snapshot, cycles: u64) {
    for (metric, span) in [
        ("serve.server.request_ms", "server.request"),
        ("serve.server.parse_ms", "server.request.parse"),
        ("serve.server.cache_ms", "server.request.cache"),
        ("serve.server.explain_ms", "server.request.explain"),
        ("serve.server.render_ms", "server.request.render"),
        ("serve.server.append_ms", "server.request.append"),
        ("relstore.join.delta_ms", "ingest.delta_join"),
    ] {
        let n = snapshot.spans.get(span).map_or(0, |s| s.count as usize);
        report.set(metric, span_mean_ms(snapshot, span), n);
    }
    for (metric, counter) in [
        ("serve.server.rejected_busy", "server.rejected_busy"),
        ("serve.cache.evictions", "server.cache.evictions"),
        ("relstore.join.delta_tuples", "ingest.delta.tuples"),
        ("relstore.join.full_rebuilds", "ingest.delta.full_rebuilds"),
    ] {
        report.set_per_cycle(metric, snapshot.counter(counter), cycles);
    }
}

/// Median latency of `n` sequential posts of `bodies` (cycled) from one
/// client, for the side measurements that compare two ways of asking the
/// same thing. Failed posts are booked in `report`.
pub fn p50_of_posts(
    report: &mut Report,
    addr: SocketAddr,
    via: Via,
    bodies: &[String],
    n: usize,
    want: Class,
) -> f64 {
    let list: Vec<Req> = (0..n)
        .map(|i| Req {
            path: "/v1/explain".into(),
            body: bodies[i % bodies.len()].clone(),
            slot: usize::MAX,
            append_order: None,
        })
        .collect();
    let (tally, _) = httpx::cycle(|_| addr, &[list], via, f64::INFINITY, None, None);
    report.attempted += tally.attempted;
    report.failed += tally.failed;
    let sample = tally.class(want);
    if sample.len() < n / 2 {
        report.problem(format!(
            "side measurement wanted {want:?}, got {} of {n}",
            sample.len()
        ));
    }
    sample.p(50.0).unwrap_or(0.0)
}
