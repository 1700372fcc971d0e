//! The serving contract as schedules over one history
//! (`support/serving.rs`): at 1, 2 and 7 threads, through one server or
//! a two-shard front, with a shard killed and replaced, and against two
//! deliberately wrong servers that the checker must catch.

#[path = "support/serving.rs"]
mod serving;

use serving::*;

const THREADS: [usize; 3] = [1, 2, 7];

#[test]
fn seeded_schedules_on_one_server_and_a_two_shard_front_at_1_2_7_threads() {
    let fx = fixtures();
    for target in [Target::Server, Target::Front] {
        for (threads, seed) in THREADS.into_iter().flat_map(|t| [(t, 1), (t, 2), (t, 3)]) {
            check(fx, &run(fx, target, threads, &seeded(fx, seed)));
        }
    }
}

/// Worker 0 is killed between two mixes: its dataset gets bounded `503`s
/// while dataset 1 keeps answering `200`; the published replacement
/// serves the pre-kill bytes; the fleet exposition is checker-clean and
/// its exemplar's trace can be fetched through the front. Dataset 0 takes
/// no appends: a replacement losing them is the ignored schedule below.
#[test]
fn kill_schedule_degrades_one_shard_and_the_replacement_serves_the_pre_kill_bytes() {
    let fx = fixtures();
    for threads in THREADS {
        let mut steps = swept(fx, 4, mix(fx, 4, 4, &[1]));
        let down = Step::Clients(mix(fx, 5, 4, &[]));
        steps.splice(2..2, [Step::Kill(0), down, Step::Replace(0)]);
        let done = run(fx, Target::Front, threads, &steps);
        check(fx, &done);
        let h = &done.history;
        let key = |r: &Record| (r.step, r.request.dataset, r.response.status);
        let bodies = |step, d, status| -> Vec<String> {
            let of = h.iter().filter(|r| key(r) == (step, Some(d), status));
            of.map(|r| scrub_total_ns(&r.response.text())).collect()
        };
        let [down, dead, alive] = [bodies(3, 0, 503), bodies(3, 0, 200), bodies(3, 1, 200)];
        assert!(!down.is_empty() && dead.is_empty() && !alive.is_empty());
        let (before, after) = (bodies(0, 0, 200), bodies(5, 0, 200));
        assert_eq!(before.len(), 4);
        assert_eq!(after, before, "the replacement's bytes");
        // The final sweep's scrape, then its retained traces.
        let last = |path: &str| {
            let found = h.iter().rfind(|r| r.request.path == path);
            found.unwrap().response.text()
        };
        let prom = last("/metrics");
        exq::obs::check_prometheus(&prom).unwrap_or_else(|e| panic!("{e}\n{prom}"));
        let exemplars = prom.lines().filter_map(|l| l.strip_prefix("# exemplar "));
        let exemplar = exemplars.filter_map(|l| l.split_once("trace_id=")).next();
        let trace = format!("\"trace_id\": {}", exemplar.expect("an exemplar").1);
        assert!(last("/v1/debug/traces").contains(&trace), "{trace}");
    }
}

/// One client, so every cache outcome is fixed: the server's normalized
/// final snapshot (counters, span counts, histogram counts) is the same
/// at every thread count.
#[test]
fn sequential_schedule_snapshots_match_at_1_2_and_7_threads() {
    let fx = fixtures();
    let snapshot = |threads| {
        let steps = swept(fx, 6, mix(fx, 6, 1, &[0, 1]));
        let done = run(fx, Target::Server, threads, &steps);
        check(fx, &done);
        done.tier.normalized().to_json()
    };
    let one = snapshot(1);
    assert_eq!(snapshot(2), one, "2 threads");
    assert_eq!(snapshot(7), one, "7 threads");
}

/// A deliberately wrong server fails `check`, naming the invariant.
fn caught(lie: Target) {
    let fx = fixtures();
    let found = violations(fx, &run(fx, lie, 2, &seeded(fx, 1)));
    let epoch = found.iter().any(|v| v.invariant == Invariant::Epoch);
    assert!(epoch, "{lie:?} is no epoch violation: {found:#?}");
}

#[test]
fn schedule_catches_a_stale_cache_replaying_pre_append_bodies() {
    caught(Target::StaleCache);
}

#[test]
fn schedule_catches_an_append_acknowledged_without_being_applied() {
    caught(Target::AckWithoutForward);
}

/// A worker restarted after acknowledged appends, the way the supervisor
/// restarts one: over its original catalog.
#[test]
#[ignore = "ROADMAP item 9: a restarted worker re-preloads and loses acknowledged appends"]
fn restart_schedule_keeps_acknowledged_appends() {
    let fx = fixtures();
    let mut steps = swept(fx, 1, mix(fx, 1, 4, &[0, 1]));
    steps.insert(2, Step::Replace(0));
    check(fx, &run(fx, Target::Front, 1, &steps));
}
