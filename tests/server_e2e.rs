//! The HTTP server's cache and epoch behaviour as schedules of the
//! serving contract (`support/serving.rs`), each run `check`ed against
//! the model. The server's endpoint-level tests (status mapping, limits,
//! backpressure, tracing) are `crates/serve/tests/server_e2e.rs`, which
//! cannot include the support module.

#[path = "support/serving.rs"]
mod serving;

use serving::*;

/// One client sending `list` to a two-thread server, checked.
fn scripted(fx: &Fixtures, list: Vec<Request>) -> Run {
    let done = run(fx, Target::Server, 2, &[Step::Clients(vec![list])]);
    check(fx, &done);
    done
}

/// A cold answer is cached under its canonical request: the respelled
/// request (key order, whitespace, `1e-4`) replays the cold bytes
/// unscrubbed, and another `top` misses.
#[test]
fn explain_cold_then_cached_is_byte_identical() {
    let fx = fixtures();
    let explain = |top, respell| ask(fx, 0, "Author.inst", top, respell);
    let list = vec![explain(3, false), explain(3, true), explain(1, false)];
    let done = scripted(fx, list);
    let caches: Vec<_> = done.history.iter().map(Record::cache).collect();
    assert_eq!(caches, [Some("miss"), Some("hit"), Some("miss")]);
    let body = |i: usize| &done.history[i].response.body;
    let cold = done.history[0].response.text();
    assert!(cold.contains("\"engine\": \"Cube\""), "{cold}");
    assert_eq!(body(1), body(0), "a hit returns the cold bytes");
    assert_ne!(body(2), body(0));
    for (counter, want) in [
        ("server.cache.hits", 1),
        ("server.cache.misses", 2),
        ("server.explain.runs", 2),
    ] {
        assert_eq!(done.tier.counter(counter), want, "{counter}");
    }
}

/// An append moves the epoch, in its acknowledgement and in the catalog
/// listing, and so the cache key: the repeat before it hits, the same
/// question after it misses and answers over the new rows.
#[test]
fn append_bumps_epoch_and_epoch_keys_the_cache() {
    let fx = fixtures();
    let explain = || ask(fx, 0, "Author.inst", 3, false);
    let list = vec![
        explain(),
        explain(),
        append(fx, 0, 0),
        get("/v1/datasets"),
        explain(),
    ];
    let done = scripted(fx, list);
    let caches: Vec<_> = done.history.iter().map(Record::cache).collect();
    assert_eq!(
        caches,
        [Some("miss"), Some("hit"), None, None, Some("miss")]
    );
    let epochs: Vec<_> = done.history.iter().map(|r| r.epochs.clone()).collect();
    let at = |e| vec![(0, e)];
    assert_eq!(epochs, [at(0), at(0), at(1), vec![(0, 1), (1, 0)], at(1)]);
    assert_eq!(done.history[2].response.header("x-exq-epoch"), Some("1"));
    let body = |i: usize| &done.history[i].response.body;
    assert_eq!(body(1), body(0), "the repeat before the append hits");
    assert_ne!(body(4), body(0), "the answer after reflects the new rows");
    let rows = fx.datasets[0].batches[0][0].1.len() as u64;
    for (counter, want) in [
        ("server.cache.hits", 1),
        ("server.cache.misses", 2),
        ("server.append.runs", 1),
        ("ingest.epoch_bumps", 1),
        ("ingest.rows_appended", rows),
        // Request conservation: all five requests, of which the parse
        // span counts the three questions.
        ("server.requests", 5),
    ] {
        assert_eq!(done.tier.counter(counter), want, "{counter}");
    }
    assert_eq!(done.tier.spans["server.request.parse"].count, 3);
}

/// Six clients asking one question at once get the same document after
/// the one `total_ns` scrubber, through one server and a two-shard front,
/// at 1, 2 and 7 threads.
#[test]
fn parallel_clients_get_identical_normalized_responses() {
    let fx = fixtures();
    let explain = ask(fx, 1, "Author.dom Author.inst", 3, false);
    let mut reference = None;
    for target in [Target::Server, Target::Front] {
        for threads in [1, 2, 7] {
            let clients = Step::Clients(vec![vec![explain.clone()]; 6]);
            let done = run(fx, target, threads, &[clients]);
            check(fx, &done);
            for r in &done.history {
                assert_eq!(r.response.status, 200, "{}", r.response.text());
                let body = scrub_total_ns(&r.response.text());
                let first = reference.get_or_insert_with(|| body.clone());
                assert_eq!(&body, first, "{target:?} at {threads} threads");
            }
        }
    }
}
