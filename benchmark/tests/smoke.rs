//! Starts the benchmark the way the driver does, every workload, both
//! trace modes, half a second each. Release builds only: the benchmark
//! refuses to measure a debug build, which the other test pins.
//! Run with `cargo test --release --manifest-path benchmark/Cargo.toml`.

use exq_serve::json::{self, Json};
use std::collections::BTreeSet;
use std::process::Command;

fn manifest() -> Json {
    json::parse(include_bytes!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
}

fn names(manifest: &Json, list: &str) -> BTreeSet<String> {
    manifest
        .get(list)
        .and_then(Json::as_array)
        .expect("list present")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

fn run(workload: &str, trace: &str, seed: &str) -> (bool, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_exq-benchmark"))
        .args(["run", "--workload", workload, "--seed", seed])
        .args(["--seconds", "0.5", "--trace", trace])
        .output()
        .expect("benchmark starts");
    (
        output.status.success(),
        String::from_utf8_lossy(&output.stdout).into_owned()
            + &String::from_utf8_lossy(&output.stderr),
    )
}

#[cfg(debug_assertions)]
#[test]
fn refuses_to_measure_a_debug_build() {
    let (ok, text) = run("nat-cube", "0", "1");
    assert!(!ok);
    assert!(text.contains("debug build"), "{text}");
    assert!(!text.contains("\"correct\""), "no result line: {text}");
}

#[cfg(not(debug_assertions))]
fn result_of(workload: &str, trace: &str, seed: &str) -> Json {
    let (ok, text) = run(workload, trace, seed);
    assert!(ok, "{workload} --trace {trace} failed:\n{text}");
    let last = text.lines().last().expect("a result line");
    let result = json::parse(last.as_bytes()).expect("result line is JSON");
    assert_eq!(
        result.get("correct").and_then(Json::as_bool),
        Some(true),
        "{text}"
    );
    assert_eq!(
        result.get("failed").and_then(Json::as_f64),
        Some(0.0),
        "{text}"
    );
    assert!(
        result
            .get("attempted")
            .and_then(Json::as_f64)
            .expect("attempted")
            >= 1.0
    );
    result
}

#[cfg(not(debug_assertions))]
fn metrics_of(result: &Json) -> &std::collections::BTreeMap<String, Json> {
    match result.get("metrics") {
        Some(Json::Obj(map)) => map,
        other => panic!("metrics object, got {other:?}"),
    }
}

/// Every workload answers correctly in both modes, reports exactly the
/// metrics `BENCHMARK.json` lists for the mode, no end-to-end metric is
/// 0, and every count-type per-layer metric is identical across two
/// traced runs of one seed.
#[cfg(not(debug_assertions))]
#[test]
fn every_workload_runs_and_counts_repeat() {
    let manifest = manifest();
    let end_to_end = names(&manifest, "end_to_end");
    let per_layer = names(&manifest, "per_layer");
    let counts: BTreeSet<String> = manifest
        .get("per_layer")
        .and_then(Json::as_array)
        .expect("per_layer")
        .iter()
        .filter(|m| m.get("unit").and_then(Json::as_str) == Some("count"))
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert!(counts.len() >= 10);
    for workload in names(&manifest, "workloads") {
        // The default seed also checks the committed goldens.
        let untraced = result_of(&workload, "0", "1");
        let reported: BTreeSet<String> = metrics_of(&untraced).keys().cloned().collect();
        assert_eq!(reported, end_to_end, "{workload} --trace 0");
        for (name, m) in metrics_of(&untraced) {
            let v = m.get("value").and_then(Json::as_f64).expect("value");
            assert!(v > 0.0, "{workload} {name} = {v}");
        }
        let first = result_of(&workload, "1", "1");
        let second = result_of(&workload, "1", "1");
        let reported: BTreeSet<String> = metrics_of(&first).keys().cloned().collect();
        assert_eq!(reported, per_layer, "{workload} --trace 1");
        for name in &counts {
            assert_eq!(
                metrics_of(&first)[name],
                metrics_of(&second)[name],
                "{workload} {name} must repeat exactly"
            );
        }
    }
}

/// Another seed gives other inputs, hence other answers, and still a
/// correct run (no goldens apply there).
#[cfg(not(debug_assertions))]
#[test]
fn another_seed_is_correct_too() {
    let result = result_of("dblp-live", "0", "77");
    assert!(metrics_of(&result).contains_key("explain_p50_ms"));
}
