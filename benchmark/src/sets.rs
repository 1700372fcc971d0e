//! Sets of runs: every workload in a process of its own, the results
//! file a set leaves under `benchmark/out/`, and the comparison of two
//! sets by the bounds of `spec::END_TO_END`.

use crate::spec::{Better, END_TO_END, WORKLOADS};
use crate::stats::{median, percentile};
use crate::Args;
use exq_serve::json::{self, Json};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

/// Values of one metric over the runs of a set.
type Values = BTreeMap<String, Vec<f64>>;

#[derive(Debug, Default)]
pub struct WorkloadResults {
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub end_to_end: Values,
    pub per_layer: Values,
}

pub type Set = BTreeMap<String, WorkloadResults>;

/// Run one workload once in a child process; forward what it prints for
/// the reader and return the object on its last line.
fn run_child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["run", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().ok_or_else(|| {
        format!(
            "{workload} printed nothing: {}",
            String::from_utf8_lossy(&output.stderr)
        )
    })?;
    // `n=0` marks a per-layer metric the workload does not exercise.
    for line in lines.iter().filter(|l| !l.contains(" n=0")) {
        println!("{line}");
    }
    json::parse(last.as_bytes()).map_err(|e| format!("{workload} result line: {e}"))
}

fn fold(into: &mut Values, result: &Json) {
    if let Some(Json::Obj(metrics)) = result.get("metrics") {
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                into.entry(name.clone()).or_default().push(v);
            }
        }
    }
}

/// Run `sets` sets of `runs` runs of every workload (or the one `args`
/// names), seeds `seed..seed+runs`, untraced and, if `traced`, traced too.
/// The sets take turns run by run, and which goes first alternates, so
/// that all of them sample the same machine weather: taken one after the
/// other, two sets of one build differ by whatever the box did meanwhile.
pub fn run_sets(args: &Args, runs: u64, traced: bool, sets: usize) -> Result<Vec<Set>, String> {
    let mut all: Vec<Set> = (0..sets).map(|_| Set::new()).collect();
    for (workload, _) in WORKLOADS {
        if args.workload.as_deref().is_some_and(|w| w != *workload) {
            continue;
        }
        for set in &mut all {
            set.entry(workload.to_string()).or_default().correct = true;
        }
        for run in 0..runs {
            for turn in 0..sets {
                let results = all[(turn + run as usize) % sets]
                    .get_mut(*workload)
                    .expect("entered above");
                for trace in [false, true] {
                    if trace && !traced {
                        continue;
                    }
                    let result = run_child(workload, args.seed + run, args.seconds, trace)?;
                    let count = |key| result.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64;
                    results.attempted += count("attempted");
                    results.failed += count("failed");
                    results.correct &= result.get("correct").and_then(Json::as_bool) == Some(true);
                    let into = if trace {
                        &mut results.per_layer
                    } else {
                        &mut results.end_to_end
                    };
                    fold(into, &result);
                }
            }
        }
    }
    Ok(all)
}

fn values_json(values: &Values) -> String {
    let fields: Vec<String> = values
        .iter()
        .map(|(name, vs)| {
            let vs: Vec<String> = vs.iter().map(f64::to_string).collect();
            format!("\"{name}\": [{}]", vs.join(", "))
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The results file: the machine it ran on, then every value of every
/// metric of every workload.
pub fn set_json(set: &Set, machine: &str) -> String {
    let workloads: Vec<String> = set
        .iter()
        .map(|(name, r)| {
            format!(
                "    \"{name}\": {{\"correct\": {}, \"attempted\": {}, \"failed\": {},\n      \"end_to_end\": {},\n      \"per_layer\": {}}}",
                r.correct,
                r.attempted,
                r.failed,
                values_json(&r.end_to_end),
                values_json(&r.per_layer)
            )
        })
        .collect();
    format!(
        "{{\n  \"machine\": {machine},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        workloads.join(",\n")
    )
}

fn values_of(doc: Option<&Json>) -> Values {
    let mut values = Values::new();
    if let Some(Json::Obj(map)) = doc {
        for (name, vs) in map {
            let vs = vs
                .as_array()
                .unwrap_or(&[])
                .iter()
                .filter_map(Json::as_f64)
                .collect();
            values.insert(name.clone(), vs);
        }
    }
    values
}

pub fn read_set(path: &Path) -> Result<Set, String> {
    let text = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_set(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn parse_set(text: &[u8]) -> Result<Set, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    let Some(Json::Obj(workloads)) = doc.get("workloads") else {
        return Err("no `workloads` object".into());
    };
    Ok(workloads
        .iter()
        .map(|(name, w)| {
            let count = |key| w.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64;
            let results = WorkloadResults {
                attempted: count("attempted"),
                failed: count("failed"),
                correct: w.get("correct").and_then(Json::as_bool) == Some(true),
                end_to_end: values_of(w.get("end_to_end")),
                per_layer: values_of(w.get("per_layer")),
            };
            (name.clone(), results)
        })
        .collect())
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The runs of a side spread wider than the bound, and the two sides
    /// overlap: the bound cannot tell same from changed.
    Unresolved,
}

/// Distance between the quartiles of `values` as a share of their
/// median; 0 for fewer than two values.
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    (percentile(&sorted, 75.0) - percentile(&sorted, 25.0)) / percentile(&sorted, 50.0)
}

/// Judge `new` against `base` by `bound` (choosing-metrics §6.5).
pub fn verdict(base: &[f64], new: &[f64], better: Better, bound: f64) -> Verdict {
    let sign = if better == Better::Lower { 1.0 } else { -1.0 };
    let worsening = sign * (median(new) - median(base)) / median(base);
    let disjoint = |good: &[f64], bad: &[f64]| {
        good.iter()
            .all(|g| bad.iter().all(|b| sign * (b - g) > 0.0))
    };
    if worsening > bound {
        Verdict::Worse
    } else if spread(base).max(spread(new)) > bound && !disjoint(new, base) {
        Verdict::Unresolved
    } else if worsening < -bound || (spread(base).max(spread(new)) > bound && disjoint(new, base)) {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// One row per workload and end-to-end metric. Returns how many rows are
/// `Worse`, and how many workloads are not correct or missing.
pub fn compare(base: &Set, new: &Set) -> (usize, usize) {
    println!(
        "{:<11} {:<15} {:>12} {:>12} {:>7} {:>6}  verdict",
        "workload", "metric", "base", "new", "ratio", "bound"
    );
    let (mut worse, mut broken) = (0, 0);
    for (workload, _) in WORKLOADS {
        let (Some(b), Some(n)) = (base.get(*workload), new.get(*workload)) else {
            continue;
        };
        if !(b.correct && n.correct) {
            println!(
                "{workload:<11} answers not correct (base {}, new {})",
                b.correct, n.correct
            );
            broken += 1;
        }
        for &(metric, unit, better, bound) in END_TO_END {
            let (Some(bv), Some(nv)) = (b.end_to_end.get(metric), n.end_to_end.get(metric)) else {
                continue;
            };
            if bv.is_empty() || nv.is_empty() {
                continue;
            }
            let v = verdict(bv, nv, better, bound);
            worse += usize::from(v == Verdict::Worse);
            println!(
                "{workload:<11} {metric:<15} {:>12.4} {:>12.4} {:>7.3} {:>5.0}%  {v:?} ({unit}, {} is better, base of ratio: {:.4})",
                median(bv),
                median(nv),
                median(nv) / median(bv),
                bound * 100.0,
                better.as_str(),
                median(bv),
            );
        }
    }
    (worse, broken)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let lower = Better::Lower;
        assert_eq!(verdict(&[10.0], &[10.5], lower, 0.10), Verdict::Same);
        assert_eq!(verdict(&[10.0], &[11.5], lower, 0.10), Verdict::Worse);
        assert_eq!(verdict(&[10.0], &[8.0], lower, 0.10), Verdict::Better);
        assert_eq!(
            verdict(&[10.0], &[8.0], Better::Higher, 0.10),
            Verdict::Worse
        );
        // Spread wider than the bound and overlapping sides: unresolved.
        let noisy = [8.0, 10.0, 12.0, 14.0];
        assert!(spread(&noisy) > 0.10);
        assert_eq!(
            verdict(&noisy, &[9.0, 10.5, 11.5, 13.0], lower, 0.10),
            Verdict::Unresolved
        );
        // ... unless every new run beats every base run.
        assert_eq!(
            verdict(&noisy, &[7.0, 7.5, 7.2, 7.9], lower, 0.10),
            Verdict::Better
        );
    }

    #[test]
    fn a_results_file_reads_back() {
        let mut set = Set::new();
        let r = set.entry("nat-cube".into()).or_default();
        r.correct = true;
        r.attempted = 7;
        r.end_to_end.insert("setup_s".into(), vec![0.5, 0.25]);
        let back = parse_set(set_json(&set, "{\"nproc\": 2}").as_bytes()).unwrap();
        assert_eq!(back["nat-cube"].end_to_end["setup_s"], vec![0.5, 0.25]);
        assert!(back["nat-cube"].correct);
        assert_eq!(back["nat-cube"].attempted, 7);
    }
}
