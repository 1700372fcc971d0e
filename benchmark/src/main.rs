//! The one benchmark for exq. See `benchmark/README.md`.

mod data;
mod dblp_live;
mod digest;
mod front_miss;
mod geo_cold;
mod harness;
mod httprun;
mod httpx;
mod inproc;
mod nat_cube;
mod report;
mod rng;
mod serve_mix;
mod sets;
mod spans;
mod spec;
mod stats;
mod sys;

use report::Report;
use std::path::PathBuf;
use std::process::ExitCode;

/// What `run` and `selfcheck` were asked to do.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Runs per workload of a set, each with the next seed.
    pub runs: u64,
    /// Where a set's results go (default `benchmark/out/results.json`).
    pub out: Option<PathBuf>,
}

const USAGE: &str = "\
usage: exq-benchmark run --workload W [--seed N] [--seconds S] [--trace 0|1]
           one run of one workload; the last line of output is its result object
       exq-benchmark run [--seed N] [--seconds S] [--runs R] [--out FILE]
           a set: every workload untraced and traced, a process each; writes FILE
       exq-benchmark compare A.json B.json
       exq-benchmark selfcheck [--seed N] [--seconds S] [--runs R]
           two sets of this build, compared by the benchmark's own bounds
       exq-benchmark bless
           rewrite benchmark/expected/ from this build's answers (benchmark PRs only)
       exq-benchmark manifest
           print BENCHMARK.json as src/spec.rs defines it
workloads: nat-cube dblp-live geo-cold serve-mix front-miss";

fn parse_run_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: spec::DEFAULT_SEED,
        seconds: f64::from(spec::RUN_SECONDS),
        trace: false,
        runs: 1,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?.clone()),
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" | "--duration" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("{flag}: {e}"))?;
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--runs" => parsed.runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?,
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some(w) = &parsed.workload {
        if !spec::WORKLOADS.iter().any(|(name, _)| name == w) {
            return Err(format!("unknown workload `{w}`"));
        }
    }
    if !(parsed.seconds > 0.0 && parsed.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(parsed)
}

/// Files the benchmark writes go under `benchmark/out/` (git-ignored).
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn expected_path(workload: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("expected")
        .join(format!("{workload}.digests"))
}

/// Write the traced run's spans as Chrome-trace JSON.
pub fn write_trace(args: &Args, spans: &[spans::Span], report: &mut Report) {
    let name = args.workload.as_deref().unwrap_or("all");
    let path = out_dir().join(format!("trace-{name}.json"));
    let written = std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, spans::chrome_json(spans)));
    if let Err(e) = written {
        report.problem(format!("cannot write {}: {e}", path.display()));
    }
}

fn render_digests(digests: &[u64]) -> String {
    digests.iter().map(|d| format!("{d:016x}\n")).collect()
}

/// For the default seed the answers must equal the committed goldens.
fn check_goldens(workload: &str, args: &Args, report: &mut Report) {
    if args.seed != spec::DEFAULT_SEED {
        return;
    }
    match std::fs::read_to_string(expected_path(workload)) {
        Ok(golden) if golden == render_digests(&report.digests) => {}
        Ok(_) => report.problem(format!(
            "answers differ from {} (a benchmark PR may re-bless them)",
            expected_path(workload).display()
        )),
        Err(e) => report.problem(format!("no goldens for {workload}: {e}")),
    }
}

fn run_workload(workload: &str, args: &Args) -> Report {
    let seed = args.seed;
    match workload {
        "nat-cube" => inproc::run(args, || nat_cube::setup(seed)),
        "dblp-live" => inproc::run(args, || dblp_live::setup(seed)),
        "geo-cold" => inproc::run(args, || geo_cold::setup(seed)),
        "serve-mix" => httprun::run(args, || serve_mix::setup(seed)),
        "front-miss" => httprun::run(args, || front_miss::setup(seed)),
        other => unreachable!("workload `{other}` was validated"),
    }
}

fn run(args: &Args) -> ExitCode {
    if let Err(why) = sys::refuse_unfit_machine() {
        eprintln!("exq-benchmark: {why}");
        return ExitCode::from(2);
    }
    let Some(workload) = args.workload.clone() else {
        return run_all(args);
    };
    let mut report = run_workload(&workload, args);
    check_goldens(&workload, args, &mut report);
    report.print(&workload, args.trace);
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A full set, written to the results file with the machine it ran on.
fn run_all(args: &Args) -> ExitCode {
    let set = match sets::run_sets(args, args.runs, true, 1) {
        Ok(mut sets) => sets.remove(0),
        Err(why) => {
            eprintln!("exq-benchmark: {why}");
            return ExitCode::FAILURE;
        }
    };
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| out_dir().join("results.json"));
    let text = sets::set_json(&set, &sys::machine_json(args.seed, args.seconds));
    let written = std::fs::create_dir_all(path.parent().unwrap_or(&path))
        .and_then(|()| std::fs::write(&path, text));
    match written {
        Ok(()) => println!("results written to {}", path.display()),
        Err(e) => {
            eprintln!("exq-benchmark: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    if set.values().all(|r| r.correct) {
        ExitCode::SUCCESS
    } else {
        eprintln!("exq-benchmark: some answers were wrong (see PROBLEM lines)");
        ExitCode::FAILURE
    }
}

fn compare(paths: &[String]) -> Result<ExitCode, String> {
    let [base, new] = paths else {
        return Err(USAGE.to_string());
    };
    let base = sets::read_set(base.as_ref())?;
    let new = sets::read_set(new.as_ref())?;
    let (worse, broken) = sets::compare(&base, &new);
    Ok(if worse + broken == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Two sets of the same build must agree within the benchmark's own
/// bounds, whichever of the two is called the base.
fn selfcheck(args: &Args) -> ExitCode {
    if let Err(why) = sys::refuse_unfit_machine() {
        eprintln!("exq-benchmark: {why}");
        return ExitCode::from(2);
    }
    let sets = match sets::run_sets(args, args.runs, false, 2) {
        Ok(sets) => sets,
        Err(why) => {
            eprintln!("exq-benchmark: {why}");
            return ExitCode::FAILURE;
        }
    };
    let (worse, broken) = sets::compare(&sets[0], &sets[1]);
    println!();
    let (worse_back, _) = sets::compare(&sets[1], &sets[0]);
    if worse + worse_back + broken == 0 {
        println!("selfcheck: the two sets agree within every bound");
        ExitCode::SUCCESS
    } else {
        println!(
            "selfcheck: {} pairs outside their bound, {broken} workloads not correct",
            worse + worse_back
        );
        ExitCode::FAILURE
    }
}

/// Rewrite the goldens from this build's answers at the default seed.
fn bless() -> ExitCode {
    let args = Args {
        workload: None,
        seed: spec::DEFAULT_SEED,
        seconds: 0.5,
        trace: false,
        runs: 1,
        out: None,
    };
    for (workload, _) in spec::WORKLOADS {
        let report = run_workload(workload, &args);
        if !report.correct() {
            eprintln!(
                "exq-benchmark: {workload} is not correct, not blessing: {:?}",
                report.problems
            );
            return ExitCode::FAILURE;
        }
        let path = expected_path(workload);
        if let Err(e) = std::fs::write(&path, render_digests(&report.digests)) {
            eprintln!("exq-benchmark: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!(
            "{workload}: {} digests written to {}",
            report.digests.len(),
            path.display()
        );
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.split_first() {
        Some((verb, rest)) if verb == "run" => parse_run_args(rest).map(|a| run(&a)),
        Some((verb, rest)) if verb == "selfcheck" => parse_run_args(rest).map(|mut a| {
            a.runs = a.runs.max(3);
            selfcheck(&a)
        }),
        Some((verb, rest)) if verb == "compare" => compare(rest),
        Some((verb, [])) if verb == "bless" => Ok(bless()),
        Some((verb, [])) if verb == "manifest" => {
            print!("{}", spec::manifest_json());
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(USAGE.to_string()),
    };
    result.unwrap_or_else(|why| {
        eprintln!("exq-benchmark: {why}");
        ExitCode::from(2)
    })
}
