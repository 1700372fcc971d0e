//! What the benchmark reads from the machine it runs on.

use std::process::Command;

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or_else(|| "unknown".to_string(), |(_, v)| v.trim().to_string())
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The machine stanza written beside every set of results: a number
/// without the machine it ran on is not a committed number.
pub fn machine_json(seed: u64, seconds: f64) -> String {
    format!(
        "{{\"nproc\": {}, \"cpu\": \"{}\", \"rustc\": \"{}\", \"git_rev\": \"{}\", \"seed\": {seed}, \"seconds\": {seconds}}}",
        nproc(),
        exq_obs::escape_json(&cpu_model()),
        exq_obs::escape_json(&first_line_of("rustc", &["--version"])),
        exq_obs::escape_json(&first_line_of("git", &["rev-parse", "--short", "HEAD"])),
    )
}

/// Refuse to measure where the numbers would mean something else: an
/// unoptimized build, or fewer cores than the two closed-loop clients
/// (and two server threads) the HTTP workloads are sized for.
pub fn refuse_unfit_machine() -> Result<(), String> {
    if cfg!(debug_assertions) {
        return Err("refusing to measure a debug build: run with `cargo run --release`".into());
    }
    if nproc() < 2 {
        return Err(format!(
            "refusing to measure on {} core: the HTTP workloads are closed loops of 2 clients",
            nproc()
        ));
    }
    Ok(())
}
