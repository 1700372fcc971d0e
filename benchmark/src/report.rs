//! What one run of one workload found, and how it is printed.

use crate::spec::{END_TO_END, PER_LAYER};
use std::collections::BTreeMap;

#[derive(Debug, Clone, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Metric name to `(value, samples behind it)`.
    pub values: BTreeMap<&'static str, (f64, usize)>,
    /// Printed for the reader, never gated: `(metric, value, unit, n)`.
    pub info: Vec<(String, f64, &'static str, usize)>,
    /// Why the run is not correct, if it is not.
    pub problems: Vec<String>,
    /// Per-slot answer digests of the schedule, for the goldens.
    pub digests: Vec<u64>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64, n: usize) {
        self.values.insert(name, (value, n));
    }

    /// Set a count metric from its total over `cycles` traced cycles.
    /// Counts are per full cycle and must repeat exactly, so the total
    /// divides evenly; if it does not, the run is not correct.
    pub fn set_per_cycle(&mut self, name: &'static str, total: u64, cycles: u64) {
        let cycles = cycles.max(1);
        if !total.is_multiple_of(cycles) {
            self.problem(format!(
                "{name}: {total} over {cycles} cycles does not repeat per cycle"
            ));
        }
        self.set(name, (total / cycles) as f64, cycles as usize);
    }

    pub fn problem(&mut self, text: impl Into<String>) {
        self.problems.push(text.into());
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The metrics this run owes: every end-to-end metric untraced, every
    /// per-layer metric traced. A per-layer metric the workload does not
    /// exercise reads 0; a missing or zero end-to-end metric is a defect.
    pub fn owed(&mut self, trace: bool) -> Vec<(&'static str, f64, &'static str, usize)> {
        if trace {
            return PER_LAYER
                .iter()
                .map(|&(name, unit, _)| {
                    let (v, n) = self.values.get(name).copied().unwrap_or((0.0, 0));
                    (name, v, unit, n)
                })
                .collect();
        }
        let mut owed = Vec::new();
        for &(name, unit, _, _) in END_TO_END {
            match self.values.get(name).copied() {
                Some((v, n)) if v.is_finite() && v > 0.0 => owed.push((name, v, unit, n)),
                other => {
                    self.problem(format!(
                        "end-to-end metric {name} missing or zero: {other:?}"
                    ));
                    owed.push((name, f64::MIN_POSITIVE, unit, 0));
                }
            }
        }
        owed
    }

    /// Human lines (`workload metric value unit n=samples`), then the one
    /// JSON object the driver reads as the last line of standard output.
    pub fn print(&mut self, workload: &str, trace: bool) {
        let owed = self.owed(trace);
        for (name, v, unit, n) in &owed {
            println!("{workload} {name} {v} {unit} n={n}");
        }
        for (name, v, unit, n) in &self.info {
            println!("{workload} {name} {v} {unit} n={n} (info)");
        }
        for p in &self.problems {
            println!("{workload} PROBLEM {p}");
        }
        println!("{}", self.json_line(&owed));
    }

    fn json_line(&self, owed: &[(&'static str, f64, &'static str, usize)]) -> String {
        let metrics: Vec<String> = owed
            .iter()
            .map(|(name, v, unit, _)| {
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}
