//! Thread scaling of the naive engine's candidate sweep, the one
//! parallel operator, on the Figure 12 workload (`Q_Race`, d = 2).

use crate::{natality_dims, q_race, timed, Natality};
use exq_core::{intervention::InterventionEngine, naive, prelude::*};
use exq_relstore::ExecConfig;
use std::{sync::Arc, time::Duration};

/// Natality rows: the default, then paper scale (Figure 12b's size).
pub const ROWS: [usize; 2] = [8_000, 40_000];
/// The thread counts, the baseline first.
pub const THREADS: [usize; 4] = [1, 2, 4, 8];
/// Explanation attributes, as in Figure 12a.
pub const D: usize = 2;

/// The sweep at one thread count.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Threads.
    pub threads: usize,
    /// Time to compute table M.
    pub time: Duration,
    /// Table M.
    pub table: ExplanationTable,
}

/// Table M by the naive engine on `rows` natality rows, at each of
/// `threads`.
pub fn scaling(rows: usize, threads: &[usize]) -> Vec<Row> {
    let nat = Natality::new(rows);
    let (question, dims) = (q_race(&nat.db), natality_dims(&nat.db, D));
    let engine = InterventionEngine::with_universal(&nat.db, Arc::clone(&nat.u));
    let run = |threads| {
        let exec = ExecConfig::with_threads(threads);
        let (table, time) = timed(|| {
            naive::explanation_table_naive_with(&nat.db, &engine, &question, &dims, &exec)
                .expect("Q_Race evaluates")
        });
        Row {
            threads,
            time,
            table,
        }
    };
    threads.iter().map(|&t| run(t)).collect()
}
