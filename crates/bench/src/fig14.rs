//! Figure 14: the time to pick the minimal top-K explanations of
//! `Q_Race` from table M, by each top-K strategy, over the number of
//! explanation attributes.

use crate::{natality_dims, q_race, timed, Natality, NAT_ROWS, NAT_ROWS_FULL};
use exq_core::prelude::*;
use exq_core::topk;
use std::time::Duration;

/// The strategies, in the figure's column order.
pub const STRATEGIES: [TopKStrategy; 3] = [
    TopKStrategy::NoMinimal,
    TopKStrategy::MinimalSelfJoin,
    TopKStrategy::MinimalAppend,
];

/// Natality rows: the default, then paper scale.
pub const ROWS: [usize; 2] = [NAT_ROWS, NAT_ROWS_FULL];
/// The values of K.
pub const KS: [usize; 2] = [1, 10];
/// The numbers of explanation attributes.
pub const DS: [usize; 7] = [2, 3, 4, 5, 6, 7, 8];

/// One (K, d) row of Figure 14.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// K.
    pub k: usize,
    /// Explanation attributes.
    pub d: usize,
    /// Candidates in table M.
    pub candidates: usize,
    /// Per strategy, in [`STRATEGIES`] order: the time to pick the
    /// top-K, and the rows of M it picked, best first.
    pub runs: [(Duration, Vec<usize>); 3],
    /// How many of No-Minimal's picks a strictly more general row of M
    /// dominates (has a `μ_interv` at least as high): the redundant
    /// answers that minimality filters out.
    pub dominated: usize,
}

/// Figure 14 on `rows` natality rows, ordered by K, then d. Table M is
/// computed once per d and shared by every K.
pub fn fig14(rows: usize, ks: &[usize], ds: &[usize]) -> Vec<Row> {
    let nat = Natality::new(rows);
    let question = q_race(&nat.db);
    let dims = |d| natality_dims(&nat.db, d);
    let tables: Vec<_> = ds
        .iter()
        .map(|&d| (d, nat.table(&question, &dims(d))))
        .collect();
    let mut out = Vec::new();
    for &k in ks {
        for (d, m) in &tables {
            let runs = STRATEGIES.map(|strategy| {
                let polarity = MinimalityPolarity::PreferGeneral;
                let top = || topk::top_k(m, DegreeKind::Intervention, k, strategy, polarity);
                let (top, time) = timed(top);
                (time, top.iter().map(|r| r.row).collect::<Vec<_>>())
            });
            // Both walk M in the same order, so a No-Minimal pick is missing
            // from the self-join's top-K exactly when a more general row
            // dominates it.
            let dominated = runs[0].1.iter().filter(|i| !runs[1].1.contains(i)).count();
            let (d, candidates) = (*d, m.len());
            out.push(Row {
                k,
                d,
                candidates,
                runs,
                dominated,
            });
        }
    }
    out
}
