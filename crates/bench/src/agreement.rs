//! How far the two degrees agree: Kendall's tau between the rankings of
//! one table M by `μ_interv` and by `μ_aggr` (natality; the paper's
//! Figures 10 vs 11, quantified).

use crate::{natality_dims, q_marital, q_race, Natality, NAT_ROWS, NAT_ROWS_FULL};
use exq_core::{prelude::*, topk};

/// Natality rows: the default, then paper scale.
pub const ROWS: [usize; 2] = [NAT_ROWS, NAT_ROWS_FULL];
/// The numbers of explanation attributes.
pub const DS: [usize; 2] = [2, 4];

/// One (question, d) row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// `"Q_Race"` or `"Q_Marital"`.
    pub question: &'static str,
    /// Explanation attributes.
    pub d: usize,
    /// Candidates in table M.
    pub candidates: usize,
    /// Kendall's tau-a between the two rankings.
    pub tau: f64,
}

/// Kendall's tau on `rows` natality rows, for `Q_Race` then `Q_Marital`,
/// at each of `ds`.
pub fn agreement(rows: usize, ds: &[usize]) -> Vec<Row> {
    let nat = Natality::new(rows);
    let mut out = Vec::new();
    for (question, q) in [
        ("Q_Race", q_race(&nat.db)),
        ("Q_Marital", q_marital(&nat.db)),
    ] {
        for &d in ds {
            let m = nat.table(&q, &natality_dims(&nat.db, d));
            let tau = topk::rank_correlation(&m, DegreeKind::Intervention, DegreeKind::Aggravation);
            let candidates = m.len();
            out.push(Row {
                question,
                d,
                candidates,
                tau,
            });
        }
    }
    out
}
