//! Figure 13: the time to compute all degrees (table M by Algorithm 1)
//! for `Q_Race` (m = 2 sub-queries) and `Q_Marital` (m = 4), over data
//! size and over the number of explanation attributes.

use crate::{natality_dims, q_marital, q_race, sweep, timed, Grid, Natality, Sweep};
use crate::{NAT_ROWS, NAT_ROWS_FULL};
use std::time::Duration;

/// The default grid: (a) 400 … 400k rows at d = 4, (b) d = 2 … 8 at 200k
/// rows.
pub const DEFAULT: Grid = Grid {
    sizes: &[400, 4_000, 40_000, 400_000],
    size_d: 4,
    attrs: &[2, 3, 4, 5, 6, 7, 8],
    attrs_rows: NAT_ROWS,
};

/// The paper-scale grid: (a) 400 … 4M rows at d = 4, (b) d = 2 … 8 at 4M
/// rows (the whole dataset).
pub const FULL: Grid = Grid {
    sizes: &[400, 4_000, 40_000, 400_000, 2_000_000, NAT_ROWS_FULL],
    attrs_rows: NAT_ROWS_FULL,
    ..DEFAULT
};

/// One point of Figure 13.
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    /// Natality rows.
    pub rows: usize,
    /// Explanation attributes.
    pub d: usize,
    /// Time to compute `Q_Race`'s table M.
    pub race: Duration,
    /// Time to compute `Q_Marital`'s table M.
    pub marital: Duration,
    /// Candidates in `Q_Race`'s table M.
    pub race_candidates: usize,
    /// Candidates in `Q_Marital`'s table M.
    pub marital_candidates: usize,
}

/// Time table M of `Q_Race` and of `Q_Marital` over the first `d`
/// attributes of `nat`.
pub fn point(nat: &Natality, d: usize) -> Point {
    let dims = natality_dims(&nat.db, d);
    let (race, marital) = (q_race(&nat.db), q_marital(&nat.db));
    let (m_race, race) = timed(|| nat.table(&race, &dims));
    let (m_marital, marital) = timed(|| nat.table(&marital, &dims));
    Point {
        rows: nat.rows,
        d,
        race,
        marital,
        race_candidates: m_race.len(),
        marital_candidates: m_marital.len(),
    }
}

/// Figure 13 over `grid`.
pub fn fig13(grid: &Grid) -> Sweep<Point> {
    sweep(grid, point)
}

/// The timing ordering of Figure 13 that `fig` breaks: `Q_Marital`
/// (m = 4) must take at least as long as `Q_Race` (m = 2) at every
/// point. Empty when it holds.
pub fn timing_violations(fig: &Sweep<Point>) -> Vec<String> {
    let points = fig.by_rows.iter().chain(&fig.by_attrs);
    let faster = points.filter(|p| p.marital < p.race);
    faster
        .map(|p| {
            format!(
                "Q_Marital took less than Q_Race at {} rows, d = {}",
                p.rows, p.d
            )
        })
        .collect()
}
