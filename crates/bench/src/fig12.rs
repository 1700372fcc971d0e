//! Figure 12: the benefit of the data cube. Table M of `Q_Race` by
//! Algorithm 1 (cube) against the naive engine, which runs program P
//! once per candidate (no cube), over data size and over the number of
//! explanation attributes.

use crate::{natality_dims, q_race, sweep, timed, Grid, Natality, Sweep};
use exq_core::{intervention::InterventionEngine, naive};
use std::{sync::Arc, time::Duration};

/// The default grid: (a) 400 … 40k rows at d = 2, (b) d = 1 … 4 at 10k
/// rows.
pub const DEFAULT: Grid = Grid {
    sizes: &[400, 4_000, 40_000],
    size_d: 2,
    attrs: &[1, 2, 3, 4],
    attrs_rows: 10_000,
};

/// The paper-scale grid: (a) 400 … 1M rows at d = 2, (b) d = 1 … 5 at
/// 40k rows (the paper's 1 %).
pub const FULL: Grid = Grid {
    sizes: &[400, 4_000, 40_000, 200_000, 1_000_000],
    size_d: 2,
    attrs: &[1, 2, 3, 4, 5],
    attrs_rows: 40_000,
};

/// One point of Figure 12: the time to compute table M with and without
/// the cube.
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    /// Natality rows.
    pub rows: usize,
    /// Explanation attributes.
    pub d: usize,
    /// With the cube.
    pub cube: Duration,
    /// Without it.
    pub no_cube: Duration,
}

impl Point {
    /// How many times faster the cube was.
    pub fn speedup(&self) -> f64 {
        self.no_cube.as_secs_f64() / self.cube.as_secs_f64().max(1e-9)
    }
}

/// Time table M of `Q_Race` over the first `d` attributes of `nat`, with
/// and without the cube.
pub fn point(nat: &Natality, d: usize) -> Point {
    let (db, question, dims) = (&nat.db, q_race(&nat.db), natality_dims(&nat.db, d));
    let (_, cube) = timed(|| nat.table(&question, &dims));
    let engine = InterventionEngine::with_universal(db, Arc::clone(&nat.u));
    let naive = || naive::explanation_table_naive(db, &engine, &question, &dims);
    let (_, no_cube) = timed(|| naive().expect("Q_Race evaluates"));
    let rows = nat.rows;
    Point {
        rows,
        d,
        cube,
        no_cube,
    }
}

/// Figure 12 over `grid`.
pub fn fig12(grid: &Grid) -> Sweep<Point> {
    sweep(grid, point)
}

/// The timing orderings of Figure 12 that `fig` breaks: the cube must
/// beat no-cube at every point, and on each axis the speedup at the last
/// point must be at least the speedup at the first. Empty when all hold.
pub fn timing_violations(fig: &Sweep<Point>) -> Vec<String> {
    let mut broken = Vec::new();
    for (axis, points) in [("rows", &fig.by_rows), ("attributes", &fig.by_attrs)] {
        for p in points.iter().filter(|p| p.cube >= p.no_cube) {
            let (rows, d) = (p.rows, p.d);
            broken.push(format!("no-cube beat the cube at {rows} rows, d = {d}"));
        }
        if let (Some(first), Some(last)) = (points.first(), points.last()) {
            let (s0, s1) = (first.speedup(), last.speedup());
            if s1 < s0 {
                broken.push(format!(
                    "the speedup over {axis} fell from {s0:.1}x to {s1:.1}x"
                ));
            }
        }
    }
    broken
}
