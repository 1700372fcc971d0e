//! The count and structure claims of the timing sweeps (Figures 13 and
//! 14, the ablations and the thread-scaling table), asserted on the rows
//! `repro` prints, and the timing-ordering checks `repro` runs on its
//! own timed sweeps.

use exq_bench::{ablation, fig12, fig13, fig14, scaling, Grid, Sweep, NAT_ROWS};
use std::time::Duration;

/// Figure 13b: both questions' candidate counts over d = 2 … 8 at the
/// default 200k rows. The counts are exact, so any drift in the generator
/// or in Algorithm 1 shows here.
#[test]
fn figure13_candidate_counts_over_attributes() {
    let grid = Grid {
        sizes: &[],
        size_d: 4,
        attrs: &[2, 3, 4, 5, 6, 7, 8],
        attrs_rows: NAT_ROWS,
    };
    let fig = fig13::fig13(&grid);
    let marital: Vec<usize> = fig.by_attrs.iter().map(|p| p.marital_candidates).collect();
    assert_eq!(marital, [23, 119, 712, 2_104, 6_237, 17_541, 48_163]);
    let race: Vec<usize> = fig.by_attrs.iter().map(|p| p.race_candidates).collect();
    assert_eq!(race, [22, 103, 556, 1_532, 4_324, 10_986, 27_502]);
}

/// Figure 14 on its default grid: Q_Race's |M| per d, No-Minimal's top-10
/// holds rows that a more general row of M dominates at every d, and the
/// two minimal strategies pick the same rows at every (K, d).
#[test]
fn figure14_minimality_filters_dominated_rows() {
    let rows = fig14::fig14(NAT_ROWS, &fig14::KS, &fig14::DS);
    assert_eq!(rows.len(), 14);
    for r in &rows {
        let [(_, no_minimal), (_, self_join), (_, append)] = &r.runs;
        assert_eq!(self_join, append, "K = {}, d = {}", r.k, r.d);
        assert_eq!(no_minimal.len(), r.k.min(r.candidates));
        assert_eq!(self_join.len(), r.k.min(r.candidates));
        if r.k == 10 {
            assert!(r.dominated >= 1, "d = {}: {r:?}", r.d);
        }
    }
    let at_k10: Vec<usize> = rows
        .iter()
        .filter(|r| r.k == 10)
        .map(|r| r.candidates)
        .collect();
    assert_eq!(at_k10, [22, 103, 556, 1_532, 4_324, 10_986, 27_502]);
}

/// The cube ablation: subset enumeration and lattice roll-up compute the
/// same cells for COUNT(*) and COUNT(DISTINCT), on a small grid.
#[test]
fn ablation_cube_strategies_compute_equal_cells() {
    let rows = ablation::cube_strategies(3_000, &[2, 5, 8], &[2, 4]);
    assert_eq!(rows.len(), 5);
    for r in &rows {
        let [(_, subset), (_, rollup)] = &r.runs;
        assert!(!subset.is_empty());
        assert_eq!(subset.cells, rollup.cells, "{}, d = {}", r.aggregate, r.d);
    }
}

/// The program-P ablation: the non-recursive unrolling deletes exactly
/// the fixpoint's tuples.
#[test]
fn ablation_unrolled_program_p_matches_the_fixpoint() {
    let [(_, _, fixpoint), (_, _, unrolled)] = ablation::program_p().runs;
    assert_eq!(fixpoint.delta, unrolled.delta);
    assert!(fixpoint.total_deleted() > 0);
}

/// Thread scaling: every thread count computes a bit-identical table M.
#[test]
fn scaling_tables_are_identical_at_every_thread_count() {
    let rows = scaling::scaling(1_500, &[1, 2, 3]);
    assert_eq!(rows.len(), 3);
    assert!(!rows[0].table.rows.is_empty());
    for r in &rows[1..] {
        assert_eq!(r.table, rows[0].table, "{} threads", r.threads);
    }
}

fn us(micros: u64) -> Duration {
    Duration::from_micros(micros)
}

#[test]
fn figure12_timing_violations_name_each_broken_ordering() {
    let point = |rows, cube, no_cube| fig12::Point {
        rows,
        d: 2,
        cube: us(cube),
        no_cube: us(no_cube),
    };
    let holds = Sweep {
        by_rows: vec![point(400, 10, 50), point(4_000, 20, 400)],
        by_attrs: vec![],
    };
    assert!(fig12::timing_violations(&holds).is_empty());
    let broken = Sweep {
        by_rows: vec![point(400, 10, 50), point(4_000, 20, 60)],
        by_attrs: vec![point(10_000, 30, 30)],
    };
    assert_eq!(
        fig12::timing_violations(&broken),
        [
            "the speedup over rows fell from 5.0x to 3.0x",
            "no-cube beat the cube at 10000 rows, d = 2",
        ]
    );
}

#[test]
fn figure13_timing_violations_name_each_point_where_q_marital_was_faster() {
    let point = |d, race, marital| fig13::Point {
        rows: 400,
        d,
        race: us(race),
        marital: us(marital),
        race_candidates: 0,
        marital_candidates: 0,
    };
    let fig = Sweep {
        by_rows: vec![point(4, 10, 30)],
        by_attrs: vec![point(2, 10, 10), point(3, 20, 15)],
    };
    assert_eq!(
        fig13::timing_violations(&fig),
        ["Q_Marital took less than Q_Race at 400 rows, d = 3"]
    );
}
