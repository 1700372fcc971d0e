//! The ablations below Algorithm 1: the two cube strategies (DESIGN.md
//! §5) on COUNT(*) and COUNT(DISTINCT), and program P's recursive
//! fixpoint against its non-recursive unrolling (Section 3.3).

use crate::{nat_attr, natality_dims, timed, Natality};
use exq_core::prelude::*;
use exq_datagen::dblp;
use exq_relstore::aggregate::AggFunc;
use exq_relstore::cube::{self, Cube, CubeStrategy};
use exq_relstore::{Atom, Predicate};
use std::time::Duration;

/// The cube strategies, in the table's column order.
pub const STRATEGIES: [CubeStrategy; 2] =
    [CubeStrategy::SubsetEnumeration, CubeStrategy::LatticeRollup];
/// Natality rows: the default, then paper scale.
pub const ROWS: [usize; 2] = [50_000, 200_000];
/// The numbers of attributes for COUNT(*).
pub const COUNT_STAR_DS: [usize; 4] = [2, 4, 6, 8];
/// The numbers of attributes for COUNT(DISTINCT id), whose cells carry
/// key sets.
pub const COUNT_DISTINCT_DS: [usize; 3] = [2, 4, 6];

/// One (aggregate, d) row of the cube ablation.
#[derive(Debug, Clone)]
pub struct CubeRow {
    /// `"COUNT(*)"` or `"COUNT(DISTINCT id)"`.
    pub aggregate: &'static str,
    /// Cube dimensions.
    pub d: usize,
    /// Per strategy, in [`STRATEGIES`] order: the time and the cube.
    pub runs: [(Duration, Cube); 2],
}

/// The cube over the first d attributes of `rows` natality rows, by each
/// strategy: COUNT(*) at each of `count_star`, then COUNT(DISTINCT id) at
/// each of `count_distinct`.
pub fn cube_strategies(
    rows: usize,
    count_star: &[usize],
    count_distinct: &[usize],
) -> Vec<CubeRow> {
    let nat = Natality::new(rows);
    let distinct = AggFunc::CountDistinct(nat_attr(&nat.db, "id"));
    let aggregates = [
        ("COUNT(*)", AggFunc::CountStar, count_star),
        ("COUNT(DISTINCT id)", distinct, count_distinct),
    ];
    let mut out = Vec::new();
    for (aggregate, agg, ds) in aggregates {
        for &d in ds {
            let dims = natality_dims(&nat.db, d);
            let runs = STRATEGIES.map(|strategy| {
                let cube =
                    || cube::compute(&nat.db, &nat.u, &Predicate::True, &dims, &agg, strategy);
                let (cube, time) = timed(cube);
                (time, cube.expect("the natality dimensions cube"))
            });
            out.push(CubeRow { aggregate, d, runs });
        }
    }
    out
}

/// Program P for `[Author.inst = ibm.com]` on the default DBLP.
#[derive(Debug, Clone)]
pub struct ProgramP {
    /// Tuples in the database.
    pub tuples: usize,
    /// `(engine, time, intervention)` for the fixpoint loop, then the
    /// unrolled pipeline; `iterations` counts rounds or pipeline stages.
    pub runs: [(&'static str, Duration, Intervention); 2],
}

/// Program P by its fixpoint and by its unrolling.
pub fn program_p() -> ProgramP {
    let db = dblp::generate(&dblp::DblpConfig::default());
    let engine = InterventionEngine::new(&db);
    let inst = db
        .schema()
        .attr("Author", "inst")
        .expect("DBLP has Author.inst");
    let phi = Explanation::new(vec![Atom::eq(inst, "ibm.com")]);
    let (fixpoint, t_fixpoint) = timed(|| engine.compute(&phi));
    let unrolled = || {
        engine
            .compute_unrolled(&phi)
            .expect("the DBLP schema is unrollable")
    };
    let (unrolled, t_unrolled) = timed(unrolled);
    let runs = [
        ("fixpoint", t_fixpoint, fixpoint),
        ("unrolled", t_unrolled, unrolled),
    ];
    let tuples = db.total_tuples();
    ProgramP { tuples, runs }
}
