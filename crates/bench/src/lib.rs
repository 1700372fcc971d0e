//! The paper's evaluation (Section 5) as a library: its user questions,
//! each defined once, and one module per experiment whose function
//! returns typed rows. The timing sweeps take their grid (row counts, d,
//! K, thread counts) as arguments, and each of their modules holds its
//! default and paper-scale (`full`) grid as constants. The library only
//! computes; the `repro` binary prints the rows and checks the timing
//! orderings, and the tests under `tests/` assert the paper's count and
//! structure claims on the same rows.

#![warn(missing_docs)]
#![warn(clippy::print_stdout, clippy::print_stderr)]
#![forbid(unsafe_code)]

pub mod ablation;
pub mod agreement;
pub mod ex37;
pub mod ex41;
pub mod export;
pub mod fig1;
pub mod fig10_11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig2;
pub mod fig6;
pub mod fig7_9;
pub mod hybrid;
pub mod scaling;

pub use exq_relstore::cube::CubeStrategy;

use exq_core::prelude::*;
use exq_core::{cube_algo, qparse};
use exq_datagen::natality::{self, NatalityConfig};
use exq_relstore::{AttrRef, Database, Predicate, Universal};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Run `f`, returning its result and the wall time it took.
#[expect(
    clippy::disallowed_methods,
    reason = "times the reproduced experiments"
)]
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// One entry of a top-K list, its explanation rendered against the
/// database it came from.
#[derive(Debug, Clone, PartialEq)]
pub struct TopRow {
    /// 1-based rank.
    pub rank: usize,
    /// The explanation, e.g. `[Author.inst = ibm.com]`.
    pub explanation: String,
    /// Its number of atoms.
    pub atoms: usize,
    /// The degree it was ranked by.
    pub degree: f64,
}

/// Render `ranked` against `db`.
fn top_rows(db: &Database, ranked: Vec<Ranked>) -> Vec<TopRow> {
    ranked
        .into_iter()
        .map(|r| TopRow {
            rank: r.rank,
            explanation: r.explanation.display(db).to_string(),
            atoms: r.explanation.len(),
            degree: r.degree,
        })
        .collect()
}

/// Natality rows of the default runs: Figures 7–11, the agreement table
/// and the fixed-size axes of Figures 13 and 14.
pub const NAT_ROWS: usize = 200_000;

/// Natality rows of the paper-scale runs: the whole 2010 dataset.
pub const NAT_ROWS_FULL: usize = 4_000_000;

/// Generate a natality dataset of `rows` rows (seed fixed to the
/// experiments' seed).
pub fn natality_db(rows: usize) -> Database {
    natality::generate(&NatalityConfig { rows, seed: 7 })
}

/// A natality dataset joined once, shared by the points of a sweep that
/// run at its row count.
pub struct Natality {
    /// Its row count.
    pub rows: usize,
    /// The dataset ([`natality_db`]).
    pub db: Database,
    /// Its universal relation.
    pub u: Arc<Universal>,
}

impl Natality {
    /// Generate `rows` rows and compute their universal relation.
    pub fn new(rows: usize) -> Natality {
        let db = natality_db(rows);
        let u = Arc::new(Universal::compute(&db, &db.full_view()));
        Natality { rows, db, u }
    }

    /// Table M of `question` over `dims`, by Algorithm 1.
    pub fn table(&self, question: &UserQuestion, dims: &[AttrRef]) -> ExplanationTable {
        cube_algo::explanation_table(&self.db, &self.u, question, dims, CubeAlgoConfig::checked())
            .expect("the natality questions are cube-computable")
    }
}

/// The two axes of Figures 12 and 13: (a) time against data size at a
/// fixed number of explanation attributes, (b) time against the number
/// of attributes at a fixed size.
#[derive(Debug, Clone, Copy)]
pub struct Grid {
    /// (a)'s row counts.
    pub sizes: &'static [usize],
    /// (a)'s number of attributes.
    pub size_d: usize,
    /// (b)'s numbers of attributes.
    pub attrs: &'static [usize],
    /// (b)'s row count.
    pub attrs_rows: usize,
}

/// A point function evaluated over both axes of a [`Grid`].
#[derive(Debug, Clone)]
pub struct Sweep<P> {
    /// Axis (a), one point per row count.
    pub by_rows: Vec<P>,
    /// Axis (b), one point per number of attributes.
    pub by_attrs: Vec<P>,
}

/// Evaluate `point` over `grid`, generating each dataset once.
fn sweep<P>(grid: &Grid, point: impl Fn(&Natality, usize) -> P) -> Sweep<P> {
    let by_rows = grid
        .sizes
        .iter()
        .map(|&rows| point(&Natality::new(rows), grid.size_d))
        .collect();
    let nat = Natality::new(grid.attrs_rows);
    let by_attrs = grid.attrs.iter().map(|&d| point(&nat, d)).collect();
    Sweep { by_rows, by_attrs }
}

/// Attribute lookup helper for the natality table.
pub fn nat_attr(db: &Database, name: &str) -> AttrRef {
    db.schema()
        .attr("Natality", name)
        .expect("natality attribute")
}

/// Parse a shipped question against `db`'s schema.
fn asset_question(db: &Database, text: &str) -> UserQuestion {
    qparse::parse_question(db.schema(), text).expect("a shipped question parses against its schema")
}

/// The Example 2.2 "bump" (`assets/questions/bump.exq`): `(q1/q2)/(q3/q4)`
/// over distinct SIGMOD publications by domain (`com`, `edu`) and window
/// (2000–2004, 2007–2011), direction high.
pub fn bump_question(db: &Database) -> UserQuestion {
    asset_question(db, include_str!("../../../assets/questions/bump.exq"))
}

/// `Q_Race` (Section 5.1, `assets/questions/q_race.exq`): good vs poor
/// APGAR among Asian mothers, direction high. Two COUNT(*) sub-queries.
pub fn q_race(db: &Database) -> UserQuestion {
    asset_question(db, include_str!("../../../assets/questions/q_race.exq"))
}

/// `Q_Marital` (Section 5.1, `assets/questions/q_marital.exq`):
/// `(q1/q2)/(q3/q4)` over marital status × APGAR, direction high. Four
/// COUNT(*) sub-queries.
pub fn q_marital(db: &Database) -> UserQuestion {
    asset_question(db, include_str!("../../../assets/questions/q_marital.exq"))
}

/// `Q'_Race` (Section 5.1): the "more interesting" variant —
/// `(q1/q2)/(q3/q4)` comparing the Asian good/poor ratio against the
/// Black one, direction high. Four COUNT(*) sub-queries.
pub fn q_race_prime(db: &Database) -> UserQuestion {
    let ap = nat_attr(db, "ap");
    let race = nat_attr(db, "race");
    let q = |r: &str, o: &str| {
        AggregateQuery::count_star(Predicate::and([
            Predicate::eq(race, r),
            Predicate::eq(ap, o),
        ]))
    };
    UserQuestion::new(
        NumericalQuery::double_ratio(
            q("Asian", "good"),
            q("Asian", "poor"),
            q("Black", "good"),
            q("Black", "poor"),
        )
        .with_smoothing(1e-4),
        Direction::High,
    )
}

/// The explanation attributes used by the Section 5.1 performance runs,
/// in the order attributes are added as `d` grows (A, T, PN, Edu, then
/// the extended set of Figure 13b).
pub fn natality_dims(db: &Database, d: usize) -> Vec<AttrRef> {
    let names = [
        "age",
        "tobacco",
        "prenatal",
        "edu",
        "marital",
        "sex",
        "hypertension",
        "diabetes",
    ];
    assert!(
        d <= names.len(),
        "at most {} explanation attributes",
        names.len()
    );
    names[..d].iter().map(|n| nat_attr(db, n)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_build() {
        let db = natality_db(500);
        let qr = q_race(&db);
        let qm = q_marital(&db);
        let qp = q_race_prime(&db);
        assert_eq!(qr.query.arity(), 2);
        assert_eq!(qm.query.arity(), 4);
        assert_eq!(qp.query.arity(), 4);
        assert!(qr.query.eval(&db).unwrap() > 1.0);
        assert_eq!(natality_dims(&db, 3).len(), 3);
        // Q'_Race needs enough rows for a stable Asian poor-count.
        let big = natality_db(20_000);
        assert!(
            q_race_prime(&big).query.eval(&big).unwrap() > 1.0,
            "Asian ratio exceeds Black ratio"
        );
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn too_many_dims_panics() {
        let db = natality_db(10);
        natality_dims(&db, 9);
    }
}
