//! Figures 7, 8 and 9: the natality contingency tables behind `Q_Race`
//! and `Q_Marital`, and the good/poor APGAR ratios they show.

use crate::{nat_attr, natality_db, q_marital, q_race, q_race_prime};
use exq_relstore::aggregate::{evaluate, AggFunc};
use exq_relstore::{Predicate, Universal};

/// The APGAR levels, in the tables' row order.
pub const APGAR: [&str; 2] = ["poor", "good"];
/// The races, in the tables' column order.
pub const RACES: [&str; 4] = ["White", "Black", "AmInd", "Asian"];
/// The marital statuses, in the tables' column order.
pub const MARITAL: [&str; 2] = ["married", "unmarried"];

/// What Figures 7–9 report.
#[derive(Debug, Clone, PartialEq)]
pub struct Contingency {
    /// Figure 7, births per [`APGAR`] level (row) and [`RACES`] (column).
    pub ap_race: [[f64; 4]; 2],
    /// Figure 7, births per [`APGAR`] level (row) and [`MARITAL`] status
    /// (column).
    pub ap_marital: [[f64; 2]; 2],
    /// Figure 8, the good/poor ratio per race.
    pub race_ratio: [f64; 4],
    /// Figure 9, the good/poor ratio per marital status.
    pub marital_ratio: [f64; 2],
    /// `Q_Race(D)`.
    pub q_race: f64,
    /// `Q'_Race(D)`, the Asian ratio against the Black one.
    pub q_race_prime: f64,
    /// `Q_Marital(D)`.
    pub q_marital: f64,
}

/// Figures 7–9 on `rows` natality rows.
pub fn fig7_9(rows: usize) -> Contingency {
    let db = natality_db(rows);
    let u = Universal::compute(&db, &db.full_view());
    let count = |a: &str, x: &str, b: &str, y: &str| {
        let sel = Predicate::and([
            Predicate::eq(nat_attr(&db, a), x),
            Predicate::eq(nat_attr(&db, b), y),
        ]);
        evaluate(&db, &u, &sel, &AggFunc::CountStar).unwrap()
    };
    let ap_race = APGAR.map(|ap| RACES.map(|r| count("ap", ap, "race", r)));
    let ap_marital = APGAR.map(|ap| MARITAL.map(|m| count("ap", ap, "marital", m)));
    let good_poor = |good: f64, poor: f64| good / poor.max(1.0);
    Contingency {
        race_ratio: std::array::from_fn(|i| good_poor(ap_race[1][i], ap_race[0][i])),
        marital_ratio: std::array::from_fn(|i| good_poor(ap_marital[1][i], ap_marital[0][i])),
        ap_race,
        ap_marital,
        q_race: q_race(&db).query.eval(&db).unwrap(),
        q_race_prime: q_race_prime(&db).query.eval(&db).unwrap(),
        q_marital: q_marital(&db).query.eval(&db).unwrap(),
    }
}
