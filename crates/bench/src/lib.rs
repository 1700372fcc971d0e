//! Shared scenario builders for the `repro` binary: the exact user
//! questions of the paper's evaluation (Section 5), parameterized by
//! dataset scale.

#![warn(missing_docs)]
#![warn(clippy::print_stdout, clippy::print_stderr)]
#![forbid(unsafe_code)]

use exq_core::prelude::*;
use exq_datagen::natality::{self, NatalityConfig};
use exq_relstore::{AttrRef, Database, Predicate};

/// Generate a natality dataset of `rows` rows (seed fixed to the
/// experiments' seed).
pub fn natality_db(rows: usize) -> Database {
    natality::generate(&NatalityConfig { rows, seed: 7 })
}

/// Attribute lookup helper for the natality table.
pub fn nat_attr(db: &Database, name: &str) -> AttrRef {
    db.schema()
        .attr("Natality", name)
        .expect("natality attribute")
}

/// `Q_Race` (Section 5.1): `q1/q2` = good vs poor APGAR among Asian
/// mothers, direction high. Two COUNT(*) sub-queries.
pub fn q_race(db: &Database) -> UserQuestion {
    let ap = nat_attr(db, "ap");
    let race = nat_attr(db, "race");
    let q = |o: &str| {
        AggregateQuery::count_star(Predicate::and([
            Predicate::eq(ap, o),
            Predicate::eq(race, "Asian"),
        ]))
    };
    UserQuestion::new(
        NumericalQuery::ratio(q("good"), q("poor")).with_smoothing(1e-4),
        Direction::High,
    )
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

/// `Q_Marital` (Section 5.1): `(q1/q2)/(q3/q4)` over marital status ×
/// APGAR, direction high. Four COUNT(*) sub-queries.
pub fn q_marital(db: &Database) -> UserQuestion {
    let ap = nat_attr(db, "ap");
    let marital = nat_attr(db, "marital");
    let q = |m: &str, o: &str| {
        AggregateQuery::count_star(Predicate::and([
            Predicate::eq(marital, m),
            Predicate::eq(ap, o),
        ]))
    };
    UserQuestion::new(
        NumericalQuery::double_ratio(
            q("married", "good"),
            q("married", "poor"),
            q("unmarried", "good"),
            q("unmarried", "poor"),
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
