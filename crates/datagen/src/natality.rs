//! Synthetic natality dataset (Section 5.1).
//!
//! The paper uses the CDC/NCHS 2010 natality file (4,007,106 births, 233
//! attributes) to explain APGAR-score observations. That file cannot be
//! shipped, so this generator produces a seeded single-table instance with
//! the attributes the experiments use and a probabilistic model encoding
//! the correlations the paper's findings rest on:
//!
//! * race mix ≈ Figure 7's marginals (White ≫ Black > Asian > Am. Indian);
//! * Asian mothers skew married / educated / older / non-smoking / early
//!   prenatal care (so those predicates become the Figure 10 top
//!   explanations for `Q_Race`);
//! * the probability of a poor APGAR score rises with smoking, late or no
//!   prenatal care, low education, teen or missing-covariate pregnancies,
//!   and unmarried status (calibrated so the good/poor ratio is ≈ 60–80
//!   for favourable strata and the `Q_Marital` double ratio lands near the
//!   paper's 1.46).
//!
//! The schema is a single relation with no foreign keys, so COUNT(*)
//! numerical queries are intervention-additive and the cube pipeline
//! (Algorithm 1) applies exactly, as in the paper's Section 5.1 runs.

use exq_relstore::{Database, Interner, SchemaBuilder, Value, ValueType as T};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Attribute domains (recoded in groups like the paper's Section 5.1.1).
pub mod domains {
    /// APGAR recoded: `[7,10] = good`, `[0,6] = poor`.
    pub const AP: &[&str] = &["good", "poor"];
    /// Race of the mother.
    pub const RACE: &[&str] = &["White", "Black", "AmInd", "Asian"];
    /// Marital status.
    pub const MARITAL: &[&str] = &["married", "unmarried"];
    /// Age groups.
    pub const AGE: &[&str] = &["<15", "15-19", "20-24", "25-29", "30-34", "35-39", "40-44"];
    /// Tobacco use during pregnancy.
    pub const TOBACCO: &[&str] = &["smoking", "non smoking"];
    /// Month prenatal care began.
    pub const PRENATAL: &[&str] = &["1st trim", "2nd trim", "3rd trim", "none"];
    /// Education groups.
    pub const EDU: &[&str] = &["<9yrs", "9-11yrs", "12yrs", "13-15yrs", ">=16yrs"];
    /// Sex of the infant.
    pub const SEX: &[&str] = &["M", "F"];
    /// Yes/no flags.
    pub const FLAG: &[&str] = &["yes", "no"];
}

/// Configuration for the generator.
#[derive(Debug, Clone)]
pub struct NatalityConfig {
    /// Number of rows (the real file has ~4M; benches sweep this).
    pub rows: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for NatalityConfig {
    fn default() -> NatalityConfig {
        NatalityConfig {
            rows: 50_000,
            seed: 7,
        }
    }
}

/// The natality schema: one relation, no foreign keys.
pub fn natality_schema() -> exq_relstore::DatabaseSchema {
    SchemaBuilder::new()
        .relation(
            "Natality",
            &[
                ("id", T::Int),
                ("ap", T::Str),
                ("race", T::Str),
                ("marital", T::Str),
                ("age", T::Str),
                ("tobacco", T::Str),
                ("prenatal", T::Str),
                ("edu", T::Str),
                ("sex", T::Str),
                ("hypertension", T::Str),
                ("diabetes", T::Str),
            ],
            &["id"],
        )
        .build()
        .expect("static schema is valid")
}

fn pick<'a>(rng: &mut SmallRng, choices: &[(&'a str, f64)]) -> &'a str {
    let total: f64 = choices.iter().map(|c| c.1).sum();
    let mut x = rng.random::<f64>() * total;
    for (v, w) in choices {
        if x < *w {
            return v;
        }
        x -= w;
    }
    choices.last().expect("non-empty choices").0
}

/// Generate the database.
pub fn generate(config: &NatalityConfig) -> Database {
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let mut db = Database::new(natality_schema());
    let natality = db
        .schema()
        .relation_index("Natality")
        .expect("the schema above declares it");
    // Every cell is one of a few dozen labels: one allocation each, shared
    // by all the rows that carry it.
    let mut strings = Interner::new();

    for id in 0..config.rows {
        // Race marginals ≈ Figure 7.
        let race = pick(
            &mut rng,
            &[
                ("White", 0.764),
                ("Black", 0.158),
                ("AmInd", 0.012),
                ("Asian", 0.066),
            ],
        );

        // Favourability of the mother's circumstances, race-dependent so
        // that Asian > White > AmInd > Black in aggregate outcome.
        let favour: f64 = match race {
            "Asian" => 0.85,
            "White" => 0.70,
            "AmInd" => 0.55,
            _ => 0.50,
        };

        let married = rng.random::<f64>() < favour * 0.9;
        let marital = if married { "married" } else { "unmarried" };

        // Age skews older when married/favourable.
        let age = if married {
            pick(
                &mut rng,
                &[
                    ("<15", 0.001),
                    ("15-19", 0.02),
                    ("20-24", 0.15),
                    ("25-29", 0.28),
                    ("30-34", 0.30),
                    ("35-39", 0.18),
                    ("40-44", 0.07),
                ],
            )
        } else {
            pick(
                &mut rng,
                &[
                    ("<15", 0.01),
                    ("15-19", 0.20),
                    ("20-24", 0.35),
                    ("25-29", 0.22),
                    ("30-34", 0.13),
                    ("35-39", 0.07),
                    ("40-44", 0.02),
                ],
            )
        };

        let smoking = rng.random::<f64>() < (1.0 - favour) * 0.25;
        let tobacco = if smoking { "smoking" } else { "non smoking" };

        let prenatal = if rng.random::<f64>() < favour {
            "1st trim"
        } else {
            pick(
                &mut rng,
                &[
                    ("1st trim", 0.4),
                    ("2nd trim", 0.35),
                    ("3rd trim", 0.15),
                    ("none", 0.10),
                ],
            )
        };

        let edu = if rng.random::<f64>() < favour {
            pick(
                &mut rng,
                &[("12yrs", 0.2), ("13-15yrs", 0.3), (">=16yrs", 0.5)],
            )
        } else {
            pick(
                &mut rng,
                &[
                    ("<9yrs", 0.12),
                    ("9-11yrs", 0.28),
                    ("12yrs", 0.35),
                    ("13-15yrs", 0.18),
                    (">=16yrs", 0.07),
                ],
            )
        };

        let sex = if rng.random::<f64>() < 0.512 {
            "M"
        } else {
            "F"
        };
        let hypertension = if rng.random::<f64>() < 0.05 {
            "yes"
        } else {
            "no"
        };
        let diabetes = if rng.random::<f64>() < 0.06 {
            "yes"
        } else {
            "no"
        };

        // Poor-outcome log-odds style accumulation (base rate ~1.2%).
        let mut poor = 0.012;
        if smoking {
            poor += 0.012;
        }
        match prenatal {
            "3rd trim" => poor += 0.008,
            "none" => poor += 0.025,
            "2nd trim" => poor += 0.003,
            _ => {}
        }
        match edu {
            "<9yrs" => poor += 0.010,
            "9-11yrs" => poor += 0.007,
            _ => {}
        }
        match age {
            "<15" => poor += 0.020,
            "15-19" => poor += 0.006,
            "40-44" => poor += 0.008,
            _ => {}
        }
        if !married {
            poor += 0.004;
        }
        if hypertension == "yes" {
            poor += 0.010;
        }
        if diabetes == "yes" {
            poor += 0.004;
        }
        let ap = if rng.random::<f64>() < poor {
            "poor"
        } else {
            "good"
        };

        db.insert_at(
            natality,
            vec![
                Value::Int(id as i64),
                strings.intern(ap),
                strings.intern(race),
                strings.intern(marital),
                strings.intern(age),
                strings.intern(tobacco),
                strings.intern(prenatal),
                strings.intern(edu),
                strings.intern(sex),
                strings.intern(hypertension),
                strings.intern(diabetes),
            ],
        )
        .expect("natality row");
    }
    db
}

#[cfg(test)]
mod tests {
    use super::*;
    use exq_relstore::aggregate::{evaluate, AggFunc};
    use exq_relstore::{Predicate, Universal};

    fn counts(db: &Database, pairs: &[(&str, &str)]) -> f64 {
        let u = Universal::compute(db, &db.full_view());
        let sel = Predicate::and(
            pairs
                .iter()
                .map(|(a, v)| Predicate::eq(db.schema().attr("Natality", a).unwrap(), *v)),
        );
        evaluate(db, &u, &sel, &AggFunc::CountStar).unwrap()
    }

    #[test]
    fn marginals_are_plausible() {
        let db = generate(&NatalityConfig {
            rows: 20_000,
            seed: 7,
        });
        assert_eq!(db.total_tuples(), 20_000);
        let white = counts(&db, &[("race", "White")]);
        let asian = counts(&db, &[("race", "Asian")]);
        assert!(white / 20_000.0 > 0.70);
        assert!(asian / 20_000.0 > 0.04 && asian / 20_000.0 < 0.10);
    }

    #[test]
    fn q_race_shape() {
        // good/poor ratio for Asian must exceed that for Black (Figure 8).
        let db = generate(&NatalityConfig {
            rows: 60_000,
            seed: 7,
        });
        let ratio = |race: &str| {
            counts(&db, &[("race", race), ("ap", "good")])
                / counts(&db, &[("race", race), ("ap", "poor")]).max(1.0)
        };
        assert!(
            ratio("Asian") > ratio("Black"),
            "{} vs {}",
            ratio("Asian"),
            ratio("Black")
        );
        assert!(ratio("White") > ratio("Black"));
    }

    #[test]
    fn q_marital_shape() {
        // The double ratio (married good/poor) / (unmarried good/poor)
        // is > 1 (the paper reports 1.46).
        let db = generate(&NatalityConfig {
            rows: 60_000,
            seed: 7,
        });
        let married = counts(&db, &[("marital", "married"), ("ap", "good")])
            / counts(&db, &[("marital", "married"), ("ap", "poor")]).max(1.0);
        let unmarried = counts(&db, &[("marital", "unmarried"), ("ap", "good")])
            / counts(&db, &[("marital", "unmarried"), ("ap", "poor")]).max(1.0);
        let q = married / unmarried;
        assert!(q > 1.1 && q < 3.0, "Q_Marital = {q}");
    }

    #[test]
    fn deterministic_under_seed() {
        let a = generate(&NatalityConfig {
            rows: 1000,
            seed: 3,
        });
        let b = generate(&NatalityConfig {
            rows: 1000,
            seed: 3,
        });
        for r in 0..1000 {
            assert_eq!(a.relation(0).row(r), b.relation(0).row(r));
        }
    }

    #[test]
    fn favourable_strata_have_better_outcomes() {
        let db = generate(&NatalityConfig {
            rows: 60_000,
            seed: 7,
        });
        let ratio = |pairs: &[(&str, &str)]| {
            let mut good = pairs.to_vec();
            good.push(("ap", "good"));
            let mut poor = pairs.to_vec();
            poor.push(("ap", "poor"));
            counts(&db, &good) / counts(&db, &poor).max(1.0)
        };
        assert!(ratio(&[("tobacco", "non smoking")]) > ratio(&[("tobacco", "smoking")]));
        assert!(ratio(&[("prenatal", "1st trim")]) > ratio(&[("prenatal", "none")]));
        assert!(ratio(&[("edu", ">=16yrs")]) > ratio(&[("edu", "9-11yrs")]));
    }
}
