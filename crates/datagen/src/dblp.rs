//! Synthetic DBLP-style bibliography (the Section 1 / Section 5.2 "bump"
//! dataset).
//!
//! The paper integrates DBLP with an affiliation table and observes that
//! industrial SIGMOD publications decline after ~2004 while academic ones
//! keep growing (Figure 1); the top explanations are prolific industrial
//! labs/authors of the 90s and academic groups that grew in the 2000s
//! (Figure 2). The real dataset cannot be shipped, so this generator
//! produces a seeded instance with the same statistical *shape*:
//!
//! * institution-level activity profiles — industrial labs (`ibm.com`,
//!   `bell-labs.com`, …) peak in the 90s and decline after 2004; a group
//!   of "rising" academic departments (`asu.edu`, `utah.edu`, `gwu.edu`)
//!   only becomes active in the mid-2000s;
//! * a few named prolific industrial authors concentrated in the 90s;
//! * 1–3 authors per paper, so the back-and-forth key
//!   `Authored.pubid ↪ Publication.pubid` has real fan-out;
//! * every author has at least one paper (the instance is
//!   semijoin-reduced by construction).

use crate::paper_examples::dblp_schema;
use exq_relstore::{Database, Interner, Value};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Industrial institutions with (peak-era) weights.
const COM_INSTITUTIONS: &[(&str, f64)] = &[
    ("ibm.com", 3.0),
    ("bell-labs.com", 2.5),
    ("microsoft.com", 1.5),
    ("att.com", 1.0),
    ("hp.com", 0.7),
    ("oracle.com", 0.5),
];

/// Established academic institutions (steady growth).
const EDU_ESTABLISHED: &[(&str, f64)] = &[
    ("mit.edu", 1.5),
    ("stanford.edu", 1.5),
    ("wisc.edu", 1.3),
    ("berkeley.edu", 1.3),
    ("umich.edu", 1.0),
    ("cmu.edu", 1.0),
    ("ucla.edu", 0.9),
];

/// Academic groups that grow sharply in the mid-2000s (the Figure 2
/// explanations for the academic increase).
const EDU_RISING: &[(&str, f64)] = &[("asu.edu", 1.2), ("utah.edu", 1.0), ("gwu.edu", 0.8)];

/// Named prolific industrial authors of the 90s (stand-ins for the
/// Figure 2 author-level explanations).
const PROLIFIC_COM_AUTHORS: &[(&str, &str)] = &[
    ("Rajeev Rastogi", "bell-labs.com"),
    ("Hamid Pirahesh", "ibm.com"),
    ("Rakesh Agrawal", "ibm.com"),
];

/// Configuration for the generator.
#[derive(Debug, Clone)]
pub struct DblpConfig {
    /// Baseline papers per year at the start of the range (total volume
    /// scales linearly with this).
    pub papers_per_year_base: usize,
    /// Inclusive year range.
    pub years: (i32, i32),
    /// Authors per institution pool.
    pub authors_per_institution: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DblpConfig {
    fn default() -> DblpConfig {
        DblpConfig {
            papers_per_year_base: 60,
            years: (1985, 2011),
            authors_per_institution: 12,
            seed: 42,
        }
    }
}

/// Activity multiplier of an industrial lab in `year`: rises through the
/// 90s, flat to 2004, then declines.
fn com_activity(year: i32) -> f64 {
    match year {
        ..=1989 => 0.5,
        1990..=1994 => 1.0,
        1995..=2004 => 1.6,
        2005..=2007 => 0.9,
        _ => 0.45,
    }
}

/// Activity multiplier of an established academic group: steady growth.
fn edu_established_activity(year: i32) -> f64 {
    0.6 + 0.05 * (year - 1985).max(0) as f64
}

/// Activity multiplier of a rising academic group: negligible before
/// 2004, strong after.
fn edu_rising_activity(year: i32) -> f64 {
    match year {
        ..=2003 => 0.05,
        2004..=2006 => 1.0,
        _ => 2.2,
    }
}

struct InstPool {
    inst: String,
    dom: &'static str,
    base_weight: f64,
    /// (author id, productivity weight); ids index into the Author table
    /// once inserted.
    authors: Vec<(String, String, f64)>, // (id, name, weight)
}

/// Generate the database.
pub fn generate(config: &DblpConfig) -> Database {
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let mut db = Database::new(dblp_schema());
    let rel = |name| {
        db.schema()
            .relation_index(name)
            .expect("dblp_schema declares it")
    };
    let (author, authored, publication) = (rel("Author"), rel("Authored"), rel("Publication"));
    // One allocation per distinct string: an author's id is shared by the
    // `Author` row and every `Authored` row that references it.
    let mut strings = Interner::new();

    // Build institution pools with author rosters.
    let mut pools: Vec<InstPool> = Vec::new();
    let mut author_seq = 0usize;
    let add_pool = |inst: &str, dom: &'static str, w: f64, seq: &mut usize, rng: &mut SmallRng| {
        let mut authors = Vec::new();
        for i in 0..config.authors_per_institution {
            let id = format!("A{:05}", *seq);
            *seq += 1;
            // Zipf-ish productivity: a few prolific authors per pool.
            let weight = 1.0 / (1.0 + i as f64) + rng.random::<f64>() * 0.1;
            authors.push((id, format!("{} author {i}", inst), weight));
        }
        InstPool {
            inst: inst.to_string(),
            dom,
            base_weight: w,
            authors,
        }
    };
    for &(inst, w) in COM_INSTITUTIONS {
        pools.push(add_pool(inst, "com", w, &mut author_seq, &mut rng));
    }
    for &(inst, w) in EDU_ESTABLISHED {
        pools.push(add_pool(inst, "edu", w, &mut author_seq, &mut rng));
    }
    for &(inst, w) in EDU_RISING {
        pools.push(add_pool(inst, "edu", w, &mut author_seq, &mut rng));
    }
    // Install the named prolific authors at the head of their pools with a
    // large weight so they dominate their lab's 90s output.
    for (name, inst) in PROLIFIC_COM_AUTHORS {
        let pool = pools
            .iter_mut()
            .find(|p| p.inst == *inst)
            .expect("known institution");
        let id = format!("A{author_seq:05}");
        author_seq += 1;
        pool.authors.insert(0, (id, (*name).to_string(), 3.0));
    }

    let rising_start = COM_INSTITUTIONS.len() + EDU_ESTABLISHED.len();
    let pool_activity = |pool_idx: usize, year: i32| -> f64 {
        let p = &pools[pool_idx];
        let era = if p.dom == "com" {
            com_activity(year)
        } else if pool_idx >= rising_start {
            edu_rising_activity(year)
        } else {
            edu_established_activity(year)
        };
        p.base_weight * era
    };

    // Generate publications year by year.
    let mut inserted_authors: HashSet<&str> = HashSet::new();
    let mut pub_seq = 0usize;
    let (y0, y1) = config.years;
    for year in y0..=y1 {
        // Total volume grows over time.
        let volume =
            (config.papers_per_year_base as f64 * (1.0 + 0.06 * (year - y0) as f64)) as usize;
        let weights: Vec<f64> = (0..pools.len()).map(|i| pool_activity(i, year)).collect();
        let total_w: f64 = weights.iter().sum();
        for _ in 0..volume {
            // Pick the lead institution.
            let mut pick = rng.random::<f64>() * total_w;
            let mut pool_idx = 0;
            for (i, w) in weights.iter().enumerate() {
                if pick < *w {
                    pool_idx = i;
                    break;
                }
                pick -= w;
            }
            let pool = &pools[pool_idx];

            // Venue: mostly SIGMOD, some VLDB/ICDE/PODS noise.
            let venue = match rng.random_range(0..10) {
                0..=5 => "SIGMOD",
                6..=7 => "VLDB",
                8 => "ICDE",
                _ => "PODS",
            };
            let pubid = Value::str(format!("P{pub_seq:06}"));
            pub_seq += 1;
            db.insert_at(
                publication,
                vec![pubid.clone(), year.into(), strings.intern(venue)],
            )
            .expect("publication row");

            // 1-3 authors from the pool, weighted by productivity, no
            // repeats within a paper.
            let n_authors = 1 + rng.random_range(0..3).min(rng.random_range(0..3));
            let author_w: f64 = pool.authors.iter().map(|a| a.2).sum();
            let mut chosen: Vec<usize> = Vec::with_capacity(n_authors);
            for _ in 0..n_authors {
                let mut pick = rng.random::<f64>() * author_w;
                let mut idx = 0;
                for (i, a) in pool.authors.iter().enumerate() {
                    if pick < a.2 {
                        idx = i;
                        break;
                    }
                    pick -= a.2;
                }
                if !chosen.contains(&idx) {
                    chosen.push(idx);
                }
            }
            for idx in chosen {
                let (id, name, _) = &pool.authors[idx];
                if inserted_authors.insert(id) {
                    db.insert_at(
                        author,
                        vec![
                            strings.intern(id),
                            Value::str(name),
                            strings.intern(&pool.inst),
                            strings.intern(pool.dom),
                        ],
                    )
                    .expect("author row");
                }
                db.insert_at(authored, vec![strings.intern(id), pubid.clone()])
                    .expect("authored row");
            }
        }
    }

    db.validate()
        .expect("generated instance satisfies all constraints");
    db
}

/// Count distinct publications matching venue/domain/year-window — the
/// series behind Figure 1.
pub fn window_count(
    db: &Database,
    u: &exq_relstore::Universal,
    venue: &str,
    dom: &str,
    years: (i32, i32),
) -> f64 {
    use exq_relstore::aggregate::{evaluate, AggFunc};
    use exq_relstore::Predicate;
    let schema = db.schema();
    let sel = Predicate::and([
        Predicate::eq(schema.attr("Publication", "venue").unwrap(), venue),
        Predicate::eq(schema.attr("Author", "dom").unwrap(), dom),
        Predicate::between(
            schema.attr("Publication", "year").unwrap(),
            years.0,
            years.1,
        ),
    ]);
    let pubid = schema.attr("Publication", "pubid").unwrap();
    evaluate(db, u, &sel, &AggFunc::CountDistinct(pubid)).expect("count query")
}

#[cfg(test)]
mod tests {
    use super::*;
    use exq_relstore::Universal;

    fn small() -> Database {
        generate(&DblpConfig {
            papers_per_year_base: 20,
            ..DblpConfig::default()
        })
    }

    #[test]
    fn generated_instance_is_valid_and_reduced() {
        let db = small();
        db.validate().unwrap();
        assert!(exq_relstore::semijoin::is_reduced(&db, &db.full_view()));
        assert!(db.relation_len(0) > 50, "authors exist");
        assert!(db.relation_len(2) > 500, "publications exist");
    }

    #[test]
    fn deterministic_under_seed() {
        let a = generate(&DblpConfig {
            papers_per_year_base: 10,
            ..DblpConfig::default()
        });
        let b = generate(&DblpConfig {
            papers_per_year_base: 10,
            ..DblpConfig::default()
        });
        assert_eq!(a.total_tuples(), b.total_tuples());
        let ua = Universal::compute(&a, &a.full_view());
        let ub = Universal::compute(&b, &b.full_view());
        assert_eq!(ua.len(), ub.len());
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&DblpConfig {
            papers_per_year_base: 10,
            seed: 1,
            ..DblpConfig::default()
        });
        let b = generate(&DblpConfig {
            papers_per_year_base: 10,
            seed: 2,
            ..DblpConfig::default()
        });
        assert_ne!(a.total_tuples(), b.total_tuples());
    }

    #[test]
    fn bump_shape_holds() {
        // The Figure 1 phenomenon: com counts fall from 2000-04 to
        // 2007-11, edu counts rise.
        let db = small();
        let u = Universal::compute(&db, &db.full_view());
        let com_early = window_count(&db, &u, "SIGMOD", "com", (2000, 2004));
        let com_late = window_count(&db, &u, "SIGMOD", "com", (2007, 2011));
        let edu_early = window_count(&db, &u, "SIGMOD", "edu", (2000, 2004));
        let edu_late = window_count(&db, &u, "SIGMOD", "edu", (2007, 2011));
        assert!(
            com_early > com_late,
            "industrial decline: {com_early} vs {com_late}"
        );
        assert!(
            edu_late > edu_early,
            "academic growth: {edu_early} vs {edu_late}"
        );
    }

    #[test]
    fn prolific_authors_present() {
        let db = small();
        let name = db.schema().attr("Author", "name").unwrap();
        let names: Vec<String> = (0..db.relation_len(0))
            .map(|r| db.value(name, r).to_string())
            .collect();
        for (expected, _) in PROLIFIC_COM_AUTHORS {
            assert!(names.iter().any(|n| n == expected), "{expected} missing");
        }
    }
}
