//! Seeded inputs: the three generated datasets, the held-back append
//! batches, and the questions asked of them. The program under test only
//! ever sees what is made here.

use exq_core::prelude::*;
use exq_core::qparse;
use exq_datagen::{dblp, geodblp, natality};
use exq_relstore::{AppendBatch, Database, Value};

/// The Example 2.2 question, as shipped to users.
pub const BUMP: &str = include_str!("../../assets/questions/bump.exq");
const Q_RACE: &str = include_str!("../../assets/questions/q_race.exq");
const Q_MARITAL: &str = include_str!("../../assets/questions/q_marital.exq");
/// The Fig. 15 question: why is the UK's SIGMOD/PODS ratio so low?
const GEO_UK: &str = "\
agg sigmod = count(distinct Publication.pubid) where country = 'United Kingdom' and venue = 'SIGMOD' and year >= 2001 and year <= 2011
agg pods = count(distinct Publication.pubid) where country = 'United Kingdom' and venue = 'PODS' and year >= 2001 and year <= 2011
expr sigmod / pods
dir low
smoothing 0.0001
";

/// Rows per in-process append batch.
pub const BATCH_ROWS: usize = 200;

/// One explain request: a question, its explanation attributes, top-K.
#[derive(Debug, Clone)]
pub struct Shape {
    pub question: UserQuestion,
    pub attrs: Vec<&'static str>,
    pub top: usize,
}

fn shape(db: &Database, text: &str, attrs: &[&'static str], top: usize) -> Shape {
    Shape {
        question: qparse::parse_question(db.schema(), text).expect("benchmark question parses"),
        attrs: attrs.to_vec(),
        top,
    }
}

pub fn natality_db(seed: u64) -> Database {
    natality::generate(&natality::NatalityConfig {
        rows: 200_000,
        seed,
    })
}

/// Q_Race at d=4,6,7 and Q_Marital at d=4,6, attributes in the order the
/// paper's Fig. 13 adds them. Five shapes, an odd number, so the median
/// explain sits inside one shape's cluster of latencies.
pub fn natality_shapes(db: &Database) -> Vec<Shape> {
    const DIMS: [&str; 7] = [
        "Natality.age",
        "Natality.tobacco",
        "Natality.prenatal",
        "Natality.edu",
        "Natality.marital",
        "Natality.sex",
        "Natality.hypertension",
    ];
    [
        (Q_RACE, 4),
        (Q_RACE, 6),
        (Q_RACE, 7),
        (Q_MARITAL, 4),
        (Q_MARITAL, 6),
    ]
    .into_iter()
    .map(|(text, d)| shape(db, text, &DIMS[..d], 10))
    .collect()
}

/// DBLP at 4x the generator's default volume (`big`) or at the default.
pub fn dblp_db(seed: u64, big: bool) -> Database {
    let default = dblp::DblpConfig::default();
    dblp::generate(&dblp::DblpConfig {
        papers_per_year_base: if big {
            240
        } else {
            default.papers_per_year_base
        },
        authors_per_institution: if big {
            24
        } else {
            default.authors_per_institution
        },
        seed,
        ..default
    })
}

/// Attribute sets the bump question is explained over.
pub const DBLP_ATTRS: [&[&str]; 5] = [
    &["Author.inst"],
    &["Author.name"],
    &["Author.inst", "Author.name"],
    &["Author.dom", "Publication.year"],
    &["Author.inst", "Publication.year"],
];

pub fn dblp_shapes(db: &Database) -> Vec<Shape> {
    DBLP_ATTRS
        .iter()
        .map(|attrs| shape(db, BUMP, attrs, 5))
        .collect()
}

pub fn geodblp_db(seed: u64) -> Database {
    geodblp::generate(&geodblp::GeoDblpConfig {
        papers: 40_000,
        seed,
    })
}

/// The Fig. 15 question over the paper's three attributes, and over a
/// fourth (`year`) that makes the cube an order of magnitude larger. The
/// workload asks the second one time in five, so that its 90th percentile
/// sits in the middle of the heavy shape's cluster, where noise moves it
/// no more than it moves a median, and not on the tail of one shape.
pub fn geodblp_shapes(db: &Database) -> [Shape; 2] {
    const FIG_15: &[&str] = &["Author.name", "AffiliationG.inst", "CityG.city"];
    const WITH_YEAR: &[&str] = &[
        "Author.name",
        "AffiliationG.inst",
        "CityG.city",
        "Publication.year",
    ];
    [
        shape(db, GEO_UK, FIG_15, 10),
        shape(db, GEO_UK, WITH_YEAR, 10),
    ]
}

/// Split `full` for live ingestion: hold back the last 20% of `Authored`
/// (the bridge relation nothing references, so every prefix stays
/// foreign-key-consistent) in batches of `batch_rows`.
pub fn hold_back_authored(full: &Database, batch_rows: usize) -> (Database, Vec<AppendBatch>) {
    let schema = full.schema();
    let authored = schema.relation_index("Authored").expect("Authored exists");
    let keep = full.relation_len(authored) * 4 / 5;
    let mut initial = Database::new(schema.clone());
    for rel in 0..schema.relation_count() {
        let limit = if rel == authored { keep } else { usize::MAX };
        for row in full.relation(rel).rows().take(limit) {
            initial
                .insert_at(rel, row.to_vec())
                .expect("prefix of a valid instance");
        }
    }
    let held: Vec<Vec<Value>> = full
        .relation(authored)
        .rows()
        .skip(keep)
        .map(<[Value]>::to_vec)
        .collect();
    let batches = held
        .chunks_exact(batch_rows)
        .map(|rows| vec![("Authored".to_string(), rows.to_vec())])
        .collect();
    (initial, batches)
}
