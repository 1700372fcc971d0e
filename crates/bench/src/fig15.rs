//! Figure 15: why does the UK publish more in PODS than in SIGMOD? An
//! 8-relation join over the synthetic DBLP ⋈ Geo-DBLP integration.

use crate::{timed, top_rows, TopRow};
use exq_core::prelude::*;
use exq_core::{cube_algo, topk};
use exq_datagen::geodblp;
use exq_relstore::aggregate::{evaluate, AggFunc};
use exq_relstore::{Database, Predicate, Universal};
use std::time::Duration;

/// The countries of Figure 15a, in its order.
pub const COUNTRIES: [&str; 7] = [
    "USA",
    "Germany",
    "China",
    "Canada",
    "United Kingdom",
    "Netherlands",
    "France",
];

/// Figure 15b's K: the minimal top-K by intervention.
pub const K: usize = 10;

/// One country's row of Figure 15a.
#[derive(Debug, Clone, PartialEq)]
pub struct VenueShare {
    /// The country.
    pub country: &'static str,
    /// Distinct SIGMOD publications, 2001–2011.
    pub sigmod: f64,
    /// Distinct PODS publications, 2001–2011.
    pub pods: f64,
}

/// What Figure 15 reports.
#[derive(Debug, Clone)]
pub struct Fig15 {
    /// Figure 15a, one row per country of [`COUNTRIES`].
    pub shares: Vec<VenueShare>,
    /// `Q(D)` of [`uk_question`].
    pub q_d: f64,
    /// Candidates in table M.
    pub candidates: usize,
    /// Time to compute table M.
    pub table_time: Duration,
    /// Figure 15b, the minimal top-[`K`] by intervention.
    pub top: Vec<TopRow>,
    /// Time to pick the minimal top-[`K`].
    pub top_time: Duration,
}

/// Distinct `venue` publications with an author in `country`, 2001–2011.
fn venue_count(db: &Database, country: &str, venue: &str) -> AggregateQuery {
    let attr = |rel: &str, name: &str| db.schema().attr(rel, name).unwrap();
    AggregateQuery {
        func: AggFunc::CountDistinct(attr("Publication", "pubid")),
        selection: Predicate::and([
            Predicate::eq(attr("CountryG", "country"), country),
            Predicate::eq(attr("Publication", "venue"), venue),
            Predicate::between(attr("Publication", "year"), 2001, 2011),
        ]),
    }
}

/// The Section 5.2 question: `q1/q2`, UK SIGMOD over UK PODS
/// publications 2001–2011, direction low.
pub fn uk_question(db: &Database) -> UserQuestion {
    let q = |venue| venue_count(db, "United Kingdom", venue);
    UserQuestion::new(
        NumericalQuery::ratio(q("SIGMOD"), q("PODS")).with_smoothing(1e-4),
        Direction::Low,
    )
}

/// Figure 15 on the default synthetic Geo-DBLP, explained over
/// `A' = {Author.name, AffiliationG.inst, CityG.city}`.
pub fn fig15() -> Fig15 {
    let db = geodblp::generate(&geodblp::GeoDblpConfig::default());
    let u = Universal::compute(&db, &db.full_view());
    let shares = COUNTRIES
        .into_iter()
        .map(|country| {
            let n = |venue| {
                let q = venue_count(&db, country, venue);
                evaluate(&db, &u, &q.selection, &q.func).unwrap()
            };
            VenueShare {
                country,
                sigmod: n("SIGMOD"),
                pods: n("PODS"),
            }
        })
        .collect();
    let question = uk_question(&db);
    let q_d = question.query.eval(&db).unwrap();
    let dims = vec![
        db.schema().attr("Author", "name").unwrap(),
        db.schema().attr("AffiliationG", "inst").unwrap(),
        db.schema().attr("CityG", "city").unwrap(),
    ];
    let (m, table_time) = timed(|| {
        cube_algo::explanation_table(&db, &u, &question, &dims, CubeAlgoConfig::checked()).unwrap()
    });
    let (top, top_time) = timed(|| {
        topk::top_k(
            &m,
            DegreeKind::Intervention,
            K,
            TopKStrategy::MinimalSelfJoin,
            MinimalityPolarity::PreferGeneral,
        )
    });
    Fig15 {
        shares,
        q_d,
        candidates: m.len(),
        table_time,
        top: top_rows(&db, top),
        top_time,
    }
}
