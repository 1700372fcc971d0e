//! Figures 10 and 11: the top minimal explanations of `Q_Race` and
//! `Q_Marital`, by intervention and by aggravation.

use crate::{nat_attr, q_marital, q_race, top_rows, Natality, TopRow};
use exq_core::prelude::*;
use exq_core::topk;

/// What Figures 10 and 11 report for one question.
#[derive(Debug, Clone)]
pub struct MinimalTops {
    /// `"Q_Race"` or `"Q_Marital"`.
    pub question: &'static str,
    /// `Q(D)`.
    pub q_d: f64,
    /// Figure 10, the minimal top-5 by intervention.
    pub by_intervention: Vec<TopRow>,
    /// Figure 11, the minimal top-3 by aggravation.
    pub by_aggravation: Vec<TopRow>,
}

/// Figures 10 and 11 on `rows` natality rows, `Q_Race` first. As in the
/// paper, candidates with support under 1000 per 4M rows are pruned.
/// The explanation attributes are age, tobacco, prenatal care and
/// education, plus marital status for `Q_Race` and race for `Q_Marital`.
pub fn fig10_11(rows: usize) -> [MinimalTops; 2] {
    let nat = Natality::new(rows);
    let db = &nat.db;
    let support = 1000.0 * rows as f64 / 4_000_000.0;
    let run = |question: &'static str, q: UserQuestion, last_dim: &str| {
        let dims = ["age", "tobacco", "prenatal", "edu", last_dim].map(|a| nat_attr(db, a));
        let mut m = nat.table(&q, &dims);
        m.retain_min_support(support);
        let top = |kind, k| {
            let ranked = topk::top_k(
                &m,
                kind,
                k,
                TopKStrategy::MinimalSelfJoin,
                MinimalityPolarity::PreferGeneral,
            );
            top_rows(db, ranked)
        };
        MinimalTops {
            question,
            q_d: q.query.eval(db).unwrap(),
            by_intervention: top(DegreeKind::Intervention, 5),
            by_aggravation: top(DegreeKind::Aggravation, 3),
        }
    };
    [
        run("Q_Race", q_race(db), "marital"),
        run("Q_Marital", q_marital(db), "race"),
    ]
}
