//! Figure 2: the top explanations of the Example 2.2 bump, by
//! intervention, over `A' = {Author.inst, Author.name}`.

use crate::{bump_question, timed, top_rows, TopRow};
use exq_core::prelude::*;
use exq_core::{cube_algo, topk};
use exq_datagen::dblp;
use exq_relstore::Universal;
use std::time::Duration;

/// What Figure 2 reports.
#[derive(Debug, Clone)]
pub struct Fig2 {
    /// The bump, `Q(D)`.
    pub q_d: f64,
    /// Candidates in table M.
    pub candidates: usize,
    /// Time to compute table M.
    pub table_time: Duration,
    /// The minimal top-9 by intervention.
    pub top: Vec<TopRow>,
}

/// Figure 2 on the default synthetic DBLP.
pub fn fig2() -> Fig2 {
    let db = dblp::generate(&dblp::DblpConfig::default());
    let u = Universal::compute(&db, &db.full_view());
    let question = bump_question(&db);
    let q_d = question.query.eval(&db).unwrap();
    let dims = vec![
        db.schema().attr("Author", "inst").unwrap(),
        db.schema().attr("Author", "name").unwrap(),
    ];
    let (m, table_time) = timed(|| {
        cube_algo::explanation_table(&db, &u, &question, &dims, CubeAlgoConfig::checked()).unwrap()
    });
    let top = topk::top_k(
        &m,
        DegreeKind::Intervention,
        9,
        TopKStrategy::MinimalAppend,
        MinimalityPolarity::PreferGeneral,
    );
    Fig2 {
        q_d,
        candidates: m.len(),
        table_time,
        top: top_rows(&db, top),
    }
}
