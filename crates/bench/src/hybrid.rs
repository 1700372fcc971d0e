//! Section 6(iii): the hybrid degree against exact intervention on the
//! Figure 3 instance, whose back-and-forth key makes COUNT(*) not
//! intervention-additive while COUNT(DISTINCT pubid) stays additive.

use exq_core::hybrid::mu_hybrid;
use exq_core::prelude::*;
use exq_core::{degree, intervention::InterventionEngine};
use exq_datagen::paper_examples;
use exq_relstore::aggregate::AggFunc;
use exq_relstore::{Atom, Predicate};

/// The authors whose single-atom explanations `[Author.name = …]` are
/// compared.
pub const AUTHORS: [&str; 3] = ["JG", "RR", "CM"];

/// The degrees of one explanation.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// The author of `[Author.name = …]`.
    pub name: &'static str,
    /// Exact `μ_interv`.
    pub mu_interv: f64,
    /// The hybrid degree.
    pub mu_hybrid: f64,
    /// `μ_aggr`.
    pub mu_aggr: f64,
}

/// One row per [`AUTHORS`] entry for each question: the SIGMOD count of
/// universal tuples, and of distinct publications. Both ask why the
/// count is high.
#[derive(Debug, Clone, PartialEq)]
pub struct Hybrid {
    /// `COUNT(*)` of SIGMOD universal tuples (not additive).
    pub count_star: Vec<Row>,
    /// `COUNT(DISTINCT pubid)` of SIGMOD publications (additive).
    pub count_distinct: Vec<Row>,
}

/// The hybrid table on the Figure 3 instance.
pub fn hybrid() -> Hybrid {
    let db = paper_examples::figure3();
    let engine = InterventionEngine::new(&db);
    let attr = |rel: &str, name: &str| db.schema().attr(rel, name).expect("a Figure 3 attribute");
    let sigmod = Predicate::eq(attr("Publication", "venue"), "SIGMOD");
    let rows = |func: AggFunc| {
        let question = UserQuestion::new(
            NumericalQuery::single(AggregateQuery {
                func,
                selection: sigmod.clone(),
            }),
            Direction::High,
        );
        let totals = question
            .query
            .aggregate_values(&db, engine.universal())
            .expect("the SIGMOD counts evaluate");
        AUTHORS
            .into_iter()
            .map(|name| {
                let phi = Explanation::new(vec![Atom::eq(attr("Author", "name"), name)]);
                let d = degree::evaluate(&engine, &question, &phi.conjunction().to_predicate())
                    .expect("program P runs on Figure 3");
                Row {
                    name,
                    mu_interv: d.mu_interv,
                    mu_hybrid: mu_hybrid(&question, &totals, &d.values),
                    mu_aggr: d.mu_aggr,
                }
            })
            .collect()
    };
    Hybrid {
        count_star: rows(AggFunc::CountStar),
        count_distinct: rows(AggFunc::CountDistinct(attr("Publication", "pubid"))),
    }
}
