//! Figure 6: the schema and data causal graphs of the running example
//! (the Figure 3 instance).

use exq_core::causal::DataCausalGraph;
use exq_datagen::paper_examples;
use exq_relstore::schema::SchemaCausalGraph;

/// What Figure 6 shows.
#[derive(Debug, Clone)]
pub struct Fig6 {
    /// The schema causal graph; its nodes index [`Fig6::relations`].
    pub schema: SchemaCausalGraph,
    /// The relation names.
    pub relations: Vec<String>,
    /// The data causal graph, rendered one tuple per line.
    pub data: String,
}

/// Figure 6 on the Figure 3 instance.
pub fn fig6() -> Fig6 {
    let db = paper_examples::figure3();
    let schema = db.schema();
    Fig6 {
        schema: schema.causal_graph(),
        relations: (0..schema.relation_count())
            .map(|r| schema.relation(r).name.clone())
            .collect(),
        data: DataCausalGraph::build(&db).render(&db),
    }
}
