//! Example 3.7 / Figure 5: on the adversarial chain, program P needs a
//! number of iterations linear in the instance size.

use exq_core::explanation::Explanation;
use exq_core::intervention::InterventionEngine;
use exq_datagen::chain;

/// Program P on one chain instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainRun {
    /// The chain parameter.
    pub p: usize,
    /// Tuples in the instance.
    pub n: usize,
    /// Iterations until the fixpoint.
    pub iterations: usize,
    /// Tuples the intervention deletes.
    pub deleted: usize,
}

/// Program P on the chains with `p` = 1, 2, 4, …, 64.
pub fn ex37() -> Vec<ChainRun> {
    [1, 2, 4, 8, 16, 32, 64]
        .into_iter()
        .map(|p| {
            let db = chain::chain(p);
            let engine = InterventionEngine::new(&db);
            let phi = Explanation::new(chain::chain_phi(&db).atoms.clone());
            let iv = engine.compute(&phi);
            ChainRun {
                p,
                n: db.total_tuples(),
                iterations: iv.iterations,
                deleted: iv.total_deleted(),
            }
        })
        .collect()
}
