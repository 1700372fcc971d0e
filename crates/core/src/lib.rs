//! # exq-core — intervention-based explanations for database queries
//!
//! A from-scratch implementation of *"A Formal Approach to Finding
//! Explanations for Database Queries"* (Roy & Suciu, SIGMOD 2014) on top of
//! the [`exq_relstore`] substrate.
//!
//! Given a **user question** `(Q, dir)` — a numerical query
//! `Q = E(q_1, …, q_m)` whose value the user finds surprisingly high or
//! low — the engine ranks **candidate explanations** (conjunctive
//! predicates φ) by how much they account for the surprise:
//!
//! * **by intervention** (`μ_interv`, Definition 2.7): delete the minimal
//!   set of tuples `Δ^φ` implied by φ under the causal semantics of the
//!   schema's foreign keys, and measure how far `Q(D − Δ^φ)` moves
//!   *against* the surprising direction;
//! * **by aggravation** (`μ_aggr`, Definition 2.4): restrict the database
//!   to the tuples satisfying φ and measure how far `Q(D_φ)` moves
//!   *along* it.
//!
//! The module map mirrors the paper:
//!
//! | Paper | Module |
//! |---|---|
//! | §2 user questions, numerical queries | [`question`] |
//! | §2.1 candidate explanations | [`explanation`] |
//! | §2.2–§3 causal paths, program **P**, convergence | [`intervention`], [`causal`] |
//! | §2 degrees of explanation | [`degree`] |
//! | §4.1 intervention-additivity | [`additivity`] |
//! | §4.1 back-and-forth elimination | [`transform`] |
//! | §4.2 Algorithm 1 (data cubes) | [`cube_algo`], [`table_m`] |
//! | §4.2 naive baseline (Figure 12's "No Cube") | [`naive`] |
//! | §4.3 minimal top-K | [`topk`] |
//!
//! ## End-to-end example
//!
//! ```
//! use exq_core::prelude::*;
//! use exq_relstore::{Database, Predicate, SchemaBuilder, Universal, ValueType};
//!
//! // A single-table dataset: outcomes by group.
//! let schema = SchemaBuilder::new()
//!     .relation("R", &[("id", ValueType::Int), ("g", ValueType::Str), ("ok", ValueType::Str)], &["id"])
//!     .build()?;
//! let mut db = Database::new(schema);
//! for (i, (g, ok)) in [("a", "y"), ("a", "y"), ("a", "n"), ("b", "n")].iter().enumerate() {
//!     db.insert("R", vec![(i as i64).into(), (*g).into(), (*ok).into()])?;
//! }
//!
//! // "Why is the ratio of y to n so high?"
//! let ok = db.schema().attr("R", "ok")?;
//! let question = UserQuestion::new(
//!     NumericalQuery::ratio(
//!         AggregateQuery::count_star(Predicate::eq(ok, "y")),
//!         AggregateQuery::count_star(Predicate::eq(ok, "n")),
//!     ).with_smoothing(1e-4),
//!     Direction::High,
//! );
//!
//! // Algorithm 1 over the explanation attribute g, then minimal top-K.
//! let u = Universal::compute(&db, &db.full_view());
//! let dims = vec![db.schema().attr("R", "g")?];
//! let m = exq_core::cube_algo::explanation_table(&db, &u, &question, &dims, CubeAlgoConfig::checked())?;
//! let top = exq_core::topk::top_k(
//!     &m, DegreeKind::Intervention, 3, TopKStrategy::MinimalSelfJoin,
//!     MinimalityPolarity::PreferGeneral,
//! );
//! assert_eq!(top[0].explanation.display(&db).to_string(), "[R.g = a]");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(clippy::disallowed_types, clippy::print_stdout, clippy::print_stderr)]
#![forbid(unsafe_code)]

pub mod additivity;
pub mod causal;
pub mod cube_algo;
pub mod degree;
pub mod error;
pub mod explainer;
pub mod explanation;
pub mod hybrid;
pub mod intervention;
pub mod jsonout;
pub mod naive;
pub mod prepared;
pub mod qparse;
pub mod question;
pub mod report;
pub mod rich;
pub mod table_m;
pub mod topk;
pub mod transform;

pub use error::{Error, Result};

/// The commonly used types, for glob import.
pub mod prelude {
    pub use crate::cube_algo::CubeAlgoConfig;
    pub use crate::explainer::{DegreeReport, EngineChoice, Explainer};
    pub use crate::explanation::Explanation;
    pub use crate::intervention::{Intervention, InterventionEngine};
    pub use crate::question::{AggregateQuery, Direction, NumExpr, NumericalQuery, UserQuestion};
    pub use crate::table_m::{ExplanationRow, ExplanationTable};
    pub use crate::topk::{DegreeKind, MinimalityPolarity, Ranked, TopKStrategy};
}
