//! # exq-relstore — the relational substrate
//!
//! An in-memory relational engine providing everything the explanation
//! framework of Roy & Suciu (SIGMOD 2014) assumes from its host DBMS:
//!
//! * typed relations with primary keys ([`schema`], [`table`], [`database`]);
//! * **standard and back-and-forth foreign keys** (Section 2.2 of the
//!   paper) and the schema causal graph (Definition 3.8);
//! * the **universal relation** `U(D) = R_1 ⋈ … ⋈ R_k` over the
//!   foreign-key join tree ([`join`]);
//! * **full semijoin reduction** for acyclic schemas ([`semijoin`]) —
//!   the engine-level primitive behind Rule (ii) of program **P**;
//! * predicates, aggregates, and the **data cube** operator
//!   (`GROUP BY … WITH CUBE`, [`cube`]) that Algorithm 1 builds on.
//!
//! The crate is deliberately self-contained (no external DBMS, no async,
//! no unsafe): the paper's algorithms are relational-algebra plans, and
//! keeping them in-process is exactly the "push the computation inside
//! the engine" premise of Section 4. Every operator here is a plain
//! sequential loop; [`par`] holds the [`ExecConfig`] that carries the
//! metrics sink to them, and the one parallel executor, which the naive
//! engine's candidate sweep uses.
//!
//! ## Quick tour
//!
//! ```
//! use exq_relstore::{
//!     aggregate::{evaluate, AggFunc},
//!     Database, Predicate, SchemaBuilder, Universal, ValueType,
//! };
//!
//! let schema = SchemaBuilder::new()
//!     .relation("Author", &[("id", ValueType::Str), ("dom", ValueType::Str)], &["id"])
//!     .relation("Authored", &[("id", ValueType::Str), ("pubid", ValueType::Str)], &["id", "pubid"])
//!     .relation("Publication", &[("pubid", ValueType::Str), ("year", ValueType::Int)], &["pubid"])
//!     .standard_fk("Authored", &["id"], "Author")
//!     .back_and_forth_fk("Authored", &["pubid"], "Publication")
//!     .build()?;
//! let mut db = Database::new(schema);
//! db.insert("Author", vec!["A1".into(), "edu".into()])?;
//! db.insert("Authored", vec!["A1".into(), "P1".into()])?;
//! db.insert("Publication", vec!["P1".into(), 2001.into()])?;
//! db.validate()?;
//!
//! let u = Universal::compute(&db, &db.full_view());
//! let dom = db.schema().attr("Author", "dom")?;
//! let n = evaluate(&db, &u, &Predicate::eq(dom, "edu"), &AggFunc::CountStar)?;
//! assert_eq!(n, 1.0);
//! # Ok::<(), exq_relstore::Error>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(clippy::disallowed_types, clippy::print_stdout, clippy::print_stderr)]

pub mod aggregate;
pub mod column;
pub mod csv;
pub mod cube;
pub mod database;
pub mod dict;
pub mod error;
pub mod index;
pub mod join;
pub mod lookup;
pub mod par;
pub mod parse;
pub mod predicate;
pub mod schema;
pub mod semijoin;
pub mod stats;
pub mod table;
pub mod text;
pub mod tupleset;
pub mod value;

pub use column::ColumnStore;
pub use database::{AppendBatch, Database, View};
pub use dict::{CodeTuples, Dict, DictBuilder, Interner};
pub use error::{Error, Result};
pub use exq_obs::MetricsSink;
pub use join::Universal;
pub use par::ExecConfig;
pub use predicate::{Atom, CmpOp, Conjunction, Predicate};
pub use schema::{AttrRef, DatabaseSchema, FkKind, ForeignKey, SchemaBuilder};
pub use table::{Relation, Row};
pub use tupleset::TupleSet;
pub use value::{Value, ValueType};
