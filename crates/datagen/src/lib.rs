//! # exq-datagen — seeded synthetic datasets for the explanation engine
//!
//! The paper evaluates on two real datasets (the CDC natality file and
//! DBLP integrated with Geo-DBLP) that cannot be shipped. This crate
//! provides seeded generators reproducing their schemas and the
//! statistical *shape* the experiments depend on, plus the exact instances
//! of the paper's running examples and the adversarial convergence chain:
//!
//! * [`paper_examples`] — Figure 3 / Example 2.9 / Example 2.10,
//! * [`chain`] — the Example 3.7 / Figure 5 instance needing `n − 1`
//!   fixpoint iterations,
//! * [`dblp`] — the Figure 1/2 "SIGMOD bump" bibliography,
//! * [`natality`] — the Section 5.1 APGAR dataset,
//! * [`geodblp`] — the Section 5.2 8-table DBLP ⋈ Geo-DBLP integration.
//!
//! All generators are deterministic given their config's `seed`.

#![warn(missing_docs)]
#![warn(clippy::print_stdout, clippy::print_stderr)]
#![forbid(unsafe_code)]

pub mod chain;
pub mod dblp;
pub mod geodblp;
pub mod natality;
pub mod paper_examples;
pub mod random;
