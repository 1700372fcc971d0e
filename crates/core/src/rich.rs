//! Rich explanations: inequalities and disjunctions (Section 6(ii)).
//!
//! The paper's discussion section calls out two useful extensions of the
//! candidate-explanation language:
//!
//! * **ranges** — `[year > 1977 ∧ year < 1982]`, i.e. contiguous
//!   intervals of an ordered attribute;
//! * **disjunctions** — `[author = Levy ∨ author = Halevy]`, i.e. small
//!   value sets on one attribute.
//!
//! Both fit the formal framework unchanged: a rich explanation is still a
//! boolean predicate, its intervention is still the least fixpoint of
//! program **P** (Definitions 2.5–2.6 never use conjunctivity), and the
//! degrees are still Definitions 2.4/2.7. What changes is the *search
//! space*: the data cube no longer enumerates the candidates, so rich
//! candidates are generated explicitly ([`range_candidates`],
//! [`one_of_candidates`]) and evaluated with the exact per-candidate
//! engine — the paper's "naive iterative algorithm", whose optimization
//! the authors leave as future work.

use crate::degree::{mu_aggr_predicate, mu_interv_of};
use crate::error::Result;
use crate::intervention::InterventionEngine;
use crate::question::UserQuestion;
use exq_relstore::{AttrRef, CmpOp, Database, Predicate, Universal, Value, ValueType};
use std::fmt;

/// One constraint of a rich explanation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RichPart {
    /// `attr = value` (the Definition 2.3 equality atom).
    Eq(AttrRef, Value),
    /// `lo ≤ attr ≤ hi` (inclusive range over an ordered attribute).
    Range {
        /// The constrained attribute.
        attr: AttrRef,
        /// Inclusive lower bound.
        lo: Value,
        /// Inclusive upper bound.
        hi: Value,
    },
    /// `attr ∈ values` (a small disjunction of equalities on one
    /// attribute).
    OneOf {
        /// The constrained attribute.
        attr: AttrRef,
        /// Accepted values (non-empty).
        values: Vec<Value>,
    },
}

impl RichPart {
    /// Lower to a [`Predicate`].
    pub fn to_predicate(&self) -> Predicate {
        match self {
            RichPart::Eq(attr, v) => Predicate::eq(*attr, v.clone()),
            RichPart::Range { attr, lo, hi } => Predicate::And(vec![
                Predicate::cmp(*attr, CmpOp::Ge, lo.clone()),
                Predicate::cmp(*attr, CmpOp::Le, hi.clone()),
            ]),
            RichPart::OneOf { attr, values } => Predicate::Or(
                values
                    .iter()
                    .map(|v| Predicate::eq(*attr, v.clone()))
                    .collect(),
            ),
        }
    }
}

/// A conjunction of rich constraints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RichExplanation {
    /// The conjoined parts.
    pub parts: Vec<RichPart>,
}

impl RichExplanation {
    /// From constraint parts.
    pub fn new(parts: Vec<RichPart>) -> RichExplanation {
        RichExplanation { parts }
    }

    /// Lower to a [`Predicate`] (conjunction of the lowered parts).
    pub fn to_predicate(&self) -> Predicate {
        Predicate::And(self.parts.iter().map(RichPart::to_predicate).collect())
    }

    /// Render with schema names.
    pub fn display<'a>(&'a self, db: &'a Database) -> RichDisplay<'a> {
        RichDisplay(self, db)
    }
}

/// Display adaptor pairing a rich explanation with its schema for
/// human-readable rendering.
pub struct RichDisplay<'a>(&'a RichExplanation, &'a Database);

impl fmt::Display for RichDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, part) in self.0.parts.iter().enumerate() {
            if i > 0 {
                write!(f, " ∧ ")?;
            }
            match part {
                RichPart::Eq(attr, v) => {
                    write!(f, "{} = {v}", self.1.schema().attr_name(*attr))?;
                }
                RichPart::Range { attr, lo, hi } => {
                    write!(f, "{lo} ≤ {} ≤ {hi}", self.1.schema().attr_name(*attr))?;
                }
                RichPart::OneOf { attr, values } => {
                    let name = self.1.schema().attr_name(*attr);
                    let vs: Vec<String> = values.iter().map(|v| format!("{name} = {v}")).collect();
                    write!(f, "({})", vs.join(" ∨ "))?;
                }
            }
        }
        write!(f, "]")
    }
}

/// All contiguous value ranges of a numeric (`int` or `float`)
/// attribute, over its distinct values observed in the universal
/// relation, with span at most `max_span` values. `[v_i, v_j]` for every
/// `i ≤ j < i + max_span` — the "papers with 1977 < year < 1982" shape.
///
/// The range over every value is left out: it selects every tuple with
/// a value, so it is φ ≡ true on them, and its intervention deletes the
/// whole database. Other attributes get no ranges, since the order of a
/// `str` attribute's values is byte order, not the order of its bins.
pub fn range_candidates(
    db: &Database,
    u: &Universal,
    attr: AttrRef,
    max_span: usize,
) -> Vec<RichExplanation> {
    let ty = db.schema().relation(attr.rel).attributes[attr.col].ty;
    if !matches!(ty, ValueType::Int | ValueType::Float) {
        return Vec::new();
    }
    let values = distinct_values(db, u, attr);
    let mut out = Vec::new();
    for i in 0..values.len() {
        for j in i..values.len().min(i + max_span) {
            if i == 0 && j + 1 == values.len() {
                continue;
            }
            out.push(RichExplanation::new(vec![RichPart::Range {
                attr,
                lo: values[i].clone(),
                hi: values[j].clone(),
            }]));
        }
    }
    out
}

/// All unordered value *pairs* of an attribute — the "Levy ∨ Halevy"
/// shape. Quadratic in the number of distinct values; intended for
/// low-cardinality attributes or pre-filtered value lists. An attribute
/// with exactly two values gets none: its one pair names every value, so
/// it is φ ≡ true on the tuples with a value.
pub fn one_of_candidates(db: &Database, u: &Universal, attr: AttrRef) -> Vec<RichExplanation> {
    let values = distinct_values(db, u, attr);
    if values.len() <= 2 {
        return Vec::new();
    }
    let mut out = Vec::new();
    for i in 0..values.len() {
        for j in (i + 1)..values.len() {
            out.push(RichExplanation::new(vec![RichPart::OneOf {
                attr,
                values: vec![values[i].clone(), values[j].clone()],
            }]));
        }
    }
    out
}

fn distinct_values(db: &Database, u: &Universal, attr: AttrRef) -> Vec<Value> {
    let mut values: Vec<Value> = u
        .iter()
        .map(|t| db.value(attr, t[attr.rel] as usize).clone())
        .filter(|v| !v.is_null())
        .collect();
    values.sort();
    values.dedup();
    values
}

/// A rich explanation with its exact degrees.
#[derive(Debug, Clone)]
pub struct RankedRich {
    /// The explanation.
    pub explanation: RichExplanation,
    /// Exact `μ_interv` (program P + residual evaluation).
    pub mu_interv: f64,
    /// Exact `μ_aggr`.
    pub mu_aggr: f64,
}

/// Evaluate a candidate list exactly and return it sorted by `μ_interv`
/// descending (ties: by `μ_aggr`).
pub fn evaluate_candidates(
    engine: &InterventionEngine<'_>,
    question: &UserQuestion,
    candidates: Vec<RichExplanation>,
) -> Result<Vec<RankedRich>> {
    let db = engine.db();
    let mut out = Vec::with_capacity(candidates.len());
    for explanation in candidates {
        let pred = explanation.to_predicate();
        let iv = engine.compute_predicate(&pred);
        let mu_interv = mu_interv_of(db, question, &iv)?;
        let mu_aggr = mu_aggr_predicate(db, engine.universal(), question, &pred)?;
        out.push(RankedRich {
            explanation,
            mu_interv,
            mu_aggr,
        });
    }
    out.sort_by(|a, b| {
        b.mu_interv
            .total_cmp(&a.mu_interv)
            .then(b.mu_aggr.total_cmp(&a.mu_aggr))
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::question::{AggregateQuery, Direction, NumericalQuery};
    use exq_relstore::{SchemaBuilder, ValueType as T};

    fn db() -> Database {
        let schema = SchemaBuilder::new()
            .relation(
                "R",
                &[("id", T::Int), ("year", T::Int), ("ok", T::Str)],
                &["id"],
            )
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        let rows = [
            (1990, "y"),
            (1991, "y"),
            (1992, "n"),
            (1993, "n"),
            (1994, "y"),
            (1995, "y"),
        ];
        for (i, (y, ok)) in rows.iter().enumerate() {
            db.insert("R", vec![(i as i64).into(), (*y).into(), (*ok).into()])
                .unwrap();
        }
        db
    }

    fn question(db: &Database) -> UserQuestion {
        let ok = db.schema().attr("R", "ok").unwrap();
        UserQuestion::new(
            NumericalQuery::ratio(
                AggregateQuery::count_star(Predicate::eq(ok, "y")),
                AggregateQuery::count_star(Predicate::eq(ok, "n")),
            )
            .with_smoothing(1e-4),
            Direction::High,
        )
    }

    #[test]
    fn parts_lower_to_predicates() {
        let db = db();
        let year = db.schema().attr("R", "year").unwrap();
        let u = Universal::compute(&db, &db.full_view());

        let range = RichPart::Range {
            attr: year,
            lo: 1991.into(),
            hi: 1993.into(),
        };
        let p = range.to_predicate();
        let hits = u.iter().filter(|t| p.eval(&db, t)).count();
        assert_eq!(hits, 3);

        let one_of = RichPart::OneOf {
            attr: year,
            values: vec![1990.into(), 1995.into()],
        };
        let p = one_of.to_predicate();
        let hits = u.iter().filter(|t| p.eval(&db, t)).count();
        assert_eq!(hits, 2);

        let eq = RichPart::Eq(year, 1992.into());
        assert_eq!(
            u.iter().filter(|t| eq.to_predicate().eval(&db, t)).count(),
            1
        );
    }

    #[test]
    fn range_candidate_generation() {
        let db = db();
        let year = db.schema().attr("R", "year").unwrap();
        let u = Universal::compute(&db, &db.full_view());
        // 6 distinct years, max span 3: 6 + 5 + 4 = 15 candidates.
        let cands = range_candidates(&db, &u, year, 3);
        assert_eq!(cands.len(), 15);
        // Full-span enumeration: 6+5+4+3+2+1 = 21, less the range over
        // every year.
        assert_eq!(range_candidates(&db, &u, year, 100).len(), 20);
    }

    #[test]
    fn one_of_candidate_generation() {
        let db = db();
        let ok = db.schema().attr("R", "ok").unwrap();
        let u = Universal::compute(&db, &db.full_view());
        assert_eq!(
            one_of_candidates(&db, &u, ok).len(),
            0,
            "the one pair from {{y,n}} names every value"
        );
        let year = db.schema().attr("R", "year").unwrap();
        assert_eq!(one_of_candidates(&db, &u, year).len(), 15, "C(6,2)");
    }

    /// A candidate that selects every tuple with a value is φ ≡ true on
    /// them: its intervention deletes the whole database, and it would
    /// rank first for any question whose empty-database answer is
    /// extreme.
    #[test]
    fn no_candidate_selects_every_value_of_its_attribute() {
        let db = db();
        let u = Universal::compute(&db, &db.full_view());
        for name in ["year", "ok"] {
            let attr = db.schema().attr("R", name).unwrap();
            let candidates = range_candidates(&db, &u, attr, 100)
                .into_iter()
                .chain(one_of_candidates(&db, &u, attr));
            for c in candidates {
                let p = c.to_predicate();
                let hits = u.iter().filter(|t| p.eval(&db, t)).count();
                assert!(
                    hits < u.len(),
                    "{} selects every R.{name}",
                    RichDisplay(&c, &db)
                );
            }
        }
        // `ok` is a `str`: byte order is not an order of its values.
        let ok = db.schema().attr("R", "ok").unwrap();
        assert!(range_candidates(&db, &u, ok, 100).is_empty());
    }

    #[test]
    fn best_range_explains_the_bad_years() {
        // ok=n exactly in 1992-1993; (Q, low) asks why y/n is low, so the
        // best intervention removes the bad years.
        let db = db();
        let ok = db.schema().attr("R", "ok").unwrap();
        let year = db.schema().attr("R", "year").unwrap();
        let q = UserQuestion::new(
            NumericalQuery::ratio(
                AggregateQuery::count_star(Predicate::eq(ok, "y")),
                AggregateQuery::count_star(Predicate::eq(ok, "n")),
            )
            .with_smoothing(1e-4),
            Direction::Low,
        );
        let engine = InterventionEngine::new(&db);
        let u = engine.universal().clone();
        let ranked = evaluate_candidates(&engine, &q, range_candidates(&db, &u, year, 2)).unwrap();
        let best = &ranked[0].explanation;
        assert_eq!(
            best.parts,
            vec![RichPart::Range {
                attr: year,
                lo: 1992.into(),
                hi: 1993.into()
            }],
            "best = the exact bad interval, got {}",
            RichDisplay(best, &db)
        );
    }

    #[test]
    fn disjunction_explanation_evaluates_exactly() {
        let db = db();
        let year = db.schema().attr("R", "year").unwrap();
        let q = question(&db);
        let engine = InterventionEngine::new(&db);
        let phi = RichExplanation::new(vec![RichPart::OneOf {
            attr: year,
            values: vec![1992.into(), 1993.into()],
        }]);
        let ranked = evaluate_candidates(&engine, &q, vec![phi]).unwrap();
        // Removing both bad years leaves 4 y, 0 n: μ_interv(high) =
        // -(4+ε)/ε — a huge negative value (this explanation makes the
        // HIGH ratio even higher when removed, so it ranks terribly).
        assert!(ranked[0].mu_interv < -1000.0);
        // Aggravation: restricting to the bad years gives y/n = ε/(2+ε),
        // sign + for high.
        assert!(ranked[0].mu_aggr < 1.0);
    }

    #[test]
    fn display_renders_all_part_kinds() {
        let db = db();
        let year = db.schema().attr("R", "year").unwrap();
        let ok = db.schema().attr("R", "ok").unwrap();
        let e = RichExplanation::new(vec![
            RichPart::Eq(ok, "y".into()),
            RichPart::Range {
                attr: year,
                lo: 1991.into(),
                hi: 1993.into(),
            },
            RichPart::OneOf {
                attr: year,
                values: vec![1990.into(), 1995.into()],
            },
        ]);
        let text = format!("{}", RichDisplay(&e, &db));
        assert!(text.contains("R.ok = y"));
        assert!(text.contains("1991 ≤ R.year ≤ 1993"));
        assert!(text.contains("R.year = 1990 ∨ R.year = 1995"));
    }

    #[test]
    fn rich_interventions_are_valid() {
        let db = db();
        let year = db.schema().attr("R", "year").unwrap();
        let engine = InterventionEngine::new(&db);
        let phi = RichExplanation::new(vec![RichPart::Range {
            attr: year,
            lo: 1991.into(),
            hi: 1994.into(),
        }]);
        let pred = phi.to_predicate();
        let iv = engine.compute_predicate(&pred);
        assert!(crate::intervention::is_valid_for_predicate(
            &db, &pred, &iv.delta
        ));
        assert_eq!(iv.total_deleted(), 4);
    }
}
