//! Candidate explanations (Definition 2.3).
//!
//! A candidate explanation is a conjunction of atomic predicates
//! `[R_i.A op c]`. The cube pipeline of Section 4 restricts to equality
//! atoms over a chosen attribute set `A'`, in which case an explanation is
//! exactly a cube *coordinate*: one optional value per attribute of `A'`.

use exq_relstore::aggregate::{evaluate_many, AggFunc};
use exq_relstore::cube::Coord;
use exq_relstore::lookup::LookupSet;
use exq_relstore::{Atom, AttrRef, CmpOp, Conjunction, Database, Predicate, Universal, Value};
use std::fmt;

/// A candidate explanation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Explanation {
    conjunction: Conjunction,
}

impl Explanation {
    /// From an arbitrary conjunction of atoms.
    pub fn new(atoms: Vec<Atom>) -> Explanation {
        Explanation {
            conjunction: Conjunction::new(atoms),
        }
    }

    /// The trivial explanation (true everywhere). Excluded from rankings
    /// (Section 4.3) but useful as an algebraic identity.
    pub fn trivial() -> Explanation {
        Explanation {
            conjunction: Conjunction::trivial(),
        }
    }

    /// An equality-only explanation from a cube coordinate over dimension
    /// attributes `dims`: non-null coordinates become equality atoms.
    pub fn from_coord(dims: &[AttrRef], coord: &[Value]) -> Explanation {
        assert_eq!(dims.len(), coord.len(), "coordinate arity mismatch");
        let atoms = dims
            .iter()
            .zip(coord)
            .filter(|(_, v)| !v.is_null())
            .map(|(&attr, v)| Atom::eq(attr, v.clone()))
            .collect();
        Explanation {
            conjunction: Conjunction::new(atoms),
        }
    }

    /// Convert a predicate into an explanation, if it is a conjunction of
    /// atoms (arbitrarily nested `And`s are flattened). Returns `None`
    /// for predicates containing `Or`/`Not`/`False` — those are *rich*
    /// explanations (see [`crate::rich`]), not Definition 2.3 candidates.
    pub fn from_predicate(pred: &Predicate) -> Option<Explanation> {
        use Predicate as P;
        fn collect(p: &P, out: &mut Vec<Atom>) -> bool {
            match p {
                P::True => true,
                P::Atom(a) => {
                    out.push(a.clone());
                    true
                }
                P::And(parts) => parts.iter().all(|q| collect(q, out)),
                P::Or(_) | P::Not(_) | P::False => false,
            }
        }
        let mut atoms = Vec::new();
        collect(pred, &mut atoms).then(|| Explanation::new(atoms))
    }

    /// Render this explanation as a coordinate over `dims`, if it is
    /// equality-only and every atom's attribute is in `dims`.
    pub fn to_coord(&self, dims: &[AttrRef]) -> Option<Coord> {
        let mut coord = vec![Value::Null; dims.len()];
        for atom in &self.conjunction.atoms {
            if atom.op != CmpOp::Eq {
                return None;
            }
            let pos = dims.iter().position(|&d| d == atom.attr)?;
            coord[pos] = atom.value.clone();
        }
        Some(coord.into_boxed_slice())
    }

    /// The atoms.
    pub fn atoms(&self) -> &[Atom] {
        &self.conjunction.atoms
    }

    /// Number of conjuncts — the "length" minimality prefers to keep small.
    /// (The emptiness check is [`Explanation::is_trivial`].)
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.conjunction.len()
    }

    /// Whether this is the trivial explanation.
    pub fn is_trivial(&self) -> bool {
        self.conjunction.is_empty()
    }

    /// The underlying conjunction.
    pub fn conjunction(&self) -> &Conjunction {
        &self.conjunction
    }

    /// Evaluate against a universal tuple.
    pub fn eval(&self, db: &Database, utuple: &[u32]) -> bool {
        self.conjunction.eval(db, utuple)
    }

    /// Whether `self` *generalizes* `other`: every `(attribute, op, value)`
    /// atom of `self` is also an atom of `other`. Used by the minimality
    /// dominance test of Section 4.3 ("the non-null pairs of φ' are a
    /// subset of those of φ").
    pub fn generalizes(&self, other: &Explanation) -> bool {
        self.conjunction
            .atoms
            .iter()
            .all(|a| other.conjunction.atoms.contains(a))
    }

    /// Whether `self` *strictly* generalizes `other` (subset, not equal).
    pub fn strictly_generalizes(&self, other: &Explanation) -> bool {
        self.len() < other.len() && self.generalizes(other)
    }

    /// Render with schema names, e.g.
    /// `[Author.name = JG ∧ Publication.year = 2001]`.
    pub fn display<'a>(&'a self, db: &'a Database) -> impl fmt::Display + 'a {
        struct D<'a>(&'a Explanation, &'a Database);
        impl fmt::Display for D<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                if self.0.is_trivial() {
                    return write!(f, "[true]");
                }
                write!(f, "[")?;
                for (i, a) in self.0.atoms().iter().enumerate() {
                    if i > 0 {
                        write!(f, " ∧ ")?;
                    }
                    write!(
                        f,
                        "{} {} {}",
                        self.1.schema().attr_name(a.attr),
                        a.op,
                        a.value
                    )?;
                }
                write!(f, "]")
            }
        }
        D(self, db)
    }
}

/// Enumerate every candidate equality explanation over `dims` that is
/// *supported by the data*: the non-trivial coordinates observed in the
/// universal relation among tuples satisfying `filter`, i.e. exactly the
/// non-total rows the cubes over `dims` would contain. This is the
/// candidate set both the cube pipeline (implicitly) and the naive
/// baseline (explicitly) iterate over; the naive baseline passes the
/// disjunction of the sub-query selections so both pipelines see the same
/// candidates (Algorithm 1's full outer join only retains explanations
/// appearing in at least one cube — the rest have all-zero values).
pub fn enumerate_candidates(
    db: &Database,
    u: &Universal,
    dims: &[AttrRef],
    filter: &Predicate,
) -> Vec<Explanation> {
    let d = dims.len();
    let mut uniq: LookupSet<Coord> = LookupSet::new();
    let mut base: Vec<Value> = Vec::with_capacity(d);
    for i in matching(db, u, filter) {
        let t = u.tuple(i as usize);
        base.clear();
        base.extend(dims.iter().map(|&a| db.value(a, t[a.rel] as usize).clone()));
        // All non-empty subsets of the dimensions.
        for mask in 1u32..(1 << d) {
            let coord: Coord = base
                .iter()
                .enumerate()
                .map(|(j, v)| {
                    if mask & (1 << j) != 0 {
                        v.clone()
                    } else {
                        Value::Null
                    }
                })
                .collect();
            uniq.insert(coord);
        }
    }
    uniq.into_sorted()
        .iter()
        .map(|c| Explanation::from_coord(dims, c))
        .collect()
}

/// The positions in `u` of the tuples that satisfy `p`, ascending,
/// decided from per-relation atom words ([`evaluate_many`]).
pub(crate) fn matching(db: &Database, u: &Universal, p: &Predicate) -> Vec<u32> {
    let folded = evaluate_many(db, u, &[(p, &AggFunc::CountStar)], true)
        .expect("COUNT(*) folds every tuple");
    folded.positions.into_iter().next().unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use exq_relstore::{SchemaBuilder, ValueType as T};

    fn db() -> Database {
        let schema = SchemaBuilder::new()
            .relation(
                "R",
                &[("id", T::Int), ("g", T::Str), ("h", T::Str)],
                &["id"],
            )
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        for (i, (g, h)) in [("a", "x"), ("a", "y"), ("b", "x")].iter().enumerate() {
            db.insert("R", vec![(i as i64).into(), (*g).into(), (*h).into()])
                .unwrap();
        }
        db
    }

    fn dims(db: &Database) -> Vec<AttrRef> {
        vec![
            db.schema().attr("R", "g").unwrap(),
            db.schema().attr("R", "h").unwrap(),
        ]
    }

    #[test]
    fn coord_round_trip() {
        let db = db();
        let dims = dims(&db);
        let coord: Coord = vec![Value::str("a"), Value::Null].into_boxed_slice();
        let e = Explanation::from_coord(&dims, &coord);
        assert_eq!(e.len(), 1);
        assert_eq!(e.to_coord(&dims).unwrap(), coord);
        assert!(!e.is_trivial());
        assert!(Explanation::from_coord(&dims, &[Value::Null, Value::Null]).is_trivial());
    }

    #[test]
    fn to_coord_rejects_inequalities_and_foreign_attrs() {
        let db = db();
        let dims = dims(&db);
        let g = db.schema().attr("R", "g").unwrap();
        let id = db.schema().attr("R", "id").unwrap();
        let ineq = Explanation::new(vec![Atom {
            attr: g,
            op: CmpOp::Gt,
            value: "a".into(),
        }]);
        assert!(ineq.to_coord(&dims).is_none());
        let foreign = Explanation::new(vec![Atom::eq(id, 1)]);
        assert!(foreign.to_coord(&dims).is_none());
    }

    #[test]
    fn generalization_partial_order() {
        let db = db();
        let g = db.schema().attr("R", "g").unwrap();
        let h = db.schema().attr("R", "h").unwrap();
        let short = Explanation::new(vec![Atom::eq(g, "a")]);
        let long = Explanation::new(vec![Atom::eq(g, "a"), Atom::eq(h, "x")]);
        let other = Explanation::new(vec![Atom::eq(g, "b")]);
        assert!(short.generalizes(&long));
        assert!(short.strictly_generalizes(&long));
        assert!(!long.generalizes(&short));
        assert!(!other.generalizes(&long));
        assert!(short.generalizes(&short));
        assert!(!short.strictly_generalizes(&short));
        assert!(Explanation::trivial().strictly_generalizes(&short));
    }

    #[test]
    fn eval_matches_conjunction_semantics() {
        let db = db();
        let g = db.schema().attr("R", "g").unwrap();
        let h = db.schema().attr("R", "h").unwrap();
        let e = Explanation::new(vec![Atom::eq(g, "a"), Atom::eq(h, "x")]);
        assert!(e.eval(&db, &[0]));
        assert!(!e.eval(&db, &[1]));
        assert!(!e.eval(&db, &[2]));
    }

    #[test]
    fn enumerate_candidates_observed_only() {
        let db = db();
        let u = Universal::compute(&db, &db.full_view());
        let cands = enumerate_candidates(&db, &u, &dims(&db), &Predicate::True);
        // Observed combos: (a,x),(a,y),(b,x); singles: g∈{a,b}, h∈{x,y}.
        // Total: 3 pairs + 2 + 2 = 7 (no trivial). (b,y) is unobserved.
        assert_eq!(cands.len(), 7);
        let g = db.schema().attr("R", "g").unwrap();
        let h = db.schema().attr("R", "h").unwrap();
        let unobserved = Explanation::new(vec![Atom::eq(g, "b"), Atom::eq(h, "y")]);
        assert!(!cands.contains(&unobserved));
        assert!(cands.iter().all(|c| !c.is_trivial()));
    }

    #[test]
    fn from_predicate_accepts_conjunctions_only() {
        let db = db();
        let g = db.schema().attr("R", "g").unwrap();
        let h = db.schema().attr("R", "h").unwrap();
        let conj = Predicate::and([
            Predicate::eq(g, "a"),
            Predicate::and([Predicate::eq(h, "x"), Predicate::True]),
        ]);
        let e = Explanation::from_predicate(&conj).unwrap();
        assert_eq!(e.len(), 2);

        assert!(Explanation::from_predicate(&Predicate::True)
            .unwrap()
            .is_trivial());
        assert!(Explanation::from_predicate(&Predicate::or([Predicate::eq(g, "a")])).is_none());
        assert!(Explanation::from_predicate(&Predicate::not(Predicate::eq(g, "a"))).is_none());
        assert!(Explanation::from_predicate(&Predicate::False).is_none());
    }

    #[test]
    fn display_formats() {
        let db = db();
        let g = db.schema().attr("R", "g").unwrap();
        let e = Explanation::new(vec![Atom::eq(g, "a")]);
        assert_eq!(e.display(&db).to_string(), "[R.g = a]");
        assert_eq!(Explanation::trivial().display(&db).to_string(), "[true]");
    }

    #[test]
    fn selection_predicate_from_explanation() {
        let db = db();
        let g = db.schema().attr("R", "g").unwrap();
        let e = Explanation::new(vec![Atom::eq(g, "a")]);
        let p = e.conjunction().to_predicate();
        assert_eq!(p, Predicate::And(vec![Predicate::eq(g, "a")]));
    }
}
