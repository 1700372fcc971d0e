//! Program **P**: computing the minimal intervention `Δ^φ` (Section 3).
//!
//! The intervention associated with a candidate explanation φ is the unique
//! minimal `Δ = (Δ_1, …, Δ_k)` such that (Definition 2.6):
//!
//! 1. `Δ` is *closed* under the causal semantics of every foreign key
//!    (cascade, and backward cascade for back-and-forth keys);
//! 2. the residual database `D − Δ` is semijoin-reduced;
//! 3. no tuple of `U(D − Δ)` satisfies φ.
//!
//! Theorem 3.3 shows `Δ^φ` is the least fixpoint of the monotone recursive
//! program **P** with rules
//!
//! ```text
//! (i)   Δ_i = R_i − Π_{A_i} σ_{¬φ}(R_1 ⋈ … ⋈ R_k)            (seeds)
//! (ii)  Δ_i = R_i − Π_{A_i}((R_1 − Δ_1) ⋈ … ⋈ (R_k − Δ_k))   (semijoin reduction / cascade)
//! (iii) Δ_i = R_i ⋉_{pk=fk} Δ_j   for every back-and-forth fk (backward cascade)
//! ```
//!
//! Rules (i) and (ii) are projections of a join, read off the engine's
//! one `U(D)`: deleting rows only removes join tuples, so `U(D − Δ)` is
//! the tuples of `U(D)` that keep all their rows. Rule (i) decides φ from
//! atom words (`aggregate::evaluate_many`); Rule (ii) counts each row's
//! surviving tuples.
//!
//! This module evaluates **P** with *synchronous* (immediate-consequence)
//! iteration — `Δ^{ℓ+1} = T(Δ^ℓ)` with all rule bodies reading `Δ^ℓ` — so
//! the reported iteration counts are comparable to the paper's convergence
//! propositions: two steps with no back-and-forth keys (Prop 3.5), `2q+2`
//! in general (Prop 3.10), and Θ(n) on the adversarial chain of
//! Example 3.7.
//!
//! ```
//! use exq_core::explanation::Explanation;
//! use exq_core::intervention::{is_valid_intervention, InterventionEngine};
//! use exq_relstore::{Atom, Database, SchemaBuilder, ValueType};
//!
//! // An author necessary for her paper: back-and-forth key.
//! let schema = SchemaBuilder::new()
//!     .relation("Author", &[("id", ValueType::Str), ("dom", ValueType::Str)], &["id"])
//!     .relation("Authored", &[("id", ValueType::Str), ("pubid", ValueType::Str)], &["id", "pubid"])
//!     .relation("Publication", &[("pubid", ValueType::Str)], &["pubid"])
//!     .standard_fk("Authored", &["id"], "Author")
//!     .back_and_forth_fk("Authored", &["pubid"], "Publication")
//!     .build()?;
//! let mut db = Database::new(schema);
//! db.insert("Author", vec!["A1".into(), "edu".into()])?;
//! db.insert("Author", vec!["A2".into(), "com".into()])?;
//! db.insert("Authored", vec!["A1".into(), "P1".into()])?;
//! db.insert("Authored", vec!["A2".into(), "P1".into()])?;
//! db.insert("Publication", vec!["P1".into()])?;
//! db.validate()?;
//!
//! let engine = InterventionEngine::new(&db);
//! let phi = Explanation::new(vec![Atom::eq(db.schema().attr("Author", "dom")?, "com")]);
//! let iv = engine.compute(&phi);
//! // Deleting A2 backward-cascades to P1, which cascades to A1's record,
//! // which dangles A1: the whole instance goes.
//! assert_eq!(iv.total_deleted(), 5);
//! assert!(is_valid_intervention(&db, phi.conjunction(), &iv.delta));
//! # Ok::<(), exq_relstore::Error>(())
//! ```
//!
//! One counting subtlety: Rule (ii) as written is the projection of the
//! *full* residual join, i.e. a complete semijoin reduction per iteration
//! (Prop 3.5's proof depends on exactly this — "Rule (ii) in isolation can
//! fire at most once"). Under that reading the Example 3.7 chain converges
//! in `n − 2` iterations, one fewer than the paper's informal step-by-step
//! trace (which lets a dangling tuple drop only one cascade hop per
//! iteration, giving `n − 1`). The fixpoint is identical either way; the
//! linear lower bound — and hence the need for recursion when a relation
//! carries two back-and-forth keys — is unaffected.

use crate::explanation::{matching, Explanation};
use exq_obs::MetricsSink;
use exq_relstore::index::HashIndex;
use exq_relstore::join::referenced_rows;
use exq_relstore::{semijoin, Conjunction, Database, FkKind, Predicate, TupleSet, Universal};
use std::sync::Arc;

/// The result of running program **P**.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Intervention {
    /// The minimal intervention `Δ^φ`: deleted rows per relation.
    pub delta: Vec<TupleSet>,
    /// Seed tuples `Δ¹` computed by Rule (i).
    pub seeds: Vec<TupleSet>,
    /// Number of synchronous iterations until the fixpoint
    /// (`Δ^ℓ = Δ^{ℓ+1}` with `ℓ` minimal).
    pub iterations: usize,
}

impl Intervention {
    /// Total number of deleted tuples.
    pub fn total_deleted(&self) -> usize {
        self.delta.iter().map(TupleSet::count).sum()
    }

    /// Whether nothing is deleted (φ matched no universal tuple).
    pub fn is_empty(&self) -> bool {
        self.delta.iter().all(TupleSet::is_empty)
    }
}

/// Evaluates program **P** against one database and its universal
/// relation, amortizing `U`, the per-row tuple counts and the
/// backward-cascade maps across many explanations — the shape both the
/// naive top-K algorithm and per-explanation drill-downs need.
#[derive(Debug)]
pub struct InterventionEngine<'a> {
    db: &'a Database,
    universal: Arc<Universal>,
    /// For each back-and-forth fk: `(from_rel, to_rel, row map)` where
    /// `row map[j]` is the (unique, by pk) referenced row of `to_rel`,
    /// keys matched as the join matches them.
    bf_maps: Vec<(usize, usize, Vec<u32>)>,
    /// Per relation, per row: the tuples of `U` that hold it.
    holders: Vec<Vec<u32>>,
    /// Per relation, the rows no tuple of `U` holds: Rule (ii) for
    /// `Δ⁰ = ∅`.
    outside: Vec<TupleSet>,
    sink: MetricsSink,
}

impl<'a> InterventionEngine<'a> {
    /// Build an engine over the full database. `db` must be validated
    /// (referential integrity); rows that join nothing are deleted by
    /// Rule (ii) in the first round.
    pub fn new(db: &'a Database) -> InterventionEngine<'a> {
        let universal = Universal::compute(db, &db.full_view());
        InterventionEngine::with_universal(db, Arc::new(universal))
    }

    /// Build an engine sharing a pre-computed universal relation of `db`
    /// (over its full view, or a semijoin-reduced one: both join to the
    /// same tuples).
    pub fn with_universal(db: &'a Database, universal: Arc<Universal>) -> InterventionEngine<'a> {
        // The target is unique because to_cols is a primary key;
        // referential integrity guarantees it exists.
        let bf_maps = db
            .schema()
            .foreign_keys()
            .iter()
            .filter(|fk| fk.kind == FkKind::BackAndForth)
            .map(|fk| (fk.from_rel, fk.to_rel, referenced_rows(db, fk)))
            .collect();
        let k = db.schema().relation_count();
        let mut holders: Vec<Vec<u32>> = (0..k).map(|rel| vec![0; db.relation_len(rel)]).collect();
        for t in universal.iter() {
            for (count, &row) in holders.iter_mut().zip(t) {
                count[row as usize] += 1;
            }
        }
        let outside = (0..k)
            .map(|rel| universal.projected_rows(db, rel).complement())
            .collect();
        InterventionEngine {
            db,
            universal,
            bf_maps,
            holders,
            outside,
            sink: MetricsSink::disabled(),
        }
    }

    /// Record the fixpoint counters into `sink`.
    pub fn with_metrics(mut self, sink: MetricsSink) -> InterventionEngine<'a> {
        self.sink = sink;
        self
    }

    /// The universal relation of the full database.
    pub fn universal(&self) -> &Universal {
        &self.universal
    }

    /// The database.
    pub fn db(&self) -> &Database {
        self.db
    }

    /// Rule (i) for an arbitrary boolean predicate φ: the seed tuples
    /// `Δ¹_i = R_i − Π_{A_i} σ_{¬φ}(U(D))`. Definitions 2.5–2.6 and
    /// Theorem 3.3 never use conjunctivity, so the fixpoint machinery
    /// applies unchanged to the Section 6(ii) extensions (ranges,
    /// disjunctions) and the Section 4.1 disjunction rewrites.
    pub fn seeds_predicate(&self, phi: &Predicate) -> Vec<TupleSet> {
        self.seeds_at(&matching(self.db, &self.universal, phi))
    }

    /// Rule (i) from the positions of φ's tuples: a row is a seed iff
    /// every tuple of `U` that holds it satisfies φ, so every row outside
    /// `U` is one.
    fn seeds_at(&self, matches: &[u32]) -> Vec<TupleSet> {
        let mut seeds = self.outside.clone();
        let mut rows = Vec::with_capacity(matches.len());
        for (rel, seed) in seeds.iter_mut().enumerate() {
            rows.clear();
            rows.extend(
                matches
                    .iter()
                    .map(|&i| self.universal.tuple(i as usize)[rel]),
            );
            rows.sort_unstable();
            for run in rows.chunk_by(|a, b| a == b) {
                if run.len() == self.holders[rel][run[0] as usize] as usize {
                    seed.insert(run[0] as usize);
                }
            }
        }
        seeds
    }

    /// Run program **P** for the explanation φ.
    pub fn compute(&self, phi: &Explanation) -> Intervention {
        self.compute_predicate(&phi.conjunction().to_predicate())
    }

    /// Run program **P** for an arbitrary boolean predicate φ.
    pub fn compute_predicate(&self, phi: &Predicate) -> Intervention {
        self.run(&matching(self.db, &self.universal, phi)).0
    }

    /// Program **P** for the φ whose tuples are at `matches`, with the
    /// positions of `U(D − Δ^φ)`'s tuples in `U`.
    pub(crate) fn run(&self, matches: &[u32]) -> (Intervention, TupleSet) {
        let _span = self.sink.span("fixpoint");
        let seeds = self.seeds_at(matches);
        let mut residual = self.residual();
        let (delta, iterations) = self.close(&seeds, &mut residual);
        let iv = Intervention {
            delta,
            seeds,
            iterations,
        };
        self.record(&iv);
        (iv, residual.alive)
    }

    /// Theorem 4.5's convergence bound as an observable: iteration totals
    /// per program-P run, plus seed and deletion volumes.
    fn record(&self, iv: &Intervention) {
        self.sink.incr("fixpoint.runs");
        self.sink.add("fixpoint.iterations", iv.iterations as u64);
        self.sink.add(
            "fixpoint.seed_rows",
            iv.seeds.iter().map(|s| s.count() as u64).sum(),
        );
        self.sink
            .add("fixpoint.deleted_rows", iv.total_deleted() as u64);
    }

    /// The Section 3.3 *non-recursive* evaluation: when the schema's
    /// convergence bound is static (no back-and-forth keys, or a simple
    /// acyclic causal graph with at most one back-and-forth key per
    /// relation — Propositions 3.5/3.11), `Δ^φ` is computable by a fixed
    /// pipeline with no fixpoint test:
    ///
    /// ```text
    /// seeds (Rule i) → reduce (Rule ii) → [cascade (Rule iii) → reduce (Rule ii)] × s
    /// ```
    ///
    /// Returns `None` when the schema requires genuine recursion (the
    /// Example 3.7 shape) — use [`InterventionEngine::compute`] there.
    /// The returned `iterations` counts the pipeline stages executed.
    pub fn compute_unrolled(&self, phi: &Explanation) -> Option<Intervention> {
        use crate::causal::{convergence_bound, ConvergenceBound};
        let s = match convergence_bound(self.db.schema()) {
            ConvergenceBound::TwoSteps => 0,
            ConvergenceBound::Unrollable { .. } => self.db.schema().back_and_forth_count(),
            ConvergenceBound::RequiresRecursion => return None,
        };
        let seeds = self.seeds_predicate(&phi.conjunction().to_predicate());
        let mut residual = self.residual();
        // Rule (ii)'s rows include Δ's own: every tuple holding one is dead.
        let mut delta = residual.orphans_of(&self.universal, &seeds).to_vec();
        for _ in 0..s {
            let mut next = delta.clone();
            self.cascade(&delta, &mut next);
            delta = residual.orphans_of(&self.universal, &next).to_vec();
        }
        let iv = Intervention {
            delta,
            seeds,
            iterations: 2 + 2 * s,
        };
        self.record(&iv);
        Some(iv)
    }

    /// Rule (iii): add to `delta` the row each back-and-forth key's
    /// referencing row in `from` points at; whether any was new.
    fn cascade(&self, from: &[TupleSet], delta: &mut [TupleSet]) -> bool {
        let mut changed = false;
        for (from_rel, to_rel, map) in &self.bf_maps {
            for row in from[*from_rel].iter().map(|j| map[j]) {
                changed |= row != u32::MAX && delta[*to_rel].insert(row as usize);
            }
        }
        changed
    }

    /// The least fixpoint of Rules (ii) and (iii) above an arbitrary seed
    /// set (synchronous iteration). Exposed separately because the closure
    /// of *any* valid seed superset is a valid intervention — the property
    /// minimality tests exploit.
    pub fn close_from_seeds(&self, seeds: &[TupleSet]) -> (Vec<TupleSet>, usize) {
        self.close(seeds, &mut self.residual())
    }

    /// `U(D − ∅)`: every tuple lives.
    fn residual(&self) -> Residual {
        Residual {
            alive: TupleSet::full(self.universal.len()),
            holders: self.holders.clone(),
            orphans: self.outside.clone(),
        }
    }

    /// [`InterventionEngine::close_from_seeds`], leaving `residual` at
    /// `U(D − Δ)` of the returned `Δ`.
    fn close(&self, seeds: &[TupleSet], residual: &mut Residual) -> (Vec<TupleSet>, usize) {
        let mut delta = self.db.empty_delta();
        // Rows added in the previous round, per relation. Rule (iii) only
        // needs the frontier of Δ^ℓ: a row already in Δ^{ℓ−1} had its
        // (unique) backward-cascade target inserted the round after it
        // first appeared, so re-scanning it cannot change Δ^{ℓ+1}. This
        // keeps Rule (iii) linear in |Δ| per fixpoint run instead of
        // quadratic, without altering the synchronous iteration counts
        // (Δ⁰ = ∅, so the initial frontier is empty too).
        let mut frontier: Vec<TupleSet> = self.db.empty_delta();
        let mut iterations = 0usize;
        loop {
            let mut next = delta.clone();
            let mut changed = false;

            // Rule (i): seeds (constant body; a no-op after round one).
            for (n, s) in next.iter_mut().zip(seeds) {
                changed |= n.union_with(s);
            }

            // Rule (iii): backward cascade over the frontier of Δ^ℓ.
            changed |= self.cascade(&frontier, &mut next);

            // Rule (ii): Δ_i = R_i − Π_{A_i}((R−Δ^ℓ) ⋈ …): every row that
            // no tuple of U(D − Δ^ℓ) holds. Δ^ℓ's rows outside the
            // frontier killed their tuples in earlier rounds.
            for (n, orphans) in next
                .iter_mut()
                .zip(residual.orphans_of(&self.universal, &frontier))
            {
                changed |= n.union_with(orphans);
            }

            if !changed {
                return (delta, iterations);
            }
            for ((f, n), d) in frontier.iter_mut().zip(&next).zip(&delta) {
                *f = n.clone();
                f.difference_with(d);
            }
            delta = next;
            iterations += 1;
        }
    }
}

/// `U(D − Δ)` for a `Δ` that only grows: which tuples of `U` keep all
/// their rows, and per row how many of them hold it.
struct Residual {
    alive: TupleSet,
    holders: Vec<Vec<u32>>,
    /// `R_i − Π_{A_i}(U(D − Δ))`: the rows no live tuple holds.
    orphans: Vec<TupleSet>,
}

impl Residual {
    /// Delete the rows of `dead` (every row deleted since the last call;
    /// earlier ones may repeat, as no live tuple holds them) and return
    /// the orphans: a live tuple that holds a dead row dies, and a row
    /// whose last holder dies is orphaned.
    fn orphans_of(&mut self, u: &Universal, dead: &[TupleSet]) -> &[TupleSet] {
        let rels: Vec<usize> = (0..dead.len()).filter(|&r| !dead[r].is_empty()).collect();
        if rels.is_empty() {
            return &self.orphans;
        }
        let dying: Vec<usize> = (self.alive.iter())
            .filter(|&i| {
                let t = u.tuple(i);
                rels.iter().any(|&r| dead[r].contains(t[r] as usize))
            })
            .collect();
        for i in dying {
            self.alive.remove(i);
            for ((count, orphans), &row) in self
                .holders
                .iter_mut()
                .zip(&mut self.orphans)
                .zip(u.tuple(i))
            {
                count[row as usize] -= 1;
                if count[row as usize] == 0 {
                    orphans.insert(row as usize);
                }
            }
        }
        &self.orphans
    }
}

/// Whether `delta` is closed under every foreign key's causal semantics
/// (Definition 2.5).
pub fn is_closed(db: &Database, delta: &[TupleSet]) -> bool {
    for fk in db.schema().foreign_keys() {
        let full = TupleSet::full(db.relation_len(fk.to_rel));
        let index = HashIndex::build(db, fk.to_rel, &fk.to_cols, &full);
        let from = db.relation(fk.from_rel);
        let mut key = Vec::new();
        for row_j in 0..from.len() {
            from.project_into(row_j, &fk.from_cols, &mut key);
            let Some(&row_i) = index.get(&key).first() else {
                continue; // dangling fk: no constraint to violate
            };
            let ti_deleted = delta[fk.to_rel].contains(row_i as usize);
            let tj_deleted = delta[fk.from_rel].contains(row_j);
            // Forth (cascade): t_i ∈ Δ ⇒ t_j ∈ Δ.
            if ti_deleted && !tj_deleted {
                return false;
            }
            // Back: t_j ∈ Δ ⇒ t_i ∈ Δ, for back-and-forth keys.
            if fk.kind == FkKind::BackAndForth && tj_deleted && !ti_deleted {
                return false;
            }
        }
    }
    true
}

/// Whether `delta` is a *valid* intervention for φ (Definition 2.6): closed,
/// residual semijoin-reduced, and no residual universal tuple satisfies φ.
/// This is the oracle program **P** is tested against, so it joins and
/// reduces `D − Δ` from scratch and evaluates φ per tuple.
pub fn is_valid_intervention(db: &Database, phi: &Conjunction, delta: &[TupleSet]) -> bool {
    is_valid_for_predicate(db, &phi.to_predicate(), delta)
}

/// [`is_valid_intervention`] for an arbitrary boolean predicate φ.
pub fn is_valid_for_predicate(db: &Database, phi: &Predicate, delta: &[TupleSet]) -> bool {
    if !is_closed(db, delta) {
        return false;
    }
    let residual = db.view_minus(delta);
    if !semijoin::is_reduced(db, &residual) {
        return false;
    }
    let u = Universal::compute(db, &residual);
    let no_phi_survivor = u.iter().all(|t| !phi.eval(db, t));
    no_phi_survivor
}

#[cfg(test)]
mod tests {
    use super::*;
    use exq_relstore::{Atom, SchemaBuilder, ValueType as T};

    /// The Figure 3 running-example instance.
    fn figure3_db() -> Database {
        let schema = SchemaBuilder::new()
            .relation(
                "Author",
                &[
                    ("id", T::Str),
                    ("name", T::Str),
                    ("inst", T::Str),
                    ("dom", T::Str),
                ],
                &["id"],
            )
            .relation(
                "Authored",
                &[("id", T::Str), ("pubid", T::Str)],
                &["id", "pubid"],
            )
            .relation(
                "Publication",
                &[("pubid", T::Str), ("year", T::Int), ("venue", T::Str)],
                &["pubid"],
            )
            .standard_fk("Authored", &["id"], "Author")
            .back_and_forth_fk("Authored", &["pubid"], "Publication")
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        for (id, name, inst, dom) in [
            ("A1", "JG", "C.edu", "edu"),
            ("A2", "RR", "M.com", "com"),
            ("A3", "CM", "I.com", "com"),
        ] {
            db.insert(
                "Author",
                vec![id.into(), name.into(), inst.into(), dom.into()],
            )
            .unwrap();
        }
        // Row ids:        s1          s2          s3          s4          s5          s6
        for (id, pubid) in [
            ("A1", "P1"),
            ("A2", "P1"),
            ("A1", "P2"),
            ("A3", "P2"),
            ("A2", "P3"),
            ("A3", "P3"),
        ] {
            db.insert("Authored", vec![id.into(), pubid.into()])
                .unwrap();
        }
        for (pubid, year, venue) in [
            ("P1", 2001, "SIGMOD"),
            ("P2", 2011, "VLDB"),
            ("P3", 2001, "SIGMOD"),
        ] {
            db.insert("Publication", vec![pubid.into(), year.into(), venue.into()])
                .unwrap();
        }
        db.validate().unwrap();
        db
    }

    fn phi_jg_2001(db: &Database) -> Explanation {
        Explanation::new(vec![
            Atom::eq(db.schema().attr("Author", "name").unwrap(), "JG"),
            Atom::eq(db.schema().attr("Publication", "year").unwrap(), 2001),
        ])
    }

    #[test]
    fn example_28_intervention_is_asymmetric() {
        // Example 2.8: Δ_Author = ∅, Δ_Authored = {s1, s2},
        // Δ_Publication = {t1}.
        let db = figure3_db();
        let engine = InterventionEngine::new(&db);
        let iv = engine.compute(&phi_jg_2001(&db));
        let author = db.schema().relation_index("Author").unwrap();
        let authored = db.schema().relation_index("Authored").unwrap();
        let publication = db.schema().relation_index("Publication").unwrap();
        assert!(iv.delta[author].is_empty(), "the author JG must survive");
        assert_eq!(
            iv.delta[authored].iter().collect::<Vec<_>>(),
            vec![0, 1],
            "s1 and s2"
        );
        assert_eq!(
            iv.delta[publication].iter().collect::<Vec<_>>(),
            vec![0],
            "t1"
        );
        assert_eq!(iv.total_deleted(), 3);
        assert!(is_valid_intervention(
            &db,
            phi_jg_2001(&db).conjunction(),
            &iv.delta
        ));
    }

    #[test]
    fn example_28_standard_fks_give_symmetric_intervention() {
        // With both keys standard, only s1 is deleted.
        let schema = SchemaBuilder::new()
            .relation(
                "Author",
                &[
                    ("id", T::Str),
                    ("name", T::Str),
                    ("inst", T::Str),
                    ("dom", T::Str),
                ],
                &["id"],
            )
            .relation(
                "Authored",
                &[("id", T::Str), ("pubid", T::Str)],
                &["id", "pubid"],
            )
            .relation(
                "Publication",
                &[("pubid", T::Str), ("year", T::Int), ("venue", T::Str)],
                &["pubid"],
            )
            .standard_fk("Authored", &["id"], "Author")
            .standard_fk("Authored", &["pubid"], "Publication")
            .build()
            .unwrap();
        let src = figure3_db();
        let mut db = Database::new(schema);
        for rel in ["Author", "Authored", "Publication"] {
            let idx = src.schema().relation_index(rel).unwrap();
            for row in src.relation(idx).rows() {
                db.insert(rel, row.to_vec()).unwrap();
            }
        }
        let engine = InterventionEngine::new(&db);
        let iv = engine.compute(&phi_jg_2001(&db));
        let authored = db.schema().relation_index("Authored").unwrap();
        assert_eq!(iv.total_deleted(), 1);
        assert_eq!(
            iv.delta[authored].iter().collect::<Vec<_>>(),
            vec![0],
            "only s1"
        );
    }

    #[test]
    fn seeds_of_running_example() {
        // σ_φ(U) = {u1} only; the only tuple whose every universal
        // occurrence satisfies φ is s1.
        let db = figure3_db();
        let engine = InterventionEngine::new(&db);
        let seeds = engine.seeds_predicate(&phi_jg_2001(&db).conjunction().to_predicate());
        let authored = db.schema().relation_index("Authored").unwrap();
        assert_eq!(seeds[authored].iter().collect::<Vec<_>>(), vec![0]);
        assert_eq!(seeds.iter().map(TupleSet::count).sum::<usize>(), 1);
    }

    #[test]
    fn running_example_converges_within_prop_311_bound() {
        // One back-and-forth key, at most one per relation: ≤ 2s+2 = 4.
        let db = figure3_db();
        let engine = InterventionEngine::new(&db);
        let iv = engine.compute(&phi_jg_2001(&db));
        assert!(iv.iterations <= 4, "got {}", iv.iterations);
    }

    #[test]
    fn empty_phi_match_gives_empty_intervention() {
        let db = figure3_db();
        let engine = InterventionEngine::new(&db);
        let phi = Explanation::new(vec![Atom::eq(
            db.schema().attr("Author", "name").unwrap(),
            "NOBODY",
        )]);
        let iv = engine.compute(&phi);
        assert!(iv.is_empty());
        assert_eq!(iv.iterations, 0);
        assert!(is_valid_intervention(&db, phi.conjunction(), &iv.delta));
    }

    #[test]
    fn trivial_phi_deletes_everything() {
        let db = figure3_db();
        let engine = InterventionEngine::new(&db);
        let iv = engine.compute(&Explanation::trivial());
        assert_eq!(iv.total_deleted(), db.total_tuples());
    }

    #[test]
    fn closedness_detects_violations() {
        let db = figure3_db();
        // Deleting the author A1 without deleting her Authored rows
        // violates the cascade.
        let mut delta = db.empty_delta();
        let author = db.schema().relation_index("Author").unwrap();
        delta[author].insert(0);
        assert!(!is_closed(&db, &delta));

        // Deleting authored row s1 without deleting publication P1
        // violates the backward cascade.
        let mut delta = db.empty_delta();
        let authored = db.schema().relation_index("Authored").unwrap();
        delta[authored].insert(0);
        assert!(!is_closed(&db, &delta));

        // Deleting a publication alone violates the forward cascade on the
        // back-and-forth key.
        let mut delta = db.empty_delta();
        let publication = db.schema().relation_index("Publication").unwrap();
        delta[publication].insert(0);
        assert!(!is_closed(&db, &delta));

        // The empty intervention is closed.
        assert!(is_closed(&db, &db.empty_delta()));
    }

    #[test]
    fn unrolled_pipeline_matches_fixpoint() {
        // Running example: one back-and-forth key → unrollable.
        let db = figure3_db();
        let engine = InterventionEngine::new(&db);
        let schema = db.schema();
        let candidates = [
            phi_jg_2001(&db),
            Explanation::new(vec![Atom::eq(schema.attr("Author", "name").unwrap(), "RR")]),
            Explanation::new(vec![Atom::eq(schema.attr("Author", "dom").unwrap(), "com")]),
            Explanation::new(vec![Atom::eq(
                schema.attr("Publication", "venue").unwrap(),
                "SIGMOD",
            )]),
            Explanation::trivial(),
            Explanation::new(vec![Atom::eq(
                schema.attr("Author", "name").unwrap(),
                "NOBODY",
            )]),
        ];
        for phi in candidates {
            let fixpoint = engine.compute(&phi);
            let unrolled = engine.compute_unrolled(&phi).expect("schema is unrollable");
            assert_eq!(
                unrolled.delta,
                fixpoint.delta,
                "mismatch for {}",
                phi.display(&db)
            );
            assert_eq!(unrolled.seeds, fixpoint.seeds);
        }
    }

    #[test]
    fn unrolled_refuses_recursive_schemas() {
        // Example 3.7's schema (two back-and-forth keys on R3).
        let schema = SchemaBuilder::new()
            .relation("R1", &[("a", T::Str)], &["a"])
            .relation("R2", &[("b", T::Str)], &["b"])
            .relation("R3", &[("c", T::Str), ("a", T::Str), ("b", T::Str)], &["c"])
            .back_and_forth_fk("R3", &["a"], "R1")
            .back_and_forth_fk("R3", &["b"], "R2")
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        db.insert("R1", vec!["r1".into()]).unwrap();
        db.insert("R2", vec!["t0".into()]).unwrap();
        db.insert("R2", vec!["t1".into()]).unwrap();
        db.insert("R3", vec!["c1a".into(), "r1".into(), "t0".into()])
            .unwrap();
        db.insert("R3", vec!["c1b".into(), "r1".into(), "t1".into()])
            .unwrap();
        let engine = InterventionEngine::new(&db);
        let phi = Explanation::new(vec![Atom::eq(db.schema().attr("R3", "c").unwrap(), "c1a")]);
        assert!(engine.compute_unrolled(&phi).is_none());
        assert!(!engine.compute(&phi).is_empty(), "the fixpoint still works");
    }

    #[test]
    fn minimality_against_closed_seed_supersets() {
        // Any closure of a seed superset is valid and must contain Δ^φ.
        let db = figure3_db();
        let engine = InterventionEngine::new(&db);
        let phi = phi_jg_2001(&db);
        let iv = engine.compute(&phi);
        let authored = db.schema().relation_index("Authored").unwrap();

        let mut bigger_seeds = iv.seeds.clone();
        bigger_seeds[authored].insert(4); // also delete s5 (A2, P3)
        let (bigger_delta, _) = engine.close_from_seeds(&bigger_seeds);
        assert!(is_valid_intervention(&db, phi.conjunction(), &bigger_delta));
        for (small, big) in iv.delta.iter().zip(&bigger_delta) {
            assert!(small.is_subset(big));
        }
        assert!(bigger_delta.iter().map(TupleSet::count).sum::<usize>() > iv.total_deleted());
    }

    #[test]
    fn residual_universal_never_satisfies_phi() {
        let db = figure3_db();
        let engine = InterventionEngine::new(&db);
        for (rel, attr, val) in [
            ("Author", "name", "RR"),
            ("Author", "dom", "com"),
            ("Publication", "venue", "SIGMOD"),
        ] {
            let phi = Explanation::new(vec![Atom::eq(db.schema().attr(rel, attr).unwrap(), val)]);
            let iv = engine.compute(&phi);
            assert!(
                is_valid_intervention(&db, phi.conjunction(), &iv.delta),
                "invalid intervention for {rel}.{attr}={val}"
            );
        }
    }

    #[test]
    fn prop_34_iteration_bound() {
        let db = figure3_db();
        let engine = InterventionEngine::new(&db);
        let n = db.total_tuples();
        for (rel, attr, val) in [
            ("Author", "name", "JG"),
            ("Author", "inst", "M.com"),
            ("Publication", "year", "2001"),
        ] {
            let a = db.schema().attr(rel, attr).unwrap();
            let v: exq_relstore::Value = if attr == "year" {
                2001.into()
            } else {
                val.into()
            };
            let iv = engine.compute(&Explanation::new(vec![Atom::eq(a, v)]));
            assert!(iv.iterations <= n);
        }
    }
}
