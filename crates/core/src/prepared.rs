//! Pre-built, shareable pipeline intermediates for a resident database.
//!
//! A one-shot `explain` pays for the expensive intermediates — the
//! semijoin reduction and the universal relation — on every call. A
//! resident service (many questions against the same database, the
//! setting of the paper's §6 prototype) wants them built **once** and
//! shared. [`PreparedDb`] is that unit: it owns the database behind an
//! `Arc`, reduces it, joins it, and hands out [`Explainer`]s seeded with
//! the shared universal relation via [`Explainer::with_universal`].
//!
//! Semijoin reduction only removes tuples that participate in **no**
//! universal tuple (Yannakakis), and the join expands surviving root rows
//! in ascending row-id order either way — so the universal relation
//! computed over the reduced view is bit-identical to the one computed
//! over the full view, and every explanation produced through a
//! `PreparedDb` is bit-identical to the one-shot pipeline's. The tests
//! below pin that contract.
//!
//! ```
//! use exq_core::prepared::PreparedDb;
//! use exq_core::prelude::*;
//! use exq_relstore::{Database, Predicate, SchemaBuilder, ValueType};
//! use std::sync::Arc;
//!
//! let schema = SchemaBuilder::new()
//!     .relation("R", &[("id", ValueType::Int), ("g", ValueType::Str)], &["id"])
//!     .build()?;
//! let mut db = Database::new(schema);
//! db.insert("R", vec![1.into(), "a".into()])?;
//! db.insert("R", vec![2.into(), "b".into()])?;
//! let prepared = PreparedDb::build(Arc::new(db));
//! let g = prepared.db().schema().attr("R", "g")?;
//! let question = UserQuestion::new(
//!     NumericalQuery::single(AggregateQuery::count_star(Predicate::eq(g, "a"))),
//!     Direction::High,
//! );
//! // Two questions, one join.
//! let top = prepared.explainer(question.clone()).attr_names(&["R.g"])?.top(DegreeKind::Intervention, 1)?;
//! assert_eq!(top.len(), 1);
//! let again = prepared.explainer(question).attr_names(&["R.g"])?.top(DegreeKind::Intervention, 1)?;
//! assert_eq!(top[0].degree, again[0].degree);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::explainer::Explainer;
use crate::question::UserQuestion;
use exq_relstore::{semijoin, AppendBatch, Database, ExecConfig, Universal, View};
use std::sync::Arc;

/// A database with its expensive intermediates built once: the
/// semijoin-reduced view and the universal relation, both shared via
/// `Arc` so any number of concurrent explainers can borrow them.
#[derive(Debug, Clone)]
pub struct PreparedDb {
    db: Arc<Database>,
    reduced: Arc<View>,
    universal: Arc<Universal>,
}

impl PreparedDb {
    /// Build the intermediates sequentially.
    pub fn build(db: Arc<Database>) -> PreparedDb {
        PreparedDb::build_with(db, &ExecConfig::sequential())
    }

    /// Build the intermediates, recording the usual `semijoin.*`/`join.*`
    /// counters into `exec`'s metrics sink.
    pub fn build_with(db: Arc<Database>, exec: &ExecConfig) -> PreparedDb {
        let _span = exec.metrics().span("prepare");
        // Columnar projections first: the reduction and join below (and
        // every later query) read them, and building them here attributes
        // the one-time dictionary scan to preparation, not the first query.
        let _ = db.columns();
        let mut view = db.full_view();
        semijoin::reduce_in_place_with(&db, &mut view, exec);
        let universal = Arc::new(Universal::compute_with(&db, &view, exec));
        PreparedDb {
            db,
            reduced: Arc::new(view),
            universal,
        }
    }

    /// [`PreparedDb::append_with`] on the sequential executor.
    pub fn append(&self, batch: AppendBatch) -> exq_relstore::Result<(PreparedDb, usize)> {
        self.append_with(batch, &ExecConfig::sequential())
    }

    /// Apply a row-append batch and return a **new** `PreparedDb` whose
    /// intermediates are delta-maintained, plus the number of rows
    /// appended. `self` is untouched — explainers holding the old
    /// intermediates keep answering against the pre-append epoch, which
    /// is what lets a server swap epochs without quiescing readers.
    ///
    /// The maintenance work is proportional to the delta, not the
    /// database: [`Database::append_batch`] extends the columnar store
    /// in place (dictionary codes and column prefixes never change),
    /// [`Universal::extend_for_append_with`] joins only the tuple
    /// combinations that involve a new row (the paper's program-**P**
    /// fixpoint run forward from the appended seed), and the reduced
    /// view grows by exactly the rows those new tuples touch — full
    /// semijoin reduction keeps precisely the rows participating in
    /// some universal tuple, appends never *un*-reduce an old row, so
    /// old-live ∪ delta-touched is the new reduction. The differential
    /// suite (`tests/incremental.rs`) pins all three against a
    /// from-scratch [`PreparedDb::build_with`] at every epoch and
    /// thread count.
    ///
    /// On any validation error the batch is rolled back atomically and
    /// `self` remains the only epoch.
    pub fn append_with(
        &self,
        batch: AppendBatch,
        exec: &ExecConfig,
    ) -> exq_relstore::Result<(PreparedDb, usize)> {
        let _span = exec.metrics().span("ingest.apply");
        let old_lens: Vec<usize> = (0..self.db.schema().relation_count())
            .map(|rel| self.db.relation_len(rel))
            .collect();
        let mut db = (*self.db).clone();
        let appended = db.append_batch(batch)?;
        let (universal, touched) =
            Universal::extend_for_append_with(&self.universal, &db, &old_lens, exec);
        let mut reduced = (*self.reduced).clone();
        for (live, t) in reduced.live.iter_mut().zip(&touched) {
            live.grow(t.capacity());
            live.union_with(t);
        }
        Ok((
            PreparedDb {
                db: Arc::new(db),
                reduced: Arc::new(reduced),
                universal: Arc::new(universal),
            },
            appended,
        ))
    }

    /// The underlying database.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// Shared handle to the database.
    pub fn db_arc(&self) -> Arc<Database> {
        Arc::clone(&self.db)
    }

    /// The semijoin-reduced view the universal relation was joined over.
    pub fn reduced(&self) -> &View {
        &self.reduced
    }

    /// The pre-computed universal relation.
    pub fn universal(&self) -> &Universal {
        &self.universal
    }

    /// Shared handle to the universal relation.
    pub fn universal_arc(&self) -> Arc<Universal> {
        Arc::clone(&self.universal)
    }

    /// Tuples that survive the semijoin reduction (= tuples participating
    /// in at least one universal tuple).
    pub fn surviving_tuples(&self) -> usize {
        self.reduced.total_live()
    }

    /// An [`Explainer`] for one question, seeded with the shared
    /// universal relation — no per-question join.
    pub fn explainer(&self, question: UserQuestion) -> Explainer<'_> {
        Explainer::new(&self.db, question).with_universal(self.universal_arc())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;
    use exq_relstore::aggregate::AggFunc;
    use exq_relstore::{Predicate, SchemaBuilder, ValueType as T};

    /// Two joined relations with a dangling `A` row the semijoin drops.
    fn linked_db() -> Database {
        let schema = SchemaBuilder::new()
            .relation("A", &[("id", T::Int), ("g", T::Str)], &["id"])
            .relation(
                "B",
                &[("id", T::Int), ("a", T::Int), ("ok", T::Str)],
                &["id"],
            )
            .standard_fk("B", &["a"], "A")
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        for (id, g) in [(1, "x"), (2, "y"), (3, "dangling")] {
            db.insert("A", vec![id.into(), g.into()]).unwrap();
        }
        for (id, a, ok) in [(10, 1, "y"), (11, 1, "n"), (12, 2, "y"), (13, 2, "y")] {
            db.insert("B", vec![id.into(), a.into(), ok.into()])
                .unwrap();
        }
        db
    }

    fn question(db: &Database) -> UserQuestion {
        let ok = db.schema().attr("B", "ok").unwrap();
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
    fn reduction_drops_dangling_rows_only() {
        let db = linked_db();
        let total = db.total_tuples();
        let prepared = PreparedDb::build(Arc::new(db));
        assert_eq!(prepared.surviving_tuples(), total - 1);
    }

    #[test]
    fn prepared_table_is_bit_identical_to_one_shot() {
        let db = linked_db();
        let (one_shot, _) = Explainer::new(&db, question(&db))
            .attr_names(&["A.g"])
            .unwrap()
            .table()
            .unwrap();
        let prepared = PreparedDb::build(Arc::new(db));
        let (shared, _) = prepared
            .explainer(question(prepared.db()))
            .attr_names(&["A.g"])
            .unwrap()
            .table()
            .unwrap();
        assert_eq!(one_shot, shared);
    }

    #[test]
    fn prepared_universal_is_shared_not_recomputed() {
        let db = linked_db();
        let prepared = PreparedDb::build(Arc::new(db));
        let sink = exq_obs::MetricsSink::recording();
        let exec = ExecConfig::sequential().with_metrics(sink.clone());
        let q = question(prepared.db());
        let explainer = prepared
            .explainer(q)
            .exec(exec)
            .attr_names(&["A.g"])
            .unwrap();
        explainer.table().unwrap();
        // The seeded universal short-circuits the join: no join counters
        // fire under the explainer's own sink.
        assert_eq!(sink.snapshot().counter("join.runs"), 0);
    }

    #[test]
    fn drill_through_prepared_matches_one_shot() {
        let db = linked_db();
        let g = db.schema().attr("A", "g").unwrap();
        let phi = crate::explanation::Explanation::new(vec![exq_relstore::Atom::eq(g, "x")]);
        let one_shot = Explainer::new(&db, question(&db))
            .attr_names(&["A.g"])
            .unwrap()
            .explain(&phi)
            .unwrap();
        let prepared = PreparedDb::build(Arc::new(db));
        let shared = prepared
            .explainer(question(prepared.db()))
            .attr_names(&["A.g"])
            .unwrap()
            .explain(&phi)
            .unwrap();
        assert_eq!(one_shot.mu_interv, shared.mu_interv);
        assert_eq!(one_shot.mu_aggr, shared.mu_aggr);
        assert_eq!(one_shot.mu_hybrid, shared.mu_hybrid);
        assert_eq!(
            one_shot.intervention.total_deleted(),
            shared.intervention.total_deleted()
        );
    }

    #[test]
    fn parallel_build_is_bit_identical() {
        let db = Arc::new(linked_db());
        let base = PreparedDb::build(Arc::clone(&db));
        let (base_table, _) = base
            .explainer(question(base.db()))
            .attr_names(&["A.g"])
            .unwrap()
            .table()
            .unwrap();
        for threads in [2, 7] {
            let p = PreparedDb::build_with(Arc::clone(&db), &ExecConfig::with_threads(threads));
            assert_eq!(p.surviving_tuples(), base.surviving_tuples());
            let (t, _) = p
                .explainer(question(p.db()))
                .attr_names(&["A.g"])
                .unwrap()
                .table()
                .unwrap();
            assert_eq!(base_table, t, "threads = {threads}");
        }
    }

    fn linked_batch() -> AppendBatch {
        vec![
            ("A".into(), vec![vec![4.into(), "x".into()]]),
            (
                "B".into(),
                vec![
                    vec![14.into(), 4.into(), "n".into()],
                    vec![15.into(), 3.into(), "y".into()],
                ],
            ),
        ]
    }

    #[test]
    fn append_matches_rebuild_from_scratch() {
        let prepared = PreparedDb::build(Arc::new(linked_db()));
        let (appended, n) = prepared.append(linked_batch()).unwrap();
        assert_eq!(n, 3);

        let rebuilt = PreparedDb::build(Arc::new((*appended.db).clone()));
        assert_eq!(appended.reduced(), rebuilt.reduced());
        assert_eq!(appended.universal().len(), rebuilt.universal().len());
        assert!(appended.universal().iter().eq(rebuilt.universal().iter()));

        let (inc_table, _) = appended
            .explainer(question(appended.db()))
            .attr_names(&["A.g"])
            .unwrap()
            .table()
            .unwrap();
        let (rebuilt_table, _) = rebuilt
            .explainer(question(rebuilt.db()))
            .attr_names(&["A.g"])
            .unwrap()
            .table()
            .unwrap();
        assert_eq!(inc_table, rebuilt_table);
    }

    #[test]
    fn append_makes_previously_dangling_rows_live() {
        // Row A(3) dangles until the batch gives it a B row; the reduced
        // view must pick up both it and the new rows.
        let prepared = PreparedDb::build(Arc::new(linked_db()));
        let a = prepared.db().schema().relation_index("A").unwrap();
        assert!(!prepared.reduced().live(a).contains(2));
        let (appended, _) = prepared.append(linked_batch()).unwrap();
        assert!(appended.reduced().live(a).contains(2));
        assert!(appended.reduced().live(a).contains(3));
    }

    #[test]
    fn append_leaves_old_epoch_readable() {
        let prepared = PreparedDb::build(Arc::new(linked_db()));
        let (before, _) = prepared
            .explainer(question(prepared.db()))
            .attr_names(&["A.g"])
            .unwrap()
            .table()
            .unwrap();
        let (appended, _) = prepared.append(linked_batch()).unwrap();
        // The old epoch still answers identically, from its own rows.
        let (after_old, _) = prepared
            .explainer(question(prepared.db()))
            .attr_names(&["A.g"])
            .unwrap()
            .table()
            .unwrap();
        assert_eq!(before, after_old);
        assert_eq!(
            prepared.db().total_tuples() + 3,
            appended.db().total_tuples()
        );
    }

    #[test]
    fn append_failure_changes_nothing() {
        let prepared = PreparedDb::build(Arc::new(linked_db()));
        // Dangling FK: B row referencing a missing A key.
        let err = prepared.append(vec![(
            "B".into(),
            vec![vec![99.into(), 42.into(), "y".into()]],
        )]);
        assert!(err.is_err());
        assert_eq!(prepared.db().total_tuples(), 7);
    }

    #[test]
    fn parallel_append_is_bit_identical() {
        let prepared = PreparedDb::build(Arc::new(linked_db()));
        let (base, _) = prepared.append(linked_batch()).unwrap();
        let (base_table, _) = base
            .explainer(question(base.db()))
            .attr_names(&["A.g"])
            .unwrap()
            .table()
            .unwrap();
        for threads in [2, 7] {
            let exec = ExecConfig::with_threads(threads);
            let (p, _) = prepared.append_with(linked_batch(), &exec).unwrap();
            assert_eq!(p.reduced(), base.reduced(), "threads = {threads}");
            assert!(p.universal().iter().eq(base.universal().iter()));
            let (t, _) = p
                .explainer(question(p.db()))
                .attr_names(&["A.g"])
                .unwrap()
                .table()
                .unwrap();
            assert_eq!(base_table, t, "threads = {threads}");
        }
    }

    #[test]
    fn non_additive_question_also_reuses_universal() {
        let db = linked_db();
        let id = db.schema().attr("B", "id").unwrap();
        let q = UserQuestion::new(
            NumericalQuery::single(AggregateQuery {
                func: AggFunc::Sum(id),
                selection: Predicate::True,
            }),
            Direction::Low,
        );
        let (one_shot, choice) = Explainer::new(&db, q.clone())
            .attr_names(&["A.g"])
            .unwrap()
            .table()
            .unwrap();
        assert_eq!(choice, crate::explainer::EngineChoice::Naive);
        let prepared = PreparedDb::build(Arc::new(db));
        let (shared, _) = prepared
            .explainer(q)
            .attr_names(&["A.g"])
            .unwrap()
            .table()
            .unwrap();
        assert_eq!(one_shot, shared);
    }
}
