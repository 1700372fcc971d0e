//! A database instance: a schema plus one [`Relation`] per declared
//! relation, and *views* (live-row subsets) over it.

use crate::column::ColumnStore;
use crate::error::{Error, Result};
use crate::lookup::LookupSet;
use crate::schema::{AttrRef, DatabaseSchema};
use crate::table::Relation;
use crate::tupleset::TupleSet;
use crate::value::Value;
use std::sync::{Arc, OnceLock};

/// A batch of rows to append, pairing relation names with their new
/// rows; a relation may appear more than once. The unit of atomicity
/// for [`Database::append_batch`] and everything layered on top of it
/// (prepared-database maintenance, the server's ingestion endpoint).
pub type AppendBatch = Vec<(String, Vec<Vec<Value>>)>;

/// A database instance.
///
/// The schema is reference-counted so that derived structures (views,
/// universal relations, interventions) can hold it cheaply.
#[derive(Debug, Clone)]
pub struct Database {
    schema: Arc<DatabaseSchema>,
    /// Row storage is structurally shared between clones: cloning the
    /// instance bumps one reference count per relation, and a mutation
    /// deep-copies only the relations it actually touches
    /// ([`Arc::make_mut`]). This is what makes epoch snapshots cheap for
    /// the live-append path — the old epoch keeps the old rows, the new
    /// epoch pays for the grown relations only.
    relations: Vec<Arc<Relation>>,
    /// Lazily built columnar projections (see [`ColumnStore`]); shared by
    /// clones until either side mutates, and rebuilt on demand after any
    /// insert. Cloning the cell clones only the `Arc`.
    columns: OnceLock<Arc<ColumnStore>>,
}

impl Database {
    /// An empty instance of `schema`.
    pub fn new(schema: DatabaseSchema) -> Database {
        let relations = (0..schema.relation_count())
            .map(|_| Arc::new(Relation::new()))
            .collect();
        Database {
            schema: Arc::new(schema),
            relations,
            columns: OnceLock::new(),
        }
    }

    /// The schema.
    pub fn schema(&self) -> &DatabaseSchema {
        &self.schema
    }

    /// Shared handle to the schema.
    pub fn schema_arc(&self) -> Arc<DatabaseSchema> {
        Arc::clone(&self.schema)
    }

    /// The stored relation at index `rel`.
    pub fn relation(&self, rel: usize) -> &Relation {
        self.relations[rel].as_ref()
    }

    /// Number of rows in relation `rel`.
    pub fn relation_len(&self, rel: usize) -> usize {
        self.relations[rel].len()
    }

    /// Total number of tuples, the `n` of Proposition 3.4.
    pub fn total_tuples(&self) -> usize {
        self.relations.iter().map(|r| r.len()).sum()
    }

    /// Insert a row into the relation named `relation`. Checks arity and
    /// types; key/foreign-key constraints are checked by [`Database::validate`]
    /// after bulk loading (the cheap way to load data in dependency order).
    pub fn insert(&mut self, relation: &str, row: Vec<Value>) -> Result<usize> {
        let rel = self.schema.relation_index(relation)?;
        self.insert_at(rel, row)
    }

    /// Insert a row into relation index `rel`.
    pub fn insert_at(&mut self, rel: usize, row: Vec<Value>) -> Result<usize> {
        // Row storage is about to change, so any built columns are stale.
        self.columns.take();
        Arc::make_mut(&mut self.relations[rel]).push_checked(self.schema.relation(rel), row)
    }

    /// Append a batch of rows atomically: either every row lands and
    /// constraints still hold, or the instance is byte-identical to its
    /// pre-call state. `batch` pairs relation names with their new rows;
    /// a relation may appear more than once.
    ///
    /// Validation is incremental — appends can only introduce violations
    /// *at* the new rows, so primary keys are re-checked per grown
    /// relation and foreign keys only for the new rows of grown source
    /// relations (against the post-append targets, so a batch may insert
    /// a referencing row and its referent together). Already-built
    /// columns are extended in place via
    /// [`ColumnStore::extend_for_append`] instead of being dropped, so
    /// existing dictionary codes and column prefixes never change.
    ///
    /// Returns the number of rows appended.
    pub fn append_batch(&mut self, batch: AppendBatch) -> Result<usize> {
        // Resolve names up front so an unknown relation mutates nothing.
        let mut resolved: Vec<(usize, Vec<Vec<Value>>)> = Vec::with_capacity(batch.len());
        for (name, rows) in batch {
            resolved.push((self.schema.relation_index(&name)?, rows));
        }
        let old_lens: Vec<usize> = self.relations.iter().map(|r| r.len()).collect();
        let old_columns = self.columns.take();
        match self.apply_append(resolved, &old_lens, old_columns.as_deref()) {
            Ok(appended) => {
                if let Some(old) = old_columns {
                    let extended = ColumnStore::extend_for_append(&old, self, &old_lens);
                    let _ = self.columns.set(Arc::new(extended));
                }
                Ok(appended)
            }
            Err(e) => {
                for (rel, &len) in self.relations.iter_mut().zip(&old_lens) {
                    // Untouched relations may still be shared with other
                    // epochs — only unshare the ones that actually grew.
                    if rel.len() != len {
                        Arc::make_mut(rel).truncate(len);
                    }
                }
                // The pre-batch columns still describe the rolled-back rows.
                if let Some(old) = old_columns {
                    let _ = self.columns.set(old);
                }
                Err(e)
            }
        }
    }

    /// The fallible middle of [`Database::append_batch`]: push rows, then
    /// re-check the constraints an append can break. The caller rolls back
    /// on error.
    fn apply_append(
        &mut self,
        batch: Vec<(usize, Vec<Vec<Value>>)>,
        old_lens: &[usize],
        old_cols: Option<&ColumnStore>,
    ) -> Result<usize> {
        let mut appended = 0usize;
        for (rel, rows) in batch {
            let schema = self.schema.relation(rel);
            let relation = &mut self.relations[rel];
            // A relation shared with an earlier epoch is copied once, at
            // exactly its new length, instead of cloned and then doubled.
            match Arc::get_mut(relation) {
                Some(relation) => relation.reserve_exact(rows.len()),
                None => *relation = Arc::new(relation.clone_reserving(rows.len())),
            }
            let relation = Arc::get_mut(relation).expect("unshared just above");
            for row in rows {
                relation.push_checked(schema, row)?;
                appended += 1;
            }
        }
        self.check_constraints(old_lens, old_cols)?;
        Ok(appended)
    }

    /// Check the constraints that appending rows past `old_lens` can
    /// break, given that the prefix below `old_lens` satisfied them and
    /// `old_cols` (if any) holds columns built over that prefix. With
    /// all-zero lengths and no columns this checks the whole instance.
    fn check_constraints(&self, old_lens: &[usize], old_cols: Option<&ColumnStore>) -> Result<()> {
        // Primary keys: a new row can collide with another new row or
        // with an old one. Only the *new* keys are hashed (the delta is
        // small); the old prefix is swept once probing that set. When
        // every key column is dictionary-coded in the pre-append column
        // store, the probe compares u32 code tuples — and a new key
        // holding a value no old row of the relation stores in that
        // column cannot collide, so it drops out of the sweep entirely.
        // Otherwise the sweep falls back to borrowed value refs; either
        // way the O(old) side allocates nothing per row.
        for (rel_idx, &old_len) in old_lens.iter().enumerate() {
            let rel = self.relations[rel_idx].as_ref();
            if rel.len() == old_len {
                continue;
            }
            let schema = self.schema.relation(rel_idx);
            let pk = &schema.primary_key;
            let mut new_keys: LookupSet<Vec<&Value>> =
                LookupSet::with_capacity(rel.len() - old_len);
            for i in old_len..rel.len() {
                let row = rel.row(i);
                if !new_keys.insert(pk.iter().map(|&c| &row[c]).collect()) {
                    return Err(Error::DuplicateKey {
                        relation: schema.name.clone(),
                        key: format_key(&rel.project(i, pk)),
                    });
                }
            }
            let dict_cols = old_cols.map(|store| store.dict_columns(rel_idx, pk));
            match dict_cols {
                Some(cols) if cols.iter().all(|&(codes, _)| codes.len() == old_len) => {
                    let mut keys: Vec<Vec<u32>> = (old_len..rel.len())
                        .filter_map(|i| {
                            let row = rel.row(i);
                            let key = pk.iter().zip(&cols);
                            key.map(|(&c, &(_, dict))| dict.code(&row[c])).collect()
                        })
                        .collect();
                    // A dictionary is its key class's, so a value with a
                    // code may be held by another relation only: keep the
                    // keys whose every value an old row holds in its column.
                    for (j, &(codes, dict)) in cols.iter().enumerate() {
                        let mut held = TupleSet::empty(dict.len());
                        for &code in codes {
                            held.insert(code as usize);
                        }
                        keys.retain(|key| held.contains(key[j] as usize));
                    }
                    let coded: LookupSet<Vec<u32>> = keys.into_iter().collect();
                    if !coded.is_empty() {
                        let mut probe: Vec<u32> = Vec::with_capacity(pk.len());
                        for i in 0..old_len {
                            probe.clear();
                            probe.extend(cols.iter().map(|&(codes, _)| codes[i]));
                            if coded.contains(&probe) {
                                return Err(Error::DuplicateKey {
                                    relation: schema.name.clone(),
                                    key: format_key(&rel.project(i, pk)),
                                });
                            }
                        }
                    }
                }
                _ => {
                    let mut probe: Vec<&Value> = Vec::with_capacity(pk.len());
                    for i in 0..old_len {
                        let row = rel.row(i);
                        probe.clear();
                        probe.extend(pk.iter().map(|&c| &row[c]));
                        if new_keys.contains(&probe) {
                            return Err(Error::DuplicateKey {
                                relation: schema.name.clone(),
                                key: format_key(&rel.project(i, pk)),
                            });
                        }
                    }
                }
            }
        }
        // Foreign keys: only the new rows of grown source relations can
        // dangle (appending targets never invalidates existing edges).
        // Single-column edges into the one top of their key class check
        // each new row with one dictionary lookup (the prefix's foreign
        // keys hold, so a value has a code iff some old target row stores
        // it), plus a small set of the target's own new keys for
        // intra-batch referents. Other edges collect the distinct keys
        // the new rows need and sweep the post-append target crossing
        // them off, stopping as soon as every needed key has resolved.
        for fk in self.schema.foreign_keys() {
            let from = self.relations[fk.from_rel].as_ref();
            let old_len = old_lens[fk.from_rel];
            if from.len() == old_len {
                continue;
            }
            let to = self.relations[fk.to_rel].as_ref();
            let to_old_len = old_lens[fk.to_rel];
            let target = AttrRef {
                rel: fk.to_rel,
                col: fk.to_cols[0],
            };
            let target_dict = old_cols
                .filter(|store| fk.from_cols.len() == 1 && store.is_sole_top(target))
                .map(|store| store.dict_column(target))
                .filter(|&(codes, _)| codes.len() == to_old_len);
            if let Some((_, dict)) = target_dict {
                let new_targets: LookupSet<&Value> = (to_old_len..to.len())
                    .map(|i| &to.row(i)[fk.to_cols[0]])
                    .collect();
                let c = fk.from_cols[0];
                for i in old_len..from.len() {
                    let v = &from.row(i)[c];
                    if dict.code(v).is_none() && !new_targets.contains(v) {
                        return Err(Error::DanglingForeignKey {
                            from: self.schema.relation(fk.from_rel).name.clone(),
                            to: self.schema.relation(fk.to_rel).name.clone(),
                            key: format_key(&from.project(i, &fk.from_cols)),
                        });
                    }
                }
                continue;
            }
            let mut missing: LookupSet<Vec<&Value>> = LookupSet::new();
            for i in old_len..from.len() {
                let row = from.row(i);
                missing.insert(fk.from_cols.iter().map(|&c| &row[c]).collect());
            }
            let mut probe: Vec<&Value> = Vec::with_capacity(fk.to_cols.len());
            for i in 0..to.len() {
                if missing.is_empty() {
                    break;
                }
                let row = to.row(i);
                probe.clear();
                probe.extend(fk.to_cols.iter().map(|&c| &row[c]));
                missing.remove(&probe);
            }
            if !missing.is_empty() {
                // Report the first dangling row in insertion order, not
                // hash order, so the error is deterministic.
                for i in old_len..from.len() {
                    let row = from.row(i);
                    probe.clear();
                    probe.extend(fk.from_cols.iter().map(|&c| &row[c]));
                    if missing.contains(&probe) {
                        return Err(Error::DanglingForeignKey {
                            from: self.schema.relation(fk.from_rel).name.clone(),
                            to: self.schema.relation(fk.to_rel).name.clone(),
                            key: format_key(&from.project(i, &fk.from_cols)),
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// The columnar projections of this instance, built on first use by one
    /// deterministic sequential scan (so dictionary codes depend only on
    /// the stored rows — see [`ColumnStore`]). Orchestrators that want the
    /// build cost attributed to preparation rather than the first query
    /// should call this eagerly (`PreparedDb` does).
    pub fn columns(&self) -> &Arc<ColumnStore> {
        self.columns
            .get_or_init(|| Arc::new(ColumnStore::build(self)))
    }

    /// The value of attribute `attr` in row `row` of its relation.
    #[inline]
    pub fn value(&self, attr: AttrRef, row: usize) -> &Value {
        &self.relations[attr.rel].row(row)[attr.col]
    }

    /// Check primary-key uniqueness and foreign-key referential integrity
    /// over the whole instance: the append check, run from an empty prefix.
    pub fn validate(&self) -> Result<()> {
        self.check_constraints(&vec![0; self.relations.len()], None)
    }

    /// The view containing every row.
    pub fn full_view(&self) -> View {
        View {
            live: self
                .relations
                .iter()
                .map(|r| TupleSet::full(r.len()))
                .collect(),
        }
    }

    /// The view with the rows of `delta` removed (`D − Δ`).
    pub fn view_minus(&self, delta: &[TupleSet]) -> View {
        let mut v = self.full_view();
        assert_eq!(v.live.len(), delta.len(), "delta arity mismatch");
        for (live, d) in v.live.iter_mut().zip(delta) {
            live.difference_with(d);
        }
        v
    }

    /// One empty [`TupleSet`] per relation, sized to the instance — the
    /// `Δ⁰ = (∅,…,∅)` the fixpoint iteration starts from.
    pub fn empty_delta(&self) -> Vec<TupleSet> {
        self.relations
            .iter()
            .map(|r| TupleSet::empty(r.len()))
            .collect()
    }

    /// Materialize a view as a standalone database: same schema, only the
    /// live rows (re-indexed densely). Used to persist a residual database
    /// `D − Δ^φ` or a reduced instance as a first-class input.
    pub fn materialize(&self, view: &View) -> Database {
        let mut out = Database::new((*self.schema).clone());
        for (rel, live) in view.live.iter().enumerate() {
            let target = Arc::make_mut(&mut out.relations[rel]);
            for row in live.iter() {
                target
                    .push_checked(
                        self.schema.relation(rel),
                        self.relations[rel].row(row).to_vec(),
                    )
                    .expect("rows re-inserted under the same schema");
            }
        }
        out
    }
}

fn format_key(key: &[Value]) -> String {
    let parts: Vec<String> = key.iter().map(Value::to_string).collect();
    format!("({})", parts.join(","))
}

/// A subset of the rows of a database — the residual instance `D − Δ`, a
/// selection result, or a semijoin-reduced instance. One live-set per
/// relation, indexed like the schema's relations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct View {
    /// Live rows per relation.
    pub live: Vec<TupleSet>,
}

impl View {
    /// Live rows of relation `rel`.
    pub fn live(&self, rel: usize) -> &TupleSet {
        &self.live[rel]
    }

    /// Total number of live rows.
    pub fn total_live(&self) -> usize {
        self.live.iter().map(TupleSet::count).sum()
    }

    /// Whether any relation has no live rows.
    pub fn any_relation_empty(&self) -> bool {
        self.live.iter().any(TupleSet::is_empty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::SchemaBuilder;
    use crate::value::ValueType as T;

    fn two_table_db() -> Database {
        let schema = SchemaBuilder::new()
            .relation("A", &[("id", T::Int), ("x", T::Str)], &["id"])
            .relation("B", &[("id", T::Int), ("a", T::Int)], &["id"])
            .standard_fk("B", &["a"], "A")
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        db.insert("A", vec![1.into(), "one".into()]).unwrap();
        db.insert("A", vec![2.into(), "two".into()]).unwrap();
        db.insert("B", vec![10.into(), 1.into()]).unwrap();
        db
    }

    #[test]
    fn insert_and_validate_ok() {
        let db = two_table_db();
        assert_eq!(db.total_tuples(), 3);
        db.validate().unwrap();
    }

    #[test]
    fn validate_catches_duplicate_pk() {
        let mut db = two_table_db();
        db.insert("A", vec![1.into(), "again".into()]).unwrap();
        assert!(matches!(db.validate(), Err(Error::DuplicateKey { .. })));
    }

    #[test]
    fn validate_catches_dangling_fk() {
        let mut db = two_table_db();
        db.insert("B", vec![11.into(), 99.into()]).unwrap();
        assert!(matches!(
            db.validate(),
            Err(Error::DanglingForeignKey { .. })
        ));
    }

    #[test]
    fn validate_catches_dangling_composite_fk() {
        let schema = SchemaBuilder::new()
            .relation("P", &[("a", T::Int), ("b", T::Str)], &["a", "b"])
            .relation(
                "C",
                &[("id", T::Int), ("a", T::Int), ("b", T::Str)],
                &["id"],
            )
            .standard_fk("C", &["a", "b"], "P")
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        db.insert("P", vec![1.into(), "x".into()]).unwrap();
        db.insert("P", vec![2.into(), "y".into()]).unwrap();
        db.insert("C", vec![10.into(), 1.into(), "x".into()])
            .unwrap();
        db.validate().unwrap();
        // Each half of (1,y) and (2,x) is some P row's, but neither pair
        // is; the first dangling row in insertion order is reported.
        db.insert("C", vec![11.into(), 1.into(), "y".into()])
            .unwrap();
        db.insert("C", vec![12.into(), 2.into(), "x".into()])
            .unwrap();
        assert_eq!(
            db.validate(),
            Err(Error::DanglingForeignKey {
                from: "C".into(),
                to: "P".into(),
                key: "(1,y)".into(),
            })
        );
    }

    #[test]
    fn value_accessor() {
        let db = two_table_db();
        let x = db.schema().attr("A", "x").unwrap();
        assert_eq!(db.value(x, 1), &Value::str("two"));
    }

    #[test]
    fn views_and_deltas() {
        let db = two_table_db();
        let full = db.full_view();
        assert_eq!(full.total_live(), 3);
        assert!(!full.any_relation_empty());

        let mut delta = db.empty_delta();
        delta[0].insert(0);
        let residual = db.view_minus(&delta);
        assert_eq!(residual.total_live(), 2);
        assert!(!residual.live(0).contains(0));
        assert!(residual.live(0).contains(1));
        assert!(residual.live(1).contains(0));
    }

    #[test]
    fn materialize_keeps_only_live_rows() {
        let db = two_table_db();
        let mut delta = db.empty_delta();
        delta[0].insert(1); // drop A(2)
        let small = db.materialize(&db.view_minus(&delta));
        assert_eq!(small.relation_len(0), 1);
        assert_eq!(small.relation_len(1), 1);
        assert_eq!(small.relation(0).row(0)[0], Value::Int(1));
        small.validate().unwrap();
        // Materializing the full view clones the instance.
        let full = db.materialize(&db.full_view());
        assert_eq!(full.total_tuples(), db.total_tuples());
    }

    #[test]
    fn append_batch_success_and_column_extension() {
        let mut db = two_table_db();
        // Force the columnar build so the append has something to extend.
        let old_store = Arc::clone(db.columns());
        let n = db
            .append_batch(vec![
                ("A".into(), vec![vec![3.into(), "three".into()]]),
                (
                    "B".into(),
                    vec![vec![11.into(), 3.into()], vec![12.into(), 1.into()]],
                ),
            ])
            .unwrap();
        assert_eq!(n, 3);
        assert_eq!(db.relation_len(0), 3);
        assert_eq!(db.relation_len(1), 3);
        db.validate().unwrap();
        // Columns were extended, not dropped: the new store exists already
        // and old code prefixes survive.
        let x = db.schema().attr("A", "x").unwrap();
        let (codes, dict) = db.columns().dict_column(x);
        assert_eq!(codes.len(), 3);
        let (old_codes, _) = old_store.dict_column(x);
        assert_eq!(&codes[..2], old_codes);
        assert_eq!(dict.code(&Value::str("three")), Some(2));
    }

    #[test]
    fn append_batch_intra_batch_fk_reference_works() {
        let mut db = two_table_db();
        // B row referencing an A row inserted by the same batch, with the
        // referent listed *after* the referencing rows.
        db.append_batch(vec![
            ("B".into(), vec![vec![20.into(), 9.into()]]),
            ("A".into(), vec![vec![9.into(), "nine".into()]]),
        ])
        .unwrap();
        db.validate().unwrap();
    }

    #[test]
    fn append_batch_rolls_back_atomically() {
        let mut db = two_table_db();
        let old_store = Arc::clone(db.columns());
        let snapshot: Vec<Vec<Vec<Value>>> = (0..2)
            .map(|r| db.relation(r).rows().map(|row| row.to_vec()).collect())
            .collect();

        // Duplicate PK (against an old row), after a valid A row.
        let err = db
            .append_batch(vec![
                ("A".into(), vec![vec![5.into(), "five".into()]]),
                ("B".into(), vec![vec![10.into(), 1.into()]]),
            ])
            .unwrap_err();
        assert!(matches!(err, Error::DuplicateKey { .. }));

        // Dangling FK.
        let err = db
            .append_batch(vec![("B".into(), vec![vec![21.into(), 99.into()]])])
            .unwrap_err();
        assert!(matches!(err, Error::DanglingForeignKey { .. }));

        // Duplicate PK inside the batch itself.
        let err = db
            .append_batch(vec![(
                "A".into(),
                vec![vec![7.into(), "a".into()], vec![7.into(), "b".into()]],
            )])
            .unwrap_err();
        assert!(matches!(err, Error::DuplicateKey { .. }));

        // Arity and type failures mid-batch.
        assert!(db
            .append_batch(vec![("A".into(), vec![vec![8.into()]])])
            .is_err());
        assert!(db
            .append_batch(vec![("A".into(), vec![vec!["s".into(), "x".into()]])])
            .is_err());
        // Unknown relation fails before mutating.
        assert!(matches!(
            db.append_batch(vec![("Zzz".into(), vec![vec![1.into()]])]),
            Err(Error::UnknownRelation(_))
        ));

        // Nothing changed: same rows, and the original column store was
        // put back untouched.
        for (r, expected) in snapshot.iter().enumerate() {
            let now: Vec<Vec<Value>> = db.relation(r).rows().map(|row| row.to_vec()).collect();
            assert_eq!(&now, expected, "relation {r} rows");
        }
        assert!(Arc::ptr_eq(db.columns(), &old_store));
        db.validate().unwrap();
    }

    /// A chain `A(k) <- B(k) <- C(fk)`: `B.k` is `B`'s key and a foreign
    /// key into `A`, so `A.k`, `B.k` and `C.fk` share one dictionary, and
    /// a value coded from `A` says nothing about `B`. An appended `C` row
    /// must still find its referent among `B`'s rows.
    #[test]
    fn append_batch_checks_a_chain_edge_against_the_referenced_rows() {
        let schema = SchemaBuilder::new()
            .relation("A", &[("k", T::Int)], &["k"])
            .relation("B", &[("k", T::Int)], &["k"])
            .relation("C", &[("id", T::Int), ("fk", T::Int)], &["id"])
            .standard_fk("B", &["k"], "A")
            .standard_fk("C", &["fk"], "B")
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        db.insert("A", vec![1.into()]).unwrap();
        db.insert("A", vec![2.into()]).unwrap();
        db.insert("B", vec![1.into()]).unwrap();
        db.insert("C", vec![10.into(), 1.into()]).unwrap();
        db.validate().unwrap();
        let _ = db.columns();

        // 2 is in A but not in B.
        let err = db
            .append_batch(vec![("C".into(), vec![vec![11.into(), 2.into()]])])
            .unwrap_err();
        assert_eq!(
            err,
            Error::DanglingForeignKey {
                from: "C".into(),
                to: "B".into(),
                key: "(2)".into(),
            }
        );
        // The same row, with its B referent in the same batch.
        db.append_batch(vec![
            ("C".into(), vec![vec![11.into(), 2.into()]]),
            ("B".into(), vec![vec![2.into()]]),
        ])
        .unwrap();
        assert_eq!(db.relation_len(2), 2);
        db.validate().unwrap();
    }

    #[test]
    fn append_batch_checks_composite_keys_against_coded_old_rows() {
        let schema = SchemaBuilder::new()
            .relation("P", &[("a", T::Int), ("b", T::Str)], &["a", "b"])
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        for (a, b) in [(1, "x"), (2, "y"), (3, "x")] {
            db.insert("P", vec![a.into(), b.into()]).unwrap();
        }
        db.validate().unwrap();
        let old_store = Arc::clone(db.columns());

        // (1, "y") and (2, "x") each match old keys on one column only.
        db.append_batch(vec![(
            "P".into(),
            vec![vec![1.into(), "y".into()], vec![2.into(), "x".into()]],
        )])
        .unwrap();
        assert_eq!(db.relation_len(0), 5);
        assert!(!Arc::ptr_eq(db.columns(), &old_store));

        // (3, "x") matches old row 2 on both; the error names that key.
        let err = db
            .append_batch(vec![(
                "P".into(),
                vec![vec![4.into(), "y".into()], vec![3.into(), "x".into()]],
            )])
            .unwrap_err();
        match err {
            Error::DuplicateKey { relation, key } => {
                assert_eq!(relation, "P");
                assert_eq!(key, format_key(&[3.into(), "x".into()]));
            }
            other => panic!("expected a duplicate key, got {other:?}"),
        }
        assert_eq!(db.relation_len(0), 5);
        db.validate().unwrap();
    }

    #[test]
    fn append_batch_copies_a_shared_relation_at_exactly_its_new_length() {
        let mut db = two_table_db();
        let earlier_epoch = db.clone();
        db.append_batch(vec![(
            "A".into(),
            vec![
                vec![3.into(), "three".into()],
                vec![4.into(), "four".into()],
                vec![5.into(), "five".into()],
            ],
        )])
        .unwrap();
        assert_eq!(db.relation_len(0), 5);
        assert_eq!(db.relations[0].capacity(), 5, "grown relation");
        assert!(Arc::ptr_eq(&db.relations[1], &earlier_epoch.relations[1]));
        assert_eq!(earlier_epoch.relation_len(0), 2);
    }

    #[test]
    fn append_batch_without_built_columns_stays_lazy() {
        let mut db = two_table_db();
        db.append_batch(vec![("A".into(), vec![vec![3.into(), "three".into()]])])
            .unwrap();
        // Columns build fine on demand afterwards.
        let x = db.schema().attr("A", "x").unwrap();
        let (codes, _) = db.columns().dict_column(x);
        assert_eq!(codes.len(), 3);
    }

    #[test]
    fn unknown_relation_insert_fails() {
        let mut db = two_table_db();
        assert!(matches!(
            db.insert("Zzz", vec![]),
            Err(Error::UnknownRelation(_))
        ));
    }
}
