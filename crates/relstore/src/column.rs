//! Columnar projections of stored relations.
//!
//! A [`ColumnStore`] is a read-only, per-attribute re-encoding of a
//! [`Database`]'s row storage, built by one sequential
//! scan (relations in schema order, rows in insertion order) so that every
//! derived artifact — dictionary codes in particular — is a pure function
//! of the stored rows, independent of thread count. The row storage stays
//! authoritative; columns are a cache the hot path (join probes, semijoin
//! membership, cube grouping) reads instead of cloning and hashing
//! [`Value`](crate::value::Value)s per row.
//!
//! There is one encoding: every row of every column becomes a `u32` code
//! into a first-appearance [`Dict`]. Distinctness is measured under the
//! `Value` total order, so NULLs and mixed Int/Float spellings take part
//! like any other value, and the dictionary is *total* — a column can
//! never hold more distinct values than it has rows, and rows are
//! addressed by `u32`, so the codes always fit (see
//! [`NO_CODE`](crate::dict::NO_CODE)). Consumers therefore never need a
//! `Value`-path fallback.

use crate::database::Database;
use crate::dict::{Dict, DictBuilder};
use crate::schema::AttrRef;
use crate::table::Relation;
use std::sync::Arc;

/// One attribute's dictionary-coded column: `codes[row]` indexes into
/// `dict`.
#[derive(Debug, Clone)]
pub struct ColumnData {
    /// Per-row dictionary codes, in row order.
    pub codes: Vec<u32>,
    /// The column's value dictionary. Reference-counted so that appends
    /// which introduce no new distinct values can share it instead of
    /// re-sorting the rank table.
    pub dict: Arc<Dict>,
}

/// Columnar re-encodings of every attribute of every relation.
#[derive(Debug, Clone)]
pub struct ColumnStore {
    /// `columns[rel][col]`, mirroring the schema layout. Each relation's
    /// column list is reference-counted so [`ColumnStore::extend_for_append`]
    /// can share the columns of untouched relations with the old store
    /// instead of copying their arrays.
    columns: Vec<Arc<Vec<ColumnData>>>,
}

impl ColumnStore {
    /// Build columns for every attribute by one deterministic sequential
    /// scan. Cost is linear in the stored cells; orchestrators that care
    /// about where the time is spent should trigger this once up front
    /// (see `PreparedDb`), since `Database::columns` builds lazily.
    pub fn build(db: &Database) -> ColumnStore {
        let columns = db
            .schema()
            .relations()
            .iter()
            .enumerate()
            .map(|(rel, rs)| Arc::new(build_columns(db.relation(rel), rs.arity())))
            .collect();
        ColumnStore { columns }
    }

    /// Extend a store built over a shorter prefix of `db`'s rows to cover
    /// the rows appended since, producing **exactly** the store a
    /// from-scratch [`ColumnStore::build`] over the current rows would.
    /// `old_lens[rel]` is each relation's length when `old` was built;
    /// work is proportional to the appended rows (plus a rank re-sort per
    /// dictionary that gained values), not to the whole database.
    ///
    /// Parity holds because codes are first-appearance order over the
    /// stored rows: an old row's code never depends on later rows, and a
    /// value first seen in an appended row takes the next free code in
    /// both a full scan and an extension. So keeping the old codes and
    /// dictionary prefix verbatim and encoding only the new rows
    /// reproduces the full-scan result exactly; the rank table is the
    /// unique sort permutation of the same value list either way.
    pub fn extend_for_append(old: &ColumnStore, db: &Database, old_lens: &[usize]) -> ColumnStore {
        let columns = db
            .schema()
            .relations()
            .iter()
            .enumerate()
            .map(|(rel, rs)| {
                let relation = db.relation(rel);
                let old_len = old_lens[rel];
                debug_assert!(old_len <= relation.len(), "relations never shrink");
                if relation.len() == old_len {
                    // Untouched relation: share its columns wholesale.
                    return Arc::clone(&old.columns[rel]);
                }
                Arc::new(
                    (0..rs.arity())
                        .map(|col| extend_column(&old.columns[rel][col], relation, col, old_len))
                        .collect(),
                )
            })
            .collect();
        ColumnStore { columns }
    }

    /// The column for `attr`.
    #[inline]
    pub fn column(&self, attr: AttrRef) -> &ColumnData {
        &self.columns[attr.rel][attr.col]
    }

    /// The codes and dictionary for `attr`.
    #[inline]
    pub fn dict_column(&self, attr: AttrRef) -> (&[u32], &Dict) {
        let column = self.column(attr);
        (&column.codes, &column.dict)
    }

    /// The codes and dictionaries of columns `cols` of relation `rel`, in
    /// `cols` order — the shape join keys come in.
    pub fn dict_columns(&self, rel: usize, cols: &[usize]) -> Vec<(&[u32], &Dict)> {
        cols.iter()
            .map(|&col| self.dict_column(AttrRef { rel, col }))
            .collect()
    }
}

/// Dictionary-encode every column of one relation in a single pass over
/// its rows. Each row is its own allocation, so visiting it once for all
/// its columns costs one trip through memory where a scan per column
/// costs `arity`.
fn build_columns(relation: &Relation, arity: usize) -> Vec<ColumnData> {
    let mut builders: Vec<DictBuilder> = (0..arity).map(|_| DictBuilder::new()).collect();
    let mut codes: Vec<Vec<u32>> = (0..arity)
        .map(|_| Vec::with_capacity(relation.len()))
        .collect();
    for row in relation.rows() {
        for ((builder, codes), v) in builders.iter_mut().zip(&mut codes).zip(row) {
            codes.push(builder.encode(v));
        }
    }
    builders
        .into_iter()
        .zip(codes)
        .map(|(builder, codes)| ColumnData {
            codes,
            dict: Arc::new(builder.finish()),
        })
        .collect()
}

/// Extend one column over rows appended past `old_len`, per the parity
/// argument on [`ColumnStore::extend_for_append`].
fn extend_column(old: &ColumnData, relation: &Relation, col: usize, old_len: usize) -> ColumnData {
    if relation.len() == old_len {
        return old.clone();
    }
    let ColumnData { codes, dict } = old;
    let new_values = || (old_len..relation.len()).map(|i| &relation.row(i)[col]);
    let mut all_codes = Vec::with_capacity(relation.len());
    all_codes.extend_from_slice(codes);
    // Fast path: every appended value already has a code, so the
    // dictionary (values, ranks, null code) is unchanged and can be
    // shared — no rank re-sort, no map rebuild. This is the common case
    // for live appends, whose rows mostly reference values the column
    // has seen.
    let mut fresh_at = None;
    for (i, v) in new_values().enumerate() {
        match dict.code(v) {
            Some(code) => all_codes.push(code),
            None => {
                fresh_at = Some(i);
                break;
            }
        }
    }
    let Some(fresh_at) = fresh_at else {
        return ColumnData {
            codes: all_codes,
            dict: Arc::clone(dict),
        };
    };
    // Slow path: at least one fresh distinct value. Collect the fresh
    // values in first-appearance order, numbering them on from the old
    // dictionary's codes, then merge them into the old rank table in
    // O(d + k log d) instead of re-sorting all d values.
    all_codes.truncate(old_len + fresh_at);
    let mut fresh = DictBuilder::new();
    for v in new_values().skip(fresh_at) {
        all_codes.push(
            dict.code(v)
                .unwrap_or_else(|| dict.len() as u32 + fresh.encode(v)),
        );
    }
    ColumnData {
        codes: all_codes,
        dict: Arc::new(dict.extended(fresh.into_values())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::SchemaBuilder;
    use crate::value::{Value, ValueType as T};

    /// Structural equality for tests: `Dict` holds a `HashMap`, so compare
    /// the deterministic parts (codes, decoded values, ranks, null code).
    fn assert_column_eq(a: &ColumnData, b: &ColumnData, ctx: &str) {
        assert_eq!(a.codes, b.codes, "{ctx}: codes");
        assert_eq!(a.dict.len(), b.dict.len(), "{ctx}: dict len");
        for code in 0..a.dict.len() as u32 {
            assert_eq!(
                a.dict.value(code),
                b.dict.value(code),
                "{ctx}: value of {code}"
            );
            assert_eq!(
                a.dict.rank(code),
                b.dict.rank(code),
                "{ctx}: rank of {code}"
            );
        }
        assert_eq!(a.dict.null_code(), b.dict.null_code(), "{ctx}: null code");
    }

    fn assert_store_matches_rebuild(store: &ColumnStore, db: &Database) {
        let rebuilt = ColumnStore::build(db);
        for (rel, rs) in db.schema().relations().iter().enumerate() {
            for col in 0..rs.arity() {
                assert_column_eq(
                    &store.columns[rel][col],
                    &rebuilt.columns[rel][col],
                    &format!("{}[{col}]", rs.name),
                );
            }
        }
    }

    fn one_relation_db(attr_ty: T, values: Vec<Value>) -> Database {
        let schema = SchemaBuilder::new()
            .relation("R", &[("a", attr_ty)], &["a"])
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        for v in values {
            db.insert("R", vec![v]).expect("insert");
        }
        db
    }

    #[test]
    fn low_cardinality_column_dictionary_encodes() {
        let db = one_relation_db(
            T::Str,
            vec![
                Value::str("x"),
                Value::str("y"),
                Value::str("x"),
                Value::Null,
            ],
        );
        let store = ColumnStore::build(&db);
        let (codes, dict) = store.dict_column(AttrRef { rel: 0, col: 0 });
        assert_eq!(codes, &[0, 1, 0, 2]);
        assert_eq!(dict.len(), 3);
        assert_eq!(dict.null_code(), Some(2));
    }

    #[test]
    fn decode_is_identity_on_stored_rows() {
        let values = vec![
            Value::Int(5),
            Value::Null,
            Value::str("s"),
            Value::Float(-0.0),
            Value::dummy(),
            Value::Float(f64::NAN),
        ];
        let db = one_relation_db(T::Any, values.clone());
        let store = ColumnStore::build(&db);
        let (codes, dict) = store.dict_column(AttrRef { rel: 0, col: 0 });
        for (row, expected) in values.iter().enumerate() {
            assert_eq!(dict.value(codes[row]), expected, "row {row}");
        }
    }

    #[test]
    fn extend_for_append_matches_rebuild_on_dict_columns() {
        let schema = SchemaBuilder::new()
            .relation("A", &[("x", T::Int), ("y", T::Any)], &["x"])
            .relation("B", &[("z", T::Str)], &["z"])
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        db.insert("A", vec![Value::Int(1), Value::str("v")])
            .unwrap();
        db.insert("A", vec![Value::Int(2), Value::Null]).unwrap();
        db.insert("B", vec![Value::str("q")]).unwrap();
        let old = ColumnStore::build(&db);
        let old_lens = vec![2, 1];

        // New rows mix repeats, fresh values, a fresh NULL-free column
        // gaining nothing, Int/Float unification, and an untouched B.
        db.insert("A", vec![Value::Int(3), Value::str("v")])
            .unwrap();
        db.insert("A", vec![Value::Int(4), Value::Float(2.0)])
            .unwrap();
        db.insert("A", vec![Value::Int(2), Value::dummy()]).unwrap();

        let extended = ColumnStore::extend_for_append(&old, &db, &old_lens);
        assert_store_matches_rebuild(&extended, &db);
        // Old code prefix survives verbatim.
        let attr = AttrRef { rel: 0, col: 1 };
        let (oc, ec) = (&old.column(attr).codes, &extended.column(attr).codes);
        assert_eq!(&ec[..oc.len()], &oc[..]);
    }

    #[test]
    fn extend_with_no_new_rows_clones_store() {
        let db = one_relation_db(T::Str, vec![Value::str("a"), Value::str("b")]);
        let old = ColumnStore::build(&db);
        let extended = ColumnStore::extend_for_append(&old, &db, &[2]);
        assert_store_matches_rebuild(&extended, &db);
    }

    #[test]
    fn column_store_mirrors_schema_layout() {
        let schema = SchemaBuilder::new()
            .relation("A", &[("x", T::Int), ("y", T::Str)], &["x"])
            .relation("B", &[("z", T::Int)], &["z"])
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        db.insert("A", vec![Value::Int(1), Value::str("v")])
            .unwrap();
        db.insert("B", vec![Value::Int(9)]).unwrap();
        let store = ColumnStore::build(&db);
        assert_eq!(store.column(AttrRef { rel: 0, col: 1 }).codes, vec![0]);
        assert_eq!(store.column(AttrRef { rel: 1, col: 0 }).codes, vec![0]);
    }
}
