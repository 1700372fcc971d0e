//! Columnar projections of stored relations.
//!
//! A [`ColumnStore`] is a read-only, per-attribute re-encoding of a
//! [`Database`]'s row storage, built by one sequential
//! scan (relations in foreign-key order, rows in insertion order) so that
//! every derived artifact — dictionary codes in particular — is a pure
//! function of the stored rows, independent of thread count. The row
//! storage stays authoritative; columns are a cache the hot path (join
//! probes, semijoin membership, cube grouping) reads instead of cloning
//! and hashing [`Value`]s per row.
//!
//! There is one encoding: every row of every column becomes a `u32` code
//! into a first-appearance [`Dict`]. Distinctness is measured under the
//! `Value` total order, so NULLs and mixed Int/Float spellings take part
//! like any other value, and the dictionary is *total* — it never holds
//! more distinct values than its columns have rows, and the builder
//! asserts that its codes stay below [`NO_CODE`](crate::dict::NO_CODE).
//! Consumers therefore never need a `Value`-path fallback.
//!
//! A dictionary belongs to a *key class*: a primary-key column and every
//! foreign-key column that references it, closed transitively and column
//! by column, so a join meets a foreign key and its key without
//! translating. A column in no foreign key is a class of its own.

use crate::database::Database;
use crate::dict::{Dict, DictBuilder};
use crate::schema::{AttrRef, DatabaseSchema};
use crate::value::Value;
use std::sync::Arc;

/// Columnar re-encodings of every attribute of every relation.
#[derive(Debug, Clone)]
pub struct ColumnStore {
    /// `columns[rel][col][row]`: the row's code in its key class's
    /// dictionary, mirroring the schema layout. Each relation's column
    /// list is reference-counted so [`ColumnStore::extend_for_append`]
    /// can share the columns of untouched relations with the old store
    /// instead of copying their arrays.
    columns: Vec<Arc<Vec<Vec<u32>>>>,
    /// One dictionary per key class. Reference-counted so that appends
    /// which bring a class no new distinct value share it instead of
    /// re-sorting its rank table.
    dicts: Vec<Arc<Dict>>,
    classes: Arc<KeyClasses>,
}

/// The key classes of a schema, merged along its foreign keys' column
/// pairs.
#[derive(Debug)]
struct KeyClasses {
    /// `of[rel][col]`: the class of column `col` of relation `rel`.
    of: Vec<Vec<usize>>,
    /// Per class, its one column that references none, its *top*; `None`
    /// if it has two (a column that is a foreign key into two relations).
    top: Vec<Option<AttrRef>>,
    /// Relations in foreign-key order: every referenced relation before
    /// the relations that reference it, schema order breaking ties.
    order: Vec<usize>,
}

impl KeyClasses {
    fn of(schema: &DatabaseSchema) -> KeyClasses {
        let fks = schema.foreign_keys();
        let mut of: Vec<Vec<usize>> = Vec::new();
        for rs in schema.relations() {
            let first = of.iter().map(Vec::len).sum::<usize>();
            of.push((first..first + rs.arity()).collect());
        }
        // Merge the classes of each foreign-key column pair, then number
        // them densely, in the schema order of their first columns.
        for fk in fks {
            for (&from, &to) in fk.from_cols.iter().zip(&fk.to_cols) {
                let (a, b) = (of[fk.from_rel][from], of[fk.to_rel][to]);
                for c in of.iter_mut().flatten().filter(|c| **c == a.max(b)) {
                    *c = a.min(b);
                }
            }
        }
        let mut firsts = of.concat();
        firsts.sort_unstable();
        firsts.dedup();
        let refers = |rel, col| {
            fks.iter()
                .any(|fk| fk.from_rel == rel && fk.from_cols.contains(&col))
        };
        let mut top = vec![Vec::new(); firsts.len()];
        for (rel, cols) in of.iter_mut().enumerate() {
            for (col, c) in cols.iter_mut().enumerate() {
                *c = firsts.partition_point(|&first| first < *c);
                if !refers(rel, col) {
                    top[*c].push(AttrRef { rel, col });
                }
            }
        }
        let top = top.iter().map(|t| (t.len() == 1).then(|| t[0])).collect();
        let mut order = Vec::with_capacity(of.len());
        while order.len() < of.len() {
            let ready = (0..of.len()).find(|rel| {
                !order.contains(rel)
                    && fks
                        .iter()
                        .all(|fk| fk.from_rel != *rel || order.contains(&fk.to_rel))
            });
            order.push(ready.expect("the foreign-key graph is acyclic"));
        }
        KeyClasses { of, top, order }
    }
}

impl ColumnStore {
    /// Build columns for every attribute by one deterministic sequential
    /// scan: relations in foreign-key order, each row-major. Cost is
    /// linear in the stored cells; orchestrators that care about where
    /// the time is spent should trigger this once up front (see
    /// `PreparedDb`), since `Database::columns` builds lazily.
    pub fn build(db: &Database) -> ColumnStore {
        let classes = KeyClasses::of(db.schema());
        let no_rows = vec![0; classes.of.len()];
        let empty = ColumnStore {
            columns: classes
                .of
                .iter()
                .map(|cols| Arc::new(vec![Vec::new(); cols.len()]))
                .collect(),
            dicts: classes
                .top
                .iter()
                .map(|_| Arc::new(DictBuilder::new().finish()))
                .collect(),
            classes: Arc::new(classes),
        };
        ColumnStore::extend_for_append(&empty, db, &no_rows)
    }

    /// Extend a store built over a shorter prefix of `db`'s rows to cover
    /// the rows appended since. `old_lens[rel]` is each relation's length
    /// when `old` was built; work is proportional to the appended rows
    /// (plus a rank merge per dictionary that gained values), not to the
    /// whole database.
    ///
    /// Old codes never change: the new rows are encoded in foreign-key
    /// order, and a value first seen in them takes its class's next free
    /// code. When every class has one top and the appended instance's
    /// foreign keys hold, this is **exactly** the store a from-scratch
    /// [`ColumnStore::build`] over the current rows would produce: a
    /// class's values are all met first in its top in both, the top's
    /// old rows before its new ones, and the rank table is the unique
    /// sort permutation of the same value list either way. A class with
    /// two tops keeps its codes append-stable, but a rebuild may number
    /// them differently.
    pub fn extend_for_append(old: &ColumnStore, db: &Database, old_lens: &[usize]) -> ColumnStore {
        let classes = &old.classes;
        let mut fresh: Vec<DictBuilder> = old.dicts.iter().map(|_| DictBuilder::new()).collect();
        let mut columns = old.columns.clone();
        for &rel in &classes.order {
            let relation = db.relation(rel);
            let old_len = old_lens[rel];
            debug_assert!(old_len <= relation.len(), "relations never shrink");
            if relation.len() == old_len {
                // Untouched relation: share its columns wholesale.
                continue;
            }
            // Per column: its codes, its class's old dictionary and next
            // free code, and the class's builder of fresh values, lent to
            // this relation (no two of whose columns share a class).
            let mut grown: Vec<_> = old.columns[rel]
                .iter()
                .zip(&classes.of[rel])
                .map(|(old_codes, &c)| {
                    let mut codes = Vec::with_capacity(relation.len());
                    codes.extend_from_slice(old_codes);
                    let (dict, lent) = (&*old.dicts[c], std::mem::take(&mut fresh[c]));
                    (codes, dict, dict.len() as u32, lent)
                })
                .collect();
            for row in relation.rows().skip(old_len) {
                for ((codes, dict, next, fresh), v) in grown.iter_mut().zip(row) {
                    // An empty dictionary is not probed, so a cold build
                    // hashes each cell once, in the builder.
                    let code = (*next > 0).then(|| old_code(dict, v)).flatten();
                    codes.push(code.unwrap_or_else(|| *next + fresh.encode(v)));
                }
            }
            let mut codes = Vec::with_capacity(grown.len());
            for (&c, (column, _, _, lent)) in classes.of[rel].iter().zip(grown) {
                assert!(fresh[c].is_empty(), "a relation's columns share no class");
                fresh[c] = lent;
                codes.push(column);
            }
            columns[rel] = Arc::new(codes);
        }
        let dicts = old
            .dicts
            .iter()
            .zip(fresh)
            .map(|(dict, fresh)| {
                if fresh.is_empty() {
                    Arc::clone(dict)
                } else if dict.is_empty() {
                    Arc::new(fresh.finish())
                } else {
                    Arc::new(dict.extended(fresh.into_values()))
                }
            })
            .collect();
        ColumnStore {
            columns,
            dicts,
            classes: Arc::clone(classes),
        }
    }

    /// The codes of `attr` and its key class's dictionary.
    #[inline]
    pub fn dict_column(&self, attr: AttrRef) -> (&[u32], &Dict) {
        let class = self.classes.of[attr.rel][attr.col];
        (&self.columns[attr.rel][attr.col], &self.dicts[class])
    }

    /// The codes and dictionaries of columns `cols` of relation `rel`, in
    /// `cols` order — the shape join keys come in.
    pub fn dict_columns(&self, rel: usize, cols: &[usize]) -> Vec<(&[u32], &Dict)> {
        cols.iter()
            .map(|&col| self.dict_column(AttrRef { rel, col }))
            .collect()
    }

    /// Whether `attr` is its key class's one top: then, if the foreign keys
    /// hold, every value its dictionary codes is stored in a row of `attr`.
    pub(crate) fn is_sole_top(&self, attr: AttrRef) -> bool {
        self.classes.top[self.classes.of[attr.rel][attr.col]] == Some(attr)
    }
}

/// `dict`'s code for `v`, out of line: only appends look values up in an
/// old dictionary, and inlined into the encoder's loop it slows builds.
#[inline(never)]
fn old_code(dict: &Dict, v: &Value) -> Option<u32> {
    dict.code(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::SchemaBuilder;
    use crate::value::{Value, ValueType as T};

    /// Structural equality for tests: `Dict` holds a hash table, so
    /// compare the deterministic parts (codes, decoded values, ranks,
    /// null code).
    fn assert_column_eq(a: (&[u32], &Dict), b: (&[u32], &Dict), ctx: &str) {
        let ((a_codes, a), (b_codes, b)) = (a, b);
        assert_eq!(a_codes, b_codes, "{ctx}: codes");
        assert_eq!(a.len(), b.len(), "{ctx}: dict len");
        for code in 0..a.len() as u32 {
            assert_eq!(a.value(code), b.value(code), "{ctx}: value of {code}");
            assert_eq!(a.rank(code), b.rank(code), "{ctx}: rank of {code}");
        }
        assert_eq!(a.null_code(), b.null_code(), "{ctx}: null code");
    }

    fn assert_store_matches_rebuild(store: &ColumnStore, db: &Database) {
        let rebuilt = ColumnStore::build(db);
        for (rel, rs) in db.schema().relations().iter().enumerate() {
            for col in 0..rs.arity() {
                let attr = AttrRef { rel, col };
                assert_column_eq(
                    store.dict_column(attr),
                    rebuilt.dict_column(attr),
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
        let (oc, ec) = (old.dict_column(attr).0, extended.dict_column(attr).0);
        assert_eq!(&ec[..oc.len()], oc);
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
        assert_eq!(store.dict_column(AttrRef { rel: 0, col: 1 }).0, &[0]);
        assert_eq!(store.dict_column(AttrRef { rel: 1, col: 0 }).0, &[0]);
    }
}
