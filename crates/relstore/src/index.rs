//! Hash indexes on column subsets.
//!
//! Built on demand by the intervention engine's foreign-key cascades; an
//! index maps a projected key to the (live) row indices carrying it.

use crate::database::Database;
use crate::lookup::LookupMap;
use crate::tupleset::TupleSet;
use crate::value::Value;

/// A hash index over the live rows of one relation, keyed by a column
/// subset.
#[derive(Debug, Clone)]
pub struct HashIndex {
    cols: Vec<usize>,
    map: LookupMap<Vec<Value>, Vec<u32>>,
}

impl HashIndex {
    /// Build an index on `cols` over the rows of `rel` marked live in
    /// `live`.
    pub fn build(db: &Database, rel: usize, cols: &[usize], live: &TupleSet) -> HashIndex {
        let relation = db.relation(rel);
        let mut map: LookupMap<Vec<Value>, Vec<u32>> = LookupMap::with_capacity(live.count());
        let mut key = Vec::with_capacity(cols.len());
        for row in live.iter() {
            relation.project_into(row, cols, &mut key);
            map.entry(key.clone()).or_default().push(row as u32);
        }
        HashIndex {
            cols: cols.to_vec(),
            map,
        }
    }

    /// The indexed columns.
    pub fn cols(&self) -> &[usize] {
        &self.cols
    }

    /// Rows with the given key (empty slice if none).
    #[inline]
    pub fn get(&self, key: &[Value]) -> &[u32] {
        self.map.get(key).map_or(&[], |v| v.as_slice())
    }

    /// Whether the key is present.
    #[inline]
    pub fn contains(&self, key: &[Value]) -> bool {
        self.map.contains_key(key)
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> usize {
        self.map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::SchemaBuilder;
    use crate::value::ValueType as T;

    fn db() -> Database {
        let schema = SchemaBuilder::new()
            .relation("R", &[("a", T::Int), ("b", T::Str)], &["a"])
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        db.insert("R", vec![1.into(), "x".into()]).unwrap();
        db.insert("R", vec![2.into(), "x".into()]).unwrap();
        db.insert("R", vec![3.into(), "y".into()]).unwrap();
        db
    }

    #[test]
    fn index_groups_rows_by_key() {
        let db = db();
        let live = TupleSet::full(3);
        let idx = HashIndex::build(&db, 0, &[1], &live);
        assert_eq!(idx.get(&[Value::str("x")]), &[0, 1]);
        assert_eq!(idx.get(&[Value::str("y")]), &[2]);
        assert_eq!(idx.get(&[Value::str("z")]), &[] as &[u32]);
        assert_eq!(idx.distinct_keys(), 2);
        assert!(idx.contains(&[Value::str("x")]));
        assert_eq!(idx.cols(), &[1]);
    }

    #[test]
    fn index_respects_live_set() {
        let db = db();
        let mut live = TupleSet::full(3);
        live.remove(0);
        let idx = HashIndex::build(&db, 0, &[1], &live);
        assert_eq!(idx.get(&[Value::str("x")]), &[1]);
    }

    #[test]
    fn multi_column_keys() {
        let db = db();
        let live = TupleSet::full(3);
        let idx = HashIndex::build(&db, 0, &[0, 1], &live);
        assert_eq!(idx.get(&[Value::Int(2), Value::str("x")]), &[1]);
        assert_eq!(idx.distinct_keys(), 3);
    }
}
