//! Row storage for one relation.
//!
//! Rows are append-only and keep stable indices for their lifetime; every
//! higher-level structure (interventions, semijoin reducers, universal
//! tuples) refers to rows by index. "Deletion" is always expressed as a
//! [`TupleSet`](crate::TupleSet) of removed indices, never by physically
//! removing rows — exactly what the intervention semantics of the paper
//! needs, since `D − Δ` must remain comparable to `D`.

use crate::error::{Error, Result};
use crate::schema::RelationSchema;
use crate::value::Value;
use std::sync::Arc;

/// A stored row: one `Value` per attribute, in schema order. Shared
/// (`Arc`) rather than owned (`Box`) so cloning a [`Relation`] — which
/// the epoch-snapshot append path does to unshare a grown relation from
/// the previous epoch — copies one pointer per row instead of
/// reallocating every row.
pub type Row = Arc<[Value]>;

/// The rows of one relation.
#[derive(Debug, Clone, Default)]
pub struct Relation {
    rows: Vec<Row>,
}

impl Relation {
    /// An empty relation.
    pub fn new() -> Relation {
        Relation { rows: Vec::new() }
    }

    /// An empty relation with row capacity reserved.
    pub fn with_capacity(n: usize) -> Relation {
        Relation {
            rows: Vec::with_capacity(n),
        }
    }

    /// A copy with room for `additional` more rows and no more. Rows are
    /// shared, so this copies one pointer per row.
    pub(crate) fn clone_reserving(&self, additional: usize) -> Relation {
        let mut rows = Vec::with_capacity(self.rows.len() + additional);
        rows.extend_from_slice(&self.rows);
        Relation { rows }
    }

    /// Make room for exactly `additional` more rows.
    pub(crate) fn reserve_exact(&mut self, additional: usize) {
        self.rows.reserve_exact(additional);
    }

    /// How many rows fit before the row vector reallocates.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.rows.capacity()
    }

    /// Number of rows ever inserted.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the relation has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The row at `idx`.
    #[inline]
    pub fn row(&self, idx: usize) -> &[Value] {
        &self.rows[idx]
    }

    /// All rows.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[Value]> {
        self.rows.iter().map(|r| &**r)
    }

    /// Append a row after validating arity and column types against
    /// `schema`. Returns the new row's index.
    pub fn push_checked(&mut self, schema: &RelationSchema, row: Vec<Value>) -> Result<usize> {
        if row.len() != schema.arity() {
            return Err(Error::RowArity {
                relation: schema.name.clone(),
                expected: schema.arity(),
                got: row.len(),
            });
        }
        for (attr, v) in schema.attributes.iter().zip(&row) {
            if !attr.ty.admits(v) {
                return Err(Error::TypeMismatch {
                    relation: schema.name.clone(),
                    attribute: attr.name.clone(),
                    expected: attr.ty.to_string(),
                    got: v.type_name().to_string(),
                });
            }
        }
        self.rows.push(row.into());
        Ok(self.rows.len() - 1)
    }

    /// Roll back to the first `len` rows. Only the append path uses this,
    /// to restore the pre-batch state when a later row of the same batch
    /// fails validation — appends are atomic per batch, and indices of
    /// surviving rows never move.
    pub fn truncate(&mut self, len: usize) {
        assert!(len <= self.rows.len(), "truncate cannot grow a relation");
        self.rows.truncate(len);
    }

    /// Project `cols` of row `idx` into `out` (cleared first). A reusable
    /// workhorse buffer keeps key extraction allocation-free in join loops.
    #[inline]
    pub fn project_into(&self, idx: usize, cols: &[usize], out: &mut Vec<Value>) {
        out.clear();
        let row = &self.rows[idx];
        out.extend(cols.iter().map(|&c| row[c].clone()));
    }

    /// Owned projection of `cols` of row `idx`.
    pub fn project(&self, idx: usize, cols: &[usize]) -> Vec<Value> {
        let row = &self.rows[idx];
        cols.iter().map(|&c| row[c].clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Attribute, RelationSchema};
    use crate::value::ValueType;

    fn schema() -> RelationSchema {
        RelationSchema {
            name: "R".to_string(),
            attributes: vec![
                Attribute {
                    name: "id".into(),
                    ty: ValueType::Int,
                },
                Attribute {
                    name: "label".into(),
                    ty: ValueType::Str,
                },
            ],
            primary_key: vec![0],
        }
    }

    #[test]
    fn push_and_read() {
        let s = schema();
        let mut r = Relation::new();
        let i0 = r
            .push_checked(&s, vec![Value::Int(1), Value::str("a")])
            .unwrap();
        let i1 = r
            .push_checked(&s, vec![Value::Int(2), Value::str("b")])
            .unwrap();
        assert_eq!((i0, i1), (0, 1));
        assert_eq!(r.len(), 2);
        assert_eq!(r.row(1)[1], Value::str("b"));
    }

    #[test]
    fn rejects_wrong_arity() {
        let s = schema();
        let mut r = Relation::new();
        let err = r.push_checked(&s, vec![Value::Int(1)]).unwrap_err();
        assert!(matches!(
            err,
            Error::RowArity {
                expected: 2,
                got: 1,
                ..
            }
        ));
    }

    #[test]
    fn rejects_wrong_type() {
        let s = schema();
        let mut r = Relation::new();
        let err = r
            .push_checked(&s, vec![Value::str("x"), Value::str("a")])
            .unwrap_err();
        assert!(matches!(err, Error::TypeMismatch { .. }));
    }

    #[test]
    fn null_always_admitted() {
        let s = schema();
        let mut r = Relation::new();
        r.push_checked(&s, vec![Value::Null, Value::Null]).unwrap();
        assert_eq!(r.row(0)[0], Value::Null);
    }

    #[test]
    fn projection() {
        let s = schema();
        let mut r = Relation::new();
        r.push_checked(&s, vec![Value::Int(7), Value::str("z")])
            .unwrap();
        assert_eq!(r.project(0, &[1, 0]), vec![Value::str("z"), Value::Int(7)]);
        let mut buf = vec![Value::Null; 4];
        r.project_into(0, &[0], &mut buf);
        assert_eq!(buf, vec![Value::Int(7)]);
    }
}
