//! Lightweight data statistics.
//!
//! Used for reporting (the `repro` harness prints dataset profiles) and
//! for the cube operator's automatic strategy choice: the lattice roll-up
//! wins when the number of distinct finest-level cells is far below
//! `rows × 2^d`, which a small sample estimates well for the
//! low-cardinality categorical data the paper's experiments use.

use crate::database::Database;
use crate::dict::CodeTuples;
use crate::join::Universal;
use crate::lookup::LookupSet;
use crate::schema::AttrRef;
use crate::value::Value;
use crate::ExecConfig;

/// Per-attribute profile.
#[derive(Debug, Clone, PartialEq)]
pub struct AttrStats {
    /// The attribute.
    pub attr: AttrRef,
    /// Distinct non-null values.
    pub distinct: usize,
    /// Number of NULLs.
    pub nulls: usize,
    /// Minimum non-null value.
    pub min: Option<Value>,
    /// Maximum non-null value.
    pub max: Option<Value>,
}

/// Profile one attribute over all rows of its relation.
pub fn attr_stats(db: &Database, attr: AttrRef) -> AttrStats {
    let relation = db.relation(attr.rel);
    let mut distinct: LookupSet<&Value> = LookupSet::new();
    let mut nulls = 0usize;
    let mut min: Option<&Value> = None;
    let mut max: Option<&Value> = None;
    for i in 0..relation.len() {
        let v = &relation.row(i)[attr.col];
        if v.is_null() {
            nulls += 1;
            continue;
        }
        distinct.insert(v);
        if min.is_none_or(|m| v < m) {
            min = Some(v);
        }
        if max.is_none_or(|m| v > m) {
            max = Some(v);
        }
    }
    AttrStats {
        attr,
        distinct: distinct.len(),
        nulls,
        min: min.cloned(),
        max: max.cloned(),
    }
}

/// A plain-text profile of the whole instance: per relation, row count
/// and per-attribute distinct/null counts and value range. The `exq
/// profile` CLI command prints this.
pub fn profile(db: &Database) -> String {
    profile_with(db, &ExecConfig::sequential())
}

/// [`profile`], recording into `exec`'s metrics sink.
pub fn profile_with(db: &Database, exec: &ExecConfig) -> String {
    use std::fmt::Write;
    let _span = exec.metrics().span("profile");
    exec.metrics()
        .add("profile.relations", db.schema().relation_count() as u64);
    exec.metrics().add(
        "profile.rows",
        (0..db.schema().relation_count())
            .map(|rel| db.relation_len(rel) as u64)
            .sum(),
    );
    let mut out = String::new();
    for (rel, r) in db.schema().relations().iter().enumerate() {
        let _ = writeln!(out, "{} ({} rows)", r.name, db.relation_len(rel));
        for (col, attr) in r.attributes.iter().enumerate() {
            let s = attr_stats(db, AttrRef { rel, col });
            let key = if r.primary_key.contains(&col) {
                " [key]"
            } else {
                ""
            };
            let range = match (&s.min, &s.max) {
                (Some(min), Some(max)) => format!("{min} .. {max}"),
                _ => "-".to_string(),
            };
            let _ = writeln!(
                out,
                "  {}: {}{key}  distinct={} nulls={} range={}",
                attr.name, attr.ty, s.distinct, s.nulls, range
            );
        }
    }
    out
}

/// Estimate the number of distinct coordinate combinations of `dims` over
/// the universal relation by scanning up to `sample` tuples. For
/// categorical data whose distinct-combination count is small relative to
/// the sample, the estimate is near-exact; otherwise it is a lower bound
/// — exactly the side that matters for the strategy decision.
///
/// Counts code tuples, not `Value` tuples: a dictionary gives each
/// `Value` equality class one code, so the two counts are equal.
pub fn estimate_distinct_coords(
    db: &Database,
    u: &Universal,
    dims: &[AttrRef],
    sample: usize,
) -> usize {
    let store = db.columns();
    let columns: Vec<(usize, &[u32])> = dims
        .iter()
        .map(|&a| (a.rel, store.dict_column(a).0))
        .collect();
    let mut seen = CodeTuples::new(dims.len());
    let mut coord = vec![0u32; dims.len()];
    for t in u.iter().take(sample) {
        for (slot, &(rel, codes)) in coord.iter_mut().zip(&columns) {
            *slot = codes[t[rel] as usize];
        }
        seen.insert(&coord);
    }
    seen.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::SchemaBuilder;
    use crate::value::ValueType as T;

    fn db() -> Database {
        let schema = SchemaBuilder::new()
            .relation(
                "R",
                &[("id", T::Int), ("g", T::Str), ("x", T::Int)],
                &["id"],
            )
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        for (i, (g, x)) in [("a", Some(5)), ("a", Some(2)), ("b", None), ("c", Some(9))]
            .iter()
            .enumerate()
        {
            let xv = x.map_or(Value::Null, Value::Int);
            db.insert("R", vec![(i as i64).into(), (*g).into(), xv])
                .unwrap();
        }
        db
    }

    #[test]
    fn attr_profile() {
        let db = db();
        let g = db.schema().attr("R", "g").unwrap();
        let s = attr_stats(&db, g);
        assert_eq!(s.distinct, 3);
        assert_eq!(s.nulls, 0);
        assert_eq!(s.min, Some(Value::str("a")));
        assert_eq!(s.max, Some(Value::str("c")));

        let x = db.schema().attr("R", "x").unwrap();
        let s = attr_stats(&db, x);
        assert_eq!(s.distinct, 3);
        assert_eq!(s.nulls, 1);
        assert_eq!(s.min, Some(Value::Int(2)));
        assert_eq!(s.max, Some(Value::Int(9)));
    }

    #[test]
    fn empty_relation_stats() {
        let schema = SchemaBuilder::new()
            .relation("E", &[("a", T::Int)], &["a"])
            .build()
            .unwrap();
        let db = Database::new(schema);
        let s = attr_stats(&db, db.schema().attr("E", "a").unwrap());
        assert_eq!(s.distinct, 0);
        assert_eq!(s.min, None);
        assert_eq!(s.max, None);
    }

    #[test]
    fn profile_mentions_everything() {
        let db = db();
        let text = profile(&db);
        assert!(text.contains("R (4 rows)"));
        assert!(text.contains("id: int [key]"));
        assert!(text.contains("g: str  distinct=3 nulls=0 range=a .. c"));
        assert!(text.contains("x: int  distinct=3 nulls=1 range=2 .. 9"));
    }

    #[test]
    fn parallel_profile_is_identical() {
        let db = db();
        let sequential = profile(&db);
        for threads in [2, 7] {
            let parallel = profile_with(&db, &ExecConfig::with_threads(threads));
            assert_eq!(sequential, parallel, "threads = {threads}");
        }
    }

    #[test]
    fn distinct_coord_estimate() {
        let db = db();
        let u = Universal::compute(&db, &db.full_view());
        let g = db.schema().attr("R", "g").unwrap();
        assert_eq!(estimate_distinct_coords(&db, &u, &[g], 100), 3);
        assert_eq!(
            estimate_distinct_coords(&db, &u, &[g], 1),
            1,
            "sample caps the scan"
        );
        let id = db.schema().attr("R", "id").unwrap();
        assert_eq!(estimate_distinct_coords(&db, &u, &[g, id], 100), 4);
    }

    #[test]
    fn distinct_coord_estimate_counts_value_equality_classes() {
        // Int(2) and Float(2.0) are one value; NULL counts once.
        let schema = SchemaBuilder::new()
            .relation("R", &[("id", T::Int), ("x", T::Any)], &["id"])
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        for (i, x) in [
            Value::Int(2),
            Value::Float(2.0),
            Value::Null,
            Value::Null,
            Value::Int(3),
        ]
        .into_iter()
        .enumerate()
        {
            db.insert("R", vec![(i as i64).into(), x]).unwrap();
        }
        let u = Universal::compute(&db, &db.full_view());
        let x = db.schema().attr("R", "x").unwrap();
        assert_eq!(estimate_distinct_coords(&db, &u, &[x], 100), 3);
        assert_eq!(estimate_distinct_coords(&db, &u, &[], 100), 1);
        assert_eq!(estimate_distinct_coords(&db, &u, &[x], 0), 0);
    }
}
