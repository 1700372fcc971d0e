//! The explanation table `M` (Section 4.2): one row per candidate
//! explanation, carrying the per-sub-query values and both degrees.
//!
//! Both Algorithm 1 (`cube_algo`) and the naive baseline (`naive`) produce
//! this structure, so the top-K strategies and the correctness tests are
//! agnostic to how the degrees were computed.

use crate::explanation::Explanation;
use crate::question::UserQuestion;
use exq_relstore::cube::Coord;
use exq_relstore::{AttrRef, Database, Value};
use std::fmt;

/// Lines 4–5 of Algorithm 1 as the reference engine runs them: turn
/// joined cube cells (dummy-encoded coordinates plus the per-sub-query
/// `v_j` vector) into degree rows, sorted by coordinate. The all-null
/// (trivial) explanation is dropped.
pub fn derive_rows(
    question: &UserQuestion,
    totals: &[f64],
    cells: &[(Coord, Vec<f64>)],
) -> Vec<ExplanationRow> {
    let interv_sign = question.direction.interv_sign();
    let aggr_sign = question.direction.aggr_sign();
    let mut rows: Vec<ExplanationRow> = cells
        .iter()
        .filter_map(|(key, values)| {
            // Undo the dummy mapping of the outer join.
            let coord: Coord = key
                .iter()
                .map(|v| if v.is_dummy() { Value::Null } else { v.clone() })
                .collect();
            if coord.iter().all(Value::is_null) {
                return None; // trivial explanation, excluded from M
            }
            let residual_vals: Vec<f64> = totals
                .iter()
                .zip(values)
                .map(|(u_j, v_j)| u_j - v_j)
                .collect();
            Some(ExplanationRow {
                coord,
                mu_interv: interv_sign * question.query.combine(&residual_vals),
                mu_aggr: aggr_sign * question.query.combine(values),
                values: values.clone(),
            })
        })
        .collect();
    rows.sort_by(|a, b| a.coord.cmp(&b.coord));
    rows
}

/// One row of `M`: a candidate explanation with its degrees.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplanationRow {
    /// The explanation as a coordinate over the table's dimensions
    /// (`Value::Null` = attribute not constrained).
    pub coord: Coord,
    /// `v_j(φ) = q_j(D_φ)` per aggregate sub-query (0 where φ is absent
    /// from the cube — the outer-join convention).
    pub values: Vec<f64>,
    /// `μ_interv(φ)` (Definition 2.7).
    pub mu_interv: f64,
    /// `μ_aggr(φ)` (Definition 2.4).
    pub mu_aggr: f64,
}

impl ExplanationRow {
    /// Number of non-null coordinates (explanation length).
    pub fn arity(&self) -> usize {
        self.coord.iter().filter(|v| !v.is_null()).count()
    }

    /// Whether `self`'s non-null pairs are a subset of `other`'s — i.e.
    /// `self` is a (not necessarily proper) generalization.
    pub fn coord_generalizes(&self, other: &ExplanationRow) -> bool {
        self.coord
            .iter()
            .zip(other.coord.iter())
            .all(|(a, b)| a.is_null() || a == b)
    }
}

/// The materialized table `M`.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplanationTable {
    /// The explanation attributes `A'`, in coordinate order.
    pub dims: Vec<AttrRef>,
    /// `u_j = q_j(D)` for each sub-query (line 1 of Algorithm 1).
    pub totals: Vec<f64>,
    /// Candidate explanations. The trivial all-null explanation is
    /// excluded (Section 4.3 ignores it).
    pub rows: Vec<ExplanationRow>,
}

impl ExplanationTable {
    /// Number of candidate explanations.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The row for an exact coordinate, if present.
    pub fn find(&self, coord: &[Value]) -> Option<&ExplanationRow> {
        self.rows.iter().find(|r| &*r.coord == coord)
    }

    /// The [`Explanation`] of a row.
    pub fn explanation(&self, row: &ExplanationRow) -> Explanation {
        Explanation::from_coord(&self.dims, &row.coord)
    }

    /// Drop rows whose *support* is too small: keep a row only if at least
    /// one of its `v_j` values reaches `threshold`. This is the paper's
    /// Section 5.1.1 pruning ("a threshold such that at least one of the
    /// aggregate queries q_j has value ≥ 1000"), which keeps the
    /// near-empty strata whose smoothed ratios explode toward ∞ out of
    /// the rankings.
    pub fn retain_min_support(&mut self, threshold: f64) {
        self.rows
            .retain(|r| r.values.iter().any(|&v| v >= threshold));
    }

    /// Sort rows deterministically (descending degree, shorter first,
    /// then coordinate) by the chosen degree. Used by the top-K strategies.
    /// Each row's degree and arity are read once, not per comparison.
    pub fn sorted_indices(&self, degree: impl Fn(&ExplanationRow) -> f64) -> Vec<usize> {
        let keys: Vec<(f64, usize)> = self.rows.iter().map(|r| (degree(r), r.arity())).collect();
        let mut idx: Vec<usize> = (0..self.rows.len()).collect();
        idx.sort_by(|&a, &b| {
            let ((da, na), (db, nb)) = (keys[a], keys[b]);
            db.total_cmp(&da)
                .then(na.cmp(&nb))
                .then_with(|| self.rows[a].coord.cmp(&self.rows[b].coord))
        });
        idx
    }

    /// Export as CSV (header: the dimension names, one `v{j}` column per
    /// sub-query, then `mu_interv` and `mu_aggr`) — the shape downstream
    /// notebooks want. "Don't care" coordinates export as empty fields.
    pub fn to_csv(&self, db: &Database) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let mut header: Vec<String> = self
            .dims
            .iter()
            .map(|&d| db.schema().attr_name(d))
            .collect();
        let m = self.totals.len();
        header.extend((1..=m).map(|j| format!("v{j}")));
        header.push("mu_interv".to_string());
        header.push("mu_aggr".to_string());
        let _ = writeln!(out, "{}", header.join(","));
        for row in &self.rows {
            let mut fields: Vec<String> = row
                .coord
                .iter()
                .map(|v| {
                    if v.is_null() {
                        String::new()
                    } else {
                        csv_quote(&v.to_string())
                    }
                })
                .collect();
            fields.extend(row.values.iter().map(f64::to_string));
            fields.push(row.mu_interv.to_string());
            fields.push(row.mu_aggr.to_string());
            let _ = writeln!(out, "{}", fields.join(","));
        }
        out
    }

    /// Render as aligned text (for the `repro` harness and examples).
    pub fn render(&self, db: &Database, limit: usize) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let names: Vec<String> = self
            .dims
            .iter()
            .map(|&d| db.schema().attr_name(d))
            .collect();
        let _ = writeln!(
            out,
            "{:<50} {:>12} {:>12}",
            names.join(" | "),
            "mu_interv",
            "mu_aggr"
        );
        for row in self.rows.iter().take(limit) {
            let coord: Vec<String> = row.coord.iter().map(|v| v.to_string()).collect();
            let _ = writeln!(
                out,
                "{:<50} {:>12.4} {:>12.4}",
                coord.join(" | "),
                row.mu_interv,
                row.mu_aggr
            );
        }
        out
    }
}

fn csv_quote(field: &str) -> String {
    if field.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

impl fmt::Display for ExplanationTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "M with {} rows over {} attributes",
            self.rows.len(),
            self.dims.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(coord: Vec<Value>, mu: f64) -> ExplanationRow {
        ExplanationRow {
            coord: coord.into_boxed_slice(),
            values: vec![],
            mu_interv: mu,
            mu_aggr: mu,
        }
    }

    #[test]
    fn arity_counts_nonnull() {
        assert_eq!(row(vec![Value::Null, Value::str("a")], 0.0).arity(), 1);
        assert_eq!(row(vec![Value::Null, Value::Null], 0.0).arity(), 0);
    }

    #[test]
    fn coord_generalization() {
        let general = row(vec![Value::Null, Value::str("a")], 0.0);
        let specific = row(vec![Value::Int(1), Value::str("a")], 0.0);
        let other = row(vec![Value::Int(1), Value::str("b")], 0.0);
        assert!(general.coord_generalizes(&specific));
        assert!(!specific.coord_generalizes(&general));
        assert!(general.coord_generalizes(&general));
        assert!(!general.coord_generalizes(&other));
    }

    #[test]
    fn sorted_indices_orders_by_degree_then_arity() {
        let table = ExplanationTable {
            dims: vec![],
            totals: vec![],
            rows: vec![
                row(vec![Value::Int(1), Value::Int(2)], 5.0),
                row(vec![Value::Int(1), Value::Null], 5.0),
                row(vec![Value::Null, Value::Int(9)], 7.0),
            ],
        };
        let order = table.sorted_indices(|r| r.mu_interv);
        assert_eq!(
            order,
            vec![2, 1, 0],
            "highest degree first, then shorter explanation"
        );
    }

    #[test]
    fn csv_export_shape() {
        use exq_relstore::{SchemaBuilder, ValueType as T};
        let schema = SchemaBuilder::new()
            .relation("R", &[("id", T::Int), ("g", T::Str)], &["id"])
            .build()
            .unwrap();
        let db = exq_relstore::Database::new(schema);
        let g = db.schema().attr("R", "g").unwrap();
        let table = ExplanationTable {
            dims: vec![g],
            totals: vec![10.0, 5.0],
            rows: vec![
                ExplanationRow {
                    coord: vec![Value::str("a,b")].into_boxed_slice(),
                    values: vec![3.0, 2.0],
                    mu_interv: -1.5,
                    mu_aggr: 1.5,
                },
                ExplanationRow {
                    coord: vec![Value::Null].into_boxed_slice(),
                    values: vec![10.0, 5.0],
                    mu_interv: 0.0,
                    mu_aggr: 2.0,
                },
            ],
        };
        let csv = table.to_csv(&db);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "R.g,v1,v2,mu_interv,mu_aggr");
        assert_eq!(lines[1], "\"a,b\",3,2,-1.5,1.5");
        assert_eq!(lines[2], ",10,5,0,2");
    }

    #[test]
    fn retain_min_support_drops_thin_rows() {
        let mut table = ExplanationTable {
            dims: vec![],
            totals: vec![],
            rows: vec![
                ExplanationRow {
                    coord: vec![Value::Int(1)].into_boxed_slice(),
                    values: vec![1500.0, 2.0],
                    mu_interv: 0.0,
                    mu_aggr: 0.0,
                },
                ExplanationRow {
                    coord: vec![Value::Int(2)].into_boxed_slice(),
                    values: vec![3.0, 2.0],
                    mu_interv: 0.0,
                    mu_aggr: 0.0,
                },
            ],
        };
        table.retain_min_support(1000.0);
        assert_eq!(table.len(), 1);
        assert_eq!(table.rows[0].coord[0], Value::Int(1));
    }

    #[test]
    fn find_by_coordinate() {
        let table = ExplanationTable {
            dims: vec![],
            totals: vec![],
            rows: vec![row(vec![Value::Int(1)], 1.0)],
        };
        assert!(table.find(&[Value::Int(1)]).is_some());
        assert!(table.find(&[Value::Int(2)]).is_none());
        assert_eq!(table.len(), 1);
        assert!(!table.is_empty());
    }
}
