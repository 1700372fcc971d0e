//! Yannakakis-style full semijoin reduction.
//!
//! A database is *semijoin-reduced* (globally consistent) when every tuple
//! participates in at least one universal tuple: `R_i = Π_{A_i}(U(D))` for
//! all `i`. The paper requires (a) the input database and (b) every
//! residual database `D − Δ` to be semijoin-reduced (Definition 2.6, item
//! 2); Rule (ii) of program **P** *is* a semijoin reduction.
//!
//! For an acyclic schema the classic two-pass reducer (bottom-up then
//! top-down along the join tree) produces the reduction without
//! materializing the join.
//!
//! ```
//! use exq_relstore::{semijoin, Database, SchemaBuilder, ValueType};
//!
//! let schema = SchemaBuilder::new()
//!     .relation("Parent", &[("id", ValueType::Int)], &["id"])
//!     .relation("Child", &[("id", ValueType::Int), ("p", ValueType::Int)], &["id"])
//!     .standard_fk("Child", &["p"], "Parent")
//!     .build()?;
//! let mut db = Database::new(schema);
//! db.insert("Parent", vec![1.into()])?;
//! db.insert("Parent", vec![2.into()])?; // no children: dangles
//! db.insert("Child", vec![10.into(), 1.into()])?;
//!
//! let reduced = semijoin::reduce(&db, &db.full_view());
//! assert!(reduced.live(0).contains(0));
//! assert!(!reduced.live(0).contains(1), "Parent(2) joins nothing");
//! assert!(!semijoin::is_reduced(&db, &db.full_view()));
//! # Ok::<(), exq_relstore::Error>(())
//! ```

use crate::database::{Database, View};
use crate::dict::NO_CODE;
use crate::join::{join_forest, Component, KeyMatch};
use crate::tupleset::TupleSet;
use crate::ExecConfig;

/// Fully reduce `view`: the returned view keeps exactly the rows that
/// appear in `U` computed over `view`.
pub fn reduce(db: &Database, view: &View) -> View {
    reduce_with(db, view, &ExecConfig::sequential())
}

/// [`reduce`], recording into `exec`'s metrics sink.
pub fn reduce_with(db: &Database, view: &View, exec: &ExecConfig) -> View {
    let mut out = view.clone();
    reduce_in_place_with(db, &mut out, exec);
    out
}

/// In-place variant of [`reduce_with`], reusing the caller's live sets.
pub fn reduce_in_place_with(db: &Database, view: &mut View, exec: &ExecConfig) {
    let sink = exec.metrics();
    let _span = sink.span("semijoin");
    sink.incr("semijoin.runs");
    sink.add("semijoin.rows_in", view.total_live() as u64);
    let components = join_forest(db.schema());
    for comp in &components {
        reduce_component(db, view, comp, exec);
    }
    // Cross-component semantics: the universal relation is the cross
    // product of the component joins, so one empty component empties all
    // projections.
    if view.live.iter().any(TupleSet::is_empty) {
        let cleared: u64 = view.live.iter().map(|set| set.count() as u64).sum();
        sink.add("semijoin.rows_dropped", cleared);
        sink.add("semijoin.drops.cross_component", cleared);
        for set in &mut view.live {
            set.clear();
        }
    }
    // Conservation law (asserted by the property suite):
    // rows_in == rows_dropped + rows_surviving, per reduction run.
    sink.add("semijoin.rows_surviving", view.total_live() as u64);
}

/// Whether `view` is already semijoin-reduced.
pub fn is_reduced(db: &Database, view: &View) -> bool {
    &reduce(db, view) == view
}

/// One directed semijoin step `target ⋉= source`, borrowed from a tree edge.
struct Step<'a> {
    target: usize,
    target_cols: &'a [usize],
    source: usize,
    source_cols: &'a [usize],
}

fn reduce_component(db: &Database, view: &mut View, comp: &Component, exec: &ExecConfig) {
    // Child depth per edge (edges are in BFS order, so parents resolve
    // before their children).
    let mut depth = vec![0usize; db.schema().relation_count()];
    for e in &comp.edges {
        depth[e.child] = depth[e.parent] + 1;
    }
    let max_depth = comp.edges.iter().map(|e| depth[e.child]).max().unwrap_or(0);

    // Bottom-up: parent ⋉= child, deepest children first.
    for d in (1..=max_depth).rev() {
        let steps: Vec<Step<'_>> = comp
            .edges
            .iter()
            .rev()
            .filter(|e| depth[e.child] == d)
            .map(|e| Step {
                target: e.parent,
                target_cols: &e.parent_cols,
                source: e.child,
                source_cols: &e.child_cols,
            })
            .collect();
        apply_steps(db, view, &steps, exec, "bottom_up");
    }
    // Top-down: child ⋉= parent, shallowest first.
    for d in 1..=max_depth {
        let steps: Vec<Step<'_>> = comp
            .edges
            .iter()
            .filter(|e| depth[e.child] == d)
            .map(|e| Step {
                target: e.child,
                target_cols: &e.child_cols,
                source: e.parent,
                source_cols: &e.parent_cols,
            })
            .collect();
        apply_steps(db, view, &steps, exec, "top_down");
    }
}

/// Run one depth level's semijoin steps in step order, counting one
/// `semijoin.passes` per level and the rows each level removes.
fn apply_steps(db: &Database, view: &mut View, steps: &[Step<'_>], exec: &ExecConfig, pass: &str) {
    if steps.is_empty() {
        return;
    }
    let sink = exec.metrics();
    sink.incr("semijoin.passes");
    let mut dropped: u64 = 0;
    for s in steps {
        for row in compute_drops(db, view, s) {
            dropped += u64::from(view.live[s.target].remove(row));
        }
    }
    sink.add("semijoin.rows_dropped", dropped);
    sink.add(&format!("semijoin.drops.{pass}"), dropped);
}

/// The live rows of `step.target` whose key no live `step.source` row
/// reaches, in ascending row order: the target rows that the edge's key
/// match, built from the live source rows, gives no slot. This is the
/// `Value`-key semijoin, as the two sides share one code per value.
fn compute_drops(db: &Database, view: &View, step: &Step<'_>) -> Vec<usize> {
    let store = db.columns();
    let source = store.dict_columns(step.source, step.source_cols);
    let key = KeyMatch::new(&source, view.live(step.source).iter());
    let target = store.dict_columns(step.target, step.target_cols);
    let mut to_drop = Vec::new();
    key.each(&target, view.live(step.target).iter(), |row, slot| {
        if slot == NO_CODE {
            to_drop.push(row);
        }
    });
    to_drop
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join::Universal;
    use crate::schema::SchemaBuilder;
    use crate::value::ValueType as T;

    /// Example 2.9's path schema R1(x), S1(x,y), R2(y), S2(y,z), R3(z).
    fn path_db() -> Database {
        let schema = SchemaBuilder::new()
            .relation("R1", &[("x", T::Str)], &["x"])
            .relation("S1", &[("x", T::Str), ("y", T::Str)], &["x", "y"])
            .relation("R2", &[("y", T::Str)], &["y"])
            .relation("S2", &[("y", T::Str), ("z", T::Str)], &["y", "z"])
            .relation("R3", &[("z", T::Str)], &["z"])
            .standard_fk("S1", &["x"], "R1")
            .standard_fk("S1", &["y"], "R2")
            .standard_fk("S2", &["y"], "R2")
            .standard_fk("S2", &["z"], "R3")
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        db.insert("R1", vec!["a".into()]).unwrap();
        db.insert("S1", vec!["a".into(), "b".into()]).unwrap();
        db.insert("R2", vec!["b".into()]).unwrap();
        db.insert("S2", vec!["b".into(), "c".into()]).unwrap();
        db.insert("R3", vec!["c".into()]).unwrap();
        db.validate().unwrap();
        db
    }

    #[test]
    fn reduced_instance_is_fixed_point() {
        let db = path_db();
        let view = db.full_view();
        assert!(is_reduced(&db, &view));
        assert_eq!(reduce(&db, &view), view);
    }

    #[test]
    fn dangling_cascades_through_path() {
        // Example 2.9's observation: deleting S1(a,b) leaves dangling
        // tuples everywhere; semijoin reduction empties the instance.
        let db = path_db();
        let s1 = db.schema().relation_index("S1").unwrap();
        let mut view = db.full_view();
        view.live[s1].remove(0);
        let reduced = reduce(&db, &view);
        assert_eq!(reduced.total_live(), 0, "whole instance dangles");
    }

    #[test]
    fn reduction_matches_universal_projection() {
        // After adding the Example 2.10 tuples, deleting S1(a,b) leaves a
        // surviving join path a-b'-c.
        let db = {
            let mut db = path_db();
            db.insert("S1", vec!["a".into(), "b2".into()]).unwrap();
            db.insert("R2", vec!["b2".into()]).unwrap();
            db.insert("S2", vec!["b2".into(), "c".into()]).unwrap();
            db.validate().unwrap();
            db
        };
        let s1 = db.schema().relation_index("S1").unwrap();
        let mut view = db.full_view();
        view.live[s1].remove(0);

        let reduced = reduce(&db, &view);
        let u = Universal::compute(&db, &view);
        for rel in 0..db.schema().relation_count() {
            assert_eq!(
                reduced.live(rel),
                &u.projected_rows(&db, rel),
                "reduction must equal the projection of the universal relation for relation {rel}"
            );
        }
        // The survivors: R1(a), S1(a,b2), R2(b2), S2(b2,c), R3(c).
        assert_eq!(reduced.total_live(), 5);
        // But R2(b) and S2(b,c) are gone.
        let r2 = db.schema().relation_index("R2").unwrap();
        assert!(!reduced.live(r2).contains(0));
        assert!(reduced.live(r2).contains(1));
    }

    #[test]
    fn in_place_matches_pure() {
        let db = path_db();
        let mut view = db.full_view();
        view.live[1].remove(0);
        let pure = reduce(&db, &view);
        reduce_in_place_with(&db, &mut view, &ExecConfig::sequential());
        assert_eq!(view, pure);
    }

    #[test]
    fn parallel_reduce_matches_sequential() {
        // A star with three sibling children plus one grandchild chain, so
        // both sweeps actually get multi-step depth levels.
        let schema = SchemaBuilder::new()
            .relation("P", &[("id", T::Int)], &["id"])
            .relation("A", &[("id", T::Int), ("p", T::Int)], &["id"])
            .relation("B", &[("id", T::Int), ("p", T::Int)], &["id"])
            .relation("C", &[("id", T::Int), ("p", T::Int)], &["id"])
            .relation("G", &[("id", T::Int), ("a", T::Int)], &["id"])
            .standard_fk("A", &["p"], "P")
            .standard_fk("B", &["p"], "P")
            .standard_fk("C", &["p"], "P")
            .standard_fk("G", &["a"], "A")
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        for i in 0..200i64 {
            db.insert("P", vec![i.into()]).unwrap();
        }
        // A covers parents 0..150, B covers 50..200, C covers evens; G
        // covers every third A row. Intersections force real drops in both
        // sweeps.
        for i in 0..150i64 {
            db.insert("A", vec![i.into(), i.into()]).unwrap();
        }
        for i in 50..200i64 {
            db.insert("B", vec![i.into(), i.into()]).unwrap();
        }
        for i in (0..200i64).step_by(2) {
            db.insert("C", vec![i.into(), i.into()]).unwrap();
        }
        for i in (0..150i64).step_by(3) {
            db.insert("G", vec![i.into(), i.into()]).unwrap();
        }
        let view = db.full_view();
        let sequential = reduce(&db, &view);
        assert_ne!(&sequential, &view, "reduction must drop something");
        let u = Universal::compute(&db, &view);
        for rel in 0..db.schema().relation_count() {
            assert_eq!(sequential.live(rel), &u.projected_rows(&db, rel));
        }
        for threads in [2, 3, 7] {
            let exec = ExecConfig::with_threads(threads);
            assert_eq!(
                reduce_with(&db, &view, &exec),
                sequential,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn empty_component_empties_everything() {
        let schema = SchemaBuilder::new()
            .relation("A", &[("x", T::Int)], &["x"])
            .relation("B", &[("y", T::Int)], &["y"])
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        db.insert("A", vec![1.into()]).unwrap();
        // B is empty: the cross product is empty, so A(1) dangles too.
        let reduced = reduce(&db, &db.full_view());
        assert_eq!(reduced.total_live(), 0);
    }
}
