//! The data causal graph (Definitions 3.8–3.9).
//!
//! Nodes are tuples; a **solid** edge `t_i → t_j` means deleting `t_i`
//! forces deleting `t_j` (cascade, or dangling after semijoin reduction); a
//! **dotted** edge `t_j → t_i` is the backward cascade of a back-and-forth
//! foreign key. The *causal length* of a path is its number of dotted
//! edges; Proposition 3.10 bounds the iterations of program **P** by
//! `2q + 2` where `q` is the maximum causal length over paths starting at a
//! seed tuple.
//!
//! This graph is a diagnostic/verification structure: computing it is
//! `O(|U| · k²)` and maximum-causal-length search enumerates simple paths,
//! so use it on test- and example-sized instances (as the paper does in its
//! figures), not inside the hot explanation pipeline.

use exq_relstore::lookup::LookupMap;
use exq_relstore::{Database, FkKind, TupleSet, Universal};

/// Static convergence guarantee for program **P** on a schema, per
/// Section 3's propositions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConvergenceBound {
    /// No back-and-forth keys: at most two productive iterations
    /// (Proposition 3.5); `Δ^φ` is expressible without recursion.
    TwoSteps,
    /// Simple acyclic schema causal graph, at most one back-and-forth key
    /// per referencing relation: at most `2s + 2` iterations
    /// (Proposition 3.11) — the contained bound. Recursion can be
    /// unrolled into a fixed pipeline.
    Unrollable {
        /// The `2s + 2` iteration bound.
        iterations: usize,
    },
    /// Some relation carries several back-and-forth keys (the Example 3.7
    /// shape): only the data-dependent bounds apply (`n`, Prop 3.4;
    /// `2q + 2`, Prop 3.10) and genuine recursion is required.
    RequiresRecursion,
}

/// Classify a schema by the strongest applicable convergence proposition.
pub fn convergence_bound(schema: &exq_relstore::DatabaseSchema) -> ConvergenceBound {
    if !schema.has_back_and_forth() {
        return ConvergenceBound::TwoSteps;
    }
    let g = schema.causal_graph();
    if g.is_simple() && g.max_back_and_forth_per_relation() <= 1 {
        ConvergenceBound::Unrollable {
            iterations: 2 * schema.back_and_forth_count() + 2,
        }
    } else {
        ConvergenceBound::RequiresRecursion
    }
}

/// A node of the data causal graph: a tuple identified by `(relation,
/// row)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TupleId {
    /// Relation index.
    pub rel: usize,
    /// Row index within the relation.
    pub row: u32,
}

/// An edge of the data causal graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// Cascade / dangling implication (Definition 3.8, item 1).
    Solid,
    /// Backward cascade of a back-and-forth key (item 2).
    Dotted,
}

/// The data causal graph of a database instance.
#[derive(Debug, Clone)]
pub struct DataCausalGraph {
    /// All tuple nodes, sorted.
    pub nodes: Vec<TupleId>,
    /// Adjacency: for each node (by its index in `nodes`), the outgoing
    /// `(target node index, kind)` edges. When both a solid and a dotted
    /// edge exist between two nodes only the dotted one is kept, matching
    /// the paper's figures.
    pub edges: Vec<Vec<(usize, EdgeKind)>>,
    index_of: LookupMap<TupleId, usize>,
}

impl DataCausalGraph {
    /// Build the graph over the full database.
    pub fn build(db: &Database) -> DataCausalGraph {
        let u = Universal::compute(db, &db.full_view());
        DataCausalGraph::build_with_universal(db, &u)
    }

    /// Build the graph with a pre-computed universal relation.
    pub fn build_with_universal(db: &Database, u: &Universal) -> DataCausalGraph {
        let k = db.schema().relation_count();
        let mut nodes = Vec::new();
        for rel in 0..k {
            for row in 0..db.relation_len(rel) {
                nodes.push(TupleId {
                    rel,
                    row: row as u32,
                });
            }
        }
        let index_of: LookupMap<TupleId, usize> =
            nodes.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        let mut edges: Vec<Vec<(usize, EdgeKind)>> = vec![Vec::new(); nodes.len()];

        // Solid edges (item 1): t_i → t_j iff every universal tuple
        // containing t_j also contains t_i. For each (t_j, R_i) pair,
        // record the distinct R_i rows co-occurring with t_j; a unique
        // co-occurrence that covers all of t_j's universal tuples is an
        // implication. (Co-occurrence per universal tuple is unique by
        // construction, so "one distinct partner" suffices.)
        // companions[(t_j, R_i)] = Some(row) while unique, None once mixed.
        let mut companions: LookupMap<(TupleId, usize), Option<u32>> = LookupMap::new();
        let mut appears: LookupMap<TupleId, bool> = LookupMap::new();
        for t in u.iter() {
            for rel_j in 0..k {
                let tj = TupleId {
                    rel: rel_j,
                    row: t[rel_j],
                };
                appears.insert(tj, true);
                for (rel_i, &row_i) in t.iter().enumerate() {
                    if rel_i == rel_j {
                        continue;
                    }
                    companions
                        .entry((tj, rel_i))
                        .and_modify(|c| {
                            if *c != Some(row_i) {
                                *c = None;
                            }
                        })
                        .or_insert(Some(row_i));
                }
            }
        }
        // Drain in sorted key order: the per-node edge lists must not
        // inherit the companion map's hash order, or sibling solid
        // edges would come out in a different order run to run.
        for ((tj, rel_i), companion) in companions.into_sorted() {
            if let Some(row_i) = companion {
                let ti = TupleId {
                    rel: rel_i,
                    row: row_i,
                };
                edges[index_of[&ti]].push((index_of[&tj], EdgeKind::Solid));
            }
        }

        // Dotted edges (item 2): back-and-forth fks by key equality.
        for fk in db.schema().foreign_keys() {
            if fk.kind != FkKind::BackAndForth {
                continue;
            }
            let full = TupleSet::full(db.relation_len(fk.to_rel));
            let index = exq_relstore::index::HashIndex::build(db, fk.to_rel, &fk.to_cols, &full);
            let from = db.relation(fk.from_rel);
            let mut key = Vec::new();
            for row_j in 0..from.len() {
                from.project_into(row_j, &fk.from_cols, &mut key);
                if let Some(&row_i) = index.get(&key).first() {
                    let tj = TupleId {
                        rel: fk.from_rel,
                        row: row_j as u32,
                    };
                    let ti = TupleId {
                        rel: fk.to_rel,
                        row: row_i,
                    };
                    let (src, dst) = (index_of[&tj], index_of[&ti]);
                    // Replace a duplicate solid edge if present (figures
                    // omit the solid edge when a dotted one exists).
                    edges[src].retain(|&(d, _)| d != dst);
                    edges[src].push((dst, EdgeKind::Dotted));
                }
            }
        }

        for adj in &mut edges {
            adj.sort_unstable_by_key(|&(d, k)| (d, k == EdgeKind::Dotted));
            adj.dedup();
        }
        DataCausalGraph {
            nodes,
            edges,
            index_of,
        }
    }

    /// Node index of a tuple.
    pub fn node(&self, t: TupleId) -> Option<usize> {
        self.index_of.get(&t).copied()
    }

    /// Outgoing edges of a tuple.
    pub fn out_edges(&self, t: TupleId) -> &[(usize, EdgeKind)] {
        &self.edges[self.index_of[&t]]
    }

    /// Whether the data causal graph contains a directed cycle. Footnote 9
    /// of the paper: *"causal graphs can have cycles even if the schema is
    /// acyclic, as is the case with our running example"* — e.g.
    /// `s1 ┄→ t1 → s1` whenever a publication and one of its authorship
    /// records are mutually necessary.
    pub fn has_cycle(&self) -> bool {
        // Iterative three-colour DFS.
        #[derive(Clone, Copy, PartialEq)]
        enum Colour {
            White,
            Grey,
            Black,
        }
        let mut colour = vec![Colour::White; self.nodes.len()];
        for start in 0..self.nodes.len() {
            if colour[start] != Colour::White {
                continue;
            }
            // Stack of (node, next edge index).
            let mut stack = vec![(start, 0usize)];
            colour[start] = Colour::Grey;
            while let Some(&mut (node, ref mut edge_idx)) = stack.last_mut() {
                if let Some(&(next, _)) = self.edges[node].get(*edge_idx) {
                    *edge_idx += 1;
                    match colour[next] {
                        Colour::Grey => return true,
                        Colour::White => {
                            colour[next] = Colour::Grey;
                            stack.push((next, 0));
                        }
                        Colour::Black => {}
                    }
                } else {
                    colour[node] = Colour::Black;
                    stack.pop();
                }
            }
        }
        false
    }

    /// Maximum causal length (number of dotted edges) over all *simple*
    /// directed paths starting at any of `starts`. Exhaustive DFS — the
    /// paths are simple, so this is exponential in the worst case; callers
    /// pass test-sized instances. `node_budget` caps the number of DFS
    /// expansions (returns `None` when exceeded).
    pub fn max_causal_length_from(&self, starts: &[TupleId], node_budget: usize) -> Option<usize> {
        let mut best = 0usize;
        let mut budget = node_budget;
        let mut on_path = vec![false; self.nodes.len()];
        for &s in starts {
            let Some(start) = self.node(s) else { continue };
            if !self.dfs(start, 0, &mut best, &mut on_path, &mut budget) {
                return None;
            }
        }
        Some(best)
    }

    fn dfs(
        &self,
        node: usize,
        dotted_so_far: usize,
        best: &mut usize,
        on_path: &mut Vec<bool>,
        budget: &mut usize,
    ) -> bool {
        if *budget == 0 {
            return false;
        }
        *budget -= 1;
        *best = (*best).max(dotted_so_far);
        on_path[node] = true;
        for &(next, kind) in &self.edges[node] {
            if on_path[next] {
                continue;
            }
            let d = dotted_so_far + usize::from(kind == EdgeKind::Dotted);
            if !self.dfs(next, d, best, on_path, budget) {
                on_path[node] = false;
                return false;
            }
        }
        on_path[node] = false;
        true
    }

    /// The seed tuples of an intervention as [`TupleId`]s.
    pub fn tuple_ids(seeds: &[TupleSet]) -> Vec<TupleId> {
        seeds
            .iter()
            .enumerate()
            .flat_map(|(rel, set)| {
                set.iter().map(move |row| TupleId {
                    rel,
                    row: row as u32,
                })
            })
            .collect()
    }

    /// Render the graph as readable text (for the `repro fig6` harness).
    pub fn render(&self, db: &Database) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (i, t) in self.nodes.iter().enumerate() {
            let rel = db.schema().relation(t.rel);
            let row = db.relation(t.rel).row(t.row as usize);
            let values: Vec<String> = row.iter().map(|v| v.to_string()).collect();
            let _ = writeln!(out, "{}[{}]({})", rel.name, t.row, values.join(","));
            for &(dst, kind) in &self.edges[i] {
                let d = self.nodes[dst];
                let arrow = match kind {
                    EdgeKind::Solid => "──▶",
                    EdgeKind::Dotted => "┄┄▶",
                };
                let _ = writeln!(
                    out,
                    "  {arrow} {}[{}]",
                    db.schema().relation(d.rel).name,
                    d.row
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exq_datagen::paper_examples::figure3;
    use exq_relstore::{SchemaBuilder, ValueType as T};

    fn tid(db: &Database, rel: &str, row: u32) -> TupleId {
        TupleId {
            rel: db.schema().relation_index(rel).unwrap(),
            row,
        }
    }

    #[test]
    fn figure6_edges() {
        let db = figure3();
        let g = DataCausalGraph::build(&db);
        // r1 → s1 (author to authored rows: solid cascade).
        let r1 = tid(&db, "Author", 0);
        let s1 = tid(&db, "Authored", 0);
        let t1 = tid(&db, "Publication", 0);
        assert!(g
            .out_edges(r1)
            .iter()
            .any(|&(d, k)| d == g.node(s1).unwrap() && k == EdgeKind::Solid));
        // s1 ┄→ t1 (dotted, back-and-forth).
        assert!(g
            .out_edges(s1)
            .iter()
            .any(|&(d, k)| d == g.node(t1).unwrap() && k == EdgeKind::Dotted));
        // t1 → s1 and t1 → s2 (publication to authored rows).
        let s2 = tid(&db, "Authored", 1);
        let t1_out = g.out_edges(t1);
        assert!(t1_out.iter().any(|&(d, _)| d == g.node(s1).unwrap()));
        assert!(t1_out.iter().any(|&(d, _)| d == g.node(s2).unwrap()));
    }

    #[test]
    fn semijoin_induced_solid_edges() {
        // s1 is A1's row on P1; if s1 is the only Authored row of A1 then
        // deleting s1 dangles A1 → solid edge s1 → r1. In Figure 3, A1 has
        // two rows, so no such edge; but A2's rows... each author has two
        // rows, each publication two rows, so the only reverse solid edges
        // come from uniqueness, which this instance lacks. Build a smaller
        // instance to check.
        let schema = SchemaBuilder::new()
            .relation("Author", &[("id", T::Str), ("name", T::Str)], &["id"])
            .relation(
                "Authored",
                &[("id", T::Str), ("pubid", T::Str)],
                &["id", "pubid"],
            )
            .relation("Publication", &[("pubid", T::Str)], &["pubid"])
            .standard_fk("Authored", &["id"], "Author")
            .back_and_forth_fk("Authored", &["pubid"], "Publication")
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        db.insert("Author", vec!["A1".into(), "X".into()]).unwrap();
        db.insert("Authored", vec!["A1".into(), "P1".into()])
            .unwrap();
        db.insert("Publication", vec!["P1".into()]).unwrap();
        let g = DataCausalGraph::build(&db);
        let r1 = tid(&db, "Author", 0);
        let s1 = tid(&db, "Authored", 0);
        // Unique co-occurrence in both directions: solid edge s1 → r1 too.
        assert!(g
            .out_edges(s1)
            .iter()
            .any(|&(d, _)| d == g.node(r1).unwrap()));
        assert!(g
            .out_edges(r1)
            .iter()
            .any(|&(d, _)| d == g.node(s1).unwrap()));
    }

    #[test]
    fn causal_path_of_running_example_has_length_one() {
        // Figure 6's P = r1 → s1 ┄→ t1 → s2 has causal length 1; with a
        // single back-and-forth key no simple path exceeds 1 — wait, a
        // path can alternate through distinct publications: r1 → s3 ┄→ t2
        // → s4 … Each Authored node has one dotted edge, but a simple path
        // revisits no node; the max equals the number of distinct Authored
        // tuples on the path. For this instance the max is small; assert
        // the Prop 3.10 bound holds for the seed of Example 2.8.
        let db = figure3();
        let g = DataCausalGraph::build(&db);
        let engine = crate::intervention::InterventionEngine::new(&db);
        let phi = crate::explanation::Explanation::new(vec![
            exq_relstore::Atom::eq(db.schema().attr("Author", "name").unwrap(), "JG"),
            exq_relstore::Atom::eq(db.schema().attr("Publication", "year").unwrap(), 2001),
        ]);
        let iv = engine.compute(&phi);
        let starts = DataCausalGraph::tuple_ids(&iv.seeds);
        let q = g.max_causal_length_from(&starts, 1_000_000).unwrap();
        assert!(
            iv.iterations <= 2 * q + 2,
            "iterations {} exceed 2q+2 with q={q}",
            iv.iterations
        );
    }

    #[test]
    fn footnote_9_data_cycles_despite_acyclic_schema() {
        // The running example's schema is acyclic, but the data causal
        // graph has the cycle s1 ┄→ t1 → s1.
        let db = figure3();
        let g = DataCausalGraph::build(&db);
        assert!(g.has_cycle());

        // A plain parent-child instance with a standard key and fan-out
        // has no data-level cycle.
        use exq_relstore::{SchemaBuilder, ValueType as T};
        let schema = SchemaBuilder::new()
            .relation("P", &[("id", T::Int)], &["id"])
            .relation("C", &[("id", T::Int), ("p", T::Int)], &["id"])
            .standard_fk("C", &["p"], "P")
            .build()
            .unwrap();
        let mut db = exq_relstore::Database::new(schema);
        db.insert("P", vec![1.into()]).unwrap();
        db.insert("C", vec![10.into(), 1.into()]).unwrap();
        db.insert("C", vec![11.into(), 1.into()]).unwrap();
        let g = DataCausalGraph::build(&db);
        assert!(
            !g.has_cycle(),
            "P→C edges only; no C row is necessary for P"
        );
    }

    #[test]
    fn convergence_bound_classification() {
        use exq_relstore::{SchemaBuilder, ValueType as T};
        // Running example: one back-and-forth key → unrollable in 4.
        assert_eq!(
            convergence_bound(figure3().schema()),
            ConvergenceBound::Unrollable { iterations: 4 }
        );
        // Standard keys only → two steps.
        let std_only = SchemaBuilder::new()
            .relation("A", &[("id", T::Int)], &["id"])
            .relation("B", &[("id", T::Int), ("a", T::Int)], &["id"])
            .standard_fk("B", &["a"], "A")
            .build()
            .unwrap();
        assert_eq!(convergence_bound(&std_only), ConvergenceBound::TwoSteps);
        // Example 3.7's chain schema: two back-and-forth keys on R3 →
        // recursion required.
        let chain = SchemaBuilder::new()
            .relation("R1", &[("a", T::Str)], &["a"])
            .relation("R2", &[("b", T::Str)], &["b"])
            .relation("R3", &[("c", T::Str), ("a", T::Str), ("b", T::Str)], &["c"])
            .back_and_forth_fk("R3", &["a"], "R1")
            .back_and_forth_fk("R3", &["b"], "R2")
            .build()
            .unwrap();
        assert_eq!(
            convergence_bound(&chain),
            ConvergenceBound::RequiresRecursion
        );
    }

    #[test]
    fn budget_exhaustion_returns_none() {
        let db = figure3();
        let g = DataCausalGraph::build(&db);
        let starts: Vec<TupleId> = g.nodes.clone();
        assert_eq!(g.max_causal_length_from(&starts, 0), None);
    }

    #[test]
    fn render_mentions_tuples() {
        let db = figure3();
        let g = DataCausalGraph::build(&db);
        let text = g.render(&db);
        assert!(text.contains("Author[0](A1,JG,C.edu,edu)"));
        assert!(text.contains("┄┄▶"));
    }
}
