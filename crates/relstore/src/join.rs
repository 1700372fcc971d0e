//! The universal relation `U(D) = R_1 ⋈ … ⋈ R_k`.
//!
//! All relations are joined on all foreign-key constraints (Section 2). The
//! schema's foreign-key graph is a forest, so the join is acyclic: each
//! connected component is joined along a BFS tree with hash indexes, and
//! components are cross-multiplied (a schema normally has one component).
//!
//! Universal tuples are stored as flat arrays of row indices — one `u32`
//! per relation — so no attribute values are copied; accessors project on
//! demand.

use crate::column::ColumnStore;
use crate::database::{Database, View};
use crate::dict::NO_CODE;
use crate::lookup::{LookupMap, LookupSet};
use crate::schema::DatabaseSchema;
use crate::tupleset::TupleSet;
use crate::ExecConfig;
use std::sync::{Arc, OnceLock};

/// One edge of a component's BFS join tree.
#[derive(Debug, Clone)]
pub struct TreeEdge {
    /// The relation closer to the root.
    pub parent: usize,
    /// The relation further from the root.
    pub child: usize,
    /// Join columns on the parent side.
    pub parent_cols: Vec<usize>,
    /// Join columns on the child side.
    pub child_cols: Vec<usize>,
}

/// A connected component of the foreign-key graph with its BFS join tree.
#[derive(Debug, Clone)]
pub struct Component {
    /// Relations in the component.
    pub relations: Vec<usize>,
    /// The BFS root.
    pub root: usize,
    /// Tree edges in BFS (top-down) order.
    pub edges: Vec<TreeEdge>,
}

/// Decompose the schema's foreign-key graph into components with BFS join
/// trees.
pub fn join_forest(schema: &DatabaseSchema) -> Vec<Component> {
    let adj = schema.fk_adjacency();
    let fks = schema.foreign_keys();
    let n = schema.relation_count();
    let mut seen = vec![false; n];
    let mut components = Vec::new();
    for start in 0..n {
        if seen[start] {
            continue;
        }
        seen[start] = true;
        let mut relations = vec![start];
        let mut edges = Vec::new();
        let mut queue = std::collections::VecDeque::from([start]);
        while let Some(u) = queue.pop_front() {
            for &(fk_idx, v) in &adj[u] {
                if seen[v] {
                    continue;
                }
                seen[v] = true;
                let fk = &fks[fk_idx];
                let (parent_cols, child_cols) = if fk.from_rel == u {
                    (fk.from_cols.clone(), fk.to_cols.clone())
                } else {
                    (fk.to_cols.clone(), fk.from_cols.clone())
                };
                edges.push(TreeEdge {
                    parent: u,
                    child: v,
                    parent_cols,
                    child_cols,
                });
                relations.push(v);
                queue.push_back(v);
            }
        }
        components.push(Component {
            relations,
            root: start,
            edges,
        });
    }
    components
}

/// The universal relation: a sequence of tuples, each a row index per
/// relation in schema order.
#[derive(Debug, Clone)]
pub struct Universal {
    schema: Arc<DatabaseSchema>,
    stride: usize,
    data: Vec<u32>,
    /// Per relation, [`Universal::rows_distinct`], filled on first ask.
    rows_distinct: Box<[OnceLock<bool>]>,
}

impl Universal {
    /// Compute `U` over the live rows of `view`, sequentially.
    pub fn compute(db: &Database, view: &View) -> Universal {
        Universal::compute_with(db, view, &ExecConfig::sequential())
    }

    /// [`Universal::compute`], recording into `exec`'s metrics sink. The
    /// tuple order is lexicographic in root row, then child rows.
    pub fn compute_with(db: &Database, view: &View, exec: &ExecConfig) -> Universal {
        let _span = exec.metrics().span("join");
        let schema = db.schema_arc();
        let stride = schema.relation_count();
        let components = join_forest(&schema);
        exec.metrics().incr("join.runs");
        exec.metrics()
            .add("join.components", components.len() as u64);

        // Join each component independently.
        let mut per_component: Vec<Vec<u32>> = Vec::with_capacity(components.len());
        for comp in &components {
            let tuples = join_component(db, view, comp, stride, exec);
            // Per-component output size distribution, in component order.
            exec.metrics()
                .observe("join.component_rows", (tuples.len() / stride) as u64);
            per_component.push(tuples);
        }

        // Cross product across components. If any component is empty the
        // whole universal relation is empty.
        let mut data = per_component.pop().unwrap_or_default();
        for other in per_component.into_iter().rev() {
            if data.is_empty() || other.is_empty() {
                data.clear();
                break;
            }
            let mut combined =
                Vec::with_capacity((data.len() / stride) * (other.len() / stride) * stride);
            for a in data.chunks_exact(stride) {
                for b in other.chunks_exact(stride) {
                    combined.extend(a.iter().zip(b).map(|(&x, &y)| x.min(y)));
                }
            }
            data = combined;
        }

        let u = Universal::new(schema, stride, data);
        exec.metrics().add("join.tuples", u.len() as u64);
        u
    }

    /// Delta-extend a universal relation after rows were appended to
    /// `db`: returns the universal relation a from-scratch
    /// [`Universal::compute_with`] over the current full view would
    /// produce — tuple for tuple, in the same order — plus, per
    /// relation, the set of rows appearing in at least one *new* tuple
    /// (sized to the post-append relation lengths). `old_lens[rel]` is
    /// each relation's length when `old` was computed.
    ///
    /// This is the paper's program-**P** idea run forward: instead of a
    /// deletion fixpoint, the appended rows are the seed Δ and one
    /// semi-naive round materializes every join combination that uses
    /// them. For a single-component schema the new tuples are
    /// partitioned by their *first* relation (in component order) that
    /// holds a new row: for pivot `i`, relations before `i` are
    /// restricted to their old rows, relation `i` to its new rows, and
    /// later relations are unrestricted. Each partition runs through the
    /// ordinary `join_component` machinery, so every new tuple is
    /// produced exactly once. Because the component's output order is
    /// strictly lexicographic in (root row, edge-child rows…) — a key in
    /// which every component relation appears exactly once — sorting the
    /// delta by that key and merging it with `old` (already sorted, and
    /// key-disjoint since old tuples hold no new rows) reproduces the
    /// rebuild order exactly.
    ///
    /// Note `old` may have been computed over a *reduced* view: full
    /// semijoin reduction keeps exactly the rows participating in some
    /// universal tuple, so the universal relation over the reduced view
    /// equals the one over the full view.
    ///
    /// Multi-component schemas would need per-component tuple caches to
    /// delta the cross product, so they fall back to a full recompute
    /// (the returned touched-rows sets then cover the whole projection,
    /// which is still a correct over-approximation of "new").
    pub fn extend_for_append_with(
        old: &Universal,
        db: &Database,
        old_lens: &[usize],
        exec: &ExecConfig,
    ) -> (Universal, Vec<TupleSet>) {
        let sink = exec.metrics();
        let _span = sink.span("ingest.delta_join");
        let schema = db.schema_arc();
        let stride = schema.relation_count();
        if (0..stride).all(|rel| db.relation_len(rel) == old_lens[rel]) {
            let touched = (0..stride)
                .map(|rel| TupleSet::empty(db.relation_len(rel)))
                .collect();
            return (old.clone(), touched);
        }
        let components = join_forest(&schema);
        if components.len() != 1 {
            sink.incr("ingest.delta.full_rebuilds");
            let u = Universal::compute_with(db, &db.full_view(), exec);
            let touched = (0..stride).map(|rel| u.projected_rows(db, rel)).collect();
            return (u, touched);
        }
        let comp = &components[0];

        // One join_component run per pivot relation that gained rows.
        let mut delta: Vec<u32> = Vec::new();
        for (i, &pivot) in comp.relations.iter().enumerate() {
            if db.relation_len(pivot) == old_lens[pivot] {
                continue;
            }
            let live = (0..stride)
                .map(|rel| {
                    let len = db.relation_len(rel);
                    match comp.relations.iter().position(|&r| r == rel) {
                        Some(j) if j < i => TupleSet::prefix(len, old_lens[rel]),
                        Some(j) if j == i => TupleSet::prefix(len, old_lens[rel]).complement(),
                        _ => TupleSet::full(len),
                    }
                })
                .collect();
            let view = View { live };
            delta.extend(join_component(db, &view, comp, stride, exec));
        }
        sink.add("ingest.delta.tuples", (delta.len() / stride) as u64);

        let mut touched: Vec<TupleSet> = (0..stride)
            .map(|rel| TupleSet::empty(db.relation_len(rel)))
            .collect();
        for t in delta.chunks_exact(stride) {
            for (rel, &row) in t.iter().enumerate() {
                if row != u32::MAX {
                    touched[rel].insert(row as usize);
                }
            }
        }

        // Sort the delta by the component's output key and merge with the
        // old tuples. No two tuples share a key (old/old by strictness of
        // the component order, old/delta because a delta tuple holds at
        // least one new row, delta/delta by the exactly-once partition).
        let key_slots: Vec<usize> = std::iter::once(comp.root)
            .chain(comp.edges.iter().map(|e| e.child))
            .collect();
        let key_cmp = |a: &[u32], b: &[u32]| {
            key_slots
                .iter()
                .map(|&s| a[s])
                .cmp(key_slots.iter().map(|&s| b[s]))
        };
        let mut delta_tuples: Vec<&[u32]> = delta.chunks_exact(stride).collect();
        delta_tuples.sort_unstable_by(|a, b| key_cmp(a, b));
        let mut data = Vec::with_capacity(old.data.len() + delta.len());
        let mut old_iter = old.data.chunks_exact(stride).peekable();
        let mut delta_iter = delta_tuples.into_iter().peekable();
        loop {
            match (old_iter.peek(), delta_iter.peek()) {
                (Some(a), Some(b)) => {
                    if key_cmp(a, b) == std::cmp::Ordering::Less {
                        data.extend_from_slice(old_iter.next().expect("peeked"));
                    } else {
                        data.extend_from_slice(delta_iter.next().expect("peeked"));
                    }
                }
                (Some(_), None) => data.extend_from_slice(old_iter.next().expect("peeked")),
                (None, Some(_)) => data.extend_from_slice(delta_iter.next().expect("peeked")),
                (None, None) => break,
            }
        }
        let u = Universal::new(schema, stride, data);
        (u, touched)
    }

    fn new(schema: Arc<DatabaseSchema>, stride: usize, data: Vec<u32>) -> Universal {
        Universal {
            schema,
            stride,
            data,
            rows_distinct: (0..stride).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Whether no row of relation `rel` occurs in two tuples. Walks `U`
    /// on the first ask per relation and remembers the answer: it is a
    /// fact about this `U` alone, and an epoch that changes `U` builds a
    /// new one.
    pub fn rows_distinct(&self, rel: usize) -> bool {
        *self.rows_distinct[rel].get_or_init(|| {
            let mut seen: Vec<u64> = Vec::new();
            for t in self.iter() {
                let row = t[rel] as usize;
                let (word, bit) = (row / 64, 1u64 << (row % 64));
                if word >= seen.len() {
                    seen.resize(word + 1, 0);
                }
                if seen[word] & bit != 0 {
                    return false;
                }
                seen[word] |= bit;
            }
            true
        })
    }

    /// Number of universal tuples.
    pub fn len(&self) -> usize {
        self.data.len().checked_div(self.stride).unwrap_or(0)
    }

    /// Whether there are no tuples.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The tuple at index `i`: one row index per relation.
    #[inline]
    pub fn tuple(&self, i: usize) -> &[u32] {
        &self.data[i * self.stride..(i + 1) * self.stride]
    }

    /// Iterator over tuples.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[u32]> {
        self.data.chunks_exact(self.stride.max(1))
    }

    /// `Π_{A_rel}(U)` as a row set: the rows of relation `rel` that appear
    /// in at least one universal tuple.
    pub fn projected_rows(&self, db: &Database, rel: usize) -> TupleSet {
        let mut set = TupleSet::empty(db.relation_len(rel));
        for t in self.iter() {
            set.insert(t[rel] as usize);
        }
        set
    }

    /// The schema this universal relation was computed over.
    pub fn schema(&self) -> &DatabaseSchema {
        &self.schema
    }
}

/// A per-edge probe mapping a parent row to its matching child rows.
///
/// The probe works entirely in `u32` code space: parent codes are
/// translated into the child's dictionary once per *code* (not per row),
/// and child rows are bucketed per code (single-column edges) or keyed by
/// code tuples (composite edges) — the inner probe loop never clones or
/// hashes a [`Value`](crate::value::Value). Bucket contents are pushed in
/// live-row ascending order in every variant, so the probe order — and
/// hence the universal tuple order — is identical across variants and
/// thread counts.
enum EdgeProbe<'a> {
    /// One coded join column: `buckets[child_code]` lists child rows.
    Single {
        /// Parent-side codes, per parent row.
        parent_codes: &'a [u32],
        /// Parent code → child code, or [`NO_CODE`].
        translate: Vec<u32>,
        /// Child code → live child rows, ascending.
        buckets: Vec<Vec<u32>>,
    },
    /// One coded join column, but with few live parent rows (the delta
    /// side of an incremental join): instead of translating every parent
    /// code and bucketing every child code, only the codes the live
    /// parent rows can actually present are translated, and child rows
    /// are bucketed under those parent codes directly. Build cost is
    /// O(live parents + child scan), not O(dictionaries).
    SingleSparse {
        /// Parent-side codes, per parent row.
        parent_codes: &'a [u32],
        /// Parent code → live child rows, ascending; codes no live
        /// parent row holds are simply absent.
        buckets: LookupMap<u32, Vec<u32>>,
    },
    /// Composite coded join columns: child rows keyed by code tuples.
    Multi {
        /// Per join column: parent-side codes per parent row.
        parent_codes: Vec<&'a [u32]>,
        /// Per join column: parent code → child code, or [`NO_CODE`].
        translations: Vec<Vec<u32>>,
        /// Child code tuple → live child rows, ascending.
        map: LookupMap<Box<[u32]>, Vec<u32>>,
    },
}

impl EdgeProbe<'_> {
    /// Build the probe for `edge` over the live child rows of `view`.
    fn build<'a>(store: &'a ColumnStore, view: &View, edge: &TreeEdge) -> EdgeProbe<'a> {
        let parent = store.dict_columns(edge.parent, &edge.parent_cols);
        let child = store.dict_columns(edge.child, &edge.child_cols);
        if let ([(parent_codes, pdict)], [(child_codes, cdict)]) = (&parent[..], &child[..]) {
            // When few parent rows are live — the delta partitions of
            // [`Universal::extend_for_append_with`] — the full per-code
            // translation table and per-code bucket vector would dwarf
            // the probe itself; translate only the codes those rows
            // hold. Both variants bucket child rows in live-row
            // ascending order, so the choice (a function of the view
            // alone) never changes the output.
            let parent_live = view.live(edge.parent).count();
            if parent_live * 16 <= pdict.len() {
                let mut translated: LookupSet<u32> = LookupSet::with_capacity(parent_live);
                let mut child_to_parent: LookupMap<u32, u32> =
                    LookupMap::with_capacity(parent_live);
                for row in view.live(edge.parent).iter() {
                    let pc = parent_codes[row];
                    if translated.insert(pc) {
                        if let Some(cc) = cdict.code(pdict.value(pc)) {
                            child_to_parent.insert(cc, pc);
                        }
                    }
                }
                let mut buckets: LookupMap<u32, Vec<u32>> =
                    LookupMap::with_capacity(child_to_parent.len());
                for row in view.live(edge.child).iter() {
                    if let Some(&pc) = child_to_parent.get(&child_codes[row]) {
                        buckets.entry(pc).or_default().push(row as u32);
                    }
                }
                return EdgeProbe::SingleSparse {
                    parent_codes,
                    buckets,
                };
            }
            let translate = pdict.translate_to(cdict);
            let mut buckets = vec![Vec::new(); cdict.len()];
            for row in view.live(edge.child).iter() {
                buckets[child_codes[row] as usize].push(row as u32);
            }
            return EdgeProbe::Single {
                parent_codes,
                translate,
                buckets,
            };
        }
        let translations = parent
            .iter()
            .zip(&child)
            .map(|(&(_, pd), &(_, cd))| pd.translate_to(cd))
            .collect();
        let parent_codes = parent.iter().map(|&(codes, _)| codes).collect();
        let mut map: LookupMap<Box<[u32]>, Vec<u32>> = LookupMap::new();
        let mut key: Vec<u32> = Vec::with_capacity(child.len());
        for row in view.live(edge.child).iter() {
            key.clear();
            key.extend(child.iter().map(|&(codes, _)| codes[row]));
            map.entry(key.as_slice().into())
                .or_default()
                .push(row as u32);
        }
        EdgeProbe::Multi {
            parent_codes,
            translations,
            map,
        }
    }

    /// The live child rows matching `parent_row`, in ascending order.
    /// `ckey` is a reusable scratch buffer for the `Multi` variant.
    #[inline]
    fn child_rows<'s>(&'s self, parent_row: usize, ckey: &mut Vec<u32>) -> &'s [u32] {
        match self {
            EdgeProbe::Single {
                parent_codes,
                translate,
                buckets,
            } => {
                let code = translate[parent_codes[parent_row] as usize];
                if code == NO_CODE {
                    &[]
                } else {
                    &buckets[code as usize]
                }
            }
            EdgeProbe::SingleSparse {
                parent_codes,
                buckets,
            } => buckets
                .get(&parent_codes[parent_row])
                .map_or(&[][..], Vec::as_slice),
            EdgeProbe::Multi {
                parent_codes,
                translations,
                map,
            } => {
                ckey.clear();
                for (codes, translate) in parent_codes.iter().zip(translations) {
                    let code = translate[codes[parent_row] as usize];
                    if code == NO_CODE {
                        return &[];
                    }
                    ckey.push(code);
                }
                map.get(ckey.as_slice()).map_or(&[][..], Vec::as_slice)
            }
        }
    }
}

/// Join one component along its BFS tree; returns flat tuples of `stride`
/// row indices where slots outside the component hold `u32::MAX`.
///
/// The output order is lexicographic in (root row, first-edge child row,
/// second-edge child row, …), a property of the *input* alone.
fn join_component(
    db: &Database,
    view: &View,
    comp: &Component,
    stride: usize,
    exec: &ExecConfig,
) -> Vec<u32> {
    let roots: Vec<u32> = view.live(comp.root).iter().map(|row| row as u32).collect();

    // `build_rows` counts the rows *entering* each edge's probe
    // structure as a function of the view alone, regardless of which
    // probe variant the edge's columns allow.
    let sink = exec.metrics();
    sink.add("join.root_rows", roots.len() as u64);
    sink.add(
        "join.build_rows",
        comp.edges
            .iter()
            .map(|e| view.live(e.child).count() as u64)
            .sum(),
    );

    // Build each edge's probe once, up front.
    let store = Arc::clone(db.columns());
    let probes: Vec<EdgeProbe<'_>> = comp
        .edges
        .iter()
        .map(|e| EdgeProbe::build(&store, view, e))
        .collect();
    let data = expand_roots(comp, stride, &roots, &probes);
    sink.add("join.probe_matches", (data.len() / stride.max(1)) as u64);
    data
}

/// Expand the root rows through every edge of the component, against
/// the prebuilt per-edge probes.
fn expand_roots(
    comp: &Component,
    stride: usize,
    roots: &[u32],
    probes: &[EdgeProbe<'_>],
) -> Vec<u32> {
    let mut partials: Vec<u32> = Vec::with_capacity(roots.len() * stride);
    for &row in roots {
        let base = partials.len();
        partials.resize(base + stride, u32::MAX);
        partials[base + comp.root] = row;
    }

    let mut ckey: Vec<u32> = Vec::new();
    for (edge, probe) in comp.edges.iter().zip(probes) {
        if partials.is_empty() {
            break;
        }
        let mut next: Vec<u32> = Vec::with_capacity(partials.len());
        for t in partials.chunks_exact(stride) {
            for &child_row in probe.child_rows(t[edge.parent] as usize, &mut ckey) {
                let base = next.len();
                next.extend_from_slice(t);
                next[base + edge.child] = child_row;
            }
        }
        partials = next;
    }
    partials
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::SchemaBuilder;
    use crate::value::{Value, ValueType as T};

    /// The Figure 3 instance of the running example.
    fn figure3_db() -> Database {
        let schema = SchemaBuilder::new()
            .relation(
                "Author",
                &[
                    ("id", T::Str),
                    ("name", T::Str),
                    ("inst", T::Str),
                    ("dom", T::Str),
                ],
                &["id"],
            )
            .relation(
                "Authored",
                &[("id", T::Str), ("pubid", T::Str)],
                &["id", "pubid"],
            )
            .relation(
                "Publication",
                &[("pubid", T::Str), ("year", T::Int), ("venue", T::Str)],
                &["pubid"],
            )
            .standard_fk("Authored", &["id"], "Author")
            .back_and_forth_fk("Authored", &["pubid"], "Publication")
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        for (id, name, inst, dom) in [
            ("A1", "JG", "C.edu", "edu"),
            ("A2", "RR", "M.com", "com"),
            ("A3", "CM", "I.com", "com"),
        ] {
            db.insert(
                "Author",
                vec![id.into(), name.into(), inst.into(), dom.into()],
            )
            .unwrap();
        }
        for (id, pubid) in [
            ("A1", "P1"),
            ("A2", "P1"),
            ("A1", "P2"),
            ("A3", "P2"),
            ("A2", "P3"),
            ("A3", "P3"),
        ] {
            db.insert("Authored", vec![id.into(), pubid.into()])
                .unwrap();
        }
        for (pubid, year, venue) in [
            ("P1", 2001, "SIGMOD"),
            ("P2", 2011, "VLDB"),
            ("P3", 2001, "SIGMOD"),
        ] {
            db.insert("Publication", vec![pubid.into(), year.into(), venue.into()])
                .unwrap();
        }
        db.validate().unwrap();
        db
    }

    #[test]
    fn join_forest_of_running_example() {
        let db = figure3_db();
        let forest = join_forest(db.schema());
        assert_eq!(forest.len(), 1);
        let comp = &forest[0];
        assert_eq!(comp.relations.len(), 3);
        assert_eq!(comp.edges.len(), 2);
    }

    #[test]
    fn universal_matches_figure4() {
        // Figure 4: six universal tuples u1..u6.
        let db = figure3_db();
        let u = Universal::compute(&db, &db.full_view());
        assert_eq!(u.len(), 6);

        // Each tuple must be join-consistent: Authored.id = Author.id and
        // Authored.pubid = Publication.pubid.
        let author = db.schema().relation_index("Author").unwrap();
        let authored = db.schema().relation_index("Authored").unwrap();
        let publication = db.schema().relation_index("Publication").unwrap();
        for t in u.iter() {
            let a = db.relation(author).row(t[author] as usize);
            let ad = db.relation(authored).row(t[authored] as usize);
            let p = db.relation(publication).row(t[publication] as usize);
            assert_eq!(a[0], ad[0]);
            assert_eq!(ad[1], p[0]);
        }

        // Every base tuple appears (the instance is semijoin-reduced).
        for rel in [author, authored, publication] {
            assert_eq!(u.projected_rows(&db, rel).count(), db.relation_len(rel));
        }
    }

    #[test]
    fn universal_on_restricted_view() {
        let db = figure3_db();
        let mut view = db.full_view();
        // Remove publication P1 (row 0): u1, u2 disappear.
        let publication = db.schema().relation_index("Publication").unwrap();
        view.live[publication].remove(0);
        let u = Universal::compute(&db, &view);
        assert_eq!(u.len(), 4);
        // Authored rows s1 (A1,P1) and s2 (A2,P1) are now dangling.
        let authored = db.schema().relation_index("Authored").unwrap();
        let rows = u.projected_rows(&db, authored);
        assert!(!rows.contains(0) && !rows.contains(1));
        assert_eq!(rows.count(), 4);
    }

    #[test]
    fn empty_relation_empties_universal() {
        let db = figure3_db();
        let mut view = db.full_view();
        view.live[0].clear();
        let u = Universal::compute(&db, &view);
        assert!(u.is_empty());
        assert_eq!(u.len(), 0);
    }

    #[test]
    fn cross_product_of_disconnected_components() {
        let schema = SchemaBuilder::new()
            .relation("A", &[("x", T::Int)], &["x"])
            .relation("B", &[("y", T::Int)], &["y"])
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        db.insert("A", vec![1.into()]).unwrap();
        db.insert("A", vec![2.into()]).unwrap();
        db.insert("B", vec![10.into()]).unwrap();
        db.insert("B", vec![20.into()]).unwrap();
        db.insert("B", vec![30.into()]).unwrap();
        let u = Universal::compute(&db, &db.full_view());
        assert_eq!(u.len(), 6);
        let mut pairs: Vec<(u32, u32)> = u.iter().map(|t| (t[0], t[1])).collect();
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]);
    }

    #[test]
    fn disconnected_with_one_empty_component_is_empty() {
        let schema = SchemaBuilder::new()
            .relation("A", &[("x", T::Int)], &["x"])
            .relation("B", &[("y", T::Int)], &["y"])
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        db.insert("A", vec![1.into()]).unwrap();
        let u = Universal::compute(&db, &db.full_view());
        assert!(u.is_empty());
    }

    #[test]
    fn parallel_universal_matches_sequential() {
        // Many root rows with uneven fan-out.
        let schema = SchemaBuilder::new()
            .relation("P", &[("id", T::Int)], &["id"])
            .relation("C", &[("id", T::Int), ("p", T::Int)], &["id"])
            .standard_fk("C", &["p"], "P")
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        for i in 0..1500i64 {
            db.insert("P", vec![i.into()]).unwrap();
        }
        let mut cid = 0i64;
        for i in 0..1500i64 {
            for _ in 0..(i % 4) {
                db.insert("C", vec![cid.into(), i.into()]).unwrap();
                cid += 1;
            }
        }
        let view = db.full_view();
        let sequential = Universal::compute(&db, &view);
        assert!(!sequential.is_empty());
        for threads in [2, 3, 7, 16] {
            let exec = ExecConfig::with_threads(threads);
            let parallel = Universal::compute_with(&db, &view, &exec);
            assert_eq!(sequential.len(), parallel.len(), "threads = {threads}");
            assert!(
                sequential.iter().eq(parallel.iter()),
                "tuple order must be identical at {threads} threads"
            );
        }
    }

    /// Extend `old` over the appended rows and assert tuple-for-tuple
    /// equality with a from-scratch recompute, at several thread counts.
    fn assert_extend_matches_rebuild(db: &Database, old: &Universal, old_lens: &[usize]) {
        let rebuilt = Universal::compute(db, &db.full_view());
        let (seq, touched) =
            Universal::extend_for_append_with(old, db, old_lens, &ExecConfig::sequential());
        assert_eq!(seq.len(), rebuilt.len(), "tuple count");
        assert!(
            seq.iter().eq(rebuilt.iter()),
            "tuple order must match rebuild"
        );
        // Touched rows cover exactly the rows gaining new tuples (or the
        // whole projection on the fallback path) — either way a subset of
        // the rebuild's projection.
        for (rel, rows) in touched.iter().enumerate() {
            assert!(
                rows.is_subset(&rebuilt.projected_rows(db, rel)),
                "rel {rel}"
            );
        }
        for threads in [2, 7] {
            let exec = ExecConfig::with_threads(threads);
            let (par, par_touched) = Universal::extend_for_append_with(old, db, old_lens, &exec);
            assert!(par.iter().eq(rebuilt.iter()), "threads = {threads}");
            assert_eq!(par_touched, touched, "touched rows at {threads} threads");
        }
    }

    #[test]
    fn extend_for_append_matches_rebuild_on_running_example() {
        let mut db = figure3_db();
        let old = Universal::compute(&db, &db.full_view());
        let old_lens = vec![3, 6, 3];
        // New author, new publication, and new Authored edges touching
        // both old and new rows — every pivot position gains rows.
        db.append_batch(vec![
            (
                "Author".into(),
                vec![vec!["A4".into(), "XY".into(), "C.edu".into(), "edu".into()]],
            ),
            (
                "Publication".into(),
                vec![vec!["P4".into(), 2013.into(), "SIGMOD".into()]],
            ),
            (
                "Authored".into(),
                vec![
                    vec!["A4".into(), "P4".into()],
                    vec!["A1".into(), "P4".into()],
                    vec!["A4".into(), "P1".into()],
                ],
            ),
        ])
        .unwrap();
        assert_extend_matches_rebuild(&db, &old, &old_lens);
    }

    #[test]
    fn extend_for_append_from_reduced_view_matches_rebuild() {
        // `PreparedDb` computes the universal relation over the reduced
        // view; parity must hold from that starting point too.
        let mut db = figure3_db();
        // A dangling author (no publications) so reduction actually drops.
        db.insert(
            "Author",
            vec!["A9".into(), "ZZ".into(), "Z.org".into(), "org".into()],
        )
        .unwrap();
        let reduced = crate::semijoin::reduce(&db, &db.full_view());
        let old = Universal::compute(&db, &reduced);
        let old_lens = vec![4, 6, 3];
        db.append_batch(vec![(
            "Authored".into(),
            vec![vec!["A9".into(), "P2".into()]],
        )])
        .unwrap();
        assert_extend_matches_rebuild(&db, &old, &old_lens);
    }

    #[test]
    fn extend_for_append_single_relation() {
        let schema = SchemaBuilder::new()
            .relation("R", &[("a", T::Int)], &["a"])
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        for i in 0..5 {
            db.insert("R", vec![Value::Int(i)]).unwrap();
        }
        let old = Universal::compute(&db, &db.full_view());
        db.append_batch(vec![(
            "R".into(),
            vec![vec![Value::Int(7)], vec![Value::Int(9)]],
        )])
        .unwrap();
        assert_extend_matches_rebuild(&db, &old, &[5]);
    }

    #[test]
    fn extend_for_append_with_no_new_rows_is_identity() {
        let db = figure3_db();
        let old = Universal::compute(&db, &db.full_view());
        let (same, touched) =
            Universal::extend_for_append_with(&old, &db, &[3, 6, 3], &ExecConfig::sequential());
        assert!(same.iter().eq(old.iter()));
        assert!(touched.iter().all(TupleSet::is_empty));
    }

    #[test]
    fn extend_for_append_multi_component_falls_back() {
        let schema = SchemaBuilder::new()
            .relation("A", &[("x", T::Int)], &["x"])
            .relation("B", &[("y", T::Int)], &["y"])
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        db.insert("A", vec![1.into()]).unwrap();
        db.insert("B", vec![10.into()]).unwrap();
        let old = Universal::compute(&db, &db.full_view());
        db.append_batch(vec![
            ("A".into(), vec![vec![2.into()]]),
            ("B".into(), vec![vec![20.into()]]),
        ])
        .unwrap();
        assert_extend_matches_rebuild(&db, &old, &[1, 1]);
    }

    #[test]
    fn single_relation_universal_is_identity() {
        let schema = SchemaBuilder::new()
            .relation("R", &[("a", T::Int)], &["a"])
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        for i in 0..5 {
            db.insert("R", vec![Value::Int(i)]).unwrap();
        }
        let u = Universal::compute(&db, &db.full_view());
        assert_eq!(u.len(), 5);
        let rows: Vec<u32> = u.iter().map(|t| t[0]).collect();
        assert_eq!(rows, vec![0, 1, 2, 3, 4]);
    }
}
