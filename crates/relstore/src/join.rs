//! The universal relation `U(D) = R_1 ⋈ … ⋈ R_k`.
//!
//! All relations are joined on all foreign-key constraints (Section 2). The
//! schema's foreign-key graph is a forest, so the join is acyclic: each
//! connected component is joined along a BFS tree, one edge at a time,
//! and components are cross-multiplied (a schema normally has one
//! component). An edge's two key columns share one dictionary, so its
//! keys meet in `u32` code space without translating, in one place
//! (`KeyMatch`), which the semijoin reducer and [`referenced_rows`] share.
//!
//! Universal tuples are stored as flat arrays of row indices — one `u32`
//! per relation — so no attribute values are copied; accessors project on
//! demand.

use crate::column::ColumnStore;
use crate::database::{Database, View};
use crate::dict::{Dict, NO_CODE};
use crate::lookup::LookupMap;
use crate::schema::{DatabaseSchema, ForeignKey};
use crate::tupleset::TupleSet;
use crate::ExecConfig;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// One edge of a component's BFS join tree.
#[derive(Debug, Clone, PartialEq, Eq)]
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

impl Component {
    /// The component's tree edges re-rooted at `root`: each oriented away
    /// from it, in BFS order, so an edge's parent is reached before it.
    /// Rooted at [`Component::root`], these are [`Component::edges`].
    pub fn rooted_at(&self, root: usize) -> Vec<TreeEdge> {
        rooted(&self.edges, root)
    }
}

/// The edges of `edges` reachable from `root`, each oriented away from
/// it, in BFS order with ties in `edges` order.
fn rooted(edges: &[TreeEdge], root: usize) -> Vec<TreeEdge> {
    let mut reached = vec![root];
    let mut tree = Vec::new();
    let mut next = 0;
    while let Some(&u) = reached.get(next) {
        next += 1;
        for e in edges {
            let outward = if e.parent == u && !reached.contains(&e.child) {
                e.clone()
            } else if e.child == u && !reached.contains(&e.parent) {
                TreeEdge {
                    parent: e.child,
                    child: e.parent,
                    parent_cols: e.child_cols.clone(),
                    child_cols: e.parent_cols.clone(),
                }
            } else {
                continue;
            };
            reached.push(outward.child);
            tree.push(outward);
        }
    }
    tree
}

/// Decompose the schema's foreign-key graph into components with BFS join
/// trees, each rooted at its first relation and explored in foreign-key
/// order.
pub fn join_forest(schema: &DatabaseSchema) -> Vec<Component> {
    let fks: Vec<TreeEdge> = schema
        .foreign_keys()
        .iter()
        .map(|fk| TreeEdge {
            parent: fk.from_rel,
            child: fk.to_rel,
            parent_cols: fk.from_cols.clone(),
            child_cols: fk.to_cols.clone(),
        })
        .collect();
    let mut seen = vec![false; schema.relation_count()];
    let mut components = Vec::new();
    for root in 0..seen.len() {
        if seen[root] {
            continue;
        }
        let edges = rooted(&fks, root);
        let relations: Vec<usize> = std::iter::once(root)
            .chain(edges.iter().map(|e| e.child))
            .collect();
        for &rel in &relations {
            seen[rel] = true;
        }
        components.push(Component {
            relations,
            root,
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

        // Join each component independently, from its root over the live
        // rows.
        let store = Arc::clone(db.columns());
        let rows: Vec<Rows<'_>> = view.live.iter().map(Rows::Live).collect();
        let mut per_component: Vec<Vec<u32>> = Vec::with_capacity(components.len());
        for comp in &components {
            let tuples = join_from_pivot(&store, comp, comp.root, &rows, stride, exec);
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
    /// later relations are unrestricted, so every new tuple is produced
    /// exactly once. Any relation of an acyclic join tree can root it
    /// (Yannakakis, VLDB 1981), so each partition joins along the tree
    /// re-rooted at its pivot: the roots are the pivot's new rows, and
    /// each edge matches only the keys the partial tuples reaching it
    /// hold, which costs O(delta + the scanned code columns), not a join
    /// of every relation. Because a rebuild's output order is strictly
    /// lexicographic in (root row, edge-child rows…) — a key in which
    /// every component relation appears exactly once — sorting the delta
    /// by that key and merging it with `old`
    /// (already sorted, and key-disjoint since old tuples hold no new
    /// rows) reproduces the rebuild order exactly.
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
        let store = Arc::clone(db.columns());

        // One pivot-rooted join per relation that gained rows.
        let mut delta: Vec<u32> = Vec::new();
        for (i, &pivot) in comp.relations.iter().enumerate() {
            if db.relation_len(pivot) == old_lens[pivot] {
                continue;
            }
            let rows: Vec<Rows<'_>> = (0..stride)
                .map(|rel| {
                    let len = db.relation_len(rel);
                    Rows::Range(match comp.relations.iter().position(|&r| r == rel) {
                        Some(j) if j < i => 0..old_lens[rel],
                        Some(j) if j == i => old_lens[rel]..len,
                        _ => 0..len,
                    })
                })
                .collect();
            delta.extend(join_from_pivot(&store, comp, pivot, &rows, stride, exec));
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

        // Sort the delta by the key a rebuild emits tuples in (original
        // root row, then edge-child rows) and merge with the old tuples.
        // No two tuples share a key (old/old by strictness of the
        // component order, old/delta because a delta tuple holds at least
        // one new row, delta/delta by the exactly-once partition).
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

    /// Relation `rel`'s row of every tuple, in tuple order.
    pub(crate) fn column(&self, rel: usize) -> impl Iterator<Item = u32> + '_ {
        self.data
            .get(rel..)
            .unwrap_or_default()
            .iter()
            .step_by(self.stride.max(1))
            .copied()
    }

    /// The tuples at `positions`: for those that keep all their rows
    /// after a deletion `Δ`, `U(D − Δ)` exactly, with no join.
    pub fn select(&self, positions: impl Iterator<Item = usize>) -> Universal {
        let mut data = Vec::new();
        for i in positions {
            data.extend_from_slice(self.tuple(i));
        }
        Universal::new(Arc::clone(&self.schema), self.stride, data)
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

/// The rows a relation contributes to a join: a view's live set, or one
/// row range of a delta partition.
enum Rows<'a> {
    Live(&'a TupleSet),
    Range(Range<usize>),
}

impl Rows<'_> {
    fn len(&self) -> usize {
        match self {
            Rows::Live(live) => live.count(),
            Rows::Range(range) => range.len(),
        }
    }
}

/// Join one component along its tree rooted at `pivot`. `rows[rel]` is
/// what relation `rel` contributes; the roots are `rows[pivot]`. Slots
/// outside the component hold `u32::MAX`.
///
/// The output is lexicographic in (root row, edge-child rows…) along the
/// rooted tree. Rooted at the component's own root that is the rebuild
/// order, as `comp.rooted_at(comp.root)` is `comp.edges`; a delta
/// partition rooted elsewhere is re-sorted by its caller.
fn join_from_pivot(
    store: &ColumnStore,
    comp: &Component,
    pivot: usize,
    rows: &[Rows<'_>],
    stride: usize,
    exec: &ExecConfig,
) -> Vec<u32> {
    let edges = comp.rooted_at(pivot);
    // Counted from the inputs alone: each edge's child rows are scanned
    // into its key match unless an earlier edge already emptied the join.
    let sink = exec.metrics();
    let roots = rows[pivot].len();
    sink.add("join.root_rows", roots as u64);
    sink.add(
        "join.build_rows",
        edges.iter().map(|e| rows[e.child].len() as u64).sum(),
    );
    let mut partials: Vec<u32> = Vec::with_capacity(roots * stride);
    let mut add_root = |row: usize| {
        let base = partials.len();
        partials.resize(base + stride, u32::MAX);
        partials[base + pivot] = row as u32;
    };
    match &rows[pivot] {
        Rows::Live(live) => live.iter().for_each(&mut add_root),
        Rows::Range(range) => range.clone().for_each(add_root),
    }
    for edge in &edges {
        if partials.is_empty() {
            break;
        }
        let parents = partials
            .chunks_exact(stride)
            .map(|t| t[edge.parent] as usize);
        let parent_key = store.dict_columns(edge.parent, &edge.parent_cols);
        let child_key = store.dict_columns(edge.child, &edge.child_cols);
        let key = KeyMatch::new(&parent_key, parents.clone());
        let buckets = match &rows[edge.child] {
            Rows::Live(live) => key.buckets(&child_key, live.iter()),
            Rows::Range(range) => key.buckets(&child_key, range.clone()),
        };
        let mut next: Vec<u32> = Vec::with_capacity(partials.len());
        let mut tuples = partials.chunks_exact(stride);
        key.each(&parent_key, parents, |_, slot| {
            let t = tuples.next().expect("one tuple per parent row");
            for &child_row in buckets.get(slot) {
                let base = next.len();
                next.extend_from_slice(t);
                next[base + edge.child] = child_row;
            }
        });
        partials = next;
    }
    sink.add("join.probe_matches", (partials.len() / stride) as u64);
    partials
}

/// Per row of `fk`'s referencing relation, the first row of the
/// referenced relation whose key equals its foreign key, or `u32::MAX`
/// when none does. Keys are matched as the join matches them.
pub fn referenced_rows(db: &Database, fk: &ForeignKey) -> Vec<u32> {
    let store = db.columns();
    let from = 0..db.relation_len(fk.from_rel);
    let from_key = store.dict_columns(fk.from_rel, &fk.from_cols);
    let key = KeyMatch::new(&from_key, from.clone());
    let to_key = store.dict_columns(fk.to_rel, &fk.to_cols);
    let buckets = key.buckets(&to_key, 0..db.relation_len(fk.to_rel));
    let mut map = Vec::with_capacity(from.len());
    key.each(&from_key, from, |_, slot| {
        map.push(buckets.get(slot).first().copied().unwrap_or(u32::MAX));
    });
    map
}

/// The key columns of one side of a foreign-key edge, as
/// [`ColumnStore::dict_columns`] gives them: per column, its codes and
/// its key class's dictionary.
pub(crate) type Key<'a> = [(&'a [u32], &'a Dict)];

/// Where one foreign-key edge's keys meet in code space, for the join,
/// the semijoin and [`referenced_rows`] alike.
///
/// The two sides of an edge share their key classes' dictionaries, so a
/// value has one code on both. The match is built from the parent rows
/// that reach the edge: every distinct key they hold gets a slot. Any
/// row's slot — a parent's or a child's, read the same way — is then read
/// back, [`NO_CODE`] when no parent row holds its key. NULL and
/// `Int`/`Float` equality are exactly what the dictionary says. The
/// key's shape is matched once per call, never once per row.
pub(crate) struct KeyMatch {
    /// Number of slots: the distinct keys the parent rows hold.
    slots: usize,
    shape: KeyShape,
}

/// For one key column, a code-indexed slot table; for a composite key,
/// a map from the parent rows' code tuples to slots.
enum KeyShape {
    Dense(Vec<u32>),
    Tuples(LookupMap<Box<[u32]>, u32>),
}

/// Each slot's child rows, ascending, in one counting-sort layout: slot
/// `s` holds `rows[start[s]..start[s + 1]]`.
struct Buckets {
    start: Vec<u32>,
    rows: Vec<u32>,
}

impl Buckets {
    /// The rows of `slot`; none for [`NO_CODE`].
    #[inline]
    fn get(&self, slot: u32) -> &[u32] {
        if slot == NO_CODE {
            return &[];
        }
        let s = slot as usize;
        &self.rows[self.start[s] as usize..self.start[s + 1] as usize]
    }
}

impl KeyMatch {
    /// The match of the keys `parent_rows` hold in `parent`.
    pub(crate) fn new(parent: &Key<'_>, parent_rows: impl Iterator<Item = usize>) -> KeyMatch {
        if let [(codes, dict)] = parent {
            let mut slot = vec![NO_CODE; dict.len()];
            let mut slots = 0;
            for row in parent_rows {
                let s = &mut slot[codes[row] as usize];
                if *s == NO_CODE {
                    *s = slots;
                    slots += 1;
                }
            }
            return KeyMatch {
                slots: slots as usize,
                shape: KeyShape::Dense(slot),
            };
        }
        let mut slot: LookupMap<Box<[u32]>, u32> = LookupMap::new();
        let mut key = Vec::with_capacity(parent.len());
        for row in parent_rows {
            key.clear();
            key.extend(parent.iter().map(|(codes, _)| codes[row]));
            if !slot.contains_key(key.as_slice()) {
                slot.insert(key.as_slice().into(), slot.len() as u32);
            }
        }
        KeyMatch {
            slots: slot.len(),
            shape: KeyShape::Tuples(slot),
        }
    }

    /// Call `f(row, slot)` for each row of `rows`, whose keys are in
    /// `key`, in order.
    pub(crate) fn each(
        &self,
        key: &Key<'_>,
        rows: impl Iterator<Item = usize>,
        mut f: impl FnMut(usize, u32),
    ) {
        match &self.shape {
            KeyShape::Dense(slot) => {
                let codes = key[0].0;
                for row in rows {
                    f(row, slot[codes[row] as usize]);
                }
            }
            KeyShape::Tuples(slot) => {
                let mut probe = Vec::with_capacity(key.len());
                for row in rows {
                    probe.clear();
                    probe.extend(key.iter().map(|(codes, _)| codes[row]));
                    f(row, slot.get(probe.as_slice()).copied().unwrap_or(NO_CODE));
                }
            }
        }
    }

    /// The rows of `rows`, whose keys are in `key`, per slot: a count
    /// pass sizes each slot and keeps the rows that have one, a place
    /// pass files them in row order.
    fn buckets(&self, key: &Key<'_>, rows: impl Iterator<Item = usize>) -> Buckets {
        let mut hits: Vec<(u32, u32)> = Vec::new();
        let mut start = vec![0u32; self.slots + 1];
        self.each(key, rows, |row, slot| {
            if slot != NO_CODE {
                start[slot as usize + 1] += 1;
                hits.push((row as u32, slot));
            }
        });
        for s in 1..start.len() {
            start[s] += start[s - 1];
        }
        // Placing a row advances its slot's start to the next slot's, so
        // shifting the array one place afterwards restores the starts.
        let mut placed = vec![0u32; hits.len()];
        for (row, slot) in hits {
            let at = &mut start[slot as usize];
            placed[*at as usize] = row;
            *at += 1;
        }
        start.rotate_right(1);
        start[0] = 0;
        Buckets {
            start,
            rows: placed,
        }
    }
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

    /// A composite key matched from the referenced side: every key the
    /// parent rows hold takes a slot, and a child key is read back
    /// through the same code-tuple map — a child key that matches a
    /// parent key on one column only gets none.
    #[test]
    fn composite_key_match_reads_one_code_tuple_map_from_both_sides() {
        let schema = SchemaBuilder::new()
            .relation("Dept", &[("org", T::Str), ("dno", T::Int)], &["org", "dno"])
            .relation(
                "Emp",
                &[("eid", T::Int), ("org", T::Str), ("dno", T::Int)],
                &["eid"],
            )
            .standard_fk("Emp", &["org", "dno"], "Dept")
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        for (org, dno) in [("a", 1), ("a", 2), ("b", 1), ("c", 3)] {
            db.insert("Dept", vec![org.into(), dno.into()]).unwrap();
        }
        for (eid, org, dno) in [(1, "b", 1), (2, "a", 1), (3, "b", 1), (4, "a", 3)] {
            db.insert("Emp", vec![eid.into(), org.into(), dno.into()])
                .unwrap();
        }
        let store = db.columns();
        let (dept, emp) = (
            store.dict_columns(0, &[0, 1]),
            store.dict_columns(1, &[1, 2]),
        );
        for ((_, d), (_, e)) in dept.iter().zip(&emp) {
            assert!(
                std::ptr::eq(*d, *e),
                "an edge's columns share one dictionary"
            );
        }
        let key = KeyMatch::new(&dept, 0..4);
        assert_eq!(key.slots, 4);
        let slots_of = |side: &Key<'_>, rows| {
            let mut slots = Vec::new();
            key.each(side, rows, |_, slot| slots.push(slot));
            slots
        };
        assert_eq!(slots_of(&dept, 0..4), vec![0, 1, 2, 3]);
        assert_eq!(slots_of(&emp, 0..4), vec![2, 0, 2, NO_CODE]);
        let buckets = key.buckets(&emp, 0..4);
        let per_slot: Vec<&[u32]> = (0..4).map(|slot| buckets.get(slot)).collect();
        assert_eq!(per_slot, vec![&[1][..], &[], &[0, 2], &[]]);
        assert!(buckets.get(NO_CODE).is_empty());
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
