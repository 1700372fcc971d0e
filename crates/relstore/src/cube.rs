//! The data-cube operator (`GROUP BY … WITH CUBE`).
//!
//! Given dimensions `A' = (A_1, …, A_d)` and an aggregate, the cube holds
//! one cell per observed combination of dimension values *for every subset
//! of the dimensions*, with `Value::Null` in the "don't care" coordinates —
//! exactly SQL Server's `WITH CUBE` that Section 4 of the paper builds
//! Algorithm 1 on. Each cube row *is* a candidate explanation: the
//! conjunction of equalities on its non-null coordinates.
//!
//! Two strategies are provided (and ablation-benched against each other):
//!
//! * [`CubeStrategy::SubsetEnumeration`] — every input tuple updates all
//!   `2^d` cells it belongs to. Simple; cost `O(|U| · 2^d)` hash updates.
//! * [`CubeStrategy::LatticeRollup`] — group into finest-level cells first,
//!   then roll cells up the lattice level by level; each cell is touched
//!   once per parent. Cost `O(|U| + Σ_cells)`; wins when `|U| ≫ #cells`
//!   (low-cardinality dimensions, the natality setting).
//!
//! The engine's kernel ([`compute_coded_at`]) groups a given list of
//! universal positions — the tuples a selection kept, which Algorithm 1's
//! first pass has already found — so it never evaluates a predicate. A
//! cell key is a tuple of dictionary codes in one flat
//! [`CodeTuples`] arena, with the cell's aggregate state beside it: no key
//! costs an allocation. [`compute_rows_with`] keeps the same algorithm on
//! cloned `Value` coordinates in hash maps, as the oracle the differential
//! tests compare the kernel with.
//!
//! ```
//! use exq_relstore::aggregate::AggFunc;
//! use exq_relstore::cube::{compute, CubeStrategy};
//! use exq_relstore::{Database, Predicate, SchemaBuilder, Universal, Value, ValueType};
//!
//! let schema = SchemaBuilder::new()
//!     .relation("R", &[("id", ValueType::Int), ("g", ValueType::Str)], &["id"])
//!     .build()?;
//! let mut db = Database::new(schema);
//! for (i, g) in ["a", "a", "b"].iter().enumerate() {
//!     db.insert("R", vec![(i as i64).into(), (*g).into()])?;
//! }
//! let u = Universal::compute(&db, &db.full_view());
//! let g = db.schema().attr("R", "g")?;
//! let cube = compute(&db, &u, &Predicate::True, &[g], &AggFunc::CountStar, CubeStrategy::Auto)?;
//! assert_eq!(cube.get(&[Value::str("a")]), Some(2.0));
//! assert_eq!(cube.grand_total(), Some(3.0));
//! # Ok::<(), exq_relstore::Error>(())
//! ```

use crate::aggregate::{self, AggFunc, AggState};
use crate::column::ColumnStore;
use crate::database::Database;
use crate::dict::{CodeTuples, Dict, NO_CODE};
use crate::error::{Error, Result};
use crate::join::Universal;
use crate::lookup::LookupMap;
use crate::predicate::Predicate;
use crate::schema::AttrRef;
use crate::value::Value;
use crate::ExecConfig;
use exq_obs::MetricsSink;
use std::sync::Arc;

/// Maximum cube dimensionality. `2^16` masks per tuple is already far past
/// anything interactive; the paper's experiments stop at 8.
pub const MAX_CUBE_DIMS: usize = 16;

/// Which cube algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CubeStrategy {
    /// Per-tuple enumeration of all `2^d` ancestor cells.
    SubsetEnumeration,
    /// Finest-level grouping followed by level-wise roll-up.
    LatticeRollup,
    /// Sample the input to estimate the distinct-cell count and pick
    /// between the two: roll-up when cells ≪ rows (the low-cardinality
    /// categorical setting), subset enumeration when nearly every tuple
    /// has its own cell (roll-up would only add a regrouping pass).
    #[default]
    Auto,
}

/// Sample size for [`CubeStrategy::Auto`]'s distinct-cell estimate.
const AUTO_SAMPLE: usize = 2048;

/// Resolve [`CubeStrategy::Auto`] against the actual input.
fn resolve_strategy(
    db: &Database,
    u: &Universal,
    dims: &[AttrRef],
    strategy: CubeStrategy,
) -> CubeStrategy {
    match strategy {
        CubeStrategy::Auto => {
            let sample = AUTO_SAMPLE.min(u.len());
            if sample == 0 {
                return CubeStrategy::SubsetEnumeration;
            }
            let distinct = crate::stats::estimate_distinct_coords(db, u, dims, sample);
            // Dense in the sample → likely high-cardinality: enumerate.
            if distinct * 2 >= sample {
                CubeStrategy::SubsetEnumeration
            } else {
                CubeStrategy::LatticeRollup
            }
        }
        resolved => resolved,
    }
}

/// A cube coordinate: one value per dimension, `Value::Null` marking
/// "don't care".
pub type Coord = Box<[Value]>;

/// A computed data cube.
#[derive(Debug, Clone)]
pub struct Cube {
    /// The dimension attributes, in coordinate order.
    pub dims: Vec<AttrRef>,
    /// Aggregate value per cell. Only non-empty cells are present.
    pub cells: LookupMap<Coord, f64>,
}

impl Cube {
    /// Number of cells (including the all-null grand total, if any input
    /// tuple matched).
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the cube has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The value at a coordinate, if that cell exists.
    pub fn get(&self, coord: &[Value]) -> Option<f64> {
        self.cells.get(coord).copied()
    }

    /// The grand total (all coordinates null).
    pub fn grand_total(&self) -> Option<f64> {
        let coord: Coord = vec![Value::Null; self.dims.len()].into_boxed_slice();
        self.get(&coord)
    }
}

/// Compute the cube of `agg` over the universal tuples of `u` satisfying
/// `selection`, grouped (with cube) by `dims`.
///
/// Errors if `dims` exceeds [`MAX_CUBE_DIMS`] or if any input tuple has a
/// NULL dimension value (a NULL coordinate would be indistinguishable from
/// "don't care"; the paper's datasets recode missing values explicitly).
pub fn compute(
    db: &Database,
    u: &Universal,
    selection: &Predicate,
    dims: &[AttrRef],
    agg: &AggFunc,
    strategy: CubeStrategy,
) -> Result<Cube> {
    compute_with(
        db,
        u,
        selection,
        dims,
        agg,
        strategy,
        &ExecConfig::sequential(),
    )
}

/// [`compute`], recording into `exec`'s metrics sink. Each cell is a
/// left fold of its tuples in `U` order, and roll-up folds each parent's
/// cells in coordinate order, so the output is a function of the input
/// alone.
///
/// Runs entirely in `u32` code space and decodes the cells at the end.
pub fn compute_with(
    db: &Database,
    u: &Universal,
    selection: &Predicate,
    dims: &[AttrRef],
    agg: &AggFunc,
    strategy: CubeStrategy,
    exec: &ExecConfig,
) -> Result<Cube> {
    Ok(compute_coded_with(db, u, selection, dims, agg, strategy, exec)?.decode())
}

/// The retained row-oriented reference for [`compute_with`]: evaluates
/// `selection` per tuple through [`Predicate::eval`] and groups on cloned
/// `Value` coordinates in hash maps. Production never dispatches to it;
/// the differential test suite asserts its cells are bit-identical to the
/// kernel's, which holds because both fold the same selected tuples in
/// the same order, and both roll a parent up in
/// coordinate order: the kernel's rank keys order code tuples exactly
/// like the `Value` order orders their decoded coordinates. So every
/// float addition happens between the same numbers in the same order.
pub fn compute_rows_with(
    db: &Database,
    u: &Universal,
    selection: &Predicate,
    dims: &[AttrRef],
    agg: &AggFunc,
    strategy: CubeStrategy,
    exec: &ExecConfig,
) -> Result<Cube> {
    check_input(db, dims, agg)?;
    let sink = exec.metrics();
    let _span = sink.span("cube");
    let (states, selected) = match begin_run(sink, db, u, dims, strategy) {
        CubeStrategy::SubsetEnumeration => rows_accumulate(db, u, selection, dims, agg, true)?,
        CubeStrategy::LatticeRollup => rows_rollup(db, u, selection, dims, agg)?,
        CubeStrategy::Auto => unreachable!("begin_run never returns Auto"),
    };
    record_cells(
        sink,
        selected,
        dims.len(),
        states
            .iter()
            .map(|(k, _)| k.iter().filter(|v| !v.is_null()).count()),
    );
    Ok(Cube {
        dims: dims.to_vec(),
        cells: states.into_iter().map(|(k, s)| (k, s.finalize())).collect(),
    })
}

/// Compute the cube without materializing any `Value`, returning the
/// cells keyed by dictionary codes (with [`NO_CODE`] as the "don't care"
/// coordinate).
pub fn compute_coded_with(
    db: &Database,
    u: &Universal,
    selection: &Predicate,
    dims: &[AttrRef],
    agg: &AggFunc,
    strategy: CubeStrategy,
    exec: &ExecConfig,
) -> Result<CodedCube> {
    compute_coded_at(db, u, &select(db, u, selection), dims, agg, strategy, exec)
}

/// The cube over the universal tuples at `positions` — the engine's
/// kernel. Algorithm 1 passes the positions its first pass recorded per
/// sub-query ([`aggregate::evaluate_many`]), so no selection is evaluated
/// here; [`compute_coded_with`] finds them first.
///
/// Errors as [`compute`] does.
///
/// # Panics
///
/// If `positions` is not strictly ascending or reaches past `u`.
pub fn compute_coded_at(
    db: &Database,
    u: &Universal,
    positions: &[u32],
    dims: &[AttrRef],
    agg: &AggFunc,
    strategy: CubeStrategy,
    exec: &ExecConfig,
) -> Result<CodedCube> {
    check_input(db, dims, agg)?;
    assert!(
        positions.windows(2).all(|w| w[0] < w[1])
            && positions.last().is_none_or(|&p| (p as usize) < u.len()),
        "cube positions must ascend strictly within the universal relation"
    );
    let sink = exec.metrics();
    let _span = sink.span("cube");
    let store = Arc::clone(db.columns());
    let cells = {
        let coded = CodedDims::new(&store, dims);
        match begin_run(sink, db, u, dims, strategy) {
            CubeStrategy::SubsetEnumeration => {
                vec![accumulate(db, u, positions, &coded, agg, true)?]
            }
            CubeStrategy::LatticeRollup => lattice_rollup(db, u, positions, &coded, agg)?,
            CubeStrategy::Auto => unreachable!("begin_run never returns Auto"),
        }
    };
    let cube = CodedCube::new(dims, store, cells);
    record_cells(
        sink,
        positions.len() as u64,
        dims.len(),
        cube.cells()
            .map(|(key, _)| key.iter().filter(|&&code| code != NO_CODE).count()),
    );
    Ok(cube)
}

/// A cube whose cells are keyed by dictionary codes instead of values:
/// cell `i`'s key holds, per dimension, the code of its value in the
/// column's dictionary, or [`NO_CODE`] for "don't care". Decodable at the
/// output boundary; `core::cube_algo` joins several of these on raw code
/// keys and decodes once per row of its table.
#[derive(Debug, Clone)]
pub struct CodedCube {
    dims: Vec<AttrRef>,
    store: Arc<ColumnStore>,
    /// Cell `i`'s key is `keys[i·d..(i+1)·d]`.
    keys: Vec<u32>,
    /// Cell `i`'s aggregate value.
    values: Vec<f64>,
}

impl CodedCube {
    /// Flatten finished cells, finalizing each state.
    fn new(dims: &[AttrRef], store: Arc<ColumnStore>, parts: Vec<Cells>) -> CodedCube {
        let mut keys = Vec::new();
        let mut values = Vec::new();
        for part in parts {
            for id in 0..part.states.len() as u32 {
                keys.extend_from_slice(part.keys.get(id));
            }
            values.extend(part.states.iter().map(AggState::finalize));
        }
        CodedCube {
            dims: dims.to_vec(),
            store,
            keys,
            values,
        }
    }

    /// The dimension attributes, in coordinate order.
    pub fn dims(&self) -> &[AttrRef] {
        &self.dims
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the cube has no cells.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Every cell as `(key, value)`, in an order fixed by the input alone.
    pub fn cells(&self) -> impl ExactSizeIterator<Item = (&[u32], f64)> + '_ {
        let d = self.dims.len();
        self.values
            .iter()
            .enumerate()
            .map(move |(i, &v)| (&self.keys[i * d..(i + 1) * d], v))
    }

    /// Materialize as a value-keyed [`Cube`].
    pub fn decode(self) -> Cube {
        let dicts: Vec<&Dict> = self
            .dims
            .iter()
            .map(|&a| self.store.dict_column(a).1)
            .collect();
        let cells = self
            .cells()
            .map(|(key, v)| (decode_key(&dicts, key), v))
            .collect();
        Cube {
            dims: self.dims,
            cells,
        }
    }
}

/// Decode a code tuple into a coordinate: element `j` through `dicts[j]`,
/// with [`NO_CODE`] ("don't care") as `Value::Null`.
pub fn decode_key(dicts: &[&Dict], key: &[u32]) -> Coord {
    dicts
        .iter()
        .zip(key)
        .map(|(dict, &code)| {
            if code == NO_CODE {
                Value::Null
            } else {
                dict.value(code).clone()
            }
        })
        .collect()
}

/// Plain `GROUP BY` (no cube): only the finest-level cells. This is the
/// operator behind series queries (one aggregate value per group), and
/// the first phase of the lattice roll-up.
pub fn group_by(
    db: &Database,
    u: &Universal,
    selection: &Predicate,
    dims: &[AttrRef],
    agg: &AggFunc,
) -> Result<Cube> {
    group_by_with(db, u, selection, dims, agg, &ExecConfig::sequential())
}

/// [`group_by`], timed under `exec`'s `cube` span. Like
/// [`compute_with`], runs in code space and decodes the cells at the end.
pub fn group_by_with(
    db: &Database,
    u: &Universal,
    selection: &Predicate,
    dims: &[AttrRef],
    agg: &AggFunc,
    exec: &ExecConfig,
) -> Result<Cube> {
    check_input(db, dims, agg)?;
    let _span = exec.metrics().span("cube");
    let positions = select(db, u, selection);
    let store = Arc::clone(db.columns());
    let cells = accumulate(db, u, &positions, &CodedDims::new(&store, dims), agg, false)?;
    Ok(CodedCube::new(dims, store, vec![cells]).decode())
}

/// The checks every cube entry point makes before touching a tuple.
fn check_input(db: &Database, dims: &[AttrRef], agg: &AggFunc) -> Result<()> {
    if dims.len() > MAX_CUBE_DIMS {
        return Err(Error::TooManyCubeDimensions(dims.len()));
    }
    agg.validate(db.schema())
}

/// The positions in `u` of the tuples satisfying `selection`, ascending.
fn select(db: &Database, u: &Universal, selection: &Predicate) -> Vec<u32> {
    let mut folded = aggregate::evaluate_many(db, u, &[(selection, &AggFunc::CountStar)], true)
        .expect("COUNT(*) folds any tuple");
    folded
        .positions
        .pop()
        .expect("one selection, one position list")
}

/// Open a cube run's books: count the run, resolve the strategy, and tag
/// the run with it. Both cube paths keep the same books, so a request's
/// counters do not say which one ran.
fn begin_run(
    sink: &MetricsSink,
    db: &Database,
    u: &Universal,
    dims: &[AttrRef],
    strategy: CubeStrategy,
) -> CubeStrategy {
    sink.incr("cube.runs");
    let resolved = resolve_strategy(db, u, dims, strategy);
    sink.incr(match resolved {
        CubeStrategy::SubsetEnumeration => "cube.strategy.subset_enumeration",
        CubeStrategy::LatticeRollup => "cube.strategy.lattice_rollup",
        CubeStrategy::Auto => unreachable!("resolve_strategy never returns Auto"),
    });
    resolved
}

/// Close a cube run's books: the selected tuples, the cells, and the
/// cells per lattice level, where a cell's level is its number of
/// specified (non-don't-care) coordinates — the grand total is level 0,
/// finest-grain cells are level d.
fn record_cells(sink: &MetricsSink, selected: u64, d: usize, levels: impl Iterator<Item = usize>) {
    if !sink.is_enabled() {
        return;
    }
    sink.add("cube.input_tuples", selected);
    let mut per_level = vec![0u64; d + 1];
    for level in levels {
        per_level[level] += 1;
    }
    sink.add("cube.cells", per_level.iter().sum());
    for (level, n) in per_level.iter().enumerate() {
        if *n > 0 {
            sink.add(&format!("cube.cells.level.{level}"), *n);
        }
    }
}

/// The `Error::TypeMismatch` for a NULL cube dimension value.
fn null_dimension_error(db: &Database, a: AttrRef) -> Error {
    Error::TypeMismatch {
        relation: db.schema().relation(a.rel).name.clone(),
        attribute: db.schema().relation(a.rel).attributes[a.col].name.clone(),
        expected: "non-null cube dimension".to_string(),
        got: "null".to_string(),
    }
}

/// The cube's dimensions resolved against the column store.
struct CodedDims<'a> {
    attrs: &'a [AttrRef],
    /// Per dimension: the column's codes (per row) and dictionary.
    cols: Vec<(&'a [u32], &'a Dict)>,
}

impl<'a> CodedDims<'a> {
    fn new(store: &'a ColumnStore, attrs: &'a [AttrRef]) -> CodedDims<'a> {
        let cols = attrs.iter().map(|&a| store.dict_column(a)).collect();
        CodedDims { attrs, cols }
    }

    fn len(&self) -> usize {
        self.attrs.len()
    }

    fn dicts(&self) -> Vec<&'a Dict> {
        self.cols.iter().map(|&(_, dict)| dict).collect()
    }

    /// Universal tuple `t`'s code per dimension, into `out`; errors on a
    /// NULL dimension value.
    #[inline]
    fn extract(&self, db: &Database, t: &[u32], out: &mut [u32]) -> Result<()> {
        for ((&a, &(codes, dict)), slot) in self.attrs.iter().zip(&self.cols).zip(out) {
            let code = codes[t[a.rel] as usize];
            if dict.is_null_code(code) {
                return Err(null_dimension_error(db, a));
            }
            *slot = code;
        }
        Ok(())
    }
}

/// Cells under construction: one code tuple per cell ([`NO_CODE`] =
/// "don't care"), and the cell's aggregate state at the same index.
struct Cells {
    keys: CodeTuples,
    states: Vec<AggState>,
}

impl Cells {
    fn new(d: usize) -> Cells {
        Cells {
            keys: CodeTuples::new(d),
            states: Vec::new(),
        }
    }

    /// The state of cell `key`, created empty on first use.
    #[inline]
    fn state(&mut self, key: &[u32], agg: &AggFunc) -> &mut AggState {
        let (id, new) = self.keys.insert(key);
        if new {
            self.states.push(agg.new_state());
        }
        &mut self.states[id as usize]
    }

    /// Merge cell `key`'s partial state into this set: a new cell starts
    /// as a copy of it, an existing one merges it.
    #[inline]
    fn merge(&mut self, key: &[u32], state: &AggState) {
        let (id, new) = self.keys.insert(key);
        if new {
            self.states.push(state.clone());
        } else {
            self.states[id as usize].merge(state);
        }
    }
}

/// Fold the tuples at `positions` into cells, one key per tuple
/// (`enumerate_masks = false`) or all `2^d` ancestor keys
/// (`enumerate_masks = true`), in one pass in position order: each cell
/// is the left fold of its tuples in `U` order, and the error reported is
/// the first failing tuple's.
fn accumulate(
    db: &Database,
    u: &Universal,
    positions: &[u32],
    dims: &CodedDims<'_>,
    agg: &AggFunc,
    enumerate_masks: bool,
) -> Result<Cells> {
    let d = dims.len();
    let store = Arc::clone(db.columns());
    let agg_eval = agg.compile(&store);
    let mut cells = Cells::new(d);
    let mut base = [0u32; MAX_CUBE_DIMS];
    let mut key = [0u32; MAX_CUBE_DIMS];
    for &p in positions {
        let t = u.tuple(p as usize);
        dims.extract(db, t, &mut base[..d])?;
        if enumerate_masks {
            for mask in 0..1u32 << d {
                for (j, slot) in key[..d].iter_mut().enumerate() {
                    *slot = if mask & 1 << j != 0 { base[j] } else { NO_CODE };
                }
                agg_eval.update(cells.state(&key[..d], agg), db, t)?;
            }
        } else {
            agg_eval.update(cells.state(&base[..d], agg), db, t)?;
        }
    }
    Ok(cells)
}

/// Group into finest-level cells, then roll up the lattice. Returns the
/// cells of every mask.
///
/// Each mask M (≠ full) aggregates from its parent P = M | lowest unset
/// bit, which is larger than M, so visiting the masks in decreasing order
/// finishes every parent before its children. A parent's cells are
/// folded in coordinate order (its rank order, computed once per
/// parent), which fixes the float-addition order however the cells were
/// inserted.
fn lattice_rollup(
    db: &Database,
    u: &Universal,
    positions: &[u32],
    dims: &CodedDims<'_>,
    agg: &AggFunc,
) -> Result<Vec<Cells>> {
    let d = dims.len();
    let dicts = dims.dicts();
    // Bits below a child's cleared bit are all set in its parent, so only
    // masks with bit 0 set are ever parents and need a rank order.
    let finish = |mask: usize, cells: Cells| {
        let order = if mask & 1 == 1 {
            cells.keys.value_order(&dicts)
        } else {
            Vec::new()
        };
        (cells, order)
    };
    let full = (1usize << d) - 1;
    let mut per_mask: Vec<(Cells, Vec<u32>)> =
        (0..=full).map(|_| (Cells::new(d), Vec::new())).collect();
    per_mask[full] = finish(full, accumulate(db, u, positions, dims, agg, false)?);
    for mask in (0..full).rev() {
        per_mask[mask] = finish(mask, rollup_one_mask(&per_mask, mask, d));
    }
    Ok(per_mask.into_iter().map(|(cells, _)| cells).collect())
}

/// One roll-up mask's cells, from its finished parent.
fn rollup_one_mask(per_mask: &[(Cells, Vec<u32>)], mask: usize, d: usize) -> Cells {
    let cleared = (!mask).trailing_zeros() as usize;
    let (parent, order) = &per_mask[mask | 1 << cleared];
    let mut child = Cells::new(d);
    let mut key = [0u32; MAX_CUBE_DIMS];
    for &id in order {
        key[..d].copy_from_slice(parent.keys.get(id));
        key[cleared] = NO_CODE;
        child.merge(&key[..d], &parent.states[id as usize]);
    }
    child
}

/// The reference path's `Value`-keyed cells, sorted by coordinate.
type RowCells = Vec<(Coord, AggState)>;

/// The reference's [`accumulate`]: the same tuple order over `Value`
/// coordinates, with the selection evaluated per tuple. Also returns the
/// number of tuples passing `selection`.
fn rows_accumulate(
    db: &Database,
    u: &Universal,
    selection: &Predicate,
    dims: &[AttrRef],
    agg: &AggFunc,
    enumerate_masks: bool,
) -> Result<(RowCells, u64)> {
    let d = dims.len();
    let mut cells = LookupMap::new();
    let mut selected: u64 = 0;
    for i in 0..u.len() {
        let t = u.tuple(i);
        if !selection.eval(db, t) {
            continue;
        }
        selected += 1;
        let mut base = Vec::with_capacity(d);
        for &a in dims {
            let v = db.value(a, t[a.rel] as usize);
            if v.is_null() {
                return Err(null_dimension_error(db, a));
            }
            base.push(v.clone());
        }
        let masks = if enumerate_masks { 0..1u32 << d } else { 0..1 };
        for mask in masks {
            let key: Coord = if enumerate_masks {
                base.iter()
                    .enumerate()
                    .map(|(j, v)| {
                        if mask & 1 << j != 0 {
                            v.clone()
                        } else {
                            Value::Null
                        }
                    })
                    .collect()
            } else {
                base.clone().into_boxed_slice()
            };
            let state = cells.entry(key).or_insert_with(|| agg.new_state());
            state.update(agg, db, t)?;
        }
    }
    Ok((cells.into_sorted(), selected))
}

/// The reference's [`lattice_rollup`], over `Value` coordinates, with
/// every parent's cells sorted by the `Value` order.
fn rows_rollup(
    db: &Database,
    u: &Universal,
    selection: &Predicate,
    dims: &[AttrRef],
    agg: &AggFunc,
) -> Result<(RowCells, u64)> {
    let d = dims.len();
    let (base, selected) = rows_accumulate(db, u, selection, dims, agg, false)?;
    let full = (1usize << d) - 1;
    let mut per_mask: Vec<RowCells> = (0..=full).map(|_| RowCells::new()).collect();
    per_mask[full] = base;
    for mask in (0..full).rev() {
        let cleared = (!mask).trailing_zeros() as usize;
        let mut child: LookupMap<Coord, AggState> = LookupMap::new();
        for (coord, state) in &per_mask[mask | 1 << cleared] {
            let mut key = coord.clone();
            key[cleared] = Value::Null;
            match child.get_mut(&key) {
                Some(existing) => existing.merge(state),
                None => {
                    child.insert(key, state.clone());
                }
            }
        }
        per_mask[mask] = child.into_sorted();
    }
    // Keys are disjoint across masks because no dimension value is null.
    Ok((per_mask.into_iter().flatten().collect(), selected))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::SchemaBuilder;
    use crate::value::ValueType as T;

    /// Example 4.1's database (the Figure 3 instance), cube over
    /// (Author.name, Publication.year) with COUNT(*).
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
        db
    }

    fn cube_of(strategy: CubeStrategy) -> (Database, Cube) {
        let db = figure3_db();
        let u = Universal::compute(&db, &db.full_view());
        let dims = vec![
            db.schema().attr("Author", "name").unwrap(),
            db.schema().attr("Publication", "year").unwrap(),
        ];
        let cube = compute(
            &db,
            &u,
            &Predicate::True,
            &dims,
            &AggFunc::CountStar,
            strategy,
        )
        .unwrap();
        (db, cube)
    }

    fn assert_example_41(cube: &Cube) {
        // The 11 rows of Example 4.1.
        let rows: [(&[Value], f64); 11] = [
            (&[Value::str("JG"), Value::Int(2001)], 1.0),
            (&[Value::str("JG"), Value::Int(2011)], 1.0),
            (&[Value::str("RR"), Value::Int(2001)], 2.0),
            (&[Value::str("CM"), Value::Int(2001)], 1.0),
            (&[Value::str("CM"), Value::Int(2011)], 1.0),
            (&[Value::str("JG"), Value::Null], 2.0),
            (&[Value::str("RR"), Value::Null], 2.0),
            (&[Value::str("CM"), Value::Null], 2.0),
            (&[Value::Null, Value::Int(2001)], 4.0),
            (&[Value::Null, Value::Int(2011)], 2.0),
            (&[Value::Null, Value::Null], 6.0),
        ];
        assert_eq!(cube.len(), 11);
        for (coord, expected) in rows {
            assert_eq!(cube.get(coord), Some(expected), "cell {coord:?}");
        }
        assert_eq!(cube.grand_total(), Some(6.0));
    }

    #[test]
    fn example_41_subset_enumeration() {
        let (_, cube) = cube_of(CubeStrategy::SubsetEnumeration);
        assert_example_41(&cube);
    }

    #[test]
    fn example_41_lattice_rollup() {
        let (_, cube) = cube_of(CubeStrategy::LatticeRollup);
        assert_example_41(&cube);
    }

    #[test]
    fn strategies_agree_with_selection_and_distinct() {
        let db = figure3_db();
        let u = Universal::compute(&db, &db.full_view());
        let dims = vec![
            db.schema().attr("Author", "dom").unwrap(),
            db.schema().attr("Publication", "venue").unwrap(),
        ];
        let sel = Predicate::eq(db.schema().attr("Publication", "year").unwrap(), 2001);
        let agg = AggFunc::CountDistinct(db.schema().attr("Publication", "pubid").unwrap());
        let a = compute(&db, &u, &sel, &dims, &agg, CubeStrategy::SubsetEnumeration).unwrap();
        let b = compute(&db, &u, &sel, &dims, &agg, CubeStrategy::LatticeRollup).unwrap();
        assert_eq!(a.cells, b.cells);
        // Both SIGMOD papers in 2001 regardless of author domain.
        assert_eq!(a.get(&[Value::Null, Value::str("SIGMOD")]), Some(2.0));
        assert_eq!(
            a.get(&[Value::str("edu"), Value::Null]),
            Some(1.0),
            "JG only on P1"
        );
    }

    #[test]
    fn zero_dims_gives_grand_total_only() {
        let db = figure3_db();
        let u = Universal::compute(&db, &db.full_view());
        for strategy in [CubeStrategy::SubsetEnumeration, CubeStrategy::LatticeRollup] {
            let cube = compute(
                &db,
                &u,
                &Predicate::True,
                &[],
                &AggFunc::CountStar,
                strategy,
            )
            .unwrap();
            assert_eq!(cube.len(), 1);
            assert_eq!(cube.get(&[]), Some(6.0));
        }
    }

    #[test]
    fn empty_selection_gives_empty_cube() {
        let db = figure3_db();
        let u = Universal::compute(&db, &db.full_view());
        let dims = vec![db.schema().attr("Author", "name").unwrap()];
        for strategy in [CubeStrategy::SubsetEnumeration, CubeStrategy::LatticeRollup] {
            let cube = compute(
                &db,
                &u,
                &Predicate::False,
                &dims,
                &AggFunc::CountStar,
                strategy,
            )
            .unwrap();
            assert!(cube.is_empty());
            assert_eq!(cube.grand_total(), None);
        }
    }

    /// `R(id, g, h, x)` with 10 000 rows: 7 values of `g`, 3 of `h`, and
    /// a float measure `x` whose sums round.
    fn float_r() -> Database {
        let schema = SchemaBuilder::new()
            .relation(
                "R",
                &[
                    ("id", T::Int),
                    ("g", T::Str),
                    ("h", T::Int),
                    ("x", T::Float),
                ],
                &["id"],
            )
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        for i in 0..10_000i64 {
            let g = format!("g{}", i % 7);
            let x = (i as f64) * 0.1 + 0.3;
            db.insert(
                "R",
                vec![i.into(), g.as_str().into(), (i % 3).into(), x.into()],
            )
            .unwrap();
        }
        db
    }

    #[test]
    fn parallel_cube_is_bit_identical_across_thread_counts() {
        // Many tuples with a float measure, so any thread-count-dependent
        // accumulation order would change bits.
        let db = float_r();
        let u = Universal::compute(&db, &db.full_view());
        let dims = vec![
            db.schema().attr("R", "g").unwrap(),
            db.schema().attr("R", "h").unwrap(),
        ];
        let agg = AggFunc::Sum(db.schema().attr("R", "x").unwrap());
        for strategy in [CubeStrategy::SubsetEnumeration, CubeStrategy::LatticeRollup] {
            let seq = compute(&db, &u, &Predicate::True, &dims, &agg, strategy).unwrap();
            for threads in [1, 2, 3, 7] {
                let exec = ExecConfig::with_threads(threads);
                let par =
                    compute_with(&db, &u, &Predicate::True, &dims, &agg, strategy, &exec).unwrap();
                // The `Value`-keyed reference folds in the same order.
                let rows =
                    compute_rows_with(&db, &u, &Predicate::True, &dims, &agg, strategy, &exec)
                        .unwrap();
                for other in [&par, &rows] {
                    assert_eq!(seq.cells.len(), other.cells.len());
                    for (coord, v) in seq.cells.sorted() {
                        let pv = other
                            .get(coord)
                            .unwrap_or_else(|| panic!("missing {coord:?}"));
                        assert_eq!(
                            v.to_bits(),
                            pv.to_bits(),
                            "{strategy:?} cell {coord:?} differs at {threads} threads"
                        );
                    }
                }
            }
        }
        // group_by too.
        let seq = group_by(&db, &u, &Predicate::True, &dims, &agg).unwrap();
        for threads in [2, 7] {
            let exec = ExecConfig::with_threads(threads);
            let par = group_by_with(&db, &u, &Predicate::True, &dims, &agg, &exec).unwrap();
            for (coord, v) in seq.cells.sorted() {
                assert_eq!(v.to_bits(), par.get(coord).unwrap().to_bits());
            }
            assert_eq!(seq.cells.len(), par.cells.len());
        }
    }

    /// Every cell is the aggregate of its own tuples, bit for bit: a
    /// left fold in `U` order, as `aggregate::evaluate` computes it. So
    /// the grand total equals the query's total in every float lane.
    #[test]
    fn cube_cell_is_the_aggregate_of_its_tuples() {
        let db = float_r();
        let u = Universal::compute(&db, &db.full_view());
        let dims = vec![
            db.schema().attr("R", "g").unwrap(),
            db.schema().attr("R", "h").unwrap(),
        ];
        let agg = AggFunc::Sum(db.schema().attr("R", "x").unwrap());
        // 6 667 selected tuples, so a block-grouped fold would differ.
        let selection = Predicate::not(Predicate::eq(dims[1], 2i64));
        let cell_selection = |coord: &[Value]| {
            let equalities = dims
                .iter()
                .zip(coord)
                .filter(|(_, v)| !v.is_null())
                .map(|(&a, v)| Predicate::eq(a, v.clone()));
            Predicate::and(std::iter::once(selection.clone()).chain(equalities))
        };
        for (strategy, finest_only) in [
            (CubeStrategy::SubsetEnumeration, false),
            (CubeStrategy::LatticeRollup, true),
        ] {
            let cube = compute(&db, &u, &selection, &dims, &agg, strategy).unwrap();
            let mut checked = 0;
            for (coord, v) in cube.cells.sorted() {
                if finest_only && coord.iter().any(Value::is_null) {
                    continue;
                }
                let want = aggregate::evaluate(&db, &u, &cell_selection(coord), &agg).unwrap();
                assert_eq!(
                    v.to_bits(),
                    want.to_bits(),
                    "{strategy:?} cell {coord:?}: {v} vs {want}"
                );
                checked += 1;
            }
            let expected = if finest_only { 7 * 2 } else { 8 * 3 };
            assert_eq!(checked, expected, "{strategy:?}");
        }
    }

    #[test]
    fn cube_at_positions_is_the_cube_of_the_selection() {
        let db = figure3_db();
        let u = Universal::compute(&db, &db.full_view());
        let dims = vec![
            db.schema().attr("Author", "dom").unwrap(),
            db.schema().attr("Publication", "venue").unwrap(),
        ];
        let sel = Predicate::eq(db.schema().attr("Publication", "year").unwrap(), 2001);
        let positions: Vec<u32> = (0..u.len() as u32)
            .filter(|&i| sel.eval(&db, u.tuple(i as usize)))
            .collect();
        let agg = AggFunc::CountStar;
        let exec = ExecConfig::sequential();
        for strategy in [CubeStrategy::SubsetEnumeration, CubeStrategy::LatticeRollup] {
            let at = compute_coded_at(&db, &u, &positions, &dims, &agg, strategy, &exec).unwrap();
            let with = compute_coded_with(&db, &u, &sel, &dims, &agg, strategy, &exec).unwrap();
            assert!(at.cells().eq(with.cells()), "{strategy:?}");
            assert_eq!(
                at.decode().cells,
                compute(&db, &u, &sel, &dims, &agg, strategy).unwrap().cells
            );
        }
    }

    #[test]
    #[should_panic(expected = "ascend strictly")]
    fn cube_positions_out_of_order_are_rejected() {
        let db = figure3_db();
        let u = Universal::compute(&db, &db.full_view());
        let dims = vec![db.schema().attr("Author", "name").unwrap()];
        let _ = compute_coded_at(
            &db,
            &u,
            &[2, 1],
            &dims,
            &AggFunc::CountStar,
            CubeStrategy::Auto,
            &ExecConfig::sequential(),
        );
    }

    #[test]
    fn group_by_rejects_too_many_dims() {
        let db = figure3_db();
        let u = Universal::compute(&db, &db.full_view());
        let dims = vec![db.schema().attr("Author", "name").unwrap(); MAX_CUBE_DIMS + 1];
        let err = group_by(&db, &u, &Predicate::True, &dims, &AggFunc::CountStar).unwrap_err();
        assert!(matches!(err, Error::TooManyCubeDimensions(n) if n == MAX_CUBE_DIMS + 1));
    }

    #[test]
    fn too_many_dims_rejected() {
        let db = figure3_db();
        let u = Universal::compute(&db, &db.full_view());
        let dims = vec![db.schema().attr("Author", "name").unwrap(); MAX_CUBE_DIMS + 1];
        let err = compute(
            &db,
            &u,
            &Predicate::True,
            &dims,
            &AggFunc::CountStar,
            CubeStrategy::SubsetEnumeration,
        )
        .unwrap_err();
        assert!(matches!(err, Error::TooManyCubeDimensions(_)));
    }

    #[test]
    fn null_dimension_value_rejected() {
        let schema = SchemaBuilder::new()
            .relation("R", &[("id", T::Int), ("g", T::Str)], &["id"])
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        db.insert("R", vec![1.into(), Value::Null]).unwrap();
        let u = Universal::compute(&db, &db.full_view());
        let dims = vec![db.schema().attr("R", "g").unwrap()];
        for strategy in [CubeStrategy::SubsetEnumeration, CubeStrategy::LatticeRollup] {
            assert!(compute(
                &db,
                &u,
                &Predicate::True,
                &dims,
                &AggFunc::CountStar,
                strategy
            )
            .is_err());
        }
    }

    #[test]
    fn group_by_is_the_finest_cube_level() {
        let db = figure3_db();
        let u = Universal::compute(&db, &db.full_view());
        let dims = vec![
            db.schema().attr("Author", "name").unwrap(),
            db.schema().attr("Publication", "year").unwrap(),
        ];
        let g = group_by(&db, &u, &Predicate::True, &dims, &AggFunc::CountStar).unwrap();
        // Exactly the 5 fully-specified rows of Example 4.1.
        assert_eq!(g.len(), 5);
        assert_eq!(g.get(&[Value::str("RR"), Value::Int(2001)]), Some(2.0));
        assert_eq!(
            g.get(&[Value::Null, Value::Int(2001)]),
            None,
            "no roll-up rows"
        );

        // Every finest-level cube cell matches.
        let full = compute(
            &db,
            &u,
            &Predicate::True,
            &dims,
            &AggFunc::CountStar,
            CubeStrategy::LatticeRollup,
        )
        .unwrap();
        for (coord, v) in g.cells.sorted() {
            assert_eq!(full.get(coord), Some(*v));
        }
    }

    #[test]
    fn group_by_with_selection() {
        let db = figure3_db();
        let u = Universal::compute(&db, &db.full_view());
        let dims = vec![db.schema().attr("Author", "dom").unwrap()];
        let sel = Predicate::eq(db.schema().attr("Publication", "venue").unwrap(), "SIGMOD");
        let g = group_by(&db, &u, &sel, &dims, &AggFunc::CountStar).unwrap();
        assert_eq!(g.get(&[Value::str("com")]), Some(3.0), "u2, u5, u6");
        assert_eq!(g.get(&[Value::str("edu")]), Some(1.0), "u1");
    }

    #[test]
    fn auto_matches_explicit_strategies() {
        let db = figure3_db();
        let u = Universal::compute(&db, &db.full_view());
        let dims = vec![
            db.schema().attr("Author", "name").unwrap(),
            db.schema().attr("Publication", "year").unwrap(),
        ];
        let auto = compute(
            &db,
            &u,
            &Predicate::True,
            &dims,
            &AggFunc::CountStar,
            CubeStrategy::Auto,
        )
        .unwrap();
        let explicit = compute(
            &db,
            &u,
            &Predicate::True,
            &dims,
            &AggFunc::CountStar,
            CubeStrategy::LatticeRollup,
        )
        .unwrap();
        assert_eq!(auto.cells, explicit.cells);
    }

    #[test]
    fn auto_on_empty_input() {
        let db = figure3_db();
        let mut view = db.full_view();
        view.live[0].clear();
        let u = Universal::compute(&db, &view);
        let dims = vec![db.schema().attr("Author", "name").unwrap()];
        let cube = compute(
            &db,
            &u,
            &Predicate::True,
            &dims,
            &AggFunc::CountStar,
            CubeStrategy::Auto,
        )
        .unwrap();
        assert!(cube.is_empty());
    }

    #[test]
    fn rollup_of_sum_and_minmax() {
        let schema = SchemaBuilder::new()
            .relation(
                "R",
                &[("id", T::Int), ("g", T::Str), ("x", T::Int)],
                &["id"],
            )
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        for (i, (g, x)) in [("a", 1), ("a", 5), ("b", 3)].iter().enumerate() {
            db.insert("R", vec![(i as i64).into(), (*g).into(), (*x).into()])
                .unwrap();
        }
        let u = Universal::compute(&db, &db.full_view());
        let dims = vec![db.schema().attr("R", "g").unwrap()];
        let x = db.schema().attr("R", "x").unwrap();
        for (agg, a_total, a_cell) in [
            (AggFunc::Sum(x), 9.0, 6.0),
            (AggFunc::Min(x), 1.0, 1.0),
            (AggFunc::Max(x), 5.0, 5.0),
            (AggFunc::Avg(x), 3.0, 3.0),
        ] {
            for strategy in [CubeStrategy::SubsetEnumeration, CubeStrategy::LatticeRollup] {
                let cube = compute(&db, &u, &Predicate::True, &dims, &agg, strategy).unwrap();
                assert_eq!(cube.get(&[Value::Null]), Some(a_total), "{agg:?} total");
                assert_eq!(cube.get(&[Value::str("a")]), Some(a_cell), "{agg:?} cell a");
            }
        }
    }
}
