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

use crate::aggregate::{AggFunc, AggState};
use crate::column::{CodedPredicate, ColumnStore};
use crate::database::Database;
use crate::dict::{Dict, NO_CODE};
use crate::error::{Error, Result};
use crate::join::Universal;
use crate::par::{self, ExecConfig};
use crate::predicate::Predicate;
use crate::schema::AttrRef;
use crate::value::Value;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

/// Maximum cube dimensionality. `2^16` masks per tuple is already far past
/// anything interactive; the paper's experiments stop at 8.
pub const MAX_CUBE_DIMS: usize = 16;

/// Tuple-accumulation block size. Input tuples are folded into per-block
/// cell maps which are then merged in block order, so the float-addition
/// grouping is a function of the input length alone — never of the thread
/// count. This is what makes cube output bit-identical at any `--threads`.
const ACCUM_BLOCK: usize = 4096;

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
    pub cells: HashMap<Coord, f64>,
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

/// [`compute`] with an explicit executor. Output is bit-identical at any
/// thread count: accumulation is blocked by `ACCUM_BLOCK` and merged in
/// block order, and roll-up merges iterate cells in coordinate order.
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

/// The retained row-oriented reference for [`compute_with`]: groups on
/// cloned `Value` coordinates. Production never dispatches to it; the
/// differential test suite asserts its cells are bit-identical to the
/// coded path's, which holds because both run the *same* generic grouping
/// code over the same block structure, tuple order, and fold order (see
/// `CubeSpace`).
pub fn compute_rows_with(
    db: &Database,
    u: &Universal,
    selection: &Predicate,
    dims: &[AttrRef],
    agg: &AggFunc,
    strategy: CubeStrategy,
    exec: &ExecConfig,
) -> Result<Cube> {
    if dims.len() > MAX_CUBE_DIMS {
        return Err(Error::TooManyCubeDimensions(dims.len()));
    }
    agg.validate(db.schema())?;
    let space = ValueSpace { dims };
    let cells = compute_in(
        db,
        u,
        &Selection::Rows(selection),
        &space,
        agg,
        strategy,
        exec,
    )?;
    Ok(Cube {
        dims: dims.to_vec(),
        cells,
    })
}

/// The selection evaluator for one cube run: the reference path keeps the
/// `Value`-based [`Predicate::eval`]; the coded path pre-compiles the
/// predicate against the column store (per-code masks), which returns
/// bit-identical decisions (see [`ColumnStore::compile_predicate`]).
enum Selection<'a> {
    /// Row-oriented reference: evaluate the predicate as given.
    Rows(&'a Predicate),
    /// Code-space compilation of the same predicate.
    Coded(CodedPredicate<'a>),
}

impl Selection<'_> {
    #[inline]
    fn eval(&self, db: &Database, t: &[u32]) -> bool {
        match self {
            Selection::Rows(p) => p.eval(db, t),
            Selection::Coded(p) => p.eval(t),
        }
    }
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
    if dims.len() > MAX_CUBE_DIMS {
        return Err(Error::TooManyCubeDimensions(dims.len()));
    }
    agg.validate(db.schema())?;
    let store = Arc::clone(db.columns());
    let space = CodedSpace::new(&store, dims);
    let sel = Selection::Coded(store.compile_predicate(selection));
    let cells = compute_in(db, u, &sel, &space, agg, strategy, exec)?;
    Ok(CodedCube {
        dims: dims.to_vec(),
        store,
        cells,
    })
}

/// A cube whose cells are keyed by dictionary codes instead of values:
/// `cells[j]` holds the code of dimension `j`'s value in its column's
/// dictionary, or [`NO_CODE`] for "don't care". Decodable at the output
/// boundary; `core::cube_algo` joins several of these on raw code keys
/// before decoding once.
#[derive(Debug, Clone)]
pub struct CodedCube {
    dims: Vec<AttrRef>,
    store: Arc<ColumnStore>,
    /// Aggregate value per coded cell.
    pub cells: HashMap<Box<[u32]>, f64>,
}

impl CodedCube {
    /// The dimension attributes, in coordinate order.
    pub fn dims(&self) -> &[AttrRef] {
        &self.dims
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the cube has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Decode one coded cell key into a `Value` coordinate, substituting
    /// `dont_care` for [`NO_CODE`] slots ([`Value::Null`] for plain cube
    /// semantics; Algorithm 1 uses its dummy marker instead).
    pub fn decode_coord(&self, key: &[u32], dont_care: &Value) -> Coord {
        self.dims
            .iter()
            .zip(key)
            .map(|(&a, &code)| {
                if code == NO_CODE {
                    dont_care.clone()
                } else {
                    self.store.dict_column(a).1.value(code).clone()
                }
            })
            .collect()
    }

    /// Materialize as a value-keyed [`Cube`].
    pub fn decode(self) -> Cube {
        let mut cells = HashMap::with_capacity(self.cells.len());
        // exq-lint: allow(L001): map-to-map re-keying via a bijective decode; no order observable
        for (key, &v) in &self.cells {
            cells.insert(self.decode_coord(key, &Value::Null), v);
        }
        Cube {
            dims: self.dims,
            cells,
        }
    }
}

/// The strategy dispatch and counter bookkeeping shared by both cube
/// paths. Counter semantics are identical whichever [`CubeSpace`] runs:
/// `cube.runs`, the strategy tag, `cube.input_tuples` (selected tuples),
/// `cube.cells`, and per-level cell counts all describe the same
/// stitched semantic events.
fn compute_in<S: CubeSpace>(
    db: &Database,
    u: &Universal,
    selection: &Selection<'_>,
    space: &S,
    agg: &AggFunc,
    strategy: CubeStrategy,
    exec: &ExecConfig,
) -> Result<HashMap<S::Key, f64>> {
    let sink = exec.metrics();
    let _span = sink.span("cube");
    sink.incr("cube.runs");
    let resolved = resolve_strategy(db, u, space.dims(), strategy);
    let (states, selected) = match resolved {
        CubeStrategy::SubsetEnumeration => {
            sink.incr("cube.strategy.subset_enumeration");
            accumulate_in(db, u, selection, space, agg, exec, true)?
        }
        CubeStrategy::LatticeRollup => {
            sink.incr("cube.strategy.lattice_rollup");
            lattice_rollup_in(db, u, selection, space, agg, exec)?
        }
        CubeStrategy::Auto => unreachable!("resolve_strategy never returns Auto"),
    };
    sink.add("cube.input_tuples", selected);
    let cells: HashMap<S::Key, f64> = states.into_iter().map(|(k, s)| (k, s.finalize())).collect();
    sink.add("cube.cells", cells.len() as u64);
    if sink.is_enabled() {
        // Cells materialized per lattice level, where a cell's level is
        // its number of specified (non-don't-care) coordinates — the
        // grand total is level 0, finest-grain cells are level d.
        let mut per_level = vec![0u64; space.dims().len() + 1];
        // exq-lint: allow(L001): per-level integer counting is order-independent
        for key in cells.keys() {
            per_level[space.level_of(key)] += 1;
        }
        for (level, n) in per_level.iter().enumerate() {
            if *n > 0 {
                sink.add(&format!("cube.cells.level.{level}"), *n);
            }
        }
    }
    Ok(cells)
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

/// [`group_by`] with an explicit executor. Like [`compute_with`], runs in
/// code space and decodes the cells at the end.
pub fn group_by_with(
    db: &Database,
    u: &Universal,
    selection: &Predicate,
    dims: &[AttrRef],
    agg: &AggFunc,
    exec: &ExecConfig,
) -> Result<Cube> {
    if dims.len() > MAX_CUBE_DIMS {
        return Err(Error::TooManyCubeDimensions(dims.len()));
    }
    agg.validate(db.schema())?;
    let store = Arc::clone(db.columns());
    let space = CodedSpace::new(&store, dims);
    let sel = Selection::Coded(store.compile_predicate(selection));
    let (states, _selected) = accumulate_in(db, u, &sel, &space, agg, exec, false)?;
    // exq-lint: allow(L001): map-to-map re-keying; each cell finalizes independently, no order observable
    let cells = states.into_iter().map(|(k, s)| (k, s.finalize())).collect();
    let coded = CodedCube {
        dims: dims.to_vec(),
        store,
        cells,
    };
    Ok(coded.decode())
}

/// A coordinate representation for the generic cube machinery.
///
/// [`accumulate_in`] and [`lattice_rollup_in`] are written once against
/// this trait and instantiated for two spaces: [`CodedSpace`] (keys are
/// `u32` dictionary codes — the engine) and [`ValueSpace`] (keys are
/// cloned `Value` coordinates — the test reference). The bit-identity
/// argument between the two is structural: both instantiations execute
/// the same block partitioning, tuple order, entry/update sequence, and
/// merge/fold order; the only difference is the key type, and the
/// code↔value mapping is a bijection whose [`CubeSpace::cmp_keys`] orders
/// keys exactly like the `Value` total order on decoded coordinates (the
/// dictionary `rank` table, with "don't care" below everything, mirroring
/// `Value::Null`). So every float addition happens between the same
/// numbers in the same order in both spaces.
trait CubeSpace: Sync {
    /// One dimension's slot in an extracted base coordinate.
    type Elem: Clone + Send;
    /// A cell key: a full or masked coordinate.
    type Key: Clone + Eq + Hash + Send + Sync;

    /// The dimension attributes.
    fn dims(&self) -> &[AttrRef];
    /// Extract tuple `t`'s base coordinate into `out` (cleared first);
    /// errors on NULL dimension values.
    fn extract(&self, db: &Database, t: &[u32], out: &mut Vec<Self::Elem>) -> Result<()>;
    /// The finest-level key for a base coordinate.
    fn full_key(&self, base: &[Self::Elem]) -> Self::Key;
    /// The key for `base` restricted to the dimensions set in `mask`.
    fn masked_key(&self, base: &[Self::Elem], mask: u32) -> Self::Key;
    /// Set dimension `j` of `key` to "don't care".
    fn clear_dim(&self, key: &mut Self::Key, j: usize);
    /// Total order on keys, equal to the lexicographic `Value` order of
    /// the decoded coordinates.
    fn cmp_keys(&self, a: &Self::Key, b: &Self::Key) -> Ordering;
    /// Number of specified (non-don't-care) dimensions of `key`.
    fn level_of(&self, key: &Self::Key) -> usize;
}

/// The row-oriented reference space: coordinates of cloned [`Value`]s.
struct ValueSpace<'a> {
    dims: &'a [AttrRef],
}

impl CubeSpace for ValueSpace<'_> {
    type Elem = Value;
    type Key = Coord;

    fn dims(&self) -> &[AttrRef] {
        self.dims
    }

    fn extract(&self, db: &Database, t: &[u32], out: &mut Vec<Value>) -> Result<()> {
        out.clear();
        for &a in self.dims {
            let v = db.value(a, t[a.rel] as usize);
            if v.is_null() {
                return Err(null_dimension_error(db, a));
            }
            out.push(v.clone());
        }
        Ok(())
    }

    fn full_key(&self, base: &[Value]) -> Coord {
        base.to_vec().into_boxed_slice()
    }

    fn masked_key(&self, base: &[Value], mask: u32) -> Coord {
        base.iter()
            .enumerate()
            .map(|(j, v)| {
                if mask & (1 << j) != 0 {
                    v.clone()
                } else {
                    Value::Null
                }
            })
            .collect()
    }

    fn clear_dim(&self, key: &mut Coord, j: usize) {
        key[j] = Value::Null;
    }

    fn cmp_keys(&self, a: &Coord, b: &Coord) -> Ordering {
        a.cmp(b)
    }

    fn level_of(&self, key: &Coord) -> usize {
        key.iter().filter(|v| !v.is_null()).count()
    }
}

/// The engine's space: coordinates of `u32` dictionary codes, with
/// [`NO_CODE`] as "don't care".
struct CodedSpace<'a> {
    dims: &'a [AttrRef],
    /// Per dimension: the column's codes (per row) and dictionary.
    cols: Vec<(&'a [u32], &'a Dict)>,
}

impl<'a> CodedSpace<'a> {
    fn new(store: &'a ColumnStore, dims: &'a [AttrRef]) -> CodedSpace<'a> {
        let cols = dims.iter().map(|&a| store.dict_column(a)).collect();
        CodedSpace { dims, cols }
    }

    /// Rank of one key slot under the decoded `Value` order: "don't care"
    /// first (as `Value::Null` sorts below everything), then dictionary
    /// rank. Null *values* never appear in keys ([`CubeSpace::extract`]
    /// rejects them), so the two cannot collide.
    #[inline]
    fn slot_rank(&self, j: usize, code: u32) -> u64 {
        if code == NO_CODE {
            0
        } else {
            u64::from(self.cols[j].1.rank(code)) + 1
        }
    }
}

impl CubeSpace for CodedSpace<'_> {
    type Elem = u32;
    type Key = Box<[u32]>;

    fn dims(&self) -> &[AttrRef] {
        self.dims
    }

    fn extract(&self, db: &Database, t: &[u32], out: &mut Vec<u32>) -> Result<()> {
        out.clear();
        for (&a, &(codes, dict)) in self.dims.iter().zip(&self.cols) {
            let code = codes[t[a.rel] as usize];
            if dict.is_null_code(code) {
                return Err(null_dimension_error(db, a));
            }
            out.push(code);
        }
        Ok(())
    }

    fn full_key(&self, base: &[u32]) -> Box<[u32]> {
        base.into()
    }

    fn masked_key(&self, base: &[u32], mask: u32) -> Box<[u32]> {
        base.iter()
            .enumerate()
            .map(
                |(j, &code)| {
                    if mask & (1 << j) != 0 {
                        code
                    } else {
                        NO_CODE
                    }
                },
            )
            .collect()
    }

    fn clear_dim(&self, key: &mut Box<[u32]>, j: usize) {
        key[j] = NO_CODE;
    }

    fn cmp_keys(&self, a: &Box<[u32]>, b: &Box<[u32]>) -> Ordering {
        for (j, (&x, &y)) in a.iter().zip(b.iter()).enumerate() {
            match self.slot_rank(j, x).cmp(&self.slot_rank(j, y)) {
                Ordering::Equal => continue,
                other => return other,
            }
        }
        Ordering::Equal
    }

    fn level_of(&self, key: &Box<[u32]>) -> usize {
        key.iter().filter(|&&code| code != NO_CODE).count()
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

/// Fold the selected universal tuples into a cell map, one coordinate per
/// tuple (`enumerate_masks = false`) or all `2^d` ancestor coordinates
/// (`enumerate_masks = true`).
///
/// Tuples are processed in fixed [`ACCUM_BLOCK`]-sized blocks and the
/// per-block maps merged in block order, so both the error reported (the
/// first failing tuple's, in input order) and the float-addition grouping
/// are independent of the thread count. Also returns the number of tuples
/// passing `selection` (summed over blocks in block order, so the count
/// shares the determinism guarantee).
fn accumulate_in<S: CubeSpace>(
    db: &Database,
    u: &Universal,
    selection: &Selection<'_>,
    space: &S,
    agg: &AggFunc,
    exec: &ExecConfig,
    enumerate_masks: bool,
) -> Result<(HashMap<S::Key, AggState>, u64)> {
    let d = space.dims().len();
    let store = Arc::clone(db.columns());
    let agg_eval = agg.compile(&store);
    let parts = par::try_map_index_blocks(exec, u.len(), ACCUM_BLOCK, |_, range| {
        let mut cells: HashMap<S::Key, AggState> = HashMap::new();
        let mut selected: u64 = 0;
        let mut base: Vec<S::Elem> = Vec::with_capacity(d);
        for i in range {
            let t = u.tuple(i);
            if !selection.eval(db, t) {
                continue;
            }
            selected += 1;
            space.extract(db, t, &mut base)?;
            if enumerate_masks {
                for mask in 0..(1u32 << d) {
                    let state = cells
                        .entry(space.masked_key(&base, mask))
                        .or_insert_with(|| agg.new_state());
                    agg_eval.update(state, db, t)?;
                }
            } else {
                let state = cells
                    .entry(space.full_key(&base))
                    .or_insert_with(|| agg.new_state());
                agg_eval.update(state, db, t)?;
            }
        }
        Ok((cells, selected))
    })?;
    let mut parts = parts.into_iter();
    let (mut acc, mut selected) = parts.next().unwrap_or_default();
    for (part, count) in parts {
        selected += count;
        for (coord, state) in part {
            match acc.get_mut(&coord) {
                Some(existing) => existing.merge(&state),
                None => {
                    acc.insert(coord, state);
                }
            }
        }
    }
    Ok((acc, selected))
}

fn lattice_rollup_in<S: CubeSpace>(
    db: &Database,
    u: &Universal,
    selection: &Selection<'_>,
    space: &S,
    agg: &AggFunc,
    exec: &ExecConfig,
) -> Result<(HashMap<S::Key, AggState>, u64)> {
    let d = space.dims().len();
    // Finest-level grouping.
    let (base_cells, selected) = accumulate_in(db, u, selection, space, agg, exec, false)?;

    // Roll up level by level (decreasing popcount). Each mask M (≠ full)
    // aggregates from its parent P = M | lowest unset bit, which has
    // exactly one more bit — so every mask of one level only reads maps of
    // the level above, and the masks within a level are independent: the
    // whole level can fan out. Parent cells are folded in coordinate
    // order, which fixes the float-addition order no matter how the
    // parent's HashMap happens to be laid out.
    let full = (1u32 << d) - 1;
    let mut per_mask: Vec<HashMap<S::Key, AggState>> = (0..=full).map(|_| HashMap::new()).collect();
    per_mask[full as usize] = base_cells;

    for level in (0..d as u32).rev() {
        let level_masks: Vec<u32> = (0..full).filter(|m| m.count_ones() == level).collect();
        let computed = par::map_blocks(exec, &level_masks, 1, |_, masks| {
            masks
                .iter()
                .map(|&mask| (mask, rollup_one_mask_in(space, &per_mask, mask, d)))
                .collect::<Vec<_>>()
        });
        for group in computed {
            for (mask, cells) in group {
                per_mask[mask as usize] = cells;
            }
        }
    }

    // Flatten. Coordinates are disjoint across masks because no dimension
    // value is null.
    let mut out = HashMap::new();
    for m in per_mask {
        out.extend(m);
    }
    Ok((out, selected))
}

/// Compute one roll-up mask's cell map from its (read-only) parent level.
fn rollup_one_mask_in<S: CubeSpace>(
    space: &S,
    per_mask: &[HashMap<S::Key, AggState>],
    mask: u32,
    d: usize,
) -> HashMap<S::Key, AggState> {
    let lowest_unset = (0..d as u32)
        .find(|j| mask & (1 << j) == 0)
        .expect("mask != full");
    let parent = mask | (1 << lowest_unset);
    let parent_cells = &per_mask[parent as usize];
    let mut entries: Vec<(&S::Key, &AggState)> = parent_cells.iter().collect();
    entries.sort_unstable_by(|a, b| space.cmp_keys(a.0, b.0));
    let mut child: HashMap<S::Key, AggState> = HashMap::with_capacity(parent_cells.len());
    for (coord, state) in entries {
        let mut child_coord = coord.clone();
        space.clear_dim(&mut child_coord, lowest_unset as usize);
        match child.get_mut(&child_coord) {
            Some(existing) => existing.merge(state),
            None => {
                child.insert(child_coord, state.clone());
            }
        }
    }
    child
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

    #[test]
    fn parallel_cube_is_bit_identical_across_thread_counts() {
        // Multi-block input (> ACCUM_BLOCK tuples) with a float measure, so
        // any thread-count-dependent accumulation order would change bits.
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
        let u = Universal::compute(&db, &db.full_view());
        let dims = vec![
            db.schema().attr("R", "g").unwrap(),
            db.schema().attr("R", "h").unwrap(),
        ];
        let agg = AggFunc::Sum(db.schema().attr("R", "x").unwrap());
        for strategy in [CubeStrategy::SubsetEnumeration, CubeStrategy::LatticeRollup] {
            let seq = compute(&db, &u, &Predicate::True, &dims, &agg, strategy).unwrap();
            for threads in [2, 3, 7] {
                let exec = ExecConfig::with_threads(threads);
                let par =
                    compute_with(&db, &u, &Predicate::True, &dims, &agg, strategy, &exec).unwrap();
                assert_eq!(seq.cells.len(), par.cells.len());
                for (coord, v) in &seq.cells {
                    let pv = par
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
        // group_by too.
        let seq = group_by(&db, &u, &Predicate::True, &dims, &agg).unwrap();
        for threads in [2, 7] {
            let exec = ExecConfig::with_threads(threads);
            let par = group_by_with(&db, &u, &Predicate::True, &dims, &agg, &exec).unwrap();
            for (coord, v) in &seq.cells {
                assert_eq!(v.to_bits(), par.get(coord).unwrap().to_bits());
            }
            assert_eq!(seq.cells.len(), par.cells.len());
        }
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
        for (coord, v) in &g.cells {
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
