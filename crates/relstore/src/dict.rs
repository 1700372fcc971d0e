//! First-appearance dictionary encoding for attribute values.
//!
//! A [`Dict`] maps the distinct [`Value`]s of one key class (a key column
//! and the foreign keys that reference it) to dense `u32` codes, assigned
//! **in first-appearance order** during a sequential scan, so a dictionary
//! is a pure function of the stored rows — never of thread counts, hash
//! seeds, or probe order. That makes code-space computations (join
//! probes, semijoin membership, cube grouping) safe to substitute for
//! `Value`-space computations inside the engine's bit-identity contract:
//! the code↔value mapping is a bijection on the class's distinct values,
//! and the per-code `rank` table recovers the `Value` total order exactly.
//!
//! Distinctness is measured under the [`Value`] total order, which is the
//! same equality every `Value`-keyed hash map in the engine uses: a mixed
//! column holding `Int(2)` and `Float(2.0)` assigns both the *same* code,
//! whose decoded representative is whichever spelling appeared first —
//! mirroring how a `HashMap<Value, _>` retains the first-inserted key.
//!
//! Dictionaries are *total*: there is no cardinality cap, so every column
//! of every relation has one and no consumer needs a `Value`-space
//! fallback. The only bound is the one that keeps [`NO_CODE`] out of the
//! code range, which the row-addressing width already implies.
//!
//! Every distinct value is stored once, in the code → value array. The
//! way back, value → code, is a table of codes (`CodeTable`) that finds
//! a value by probing that array, hashed by a fixed function of the value
//! alone (`Value::code_hash`) — so a dictionary's layout, like its
//! codes, repeats from run to run. [`Interner`] is the same table over
//! strings: loaders use it to give equal strings one allocation, which
//! [`DictBuilder::encode`] then recognises by address. [`CodeTuples`] is
//! the same table over tuples of codes: the cube's cell keys.

use crate::value::{code_hash_str, Value};
use std::sync::Arc;

/// The reserved "no code" sentinel: used for a key no row of the other
/// side of a join edge holds and for the cube's "don't care" coordinate.
/// It can never collide with a real code: codes < distinct values ≤ the
/// rows of the key class's columns, and rows are addressed by `u32`
/// throughout the engine (universal tuples, probe buckets).
/// [`DictBuilder::encode`] and [`Dict::extended`] enforce the bound with
/// a panic rather than trusting it.
pub const NO_CODE: u32 = u32::MAX;

/// The one hard check behind [`NO_CODE`]: a dictionary about to hold `len`
/// values must keep every code strictly below the sentinel.
#[inline]
fn assert_codes_fit(len: usize) {
    assert!(
        len < NO_CODE as usize,
        "dictionary would hold {len} distinct values; codes must stay below the NO_CODE sentinel"
    );
}

/// The value → code index of every dictionary in this module: an
/// open-addressed, linearly probed table whose slots hold a code and the
/// high half of its value's hash — never the value, which lives once in
/// the owner's code → value array and is reached through the code. The
/// hash half lets a probe skip occupied slots without touching that array
/// and lets the table grow without rehashing a single value.
///
/// Nothing here is seeded, so layout and probe counts are a pure function
/// of the insertion sequence; lookups return the one code whose value
/// matches, so layout is never observable in a result either.
#[derive(Debug, Clone, Default)]
struct CodeTable {
    /// `hash_half << 32 | code`; a slot whose code is [`NO_CODE`] is
    /// free. Length is zero or a power of two, at most half full.
    slots: Vec<u64>,
    len: usize,
}

impl CodeTable {
    const FREE: u64 = u64::MAX;

    /// Where the probe sequence of a slot (or of a hash shifted into slot
    /// position) starts. Tables of more than 2³² slots would start every
    /// probe in their first 2³² — slower, still correct.
    #[inline]
    fn home(&self, slot: u64) -> usize {
        (slot >> 32) as usize & (self.slots.len() - 1)
    }

    /// The code stored under `hash` for which `matches` holds.
    #[inline]
    fn find(&self, hash: u64, mut matches: impl FnMut(u32) -> bool) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let mut at = self.home(hash);
        loop {
            let slot = self.slots[at];
            let code = slot as u32;
            if code == NO_CODE {
                return None;
            }
            if slot >> 32 == hash >> 32 && matches(code) {
                return Some(code);
            }
            at = (at + 1) & (self.slots.len() - 1);
        }
    }

    /// Store `code` under `hash`. The caller has checked with
    /// [`CodeTable::find`] that no stored code's value equals this one's.
    fn insert(&mut self, hash: u64, code: u32) {
        if (self.len + 1) * 2 > self.slots.len() {
            let grown = (self.slots.len() * 2).max(16);
            let old = std::mem::replace(&mut self.slots, vec![CodeTable::FREE; grown]);
            for slot in old {
                if slot as u32 != NO_CODE {
                    self.place(slot);
                }
            }
        }
        self.place((hash & !u64::from(NO_CODE)) | u64::from(code));
        self.len += 1;
    }

    fn place(&mut self, slot: u64) {
        let mut at = self.home(slot);
        while self.slots[at] as u32 != NO_CODE {
            at = (at + 1) & (self.slots.len() - 1);
        }
        self.slots[at] = slot;
    }
}

/// Distinct code tuples of one width, numbered `0, 1, …` in
/// first-insertion order: `width` codes per tuple in one flat array,
/// found through a `CodeTable` hashed by a fixed function of the codes
/// alone. [`NO_CODE`] is an ordinary element here — the cube writes it
/// for "don't care".
///
/// The cube keys its cells with this and Algorithm 1 joins its
/// sub-query cubes on it, so no key costs an allocation. Ids follow the
/// insertion sequence, so anything ordered by id repeats from run to
/// run; the hash decides only where a tuple's id is filed.
#[derive(Debug, Clone)]
pub struct CodeTuples {
    width: usize,
    /// Tuple `id` is `codes[id * width..(id + 1) * width]`.
    codes: Vec<u32>,
    index: CodeTable,
}

impl CodeTuples {
    /// An empty set of `width`-code tuples.
    pub fn new(width: usize) -> CodeTuples {
        CodeTuples {
            width,
            codes: Vec::new(),
            index: CodeTable::default(),
        }
    }

    /// Number of distinct tuples.
    pub fn len(&self) -> usize {
        self.index.len
    }

    /// Whether no tuple has been inserted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The tuple numbered `id`.
    #[inline]
    pub fn get(&self, id: u32) -> &[u32] {
        let at = id as usize * self.width;
        &self.codes[at..at + self.width]
    }

    /// The id of `tuple`, inserting it under the next id if it is new;
    /// the flag says whether it was.
    ///
    /// # Panics
    ///
    /// If `tuple` is not `width` codes long, or a new id would reach
    /// [`NO_CODE`].
    #[inline]
    pub fn insert(&mut self, tuple: &[u32]) -> (u32, bool) {
        assert_eq!(tuple.len(), self.width, "tuple width");
        let hash = tuple_hash(tuple);
        if let Some(id) = self.index.find(hash, |id| self.get(id) == tuple) {
            return (id, false);
        }
        assert_codes_fit(self.len() + 1);
        let id = self.len() as u32;
        self.codes.extend_from_slice(tuple);
        self.index.insert(hash, id);
        (id, true)
    }

    /// The ids sorted by the `Value` order of the decoded tuples, where
    /// element `j` decodes through `dicts[j]` and [`NO_CODE`] sorts below
    /// every code, as `Value::Null` sorts below every value.
    ///
    /// Each tuple's rank key — per element, [`Dict::rank`] + 1, or 0 for
    /// [`NO_CODE`] — is computed once. When the keys of every element fit
    /// one `u64` together (element 0 in the high bits, so integer order is
    /// key order), a comparison is one integer compare; otherwise it is a
    /// slice compare.
    ///
    /// # Panics
    ///
    /// If `dicts` does not hold one dictionary per element.
    pub fn value_order(&self, dicts: &[&Dict]) -> Vec<u32> {
        assert_eq!(dicts.len(), self.width, "one dictionary per element");
        let width = self.width;
        let rank_key = |at: usize, code: u32| {
            if code == NO_CODE {
                0
            } else {
                dicts[at % width].rank(code) + 1
            }
        };
        // Bits that hold every rank key of an element: 0..=len.
        let bits: Vec<u32> = dicts
            .iter()
            .map(|d| u32::BITS - (d.len() as u32).leading_zeros())
            .collect();
        // Tuples are distinct, so their rank keys are: no ties to break.
        if bits.iter().sum::<u32>() <= u64::BITS {
            let mut keyed: Vec<(u64, u32)> = (0..self.len() as u32)
                .map(|id| {
                    let at = id as usize * width;
                    let packed =
                        self.get(id).iter().zip(&bits).enumerate().fold(
                            0u64,
                            |packed, (j, (&code, &b))| {
                                packed << b | u64::from(rank_key(at + j, code))
                            },
                        );
                    (packed, id)
                })
                .collect();
            keyed.sort_unstable();
            return keyed.into_iter().map(|(_, id)| id).collect();
        }
        let ranks: Vec<u32> = self
            .codes
            .iter()
            .enumerate()
            .map(|(at, &code)| rank_key(at, code))
            .collect();
        let key = |id: u32| &ranks[id as usize * width..(id as usize + 1) * width];
        let mut order: Vec<u32> = (0..self.len() as u32).collect();
        order.sort_unstable_by(|&a, &b| key(a).cmp(key(b)));
        order
    }
}

/// The hash of a code tuple [`CodeTuples`] files it under: a multiply-
/// rotate fold, whose last multiply spreads every code into the high
/// half that [`CodeTable`] probes and tags with.
#[inline]
fn tuple_hash(tuple: &[u32]) -> u64 {
    tuple.iter().fold(0u64, |h, &code| {
        (h.rotate_left(5) ^ u64::from(code)).wrapping_mul(0x517c_c1b7_2722_0a95)
    })
}

/// The bulk storage of a [`Dict`]: code → value plus value → code for a
/// contiguous code prefix. Shared (`Arc`) between a dictionary and its
/// live-append extensions so that [`Dict::extended`] never deep-copies
/// the prefix.
#[derive(Debug)]
struct DictBase {
    /// Code → value, in first-appearance order.
    values: Vec<Value>,
    /// Value → code, probing `values`.
    index: CodeTable,
}

/// An immutable value dictionary for one key class.
///
/// Storage is split in two layers: a shared `DictBase` holding codes
/// `0..base.values.len()`, and a small owned overlay holding the codes
/// live appends added past it ([`Dict::extended`] keeps the overlay
/// below a fraction of the base, consolidating when it grows past
/// that). Lookups probe the base first, then the overlay; every public
/// accessor hides the split.
#[derive(Debug, Clone)]
pub struct Dict {
    base: Arc<DictBase>,
    /// Codes `base.values.len()..`, in first-appearance order.
    extra_values: Vec<Value>,
    /// Value → code for the overlay values only, probing `extra_values`.
    extra_index: CodeTable,
    /// Code → rank of its value under the `Value` total order, for *all*
    /// codes. Owned: a flat `u32` array is cheap to copy, unlike the
    /// value storage.
    rank: Vec<u32>,
    /// The code NULL was assigned, if the class contains NULLs.
    null_code: Option<u32>,
}

impl Dict {
    /// Number of distinct values (= number of codes).
    pub fn len(&self) -> usize {
        self.base.values.len() + self.extra_values.len()
    }

    /// Whether the dictionary is empty (its columns had no rows).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The first-appearance representative value of `code`.
    #[inline]
    pub fn value(&self, code: u32) -> &Value {
        let idx = code as usize;
        match self.base.values.get(idx) {
            Some(v) => v,
            None => &self.extra_values[idx - self.base.values.len()],
        }
    }

    /// The code of `v`, if `v` occurs in the class (equality under the
    /// `Value` total order, so `Int(2)` finds a code stored for
    /// `Float(2.0)` and vice versa).
    #[inline]
    pub fn code(&self, v: &Value) -> Option<u32> {
        let hash = v.code_hash();
        let is_v = |code| self.value(code) == v;
        match self.base.index.find(hash, is_v) {
            None => self.extra_index.find(hash, is_v),
            found => found,
        }
    }

    /// The position of `code`'s value when all dictionary values are
    /// sorted by the `Value` total order. Ranks are distinct, so sorting
    /// codes by rank reproduces exactly the order `Value`-sorting the
    /// decoded values would.
    #[inline]
    pub fn rank(&self, code: u32) -> u32 {
        self.rank[code as usize]
    }

    /// The code assigned to SQL NULL, if the class contains NULLs.
    pub fn null_code(&self) -> Option<u32> {
        self.null_code
    }

    /// Whether `code` encodes SQL NULL.
    #[inline]
    pub fn is_null_code(&self, code: u32) -> bool {
        self.null_code == Some(code)
    }

    /// A dictionary extended with `fresh` values, which must be distinct
    /// from each other and from every value already coded (the caller
    /// checks [`Dict::code`] first). Fresh values take the next codes in
    /// order, exactly as one [`DictBuilder`] fed the old values and then
    /// the fresh ones would assign them — but the rank table is *merged*
    /// rather than re-sorted: the `k` fresh values are sorted among
    /// themselves, their insertion positions in the old value order are
    /// found by binary search, and every rank is then a shifted copy. That
    /// turns the `O(d log d)`-comparison freeze of [`DictBuilder::finish`]
    /// into `O(d + k log d)`, and the value storage itself is not copied
    /// at all: the extension shares this dictionary's base and puts the
    /// fresh values in the overlay (consolidating into a new base only
    /// once the overlay outgrows a fraction of it, so the amortized cost
    /// per fresh value stays constant).
    ///
    /// # Panics
    ///
    /// If the extended dictionary would reach [`NO_CODE`] codes.
    pub fn extended(&self, fresh: Vec<Value>) -> Dict {
        assert_codes_fit(self.len() + fresh.len());
        debug_assert!(fresh.iter().all(|v| self.code(v).is_none()));
        let old_len = self.len();
        // Old codes in value order, recovered from the rank permutation.
        let mut by_rank = vec![0u32; old_len];
        for (code, &r) in self.rank.iter().enumerate() {
            by_rank[r as usize] = code as u32;
        }
        // Sort only the fresh codes by value.
        let mut fresh_sorted: Vec<u32> = (0..fresh.len() as u32).collect();
        fresh_sorted.sort_unstable_by(|&a, &b| fresh[a as usize].cmp(&fresh[b as usize]));
        // Each fresh value's insertion position = number of old values
        // strictly below it. Non-decreasing because `fresh_sorted` is in
        // value order, so the shift pass below is a two-pointer merge.
        let positions: Vec<u32> = fresh_sorted
            .iter()
            .map(|&j| by_rank.partition_point(|&c| *self.value(c) < fresh[j as usize]) as u32)
            .collect();
        let mut rank = vec![0u32; old_len + fresh.len()];
        // Fresh value: old values below it, plus fresh values sorting
        // before it.
        for (i, &j) in fresh_sorted.iter().enumerate() {
            rank[old_len + j as usize] = positions[i] + i as u32;
        }
        // Old value at old rank `r`: shifted up by the fresh values that
        // insert at or below `r`. (Ties are impossible — all values are
        // distinct under the total order.)
        let mut inserted = 0usize;
        for r in 0..old_len as u32 {
            while inserted < positions.len() && positions[inserted] <= r {
                inserted += 1;
            }
            rank[by_rank[r as usize] as usize] = r + inserted as u32;
        }
        let null_code = self.null_code.or_else(|| {
            fresh
                .iter()
                .position(Value::is_null)
                .map(|p| (old_len + p) as u32)
        });
        let (base, extra_values, extra_index) =
            if (self.extra_values.len() + fresh.len()) * 8 > self.base.values.len() {
                // Overlay would outgrow an eighth of the base: fold
                // everything into a fresh base. O(d), but amortized over
                // the ≥ d/8 overlay insertions since the last fold.
                let mut values = Vec::with_capacity(old_len + fresh.len());
                values.extend(self.base.values.iter().cloned());
                values.extend(self.extra_values.iter().cloned());
                values.extend(fresh);
                let mut index = CodeTable::default();
                for (code, v) in values.iter().enumerate() {
                    index.insert(v.code_hash(), code as u32);
                }
                (
                    Arc::new(DictBase { values, index }),
                    Vec::new(),
                    CodeTable::default(),
                )
            } else {
                let mut extra_values = self.extra_values.clone();
                let mut extra_index = self.extra_index.clone();
                for (j, v) in fresh.iter().enumerate() {
                    extra_index.insert(v.code_hash(), (old_len + j) as u32);
                }
                extra_values.extend(fresh);
                (Arc::clone(&self.base), extra_values, extra_index)
            };
        Dict {
            base,
            extra_values,
            extra_index,
            rank,
            null_code,
        }
    }
}

/// Incremental dictionary builder for one sequential scan of a key class.
#[derive(Debug, Default)]
pub struct DictBuilder {
    values: Vec<Value>,
    index: CodeTable,
    /// Codes of string values met lately, filed under their allocation's
    /// address. A cell in the same allocation as `values[code]` *is* that
    /// string, so it takes that code without its bytes being hashed or
    /// compared; any other cell goes through `index`. Addresses decide
    /// only which of the two routes answers, never the answer.
    recent: [u32; 32],
}

impl DictBuilder {
    /// An empty builder.
    pub fn new() -> DictBuilder {
        DictBuilder::default()
    }

    /// Encode one value, assigning the next code on first appearance.
    ///
    /// # Panics
    ///
    /// If a fresh value would be assigned the [`NO_CODE`] sentinel.
    #[inline]
    pub fn encode(&mut self, v: &Value) -> u32 {
        let Value::Str(s) = v else {
            return self.encode_hashed(v);
        };
        let filed = (Arc::as_ptr(s).cast::<u8>() as usize >> 4) % self.recent.len();
        if let Some(Value::Str(seen)) = self.values.get(self.recent[filed] as usize) {
            if Arc::ptr_eq(seen, s) {
                return self.recent[filed];
            }
        }
        let code = self.encode_hashed(v);
        self.recent[filed] = code;
        code
    }

    fn encode_hashed(&mut self, v: &Value) -> u32 {
        let hash = v.code_hash();
        if let Some(code) = self
            .index
            .find(hash, |code| self.values[code as usize] == *v)
        {
            return code;
        }
        assert_codes_fit(self.values.len() + 1);
        let code = self.values.len() as u32;
        self.values.push(v.clone());
        self.index.insert(hash, code);
        code
    }

    /// Number of codes assigned so far.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no codes have been assigned.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The distinct values seen, in code order.
    pub(crate) fn into_values(self) -> Vec<Value> {
        self.values
    }

    /// Freeze into a [`Dict`], computing the rank table and null code.
    pub fn finish(self) -> Dict {
        let DictBuilder { values, index, .. } = self;
        // Sort code ids by their values; the sort key is the Value total
        // order, under which all dictionary values are distinct, so the
        // resulting permutation (and hence every rank) is unique. (Keys
        // and years arrive in value order already; the sort notices in
        // one pass, so that case needs no branch of its own here.)
        let mut by_value: Vec<u32> = (0..values.len() as u32).collect();
        by_value.sort_unstable_by(|&a, &b| values[a as usize].cmp(&values[b as usize]));
        let mut rank = vec![0u32; values.len()];
        for (pos, &code) in by_value.iter().enumerate() {
            rank[code as usize] = pos as u32;
        }
        let null_code = values.iter().position(Value::is_null).map(|p| p as u32);
        Dict {
            base: Arc::new(DictBase { values, index }),
            extra_values: Vec::new(),
            extra_index: CodeTable::default(),
            rank,
            null_code,
        }
    }
}

/// Gives every distinct string one allocation. Loaders pass string cells
/// through one of these so that the rows of a relation share storage and
/// the dictionary build meets mostly pointers it has already seen.
#[derive(Debug, Default)]
pub struct Interner {
    strings: Vec<Arc<str>>,
    index: CodeTable,
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Interner {
        Interner::default()
    }

    /// `s` as a string [`Value`], sharing the allocation of every earlier
    /// call with an equal string.
    pub fn intern(&mut self, s: &str) -> Value {
        let hash = code_hash_str(s);
        let found = self
            .index
            .find(hash, |code| &*self.strings[code as usize] == s);
        let code = found.unwrap_or_else(|| {
            assert_codes_fit(self.strings.len() + 1);
            let code = self.strings.len() as u32;
            self.strings.push(Arc::from(s));
            self.index.insert(hash, code);
            code
        });
        Value::Str(Arc::clone(&self.strings[code as usize]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dict_of(values: &[Value]) -> Dict {
        let mut b = DictBuilder::new();
        for v in values {
            b.encode(v);
        }
        b.finish()
    }

    #[test]
    fn codes_are_first_appearance_order() {
        let d = dict_of(&[
            Value::str("b"),
            Value::str("a"),
            Value::str("b"),
            Value::str("c"),
            Value::str("a"),
        ]);
        assert_eq!(d.len(), 3);
        assert_eq!(d.code(&Value::str("b")), Some(0));
        assert_eq!(d.code(&Value::str("a")), Some(1));
        assert_eq!(d.code(&Value::str("c")), Some(2));
        assert_eq!(d.value(0), &Value::str("b"));
        assert_eq!(d.code(&Value::str("zzz")), None);
    }

    #[test]
    fn rank_recovers_value_order() {
        let d = dict_of(&[Value::str("b"), Value::str("a"), Value::str("c")]);
        // a < b < c, so code 1 (a) ranks 0, code 0 (b) ranks 1, code 2 ranks 2.
        assert_eq!(d.rank(1), 0);
        assert_eq!(d.rank(0), 1);
        assert_eq!(d.rank(2), 2);
    }

    #[test]
    fn null_gets_a_regular_code() {
        let d = dict_of(&[Value::Int(1), Value::Null, Value::Int(2), Value::Null]);
        assert_eq!(d.len(), 3);
        assert_eq!(d.null_code(), Some(1));
        assert!(d.is_null_code(1));
        assert!(!d.is_null_code(0));
        // Null sorts below everything, so its rank is 0.
        assert_eq!(d.rank(1), 0);
    }

    #[test]
    fn int_float_unify_to_first_appearance() {
        let d = dict_of(&[Value::Float(2.0), Value::Int(2), Value::Int(3)]);
        assert_eq!(d.len(), 2, "Int(2) == Float(2.0) under the total order");
        assert_eq!(d.code(&Value::Int(2)), Some(0));
        assert_eq!(d.code(&Value::Float(2.0)), Some(0));
        assert_eq!(d.value(0), &Value::Float(2.0), "first spelling wins");
    }

    #[test]
    fn nan_payloads_are_distinct_values() {
        let q1 = f64::NAN;
        let q2 = f64::from_bits(f64::NAN.to_bits() ^ 1);
        let d = dict_of(&[Value::Float(q1), Value::Float(q2), Value::Float(q1)]);
        assert_eq!(d.len(), 2, "total_cmp distinguishes NaN bit patterns");
        assert_eq!(d.code(&Value::Float(q1)), Some(0));
        assert_eq!(d.code(&Value::Float(q2)), Some(1));
    }

    /// Code for code: values, ranks, lookups and the null code.
    fn assert_same_dict(got: &Dict, want: &Dict) {
        assert_eq!(got.len(), want.len());
        for code in 0..want.len() as u32 {
            assert_eq!(got.value(code), want.value(code), "value of {code}");
            assert_eq!(got.rank(code), want.rank(code), "rank of {code}");
            assert_eq!(got.code(want.value(code)), Some(code), "code of {code}");
        }
        assert_eq!(got.null_code(), want.null_code());
    }

    #[test]
    fn extended_never_rewrites_codes_and_matches_one_build() {
        let old_rows = [Value::str("b"), Value::Null, Value::str("a")];
        let new_rows = [Value::str("a"), Value::Int(7), Value::Null, Value::str("c")];
        let old = dict_of(&old_rows);
        // What an append hands over: the values no old row stored.
        let extended = old.extended(vec![Value::Int(7), Value::str("c")]);

        let all: Vec<Value> = old_rows.iter().chain(&new_rows).cloned().collect();
        assert_same_dict(&extended, &dict_of(&all));
        // Old codes survive verbatim.
        for code in 0..old.len() as u32 {
            assert_eq!(extended.value(code), old.value(code));
        }
        assert_eq!(extended.code(&Value::Int(7)), Some(3));
        assert_eq!(extended.code(&Value::str("c")), Some(4));
    }

    #[test]
    fn extended_merges_ranks_like_a_full_sort() {
        // The merge-based rank update must agree, code for code and rank
        // for rank, with building over old and fresh values and sorting
        // everything.
        let old_rows = [
            Value::str("m"),
            Value::str("b"),
            Value::Int(4),
            Value::str("x"),
            Value::Null,
        ];
        // Fresh values landing before, between, and after old ranks,
        // including consecutive insertions at one position.
        let fresh = vec![
            Value::str("z"),
            Value::str("a"),
            Value::Int(1),
            Value::Int(2),
            Value::str("q"),
        ];
        let merged = dict_of(&old_rows).extended(fresh.clone());
        let all: Vec<Value> = old_rows.iter().cloned().chain(fresh).collect();
        assert_same_dict(&merged, &dict_of(&all));
    }

    #[test]
    fn repeated_extensions_match_refinish_across_consolidation() {
        // Chain extensions until the overlay folds into a new base (the
        // small base here makes every step consolidate) and compare each
        // step against one build over all the values so far.
        let mut rows: Vec<Value> = vec![Value::str("k"), Value::str("d"), Value::Int(40)];
        let mut d = dict_of(&rows);
        for step in 0..6 {
            let fresh = vec![Value::str(format!("s{step}")), Value::Int(step * 7 - 10)];
            let merged = d.extended(fresh.clone());
            rows.extend(fresh);
            assert_same_dict(&merged, &dict_of(&rows));
            d = merged;
        }
    }

    #[test]
    fn overlay_extensions_match_one_build_until_and_past_the_fold() {
        // One fresh value at a time over a 40-value base: five steps land
        // in the overlay, the sixth folds it into a new base, and the
        // rest start a second overlay.
        let mut rows: Vec<Value> = (0..40).map(|i| Value::Int(i * 3)).collect();
        let mut d = dict_of(&rows);
        for step in 0..9 {
            let fresh = vec![Value::str(format!("s{step}"))];
            d = d.extended(fresh.clone());
            rows.extend(fresh);
            assert_same_dict(&d, &dict_of(&rows));
            assert_eq!(d.code(&Value::str("absent")), None);
        }
    }

    #[test]
    fn code_tuples_number_tuples_in_first_insertion_order() {
        let mut t = CodeTuples::new(2);
        assert_eq!(t.insert(&[3, NO_CODE]), (0, true));
        assert_eq!(t.insert(&[1, 2]), (1, true));
        assert_eq!(t.insert(&[3, NO_CODE]), (0, false));
        assert_eq!(t.insert(&[NO_CODE, 3]), (2, true));
        assert_eq!(t.len(), 3);
        assert_eq!(t.get(1), &[1, 2]);
        // Enough tuples to grow the index several times.
        let mut many = CodeTuples::new(3);
        for i in 0..1000u32 {
            assert_eq!(many.insert(&[i % 7, i, NO_CODE]), (i, true));
        }
        for i in 0..1000u32 {
            assert_eq!(many.insert(&[i % 7, i, NO_CODE]), (i, false));
        }
        // Width 0 holds exactly one tuple, the empty one.
        let mut empty = CodeTuples::new(0);
        assert!(empty.is_empty());
        assert_eq!(empty.insert(&[]), (0, true));
        assert_eq!(empty.insert(&[]), (0, false));
        assert_eq!(empty.len(), 1);
    }

    /// `value_order` sorts ids exactly as sorting the decoded tuples by
    /// the `Value` order does, with `NO_CODE` decoding to `Value::Null`.
    fn assert_value_order(dicts: &[Dict], tuples: &CodeTuples) {
        let refs: Vec<&Dict> = dicts.iter().collect();
        let decoded = |id: u32| -> Vec<Value> {
            tuples
                .get(id)
                .iter()
                .zip(dicts)
                .map(|(&c, d)| {
                    if c == NO_CODE {
                        Value::Null
                    } else {
                        d.value(c).clone()
                    }
                })
                .collect()
        };
        let mut want: Vec<u32> = (0..tuples.len() as u32).collect();
        want.sort_by_key(|&id| decoded(id));
        assert_eq!(tuples.value_order(&refs), want);
    }

    #[test]
    fn value_order_is_the_value_order_packed_or_not() {
        // Two small dictionaries: rank keys pack into one u64.
        let small = [
            dict_of(&[Value::str("m"), Value::str("b"), Value::str("x")]),
            dict_of(&[Value::Int(9), Value::Float(-1.5), Value::Int(4)]),
        ];
        let mut t = CodeTuples::new(2);
        for a in [0, 1, 2, NO_CODE] {
            for b in [2, NO_CODE, 0, 1] {
                t.insert(&[a, b]);
            }
        }
        assert_value_order(&small, &t);
        // Five 10 000-value dictionaries need 70 bits: slice compare.
        let wide: Vec<Dict> = (0..5)
            .map(|k| {
                dict_of(
                    &(0..10_000)
                        .map(|i| Value::Int((i * 7919 + k) % 10_000))
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        let mut t = CodeTuples::new(5);
        for i in 0..500u32 {
            let code = |k: u32| {
                if (i + k).is_multiple_of(4) {
                    NO_CODE
                } else {
                    (i * 37 + k * 11) % 10_000
                }
            };
            t.insert(&[code(0), code(1), code(2), code(3), code(4)]);
        }
        assert_value_order(&wide, &t);
    }

    #[test]
    fn code_table_keeps_codes_whose_hashes_collide() {
        // Same hash half, hence same home slot and same tag: only the
        // caller's value check tells them apart.
        let mut t = CodeTable::default();
        let hash = 0xABCD_0000_0000_0000;
        for code in 0..100 {
            assert_eq!(t.find(hash, |c| c == code), None);
            t.insert(hash, code);
        }
        for code in 0..100 {
            assert_eq!(t.find(hash, |c| c == code), Some(code));
        }
        assert_eq!(t.find(hash, |_| false), None);
        assert_eq!(t.find(!hash, |_| true), None);
    }

    #[test]
    fn interner_shares_one_allocation_per_distinct_string() {
        let mut strings = Interner::new();
        let texts = ["", "a", "b", "a", "longer than eight bytes", "b", ""];
        let cells: Vec<Value> = texts.iter().map(|t| strings.intern(t)).collect();
        for (i, a) in cells.iter().enumerate() {
            assert_eq!(a.as_str(), Some(texts[i]));
            for (j, b) in cells.iter().enumerate() {
                let (Value::Str(a), Value::Str(b)) = (a, b) else {
                    panic!("interned cells are strings");
                };
                assert_eq!(Arc::ptr_eq(a, b), texts[i] == texts[j], "{i} vs {j}");
            }
        }
    }

    #[test]
    fn extended_with_no_fresh_values_is_identity() {
        let d = dict_of(&[Value::str("b"), Value::Null, Value::Int(9)]);
        assert_same_dict(&d.extended(Vec::new()), &d);
    }

    #[test]
    fn extended_assigns_null_code_to_fresh_null() {
        let d = dict_of(&[Value::Int(1), Value::Int(2)]);
        assert_eq!(d.null_code(), None);
        let merged = d.extended(vec![Value::str("s"), Value::Null]);
        assert_eq!(merged.null_code(), Some(3));
        // Null sorts below everything under the total order.
        assert_eq!(merged.rank(3), 0);
    }

    #[test]
    fn empty_dict() {
        let d = DictBuilder::new().finish();
        assert!(d.is_empty());
        assert_eq!(d.len(), 0);
        assert_eq!(d.null_code(), None);
        assert_eq!(d.code(&Value::Int(1)), None);
    }
}
