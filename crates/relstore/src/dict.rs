//! First-appearance dictionary encoding for attribute values.
//!
//! A [`Dict`] maps the distinct [`Value`]s of one column to dense `u32`
//! codes. Codes are assigned **in first-appearance-in-table order** during
//! a sequential scan, so a dictionary is a pure function of the stored
//! rows — never of thread counts, hash seeds, or probe order. That makes
//! code-space computations (hash-join probes, semijoin membership, cube
//! grouping) safe to substitute for `Value`-space computations inside the
//! engine's bit-identity contract: the code↔value mapping is a bijection
//! on the column's distinct values, and the per-code `rank` table recovers
//! the `Value` total order exactly.
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

use crate::value::Value;
use std::collections::HashMap;
use std::sync::Arc;

/// The reserved "no code" sentinel: used for failed cross-dictionary
/// translations and for the cube's "don't care" coordinate. It can never
/// collide with a real code: codes < distinct values ≤ rows, and rows are
/// addressed by `u32` throughout the engine (universal tuples, probe
/// buckets), so a relation — and hence a dictionary — holds fewer than
/// `u32::MAX` entries. [`DictBuilder::encode`] and [`Dict::extended`]
/// enforce that bound with a panic rather than trusting it.
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

/// The bulk storage of a [`Dict`]: code → value plus value → code for a
/// contiguous code prefix. Shared (`Arc`) between a dictionary and its
/// live-append extensions so that [`Dict::extended`] never deep-copies
/// the prefix.
#[derive(Debug)]
struct DictBase {
    /// Code → value, in first-appearance order.
    values: Vec<Value>,
    /// Value → code (same equality/hash as every `Value`-keyed map).
    index: HashMap<Value, u32>,
}

/// An immutable value dictionary for one column.
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
    /// Value → code for the overlay values only.
    extra_index: HashMap<Value, u32>,
    /// Code → rank of its value under the `Value` total order, for *all*
    /// codes. Owned: a flat `u32` array is cheap to copy, unlike the
    /// value storage.
    rank: Vec<u32>,
    /// The code NULL was assigned, if the column contains NULLs.
    null_code: Option<u32>,
}

impl Dict {
    /// Number of distinct values (= number of codes).
    pub fn len(&self) -> usize {
        self.base.values.len() + self.extra_values.len()
    }

    /// Whether the dictionary is empty (column had no rows).
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

    /// The code of `v`, if `v` occurs in the column (equality under the
    /// `Value` total order, so `Int(2)` finds a code stored for
    /// `Float(2.0)` and vice versa).
    #[inline]
    pub fn code(&self, v: &Value) -> Option<u32> {
        match self.base.index.get(v) {
            Some(&code) => Some(code),
            None if self.extra_index.is_empty() => None,
            None => self.extra_index.get(v).copied(),
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

    /// The code assigned to SQL NULL, if the column contains NULLs.
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
    /// order, exactly as [`DictBuilder::resume`] + re-encoding would
    /// assign them — but the rank table is *merged* rather than re-sorted:
    /// the `k` fresh values are sorted among themselves, their insertion
    /// positions in the old value order are found by binary search, and
    /// every rank is then a shifted copy. That turns the
    /// `O(d log d)`-comparison freeze of [`DictBuilder::finish`] into
    /// `O(d + k log d)`, and the value storage itself is not copied at
    /// all: the extension shares this dictionary's base and puts the
    /// fresh values in the overlay (consolidating into a new base only
    /// once the overlay outgrows a fraction of it, so the amortized cost
    /// per fresh value stays constant).
    ///
    /// # Panics
    ///
    /// If the extended dictionary would reach [`NO_CODE`] codes.
    pub fn extended(&self, fresh: Vec<Value>) -> Dict {
        if fresh.is_empty() {
            return self.clone();
        }
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
        let (base, extra_values, extra_index) = if (self.extra_values.len() + fresh.len()) * 8
            > self.base.values.len()
        {
            // Overlay would outgrow an eighth of the base: fold
            // everything into a fresh base. O(d), but amortized over
            // the ≥ d/8 overlay insertions since the last fold.
            let mut values =
                Vec::with_capacity(self.base.values.len() + self.extra_values.len() + fresh.len());
            values.extend(self.base.values.iter().cloned());
            values.extend(self.extra_values.iter().cloned());
            values.extend(fresh);
            let index = values
                .iter()
                .enumerate()
                .map(|(c, v)| (v.clone(), c as u32))
                .collect();
            (
                Arc::new(DictBase { values, index }),
                Vec::new(),
                HashMap::new(),
            )
        } else {
            let mut extra_values = self.extra_values.clone();
            let mut extra_index = self.extra_index.clone();
            for (j, v) in fresh.iter().enumerate() {
                extra_index.insert(v.clone(), (old_len + j) as u32);
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

    /// Per-code translation table into another column's dictionary:
    /// `table[c]` is the `other` code of `self.value(c)`, or [`NO_CODE`]
    /// when the value does not occur in `other`. This is the join-probe
    /// primitive: translating once per *code* replaces hashing once per
    /// *row*.
    pub fn translate_to(&self, other: &Dict) -> Vec<u32> {
        (0..self.len() as u32)
            .map(|c| other.code(self.value(c)).unwrap_or(NO_CODE))
            .collect()
    }
}

/// Incremental dictionary builder for one sequential column scan.
#[derive(Debug, Default)]
pub struct DictBuilder {
    values: Vec<Value>,
    index: HashMap<Value, u32>,
}

impl DictBuilder {
    /// An empty builder.
    pub fn new() -> DictBuilder {
        DictBuilder::default()
    }

    /// A builder seeded with every code of an existing dictionary, for
    /// appending new rows to an already-encoded column. Because codes are
    /// first-appearance order over the stored rows, resuming from the old
    /// dictionary and encoding only the new rows yields *exactly* the
    /// dictionary a from-scratch scan of old + new rows would: existing
    /// codes are never reassigned, and fresh values take the next codes.
    pub fn resume(dict: &Dict) -> DictBuilder {
        let mut index = dict.base.index.clone();
        for (j, v) in dict.extra_values.iter().enumerate() {
            index.insert(v.clone(), (dict.base.values.len() + j) as u32);
        }
        let mut values = dict.base.values.clone();
        values.extend(dict.extra_values.iter().cloned());
        DictBuilder { values, index }
    }

    /// Encode one value, assigning the next code on first appearance.
    ///
    /// # Panics
    ///
    /// If a fresh value would be assigned the [`NO_CODE`] sentinel.
    pub fn encode(&mut self, v: &Value) -> u32 {
        if let Some(&code) = self.index.get(v) {
            return code;
        }
        assert_codes_fit(self.values.len() + 1);
        let code = self.values.len() as u32;
        self.values.push(v.clone());
        self.index.insert(v.clone(), code);
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

    /// Freeze into a [`Dict`], computing the rank table and null code.
    pub fn finish(self) -> Dict {
        let DictBuilder { values, index } = self;
        // Sort code ids by their values; the sort key is the Value total
        // order, under which all dictionary values are distinct, so the
        // resulting permutation (and hence every rank) is unique.
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
            extra_index: HashMap::new(),
            rank,
            null_code,
        }
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

    #[test]
    fn translate_maps_shared_values_and_flags_missing() {
        let a = dict_of(&[Value::str("x"), Value::str("y"), Value::str("z")]);
        let b = dict_of(&[Value::str("z"), Value::str("x")]);
        let t = a.translate_to(&b);
        assert_eq!(t, vec![1, NO_CODE, 0]);
    }

    #[test]
    fn resume_extends_without_rewriting_codes() {
        let old_rows = [Value::str("b"), Value::Null, Value::str("a")];
        let new_rows = [Value::str("a"), Value::Int(7), Value::Null, Value::str("c")];
        let old = dict_of(&old_rows);

        let mut resumed = DictBuilder::resume(&old);
        for v in &new_rows {
            resumed.encode(v);
        }
        let extended = resumed.finish();

        let mut scratch = DictBuilder::new();
        for v in old_rows.iter().chain(&new_rows) {
            scratch.encode(v);
        }
        let rebuilt = scratch.finish();

        assert_eq!(extended.len(), rebuilt.len());
        for code in 0..extended.len() as u32 {
            assert_eq!(extended.value(code), rebuilt.value(code));
            assert_eq!(extended.rank(code), rebuilt.rank(code));
        }
        assert_eq!(extended.null_code(), rebuilt.null_code());
        // Old codes survive verbatim.
        for code in 0..old.len() as u32 {
            assert_eq!(extended.value(code), old.value(code));
        }
        assert_eq!(extended.code(&Value::Int(7)), Some(3));
        assert_eq!(extended.code(&Value::str("c")), Some(4));
    }

    #[test]
    fn extended_matches_resume_and_refinish() {
        // The merge-based rank update must agree, code for code and rank
        // for rank, with resuming the builder and re-sorting everything.
        let old_rows = [
            Value::str("m"),
            Value::str("b"),
            Value::Int(4),
            Value::str("x"),
            Value::Null,
        ];
        let old = dict_of(&old_rows);
        // Fresh values landing before, between, and after old ranks,
        // including consecutive insertions at one position.
        let fresh = vec![
            Value::str("z"),
            Value::str("a"),
            Value::Int(1),
            Value::Int(2),
            Value::str("q"),
        ];
        let merged = old.extended(fresh.clone());

        let mut resumed = DictBuilder::resume(&old);
        for v in &fresh {
            resumed.encode(v);
        }
        let refinished = resumed.finish();

        assert_eq!(merged.len(), refinished.len());
        for code in 0..merged.len() as u32 {
            assert_eq!(merged.value(code), refinished.value(code));
            assert_eq!(merged.rank(code), refinished.rank(code), "code {code}");
            assert_eq!(merged.code(merged.value(code)), Some(code));
        }
        assert_eq!(merged.null_code(), refinished.null_code());
    }

    #[test]
    fn repeated_extensions_match_refinish_across_consolidation() {
        // Chain extensions until the overlay folds into a new base (the
        // small base here makes every step consolidate) and compare each
        // step against the resume-and-refinish reference.
        let mut rows: Vec<Value> = vec![Value::str("k"), Value::str("d"), Value::Int(40)];
        let mut d = dict_of(&rows);
        for step in 0..6 {
            let fresh = vec![Value::str(format!("s{step}")), Value::Int(step * 7 - 10)];
            let merged = d.extended(fresh.clone());
            rows.extend(fresh);
            let reference = dict_of(&rows);
            assert_eq!(merged.len(), reference.len(), "step {step}");
            for code in 0..merged.len() as u32 {
                assert_eq!(merged.value(code), reference.value(code), "step {step}");
                assert_eq!(merged.rank(code), reference.rank(code), "step {step}");
                assert_eq!(merged.code(merged.value(code)), Some(code), "step {step}");
            }
            assert_eq!(merged.null_code(), reference.null_code());
            d = merged;
        }
    }

    #[test]
    fn extended_with_no_fresh_values_is_identity() {
        let d = dict_of(&[Value::str("b"), Value::Null, Value::Int(9)]);
        let same = d.extended(Vec::new());
        assert_eq!(same.len(), d.len());
        for code in 0..d.len() as u32 {
            assert_eq!(same.value(code), d.value(code));
            assert_eq!(same.rank(code), d.rank(code));
        }
        assert_eq!(same.null_code(), d.null_code());
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
    fn resume_on_unchanged_input_reproduces_dict() {
        let rows = [Value::Int(3), Value::Null, Value::Float(1.5), Value::Int(3)];
        let d = dict_of(&rows);
        let again = DictBuilder::resume(&d).finish();
        assert_eq!(again.len(), d.len());
        for code in 0..d.len() as u32 {
            assert_eq!(again.value(code), d.value(code));
            assert_eq!(again.rank(code), d.rank(code));
        }
        assert_eq!(again.null_code(), d.null_code());
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
