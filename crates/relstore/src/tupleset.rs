//! Dense bitsets over row indices.
//!
//! A [`TupleSet`] marks a subset of the rows of one relation by index. The
//! intervention fixpoint of program **P**, the semijoin reducer, and
//! selections all manipulate row subsets; a bitset keeps those operations
//! allocation-free per iteration and makes Δ-monotonicity (`Δ^0 ⊆ Δ^1 ⊆ …`)
//! cheap to assert.

/// A fixed-capacity bitset over the row indices `0..len` of one relation.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct TupleSet {
    words: Vec<u64>,
    len: usize,
}

impl TupleSet {
    /// An empty set over `len` rows.
    pub fn empty(len: usize) -> TupleSet {
        TupleSet {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// A full set over `len` rows.
    pub fn full(len: usize) -> TupleSet {
        let mut s = TupleSet {
            words: vec![!0u64; len.div_ceil(64)],
            len,
        };
        s.clear_tail();
        s
    }

    /// Number of rows the set ranges over (not the number of set bits).
    pub fn capacity(&self) -> usize {
        self.len
    }

    /// Zero any bits beyond `len` in the last word so `count`/`is_empty`
    /// stay correct after whole-word operations.
    fn clear_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// Whether row `i` is in the set.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Add row `i`. Returns `true` if it was newly added.
    #[inline]
    pub fn insert(&mut self, i: usize) -> bool {
        debug_assert!(i < self.len);
        let w = &mut self.words[i / 64];
        let mask = 1u64 << (i % 64);
        let added = *w & mask == 0;
        *w |= mask;
        added
    }

    /// Remove row `i`. Returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, i: usize) -> bool {
        debug_assert!(i < self.len);
        let w = &mut self.words[i / 64];
        let mask = 1u64 << (i % 64);
        let removed = *w & mask != 0;
        *w &= !mask;
        removed
    }

    /// Number of rows in the set.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// `self ⊆ other`. Panics if capacities differ.
    pub fn is_subset(&self, other: &TupleSet) -> bool {
        assert_eq!(self.len, other.len, "capacity mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// In-place union. Returns `true` if any bit changed.
    pub fn union_with(&mut self, other: &TupleSet) -> bool {
        assert_eq!(self.len, other.len, "capacity mismatch");
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let next = *a | b;
            changed |= next != *a;
            *a = next;
        }
        changed
    }

    /// In-place intersection.
    pub fn intersect_with(&mut self, other: &TupleSet) {
        assert_eq!(self.len, other.len, "capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// In-place difference (`self − other`).
    pub fn difference_with(&mut self, other: &TupleSet) {
        assert_eq!(self.len, other.len, "capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// The complement over the full row range.
    pub fn complement(&self) -> TupleSet {
        let mut out = TupleSet {
            words: self.words.iter().map(|w| !w).collect(),
            len: self.len,
        };
        out.clear_tail();
        out
    }

    /// Remove every row.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Grow the capacity to `new_len` rows, leaving every new bit clear.
    /// Existing membership is untouched; this is the append path's way of
    /// extending a live set over a relation that just gained rows.
    pub fn grow(&mut self, new_len: usize) {
        assert!(new_len >= self.len, "grow cannot shrink a TupleSet");
        self.len = new_len;
        self.words.resize(new_len.div_ceil(64), 0);
    }

    /// A set over `len` rows with exactly the first `k` bits set — the
    /// "pre-append rows" view of a relation that grew from `k` to `len`.
    pub fn prefix(len: usize, k: usize) -> TupleSet {
        assert!(k <= len, "prefix length exceeds capacity");
        let mut s = TupleSet::empty(len);
        for w in 0..k / 64 {
            s.words[w] = !0u64;
        }
        let tail = k % 64;
        if tail != 0 {
            s.words[k / 64] = (1u64 << tail) - 1;
        }
        s
    }

    /// Iterator over the set row indices, ascending.
    pub fn iter(&self) -> TupleSetIter<'_> {
        TupleSetIter {
            set: self,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }
}

impl std::fmt::Debug for TupleSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<usize> for TupleSet {
    /// Collect indices into a set sized to the maximum index + 1. Prefer
    /// [`TupleSet::empty`] with explicit capacity when the relation size is
    /// known (it almost always is).
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> TupleSet {
        let indices: Vec<usize> = iter.into_iter().collect();
        let len = indices.iter().max().map_or(0, |m| m + 1);
        let mut s = TupleSet::empty(len);
        for i in indices {
            s.insert(i);
        }
        s
    }
}

/// Ascending iterator over set bits.
#[derive(Clone)]
pub struct TupleSetIter<'a> {
    set: &'a TupleSet,
    word_idx: usize,
    current: u64,
}

impl Iterator for TupleSetIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * 64 + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.set.words.len() {
                return None;
            }
            self.current = self.set.words[self.word_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_full() {
        let e = TupleSet::empty(130);
        assert!(e.is_empty());
        assert_eq!(e.count(), 0);
        let f = TupleSet::full(130);
        assert_eq!(f.count(), 130);
        assert!(f.contains(0) && f.contains(129));
    }

    #[test]
    fn full_has_clean_tail() {
        let f = TupleSet::full(65);
        assert_eq!(f.count(), 65);
        assert_eq!(f.complement().count(), 0);
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = TupleSet::empty(100);
        assert!(s.insert(5));
        assert!(!s.insert(5), "second insert reports no change");
        assert!(s.contains(5));
        assert!(!s.contains(6));
        assert!(s.remove(5));
        assert!(!s.remove(5));
        assert!(s.is_empty());
    }

    #[test]
    fn set_algebra() {
        let mut a = TupleSet::empty(200);
        let mut b = TupleSet::empty(200);
        for i in [1, 64, 65, 199] {
            a.insert(i);
        }
        for i in [64, 100, 199] {
            b.insert(i);
        }
        assert!(!a.is_subset(&b));

        let mut u = a.clone();
        assert!(u.union_with(&b));
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![1, 64, 65, 100, 199]);
        assert!(
            !u.clone().union_with(&b),
            "union with subset changes nothing"
        );
        assert!(a.is_subset(&u) && b.is_subset(&u));

        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.iter().collect::<Vec<_>>(), vec![64, 199]);

        let mut d = a.clone();
        d.difference_with(&b);
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![1, 65]);

        let c = a.complement();
        assert_eq!(c.count(), 200 - a.count());
        for x in a.iter() {
            assert!(!c.contains(x));
        }
    }

    #[test]
    fn iter_crosses_word_boundaries() {
        let mut s = TupleSet::empty(300);
        let idxs = [0, 63, 64, 127, 128, 255, 299];
        for &i in &idxs {
            s.insert(i);
        }
        assert_eq!(s.iter().collect::<Vec<_>>(), idxs.to_vec());
    }

    #[test]
    fn from_iterator_sizes_to_max() {
        let s: TupleSet = [3usize, 7, 1].into_iter().collect();
        assert_eq!(s.capacity(), 8);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1, 3, 7]);
        let empty: TupleSet = std::iter::empty::<usize>().collect();
        assert_eq!(empty.capacity(), 0);
        assert!(empty.is_empty());
    }

    #[test]
    fn grow_preserves_members_and_clears_new_bits() {
        let mut s = TupleSet::empty(70);
        s.insert(0);
        s.insert(69);
        s.grow(200);
        assert_eq!(s.capacity(), 200);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 69]);
        assert!(!s.contains(70) && !s.contains(199));
        s.insert(199);
        assert_eq!(s.count(), 3);
        // Growing by zero is a no-op.
        s.grow(200);
        assert_eq!(s.count(), 3);
    }

    #[test]
    fn grow_from_full_keeps_tail_clean() {
        let mut s = TupleSet::full(65);
        s.grow(130);
        assert_eq!(s.count(), 65, "bits 65..130 must stay clear");
        assert_eq!(s.iter().collect::<Vec<_>>(), (0..65).collect::<Vec<_>>());
    }

    #[test]
    fn prefix_sets_exactly_first_k() {
        for (len, k) in [(0, 0), (10, 0), (10, 10), (130, 64), (130, 65), (130, 129)] {
            let s = TupleSet::prefix(len, k);
            assert_eq!(s.capacity(), len);
            assert_eq!(s.count(), k, "len={len} k={k}");
            assert_eq!(s.iter().collect::<Vec<_>>(), (0..k).collect::<Vec<_>>());
            let suffix = s.complement();
            assert_eq!(
                suffix.iter().collect::<Vec<_>>(),
                (k..len).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn zero_capacity_is_fine() {
        let s = TupleSet::empty(0);
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
        assert_eq!(TupleSet::full(0).count(), 0);
    }
}
