//! Lookup-only hash containers.
//!
//! The intervention Δ^φ is unique (Theorem 3.3 of the paper), so an
//! explanation must depend on the data alone, never on hash order. This
//! crate and `exq-core` keep that promise by type: the workspace
//! `clippy.toml` bans std's `HashMap`/`HashSet` in both crates, and
//! they use [`LookupMap`] and [`LookupSet`] instead. Each is a newtype
//! over the same std container with the same `RandomState` hasher and
//! `#[inline]` methods, so it costs nothing over the std type.
//!
//! They offer lookup, insertion, `entry`, `len` and *sorted* iteration.
//! The one unordered iterator, `iter_unordered`, is on `clippy.toml`'s
//! `disallowed-methods` list, so every caller carries an
//! `#[expect(clippy::disallowed_methods, reason = "…")]` that says why
//! order cannot reach its result.

#![allow(clippy::disallowed_types, clippy::disallowed_methods)]

use std::borrow::Borrow;
use std::collections::hash_map::{self, Entry};
use std::collections::{hash_set, HashMap, HashSet};
use std::hash::Hash;
use std::ops::Index;

/// A hash map that can be looked up and filled, but iterated only in key
/// order (or through the audited [`LookupMap::iter_unordered`]).
#[derive(Debug, Clone)]
pub struct LookupMap<K, V>(HashMap<K, V>);

impl<K: Hash + Eq, V: PartialEq> PartialEq for LookupMap<K, V> {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}

impl<K, V> Default for LookupMap<K, V> {
    #[inline]
    fn default() -> Self {
        LookupMap(HashMap::new())
    }
}

impl<K: Hash + Eq, V> LookupMap<K, V> {
    /// An empty map.
    #[inline]
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty map with room for `n` entries.
    #[inline]
    pub fn with_capacity(n: usize) -> Self {
        LookupMap(HashMap::with_capacity(n))
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the map is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The value under `k`.
    #[inline]
    pub fn get<Q: Hash + Eq + ?Sized>(&self, k: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
    {
        self.0.get(k)
    }

    /// The value under `k`, mutably.
    #[inline]
    pub fn get_mut<Q: Hash + Eq + ?Sized>(&mut self, k: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
    {
        self.0.get_mut(k)
    }

    /// Whether `k` has a value.
    #[inline]
    pub fn contains_key<Q: Hash + Eq + ?Sized>(&self, k: &Q) -> bool
    where
        K: Borrow<Q>,
    {
        self.0.contains_key(k)
    }

    /// Insert `v` under `k`, returning the value it replaces.
    #[inline]
    pub fn insert(&mut self, k: K, v: V) -> Option<V> {
        self.0.insert(k, v)
    }

    /// The entry under `k`, for in-place update or insertion.
    #[inline]
    pub fn entry(&mut self, k: K) -> Entry<'_, K, V> {
        self.0.entry(k)
    }

    /// Every entry in hash order. Listed in `clippy.toml`'s
    /// `disallowed-methods`: a caller must say why the order cannot
    /// reach its result.
    #[inline]
    pub fn iter_unordered(&self) -> hash_map::Iter<'_, K, V> {
        self.0.iter()
    }
}

impl<K: Ord, V> LookupMap<K, V> {
    /// Every entry, sorted by key.
    pub fn sorted(&self) -> Vec<(&K, &V)> {
        let mut out: Vec<(&K, &V)> = self.0.iter().collect();
        out.sort_unstable_by(|a, b| a.0.cmp(b.0));
        out
    }

    /// Every entry, moved out, sorted by key.
    pub fn into_sorted(self) -> Vec<(K, V)> {
        let mut out: Vec<(K, V)> = self.0.into_iter().collect();
        out.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

impl<K: Hash + Eq + Borrow<Q>, Q: Hash + Eq + ?Sized, V> Index<&Q> for LookupMap<K, V> {
    type Output = V;

    /// The value under `k`; panics if there is none.
    #[inline]
    fn index(&self, k: &Q) -> &V {
        &self.0[k]
    }
}

impl<K: Hash + Eq, V> FromIterator<(K, V)> for LookupMap<K, V> {
    #[inline]
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        LookupMap(HashMap::from_iter(iter))
    }
}

/// A hash set that can be probed and filled, but iterated only in order
/// (or through the audited [`LookupSet::iter_unordered`]).
#[derive(Debug, Clone)]
pub struct LookupSet<T>(HashSet<T>);

impl<T> Default for LookupSet<T> {
    #[inline]
    fn default() -> Self {
        LookupSet(HashSet::new())
    }
}

impl<T: Hash + Eq> LookupSet<T> {
    /// An empty set.
    #[inline]
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty set with room for `n` members.
    #[inline]
    pub fn with_capacity(n: usize) -> Self {
        LookupSet(HashSet::with_capacity(n))
    }

    /// Number of members.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Whether `v` is a member.
    #[inline]
    pub fn contains<Q: Hash + Eq + ?Sized>(&self, v: &Q) -> bool
    where
        T: Borrow<Q>,
    {
        self.0.contains(v)
    }

    /// Add `v`; `true` if it was not yet a member.
    #[inline]
    pub fn insert(&mut self, v: T) -> bool {
        self.0.insert(v)
    }

    /// Remove `v`; `true` if it was a member.
    #[inline]
    pub fn remove<Q: Hash + Eq + ?Sized>(&mut self, v: &Q) -> bool
    where
        T: Borrow<Q>,
    {
        self.0.remove(v)
    }

    /// Every member in hash order. Listed in `clippy.toml`'s
    /// `disallowed-methods`: a caller must say why the order cannot
    /// reach its result.
    #[inline]
    pub fn iter_unordered(&self) -> hash_set::Iter<'_, T> {
        self.0.iter()
    }
}

impl<T: Ord> LookupSet<T> {
    /// Every member, moved out, in ascending order.
    pub fn into_sorted(self) -> Vec<T> {
        let mut out: Vec<T> = self.0.into_iter().collect();
        out.sort_unstable();
        out
    }
}

impl<T: Hash + Eq> FromIterator<T> for LookupSet<T> {
    #[inline]
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        LookupSet(HashSet::from_iter(iter))
    }
}

impl<T: Hash + Eq> Extend<T> for LookupSet<T> {
    #[inline]
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        self.0.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorted_iteration_ignores_insertion_order() {
        let a: LookupMap<u32, char> = [(3, 'c'), (1, 'a'), (2, 'b')].into_iter().collect();
        let b: LookupMap<u32, char> = [(2, 'b'), (3, 'c'), (1, 'a')].into_iter().collect();
        assert_eq!(a, b);
        assert_eq!(a.sorted(), [(&1, &'a'), (&2, &'b'), (&3, &'c')]);
        assert_eq!(b.into_sorted(), [(1, 'a'), (2, 'b'), (3, 'c')]);
        let s: LookupSet<u32> = [5, 1, 3, 1].into_iter().collect();
        assert_eq!(s.len(), 3);
        assert_eq!(s.into_sorted(), [1, 3, 5]);
    }

    #[test]
    fn lookups_see_inserts_and_entries() {
        let mut m: LookupMap<Box<[u32]>, Vec<u32>> = LookupMap::new();
        m.entry(vec![1, 2].into()).or_default().push(7);
        m.entry(vec![1, 2].into()).or_default().push(9);
        assert_eq!(m.get([1u32, 2].as_slice()), Some(&vec![7, 9]));
        assert_eq!(m[[1u32, 2].as_slice()], [7, 9]);
        assert!(!m.contains_key([2u32].as_slice()));
        let mut s: LookupSet<Vec<u32>> = LookupSet::with_capacity(2);
        assert!(s.insert(vec![4]) && !s.insert(vec![4]));
        assert!(s.contains([4u32].as_slice()));
        assert!(s.remove([4u32].as_slice()) && s.is_empty());
    }
}
