//! A sharded, byte-budgeted LRU cache of rendered response documents.
//!
//! Keys are the full canonical strings from [`crate::key`] — the hash
//! ([`crate::key::fnv1a`]) only selects a shard, so two distinct
//! requests can never alias an entry. Values are `Arc<String>` response
//! bodies: a hit hands back the exact bytes of the first rendering,
//! which is what makes cached responses bit-identical across clients.
//!
//! Each shard is an independent `Mutex` around a hash map plus a
//! recency index (a `BTreeMap` keyed by a monotonically increasing
//! touch sequence), so concurrent requests for different shards never
//! contend. Eviction walks the oldest sequence numbers until the shard
//! is back under its byte budget.
//!
//! Hits, misses, insertions, and evictions are recorded on the server's
//! [`exq_obs::MetricsSink`] as `server.cache.*` counters. For a given
//! *sequence* of requests the counts are deterministic; under
//! concurrent identical misses both requests count as misses (there is
//! no single-flight collapse — the second rendering is wasted work, not
//! an error).

use exq_obs::MetricsSink;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Per-entry bookkeeping.
struct Entry {
    doc: std::sync::Arc<String>,
    seq: u64,
}

#[derive(Default)]
struct Shard {
    entries: HashMap<String, Entry>,
    /// Touch sequence → key, oldest first. One entry per live key.
    recency: BTreeMap<u64, String>,
    /// Sum of key + value bytes currently held.
    bytes: usize,
}

/// A sharded LRU of rendered documents with a global byte budget.
pub struct ResultCache {
    shards: Vec<Mutex<Shard>>,
    per_shard_budget: usize,
    seq: AtomicU64,
    sink: MetricsSink,
}

/// Entry overhead charged against the budget beyond key/value bytes.
const ENTRY_OVERHEAD: usize = 64;

impl ResultCache {
    /// A cache with `budget_bytes` total capacity split over `shards`
    /// locks. A zero budget disables caching (every lookup misses).
    pub fn new(budget_bytes: usize, shards: usize, sink: MetricsSink) -> ResultCache {
        let shards = shards.max(1);
        ResultCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            per_shard_budget: budget_bytes / shards,
            seq: AtomicU64::new(0),
            sink,
        }
    }

    fn shard(&self, key: &str) -> &Mutex<Shard> {
        let idx = (crate::key::fnv1a(key) % self.shards.len() as u64) as usize;
        &self.shards[idx]
    }

    /// Look up a document, refreshing its recency on a hit. Records
    /// `server.cache.hits` / `server.cache.misses`.
    pub fn get(&self, key: &str) -> Option<std::sync::Arc<String>> {
        let mut shard = self.shard(key).lock().expect("cache shard poisoned");
        match shard.entries.get(key) {
            Some(entry) => {
                let doc = std::sync::Arc::clone(&entry.doc);
                let old = entry.seq;
                let seq = self.seq.fetch_add(1, Ordering::Relaxed);
                shard.recency.remove(&old);
                shard.recency.insert(seq, key.to_string());
                if let Some(e) = shard.entries.get_mut(key) {
                    e.seq = seq;
                }
                drop(shard);
                self.sink.incr("server.cache.hits");
                Some(doc)
            }
            None => {
                drop(shard);
                self.sink.incr("server.cache.misses");
                None
            }
        }
    }

    /// Insert a rendered document, evicting least-recently-used entries
    /// until the shard fits its budget. Entries larger than the whole
    /// shard budget are not cached at all.
    pub fn insert(&self, key: &str, doc: std::sync::Arc<String>) {
        let Some(evicted) = self.put(key, doc) else {
            return;
        };
        self.sink.incr("server.cache.inserts");
        self.sink.add("server.cache.evictions", evicted);
    }

    /// Store an entry, returning the number of evictions it caused, or
    /// `None` if the entry was too large to cache. Shared by [`insert`]
    /// (cold path, counts as an insert) and [`load`] (warm start,
    /// counts as a warm load) so the budget/LRU mechanics stay in one
    /// place.
    ///
    /// [`insert`]: ResultCache::insert
    /// [`load`]: ResultCache::load
    fn put(&self, key: &str, doc: std::sync::Arc<String>) -> Option<u64> {
        let cost = key.len() + doc.len() + ENTRY_OVERHEAD;
        if cost > self.per_shard_budget {
            return None;
        }
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let mut evicted = 0u64;
        let mut shard = self.shard(key).lock().expect("cache shard poisoned");
        if let Some(old) = shard.entries.remove(key) {
            // Same key re-rendered (e.g. two racing misses): replace.
            shard.recency.remove(&old.seq);
            shard.bytes -= key.len() + old.doc.len() + ENTRY_OVERHEAD;
        }
        shard.bytes += cost;
        shard.entries.insert(key.to_string(), Entry { doc, seq });
        shard.recency.insert(seq, key.to_string());
        while shard.bytes > self.per_shard_budget {
            let Some((&oldest, _)) = shard.recency.iter().next() else {
                break;
            };
            let victim = shard.recency.remove(&oldest).expect("recency desync");
            if let Some(old) = shard.entries.remove(&victim) {
                shard.bytes -= victim.len() + old.doc.len() + ENTRY_OVERHEAD;
            }
            evicted += 1;
        }
        Some(evicted)
    }

    /// Bulk-load persisted entries at boot (warm start). Entries flow
    /// through the same budget/LRU machinery as [`ResultCache::insert`]
    /// but are booked under `server.cache.warm_loaded` rather than the
    /// insert/eviction counters, so a warm boot is distinguishable from
    /// organic traffic in the snapshot. Returns how many entries were
    /// actually stored.
    pub fn load(&self, entries: impl IntoIterator<Item = (String, String)>) -> u64 {
        let mut loaded = 0u64;
        for (key, doc) in entries {
            if self.put(&key, std::sync::Arc::new(doc)).is_some() {
                loaded += 1;
            }
        }
        self.sink.add("server.cache.warm_loaded", loaded);
        loaded
    }

    /// Every live entry as `(key, document)` pairs in sorted-key order —
    /// the deterministic order the warm-start snapshot is written in.
    #[expect(clippy::disallowed_methods, reason = "sorted before it is returned")]
    pub fn entries_sorted(&self) -> Vec<(String, std::sync::Arc<String>)> {
        let mut all: Vec<(String, std::sync::Arc<String>)> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.lock()
                    .expect("cache shard poisoned")
                    .entries
                    .iter()
                    .map(|(k, e)| (k.clone(), std::sync::Arc::clone(&e.doc)))
                    .collect::<Vec<_>>()
            })
            .collect();
        all.sort_by(|a, b| a.0.cmp(&b.0));
        all
    }

    /// Number of live entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").entries.len())
            .sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn cache(budget: usize, sink: &MetricsSink) -> ResultCache {
        // Single shard so eviction order is easy to reason about.
        ResultCache::new(budget, 1, sink.clone())
    }

    #[test]
    fn hit_miss_and_counters() {
        let sink = MetricsSink::recording();
        let c = cache(10_000, &sink);
        assert!(c.get("a").is_none());
        c.insert("a", Arc::new("doc-a".to_string()));
        assert_eq!(c.get("a").as_deref().map(String::as_str), Some("doc-a"));
        let snap = sink.snapshot();
        assert_eq!(snap.counter("server.cache.misses"), 1);
        assert_eq!(snap.counter("server.cache.hits"), 1);
        assert_eq!(snap.counter("server.cache.inserts"), 1);
        assert_eq!(snap.counter("server.cache.evictions"), 0);
    }

    #[test]
    fn lru_evicts_oldest_first_and_touch_refreshes() {
        let sink = MetricsSink::recording();
        // Budget fits two entries of cost ~(1 + 1 + 64) = 66 each.
        let c = cache(150, &sink);
        c.insert("a", Arc::new("1".to_string()));
        c.insert("b", Arc::new("2".to_string()));
        assert_eq!(c.len(), 2);
        // Touch `a` so `b` becomes the LRU victim.
        assert!(c.get("a").is_some());
        c.insert("c", Arc::new("3".to_string()));
        assert!(c.get("b").is_none(), "b should have been evicted");
        assert!(c.get("a").is_some());
        assert!(c.get("c").is_some());
        assert_eq!(sink.snapshot().counter("server.cache.evictions"), 1);
    }

    #[test]
    fn oversized_entries_are_not_cached() {
        let sink = MetricsSink::recording();
        let c = cache(100, &sink);
        c.insert("big", Arc::new("x".repeat(200)));
        assert!(c.is_empty());
        assert_eq!(sink.snapshot().counter("server.cache.inserts"), 0);
    }

    #[test]
    fn reinsert_replaces_without_leaking_bytes() {
        let sink = MetricsSink::recording();
        let c = cache(200, &sink);
        for _ in 0..50 {
            c.insert("k", Arc::new("payload".to_string()));
        }
        assert_eq!(c.len(), 1);
        assert_eq!(sink.snapshot().counter("server.cache.evictions"), 0);
    }

    #[test]
    fn zero_budget_disables_caching() {
        let sink = MetricsSink::recording();
        let c = cache(0, &sink);
        c.insert("a", Arc::new("doc".to_string()));
        assert!(c.get("a").is_none());
    }

    #[test]
    fn warm_load_round_trips_through_entries_sorted() {
        let sink = MetricsSink::recording();
        let c = ResultCache::new(1 << 20, 4, sink.clone());
        c.insert("b", Arc::new("doc-b".to_string()));
        c.insert("a", Arc::new("doc-a".to_string()));
        let dumped: Vec<(String, String)> = c
            .entries_sorted()
            .into_iter()
            .map(|(k, d)| (k, d.as_str().to_string()))
            .collect();
        assert_eq!(
            dumped.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
            vec!["a", "b"],
            "entries_sorted must be key-ordered"
        );
        let warm = ResultCache::new(1 << 20, 4, sink.clone());
        assert_eq!(warm.load(dumped), 2);
        assert_eq!(warm.get("a").as_deref().map(String::as_str), Some("doc-a"));
        assert_eq!(warm.get("b").as_deref().map(String::as_str), Some("doc-b"));
        let snap = sink.snapshot();
        assert_eq!(snap.counter("server.cache.warm_loaded"), 2);
        // Warm loads are not inserts: only the two originals count.
        assert_eq!(snap.counter("server.cache.inserts"), 2);
    }

    #[test]
    fn warm_load_respects_the_byte_budget() {
        let sink = MetricsSink::recording();
        let c = cache(100, &sink);
        assert_eq!(c.load(vec![("big".to_string(), "x".repeat(200))]), 0);
        assert!(c.is_empty());
    }

    #[test]
    fn sharded_cache_keeps_entries_reachable() {
        let sink = MetricsSink::recording();
        let c = ResultCache::new(1 << 20, 8, sink);
        for i in 0..100 {
            c.insert(&format!("key-{i}"), Arc::new(format!("doc-{i}")));
        }
        for i in 0..100 {
            assert_eq!(
                c.get(&format!("key-{i}")).as_deref().map(String::as_str),
                Some(format!("doc-{i}").as_str())
            );
        }
    }
}
