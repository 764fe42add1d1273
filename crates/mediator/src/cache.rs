//! Bounded, sharded subquery result cache.
//!
//! The mediator's original cache was a single `Mutex<HashMap>` with no
//! size bound: every concurrent question serialised on one lock, and a
//! long-running mediator grew without limit. This cache fixes both:
//!
//! * **Sharding** — keys hash onto `SHARDS` independently locked
//!   shards, so concurrent questions touching different subqueries
//!   proceed in parallel; `one_mediator_serves_concurrent_questions`
//!   no longer serialises on cache access.
//! * **Bounding** — each shard holds at most `capacity / SHARDS`
//!   entries (the configured capacity is a total across shards, rounded
//!   up to a multiple of the shard count). A full shard evicts its
//!   least-recently-used entry; recency is a global atomic tick stamped
//!   on every hit and insert.
//!
//! * **Sharing** — a hit hands out the cached
//!   [`SubqueryResult`], whose shipped store is an `Arc`: a hit and an
//!   insert each bump a reference count and never copy the fragment, so
//!   a warm question costs no `OemStore` clone however large the cached
//!   results are.
//!
//! Hit, miss, and eviction counts are exposed through [`CacheStats`]
//! (via `Mediator::cache_stats`) and per-question through
//! [`annoda_wrap::Cost::cache_hits`].

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use annoda_wrap::SubqueryResult;

/// Number of independently locked shards.
const SHARDS: usize = 8;

/// Default total capacity used by `Mediator::enable_cache`.
pub const DEFAULT_CACHE_CAPACITY: usize = 256;

/// A cached value plus its last-use tick.
struct Entry {
    value: SubqueryResult,
    last_used: u64,
}

/// Observable cache state at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Total capacity across all shards.
    pub capacity: usize,
    /// Entries currently cached.
    pub len: usize,
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
}

impl CacheStats {
    /// Fraction of lookups answered from the cache (0.0 when the cache
    /// has never been consulted) — the headline number a monitoring
    /// endpoint exposes.
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }
}

/// A bounded, sharded, LRU map from `source\x01lorel` keys to shipped
/// subquery results.
pub struct SubqueryCache {
    shards: Vec<Mutex<HashMap<String, Entry>>>,
    capacity_per_shard: usize,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl SubqueryCache {
    /// A cache holding at most `capacity` entries in total (rounded up
    /// to a multiple of the shard count; minimum one entry per shard).
    pub fn new(capacity: usize) -> Self {
        let capacity_per_shard = capacity.div_ceil(SHARDS).max(1);
        SubqueryCache {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            capacity_per_shard,
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Total capacity across shards.
    pub fn capacity(&self) -> usize {
        self.capacity_per_shard * SHARDS
    }

    fn shard_of(&self, key: &str) -> &Mutex<HashMap<String, Entry>> {
        // FNV-1a: stable across runs (keys must map to the same shard
        // for the lifetime of the cache, nothing more).
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for b in key.as_bytes() {
            hash ^= u64::from(*b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        &self.shards[(hash as usize) % SHARDS]
    }

    /// Looks up `key`, refreshing its recency on a hit. The returned
    /// result shares the cached store.
    pub fn get(&self, key: &str) -> Option<SubqueryResult> {
        let mut shard = self.shard_of(key).lock();
        match shard.get_mut(key) {
            Some(entry) => {
                entry.last_used = self.tick.fetch_add(1, Ordering::Relaxed);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(entry.value.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts (or replaces) `key`, evicting the shard's least recently
    /// used entry when it is full.
    pub fn insert(&self, key: String, value: SubqueryResult) {
        let last_used = self.tick.fetch_add(1, Ordering::Relaxed);
        let mut shard = self.shard_of(&key).lock();
        if !shard.contains_key(&key) && shard.len() >= self.capacity_per_shard {
            if let Some(victim) = shard
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                shard.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        shard.insert(key, Entry { value, last_used });
    }

    /// Drops every entry (counters are kept — they describe the cache's
    /// lifetime, not its current contents).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().clear();
        }
    }

    /// Drops only the entries whose key starts with `prefix` — the
    /// selective-invalidation half of a single-source refresh. Keys are
    /// `source\x01lorel`, so passing `"LocusLink\x01"` forgets exactly
    /// that source's shipped results while every other source keeps
    /// serving from cache.
    pub fn invalidate_prefix(&self, prefix: &str) {
        for shard in &self.shards {
            shard.lock().retain(|k, _| !k.starts_with(prefix));
        }
    }

    /// Current size and lifetime counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            capacity: self.capacity(),
            len: self.shards.iter().map(|s| s.lock().len()).sum(),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Debug for SubqueryCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("SubqueryCache")
            .field("capacity", &stats.capacity)
            .field("len", &stats.len)
            .field("hits", &stats.hits)
            .field("misses", &stats.misses)
            .field("evictions", &stats.evictions)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use annoda_oem::OemStore;

    fn result_of(tag: i64) -> SubqueryResult {
        let mut store = OemStore::new();
        let root = store.new_complex();
        store.add_atomic_child(root, "tag", tag).unwrap();
        store.set_name_overwrite("result", root).unwrap();
        SubqueryResult {
            store: std::sync::Arc::new(store),
            root,
            rows: 0,
            planner_index_backed: false,
        }
    }

    fn tag_of(r: &SubqueryResult) -> i64 {
        match r.store.child_value(r.root, "tag") {
            Some(annoda_oem::AtomicValue::Int(i)) => *i,
            other => panic!("unexpected tag {other:?}"),
        }
    }

    #[test]
    fn hit_miss_and_replace() {
        let cache = SubqueryCache::new(16);
        assert!(cache.get("a").is_none());
        cache.insert("a".into(), result_of(1));
        assert_eq!(tag_of(&cache.get("a").unwrap()), 1);
        cache.insert("a".into(), result_of(2));
        assert_eq!(tag_of(&cache.get("a").unwrap()), 2);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (2, 1, 0));
        assert_eq!(stats.len, 1);
    }

    #[test]
    fn hits_share_the_cached_store() {
        let cache = SubqueryCache::new(16);
        cache.insert("a".into(), result_of(1));
        let first = cache.get("a").unwrap();
        let second = cache.get("a").unwrap();
        assert!(std::sync::Arc::ptr_eq(&first.store, &second.store));
    }

    #[test]
    fn capacity_bounds_each_shard_with_lru_eviction() {
        // Total capacity 8 → one entry per shard: any two keys landing
        // in the same shard evict each other, and recently-used entries
        // win over stale ones.
        let cache = SubqueryCache::new(8);
        assert_eq!(cache.capacity(), 8);
        for i in 0..64 {
            cache.insert(format!("key-{i}"), result_of(i));
        }
        let stats = cache.stats();
        assert!(stats.len <= 8, "bounded: {} entries", stats.len);
        assert_eq!(stats.evictions, 64 - stats.len as u64);

        // The most recently inserted key in some shard must still be
        // present; re-inserting it is a replace, not an eviction.
        let survivor = (0..64)
            .rev()
            .map(|i| format!("key-{i}"))
            .find(|k| cache.get(k).is_some())
            .expect("cache is non-empty");
        let before = cache.stats().evictions;
        cache.insert(survivor, result_of(99));
        assert_eq!(cache.stats().evictions, before);
    }

    #[test]
    fn recency_protects_hot_entries() {
        // With per-shard capacity 1 this would be vacuous, so give the
        // cache room and hammer one shard: the hot key must survive a
        // run of cold inserts shorter than the shard capacity.
        let cache = SubqueryCache::new(SHARDS * 4);
        cache.insert("hot".into(), result_of(7));
        for i in 0..3 {
            // Touch the hot key between cold inserts.
            assert!(cache.get("hot").is_some());
            cache.insert(format!("cold-{i}"), result_of(i));
        }
        assert_eq!(tag_of(&cache.get("hot").unwrap()), 7);
    }

    #[test]
    fn hit_rate_is_guarded_against_zero_lookups() {
        let cache = SubqueryCache::new(8);
        assert_eq!(cache.stats().hit_rate(), 0.0);
        cache.insert("a".into(), result_of(1));
        cache.get("a");
        cache.get("b");
        let rate = cache.stats().hit_rate();
        assert!((rate - 0.5).abs() < 1e-9, "{rate}");
    }

    #[test]
    fn clear_keeps_lifetime_counters() {
        let cache = SubqueryCache::new(8);
        cache.insert("a".into(), result_of(1));
        cache.get("a");
        cache.clear();
        let stats = cache.stats();
        assert_eq!(stats.len, 0);
        assert_eq!(stats.hits, 1);
        assert!(cache.get("a").is_none());
    }
}
