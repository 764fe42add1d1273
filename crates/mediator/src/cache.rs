//! Bounded subquery result cache: one LRU map behind one lock.
//!
//! * **Bounding** — the cache holds at most its configured capacity,
//!   exactly. A full cache evicts its least-recently-used entry; recency
//!   is a tick stamped on every hit and insert.
//! * **One lock** — every lookup and insert takes the same mutex, held
//!   only for a map probe (plus, when full, one pass over at most
//!   capacity entries to find the eviction victim). Subquery round
//!   trips, fusion and rendering all run outside it, so a question
//!   holds the lock for microseconds of a millisecond-scale answer; the
//!   serve tier's response cache is one LRU behind one mutex for the
//!   same reason.
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

use parking_lot::Mutex;

use annoda_wrap::SubqueryResult;

/// Default capacity used by `Mediator::enable_cache`.
pub const DEFAULT_CACHE_CAPACITY: usize = 256;

/// A cached value plus its last-use tick.
struct Entry {
    value: SubqueryResult,
    last_used: u64,
}

/// Observable cache state at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// The most entries the cache holds.
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

/// The map and its counters, all under the one lock.
#[derive(Default)]
struct Lru {
    entries: HashMap<String, Entry>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// A bounded LRU map from `source\x01lorel` keys to shipped subquery
/// results.
pub struct SubqueryCache {
    lru: Mutex<Lru>,
    capacity: usize,
}

impl SubqueryCache {
    /// A cache holding at most `capacity` entries (minimum one).
    pub fn new(capacity: usize) -> Self {
        SubqueryCache {
            lru: Mutex::new(Lru::default()),
            capacity: capacity.max(1),
        }
    }

    /// The most entries the cache holds.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Looks up `key`, refreshing its recency on a hit. The returned
    /// result shares the cached store.
    pub fn get(&self, key: &str) -> Option<SubqueryResult> {
        let mut guard = self.lru.lock();
        let lru = &mut *guard;
        match lru.entries.get_mut(key) {
            Some(entry) => {
                lru.tick += 1;
                entry.last_used = lru.tick;
                lru.hits += 1;
                Some(entry.value.clone())
            }
            None => {
                lru.misses += 1;
                None
            }
        }
    }

    /// Inserts (or replaces) `key`, evicting the least recently used
    /// entry when the cache is full.
    pub fn insert(&self, key: String, value: SubqueryResult) {
        let mut guard = self.lru.lock();
        let lru = &mut *guard;
        if !lru.entries.contains_key(&key) && lru.entries.len() >= self.capacity {
            if let Some(victim) = lru
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                lru.entries.remove(&victim);
                lru.evictions += 1;
            }
        }
        lru.tick += 1;
        let last_used = lru.tick;
        lru.entries.insert(key, Entry { value, last_used });
    }

    /// Drops every entry (counters are kept — they describe the cache's
    /// lifetime, not its current contents).
    pub fn clear(&self) {
        self.lru.lock().entries.clear();
    }

    /// Drops only the entries whose key starts with `prefix` — the
    /// selective-invalidation half of a single-source refresh. Keys are
    /// `source\x01lorel`, so passing `"LocusLink\x01"` forgets exactly
    /// that source's shipped results while every other source keeps
    /// serving from cache.
    pub fn invalidate_prefix(&self, prefix: &str) {
        self.lru
            .lock()
            .entries
            .retain(|k, _| !k.starts_with(prefix));
    }

    /// Current size and lifetime counters.
    pub fn stats(&self) -> CacheStats {
        let lru = self.lru.lock();
        CacheStats {
            capacity: self.capacity,
            len: lru.entries.len(),
            hits: lru.hits,
            misses: lru.misses,
            evictions: lru.evictions,
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
    fn capacity_bounds_the_cache_with_lru_eviction() {
        // Total capacity 8: sixty-four distinct keys keep evicting, and
        // recently-used entries win over stale ones.
        let cache = SubqueryCache::new(8);
        assert_eq!(cache.capacity(), 8);
        for i in 0..64 {
            cache.insert(format!("key-{i}"), result_of(i));
        }
        let stats = cache.stats();
        assert!(stats.len <= 8, "bounded: {} entries", stats.len);
        assert_eq!(stats.evictions, 64 - stats.len as u64);

        // The most recently inserted key must still be present;
        // re-inserting it is a replace, not an eviction.
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
        // With capacity 1 this would be vacuous, so give the cache room:
        // the hot key must survive a run of cold inserts shorter than
        // the capacity.
        let cache = SubqueryCache::new(32);
        cache.insert("hot".into(), result_of(7));
        for i in 0..3 {
            // Touch the hot key between cold inserts.
            assert!(cache.get("hot").is_some());
            cache.insert(format!("cold-{i}"), result_of(i));
        }
        assert_eq!(tag_of(&cache.get("hot").unwrap()), 7);
    }

    #[test]
    fn capacity_is_exact_and_eviction_is_global_lru() {
        let cache = SubqueryCache::new(1);
        assert_eq!(cache.capacity(), 1);
        cache.insert("a".into(), result_of(1));
        cache.insert("b".into(), result_of(2));
        let stats = cache.stats();
        assert_eq!((stats.len, stats.evictions), (1, 1));
        assert!(cache.get("a").is_none());
        assert_eq!(tag_of(&cache.get("b").unwrap()), 2);

        // Across all keys, the least recently used one makes room.
        let cache = SubqueryCache::new(3);
        for (i, key) in ["a", "b", "c"].into_iter().enumerate() {
            cache.insert(key.into(), result_of(i as i64));
        }
        assert!(cache.get("a").is_some());
        cache.insert("d".into(), result_of(3));
        assert!(cache.get("b").is_none(), "b was the least recently used");
        for key in ["a", "c", "d"] {
            assert!(cache.get(key).is_some(), "{key} survives");
        }
        assert_eq!(cache.stats().evictions, 1);
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
