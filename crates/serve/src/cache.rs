//! The epoch-keyed response cache: pre-serialized bodies for the
//! cacheable GET routes, keyed by `(path, query, format)` and stamped
//! with the serving **generation** (see
//! [`annoda::DurableSystem::generation`]).
//!
//! The generation is a strong cache key: it bumps on every plug,
//! unplug, and façade mutation, so a stored response is valid exactly
//! as long as its stamp matches the live counter — an epoch swap
//! invalidates the whole cache wholesale, for free, with no per-entry
//! bookkeeping. The same stamp doubles as the strong `ETag`
//! (`"g<generation>"`), which is what makes `304 Not Modified`
//! revalidation sound: a matching tag proves the client's copy was
//! derived from the identical global model. The generation starts at a
//! random per-system salt, so a tag minted by another process never
//! matches.
//!
//! **Sharded mode** refines this: a transactional source refresh does
//! *not* bump the generation — it bumps only the MVCC epochs of the
//! store shards it changed. Each cached response carries a
//! [`ShardDeps`]: the bitmask of store shards the answer was derived
//! from plus the epoch-sum stamp over that mask at compute time. The
//! entry stays valid exactly while `mask_stamp(live_epochs, mask)`
//! still equals the recorded stamp — shard epochs only grow, so an
//! equal sum proves none of the depended-on shards changed (warm
//! reopens re-seed the epoch vector with a per-boot salt, so a stamp
//! minted before a restart never falsely revalidates). A refresh
//! that touches one shard therefore invalidates only the entries whose
//! mask covers it; everything else keeps serving cached bytes. The
//! `ETag` grows the same proof: `"g<G>.s<stamp>.<mask:hex>"`, which a
//! connection thread can revalidate against the live epoch vector
//! without recomputing the response.
//!
//! The server holds one cache behind one mutex; every connection thread
//! looks up and inserts through it. The counters ([`CacheGauges`]) are
//! atomics, so `/metrics` reads them without that lock.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use annoda_oem::mask_stamp;

use crate::http::Response;
use crate::routes::Format;

/// What a cached response depends on, in sharded-store mode: the store
/// shards whose fragments the answer surfaced, and the sum of their
/// MVCC epochs when it was computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardDeps {
    /// Bit `i` set ⇔ the response depends on store shard `i`.
    pub mask: u64,
    /// `mask_stamp(epochs_at_compute, mask)` — valid while the live
    /// vector still sums to the same value over `mask`.
    pub stamp: u64,
}

impl ShardDeps {
    /// Deps over the shards in `mask`, stamped against `epochs`.
    pub fn new(mask: u64, epochs: &[u64]) -> ShardDeps {
        let stamp = mask_stamp(epochs, mask);
        ShardDeps { mask, stamp }
    }

    /// Whether the deps still hold against the live epoch vector.
    pub fn current(&self, epochs: &[u64]) -> bool {
        mask_stamp(epochs, self.mask) == self.stamp
    }
}

/// Whether an entry's deps are valid against the live epoch vector.
/// Depless entries are the non-sharded mode; a dep mismatch across
/// modes never validates.
pub(crate) fn deps_current(deps: Option<ShardDeps>, epochs: Option<&[u64]>) -> bool {
    match (deps, epochs) {
        (None, None) => true,
        (Some(d), Some(live)) => d.current(live),
        _ => false,
    }
}

/// Mints the strong entity tag for a generation plus optional shard
/// deps: `"gG"` flat, `"gG.s<stamp>.<mask:hex>"` sharded. An answer
/// computed in apply window `N` (nonzero) appends `.wN`: a tag that
/// [`parse_etag`] rejects, so it names its bytes but never revalidates.
pub fn etag_for_deps(generation: u64, deps: Option<ShardDeps>, window: u64) -> String {
    let mut tag = match deps {
        None => format!("\"g{generation}"),
        Some(d) => format!("\"g{generation}.s{}.{:x}", d.stamp, d.mask),
    };
    if window != 0 {
        tag += &format!(".w{window}");
    }
    tag + "\""
}

/// Parses an entity tag minted by [`etag_for_deps`] back into its
/// generation and optional deps. `None` for foreign tags.
pub fn parse_etag(tag: &str) -> Option<(u64, Option<ShardDeps>)> {
    let inner = tag.strip_prefix('"')?.strip_suffix('"')?;
    let inner = inner.strip_prefix('g')?;
    let mut parts = inner.split('.');
    let generation: u64 = parts.next()?.parse().ok()?;
    let Some(stamp_part) = parts.next() else {
        return Some((generation, None));
    };
    let stamp: u64 = stamp_part.strip_prefix('s')?.parse().ok()?;
    let mask = u64::from_str_radix(parts.next()?, 16).ok()?;
    if parts.next().is_some() {
        return None;
    }
    Some((generation, Some(ShardDeps { mask, stamp })))
}

/// Inline revalidation: the first `If-None-Match` candidate that still
/// proves the client's copy matches the live model — same generation
/// and, for dep-stamped tags, an unchanged epoch sum over its shard
/// mask. Returns the tag to echo in the `304`. The `*` wildcard
/// matches any current representation (RFC 9110 §13.1.2).
pub fn revalidate_etag(header: &str, generation: u64, epochs: Option<&[u64]>) -> Option<String> {
    for candidate in header.split(',').map(str::trim) {
        if candidate == "*" {
            return Some(etag_for_deps(generation, None, 0));
        }
        let Some((tag_generation, deps)) = parse_etag(candidate) else {
            continue;
        };
        if tag_generation == generation && deps_current(deps, epochs) {
            return Some(candidate.to_string());
        }
    }
    None
}

/// The response cache's counters, for `/metrics`.
#[derive(Debug, Default)]
pub struct CacheGauges {
    /// Requests answered from a cached entry.
    pub hits: AtomicU64,
    /// Cacheable requests that had to be computed.
    pub misses: AtomicU64,
    /// Conditional requests answered `304 Not Modified`.
    pub not_modified: AtomicU64,
    /// Entries displaced by the capacity bound.
    pub evictions: AtomicU64,
    /// Wholesale cache clears caused by a generation bump.
    pub epoch_invalidations: AtomicU64,
    /// Entries dropped selectively because a store-shard epoch their
    /// mask covers advanced (sharded mode).
    pub deps_invalidations: AtomicU64,
    /// Entries currently cached.
    pub entries: AtomicU64,
}

/// A point-in-time copy of [`CacheGauges`] for rendering.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheSnapshot {
    /// Requests answered from cache.
    pub hits: u64,
    /// Cacheable requests that were computed.
    pub misses: u64,
    /// `304 Not Modified` answers.
    pub not_modified: u64,
    /// Capacity evictions.
    pub evictions: u64,
    /// Wholesale epoch invalidations.
    pub epoch_invalidations: u64,
    /// Selective per-entry shard-dep invalidations.
    pub deps_invalidations: u64,
    /// Live entries.
    pub entries: u64,
}

impl CacheGauges {
    /// Samples every counter.
    pub fn snapshot(&self) -> CacheSnapshot {
        CacheSnapshot {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            not_modified: self.not_modified.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            epoch_invalidations: self.epoch_invalidations.load(Ordering::Relaxed),
            deps_invalidations: self.deps_invalidations.load(Ordering::Relaxed),
            entries: self.entries.load(Ordering::Relaxed),
        }
    }
}

/// What identifies a cacheable response: the request target plus the
/// negotiated representation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Path plus raw query, exactly as requested.
    pub target: String,
    /// The negotiated response format.
    pub format: Format,
}

/// Every entry was stored under the cache's `seen_generation` (a new
/// generation clears the map), so entries carry no generation of their
/// own.
struct Entry {
    /// Sharded mode: the store shards this response was derived from,
    /// stamped at compute time. `None` in flat (generation-only) mode.
    deps: Option<ShardDeps>,
    response: Response,
    last_used: u64,
}

/// A bounded, generation-stamped response cache. One per server; not
/// thread-safe by itself (the server keeps it behind a mutex).
pub struct ResponseCache {
    capacity: usize,
    map: HashMap<CacheKey, Entry>,
    /// Monotonic access clock for least-recently-used eviction.
    tick: u64,
    /// The generation the cache contents were built under.
    seen_generation: u64,
    gauges: Arc<CacheGauges>,
}

impl ResponseCache {
    /// A cache holding at most `capacity` entries (0 disables caching).
    pub fn new(capacity: usize, gauges: Arc<CacheGauges>) -> ResponseCache {
        ResponseCache {
            capacity,
            map: HashMap::new(),
            tick: 0,
            seen_generation: 0,
            gauges,
        }
    }

    /// The shared counters.
    pub fn gauges(&self) -> &Arc<CacheGauges> {
        &self.gauges
    }

    /// Observes the live generation; a change clears the cache
    /// wholesale (the epoch-swap invalidation).
    pub fn observe_generation(&mut self, generation: u64) {
        if generation != self.seen_generation {
            if !self.map.is_empty() {
                self.gauges
                    .epoch_invalidations
                    .fetch_add(1, Ordering::Relaxed);
                self.gauges
                    .entries
                    .fetch_sub(self.map.len() as u64, Ordering::Relaxed);
                self.map.clear();
            }
            self.seen_generation = generation;
        }
    }

    /// Looks up `key` for the given generation and (in sharded mode)
    /// live epoch vector, counting a hit or miss. An entry whose shard
    /// deps no longer hold is removed on the spot — epochs only grow,
    /// so it can never become valid again.
    pub fn lookup(
        &mut self,
        key: &CacheKey,
        generation: u64,
        epochs: Option<&[u64]>,
    ) -> Option<&Response> {
        self.observe_generation(generation);
        self.tick += 1;
        let tick = self.tick;
        let valid = match self.map.get_mut(key) {
            Some(entry) => {
                if deps_current(entry.deps, epochs) {
                    entry.last_used = tick;
                    true
                } else {
                    // A depended-on store shard committed: this entry
                    // is permanently stale. Everything else survives —
                    // the selective invalidation.
                    self.map.remove(key);
                    self.gauges
                        .deps_invalidations
                        .fetch_add(1, Ordering::Relaxed);
                    self.gauges.entries.fetch_sub(1, Ordering::Relaxed);
                    false
                }
            }
            _ => false,
        };
        if valid {
            self.gauges.hits.fetch_add(1, Ordering::Relaxed);
            Some(&self.map[key].response)
        } else {
            self.gauges.misses.fetch_add(1, Ordering::Relaxed);
            None
        }
    }

    /// Stores a computed response, stamped with the generation (and, in
    /// sharded mode, the shard deps) it was computed under. An entry
    /// stamped with a passed generation is never served: the next
    /// lookup's generation clears it. Ignored when `capacity` is 0.
    /// Evicts the least-recently-used entry when full.
    pub fn insert(
        &mut self,
        key: CacheKey,
        generation: u64,
        deps: Option<ShardDeps>,
        response: Response,
    ) {
        if self.capacity == 0 {
            return;
        }
        self.observe_generation(generation);
        if !self.map.contains_key(&key) && self.map.len() >= self.capacity {
            if let Some(victim) = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&victim);
                self.gauges.evictions.fetch_add(1, Ordering::Relaxed);
                self.gauges.entries.fetch_sub(1, Ordering::Relaxed);
            }
        }
        self.tick += 1;
        if self
            .map
            .insert(
                key,
                Entry {
                    deps,
                    response,
                    last_used: self.tick,
                },
            )
            .is_none()
        {
            self.gauges.entries.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Live entry count.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(target: &str) -> CacheKey {
        CacheKey {
            target: target.to_string(),
            format: Format::Json,
        }
    }

    fn cache(capacity: usize) -> ResponseCache {
        ResponseCache::new(capacity, Arc::new(CacheGauges::default()))
    }

    #[test]
    fn hit_returns_the_stored_bytes() {
        let mut c = cache(8);
        assert!(c.lookup(&key("/genes"), 1, None).is_none());
        c.insert(key("/genes"), 1, None, Response::text(200, "body"));
        let hit = c.lookup(&key("/genes"), 1, None).expect("hit");
        assert_eq!(hit.body, b"body");
        let g = c.gauges().snapshot();
        assert_eq!((g.hits, g.misses, g.entries), (1, 1, 1));
    }

    #[test]
    fn generation_bump_invalidates_wholesale() {
        let mut c = cache(8);
        c.insert(key("/a"), 1, None, Response::text(200, "a"));
        c.insert(key("/b"), 1, None, Response::text(200, "b"));
        assert_eq!(c.len(), 2);
        assert!(c.lookup(&key("/a"), 2, None).is_none(), "new epoch, no hit");
        assert!(c.is_empty(), "the whole cache is cleared");
        let g = c.gauges().snapshot();
        assert_eq!(g.epoch_invalidations, 1);
        assert_eq!(g.entries, 0);
    }

    #[test]
    fn stale_stamped_inserts_are_dropped() {
        let mut c = cache(8);
        c.observe_generation(5);
        // A connection computed this under generation 4; a refresh landed
        // mid-flight. The entry must not be served as generation 5.
        c.insert(key("/a"), 4, None, Response::text(200, "stale"));
        assert!(c.lookup(&key("/a"), 5, None).is_none());
    }

    #[test]
    fn lru_eviction_is_bounded_and_counted() {
        let mut c = cache(2);
        c.insert(key("/a"), 1, None, Response::text(200, "a"));
        c.insert(key("/b"), 1, None, Response::text(200, "b"));
        assert!(c.lookup(&key("/a"), 1, None).is_some()); // /a is now fresher
        c.insert(key("/c"), 1, None, Response::text(200, "c"));
        assert_eq!(c.len(), 2);
        assert!(
            c.lookup(&key("/b"), 1, None).is_none(),
            "/b was the LRU victim"
        );
        assert!(c.lookup(&key("/a"), 1, None).is_some());
        assert!(c.lookup(&key("/c"), 1, None).is_some());
        assert_eq!(c.gauges().snapshot().evictions, 1);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = cache(0);
        c.insert(key("/a"), 1, None, Response::text(200, "a"));
        assert!(c.lookup(&key("/a"), 1, None).is_none());
    }

    #[test]
    fn etag_matching() {
        assert_eq!(etag_for_deps(7, None, 0), "\"g7\"");
        // A window tag names its bytes but never revalidates.
        let window_tag = etag_for_deps(7, None, 3);
        assert_eq!(window_tag, "\"g7.w3\"");
        assert_eq!(parse_etag(&window_tag), None);
        assert!(revalidate_etag(&window_tag, 7, None).is_none());
    }

    #[test]
    fn dep_etags_round_trip_and_revalidate() {
        let epochs = [3u64, 1, 5, 2];
        let deps = ShardDeps::new(annoda_oem::shard_mask(&[0, 2]), &epochs);
        assert_eq!(deps.mask, 0b101);
        assert_eq!(deps.stamp, 8);
        let tag = etag_for_deps(9, Some(deps), 0);
        assert_eq!(tag, "\"g9.s8.5\"");
        assert_eq!(parse_etag(&tag), Some((9, Some(deps))));
        assert_eq!(parse_etag("\"g9\""), Some((9, None)));
        assert_eq!(parse_etag("\"w/123\""), None, "foreign tags don't parse");

        // Same generation + unchanged masked epochs → inline 304.
        assert_eq!(
            revalidate_etag(&tag, 9, Some(&epochs)).as_deref(),
            Some(tag.as_str())
        );
        // An untouched-shard bump (shard 1 is outside the mask) still
        // revalidates; a masked-shard bump does not.
        let bumped_other = [3u64, 2, 5, 2];
        assert!(revalidate_etag(&tag, 9, Some(&bumped_other)).is_some());
        let bumped_masked = [4u64, 1, 5, 2];
        assert!(revalidate_etag(&tag, 9, Some(&bumped_masked)).is_none());
        // Generation mismatch or flat/sharded mode mismatch never holds.
        assert!(revalidate_etag(&tag, 10, Some(&epochs)).is_none());
        assert!(revalidate_etag(&tag, 9, None).is_none());
        assert!(revalidate_etag("\"g9\"", 9, Some(&epochs)).is_none());
        assert!(revalidate_etag("\"g9\"", 9, None).is_some());
    }

    #[test]
    fn full_mask_covers_every_shard() {
        let epochs = [1u64, 2, 3];
        let deps = ShardDeps::new(annoda_oem::shard_mask(&[0, 1, 2]), &epochs);
        assert_eq!(deps.mask, 0b111);
        assert!(deps.current(&epochs));
        assert!(!deps.current(&[1, 2, 4]));
    }

    #[test]
    fn shard_dep_invalidation_is_selective() {
        let mut c = cache(8);
        let e0 = [1u64, 1];
        // /a depends on shard 0, /b on shard 1.
        c.insert(
            key("/a"),
            1,
            Some(ShardDeps::new(0b01, &e0)),
            Response::text(200, "a"),
        );
        c.insert(
            key("/b"),
            1,
            Some(ShardDeps::new(0b10, &e0)),
            Response::text(200, "b"),
        );
        // A commit bumps shard 1 only.
        let e1 = [1u64, 2];
        assert!(
            c.lookup(&key("/a"), 1, Some(&e0)).is_some(),
            "untouched shard still serves"
        );
        assert!(
            c.lookup(&key("/b"), 1, Some(&e1)).is_none(),
            "touched shard is dropped"
        );
        assert_eq!(c.len(), 1, "only the dependent entry was removed");
        let g = c.gauges().snapshot();
        assert_eq!(g.deps_invalidations, 1);
        assert_eq!(g.epoch_invalidations, 0, "no wholesale clear happened");
        assert_eq!(g.entries, 1);
    }

    #[test]
    fn mode_mismatched_entries_never_validate() {
        let mut c = cache(8);
        let epochs = [1u64];
        c.insert(key("/flat"), 1, None, Response::text(200, "flat"));
        assert!(
            c.lookup(&key("/flat"), 1, Some(&epochs)).is_none(),
            "a depless entry is stale under sharded validation"
        );
        c.insert(
            key("/dep"),
            1,
            Some(ShardDeps::new(0b1, &epochs)),
            Response::text(200, "dep"),
        );
        assert!(
            c.lookup(&key("/dep"), 1, None).is_none(),
            "a dep-stamped entry is stale under flat validation"
        );
    }
}
