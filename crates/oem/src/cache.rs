//! Store-attached cache of derived query structures.
//!
//! This memo is the one place a structure derived from an OEM store is
//! built. Two users need three artefacts for a given store: the Lorel
//! planner, whose index seeks (every wrapper subquery, bind-join
//! disjunctions included) read a [`ValueIndex`] over one attribute of the
//! set of objects a path reaches from a root, and whose `from`-clause
//! ordering reads that set's *cardinality*; and the mediator, which plans
//! every question from each wrapper OML's entity cardinalities and
//! per-attribute [`AttributeStats`] histograms. All three are pure
//! functions of store content, so the store memoises them behind a
//! reader-writer lock: read-only workloads (wrapper subqueries, mediator
//! planning and fan-out) build each artefact once, on first use, and
//! share it across threads, while every content mutation drops the whole
//! cache.
//!
//! Entries are keyed by `(root oid, path text, attribute)`; invalidation
//! is coarse (any mutation clears everything) because stores in this
//! system are either built once and then queried (OMLs, the GML) or
//! mutated in bulk during refresh, where fine-grained tracking would buy
//! nothing.

use std::collections::HashMap;
use std::sync::{Arc, PoisonError, RwLock};

use crate::index::ValueIndex;
use crate::oid::Oid;
use crate::stats::AttributeStats;

/// Key for index and stats entries: root, path text, attribute label.
type AttrKey = (Oid, String, String);
/// Key for cardinality entries: root and path text.
type PathKey = (Oid, String);

#[derive(Default)]
struct CacheInner {
    indexes: HashMap<AttrKey, Arc<ValueIndex>>,
    stats: HashMap<AttrKey, Arc<AttributeStats>>,
    cardinalities: HashMap<PathKey, usize>,
}

/// Interior-mutable memo table attached to an `OemStore`.
///
/// Cloning a store starts with an empty cache; the cache never
/// participates in equality or serialisation.
#[derive(Default)]
pub(crate) struct QueryCache {
    inner: RwLock<CacheInner>,
}

impl std::fmt::Debug for QueryCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.read().unwrap_or_else(PoisonError::into_inner);
        f.debug_struct("QueryCache")
            .field("indexes", &inner.indexes.len())
            .field("stats", &inner.stats.len())
            .field("cardinalities", &inner.cardinalities.len())
            .finish()
    }
}

impl QueryCache {
    /// Drops every memoised entry (called on any store mutation).
    pub(crate) fn clear(&self) {
        let mut inner = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        inner.indexes.clear();
        inner.stats.clear();
        inner.cardinalities.clear();
    }

    /// Number of memoised value indexes (test/introspection hook).
    pub(crate) fn index_count(&self) -> usize {
        self.inner
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .indexes
            .len()
    }

    pub(crate) fn index(
        &self,
        key: AttrKey,
        build: impl FnOnce() -> ValueIndex,
    ) -> Arc<ValueIndex> {
        if let Some(hit) = self
            .inner
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .indexes
            .get(&key)
        {
            return Arc::clone(hit);
        }
        // Built outside the lock: concurrent misses may build twice, but
        // never block readers on an O(n) construction.
        let built = Arc::new(build());
        let mut inner = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(inner.indexes.entry(key).or_insert(built))
    }

    pub(crate) fn stats(
        &self,
        key: AttrKey,
        build: impl FnOnce() -> AttributeStats,
    ) -> Arc<AttributeStats> {
        if let Some(hit) = self
            .inner
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .stats
            .get(&key)
        {
            return Arc::clone(hit);
        }
        let built = Arc::new(build());
        let mut inner = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(inner.stats.entry(key).or_insert(built))
    }

    pub(crate) fn cardinality(&self, key: PathKey, compute: impl FnOnce() -> usize) -> usize {
        if let Some(hit) = self
            .inner
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .cardinalities
            .get(&key)
        {
            return *hit;
        }
        let computed = compute();
        let mut inner = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        *inner.cardinalities.entry(key).or_insert(computed)
    }
}
