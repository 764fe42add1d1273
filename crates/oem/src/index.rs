//! Secondary value indexes over OEM entities.
//!
//! Real annotation databases answer key lookups from indexes, not scans;
//! the Lorel planner mirrors that by seeding a range variable from the
//! bucket of an equality (or a disjunction of equalities) instead of
//! enumerating the whole entity set. Indexes are built lazily, one per
//! `(entity set, attribute)` a query probes, and memoised on the store
//! they index ([`crate::OemStore::cached_value_index`]). A [`ValueIndex`]
//! maps the *textual* form of an attribute's value to the parent entity
//! objects carrying it.
//!
//! Text keying interacts with Lorel's coercing equality: a numeric
//! literal can match differently-spelled numeric values, which a text
//! index cannot see. Callers therefore restrict index use to
//! **non-numeric string keys** (symbols, accessions, organism names),
//! where text equality and Lorel equality provably coincide for true
//! matches — residual false positives (e.g. a boolean attribute whose
//! text happens to equal the key) are removed by re-verifying candidates.

use std::collections::HashMap;

use crate::oid::Oid;
use crate::store::OemStore;

/// The parents carrying one value, in the order the index was built.
#[derive(Debug, Clone, Default)]
struct Bucket {
    oids: Vec<Oid>,
    /// Each parent's position in the indexed parent list, ascending.
    positions: Vec<usize>,
}

/// An index over one attribute of one entity set.
#[derive(Debug, Clone, Default)]
pub struct ValueIndex {
    by_text: HashMap<String, Bucket>,
    entries: usize,
}

impl ValueIndex {
    /// Builds the index of `attr` across the given parent objects. A
    /// parent appears once per distinct attribute instance (multi-valued
    /// attributes index the parent under each value).
    pub fn build(store: &OemStore, parents: &[Oid], attr: &str) -> Self {
        let mut by_text: HashMap<String, Bucket> = HashMap::new();
        let mut entries = 0usize;
        for (position, &p) in parents.iter().enumerate() {
            for child in store.children(p, attr) {
                if let Some(v) = store.value_of(child) {
                    let bucket = by_text.entry(v.as_text()).or_default();
                    if bucket.oids.last() != Some(&p) {
                        bucket.oids.push(p);
                        bucket.positions.push(position);
                        entries += 1;
                    }
                }
            }
        }
        ValueIndex { by_text, entries }
    }

    /// Parent objects whose attribute text equals any of `keys` — the
    /// union of their buckets, each parent once, in the order of the
    /// parent list the index was built over (a scan's order).
    pub fn lookup_any<'k>(&self, keys: impl IntoIterator<Item = &'k str>) -> Vec<Oid> {
        let mut hits: Vec<(usize, Oid)> = keys
            .into_iter()
            .filter_map(|k| self.by_text.get(k))
            .flat_map(|b| b.positions.iter().copied().zip(b.oids.iter().copied()))
            .collect();
        hits.sort_unstable_by_key(|&(position, _)| position);
        hits.dedup_by_key(|&mut (position, _)| position);
        hits.into_iter().map(|(_, oid)| oid).collect()
    }

    /// Number of indexed (value, parent) entries.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// True when nothing was indexed.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Number of distinct values.
    pub fn distinct(&self) -> usize {
        self.by_text.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::AtomicValue;

    fn store() -> (OemStore, Vec<Oid>) {
        let mut db = OemStore::new();
        let root = db.new_complex();
        let mut parents = Vec::new();
        for (sym, extra) in [("TP53", Some("TP53-ALT")), ("BRCA1", None), ("TP53", None)] {
            let g = db.add_complex_child(root, "Gene").unwrap();
            db.add_atomic_child(g, "Symbol", sym).unwrap();
            if let Some(e) = extra {
                db.add_atomic_child(g, "Symbol", e).unwrap();
            }
            parents.push(g);
        }
        (db, parents)
    }

    #[test]
    fn lookup_finds_all_parents_per_value() {
        let (db, parents) = store();
        let idx = ValueIndex::build(&db, &parents, "Symbol");
        assert_eq!(idx.lookup_any(["TP53"]), [parents[0], parents[2]]);
        assert_eq!(idx.lookup_any(["BRCA1"]), [parents[1]]);
        assert_eq!(idx.lookup_any(["TP53-ALT"]), [parents[0]]);
        assert!(idx.lookup_any(["MISSING"]).is_empty());
        assert_eq!(idx.len(), 4);
        assert_eq!(idx.distinct(), 3);
    }

    #[test]
    fn lookup_any_unions_buckets_in_parent_order() {
        let (db, parents) = store();
        // Index the parents in reverse: the union follows the indexed
        // list's order, not oid order.
        let reversed: Vec<Oid> = parents.iter().rev().copied().collect();
        let idx = ValueIndex::build(&db, &reversed, "Symbol");
        // parents[0] sits in two probed buckets and comes back once; a
        // repeated key and an absent one change nothing.
        assert_eq!(
            idx.lookup_any(["TP53-ALT", "BRCA1", "TP53", "TP53", "MISSING"]),
            vec![parents[2], parents[1], parents[0]]
        );
        assert!(idx.lookup_any([]).is_empty());
    }

    #[test]
    fn numeric_values_index_by_canonical_text() {
        let mut db = OemStore::new();
        let root = db.new_complex();
        let g = db.add_complex_child(root, "Gene").unwrap();
        db.add_atomic_child(g, "Id", AtomicValue::Int(7157))
            .unwrap();
        let idx = ValueIndex::build(&db, &[g], "Id");
        assert_eq!(idx.lookup_any(["7157"]), [g]);
    }

    #[test]
    fn empty_inputs() {
        let db = OemStore::new();
        let idx = ValueIndex::build(&db, &[], "x");
        assert!(idx.is_empty());
    }
}
