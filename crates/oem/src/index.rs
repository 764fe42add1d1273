//! Secondary value indexes over OEM entities.
//!
//! Real annotation databases answer key lookups from indexes, not scans;
//! the Lorel planner mirrors that by seeding a range variable from the
//! bucket of an equality (or a disjunction of equalities), or from the
//! key range of a prefix `like`, instead of enumerating the whole entity
//! set. Indexes are built lazily, one per
//! `(entity set, attribute)` a query probes, and memoised on the store
//! they index ([`crate::OemStore::cached_value_index`]). A [`ValueIndex`]
//! maps the *textual* form of an attribute's value to the parent entity
//! objects carrying it.
//!
//! Text keying interacts with Lorel's coercing equality: a numeric
//! literal can match differently-spelled numeric values, which a text
//! index cannot see. Callers therefore restrict index use to string keys
//! whose matches the index can enumerate — residual false positives
//! (e.g. a boolean attribute whose text happens to equal the key) are
//! removed by re-verifying candidates:
//!
//! - **Non-numeric strings** (symbols, accessions, organism names):
//!   text equality and Lorel equality coincide for true matches.
//! - **Integer-spelled strings** (ASCII digits, no leading zero, at most
//!   15 digits, such as a MIM number): Lorel compares them numerically
//!   against `Int` and `Real` values. An equal `Int` is keyed by the same
//!   text, and an equal `Real` by the text plus `.0` (integral reals
//!   below 10^15 print that way), while `Str` and `Url` values compare
//!   textually. So probing those two texts finds every match.
//! - Everything else scans. An `Int` or `Real` literal equals strings of
//!   every spelling (`"7"`, `" 7"`, `"07"`, `"7.00"`), which no probe
//!   list can name. A non-canonical string (`"07"`, `"1e3"`) would need
//!   its canonical texts derived first, and past 15 digits `f64`
//!   rounding makes several integers equal one key and reals stop
//!   printing `.0`; both are rare in keys, so they keep the scan.
//!
//! Keys are kept ordered, so a `like "lit%"` pattern with a plain
//! literal prefix reads one contiguous range ([`ValueIndex::lookup_prefix`]):
//! `like` matches a value's text, which is exactly the key.

use std::collections::BTreeMap;
use std::ops::Bound;

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
    by_text: BTreeMap<String, Bucket>,
    entries: usize,
}

impl ValueIndex {
    /// Builds the index of `attr` across the given parent objects. A
    /// parent appears once per distinct attribute instance (multi-valued
    /// attributes index the parent under each value).
    pub fn build(store: &OemStore, parents: &[Oid], attr: &str) -> Self {
        let mut by_text: BTreeMap<String, Bucket> = BTreeMap::new();
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
        union_in_scan_order(keys.into_iter().filter_map(|k| self.by_text.get(k)))
    }

    /// Parent objects with an attribute text that starts with `prefix`
    /// — every bucket in the key range, each parent once, in scan order
    /// (as [`ValueIndex::lookup_any`]).
    pub fn lookup_prefix(&self, prefix: &str) -> Vec<Oid> {
        let range = self
            .by_text
            .range::<str, _>((Bound::Included(prefix), Bound::Unbounded));
        union_in_scan_order(
            range
                .take_while(|(text, _)| text.starts_with(prefix))
                .map(|(_, bucket)| bucket),
        )
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

/// The parents of several buckets, each once, in indexed-list order.
fn union_in_scan_order<'b>(buckets: impl Iterator<Item = &'b Bucket>) -> Vec<Oid> {
    let mut hits: Vec<(usize, Oid)> = buckets
        .flat_map(|b| b.positions.iter().copied().zip(b.oids.iter().copied()))
        .collect();
    hits.sort_unstable_by_key(|&(position, _)| position);
    hits.dedup_by_key(|&mut (position, _)| position);
    hits.into_iter().map(|(_, oid)| oid).collect()
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
