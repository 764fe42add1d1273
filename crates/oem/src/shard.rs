//! Sharded OEM store: key-routed partitions with per-shard epochs.
//!
//! The mediator's integrated ANNODA-GML view is a single root whose
//! direct children are entity fragments (`Source`, `Gene`, `Function`,
//! `Disease`, `Publication`, `Annotation`). [`ShardedStore`] partitions
//! those fragments across `n` immutable [`OemStore`] shards by a stable
//! hash of each fragment's identifying key, so a refresh that rewrites
//! one source's entities swaps only the shards it touched while readers
//! keep serving the untouched shards' `Arc`s.
//!
//! Two invariants make the sharding transparent to readers:
//!
//! * **Canonical fragment order.** Partitioning stable-sorts fragments
//!   by `(label, key, original index)` and assembly k-way merges the
//!   per-shard lists with the same comparator. Fragments with equal
//!   `(label, key)` always co-shard (routing ignores the label), so the
//!   merge is total and `assemble(partition(flat, n))` encodes
//!   byte-identically for *every* shard count `n`.
//! * **Per-fragment copies.** Each fragment is imported with a fresh
//!   memo, so object sharing *across* fragments is broken the same way
//!   regardless of where the shard boundaries fall. Sharing and cycles
//!   *within* a fragment are preserved.

use std::sync::Arc;

use crate::error::OemError;
use crate::graph::{import_fragment, structural_eq};
use crate::harvest::atomic_text;
use crate::oid::Oid;
use crate::store::OemStore;

/// Upper bound on shard count: shard sets travel as `u64` bitmasks in
/// the serve tier's cache dependencies and ETags.
pub const MAX_SHARDS: usize = 64;

/// 64-bit FNV-1a — stable across runs and platforms, unlike
/// `DefaultHasher`, so shard routing survives restarts and the on-disk
/// shard layout stays valid.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Routes fragment keys to shard indices.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardRouter {
    shards: usize,
}

impl ShardRouter {
    /// A router over `shards` partitions, clamped to `1..=MAX_SHARDS`.
    pub fn new(shards: usize) -> Self {
        Self {
            shards: shards.clamp(1, MAX_SHARDS),
        }
    }

    /// Number of shards routed over.
    pub fn shards(self) -> usize {
        self.shards
    }

    /// The shard an identifying key lives on. Routing uses only the key
    /// (not the entity label) so equal keys always co-shard, which keeps
    /// the assembly merge total.
    pub fn route(self, key: &str) -> usize {
        (fnv1a64(key.as_bytes()) % self.shards as u64) as usize
    }
}

/// The identifying key of an entity fragment, matching the keys the
/// navigator resolves `/object/{kind}/{id}` against. Unknown labels fall
/// back to the first atomic child's text, then to the label itself, so
/// arbitrary stores (proptests) still partition deterministically.
pub fn fragment_key(store: &OemStore, label: &str, frag: Oid) -> String {
    let attr = match label {
        "Gene" | "Annotation" => Some("Symbol"),
        "Source" => Some("Name"),
        "Function" => Some("FunctionID"),
        "Disease" => Some("DiseaseID"),
        "Publication" => Some("PublicationID"),
        _ => None,
    };
    if let Some(attr) = attr {
        if let Some(text) = store.child_value(frag, attr).and_then(atomic_text) {
            return text;
        }
    }
    if let Some(value) = store.get(frag).and_then(|o| o.value()) {
        if let Some(text) = atomic_text(value) {
            return text;
        }
    }
    for edge in store.edges_of(frag) {
        if let Some(text) = store.value_of(edge.target).and_then(atomic_text) {
            return text;
        }
    }
    label.to_string()
}

/// An immutable, epoch-versioned partitioning of a rooted OEM store.
///
/// Each shard is a complete `OemStore` holding a root named
/// [`root_name`](Self::root_name) whose children are the fragments
/// routed to that shard, in canonical order. Shards are shared as
/// `Arc`s; [`install`](Self::install) swaps one shard and bumps only
/// its epoch, leaving readers of other shards untouched.
#[derive(Clone)]
pub struct ShardedStore {
    root_name: String,
    router: ShardRouter,
    shards: Vec<Arc<OemStore>>,
    epochs: Vec<u64>,
}

impl ShardedStore {
    /// Partitions the fragment children of `flat`'s root named
    /// `root_name` across `shards` partitions, `1..=MAX_SHARDS`.
    pub fn partition(flat: &OemStore, root_name: &str, shards: usize) -> Result<Self, OemError> {
        if !(1..=MAX_SHARDS).contains(&shards) {
            let bad = format!("bad shard count {shards}: a store has 1..={MAX_SHARDS} shards");
            return Err(OemError::DanglingOid(bad));
        }
        let root = flat
            .named(root_name)
            .ok_or_else(|| OemError::DanglingOid(format!("no root named {root_name}")))?;
        let router = ShardRouter::new(shards);
        let mut fragments: Vec<(String, String, usize, Oid)> = flat
            .edges_of(root)
            .iter()
            .enumerate()
            .map(|(idx, e)| {
                let label = flat.label_name(e.label).to_string();
                let key = fragment_key(flat, &label, e.target);
                (label, key, idx, e.target)
            })
            .collect();
        fragments.sort_by(|a, b| (&a.0, &a.1, a.2).cmp(&(&b.0, &b.1, b.2)));

        let mut stores: Vec<OemStore> = Vec::with_capacity(router.shards());
        let mut roots: Vec<Oid> = Vec::with_capacity(router.shards());
        for _ in 0..router.shards() {
            let mut s = OemStore::new();
            let r = s.new_complex();
            s.set_name(root_name, r).expect("fresh store has no names");
            stores.push(s);
            roots.push(r);
        }
        for (label, key, _, target) in &fragments {
            let shard = router.route(key);
            let copied = import_fragment(&mut stores[shard], flat, *target);
            stores[shard]
                .add_edge(roots[shard], label, copied)
                .expect("freshly imported fragment is live");
        }
        Ok(Self {
            root_name: root_name.to_string(),
            router,
            shards: stores.into_iter().map(Arc::new).collect(),
            epochs: vec![1; router.shards()],
        })
    }

    /// Rebuilds a sharded store from already-partitioned per-shard
    /// stores (warm recovery): each store must hold a root named
    /// `root_name`. Epochs are supplied by the caller (recovered from
    /// the per-shard durable generations, salted per boot so epoch
    /// values minted by a previous process never collide).
    pub fn from_shards(
        root_name: &str,
        shards: Vec<Arc<OemStore>>,
        epochs: Vec<u64>,
    ) -> Result<Self, OemError> {
        if shards.is_empty() || shards.len() != epochs.len() || shards.len() > MAX_SHARDS {
            return Err(OemError::DanglingOid(format!(
                "bad shard vector: {} stores, {} epochs",
                shards.len(),
                epochs.len()
            )));
        }
        for (i, s) in shards.iter().enumerate() {
            if s.named(root_name).is_none() {
                return Err(OemError::DanglingOid(format!(
                    "shard {i} has no root named {root_name}"
                )));
            }
        }
        Ok(Self {
            root_name: root_name.to_string(),
            router: ShardRouter::new(shards.len()),
            shards,
            epochs,
        })
    }

    /// The root name every shard (and the assembly) is keyed under.
    pub fn root_name(&self) -> &str {
        &self.root_name
    }

    /// The key router for this partitioning.
    pub fn router(&self) -> ShardRouter {
        self.router
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// One shard's immutable store.
    pub fn shard(&self, idx: usize) -> &Arc<OemStore> {
        &self.shards[idx]
    }

    /// All shard stores, indexed by shard id.
    pub fn shards(&self) -> &[Arc<OemStore>] {
        &self.shards
    }

    /// Per-shard epochs; `epochs()[i]` advances exactly when shard `i`
    /// is swapped. The whole slice is the *snapshot vector* readers pin.
    pub fn epochs(&self) -> &[u64] {
        &self.epochs
    }

    /// The shard an identifying key routes to.
    pub fn shard_of_key(&self, key: &str) -> usize {
        self.router.route(key)
    }

    /// Finds the fragment with entity `label` and identifying `key`,
    /// returning its shard and oid within that shard.
    pub fn fragment(&self, label: &str, key: &str) -> Option<(usize, Oid)> {
        let idx = self.shard_of_key(key);
        let store = &self.shards[idx];
        let root = store.named(&self.root_name)?;
        for edge in store.edges_of(root) {
            if store.label_name(edge.label) == label
                && fragment_key(store, label, edge.target) == key
            {
                return Some((idx, edge.target));
            }
        }
        None
    }

    /// Objects held by one shard (root included).
    pub fn shard_objects(&self, idx: usize) -> usize {
        self.shards[idx].len()
    }

    /// Total objects across all shards.
    pub fn total_objects(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// Fragments held by one shard.
    pub fn shard_fragments(&self, idx: usize) -> usize {
        let store = &self.shards[idx];
        store
            .named(&self.root_name)
            .map(|r| store.edges_of(r).len())
            .unwrap_or(0)
    }

    /// Swaps shard `idx` to a new immutable store and bumps its epoch.
    pub fn install(&mut self, idx: usize, store: Arc<OemStore>) {
        self.shards[idx] = store;
        self.epochs[idx] += 1;
    }

    /// Shards where `staged` differs structurally from `self` — the
    /// touched set a transaction commit must validate and swap. Shard
    /// contents are canonically ordered on both sides, so order-
    /// sensitive [`structural_eq`] is a sound equality here.
    pub fn changed_shards(&self, staged: &Self) -> Vec<usize> {
        debug_assert_eq!(self.shard_count(), staged.shard_count());
        let mut changed = Vec::new();
        for i in 0..self.shard_count().min(staged.shard_count()) {
            let (a, b) = (&self.shards[i], &staged.shards[i]);
            let (Some(ra), Some(rb)) = (a.named(&self.root_name), b.named(&staged.root_name))
            else {
                changed.push(i);
                continue;
            };
            if !structural_eq(a, ra, b, rb) {
                changed.push(i);
            }
        }
        changed
    }

    /// Counts the fragments that differ between `self` and `staged`
    /// within the given shards (typically the
    /// [`changed_shards`](Self::changed_shards) set): a fragment counts
    /// when its `(label, key)` pair exists on only one side, or exists
    /// on both but is structurally unequal. Both sides hold fragments in
    /// canonical `(label, key)` order, so this is a linear merge-walk.
    pub fn changed_fragments(&self, staged: &Self, shards: &[usize]) -> usize {
        let list = |store: &OemStore| -> Vec<(String, String, Oid)> {
            let Some(root) = store.named(&self.root_name) else {
                return Vec::new();
            };
            store
                .edges_of(root)
                .iter()
                .map(|e| {
                    let label = store.label_name(e.label).to_string();
                    let key = fragment_key(store, &label, e.target);
                    (label, key, e.target)
                })
                .collect()
        };
        let mut changed = 0usize;
        for &i in shards {
            if i >= self.shards.len() || i >= staged.shards.len() {
                continue;
            }
            let (a, b) = (&self.shards[i], &staged.shards[i]);
            let (la, lb) = (list(a), list(b));
            let (mut x, mut y) = (0usize, 0usize);
            loop {
                match (la.get(x), lb.get(y)) {
                    (Some(fa), Some(fb)) => match (&fa.0, &fa.1).cmp(&(&fb.0, &fb.1)) {
                        std::cmp::Ordering::Less => {
                            changed += 1;
                            x += 1;
                        }
                        std::cmp::Ordering::Greater => {
                            changed += 1;
                            y += 1;
                        }
                        std::cmp::Ordering::Equal => {
                            if !structural_eq(a, fa.2, b, fb.2) {
                                changed += 1;
                            }
                            x += 1;
                            y += 1;
                        }
                    },
                    (Some(_), None) => {
                        changed += 1;
                        x += 1;
                    }
                    (None, Some(_)) => {
                        changed += 1;
                        y += 1;
                    }
                    (None, None) => break,
                }
            }
        }
        changed
    }

    /// Reassembles the canonical flat store: a single root named
    /// [`root_name`](Self::root_name) whose children are every shard's
    /// fragments, k-way merged back into canonical `(label, key)`
    /// order. Byte-identical (under `encode_store`) for every shard
    /// count over the same source data.
    pub fn assemble(&self) -> OemStore {
        let mut out = OemStore::new();
        let out_root = out.new_complex();
        out.set_name(&self.root_name, out_root)
            .expect("fresh store has no names");

        // Per-shard cursor over (label, key, target) in stored order.
        let lists: Vec<Vec<(String, String, Oid)>> = self
            .shards
            .iter()
            .map(|store| {
                let Some(root) = store.named(&self.root_name) else {
                    return Vec::new();
                };
                store
                    .edges_of(root)
                    .iter()
                    .map(|e| {
                        let label = store.label_name(e.label).to_string();
                        let key = fragment_key(store, &label, e.target);
                        (label, key, e.target)
                    })
                    .collect()
            })
            .collect();
        let mut heads = vec![0usize; lists.len()];
        loop {
            let mut best: Option<usize> = None;
            for (i, list) in lists.iter().enumerate() {
                if heads[i] >= list.len() {
                    continue;
                }
                let cand = &list[heads[i]];
                best = match best {
                    None => Some(i),
                    Some(j) => {
                        let cur = &lists[j][heads[j]];
                        if (&cand.0, &cand.1) < (&cur.0, &cur.1) {
                            Some(i)
                        } else {
                            Some(j)
                        }
                    }
                };
            }
            let Some(i) = best else { break };
            let (label, _, target) = &lists[i][heads[i]];
            heads[i] += 1;
            let copied = import_fragment(&mut out, &self.shards[i], *target);
            out.add_edge(out_root, label, copied)
                .expect("freshly imported fragment is live");
        }
        out
    }
}

/// Bitmask over shard indices (`MAX_SHARDS` ≤ 64 keeps this a `u64`).
pub fn shard_mask(shards: &[usize]) -> u64 {
    shards.iter().fold(0u64, |m, &i| m | (1u64 << (i % 64)))
}

/// Sum of the epochs selected by `mask` — the dependency stamp the
/// serve-tier cache uses. Each component only ever grows, so an equal
/// sum over the same mask proves none of the masked shards changed.
pub fn mask_stamp(epochs: &[u64], mask: u64) -> u64 {
    epochs
        .iter()
        .enumerate()
        .filter(|(i, _)| mask & (1u64 << (i % 64)) != 0)
        .map(|(_, e)| *e)
        .fold(0u64, |a, e| a.wrapping_add(e))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gml_fixture() -> OemStore {
        let mut s = OemStore::new();
        let root = s.new_complex();
        s.set_name("ANNODA-GML", root).unwrap();
        for sym in ["TP53", "BRCA1", "MDM2", "EGFR", "KRAS"] {
            let g = s.add_complex_child(root, "Gene").unwrap();
            s.add_atomic_child(g, "Symbol", sym).unwrap();
            s.add_atomic_child(g, "Organism", "Homo sapiens").unwrap();
        }
        for fid in ["GO:0001", "GO:0002", "GO:0003"] {
            let f = s.add_complex_child(root, "Function").unwrap();
            s.add_atomic_child(f, "FunctionID", fid).unwrap();
        }
        let src = s.add_complex_child(root, "Source").unwrap();
        s.add_atomic_child(src, "Name", "LocusLink").unwrap();
        s
    }

    #[test]
    fn router_is_stable_and_clamped() {
        let r = ShardRouter::new(0);
        assert_eq!(r.shards(), 1);
        let r = ShardRouter::new(4);
        assert_eq!(r.route("TP53"), r.route("TP53"));
        assert!(r.route("TP53") < 4);
        assert_eq!(ShardRouter::new(1000).shards(), MAX_SHARDS);
    }

    #[test]
    fn partition_preserves_fragments_and_assembly_is_canonical() {
        let flat = gml_fixture();
        let one = ShardedStore::partition(&flat, "ANNODA-GML", 1).unwrap();
        for n in [1usize, 2, 3, 4, 7] {
            let sharded = ShardedStore::partition(&flat, "ANNODA-GML", n).unwrap();
            let total: usize = (0..sharded.shard_count())
                .map(|i| sharded.shard_fragments(i))
                .sum();
            assert_eq!(total, 9, "all fragments survive partitioning at n={n}");
            // Every entity resolves in its routed shard, structurally
            // identical to the flat fragment.
            for sym in ["TP53", "BRCA1", "MDM2", "EGFR", "KRAS"] {
                let (idx, frag) = sharded.fragment("Gene", sym).expect("gene routed");
                let flat_root = flat.named("ANNODA-GML").unwrap();
                let flat_frag = flat
                    .edges_of(flat_root)
                    .iter()
                    .find(|e| {
                        flat.label_name(e.label) == "Gene"
                            && fragment_key(&flat, "Gene", e.target) == sym
                    })
                    .unwrap()
                    .target;
                assert!(structural_eq(sharded.shard(idx), frag, &flat, flat_frag));
            }
            // Canonical assembly is shard-count independent.
            let a = sharded.assemble();
            let b = one.assemble();
            let (ra, rb) = (
                a.named("ANNODA-GML").unwrap(),
                b.named("ANNODA-GML").unwrap(),
            );
            assert!(structural_eq(&a, ra, &b, rb), "assembly differs at n={n}");
        }
    }

    #[test]
    fn install_bumps_only_touched_epoch_and_changed_shards_sees_it() {
        let flat = gml_fixture();
        let mut sharded = ShardedStore::partition(&flat, "ANNODA-GML", 4).unwrap();
        let before = sharded.epochs().to_vec();

        // Stage a mutation of one gene and re-partition.
        let mut mutated = gml_fixture();
        let (idx, _) = sharded.fragment("Gene", "TP53").unwrap();
        let root = mutated.named("ANNODA-GML").unwrap();
        let frag = mutated
            .edges_of(root)
            .iter()
            .find(|e| {
                mutated.label_name(e.label) == "Gene"
                    && fragment_key(&mutated, "Gene", e.target) == "TP53"
            })
            .unwrap()
            .target;
        mutated.add_atomic_child(frag, "Note", "mutated").unwrap();
        let staged = ShardedStore::partition(&mutated, "ANNODA-GML", 4).unwrap();

        let changed = sharded.changed_shards(&staged);
        assert_eq!(changed, vec![idx], "only TP53's shard changed");
        for &i in &changed {
            sharded.install(i, Arc::clone(staged.shard(i)));
        }
        for (i, &b) in before.iter().enumerate() {
            let expect = if i == idx { b + 1 } else { b };
            assert_eq!(sharded.epochs()[i], expect);
        }
    }

    #[test]
    fn changed_fragments_counts_mutations_inserts_and_removals() {
        let flat = gml_fixture();
        let sharded = ShardedStore::partition(&flat, "ANNODA-GML", 4).unwrap();
        // No change: zero fragments differ anywhere.
        let same = ShardedStore::partition(&flat, "ANNODA-GML", 4).unwrap();
        let all: Vec<usize> = (0..4).collect();
        assert_eq!(sharded.changed_fragments(&same, &all), 0);

        // Mutate one gene, drop another, add a new function.
        let mut mutated = gml_fixture();
        let root = mutated.named("ANNODA-GML").unwrap();
        let tp53 = mutated
            .edges_of(root)
            .iter()
            .find(|e| fragment_key(&mutated, "Gene", e.target) == "TP53")
            .unwrap()
            .target;
        mutated.add_atomic_child(tp53, "Note", "mutated").unwrap();
        let kras = *mutated
            .edges_of(root)
            .iter()
            .find(|e| fragment_key(&mutated, "Gene", e.target) == "KRAS")
            .unwrap();
        let kras_label = mutated.label_name(kras.label).to_string();
        mutated.remove_edge(root, &kras_label, kras.target).unwrap();
        let f = mutated.add_complex_child(root, "Function").unwrap();
        mutated
            .add_atomic_child(f, "FunctionID", "GO:0099")
            .unwrap();
        let staged = ShardedStore::partition(&mutated, "ANNODA-GML", 4).unwrap();

        let changed = sharded.changed_shards(&staged);
        assert_eq!(sharded.changed_fragments(&staged, &changed), 3);
    }

    #[test]
    fn mask_and_stamp_roundtrip() {
        let mask = shard_mask(&[0, 3]);
        assert_eq!(mask, 0b1001);
        let epochs = vec![5, 7, 9, 11];
        assert_eq!(mask_stamp(&epochs, mask), 16);
        // Bumping an unmasked shard leaves the stamp fixed.
        let bumped = vec![5, 8, 9, 11];
        assert_eq!(mask_stamp(&bumped, mask), 16);
        // Bumping a masked shard moves it.
        let moved = vec![6, 7, 9, 11];
        assert_ne!(mask_stamp(&moved, mask), 16);
    }

    #[test]
    fn fragment_key_falls_back_deterministically() {
        let mut s = OemStore::new();
        let root = s.new_complex();
        s.set_name("R", root).unwrap();
        let odd = s.add_complex_child(root, "Widget").unwrap();
        s.add_atomic_child(odd, "Whatever", "w-1").unwrap();
        assert_eq!(fragment_key(&s, "Widget", odd), "w-1");
        let bare = s.add_complex_child(root, "Empty").unwrap();
        assert_eq!(fragment_key(&s, "Empty", bare), "Empty");
        let atom = s.new_atomic("direct");
        s.add_edge(root, "Atom", atom).unwrap();
        assert_eq!(fragment_key(&s, "Atom", atom), "direct");
    }

    #[test]
    fn from_shards_validates_roots() {
        let flat = gml_fixture();
        let sharded = ShardedStore::partition(&flat, "ANNODA-GML", 2).unwrap();
        let rebuilt = ShardedStore::from_shards(
            "ANNODA-GML",
            sharded.shards().to_vec(),
            sharded.epochs().to_vec(),
        )
        .unwrap();
        assert_eq!(rebuilt.shard_count(), 2);
        assert!(ShardedStore::from_shards("NOPE", sharded.shards().to_vec(), vec![1, 1]).is_err());
    }
}
