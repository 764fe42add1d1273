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

use std::cmp::Ordering;
use std::sync::Arc;

use crate::error::OemError;
use crate::graph::import_fragment;
use crate::harvest::atomic_text;
use crate::object::ObjectKind;
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

/// The fragments under a shard root that share an entity label and an
/// identifying key: the unit a commit diffs, journals and replays. Keys
/// repeat (a symbol with several `Annotation`s), so a group may hold
/// several fragments; canonical order keeps them next to each other.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FragmentGroup {
    /// Entity label of the group's root edges.
    pub label: String,
    /// The group's identifying key.
    pub key: String,
    /// The staged side's fragments, in order; empty when the group went
    /// away.
    pub fragments: Vec<Oid>,
    /// Fragments that differ, paired in order: the unequal pairs plus
    /// the surplus on the longer side.
    pub changed: usize,
}

/// A fragment's root and the end of the oid span it was laid out in.
type Span = (Oid, usize);

/// The fragment groups under `store`'s root named `root_name`, in stored
/// order, each with its fragments' spans; none without that root. A
/// partition imports each fragment into one run of fresh oids right
/// before linking it, so a fragment's span ends where the next one's
/// root begins.
fn groups<'s>(store: &'s OemStore, root_name: &str) -> Vec<(&'s str, String, Vec<Span>)> {
    let mut out: Vec<(&str, String, Vec<Span>)> = Vec::new();
    let edges = store
        .named(root_name)
        .map_or(&[][..], |r| store.edges_of(r));
    for (j, edge) in edges.iter().enumerate() {
        let end = edges
            .get(j + 1)
            .map_or(store.len(), |next| next.target.index());
        let label = store.label_name(edge.label);
        let key = fragment_key(store, label, edge.target);
        match out.last_mut() {
            Some((l, k, spans)) if *l == label && *k == key => spans.push((edge.target, end)),
            _ => out.push((label, key, vec![(edge.target, end)])),
        }
    }
    out
}

/// Whether two laid-out fragments are one graph: their spans match
/// object for object at equal offsets — kind, value, edge labels and
/// offset targets — so sharing counts, which
/// [`structural_eq`](crate::graph::structural_eq) cannot see. A
/// partition lays a fragment out in an order fixed by its structure and
/// sharing, so for its shards this is exact; in any other layout a span
/// that does not hold its fragment reads as unequal, never as equal.
fn same_span(a: &OemStore, (ra, end_a): Span, b: &OemStore, (rb, end_b): Span) -> bool {
    let (sa, sb, len) = (ra.index(), rb.index(), end_a.saturating_sub(ra.index()));
    fn at(s: &OemStore, i: usize) -> Option<&ObjectKind> {
        s.get(Oid::from_index(i)).map(|o| o.kind())
    }
    let same = |k| match (at(a, sa + k), at(b, sb + k)) {
        (Some(ObjectKind::Atomic(va)), Some(ObjectKind::Atomic(vb))) => va == vb,
        (Some(ObjectKind::Complex(ea)), Some(ObjectKind::Complex(eb))) => {
            ea.len() == eb.len()
                && ea.iter().zip(eb).all(|(x, y)| {
                    // Below `sa`, the offset wraps past `len`.
                    let offset = x.target.index().wrapping_sub(sa);
                    offset < len
                        && y.target.index() == sb + offset
                        && a.label_name(x.label) == b.label_name(y.label)
                })
        }
        _ => false,
    };
    len > 0 && end_b.checked_sub(sb) == Some(len) && (0..len).all(same)
}

/// Replaces the `(label, key)` fragment group under `root` with the
/// fresh `fragments`: unlinks every `label` edge whose fragment has that
/// key, then links `fragments`, in order, after the root's other edges.
/// The one way a journaled group change reaches a store, live or
/// replayed; the unlinked fragments stay behind as garbage until
/// compaction.
pub fn replace_group(
    store: &mut OemStore,
    root: Oid,
    label: &str,
    key: &str,
    fragments: &[Oid],
) -> Result<(), OemError> {
    let old: Vec<Oid> = store
        .edges_of(root)
        .iter()
        .filter(|e| {
            store.label_name(e.label) == label && fragment_key(store, label, e.target) == key
        })
        .map(|e| e.target)
        .collect();
    for target in old {
        store.remove_edge(root, label, target)?;
    }
    for &fragment in fragments {
        store.link(root, label, fragment, false)?;
    }
    Ok(())
}

/// The shards a [`ShardedStore::changed_groups`] walk touched.
pub fn touched_shards(groups: &[Vec<FragmentGroup>]) -> Vec<usize> {
    let touched = groups.iter().enumerate().filter(|(_, g)| !g.is_empty());
    touched.map(|(i, _)| i).collect()
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
    /// `root_name` across `shards` partitions, `1..=MAX_SHARDS`. Timed
    /// on its own by the benchmark harness until ROADMAP item 1(e).
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
                .link(roots[shard], label, copied, false)
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

    /// Every fragment group where `staged` differs from `self`, shard
    /// by shard (an untouched shard's list is empty): a group differs
    /// when it exists on one side only, or when its fragments, paired in
    /// order, are not all the same graph. Both sides are laid out by a
    /// partition, fragments in canonical `(label, key)` order, so each
    /// shard is one merge-walk. A commit's touched shards,
    /// changed-fragment count and journal records all come from it.
    pub fn changed_groups(&self, staged: &Self) -> Vec<Vec<FragmentGroup>> {
        self.walk(staged, same_span)
    }

    /// [`changed_groups`](Self::changed_groups) with `same` deciding
    /// whether two fragments are equal.
    fn walk(
        &self,
        staged: &Self,
        same: fn(&OemStore, Span, &OemStore, Span) -> bool,
    ) -> Vec<Vec<FragmentGroup>> {
        debug_assert_eq!(self.shard_count(), staged.shard_count());
        let walk = |a: &OemStore, b: &OemStore| {
            // A shard is one span too: an untouched one costs one scan.
            let whole = |s: &OemStore, name| s.named(name).map(|root| (root, s.len()));
            let (wa, wb) = (whole(a, &self.root_name), whole(b, &staged.root_name));
            if wa.zip(wb).is_some_and(|(wa, wb)| same(a, wa, b, wb)) {
                return Vec::new();
            }
            let (ga, gb) = (groups(a, &self.root_name), groups(b, &staged.root_name));
            let (mut x, mut y, mut out) = (0, 0, Vec::new());
            while x < ga.len() || y < gb.len() {
                let order = match (ga.get(x), gb.get(y)) {
                    (Some(p), Some(q)) => (p.0, &p.1).cmp(&(q.0, &q.1)),
                    (Some(_), None) => Ordering::Less,
                    _ => Ordering::Greater,
                };
                let none: &[Span] = &[];
                let (label, key, pinned, fragments) = match order {
                    Ordering::Less => (ga[x].0, &ga[x].1, &ga[x].2[..], none),
                    Ordering::Greater => (gb[y].0, &gb[y].1, none, &gb[y].2[..]),
                    Ordering::Equal => (gb[y].0, &gb[y].1, &ga[x].2[..], &gb[y].2[..]),
                };
                x += usize::from(order != Ordering::Greater);
                y += usize::from(order != Ordering::Less);
                let unequal = pinned.iter().zip(fragments);
                let unequal = unequal.filter(|&(&p, &q)| !same(a, p, b, q)).count();
                let changed = unequal + pinned.len().abs_diff(fragments.len());
                if changed > 0 {
                    out.push(FragmentGroup {
                        label: label.to_string(),
                        key: key.clone(),
                        fragments: fragments.iter().map(|&(f, _)| f).collect(),
                        changed,
                    });
                }
            }
            out
        };
        let pairs = self.shards.iter().zip(&staged.shards);
        pairs.map(|(a, b)| walk(a, b)).collect()
    }

    /// The shards where `staged` differs from `self`: those
    /// [`changed_groups`](Self::changed_groups) touches. Timed on its own
    /// by the benchmark harness until ROADMAP item 1(e).
    pub fn changed_shards(&self, staged: &Self) -> Vec<usize> {
        touched_shards(&self.changed_groups(staged))
    }

    /// Reassembles the canonical flat store: a single root named
    /// [`root_name`](Self::root_name) whose children are every shard's
    /// fragments, k-way merged back into canonical `(label, key)`
    /// order. Byte-identical (under `encode_store`) for every shard
    /// count over the same source data. Timed on its own by the
    /// benchmark harness until ROADMAP item 1(e).
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
            out.link(out_root, label, copied, false)
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
    use crate::graph::structural_eq;

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
    fn changed_groups_name_mutations_inserts_and_removals() {
        let flat = gml_fixture();
        let sharded = ShardedStore::partition(&flat, "ANNODA-GML", 4).unwrap();
        // No change: zero fragments differ anywhere.
        let same = ShardedStore::partition(&flat, "ANNODA-GML", 4).unwrap();
        assert!(sharded.changed_groups(&same).iter().all(Vec::is_empty));

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

        let groups = sharded.changed_groups(&staged);
        let changed: Vec<&FragmentGroup> = groups.iter().flatten().collect();
        assert_eq!(changed.iter().map(|g| g.changed).sum::<usize>(), 3);
        let keys: Vec<(&str, &str, usize)> = changed
            .iter()
            .map(|g| (g.label.as_str(), g.key.as_str(), g.fragments.len()))
            .collect();
        for group in [
            ("Gene", "TP53", 1),
            ("Gene", "KRAS", 0),
            ("Function", "GO:0099", 1),
        ] {
            assert!(keys.contains(&group), "{group:?} in {keys:?}");
        }
    }

    #[test]
    fn the_walk_sees_sharing_that_structural_equality_cannot() {
        let laid_out = |shared: bool| {
            let mut s = OemStore::new();
            let root = s.new_complex();
            s.set_name("R", root).unwrap();
            let gene = s.add_complex_child(root, "Gene").unwrap();
            s.add_atomic_child(gene, "Symbol", "TP53").unwrap();
            let alias = s.add_atomic_child(gene, "Alias", "p53").unwrap();
            if shared {
                s.add_edge(gene, "Name", alias).unwrap();
            } else {
                s.add_atomic_child(gene, "Name", "p53").unwrap();
            }
            ShardedStore::partition(&s, "R", 1).unwrap()
        };
        let (apart, shared) = (laid_out(false), laid_out(true));
        let structural = apart.walk(&shared, |a, (ra, _), b, (rb, _)| {
            structural_eq(a, ra, b, rb)
        });
        assert!(structural[0].is_empty(), "structurally one gene");
        let groups = apart.changed_groups(&shared);
        assert_eq!((groups[0].len(), groups[0][0].changed), (1, 1));
        assert!(apart.changed_groups(&laid_out(false))[0].is_empty());
        assert!(shared.changed_groups(&laid_out(true))[0].is_empty());
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

    /// The build before fresh links skipped the duplicate scan: every
    /// edge through `add_edge`. The property below compares against it.
    mod reference {
        use std::collections::{HashMap, HashSet};
        use std::sync::Arc;

        use super::super::{fragment_key, ShardRouter, ShardedStore, MAX_SHARDS};
        use crate::graph::structural_eq;
        use crate::object::ObjectKind;
        use crate::{OemStore, Oid};

        pub fn import_fragment(dst: &mut OemStore, src: &OemStore, src_root: Oid) -> Oid {
            let mut memo: HashMap<Oid, Oid> = HashMap::new();
            let order: Vec<Oid> = {
                let mut seen = HashSet::new();
                let mut stack = vec![src_root];
                let mut order = Vec::new();
                while let Some(o) = stack.pop() {
                    if !seen.insert(o) {
                        continue;
                    }
                    order.push(o);
                    for e in src.edges_of(o) {
                        stack.push(e.target);
                    }
                }
                order
            };
            for &o in &order {
                let copy = match src.get(o).map(|obj| obj.kind()) {
                    Some(ObjectKind::Atomic(v)) => dst.new_atomic(v.clone()),
                    Some(ObjectKind::Complex(_)) | None => dst.new_complex(),
                };
                memo.insert(o, copy);
            }
            for &o in &order {
                let from = memo[&o];
                let edges: Vec<(String, Oid)> = src
                    .edges_of(o)
                    .iter()
                    .map(|e| (src.label_name(e.label).to_string(), memo[&e.target]))
                    .collect();
                for (label, to) in edges {
                    dst.add_edge(from, &label, to).unwrap();
                }
            }
            memo[&src_root]
        }

        pub fn partition(flat: &OemStore, root_name: &str, shards: usize) -> ShardedStore {
            assert!((1..=MAX_SHARDS).contains(&shards));
            let root = flat.named(root_name).unwrap();
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
            let mut stores: Vec<OemStore> = Vec::new();
            let mut roots: Vec<Oid> = Vec::new();
            for _ in 0..router.shards() {
                let mut s = OemStore::new();
                let r = s.new_complex();
                s.set_name(root_name, r).unwrap();
                stores.push(s);
                roots.push(r);
            }
            for (label, key, _, target) in &fragments {
                let shard = router.route(key);
                let copied = import_fragment(&mut stores[shard], flat, *target);
                stores[shard].add_edge(roots[shard], label, copied).unwrap();
            }
            ShardedStore {
                root_name: root_name.to_string(),
                router,
                shards: stores.into_iter().map(Arc::new).collect(),
                epochs: vec![1; router.shards()],
            }
        }

        pub fn assemble(sharded: &ShardedStore) -> OemStore {
            let mut out = OemStore::new();
            let out_root = out.new_complex();
            out.set_name(&sharded.root_name, out_root).unwrap();
            let lists: Vec<Vec<(String, String, Oid)>> = sharded
                .shards
                .iter()
                .map(|store| {
                    let Some(root) = store.named(&sharded.root_name) else {
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
                let copied = import_fragment(&mut out, &sharded.shards[i], *target);
                out.add_edge(out_root, label, copied).unwrap();
            }
            out
        }

        /// The touched set before the group walk: whole-shard equality.
        pub fn changed_shards(pinned: &ShardedStore, staged: &ShardedStore) -> Vec<usize> {
            let mut changed = Vec::new();
            for i in 0..pinned.shard_count().min(staged.shard_count()) {
                let (a, b) = (&pinned.shards[i], &staged.shards[i]);
                let (Some(ra), Some(rb)) = (a.named(&pinned.root_name), b.named(&staged.root_name))
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

        /// The fragment count before the group walk: a second merge-walk
        /// over the touched shards, fragment by fragment.
        pub fn changed_fragments(
            pinned: &ShardedStore,
            staged: &ShardedStore,
            shards: &[usize],
        ) -> usize {
            let list = |store: &OemStore| -> Vec<(String, String, Oid)> {
                let Some(root) = store.named(&pinned.root_name) else {
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
                if i >= pinned.shards.len() || i >= staged.shards.len() {
                    continue;
                }
                let (a, b) = (&pinned.shards[i], &staged.shards[i]);
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
    }

    /// One random root fragment: a label, key-ish attributes, links to
    /// other fragments (sharing and cycles), or an atomic fragment.
    type FragmentSpec = (u8, Vec<(u8, u8)>, Vec<(u8, u8)>, bool);

    const LABELS: [&str; 6] = ["Gene", "Function", "Disease", "Source", "Widget", "Symbol"];

    /// Builds a GML-shaped store from `specs`: `fresh` through the
    /// add-child calls, otherwise by allocating each child and linking
    /// it with `add_edge`, as the add-child calls did before they
    /// skipped the duplicate scan. An attempted duplicate link included.
    fn random_gml(specs: &[FragmentSpec], fresh: bool) -> OemStore {
        let mut s = OemStore::new();
        let root = s.new_complex();
        s.set_name("ANNODA-GML", root).unwrap();
        let atomic_child = |s: &mut OemStore, from: Oid, label: &str, value: String| {
            if fresh {
                s.add_atomic_child(from, label, value).unwrap()
            } else {
                let child = s.new_atomic(value);
                assert!(s.add_edge(from, label, child).unwrap());
                child
            }
        };
        let mut frags = Vec::new();
        for (label, attrs, _, atomic) in specs {
            let label = LABELS[*label as usize % 5];
            if *atomic {
                frags.push(atomic_child(&mut s, root, label, "atom".into()));
                continue;
            }
            let frag = if fresh {
                s.add_complex_child(root, label).unwrap()
            } else {
                let child = s.new_complex();
                assert!(s.add_edge(root, label, child).unwrap());
                child
            };
            for (attr, value) in attrs {
                let attr =
                    ["Symbol", "FunctionID", "DiseaseID", "Name", "Note"][*attr as usize % 5];
                atomic_child(&mut s, frag, attr, format!("v{}", value % 7));
            }
            frags.push(frag);
        }
        for ((_, _, links, _), &from) in specs.iter().zip(&frags) {
            for (label, to) in links {
                let to = frags[*to as usize % frags.len()];
                let label = LABELS[*label as usize % LABELS.len()];
                if s.add_edge(from, label, to).is_ok() {
                    assert!(!s.add_edge(from, label, to).unwrap(), "set semantics");
                }
            }
        }
        s
    }

    fn fragment_spec() -> impl proptest::strategy::Strategy<Value = FragmentSpec> {
        use proptest::prelude::any;
        (
            any::<u8>(),
            proptest::collection::vec((any::<u8>(), any::<u8>()), 0..4),
            proptest::collection::vec((any::<u8>(), any::<u8>()), 0..3),
            any::<bool>(),
        )
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Construction, import, `partition(n)` and `assemble` build the
        /// same store, oid for oid and label for label, as the reference
        /// that scans for a duplicate on every link.
        #[test]
        fn fresh_links_build_what_the_duplicate_scan_builds(
            specs in proptest::collection::vec(fragment_spec(), 1..24)
        ) {
            let flat = random_gml(&specs, true);
            proptest::prop_assert_eq!(flat.raw(), random_gml(&specs, false).raw());

            let root = flat.named("ANNODA-GML").unwrap();
            let import = |import: fn(&mut OemStore, &OemStore, Oid) -> Oid| {
                let mut dst = OemStore::new();
                let top = dst.new_complex();
                dst.add_atomic_child(top, "Gene", "already here").unwrap();
                let copied = import(&mut dst, &flat, root);
                dst.add_edge(top, "Imported", copied).unwrap();
                dst.raw()
            };
            proptest::prop_assert_eq!(import(import_fragment), import(reference::import_fragment));

            for n in 1..=4 {
                let fresh = ShardedStore::partition(&flat, "ANNODA-GML", n).unwrap();
                let scanned = reference::partition(&flat, "ANNODA-GML", n);
                for (a, b) in fresh.shards().iter().zip(scanned.shards()) {
                    proptest::prop_assert_eq!(a.raw(), b.raw());
                }
                proptest::prop_assert_eq!(fresh.assemble().raw(), reference::assemble(&scanned).raw());
            }
        }

        /// Walking by structural equality, the group walk touches the
        /// shards and counts the fragments the whole-shard and
        /// fragment-by-fragment references do. Walking by laid-out spans,
        /// it touches exactly the shards that differ byte for byte (a
        /// superset: structural equality cannot see sharing), and its
        /// groups, replaced into a copy of each pinned shard and laid out
        /// again, rebuild the staged shard exactly.
        #[test]
        fn the_group_walk_is_what_a_commit_changed(
            specs in proptest::collection::vec(fragment_spec(), 1..16),
            edits in proptest::collection::vec((proptest::prelude::any::<u8>(), 0u8..3, fragment_spec()), 0..5),
        ) {
            let mut edited = specs.clone();
            for (at, op, spec) in edits {
                let at = at as usize % edited.len();
                match op {
                    0 if edited.len() > 1 => drop(edited.remove(at)),
                    1 => edited[at] = spec,
                    _ => edited.insert(at, spec),
                }
            }
            let (before, after) = (random_gml(&specs, true), random_gml(&edited, true));
            for n in 1..=4 {
                let pinned = ShardedStore::partition(&before, "ANNODA-GML", n).unwrap();
                let staged = ShardedStore::partition(&after, "ANNODA-GML", n).unwrap();
                let structural = pinned.walk(&staged, |a, (ra, _), b, (rb, _)| structural_eq(a, ra, b, rb));
                let touched = touched_shards(&structural);
                proptest::prop_assert_eq!(&touched, &reference::changed_shards(&pinned, &staged));
                proptest::prop_assert_eq!(
                    structural.iter().flatten().map(|g| g.changed).sum::<usize>(),
                    reference::changed_fragments(&pinned, &staged, &touched)
                );

                let groups = pinned.changed_groups(&staged);
                let differ = (0..n).filter(|&i| pinned.shard(i).raw() != staged.shard(i).raw());
                proptest::prop_assert_eq!(touched_shards(&groups), differ.collect::<Vec<_>>());
                for (i, groups) in groups.iter().enumerate() {
                    let mut copy = (**pinned.shard(i)).clone();
                    let root = copy.named("ANNODA-GML").unwrap();
                    for g in groups {
                        let fresh: Vec<Oid> = g.fragments.iter()
                            .map(|&f| import_fragment(&mut copy, staged.shard(i), f))
                            .collect();
                        replace_group(&mut copy, root, &g.label, &g.key, &fresh).unwrap();
                    }
                    let laid_out = ShardedStore::partition(&copy, "ANNODA-GML", 1).unwrap();
                    proptest::prop_assert_eq!(laid_out.shard(0).raw(), staged.shard(i).raw());
                }
            }
        }
    }
}
