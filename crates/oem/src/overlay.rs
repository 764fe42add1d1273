//! Answer overlays: query materialisation without mutating the base
//! store.
//!
//! Lorel's `select` materialises a fresh `answer` object graph (the
//! paper's `&442`). Historically that forced `&mut OemStore` access —
//! and the serving layer deep-cloned the whole ANNODA-GML store per
//! request to get one. An [`AnswerOverlay`] removes the mutation: new
//! objects are allocated *above the base store's high-water mark* and
//! live in a small side arena, while their edges may freely reference
//! base objects. A [`Snapshot`] then resolves oids through the
//! `base ⊕ overlay` union for rendering and navigation, via the
//! [`OemRead`] trait both [`OemStore`] and [`Snapshot`] implement.
//!
//! Because overlay oids start exactly at `base.len()` — the same
//! numbers a `&mut` evaluation over the base store would have issued —
//! [`AnswerOverlay::apply_to`] can replay the overlay onto the base
//! store and reproduce the classic in-place evaluation *byte for byte*
//! (same oids, same label interning order, same names). The replay
//! reads the arena itself: it interns the overlay's new labels in the
//! order the overlay first used them, allocates the objects in oid
//! order, links each object's edges in list order, and binds the names.
//! Label ids and every edge list come out as an interleaved in-place
//! evaluation would have left them, and each step is linear.
//!
//! Edges are added with [`AnswerOverlay::link`], which does not scan
//! for a duplicate: an answer only adds edges it knows are new (to an
//! object it just allocated, or a copy of a base object's edge list,
//! which is already a set), so building an answer costs time linear in
//! its size. A caller that may repeat an edge to a base object keeps
//! its own set of the edges it added.
//!
//! ```
//! use annoda_oem::{AnswerOverlay, AtomicValue, OemRead, OemStore, Snapshot, text};
//!
//! let mut base = OemStore::new();
//! let root = base.new_complex();
//! base.add_atomic_child(root, "Symbol", "TP53").unwrap();
//! base.set_name("DB", root).unwrap();
//!
//! let mut overlay = AnswerOverlay::for_base(&base);
//! let answer = overlay.new_complex();
//! assert_eq!(answer.index(), base.len(), "above the high-water mark");
//! overlay.link(&base, answer, "Gene", root).unwrap();
//! overlay.set_name_overwrite("answer", answer).unwrap();
//!
//! let view = Snapshot::new(&base, overlay).unwrap();
//! assert_eq!(view.named("answer"), Some(answer));
//! assert!(text::write_rooted(&view, "answer", answer).contains("Symbol"));
//! ```

use std::collections::BTreeMap;
use std::ops::Deref;

use crate::error::OemError;
use crate::label::{Label, LabelInterner};
use crate::object::{Edge, Object, ObjectKind};
use crate::oid::Oid;
use crate::store::OemStore;
use crate::value::{AtomicValue, OemType};

/// Read-only access to an OEM object graph — implemented by
/// [`OemStore`] and by [`Snapshot`], so rendering ([`crate::text`]) and
/// result inspection work identically over a plain store and over a
/// `base ⊕ overlay` view.
pub trait OemRead {
    /// The object behind `oid`, if live.
    fn get(&self, oid: Oid) -> Option<&Object>;

    /// Resolves a label id to its string.
    fn label_name(&self, label: Label) -> &str;

    /// The named root, if registered.
    fn named(&self, name: &str) -> Option<Oid>;

    /// Number of live objects.
    fn object_count(&self) -> usize;

    /// Outgoing references of `oid` (empty for atomic or dangling).
    fn edges_of(&self, oid: Oid) -> &[Edge] {
        self.get(oid).map(|o| o.edges()).unwrap_or(&[])
    }

    /// The atomic value of `oid`, if it is a live atomic object.
    fn value_of(&self, oid: Oid) -> Option<&AtomicValue> {
        self.get(oid).and_then(|o| o.value())
    }

    /// The object's type; `None` for a dangling oid.
    fn type_of(&self, oid: Oid) -> Option<OemType> {
        self.get(oid).map(|o| o.oem_type())
    }
}

impl OemRead for OemStore {
    fn get(&self, oid: Oid) -> Option<&Object> {
        OemStore::get(self, oid)
    }

    fn label_name(&self, label: Label) -> &str {
        OemStore::label_name(self, label)
    }

    fn named(&self, name: &str) -> Option<Oid> {
        OemStore::named(self, name)
    }

    fn object_count(&self) -> usize {
        self.len()
    }
}

/// A write-only delta above a frozen base store: fresh objects with
/// oids starting at `base.len()`, fresh labels with ids starting at the
/// base's label count, and name bindings that shadow the base's.
#[derive(Debug, Clone)]
pub struct AnswerOverlay {
    base_len: usize,
    base_labels: usize,
    objects: Vec<Object>,
    /// Labels the base lacks, numbered from 0; their ids in the
    /// `base ⊕ overlay` view start at `base_labels`.
    new_labels: LabelInterner,
    names: BTreeMap<String, Oid>,
}

impl AnswerOverlay {
    /// An empty overlay positioned above `base`'s high-water mark.
    pub fn for_base(base: &OemStore) -> Self {
        AnswerOverlay {
            base_len: base.len(),
            base_labels: base.labels().len(),
            objects: Vec::new(),
            new_labels: LabelInterner::new(),
            names: BTreeMap::new(),
        }
    }

    /// Number of objects allocated in the overlay.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// True when no object has been allocated.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// The overlay's own object behind `oid` (`None` for base-range or
    /// dangling oids — resolve those through a [`Snapshot`]).
    pub fn get(&self, oid: Oid) -> Option<&Object> {
        oid.index()
            .checked_sub(self.base_len)
            .and_then(|i| self.objects.get(i))
    }

    /// A name bound in the overlay (shadowing the base).
    pub fn named(&self, name: &str) -> Option<Oid> {
        self.names.get(name).copied()
    }

    fn total(&self) -> usize {
        self.base_len + self.objects.len()
    }

    fn push(&mut self, kind: ObjectKind) -> Oid {
        let oid = Oid::from_index(self.total());
        self.objects.push(Object { kind });
        oid
    }

    /// Allocates a fresh complex object above the base high-water mark.
    pub fn new_complex(&mut self) -> Oid {
        self.push(ObjectKind::Complex(Vec::new()))
    }

    /// Allocates a fresh atomic object above the base high-water mark.
    pub fn new_atomic(&mut self, value: impl Into<AtomicValue>) -> Oid {
        self.push(ObjectKind::Atomic(value.into()))
    }

    /// Allocates a fresh complex copy of the base object `of`: its edges,
    /// in order, pointing at the original targets (the paper's `&442`).
    /// The copy's edge list is a set because the original's is. `of`
    /// must be a complex base object; anything else copies no edges.
    pub fn new_copy(&mut self, base: &OemStore, of: Oid) -> Oid {
        self.push(ObjectKind::Complex(base.edges_of(of).to_vec()))
    }

    /// Resolves a label through base-then-overlay tables.
    pub fn label_name<'a>(&'a self, base: &'a OemStore, label: Label) -> &'a str {
        match label.index().checked_sub(self.base_labels) {
            Some(i) => self.new_labels.resolve(Label(i as u32)),
            None => base.label_name(label),
        }
    }

    /// Appends the reference `(label, to)` to the overlay object `from`
    /// without looking for a duplicate, so building an answer stays
    /// linear: the caller knows the edge is new (its target was just
    /// allocated, or the caller keeps its own set of what it linked).
    /// `from` must be an overlay object (base objects are immutable
    /// under an overlay); `to` may live in either the base or the
    /// overlay.
    pub fn link(
        &mut self,
        base: &OemStore,
        from: Oid,
        label: &str,
        to: Oid,
    ) -> Result<(), OemError> {
        if to.index() >= self.total() {
            return Err(OemError::DanglingOid(format!("{to} as edge target")));
        }
        let Some(slot) = from.index().checked_sub(self.base_len) else {
            return Err(OemError::NotComplex(format!(
                "{from} is a base object; an overlay only mutates its own objects"
            )));
        };
        let edges = match self.objects.get_mut(slot).map(|o| &mut o.kind) {
            None => return Err(OemError::DanglingOid(format!("{from} as edge source"))),
            Some(ObjectKind::Atomic(_)) => {
                return Err(OemError::NotComplex(format!(
                    "{from} is atomic; cannot hold references"
                )))
            }
            Some(ObjectKind::Complex(edges)) => edges,
        };
        // The base's table first; overlay-local ids only for labels the
        // base has never seen.
        let label = base.labels().get(label).unwrap_or_else(|| {
            Label((self.base_labels + self.new_labels.intern(label).index()) as u32)
        });
        edges.push(Edge { label, target: to });
        Ok(())
    }

    /// Binds (or re-points) a name in the overlay, shadowing the base's
    /// binding in any [`Snapshot`] built over this overlay.
    pub fn set_name_overwrite(&mut self, name: &str, oid: Oid) -> Result<(), OemError> {
        if oid.index() >= self.total() {
            return Err(OemError::DanglingOid(format!("{oid} as named root")));
        }
        self.names.insert(name.to_string(), oid);
        Ok(())
    }

    /// Replays the overlay onto `store`, which must be the base it was
    /// built over (same object count): interns the new labels in overlay
    /// order, allocates the objects in oid order, links each object's
    /// edges in list order, then binds the names. The result is
    /// indistinguishable from having evaluated against `&mut store`
    /// directly, and the replay is linear in the overlay's size.
    pub fn apply_to(&self, store: &mut OemStore) -> Result<(), OemError> {
        if store.len() != self.base_len {
            return Err(OemError::DanglingOid(format!(
                "overlay built over {} objects cannot apply to a store of {}",
                self.base_len,
                store.len()
            )));
        }
        for (_, name) in self.new_labels.iter() {
            store.intern_label(name);
        }
        for object in &self.objects {
            match &object.kind {
                ObjectKind::Atomic(value) => store.new_atomic(value.clone()),
                ObjectKind::Complex(_) => store.new_complex(),
            };
        }
        for (i, object) in self.objects.iter().enumerate() {
            let from = Oid::from_index(self.base_len + i);
            for edge in object.edges() {
                let name = self.label_name(store, edge.label).to_string();
                store.link(from, &name, edge.target, false)?;
            }
        }
        for (name, &oid) in &self.names {
            store.set_name_overwrite(name, oid)?;
        }
        Ok(())
    }
}

/// A read-only `base ⊕ overlay` union: base oids resolve in the base
/// store, overlay oids in the overlay arena, and overlay names shadow
/// base names. Generic over the base handle so it works borrowed
/// (`Snapshot<&OemStore>`) and shared (`Snapshot<Arc<OemStore>>`, the
/// serving layer's zero-clone answer view).
#[derive(Debug, Clone)]
pub struct Snapshot<B = std::sync::Arc<OemStore>> {
    base: B,
    overlay: AnswerOverlay,
}

impl<B: Deref<Target = OemStore>> Snapshot<B> {
    /// Pairs a base with an overlay built over it. Fails when the
    /// overlay's recorded high-water mark does not match `base`.
    pub fn new(base: B, overlay: AnswerOverlay) -> Result<Self, OemError> {
        if base.len() != overlay.base_len {
            return Err(OemError::DanglingOid(format!(
                "overlay built over {} objects cannot view a base of {}",
                overlay.base_len,
                base.len()
            )));
        }
        Ok(Snapshot { base, overlay })
    }

    /// The overlay delta.
    pub fn overlay(&self) -> &AnswerOverlay {
        &self.overlay
    }
}

impl<B: Deref<Target = OemStore>> OemRead for Snapshot<B> {
    fn get(&self, oid: Oid) -> Option<&Object> {
        if oid.index() < self.overlay.base_len {
            self.base.get(oid)
        } else {
            self.overlay.get(oid)
        }
    }

    fn label_name(&self, label: Label) -> &str {
        self.overlay.label_name(&self.base, label)
    }

    fn named(&self, name: &str) -> Option<Oid> {
        self.overlay.named(name).or_else(|| self.base.named(name))
    }

    fn object_count(&self) -> usize {
        self.overlay.total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::text;
    use proptest::prelude::*;

    fn base_store() -> (OemStore, Oid) {
        let mut db = OemStore::new();
        let root = db.new_complex();
        db.add_atomic_child(root, "Symbol", "TP53").unwrap();
        db.add_atomic_child(root, "LocusID", AtomicValue::Int(7157))
            .unwrap();
        db.set_name("DB", root).unwrap();
        (db, root)
    }

    /// The overlay as it was before edges were linked without a scan:
    /// set semantics by scanning `from`'s edges, and every mutation
    /// recorded in an op log that `apply_to` replays through
    /// [`OemStore::add_edge`]. The reference the arena replay and the
    /// scan-free [`AnswerOverlay::link`] are checked against.
    mod reference {
        use super::*;

        #[derive(Debug, Clone)]
        enum LoggedOp {
            NewComplex,
            NewAtomic(AtomicValue),
            AddEdge { from: Oid, label: String, to: Oid },
            SetName { name: String, oid: Oid },
        }

        #[derive(Debug, Clone)]
        pub(super) struct LoggedOverlay {
            pub(super) overlay: AnswerOverlay,
            ops: Vec<LoggedOp>,
        }

        impl LoggedOverlay {
            pub(super) fn for_base(base: &OemStore) -> Self {
                LoggedOverlay {
                    overlay: AnswerOverlay::for_base(base),
                    ops: Vec::new(),
                }
            }

            pub(super) fn new_complex(&mut self) -> Oid {
                self.ops.push(LoggedOp::NewComplex);
                self.overlay.new_complex()
            }

            pub(super) fn new_atomic(&mut self, value: AtomicValue) -> Oid {
                self.ops.push(LoggedOp::NewAtomic(value.clone()));
                self.overlay.new_atomic(value)
            }

            /// The former `AnswerOverlay::add_edge`: set semantics by a
            /// scan of `from`'s edges.
            pub(super) fn add_edge(
                &mut self,
                base: &OemStore,
                from: Oid,
                label: &str,
                to: Oid,
            ) -> Result<bool, OemError> {
                let ov = &self.overlay;
                let present = ov.get(from).is_some_and(|o| {
                    o.edges()
                        .iter()
                        .any(|e| e.target == to && ov.label_name(base, e.label) == label)
                });
                if present {
                    return Ok(false);
                }
                self.overlay.link(base, from, label, to)?;
                self.ops.push(LoggedOp::AddEdge {
                    from,
                    label: label.to_string(),
                    to,
                });
                Ok(true)
            }

            pub(super) fn set_name_overwrite(&mut self, name: &str, oid: Oid) {
                self.overlay.set_name_overwrite(name, oid).unwrap();
                self.ops.push(LoggedOp::SetName {
                    name: name.to_string(),
                    oid,
                });
            }

            /// The former op-log `apply_to`.
            pub(super) fn apply_to(&self, store: &mut OemStore) -> Result<(), OemError> {
                for op in &self.ops {
                    match op {
                        LoggedOp::NewComplex => {
                            store.new_complex();
                        }
                        LoggedOp::NewAtomic(value) => {
                            store.new_atomic(value.clone());
                        }
                        LoggedOp::AddEdge { from, label, to } => {
                            store.add_edge(*from, label, *to)?;
                        }
                        LoggedOp::SetName { name, oid } => {
                            store.set_name_overwrite(name, *oid)?;
                        }
                    }
                }
                Ok(())
            }
        }
    }

    /// Everything a store holds: objects, the label table in id order,
    /// and the names — what `encode_store` and a rendering can see.
    type Image = (Vec<Object>, Vec<String>, Vec<(String, Oid)>);

    fn image(store: &OemStore) -> Image {
        (
            store
                .oids()
                .map(|o| store.get(o).unwrap().clone())
                .collect(),
            store.labels().iter().map(|(_, n)| n.to_string()).collect(),
            store.names().map(|(n, o)| (n.to_string(), o)).collect(),
        )
    }

    /// A base with a few complex objects (some sharing labels, one with
    /// a label used twice) and atoms, plus a label the overlay may reuse.
    fn wide_base() -> OemStore {
        let mut db = OemStore::new();
        let root = db.new_complex();
        for i in 0..4i64 {
            let g = db.add_complex_child(root, "Gene").unwrap();
            db.add_atomic_child(g, "Symbol", format!("G{i}")).unwrap();
            db.add_atomic_child(g, "Alias", format!("a{}", i % 2))
                .unwrap();
            db.add_atomic_child(g, "Alias", format!("b{i}")).unwrap();
            db.add_edge(g, "Next", root).unwrap();
        }
        db.set_name("DB", root).unwrap();
        db
    }

    const LABELS: [&str; 5] = ["Gene", "Symbol", "fresh", "other", "Alias"];

    /// Drives the overlay and the reference through the same script:
    /// each step allocates, copies a base object, links to a fresh or a
    /// base target, or binds a name. A base-target edge the script may
    /// repeat goes through a caller-side set on the overlay, as answers
    /// do, and through the scan on the reference. As in an answer, a
    /// copy gains no edges after it is made.
    fn run_script(
        base: &OemStore,
        script: &[(u8, u8, u8)],
    ) -> (AnswerOverlay, reference::LoggedOverlay) {
        let mut ov = AnswerOverlay::for_base(base);
        let mut logged = reference::LoggedOverlay::for_base(base);
        let mut linked = std::collections::HashSet::new();
        let root = ov.new_complex();
        assert_eq!(logged.new_complex(), root);
        let complexes: Vec<Oid> = base
            .oids()
            .filter(|&o| base.get(o).is_some_and(|x| x.is_complex()))
            .collect();
        let mut owned = vec![root];
        for &(kind, a, b) in script {
            let from = owned[a as usize % owned.len()];
            let label = LABELS[b as usize % LABELS.len()];
            match kind % 5 {
                0 => {
                    let c = ov.new_complex();
                    assert_eq!(logged.new_complex(), c);
                    owned.push(c);
                }
                1 => {
                    let value = AtomicValue::Int(i64::from(a));
                    let atom = ov.new_atomic(value.clone());
                    assert_eq!(logged.new_atomic(value), atom);
                    ov.link(base, from, label, atom).unwrap();
                    assert!(logged.add_edge(base, from, label, atom).unwrap());
                }
                2 => {
                    let of = complexes[b as usize % complexes.len()];
                    let copy = ov.new_copy(base, of);
                    assert_eq!(logged.new_complex(), copy);
                    for e in base.edges_of(of) {
                        let name = base.label_name(e.label);
                        assert!(logged.add_edge(base, copy, name, e.target).unwrap());
                    }
                    ov.link(base, from, label, copy).unwrap();
                    assert!(logged.add_edge(base, from, label, copy).unwrap());
                }
                3 => {
                    let to = Oid::from_index(a as usize % base.len());
                    if linked.insert((from, label, to)) {
                        ov.link(base, from, label, to).unwrap();
                    }
                    logged.add_edge(base, from, label, to).unwrap();
                }
                _ => {
                    let name = ["answer", "Saved", "DB"][b as usize % 3];
                    ov.set_name_overwrite(name, from).unwrap();
                    logged.set_name_overwrite(name, from);
                }
            }
        }
        (ov, logged)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The scan-free overlay holds the reference's objects, renders
        /// the same, and its arena replay leaves the store the op log
        /// leaves: same objects, label ids and names.
        #[test]
        fn link_and_arena_replay_match_the_scanning_op_log(
            script in proptest::collection::vec((0u8..5, any::<u8>(), any::<u8>()), 0..40)
        ) {
            let base = wide_base();
            let (ov, logged) = run_script(&base, &script);
            let answer = base.len();
            for i in 0..ov.len() {
                let oid = Oid::from_index(answer + i);
                prop_assert_eq!(ov.get(oid), logged.overlay.get(oid));
            }
            let root = Oid::from_index(answer);
            let view = Snapshot::new(&base, ov.clone()).unwrap();
            let reference_view = Snapshot::new(&base, logged.overlay.clone()).unwrap();
            prop_assert_eq!(
                text::write_rooted(&view, "answer", root),
                text::write_rooted(&reference_view, "answer", root)
            );

            let mut replayed = base.clone();
            ov.apply_to(&mut replayed).unwrap();
            let mut reference = base.clone();
            logged.apply_to(&mut reference).unwrap();
            prop_assert_eq!(image(&replayed), image(&reference));
        }
    }

    #[test]
    fn overlay_oids_start_at_the_high_water_mark() {
        let (base, root) = base_store();
        let mut ov = AnswerOverlay::for_base(&base);
        let a = ov.new_complex();
        let b = ov.new_atomic("x");
        assert_eq!(a.index(), base.len());
        assert_eq!(b.index(), base.len() + 1);
        ov.link(&base, a, "Gene", root).unwrap();
        ov.link(&base, a, "v", b).unwrap();
        assert_eq!(ov.len(), 2);
        assert_eq!(ov.get(a).unwrap().edges().len(), 2);
    }

    #[test]
    fn new_copy_shares_the_originals_edges() {
        let (base, root) = base_store();
        let mut ov = AnswerOverlay::for_base(&base);
        let copy = ov.new_copy(&base, root);
        assert_eq!(ov.get(copy).unwrap().edges(), base.edges_of(root));
        assert_ne!(copy, root);
    }

    #[test]
    fn base_objects_are_immutable_and_dangling_targets_rejected() {
        let (base, root) = base_store();
        let mut ov = AnswerOverlay::for_base(&base);
        let a = ov.new_complex();
        assert!(matches!(
            ov.link(&base, root, "x", a),
            Err(OemError::NotComplex(_))
        ));
        assert!(matches!(
            ov.link(&base, a, "x", Oid::from_index(99)),
            Err(OemError::DanglingOid(_))
        ));
        let atom = ov.new_atomic(1i64);
        assert!(matches!(
            ov.link(&base, atom, "new-label", a),
            Err(OemError::NotComplex(_))
        ));
        assert!(ov.new_labels.is_empty(), "a refused link interns nothing");
    }

    #[test]
    fn snapshot_resolves_both_sides_and_shadows_names() {
        let (base, root) = base_store();
        let mut ov = AnswerOverlay::for_base(&base);
        let answer = ov.new_complex();
        ov.link(&base, answer, "Gene", root).unwrap();
        ov.set_name_overwrite("answer", answer).unwrap();
        ov.set_name_overwrite("DB", answer).unwrap();

        let view = Snapshot::new(&base, ov).unwrap();
        assert_eq!(view.object_count(), base.len() + 1);
        assert_eq!(view.named("answer"), Some(answer));
        assert_eq!(view.named("DB"), Some(answer), "overlay shadows base");
        assert_eq!(
            view.value_of(view.edges_of(root)[0].target),
            Some(&AtomicValue::Str("TP53".into()))
        );
        assert_eq!(view.edges_of(answer).len(), 1);
        assert_eq!(view.type_of(answer), Some(OemType::Complex));
    }

    #[test]
    fn apply_to_replays_byte_identically() {
        let (base, root) = base_store();

        // Overlay path.
        let mut ov = AnswerOverlay::for_base(&base);
        let answer = ov.new_complex();
        let copy = ov.new_complex();
        ov.link(&base, copy, "Symbol", base.child(root, "Symbol").unwrap())
            .unwrap();
        ov.link(&base, answer, "FreshLabel", copy).unwrap();
        let atom = ov.new_atomic(AtomicValue::Int(42));
        ov.link(&base, answer, "n", atom).unwrap();
        ov.set_name_overwrite("answer", answer).unwrap();
        let view = Snapshot::new(&base, ov.clone()).unwrap();
        let rendered_view = text::write_rooted(&view, "answer", answer);

        // In-place path: replay onto a clone of the base.
        let mut replayed = base.clone();
        ov.apply_to(&mut replayed).unwrap();
        assert_eq!(replayed.len(), base.len() + 3);
        assert_eq!(replayed.named("answer"), Some(answer));
        let rendered_store = text::write_rooted(&replayed, "answer", answer);
        assert_eq!(rendered_view, rendered_store, "byte-identical rendering");
    }

    #[test]
    fn apply_to_rejects_a_moved_base() {
        let (mut base, _root) = base_store();
        let mut ov = AnswerOverlay::for_base(&base);
        ov.new_complex();
        base.new_complex(); // base grew underneath the overlay
        assert!(matches!(
            ov.apply_to(&mut base),
            Err(OemError::DanglingOid(_))
        ));
    }

    #[test]
    fn snapshot_rejects_a_mismatched_base() {
        let (base, _root) = base_store();
        let (other, _) = {
            let mut db = OemStore::new();
            let r = db.new_complex();
            db.add_atomic_child(r, "x", 1i64).unwrap();
            (db, r)
        };
        let ov = AnswerOverlay::for_base(&base);
        assert!(Snapshot::new(&other, ov).is_err());
    }
}
