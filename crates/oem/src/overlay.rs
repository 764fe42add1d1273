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
//! (same oids, same label interning order, same names). The replay is
//! an op log, so even interleavings of allocation and edge insertion
//! are preserved exactly.
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
//! overlay
//!     .add_edge(&base, answer, "Gene", root)
//!     .unwrap();
//! overlay.set_name_overwrite("answer", answer).unwrap();
//!
//! let view = Snapshot::new(&base, overlay).unwrap();
//! assert_eq!(view.named("answer"), Some(answer));
//! assert!(text::write_rooted(&view, "answer", answer).contains("Symbol"));
//! ```

use std::collections::{BTreeMap, HashMap};
use std::ops::Deref;

use crate::error::OemError;
use crate::label::Label;
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

/// One recorded mutation, replayed verbatim by
/// [`AnswerOverlay::apply_to`].
#[derive(Debug, Clone)]
enum OverlayOp {
    NewComplex,
    NewAtomic(AtomicValue),
    AddEdge { from: Oid, label: Label, to: Oid },
    SetName { name: String, oid: Oid },
}

/// A write-only delta above a frozen base store: fresh objects with
/// oids starting at `base.len()`, fresh labels with ids starting at the
/// base's label count, and name bindings that shadow the base's.
#[derive(Debug, Clone)]
pub struct AnswerOverlay {
    base_len: usize,
    base_labels: usize,
    objects: Vec<Object>,
    new_labels: Vec<String>,
    new_label_ids: HashMap<String, Label>,
    names: BTreeMap<String, Oid>,
    ops: Vec<OverlayOp>,
}

impl AnswerOverlay {
    /// An empty overlay positioned above `base`'s high-water mark.
    pub fn for_base(base: &OemStore) -> Self {
        AnswerOverlay {
            base_len: base.len(),
            base_labels: base.labels().len(),
            objects: Vec::new(),
            new_labels: Vec::new(),
            new_label_ids: HashMap::new(),
            names: BTreeMap::new(),
            ops: Vec::new(),
        }
    }

    /// The base object count this overlay was built over (also the
    /// index of the first overlay oid).
    pub fn base_len(&self) -> usize {
        self.base_len
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

    /// Names bound in the overlay, in name order.
    pub fn names(&self) -> impl Iterator<Item = (&str, Oid)> {
        self.names.iter().map(|(n, &o)| (n.as_str(), o))
    }

    fn total(&self) -> usize {
        self.base_len + self.objects.len()
    }

    /// Allocates a fresh complex object above the base high-water mark.
    pub fn new_complex(&mut self) -> Oid {
        let oid = Oid::from_index(self.total());
        self.objects.push(Object {
            kind: ObjectKind::Complex(Vec::new()),
        });
        self.ops.push(OverlayOp::NewComplex);
        oid
    }

    /// Allocates a fresh atomic object above the base high-water mark.
    pub fn new_atomic(&mut self, value: impl Into<AtomicValue>) -> Oid {
        let value = value.into();
        let oid = Oid::from_index(self.total());
        self.objects.push(Object {
            kind: ObjectKind::Atomic(value.clone()),
        });
        self.ops.push(OverlayOp::NewAtomic(value));
        oid
    }

    /// Interns `label` against the base's table first, extending it with
    /// overlay-local ids only for labels the base has never seen.
    fn intern(&mut self, base: &OemStore, name: &str) -> Label {
        if let Some(label) = base.labels().get(name) {
            return label;
        }
        if let Some(&label) = self.new_label_ids.get(name) {
            return label;
        }
        let label = Label((self.base_labels + self.new_labels.len()) as u32);
        self.new_labels.push(name.to_string());
        self.new_label_ids.insert(name.to_string(), label);
        label
    }

    /// Resolves a label through base-then-overlay tables.
    fn resolve_label<'a>(&'a self, base: &'a OemStore, label: Label) -> &'a str {
        match label.index().checked_sub(self.base_labels) {
            Some(i) => &self.new_labels[i],
            None => base.label_name(label),
        }
    }

    /// Adds the reference `(label, to)` to the overlay object `from`
    /// with the same set semantics as [`OemStore::add_edge`]. `from`
    /// must be an overlay object (base objects are immutable under an
    /// overlay); `to` may live in either the base or the overlay.
    pub fn add_edge(
        &mut self,
        base: &OemStore,
        from: Oid,
        label: &str,
        to: Oid,
    ) -> Result<bool, OemError> {
        if to.index() >= self.total() {
            return Err(OemError::DanglingOid(format!("{to} as edge target")));
        }
        let Some(slot) = from.index().checked_sub(self.base_len) else {
            return Err(OemError::NotComplex(format!(
                "{from} is a base object; an overlay only mutates its own objects"
            )));
        };
        let label = self.intern(base, label);
        let from_obj = self
            .objects
            .get_mut(slot)
            .ok_or_else(|| OemError::DanglingOid(format!("{from} as edge source")))?;
        let inserted = match &mut from_obj.kind {
            ObjectKind::Atomic(_) => Err(OemError::NotComplex(format!(
                "{from} is atomic; cannot hold references"
            ))),
            ObjectKind::Complex(edges) => {
                let edge = Edge { label, target: to };
                if edges.contains(&edge) {
                    Ok(false)
                } else {
                    edges.push(edge);
                    Ok(true)
                }
            }
        }?;
        if inserted {
            self.ops.push(OverlayOp::AddEdge { from, label, to });
        }
        Ok(inserted)
    }

    /// Binds (or re-points) a name in the overlay, shadowing the base's
    /// binding in any [`Snapshot`] built over this overlay.
    pub fn set_name_overwrite(&mut self, name: &str, oid: Oid) -> Result<(), OemError> {
        if oid.index() >= self.total() {
            return Err(OemError::DanglingOid(format!("{oid} as named root")));
        }
        self.names.insert(name.to_string(), oid);
        self.ops.push(OverlayOp::SetName {
            name: name.to_string(),
            oid,
        });
        Ok(())
    }

    /// Replays the overlay onto `store`, which must be the base it was
    /// built over (same object count). Allocation, edge insertion,
    /// label interning, and name binding happen in the exact order the
    /// overlay recorded them, so the result is indistinguishable from
    /// having evaluated against `&mut store` directly.
    pub fn apply_to(&self, store: &mut OemStore) -> Result<(), OemError> {
        if store.len() != self.base_len {
            return Err(OemError::DanglingOid(format!(
                "overlay built over {} objects cannot apply to a store of {}",
                self.base_len,
                store.len()
            )));
        }
        for op in &self.ops {
            match op {
                OverlayOp::NewComplex => {
                    store.new_complex();
                }
                OverlayOp::NewAtomic(value) => {
                    store.new_atomic(value.clone());
                }
                OverlayOp::AddEdge { from, label, to } => {
                    let name = self.resolve_label(store, *label).to_string();
                    store.add_edge(*from, &name, *to)?;
                }
                OverlayOp::SetName { name, oid } => {
                    store.set_name_overwrite(name, *oid)?;
                }
            }
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

    /// The base store.
    pub fn base(&self) -> &OemStore {
        &self.base
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
        self.overlay.resolve_label(&self.base, label)
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

    fn base_store() -> (OemStore, Oid) {
        let mut db = OemStore::new();
        let root = db.new_complex();
        db.add_atomic_child(root, "Symbol", "TP53").unwrap();
        db.add_atomic_child(root, "LocusID", AtomicValue::Int(7157))
            .unwrap();
        db.set_name("DB", root).unwrap();
        (db, root)
    }

    #[test]
    fn overlay_oids_start_at_the_high_water_mark() {
        let (base, root) = base_store();
        let mut ov = AnswerOverlay::for_base(&base);
        let a = ov.new_complex();
        let b = ov.new_atomic("x");
        assert_eq!(a.index(), base.len());
        assert_eq!(b.index(), base.len() + 1);
        assert!(ov.add_edge(&base, a, "Gene", root).unwrap());
        assert!(ov.add_edge(&base, a, "v", b).unwrap());
        // Set semantics, as in the store.
        assert!(!ov.add_edge(&base, a, "Gene", root).unwrap());
        assert_eq!(ov.len(), 2);
    }

    #[test]
    fn base_objects_are_immutable_and_dangling_targets_rejected() {
        let (base, root) = base_store();
        let mut ov = AnswerOverlay::for_base(&base);
        let a = ov.new_complex();
        assert!(matches!(
            ov.add_edge(&base, root, "x", a),
            Err(OemError::NotComplex(_))
        ));
        assert!(matches!(
            ov.add_edge(&base, a, "x", Oid::from_index(99)),
            Err(OemError::DanglingOid(_))
        ));
        let atom = ov.new_atomic(1i64);
        assert!(matches!(
            ov.add_edge(&base, atom, "x", a),
            Err(OemError::NotComplex(_))
        ));
    }

    #[test]
    fn snapshot_resolves_both_sides_and_shadows_names() {
        let (base, root) = base_store();
        let mut ov = AnswerOverlay::for_base(&base);
        let answer = ov.new_complex();
        ov.add_edge(&base, answer, "Gene", root).unwrap();
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
        ov.add_edge(&base, copy, "Symbol", base.child(root, "Symbol").unwrap())
            .unwrap();
        ov.add_edge(&base, answer, "FreshLabel", copy).unwrap();
        let atom = ov.new_atomic(AtomicValue::Int(42));
        ov.add_edge(&base, answer, "n", atom).unwrap();
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
