//! The arena-backed OEM graph store.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::cache::QueryCache;
use crate::error::OemError;
use crate::index::ValueIndex;
use crate::label::{Label, LabelInterner};
use crate::object::{Edge, Object, ObjectKind};
use crate::oid::Oid;
use crate::path::PathExpr;
use crate::stats::AttributeStats;
use crate::value::{AtomicValue, OemType};

/// An OEM database: an arena of objects, an interned label table, and a
/// set of *named roots* (e.g. the `LocusLink` entry object of an OML, or
/// the `ANNODA-GML` object of the global model).
///
/// ```
/// use annoda_oem::{OemStore, AtomicValue};
///
/// let mut db = OemStore::new();
/// let locus = db.new_complex();
/// let id = db.new_atomic(AtomicValue::Int(7157));
/// db.add_edge(locus, "LocusID", id).unwrap();
/// db.set_name("LocusLink", locus).unwrap();
///
/// assert_eq!(db.named("LocusLink"), Some(locus));
/// assert_eq!(db.children(locus, "LocusID").count(), 1);
/// ```
#[derive(Default, Debug)]
pub struct OemStore {
    objects: Vec<Object>,
    labels: LabelInterner,
    names: BTreeMap<String, Oid>,
    /// Memoised value indexes / stats / cardinalities over this store's
    /// content; cleared by every content mutation, never cloned.
    cache: QueryCache,
}

/// Process-wide count of full [`OemStore`] clones, used by benches and
/// tests to assert the serving warm path is zero-clone.
static STORE_CLONES: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Number of full [`OemStore`] clones performed by this process so far.
pub fn store_clone_count() -> u64 {
    STORE_CLONES.load(std::sync::atomic::Ordering::Relaxed)
}

impl Clone for OemStore {
    fn clone(&self) -> Self {
        STORE_CLONES.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        OemStore {
            objects: self.objects.clone(),
            labels: self.labels.clone(),
            names: self.names.clone(),
            cache: QueryCache::default(),
        }
    }
}

impl OemStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// True when the store holds no objects.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// The label interner (read access).
    pub fn labels(&self) -> &LabelInterner {
        &self.labels
    }

    /// Interns a label in this store's table.
    pub fn intern_label(&mut self, name: &str) -> Label {
        self.labels.intern(name)
    }

    /// Resolves a label id to its string.
    pub fn label_name(&self, label: Label) -> &str {
        self.labels.resolve(label)
    }

    // ----- construction -------------------------------------------------

    /// Allocates a fresh atomic object.
    pub fn new_atomic(&mut self, value: impl Into<AtomicValue>) -> Oid {
        self.push(Object {
            kind: ObjectKind::Atomic(value.into()),
        })
    }

    /// Allocates a fresh complex object with no references yet.
    pub fn new_complex(&mut self) -> Oid {
        self.push(Object {
            kind: ObjectKind::Complex(Vec::new()),
        })
    }

    fn push(&mut self, object: Object) -> Oid {
        let oid = Oid(self.objects.len() as u32);
        self.objects.push(object);
        self.cache.clear();
        oid
    }

    /// Adds the reference `(label, to)` to the complex object `from`.
    /// Set semantics: an identical `(label, to)` pair already present is
    /// not duplicated. Returns whether the edge was newly inserted.
    pub fn add_edge(&mut self, from: Oid, label: &str, to: Oid) -> Result<bool, OemError> {
        if to.index() >= self.objects.len() {
            return Err(OemError::DanglingOid(format!("{to} as edge target")));
        }
        let label = self.labels.intern(label);
        let from_obj = self
            .objects
            .get_mut(from.index())
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
        };
        if inserted == Ok(true) {
            self.cache.clear();
        }
        inserted
    }

    /// Convenience: allocates an atomic child and links it under `label`.
    pub fn add_atomic_child(
        &mut self,
        from: Oid,
        label: &str,
        value: impl Into<AtomicValue>,
    ) -> Result<Oid, OemError> {
        let child = self.new_atomic(value);
        self.add_edge(from, label, child)?;
        Ok(child)
    }

    /// Convenience: allocates a complex child and links it under `label`.
    pub fn add_complex_child(&mut self, from: Oid, label: &str) -> Result<Oid, OemError> {
        let child = self.new_complex();
        self.add_edge(from, label, child)?;
        Ok(child)
    }

    /// Registers `oid` under a root name. Root names give queries their
    /// entry points (`from ANNODA-GML …`).
    pub fn set_name(&mut self, name: &str, oid: Oid) -> Result<(), OemError> {
        if oid.index() >= self.objects.len() {
            return Err(OemError::DanglingOid(format!("{oid} as named root")));
        }
        if self.names.contains_key(name) {
            return Err(OemError::DuplicateName(name.to_string()));
        }
        self.names.insert(name.to_string(), oid);
        Ok(())
    }

    /// Re-points or inserts a root name without the duplicate check; used
    /// when query answers overwrite a previous `answer` root.
    pub fn set_name_overwrite(&mut self, name: &str, oid: Oid) -> Result<(), OemError> {
        if oid.index() >= self.objects.len() {
            return Err(OemError::DanglingOid(format!("{oid} as named root")));
        }
        self.names.insert(name.to_string(), oid);
        Ok(())
    }

    /// Unregisters a root name, returning the oid it pointed at. The
    /// objects stay live (compaction reclaims them); removing an unknown
    /// name is a no-op.
    pub fn remove_name(&mut self, name: &str) -> Option<Oid> {
        self.names.remove(name)
    }

    // ----- access -------------------------------------------------------

    /// The object behind `oid`, if live.
    pub fn get(&self, oid: Oid) -> Option<&Object> {
        self.objects.get(oid.index())
    }

    /// The named root, if registered.
    pub fn named(&self, name: &str) -> Option<Oid> {
        self.names.get(name).copied()
    }

    /// All named roots in name order.
    pub fn names(&self) -> impl Iterator<Item = (&str, Oid)> {
        self.names.iter().map(|(n, &o)| (n.as_str(), o))
    }

    /// The object's type; `None` for a dangling oid.
    pub fn type_of(&self, oid: Oid) -> Option<OemType> {
        self.get(oid).map(|o| o.oem_type())
    }

    /// The atomic value of `oid`, if it is a live atomic object.
    pub fn value_of(&self, oid: Oid) -> Option<&AtomicValue> {
        self.get(oid).and_then(|o| o.value())
    }

    /// Outgoing references of `oid` (empty slice for atomic or dangling).
    pub fn edges_of(&self, oid: Oid) -> &[Edge] {
        self.get(oid).map(|o| o.edges()).unwrap_or(&[])
    }

    /// Recovers the paper's `(label, oid, type)` triple for an edge.
    pub fn edge_type(&self, edge: Edge) -> Option<OemType> {
        self.type_of(edge.target)
    }

    /// Children of `oid` reachable over an edge labelled `label`.
    pub fn children<'a>(&'a self, oid: Oid, label: &str) -> impl Iterator<Item = Oid> + 'a {
        let wanted = self.labels.get(label);
        self.edges_of(oid)
            .iter()
            .filter(move |e| Some(e.label) == wanted)
            .map(|e| e.target)
    }

    /// The first child under `label`, convenient for functional attributes
    /// such as `LocusID`.
    pub fn child(&self, oid: Oid, label: &str) -> Option<Oid> {
        self.children(oid, label).next()
    }

    /// The atomic value of the first child under `label`.
    pub fn child_value(&self, oid: Oid, label: &str) -> Option<&AtomicValue> {
        self.child(oid, label).and_then(|c| self.value_of(c))
    }

    /// Iterates all live oids in allocation order.
    pub fn oids(&self) -> impl Iterator<Item = Oid> {
        (0..self.objects.len() as u32).map(Oid)
    }

    /// The distinct labels leaving `oid`, in first-occurrence order.
    pub fn out_labels(&self, oid: Oid) -> Vec<Label> {
        let mut seen = Vec::new();
        for e in self.edges_of(oid) {
            if !seen.contains(&e.label) {
                seen.push(e.label);
            }
        }
        seen
    }

    // ----- memoised derived structures ------------------------------------

    /// A [`ValueIndex`] of `attr` over the objects `path` reaches from
    /// `root`, built lazily and memoised on this store until the next
    /// content mutation. Bucket order follows `path.eval_many`'s
    /// enumeration order, so index-seeded candidate lists preserve the
    /// order a scan of the same path would produce.
    pub fn cached_value_index(&self, root: Oid, path: &PathExpr, attr: &str) -> Arc<ValueIndex> {
        self.cache
            .index((root, path.to_string(), attr.to_string()), || {
                let parents = path.eval_many(self, &[root]);
                ValueIndex::build(self, &parents, attr)
            })
    }

    /// [`AttributeStats`] of `attr` over the objects `path` reaches from
    /// `root` (the histogram the mediator estimates pushdown selectivity
    /// from), memoised like [`Self::cached_value_index`].
    pub fn cached_attribute_stats(
        &self,
        root: Oid,
        path: &PathExpr,
        attr: &str,
    ) -> Arc<AttributeStats> {
        self.cache
            .stats((root, path.to_string(), attr.to_string()), || {
                let parents = path.eval_many(self, &[root]);
                AttributeStats::collect(self, &parents, attr)
            })
    }

    /// Number of objects `path` reaches from `root` (the label
    /// cardinality the Lorel planner orders `from` clauses by and the
    /// mediator sizes subqueries by), memoised until the next content
    /// mutation.
    pub fn cached_cardinality(&self, root: Oid, path: &PathExpr) -> usize {
        self.cache.cardinality((root, path.to_string()), || {
            path.eval_many(self, &[root]).len()
        })
    }

    /// Number of memoised value indexes (introspection for tests and
    /// `bench_report`).
    pub fn cached_index_count(&self) -> usize {
        self.cache.index_count()
    }

    // ----- mutation beyond growth ----------------------------------------

    /// Replaces the value of an atomic object (used by warehouse refresh).
    pub fn set_value(&mut self, oid: Oid, value: impl Into<AtomicValue>) -> Result<(), OemError> {
        let obj = self
            .objects
            .get_mut(oid.index())
            .ok_or_else(|| OemError::DanglingOid(oid.to_string()))?;
        let replaced = match &mut obj.kind {
            ObjectKind::Atomic(v) => {
                *v = value.into();
                Ok(())
            }
            ObjectKind::Complex(_) => Err(OemError::NotComplex(format!(
                "{oid} is complex; cannot set an atomic value"
            ))),
        };
        if replaced.is_ok() {
            self.cache.clear();
        }
        replaced
    }

    /// Removes the reference `(label, to)` from `from`. Returns whether an
    /// edge was removed.
    pub fn remove_edge(&mut self, from: Oid, label: &str, to: Oid) -> Result<bool, OemError> {
        let Some(label) = self.labels.get(label) else {
            return Ok(false);
        };
        let from_obj = self
            .objects
            .get_mut(from.index())
            .ok_or_else(|| OemError::DanglingOid(from.to_string()))?;
        let removed = match &mut from_obj.kind {
            ObjectKind::Atomic(_) => Err(OemError::NotComplex(from.to_string())),
            ObjectKind::Complex(edges) => {
                let before = edges.len();
                edges.retain(|e| !(e.label == label && e.target == to));
                Ok(edges.len() != before)
            }
        };
        if removed == Ok(true) {
            self.cache.clear();
        }
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::AtomicType;

    fn sample() -> (OemStore, Oid) {
        let mut db = OemStore::new();
        let root = db.new_complex();
        db.add_atomic_child(root, "LocusID", AtomicValue::Int(7157))
            .unwrap();
        db.add_atomic_child(root, "Symbol", "TP53").unwrap();
        db.set_name("LocusLink", root).unwrap();
        (db, root)
    }

    #[test]
    fn construction_and_lookup() {
        let (db, root) = sample();
        assert_eq!(db.named("LocusLink"), Some(root));
        assert_eq!(db.type_of(root), Some(OemType::Complex));
        assert_eq!(
            db.child_value(root, "LocusID"),
            Some(&AtomicValue::Int(7157))
        );
        assert_eq!(
            db.child(root, "Symbol").and_then(|c| db.type_of(c)),
            Some(OemType::Atomic(AtomicType::Str))
        );
        assert_eq!(db.len(), 3);
    }

    #[test]
    fn edges_have_set_semantics() {
        let mut db = OemStore::new();
        let a = db.new_complex();
        let b = db.new_atomic(1i64);
        assert!(db.add_edge(a, "x", b).unwrap());
        assert!(!db.add_edge(a, "x", b).unwrap());
        assert_eq!(db.edges_of(a).len(), 1);
        // Same target under a different label is a different reference.
        assert!(db.add_edge(a, "y", b).unwrap());
        assert_eq!(db.edges_of(a).len(), 2);
    }

    #[test]
    fn atomic_objects_reject_edges() {
        let mut db = OemStore::new();
        let a = db.new_atomic("v");
        let b = db.new_atomic("w");
        assert!(matches!(
            db.add_edge(a, "x", b),
            Err(OemError::NotComplex(_))
        ));
    }

    #[test]
    fn dangling_targets_are_rejected() {
        let mut db = OemStore::new();
        let a = db.new_complex();
        assert!(matches!(
            db.add_edge(a, "x", Oid(99)),
            Err(OemError::DanglingOid(_))
        ));
        assert!(matches!(
            db.set_name("r", Oid(99)),
            Err(OemError::DanglingOid(_))
        ));
    }

    #[test]
    fn duplicate_names_rejected_but_overwrite_allowed() {
        let mut db = OemStore::new();
        let a = db.new_complex();
        let b = db.new_complex();
        db.set_name("answer", a).unwrap();
        assert!(matches!(
            db.set_name("answer", b),
            Err(OemError::DuplicateName(_))
        ));
        db.set_name_overwrite("answer", b).unwrap();
        assert_eq!(db.named("answer"), Some(b));
        assert_eq!(db.remove_name("answer"), Some(b));
        assert_eq!(db.named("answer"), None);
        assert_eq!(db.remove_name("answer"), None);
    }

    #[test]
    fn children_filters_by_label() {
        let mut db = OemStore::new();
        let root = db.new_complex();
        let g1 = db.add_complex_child(root, "Gene").unwrap();
        let g2 = db.add_complex_child(root, "Gene").unwrap();
        db.add_complex_child(root, "Disease").unwrap();
        let genes: Vec<Oid> = db.children(root, "Gene").collect();
        assert_eq!(genes, vec![g1, g2]);
        assert_eq!(db.children(root, "Unknown").count(), 0);
    }

    #[test]
    fn set_value_replaces_atoms_only() {
        let mut db = OemStore::new();
        let a = db.new_atomic(1i64);
        db.set_value(a, 2i64).unwrap();
        assert_eq!(db.value_of(a), Some(&AtomicValue::Int(2)));
        let c = db.new_complex();
        assert!(db.set_value(c, 3i64).is_err());
    }

    #[test]
    fn remove_edge_works() {
        let (mut db, root) = sample();
        let sym = db.child(root, "Symbol").unwrap();
        assert!(db.remove_edge(root, "Symbol", sym).unwrap());
        assert!(!db.remove_edge(root, "Symbol", sym).unwrap());
        assert_eq!(db.child(root, "Symbol"), None);
        // Removing over a never-interned label is a no-op, not an error.
        assert!(!db.remove_edge(root, "NeverSeen", sym).unwrap());
    }

    /// Three loci with an `Organism` each, one of them carrying two.
    fn loci() -> (OemStore, Oid) {
        let mut db = OemStore::new();
        let root = db.new_complex();
        for organism in ["Homo sapiens", "Mus musculus", "Homo sapiens"] {
            let l = db.add_complex_child(root, "Locus").unwrap();
            db.add_atomic_child(l, "Organism", organism).unwrap();
        }
        let first = db.child(root, "Locus").unwrap();
        db.add_atomic_child(first, "Organism", "Rattus norvegicus")
            .unwrap();
        db.set_name("LocusLink", root).unwrap();
        (db, root)
    }

    fn locus_path() -> PathExpr {
        PathExpr::new(vec![crate::path::PathStep::Label("Locus".into())])
    }

    #[test]
    fn memoised_statistics_equal_the_direct_algorithms() {
        let (db, root) = loci();
        let parents: Vec<Oid> = db.children(root, "Locus").collect();
        let guide = crate::dataguide::DataGuide::build(&db, &[root]);
        assert_eq!(
            db.cached_cardinality(root, &locus_path()),
            guide.cardinality(&["Locus"])
        );
        assert_eq!(
            *db.cached_attribute_stats(root, &locus_path(), "Organism"),
            AttributeStats::collect(&db, &parents, "Organism")
        );
        // A path or attribute the store lacks is empty, not an error.
        let missing = PathExpr::new(vec![crate::path::PathStep::Label("Gene".into())]);
        assert_eq!(db.cached_cardinality(root, &missing), 0);
        assert_eq!(
            *db.cached_attribute_stats(root, &locus_path(), "Symbol"),
            AttributeStats::default()
        );
    }

    #[test]
    fn memoised_statistics_are_shared_until_a_mutation() {
        let (db, root) = loci();
        let first = db.cached_attribute_stats(root, &locus_path(), "Organism");
        let again = db.cached_attribute_stats(root, &locus_path(), "Organism");
        assert!(Arc::ptr_eq(&first, &again), "the second call is a hit");

        // The memo's own Debug form counts its entries per kind.
        let memo = |db: &OemStore| format!("{:?}", db.cache);
        let filled = "QueryCache { indexes: 0, stats: 1, cardinalities: 1 }";
        let empty = "QueryCache { indexes: 0, stats: 0, cardinalities: 0 }";
        let fill = |db: &OemStore| {
            db.cached_cardinality(root, &locus_path());
            db.cached_attribute_stats(root, &locus_path(), "Organism");
            assert_eq!(memo(db), filled);
        };
        let locus = db.child(root, "Locus").unwrap();
        let organism = db.child(locus, "Organism").unwrap();
        type Mutation = fn(&mut OemStore, Oid, Oid, Oid);
        let mutations: [(&str, Mutation); 5] = [
            ("new_atomic", |db, _, _, _| {
                db.new_atomic("x");
            }),
            ("new_complex", |db, _, _, _| {
                db.new_complex();
            }),
            ("add_edge", |db, root, locus, _| {
                assert!(db.add_edge(root, "Alias", locus).unwrap());
            }),
            ("set_value", |db, _, _, organism| {
                db.set_value(organism, "Danio rerio").unwrap();
            }),
            ("remove_edge", |db, _, locus, organism| {
                assert!(db.remove_edge(locus, "Organism", organism).unwrap());
            }),
        ];
        for (kind, mutate) in mutations {
            let mut db = db.clone();
            fill(&db);
            let before = db.cached_attribute_stats(root, &locus_path(), "Organism");
            mutate(&mut db, root, locus, organism);
            assert_eq!(memo(&db), empty, "{kind} drops the memo");
            let after = db.cached_attribute_stats(root, &locus_path(), "Organism");
            assert!(!Arc::ptr_eq(&before, &after), "{kind} rebuilds the stats");
        }

        // A no-op edit (a duplicate edge, an absent one) keeps it.
        let mut db = db.clone();
        fill(&db);
        assert!(!db.add_edge(locus, "Organism", organism).unwrap());
        assert!(!db.remove_edge(root, "Organism", organism).unwrap());
        assert_eq!(memo(&db), filled);
    }

    #[test]
    fn out_labels_deduplicates_in_order() {
        let mut db = OemStore::new();
        let root = db.new_complex();
        db.add_complex_child(root, "Gene").unwrap();
        db.add_complex_child(root, "Disease").unwrap();
        db.add_complex_child(root, "Gene").unwrap();
        let names: Vec<&str> = db
            .out_labels(root)
            .into_iter()
            .map(|l| db.label_name(l))
            .collect();
        assert_eq!(names, vec!["Gene", "Disease"]);
    }
}
