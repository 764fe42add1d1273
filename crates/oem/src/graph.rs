//! Whole-graph operations: reachability, structural equality, fragment
//! import, and compaction.
//!
//! These are the primitives the upper layers build on: result fusion in the
//! mediator imports OEM fragments produced by different wrappers into one
//! answer store; reconciliation compares fragments structurally; query
//! answers are garbage-collected by compacting around the named roots.

use std::collections::{HashMap, HashSet};

use crate::object::ObjectKind;
use crate::oid::Oid;
use crate::store::OemStore;

/// The set of oids reachable from `roots` (including the roots).
pub fn reachable(store: &OemStore, roots: &[Oid]) -> HashSet<Oid> {
    let mut seen: HashSet<Oid> = HashSet::new();
    let mut stack: Vec<Oid> = Vec::new();
    for &r in roots {
        if store.get(r).is_some() && seen.insert(r) {
            stack.push(r);
        }
    }
    while let Some(o) = stack.pop() {
        for e in store.edges_of(o) {
            if seen.insert(e.target) {
                stack.push(e.target);
            }
        }
    }
    seen
}

/// Structural (bisimulation-style) equality of two rooted subgraphs.
///
/// Two objects are structurally equal when they are both atomic with equal
/// values, or both complex with edge lists of the same length whose i-th
/// edges carry the same label string and structurally equal targets. Edge
/// order matters (the store preserves insertion order, and the textual
/// notation is order-sensitive). Cycles are handled coinductively: a pair
/// already under comparison is assumed equal.
pub fn structural_eq(a: &OemStore, ra: Oid, b: &OemStore, rb: Oid) -> bool {
    let mut assumed: HashSet<(Oid, Oid)> = HashSet::new();
    eq_rec(a, ra, b, rb, &mut assumed)
}

fn eq_rec(a: &OemStore, oa: Oid, b: &OemStore, ob: Oid, assumed: &mut HashSet<(Oid, Oid)>) -> bool {
    let (Some(obj_a), Some(obj_b)) = (a.get(oa), b.get(ob)) else {
        return false;
    };
    match (obj_a.kind(), obj_b.kind()) {
        (ObjectKind::Atomic(va), ObjectKind::Atomic(vb)) => va == vb,
        (ObjectKind::Complex(ea), ObjectKind::Complex(eb)) => {
            if ea.len() != eb.len() {
                return false;
            }
            if !assumed.insert((oa, ob)) {
                return true; // already comparing this pair: coinductive yes
            }
            for (x, y) in ea.iter().zip(eb.iter()) {
                if a.label_name(x.label) != b.label_name(y.label) {
                    return false;
                }
                if !eq_rec(a, x.target, b, y.target, assumed) {
                    return false;
                }
            }
            true
        }
        _ => false,
    }
}

/// Deep-copies the subgraph under `src_root` from `src` into `dst`,
/// preserving sharing and cycles. Returns the oid of the copied root in
/// `dst`. Repeated imports of the same fragment create fresh copies; the
/// memo lives only for one call.
pub fn import_fragment(dst: &mut OemStore, src: &OemStore, src_root: Oid) -> Oid {
    let mut memo: HashMap<Oid, Oid> = HashMap::new();
    // First pass: allocate all reachable objects (atoms with their values,
    // complexes empty) so cycles can be wired in the second pass.
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
        // Collect first to end the immutable borrow of src edge list
        // before mutating dst (they are distinct stores, but the label
        // names borrow from src).
        let edges: Vec<(String, Oid)> = src
            .edges_of(o)
            .iter()
            .map(|e| (src.label_name(e.label).to_string(), memo[&e.target]))
            .collect();
        // `memo` is injective and `src` holds each edge once, so every
        // copied edge is new.
        for (label, to) in edges {
            dst.link(from, &label, to, false)
                .expect("copied edges target live objects");
        }
    }
    memo[&src_root]
}

/// One difference between two rooted OEM subgraphs, located by the label
/// path from the roots.
#[derive(Debug, Clone, PartialEq)]
pub enum DiffEntry {
    /// The value of an atomic object changed.
    ValueChanged {
        /// Label path of the changed atom.
        path: String,
        /// The left-hand value's text.
        left: String,
        /// The right-hand value's text.
        right: String,
    },
    /// An edge (by label, at this path) exists only on the left.
    OnlyLeft {
        /// Label path of the left-only edge.
        path: String,
    },
    /// An edge (by label, at this path) exists only on the right.
    OnlyRight {
        /// Label path of the right-only edge.
        path: String,
    },
    /// The object kinds differ (atomic vs complex) at this path.
    KindChanged {
        /// Label path where the kinds diverge.
        path: String,
    },
}

impl std::fmt::Display for DiffEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiffEntry::ValueChanged { path, left, right } => {
                write!(f, "~ {path}: \"{left}\" -> \"{right}\"")
            }
            DiffEntry::OnlyLeft { path } => write!(f, "- {path}"),
            DiffEntry::OnlyRight { path } => write!(f, "+ {path}"),
            DiffEntry::KindChanged { path } => write!(f, "! {path}: kind changed"),
        }
    }
}

/// Structural diff of two rooted subgraphs, reported as label-path
/// edits (`Gene[2].Symbol[0]`). Edges are matched positionally within
/// each label (the k-th `Gene` edge on the left against the k-th on the
/// right); surplus edges on either side are reported as
/// additions/removals. Cycles are cut by never revisiting an
/// already-compared pair.
pub fn diff(a: &OemStore, ra: Oid, b: &OemStore, rb: Oid) -> Vec<DiffEntry> {
    let mut out = Vec::new();
    let mut visited: HashSet<(Oid, Oid)> = HashSet::new();
    diff_rec(a, ra, b, rb, &mut Vec::new(), &mut visited, &mut out);
    out
}

fn diff_rec(
    a: &OemStore,
    oa: Oid,
    b: &OemStore,
    ob: Oid,
    path: &mut Vec<String>,
    visited: &mut HashSet<(Oid, Oid)>,
    out: &mut Vec<DiffEntry>,
) {
    if !visited.insert((oa, ob)) {
        return;
    }
    let (Some(obj_a), Some(obj_b)) = (a.get(oa), b.get(ob)) else {
        return;
    };
    let at = |path: &[String], seg: Option<String>| {
        path.iter()
            .cloned()
            .chain(seg)
            .collect::<Vec<_>>()
            .join(".")
    };
    match (obj_a.kind(), obj_b.kind()) {
        (ObjectKind::Atomic(va), ObjectKind::Atomic(vb)) => {
            if va != vb {
                out.push(DiffEntry::ValueChanged {
                    path: at(path, None),
                    left: va.as_text(),
                    right: vb.as_text(),
                });
            }
        }
        (ObjectKind::Complex(_), ObjectKind::Complex(_)) => {
            // Group edges by label on both sides, preserving order.
            let group = |store: &OemStore, oid: Oid| {
                let mut m: Vec<(String, Vec<Oid>)> = Vec::new();
                for e in store.edges_of(oid) {
                    let name = store.label_name(e.label).to_string();
                    match m.iter_mut().find(|(l, _)| *l == name) {
                        Some((_, v)) => v.push(e.target),
                        None => m.push((name, vec![e.target])),
                    }
                }
                m
            };
            let ga = group(a, oa);
            let gb = group(b, ob);
            for (label, targets_a) in &ga {
                let targets_b = gb
                    .iter()
                    .find(|(l, _)| l == label)
                    .map(|(_, v)| v.as_slice())
                    .unwrap_or(&[]);
                for (k, &ta) in targets_a.iter().enumerate() {
                    let seg = format!("{label}[{k}]");
                    match targets_b.get(k) {
                        Some(&tb) => {
                            path.push(seg);
                            diff_rec(a, ta, b, tb, path, visited, out);
                            path.pop();
                        }
                        None => out.push(DiffEntry::OnlyLeft {
                            path: at(path, Some(seg)),
                        }),
                    }
                }
                for k in targets_a.len()..targets_b.len() {
                    let path = at(path, Some(format!("{label}[{k}]")));
                    out.push(DiffEntry::OnlyRight { path });
                }
            }
            for (label, targets_b) in &gb {
                if !ga.iter().any(|(l, _)| l == label) {
                    for k in 0..targets_b.len() {
                        let path = at(path, Some(format!("{label}[{k}]")));
                        out.push(DiffEntry::OnlyRight { path });
                    }
                }
            }
        }
        _ => out.push(DiffEntry::KindChanged {
            path: at(path, None),
        }),
    }
}

/// Builds a new store containing exactly the objects reachable from the
/// given named roots of `store`, re-registering those names. Returns the
/// compacted store and the oid remapping (old → new).
pub fn compact(store: &OemStore, keep_names: &[&str]) -> (OemStore, HashMap<Oid, Oid>) {
    let mut out = OemStore::new();
    let mut remap: HashMap<Oid, Oid> = HashMap::new();
    for &name in keep_names {
        let Some(root) = store.named(name) else {
            continue;
        };
        let new_root = if let Some(&r) = remap.get(&root) {
            r
        } else {
            import_fragment_memo(&mut out, store, root, &mut remap)
        };
        out.set_name_overwrite(name, new_root)
            .expect("fresh root is live");
    }
    (out, remap)
}

/// Like [`import_fragment`] but with a caller-supplied memo, so several
/// fragments can be imported into `dst` while sharing already-copied
/// objects (the mediator's result fusion and [`compact`] both need this).
pub fn import_fragment_memo(
    dst: &mut OemStore,
    src: &OemStore,
    src_root: Oid,
    memo: &mut HashMap<Oid, Oid>,
) -> Oid {
    let mut order = Vec::new();
    {
        let mut stack = vec![src_root];
        while let Some(o) = stack.pop() {
            if memo.contains_key(&o) || order.contains(&o) {
                continue;
            }
            order.push(o);
            for e in src.edges_of(o) {
                stack.push(e.target);
            }
        }
    }
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
            dst.add_edge(from, &label, to)
                .expect("copied edges target live objects");
        }
    }
    memo[&src_root]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::AtomicValue;

    fn gene_store(symbols: &[&str]) -> (OemStore, Oid) {
        let mut db = OemStore::new();
        let root = db.new_complex();
        for symbol in symbols {
            let g = db.add_complex_child(root, "Gene").unwrap();
            db.add_atomic_child(g, "Symbol", *symbol).unwrap();
        }
        db.set_name("R", root).unwrap();
        (db, root)
    }

    fn two_gene_store() -> (OemStore, Oid) {
        gene_store(&["TP53", "BRCA1"])
    }

    #[test]
    fn reachable_covers_subgraph_only() {
        let (mut db, root) = two_gene_store();
        let orphan = db.new_atomic(1i64);
        let r = reachable(&db, &[root]);
        assert_eq!(r.len(), 5);
        assert!(!r.contains(&orphan));
    }

    #[test]
    fn structural_eq_detects_equal_and_unequal() {
        let (a, ra) = two_gene_store();
        let (b, rb) = two_gene_store();
        assert!(structural_eq(&a, ra, &b, rb));

        let mut c = OemStore::new();
        let rc = c.new_complex();
        let g = c.add_complex_child(rc, "Gene").unwrap();
        c.add_atomic_child(g, "Symbol", "TP53").unwrap();
        assert!(!structural_eq(&a, ra, &c, rc)); // fewer genes
    }

    #[test]
    fn structural_eq_is_label_string_based_across_stores() {
        // Same label strings, interned in different orders.
        let mut a = OemStore::new();
        a.intern_label("Zed");
        let ra = a.new_complex();
        a.add_atomic_child(ra, "Symbol", "X").unwrap();

        let mut b = OemStore::new();
        let rb = b.new_complex();
        b.add_atomic_child(rb, "Symbol", "X").unwrap();
        assert!(structural_eq(&a, ra, &b, rb));
    }

    #[test]
    fn structural_eq_handles_cycles() {
        let mut a = OemStore::new();
        let ra = a.new_complex();
        let ca = a.add_complex_child(ra, "next").unwrap();
        a.add_edge(ca, "next", ra).unwrap();

        let mut b = OemStore::new();
        let rb = b.new_complex();
        let cb = b.add_complex_child(rb, "next").unwrap();
        b.add_edge(cb, "next", rb).unwrap();
        assert!(structural_eq(&a, ra, &b, rb));
    }

    #[test]
    fn import_preserves_structure_and_sharing() {
        let mut src = OemStore::new();
        let root = src.new_complex();
        let shared = src.add_complex_child(root, "A").unwrap();
        src.add_atomic_child(shared, "v", 7i64).unwrap();
        src.add_edge(root, "B", shared).unwrap();

        let mut dst = OemStore::new();
        dst.new_atomic("padding"); // offset oids so remapping is visible
        let copied = import_fragment(&mut dst, &src, root);
        assert!(structural_eq(&src, root, &dst, copied));
        let a = dst.child(copied, "A").unwrap();
        let b = dst.child(copied, "B").unwrap();
        assert_eq!(a, b, "sharing must be preserved");
    }

    #[test]
    fn import_handles_cycles() {
        let mut src = OemStore::new();
        let root = src.new_complex();
        let child = src.add_complex_child(root, "Child").unwrap();
        src.add_edge(child, "Parent", root).unwrap();

        let mut dst = OemStore::new();
        let copied = import_fragment(&mut dst, &src, root);
        let c2 = dst.child(copied, "Child").unwrap();
        assert_eq!(dst.child(c2, "Parent"), Some(copied));
    }

    #[test]
    fn compact_drops_unreachable_objects() {
        let (mut db, _root) = two_gene_store();
        for _ in 0..10 {
            db.new_atomic("garbage");
        }
        let before = db.len();
        let (small, remap) = compact(&db, &["R"]);
        assert_eq!(small.len(), 5);
        assert!(small.len() < before);
        let new_root = small.named("R").unwrap();
        assert!(structural_eq(&db, db.named("R").unwrap(), &small, new_root));
        assert_eq!(remap.len(), 5);
    }

    #[test]
    fn compact_with_shared_roots_shares_objects() {
        let mut db = OemStore::new();
        let a = db.new_complex();
        let shared = db.add_complex_child(a, "S").unwrap();
        db.add_atomic_child(shared, "v", AtomicValue::Int(1))
            .unwrap();
        let b = db.new_complex();
        db.add_edge(b, "S", shared).unwrap();
        db.set_name("A", a).unwrap();
        db.set_name("B", b).unwrap();
        let (small, _) = compact(&db, &["A", "B"]);
        let sa = small.child(small.named("A").unwrap(), "S").unwrap();
        let sb = small.child(small.named("B").unwrap(), "S").unwrap();
        assert_eq!(sa, sb, "shared object must not be duplicated");
        assert_eq!(small.len(), 4);
    }

    #[test]
    fn diff_reports_value_changes_and_membership() {
        let (a, ra) = two_gene_store();
        // A changed symbol value and a third gene.
        let (b, rb) = gene_store(&["TP53-v2", "BRCA1", "EGFR"]);

        let d = diff(&a, ra, &b, rb);
        assert!(
            d.contains(&DiffEntry::ValueChanged {
                path: "Gene[0].Symbol[0]".into(),
                left: "TP53".into(),
                right: "TP53-v2".into(),
            }),
            "{d:?}"
        );
        assert!(d.contains(&DiffEntry::OnlyRight {
            path: "Gene[2]".into()
        }));
        // Identity diff is empty.
        assert!(diff(&a, ra, &a, ra).is_empty());
        // Reversed direction swaps the sign.
        let rd = diff(&b, rb, &a, ra);
        assert!(rd.contains(&DiffEntry::OnlyLeft {
            path: "Gene[2]".into()
        }));
    }

    #[test]
    fn diff_reports_kind_changes_and_handles_cycles() {
        let mut a = OemStore::new();
        let ra = a.new_complex();
        a.add_atomic_child(ra, "X", 1i64).unwrap();
        let mut b = OemStore::new();
        let rb = b.new_complex();
        b.add_complex_child(rb, "X").unwrap();
        let d = diff(&a, ra, &b, rb);
        assert_eq!(
            d,
            vec![DiffEntry::KindChanged {
                path: "X[0]".into()
            }]
        );
        assert!(d[0].to_string().contains("kind changed"));

        // Cyclic graphs terminate.
        let mut c = OemStore::new();
        let rc = c.new_complex();
        let child = c.add_complex_child(rc, "next").unwrap();
        c.add_edge(child, "next", rc).unwrap();
        assert!(diff(&c, rc, &c, rc).is_empty());
    }

    #[test]
    fn nested_value_edits_are_addressed_by_their_label_path() {
        let (a, ra) = two_gene_store();
        let (b, rb) = gene_store(&["TP53", "BRCA1-v2"]);

        let strings: Vec<String> = diff(&a, ra, &b, rb).iter().map(|d| d.to_string()).collect();
        assert_eq!(
            strings,
            vec!["~ Gene[1].Symbol[0]: \"BRCA1\" -> \"BRCA1-v2\""]
        );
    }

    #[test]
    fn compact_missing_name_is_skipped() {
        let (db, _) = two_gene_store();
        let (small, _) = compact(&db, &["DoesNotExist"]);
        assert!(small.is_empty());
    }
}
