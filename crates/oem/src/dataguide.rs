//! DataGuide structural summaries.
//!
//! A DataGuide is a concise summary of the label paths present in a
//! semi-structured database: every label path that occurs in the source
//! occurs exactly once in the guide, and no path occurs in the guide that
//! does not occur in the source. ANNODA's wrappers extract their OML's
//! label-path schema from one ([`crate::dataguide::DataGuide::paths`]), and
//! the MDSM matcher reads the same summary when it maps a new source to
//! the global model.
//!
//! The construction is the classic powerset (NFA→DFA) determinisation:
//! each guide node corresponds to the set of source objects reachable by
//! one label path.

use std::collections::{BTreeSet, HashMap};

use crate::oid::Oid;
use crate::store::OemStore;

/// A node in the guide, identified by a dense index.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct GuideNode(u32);

/// A DataGuide for (a rooted region of) an OEM store.
#[derive(Debug, Clone)]
pub struct DataGuide {
    /// node → (label name → node)
    transitions: Vec<HashMap<String, GuideNode>>,
    /// node → how many source objects its target set contains
    cardinality: Vec<usize>,
    root: GuideNode,
}

impl DataGuide {
    /// Builds the guide for the region reachable from `roots`.
    pub fn build(store: &OemStore, roots: &[Oid]) -> Self {
        let root_set: BTreeSet<Oid> = roots
            .iter()
            .copied()
            .filter(|&o| store.get(o).is_some())
            .collect();
        let mut node_of: HashMap<BTreeSet<Oid>, GuideNode> = HashMap::new();
        let mut transitions: Vec<HashMap<String, GuideNode>> = Vec::new();
        let mut cardinality: Vec<usize> = Vec::new();
        let mut worklist: Vec<BTreeSet<Oid>> = Vec::new();

        let alloc = |set: BTreeSet<Oid>,
                     node_of: &mut HashMap<BTreeSet<Oid>, GuideNode>,
                     transitions: &mut Vec<HashMap<String, GuideNode>>,
                     cardinality: &mut Vec<usize>,
                     worklist: &mut Vec<BTreeSet<Oid>>|
         -> GuideNode {
            if let Some(&n) = node_of.get(&set) {
                return n;
            }
            let n = GuideNode(transitions.len() as u32);
            transitions.push(HashMap::new());
            cardinality.push(set.len());
            node_of.insert(set.clone(), n);
            worklist.push(set);
            n
        };

        let root = alloc(
            root_set,
            &mut node_of,
            &mut transitions,
            &mut cardinality,
            &mut worklist,
        );

        while let Some(set) = worklist.pop() {
            let from = node_of[&set];
            // Group targets by label name.
            let mut by_label: HashMap<String, BTreeSet<Oid>> = HashMap::new();
            for &o in &set {
                for e in store.edges_of(o) {
                    by_label
                        .entry(store.label_name(e.label).to_string())
                        .or_default()
                        .insert(e.target);
                }
            }
            for (label, targets) in by_label {
                let to = alloc(
                    targets,
                    &mut node_of,
                    &mut transitions,
                    &mut cardinality,
                    &mut worklist,
                );
                transitions[from.0 as usize].insert(label, to);
            }
        }

        DataGuide {
            transitions,
            cardinality,
            root,
        }
    }

    /// The guide's root node.
    pub fn root(&self) -> GuideNode {
        self.root
    }

    /// Number of guide nodes.
    pub fn len(&self) -> usize {
        self.transitions.len()
    }

    /// True for a guide over an empty region.
    pub fn is_empty(&self) -> bool {
        self.cardinality.first().is_none_or(|&c| c == 0) && self.transitions.len() <= 1
    }

    /// Follows one labelled transition.
    pub fn step(&self, node: GuideNode, label: &str) -> Option<GuideNode> {
        self.transitions[node.0 as usize].get(label).copied()
    }

    /// Follows a whole label path from the root. Returns the reached node
    /// or `None` if the path does not occur in the source.
    pub fn lookup(&self, path: &[&str]) -> Option<GuideNode> {
        let mut node = self.root;
        for &label in path {
            node = self.step(node, label)?;
        }
        Some(node)
    }

    /// True if the label path occurs somewhere in the summarised region.
    pub fn has_path(&self, path: &[&str]) -> bool {
        self.lookup(path).is_some()
    }

    /// How many distinct source objects the path reaches — the optimizer's
    /// cardinality estimate (exact for DataGuides built over the full
    /// region).
    pub fn cardinality(&self, path: &[&str]) -> usize {
        self.lookup(path)
            .map(|n| self.cardinality[n.0 as usize])
            .unwrap_or(0)
    }

    /// The labels leaving a node, sorted.
    pub fn out_labels(&self, node: GuideNode) -> Vec<&str> {
        let mut v: Vec<&str> = self.transitions[node.0 as usize]
            .keys()
            .map(String::as_str)
            .collect();
        v.sort_unstable();
        v
    }

    /// Enumerates every label path in the guide up to `max_depth` steps,
    /// lexicographically. Useful for schema extraction from instance data
    /// (the matcher consumes this).
    pub fn paths(&self, max_depth: usize) -> Vec<Vec<String>> {
        let mut out = Vec::new();
        let mut prefix = Vec::new();
        self.paths_rec(self.root, max_depth, &mut prefix, &mut out, &mut vec![]);
        out
    }

    fn paths_rec(
        &self,
        node: GuideNode,
        budget: usize,
        prefix: &mut Vec<String>,
        out: &mut Vec<Vec<String>>,
        on_stack: &mut Vec<GuideNode>,
    ) {
        if budget == 0 || on_stack.contains(&node) {
            return;
        }
        on_stack.push(node);
        for label in self.out_labels(node) {
            let next = self.step(node, label).expect("listed label exists");
            prefix.push(label.to_string());
            out.push(prefix.clone());
            self.paths_rec(next, budget - 1, prefix, out, on_stack);
            prefix.pop();
        }
        on_stack.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (OemStore, Oid) {
        let mut db = OemStore::new();
        let root = db.new_complex();
        for sym in ["TP53", "BRCA1", "EGFR"] {
            let g = db.add_complex_child(root, "Gene").unwrap();
            db.add_atomic_child(g, "Symbol", sym).unwrap();
            db.add_atomic_child(g, "Organism", "Homo sapiens").unwrap();
        }
        let d = db.add_complex_child(root, "Disease").unwrap();
        db.add_atomic_child(d, "Title", "Li-Fraumeni syndrome")
            .unwrap();
        (db, root)
    }

    #[test]
    fn every_source_path_occurs_in_guide() {
        let (db, root) = sample();
        let g = DataGuide::build(&db, &[root]);
        assert!(g.has_path(&["Gene"]));
        assert!(g.has_path(&["Gene", "Symbol"]));
        assert!(g.has_path(&["Disease", "Title"]));
        assert!(!g.has_path(&["Gene", "Title"]));
        assert!(!g.has_path(&["Symbol"]));
    }

    #[test]
    fn guide_merges_same_label_paths_into_one_node() {
        let (db, root) = sample();
        let g = DataGuide::build(&db, &[root]);
        // Three genes, one guide node for path [Gene].
        assert_eq!(g.cardinality(&["Gene"]), 3);
        assert_eq!(g.cardinality(&["Gene", "Symbol"]), 3);
        assert_eq!(g.cardinality(&["Disease"]), 1);
        assert_eq!(g.cardinality(&["Missing"]), 0);
    }

    #[test]
    fn guide_is_small_for_regular_data() {
        let (db, root) = sample();
        let g = DataGuide::build(&db, &[root]);
        // root, Gene-set, Symbol-set, Organism-set, Disease-set, Title-set.
        assert_eq!(g.len(), 6);
    }

    #[test]
    fn cyclic_data_terminates() {
        let mut db = OemStore::new();
        let a = db.new_complex();
        let b = db.add_complex_child(a, "next").unwrap();
        db.add_edge(b, "next", a).unwrap();
        let g = DataGuide::build(&db, &[a]);
        assert!(g.has_path(&["next", "next", "next"]));
        assert!(g.len() <= 3);
    }

    #[test]
    fn paths_enumeration_respects_depth() {
        let (db, root) = sample();
        let g = DataGuide::build(&db, &[root]);
        let p1 = g.paths(1);
        assert_eq!(p1.len(), 2); // Disease, Gene
        let p2 = g.paths(2);
        assert!(p2.contains(&vec!["Gene".to_string(), "Symbol".to_string()]));
        assert_eq!(p2.len(), 5);
    }

    #[test]
    fn empty_roots_build_trivial_guide() {
        let db = OemStore::new();
        let g = DataGuide::build(&db, &[]);
        assert!(g.is_empty());
        assert!(!g.has_path(&["x"]));
    }
}
