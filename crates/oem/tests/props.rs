//! Property-based tests for the OEM store: random graphs must survive
//! the textual notation, fragment import, and compaction unchanged, and
//! path evaluation must agree with its set-semantics specification.

use proptest::prelude::*;

use annoda_oem::graph::{compact, import_fragment, reachable, structural_eq};
use annoda_oem::{text, AtomicValue, OemStore, Oid, PathExpr};

/// A recipe for building a random store: a list of node specs. Complex
/// nodes pick edges to earlier nodes (guaranteeing liveness) plus
/// optional back-edges (cycles).
#[derive(Debug, Clone)]
enum NodeSpec {
    Int(i64),
    Real(f64),
    Str(String),
    Bool(bool),
    Complex {
        // (label index, target offset) — both reduced modulo bounds.
        forward: Vec<(u8, u8)>,
        back: Vec<(u8, u8)>,
    },
}

const LABELS: &[&str] = &["a", "b", "Gene", "Symbol", "Links"];

fn value_text() -> impl Strategy<Value = String> {
    // Printable strings including the characters the writer escapes.
    proptest::string::string_regex("[ -~]{0,12}").expect("valid regex")
}

fn node_spec() -> impl Strategy<Value = NodeSpec> {
    prop_oneof![
        any::<i64>().prop_map(NodeSpec::Int),
        (-1.0e6..1.0e6f64).prop_map(NodeSpec::Real),
        value_text().prop_map(NodeSpec::Str),
        any::<bool>().prop_map(NodeSpec::Bool),
        (
            proptest::collection::vec((any::<u8>(), any::<u8>()), 0..4),
            proptest::collection::vec((any::<u8>(), any::<u8>()), 0..2)
        )
            .prop_map(|(forward, back)| NodeSpec::Complex { forward, back }),
    ]
}

fn build(specs: &[NodeSpec]) -> (OemStore, Oid) {
    let mut store = OemStore::new();
    let root = store.new_complex();
    let mut oids = vec![root];
    for spec in specs {
        let oid = match spec {
            NodeSpec::Int(v) => store.new_atomic(AtomicValue::Int(*v)),
            NodeSpec::Real(v) => store.new_atomic(AtomicValue::Real(*v)),
            NodeSpec::Str(v) => store.new_atomic(AtomicValue::Str(v.clone())),
            NodeSpec::Bool(v) => store.new_atomic(AtomicValue::Bool(*v)),
            NodeSpec::Complex { forward, .. } => {
                let oid = store.new_complex();
                for (li, ti) in forward {
                    let label = LABELS[*li as usize % LABELS.len()];
                    let target = oids[*ti as usize % oids.len()];
                    store.add_edge(oid, label, target).unwrap();
                }
                oid
            }
        };
        // Attach to the root so everything is reachable.
        store
            .add_edge(root, LABELS[oids.len() % LABELS.len()], oid)
            .unwrap();
        oids.push(oid);
    }
    // Second pass: back edges (may create cycles).
    for (i, spec) in specs.iter().enumerate() {
        if let NodeSpec::Complex { back, .. } = spec {
            let from = oids[i + 1];
            for (li, ti) in back {
                let label = LABELS[*li as usize % LABELS.len()];
                let target = oids[*ti as usize % oids.len()];
                let _ = store.add_edge(from, label, target);
            }
        }
    }
    store.set_name("R", root).unwrap();
    (store, root)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn text_notation_round_trips(specs in proptest::collection::vec(node_spec(), 0..12)) {
        let (store, root) = build(&specs);
        let rendered = text::write_named(&store, "R").unwrap();
        let (parsed, parsed_root) = text::read(&rendered).unwrap();
        prop_assert!(structural_eq(&store, root, &parsed, parsed_root));
    }

    #[test]
    fn store_text_round_trips_multi_root_corpora(
        specs in proptest::collection::vec(node_spec(), 0..12),
        extra_roots in proptest::collection::vec(any::<u8>(), 0..4),
    ) {
        // write_store/read_store must round-trip whole corpora with
        // several named roots (shared subgraphs included), not just the
        // single-root fragments `write_named` covers.
        let (mut store, _root) = build(&specs);
        let oids: Vec<Oid> = store.oids().collect();
        for (i, pick) in extra_roots.iter().enumerate() {
            let target = oids[*pick as usize % oids.len()];
            store.set_name_overwrite(&format!("Extra{i}"), target).unwrap();
        }
        let rendered = text::write_store(&store);
        let parsed = text::read_store(&rendered).unwrap();
        let names: Vec<String> = store.names().map(|(n, _)| n.to_string()).collect();
        let parsed_names: Vec<String> = parsed.names().map(|(n, _)| n.to_string()).collect();
        prop_assert_eq!(&names, &parsed_names);
        for name in &names {
            prop_assert!(
                structural_eq(
                    &store,
                    store.named(name).unwrap(),
                    &parsed,
                    parsed.named(name).unwrap(),
                ),
                "root {} diverged after round-trip", name
            );
        }
    }

    #[test]
    fn import_fragment_preserves_structure(specs in proptest::collection::vec(node_spec(), 0..12)) {
        let (store, root) = build(&specs);
        let mut dst = OemStore::new();
        dst.new_atomic("offset");
        let copied = import_fragment(&mut dst, &store, root);
        prop_assert!(structural_eq(&store, root, &dst, copied));
    }

    #[test]
    fn compact_preserves_structure_and_drops_garbage(
        specs in proptest::collection::vec(node_spec(), 0..12),
        garbage in 0usize..5,
    ) {
        let (mut store, root) = build(&specs);
        for _ in 0..garbage {
            store.new_atomic("unreachable");
        }
        let (small, _) = compact(&store, &["R"]);
        let new_root = small.named("R").unwrap();
        prop_assert!(structural_eq(&store, root, &small, new_root));
        prop_assert_eq!(small.len(), reachable(&store, &[root]).len());
    }

    #[test]
    fn hash_path_equals_reachability(specs in proptest::collection::vec(node_spec(), 0..12)) {
        let (store, root) = build(&specs);
        let via_path: std::collections::HashSet<Oid> =
            PathExpr::parse("#").unwrap().eval(&store, root).into_iter().collect();
        let via_reach = reachable(&store, &[root]);
        prop_assert_eq!(via_path, via_reach);
    }

    #[test]
    fn path_results_are_duplicate_free(
        specs in proptest::collection::vec(node_spec(), 0..12),
        path in prop_oneof![
            Just("a"), Just("a.b"), Just("%"), Just("%.%"), Just("#.a"), Just("(a|b)")
        ],
    ) {
        let (store, root) = build(&specs);
        let results = PathExpr::parse(path).unwrap().eval(&store, root);
        let set: std::collections::HashSet<Oid> = results.iter().copied().collect();
        prop_assert_eq!(set.len(), results.len(), "duplicates in {:?}", results);
    }

    #[test]
    fn structural_eq_is_reflexive(specs in proptest::collection::vec(node_spec(), 0..12)) {
        let (store, root) = build(&specs);
        prop_assert!(structural_eq(&store, root, &store, root));
    }

    #[test]
    fn structurally_equal_graphs_have_empty_diffs(
        specs in proptest::collection::vec(node_spec(), 0..12),
    ) {
        // structural_eq (order-sensitive) implies an empty diff
        // (label-grouped); the converse need not hold when interleaved
        // labels reorder.
        let (a, ra) = build(&specs);
        let (b, rb) = build(&specs);
        prop_assert!(structural_eq(&a, ra, &b, rb));
        prop_assert!(annoda_oem::graph::diff(&a, ra, &b, rb).is_empty());
    }

    #[test]
    fn value_index_agrees_with_scan(
        values in proptest::collection::vec(
            proptest::string::string_regex("[a-c]{1,3}").unwrap(),
            0..12,
        ),
        key in proptest::string::string_regex("[a-c]{1,3}").unwrap(),
    ) {
        let mut db = OemStore::new();
        let root = db.new_complex();
        let mut parents = Vec::new();
        for v in &values {
            let g = db.add_complex_child(root, "G").unwrap();
            db.add_atomic_child(g, "v", v.as_str()).unwrap();
            parents.push(g);
        }
        let index = annoda_oem::ValueIndex::build(&db, &parents, "v");
        let via_index: Vec<Oid> = index.lookup_any([key.as_str()]);
        let via_scan: Vec<Oid> = parents
            .iter()
            .copied()
            .filter(|&p| {
                db.children(p, "v")
                    .any(|c| db.value_of(c).map(|v| v.as_text()) == Some(key.clone()))
            })
            .collect();
        prop_assert_eq!(via_index, via_scan);
    }

    #[test]
    fn value_index_prefix_agrees_with_starts_with_filter(
        valuesets in proptest::collection::vec(
            proptest::collection::vec(
                proptest::string::string_regex("[a-cé]{0,3}").unwrap(),
                0..3,
            ),
            0..12,
        ),
        prefix in proptest::string::string_regex("[a-cé]{0,2}").unwrap(),
    ) {
        let mut db = OemStore::new();
        let root = db.new_complex();
        let mut parents = Vec::new();
        for values in &valuesets {
            let g = db.add_complex_child(root, "G").unwrap();
            for v in values {
                db.add_atomic_child(g, "v", v.as_str()).unwrap();
            }
            parents.push(g);
        }
        // Index in reverse: the result follows the indexed list.
        parents.reverse();
        let index = annoda_oem::ValueIndex::build(&db, &parents, "v");
        let via_scan: Vec<Oid> = parents
            .iter()
            .copied()
            .filter(|&p| {
                db.children(p, "v")
                    .any(|c| db.value_of(c).is_some_and(|v| v.as_text().starts_with(&prefix)))
            })
            .collect();
        prop_assert_eq!(index.lookup_prefix(&prefix), via_scan);
    }

    #[test]
    fn lorel_like_agrees_with_naive_matcher(
        text in proptest::string::string_regex("[a-c%_]{0,8}").unwrap(),
        pattern in proptest::string::string_regex("[a-c%_]{0,6}").unwrap(),
    ) {
        fn naive(t: &[char], p: &[char]) -> bool {
            match (t.first(), p.first()) {
                (_, None) => t.is_empty(),
                (_, Some('%')) => naive(t, &p[1..]) || (!t.is_empty() && naive(&t[1..], p)),
                (None, _) => false,
                (Some(tc), Some(pc)) => (*pc == '_' || tc == pc) && naive(&t[1..], &p[1..]),
            }
        }
        let t: Vec<char> = text.chars().collect();
        let p: Vec<char> = pattern.chars().collect();
        let expected = naive(&t, &p);
        let got = AtomicValue::Str(text.clone()).lorel_like(&pattern);
        prop_assert_eq!(got, expected, "text={:?} pattern={:?}", text, pattern);
    }
}
