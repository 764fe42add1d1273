//! Lorel-style path expressions over an OEM store.
//!
//! A path expression is a dot-separated sequence of steps:
//!
//! * a plain label (`LocusLink.Symbol`),
//! * `%` — matches exactly one edge with any label,
//! * `#` — matches any path of length ≥ 0 (the Lorel "general path
//!   expression" wildcard),
//! * `(a|b)` — alternation between labels in one step.
//!
//! Evaluation is set-at-a-time: from a set of start objects, each step maps
//! the current frontier to the next. `#` computes the reachability closure
//! with cycle protection. The result preserves first-reached order and is
//! deduplicated by oid, matching Lorel's oid-set semantics.

use std::collections::HashSet;
use std::fmt;

use crate::oid::Oid;
use crate::store::OemStore;

/// One step in a path expression.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum PathStep {
    /// Follow edges with exactly this label.
    Label(String),
    /// Follow one edge with any label (`%`).
    AnyOne,
    /// Follow any path, including the empty one (`#`).
    AnyPath,
    /// Follow one edge whose label is any of the alternatives (`(a|b)`).
    Alt(Vec<String>),
}

impl fmt::Display for PathStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PathStep::Label(l) => f.write_str(l),
            PathStep::AnyOne => f.write_str("%"),
            PathStep::AnyPath => f.write_str("#"),
            PathStep::Alt(ls) => write!(f, "({})", ls.join("|")),
        }
    }
}

/// A parsed path expression.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct PathExpr {
    steps: Vec<PathStep>,
}

impl PathExpr {
    /// Builds a path expression from explicit steps.
    pub fn new(steps: Vec<PathStep>) -> Self {
        PathExpr { steps }
    }

    /// Parses a dot-separated textual path (`Links.%.Url`, `#.Symbol`,
    /// `(GO|Go).Term`). An empty string yields the empty path, which maps
    /// every object to itself.
    pub fn parse(text: &str) -> Result<Self, String> {
        let text = text.trim();
        if text.is_empty() {
            return Ok(PathExpr::default());
        }
        let mut steps = Vec::new();
        for raw in text.split('.') {
            let tok = raw.trim();
            if tok.is_empty() {
                return Err(format!("empty step in path `{text}`"));
            }
            steps.push(match tok {
                "%" => PathStep::AnyOne,
                "#" => PathStep::AnyPath,
                _ if tok.starts_with('(') && tok.ends_with(')') => {
                    let inner = &tok[1..tok.len() - 1];
                    let alts: Vec<String> = inner
                        .split('|')
                        .map(|s| s.trim().to_string())
                        .filter(|s| !s.is_empty())
                        .collect();
                    if alts.is_empty() {
                        return Err(format!("empty alternation in `{tok}`"));
                    }
                    PathStep::Alt(alts)
                }
                _ => PathStep::Label(tok.to_string()),
            });
        }
        Ok(PathExpr { steps })
    }

    /// The steps of this path.
    pub fn steps(&self) -> &[PathStep] {
        &self.steps
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True for the empty (identity) path.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Evaluates the path from a single start object.
    pub fn eval(&self, store: &OemStore, start: Oid) -> Vec<Oid> {
        self.eval_many(store, &[start])
    }

    /// Evaluates the path from a set of start objects, deduplicating by
    /// oid and preserving first-reached order.
    pub fn eval_many(&self, store: &OemStore, starts: &[Oid]) -> Vec<Oid> {
        let mut frontier = match starts {
            // One start is its own frontier: nothing to dedup.
            [_] => starts.to_vec(),
            _ => dedup_in_order(starts.iter().copied()),
        };
        for step in &self.steps {
            frontier = apply_step(store, &frontier, step);
            if frontier.is_empty() {
                break;
            }
        }
        frontier
    }
}

impl fmt::Display for PathExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for s in &self.steps {
            if !first {
                f.write_str(".")?;
            }
            write!(f, "{s}")?;
            first = false;
        }
        Ok(())
    }
}

fn apply_step(store: &OemStore, frontier: &[Oid], step: &PathStep) -> Vec<Oid> {
    match step {
        PathStep::Label(name) => {
            let Some(label) = store.labels().get(name) else {
                return Vec::new();
            };
            let targets = frontier.iter().flat_map(|&o| {
                store
                    .edges_of(o)
                    .iter()
                    .filter(move |e| e.label == label)
                    .map(|e| e.target)
            });
            // One object's edges are a set, so its targets under one
            // label are already distinct.
            match frontier {
                [_] => targets.collect(),
                _ => dedup_in_order(targets),
            }
        }
        PathStep::AnyOne => dedup_in_order(
            frontier
                .iter()
                .flat_map(|&o| store.edges_of(o).iter().map(|e| e.target)),
        ),
        PathStep::Alt(names) => {
            let labels: Vec<_> = names.iter().filter_map(|n| store.labels().get(n)).collect();
            dedup_in_order(frontier.iter().flat_map(|&o| {
                store
                    .edges_of(o)
                    .iter()
                    .filter(|e| labels.contains(&e.label))
                    .map(|e| e.target)
            }))
        }
        PathStep::AnyPath => {
            // Reflexive-transitive closure, BFS order.
            let mut seen: HashSet<Oid> = frontier.iter().copied().collect();
            let mut order: Vec<Oid> = dedup_in_order(frontier.iter().copied());
            let mut queue: Vec<Oid> = order.clone();
            while let Some(o) = queue.pop() {
                for e in store.edges_of(o) {
                    if seen.insert(e.target) {
                        order.push(e.target);
                        queue.push(e.target);
                    }
                }
            }
            order
        }
    }
}

fn dedup_in_order(iter: impl IntoIterator<Item = Oid>) -> Vec<Oid> {
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    for o in iter {
        if seen.insert(o) {
            out.push(o);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::AtomicValue;
    use proptest::prelude::*;

    /// Path evaluation as it was before single-start frontiers skipped
    /// deduplication: every frontier and every step's targets go
    /// through `dedup_in_order`.
    fn reference_eval_many(path: &PathExpr, store: &OemStore, starts: &[Oid]) -> Vec<Oid> {
        let mut frontier: Vec<Oid> = dedup_in_order(starts.iter().copied());
        for step in path.steps() {
            frontier = match step {
                PathStep::Label(name) => match store.labels().get(name) {
                    Some(label) => dedup_in_order(frontier.iter().flat_map(|&o| {
                        store
                            .edges_of(o)
                            .iter()
                            .filter(move |e| e.label == label)
                            .map(|e| e.target)
                    })),
                    None => Vec::new(),
                },
                other => apply_step(store, &frontier, other),
            };
            if frontier.is_empty() {
                break;
            }
        }
        frontier
    }

    const STEP_LABELS: [&str; 3] = ["a", "b", "missing"];

    fn random_step(kind: u8, which: u8) -> PathStep {
        let label = |i: u8| STEP_LABELS[i as usize % STEP_LABELS.len()].to_string();
        match kind % 4 {
            0 => PathStep::Label(label(which)),
            1 => PathStep::AnyOne,
            2 => PathStep::AnyPath,
            _ => PathStep::Alt(vec![label(which), label(which / 3 + 1)]),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every step kind, from one start and from several (repeats
        /// included), on graphs with shared targets, parallel labels
        /// and cycles, equals the all-dedup reference.
        #[test]
        fn eval_many_equals_the_dedup_reference(
            edges in proptest::collection::vec((0u8..12, 0u8..2, 0u8..12), 0..48),
            steps in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..4),
            starts in proptest::collection::vec(0u8..12, 1..4),
        ) {
            let mut db = OemStore::new();
            let oids: Vec<Oid> = (0..12).map(|_| db.new_complex()).collect();
            for (from, label, to) in edges {
                db.add_edge(oids[from as usize], STEP_LABELS[label as usize], oids[to as usize])
                    .unwrap();
            }
            let path = PathExpr::new(steps.iter().map(|&(k, w)| random_step(k, w)).collect());
            let starts: Vec<Oid> = starts.iter().map(|&s| oids[s as usize]).collect();
            prop_assert_eq!(
                path.eval_many(&db, &starts),
                reference_eval_many(&path, &db, &starts),
                "multi-start {}", path
            );
            prop_assert_eq!(
                path.eval(&db, starts[0]),
                reference_eval_many(&path, &db, &starts[..1]),
                "single start {}", path
            );
        }
    }

    /// root -Gene-> g1 -Symbol-> "TP53"
    ///      -Gene-> g2 -Symbol-> "BRCA1"
    ///      -Gene-> g2 (duplicate via second label path below)
    ///      -Pseudo-> g2
    fn sample() -> (OemStore, Oid) {
        let mut db = OemStore::new();
        let root = db.new_complex();
        let g1 = db.add_complex_child(root, "Gene").unwrap();
        db.add_atomic_child(g1, "Symbol", "TP53").unwrap();
        let g2 = db.add_complex_child(root, "Gene").unwrap();
        db.add_atomic_child(g2, "Symbol", "BRCA1").unwrap();
        db.add_edge(root, "Pseudo", g2).unwrap();
        (db, root)
    }

    #[test]
    fn parse_and_display_round_trip() {
        for s in ["Gene.Symbol", "#.Symbol", "Links.%", "(GO|Go).Term"] {
            let p = PathExpr::parse(s).unwrap();
            assert_eq!(p.to_string(), s);
        }
        assert!(PathExpr::parse("a..b").is_err());
        assert!(PathExpr::parse("(|)").is_err());
        assert!(PathExpr::parse("").unwrap().is_empty());
    }

    #[test]
    fn label_step_follows_only_that_label() {
        let (db, root) = sample();
        let genes = PathExpr::parse("Gene").unwrap().eval(&db, root);
        assert_eq!(genes.len(), 2);
        let pseudo = PathExpr::parse("Pseudo").unwrap().eval(&db, root);
        assert_eq!(pseudo.len(), 1);
    }

    #[test]
    fn multi_step_path_reaches_values() {
        let (db, root) = sample();
        let syms = PathExpr::parse("Gene.Symbol").unwrap().eval(&db, root);
        let texts: Vec<String> = syms
            .iter()
            .map(|&o| db.value_of(o).unwrap().as_text())
            .collect();
        assert_eq!(texts, vec!["TP53", "BRCA1"]);
    }

    #[test]
    fn missing_label_yields_empty_not_error() {
        let (db, root) = sample();
        assert!(PathExpr::parse("NoSuch.Symbol")
            .unwrap()
            .eval(&db, root)
            .is_empty());
    }

    #[test]
    fn any_one_matches_each_edge_once() {
        let (db, root) = sample();
        // g1, g2 (deduped: g2 reachable via Gene and Pseudo).
        let step = PathExpr::parse("%").unwrap().eval(&db, root);
        assert_eq!(step.len(), 2);
    }

    #[test]
    fn any_path_includes_start_and_handles_cycles() {
        let mut db = OemStore::new();
        let a = db.new_complex();
        let b = db.add_complex_child(a, "next").unwrap();
        db.add_edge(b, "next", a).unwrap();
        let all = PathExpr::parse("#").unwrap().eval(&db, a);
        assert_eq!(all.len(), 2);
        assert!(all.contains(&a));
        assert!(all.contains(&b));
    }

    #[test]
    fn any_path_then_label_finds_deep_values() {
        let (db, root) = sample();
        let syms = PathExpr::parse("#.Symbol").unwrap().eval(&db, root);
        assert_eq!(syms.len(), 2);
    }

    #[test]
    fn alternation_unions_labels() {
        let (db, root) = sample();
        let both = PathExpr::parse("(Gene|Pseudo)").unwrap().eval(&db, root);
        assert_eq!(both.len(), 2); // g1 and g2, deduped
    }

    #[test]
    fn empty_path_is_identity() {
        let (db, root) = sample();
        assert_eq!(PathExpr::default().eval(&db, root), vec![root]);
    }

    #[test]
    fn duplicate_starts_are_deduplicated() {
        let (db, root) = sample();
        let p = PathExpr::parse("Gene").unwrap();
        let r = p.eval_many(&db, &[root, root]);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn eval_from_atomic_object_is_empty_for_nonempty_path() {
        let mut db = OemStore::new();
        let a = db.new_atomic(AtomicValue::Int(1));
        assert!(PathExpr::parse("x").unwrap().eval(&db, a).is_empty());
        assert_eq!(PathExpr::default().eval(&db, a), vec![a]);
    }
}
