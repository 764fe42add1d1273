//! Planner equivalence oracle and `PlanExplain` behaviour.
//!
//! The planned evaluator ([`eval_rows`]) must be observationally
//! identical to the reference nested loop ([`eval_rows_naive`]): same
//! rows, same row order, same projected oids per select label, and
//! matching error behaviour — on structured query templates covering
//! every planner rewrite and on arbitrary query-shaped garbage. The
//! answer the overlay pipeline materialises over a shared store must
//! also render byte-identically to the in-place `&mut` answer.

use proptest::prelude::*;

use annoda_lorel::{
    eval_rows, eval_rows_explained, eval_rows_naive, parse, project_row,
    run_query_snapshot_explained, run_query_with, AccessPath, FunctionRegistry, Projected, Query,
    Row,
};
use annoda_oem::{text as oem_text, AtomicValue, OemStore, Oid, Snapshot};

/// Genes with an integer `Id`, a unique `Symbol`, a low-cardinality
/// `Organism`, two `Alias` values (equal on every fifth gene), a `Code`
/// whose values spell 7 every way Lorel's equality can see — `Int 7`,
/// `Real 7.0`, `Str "7"`, `Str "07"`, `Str " 7"`, `Url "7"` — or are the
/// gene's `Id` or a 16-digit integer, and an `Omim` child on every third
/// gene — enough shape for pushdown, joins, multi-valued seeks,
/// integer-spelled keys, and selectivity differences.
fn annotated_store(n: usize) -> OemStore {
    let mut db = OemStore::new();
    let root = db.new_complex();
    for i in 0..n {
        let g = db.add_complex_child(root, "Gene").unwrap();
        db.add_atomic_child(g, "Id", AtomicValue::Int(i as i64))
            .unwrap();
        db.add_atomic_child(g, "Symbol", format!("G{i}")).unwrap();
        db.add_atomic_child(g, "Organism", ["human", "mouse", "fly"][i % 3])
            .unwrap();
        for alias in [i % 5, i * 2 % 5] {
            db.add_atomic_child(g, "Alias", format!("a{alias}"))
                .unwrap();
        }
        let code = match i % 8 {
            0 => AtomicValue::Int(7),
            1 => AtomicValue::Real(7.0),
            2 => AtomicValue::Str("7".into()),
            3 => AtomicValue::Str("07".into()),
            4 => AtomicValue::Str(" 7".into()),
            5 => AtomicValue::Url("7".into()),
            6 => AtomicValue::Int(i as i64),
            _ => AtomicValue::Int(1_234_567_890_123_456),
        };
        db.add_atomic_child(g, "Code", code).unwrap();
        if i % 3 == 0 {
            let d = db.add_complex_child(g, "Omim").unwrap();
            db.add_atomic_child(d, "Title", format!("T{i}")).unwrap();
        }
    }
    db.set_name("R", root).unwrap();
    db
}

const TEMPLATES: usize = 34;

/// Query templates, each exercising a planner feature: index pushdown
/// (0, 1, 2, 10), residual predicates (1, 10), joins over dependent
/// variables (2, 8), reordering of independent variables (3, 11),
/// negation (4), numeric equality — filter-only, no index (5), the
/// relative-path head fallback (6), var-to-var predicates with ordering
/// (7), disjunction (9), a range filter alone (12) and over a dependent
/// join (13), and ordering with no filter (14). Then the bind-join
/// disjunction seek: 1, 2 and 64 keys (15–17), a multi-valued attribute
/// whose parents sit in two probed buckets (18), a repeated key and an
/// absent one (19), a disjunction joined by `and` to another equality
/// (20) — and the shapes that must scan instead: mixed attributes (21),
/// a numeric literal (22), and a dependent variable (23). Then the
/// prefix-`like` seek (24), chosen over a bigger equality bucket it is
/// `and`-joined to (25), on a multi-valued attribute whose second value
/// may carry the prefix (26); the integer-spelled key `"7"` over a mixed
/// attribute (27) and in a disjunction with the literal on either side
/// (28) — and the shapes that must scan: `like "%x%"` (29), a `_` in the
/// prefix (30), `like "%"` (31), a 16-digit key (32), and a key with a
/// leading zero (33), which equals `Int 7` under a text it does not name.
fn template(tmpl: usize, k: usize, t: i64) -> String {
    match tmpl % TEMPLATES {
        0 => format!(r#"select G.Symbol from R.Gene G where G.Symbol = "G{k}""#),
        1 => format!(r#"select G from R.Gene G where G.Symbol = "G{k}" and G.Id < {t}"#),
        2 => format!(r#"select G.Symbol, D.Title from R.Gene G, G.Omim D where G.Symbol = "G{k}""#),
        3 => format!(
            r#"select G.Symbol, H.Id from R.Gene G, R.Gene H where G.Id < {t} and H.Symbol = "G{k}""#
        ),
        4 => "select G from R.Gene G where not exists G.Omim".to_string(),
        5 => format!("select G from R.Gene G where G.Id = {t}"),
        6 => format!(r#"select G from R.Gene G where Symbol = "G{k}""#),
        7 => "select G.Symbol from R.Gene G, R.Gene H where G.Symbol = H.Symbol \
              order by G.Id desc"
            .to_string(),
        8 => "select D.Title from R.Gene G, G.Omim D".to_string(),
        9 => format!(r#"select G from R.Gene G where G.Symbol = "G{k}" or G.Id < {t}"#),
        10 => format!(r#"select G.Id from R.Gene G where G.Organism = "human" and G.Id < {t}"#),
        11 => format!(
            r#"select G.Id, H.Id from R.Gene G, R.Gene H where G.Organism = "mouse" and H.Symbol = "G{k}" and G.Id < H.Id"#
        ),
        12 => format!(r#"select G from R.Gene G where G.Id < {t}"#),
        13 => format!(r#"select G.Symbol, D.Title from R.Gene G, G.Omim D where G.Id < {t}"#),
        15 => format!(r#"select G.Id from R.Gene G where (G.Symbol = "G{k}")"#),
        16 => format!(r#"select G.Id from R.Gene G where G.Symbol = "G{k}" or G.Symbol = "G{t}""#),
        17 => {
            let keys: Vec<String> = (0..64)
                .map(|j| format!(r#"G.Symbol = "G{}""#, (k + 7 * j) % 30))
                .collect();
            format!("select G.Id from R.Gene G where ({})", keys.join(" or "))
        }
        18 => format!(
            r#"select G from R.Gene G where G.Alias = "a{}" or G.Alias = "a{}""#,
            k % 5,
            t % 5
        ),
        19 => format!(
            r#"select G.Id from R.Gene G where G.Symbol = "G{k}" or G.Symbol = "NOPE" or G.Symbol = "G{k}""#
        ),
        20 => format!(
            r#"select G.Symbol from R.Gene G where (G.Symbol = "G{k}" or G.Symbol = "G{t}") and G.Organism = "human""#
        ),
        21 => format!(r#"select G from R.Gene G where G.Symbol = "G{k}" or G.Organism = "fly""#),
        22 => format!(r#"select G from R.Gene G where G.Symbol = "G{k}" or G.Symbol = {t}"#),
        23 => format!(
            r#"select G.Symbol, D.Title from R.Gene G, G.Omim D where D.Title = "T{k}" or D.Title = "T{t}""#
        ),
        24 => format!(r#"select G.Id from R.Gene G where G.Symbol like "G{k}%""#),
        25 => format!(
            r#"select G.Symbol from R.Gene G where G.Organism = "human" and G.Symbol like "G1{}%""#,
            k % 10
        ),
        26 => format!(r#"select G from R.Gene G where G.Alias like "a{}%""#, k % 5),
        27 => r#"select G from R.Gene G where G.Code = "7""#.to_string(),
        28 => format!(r#"select G.Id from R.Gene G where "1{t}" = G.Code or G.Code = "7""#),
        29 => format!(r#"select G.Id from R.Gene G where G.Symbol like "%{k}%""#),
        30 => format!(r#"select G.Id from R.Gene G where G.Symbol like "G_{k}%""#),
        31 => r#"select G.Id from R.Gene G where G.Symbol like "%""#.to_string(),
        32 => r#"select G.Id from R.Gene G where G.Code = "1234567890123456""#.to_string(),
        33 => r#"select G.Id from R.Gene G where G.Code = "07""#.to_string(),
        // 14
        _ => "select G.Symbol from R.Gene G order by G.Id desc".to_string(),
    }
}

/// Whether a template's plan seeds a variable from the value index: a
/// conjunct equating a root-anchored variable's attribute to a
/// non-numeric or integer-spelled string, a disjunction of such over one
/// variable and attribute, or a `like` with a literal prefix.
fn seeks(tmpl: usize) -> bool {
    matches!(tmpl % TEMPLATES, 0..=3 | 10 | 11 | 15..=20 | 24..=28)
}

/// Per select label: the original result oids, deduplicated by oid in
/// first-produced order — the projection identity `eval` materialises.
fn projected_oids(store: &OemStore, query: &Query, rows: &[Row]) -> Vec<(String, Vec<Oid>)> {
    let mut out: Vec<(String, Vec<Oid>)> = query
        .select
        .iter()
        .map(|s| (s.label.clone(), Vec::new()))
        .collect();
    let mut seen: Vec<std::collections::HashSet<Oid>> = vec![Default::default(); out.len()];
    for row in rows {
        for (idx, (_, values)) in project_row(store, query, row)
            .expect("templates project cleanly")
            .into_iter()
            .enumerate()
        {
            for v in values {
                if let Projected::Obj(oid) = v {
                    if seen[idx].insert(oid) {
                        out[idx].1.push(oid);
                    }
                }
            }
        }
    }
    out
}

/// Query-shaped garbage (same shape as `props.rs`): tokens that parse
/// often enough to reach the evaluator.
fn query_shaped() -> impl Strategy<Value = String> {
    let token = prop_oneof![
        Just("select".to_string()),
        Just("from".to_string()),
        Just("where".to_string()),
        Just("and".to_string()),
        Just("or".to_string()),
        Just("not".to_string()),
        Just("exists".to_string()),
        Just("order".to_string()),
        Just("by".to_string()),
        Just("count".to_string()),
        Just("like".to_string()),
        Just("R".to_string()),
        Just("G".to_string()),
        Just("Gene".to_string()),
        Just("x".to_string()),
        Just("x.y".to_string()),
        Just("G.Symbol".to_string()),
        Just("\"G1\"".to_string()),
        Just("\"lit\"".to_string()),
        Just("42".to_string()),
        Just("(".to_string()),
        Just(")".to_string()),
        Just(",".to_string()),
        Just("=".to_string()),
        Just("<".to_string()),
        Just("%".to_string()),
        Just("#".to_string()),
        Just(".".to_string()),
    ];
    proptest::collection::vec(token, 0..12).prop_map(|v| v.join(" "))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn planned_rows_and_projections_equal_naive(
        tmpl in 0usize..TEMPLATES,
        k in 0usize..24,
        t in 0i64..24,
        n in 1usize..24,
    ) {
        let store = annotated_store(n);
        let text = template(tmpl, k, t);
        let query = parse(&text).expect("templates parse");
        let (planned, explain) = eval_rows_explained(&store, &query).expect("templates evaluate");
        let naive = eval_rows_naive(&store, &query).expect("templates evaluate");
        prop_assert_eq!(&planned, &naive, "rows diverge for `{}`", text);
        prop_assert_eq!(explain.index_backed(), seeks(tmpl), "access path of `{}`", text);
        prop_assert_eq!(
            projected_oids(&store, &query, &planned),
            projected_oids(&store, &query, &naive),
            "projected oids diverge for `{}`",
            text
        );
    }

    /// Answer-shape equivalence: the overlay produced over a shared
    /// store renders byte-identically to the answer the `&mut`
    /// evaluator writes into the store — same oids in the `&N`
    /// references, same label order, same values.
    #[test]
    fn overlay_answer_renders_identically(
        tmpl in 0usize..TEMPLATES,
        k in 0usize..24,
        t in 0i64..24,
        n in 1usize..24,
    ) {
        let store = annotated_store(n);
        let text = template(tmpl, k, t);
        let functions = FunctionRegistry::default();

        let mut mutated = store.clone();
        let in_place = run_query_with(&mut mutated, &text, &functions).expect("templates evaluate");
        let in_place_text = oem_text::write_rooted(&mutated, "answer", in_place.answer);

        let (overlay, shared, _) =
            run_query_snapshot_explained(&store, &text, &functions).expect("same query");
        let view = Snapshot::new(&store, overlay).expect("overlay fits its base");
        let shared_text = oem_text::write_rooted(&view, "answer", shared.answer);

        prop_assert_eq!(in_place.answer, shared.answer, "answer oid diverges for `{}`", &text);
        prop_assert_eq!(&in_place.rows, &shared.rows, "bound rows diverge for `{}`", &text);
        prop_assert_eq!(in_place_text, shared_text, "renders diverge for `{}`", &text);
    }

    #[test]
    fn planned_equals_naive_on_query_shaped_garbage(input in query_shaped()) {
        if let Ok(query) = parse(&input) {
            let store = annotated_store(7);
            let planned = eval_rows(&store, &query);
            let naive = eval_rows_naive(&store, &query);
            match (planned, naive) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "rows diverge for `{}`", input),
                (Err(_), Err(_)) => {}
                (a, b) => prop_assert!(
                    false,
                    "error behaviour diverges for `{}`: planned {:?} vs naive {:?}",
                    input, a.is_ok(), b.is_ok()
                ),
            }
        }
    }
}

/// `(k, t, n)` arguments the pinned probe counts were taken at.
const PROBE_CASES: [(usize, i64, usize); 3] = [(3, 10, 24), (0, 0, 1), (17, 5, 23)];

/// Per template and probe case: `(bindings_enumerated,
/// predicate_evaluations, rows_emitted)` as the binding loop counted
/// them before it stopped allocating per probe. `/lorel` reports
/// `bindings_enumerated`, and probes per row divide by it.
const PINNED_PROBES: [[(u64, u64, u64); 3]; TEMPLATES] = [
    [(1, 1, 1), (1, 1, 1), (1, 1, 1)],
    [(1, 2, 1), (1, 2, 0), (1, 2, 0)],
    [(2, 1, 1), (2, 1, 1), (1, 1, 0)],
    [(25, 25, 10), (1, 1, 0), (24, 24, 5)],
    [(24, 24, 16), (1, 1, 0), (23, 23, 15)],
    [(24, 24, 1), (1, 1, 1), (23, 23, 1)],
    [(24, 24, 1), (1, 1, 1), (23, 23, 1)],
    [(600, 576, 24), (2, 1, 1), (552, 529, 23)],
    [(32, 0, 8), (2, 0, 1), (31, 0, 8)],
    [(24, 24, 10), (1, 1, 1), (23, 23, 6)],
    [(8, 16, 4), (1, 2, 0), (8, 16, 2)],
    [(25, 33, 1), (0, 0, 0), (24, 32, 6)],
    [(24, 24, 10), (1, 1, 0), (23, 23, 5)],
    [(28, 24, 4), (1, 1, 0), (25, 23, 2)],
    [(24, 0, 24), (1, 0, 1), (23, 0, 23)],
    [(1, 1, 1), (1, 1, 1), (1, 1, 1)],
    [(2, 2, 2), (1, 1, 1), (2, 2, 2)],
    [(24, 24, 24), (1, 1, 1), (23, 23, 23)],
    [(14, 14, 14), (1, 1, 1), (15, 15, 15)],
    [(1, 1, 1), (1, 1, 1), (1, 1, 1)],
    [(2, 4, 1), (1, 2, 1), (2, 4, 0)],
    [(24, 24, 9), (1, 1, 1), (23, 23, 7)],
    [(24, 24, 1), (1, 1, 1), (23, 23, 1)],
    [(32, 8, 1), (2, 1, 1), (31, 8, 0)],
    [(1, 1, 1), (1, 1, 1), (1, 1, 1)],
    [(1, 1, 0), (0, 0, 0), (1, 1, 0)],
    [(9, 9, 9), (1, 1, 1), (10, 10, 10)],
    [(12, 12, 12), (1, 1, 1), (12, 12, 12)],
    [(12, 12, 12), (1, 1, 1), (12, 12, 12)],
    [(24, 24, 3), (1, 1, 1), (23, 23, 1)],
    [(24, 24, 2), (1, 1, 0), (23, 23, 0)],
    [(24, 24, 24), (1, 1, 1), (23, 23, 23)],
    [(24, 24, 3), (1, 1, 0), (23, 23, 2)],
    [(24, 24, 9), (1, 1, 1), (23, 23, 9)],
];

/// Pinned: every template's probe counters are the ones recorded above.
#[test]
fn probe_counters_are_pinned_for_every_template() {
    for (tmpl, pinned) in PINNED_PROBES.iter().enumerate() {
        for (&(k, t, n), &(bindings, predicates, rows)) in PROBE_CASES.iter().zip(pinned) {
            let text = template(tmpl, k, t);
            let query = parse(&text).expect("templates parse");
            let (_, explain) =
                eval_rows_explained(&annotated_store(n), &query).expect("templates evaluate");
            let probes = explain.probes;
            assert_eq!(
                (
                    probes.bindings_enumerated,
                    probes.predicate_evaluations,
                    probes.rows_emitted
                ),
                (bindings, predicates, rows),
                "probes of `{text}` at n = {n}"
            );
        }
    }
}

/// Pinned: a wide store on a join whose inner variable depends on the
/// outer, sorted afterwards — planned rows are the naive rows.
#[test]
fn wide_store_join_equals_naive() {
    let store = annotated_store(200);
    let query = parse(
        r#"select G.Symbol, D.Title from R.Gene G, G.Omim D where G.Id < 150 order by G.Symbol"#,
    )
    .unwrap();
    let naive = eval_rows_naive(&store, &query).unwrap();
    assert!(!naive.is_empty());
    assert_eq!(eval_rows(&store, &query).unwrap(), naive);
}

/// Pinned: an error raised inside the binding loop (an unregistered
/// function fails at eval time) is the error the naive evaluator
/// reports.
#[test]
fn planned_errors_match_naive_errors() {
    let store = annotated_store(64);
    let query = parse(r#"select G from R.Gene G where unknownfn(G.Symbol) = 3"#).unwrap();
    match (eval_rows_naive(&store, &query), eval_rows(&store, &query)) {
        (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
        (a, b) => panic!(
            "error behaviour diverges: naive ok={} planned ok={}",
            a.is_ok(),
            b.is_ok()
        ),
    }
}

// ----- PlanExplain unit behaviour -----------------------------------------

#[test]
fn explain_reports_index_seek_for_eligible_query() {
    let store = annotated_store(30);
    let query = parse(r#"select G from R.Gene G where G.Symbol = "G7""#).unwrap();
    let (rows, explain) = eval_rows_explained(&store, &query).unwrap();
    assert_eq!(rows.len(), 1);
    assert!(!explain.naive_fallback);
    assert!(explain.index_backed());
    match &explain.access {
        AccessPath::IndexSeek {
            var,
            attr,
            keys,
            candidates,
        } => {
            assert_eq!(var, "G");
            assert_eq!(attr, "Symbol");
            assert_eq!(keys, &["G7"]);
            assert_eq!(*candidates, 1);
        }
        AccessPath::Scan => panic!("expected an index seek"),
    }
    // The seek enumerates the bucket, not the entity set.
    assert_eq!(explain.probes.bindings_enumerated, 1);
    assert_eq!(explain.probes.rows_emitted, 1);
}

#[test]
fn explain_reports_every_probed_key_of_a_disjunction() {
    // The bind-join form: 64 keys out of scan order — seven present
    // genes, one of them probed twice, then 56 absent ones.
    let store = annotated_store(30);
    let keys: Vec<String> = ["G9", "G2", "G27", "G2", "G14", "G0", "G21", "G5"]
        .into_iter()
        .map(String::from)
        .chain((100..156).map(|i| format!("G{i}")))
        .collect();
    let disjunction: Vec<String> = keys
        .iter()
        .map(|k| format!(r#"G.Symbol = "{k}""#))
        .collect();
    let text = format!(
        "select G from R.Gene G where ({})",
        disjunction.join(" or ")
    );
    let query = parse(&text).unwrap();
    let (rows, explain) = eval_rows_explained(&store, &query).unwrap();
    assert_eq!(rows, eval_rows_naive(&store, &query).unwrap());
    match &explain.access {
        AccessPath::IndexSeek {
            keys: probed,
            candidates,
            ..
        } => {
            assert_eq!(probed, &keys, "every key, in query order");
            assert_eq!(*candidates, 7, "the union holds each parent once");
        }
        AccessPath::Scan => panic!("expected an index seek"),
    }
    assert_eq!(explain.probes.bindings_enumerated, 7);
    assert_eq!(rows.len(), 7);
}

#[test]
fn explain_reports_scan_for_numeric_equality() {
    // Numeric keys coerce ("7" == 7.0) so the text index cannot serve
    // them: the planner scans but still filters at binding depth.
    let store = annotated_store(30);
    let query = parse("select G from R.Gene G where G.Id = 7").unwrap();
    let (rows, explain) = eval_rows_explained(&store, &query).unwrap();
    assert_eq!(rows.len(), 1);
    assert!(!explain.naive_fallback);
    assert!(matches!(explain.access, AccessPath::Scan));
    assert_eq!(explain.probes.bindings_enumerated, 30);
    assert_eq!(explain.predicates_at_depth, vec![1]);
}

#[test]
fn explain_prefers_the_smaller_prefix_range() {
    // Each organism bucket holds 20 of the 60 genes; the prefix range
    // holds G1 and G10–G19, so the prefix seeds, reported as written.
    let store = annotated_store(60);
    let query =
        parse(r#"select G from R.Gene G where G.Organism = "mouse" and G.Symbol like "G1%""#)
            .unwrap();
    let (rows, explain) = eval_rows_explained(&store, &query).unwrap();
    assert_eq!(rows, eval_rows_naive(&store, &query).unwrap());
    match &explain.access {
        AccessPath::IndexSeek {
            attr,
            keys,
            candidates,
            ..
        } => {
            assert_eq!(attr, "Symbol");
            assert_eq!(keys, &["G1%"]);
            assert_eq!(*candidates, 11);
        }
        AccessPath::Scan => panic!("expected an index seek"),
    }
    // The mouse genes among them: G1, G10, G13, G16, G19.
    assert_eq!(rows.len(), 5);
}

#[test]
fn integer_spelled_key_probes_its_real_spelling_too() {
    // `Int 7`, `Real 7.0`, `Str "7"` and `Url "7"` equal the key;
    // `"07"` and `" 7"` compare textually with it and do not.
    let store = annotated_store(16);
    let query = parse(r#"select G.Id from R.Gene G where G.Code = "7""#).unwrap();
    let (rows, explain) = eval_rows_explained(&store, &query).unwrap();
    assert_eq!(rows, eval_rows_naive(&store, &query).unwrap());
    assert_eq!(rows.len(), 8);
    match &explain.access {
        AccessPath::IndexSeek {
            keys, candidates, ..
        } => {
            assert_eq!(keys, &["7"], "the literal as written, not `7.0`");
            assert_eq!(*candidates, 8);
        }
        AccessPath::Scan => panic!("expected an index seek"),
    }
}

#[test]
fn explain_reports_fallback_for_duplicate_variables() {
    let store = annotated_store(5);
    let query = parse("select G from R.Gene G, R.Gene G").unwrap();
    let (rows, explain) = eval_rows_explained(&store, &query).unwrap();
    assert!(explain.naive_fallback);
    assert!(!explain.index_backed());
    assert_eq!(rows, eval_rows_naive(&store, &query).unwrap());
}

#[test]
fn selective_variable_binds_first_and_order_is_restored() {
    let store = annotated_store(30);
    let query =
        parse(r#"select G.Id, H.Id from R.Gene G, R.Gene H where H.Symbol = "G3" and G.Id < 5"#)
            .unwrap();
    let (rows, explain) = eval_rows_explained(&store, &query).unwrap();
    assert!(explain.reordered, "the seeded variable must bind first");
    assert_eq!(explain.bind_order, vec!["H".to_string(), "G".to_string()]);
    assert_eq!(explain.estimated_cardinality[0], 1, "index bucket estimate");
    // 1 seek candidate for H, then 30 G candidates under it.
    assert_eq!(explain.probes.bindings_enumerated, 31);
    // Rows come back in the naive (textual) order regardless.
    assert_eq!(rows, eval_rows_naive(&store, &query).unwrap());
}

#[test]
fn value_index_is_cached_on_the_store() {
    let store = annotated_store(20);
    assert_eq!(store.cached_index_count(), 0);
    let q1 = parse(r#"select G from R.Gene G where G.Symbol = "G1""#).unwrap();
    eval_rows(&store, &q1).unwrap();
    assert_eq!(store.cached_index_count(), 1);
    // A different key over the same (root, path, attribute) reuses it.
    let q2 = parse(r#"select G from R.Gene G where G.Symbol = "G2""#).unwrap();
    eval_rows(&store, &q2).unwrap();
    assert_eq!(store.cached_index_count(), 1);
    // A different attribute builds a second index.
    let q3 = parse(r#"select G from R.Gene G where G.Organism = "human""#).unwrap();
    eval_rows(&store, &q3).unwrap();
    assert_eq!(store.cached_index_count(), 2);
}

#[test]
fn mutation_invalidates_the_cached_plan_inputs() {
    let mut store = annotated_store(10);
    let query = parse(r#"select G from R.Gene G where G.Symbol = "G99""#).unwrap();
    assert_eq!(eval_rows(&store, &query).unwrap().len(), 0);
    assert!(store.cached_index_count() >= 1);
    // Grow the store: the stale index must not hide the new gene.
    let root = store.named("R").unwrap();
    let g = store.add_complex_child(root, "Gene").unwrap();
    store.add_atomic_child(g, "Symbol", "G99").unwrap();
    assert_eq!(store.cached_index_count(), 0, "mutation clears the cache");
    assert_eq!(eval_rows(&store, &query).unwrap().len(), 1);
}
