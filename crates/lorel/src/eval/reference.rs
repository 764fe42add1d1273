//! The answer construction the scan-free builder replaced, kept as the
//! reference it is checked against: edges added with set semantics by
//! scanning the source object's edge list, and every mutation recorded
//! in an op log that `apply_to` replays through [`OemStore::add_edge`].
//! The proptest below runs both over random stores and select lists.

use proptest::prelude::*;

use super::*;
use annoda_oem::{text as oem_text, Object, Snapshot};

#[derive(Debug, Clone)]
enum LoggedOp {
    NewComplex,
    NewAtomic(AtomicValue),
    AddEdge { from: Oid, label: String, to: Oid },
    SetName { name: String, oid: Oid },
}

/// An [`AnswerOverlay`] driven the old way, with its op log.
struct LoggedOverlay {
    overlay: AnswerOverlay,
    ops: Vec<LoggedOp>,
}

impl LoggedOverlay {
    fn for_base(base: &OemStore) -> Self {
        LoggedOverlay {
            overlay: AnswerOverlay::for_base(base),
            ops: Vec::new(),
        }
    }

    fn new_complex(&mut self) -> Oid {
        self.ops.push(LoggedOp::NewComplex);
        self.overlay.new_complex()
    }

    fn new_atomic(&mut self, value: AtomicValue) -> Oid {
        self.ops.push(LoggedOp::NewAtomic(value.clone()));
        self.overlay.new_atomic(value)
    }

    /// Set semantics by a scan of `from`'s edges.
    fn add_edge(
        &mut self,
        base: &OemStore,
        from: Oid,
        label: &str,
        to: Oid,
    ) -> Result<(), LorelError> {
        let present = self.overlay.get(from).is_some_and(|o| {
            o.edges()
                .iter()
                .any(|e| e.target == to && self.overlay.label_name(base, e.label) == label)
        });
        if !present {
            self.overlay
                .link(base, from, label, to)
                .map_err(|e| LorelError::eval(e.to_string()))?;
            self.ops.push(LoggedOp::AddEdge {
                from,
                label: label.to_string(),
                to,
            });
        }
        Ok(())
    }

    fn set_name_overwrite(&mut self, name: &str, oid: Oid) {
        self.overlay.set_name_overwrite(name, oid).unwrap();
        self.ops.push(LoggedOp::SetName {
            name: name.to_string(),
            oid,
        });
    }

    fn apply_to(&self, store: &mut OemStore) {
        for op in &self.ops {
            match op {
                LoggedOp::NewComplex => {
                    store.new_complex();
                }
                LoggedOp::NewAtomic(value) => {
                    store.new_atomic(value.clone());
                }
                LoggedOp::AddEdge { from, label, to } => {
                    store.add_edge(*from, label, *to).unwrap();
                }
                LoggedOp::SetName { name, oid } => store.set_name_overwrite(name, *oid).unwrap(),
            }
        }
    }
}

fn coerce(base: &OemStore, overlay: &mut LoggedOverlay, oid: Oid) -> Oid {
    if base.get(oid).is_some_and(|o| o.is_complex()) {
        let copy = overlay.new_complex();
        for e in base.edges_of(oid) {
            overlay
                .add_edge(base, copy, base.label_name(e.label), e.target)
                .expect("copying live edges");
        }
        copy
    } else {
        oid
    }
}

fn register(overlay: &mut LoggedOverlay, query: &Query, answer: Oid) {
    overlay.set_name_overwrite("answer", answer);
    if let Some(name) = &query.into_name {
        overlay.set_name_overwrite(name, answer);
    }
}

/// The former `materialize` and `materialize_grouped`.
fn reference_materialize(
    base: &OemStore,
    query: &Query,
    rows: Vec<Row>,
    functions: &FunctionRegistry,
) -> Result<(LoggedOverlay, QueryOutcome), LorelError> {
    let ctx = Ctx {
        default_var: &query.from[0].var,
        functions,
    };
    let mut overlay = LoggedOverlay::for_base(base);
    let answer = overlay.new_complex();
    let mut projected: Vec<(String, Vec<Oid>)> = query
        .select
        .iter()
        .map(|it| (it.label.clone(), Vec::new()))
        .collect();
    let mut order: Vec<String> = Vec::new();
    if let Some(gexpr) = &query.group_by {
        let mut groups: HashMap<String, Vec<Row>> = HashMap::new();
        for row in rows.iter() {
            let key = first_atom(base, gexpr, row, &ctx)
                .map(|v| v.as_text())
                .unwrap_or_else(|| "<null>".to_string());
            if !groups.contains_key(&key) {
                order.push(key.clone());
            }
            groups.entry(key).or_default().push(row.clone());
        }
        for key in &order {
            let group_rows = &groups[key];
            let group_obj = overlay.new_complex();
            overlay.add_edge(base, answer, "group", group_obj)?;
            let key_atom = overlay.new_atomic(AtomicValue::Str(key.clone()));
            overlay.add_edge(base, group_obj, "key", key_atom)?;
            for (idx, item) in query.select.iter().enumerate() {
                match &item.expr {
                    Expr::Aggregate(f, inner) => {
                        let mut oids: Vec<Oid> = Vec::new();
                        let mut seen: HashSet<Oid> = HashSet::new();
                        for row in group_rows {
                            if let Evaled::Oids(os) = evaluate_expr(base, inner, row, &ctx)? {
                                oids.extend(os.into_iter().filter(|&o| seen.insert(o)));
                            }
                        }
                        if let Evaled::Value(v) = aggregate(base, *f, &oids) {
                            let atom = overlay.new_atomic(v);
                            projected[idx].1.push(atom);
                            overlay.add_edge(base, group_obj, &item.label, atom)?;
                        }
                    }
                    other => match evaluate_expr(base, other, &group_rows[0], &ctx)? {
                        Evaled::Oids(oids) => {
                            for oid in oids {
                                let coerced = coerce(base, &mut overlay, oid);
                                projected[idx].1.push(oid);
                                overlay.add_edge(base, group_obj, &item.label, coerced)?;
                            }
                        }
                        Evaled::Value(v) => {
                            let atom = overlay.new_atomic(v);
                            projected[idx].1.push(atom);
                            overlay.add_edge(base, group_obj, &item.label, atom)?;
                        }
                        Evaled::None => {}
                    },
                }
            }
        }
    } else {
        let mut memo: Vec<HashMap<Oid, Oid>> = vec![HashMap::new(); query.select.len()];
        for row in &rows {
            for (idx, item) in query.select.iter().enumerate() {
                match evaluate_expr(base, &item.expr, row, &ctx)? {
                    Evaled::Oids(oids) => {
                        for oid in oids {
                            if memo[idx].contains_key(&oid) {
                                continue;
                            }
                            let coerced = coerce(base, &mut overlay, oid);
                            memo[idx].insert(oid, coerced);
                            projected[idx].1.push(oid);
                            overlay.add_edge(base, answer, &item.label, coerced)?;
                        }
                    }
                    Evaled::Value(v) => {
                        let atom = overlay.new_atomic(v);
                        projected[idx].1.push(atom);
                        overlay.add_edge(base, answer, &item.label, atom)?;
                    }
                    Evaled::None => {}
                }
            }
        }
    }
    register(&mut overlay, query, answer);
    Ok((
        overlay,
        QueryOutcome {
            answer,
            rows,
            projected,
            groups: order,
        },
    ))
}

/// Everything a store holds: objects, the label table in id order, and
/// the names — all `encode_store` and a rendering can see.
fn image(store: &OemStore) -> (Vec<Object>, Vec<String>, Vec<(String, Oid)>) {
    (
        store
            .oids()
            .map(|o| store.get(o).unwrap().clone())
            .collect(),
        store.labels().iter().map(|(_, n)| n.to_string()).collect(),
        store.names().map(|(n, o)| (n.to_string(), o)).collect(),
    )
}

/// Genes with a symbol, an organism, an id, aliases drawn from a shared
/// pool of atoms (so rows and items meet the same oid), and now and
/// then a complex `Omim` child and a `Link` to another gene.
fn random_store(genes: &[(u8, u8, u8)]) -> OemStore {
    let mut db = OemStore::new();
    let root = db.new_complex();
    let pool: Vec<Oid> = (0..4).map(|i| db.new_atomic(format!("alias{i}"))).collect();
    let mut made = Vec::new();
    for (i, &(org, aliases, extra)) in genes.iter().enumerate() {
        let g = db.add_complex_child(root, "Gene").unwrap();
        db.add_atomic_child(g, "Symbol", format!("S{i}")).unwrap();
        db.add_atomic_child(g, "Org", ["human", "mouse"][org as usize % 2])
            .unwrap();
        db.add_atomic_child(g, "Id", AtomicValue::Int(i as i64))
            .unwrap();
        for a in 0..aliases % 4 {
            db.add_edge(g, "Alias", pool[(a as usize + extra as usize) % pool.len()])
                .unwrap();
        }
        if extra % 3 == 0 {
            let d = db.add_complex_child(g, "Omim").unwrap();
            db.add_atomic_child(d, "Title", format!("T{}", extra % 5))
                .unwrap();
        }
        if let Some(&other) = made.get(extra as usize % (made.len() + 1)) {
            db.add_edge(g, "Link", other).unwrap();
        }
        made.push(g);
    }
    db.set_name("R", root).unwrap();
    db
}

/// Select items: complex and atomic selections, multi-valued paths,
/// literals, aggregates and a function call.
const ITEMS: [&str; 11] = [
    "G",
    "G.Symbol",
    "G.Alias",
    "G.Omim",
    "G.Omim.Title",
    "G.Link",
    "count(G.Alias)",
    "sum(G.Id)",
    "\"lit\"",
    "7",
    "upper(G.Symbol)",
];

/// Labels an item may be renamed to, so labels repeat across items.
const RENAMES: [&str; 3] = ["a", "b", "Symbol"];

fn query_text(items: &[(u8, u8)], shape: u8) -> String {
    let select: Vec<String> = items
        .iter()
        .map(|&(item, rename)| {
            let expr = ITEMS[item as usize % ITEMS.len()];
            match RENAMES.get(rename as usize % 5) {
                Some(label) => format!("{expr} as {label}"),
                None => expr.to_string(),
            }
        })
        .collect();
    let from = if shape & 1 == 0 {
        "R.Gene G"
    } else {
        "R.Gene G, G.Alias A"
    };
    let into = if shape & 2 == 0 { "" } else { " into Saved" };
    let group = if shape & 4 == 0 {
        ""
    } else {
        " group by G.Org"
    };
    format!("select {}{into} from {from}{group}", select.join(", "))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The builder's answer equals the scanning, op-logged reference:
    /// same outcome, same objects, same rendering, and the same store
    /// after replaying onto the base.
    #[test]
    fn answers_equal_the_scanning_op_log_reference(
        genes in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 0..7),
        items in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..5),
        shape in 0u8..8,
    ) {
        let base = random_store(&genes);
        let text = query_text(&items, shape);
        let functions = FunctionRegistry::standard();
        let query = parse(&text).expect("generated queries parse");
        let (rows, _) = eval_rows_planned(&base, &query, functions).expect("generated queries evaluate");
        let (reference, expected) = reference_materialize(&base, &query, rows.clone(), functions)
            .expect("the reference builds");
        let (overlay, outcome) = materialize(&base, &query, rows, functions).expect("the builder builds");

        prop_assert_eq!(outcome.answer, expected.answer);
        prop_assert_eq!(&outcome.rows, &expected.rows);
        prop_assert_eq!(&outcome.projected, &expected.projected, "{}", &text);
        prop_assert_eq!(&outcome.groups, &expected.groups);
        prop_assert_eq!(overlay.len(), reference.overlay.len(), "{}", &text);
        for i in 0..overlay.len() {
            let oid = Oid::from_index(base.len() + i);
            prop_assert_eq!(overlay.get(oid), reference.overlay.get(oid), "{}", &text);
        }
        let view = Snapshot::new(&base, overlay.clone()).unwrap();
        let reference_view = Snapshot::new(&base, reference.overlay.clone()).unwrap();
        prop_assert_eq!(
            oem_text::write_rooted(&view, "answer", outcome.answer),
            oem_text::write_rooted(&reference_view, "answer", expected.answer)
        );

        let mut replayed = base.clone();
        overlay.apply_to(&mut replayed).unwrap();
        let mut logged = base.clone();
        reference.apply_to(&mut logged);
        prop_assert_eq!(image(&replayed), image(&logged), "{}", &text);
    }
}
