//! Query evaluation.
//!
//! Semantics follow Lorel:
//!
//! * the `from` clause binds each range variable to one object per row,
//!   nested-loop style, navigating path expressions from a store root or a
//!   previously bound variable;
//! * predicates over paths are **existentially quantified** — `S.Name =
//!   "LocusLink"` holds when *some* instance of `S.Name` equals the
//!   literal, with Lorel's cross-type coercion;
//! * every binding that passes `where` contributes the `select`
//!   expressions' values to the result;
//! * the result is a collection of OEM objects under a freshly created
//!   complex `answer` object, with **duplicate elimination by oid**;
//! * coercion of selected complex objects creates *new* objects whose
//!   references point at the original database objects — exactly how the
//!   paper's example produces the new object `&442` with references
//!   `SourceID &103, Name &104, …`. The new `answer` root re-binds the
//!   store's `answer` name, so "renaming is necessary so that answer is
//!   not overwritten" is honoured by [`annoda_oem::OemStore::set_name_overwrite`].

use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, LazyLock};
use std::time::Instant;

use annoda_oem::{AnswerOverlay, AtomicValue, OemRead, OemStore, Oid};

use crate::ast::{AggFn, CompOp, Cond, Expr, Query};
use crate::error::LorelError;
use crate::parser::parse;
use crate::plan::{PlanExplain, StageTimes};

/// A registered specialty evaluation function: takes the first atomic
/// instance of each argument (when present) and returns a value, or
/// `None` to signal "no value" (which makes enclosing predicates
/// false).
pub type LorelFn =
    std::sync::Arc<dyn Fn(&[Option<AtomicValue>]) -> Option<AtomicValue> + Send + Sync>;

/// Named specialty evaluation functions usable in queries.
#[derive(Default, Clone)]
pub struct FunctionRegistry {
    functions: HashMap<String, LorelFn>,
}

impl FunctionRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) a function.
    pub fn register(&mut self, name: &str, f: LorelFn) {
        self.functions.insert(name.to_string(), f);
    }

    /// Looks up a function by name.
    pub fn get(&self, name: &str) -> Option<&LorelFn> {
        self.functions.get(name)
    }

    /// Registered names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.functions.keys().cloned().collect();
        v.sort();
        v
    }

    /// The standard library: `strlen(s)`, `upper(s)`, `lower(s)`,
    /// `abs(n)` — small string/number helpers available to every ANNODA
    /// query surface. Built once per process and shared.
    pub fn standard() -> &'static Self {
        static STANDARD: LazyLock<FunctionRegistry> = LazyLock::new(|| {
            let mut reg = FunctionRegistry::new();
            let first = |args: &[Option<AtomicValue>]| args.first().and_then(|a| a.clone());
            reg.register(
                "strlen",
                Arc::new(move |args| {
                    first(args).map(|v| AtomicValue::Int(v.as_text().chars().count() as i64))
                }),
            );
            reg.register(
                "upper",
                Arc::new(move |args| {
                    first(args).map(|v| AtomicValue::Str(v.as_text().to_uppercase()))
                }),
            );
            reg.register(
                "lower",
                Arc::new(move |args| {
                    first(args).map(|v| AtomicValue::Str(v.as_text().to_lowercase()))
                }),
            );
            reg.register(
                "abs",
                Arc::new(move |args| {
                    first(args)
                        .and_then(|v| v.as_real())
                        .map(|n| AtomicValue::Real(n.abs()))
                }),
            );
            reg
        });
        &STANDARD
    }
}

impl std::fmt::Debug for FunctionRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FunctionRegistry")
            .field("names", &self.names())
            .finish()
    }
}

/// Shared evaluation context: the fallback variable for relative paths
/// plus the registered functions.
pub(crate) struct Ctx<'a> {
    pub(crate) default_var: &'a str,
    pub(crate) functions: &'a FunctionRegistry,
}

/// One passing variable assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    /// `(variable, bound object)` in `from`-clause order. Names are
    /// shared with the query's range variables, so binding one clones
    /// no string.
    pub bindings: Vec<(Arc<str>, Oid)>,
}

impl Row {
    /// The binding of `var`, if present.
    pub fn get(&self, var: &str) -> Option<Oid> {
        self.bindings
            .iter()
            .find(|(v, _)| &**v == var)
            .map(|&(_, o)| o)
    }
}

/// The range variables' names, shared by every row that binds them.
pub(crate) fn var_names(query: &Query) -> Vec<Arc<str>> {
    query
        .from
        .iter()
        .map(|f| Arc::from(f.var.as_str()))
        .collect()
}

/// The result of running a query.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The freshly created `answer` object (named `answer` in the store).
    pub answer: Oid,
    /// The passing rows, before projection.
    pub rows: Vec<Row>,
    /// Per select item: the item's label and the *original* result oids,
    /// duplicate-eliminated by oid in first-produced order.
    pub projected: Vec<(String, Vec<Oid>)>,
    /// The group keys, in group order, when the query had `group by`
    /// (empty otherwise). `answer` then holds one `group` object per key
    /// with the select items evaluated per group.
    pub groups: Vec<String>,
}

impl QueryOutcome {
    /// When the whole query produced exactly one result object, that
    /// object (the coerced copy reachable from `answer`). This is the
    /// paper's `&442` for the §4.1 example. Works over a plain store or
    /// a `base ⊕ overlay` [`annoda_oem::Snapshot`].
    pub fn sole_result<S: OemRead + ?Sized>(&self, store: &S) -> Option<Oid> {
        let edges = store.edges_of(self.answer);
        if edges.len() == 1 {
            Some(edges[0].target)
        } else {
            None
        }
    }

    /// Total number of result edges under `answer`.
    pub fn result_count<S: OemRead + ?Sized>(&self, store: &S) -> usize {
        store.edges_of(self.answer).len()
    }
}

/// Parses and evaluates `text` against `store`.
pub fn run_query(store: &mut OemStore, text: &str) -> Result<QueryOutcome, LorelError> {
    run_query_with(store, text, &FunctionRegistry::default())
}

/// [`run_query`] with registered specialty evaluation functions.
///
/// Internally this is the snapshot pipeline
/// ([`run_query_snapshot_explained`]) with the overlay replayed onto the
/// store — byte-identical (same oids, same label interning order, same
/// names) to the historical in-place evaluation.
pub fn run_query_with(
    store: &mut OemStore,
    text: &str,
    functions: &FunctionRegistry,
) -> Result<QueryOutcome, LorelError> {
    let (overlay, outcome, _) = run_query_snapshot_explained(store, text, functions)?;
    overlay
        .apply_to(store)
        .map_err(|e| LorelError::eval(e.to_string()))?;
    Ok(outcome)
}

/// One projected value: an existing object or a computed atomic value.
#[derive(Debug, Clone, PartialEq)]
pub enum Projected {
    /// A database object (original oid, not a coerced copy).
    Obj(Oid),
    /// A computed value (literal or aggregate) with no object identity.
    Val(AtomicValue),
}

/// Evaluates the query **without mutating the store**: returns the
/// passing rows only (sorted if the query orders). Wrappers and the
/// mediator use this to run subqueries against shared local models.
///
/// Execution goes through the [planner](crate::plan): eligible queries
/// use index-backed selection pushdown, filter-as-you-bind pruning, and
/// selectivity-driven binding order; anything the planner cannot prove
/// equivalent runs the naive nested loop. Both paths return identical
/// rows in identical order.
pub fn eval_rows(store: &OemStore, query: &Query) -> Result<Vec<Row>, LorelError> {
    eval_rows_explained(store, query).map(|(rows, _)| rows)
}

/// [`eval_rows`] that also reports what the planner did (access path,
/// binding order, probe counters) via a [`PlanExplain`].
pub fn eval_rows_explained(
    store: &OemStore,
    query: &Query,
) -> Result<(Vec<Row>, PlanExplain), LorelError> {
    eval_rows_planned(store, query, &FunctionRegistry::default())
}

/// The one planned evaluation path: plan, run the sequential binding
/// loop, sort; the naive loop when the planner declines.
fn eval_rows_planned(
    store: &OemStore,
    query: &Query,
    functions: &FunctionRegistry,
) -> Result<(Vec<Row>, PlanExplain), LorelError> {
    let Some(plan) = crate::plan::plan_query(store, query, functions) else {
        let rows = naive_rows(store, query, functions)?;
        return Ok((rows, PlanExplain::fallback(query)));
    };
    let (mut rows, explain) = plan.execute(store, query, functions)?;
    if !query.order_by.is_empty() {
        let ctx = Ctx {
            default_var: &query.from[0].var,
            functions,
        };
        sort_rows(store, query, &mut rows, &ctx);
    }
    Ok((rows, explain))
}

/// The reference evaluator: left-to-right nested-loop binding with the
/// full `where` clause checked per complete row, no planning. Kept
/// public as the equivalence oracle for planner tests and benchmarks.
pub fn eval_rows_naive(store: &OemStore, query: &Query) -> Result<Vec<Row>, LorelError> {
    naive_rows(store, query, &FunctionRegistry::default())
}

fn naive_rows(
    store: &OemStore,
    query: &Query,
    functions: &FunctionRegistry,
) -> Result<Vec<Row>, LorelError> {
    let ctx = Ctx {
        default_var: &query.from[0].var,
        functions,
    };
    let mut rows: Vec<Row> = Vec::new();
    let names = var_names(query);
    bind_from(store, query, &names, 0, &mut Vec::new(), &mut rows, &ctx)?;
    if !query.order_by.is_empty() {
        sort_rows(store, query, &mut rows, &ctx);
    }
    Ok(rows)
}

/// Projects one row through the query's select list without creating
/// objects. Each item yields its label and the instance values.
pub fn project_row(
    store: &OemStore,
    query: &Query,
    row: &Row,
) -> Result<Vec<(String, Vec<Projected>)>, LorelError> {
    let registry = FunctionRegistry::default();
    let ctx = Ctx {
        default_var: &query.from[0].var,
        functions: &registry,
    };
    let mut out = Vec::with_capacity(query.select.len());
    for item in &query.select {
        let values = match evaluate_expr(store, &item.expr, row, &ctx)? {
            Evaled::Oids(oids) => oids.into_iter().map(Projected::Obj).collect(),
            Evaled::Value(v) => vec![Projected::Val(v)],
            Evaled::None => Vec::new(),
        };
        out.push((item.label.clone(), values));
    }
    Ok(out)
}

/// Parses and evaluates `text` against a **shared, immutable** store:
/// the answer lands in the returned [`AnswerOverlay`] instead of the
/// store, so many queries can evaluate concurrently against one
/// `Arc<OemStore>` snapshot. Render or navigate the answer through an
/// [`annoda_oem::Snapshot`] built from the same base. Also reports the
/// planner's decisions and each stage's wall time
/// ([`PlanExplain::stages`]).
pub fn run_query_snapshot_explained(
    base: &OemStore,
    text: &str,
    functions: &FunctionRegistry,
) -> Result<(AnswerOverlay, QueryOutcome, PlanExplain), LorelError> {
    let started = Instant::now();
    let query = parse(text)?;
    let parsed = Instant::now();
    let (rows, mut explain) = eval_rows_planned(base, &query, functions)?;
    let evaluated = Instant::now();
    let (overlay, outcome) = materialize(base, &query, rows, functions)?;
    explain.stages = StageTimes {
        parse: parsed - started,
        eval: evaluated - parsed,
        materialize: evaluated.elapsed(),
    };
    Ok((overlay, outcome, explain))
}

/// An answer under construction: the overlay with its `answer` root,
/// the per-item projections, and what keeps each object's edge list a
/// set without scanning it. Every edge an answer adds is new by
/// construction — to an object just allocated, or to a base atom the
/// item has not produced for that object — except when two select items
/// share a label (`select G.Symbol, G.Symbol`): only those edges go
/// through `linked`.
struct AnswerBuilder<'q> {
    base: &'q OemStore,
    query: &'q Query,
    overlay: AnswerOverlay,
    answer: Oid,
    projected: Vec<(String, Vec<Oid>)>,
    /// Per select item: whether another item carries the same label.
    repeated: Vec<bool>,
    /// `(from, label, atom)` edges linked under a repeated label.
    linked: HashSet<(Oid, &'q str, Oid)>,
}

impl<'q> AnswerBuilder<'q> {
    fn new(base: &'q OemStore, query: &'q Query) -> Self {
        let mut overlay = AnswerOverlay::for_base(base);
        let answer = overlay.new_complex();
        let labels = || query.select.iter().map(|it| &it.label);
        AnswerBuilder {
            base,
            query,
            overlay,
            answer,
            projected: labels().map(|l| (l.clone(), Vec::new())).collect(),
            repeated: labels()
                .map(|a| labels().filter(|&b| b == a).count() > 1)
                .collect(),
            linked: HashSet::new(),
        }
    }

    fn link(&mut self, from: Oid, label: &str, to: Oid) -> Result<(), LorelError> {
        self.overlay
            .link(self.base, from, label, to)
            .map_err(|e| LorelError::eval(e.to_string()))
    }

    /// Adds a computed value of select item `idx` under `from`, as a
    /// fresh atom.
    fn add_value(&mut self, from: Oid, idx: usize, value: AtomicValue) -> Result<(), LorelError> {
        let atom = self.overlay.new_atomic(value);
        self.projected[idx].1.push(atom);
        self.link(from, &self.query.select[idx].label, atom)
    }

    /// Adds the selected object `oid` of select item `idx` under `from`,
    /// coerced: a complex object becomes a fresh copy whose references
    /// point at the original children (the paper's `&442`); an atom is
    /// referenced directly.
    fn add_result(&mut self, from: Oid, idx: usize, oid: Oid) -> Result<(), LorelError> {
        self.projected[idx].1.push(oid);
        let label = self.query.select[idx].label.as_str();
        if self.base.get(oid).is_some_and(|o| o.is_complex()) {
            let copy = self.overlay.new_copy(self.base, oid);
            self.link(from, label, copy)
        } else if !self.repeated[idx] || self.linked.insert((from, label, oid)) {
            self.link(from, label, oid)
        } else {
            Ok(())
        }
    }

    /// Binds the answer under `answer` (re-bound per query) and the
    /// query's `into` name, when given.
    fn finish(
        mut self,
        rows: Vec<Row>,
        groups: Vec<String>,
    ) -> Result<(AnswerOverlay, QueryOutcome), LorelError> {
        for name in std::iter::once("answer").chain(self.query.into_name.as_deref()) {
            self.overlay
                .set_name_overwrite(name, self.answer)
                .map_err(|e| LorelError::eval(e.to_string()))?;
        }
        let outcome = QueryOutcome {
            answer: self.answer,
            rows,
            projected: self.projected,
            groups,
        };
        Ok((self.overlay, outcome))
    }
}

/// The answer-materialization phase: projects `rows` through the select
/// list into a fresh [`AnswerOverlay`] above `base`'s high-water mark.
/// All reads stay on `base` (rows bind only base objects, and nothing
/// in the base can reference an overlay object), so this needs no
/// mutable store access. Linear in the rows and the answer's size.
fn materialize(
    base: &OemStore,
    query: &Query,
    rows: Vec<Row>,
    functions: &FunctionRegistry,
) -> Result<(AnswerOverlay, QueryOutcome), LorelError> {
    if query.group_by.is_some() {
        return materialize_grouped(base, query, rows, functions);
    }
    let ctx = Ctx {
        default_var: &query.from[0].var,
        functions,
    };
    let mut answer = AnswerBuilder::new(base, query);
    let root = answer.answer;
    // Per item: the original oids already projected (dedup by oid).
    let mut seen: Vec<HashSet<Oid>> = vec![HashSet::new(); query.select.len()];
    for row in &rows {
        for (idx, item) in query.select.iter().enumerate() {
            match evaluate_expr(base, &item.expr, row, &ctx)? {
                Evaled::Oids(oids) => {
                    for oid in oids {
                        if seen[idx].insert(oid) {
                            answer.add_result(root, idx, oid)?;
                        }
                    }
                }
                // Computed values (aggregates, literals) create a new
                // atomic object per row.
                Evaled::Value(v) => answer.add_value(root, idx, v)?,
                Evaled::None => {}
            }
        }
    }
    answer.finish(rows, Vec::new())
}

/// Grouped evaluation: rows with equal textual values of the `group by`
/// expression form one group; aggregate select items are computed over
/// the union of their argument's instances across the group's rows;
/// non-aggregate items are taken from the group's first row. The answer
/// holds one `group` object per key, carrying a `key` atom plus the
/// select items.
fn materialize_grouped(
    base: &OemStore,
    query: &Query,
    rows: Vec<Row>,
    functions: &FunctionRegistry,
) -> Result<(AnswerOverlay, QueryOutcome), LorelError> {
    let gexpr = query.group_by.as_ref().expect("caller checked");
    let ctx = Ctx {
        default_var: &query.from[0].var,
        functions,
    };

    // Partition rows by the textual group key, preserving first-seen
    // group order.
    let mut order: Vec<String> = Vec::new();
    let mut groups: HashMap<String, Vec<&Row>> = HashMap::new();
    for row in rows.iter() {
        let key = first_atom(base, gexpr, row, &ctx)
            .map(|v| v.as_text())
            .unwrap_or_else(|| "<null>".to_string());
        if !groups.contains_key(&key) {
            order.push(key.clone());
        }
        groups.entry(key).or_default().push(row);
    }

    let mut answer = AnswerBuilder::new(base, query);
    for key in &order {
        let group_rows = &groups[key];
        let group_obj = answer.overlay.new_complex();
        answer.link(answer.answer, "group", group_obj)?;
        let key_atom = answer.overlay.new_atomic(AtomicValue::Str(key.clone()));
        answer.link(group_obj, "key", key_atom)?;
        for (idx, item) in query.select.iter().enumerate() {
            match &item.expr {
                Expr::Aggregate(f, inner) => {
                    // Union of the argument's instances across the group.
                    let mut oids: Vec<Oid> = Vec::new();
                    let mut seen: HashSet<Oid> = HashSet::new();
                    for row in group_rows {
                        if let Evaled::Oids(os) = evaluate_expr(base, inner, row, &ctx)? {
                            for o in os {
                                if seen.insert(o) {
                                    oids.push(o);
                                }
                            }
                        }
                    }
                    if let Evaled::Value(v) = aggregate(base, *f, &oids) {
                        answer.add_value(group_obj, idx, v)?;
                    }
                }
                // Non-aggregate: representative values from the group's
                // first row.
                other => match evaluate_expr(base, other, group_rows[0], &ctx)? {
                    Evaled::Oids(oids) => {
                        for oid in oids {
                            answer.add_result(group_obj, idx, oid)?;
                        }
                    }
                    Evaled::Value(v) => answer.add_value(group_obj, idx, v)?,
                    Evaled::None => {}
                },
            }
        }
    }
    answer.finish(rows, order)
}

fn bind_from(
    store: &OemStore,
    query: &Query,
    names: &[Arc<str>],
    depth: usize,
    env: &mut Vec<(Arc<str>, Oid)>,
    rows: &mut Vec<Row>,
    ctx: &Ctx<'_>,
) -> Result<(), LorelError> {
    if depth == query.from.len() {
        let row = Row {
            bindings: env.clone(),
        };
        let keep = match &query.where_ {
            Some(cond) => eval_cond(store, cond, &row, ctx)?,
            None => true,
        };
        if keep {
            rows.push(row);
        }
        return Ok(());
    }
    let item = &query.from[depth];
    let start = resolve_head(store, &item.head, env)?;
    for c in item.path.eval(store, start) {
        env.push((Arc::clone(&names[depth]), c));
        bind_from(store, query, names, depth + 1, env, rows, ctx)?;
        env.pop();
    }
    Ok(())
}

/// Resolves a `from` item's head: bound variable first, then store root
/// name.
pub(crate) fn resolve_head(
    store: &OemStore,
    head: &str,
    env: &[(Arc<str>, Oid)],
) -> Result<Oid, LorelError> {
    env.iter()
        .rev()
        .find(|(v, _)| &**v == head)
        .map(|&(_, oid)| oid)
        .or_else(|| store.named(head))
        .ok_or_else(|| {
            LorelError::eval(format!(
                "`{head}` is neither a bound variable nor a named root"
            ))
        })
}

/// An evaluated expression: a set of objects, a computed value, or nothing.
enum Evaled {
    Oids(Vec<Oid>),
    Value(AtomicValue),
    None,
}

fn evaluate_expr(
    store: &OemStore,
    expr: &Expr,
    row: &Row,
    ctx: &Ctx<'_>,
) -> Result<Evaled, LorelError> {
    match expr {
        Expr::Literal(v) => Ok(Evaled::Value(v.clone())),
        Expr::Path { head, path } => {
            let (start, path) = resolve_path_head(store, head, path, row, ctx.default_var)?;
            Ok(Evaled::Oids(path.eval(store, start)))
        }
        Expr::Aggregate(f, inner) => {
            let oids = match evaluate_expr(store, inner, row, ctx)? {
                Evaled::Oids(o) => o,
                Evaled::Value(_) | Evaled::None => Vec::new(),
            };
            Ok(aggregate(store, *f, &oids))
        }
        Expr::Call { name, args } => {
            let f = ctx
                .functions
                .get(name)
                .ok_or_else(|| LorelError::eval(format!("unknown function `{name}`")))?;
            let mut arg_values: Vec<Option<AtomicValue>> = Vec::with_capacity(args.len());
            for a in args {
                let v = match evaluate_expr(store, a, row, ctx)? {
                    Evaled::Oids(oids) => oids.into_iter().find_map(|o| store.value_of(o).cloned()),
                    Evaled::Value(v) => Some(v),
                    Evaled::None => None,
                };
                arg_values.push(v);
            }
            Ok(match f(&arg_values) {
                Some(v) => Evaled::Value(v),
                None => Evaled::None,
            })
        }
    }
}

/// Resolves an expression path's head to its start object and the path
/// to walk from it.
fn resolve_path_head<'p>(
    store: &OemStore,
    head: &str,
    path: &'p annoda_oem::PathExpr,
    row: &Row,
    default_root_var: &str,
) -> Result<(Oid, Cow<'p, annoda_oem::PathExpr>), LorelError> {
    if let Some(oid) = row.get(head).or_else(|| store.named(head)) {
        return Ok((oid, Cow::Borrowed(path)));
    }
    // The paper writes `where Source.Name = …` with only `from ANNODA-GML`
    // in scope: an unknown head is treated as a label relative to the
    // first range variable, and the path is extended by it.
    if let Some(oid) = row.get(default_root_var) {
        let mut steps = vec![annoda_oem::PathStep::Label(head.to_string())];
        steps.extend(path.steps().iter().cloned());
        return Ok((oid, Cow::Owned(annoda_oem::PathExpr::new(steps))));
    }
    Err(LorelError::eval(format!(
        "cannot resolve path head `{head}`"
    )))
}

fn aggregate(store: &OemStore, f: AggFn, oids: &[Oid]) -> Evaled {
    match f {
        AggFn::Count => Evaled::Value(AtomicValue::Int(oids.len() as i64)),
        AggFn::Sum | AggFn::Avg => {
            let nums: Vec<f64> = oids
                .iter()
                .filter_map(|&o| store.value_of(o).and_then(|v| v.as_real()))
                .collect();
            if nums.is_empty() {
                return Evaled::None;
            }
            let sum: f64 = nums.iter().sum();
            let out = if f == AggFn::Sum {
                sum
            } else {
                sum / nums.len() as f64
            };
            if out.fract() == 0.0
                && f == AggFn::Sum
                && oids
                    .iter()
                    .all(|&o| matches!(store.value_of(o), Some(AtomicValue::Int(_))))
            {
                Evaled::Value(AtomicValue::Int(out as i64))
            } else {
                Evaled::Value(AtomicValue::Real(out))
            }
        }
        AggFn::Min | AggFn::Max => {
            let mut best: Option<&AtomicValue> = None;
            for &o in oids {
                let Some(v) = store.value_of(o) else { continue };
                best = Some(match best {
                    None => v,
                    Some(b) => match v.lorel_cmp(b) {
                        Some(Ordering::Less) if f == AggFn::Min => v,
                        Some(Ordering::Greater) if f == AggFn::Max => v,
                        _ => b,
                    },
                });
            }
            match best {
                Some(v) => Evaled::Value(v.clone()),
                None => Evaled::None,
            }
        }
    }
}

pub(crate) fn eval_cond(
    store: &OemStore,
    cond: &Cond,
    row: &Row,
    ctx: &Ctx<'_>,
) -> Result<bool, LorelError> {
    Ok(match cond {
        Cond::And(l, r) => eval_cond(store, l, row, ctx)? && eval_cond(store, r, row, ctx)?,
        Cond::Or(l, r) => eval_cond(store, l, row, ctx)? || eval_cond(store, r, row, ctx)?,
        Cond::Not(c) => !eval_cond(store, c, row, ctx)?,
        Cond::Exists(e) => match evaluate_expr(store, e, row, ctx)? {
            Evaled::Oids(o) => !o.is_empty(),
            Evaled::Value(_) => true,
            Evaled::None => false,
        },
        Cond::Cmp(l, op, r) => {
            let lv = operand_values(store, l, row, ctx)?;
            let rv = operand_values(store, r, row, ctx)?;
            exists_pair(store, &lv, &rv, *op)
        }
        Cond::In(l, r) => {
            let lv = operand_values(store, l, row, ctx)?;
            let rv = operand_values(store, r, row, ctx)?;
            lv.iter().any(|a| {
                rv.iter().any(|b| match (a, b) {
                    (Operand::Obj(x), Operand::Obj(y)) if x == y => true,
                    _ => match (operand_atom(store, a), operand_atom(store, b)) {
                        (Some(x), Some(y)) => x.lorel_eq(y),
                        _ => false,
                    },
                })
            })
        }
    })
}

/// A comparison operand instance: an object (possibly atomic) or a
/// computed value.
enum Operand {
    Obj(Oid),
    Val(AtomicValue),
}

fn operand_values(
    store: &OemStore,
    expr: &Expr,
    row: &Row,
    ctx: &Ctx<'_>,
) -> Result<Vec<Operand>, LorelError> {
    Ok(match evaluate_expr(store, expr, row, ctx)? {
        Evaled::Oids(oids) => oids.into_iter().map(Operand::Obj).collect(),
        Evaled::Value(v) => vec![Operand::Val(v)],
        Evaled::None => Vec::new(),
    })
}

fn operand_atom<'a>(store: &'a OemStore, op: &'a Operand) -> Option<&'a AtomicValue> {
    match op {
        Operand::Obj(o) => store.value_of(*o),
        Operand::Val(v) => Some(v),
    }
}

fn exists_pair(store: &OemStore, left: &[Operand], right: &[Operand], op: CompOp) -> bool {
    left.iter().any(|a| {
        right.iter().any(|b| {
            // Complex objects compare by oid for (in)equality only.
            if let (Operand::Obj(x), Operand::Obj(y)) = (a, b) {
                let xc = store.get(*x).is_some_and(|o| o.is_complex());
                let yc = store.get(*y).is_some_and(|o| o.is_complex());
                if xc || yc {
                    return match op {
                        CompOp::Eq => x == y,
                        CompOp::Ne => x != y,
                        _ => false,
                    };
                }
            }
            let (Some(va), Some(vb)) = (operand_atom(store, a), operand_atom(store, b)) else {
                return false;
            };
            match op {
                CompOp::Like => va.lorel_like(&vb.text()),
                _ => match va.lorel_cmp(vb) {
                    Some(ord) => match op {
                        CompOp::Eq => ord == Ordering::Equal,
                        CompOp::Ne => ord != Ordering::Equal,
                        CompOp::Lt => ord == Ordering::Less,
                        CompOp::Le => ord != Ordering::Greater,
                        CompOp::Gt => ord == Ordering::Greater,
                        CompOp::Ge => ord != Ordering::Less,
                        CompOp::Like => unreachable!("handled above"),
                    },
                    None => false,
                },
            }
        })
    })
}

fn sort_rows(store: &OemStore, query: &Query, rows: &mut [Row], ctx: &Ctx<'_>) {
    rows.sort_by(|ra, rb| {
        for key in &query.order_by {
            let va = first_atom(store, &key.expr, ra, ctx);
            let vb = first_atom(store, &key.expr, rb, ctx);
            let ord = match (va, vb) {
                (Some(a), Some(b)) => a.lorel_cmp(&b).unwrap_or(Ordering::Equal),
                (Some(_), None) => Ordering::Less,
                (None, Some(_)) => Ordering::Greater,
                (None, None) => Ordering::Equal,
            };
            let ord = if key.descending { ord.reverse() } else { ord };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    });
}

fn first_atom(store: &OemStore, expr: &Expr, row: &Row, ctx: &Ctx<'_>) -> Option<AtomicValue> {
    match evaluate_expr(store, expr, row, ctx).ok()? {
        Evaled::Oids(oids) => oids.into_iter().find_map(|o| store.value_of(o).cloned()),
        Evaled::Value(v) => Some(v),
        Evaled::None => None,
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the paper's ANNODA-GML fragment: sources with
    /// SourceID/Name/Content/Structure.
    fn gml_store() -> OemStore {
        let mut db = OemStore::new();
        let root = db.new_complex();
        for (id, name) in [(1, "LocusLink"), (2, "GO"), (3, "OMIM")] {
            let s = db.add_complex_child(root, "Source").unwrap();
            db.add_atomic_child(s, "SourceID", AtomicValue::Int(id))
                .unwrap();
            db.add_atomic_child(s, "Name", name).unwrap();
            db.add_atomic_child(s, "Content", format!("{name} annotation data"))
                .unwrap();
            db.add_atomic_child(s, "Structure", "semistructured")
                .unwrap();
        }
        db.set_name("ANNODA-GML", root).unwrap();
        db
    }

    fn gene_store() -> OemStore {
        let mut db = OemStore::new();
        let root = db.new_complex();
        for (sym, locus, omim) in [
            ("TP53", 7157, true),
            ("BRCA1", 672, true),
            ("EGFR", 1956, false),
        ] {
            let g = db.add_complex_child(root, "Gene").unwrap();
            db.add_atomic_child(g, "Symbol", sym).unwrap();
            db.add_atomic_child(g, "LocusID", AtomicValue::Int(locus))
                .unwrap();
            if omim {
                let d = db.add_complex_child(g, "Omim").unwrap();
                db.add_atomic_child(d, "Title", format!("{sym} disease"))
                    .unwrap();
            }
        }
        db.set_name("DB", root).unwrap();
        db
    }

    #[test]
    fn paper_query_canonical_form() {
        let mut db = gml_store();
        let out = run_query(
            &mut db,
            r#"select S from ANNODA-GML.Source S where S.Name = "LocusLink""#,
        )
        .unwrap();
        assert_eq!(out.rows.len(), 1);
        // The sole result is a NEW object (paper's &442)…
        let new_obj = out.sole_result(&db).unwrap();
        let original = out.projected[0].1[0];
        assert_ne!(new_obj, original, "coercion must create a new object");
        // …whose references point at the ORIGINAL children.
        assert_eq!(
            db.child(new_obj, "SourceID"),
            db.child(original, "SourceID")
        );
        assert_eq!(
            db.child_value(new_obj, "Name"),
            Some(&AtomicValue::Str("LocusLink".into()))
        );
        let labels: Vec<&str> = db
            .edges_of(new_obj)
            .iter()
            .map(|e| db.label_name(e.label))
            .collect();
        assert_eq!(labels, vec!["SourceID", "Name", "Content", "Structure"]);
    }

    #[test]
    fn paper_query_loose_form_with_relative_paths() {
        let mut db = gml_store();
        // `from ANNODA-GML` binds ANNODA-GML itself; `Source.Name` resolves
        // relative to it; X is not resolvable → we select the source via
        // the relative path too.
        let out = run_query(
            &mut db,
            r#"select Source from ANNODA-GML where Source.Name = "LocusLink""#,
        )
        .unwrap();
        // All three sources hang off the single binding, but the where
        // clause is existential over the row, so the row passes and select
        // projects all Source children. Lorel's loose form is weaker than
        // the canonical form — it returns every source of a GML that has a
        // LocusLink source.
        assert_eq!(out.rows.len(), 1);
        assert_eq!(out.projected[0].1.len(), 3);
    }

    #[test]
    fn answer_name_is_rebound_each_query() {
        let mut db = gml_store();
        let o1 = run_query(&mut db, "select S from ANNODA-GML.Source S").unwrap();
        assert_eq!(db.named("answer"), Some(o1.answer));
        let o2 = run_query(&mut db, "select S from ANNODA-GML.Source S").unwrap();
        assert_eq!(db.named("answer"), Some(o2.answer));
        assert_ne!(o1.answer, o2.answer);
        // The earlier answer object is still alive and reusable.
        assert_eq!(db.edges_of(o1.answer).len(), 3);
    }

    #[test]
    fn where_filters_with_coercion() {
        let mut db = gene_store();
        let out = run_query(
            &mut db,
            r#"select G.Symbol from DB.Gene G where G.LocusID = "7157""#,
        )
        .unwrap();
        assert_eq!(out.rows.len(), 1);
        let sym = out.projected[0].1[0];
        assert_eq!(db.value_of(sym), Some(&AtomicValue::Str("TP53".into())));
    }

    #[test]
    fn negation_expresses_the_figure5_question() {
        let mut db = gene_store();
        let out = run_query(
            &mut db,
            "select G.Symbol from DB.Gene G where not exists G.Omim",
        )
        .unwrap();
        assert_eq!(out.rows.len(), 1);
        assert_eq!(
            db.value_of(out.projected[0].1[0]),
            Some(&AtomicValue::Str("EGFR".into()))
        );
    }

    #[test]
    fn duplicate_elimination_is_by_oid() {
        let mut db = OemStore::new();
        let root = db.new_complex();
        let shared = db.new_atomic("x");
        let a = db.add_complex_child(root, "Item").unwrap();
        db.add_edge(a, "v", shared).unwrap();
        let b = db.add_complex_child(root, "Item").unwrap();
        db.add_edge(b, "v", shared).unwrap();
        // Two atoms with EQUAL VALUES but different oids stay distinct.
        let c = db.add_complex_child(root, "Item").unwrap();
        db.add_atomic_child(c, "v", "x").unwrap();
        db.set_name("R", root).unwrap();

        let mut db2 = db.clone();
        let out = run_query(&mut db2, "select I.v from R.Item I").unwrap();
        assert_eq!(
            out.projected[0].1.len(),
            2,
            "same oid collapses, equal value does not"
        );
    }

    #[test]
    fn joins_over_two_variables() {
        let mut db = gene_store();
        let out = run_query(
            &mut db,
            r#"select G.Symbol, D.Title from DB.Gene G, G.Omim D where G.Symbol like "%BRCA%""#,
        )
        .unwrap();
        assert_eq!(out.rows.len(), 1);
        assert_eq!(out.projected.len(), 2);
        assert_eq!(
            db.value_of(out.projected[1].1[0]),
            Some(&AtomicValue::Str("BRCA1 disease".into()))
        );
    }

    #[test]
    fn aggregates_count_sum_avg_min_max() {
        let mut db = gene_store();
        let out = run_query(&mut db, "select count(R.Gene) from DB R").unwrap();
        assert_eq!(
            db.value_of(out.projected[0].1[0]),
            Some(&AtomicValue::Int(3))
        );

        let out = run_query(&mut db, "select sum(R.Gene.LocusID) from DB R").unwrap();
        assert_eq!(
            db.value_of(out.projected[0].1[0]),
            Some(&AtomicValue::Int(7157 + 672 + 1956))
        );

        let out = run_query(&mut db, "select avg(R.Gene.LocusID) from DB R").unwrap();
        let v = db
            .value_of(out.projected[0].1[0])
            .unwrap()
            .as_real()
            .unwrap();
        assert!((v - (7157.0 + 672.0 + 1956.0) / 3.0).abs() < 1e-9);

        let out = run_query(
            &mut db,
            "select min(R.Gene.LocusID), max(R.Gene.LocusID) from DB R",
        )
        .unwrap();
        assert_eq!(
            db.value_of(out.projected[0].1[0]),
            Some(&AtomicValue::Int(672))
        );
        assert_eq!(
            db.value_of(out.projected[1].1[0]),
            Some(&AtomicValue::Int(7157))
        );
    }

    #[test]
    fn aggregate_in_where() {
        let mut db = gene_store();
        let out = run_query(
            &mut db,
            "select G.Symbol from DB.Gene G where count(G.Omim) = 0",
        )
        .unwrap();
        assert_eq!(out.rows.len(), 1);
    }

    #[test]
    fn order_by_sorts_rows() {
        let mut db = gene_store();
        let out = run_query(&mut db, "select G.Symbol from DB.Gene G order by G.Symbol").unwrap();
        let syms: Vec<String> = out.projected[0]
            .1
            .iter()
            .map(|&o| db.value_of(o).unwrap().as_text())
            .collect();
        assert_eq!(syms, vec!["BRCA1", "EGFR", "TP53"]);

        let out = run_query(
            &mut db,
            "select G.Symbol from DB.Gene G order by G.LocusID desc",
        )
        .unwrap();
        let syms: Vec<String> = out.projected[0]
            .1
            .iter()
            .map(|&o| db.value_of(o).unwrap().as_text())
            .collect();
        assert_eq!(syms, vec!["TP53", "EGFR", "BRCA1"]);
    }

    #[test]
    fn wildcard_paths_in_from() {
        let mut db = gene_store();
        let out = run_query(&mut db, "select X from DB.#.Title X").unwrap();
        assert_eq!(out.rows.len(), 2);
    }

    #[test]
    fn in_predicate_by_value() {
        let mut db = gene_store();
        let out = run_query(
            &mut db,
            r#"select G from DB.Gene G where "TP53" in G.Symbol"#,
        )
        .unwrap();
        assert_eq!(out.rows.len(), 1);
    }

    #[test]
    fn complex_objects_compare_by_oid() {
        let mut db = gene_store();
        let out = run_query(&mut db, "select G from DB.Gene G, DB.Gene H where G = H").unwrap();
        assert_eq!(out.rows.len(), 3, "each gene equals only itself");
    }

    #[test]
    fn unknown_root_is_an_eval_error() {
        let mut db = gene_store();
        assert!(matches!(
            run_query(&mut db, "select X from Nowhere.Gene X"),
            Err(LorelError::Eval(_))
        ));
    }

    #[test]
    fn empty_result_still_creates_answer() {
        let mut db = gene_store();
        let out = run_query(
            &mut db,
            r#"select G from DB.Gene G where G.Symbol = "NOPE""#,
        )
        .unwrap();
        assert_eq!(out.rows.len(), 0);
        assert_eq!(out.result_count(&db), 0);
        assert_eq!(db.named("answer"), Some(out.answer));
        assert!(out.sole_result(&db).is_none());
    }

    #[test]
    fn registered_functions_evaluate_in_queries() {
        use annoda_oem::AtomicType;
        let mut db = gene_store();
        let mut functions = FunctionRegistry::new();
        // A specialty function: length of the symbol string.
        functions.register(
            "strlen",
            std::sync::Arc::new(|args| {
                args.first()
                    .and_then(|a| a.as_ref())
                    .map(|v| AtomicValue::Int(v.as_text().chars().count() as i64))
            }),
        );
        // Another: concatenation of two arguments.
        functions.register(
            "concat",
            std::sync::Arc::new(|args| {
                let mut out = String::new();
                for a in args {
                    out.push_str(&a.as_ref()?.as_text());
                }
                Some(AtomicValue::Str(out))
            }),
        );
        let out = run_query_with(
            &mut db,
            "select G.Symbol, strlen(G.Symbol) as len from DB.Gene G \
             where strlen(G.Symbol) > 4 order by G.Symbol",
            &functions,
        )
        .unwrap();
        // TP53 has length 4 (excluded); BRCA1 and EGFR have 5 and 4…
        // BRCA1 = 5 chars, EGFR = 4, TP53 = 4 → only BRCA1 passes.
        assert_eq!(out.rows.len(), 1);
        assert_eq!(
            db.value_of(out.projected[0].1[0]),
            Some(&AtomicValue::Str("BRCA1".into()))
        );
        assert_eq!(
            db.value_of(out.projected[1].1[0]),
            Some(&AtomicValue::Int(5))
        );
        assert_eq!(
            db.type_of(out.projected[1].1[0]).unwrap(),
            annoda_oem::OemType::Atomic(AtomicType::Int)
        );

        let out = run_query_with(
            &mut db,
            r#"select concat(G.Symbol, "-human") as tag from DB.Gene G where G.Symbol = "TP53""#,
            &functions,
        )
        .unwrap();
        assert_eq!(
            db.value_of(out.projected[0].1[0]),
            Some(&AtomicValue::Str("TP53-human".into()))
        );
    }

    #[test]
    fn standard_library_functions() {
        let mut db = gene_store();
        let reg = FunctionRegistry::standard();
        assert_eq!(reg.names(), vec!["abs", "lower", "strlen", "upper"]);
        let out = run_query_with(
            &mut db,
            r#"select upper(G.Symbol) as u, lower(G.Symbol) as l, abs(G.LocusID) as a
               from DB.Gene G where G.Symbol = "TP53""#,
            reg,
        )
        .unwrap();
        assert_eq!(
            db.value_of(out.projected[0].1[0]),
            Some(&AtomicValue::Str("TP53".into()))
        );
        assert_eq!(
            db.value_of(out.projected[1].1[0]),
            Some(&AtomicValue::Str("tp53".into()))
        );
        assert_eq!(
            db.value_of(out.projected[2].1[0]),
            Some(&AtomicValue::Real(7157.0))
        );
    }

    #[test]
    fn unknown_function_is_an_eval_error() {
        let mut db = gene_store();
        assert!(matches!(
            run_query(&mut db, "select nope(G.Symbol) from DB.Gene G"),
            Err(LorelError::Eval(_))
        ));
    }

    #[test]
    fn function_returning_none_makes_predicates_false() {
        let mut db = gene_store();
        let mut functions = FunctionRegistry::new();
        functions.register("nothing", std::sync::Arc::new(|_| None));
        let out = run_query_with(
            &mut db,
            "select G from DB.Gene G where nothing() = 1",
            &functions,
        )
        .unwrap();
        assert_eq!(out.rows.len(), 0);
    }

    #[test]
    fn into_names_persist_answers_for_later_queries() {
        let mut db = gene_store();
        run_query(
            &mut db,
            r#"select G into Flagged from DB.Gene G where G.Symbol like "%BRCA%""#,
        )
        .unwrap();
        assert!(db.named("Flagged").is_some());
        // A later query ranges over the saved answer.
        let out = run_query(&mut db, "select X.Symbol from Flagged.Symbol X").unwrap();
        // The saved answer holds coerced copies labelled by the select
        // item (`G`), so navigate through that label instead:
        let out2 = run_query(&mut db, "select X from Flagged.G.Symbol X").unwrap();
        assert!(out.rows.len() + out2.rows.len() >= 1);
        assert_eq!(
            db.value_of(out2.projected[0].1[0]),
            Some(&AtomicValue::Str("BRCA1".into()))
        );
    }

    #[test]
    fn group_by_partitions_and_aggregates() {
        let mut db = OemStore::new();
        let root = db.new_complex();
        for (sym, org, id) in [
            ("TP53", "Homo sapiens", 1i64),
            ("BRCA1", "Homo sapiens", 2),
            ("Trp53", "Mus musculus", 3),
        ] {
            let g = db.add_complex_child(root, "Gene").unwrap();
            db.add_atomic_child(g, "Symbol", sym).unwrap();
            db.add_atomic_child(g, "Organism", org).unwrap();
            db.add_atomic_child(g, "Id", AtomicValue::Int(id)).unwrap();
        }
        db.set_name("DB", root).unwrap();
        let out = run_query(
            &mut db,
            "select G.Organism, count(G.Symbol), sum(G.Id) \
             from DB.Gene G group by G.Organism",
        )
        .unwrap();
        assert_eq!(out.groups, vec!["Homo sapiens", "Mus musculus"]);
        let groups: Vec<Oid> = db.children(out.answer, "group").collect();
        assert_eq!(groups.len(), 2);
        let human = groups[0];
        assert_eq!(
            db.child_value(human, "key"),
            Some(&AtomicValue::Str("Homo sapiens".into()))
        );
        assert_eq!(db.child_value(human, "count"), Some(&AtomicValue::Int(2)));
        assert_eq!(db.child_value(human, "sum"), Some(&AtomicValue::Int(3)));
        let mouse = groups[1];
        assert_eq!(db.child_value(mouse, "count"), Some(&AtomicValue::Int(1)));
    }

    #[test]
    fn group_by_with_missing_key_uses_null_group() {
        let mut db = OemStore::new();
        let root = db.new_complex();
        let g = db.add_complex_child(root, "Gene").unwrap();
        db.add_atomic_child(g, "Symbol", "X1").unwrap();
        db.set_name("DB", root).unwrap();
        let out = run_query(
            &mut db,
            "select count(G.Symbol) from DB.Gene G group by G.Organism",
        )
        .unwrap();
        assert_eq!(out.groups, vec!["<null>"]);
    }

    #[test]
    fn grouped_aggregates_deduplicate_shared_instances() {
        // Two rows in one group sharing the same atom: count once.
        let mut db = OemStore::new();
        let root = db.new_complex();
        let shared = db.new_atomic(AtomicValue::Int(5));
        for _ in 0..2 {
            let g = db.add_complex_child(root, "Gene").unwrap();
            db.add_atomic_child(g, "Org", "x").unwrap();
            db.add_edge(g, "V", shared).unwrap();
        }
        db.set_name("DB", root).unwrap();
        let out = run_query(&mut db, "select count(G.V) from DB.Gene G group by G.Org").unwrap();
        let group = db.children(out.answer, "group").next().unwrap();
        assert_eq!(db.child_value(group, "count"), Some(&AtomicValue::Int(1)));
    }

    #[test]
    fn query_display_round_trips() {
        for text in [
            r#"select S from ANNODA-GML.Source S where S.Name = "LocusLink""#,
            "select G.Symbol as sym, count(G.Links) from DB.Gene G, G.Links L \
             where (G.Symbol like \"TP%\" and exists L.GO) order by G.Symbol desc",
            "select count(G.Id) from DB.Gene G group by G.Organism",
            "select X from DB.#.Symbol X where X != 5 or X < 2.5",
        ] {
            let q = crate::parser::parse(text).unwrap();
            let printed = q.to_string();
            let q2 = crate::parser::parse(&printed)
                .unwrap_or_else(|e| panic!("unparse of `{text}` gave `{printed}`: {e}"));
            assert_eq!(q, q2, "display round trip for `{text}` -> `{printed}`");
        }
    }

    #[test]
    fn incomparable_types_make_predicates_false_not_errors() {
        let mut db = gene_store();
        let out = run_query(&mut db, r#"select G from DB.Gene G where G > 5"#).unwrap();
        assert_eq!(out.rows.len(), 0);
    }
}
