//! Query planning for the Lorel evaluator.
//!
//! The naive evaluator ([`crate::eval_rows_naive`]) binds the `from`
//! clause left to right, enumerating *every* object each range variable
//! can reach, and only evaluates the `where` clause once a full binding
//! exists. This module plans a cheaper but row-for-row identical
//! execution:
//!
//! 1. **Selection pushdown.** A top-level conjunct over a root-anchored
//!    range variable `V` and one attribute label seeds `V`'s candidates
//!    from a store-cached [`annoda_oem::ValueIndex`] instead of
//!    enumerating the whole entity set. Three shapes seek:
//!    - an equality `V.Attr = "text"` (either side) with a non-numeric
//!      string key, which Lorel compares textually, so its bucket is
//!      exact;
//!    - the same with an integer-spelled key (`"100001"`: ASCII digits,
//!      no leading zero, at most 15 digits), which probes the bucket of
//!      its text and of its `Real` text (`100001.0`), a superset of what
//!      Lorel's coercing equality matches;
//!    - `V.Attr like "lit%"` with the path on the left and `lit`
//!      non-empty and free of `%` and `_`, which reads the key range
//!      starting with `lit` — exact, since `like` matches the same text
//!      the index keys.
//!
//!    A disjunction of such equalities over one variable and one
//!    attribute (the mediator's bind-join form) seeds from the union of
//!    their buckets, deduplicated and in scan order. When several
//!    conjuncts seek, the smallest candidate set wins. The conjunct is
//!    still re-verified as a residual predicate, which keeps every seek
//!    exact. `Int` and `Real` literals, non-canonical numeric strings and
//!    any other pattern scan.
//! 2. **Filter-as-you-bind.** The `where` clause is split into its
//!    top-level conjuncts and each conjunct runs at the shallowest
//!    binding depth where all range variables it mentions are bound,
//!    pruning the cartesian product early.
//! 3. **From-clause reordering.** Range variables bind most-selective
//!    first (store-cached label cardinalities, index bucket sizes),
//!    subject to head dependencies; the naive left-to-right row order is
//!    restored afterwards from each binding's position in its candidate
//!    list, so callers observe byte-identical results.
//!
//! A [`PlanExplain`] records the chosen access path, binding order, and
//! probe counters; `bench_report` and the planner tests assert against
//! it. When a query uses a shape the planner cannot prove equivalent
//! (duplicate variable names, unresolvable heads, unknown functions whose
//! error timing the naive path defines), planning returns `None` and the
//! evaluator falls back to the naive loop.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use annoda_oem::{AtomicValue, Label, OemStore, Oid, PathStep, ValueIndex};

use crate::ast::{CompOp, Cond, Expr, Query};
use crate::error::LorelError;
use crate::eval::{eval_cond, resolve_head, var_names, Ctx, FunctionRegistry, Row};

/// Estimated candidate count for a range variable anchored on another
/// variable (per-parent fan-out is unknowable without binding it).
const DEPENDENT_FANOUT_ESTIMATE: usize = 8;

/// How the planner produces the seeded variable's candidates.
#[derive(Debug, Clone, PartialEq)]
pub enum AccessPath {
    /// Candidates for `var` come from value-index buckets.
    IndexSeek {
        /// The seeded range variable.
        var: String,
        /// The indexed attribute label.
        attr: String,
        /// The literals probed as written, in query order: one for an
        /// equality, one per disjunct for a disjunction, the pattern
        /// for a prefix `like`.
        keys: Vec<String>,
        /// Size of the buckets' union (candidates seeded).
        candidates: usize,
    },
    /// Every range variable enumerates its full reachable set.
    Scan,
}

/// Execution counters filled in while a plan runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PlanProbes {
    /// Candidate bindings enumerated across all depths.
    pub bindings_enumerated: u64,
    /// Predicate (conjunct) evaluations performed.
    pub predicate_evaluations: u64,
    /// Rows that survived every predicate.
    pub rows_emitted: u64,
}

/// Wall time of each stage of one query. Filled in by
/// [`crate::run_query_snapshot_explained`], which runs all three; zero
/// where a call runs fewer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimes {
    /// Lexing and parsing the query text.
    pub parse: Duration,
    /// Planning and the binding loop (or the naive loop), with sorting.
    pub eval: Duration,
    /// Building the answer overlay from the rows.
    pub materialize: Duration,
}

/// What the planner decided, plus how execution went.
#[derive(Debug, Clone)]
pub struct PlanExplain {
    /// Access path for the most selective variable.
    pub access: AccessPath,
    /// Range variables in chosen binding order.
    pub bind_order: Vec<String>,
    /// True when the binding order differs from the query text.
    pub reordered: bool,
    /// Estimated candidate count per `bind_order` entry.
    pub estimated_cardinality: Vec<usize>,
    /// Number of conjuncts evaluated at each binding depth.
    pub predicates_at_depth: Vec<usize>,
    /// Conjuncts with no variable dependencies, checked once up front.
    pub floor_predicates: usize,
    /// True when the planner declined and the naive evaluator ran.
    pub naive_fallback: bool,
    /// Always 1: the binding loop is sequential. The field is a vestige
    /// kept only because the frozen `benchmark/src/trace.rs` reads it
    /// for its `lorel.workers_used` row; drop both in a benchmark PR.
    pub workers_used: usize,
    /// Execution counters (zero for explain-only calls).
    pub probes: PlanProbes,
    /// Per-stage wall time.
    pub stages: StageTimes,
}

impl PlanExplain {
    /// True when the plan seeds a variable from a value index.
    pub fn index_backed(&self) -> bool {
        matches!(self.access, AccessPath::IndexSeek { .. })
    }

    /// The explain reported when the planner declines a query.
    pub(crate) fn fallback(query: &Query) -> Self {
        PlanExplain {
            access: AccessPath::Scan,
            bind_order: query.from.iter().map(|f| f.var.clone()).collect(),
            reordered: false,
            estimated_cardinality: Vec::new(),
            predicates_at_depth: Vec::new(),
            floor_predicates: 0,
            naive_fallback: true,
            workers_used: 1,
            probes: PlanProbes::default(),
            stages: StageTimes::default(),
        }
    }
}

/// Where a `from` item's head anchors.
#[derive(Debug, Clone, Copy, PartialEq)]
enum HeadKind {
    /// A named store root.
    Root(Oid),
    /// The variable of the given (original-order) `from` item.
    Var(usize),
}

/// An index seek feeding one range variable.
struct Seek {
    /// Original index of the seeded `from` item.
    item: usize,
    /// The indexed attribute.
    attr: String,
    /// The literal keys probed.
    keys: Vec<String>,
    /// The buckets' union, in the same order a scan would enumerate
    /// (filtered).
    bucket: Vec<Oid>,
}

/// A proven-equivalent execution strategy for one query.
pub(crate) struct Plan<'q> {
    /// Original `from`-item indices in chosen binding order.
    order: Vec<usize>,
    /// Binding depth of each original `from` item (inverse of `order`).
    depth_of_item: Vec<usize>,
    /// Head classification per original `from` item.
    heads: Vec<HeadKind>,
    /// Conjuncts evaluated right after the binding at each depth.
    conds_at_depth: Vec<Vec<&'q Cond>>,
    /// Dependency-free conjuncts, evaluated once before binding.
    floor_conds: Vec<&'q Cond>,
    /// Optional index seek for the most selective variable.
    seek: Option<Seek>,
    reordered: bool,
    explain: PlanExplain,
}

/// Splits a condition into its top-level conjuncts, left to right.
fn split_conjuncts<'q>(cond: &'q Cond, out: &mut Vec<&'q Cond>) {
    match cond {
        Cond::And(l, r) => {
            split_conjuncts(l, out);
            split_conjuncts(r, out);
        }
        other => out.push(other),
    }
}

/// Collects every path head mentioned by an expression.
fn expr_heads<'q>(expr: &'q Expr, out: &mut Vec<&'q str>) {
    match expr {
        Expr::Literal(_) => {}
        Expr::Path { head, .. } => out.push(head),
        Expr::Aggregate(_, inner) => expr_heads(inner, out),
        Expr::Call { args, .. } => {
            for a in args {
                expr_heads(a, out);
            }
        }
    }
}

/// Collects every path head mentioned by a condition.
fn cond_heads<'q>(cond: &'q Cond, out: &mut Vec<&'q str>) {
    match cond {
        Cond::And(l, r) | Cond::Or(l, r) => {
            cond_heads(l, out);
            cond_heads(r, out);
        }
        Cond::Not(c) => cond_heads(c, out),
        Cond::Exists(e) => expr_heads(e, out),
        Cond::Cmp(l, _, r) | Cond::In(l, r) => {
            expr_heads(l, out);
            expr_heads(r, out);
        }
    }
}

/// True when the condition calls a function the registry does not know.
/// The naive evaluator reports such errors only when (and if) a full
/// binding reaches the condition, so the planner refuses these queries
/// rather than change error timing.
fn has_unknown_call(cond: &Cond, functions: &FunctionRegistry) -> bool {
    fn expr_has(expr: &Expr, functions: &FunctionRegistry) -> bool {
        match expr {
            Expr::Literal(_) | Expr::Path { .. } => false,
            Expr::Aggregate(_, inner) => expr_has(inner, functions),
            Expr::Call { name, args } => {
                functions.get(name).is_none() || args.iter().any(|a| expr_has(a, functions))
            }
        }
    }
    match cond {
        Cond::And(l, r) | Cond::Or(l, r) => {
            has_unknown_call(l, functions) || has_unknown_call(r, functions)
        }
        Cond::Not(c) => has_unknown_call(c, functions),
        Cond::Exists(e) => expr_has(e, functions),
        Cond::Cmp(l, _, r) | Cond::In(l, r) => expr_has(l, functions) || expr_has(r, functions),
    }
}

/// What one top-level conjunct lets the planner read from a value index.
enum Probe {
    /// Equality keys, as written: one per disjunct.
    Keys(Vec<String>),
    /// A `like` pattern, as written, that is a literal prefix and `%`.
    Prefix(String),
}

impl Probe {
    /// The parents the index holds for this probe, in scan order. An
    /// integer-spelled key also probes its `Real` spelling (`k.0`); see
    /// the [`annoda_oem::index`] module docs on text keying.
    fn lookup(&self, index: &ValueIndex) -> Vec<Oid> {
        match self {
            Probe::Keys(keys) => {
                let reals: Vec<String> = keys
                    .iter()
                    .filter(|k| is_integer_key(k))
                    .map(|k| format!("{k}.0"))
                    .collect();
                index.lookup_any(keys.iter().chain(&reals).map(String::as_str))
            }
            Probe::Prefix(pattern) => index.lookup_prefix(&pattern[..pattern.len() - 1]),
        }
    }

    /// The literals probed, as [`AccessPath::IndexSeek`] reports them.
    fn into_keys(self) -> Vec<String> {
        match self {
            Probe::Keys(keys) => keys,
            Probe::Prefix(pattern) => vec![pattern],
        }
    }
}

/// True for the canonical spelling of a positive integer that an `f64`
/// holds exactly and whose `Real` text is the same digits plus `.0`:
/// ASCII digits, no leading zero, at most 15 digits.
fn is_integer_key(s: &str) -> bool {
    (1..=15).contains(&s.len()) && !s.starts_with('0') && s.bytes().all(|b| b.is_ascii_digit())
}

/// The `(variable, attribute, probe)` an index seek can serve for one
/// top-level conjunct, with `V` a variable and `Attr` one label:
/// - an equality `V.Attr = "text"`, or a disjunction of them over the
///   same `V` and `Attr`, whose keys are non-numeric or integer-spelled
///   string literals — Lorel's coercing equality against them is
///   text equality on one or two index keys;
/// - `V.Attr like "lit%"` with a non-empty, wildcard-free `lit`, which
///   matches exactly the values whose text starts with `lit`.
fn index_probe(cond: &Cond) -> Option<(&str, &str, Probe)> {
    match cond {
        Cond::Or(l, r) => {
            let (var, attr, Probe::Keys(mut keys)) = index_probe(l)? else {
                return None;
            };
            let (other_var, other_attr, Probe::Keys(more)) = index_probe(r)? else {
                return None;
            };
            if (var, attr) != (other_var, other_attr) {
                return None;
            }
            keys.extend(more);
            Some((var, attr, Probe::Keys(keys)))
        }
        Cond::Cmp(l, CompOp::Eq, r) => [(l, r), (r, l)].into_iter().find_map(|sides| {
            let (head, attr, lit) = path_and_string(sides.0, sides.1)?;
            (lit.trim().parse::<f64>().is_err() || is_integer_key(lit))
                .then(|| (head, attr, Probe::Keys(vec![lit.to_string()])))
        }),
        Cond::Cmp(l, CompOp::Like, r) => {
            let (head, attr, pattern) = path_and_string(l, r)?;
            let prefix = pattern.strip_suffix('%')?;
            (!prefix.is_empty() && !prefix.contains(['%', '_']))
                .then(|| (head, attr, Probe::Prefix(pattern.to_string())))
        }
        _ => None,
    }
}

/// `(V, Attr, text)` when `path` is `V.Attr` (one label) and `literal`
/// is a string.
fn path_and_string<'q>(path: &'q Expr, literal: &'q Expr) -> Option<(&'q str, &'q str, &'q str)> {
    let (Expr::Path { head, path }, Expr::Literal(AtomicValue::Str(lit))) = (path, literal) else {
        return None;
    };
    let [PathStep::Label(attr)] = path.steps() else {
        return None;
    };
    Some((head.as_str(), attr.as_str(), lit.as_str()))
}

/// Plans `query` against `store`, or returns `None` when the naive
/// evaluator must run instead.
pub(crate) fn plan_query<'q>(
    store: &OemStore,
    query: &'q Query,
    functions: &FunctionRegistry,
) -> Option<Plan<'q>> {
    let n = query.from.len();
    if n == 0 {
        return None;
    }
    let vars: Vec<&str> = query.from.iter().map(|f| f.var.as_str()).collect();
    // Duplicate variable names shadow each other positionally in the
    // naive evaluator; reordering would change which binding wins.
    for (i, v) in vars.iter().enumerate() {
        if vars[..i].contains(v) {
            return None;
        }
    }

    // Classify heads. Anything the naive evaluator would fail to resolve
    // (or would resolve differently under reordering) falls back.
    let mut heads = Vec::with_capacity(n);
    for (i, item) in query.from.iter().enumerate() {
        if let Some(j) = vars[..i].iter().position(|v| *v == item.head) {
            heads.push(HeadKind::Var(j));
        } else if vars.contains(&item.head.as_str()) {
            // Head names a variable bound at-or-after this item: the
            // naive evaluator would not see it in scope, but a reordered
            // binding might. Refuse.
            return None;
        } else if let Some(root) = store.named(&item.head) {
            heads.push(HeadKind::Root(root));
        } else {
            // The naive evaluator raises "neither a bound variable nor a
            // named root" here iff earlier candidates exist; keep its
            // exact behaviour.
            return None;
        }
    }

    // Split the where clause and refuse unknown calls (error timing).
    let mut conjuncts: Vec<&'q Cond> = Vec::new();
    if let Some(cond) = &query.where_ {
        if has_unknown_call(cond, functions) {
            return None;
        }
        split_conjuncts(cond, &mut conjuncts);
    }

    // Per-conjunct variable dependencies (bitmask over original items).
    let dep_mask = |cond: &Cond| -> u64 {
        let mut heads_mentioned = Vec::new();
        cond_heads(cond, &mut heads_mentioned);
        let mut mask = 0u64;
        for head in heads_mentioned {
            if let Some(j) = vars.iter().position(|v| *v == head) {
                mask |= 1 << j;
            } else if store.named(head).is_none() {
                // Unknown head: resolved relative to the first range
                // variable (the paper's loose `where Source.Name = …`).
                mask |= 1;
            }
        }
        mask
    };
    let masks: Vec<u64> = conjuncts.iter().map(|c| dep_mask(c)).collect();

    // Selection pushdown: the smallest bucket union among the conjuncts
    // an index seek can serve over root-anchored variables.
    let mut seek: Option<Seek> = None;
    for cond in &conjuncts {
        let Some((head, attr, probe)) = index_probe(cond) else {
            continue;
        };
        let Some(i) = vars.iter().position(|v| *v == head) else {
            continue;
        };
        let HeadKind::Root(root) = heads[i] else {
            continue;
        };
        let index = store.cached_value_index(root, &query.from[i].path, attr);
        let bucket = probe.lookup(&index);
        if seek.as_ref().is_none_or(|s| bucket.len() < s.bucket.len()) {
            seek = Some(Seek {
                item: i,
                attr: attr.to_string(),
                keys: probe.into_keys(),
                bucket,
            });
        }
    }

    // Estimated candidates per item: bucket size for the seeded item,
    // cached path cardinality for root-anchored items, a fixed fan-out
    // guess for dependent items.
    let estimates: Vec<usize> = (0..n)
        .map(|i| match (&seek, heads[i]) {
            (Some(s), _) if s.item == i => s.bucket.len(),
            (_, HeadKind::Root(root)) => store.cached_cardinality(root, &query.from[i].path),
            (_, HeadKind::Var(_)) => DEPENDENT_FANOUT_ESTIMATE,
        })
        .collect();

    // Greedy dependency-respecting order: cheapest ready item first,
    // original position as the deterministic tie-break.
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut placed = vec![false; n];
    while order.len() < n {
        let next = (0..n)
            .filter(|&i| !placed[i])
            .filter(|&i| match heads[i] {
                HeadKind::Root(_) => true,
                HeadKind::Var(j) => placed[j],
            })
            .min_by_key(|&i| (estimates[i], i))
            .expect("acyclic head dependencies always leave a ready item");
        placed[next] = true;
        order.push(next);
    }
    let reordered = order.iter().enumerate().any(|(d, &i)| d != i);

    let mut depth_of_item = vec![0usize; n];
    for (depth, &item) in order.iter().enumerate() {
        depth_of_item[item] = depth;
    }

    // Assign each conjunct to the shallowest depth where its variables
    // are bound; dependency-free conjuncts run once before binding.
    let mut conds_at_depth: Vec<Vec<&'q Cond>> = vec![Vec::new(); n];
    let mut floor_conds: Vec<&'q Cond> = Vec::new();
    for (cond, &mask) in conjuncts.iter().zip(&masks) {
        if mask == 0 {
            floor_conds.push(cond);
        } else {
            let depth = (0..n)
                .filter(|&i| mask & (1 << i) != 0)
                .map(|i| depth_of_item[i])
                .max()
                .expect("non-zero mask");
            conds_at_depth[depth].push(cond);
        }
    }

    let access = match &seek {
        Some(s) => AccessPath::IndexSeek {
            var: query.from[s.item].var.clone(),
            attr: s.attr.clone(),
            keys: s.keys.clone(),
            candidates: s.bucket.len(),
        },
        None => AccessPath::Scan,
    };
    let explain = PlanExplain {
        access,
        bind_order: order.iter().map(|&i| query.from[i].var.clone()).collect(),
        reordered,
        estimated_cardinality: order.iter().map(|&i| estimates[i]).collect(),
        predicates_at_depth: conds_at_depth.iter().map(Vec::len).collect(),
        floor_predicates: floor_conds.len(),
        naive_fallback: false,
        workers_used: 1,
        probes: PlanProbes::default(),
        stages: StageTimes::default(),
    };
    Some(Plan {
        order,
        depth_of_item,
        heads,
        conds_at_depth,
        floor_conds,
        seek,
        reordered,
        explain,
    })
}

/// How one `from` item produces its candidates per start.
enum CandidateSource {
    /// A single label step from a variable: the start's edges under the
    /// label (`None`: a label the store lacks), read in place per start.
    /// One object's edges are a set, so their targets are distinct.
    Edges(Option<Label>),
    /// Any other path: its candidates per start, since a start recurs
    /// whenever the item sits below a loop it does not depend on.
    Memo(HashMap<Oid, Vec<Oid>>),
}

/// The binding loop's state for one execution.
struct Exec<'e> {
    /// The range variables' names, shared by every binding of them.
    names: Vec<Arc<str>>,
    /// The partial binding in binding order, lent to predicates as is.
    env: Row,
    rows: Vec<Row>,
    /// Per original `from` item.
    sources: Vec<CandidateSource>,
    /// Per binding depth: a candidate buffer, reused across starts.
    buffers: Vec<Vec<Oid>>,
    probes: &'e mut PlanProbes,
}

impl Plan<'_> {
    /// Runs the plan, returning rows in the naive evaluator's exact
    /// order plus the filled-in [`PlanExplain`].
    pub(crate) fn execute(
        &self,
        store: &OemStore,
        query: &Query,
        functions: &FunctionRegistry,
    ) -> Result<(Vec<Row>, PlanExplain), LorelError> {
        let ctx = Ctx {
            default_var: &query.from[0].var,
            functions,
        };
        let mut explain = self.explain.clone();

        let empty = Row {
            bindings: Vec::new(),
        };
        for cond in &self.floor_conds {
            explain.probes.predicate_evaluations += 1;
            if !eval_cond(store, cond, &empty, &ctx)? {
                return Ok((Vec::new(), explain));
            }
        }

        let sources = (0..query.from.len())
            .map(|i| match (self.heads[i], query.from[i].path.steps()) {
                (HeadKind::Var(_), [PathStep::Label(label)]) => {
                    CandidateSource::Edges(store.labels().get(label))
                }
                _ => CandidateSource::Memo(HashMap::new()),
            })
            .collect();
        let mut exec = Exec {
            names: var_names(query),
            env: Row {
                bindings: Vec::with_capacity(query.from.len()),
            },
            rows: Vec::new(),
            sources,
            buffers: vec![Vec::new(); query.from.len()],
            probes: &mut explain.probes,
        };
        self.bind(store, query, 0, &mut exec, &ctx)?;

        let mut rows = exec.rows;
        if self.reordered {
            self.restore_naive_order(store, query, &mut rows);
        }
        Ok((rows, explain))
    }

    /// Fills `out` with the candidates for item `item_idx`: the index
    /// bucket for the seeded item, else what the item's
    /// [`CandidateSource`] yields for its start. A memoised start skips
    /// the path evaluation the naive evaluator repeats on join re-visits.
    fn candidates_for(
        &self,
        store: &OemStore,
        query: &Query,
        item_idx: usize,
        exec: &mut Exec<'_>,
        out: &mut Vec<Oid>,
    ) -> Result<(), LorelError> {
        out.clear();
        if let Some(seek) = self.seek.as_ref().filter(|s| s.item == item_idx) {
            out.extend_from_slice(&seek.bucket);
            return Ok(());
        }
        let item = &query.from[item_idx];
        let start = resolve_head(store, &item.head, &exec.env.bindings)?;
        match &mut exec.sources[item_idx] {
            CandidateSource::Edges(label) => out.extend(
                store
                    .edges_of(start)
                    .iter()
                    .filter(|e| Some(e.label) == *label)
                    .map(|e| e.target),
            ),
            CandidateSource::Memo(map) => out.extend_from_slice(
                map.entry(start)
                    .or_insert_with(|| item.path.eval(store, start)),
            ),
        }
        Ok(())
    }

    fn bind(
        &self,
        store: &OemStore,
        query: &Query,
        depth: usize,
        exec: &mut Exec<'_>,
        ctx: &Ctx<'_>,
    ) -> Result<(), LorelError> {
        if depth == self.order.len() {
            exec.probes.rows_emitted += 1;
            // Bindings in original from-clause order, as the naive
            // evaluator produces them.
            let bindings = (0..query.from.len())
                .map(|i| exec.env.bindings[self.depth_of_item[i]].clone())
                .collect();
            exec.rows.push(Row { bindings });
            return Ok(());
        }
        let item_idx = self.order[depth];
        let mut candidates = std::mem::take(&mut exec.buffers[depth]);
        self.candidates_for(store, query, item_idx, exec, &mut candidates)?;
        for &candidate in &candidates {
            exec.probes.bindings_enumerated += 1;
            let name = Arc::clone(&exec.names[item_idx]);
            exec.env.bindings.push((name, candidate));
            let mut keep = Ok(true);
            for cond in &self.conds_at_depth[depth] {
                exec.probes.predicate_evaluations += 1;
                keep = eval_cond(store, cond, &exec.env, ctx);
                if !matches!(keep, Ok(true)) {
                    break;
                }
            }
            if keep? {
                self.bind(store, query, depth + 1, exec, ctx)?;
            }
            exec.env.bindings.pop();
        }
        exec.buffers[depth] = candidates;
        Ok(())
    }

    /// Sorts rows into the order the naive left-to-right enumeration
    /// would have produced them, using each binding's position in its
    /// item's candidate list. The seeded item uses bucket positions,
    /// which are a strictly monotone subsequence of the scan positions,
    /// so comparisons agree.
    fn restore_naive_order(&self, store: &OemStore, query: &Query, rows: &mut Vec<Row>) {
        let n = query.from.len();
        let mut position_maps: HashMap<(usize, Oid), HashMap<Oid, usize>> = HashMap::new();
        let mut keyed: Vec<(Vec<usize>, Row)> = std::mem::take(rows)
            .into_iter()
            .map(|row| {
                let key = (0..n)
                    .map(|i| {
                        let bound = row
                            .get(&query.from[i].var)
                            .expect("emitted rows bind every variable");
                        let start = match self.heads[i] {
                            HeadKind::Root(root) => root,
                            HeadKind::Var(j) => row
                                .get(&query.from[j].var)
                                .expect("head variables bind before dependants"),
                        };
                        let positions = position_maps.entry((i, start)).or_insert_with(|| {
                            let scanned;
                            let list: &[Oid] = match &self.seek {
                                Some(seek) if seek.item == i => &seek.bucket,
                                _ => {
                                    scanned = query.from[i].path.eval(store, start);
                                    &scanned
                                }
                            };
                            list.iter().enumerate().map(|(p, &o)| (o, p)).collect()
                        });
                        positions[&bound]
                    })
                    .collect::<Vec<usize>>();
                (key, row)
            })
            .collect();
        keyed.sort_by(|a, b| a.0.cmp(&b.0));
        *rows = keyed.into_iter().map(|(_, row)| row).collect();
    }
}
