//! Query planning for the Lorel evaluator.
//!
//! The naive evaluator ([`crate::eval_rows_naive`]) binds the `from`
//! clause left to right, enumerating *every* object each range variable
//! can reach, and only evaluates the `where` clause once a full binding
//! exists. This module plans a cheaper but row-for-row identical
//! execution:
//!
//! 1. **Selection pushdown.** A conjunctive equality `V.Attr = "text"`
//!    over a root-anchored range variable seeds `V`'s candidates from a
//!    store-cached [`annoda_oem::ValueIndex`] instead of enumerating the
//!    whole entity set. Non-numeric string keys compare textually under
//!    Lorel's coercion rules, so the index bucket is exact; the equality
//!    conjunct is still re-verified as a residual predicate.
//! 2. **Filter-as-you-bind.** The `where` clause is split into its
//!    top-level conjuncts and each conjunct runs at the shallowest
//!    binding depth where all range variables it mentions are bound,
//!    pruning the cartesian product early.
//! 3. **From-clause reordering.** Range variables bind most-selective
//!    first (store-cached label cardinalities, index bucket sizes),
//!    subject to head dependencies; the naive left-to-right row order is
//!    restored afterwards from memoised candidate positions, so callers
//!    observe byte-identical results.
//!
//! A [`PlanExplain`] records the chosen access path, binding order, and
//! probe counters; `bench_report` and the planner tests assert against
//! it. When a query uses a shape the planner cannot prove equivalent
//! (duplicate variable names, unresolvable heads, unknown functions whose
//! error timing the naive path defines), planning returns `None` and the
//! evaluator falls back to the naive loop.

use std::collections::HashMap;
use std::sync::Arc;

use annoda_oem::{AtomicValue, OemStore, Oid, PathStep};

use crate::ast::{CompOp, Cond, Expr, Query};
use crate::error::LorelError;
use crate::eval::{eval_cond, resolve_head, Ctx, FunctionRegistry, Row};

/// Estimated candidate count for a range variable anchored on another
/// variable (per-parent fan-out is unknowable without binding it).
const DEPENDENT_FANOUT_ESTIMATE: usize = 8;

/// How the planner produces the seeded variable's candidates.
#[derive(Debug, Clone, PartialEq)]
pub enum AccessPath {
    /// Candidates for `var` come from a value-index bucket.
    IndexSeek {
        /// The seeded range variable.
        var: String,
        /// The indexed attribute label.
        attr: String,
        /// The literal key probed.
        key: String,
        /// Bucket size (candidates seeded).
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
    /// The bucket, in the same order a scan would enumerate (filtered).
    bucket: Arc<Vec<Oid>>,
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

    // Selection pushdown: the smallest index bucket among conjunctive
    // equalities `V.Attr = "non-numeric literal"` over root-anchored
    // variables. Non-numeric keys make the text index exact under
    // Lorel's coercing equality (Str-vs-any falls back to text
    // comparison when the string does not parse as a number).
    let mut seek: Option<(usize, String, String, Arc<Vec<Oid>>)> = None;
    for cond in &conjuncts {
        let Cond::Cmp(l, CompOp::Eq, r) = cond else {
            continue;
        };
        for (path_side, lit_side) in [(l, r), (r, l)] {
            let Expr::Path { head, path } = path_side else {
                continue;
            };
            let Expr::Literal(lit) = lit_side else {
                continue;
            };
            let [PathStep::Label(attr)] = path.steps() else {
                continue;
            };
            if !matches!(lit, AtomicValue::Str(_)) || lit.as_real().is_some() {
                continue;
            }
            let Some(i) = vars.iter().position(|v| *v == head.as_str()) else {
                continue;
            };
            let HeadKind::Root(root) = heads[i] else {
                continue;
            };
            let key = lit.as_text();
            let index = store.cached_value_index(root, &query.from[i].path, attr);
            let bucket = index.lookup(&key);
            if seek
                .as_ref()
                .is_none_or(|(_, _, _, b)| bucket.len() < b.len())
            {
                seek = Some((i, attr.clone(), key, Arc::new(bucket.to_vec())));
            }
        }
    }

    // Estimated candidates per item: bucket size for the seeded item,
    // cached path cardinality for root-anchored items, a fixed fan-out
    // guess for dependent items.
    let estimates: Vec<usize> = (0..n)
        .map(|i| match (&seek, heads[i]) {
            (Some((s, _, _, bucket)), _) if *s == i => bucket.len(),
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
        Some((i, attr, key, bucket)) => AccessPath::IndexSeek {
            var: query.from[*i].var.clone(),
            attr: attr.clone(),
            key: key.clone(),
            candidates: bucket.len(),
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
    };
    Some(Plan {
        order,
        depth_of_item,
        heads,
        conds_at_depth,
        floor_conds,
        seek: seek.map(|(item, _, _, bucket)| Seek { item, bucket }),
        reordered,
        explain,
    })
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

        let mut rows = Vec::new();
        let mut memo: HashMap<(usize, Oid), Arc<Vec<Oid>>> = HashMap::new();
        let mut env: Vec<(String, Oid)> = Vec::with_capacity(query.from.len());
        self.bind(
            store,
            query,
            0,
            &mut env,
            &mut rows,
            &ctx,
            &mut memo,
            &mut explain.probes,
        )?;

        if self.reordered {
            self.restore_naive_order(query, &mut rows, &memo);
        }
        Ok((rows, explain))
    }

    /// Candidate objects for the item at `depth`, memoised per
    /// `(item, start)` so join re-visits skip the path evaluation the
    /// naive evaluator repeats.
    fn candidates_for(
        &self,
        store: &OemStore,
        query: &Query,
        item_idx: usize,
        env: &[(String, Oid)],
        memo: &mut HashMap<(usize, Oid), Arc<Vec<Oid>>>,
    ) -> Result<Arc<Vec<Oid>>, LorelError> {
        if let Some(seek) = &self.seek {
            if seek.item == item_idx {
                return Ok(Arc::clone(&seek.bucket));
            }
        }
        let item = &query.from[item_idx];
        let starts = resolve_head(store, &item.head, env).ok_or_else(|| {
            LorelError::eval(format!(
                "`{}` is neither a bound variable nor a named root",
                item.head
            ))
        })?;
        let start = starts[0];
        if let Some(hit) = memo.get(&(item_idx, start)) {
            return Ok(Arc::clone(hit));
        }
        let computed = Arc::new(item.path.eval_many(store, &starts));
        memo.insert((item_idx, start), Arc::clone(&computed));
        Ok(computed)
    }

    #[allow(clippy::too_many_arguments)] // recursive executor carries its whole state
    fn bind(
        &self,
        store: &OemStore,
        query: &Query,
        depth: usize,
        env: &mut Vec<(String, Oid)>,
        rows: &mut Vec<Row>,
        ctx: &Ctx<'_>,
        memo: &mut HashMap<(usize, Oid), Arc<Vec<Oid>>>,
        probes: &mut PlanProbes,
    ) -> Result<(), LorelError> {
        if depth == self.order.len() {
            probes.rows_emitted += 1;
            // Bindings in original from-clause order, as the naive
            // evaluator produces them.
            let bindings = (0..query.from.len())
                .map(|i| env[self.depth_of_item[i]].clone())
                .collect();
            rows.push(Row { bindings });
            return Ok(());
        }
        let item_idx = self.order[depth];
        let candidates = self.candidates_for(store, query, item_idx, env, memo)?;
        let item = &query.from[item_idx];
        for &candidate in candidates.iter() {
            probes.bindings_enumerated += 1;
            env.push((item.var.clone(), candidate));
            // Materialise the partial row without copying: the bindings
            // vector is lent to the Row and taken back afterwards.
            let row = Row {
                bindings: std::mem::take(env),
            };
            let mut keep = Ok(true);
            for cond in &self.conds_at_depth[depth] {
                probes.predicate_evaluations += 1;
                keep = eval_cond(store, cond, &row, ctx);
                if !matches!(keep, Ok(true)) {
                    break;
                }
            }
            *env = row.bindings;
            if keep? {
                self.bind(store, query, depth + 1, env, rows, ctx, memo, probes)?;
            }
            env.pop();
        }
        Ok(())
    }

    /// Sorts rows into the order the naive left-to-right enumeration
    /// would have produced them, using each binding's position in its
    /// item's candidate list. The seeded item uses bucket positions,
    /// which are a strictly monotone subsequence of the scan positions,
    /// so comparisons agree.
    fn restore_naive_order(
        &self,
        query: &Query,
        rows: &mut Vec<Row>,
        memo: &HashMap<(usize, Oid), Arc<Vec<Oid>>>,
    ) {
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
                            let list = match &self.seek {
                                Some(seek) if seek.item == i => &seek.bucket,
                                _ => memo
                                    .get(&(i, start))
                                    .expect("every emitted binding was enumerated"),
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
