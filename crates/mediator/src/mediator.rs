//! The mediator façade: registration, planning, execution, fusion.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;

use annoda_lorel::{
    run_query_snapshot_explained, run_query_with, FunctionRegistry, LorelError, PlanExplain,
    QueryOutcome,
};
use annoda_match::{MatchReport, Mdsm};
use annoda_oem::{AnswerOverlay, AtomicValue, OemStore, PathExpr, PathStep, TextDoc};
use annoda_wrap::{Cost, SourceDescription, SubqueryResult, WrapError, Wrapper};

use crate::cache::{CacheStats, SubqueryCache, DEFAULT_CACHE_CAPACITY};
use crate::decompose::{GeneQuestion, Purpose};
use crate::fusion::{fuse, fuse_with, Details, FusedAnswer, RowSelection, TaggedResult};
use crate::gml::GlobalModel;
use crate::optimizer::{plan, ExecutionPlan, OptimizerConfig, SourceInfo};
use crate::reconcile::ReconcilePolicy;
use crate::semijoin;

/// Errors raised by the mediator.
#[derive(Debug)]
pub enum MediatorError {
    /// No registered source provides the `Gene` entity.
    NoGeneProvider,
    /// A named source is not registered.
    UnknownSource(String),
    /// A wrapper failed to answer its subquery.
    Wrap(WrapError),
    /// A global Lorel query failed.
    Lorel(LorelError),
}

impl fmt::Display for MediatorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MediatorError::NoGeneProvider => {
                write!(f, "no registered source provides the Gene entity")
            }
            MediatorError::UnknownSource(s) => write!(f, "unknown source `{s}`"),
            MediatorError::Wrap(e) => write!(f, "wrapper error: {e}"),
            MediatorError::Lorel(e) => write!(f, "global query error: {e}"),
        }
    }
}

impl std::error::Error for MediatorError {}

impl From<WrapError> for MediatorError {
    fn from(e: WrapError) -> Self {
        MediatorError::Wrap(e)
    }
}

impl From<LorelError> for MediatorError {
    fn from(e: LorelError) -> Self {
        MediatorError::Lorel(e)
    }
}

/// Why a source failed during plan execution — the mediator's failure
/// taxonomy, coarser than [`WrapError`] but wire-stable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The source could not be *reached*: connect refused, timeout, torn
    /// frame, or a tripped circuit breaker. Nothing answered; retrying
    /// later may succeed.
    Transport,
    /// The source *answered* with a refusal — the subquery failed to
    /// parse/evaluate or needs a missing capability. Retrying gets the
    /// same answer.
    Refusal,
    /// The wrapper panicked; the mediator contained the crash to this
    /// source.
    Panic,
}

impl FailureKind {
    /// Stable lowercase name, for display and metrics.
    pub fn as_str(self) -> &'static str {
        match self {
            FailureKind::Transport => "transport",
            FailureKind::Refusal => "refusal",
            FailureKind::Panic => "panic",
        }
    }

    fn of(error: &WrapError) -> FailureKind {
        match error {
            WrapError::Transport(_) => FailureKind::Transport,
            WrapError::Query(_) | WrapError::Unsupported(_) => FailureKind::Refusal,
        }
    }
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One source that failed while answering a question.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceFailure {
    /// The failing source's name.
    pub source: String,
    /// The error's display form.
    pub error: String,
    /// Transport loss, answered refusal, or contained panic.
    pub kind: FailureKind,
}

/// An answered question: the fused result plus the plan and cost that
/// produced it.
#[derive(Debug)]
pub struct MediatedAnswer {
    /// The integrated, reconciled, filtered genes.
    pub fused: FusedAnswer,
    /// The plan that was executed.
    pub plan: ExecutionPlan,
    /// Simulated source-access cost (total work across all subqueries).
    pub cost: Cost,
    /// Simulated wall-clock: subqueries to independent sources run
    /// concurrently, so each phase costs its *slowest* subquery, not the
    /// sum — this is the per-phase max, summed over phases.
    pub critical_path_us: u64,
    /// *Measured* wall-clock analogue of
    /// [`MediatedAnswer::critical_path_us`]: each phase's slowest
    /// subquery by real elapsed time, summed over phases. For in-process
    /// wrappers this is microseconds of compute; for remote wrappers it
    /// is genuine network time (including retries and backoff).
    pub wall_path_us: u64,
    /// Sources that failed during execution — only populated under
    /// [`Mediator::partial_results`]; otherwise a failure aborts the
    /// whole answer. Mirrored into
    /// [`FusedAnswer::missing_sources`] so the degradation travels with
    /// the answer itself.
    pub failed_sources: Vec<SourceFailure>,
    /// Per-source cost breakdown (cache hits contribute zero).
    pub per_source_cost: Vec<(String, Cost)>,
}

/// What one concurrently-executed batch of subqueries produced.
struct BatchOutcome {
    tagged: Vec<TaggedResult>,
    cost: Cost,
    /// Slowest subquery by virtual cost (the modelled critical path).
    critical_us: u64,
    /// Slowest subquery by measured wall-clock.
    wall_path_us: u64,
    failed: Vec<SourceFailure>,
    per_source: Vec<(String, Cost)>,
}

/// What an answer's batches spent, summed phase by phase.
#[derive(Default)]
struct Spent {
    cost: Cost,
    critical_path_us: u64,
    wall_path_us: u64,
    failed_sources: Vec<SourceFailure>,
    per_source_cost: Vec<(String, Cost)>,
}

impl Spent {
    /// Adds one phase's batch (phases run one after another, so their
    /// critical paths add) and returns its results.
    fn add(&mut self, batch: BatchOutcome) -> Vec<TaggedResult> {
        self.cost += batch.cost;
        self.critical_path_us += batch.critical_us;
        self.wall_path_us += batch.wall_path_us;
        self.failed_sources.extend(batch.failed);
        for (src, c) in batch.per_source {
            match self.per_source_cost.iter_mut().find(|(s, _)| s == &src) {
                Some((_, existing)) => *existing += c,
                None => self.per_source_cost.push((src, c)),
            }
        }
        batch.tagged
    }
}

/// What the gene phase binds for the phases after it: the symbol of
/// every gene row, and the disease ids those rows claim.
struct Binding {
    symbols: Vec<String>,
    disease_ids: BTreeSet<String>,
}

impl Binding {
    /// The binding of the gene results, or `None` when it is too large
    /// to pay off (read no further than the symbol past
    /// [`crate::optimizer::BIND_JOIN_MAX_KEYS`]) or a key cannot be
    /// written as a Lorel string literal.
    fn observe(genes: &[TaggedResult]) -> Option<Binding> {
        let mut symbols = BTreeSet::new();
        let mut disease_ids = BTreeSet::new();
        for tr in genes {
            let store = &tr.result.store;
            for row in tr.result.row_oids() {
                // Fusion skips a row without a symbol, claims and all.
                let Some(symbol) = store.child_value(row, "Symbol") else {
                    continue;
                };
                symbols.insert(symbol.as_text());
                if symbols.len() > crate::optimizer::BIND_JOIN_MAX_KEYS {
                    return None;
                }
                disease_ids.extend(
                    store
                        .children(row, "DiseaseID")
                        .filter_map(|o| store.value_of(o))
                        .map(AtomicValue::as_text),
                );
            }
        }
        let quotable = |k: &String| !k.contains('"') && !k.contains('\\');
        let bindable = symbols.iter().all(quotable) && disease_ids.iter().all(quotable);
        bindable.then(|| Binding {
            symbols: symbols.into_iter().collect(),
            disease_ids,
        })
    }
}

/// `lorel` restricted to the rows whose `X.<attr>` equals one of `keys`.
fn with_key_disjunction(lorel: &str, attr: &str, keys: &[impl AsRef<str>]) -> String {
    let disjunction = keys
        .iter()
        .map(|k| format!("X.{attr} = \"{}\"", k.as_ref()))
        .collect::<Vec<_>>()
        .join(" or ");
    if lorel.contains(" where ") {
        format!("{lorel} and ({disjunction})")
    } else {
        format!("{lorel} where ({disjunction})")
    }
}

/// The ANNODA mediator of Figure 1.
pub struct Mediator {
    wrappers: Vec<Box<dyn Wrapper>>,
    model: GlobalModel,
    mdsm: Mdsm,
    /// Optimiser switches (public: the B5 ablation flips them).
    pub optimizer: OptimizerConfig,
    /// Reconciliation policy applied during fusion.
    pub policy: ReconcilePolicy,
    /// Degrade gracefully when a source is unreachable: skip its
    /// contribution and report it in
    /// [`MediatedAnswer::failed_sources`] instead of failing the whole
    /// question. Gene providers are mandatory — if every one of them
    /// fails the answer still errors.
    pub partial_results: bool,
    /// Subquery result cache (None = disabled). Keyed by
    /// `source\x01lorel`; invalidated on registration changes and
    /// refresh. The cache is **bounded**: it holds at most the
    /// configured capacity (see [`Mediator::enable_cache_with_capacity`];
    /// [`Mediator::enable_cache`] uses
    /// [`DEFAULT_CACHE_CAPACITY`]), evicting least-recently-used
    /// entries per shard when full. Entries are spread over
    /// independently locked shards so concurrent questions do not
    /// serialise on one lock. Hits share the cached store and charge a
    /// zero [`Cost`] with `cache_hits = 1`; lifetime hit/miss/eviction
    /// counters are readable through [`Mediator::cache_stats`].
    cache: Option<SubqueryCache>,
}

impl Default for Mediator {
    fn default() -> Self {
        Self::new()
    }
}

impl Mediator {
    /// A mediator with default MDSM, optimiser, and policy settings.
    pub fn new() -> Self {
        Mediator {
            wrappers: Vec::new(),
            model: GlobalModel::new(),
            mdsm: Mdsm::default(),
            optimizer: OptimizerConfig::default(),
            policy: ReconcilePolicy::Union,
            partial_results: false,
            cache: None,
        }
    }

    /// Enables the subquery result cache: identical subqueries against
    /// an unchanged source are answered from the mediator without a
    /// source round trip. A hit shares the cached fragment (its store is
    /// an `Arc`) instead of copying it, so a warm question clones no
    /// store. Disabled by default so cost accounting stays
    /// per-question. Holds at most [`DEFAULT_CACHE_CAPACITY`] results.
    pub fn enable_cache(&mut self) {
        self.enable_cache_with_capacity(DEFAULT_CACHE_CAPACITY);
    }

    /// [`Mediator::enable_cache`] with an explicit total capacity
    /// (rounded up to a multiple of the shard count). When the cache is
    /// full, the least-recently-used entry in the affected shard makes
    /// room.
    pub fn enable_cache_with_capacity(&mut self, capacity: usize) {
        self.cache = Some(SubqueryCache::new(capacity));
    }

    /// Disables and clears the subquery cache.
    pub fn disable_cache(&mut self) {
        self.cache = None;
    }

    /// Size and lifetime hit/miss/eviction counters of the subquery
    /// cache, when enabled.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(SubqueryCache::stats)
    }

    fn invalidate_cache(&mut self) {
        if let Some(c) = &self.cache {
            c.clear();
        }
    }

    /// Runs one batch of subqueries concurrently (the last source round
    /// trip on the calling thread, every other one on its own thread),
    /// consulting the cache. Returns the results in
    /// step order, the summed cost, and the batch's critical paths (the
    /// slowest subquery by virtual cost and by measured wall-clock).
    /// A failing (or panicking) step fails the batch unless `partial`,
    /// in which case it is reported in [`BatchOutcome::failed`].
    fn run_batch(
        &self,
        steps: &[&crate::optimizer::PlanStep],
        overrides: &HashMap<usize, String>,
        partial: bool,
    ) -> Result<BatchOutcome, MediatorError> {
        // Resolve wrappers (and cache hits) up front.
        enum Job<'a> {
            Cached(SubqueryResult),
            Run(&'a dyn Wrapper, String, String),
        }
        let mut jobs: Vec<(usize, Job)> = Vec::new();
        for (i, step) in steps.iter().enumerate() {
            let lorel = overrides
                .get(&i)
                .cloned()
                .unwrap_or_else(|| step.query.lorel.clone());
            let key = format!("{}\x01{}", step.query.source, lorel);
            if let Some(cache) = &self.cache {
                if let Some(hit) = cache.get(&key) {
                    jobs.push((i, Job::Cached(hit)));
                    continue;
                }
            }
            let wrapper = self
                .wrapper(&step.query.source)
                .ok_or_else(|| MediatorError::UnknownSource(step.query.source.clone()))?;
            jobs.push((i, Job::Run(wrapper, lorel, key)));
        }

        /// One timed round trip. The mediator's own measurement subsumes
        /// whatever the wrapper timed (a remote round trip, an injected
        /// stall): one clock, one owner.
        fn timed(wrapper: &dyn Wrapper, lorel: &str) -> (Result<SubqueryResult, WrapError>, Cost) {
            let mut cost = Cost::new();
            let start = std::time::Instant::now();
            let result = wrapper.subquery(lorel, &mut cost);
            cost.wall_us = start.elapsed().as_micros() as u64;
            (result, cost)
        }
        let mut outputs: Vec<(usize, SubqueryResult, Cost, Option<String>)> = Vec::new();
        let mut runs = Vec::new();
        for (i, job) in jobs {
            match job {
                Job::Cached(result) => outputs.push((i, result, Cost::cache_hit(), None)),
                Job::Run(wrapper, lorel, key) => runs.push((i, wrapper, lorel, key)),
            }
        }
        // The last round trip runs on the calling thread, every other one
        // on a thread of its own; a panic is caught either way, not
        // propagated.
        let last = runs.pop();
        let finished: Vec<(usize, String, std::thread::Result<_>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = runs
                .into_iter()
                .map(|(i, wrapper, lorel, key)| {
                    (i, key, scope.spawn(move || timed(wrapper, &lorel)))
                })
                .collect();
            let inline = last.map(|(i, wrapper, lorel, key)| {
                let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    timed(wrapper, &lorel)
                }));
                (i, key, caught)
            });
            handles
                .into_iter()
                .map(|(i, key, handle)| (i, key, handle.join()))
                .chain(inline)
                .collect()
        });
        let mut failures: Vec<(usize, WrapError, FailureKind)> = Vec::new();
        for (i, key, outcome) in finished {
            match outcome {
                Ok((Ok(r), cost)) => outputs.push((i, r, cost, Some(key))),
                Ok((Err(e), _)) => {
                    let kind = FailureKind::of(&e);
                    failures.push((i, e, kind));
                }
                // A panicking wrapper is contained to its own source:
                // surface it as that step's failure instead of aborting
                // the whole answer.
                Err(panic) => {
                    let msg = panic
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_string())
                        .or_else(|| panic.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "wrapper panicked".to_string());
                    failures.push((
                        i,
                        WrapError::Unsupported(format!("panic: {msg}")),
                        FailureKind::Panic,
                    ));
                }
            }
        }
        // Failures are keyed by step index so the error reported without
        // partial results is the FIRST failing step in plan order, not
        // whichever thread finished last.
        failures.sort_by_key(|(i, ..)| *i);
        if !partial {
            if let Some((_, e, _)) = failures.first() {
                return Err(e.clone().into());
            }
        }
        let failed: Vec<SourceFailure> = failures
            .iter()
            .map(|(i, e, kind)| SourceFailure {
                source: steps[*i].query.source.clone(),
                error: e.to_string(),
                kind: *kind,
            })
            .collect();
        outputs.sort_by_key(|(i, ..)| *i);

        let mut tagged = Vec::new();
        let mut total = Cost::new();
        let mut critical = 0u64;
        let mut wall_path = 0u64;
        let mut per_source: Vec<(String, Cost)> = Vec::new();
        for (i, result, cost, key) in outputs {
            if let (Some(cache), Some(key)) = (&self.cache, key) {
                cache.insert(key, result.clone());
            }
            total += cost;
            critical = critical.max(cost.virtual_us);
            wall_path = wall_path.max(cost.wall_us);
            let step = steps[i];
            match per_source.iter_mut().find(|(s, _)| s == &step.query.source) {
                Some((_, c)) => *c += cost,
                None => per_source.push((step.query.source.clone(), cost)),
            }
            tagged.push(TaggedResult {
                source: step.query.source.clone(),
                purpose: step.query.purpose,
                result,
            });
        }
        Ok(BatchOutcome {
            tagged,
            cost: total,
            critical_us: critical,
            wall_path_us: wall_path,
            failed,
            per_source,
        })
    }

    /// Plugs in a new source: matches its OML against the global schema
    /// (MDSM) and installs the wrapper — the paper's two-step plug-in
    /// procedure.
    pub fn register(&mut self, wrapper: Box<dyn Wrapper>) -> MatchReport {
        let report = self
            .model
            .register_source(&self.mdsm, wrapper.name(), wrapper.oml());
        // Replace an existing wrapper of the same name.
        self.wrappers.retain(|w| w.name() != wrapper.name());
        self.wrappers.push(wrapper);
        self.invalidate_cache();
        report
    }

    /// Unplugs a source. Returns whether it was present.
    pub fn unregister(&mut self, name: &str) -> bool {
        let had = self.wrappers.iter().any(|w| w.name() == name);
        self.wrappers.retain(|w| w.name() != name);
        self.model.unregister_source(name);
        self.invalidate_cache();
        had
    }

    /// The registered source descriptions, in registration order.
    pub fn sources(&self) -> Vec<&SourceDescription> {
        self.wrappers.iter().map(|w| w.description()).collect()
    }

    /// The wrapper for a source.
    pub fn wrapper(&self, name: &str) -> Option<&dyn Wrapper> {
        self.wrappers
            .iter()
            .find(|w| w.name() == name)
            .map(|w| w.as_ref())
    }

    /// Mutable wrapper access (the freshness experiment updates native
    /// databases through this).
    pub fn wrapper_mut(&mut self, name: &str) -> Option<&mut Box<dyn Wrapper>> {
        self.wrappers.iter_mut().find(|w| w.name() == name)
    }

    /// The global model (mappings and exemplar).
    pub fn model(&self) -> &GlobalModel {
        &self.model
    }

    /// Re-exports every OML from its native source. Returns the total
    /// object count across refreshed models.
    pub fn refresh_all(&mut self) -> usize {
        self.invalidate_cache();
        self.wrappers.iter_mut().map(|w| w.refresh()).sum()
    }

    /// Re-exports one source's OML from its native database, returning
    /// the refreshed model's object count — `None` when no such source
    /// is registered. Invalidation is *selective*: only this source's
    /// cached subquery results are dropped (their keys carry the source
    /// name), so after a single-source delta every other source keeps
    /// answering from cache and the next integrated question re-ships
    /// one source, not all of them.
    pub fn refresh_source(&mut self, name: &str) -> Option<usize> {
        let pos = self.wrappers.iter().position(|w| w.name() == name)?;
        if let Some(c) = &self.cache {
            c.invalidate_prefix(&format!("{name}\x01"));
        }
        Some(self.wrappers[pos].refresh())
    }

    /// Harvests every wrapper's free-text documents — the ranked-search
    /// index input. Sources without indexable text are omitted.
    pub fn harvest_text_docs(&self) -> Vec<(String, Vec<TextDoc>)> {
        self.wrappers
            .iter()
            .map(|w| (w.name().to_string(), w.text_docs()))
            .filter(|(_, docs)| !docs.is_empty())
            .collect()
    }

    /// Gathers planning facts from the wrappers: the cardinality of every
    /// mapped source entity, and value histograms for every attribute
    /// the mapping rules cover (so pushdown selectivity is estimated from
    /// the data rather than guessed). Both come from each OML's own memo
    /// ([`OemStore::cached_cardinality`],
    /// [`OemStore::cached_attribute_stats`]): built on first use, shared
    /// by every question, and dropped by the re-export or mutation that
    /// makes them stale — so the mediator keeps no statistics of its own
    /// to invalidate.
    pub fn source_infos(&self) -> Vec<SourceInfo> {
        self.wrappers
            .iter()
            .map(|w| {
                let oml = w.oml();
                let mut entity_cardinality = HashMap::new();
                let mut attr_stats = HashMap::new();
                if let Some(root) = oml.named(w.name()) {
                    for mapping in self.model.entities_of(w.name()) {
                        let entity = &mapping.source_entity;
                        let path = PathExpr::new(vec![PathStep::Label(entity.clone())]);
                        entity_cardinality
                            .insert(entity.clone(), oml.cached_cardinality(root, &path));
                        for (local, _global) in &mapping.attributes {
                            attr_stats.insert(
                                format!("{entity}.{local}"),
                                oml.cached_attribute_stats(root, &path, local),
                            );
                        }
                    }
                }
                SourceInfo {
                    name: w.name().to_string(),
                    capabilities: w.description().capabilities,
                    latency: w.description().latency,
                    entity_cardinality,
                    attr_stats,
                }
            })
            .collect()
    }

    /// Plans a question without executing it.
    pub fn plan(&self, question: &GeneQuestion) -> ExecutionPlan {
        plan(question, &self.model, &self.source_infos(), self.optimizer)
    }

    /// Answers a biological question: plan → per-source subqueries →
    /// fusion → reconciliation → filtered integrated view.
    ///
    /// The subqueries run in three phases, each concurrently across
    /// its sources:
    ///
    /// 1. the gene subqueries;
    /// 2. every other subquery. Under the default
    ///    [`OptimizerConfig::bind_join`], when the qualifying gene set is
    ///    small (≤ [`crate::optimizer::BIND_JOIN_MAX_KEYS`] symbols), the
    ///    observed symbols are pushed into the annotation, disease and
    ///    publication subqueries as a disjunction — a cross-source
    ///    semijoin; with no qualifying gene no further subquery is sent
    ///    at all;
    /// 3. under a bind join, the disease fill-in. Fusion reads the
    ///    details of every disease id a gene row claims, and an entry
    ///    that does not list the claiming gene is not among the
    ///    symbol-bound rows, so this phase fetches any such id by key
    ///    from that disease leg (on consistent sources the set is empty
    ///    and the phase sends nothing).
    ///
    /// Then, under [`OptimizerConfig::pushdown`], a mediator-side
    /// semijoin runs before fusion: a require clause with a name pattern
    /// that every answer must meet (`combine=all`, or the union when
    /// every require clause has one) narrows the gene rows, and the
    /// annotation rows with them, to the genes a matching function,
    /// disease or publication reaches, read through the value indexes
    /// memoised on the shipped stores. Every such gene sees the rows it
    /// saw before.
    ///
    /// Answers are unchanged; shipped volume and fused rows shrink. The
    /// conflict log covers the genes the plan considered.
    pub fn answer(&self, question: &GeneQuestion) -> Result<MediatedAnswer, MediatorError> {
        if self.model.providers_of("Gene").is_empty() {
            return Err(MediatorError::NoGeneProvider);
        }
        let plan = self.plan(question);
        let mut spent = Spent::default();

        // Phase 1: gene steps, concurrently across providers.
        let gene_steps: Vec<&crate::optimizer::PlanStep> = plan
            .steps
            .iter()
            .filter(|s| s.query.purpose == Purpose::Genes)
            .collect();
        let mut tagged =
            spent.add(self.run_batch(&gene_steps, &HashMap::new(), self.partial_results)?);
        if !gene_steps.is_empty() && tagged.is_empty() {
            // Every gene provider failed: nothing to integrate.
            return Err(MediatorError::NoGeneProvider);
        }
        let binding = if self.optimizer.bind_join {
            Binding::observe(&tagged)
        } else {
            None
        };

        // Phase 2: everything else, concurrently, with symbols bound
        // where the entity's mapping carries a Symbol attribute.
        let mut other_steps: Vec<&crate::optimizer::PlanStep> = Vec::new();
        let mut overrides: HashMap<usize, String> = HashMap::new();
        for step in plan
            .steps
            .iter()
            .filter(|s| s.query.purpose != Purpose::Genes)
        {
            if let Some(binding) = &binding {
                if binding.symbols.is_empty() {
                    // No gene qualified: no step can contribute.
                    continue;
                }
                let entity = step.query.purpose.entity();
                if let Some(local) = self.local_attr(&step.query.source, entity, "Symbol") {
                    let lorel = with_key_disjunction(&step.query.lorel, &local, &binding.symbols);
                    overrides.insert(other_steps.len(), lorel);
                }
            }
            other_steps.push(step);
        }
        tagged.extend(spent.add(self.run_batch(&other_steps, &overrides, self.partial_results)?));

        // Phase 3: claimed disease ids the bound disease rows missed.
        if let Some(binding) = &binding {
            let mut fill_steps: Vec<&crate::optimizer::PlanStep> = Vec::new();
            let mut fill_overrides: HashMap<usize, String> = HashMap::new();
            for (i, step) in other_steps.iter().enumerate() {
                if step.query.purpose != Purpose::Diseases || !overrides.contains_key(&i) {
                    continue;
                }
                let Some(local) = self.local_attr(&step.query.source, "Disease", "DiseaseID")
                else {
                    continue;
                };
                // A failed leg is already reported missing.
                let Some(shipped) = tagged
                    .iter()
                    .find(|t| t.source == step.query.source && t.purpose == Purpose::Diseases)
                else {
                    continue;
                };
                let covered: HashSet<String> = shipped
                    .result
                    .row_oids()
                    .into_iter()
                    .filter_map(|row| shipped.result.store.child_value(row, "DiseaseID"))
                    .map(AtomicValue::as_text)
                    .collect();
                let missing: Vec<&String> = binding
                    .disease_ids
                    .iter()
                    .filter(|id| !covered.contains(*id))
                    .collect();
                if !missing.is_empty() {
                    let lorel = with_key_disjunction(&step.query.lorel, &local, &missing);
                    fill_overrides.insert(fill_steps.len(), lorel);
                    fill_steps.push(step);
                }
            }
            if !fill_steps.is_empty() {
                // Each fill-in lands right after its leg's bound rows, so
                // fusion reads every source's rows in the unbound order.
                for fill in
                    spent.add(self.run_batch(&fill_steps, &fill_overrides, self.partial_results)?)
                {
                    let at = tagged
                        .iter()
                        .rposition(|t| t.source == fill.source && t.purpose == fill.purpose)
                        .map_or(tagged.len(), |i| i + 1);
                    tagged.insert(at, fill);
                }
            }
        }

        // The semijoin: a require clause with a name pattern narrows the
        // gene rows fusion reads to the genes it can reach.
        let details = Details::read(&tagged, &RowSelection::default());
        let selection = if self.optimizer.pushdown {
            semijoin::narrow(question, &tagged, &details)
        } else {
            RowSelection::default()
        };
        let mut fused = fuse_with(
            question,
            &tagged,
            &selection,
            Some(details),
            self.policy.clone(),
        );
        // A degraded answer carries its own degradation: the fused view
        // names every source whose contribution is missing, so callers
        // rendering only the answer still see the gap.
        for failure in &spent.failed_sources {
            if !fused.missing_sources.contains(&failure.source) {
                fused.missing_sources.push(failure.source.clone());
            }
        }
        Ok(MediatedAnswer {
            fused,
            plan,
            cost: spent.cost,
            critical_path_us: spent.critical_path_us,
            wall_path_us: spent.wall_path_us,
            failed_sources: spent.failed_sources,
            per_source_cost: spent.per_source_cost,
        })
    }

    /// The local attribute a source maps to `global` of the given
    /// entity, when present (`Symbol` is the bind-join key column).
    fn local_attr(&self, source: &str, entity: &str, global: &str) -> Option<String> {
        self.model
            .entities_of(source)
            .iter()
            .find(|m| m.global_entity == entity)
            .and_then(|m| {
                m.attributes
                    .iter()
                    .find(|(_, g)| g == global)
                    .map(|(l, _)| l.clone())
            })
    }

    /// Materialises the full ANNODA-GML instance: `Source` entries from
    /// the registry plus `Gene` / `Function` / `Disease` / `Annotation`
    /// entities fetched from every provider. Used by the general Lorel
    /// interface; the question path never materialises this.
    ///
    /// The fetch-all subqueries run as one batch of the question path,
    /// cache and panic containment included: after a single-source
    /// delta (whose refresh invalidates only that source's keys) a
    /// re-materialisation re-ships one source and reads the rest from
    /// cache. Any failed step fails the materialisation, even under
    /// [`Mediator::partial_results`] — a GML missing a source would be
    /// journaled as if that source were empty.
    pub fn materialize_gml(&self) -> Result<(OemStore, Cost), MediatorError> {
        let question = GeneQuestion::default();
        let fetch_all_plan = plan(
            &question,
            &self.model,
            &self.source_infos(),
            OptimizerConfig {
                pushdown: false,
                source_selection: false,
                bind_join: false,
            },
        );
        let steps: Vec<&crate::optimizer::PlanStep> = fetch_all_plan.steps.iter().collect();
        let BatchOutcome { tagged, cost, .. } = self.run_batch(&steps, &HashMap::new(), false)?;
        let fused = fuse(&question, &tagged, self.policy.clone());

        let mut gml = OemStore::new();
        let root = gml.new_complex();
        // Source registry entries (SourceID, Name, Content, Structure —
        // the attributes the §4.1 example reads).
        for (i, d) in self.sources().iter().enumerate() {
            let s = gml.add_complex_child(root, "Source").expect("complex");
            gml.add_atomic_child(s, "SourceID", AtomicValue::Int(i as i64 + 1))
                .expect("complex");
            gml.add_atomic_child(s, "Name", d.name.as_str())
                .expect("complex");
            gml.add_atomic_child(s, "Content", d.content.as_str())
                .expect("complex");
            gml.add_atomic_child(s, "Structure", d.structure.as_str())
                .expect("complex");
        }
        // Gene entities from the fused (unfiltered) integration.
        for g in &fused.genes {
            let ge = gml.add_complex_child(root, "Gene").expect("complex");
            gml.add_atomic_child(ge, "Symbol", g.symbol.as_str())
                .expect("complex");
            if let Some(id) = g.gene_id {
                gml.add_atomic_child(ge, "GeneID", AtomicValue::Int(id))
                    .expect("complex");
            }
            for (label, v) in [
                ("Organism", &g.organism),
                ("Description", &g.description),
                ("Position", &g.position),
            ] {
                if let Some(v) = v {
                    gml.add_atomic_child(ge, label, v.as_str())
                        .expect("complex");
                }
            }
            for f in &g.functions {
                gml.add_atomic_child(ge, "FunctionID", f.id.as_str())
                    .expect("complex");
            }
            for d in &g.diseases {
                gml.add_atomic_child(ge, "DiseaseID", d.id.as_str())
                    .expect("complex");
            }
            for l in &g.links {
                gml.add_atomic_child(ge, "Link", AtomicValue::Url(l.url.clone()))
                    .expect("complex");
            }
        }
        // Function / Disease / Annotation entities straight from the rows.
        for tr in &tagged {
            let labels: &[(&str, &str)] = match tr.purpose {
                Purpose::Functions => &[
                    ("FunctionID", "FunctionID"),
                    ("Name", "Name"),
                    ("Namespace", "Namespace"),
                    ("Definition", "Definition"),
                    ("Link", "Link"),
                ],
                Purpose::Diseases => &[
                    ("DiseaseID", "DiseaseID"),
                    ("Name", "Name"),
                    ("Symbol", "Symbol"),
                    ("Inheritance", "Inheritance"),
                    ("Link", "Link"),
                ],
                Purpose::Annotations => &[
                    ("Symbol", "Symbol"),
                    ("FunctionID", "FunctionID"),
                    ("Evidence", "Evidence"),
                ],
                Purpose::Publications => &[
                    ("PublicationID", "PublicationID"),
                    ("Title", "Title"),
                    ("Year", "Year"),
                    ("Journal", "Journal"),
                    ("Symbol", "Symbol"),
                    ("Link", "Link"),
                ],
                Purpose::Genes => continue,
            };
            let entity = tr.purpose.entity();
            for row in tr.result.row_oids() {
                let e = gml.add_complex_child(root, entity).expect("complex");
                for &(from, to) in labels {
                    for child in tr.result.store.children(row, from) {
                        if let Some(v) = tr.result.store.value_of(child) {
                            gml.add_atomic_child(e, to, v.clone()).expect("complex");
                        }
                    }
                }
            }
        }
        gml.set_name_overwrite("ANNODA-GML", root)
            .expect("fresh root");
        Ok((gml, cost))
    }

    /// Runs an arbitrary Lorel query against the (materialised) global
    /// model — the §4.1 interface. Returns the store the answer lives in.
    pub fn query_gml(&self, lorel: &str) -> Result<(OemStore, QueryOutcome, Cost), MediatorError> {
        self.query_gml_with(lorel, &FunctionRegistry::standard())
    }

    /// [`Mediator::query_gml`] with caller-registered specialty
    /// evaluation functions in scope.
    pub fn query_gml_with(
        &self,
        lorel: &str,
        functions: &FunctionRegistry,
    ) -> Result<(OemStore, QueryOutcome, Cost), MediatorError> {
        let (mut gml, cost) = self.materialize_gml()?;
        let outcome = run_query_with(&mut gml, lorel, functions)?;
        Ok((gml, outcome, cost))
    }

    /// Evaluates `lorel` against an **already-materialised, shared** GML
    /// store — the serving layer's zero-clone warm path. The base is
    /// never mutated: the answer lands in the returned
    /// [`AnswerOverlay`], resolvable through an [`annoda_oem::Snapshot`]
    /// over the same base. Needs no mediator instance, so callers can
    /// evaluate with no registry lock held.
    pub fn query_gml_shared(
        gml: &OemStore,
        lorel: &str,
        functions: &FunctionRegistry,
    ) -> Result<(AnswerOverlay, QueryOutcome, PlanExplain), MediatorError> {
        Ok(run_query_snapshot_explained(gml, lorel, functions)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::AspectClause;
    use annoda_sources::{Corpus, CorpusConfig};
    use annoda_wrap::{GoWrapper, LocusLinkWrapper, OmimWrapper};
    use std::sync::Arc;

    fn mediator_over(corpus: &Corpus) -> Mediator {
        let mut m = Mediator::new();
        m.register(Box::new(LocusLinkWrapper::new(corpus.locuslink.clone())));
        m.register(Box::new(GoWrapper::new(corpus.go.clone())));
        m.register(Box::new(OmimWrapper::new(corpus.omim.clone())));
        m
    }

    fn tiny() -> Corpus {
        Corpus::generate(CorpusConfig::tiny(42))
    }

    #[test]
    fn registration_discovers_the_three_entity_mappings() {
        let m = mediator_over(&tiny());
        let model = m.model();
        assert_eq!(model.sources().len(), 3);
        let gene_providers = model.providers_of("Gene");
        assert_eq!(gene_providers.len(), 1, "{gene_providers:?}");
        assert_eq!(gene_providers[0].0, "LocusLink");
        assert_eq!(gene_providers[0].1.source_entity, "Locus");
        let fn_providers = model.providers_of("Function");
        assert_eq!(fn_providers.len(), 1);
        assert_eq!(fn_providers[0].1.source_entity, "Term");
        let dis_providers = model.providers_of("Disease");
        assert_eq!(dis_providers.len(), 1);
        assert_eq!(dis_providers[0].1.source_entity, "Entry");
        let ann_providers = model.providers_of("Annotation");
        assert_eq!(ann_providers.len(), 1);
        assert_eq!(ann_providers[0].1.source_entity, "Annotation");
    }

    #[test]
    fn mapping_covers_the_join_keys() {
        let m = mediator_over(&tiny());
        let model = m.model();
        let gene = &model.providers_of("Gene")[0].1;
        let has = |local: &str, global: &str| {
            gene.attributes
                .iter()
                .any(|(l, g)| l == local && g == global)
        };
        assert!(has("Symbol", "Symbol"), "{:?}", gene.attributes);
        assert!(has("LocusID", "GeneID"), "{:?}", gene.attributes);
        assert!(has("GOID", "FunctionID"), "{:?}", gene.attributes);
        assert!(has("MIM", "DiseaseID"), "{:?}", gene.attributes);
        assert!(has("Organism", "Organism"), "{:?}", gene.attributes);

        let ann = &model.providers_of("Annotation")[0].1;
        assert!(
            ann.attributes
                .iter()
                .any(|(l, g)| l == "Gene" && g == "Symbol"),
            "{:?}",
            ann.attributes
        );
        assert!(
            ann.attributes
                .iter()
                .any(|(l, g)| l == "Accession" && g == "FunctionID"),
            "{:?}",
            ann.attributes
        );

        let dis = &model.providers_of("Disease")[0].1;
        assert!(
            dis.attributes
                .iter()
                .any(|(l, g)| l == "MimNumber" && g == "DiseaseID"),
            "{:?}",
            dis.attributes
        );
        assert!(
            dis.attributes
                .iter()
                .any(|(l, g)| l == "GeneSymbol" && g == "Symbol"),
            "{:?}",
            dis.attributes
        );
    }

    #[test]
    fn figure5_question_end_to_end() {
        let corpus = tiny();
        let m = mediator_over(&corpus);
        let ans = m.answer(&GeneQuestion::figure5()).unwrap();
        // Expected set computed directly from the corpus: genes with at
        // least one GO id (either side) and no OMIM association.
        let mut expected: Vec<String> = corpus
            .locuslink
            .scan()
            .filter(|r| {
                let has_fn = !r.go_ids.is_empty()
                    || corpus.go.annotations_of_gene(&r.symbol).next().is_some();
                let has_dis =
                    !r.omim_ids.is_empty() || corpus.omim.by_gene(&r.symbol).next().is_some();
                has_fn && !has_dis
            })
            .map(|r| r.symbol.clone())
            .collect();
        expected.sort();
        let got: Vec<String> = ans.fused.genes.iter().map(|g| g.symbol.clone()).collect();
        assert_eq!(got, expected);
        assert!(ans.cost.requests >= 3, "all three sources contacted");
    }

    #[test]
    fn answers_are_identical_with_and_without_optimisation() {
        let corpus = tiny();
        let mut m = mediator_over(&corpus);
        let q = GeneQuestion {
            organism: Some("Homo sapiens".into()),
            function: AspectClause::Require(None),
            disease: AspectClause::Exclude(None),
            ..GeneQuestion::default()
        };
        let optimised = m.answer(&q).unwrap();
        m.optimizer = OptimizerConfig {
            pushdown: false,
            source_selection: false,
            bind_join: false,
        };
        let naive = m.answer(&q).unwrap();
        let a: Vec<&str> = optimised
            .fused
            .genes
            .iter()
            .map(|g| g.symbol.as_str())
            .collect();
        let b: Vec<&str> = naive
            .fused
            .genes
            .iter()
            .map(|g| g.symbol.as_str())
            .collect();
        assert_eq!(a, b, "optimisation must not change the answer");
        assert!(
            optimised.cost.virtual_us <= naive.cost.virtual_us,
            "optimised {} > naive {}",
            optimised.cost.virtual_us,
            naive.cost.virtual_us
        );
    }

    #[test]
    fn pushdown_reduces_shipped_records() {
        let corpus = tiny();
        let mut m = mediator_over(&corpus);
        let q = GeneQuestion {
            organism: Some("Homo sapiens".into()),
            ..GeneQuestion::default()
        };
        let with = m.answer(&q).unwrap();
        m.optimizer.pushdown = false;
        let without = m.answer(&q).unwrap();
        assert!(with.cost.records < without.cost.records);
        let a: Vec<&str> = with.fused.genes.iter().map(|g| g.symbol.as_str()).collect();
        let b: Vec<&str> = without
            .fused
            .genes
            .iter()
            .map(|g| g.symbol.as_str())
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn conflicts_surface_with_inconsistent_corpus() {
        let corpus = Corpus::generate(CorpusConfig {
            loci: 60,
            go_terms: 30,
            omim_entries: 20,
            seed: 9,
            inconsistency_rate: 0.5,
        });
        let m = mediator_over(&corpus);
        let q = GeneQuestion {
            function: AspectClause::Require(None),
            ..GeneQuestion::default()
        };
        let ans = m.answer(&q).unwrap();
        assert!(
            !ans.fused.conflicts.is_empty(),
            "injected inconsistencies must be detected"
        );
    }

    #[test]
    fn paper_query_against_materialised_gml() {
        let m = mediator_over(&tiny());
        let (gml, outcome, _cost) = m
            .query_gml(r#"select S from ANNODA-GML.Source S where S.Name = "LocusLink""#)
            .unwrap();
        assert_eq!(outcome.rows.len(), 1);
        let obj = outcome.sole_result(&gml).unwrap();
        assert_eq!(
            gml.child_value(obj, "Name"),
            Some(&AtomicValue::Str("LocusLink".into()))
        );
        // The answer object carries the four Figure-4 Source attributes.
        let labels: Vec<&str> = gml
            .edges_of(obj)
            .iter()
            .map(|e| gml.label_name(e.label))
            .collect();
        assert_eq!(labels, vec!["SourceID", "Name", "Content", "Structure"]);
    }

    #[test]
    fn unregister_removes_provider() {
        let mut m = mediator_over(&tiny());
        assert!(m.unregister("OMIM"));
        assert!(!m.unregister("OMIM"));
        assert_eq!(m.sources().len(), 2);
        assert!(m.model().providers_of("Disease").is_empty());
        // Questions ignoring diseases still work.
        let ans = m.answer(&GeneQuestion::default()).unwrap();
        assert!(!ans.fused.genes.is_empty());
    }

    #[test]
    fn one_mediator_serves_concurrent_questions() {
        // The single access point is shared: `answer` takes `&self`, so
        // several users can ask at once (with the cache exercised
        // underneath).
        let corpus = tiny();
        let mut m = mediator_over(&corpus);
        m.enable_cache();
        let expected_fig5 = m
            .answer(&GeneQuestion::figure5())
            .unwrap()
            .fused
            .genes
            .len();
        let expected_all = m
            .answer(&GeneQuestion::default())
            .unwrap()
            .fused
            .genes
            .len();
        let m = &m;
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|i| {
                    s.spawn(move || {
                        let q = if i % 2 == 0 {
                            GeneQuestion::figure5()
                        } else {
                            GeneQuestion::default()
                        };
                        m.answer(&q).unwrap().fused.genes.len()
                    })
                })
                .collect();
            for (i, h) in handles.into_iter().enumerate() {
                let got = h.join().unwrap();
                let expected = if i % 2 == 0 {
                    expected_fig5
                } else {
                    expected_all
                };
                assert_eq!(got, expected);
            }
        });
    }

    #[test]
    fn error_displays_are_informative() {
        assert!(MediatorError::NoGeneProvider.to_string().contains("Gene"));
        assert!(MediatorError::UnknownSource("X".into())
            .to_string()
            .contains("X"));
        let wrap_err: MediatorError = annoda_wrap::WrapError::Unsupported("down".into()).into();
        assert!(wrap_err.to_string().contains("down"));
        let lorel_err: MediatorError = annoda_lorel::LorelError::Eval("bad".into()).into();
        assert!(lorel_err.to_string().contains("bad"));
    }

    #[test]
    fn no_gene_provider_is_an_error() {
        let corpus = tiny();
        let mut m = Mediator::new();
        m.register(Box::new(OmimWrapper::new(corpus.omim.clone())));
        assert!(matches!(
            m.answer(&GeneQuestion::default()),
            Err(MediatorError::NoGeneProvider)
        ));
    }

    #[test]
    fn bind_join_preserves_answers_and_ships_less() {
        let corpus = tiny();
        let mut m = mediator_over(&corpus);
        let q = GeneQuestion {
            symbol_like: Some("B%".into()),
            function: AspectClause::Require(None),
            disease: AspectClause::Exclude(None),
            ..GeneQuestion::default()
        };
        m.optimizer.bind_join = false;
        let unbound = m.answer(&q).unwrap();
        m.optimizer.bind_join = true;
        let bound = m.answer(&q).unwrap();
        let a: Vec<&str> = unbound
            .fused
            .genes
            .iter()
            .map(|g| g.symbol.as_str())
            .collect();
        let b: Vec<&str> = bound
            .fused
            .genes
            .iter()
            .map(|g| g.symbol.as_str())
            .collect();
        assert_eq!(a, b, "bind join must not change the answer");
        assert!(
            bound.cost.records < unbound.cost.records,
            "bound {} >= unbound {}",
            bound.cost.records,
            unbound.cost.records
        );
    }

    #[test]
    fn bind_join_with_empty_gene_set_skips_second_phase() {
        let corpus = tiny();
        let mut m = mediator_over(&corpus);
        m.optimizer.bind_join = true;
        let q = GeneQuestion {
            symbol_like: Some("ZZZ_NO_MATCH".into()),
            function: AspectClause::Require(None),
            ..GeneQuestion::default()
        };
        let ans = m.answer(&q).unwrap();
        assert!(ans.fused.genes.is_empty());
        // Only the gene step: no symbol qualified, so neither the
        // annotation step nor the Function detail step can contribute.
        assert_eq!(ans.cost.requests, 1);
        m.optimizer.bind_join = false;
        let unbound = m.answer(&q).unwrap();
        assert!(unbound.fused.genes.is_empty());
        assert_eq!(unbound.cost.requests, 3, "unbound, every planned step runs");
        assert_eq!(
            unbound.plan, ans.plan,
            "binding changes execution, not the plan"
        );
    }

    #[test]
    fn bound_disease_leg_fills_in_claims_its_entries_do_not_list() {
        use annoda_sources::{OmimEntry, OmimType};
        let mut corpus = tiny();
        // A locus claims an entry that lists no gene: the symbol-bound
        // disease rows cannot carry it, yet fusion reads its name.
        let mim = 999_001;
        corpus.omim.upsert(OmimEntry {
            mim_number: mim,
            title: "UNLISTED SYNDROME".into(),
            entry_type: OmimType::Phenotype,
            gene_symbols: Vec::new(),
            inheritance: None,
            text: String::new(),
        });
        let locus = corpus.locuslink.scan().next().unwrap();
        let (id, symbol) = (locus.locus_id, locus.symbol.clone());
        corpus.locuslink.by_id_mut(id).unwrap().omim_ids.push(mim);
        let mut m = mediator_over(&corpus);
        let q = GeneQuestion {
            symbol_like: Some(symbol.clone()),
            disease: AspectClause::Require(Some("%UNLISTED%".into())),
            ..GeneQuestion::default()
        };
        m.optimizer.bind_join = false;
        let unbound = m.answer(&q).unwrap();
        assert_eq!(unbound.cost.requests, 2);
        let [gene] = unbound.fused.genes.as_slice() else {
            panic!("{:?}", unbound.fused.genes);
        };
        assert_eq!(gene.symbol, symbol);
        let disease = gene.diseases.iter().find(|d| d.id == mim.to_string());
        assert_eq!(
            disease.and_then(|d| d.name.as_deref()),
            Some("UNLISTED SYNDROME")
        );

        m.optimizer.bind_join = true;
        // The cache keeps every shipped result, fill-in included.
        m.enable_cache();
        let bound = m.answer(&q).unwrap();
        assert_eq!(bound.fused.genes, unbound.fused.genes);
        assert_eq!(bound.fused.conflicts, unbound.fused.conflicts);
        // Gene leg, bound disease leg (no row), and the keyed fill-in.
        assert_eq!(bound.cost.requests, 3);

        // The fill-in keys on the integer MIM number spelled as a string:
        // the OMIM wrapper seeks it instead of scanning every entry.
        let disease_step = bound
            .plan
            .steps
            .iter()
            .find(|s| s.query.purpose == Purpose::Diseases)
            .unwrap();
        let fill_in =
            with_key_disjunction(&disease_step.query.lorel, "MimNumber", &[mim.to_string()]);
        let shipped = m
            .cache
            .as_ref()
            .unwrap()
            .get(&format!("OMIM\x01{fill_in}"))
            .expect("the fill-in ran");
        assert_eq!(shipped.rows, 1);
        assert!(shipped.planner_index_backed, "`{fill_in}` scanned");
    }

    #[test]
    fn binding_stops_at_the_symbol_past_the_key_limit() {
        use annoda_wrap::SubqueryResult;
        let genes = |n: usize| {
            let mut store = OemStore::new();
            let root = store.new_complex();
            for i in 0..n {
                let row = store.add_complex_child(root, "row").unwrap();
                store
                    .add_atomic_child(row, "Symbol", format!("G{i}").as_str())
                    .unwrap();
            }
            TaggedResult {
                source: "LocusLink".into(),
                purpose: Purpose::Genes,
                result: SubqueryResult {
                    store: Arc::new(store),
                    root,
                    rows: n,
                    planner_index_backed: false,
                },
            }
        };
        let max = crate::optimizer::BIND_JOIN_MAX_KEYS;
        assert_eq!(max, 64);
        let bound = Binding::observe(&[genes(max)]).expect("64 symbols bind");
        assert_eq!(bound.symbols.len(), max);
        assert!(Binding::observe(&[genes(max + 1)]).is_none());
    }

    /// A corpus in which one gene's only `%ZYMASE%` function and another
    /// gene's only `%UNLISTED%` disease are claimed by their loci alone:
    /// GO annotates no gene with the term and the OMIM entry lists no
    /// gene. Returns the two symbols.
    fn locus_only_claims(corpus: &mut Corpus) -> (String, String) {
        use annoda_sources::{GoNamespace, GoTerm, OmimEntry, OmimType};
        let term = "GO:9990001".to_string();
        corpus.go.insert_term(GoTerm {
            id: term.clone(),
            name: "ZYMASE ACTIVITY".into(),
            namespace: GoNamespace::MolecularFunction,
            definition: String::new(),
            is_a: Vec::new(),
            part_of: Vec::new(),
        });
        let mim = 999_002;
        corpus.omim.upsert(OmimEntry {
            mim_number: mim,
            title: "UNLISTED SYNDROME".into(),
            entry_type: OmimType::Phenotype,
            gene_symbols: Vec::new(),
            inheritance: None,
            text: String::new(),
        });
        let loci: Vec<(u32, String)> = corpus
            .locuslink
            .scan()
            .take(2)
            .map(|r| (r.locus_id, r.symbol.clone()))
            .collect();
        let [(fn_locus, fn_symbol), (dis_locus, dis_symbol)] = loci.as_slice() else {
            panic!("two loci");
        };
        corpus
            .locuslink
            .by_id_mut(*fn_locus)
            .unwrap()
            .go_ids
            .push(term);
        corpus
            .locuslink
            .by_id_mut(*dis_locus)
            .unwrap()
            .omim_ids
            .push(mim);
        (fn_symbol.clone(), dis_symbol.clone())
    }

    /// The symbols `q` answers with the semijoin (under pushdown) and the
    /// bind join each on and off; all four must agree.
    fn answered_in_every_config(m: &mut Mediator, q: &GeneQuestion) -> Vec<String> {
        let mut answers = Vec::new();
        for pushdown in [true, false] {
            for bind_join in [true, false] {
                m.optimizer.pushdown = pushdown;
                m.optimizer.bind_join = bind_join;
                let ans = m.answer(q).unwrap();
                answers.push(ans.fused.genes.into_iter().map(|g| g.symbol).collect());
            }
        }
        assert!(answers.windows(2).all(|w| w[0] == w[1]), "{answers:?}");
        answers.swap_remove(0)
    }

    #[test]
    fn semijoin_reaches_a_function_only_the_locus_claims() {
        let mut corpus = tiny();
        let (fn_symbol, _) = locus_only_claims(&mut corpus);
        let mut m = mediator_over(&corpus);
        let q = GeneQuestion {
            function: AspectClause::Require(Some("%ZYMASE%".into())),
            ..GeneQuestion::default()
        };
        assert_eq!(answered_in_every_config(&mut m, &q), vec![fn_symbol]);
    }

    #[test]
    fn semijoin_reaches_a_disease_only_the_locus_claims() {
        let mut corpus = tiny();
        let (_, dis_symbol) = locus_only_claims(&mut corpus);
        let mut m = mediator_over(&corpus);
        let q = GeneQuestion {
            disease: AspectClause::Require(Some("%UNLISTED%".into())),
            ..GeneQuestion::default()
        };
        assert_eq!(answered_in_every_config(&mut m, &q), vec![dis_symbol]);
    }

    #[test]
    fn semijoin_under_any_answers_the_union_of_its_pattern_requires() {
        let mut corpus = tiny();
        let (fn_symbol, dis_symbol) = locus_only_claims(&mut corpus);
        let mut m = mediator_over(&corpus);
        let q = GeneQuestion {
            function: AspectClause::Require(Some("%ZYMASE%".into())),
            disease: AspectClause::Require(Some("%UNLISTED%".into())),
            combine: crate::decompose::Combination::Any,
            ..GeneQuestion::default()
        };
        let mut expected = vec![fn_symbol, dis_symbol];
        expected.sort();
        assert_eq!(answered_in_every_config(&mut m, &q), expected);
    }

    #[test]
    fn fourth_source_publications_end_to_end() {
        let corpus = tiny();
        let mut m = mediator_over(&corpus);
        let report = m.register(Box::new(annoda_wrap::PubmedWrapper::new(
            corpus.pubmed.clone(),
        )));
        assert!(report.matched >= 5, "{report:?}");
        let providers = m.model().providers_of("Publication");
        assert_eq!(providers.len(), 1, "{providers:?}");
        assert_eq!(providers[0].1.source_entity, "Citation");
        let has = |local: &str, global: &str| {
            providers[0]
                .1
                .attributes
                .iter()
                .any(|(l, g)| l == local && g == global)
        };
        assert!(
            has("Pmid", "PublicationID"),
            "{:?}",
            providers[0].1.attributes
        );
        assert!(
            has("GeneSymbol", "Symbol"),
            "{:?}",
            providers[0].1.attributes
        );
        assert!(
            has("ArticleTitle", "Title"),
            "{:?}",
            providers[0].1.attributes
        );
        assert!(has("Journal", "Journal"), "{:?}", providers[0].1.attributes);

        // Genes cited in some publication.
        let q = GeneQuestion {
            publication: AspectClause::Require(None),
            ..GeneQuestion::default()
        };
        let ans = m.answer(&q).unwrap();
        let mut expected: Vec<String> = corpus
            .locuslink
            .scan()
            .filter(|r| corpus.pubmed.by_gene(&r.symbol).next().is_some())
            .map(|r| r.symbol.clone())
            .collect();
        expected.sort();
        let got: Vec<String> = ans.fused.genes.iter().map(|g| g.symbol.clone()).collect();
        assert_eq!(got, expected);
        for g in &ans.fused.genes {
            assert!(!g.publications.is_empty());
            assert!(g.publications.iter().all(|p| p.title.is_some()));
        }

        // And the other three mappings are undisturbed by the larger
        // global schema.
        assert_eq!(m.model().providers_of("Gene").len(), 1);
        assert_eq!(m.model().providers_of("Function").len(), 1);
        assert_eq!(m.model().providers_of("Disease").len(), 1);
    }

    #[test]
    fn publication_clause_ignored_without_provider() {
        let corpus = tiny();
        let m = mediator_over(&corpus); // 3 sources only
        let q = GeneQuestion {
            publication: AspectClause::Require(None),
            ..GeneQuestion::default()
        };
        // No provider: no gene can satisfy the require clause.
        let ans = m.answer(&q).unwrap();
        assert!(ans.fused.genes.is_empty());
    }

    #[test]
    fn evidence_gated_reconciliation_drops_weak_go_only_claims() {
        use annoda_sources::{EvidenceCode, GoAnnotation};
        let mut corpus = tiny();
        // Give one gene a GO-side-only annotation with weak (IEA)
        // evidence and another with strong (IDA) evidence.
        let symbol = corpus.locuslink.scan().next().unwrap().symbol.clone();
        let term_weak = "GO:0000001".to_string();
        let term_strong = "GO:0000002".to_string();
        corpus.go.insert_annotation(GoAnnotation {
            gene_symbol: symbol.clone(),
            term_id: term_weak.clone(),
            evidence: EvidenceCode::Iea,
        });
        corpus.go.insert_annotation(GoAnnotation {
            gene_symbol: symbol.clone(),
            term_id: term_strong.clone(),
            evidence: EvidenceCode::Ida,
        });
        let mut m = mediator_over(&corpus);
        m.policy = ReconcilePolicy::MinEvidence(3);
        let q = GeneQuestion {
            symbol_like: Some(symbol.clone()),
            function: AspectClause::Require(None),
            ..GeneQuestion::default()
        };
        let ans = m.answer(&q).unwrap();
        let gene = ans
            .fused
            .genes
            .iter()
            .find(|g| g.symbol == symbol)
            .expect("gene kept (it has locus-side annotations too)");
        let fids: Vec<&str> = gene.functions.iter().map(|f| f.id.as_str()).collect();
        assert!(
            !fids.contains(&term_weak.as_str()),
            "IEA-only claim must be dropped: {fids:?}"
        );
        assert!(
            fids.contains(&term_strong.as_str()),
            "IDA-backed claim must survive: {fids:?}"
        );
        // Locus-side claims survive regardless of GO evidence.
        for locus_fid in &corpus.locuslink.by_symbol(&symbol).unwrap().go_ids {
            assert!(fids.contains(&locus_fid.as_str()));
        }
    }

    #[test]
    fn partial_results_survive_a_downed_source() {
        use annoda_wrap::{FailureMode, FlakyWrapper, OmimWrapper};
        let corpus = tiny();
        let mut m = Mediator::new();
        m.register(Box::new(LocusLinkWrapper::new(corpus.locuslink.clone())));
        m.register(Box::new(GoWrapper::new(corpus.go.clone())));
        m.register(Box::new(FlakyWrapper::new(
            OmimWrapper::new(corpus.omim.clone()),
            FailureMode::Always,
        )));
        let q = GeneQuestion {
            function: AspectClause::Require(None),
            disease: AspectClause::Require(None),
            ..GeneQuestion::default()
        };

        // Default: the outage fails the question.
        assert!(matches!(m.answer(&q), Err(MediatorError::Wrap(_))));

        // Partial results: the question degrades gracefully — OMIM's
        // contribution is missing (so the disease-require clause can
        // only be met by locus-side MIM ids) and the failure is
        // reported.
        m.partial_results = true;
        let ans = m.answer(&q).unwrap();
        assert_eq!(ans.failed_sources.len(), 1);
        assert_eq!(ans.failed_sources[0].source, "OMIM");
        assert!(ans.failed_sources[0].error.contains("injected failure"));
        // FlakyWrapper simulates unreachability: a transport loss, and
        // the fused answer itself names the missing source.
        assert_eq!(ans.failed_sources[0].kind, FailureKind::Transport);
        assert_eq!(ans.fused.missing_sources, vec!["OMIM".to_string()]);
        let expected: Vec<String> = {
            let mut v: Vec<String> = corpus
                .locuslink
                .scan()
                .filter(|r| {
                    let has_fn = !r.go_ids.is_empty()
                        || corpus.go.annotations_of_gene(&r.symbol).next().is_some();
                    has_fn && !r.omim_ids.is_empty()
                })
                .map(|r| r.symbol.clone())
                .collect();
            v.sort();
            v
        };
        let got: Vec<String> = ans.fused.genes.iter().map(|g| g.symbol.clone()).collect();
        assert_eq!(got, expected, "locus-side disease ids still answer");
    }

    #[test]
    fn all_gene_providers_down_is_still_an_error() {
        use annoda_wrap::{FailureMode, FlakyWrapper};
        let corpus = tiny();
        let mut m = Mediator::new();
        m.register(Box::new(FlakyWrapper::new(
            LocusLinkWrapper::new(corpus.locuslink.clone()),
            FailureMode::Always,
        )));
        m.register(Box::new(GoWrapper::new(corpus.go.clone())));
        m.partial_results = true;
        assert!(matches!(
            m.answer(&GeneQuestion::default()),
            Err(MediatorError::NoGeneProvider)
        ));
    }

    #[test]
    fn intermittent_failures_heal_between_questions() {
        use annoda_wrap::{FailureMode, FlakyWrapper, OmimWrapper};
        let corpus = tiny();
        let mut m = Mediator::new();
        m.register(Box::new(LocusLinkWrapper::new(corpus.locuslink.clone())));
        m.register(Box::new(GoWrapper::new(corpus.go.clone())));
        // Fails every 2nd request to OMIM.
        m.register(Box::new(FlakyWrapper::new(
            OmimWrapper::new(corpus.omim.clone()),
            FailureMode::EveryNth(2),
        )));
        m.partial_results = true;
        let q = GeneQuestion {
            disease: AspectClause::Require(None),
            ..GeneQuestion::default()
        };
        let first = m.answer(&q).unwrap(); // OMIM attempt 1: ok
        assert!(first.failed_sources.is_empty());
        let second = m.answer(&q).unwrap(); // OMIM attempt 2: fails
        assert_eq!(second.failed_sources.len(), 1);
        let third = m.answer(&q).unwrap(); // OMIM attempt 3: ok again
        assert!(third.failed_sources.is_empty());
        let a: Vec<&str> = first
            .fused
            .genes
            .iter()
            .map(|g| g.symbol.as_str())
            .collect();
        let c: Vec<&str> = third
            .fused
            .genes
            .iter()
            .map(|g| g.symbol.as_str())
            .collect();
        assert_eq!(a, c);
    }

    #[test]
    fn panicking_wrapper_degrades_like_a_failing_one() {
        use annoda_wrap::{FailureMode, FlakyWrapper, OmimWrapper};
        let corpus = tiny();
        let mut m = Mediator::new();
        m.register(Box::new(LocusLinkWrapper::new(corpus.locuslink.clone())));
        m.register(Box::new(GoWrapper::new(corpus.go.clone())));
        m.register(Box::new(FlakyWrapper::new(
            OmimWrapper::new(corpus.omim.clone()),
            FailureMode::Panic,
        )));
        let q = GeneQuestion {
            function: AspectClause::Require(None),
            disease: AspectClause::Require(None),
            ..GeneQuestion::default()
        };

        // Without partial results the panic becomes this question's
        // error — `answer` itself must not unwind.
        let err = m
            .answer(&q)
            .expect_err("the crashed source fails the question");
        let msg = err.to_string();
        assert!(msg.contains("panic"), "{msg}");
        assert!(msg.contains("OMIM"), "{msg}");

        // With partial results the panic is contained to its source and
        // reported alongside clean failures.
        m.partial_results = true;
        let ans = m.answer(&q).unwrap();
        assert_eq!(ans.failed_sources.len(), 1);
        assert_eq!(ans.failed_sources[0].source, "OMIM");
        assert!(
            ans.failed_sources[0].error.contains("panic"),
            "{:?}",
            ans.failed_sources
        );
        assert_eq!(ans.failed_sources[0].kind, FailureKind::Panic);
        assert_eq!(ans.fused.missing_sources, vec!["OMIM".to_string()]);
        // The healthy sources' answers are intact: same genes as a
        // mediator that never had OMIM.
        let mut healthy = Mediator::new();
        healthy.register(Box::new(LocusLinkWrapper::new(corpus.locuslink.clone())));
        healthy.register(Box::new(GoWrapper::new(corpus.go.clone())));
        let expected = healthy.answer(&q).unwrap();
        let a: Vec<&str> = ans.fused.genes.iter().map(|g| g.symbol.as_str()).collect();
        let b: Vec<&str> = expected
            .fused
            .genes
            .iter()
            .map(|g| g.symbol.as_str())
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn materialisation_contains_a_panicking_wrapper() {
        use annoda_wrap::{FailureMode, FlakyWrapper};
        let corpus = tiny();
        let mut m = Mediator::new();
        m.register(Box::new(LocusLinkWrapper::new(corpus.locuslink.clone())));
        m.register(Box::new(GoWrapper::new(corpus.go.clone())));
        m.register(Box::new(FlakyWrapper::new(
            OmimWrapper::new(corpus.omim.clone()),
            FailureMode::Panic,
        )));
        // The panic becomes the materialisation's error; it must not
        // unwind into the caller (a commit, a feed tailer, a request).
        let err = m
            .materialize_gml()
            .expect_err("the crashed source fails the materialisation");
        let msg = err.to_string();
        assert!(msg.contains("panic"), "{msg}");
    }

    #[test]
    fn materialisation_fails_on_a_failed_source_even_with_partial_results() {
        use annoda_wrap::{FailureMode, FlakyWrapper};
        let corpus = tiny();
        let mut m = Mediator::new();
        m.register(Box::new(LocusLinkWrapper::new(corpus.locuslink.clone())));
        m.register(Box::new(GoWrapper::new(corpus.go.clone())));
        m.register(Box::new(FlakyWrapper::new(
            OmimWrapper::new(corpus.omim.clone()),
            FailureMode::Always,
        )));
        m.partial_results = true;
        // A question degrades to a flagged partial answer ...
        let q = GeneQuestion {
            disease: AspectClause::Require(None),
            ..GeneQuestion::default()
        };
        assert_eq!(m.answer(&q).unwrap().failed_sources.len(), 1);
        // ... but a GML without OMIM would be journaled as if OMIM were
        // empty, so materialisation refuses.
        assert!(matches!(
            m.materialize_gml(),
            Err(MediatorError::Wrap(WrapError::Transport(_)))
        ));
    }

    /// The planning statistics as they were gathered before the OML memo
    /// supplied them: a whole-OML DataGuide for entity cardinalities and
    /// a fresh histogram per mapped attribute. Kept as the reference
    /// [`Mediator::source_infos`] must reproduce.
    fn reference_infos(m: &Mediator) -> Vec<SourceInfo> {
        use annoda_oem::dataguide::DataGuide;
        use annoda_oem::AttributeStats;
        m.wrappers
            .iter()
            .map(|w| {
                let oml = w.oml();
                let root = oml.named(w.name()).expect("OML root");
                let guide = DataGuide::build(oml, &[root]);
                let entity_cardinality = guide
                    .out_labels(guide.root())
                    .into_iter()
                    .map(|label| (label.to_string(), guide.cardinality(&[label])))
                    .collect();
                let mut attr_stats = HashMap::new();
                for mapping in m.model.entities_of(w.name()) {
                    let parents: Vec<_> = oml.children(root, &mapping.source_entity).collect();
                    for (local, _global) in &mapping.attributes {
                        attr_stats.insert(
                            format!("{}.{local}", mapping.source_entity),
                            Arc::new(AttributeStats::collect(oml, &parents, local)),
                        );
                    }
                }
                SourceInfo {
                    name: w.name().to_string(),
                    capabilities: w.description().capabilities,
                    latency: w.description().latency,
                    entity_cardinality,
                    attr_stats,
                }
            })
            .collect()
    }

    #[test]
    fn memoised_statistics_plan_exactly_like_the_reference() {
        let corpus = Corpus::generate(CorpusConfig::default().scaled(4.0));
        assert_eq!(corpus.locuslink.len(), 2000);
        let mut m = mediator_over(&corpus);
        m.register(Box::new(annoda_wrap::PubmedWrapper::new(
            corpus.pubmed.clone(),
        )));
        let reference = reference_infos(&m);
        let mut questions = vec![
            // tests/equivalence.rs::questions()
            GeneQuestion::default(),
            GeneQuestion::figure5(),
            GeneQuestion {
                organism: Some("Homo sapiens".into()),
                function: AspectClause::Require(None),
                ..GeneQuestion::default()
            },
            GeneQuestion {
                disease: AspectClause::Require(None),
                ..GeneQuestion::default()
            },
            GeneQuestion {
                symbol_like: Some("B%".into()),
                ..GeneQuestion::default()
            },
        ];
        // One more question per pushed-down operator: `=` and `like`.
        questions.push(GeneQuestion {
            organism: Some("Mus musculus".into()),
            disease: AspectClause::Exclude(None),
            ..GeneQuestion::default()
        });
        questions.push(GeneQuestion {
            function: AspectClause::Require(Some("%binding%".into())),
            publication: AspectClause::Require(Some("%gene%".into())),
            ..GeneQuestion::default()
        });
        for q in &questions {
            let memoised = m.plan(q);
            assert!(!memoised.steps.is_empty());
            assert_eq!(memoised, plan(q, &m.model, &reference, m.optimizer), "{q}");
        }
        // The fetch-all plan materialisation runs is unchanged too.
        let fetch_all = OptimizerConfig {
            pushdown: false,
            source_selection: false,
            bind_join: false,
        };
        let q = GeneQuestion::default();
        assert_eq!(
            plan(&q, &m.model, &m.source_infos(), fetch_all),
            plan(&q, &m.model, &reference, fetch_all)
        );
    }

    #[test]
    fn first_failure_in_plan_order_is_reported() {
        use annoda_wrap::{FailureMode, FlakyWrapper};
        let corpus = tiny();
        let mut m = Mediator::new();
        m.register(Box::new(LocusLinkWrapper::new(corpus.locuslink.clone())));
        // Both phase-2 sources are down; the reported error must name
        // the one whose step comes first in the plan, deterministically.
        m.register(Box::new(FlakyWrapper::new(
            GoWrapper::new(corpus.go.clone()),
            FailureMode::Always,
        )));
        m.register(Box::new(FlakyWrapper::new(
            OmimWrapper::new(corpus.omim.clone()),
            FailureMode::Always,
        )));
        let q = GeneQuestion {
            function: AspectClause::Require(None),
            disease: AspectClause::Require(None),
            ..GeneQuestion::default()
        };
        let plan = m.plan(&q);
        let first_failing = plan
            .steps
            .iter()
            .map(|s| s.query.source.as_str())
            .find(|s| *s != "LocusLink")
            .expect("plan contacts a non-gene source")
            .to_string();
        for _ in 0..8 {
            let err = m.answer(&q).expect_err("both aspect sources are down");
            assert!(
                err.to_string().contains(&first_failing),
                "expected `{first_failing}` in `{err}`"
            );
        }
    }

    #[test]
    fn cache_is_bounded_and_counts_hits_misses_evictions() {
        let corpus = tiny();
        let mut m = mediator_over(&corpus);
        // Pathologically small: total capacity rounds up to one entry
        // per shard, so distinct questions keep evicting.
        m.enable_cache_with_capacity(1);
        let stats = m.cache_stats().unwrap();
        assert!(stats.capacity >= 1);
        assert_eq!(
            (stats.len, stats.hits, stats.misses, stats.evictions),
            (0, 0, 0, 0)
        );

        let q = GeneQuestion::figure5();
        let first = m.answer(&q).unwrap();
        assert_eq!(first.cost.cache_hits, 0);
        let misses_after_first = m.cache_stats().unwrap().misses;
        assert!(misses_after_first > 0, "cold run misses");

        // Same question again: whatever is still cached is served
        // without a request; every served step is counted on the cost.
        let second = m.answer(&q).unwrap();
        let stats = m.cache_stats().unwrap();
        assert_eq!(second.cost.cache_hits, stats.hits);
        assert!(
            stats.len <= stats.capacity,
            "{} entries exceed capacity {}",
            stats.len,
            stats.capacity
        );

        // A different question forces new keys through the tiny cache:
        // evictions must occur and the bound must hold.
        m.answer(&GeneQuestion::default()).unwrap();
        let stats = m.cache_stats().unwrap();
        assert!(stats.len <= stats.capacity);
        assert!(stats.evictions > 0 || stats.len < stats.capacity);

        // A roomy cache serves the whole repeat question from memory.
        let mut big = mediator_over(&corpus);
        big.enable_cache_with_capacity(256);
        let cold = big.answer(&q).unwrap();
        assert_eq!(cold.cost.cache_hits, 0);
        let warm = big.answer(&q).unwrap();
        assert_eq!(warm.cost.requests, 0);
        assert_eq!(
            warm.cost.cache_hits as usize,
            warm.plan.steps.len(),
            "every step served from cache"
        );
        let stats = big.cache_stats().unwrap();
        assert_eq!(stats.evictions, 0);
        assert_eq!(stats.hits, warm.cost.cache_hits);
    }

    #[test]
    fn cache_eliminates_repeat_round_trips() {
        let corpus = tiny();
        let mut m = mediator_over(&corpus);
        m.enable_cache();
        let q = GeneQuestion::figure5();
        let first = m.answer(&q).unwrap();
        assert!(first.cost.requests > 0);
        let second = m.answer(&q).unwrap();
        assert_eq!(second.cost.requests, 0, "all subqueries served from cache");
        let a: Vec<&str> = first
            .fused
            .genes
            .iter()
            .map(|g| g.symbol.as_str())
            .collect();
        let b: Vec<&str> = second
            .fused
            .genes
            .iter()
            .map(|g| g.symbol.as_str())
            .collect();
        assert_eq!(a, b);

        // Refresh invalidates: the next answer pays again.
        m.refresh_all();
        let third = m.answer(&q).unwrap();
        assert!(third.cost.requests > 0);

        // Disabling clears it too.
        m.disable_cache();
        let fourth = m.answer(&q).unwrap();
        assert!(fourth.cost.requests > 0);
    }

    #[test]
    fn per_source_costs_sum_to_the_total() {
        let corpus = tiny();
        let m = mediator_over(&corpus);
        let ans = m.answer(&GeneQuestion::figure5()).unwrap();
        assert_eq!(ans.per_source_cost.len(), 3);
        let sum: u64 = ans.per_source_cost.iter().map(|(_, c)| c.virtual_us).sum();
        assert_eq!(sum, ans.cost.virtual_us);
        assert!(ans
            .per_source_cost
            .iter()
            .all(|(s, c)| !s.is_empty() && c.requests >= 1));
    }

    #[test]
    fn critical_path_is_at_most_total_cost() {
        let corpus = tiny();
        let m = mediator_over(&corpus);
        let ans = m.answer(&GeneQuestion::figure5()).unwrap();
        assert!(ans.critical_path_us > 0);
        assert!(
            ans.critical_path_us <= ans.cost.virtual_us,
            "parallel wall-clock {} must not exceed total work {}",
            ans.critical_path_us,
            ans.cost.virtual_us
        );
        // With 3+ sources in phase 2 the critical path is strictly
        // cheaper than serial execution.
        assert!(ans.critical_path_us < ans.cost.virtual_us);
    }

    #[test]
    fn wall_clock_is_measured_alongside_virtual_cost() {
        use annoda_wrap::{DelayMode, FailureMode, FlakyWrapper, OmimWrapper};
        use std::time::Duration;
        let corpus = tiny();
        let mut m = Mediator::new();
        m.register(Box::new(LocusLinkWrapper::new(corpus.locuslink.clone())));
        m.register(Box::new(GoWrapper::new(corpus.go.clone())));
        // One deliberately slow source: 5 ms per subquery.
        m.register(Box::new(
            FlakyWrapper::new(OmimWrapper::new(corpus.omim.clone()), FailureMode::Never)
                .with_delay(DelayMode::Fixed(Duration::from_millis(5))),
        ));
        let q = GeneQuestion {
            function: AspectClause::Require(None),
            disease: AspectClause::Require(None),
            ..GeneQuestion::default()
        };
        let ans = m.answer(&q).unwrap();
        // The slow source bounds the measured wall path from below; the
        // summed per-subquery wall time bounds it from above.
        assert!(
            ans.wall_path_us >= 5_000,
            "wall path {} must include the 5 ms stall",
            ans.wall_path_us
        );
        assert!(ans.wall_path_us <= ans.cost.wall_us);
        // Virtual accounting is untouched by real elapsed time.
        assert!(ans.critical_path_us <= ans.cost.virtual_us);
        let omim = ans
            .per_source_cost
            .iter()
            .find(|(s, _)| s == "OMIM")
            .expect("OMIM contributed");
        assert!(omim.1.wall_us >= 5_000);
    }

    #[test]
    fn refresh_all_reexports() {
        let corpus = tiny();
        let mut m = mediator_over(&corpus);
        let total = m.refresh_all();
        assert!(total > 0);
    }
}
