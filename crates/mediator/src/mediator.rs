//! The mediator façade: registration, planning, execution, fusion.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use annoda_lorel::{
    run_query_snapshot_explained, run_query_with, FunctionRegistry, LorelError, PlanExplain,
    QueryOutcome,
};
use annoda_match::{MatchReport, Mdsm};
use annoda_oem::dataguide::DataGuide;
use annoda_oem::TextDoc;
use annoda_oem::{AnswerOverlay, AtomicValue, AttributeStats, OemStore};
use annoda_search::{FusionStrategy, RankedAnswer, SearchIndex, SearchStats};
use annoda_wrap::{Cost, SourceDescription, SubqueryResult, WrapError, Wrapper};

use crate::cache::{CacheStats, SubqueryCache, DEFAULT_CACHE_CAPACITY};
use crate::decompose::{GeneQuestion, Purpose};
use crate::fusion::{fuse, FusedAnswer, TaggedResult};
use crate::gml::GlobalModel;
use crate::optimizer::{plan, ExecutionPlan, OptimizerConfig, SourceInfo};
use crate::reconcile::ReconcilePolicy;

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
    /// serialise on one lock. Hits charge a zero [`Cost`] with
    /// `cache_hits = 1`; lifetime hit/miss/eviction counters are
    /// readable through [`Mediator::cache_stats`].
    cache: Option<SubqueryCache>,
    /// The ranked-search index over the wrappers' harvested text
    /// documents (`None` until the first search). Invalidated together
    /// with the subquery cache: registration changes and refresh both
    /// change what the wrappers would harvest.
    search_index: Option<Arc<SearchIndex>>,
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
            search_index: None,
        }
    }

    /// Enables the subquery result cache: identical subqueries against
    /// an unchanged source are answered from the mediator without a
    /// source round trip. Disabled by default so cost accounting stays
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
        self.search_index = None;
    }

    /// Runs one batch of subqueries concurrently (one thread per
    /// source round trip), consulting the cache. Returns the results in
    /// step order, the summed cost, and the batch's critical paths (the
    /// slowest subquery by virtual cost and by measured wall-clock).
    fn run_batch(
        &self,
        steps: &[&crate::optimizer::PlanStep],
        overrides: &HashMap<usize, String>,
    ) -> Result<BatchOutcome, MediatorError> {
        // Resolve wrappers (and cache hits) up front.
        enum Job<'a> {
            Cached(Box<SubqueryResult>),
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
                    jobs.push((i, Job::Cached(Box::new(hit))));
                    continue;
                }
            }
            let wrapper = self
                .wrapper(&step.query.source)
                .ok_or_else(|| MediatorError::UnknownSource(step.query.source.clone()))?;
            jobs.push((i, Job::Run(wrapper, lorel, key)));
        }

        let mut outputs: Vec<(usize, SubqueryResult, Cost, Option<String>)> = Vec::new();
        let mut failures: Vec<(usize, WrapError, FailureKind)> = Vec::new();
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for (i, job) in jobs {
                match job {
                    Job::Cached(result) => outputs.push((i, *result, Cost::cache_hit(), None)),
                    Job::Run(wrapper, lorel, key) => {
                        handles.push((
                            i,
                            key,
                            scope.spawn(move || {
                                let mut cost = Cost::new();
                                let start = std::time::Instant::now();
                                let result = wrapper.subquery(&lorel, &mut cost);
                                // The mediator's own measurement
                                // subsumes whatever the wrapper timed
                                // (a remote round trip, an injected
                                // stall): one clock, one owner.
                                cost.wall_us = start.elapsed().as_micros() as u64;
                                (result, cost)
                            }),
                        ));
                    }
                }
            }
            for (i, key, handle) in handles {
                match handle.join() {
                    Ok((Ok(r), cost)) => outputs.push((i, r, cost, Some(key))),
                    Ok((Err(e), _)) => {
                        let kind = FailureKind::of(&e);
                        failures.push((i, e, kind));
                    }
                    // A panicking wrapper is contained to its own
                    // source: surface it as that step's failure instead
                    // of aborting the whole answer.
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
        });
        // Failures are keyed by step index so the error reported without
        // partial results is the FIRST failing step in plan order, not
        // whichever thread finished last.
        failures.sort_by_key(|(i, ..)| *i);
        if !self.partial_results {
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
    /// one source, not all of them. The search index still rebuilds
    /// wholesale — its postings fuse all sources.
    pub fn refresh_source(&mut self, name: &str) -> Option<usize> {
        let pos = self.wrappers.iter().position(|w| w.name() == name)?;
        if let Some(c) = &self.cache {
            c.invalidate_prefix(&format!("{name}\x01"));
        }
        self.search_index = None;
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

    /// The ranked-search index over the current wrappers, building it
    /// on first use. Invalidated (and lazily rebuilt) whenever a source
    /// is registered, unregistered, or refreshed — the same lifecycle
    /// points that clear the subquery cache.
    pub fn search_index(&mut self) -> Arc<SearchIndex> {
        if self.search_index.is_none() {
            self.search_index = Some(Arc::new(SearchIndex::build(&self.harvest_text_docs())));
        }
        Arc::clone(self.search_index.as_ref().expect("just built"))
    }

    /// Ranked full-text search across all text-bearing sources: BM25
    /// per source, then cross-source rank fusion under `strategy`.
    /// Returns the top `k` loci.
    pub fn search(&mut self, query: &str, k: usize, strategy: FusionStrategy) -> Vec<RankedAnswer> {
        self.search_index().search(query, k, strategy)
    }

    /// Size/build counters of the search index, when one is live.
    pub fn search_stats(&self) -> Option<SearchStats> {
        self.search_index.as_ref().map(|i| i.stats())
    }

    /// Gathers planning facts from the wrappers: entity cardinalities
    /// via DataGuides, and value histograms for every attribute the
    /// mapping rules cover (so pushdown selectivity is estimated from
    /// the data rather than guessed).
    pub fn source_infos(&self) -> Vec<SourceInfo> {
        self.wrappers
            .iter()
            .map(|w| {
                let oml = w.oml();
                let mut entity_cardinality = HashMap::new();
                let mut attr_stats = HashMap::new();
                if let Some(root) = oml.named(w.name()) {
                    let guide = DataGuide::build(oml, &[root]);
                    for label in guide.out_labels(guide.root()) {
                        entity_cardinality.insert(label.to_string(), guide.cardinality(&[label]));
                    }
                    for mapping in self.model.entities_of(w.name()) {
                        let parents: Vec<_> = oml.children(root, &mapping.source_entity).collect();
                        for (local, _global) in &mapping.attributes {
                            attr_stats.insert(
                                format!("{}.{local}", mapping.source_entity),
                                AttributeStats::collect(oml, &parents, local),
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
    /// With [`OptimizerConfig::bind_join`] enabled, execution is
    /// two-phase: the gene subqueries run first and, when the qualifying
    /// gene set is small (≤ [`crate::optimizer::BIND_JOIN_MAX_KEYS`]
    /// symbols), the observed symbols are pushed into the annotation and
    /// disease subqueries as a disjunction — a cross-source semijoin.
    /// Answers are unchanged; shipped volume shrinks.
    pub fn answer(&self, question: &GeneQuestion) -> Result<MediatedAnswer, MediatorError> {
        if self.model.providers_of("Gene").is_empty() {
            return Err(MediatorError::NoGeneProvider);
        }
        let plan = self.plan(question);
        let mut cost = Cost::new();
        let mut critical_path_us = 0u64;
        let mut wall_path_us = 0u64;

        // Phase 1: gene steps, concurrently across providers.
        let gene_steps: Vec<&crate::optimizer::PlanStep> = plan
            .steps
            .iter()
            .filter(|s| s.query.purpose == Purpose::Genes)
            .collect();
        let batch1 = self.run_batch(&gene_steps, &HashMap::new())?;
        let mut tagged = batch1.tagged;
        let mut failed_sources = batch1.failed;
        let mut per_source_cost = batch1.per_source;
        cost += batch1.cost;
        critical_path_us += batch1.critical_us;
        wall_path_us += batch1.wall_path_us;
        if !gene_steps.is_empty() && tagged.is_empty() {
            // Every gene provider failed: nothing to integrate.
            return Err(MediatorError::NoGeneProvider);
        }

        // Bind keys for the second phase.
        let bind_keys: Option<Vec<String>> = if self.optimizer.bind_join {
            let mut symbols: std::collections::BTreeSet<String> = Default::default();
            for tr in &tagged {
                for row in tr.result.row_oids() {
                    if let Some(sym) = tr
                        .result
                        .store
                        .child_value(row, "Symbol")
                        .map(|v| v.as_text())
                    {
                        symbols.insert(sym);
                    }
                }
            }
            let bindable = symbols.len() <= crate::optimizer::BIND_JOIN_MAX_KEYS
                && symbols
                    .iter()
                    .all(|s| !s.contains('"') && !s.contains('\\'));
            bindable.then(|| symbols.into_iter().collect())
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
            if let Some(keys) = &bind_keys {
                if let Some(local_symbol) =
                    self.local_symbol_attr(&step.query.source, step.query.purpose.entity())
                {
                    if keys.is_empty() {
                        // No gene qualified: this step cannot contribute.
                        continue;
                    }
                    let disjunction = keys
                        .iter()
                        .map(|k| format!("X.{local_symbol} = \"{k}\""))
                        .collect::<Vec<_>>()
                        .join(" or ");
                    let mut lorel = step.query.lorel.clone();
                    if lorel.contains(" where ") {
                        lorel.push_str(&format!(" and ({disjunction})"));
                    } else {
                        lorel.push_str(&format!(" where ({disjunction})"));
                    }
                    overrides.insert(other_steps.len(), lorel);
                }
            }
            other_steps.push(step);
        }
        let batch2 = self.run_batch(&other_steps, &overrides)?;
        tagged.extend(batch2.tagged);
        cost += batch2.cost;
        critical_path_us += batch2.critical_us;
        wall_path_us += batch2.wall_path_us;
        failed_sources.extend(batch2.failed);
        for (src, c) in batch2.per_source {
            match per_source_cost.iter_mut().find(|(s, _)| s == &src) {
                Some((_, existing)) => *existing += c,
                None => per_source_cost.push((src, c)),
            }
        }

        let mut fused = fuse(question, &tagged, self.policy.clone());
        // A degraded answer carries its own degradation: the fused view
        // names every source whose contribution is missing, so callers
        // rendering only the answer still see the gap.
        for failure in &failed_sources {
            if !fused.missing_sources.contains(&failure.source) {
                fused.missing_sources.push(failure.source.clone());
            }
        }
        Ok(MediatedAnswer {
            fused,
            plan,
            cost,
            critical_path_us,
            wall_path_us,
            failed_sources,
            per_source_cost,
        })
    }

    /// The local attribute a source maps to the given entity's global
    /// `Symbol`, when present (the bind-join key column).
    fn local_symbol_attr(&self, source: &str, entity: &str) -> Option<String> {
        self.model
            .entities_of(source)
            .iter()
            .find(|m| m.global_entity == entity)
            .and_then(|m| {
                m.attributes
                    .iter()
                    .find(|(_, g)| g == "Symbol")
                    .map(|(l, _)| l.clone())
            })
    }

    /// Materialises the full ANNODA-GML instance: `Source` entries from
    /// the registry plus `Gene` / `Function` / `Disease` / `Annotation`
    /// entities fetched from every provider. Used by the general Lorel
    /// interface; the question path never materialises this.
    pub fn materialize_gml(&self) -> Result<(OemStore, Cost), MediatorError> {
        let question = GeneQuestion::default();
        let infos = self.source_infos();
        let fetch_all_plan = plan(
            &question,
            &self.model,
            &infos,
            OptimizerConfig {
                pushdown: false,
                source_selection: false,
                bind_join: false,
            },
        );
        let mut cost = Cost::new();
        let mut tagged = Vec::new();
        for step in &fetch_all_plan.steps {
            // The fetch-all subqueries ride the same cache as the
            // question path: after a single-source delta (whose refresh
            // invalidates only that source's keys) a re-materialisation
            // re-ships one source and reads the rest from cache.
            let key = format!("{}\x01{}", step.query.source, step.query.lorel);
            let result = match self.cache.as_ref().and_then(|c| c.get(&key)) {
                Some(hit) => {
                    cost += Cost::cache_hit();
                    hit
                }
                None => {
                    let wrapper = self
                        .wrapper(&step.query.source)
                        .ok_or_else(|| MediatorError::UnknownSource(step.query.source.clone()))?;
                    let result = wrapper.subquery(&step.query.lorel, &mut cost)?;
                    if let Some(cache) = &self.cache {
                        cache.insert(key, result.clone());
                    }
                    result
                }
            };
            tagged.push(TaggedResult {
                source: step.query.source.clone(),
                purpose: step.query.purpose,
                result,
            });
        }
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
        // Gene step + (at most) the Function detail step; the
        // annotation step was skipped because no symbol qualified.
        assert!(ans.cost.requests <= 2, "{} requests", ans.cost.requests);
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

    #[test]
    fn search_ranks_loci_and_reports_stats() {
        let corpus = tiny();
        let mut m = mediator_over(&corpus);
        assert!(m.search_stats().is_none(), "no index before first search");
        // Query with a word that verifiably occurs in the harvested
        // text, so the assertion does not depend on corpus vocabulary.
        let harvested = m.harvest_text_docs();
        let query = harvested
            .iter()
            .flat_map(|(_, docs)| docs)
            .filter(|d| !d.loci.is_empty())
            .find_map(|d| annoda_search::tokenize(&d.text).into_iter().next())
            .expect("some locus-bearing doc has an indexable token");
        let hits = m.search(&query, 5, FusionStrategy::Weighted);
        assert!(!hits.is_empty(), "query {query:?} must hit");
        assert!(hits.len() <= 5);
        let stats = m.search_stats().expect("index built by the search");
        // GO terms + OMIM entries carry text; LocusLink does not.
        assert_eq!(stats.sources, 2);
        assert!(stats.terms > 0 && stats.postings > 0);
    }

    #[test]
    fn search_index_invalidates_on_registration_and_refresh() {
        let corpus = tiny();
        let mut m = mediator_over(&corpus);
        let _ = m.search("apoptosis", 3, FusionStrategy::Rrf);
        assert!(m.search_stats().is_some());
        m.refresh_all();
        assert!(m.search_stats().is_none(), "refresh drops the index");
        let _ = m.search("apoptosis", 3, FusionStrategy::Rrf);
        let before = m.search_stats().unwrap();
        m.register(Box::new(annoda_wrap::PubmedWrapper::new(
            corpus.pubmed.clone(),
        )));
        assert!(m.search_stats().is_none(), "register drops the index");
        let _ = m.search("apoptosis", 3, FusionStrategy::Rrf);
        let after = m.search_stats().unwrap();
        assert_eq!(after.sources, before.sources + 1, "PubMed now indexed");
        m.unregister("PubMed");
        assert!(m.search_stats().is_none(), "unregister drops the index");
    }
}
