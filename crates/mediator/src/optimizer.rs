//! Query optimisation across multi-systems.
//!
//! The mediator plans a decomposed question before touching any source:
//!
//! * **source selection** — only sources whose entities the question
//!   needs are contacted (and, via the cardinality each OML memoises for
//!   its mapped entities, only sources that actually hold instances of
//!   the entity);
//! * **predicate pushdown** — selections translate into the per-source
//!   subqueries when the source is capable, shrinking shipped results;
//! * **cost ordering** — steps are ordered cheapest-first under the
//!   sources' latency models and those cardinalities, discounted by the
//!   memoised attribute histograms.
//!
//! * **bind join** — the other legs run after the gene legs: the
//!   annotation, disease and publication legs restricted to the symbols
//!   those returned, and none at all when they returned no gene.
//!
//! Every switch can be turned off for the B5 ablation.

use std::collections::HashMap;
use std::sync::Arc;

use annoda_oem::AttributeStats;
use annoda_wrap::{Capabilities, LatencyModel};

use crate::decompose::{decompose, DecomposedQuery, GeneQuestion, SourceQuery};
use crate::gml::GlobalModel;

/// Optimiser switches (the B5 ablation knobs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptimizerConfig {
    /// Translate predicates into subqueries when sources allow it.
    pub pushdown: bool,
    /// Contact only the sources the question needs.
    pub source_selection: bool,
    /// Two-phase bind join: run the gene subqueries first and, when at
    /// most [`BIND_JOIN_MAX_KEYS`] symbols qualify, push them as a
    /// disjunction into the annotation, disease and publication
    /// subqueries (a semijoin across sources), which the sources' Lorel
    /// planners seek from their memoised value indexes; with no
    /// qualifying gene no other subquery is sent. Disease ids the
    /// gene rows claim but the bound rows do not carry are fetched by
    /// key afterwards, so the answer is the unbound one even on
    /// inconsistent sources. Changes cost only, never answers.
    pub bind_join: bool,
}

/// Everything on: an uncached question ships rows for the genes it
/// answers, not whole annotation and disease tables. The fetch-all
/// paths (GML materialisation, the warehouse's ETL) turn all three off.
impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            pushdown: true,
            source_selection: true,
            bind_join: true,
        }
    }
}

/// Bind joins only pay off for small key sets: above this many distinct
/// symbols the second phase runs unbound.
pub const BIND_JOIN_MAX_KEYS: usize = 64;

/// Planning facts about one source, gathered from its wrapper
/// ([`crate::Mediator::source_infos`]) or made by hand in tests.
#[derive(Debug, Clone)]
pub struct SourceInfo {
    /// Source name.
    pub name: String,
    /// Native capabilities.
    pub capabilities: Capabilities,
    /// Simulated latency.
    pub latency: LatencyModel,
    /// Exact instance count per mapped local entity label (`Locus`),
    /// from the OML's memo; the planner reads a missing label as 0.
    pub entity_cardinality: HashMap<String, usize>,
    /// Per-attribute value statistics, keyed by `Entity.Attribute` in
    /// the source's local vocabulary (`Locus.Organism`), for the
    /// attributes the mapping rules cover. Shared with the OML's memo.
    pub attr_stats: HashMap<String, Arc<AttributeStats>>,
}

/// One planned subquery with its cost estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanStep {
    /// The subquery to execute.
    pub query: SourceQuery,
    /// Estimated records shipped (entity cardinality, discounted when
    /// a predicate was pushed down).
    pub est_records: u64,
    /// Estimated virtual cost in microseconds.
    pub est_cost_us: u64,
}

/// The ordered execution plan for one question.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ExecutionPlan {
    /// Steps in planned execution order (cheapest first).
    pub steps: Vec<PlanStep>,
    /// Predicates the mediator must evaluate itself.
    pub residual: Vec<String>,
}

impl ExecutionPlan {
    /// Total estimated virtual cost.
    pub fn est_total_us(&self) -> u64 {
        self.steps.iter().map(|s| s.est_cost_us).sum()
    }

    /// A one-line-per-step textual rendering (for the fig5 harness).
    pub fn describe(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.steps.iter().enumerate() {
            out.push_str(&format!(
                "{:>2}. [{}] {:?}{} est {} records, {} us\n   {}\n",
                i + 1,
                s.query.source,
                s.query.purpose,
                if s.query.pushed_down {
                    " (pushdown)"
                } else {
                    ""
                },
                s.est_records,
                s.est_cost_us,
                s.query.lorel
            ));
        }
        if !self.residual.is_empty() {
            out.push_str(&format!(
                "residual at mediator: {}\n",
                self.residual.join(" and ")
            ));
        }
        out
    }
}

/// Fallback selectivity for a pushed-down predicate whose attribute has
/// no collected statistics (the classic 10 % selection factor).
const FALLBACK_SELECTIVITY: f64 = 0.1;

/// Plans a question: decompose, prune, estimate, order.
pub fn plan(
    question: &GeneQuestion,
    model: &GlobalModel,
    infos: &[SourceInfo],
    config: OptimizerConfig,
) -> ExecutionPlan {
    let info_of = |name: &str| infos.iter().find(|i| i.name == name);

    // Pushdown requires the capability on every involved source; the
    // decomposer is driven per-question, so compute the effective switch
    // per source below by re-checking capability.
    let decomposed: DecomposedQuery =
        decompose(question, model, config.pushdown, !config.source_selection);

    let mut steps = Vec::new();
    let mut residual = decomposed.residual;
    for mut q in decomposed.queries {
        let Some(info) = info_of(&q.source) else {
            continue; // no wrapper — cannot execute
        };
        // A source without pushdown capability gets the unfiltered query.
        if q.pushed_down && !info.capabilities.predicate_pushdown {
            let (stripped, _) = strip_where(&q.lorel);
            residual.push(format!(
                "(filter for {}, source {})",
                q.purpose.entity(),
                q.source
            ));
            q.lorel = stripped;
            q.pushed_down = false;
            q.predicates.clear();
        }
        // Source selection: a source holding no instance of the entity
        // ships nothing; skip it.
        let cardinality = info
            .entity_cardinality
            .get(&q.entity_local)
            .copied()
            .unwrap_or(0);
        if config.source_selection && cardinality == 0 {
            continue;
        }
        // Selectivity of the pushed predicates, from the per-attribute
        // histograms where available (independence assumption across
        // conjuncts, the textbook default).
        let selectivity: f64 = q
            .predicates
            .iter()
            .map(|(attr, op, lit)| {
                info.attr_stats
                    .get(&format!("{}.{attr}", q.entity_local))
                    .map(|s| s.selectivity(op, lit))
                    .unwrap_or(FALLBACK_SELECTIVITY)
            })
            .product();
        let est_records = if q.pushed_down {
            ((cardinality as f64) * selectivity).ceil() as u64
        } else {
            cardinality as u64
        };
        let est_cost_us = info.latency.request_cost(est_records);
        steps.push(PlanStep {
            query: q,
            est_records,
            est_cost_us,
        });
    }
    steps.sort_by_key(|s| s.est_cost_us);
    ExecutionPlan { steps, residual }
}

/// Removes the `where` clause from a generated subquery.
fn strip_where(lorel: &str) -> (String, bool) {
    match lorel.split_once(" where ") {
        Some((head, _)) => (head.to_string(), true),
        None => (lorel.to_string(), false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::AspectClause;
    use crate::gml::GlobalModel;
    use annoda_match::Mdsm;
    use annoda_oem::{AtomicValue, OemStore};

    fn toy_model_and_infos() -> (GlobalModel, Vec<SourceInfo>) {
        let mut model = GlobalModel::new();
        let mdsm = Mdsm::default();

        let mut gene_oml = OemStore::new();
        let root = gene_oml.new_complex();
        let l = gene_oml.add_complex_child(root, "Locus").unwrap();
        gene_oml
            .add_atomic_child(l, "LocusID", AtomicValue::Int(1))
            .unwrap();
        gene_oml.add_atomic_child(l, "Symbol", "TP53").unwrap();
        gene_oml
            .add_atomic_child(l, "Organism", "Homo sapiens")
            .unwrap();
        gene_oml.set_name("LocusLink", root).unwrap();
        model.register_source(&mdsm, "LocusLink", &gene_oml);

        let mut omim_oml = OemStore::new();
        let root = omim_oml.new_complex();
        let e = omim_oml.add_complex_child(root, "Entry").unwrap();
        omim_oml
            .add_atomic_child(e, "MimNumber", AtomicValue::Int(2))
            .unwrap();
        omim_oml.add_atomic_child(e, "Title", "A SYNDROME").unwrap();
        omim_oml.add_atomic_child(e, "GeneSymbol", "TP53").unwrap();
        omim_oml.set_name("OMIM", root).unwrap();
        model.register_source(&mdsm, "OMIM", &omim_oml);

        let infos = vec![
            SourceInfo {
                name: "LocusLink".into(),
                capabilities: Capabilities::full(),
                latency: LatencyModel::remote(),
                entity_cardinality: HashMap::from([("Locus".to_string(), 100)]),
                attr_stats: HashMap::new(),
            },
            SourceInfo {
                name: "OMIM".into(),
                capabilities: Capabilities::full(),
                latency: LatencyModel::remote(),
                entity_cardinality: HashMap::from([("Entry".to_string(), 50)]),
                attr_stats: HashMap::new(),
            },
        ];
        (model, infos)
    }

    #[test]
    fn source_selection_skips_unneeded_sources() {
        let (model, infos) = toy_model_and_infos();
        let q = GeneQuestion::default(); // no function/disease constraint
        let plan_on = plan(&q, &model, &infos, OptimizerConfig::default());
        assert_eq!(plan_on.steps.len(), 1, "only the gene source is contacted");
        assert_eq!(plan_on.steps[0].query.source, "LocusLink");

        let plan_off = plan(
            &q,
            &model,
            &infos,
            OptimizerConfig {
                source_selection: false,
                ..OptimizerConfig::default()
            },
        );
        assert!(
            plan_off.steps.len() >= 2,
            "fetch-all contacts every provider"
        );
    }

    #[test]
    fn pushdown_reduces_estimates_and_is_reported() {
        let (model, infos) = toy_model_and_infos();
        let q = GeneQuestion {
            organism: Some("Homo sapiens".into()),
            ..GeneQuestion::default()
        };
        let with = plan(&q, &model, &infos, OptimizerConfig::default());
        let without = plan(
            &q,
            &model,
            &infos,
            OptimizerConfig {
                pushdown: false,
                ..OptimizerConfig::default()
            },
        );
        assert!(with.steps[0].query.pushed_down);
        assert!(!without.steps[0].query.pushed_down);
        assert!(with.steps[0].est_records < without.steps[0].est_records);
        assert!(with.est_total_us() < without.est_total_us());
        assert!(without.residual.iter().any(|r| r.contains("Organism")));
    }

    #[test]
    fn incapable_sources_get_stripped_queries() {
        let (model, mut infos) = toy_model_and_infos();
        infos[0].capabilities.predicate_pushdown = false;
        let q = GeneQuestion {
            organism: Some("Homo sapiens".into()),
            ..GeneQuestion::default()
        };
        let p = plan(&q, &model, &infos, OptimizerConfig::default());
        assert!(!p.steps[0].query.pushed_down);
        assert!(!p.steps[0].query.lorel.contains("where"));
        assert!(!p.residual.is_empty());
    }

    #[test]
    fn disease_clause_brings_in_omim_cheapest_first() {
        let (model, infos) = toy_model_and_infos();
        let q = GeneQuestion {
            disease: AspectClause::Exclude(None),
            ..GeneQuestion::default()
        };
        let p = plan(&q, &model, &infos, OptimizerConfig::default());
        let sources: Vec<&str> = p.steps.iter().map(|s| s.query.source.as_str()).collect();
        assert!(sources.contains(&"OMIM"));
        assert!(sources.contains(&"LocusLink"));
        // OMIM ships 50 records vs LocusLink's 100 → OMIM first.
        assert_eq!(p.steps[0].query.source, "OMIM");
        assert!(p.describe().contains("OMIM"));
    }

    #[test]
    fn helper_parsers() {
        let (stripped, had) = strip_where("select X from S.E X where X.a = \"1\"");
        assert_eq!(stripped, "select X from S.E X");
        assert!(had);
    }

    #[test]
    fn statistics_sharpen_pushdown_estimates() {
        let (model, mut infos) = toy_model_and_infos();
        // 80 of 100 loci are human: the histogram knows.
        let mut db = annoda_oem::OemStore::new();
        let root = db.new_complex();
        let mut parents = Vec::new();
        for i in 0..100 {
            let g = db.add_complex_child(root, "Locus").unwrap();
            db.add_atomic_child(
                g,
                "Organism",
                if i < 80 {
                    "Homo sapiens"
                } else {
                    "Mus musculus"
                },
            )
            .unwrap();
            parents.push(g);
        }
        let stats = AttributeStats::collect(&db, &parents, "Organism");
        infos[0]
            .attr_stats
            .insert("Locus.Organism".to_string(), Arc::new(stats));

        let q = GeneQuestion {
            organism: Some("Homo sapiens".into()),
            ..GeneQuestion::default()
        };
        let p = plan(&q, &model, &infos, OptimizerConfig::default());
        // 100 loci × 0.8 selectivity = 80, not the 10 the fallback
        // guess would produce.
        assert_eq!(p.steps[0].est_records, 80);

        let q = GeneQuestion {
            organism: Some("Mus musculus".into()),
            ..GeneQuestion::default()
        };
        let p = plan(&q, &model, &infos, OptimizerConfig::default());
        assert_eq!(p.steps[0].est_records, 20);
    }
}
