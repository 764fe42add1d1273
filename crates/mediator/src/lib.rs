//! # annoda-mediator — the federated heart of ANNODA
//!
//! The mediator owns the global model (ANNODA-GML), the mapping rules that
//! relate it to each source's local model (ANNODA-OML), and the machinery
//! that makes one query against the global model behave like queries
//! against all the members:
//!
//! * [`gml`] — builds the ANNODA-GML global model of Figure 4 (Source /
//!   Gene / Function / Disease entities) and keeps per-source mapping
//!   rules produced by the MDSM matcher;
//! * [`mod@decompose`] — translates a global Lorel query into per-source
//!   subqueries over the sources' own vocabularies;
//! * [`optimizer`] — query optimisation across multi-systems: source
//!   selection and cost estimates from the entity cardinalities and
//!   attribute histograms each source's OML memoises, predicate
//!   pushdown into capable sources, and cost-ordered execution under the
//!   sources' latency models;
//! * [`fusion`] — combines subquery results into one integrated answer,
//!   keyed by the mapping rules' join keys;
//! * [`reconcile`] — detects conflicts and contradictions between sources
//!   and resolves them under a configurable policy (precedence, voting,
//!   union) — the Table 1 row the rival middleware systems lack;
//! * [`weblink`] — mints the `annoda://` and `http://` web-links that
//!   power interactive navigation (Figure 5c).

pub mod cache;
pub mod decompose;
pub mod fusion;
#[cfg(test)]
mod fusion_reference;
pub mod gml;
pub mod mediator;
pub mod optimizer;
pub mod reconcile;
pub mod weblink;

pub use cache::{CacheStats, SubqueryCache, DEFAULT_CACHE_CAPACITY};
pub use decompose::{
    decompose, AspectClause, Combination, DecomposedQuery, GeneQuestion, Purpose, SourceQuery,
};
pub use fusion::{
    aspect_clauses_pass, fuse, passes_question, DiseaseInfo, FunctionInfo, FusedAnswer,
    FusionStats, IntegratedGene, TaggedResult,
};
pub use gml::{GlobalModel, GmlBuilder};
pub use mediator::{FailureKind, MediatedAnswer, Mediator, MediatorError, SourceFailure};
pub use optimizer::{plan, ExecutionPlan, OptimizerConfig, PlanStep, SourceInfo};
pub use reconcile::{Conflict, ConflictKind, ReconcilePolicy, Reconciler};
pub use weblink::WebLink;
