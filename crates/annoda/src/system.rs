//! The ANNODA single-access-point façade.

use std::collections::HashMap;
use std::fmt;

use annoda_baselines::{
    EvalFn, IntegrationSystem, InterfaceKind, Reconciliation, SystemAnswer, SystemError,
};
use annoda_federation::{ClientConfig, ProtoError, RemoteStatsSnapshot, RemoteWrapper};
use annoda_lorel::QueryOutcome;
use annoda_mediator::decompose::GeneQuestion;
use annoda_mediator::{MediatedAnswer, Mediator, MediatorError};
use annoda_oem::{text as oem_text, OemStore};
use annoda_sources::{GoDb, LocusLinkDb, OmimDb};
use annoda_wrap::{Cost, GoWrapper, LocusLinkWrapper, OmimWrapper, Wrapper};

use crate::navigate::Navigator;
use crate::question::QuestionBuilder;
use crate::registry::{PlugReport, SourceRegistry};

/// Errors raised by the ANNODA façade.
#[derive(Debug)]
pub enum AnnodaError {
    /// The mediator could not answer.
    Mediator(MediatorError),
    /// The durable store could not journal, snapshot, or recover.
    Persist(annoda_persist::PersistError),
    /// A remote source server could not be reached or spoke garbage.
    Federation(ProtoError),
    /// A replication-role violation: a write on a follower, or a
    /// follower-only transition on a leader.
    Replication(String),
    /// A sharded-store transaction could not commit (e.g. first-writer-
    /// wins conflicts exhausted the retry budget).
    Txn(String),
}

impl fmt::Display for AnnodaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnnodaError::Mediator(e) => write!(f, "{e}"),
            AnnodaError::Persist(e) => write!(f, "{e}"),
            AnnodaError::Federation(e) => write!(f, "{e}"),
            AnnodaError::Replication(what) => write!(f, "replication: {what}"),
            AnnodaError::Txn(what) => write!(f, "transaction: {what}"),
        }
    }
}

impl std::error::Error for AnnodaError {}

impl From<MediatorError> for AnnodaError {
    fn from(e: MediatorError) -> Self {
        AnnodaError::Mediator(e)
    }
}

impl From<annoda_persist::PersistError> for AnnodaError {
    fn from(e: annoda_persist::PersistError) -> Self {
        AnnodaError::Persist(e)
    }
}

impl From<ProtoError> for AnnodaError {
    fn from(e: ProtoError) -> Self {
        AnnodaError::Federation(e)
    }
}

/// The ANNODA tool: registry + mediator + question interface +
/// navigation, behind one access point.
#[derive(Default)]
pub struct Annoda {
    registry: SourceRegistry,
    annotations: HashMap<String, Vec<String>>,
    eval_fns: HashMap<String, EvalFn>,
}

impl Annoda {
    /// An empty ANNODA instance (no sources plugged in yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// Convenience: an instance over the three paper sources, returning
    /// the plug-in reports.
    pub fn over_sources(locuslink: LocusLinkDb, go: GoDb, omim: OmimDb) -> (Self, Vec<PlugReport>) {
        let mut annoda = Annoda::new();
        let reports = vec![
            annoda.plug(Box::new(LocusLinkWrapper::new(locuslink))),
            annoda.plug(Box::new(GoWrapper::new(go))),
            annoda.plug(Box::new(OmimWrapper::new(omim))),
        ];
        (annoda, reports)
    }

    /// Plugs in a wrapped source (MDSM matching + mediator interface).
    pub fn plug(&mut self, wrapper: Box<dyn Wrapper>) -> PlugReport {
        self.registry.plug(wrapper)
    }

    /// Unplugs a source.
    pub fn unplug(&mut self, name: &str) -> bool {
        self.registry.unplug(name)
    }

    /// Plugs in a remote source served by a federation source-server.
    /// The wrapper fetches the source's description and full OML at
    /// connect time, so MDSM matching proceeds exactly as for an
    /// in-process source.
    pub fn plug_remote(&mut self, addr: &str) -> Result<PlugReport, AnnodaError> {
        self.plug_remote_with(addr, ClientConfig::default())
    }

    /// [`Self::plug_remote`] with explicit timeouts, retry budget, and
    /// breaker thresholds.
    pub fn plug_remote_with(
        &mut self,
        addr: &str,
        config: ClientConfig,
    ) -> Result<PlugReport, AnnodaError> {
        let remote = RemoteWrapper::connect(addr, config)?;
        Ok(self.registry.plug(Box::new(remote)))
    }

    /// Per-remote-source client statistics (breaker state, latency,
    /// retries), in registry order. In-process sources are skipped.
    pub fn federation_stats(&self) -> Vec<(String, RemoteStatsSnapshot)> {
        let mediator = self.registry.mediator();
        let mut stats = Vec::new();
        for descr in mediator.sources() {
            let name = descr.name.clone();
            if let Some(wrapper) = mediator.wrapper(&name) {
                if let Some(remote) =
                    (wrapper as &dyn std::any::Any).downcast_ref::<RemoteWrapper>()
                {
                    stats.push((name, remote.stats_snapshot()));
                }
            }
        }
        stats
    }

    /// The registry (source descriptions, mediator access).
    pub fn registry(&self) -> &SourceRegistry {
        &self.registry
    }

    /// Mutable registry access (optimiser/policy switches, refresh).
    pub fn registry_mut(&mut self) -> &mut SourceRegistry {
        &mut self.registry
    }

    /// The mediator, for planning inspection.
    pub fn mediator(&self) -> &Mediator {
        self.registry.mediator()
    }

    /// Answers a biological question.
    pub fn ask(&self, question: &GeneQuestion) -> Result<MediatedAnswer, AnnodaError> {
        Ok(self.registry.mediator().answer(question)?)
    }

    /// Answers a question built with the form interface.
    pub fn ask_form(&self, builder: QuestionBuilder) -> Result<MediatedAnswer, AnnodaError> {
        self.ask(&builder.build())
    }

    /// The §4.1 interface: an arbitrary Lorel query against ANNODA-GML.
    pub fn lorel(&self, text: &str) -> Result<(OemStore, QueryOutcome, Cost), AnnodaError> {
        Ok(self.registry.mediator().query_gml(text)?)
    }

    /// Ranked full-text search across the plugged sources' annotation
    /// text (GO definitions, OMIM disease text, PubMed titles): BM25
    /// per source, cross-source rank fusion under `strategy`, top `k`
    /// loci. Every call harvests the wrappers and builds a fresh index,
    /// so it always sees the sources as they are now — the one-shot path
    /// the CLI takes. A server answers from the index published with
    /// its snapshot instead ([`crate::DurableSystem::search_on`]).
    pub fn search(
        &self,
        query: &str,
        k: usize,
        strategy: annoda_search::FusionStrategy,
    ) -> Vec<annoda_search::RankedAnswer> {
        annoda_search::SearchIndex::build(&self.mediator().harvest_text_docs())
            .search(query, k, strategy)
    }

    /// A navigator for following web-links into object views.
    pub fn navigator(&self) -> Navigator<'_> {
        Navigator::new(self.registry.mediator())
    }

    /// Attaches a user annotation to an integrated gene. Fails when the
    /// symbol is unknown to the gene provider.
    pub fn annotate(&mut self, symbol: &str, note: &str) -> bool {
        if self.navigator().gene_view(symbol).is_none() {
            return false;
        }
        self.annotations
            .entry(symbol.to_string())
            .or_default()
            .push(note.to_string());
        true
    }

    /// User annotations attached to a gene.
    pub fn annotations_of(&self, symbol: &str) -> Vec<String> {
        self.annotations.get(symbol).cloned().unwrap_or_default()
    }

    /// The self-describing (OEM textual, Figure 3 notation) form of one
    /// integrated gene — Table 1 row "low-level treatment of data".
    pub fn self_describe(&self, symbol: &str) -> Option<String> {
        let q = GeneQuestion {
            symbol_like: Some(symbol.to_string()),
            fetch_aspects: true,
            ..GeneQuestion::default()
        };
        let answer = self.registry.mediator().answer(&q).ok()?;
        if answer.fused.genes.iter().all(|g| g.symbol != symbol) {
            return None;
        }
        let store = answer.fused.to_store();
        let root = store.named("IntegratedView")?;
        let gene = store.children(root, "Gene").next()?;
        Some(oem_text::write_rooted(&store, "Gene", gene))
    }

    /// Registers a specialty evaluation function over integrated genes.
    pub fn register_eval_fn(&mut self, name: &str, f: EvalFn) {
        self.eval_fns.insert(name.to_string(), f);
    }

    /// Registered evaluation function names.
    pub fn eval_fn_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.eval_fns.keys().cloned().collect();
        v.sort();
        v
    }

    /// Evaluates a registered function over one gene's integrated record.
    pub fn eval(&self, fn_name: &str, symbol: &str) -> Option<f64> {
        let f = self.eval_fns.get(fn_name)?;
        let q = GeneQuestion {
            symbol_like: Some(symbol.to_string()),
            ..GeneQuestion::default()
        };
        let answer = self.registry.mediator().answer(&q).ok()?;
        let gene = answer
            .fused
            .genes
            .into_iter()
            .find(|g| g.symbol == symbol)?;
        Some(f(&gene))
    }

    /// Integrates self-generated data: the notes become user annotations
    /// on the matching integrated genes.
    pub fn plug_user_annotations(&mut self, name: &str, items: &[(String, String)]) -> bool {
        let mut any = false;
        for (symbol, note) in items {
            if self.navigator().gene_view(symbol).is_some() {
                self.annotations
                    .entry(symbol.clone())
                    .or_default()
                    .push(format!("[{name}] {note}"));
                any = true;
            }
        }
        any
    }
}

impl IntegrationSystem for Annoda {
    fn name(&self) -> &str {
        "ANNODA"
    }

    fn architecture(&self) -> &'static str {
        "federated (FIS)"
    }

    fn data_model(&self) -> &'static str {
        "Global schema using semistructured model (translated to OO model)"
    }

    fn interface(&self) -> InterfaceKind {
        InterfaceKind::BiologicalForm
    }

    fn reconciliation(&self) -> Reconciliation {
        Reconciliation::AtQuery
    }

    fn answer(&mut self, question: &GeneQuestion) -> Result<SystemAnswer, SystemError> {
        let answer = self
            .ask(question)
            .map_err(|e| SystemError::Internal(e.to_string()))?;
        Ok(SystemAnswer {
            conflicts: answer.fused.conflicts.len(),
            genes: answer.fused.genes,
            cost: answer.cost,
        })
    }

    fn refresh(&mut self) -> usize {
        self.registry.mediator_mut().refresh_all()
    }

    fn annotate(&mut self, symbol: &str, note: &str) -> bool {
        Annoda::annotate(self, symbol, note)
    }

    fn annotations_of(&self, symbol: &str) -> Vec<String> {
        Annoda::annotations_of(self, symbol)
    }

    fn self_describe(&mut self, symbol: &str) -> Option<String> {
        Annoda::self_describe(self, symbol)
    }

    fn plug_user_source(&mut self, name: &str, items: &[(String, String)]) -> bool {
        self.plug_user_annotations(name, items)
    }

    fn register_eval_fn(&mut self, name: &str, f: EvalFn) -> bool {
        Annoda::register_eval_fn(self, name, f);
        true
    }

    fn eval(&mut self, fn_name: &str, symbol: &str) -> Option<f64> {
        Annoda::eval(self, fn_name, symbol)
    }
    // archive() stays at the default `None`: the paper's Table 1 marks
    // ANNODA "Not supported" for archival functionality.
}

#[cfg(test)]
mod tests {
    use super::*;
    use annoda_search::{FusionStrategy, SearchIndex};
    use annoda_sources::{Corpus, CorpusConfig};
    use std::sync::Arc;

    fn annoda() -> (Annoda, Corpus) {
        let c = Corpus::generate(CorpusConfig::tiny(42));
        let (a, reports) = Annoda::over_sources(c.locuslink.clone(), c.go.clone(), c.omim.clone());
        assert_eq!(reports.len(), 3);
        (a, c)
    }

    #[test]
    fn figure5_through_the_facade() {
        let (a, _) = annoda();
        let answer = a
            .ask_form(
                QuestionBuilder::new()
                    .require_go_function()
                    .exclude_omim_disease(),
            )
            .unwrap();
        for g in &answer.fused.genes {
            assert!(!g.functions.is_empty());
            assert!(g.diseases.is_empty());
        }
    }

    #[test]
    fn paper_lorel_query_through_the_facade() {
        let (a, _) = annoda();
        let (gml, outcome, _cost) = a
            .lorel(r#"select S from ANNODA-GML.Source S where S.Name = "LocusLink""#)
            .unwrap();
        let obj = outcome.sole_result(&gml).unwrap();
        assert!(gml.child_value(obj, "Name").is_some());
    }

    #[test]
    fn annotations_round_trip() {
        let (mut a, c) = annoda();
        let symbol = c.locuslink.scan().next().unwrap().symbol.clone();
        assert!(Annoda::annotate(&mut a, &symbol, "interesting locus"));
        assert!(!Annoda::annotate(&mut a, "NO_SUCH", "x"));
        assert_eq!(a.annotations_of(&symbol), vec!["interesting locus"]);
    }

    #[test]
    fn self_description_is_figure3_notation() {
        let (a, c) = annoda();
        let symbol = c.locuslink.scan().next().unwrap().symbol.clone();
        let text = a.self_describe(&symbol).unwrap();
        assert!(text.starts_with("Gene &"));
        assert!(text.contains("Symbol"));
        assert!(text.contains(&symbol));
        assert!(a.self_describe("NO_SUCH").is_none());
    }

    #[test]
    fn eval_functions_apply_to_integrated_records() {
        let (mut a, c) = annoda();
        let symbol = c.locuslink.scan().next().unwrap().symbol.clone();
        Annoda::register_eval_fn(
            &mut a,
            "density",
            Arc::new(|g| g.functions.len() as f64 + g.diseases.len() as f64),
        );
        assert_eq!(a.eval_fn_names(), vec!["density"]);
        let v = a.eval("density", &symbol).unwrap();
        assert!(v >= 0.0);
        assert!(a.eval("missing", &symbol).is_none());
    }

    /// The first indexable token of `source`'s locus-bearing documents,
    /// so assertions do not depend on corpus vocabulary.
    fn first_token(a: &Annoda, source: &str) -> String {
        a.mediator()
            .harvest_text_docs()
            .iter()
            .filter(|(name, _)| name == source)
            .flat_map(|(_, docs)| docs)
            .filter(|d| !d.loci.is_empty())
            .find_map(|d| annoda_search::tokenize(&d.text).into_iter().next())
            .expect("some locus-bearing doc has an indexable token")
    }

    #[test]
    fn search_ranks_loci_and_reports_stats() {
        let (mut a, c) = annoda();
        let query = first_token(&a, "GO");
        let hits = a.search(&query, 5, FusionStrategy::Weighted);
        assert!(!hits.is_empty(), "query {query:?} must hit");
        assert!(hits.len() <= 5);
        // GO terms + OMIM entries carry text; LocusLink does not.
        let stats = SearchIndex::build(&a.mediator().harvest_text_docs()).stats();
        assert_eq!(stats.sources, 2);
        assert!(stats.terms > 0 && stats.postings > 0);

        // Each call reads the sources as they are now: a plugged source
        // is searched by the very next call, an unplugged one is not.
        let before = a.search(&query, 1000, FusionStrategy::Weighted);
        a.plug(Box::new(annoda_wrap::PubmedWrapper::new(c.pubmed.clone())));
        assert!(a
            .search(&first_token(&a, "PubMed"), 1000, FusionStrategy::Weighted)
            .iter()
            .any(|hit| hit.per_source_scores.iter().any(|(s, _)| s == "PubMed")));
        assert!(a.unplug("PubMed"));
        assert_eq!(a.search(&query, 1000, FusionStrategy::Weighted), before);
    }

    #[test]
    fn integration_system_surface() {
        let (a, c) = annoda();
        let mut sys: Box<dyn IntegrationSystem> = Box::new(a);
        let ans = sys.answer(&GeneQuestion::default()).unwrap();
        assert!(!ans.genes.is_empty());
        let symbol = c.locuslink.scan().next().unwrap().symbol.clone();
        assert!(sys.annotate(&symbol, "note"));
        assert!(sys.self_describe(&symbol).is_some());
        assert!(sys.plug_user_source("lab", &[(symbol.clone(), "datum".into())]));
        assert!(sys.register_eval_fn("f", Arc::new(|_| 1.0)));
        assert_eq!(sys.eval("f", &symbol), Some(1.0));
        assert!(sys.archive().is_none(), "ANNODA has no archival (Table 1)");
    }
}
