//! Result fusion: combining per-source subquery results into one
//! integrated, reconciled answer.
//!
//! Fusion joins the shipped fragments on the mapping rules' join keys
//! (gene symbol, function id, disease id), reconciles membership and
//! value disagreements through the [`Reconciler`], applies the question's
//! residual predicates, and produces the integrated annotation view of
//! Figure 5b. It reads the fragments in place and builds the view's
//! records only for the genes that pass the question, so its cost
//! follows the answer rather than the rows shipped.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::Range;

use annoda_oem::value::like_match;
use annoda_oem::{AtomicValue, OemStore, Oid};
use annoda_wrap::SubqueryResult;

use crate::decompose::{AspectClause, Combination, GeneQuestion, Purpose};
use crate::reconcile::{Conflict, ReconcilePolicy, Reconciler};
use crate::weblink::WebLink;

/// One subquery result tagged with its origin and purpose.
#[derive(Debug, Clone)]
pub struct TaggedResult {
    /// The source that answered.
    pub source: String,
    /// What the rows feed.
    pub purpose: Purpose,
    /// The shipped fragment.
    pub result: SubqueryResult,
}

/// A reconciled gene→function association in the integrated view.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionInfo {
    /// The function id (GO accession).
    pub id: String,
    /// Term name, when the Function details were fetched.
    pub name: Option<String>,
    /// Namespace, when known.
    pub namespace: Option<String>,
    /// Evidence code from the annotation source, when known.
    pub evidence: Option<String>,
    /// Sources asserting the association.
    pub sources: Vec<String>,
    /// Navigation link.
    pub link: WebLink,
}

/// A reconciled gene→disease association in the integrated view.
#[derive(Debug, Clone, PartialEq)]
pub struct DiseaseInfo {
    /// The disease id (MIM number) as text.
    pub id: String,
    /// Entry title, when known.
    pub name: Option<String>,
    /// Inheritance mode, when known.
    pub inheritance: Option<String>,
    /// Sources asserting the association.
    pub sources: Vec<String>,
    /// Navigation link.
    pub link: WebLink,
}

/// A literature citation attached to a gene in the integrated view
/// (the fourth-source extension).
#[derive(Debug, Clone, PartialEq)]
pub struct PublicationInfo {
    /// The publication id (PMID) as text.
    pub id: String,
    /// Article title, when known.
    pub title: Option<String>,
    /// Publication year, when known.
    pub year: Option<String>,
    /// Journal, when known.
    pub journal: Option<String>,
    /// Sources asserting the citation.
    pub sources: Vec<String>,
    /// Navigation link.
    pub link: WebLink,
}

/// One gene of the integrated annotation view.
#[derive(Debug, Clone, PartialEq)]
pub struct IntegratedGene {
    /// Official symbol (the join key).
    pub symbol: String,
    /// LocusID, when known.
    pub gene_id: Option<i64>,
    /// Organism, when known.
    pub organism: Option<String>,
    /// Description, when known.
    pub description: Option<String>,
    /// Cytogenetic position, when known.
    pub position: Option<String>,
    /// Reconciled function annotations.
    pub functions: Vec<FunctionInfo>,
    /// Reconciled disease associations.
    pub diseases: Vec<DiseaseInfo>,
    /// Literature citations (when a publication source is plugged in).
    pub publications: Vec<PublicationInfo>,
    /// Navigation links (source links + internal object view link).
    pub links: Vec<WebLink>,
}

/// Row counts observed during fusion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FusionStats {
    /// Gene entity rows consumed.
    pub gene_rows: usize,
    /// Gene↔function association rows consumed.
    pub annotation_rows: usize,
    /// Function detail rows consumed.
    pub function_rows: usize,
    /// Disease rows consumed.
    pub disease_rows: usize,
    /// Literature citation rows consumed.
    pub publication_rows: usize,
}

/// The fused, reconciled, filtered answer.
#[derive(Debug, Clone)]
pub struct FusedAnswer {
    /// Genes passing the question, sorted by symbol.
    pub genes: Vec<IntegratedGene>,
    /// Conflicts detected during reconciliation.
    pub conflicts: Vec<Conflict>,
    /// Row counts.
    pub stats: FusionStats,
    /// Sources whose contribution is *missing* from this answer because
    /// they failed during execution (partial-results degradation). Empty
    /// for a complete answer. Set by the mediator after fusion — the
    /// degradation travels with the answer, it is not a silent drop.
    pub missing_sources: Vec<String>,
}

impl FusedAnswer {
    /// Materialises the integrated view as an OEM store (root
    /// `IntegratedView`) — the Figure 5b structure.
    pub fn to_store(&self) -> OemStore {
        let mut db = OemStore::new();
        let root = db.new_complex();
        for g in &self.genes {
            let gene = db.add_complex_child(root, "Gene").expect("root complex");
            db.add_atomic_child(gene, "Symbol", g.symbol.as_str())
                .expect("complex");
            if let Some(id) = g.gene_id {
                db.add_atomic_child(gene, "GeneID", AtomicValue::Int(id))
                    .expect("complex");
            }
            for (label, v) in [
                ("Organism", &g.organism),
                ("Description", &g.description),
                ("Position", &g.position),
            ] {
                if let Some(v) = v {
                    db.add_atomic_child(gene, label, v.as_str())
                        .expect("complex");
                }
            }
            for f in &g.functions {
                let fo = db.add_complex_child(gene, "Function").expect("complex");
                db.add_atomic_child(fo, "FunctionID", f.id.as_str())
                    .expect("complex");
                if let Some(n) = &f.name {
                    db.add_atomic_child(fo, "Name", n.as_str())
                        .expect("complex");
                }
                if let Some(ns) = &f.namespace {
                    db.add_atomic_child(fo, "Namespace", ns.as_str())
                        .expect("complex");
                }
                if let Some(e) = &f.evidence {
                    db.add_atomic_child(fo, "Evidence", e.as_str())
                        .expect("complex");
                }
                db.add_atomic_child(fo, "Link", AtomicValue::Url(f.link.url.clone()))
                    .expect("complex");
            }
            for d in &g.diseases {
                let dis = db.add_complex_child(gene, "Disease").expect("complex");
                db.add_atomic_child(dis, "DiseaseID", d.id.as_str())
                    .expect("complex");
                if let Some(n) = &d.name {
                    db.add_atomic_child(dis, "Name", n.as_str())
                        .expect("complex");
                }
                if let Some(inh) = &d.inheritance {
                    db.add_atomic_child(dis, "Inheritance", inh.as_str())
                        .expect("complex");
                }
                db.add_atomic_child(dis, "Link", AtomicValue::Url(d.link.url.clone()))
                    .expect("complex");
            }
            for p in &g.publications {
                let pb = db.add_complex_child(gene, "Publication").expect("complex");
                db.add_atomic_child(pb, "PublicationID", p.id.as_str())
                    .expect("complex");
                if let Some(t) = &p.title {
                    db.add_atomic_child(pb, "Title", t.as_str())
                        .expect("complex");
                }
                if let Some(y) = &p.year {
                    db.add_atomic_child(pb, "Year", y.as_str())
                        .expect("complex");
                }
                if let Some(j) = &p.journal {
                    db.add_atomic_child(pb, "Journal", j.as_str())
                        .expect("complex");
                }
                db.add_atomic_child(pb, "Link", AtomicValue::Url(p.link.url.clone()))
                    .expect("complex");
            }
            for l in &g.links {
                db.add_atomic_child(gene, "Link", AtomicValue::Url(l.url.clone()))
                    .expect("complex");
            }
        }
        db.set_name_overwrite("IntegratedView", root)
            .expect("fresh store");
        db
    }
}

/// Evaluates the question's aspect clauses (require/exclude, with
/// patterns and the combination method) over a names-only view of one
/// gene: the name of every kept function, disease and publication
/// (`None` when its details were not fetched). An item "matches" a
/// clause pattern when its name is known and like-matches; with no
/// pattern, any kept item matches. The one clause evaluator: query-time
/// fusion calls it before it builds anything for a gene, and the
/// baselines through [`passes_question`] over their materialised genes.
pub fn aspect_clauses_pass<'a>(
    question: &GeneQuestion,
    function_names: impl IntoIterator<Item = Option<&'a str>>,
    disease_names: impl IntoIterator<Item = Option<&'a str>>,
    publication_titles: impl IntoIterator<Item = Option<&'a str>>,
) -> bool {
    let mut tally = ClauseTally::default();
    tally.judge(&question.function, function_names);
    tally.judge(&question.disease, disease_names);
    tally.judge(&question.publication, publication_titles);
    let requires_ok = tally.required == 0
        || match question.combine {
            Combination::All => tally.met == tally.required,
            Combination::Any => tally.met > 0,
        };
    requires_ok && !tally.excluded
}

/// The running verdict of [`aspect_clauses_pass`].
#[derive(Default)]
struct ClauseTally {
    /// Active require clauses.
    required: usize,
    /// Require clauses the gene meets.
    met: usize,
    /// Whether the gene meets some exclude clause.
    excluded: bool,
}

impl ClauseTally {
    fn judge<'a>(
        &mut self,
        clause: &AspectClause,
        names: impl IntoIterator<Item = Option<&'a str>>,
    ) {
        let mut names = names.into_iter();
        let mut matches = || match clause.pattern() {
            None => names.next().is_some(),
            Some(p) => names.any(|n| n.is_some_and(|n| like_match(n, p))),
        };
        match clause {
            AspectClause::Ignore => {}
            AspectClause::Require(_) => {
                self.required += 1;
                self.met += usize::from(matches());
            }
            AspectClause::Exclude(_) => self.excluded |= matches(),
        }
    }
}

/// Full question check over one integrated gene, including the organism
/// and symbol predicates. Used by the warehouse baseline, which filters
/// already-materialised genes locally.
pub fn passes_question(question: &GeneQuestion, gene: &IntegratedGene) -> bool {
    if let Some(o) = &question.organism {
        if gene.organism.as_deref() != Some(o.as_str()) {
            return false;
        }
    }
    if let Some(p) = &question.symbol_like {
        if !like_match(&gene.symbol, p) {
            return false;
        }
    }
    aspect_clauses_pass(
        question,
        gene.functions.iter().map(|f| f.name.as_deref()),
        gene.diseases.iter().map(|d| d.name.as_deref()),
        gene.publications.iter().map(|p| p.title.as_deref()),
    )
}

// ----- row readers --------------------------------------------------------

/// The texts of every value under `label` in `row`.
fn row_texts<'a>(
    res: &'a SubqueryResult,
    row: Oid,
    label: &str,
) -> impl Iterator<Item = Cow<'a, str>> + 'a {
    let store: &'a OemStore = &res.store;
    store
        .children(row, label)
        .filter_map(move |o| store.value_of(o))
        .map(AtomicValue::text)
}

/// The text of the first value under `label` in `row`.
fn row_first<'a>(res: &'a SubqueryResult, row: Oid, label: &str) -> Option<Cow<'a, str>> {
    res.store.child_value(row, label).map(AtomicValue::text)
}

// ----- intermediate records -------------------------------------------------

/// One gene as its gene rows describe it, borrowed from the shipped
/// fragments; turned into an [`IntegratedGene`] only if it passes.
#[derive(Default, Debug)]
struct GeneDraft<'a> {
    gene_id: Option<i64>,
    /// `(source, value)` pairs per attribute, for value reconciliation.
    organism: Vec<(&'a str, Cow<'a, str>)>,
    description: Vec<(&'a str, Cow<'a, str>)>,
    position: Vec<(&'a str, Cow<'a, str>)>,
    /// source → the function ids its gene rows claim.
    fn_claims: BTreeMap<&'a str, BTreeSet<Cow<'a, str>>>,
    /// source → the disease ids its gene rows claim.
    dis_claims: BTreeMap<&'a str, BTreeSet<Cow<'a, str>>>,
    /// Distinct `(source, url)` external links.
    links: Vec<(&'a str, Cow<'a, str>)>,
}

#[derive(Debug)]
struct FunctionDetail<'a> {
    name: Option<Cow<'a, str>>,
    namespace: Option<Cow<'a, str>>,
    link: Option<Cow<'a, str>>,
}

#[derive(Debug)]
struct DiseaseDetail<'a> {
    name: Option<Cow<'a, str>>,
    inheritance: Option<Cow<'a, str>>,
    link: Option<Cow<'a, str>>,
}

#[derive(Debug)]
struct PublicationDetail<'a> {
    title: Option<Cow<'a, str>>,
    year: Option<Cow<'a, str>>,
    journal: Option<Cow<'a, str>>,
    link: Option<Cow<'a, str>>,
}

/// An association the reconciler kept for the gene under way: its id,
/// its details if fetched, and the range of the claiming sources in the
/// per-gene `claimed_by` list.
struct Kept<'d, D> {
    id: &'d str,
    detail: Option<&'d D>,
    /// The annotation source's evidence code (functions only).
    evidence: Option<&'d str>,
    claimed_by: Range<usize>,
}

fn owned(text: &Option<Cow<'_, str>>) -> Option<String> {
    text.as_deref().map(str::to_string)
}

/// Fuses tagged subquery results under `question`, reconciling with
/// `policy`. The question's predicates are (re-)applied at the mediator,
/// so results are identical whether or not pushdown ran.
///
/// Fusion reads the shipped fragments in place and decides each gene
/// before it builds it: the reconciler rules on every candidate
/// association, [`aspect_clauses_pass`] judges the kept ones by name,
/// and only a passing gene gets its [`FunctionInfo`]s, [`DiseaseInfo`]s,
/// [`PublicationInfo`]s, web-links and reconciled description and
/// position. Claim rows naming a symbol no gene row carries are counted
/// in [`FusionStats`] and otherwise skipped.
pub fn fuse(
    question: &GeneQuestion,
    results: &[TaggedResult],
    policy: ReconcilePolicy,
) -> FusedAnswer {
    let mut reconciler = Reconciler::new(policy);
    let mut stats = FusionStats::default();
    let of = |purpose: Purpose| results.iter().filter(move |t| t.purpose == purpose);

    // ---- collect gene drafts -------------------------------------------
    let mut drafts: BTreeMap<Cow<str>, GeneDraft> = BTreeMap::new();
    for tr in of(Purpose::Genes) {
        let source = tr.source.as_str();
        for row in tr.result.row_oids() {
            stats.gene_rows += 1;
            let Some(symbol) = row_first(&tr.result, row, "Symbol") else {
                continue;
            };
            let draft = drafts.entry(symbol).or_default();
            if let Some(idt) = row_first(&tr.result, row, "GeneID") {
                if let Ok(id) = idt.parse::<i64>() {
                    draft.gene_id = Some(id);
                }
            }
            for (label, values) in [
                ("Organism", &mut draft.organism),
                ("Description", &mut draft.description),
                ("Position", &mut draft.position),
            ] {
                if let Some(v) = row_first(&tr.result, row, label) {
                    values.push((source, v));
                }
            }
            draft.fn_claims.entry(source).or_default().extend(row_texts(
                &tr.result,
                row,
                "FunctionID",
            ));
            draft
                .dis_claims
                .entry(source)
                .or_default()
                .extend(row_texts(&tr.result, row, "DiseaseID"));
            for url in row_texts(&tr.result, row, "Link") {
                if !draft.links.iter().any(|(s, u)| *s == source && *u == url) {
                    draft.links.push((source, url));
                }
            }
        }
    }

    // ---- annotations (gene ↔ function, from GO) --------------------------
    // symbol → fid → (source, evidence)
    type AnnClaims<'a> = BTreeMap<Cow<'a, str>, (&'a str, Option<Cow<'a, str>>)>;
    let mut ann_claims: HashMap<Cow<str>, AnnClaims> = HashMap::new();
    let mut annotation_sources: Vec<&str> = Vec::new();
    for tr in of(Purpose::Annotations) {
        if !annotation_sources.contains(&tr.source.as_str()) {
            annotation_sources.push(&tr.source);
        }
        for row in tr.result.row_oids() {
            stats.annotation_rows += 1;
            let (Some(symbol), Some(fid)) = (
                row_first(&tr.result, row, "Symbol"),
                row_first(&tr.result, row, "FunctionID"),
            ) else {
                continue;
            };
            if !drafts.contains_key(&*symbol) {
                continue;
            }
            let evidence = row_first(&tr.result, row, "Evidence");
            ann_claims
                .entry(symbol)
                .or_default()
                .insert(fid, (&tr.source, evidence));
        }
    }

    // ---- function details -------------------------------------------------
    let mut fn_details: HashMap<Cow<str>, FunctionDetail> = HashMap::new();
    for tr in of(Purpose::Functions) {
        for row in tr.result.row_oids() {
            stats.function_rows += 1;
            let Some(fid) = row_first(&tr.result, row, "FunctionID") else {
                continue;
            };
            fn_details.insert(
                fid,
                FunctionDetail {
                    name: row_first(&tr.result, row, "Name"),
                    namespace: row_first(&tr.result, row, "Namespace"),
                    link: row_first(&tr.result, row, "Link"),
                },
            );
        }
    }

    // ---- disease rows -----------------------------------------------------
    // Details by id for every row: a gene row may claim any disease.
    let mut dis_details: HashMap<Cow<str>, DiseaseDetail> = HashMap::new();
    // symbol → did → the disease source asserting it.
    let mut dis_claims: HashMap<Cow<str>, BTreeMap<Cow<str>, &str>> = HashMap::new();
    let mut disease_sources: Vec<&str> = Vec::new();
    for tr in of(Purpose::Diseases) {
        if !disease_sources.contains(&tr.source.as_str()) {
            disease_sources.push(&tr.source);
        }
        for row in tr.result.row_oids() {
            stats.disease_rows += 1;
            let Some(did) = row_first(&tr.result, row, "DiseaseID") else {
                continue;
            };
            for symbol in row_texts(&tr.result, row, "Symbol") {
                if drafts.contains_key(&*symbol) {
                    dis_claims
                        .entry(symbol)
                        .or_default()
                        .insert(did.clone(), &tr.source);
                }
            }
            dis_details.insert(
                did,
                DiseaseDetail {
                    name: row_first(&tr.result, row, "Name"),
                    inheritance: row_first(&tr.result, row, "Inheritance"),
                    link: row_first(&tr.result, row, "Link"),
                },
            );
        }
    }

    // ---- publication rows -------------------------------------------------
    let mut pub_details: HashMap<Cow<str>, PublicationDetail> = HashMap::new();
    // symbol → pmid → source
    let mut pub_claims: HashMap<Cow<str>, BTreeMap<Cow<str>, &str>> = HashMap::new();
    for tr in of(Purpose::Publications) {
        for row in tr.result.row_oids() {
            stats.publication_rows += 1;
            let Some(pmid) = row_first(&tr.result, row, "PublicationID") else {
                continue;
            };
            for symbol in row_texts(&tr.result, row, "Symbol") {
                if drafts.contains_key(&*symbol) {
                    pub_claims
                        .entry(symbol)
                        .or_default()
                        .insert(pmid.clone(), &tr.source);
                }
            }
            pub_details.insert(
                pmid,
                PublicationDetail {
                    title: row_first(&tr.result, row, "Title"),
                    year: row_first(&tr.result, row, "Year"),
                    journal: row_first(&tr.result, row, "Journal"),
                    link: row_first(&tr.result, row, "Link"),
                },
            );
        }
    }

    // Coverage: a provider's silence counts as denial only when it was
    // queried without a narrowing pattern.
    let fn_coverage_complete = !annotation_sources.is_empty();
    let dis_coverage_complete = !disease_sources.is_empty() && question.disease.pattern().is_none();

    // ---- per-gene reconciliation, filtering, and building -----------------
    let mut genes = Vec::new();
    // Per-gene buffers, reused across genes.
    let mut candidates: Vec<&str> = Vec::new();
    let mut opinions: Vec<(&str, bool)> = Vec::new();
    let mut claimed_by: Vec<&str> = Vec::new();
    let mut kept_fns: Vec<Kept<FunctionDetail>> = Vec::new();
    let mut kept_dis: Vec<Kept<DiseaseDetail>> = Vec::new();
    for (symbol, draft) in &drafts {
        // Residual predicates (safe to re-apply after pushdown).
        let organism = reconciler.value(symbol, "Organism", &draft.organism);
        if let Some(o) = &question.organism {
            match &organism {
                Some(v) if v == o => {}
                _ => continue,
            }
        }
        if let Some(pat) = &question.symbol_like {
            if !like_match(symbol, pat) {
                continue;
            }
        }
        claimed_by.clear();

        // Function membership.
        let gene_ann = ann_claims.get(&**symbol);
        candidates.clear();
        candidates.extend(draft.fn_claims.values().flatten().map(|f| &**f));
        candidates.extend(gene_ann.into_iter().flat_map(|a| a.keys()).map(|f| &**f));
        candidates.sort_unstable();
        candidates.dedup();
        kept_fns.clear();
        for &fid in &candidates {
            opinions.clear();
            opinions.extend(
                draft
                    .fn_claims
                    .iter()
                    .map(|(src, set)| (*src, set.contains(fid))),
            );
            let go_claim = gene_ann.and_then(|a| a.get(fid));
            if let Some((src, evidence)) = go_claim {
                // Evidence gating (MinEvidence policy): a weakly-backed
                // annotation-source claim does not assert membership.
                opinions.push((src, reconciler.evidence_passes(evidence.as_deref())));
            } else if fn_coverage_complete {
                opinions.extend(annotation_sources.iter().map(|s| (*s, false)));
            }
            if reconciler.membership(symbol, fid, &opinions) {
                let from = claimed_by.len();
                claimed_by.extend(opinions.iter().filter(|(_, c)| *c).map(|(s, _)| *s));
                kept_fns.push(Kept {
                    id: fid,
                    detail: fn_details.get(fid),
                    evidence: go_claim.and_then(|(_, e)| e.as_deref()),
                    claimed_by: from..claimed_by.len(),
                });
            }
        }

        // Disease membership.
        let gene_dis = dis_claims.get(&**symbol);
        candidates.clear();
        candidates.extend(draft.dis_claims.values().flatten().map(|d| &**d));
        candidates.extend(gene_dis.into_iter().flat_map(|d| d.keys()).map(|d| &**d));
        candidates.sort_unstable();
        candidates.dedup();
        kept_dis.clear();
        for &did in &candidates {
            opinions.clear();
            opinions.extend(
                draft
                    .dis_claims
                    .iter()
                    .map(|(src, set)| (*src, set.contains(did))),
            );
            if let Some(src) = gene_dis.and_then(|d| d.get(did)) {
                opinions.push((src, true));
            } else if dis_coverage_complete {
                opinions.extend(disease_sources.iter().map(|s| (*s, false)));
            }
            if reconciler.membership(symbol, did, &opinions) {
                let from = claimed_by.len();
                claimed_by.extend(opinions.iter().filter(|(_, c)| *c).map(|(s, _)| *s));
                kept_dis.push(Kept {
                    id: did,
                    detail: dis_details.get(did),
                    evidence: None,
                    claimed_by: from..claimed_by.len(),
                });
            }
        }

        // Publications: single-provider claims, no cross-source denial.
        let gene_pubs = pub_claims.get(&**symbol);

        if !aspect_clauses_pass(
            question,
            kept_fns
                .iter()
                .map(|k| k.detail.and_then(|d| d.name.as_deref())),
            kept_dis
                .iter()
                .map(|k| k.detail.and_then(|d| d.name.as_deref())),
            gene_pubs
                .into_iter()
                .flatten()
                .map(|(pmid, _)| pub_details.get(pmid).and_then(|d| d.title.as_deref())),
        ) {
            continue;
        }

        // The gene passes: build it.
        let sources = |k: &Range<usize>| -> Vec<String> {
            claimed_by[k.clone()]
                .iter()
                .map(|s| s.to_string())
                .collect()
        };
        let functions = kept_fns
            .iter()
            .map(|k| FunctionInfo {
                id: k.id.to_string(),
                name: k.detail.and_then(|d| owned(&d.name)),
                namespace: k.detail.and_then(|d| owned(&d.namespace)),
                evidence: k.evidence.map(str::to_string),
                sources: sources(&k.claimed_by),
                link: match k.detail.and_then(|d| d.link.as_deref()) {
                    Some(url) => WebLink::external("GO", url),
                    None => WebLink::internal("function", k.id),
                },
            })
            .collect();
        let diseases = kept_dis
            .iter()
            .map(|k| DiseaseInfo {
                id: k.id.to_string(),
                name: k.detail.and_then(|d| owned(&d.name)),
                inheritance: k.detail.and_then(|d| owned(&d.inheritance)),
                sources: sources(&k.claimed_by),
                link: match k.detail.and_then(|d| d.link.as_deref()) {
                    Some(url) => WebLink::external("OMIM", url),
                    None => WebLink::internal("disease", k.id),
                },
            })
            .collect();
        let publications = gene_pubs
            .into_iter()
            .flatten()
            .map(|(pmid, source)| {
                let detail = pub_details.get(pmid);
                PublicationInfo {
                    id: pmid.to_string(),
                    title: detail.and_then(|d| owned(&d.title)),
                    year: detail.and_then(|d| owned(&d.year)),
                    journal: detail.and_then(|d| owned(&d.journal)),
                    sources: vec![source.to_string()],
                    link: match detail.and_then(|d| d.link.as_deref()) {
                        Some(url) => WebLink::external("PubMed", url),
                        None => WebLink::internal("publication", pmid),
                    },
                }
            })
            .collect();
        let description = reconciler.value(symbol, "Description", &draft.description);
        let position = reconciler.value(symbol, "Position", &draft.position);
        let mut links: Vec<WebLink> = draft
            .links
            .iter()
            .map(|(source, url)| WebLink::external(source, url.as_ref()))
            .collect();
        links.push(WebLink::internal("gene", symbol));
        genes.push(IntegratedGene {
            symbol: symbol.to_string(),
            gene_id: draft.gene_id,
            organism,
            description,
            position,
            functions,
            diseases,
            publications,
            links,
        });
    }

    FusedAnswer {
        genes,
        conflicts: reconciler.into_conflicts(),
        stats,
        missing_sources: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use annoda_oem::OemStore;
    use annoda_wrap::{Cost, SourceDescription, Wrapper};

    /// A test wrapper whose OML we assemble by hand.
    struct Fixed {
        descr: SourceDescription,
        oml: OemStore,
    }
    impl Wrapper for Fixed {
        fn description(&self) -> &SourceDescription {
            &self.descr
        }
        fn oml(&self) -> &OemStore {
            &self.oml
        }
        fn refresh(&mut self) -> usize {
            self.oml.len()
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    /// Gene provider rows: TP53 (GO:1 claimed, MIM 100 claimed),
    /// EGFR (no claims).
    fn gene_result() -> TaggedResult {
        let mut oml = OemStore::new();
        let root = oml.new_complex();
        let g1 = oml.add_complex_child(root, "Locus").unwrap();
        oml.add_atomic_child(g1, "Sym", "TP53").unwrap();
        oml.add_atomic_child(g1, "Id", AtomicValue::Int(7157))
            .unwrap();
        oml.add_atomic_child(g1, "Org", "Homo sapiens").unwrap();
        oml.add_atomic_child(g1, "Go", "GO:1").unwrap();
        oml.add_atomic_child(g1, "Mim", "100").unwrap();
        let g2 = oml.add_complex_child(root, "Locus").unwrap();
        oml.add_atomic_child(g2, "Sym", "EGFR").unwrap();
        oml.add_atomic_child(g2, "Id", AtomicValue::Int(1956))
            .unwrap();
        oml.add_atomic_child(g2, "Org", "Homo sapiens").unwrap();
        oml.set_name("LL", root).unwrap();
        let w = Fixed {
            descr: SourceDescription::remote("LL", "", ""),
            oml,
        };
        let mut cost = Cost::new();
        let result = w
            .subquery(
                "select L.Sym as Symbol, L.Id as GeneID, L.Org as Organism, \
                 L.Go as FunctionID, L.Mim as DiseaseID from LL.Locus L",
                &mut cost,
            )
            .unwrap();
        TaggedResult {
            source: "LL".into(),
            purpose: Purpose::Genes,
            result,
        }
    }

    /// GO asserts TP53→GO:1 and TP53→GO:2 (GO:2 missing on the gene side
    /// → conflict).
    fn annotation_result() -> TaggedResult {
        let mut oml = OemStore::new();
        let root = oml.new_complex();
        for fid in ["GO:1", "GO:2"] {
            let a = oml.add_complex_child(root, "Ann").unwrap();
            oml.add_atomic_child(a, "G", "TP53").unwrap();
            oml.add_atomic_child(a, "F", fid).unwrap();
            oml.add_atomic_child(a, "E", "IDA").unwrap();
        }
        oml.set_name("GO", root).unwrap();
        let w = Fixed {
            descr: SourceDescription::remote("GO", "", ""),
            oml,
        };
        let mut cost = Cost::new();
        let result = w
            .subquery(
                "select A.G as Symbol, A.F as FunctionID, A.E as Evidence from GO.Ann A",
                &mut cost,
            )
            .unwrap();
        TaggedResult {
            source: "GO".into(),
            purpose: Purpose::Annotations,
            result,
        }
    }

    fn disease_result() -> TaggedResult {
        let mut oml = OemStore::new();
        let root = oml.new_complex();
        let e = oml.add_complex_child(root, "Entry").unwrap();
        oml.add_atomic_child(e, "N", "100").unwrap();
        oml.add_atomic_child(e, "T", "SOME SYNDROME").unwrap();
        oml.add_atomic_child(e, "S", "TP53").unwrap();
        oml.set_name("OMIM", root).unwrap();
        let w = Fixed {
            descr: SourceDescription::remote("OMIM", "", ""),
            oml,
        };
        let mut cost = Cost::new();
        let result = w
            .subquery(
                "select E.N as DiseaseID, E.T as Name, E.S as Symbol from OMIM.Entry E",
                &mut cost,
            )
            .unwrap();
        TaggedResult {
            source: "OMIM".into(),
            purpose: Purpose::Diseases,
            result,
        }
    }

    #[test]
    fn figure5_question_keeps_only_function_without_disease() {
        // TP53: has functions but also a disease → excluded.
        // EGFR: no functions → fails the require clause.
        let q = GeneQuestion::figure5();
        let results = vec![gene_result(), annotation_result(), disease_result()];
        let ans = fuse(&q, &results, ReconcilePolicy::Union);
        assert!(ans.genes.is_empty());

        // Without the disease exclusion TP53 passes.
        let q2 = GeneQuestion {
            function: AspectClause::Require(None),
            ..GeneQuestion::default()
        };
        let ans2 = fuse(&q2, &results, ReconcilePolicy::Union);
        assert_eq!(ans2.genes.len(), 1);
        assert_eq!(ans2.genes[0].symbol, "TP53");
    }

    #[test]
    fn union_keeps_disputed_annotation_and_logs_conflict() {
        let q = GeneQuestion::default();
        let results = vec![gene_result(), annotation_result()];
        let ans = fuse(&q, &results, ReconcilePolicy::Union);
        let tp53 = ans.genes.iter().find(|g| g.symbol == "TP53").unwrap();
        let fids: Vec<&str> = tp53.functions.iter().map(|f| f.id.as_str()).collect();
        assert_eq!(fids, vec!["GO:1", "GO:2"]);
        // GO:2 is claimed by GO but absent from the locus record.
        assert_eq!(ans.conflicts.len(), 1);
        assert_eq!(ans.conflicts[0].item, "GO:2");
        assert!(ans.conflicts[0].kept);
    }

    #[test]
    fn intersection_drops_disputed_annotation() {
        let q = GeneQuestion::default();
        let results = vec![gene_result(), annotation_result()];
        let ans = fuse(&q, &results, ReconcilePolicy::Intersection);
        let tp53 = ans.genes.iter().find(|g| g.symbol == "TP53").unwrap();
        let fids: Vec<&str> = tp53.functions.iter().map(|f| f.id.as_str()).collect();
        assert_eq!(fids, vec!["GO:1"]);
        assert!(!ans.conflicts[0].kept);
    }

    #[test]
    fn evidence_and_sources_are_carried() {
        let q = GeneQuestion::default();
        let results = vec![gene_result(), annotation_result()];
        let ans = fuse(&q, &results, ReconcilePolicy::Union);
        let tp53 = ans.genes.iter().find(|g| g.symbol == "TP53").unwrap();
        let f1 = tp53.functions.iter().find(|f| f.id == "GO:1").unwrap();
        assert_eq!(f1.evidence.as_deref(), Some("IDA"));
        assert!(f1.sources.contains(&"LL".to_string()));
        assert!(f1.sources.contains(&"GO".to_string()));
    }

    #[test]
    fn organism_and_symbol_filters_apply() {
        let q = GeneQuestion {
            organism: Some("Mus musculus".into()),
            ..GeneQuestion::default()
        };
        let ans = fuse(&q, &[gene_result()], ReconcilePolicy::Union);
        assert!(ans.genes.is_empty());

        let q = GeneQuestion {
            symbol_like: Some("TP%".into()),
            ..GeneQuestion::default()
        };
        let ans = fuse(&q, &[gene_result()], ReconcilePolicy::Union);
        assert_eq!(ans.genes.len(), 1);
        assert_eq!(ans.genes[0].symbol, "TP53");
    }

    #[test]
    fn disease_details_join_by_id() {
        let q = GeneQuestion::default();
        let results = vec![gene_result(), disease_result()];
        let ans = fuse(&q, &results, ReconcilePolicy::Union);
        let tp53 = ans.genes.iter().find(|g| g.symbol == "TP53").unwrap();
        assert_eq!(tp53.diseases.len(), 1);
        assert_eq!(tp53.diseases[0].name.as_deref(), Some("SOME SYNDROME"));
        // Both the gene record and OMIM assert it: no conflict.
        assert!(ans
            .conflicts
            .iter()
            .all(|c| c.item != "100" || c.subject != "TP53"));
    }

    #[test]
    fn combination_any_vs_all() {
        let results = vec![gene_result(), annotation_result(), disease_result()];
        // Require functions AND diseases: TP53 has both → kept.
        let q_all = GeneQuestion {
            function: AspectClause::Require(None),
            disease: AspectClause::Require(None),
            combine: Combination::All,
            ..GeneQuestion::default()
        };
        let ans = fuse(&q_all, &results, ReconcilePolicy::Union);
        assert_eq!(ans.genes.len(), 1);

        // EGFR has neither; under Any it still fails, under All it fails.
        let q_any = GeneQuestion {
            function: AspectClause::Require(None),
            disease: AspectClause::Require(None),
            combine: Combination::Any,
            ..GeneQuestion::default()
        };
        let ans = fuse(&q_any, &results, ReconcilePolicy::Union);
        assert_eq!(ans.genes.len(), 1, "only TP53 satisfies any clause");
    }

    #[test]
    fn to_store_materialises_the_view() {
        let results = vec![gene_result(), annotation_result(), disease_result()];
        let ans = fuse(&GeneQuestion::default(), &results, ReconcilePolicy::Union);
        let store = ans.to_store();
        let root = store.named("IntegratedView").unwrap();
        assert_eq!(store.children(root, "Gene").count(), 2);
        let tp53 = store
            .children(root, "Gene")
            .find(|&g| store.child_value(g, "Symbol") == Some(&AtomicValue::Str("TP53".into())))
            .unwrap();
        assert_eq!(store.children(tp53, "Function").count(), 2);
        assert_eq!(store.children(tp53, "Disease").count(), 1);
        assert!(store.children(tp53, "Link").count() >= 1);
    }

    #[test]
    fn stats_count_rows() {
        let results = vec![gene_result(), annotation_result(), disease_result()];
        let ans = fuse(&GeneQuestion::default(), &results, ReconcilePolicy::Union);
        assert_eq!(ans.stats.gene_rows, 2);
        assert_eq!(ans.stats.annotation_rows, 2);
        assert_eq!(ans.stats.disease_rows, 1);
    }

    /// The rewritten fusion against the verbatim reference, over the
    /// subquery results real plans ship from an inconsistent corpus.
    mod against_the_reference {
        use super::*;
        use crate::mediator::Mediator;
        use crate::optimizer::{plan, OptimizerConfig};
        use annoda_sources::{Corpus, CorpusConfig};
        use annoda_wrap::{CustomWrapper, GoWrapper, LocusLinkWrapper, OmimWrapper, PubmedWrapper};
        use proptest::prelude::*;
        use std::sync::OnceLock;

        fn mediator() -> &'static Mediator {
            static MEDIATOR: OnceLock<Mediator> = OnceLock::new();
            MEDIATOR.get_or_init(|| {
                let corpus = Corpus::generate(CorpusConfig {
                    loci: 150,
                    go_terms: 60,
                    omim_entries: 40,
                    seed: 5,
                    inconsistency_rate: 0.4,
                });
                let mut m = Mediator::new();
                m.register(Box::new(second_gene_source(&corpus)));
                m.register(Box::new(LocusLinkWrapper::new(corpus.locuslink)));
                m.register(Box::new(GoWrapper::new(corpus.go)));
                m.register(Box::new(OmimWrapper::new(corpus.omim)));
                m.register(Box::new(PubmedWrapper::new(corpus.pubmed)));
                assert_eq!(m.model().providers_of("Gene").len(), 2);
                m
            })
        }

        /// A second gene provider for every other locus that disagrees
        /// with LocusLink now and then — on organism, description,
        /// position and function claims — plus genes LocusLink lacks, so
        /// value and gene-side membership conflicts arise.
        fn second_gene_source(corpus: &Corpus) -> CustomWrapper {
            let mut oml = OemStore::new();
            let root = oml.new_complex();
            for (i, rec) in corpus
                .locuslink
                .scan()
                .enumerate()
                .filter(|(i, _)| i % 2 == 0)
            {
                let locus = oml.add_complex_child(root, "Locus").unwrap();
                let mut put = |label: &str, value: &str| {
                    oml.add_atomic_child(locus, label, value).unwrap();
                };
                put("Symbol", &rec.symbol);
                put(
                    "Organism",
                    if i % 14 == 0 {
                        "Mus musculus"
                    } else {
                        &rec.organism
                    },
                );
                let description = format!("{} (curated)", rec.description);
                put(
                    "Description",
                    if i % 3 == 0 {
                        &description
                    } else {
                        &rec.description
                    },
                );
                put("Position", if i % 5 == 0 { "1p1.1" } else { &rec.position });
                for go in rec.go_ids.iter().skip(usize::from(i % 4 == 0)) {
                    put("GOID", go);
                }
                oml.add_atomic_child(locus, "MIM", AtomicValue::Int(100_000))
                    .unwrap();
            }
            for extra in ["AGB1", "BGB2", "KGB3"] {
                let locus = oml.add_complex_child(root, "Locus").unwrap();
                oml.add_atomic_child(locus, "Symbol", extra).unwrap();
                oml.add_atomic_child(locus, "Organism", "Homo sapiens")
                    .unwrap();
            }
            oml.set_name("GenBank", root).unwrap();
            CustomWrapper::new(SourceDescription::remote("GenBank", "", ""), oml)
        }

        /// Every planned subquery, run and tagged in plan order, minus
        /// the non-gene step `drop` picks (a failed source).
        fn shipped(q: &GeneQuestion, config: OptimizerConfig, drop: usize) -> Vec<TaggedResult> {
            let m = mediator();
            let steps = plan(q, m.model(), &m.source_infos(), config).steps;
            let dropped = steps
                .iter()
                .enumerate()
                .filter(|(_, s)| s.query.purpose != Purpose::Genes)
                .map(|(i, _)| i)
                .nth(drop);
            steps
                .iter()
                .enumerate()
                .filter(|(i, _)| Some(*i) != dropped)
                .map(|(_, step)| TaggedResult {
                    source: step.query.source.clone(),
                    purpose: step.query.purpose,
                    result: m
                        .wrapper(&step.query.source)
                        .unwrap()
                        .subquery(&step.query.lorel, &mut Cost::new())
                        .unwrap(),
                })
                .collect()
        }

        /// One of `choices`, uniformly.
        fn pick<T: Clone + std::fmt::Debug>(choices: Vec<T>) -> impl Strategy<Value = T> {
            (0..choices.len()).prop_map(move |i| choices[i].clone())
        }

        fn clause() -> impl Strategy<Value = AspectClause> {
            let patterns = ["%a%", "%E%", "%1%", "%ase%", "%in%"];
            let pattern = move || pick(patterns.to_vec()).prop_map(|p| Some(p.to_string()));
            prop_oneof![
                Just(AspectClause::Ignore),
                Just(AspectClause::Require(None)),
                Just(AspectClause::Exclude(None)),
                pattern().prop_map(AspectClause::Require),
                pattern().prop_map(AspectClause::Exclude),
            ]
        }

        fn question() -> impl Strategy<Value = GeneQuestion> {
            (
                pick(vec![None, Some("Homo sapiens"), Some("Mus musculus")]),
                pick(vec![None, Some("A%"), Some("B%"), Some("%1%"), Some("K%")]),
                (clause(), clause(), clause()),
                any::<bool>(),
                any::<bool>(),
            )
                .prop_map(
                    |(organism, symbol_like, (function, disease, publication), any, fetch)| {
                        GeneQuestion {
                            organism: organism.map(str::to_string),
                            symbol_like: symbol_like.map(str::to_string),
                            function,
                            disease,
                            publication,
                            combine: if any {
                                Combination::Any
                            } else {
                                Combination::All
                            },
                            fetch_aspects: fetch,
                        }
                    },
                )
        }

        fn policy() -> impl Strategy<Value = ReconcilePolicy> {
            pick(vec![
                ReconcilePolicy::Union,
                ReconcilePolicy::Intersection,
                ReconcilePolicy::Precedence(vec!["GO".into(), "GenBank".into(), "OMIM".into()]),
                ReconcilePolicy::Vote,
                ReconcilePolicy::MinEvidence(3),
            ])
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            #[test]
            fn fuse_equals_the_reference(
                q in question(),
                policy in policy(),
                pushdown in any::<bool>(),
                source_selection in any::<bool>(),
                drop in 0usize..6,
            ) {
                let config = OptimizerConfig { pushdown, source_selection, bind_join: false };
                let results = shipped(&q, config, drop);
                let got = fuse(&q, &results, policy.clone());
                let want = crate::fusion_reference::fuse(&q, &results, policy);
                prop_assert_eq!(&got.genes, &want.genes);
                prop_assert_eq!(&got.conflicts, &want.conflicts);
                prop_assert_eq!(got.stats, want.stats);
            }
        }
    }
}
