//! The fusion algorithm as it stood before fusion learned to build only
//! the genes that pass, kept verbatim as the reference the rewritten
//! [`crate::fusion::fuse`] must reproduce: same genes, same conflicts in
//! the same order, same row counts (see the fusion property test). The
//! one edit is the clause check's call, which now hands
//! [`aspect_clauses_pass`] the names of the built records.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use annoda_oem::{AtomicValue, Oid};
use annoda_wrap::SubqueryResult;

use crate::decompose::{GeneQuestion, Purpose};
use crate::fusion::{
    aspect_clauses_pass, DiseaseInfo, FunctionInfo, FusedAnswer, FusionStats, IntegratedGene,
    PublicationInfo, TaggedResult,
};
use crate::reconcile::{ReconcilePolicy, Reconciler};
use crate::weblink::WebLink;

// ----- row readers --------------------------------------------------------

fn row_texts(res: &SubqueryResult, row: Oid, label: &str) -> Vec<String> {
    res.store
        .children(row, label)
        .filter_map(|o| res.store.value_of(o).map(|v| v.as_text()))
        .collect()
}

fn row_first(res: &SubqueryResult, row: Oid, label: &str) -> Option<String> {
    res.store
        .children(row, label)
        .next()
        .and_then(|o| res.store.value_of(o).map(|v| v.as_text()))
}

fn like(text: &str, pattern: &str) -> bool {
    AtomicValue::Str(text.to_string()).lorel_like(pattern)
}

// ----- intermediate gene record --------------------------------------------

#[derive(Default, Debug)]
struct GeneDraft {
    gene_id: Option<i64>,
    /// attribute → (source, value) pairs, for value reconciliation.
    attrs: BTreeMap<&'static str, Vec<(String, String)>>,
    /// (source, claimed function ids) from the gene provider's rows.
    fn_claims: BTreeMap<String, BTreeSet<String>>,
    dis_claims: BTreeMap<String, BTreeSet<String>>,
    links: Vec<WebLink>,
}

#[derive(Default, Debug, Clone)]
struct FunctionDetail {
    name: Option<String>,
    namespace: Option<String>,
    link: Option<String>,
}

#[derive(Default, Debug, Clone)]
struct DiseaseDetail {
    name: Option<String>,
    inheritance: Option<String>,
    link: Option<String>,
}

/// Fuses tagged subquery results under `question`, reconciling with
/// `policy`. The question's predicates are (re-)applied at the mediator,
/// so results are identical whether or not pushdown ran.
pub fn fuse(
    question: &GeneQuestion,
    results: &[TaggedResult],
    policy: ReconcilePolicy,
) -> FusedAnswer {
    let mut reconciler = Reconciler::new(policy);
    let mut stats = FusionStats::default();

    // ---- collect gene drafts -------------------------------------------
    let mut drafts: BTreeMap<String, GeneDraft> = BTreeMap::new();
    let mut gene_sources: Vec<String> = Vec::new();
    for tr in results.iter().filter(|t| t.purpose == Purpose::Genes) {
        if !gene_sources.contains(&tr.source) {
            gene_sources.push(tr.source.clone());
        }
        for row in tr.result.row_oids() {
            stats.gene_rows += 1;
            let Some(symbol) = row_first(&tr.result, row, "Symbol") else {
                continue;
            };
            let draft = drafts.entry(symbol.clone()).or_default();
            if let Some(idt) = row_first(&tr.result, row, "GeneID") {
                if let Ok(id) = idt.parse::<i64>() {
                    draft.gene_id = Some(id);
                }
            }
            for attr in ["Organism", "Description", "Position"] {
                if let Some(v) = row_first(&tr.result, row, attr) {
                    draft
                        .attrs
                        .entry(match attr {
                            "Organism" => "Organism",
                            "Description" => "Description",
                            _ => "Position",
                        })
                        .or_default()
                        .push((tr.source.clone(), v));
                }
            }
            draft
                .fn_claims
                .entry(tr.source.clone())
                .or_default()
                .extend(row_texts(&tr.result, row, "FunctionID"));
            draft
                .dis_claims
                .entry(tr.source.clone())
                .or_default()
                .extend(row_texts(&tr.result, row, "DiseaseID"));
            for url in row_texts(&tr.result, row, "Link") {
                let l = WebLink::external(&tr.source, url);
                if !draft.links.contains(&l) {
                    draft.links.push(l);
                }
            }
        }
    }

    // ---- annotations (gene ↔ function, from GO) --------------------------
    // symbol → fid → (source, evidence)
    let mut ann_claims: BTreeMap<String, BTreeMap<String, (String, Option<String>)>> =
        BTreeMap::new();
    let mut annotation_sources: Vec<String> = Vec::new();
    for tr in results.iter().filter(|t| t.purpose == Purpose::Annotations) {
        if !annotation_sources.contains(&tr.source) {
            annotation_sources.push(tr.source.clone());
        }
        for row in tr.result.row_oids() {
            stats.annotation_rows += 1;
            let (Some(symbol), Some(fid)) = (
                row_first(&tr.result, row, "Symbol"),
                row_first(&tr.result, row, "FunctionID"),
            ) else {
                continue;
            };
            let evidence = row_first(&tr.result, row, "Evidence");
            ann_claims
                .entry(symbol)
                .or_default()
                .insert(fid, (tr.source.clone(), evidence));
        }
    }

    // ---- function details -------------------------------------------------
    let mut fn_details: HashMap<String, FunctionDetail> = HashMap::new();
    for tr in results.iter().filter(|t| t.purpose == Purpose::Functions) {
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
    let mut dis_details: HashMap<String, DiseaseDetail> = HashMap::new();
    // symbol → did set asserted by the disease source.
    let mut dis_claims: BTreeMap<String, BTreeMap<String, String>> = BTreeMap::new();
    let mut disease_sources: Vec<String> = Vec::new();
    for tr in results.iter().filter(|t| t.purpose == Purpose::Diseases) {
        if !disease_sources.contains(&tr.source) {
            disease_sources.push(tr.source.clone());
        }
        for row in tr.result.row_oids() {
            stats.disease_rows += 1;
            let Some(did) = row_first(&tr.result, row, "DiseaseID") else {
                continue;
            };
            dis_details.insert(
                did.clone(),
                DiseaseDetail {
                    name: row_first(&tr.result, row, "Name"),
                    inheritance: row_first(&tr.result, row, "Inheritance"),
                    link: row_first(&tr.result, row, "Link"),
                },
            );
            for symbol in row_texts(&tr.result, row, "Symbol") {
                dis_claims
                    .entry(symbol)
                    .or_default()
                    .insert(did.clone(), tr.source.clone());
            }
        }
    }

    // ---- publication rows -------------------------------------------------
    #[derive(Default, Clone)]
    struct PublicationDetail {
        title: Option<String>,
        year: Option<String>,
        journal: Option<String>,
        link: Option<String>,
    }
    let mut pub_details: HashMap<String, PublicationDetail> = HashMap::new();
    // symbol → pmid → source
    let mut pub_claims: BTreeMap<String, BTreeMap<String, String>> = BTreeMap::new();
    for tr in results
        .iter()
        .filter(|t| t.purpose == Purpose::Publications)
    {
        for row in tr.result.row_oids() {
            stats.publication_rows += 1;
            let Some(pmid) = row_first(&tr.result, row, "PublicationID") else {
                continue;
            };
            pub_details.insert(
                pmid.clone(),
                PublicationDetail {
                    title: row_first(&tr.result, row, "Title"),
                    year: row_first(&tr.result, row, "Year"),
                    journal: row_first(&tr.result, row, "Journal"),
                    link: row_first(&tr.result, row, "Link"),
                },
            );
            for symbol in row_texts(&tr.result, row, "Symbol") {
                pub_claims
                    .entry(symbol)
                    .or_default()
                    .insert(pmid.clone(), tr.source.clone());
            }
        }
    }

    // Coverage: a provider's silence counts as denial only when it was
    // queried without a narrowing pattern.
    let fn_coverage_complete = !annotation_sources.is_empty();
    let dis_coverage_complete = !disease_sources.is_empty() && question.disease.pattern().is_none();

    // ---- per-gene reconciliation and filtering ----------------------------
    let mut genes = Vec::new();
    for (symbol, draft) in drafts {
        // Residual predicates (safe to re-apply after pushdown).
        let organism = draft
            .attrs
            .get("Organism")
            .and_then(|vs| reconciler.value(&symbol, "Organism", vs));
        if let Some(o) = &question.organism {
            match &organism {
                Some(v) if v == o => {}
                _ => continue,
            }
        }
        if let Some(pat) = &question.symbol_like {
            if !like(&symbol, pat) {
                continue;
            }
        }

        // Function membership.
        let gene_fn_sets: Vec<(&String, &BTreeSet<String>)> = draft.fn_claims.iter().collect();
        let mut candidate_fids: BTreeSet<String> = gene_fn_sets
            .iter()
            .flat_map(|(_, s)| s.iter().cloned())
            .collect();
        let gene_ann = ann_claims.get(&symbol);
        if let Some(ann) = gene_ann {
            candidate_fids.extend(ann.keys().cloned());
        }
        let mut functions = Vec::new();
        for fid in &candidate_fids {
            let mut opinions: Vec<(String, bool)> = gene_fn_sets
                .iter()
                .map(|(src, set)| ((*src).clone(), set.contains(fid)))
                .collect();
            let go_claim = gene_ann.and_then(|a| a.get(fid));
            if let Some((src, evidence)) = go_claim {
                // Evidence gating (MinEvidence policy): a weakly-backed
                // annotation-source claim does not assert membership.
                let asserted = reconciler.evidence_passes(evidence.as_deref());
                opinions.push((src.clone(), asserted));
            } else if fn_coverage_complete {
                for s in &annotation_sources {
                    opinions.push((s.clone(), false));
                }
            }
            if reconciler.membership(&symbol, fid, &opinions) {
                let detail = fn_details.get(fid).cloned().unwrap_or_default();
                functions.push(FunctionInfo {
                    id: fid.clone(),
                    name: detail.name,
                    namespace: detail.namespace,
                    evidence: go_claim.and_then(|(_, e)| e.clone()),
                    sources: opinions
                        .iter()
                        .filter(|(_, c)| *c)
                        .map(|(s, _)| s.clone())
                        .collect(),
                    link: match detail.link {
                        Some(url) => WebLink::external("GO", url),
                        None => WebLink::internal("function", fid),
                    },
                });
            }
        }

        // Disease membership.
        let gene_dis_sets: Vec<(&String, &BTreeSet<String>)> = draft.dis_claims.iter().collect();
        let mut candidate_dids: BTreeSet<String> = gene_dis_sets
            .iter()
            .flat_map(|(_, s)| s.iter().cloned())
            .collect();
        let gene_dis = dis_claims.get(&symbol);
        if let Some(d) = gene_dis {
            candidate_dids.extend(d.keys().cloned());
        }
        let mut diseases = Vec::new();
        for did in &candidate_dids {
            let mut opinions: Vec<(String, bool)> = gene_dis_sets
                .iter()
                .map(|(src, set)| ((*src).clone(), set.contains(did)))
                .collect();
            let omim_claim = gene_dis.and_then(|d| d.get(did));
            if let Some(src) = omim_claim {
                opinions.push((src.clone(), true));
            } else if dis_coverage_complete {
                for s in &disease_sources {
                    opinions.push((s.clone(), false));
                }
            }
            if reconciler.membership(&symbol, did, &opinions) {
                let detail = dis_details.get(did).cloned().unwrap_or_default();
                diseases.push(DiseaseInfo {
                    id: did.clone(),
                    name: detail.name,
                    inheritance: detail.inheritance,
                    sources: opinions
                        .iter()
                        .filter(|(_, c)| *c)
                        .map(|(s, _)| s.clone())
                        .collect(),
                    link: match detail.link {
                        Some(url) => WebLink::external("OMIM", url),
                        None => WebLink::internal("disease", did),
                    },
                });
            }
        }

        // Publications: single-provider claims, no cross-source denial.
        let mut publications = Vec::new();
        if let Some(claims) = pub_claims.get(&symbol) {
            for (pmid, source) in claims {
                let detail = pub_details.get(pmid).cloned().unwrap_or_default();
                publications.push(PublicationInfo {
                    id: pmid.clone(),
                    title: detail.title,
                    year: detail.year,
                    journal: detail.journal,
                    sources: vec![source.clone()],
                    link: match detail.link {
                        Some(url) => WebLink::external("PubMed", url),
                        None => WebLink::internal("publication", pmid),
                    },
                });
            }
        }

        if !aspect_clauses_pass(
            question,
            functions.iter().map(|f| f.name.as_deref()),
            diseases.iter().map(|d| d.name.as_deref()),
            publications.iter().map(|p| p.title.as_deref()),
        ) {
            continue;
        }

        let description = draft
            .attrs
            .get("Description")
            .and_then(|vs| reconciler.value(&symbol, "Description", vs));
        let position = draft
            .attrs
            .get("Position")
            .and_then(|vs| reconciler.value(&symbol, "Position", vs));
        let mut links = draft.links;
        links.push(WebLink::internal("gene", &symbol));
        genes.push(IntegratedGene {
            symbol,
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
