//! Integration tests for the post-paper extensions: the fourth
//! (literature) source, capability-limited sources, Lorel `group by`,
//! result re-organisation, the bind-join optimisation, and ranked
//! search held to its naive-scan oracle — all driven end to end
//! through the public APIs.

use annoda::reorganize::{self, GroupKey, SortKey};
use annoda_bench::workload;
use annoda_mediator::decompose::{AspectClause, GeneQuestion};
use annoda_oem::OemStore;
use annoda_sources::{Corpus, CorpusConfig};
use annoda_wrap::{Capabilities, CustomWrapper, LatencyModel, SourceDescription};

fn corpus() -> Corpus {
    Corpus::generate(CorpusConfig::tiny(42))
}

#[test]
fn fourth_source_flows_to_the_user_surfaces() {
    let c = corpus();
    let annoda = workload::annoda_four_sources(&c);
    let q = GeneQuestion {
        publication: AspectClause::Require(None),
        ..GeneQuestion::default()
    };
    let answer = annoda.ask(&q).unwrap();
    assert!(!answer.fused.genes.is_empty());

    // Rendered view shows PMIDs.
    let view = annoda::render_integrated_view(&answer.fused.genes);
    assert!(view.contains("PMID "), "{view}");

    // Navigation reaches publication object views.
    let nav = annoda.navigator();
    let gene = &answer.fused.genes[0];
    let pub_link = gene
        .links
        .iter()
        .find(|l| l.internal_target().map(|(k, _)| k) == Some("publication"));
    // Links on the gene come from gene_view, not the ask() path; resolve
    // via the object view instead.
    let gv = nav.gene_view(&gene.symbol).unwrap();
    let pl = gv
        .links
        .iter()
        .find(|l| l.internal_target().map(|(k, _)| k) == Some("publication"))
        .expect("gene view links to its publications");
    let pv = nav.follow(pl).unwrap();
    assert_eq!(pv.kind, "publication");
    assert!(pv.attributes.iter().any(|(k, _)| k == "Title"));
    assert!(pv.attributes.iter().any(|(k, _)| k == "Journal"));
    let _ = pub_link;
}

#[test]
fn scan_only_sources_fall_back_to_mediator_filtering() {
    // A source that cannot evaluate predicates: pushdown must be
    // stripped, the filter applied at the mediator, and answers stay
    // correct.
    let c = corpus();
    let mut annoda = workload::annoda_over(&c);
    // Replace OMIM with a scan-only clone of its OML.
    let omim_oml = {
        let w = annoda.mediator().wrapper("OMIM").unwrap();
        w.oml().clone()
    };
    annoda.unplug("OMIM");
    annoda.plug(Box::new(CustomWrapper::new(
        SourceDescription {
            name: "OMIM".into(),
            content: "scan-only OMIM dump".into(),
            base_url: "http://omim".into(),
            structure: "flat file".into(),
            capabilities: Capabilities::scan_only(),
            latency: LatencyModel::remote(),
        },
        omim_oml,
    )));

    let q = GeneQuestion {
        disease: AspectClause::Exclude(Some("%SYNDROME%".into())),
        ..GeneQuestion::default()
    };
    let plan = annoda.mediator().plan(&q);
    let omim_step = plan
        .steps
        .iter()
        .find(|s| s.query.source == "OMIM")
        .expect("OMIM planned");
    assert!(!omim_step.query.pushed_down, "scan-only cannot push down");
    assert!(!omim_step.query.lorel.contains("where"));
    assert!(!plan.residual.is_empty());

    // Answers equal the fully-capable configuration's.
    let scan_only_answer = annoda.ask(&q).unwrap();
    let reference = workload::annoda_over(&c).ask(&q).unwrap();
    let a: Vec<&str> = scan_only_answer
        .fused
        .genes
        .iter()
        .map(|g| g.symbol.as_str())
        .collect();
    let b: Vec<&str> = reference
        .fused
        .genes
        .iter()
        .map(|g| g.symbol.as_str())
        .collect();
    assert_eq!(a, b);
}

#[test]
fn group_by_over_the_materialised_gml() {
    let c = corpus();
    let annoda = workload::annoda_over(&c);
    let (gml, outcome, _) = annoda
        .lorel("select count(G.Symbol) from ANNODA-GML.Gene G group by G.Organism")
        .unwrap();
    assert!(!outcome.groups.is_empty());
    // The per-group counts sum to the corpus size.
    let total: i64 = gml
        .children(outcome.answer, "group")
        .filter_map(|g| gml.child_value(g, "count"))
        .filter_map(|v| v.as_text().parse::<i64>().ok())
        .sum();
    assert_eq!(total as usize, c.locuslink.len());
}

#[test]
fn reorganisation_over_a_real_answer() {
    let c = corpus();
    let annoda = workload::annoda_over(&c);
    let mut answer = annoda.ask(&GeneQuestion::default()).unwrap();
    let genes = &mut answer.fused.genes;
    assert!(!genes.is_empty());

    let by_org = reorganize::group_genes(genes, GroupKey::Organism);
    let grouped: usize = by_org.values().map(Vec::len).sum();
    assert_eq!(grouped, genes.len());

    reorganize::sort_genes(genes, SortKey::LocusId, false);
    assert!(genes.windows(2).all(|w| w[0].gene_id <= w[1].gene_id));

    let tsv = reorganize::to_tsv(genes);
    assert_eq!(tsv.lines().count(), genes.len() + 1);

    let summary = reorganize::summarize(genes);
    assert_eq!(summary.genes, genes.len());
    assert_eq!(summary.per_organism.values().sum::<usize>(), genes.len());
}

#[test]
fn bind_join_equivalence_through_the_facade() {
    let c = corpus();
    let mut annoda = workload::annoda_over(&c);
    let q = GeneQuestion {
        symbol_like: Some("C%".into()),
        function: AspectClause::Require(None),
        ..GeneQuestion::default()
    };
    let unbound = annoda.ask(&q).unwrap();
    annoda.registry_mut().mediator_mut().optimizer.bind_join = true;
    let bound = annoda.ask(&q).unwrap();
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
    assert_eq!(a, b);
    assert!(bound.cost.records <= unbound.cost.records);
}

#[test]
fn selectivity_estimates_order_plans_sensibly() {
    // A rare organism ships fewer estimated records than a common one.
    let c = corpus();
    let annoda = workload::annoda_over(&c);
    let est = |organism: &str| {
        let q = GeneQuestion {
            organism: Some(organism.into()),
            ..GeneQuestion::default()
        };
        annoda.mediator().plan(&q).steps[0].est_records
    };
    let common = est("Homo sapiens");
    let rare = est("Rattus norvegicus");
    let absent = est("Danio rerio");
    assert!(common > rare, "common {common} <= rare {rare}");
    assert!(rare >= absent, "rare {rare} < absent {absent}");
    // And the estimates come from the real distribution.
    let humans = c.locuslink.by_organism("Homo sapiens").count() as u64;
    assert_eq!(common, humans);
}

#[test]
fn value_conflicts_across_two_gene_providers_follow_precedence() {
    use annoda_mediator::{ConflictKind, ReconcilePolicy};
    let c = corpus();
    let symbol = c.locuslink.scan().next().unwrap().symbol.clone();

    // A second gene provider that disagrees about the description.
    let genbank_oml = || {
        let mut oml = OemStore::new();
        let root = oml.new_complex();
        let l = oml.add_complex_child(root, "Locus").unwrap();
        oml.add_atomic_child(l, "Symbol", symbol.as_str()).unwrap();
        oml.add_atomic_child(l, "Organism", "Homo sapiens").unwrap();
        oml.add_atomic_child(l, "Description", "GENBANK VERSION OF THE DESCRIPTION")
            .unwrap();
        oml.set_name("GenBank", root).unwrap();
        oml
    };

    let build = |order: Vec<String>| {
        let mut annoda = workload::annoda_over(&c);
        let report = annoda.plug(Box::new(CustomWrapper::new(
            SourceDescription::remote("GenBank", "sequence-centric gene records", "http://gb"),
            genbank_oml(),
        )));
        assert!(
            report
                .entities
                .contains(&("Locus".to_string(), "Gene".to_string())),
            "{report:?}"
        );
        annoda.registry_mut().mediator_mut().policy = ReconcilePolicy::Precedence(order);
        annoda
    };

    let prefer_genbank = build(vec!["GenBank".into(), "LocusLink".into()]);
    let q = GeneQuestion {
        symbol_like: Some(symbol.clone()),
        ..GeneQuestion::default()
    };
    let ans = prefer_genbank.ask(&q).unwrap();
    let gene = ans.fused.genes.iter().find(|g| g.symbol == symbol).unwrap();
    assert_eq!(
        gene.description.as_deref(),
        Some("GENBANK VERSION OF THE DESCRIPTION")
    );
    // The disagreement is logged as a value conflict.
    assert!(
        ans.fused
            .conflicts
            .iter()
            .any(|cf| matches!(cf.kind, ConflictKind::Value { .. }) && cf.subject == symbol),
        "{:?}",
        ans.fused.conflicts
    );

    let prefer_locuslink = build(vec!["LocusLink".into(), "GenBank".into()]);
    let ans = prefer_locuslink.ask(&q).unwrap();
    let gene = ans.fused.genes.iter().find(|g| g.symbol == symbol).unwrap();
    assert_eq!(
        gene.description.as_deref(),
        c.locuslink
            .by_symbol(&symbol)
            .map(|r| r.description.as_str())
    );
}

#[test]
fn store_persistence_round_trips_an_oml() {
    // The persistence layer can checkpoint a wrapper's OML to disk.
    let c = corpus();
    let annoda = workload::annoda_over(&c);
    let oml = annoda.mediator().wrapper("OMIM").unwrap().oml().clone();
    let path = std::env::temp_dir().join(format!("annoda-omim-{}.oem", std::process::id()));
    annoda_oem::text::save_to_file(&oml, &path).unwrap();
    let back = annoda_oem::text::load_from_file(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let ra = oml.named("OMIM").unwrap();
    let rb = back.named("OMIM").unwrap();
    assert!(annoda_oem::graph::structural_eq(&oml, ra, &back, rb));
}

#[test]
fn custom_wrapper_round_trip_through_registry() {
    // Plug, ask, unplug: the mediator survives source churn.
    let c = corpus();
    let mut annoda = workload::annoda_over(&c);
    let mut oml = OemStore::new();
    let root = oml.new_complex();
    let e = oml.add_complex_child(root, "Entry").unwrap();
    oml.add_atomic_child(e, "MimNumber", 999_999i64).unwrap();
    oml.add_atomic_child(e, "Title", "TRANSIENT DISORDER")
        .unwrap();
    let sym = c.locuslink.scan().next().unwrap().symbol.clone();
    oml.add_atomic_child(e, "GeneSymbol", sym.as_str()).unwrap();
    oml.set_name("Transient", root).unwrap();
    annoda.plug(Box::new(CustomWrapper::new(
        SourceDescription::remote("Transient", "temp registry", "http://t"),
        oml,
    )));
    let q = GeneQuestion {
        disease: AspectClause::Require(None),
        ..GeneQuestion::default()
    };
    let with = annoda.ask(&q).unwrap();
    assert!(with.fused.genes.iter().any(|g| g.symbol == sym));
    assert!(annoda.unplug("Transient"));
    let without = annoda.ask(&q).unwrap();
    // The gene keeps any OMIM-side diseases but loses the transient one.
    let gene_diseases = |ans: &annoda_mediator::MediatedAnswer| {
        ans.fused
            .genes
            .iter()
            .find(|g| g.symbol == sym)
            .map(|g| g.diseases.len())
            .unwrap_or(0)
    };
    assert!(gene_diseases(&with) > gene_diseases(&without));
}

/// The BM25 index answers exactly as the index-free scan does over the
/// text the *real wrappers* harvest from a generated four-source corpus
/// (`search_props.rs` holds the same equivalence on synthetic docs
/// only): same loci, same order, bit-identical scores, for every query
/// under every fusion strategy.
#[test]
fn indexed_search_equals_the_naive_scan_over_harvested_text() {
    use annoda_search::{naive_search, tokenize, FusionStrategy, SearchIndex};

    const K: usize = 10;
    let annoda = workload::annoda_four_sources(&workload::corpus_of(1000, 13));
    let docs = annoda.mediator().harvest_text_docs();
    assert!(docs.len() >= 3, "GO, OMIM and PubMed all bear text");
    let index = SearchIndex::build(&docs);

    // The generated vocabulary is seed-dependent, so queries are derived
    // from the harvest: per source one single-term query and one
    // multi-term query, from two different documents.
    let mut queries = Vec::new();
    for (i, (_, source_docs)) in docs.iter().enumerate() {
        let single = &source_docs[(i * 7) % source_docs.len()];
        let multi = &source_docs[source_docs.len() / 2];
        queries.push(tokenize(&single.text).swap_remove(0));
        queries.push(tokenize(&multi.text).join(" "));
    }
    queries.sort();
    queries.dedup();

    for strategy in FusionStrategy::all() {
        for q in &queries {
            let oracle = naive_search(&docs, q, K, strategy);
            assert!(!oracle.is_empty(), "query {q:?} is taken from the corpus");
            assert_eq!(
                index.search(q, K, strategy),
                oracle,
                "indexed top-{K} diverged from the scan (query {q:?}, {})",
                strategy.name()
            );
        }
    }
}
