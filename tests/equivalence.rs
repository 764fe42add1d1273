//! Cross-system equivalence: on a *consistent* corpus every automated
//! architecture must return the same gene sets for the same questions
//! (they integrate the same data); what differs is cost, freshness, and
//! conflict visibility. Also pins that the optimizer never changes
//! answers and that reconciliation policies behave monotonically.

use annoda_baselines::IntegrationSystem;
use annoda_mediator::decompose::{AspectClause, Combination, GeneQuestion};
use annoda_mediator::{OptimizerConfig, ReconcilePolicy};
use annoda_sources::{Corpus, CorpusConfig};

fn consistent_corpus() -> Corpus {
    Corpus::generate(CorpusConfig {
        loci: 80,
        go_terms: 50,
        omim_entries: 30,
        seed: 21,
        inconsistency_rate: 0.0,
    })
}

fn questions() -> Vec<GeneQuestion> {
    vec![
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
    ]
}

fn systems(corpus: &Corpus) -> Vec<Box<dyn IntegrationSystem>> {
    // The four automated systems (hypertext only sees locus-page links,
    // so it legitimately misses GO-side-only annotations).
    let mut all = annoda_bench::workload::all_systems(corpus);
    all.truncate(4);
    all
}

#[test]
fn all_automated_systems_agree_on_consistent_data() {
    let corpus = consistent_corpus();
    for (qi, q) in questions().into_iter().enumerate() {
        let mut reference: Option<Vec<String>> = None;
        for mut sys in systems(&corpus) {
            let mut genes: Vec<String> = sys
                .answer(&q)
                .unwrap()
                .genes
                .iter()
                .map(|g| g.symbol.clone())
                .collect();
            genes.sort();
            match &reference {
                None => reference = Some(genes),
                Some(r) => assert_eq!(&genes, r, "question #{qi}: {} disagrees", sys.name()),
            }
        }
    }
}

#[test]
fn consistent_corpus_yields_zero_conflicts_everywhere() {
    let corpus = consistent_corpus();
    for mut sys in systems(&corpus) {
        let ans = sys.answer(&GeneQuestion::figure5()).unwrap();
        assert_eq!(ans.conflicts, 0, "{}", sys.name());
    }
}

/// The five configurations B5 ablates.
const CONFIGS: [OptimizerConfig; 5] = [
    OptimizerConfig {
        pushdown: true,
        source_selection: true,
        bind_join: true,
    },
    OptimizerConfig {
        pushdown: true,
        source_selection: true,
        bind_join: false,
    },
    OptimizerConfig {
        pushdown: true,
        source_selection: false,
        bind_join: false,
    },
    OptimizerConfig {
        pushdown: false,
        source_selection: true,
        bind_join: true,
    },
    OptimizerConfig {
        pushdown: false,
        source_selection: false,
        bind_join: false,
    },
];

/// [`questions`] plus one question per `uncached_asks` class of the
/// benchmark: a symbol prefix, an organism, name patterns, an exclude
/// clause, and `combine=Any`.
fn ask_classes(corpus: &Corpus) -> Vec<GeneQuestion> {
    let symbol = &corpus.locuslink.scan().next().expect("loci").symbol;
    let prefix = |n: usize| Some(format!("{}%", &symbol[..n]));
    let mut all = questions();
    all.extend([
        // point lookup by prefix, narrowed
        GeneQuestion {
            symbol_like: prefix(3),
            organism: Some("Homo sapiens".into()),
            function: AspectClause::Require(None),
            ..GeneQuestion::default()
        },
        // selective semijoin
        GeneQuestion {
            symbol_like: prefix(2),
            function: AspectClause::Require(Some("%kinase%".into())),
            disease: AspectClause::Exclude(Some("%SYNDROME%".into())),
            combine: Combination::Any,
            ..GeneQuestion::default()
        },
        // one-source filter
        GeneQuestion {
            symbol_like: prefix(1),
            organism: Some("Mus musculus".into()),
            function: AspectClause::Require(Some("%receptor%".into())),
            ..GeneQuestion::default()
        },
        // two-source join
        GeneQuestion {
            organism: Some("Homo sapiens".into()),
            function: AspectClause::Require(Some("%ase%".into())),
            disease: AspectClause::Require(None),
            combine: Combination::Any,
            ..GeneQuestion::default()
        },
        // three-source join with negation
        GeneQuestion {
            function: AspectClause::Require(Some("%transporter%".into())),
            disease: AspectClause::Exclude(Some("%CARCINOMA%".into())),
            ..GeneQuestion::default()
        },
        // the literature leg (bound like annotations and diseases)
        GeneQuestion {
            symbol_like: prefix(2),
            publication: AspectClause::Require(None),
            disease: AspectClause::Require(Some("%A%".into())),
            ..GeneQuestion::default()
        },
    ]);
    all
}

/// B5's claim, pinned on consistent and on inconsistent data: no
/// configuration changes which genes answer, and the bind join changes
/// nothing at all — whole integrated genes and the conflict log are
/// identical with it on and off. (Whole genes do differ across the other
/// two switches: with source selection off every gene carries the
/// aspects the question ignores, and with pushdown off the functions and
/// diseases a name pattern did not match keep their names.)
fn configs_agree(corpus: &Corpus, four_sources: bool) {
    let over = |config: OptimizerConfig| {
        let mut annoda = if four_sources {
            annoda_bench::workload::annoda_four_sources(corpus)
        } else {
            annoda_bench::workload::annoda_over(corpus)
        };
        annoda.registry_mut().mediator_mut().optimizer = config;
        annoda
    };
    let systems: Vec<_> = CONFIGS
        .iter()
        .map(|&c| {
            let flipped = OptimizerConfig {
                bind_join: !c.bind_join,
                ..c
            };
            (c, over(c), over(flipped))
        })
        .collect();
    for q in ask_classes(corpus) {
        let mut reference = None;
        let mut costs = Vec::new();
        for (config, annoda, flipped) in &systems {
            let ans = annoda.ask(&q).unwrap();
            let other = flipped.ask(&q).unwrap();
            assert_eq!(
                ans.fused.genes, other.fused.genes,
                "{config:?}, bind join flipped: {q}"
            );
            assert_eq!(
                ans.fused.conflicts, other.fused.conflicts,
                "{config:?}, bind join flipped: {q}"
            );
            costs.push(ans.cost.virtual_us);
            let symbols: Vec<String> = ans.fused.genes.into_iter().map(|g| g.symbol).collect();
            match &reference {
                None => reference = Some(symbols),
                Some(r) => assert_eq!(&symbols, r, "{config:?} changed the answer to {q}"),
            }
        }
        // Full optimisation is never more expensive than none.
        assert!(
            costs[0] <= costs[4],
            "optimised {} > naive {}: {q}",
            costs[0],
            costs[4]
        );
    }
}

#[test]
fn optimizer_configs_never_change_answers() {
    configs_agree(&consistent_corpus(), false);
}

#[test]
fn optimizer_configs_never_change_answers_on_inconsistent_sources() {
    let corpus = Corpus::generate(CorpusConfig {
        loci: 80,
        go_terms: 50,
        omim_entries: 30,
        seed: 33,
        inconsistency_rate: 0.4,
    });
    configs_agree(&corpus, true);
}

#[test]
fn reconciliation_policies_are_monotone() {
    // Intersection ⊆ Vote ⊆ Union on every gene's function set.
    let corpus = Corpus::generate(CorpusConfig {
        loci: 80,
        go_terms: 50,
        omim_entries: 30,
        seed: 33,
        inconsistency_rate: 0.4,
    });
    let q = GeneQuestion::default();
    let function_sets = |policy: ReconcilePolicy| -> Vec<(String, Vec<String>)> {
        let mut annoda = annoda_bench::workload::annoda_over(&corpus);
        annoda.registry_mut().mediator_mut().policy = policy;
        // Functions are integrated only when fetched; require them.
        let q = GeneQuestion {
            function: AspectClause::Require(None),
            ..q.clone()
        };
        annoda
            .ask(&q)
            .unwrap()
            .fused
            .genes
            .iter()
            .map(|g| {
                let mut f: Vec<String> = g.functions.iter().map(|f| f.id.clone()).collect();
                f.sort();
                (g.symbol.clone(), f)
            })
            .collect()
    };
    let union: std::collections::HashMap<_, _> =
        function_sets(ReconcilePolicy::Union).into_iter().collect();
    let inter: std::collections::HashMap<_, _> = function_sets(ReconcilePolicy::Intersection)
        .into_iter()
        .collect();
    assert!(!union.is_empty());
    for (gene, fns) in &inter {
        let uf = union
            .get(gene)
            .expect("intersection genes appear under union");
        for f in fns {
            assert!(uf.contains(f), "{gene}: {f} in intersection but not union");
        }
    }
    // And the union result is strictly richer somewhere (0.4 inconsistency).
    let union_total: usize = union.values().map(Vec::len).sum();
    let inter_total: usize = inter.values().map(Vec::len).sum();
    assert!(union_total > inter_total);
}

#[test]
fn figure5_answer_matches_ground_truth_exactly() {
    let corpus = consistent_corpus();
    let mut expected: Vec<String> = corpus
        .locuslink
        .scan()
        .filter(|r| !r.go_ids.is_empty() && r.omim_ids.is_empty())
        .map(|r| r.symbol.clone())
        .collect();
    expected.sort();
    for mut sys in systems(&corpus) {
        let mut got: Vec<String> = sys
            .answer(&GeneQuestion::figure5())
            .unwrap()
            .genes
            .iter()
            .map(|g| g.symbol.clone())
            .collect();
        got.sort();
        assert_eq!(got, expected, "{}", sys.name());
    }
}
