//! B5 — optimizer ablation: the wall-time effect of the bind join,
//! predicate pushdown and source selection on the mediator's question
//! path, each switched off alone from the default (all on). The
//! simulated cost table lives in `cargo run --bin bench_report`; real
//! wall time shows the same ordering because less data is shipped and
//! joined. Set-up asserts what B5 claims before anything is timed: every
//! configuration returns the same integrated genes, and the default
//! ships fewer records than the same plan without the bind join.
//!
//! The `ask_classes` group times one question per class of the
//! benchmark's `uncached_asks` workload at 2 000 loci, with the subquery
//! cache on and warm, so each class's mediator-side cost (plan, cache
//! hits, the semijoin, fusion) is measured apart from the others. Its
//! set-up asserts that pushdown on and off answer the same genes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use annoda_bench::workload;
use annoda_mediator::decompose::{AspectClause, Combination, GeneQuestion};
use annoda_mediator::OptimizerConfig;

fn bench_ablation(c: &mut Criterion) {
    let corpus = workload::corpus_of(300, 7);
    // The selective semijoin: few enough genes for the bind join.
    let question = GeneQuestion {
        symbol_like: Some("T%".into()),
        function: AspectClause::Require(None),
        disease: AspectClause::Exclude(None),
        ..GeneQuestion::default()
    };
    let default = OptimizerConfig::default();
    let configs = [
        ("default", default),
        (
            "bind_join_off",
            OptimizerConfig {
                bind_join: false,
                ..default
            },
        ),
        (
            "pushdown_off",
            OptimizerConfig {
                pushdown: false,
                ..default
            },
        ),
        (
            "selection_off",
            OptimizerConfig {
                source_selection: false,
                ..default
            },
        ),
        (
            "all_off",
            OptimizerConfig {
                pushdown: false,
                source_selection: false,
                bind_join: false,
            },
        ),
    ];
    let systems: Vec<_> = configs
        .iter()
        .map(|&(name, cfg)| {
            let mut annoda = workload::annoda_over(&corpus);
            annoda.registry_mut().mediator_mut().optimizer = cfg;
            (name, annoda)
        })
        .collect();

    let answers: Vec<_> = systems
        .iter()
        .map(|(_, annoda)| annoda.ask(&question).unwrap())
        .collect();
    assert!(!answers[0].fused.genes.is_empty(), "the question answers");
    for ((name, _), answer) in systems.iter().zip(&answers) {
        assert_eq!(
            answer.fused.genes, answers[0].fused.genes,
            "{name} changed the answer"
        );
    }
    assert!(
        answers[0].cost.records < answers[1].cost.records,
        "bound {} records, unbound {}",
        answers[0].cost.records,
        answers[1].cost.records
    );

    let mut group = c.benchmark_group("optimizer");
    group.sample_size(10);
    for (name, annoda) in &systems {
        group.bench_with_input(BenchmarkId::from_parameter(name), name, |b, _| {
            b.iter(|| {
                let ans = annoda.ask(&question).unwrap();
                black_box(ans.fused.genes.len())
            })
        });
    }
    group.finish();
}

/// One question per `uncached_asks` class (benchmark/src/streams.rs):
/// point lookup, selective semijoin, one-source filter, organism x GO
/// name pattern, and Figure 5b's negation.
fn ask_class_questions(symbol: &str) -> [(&'static str, GeneQuestion); 5] {
    let prefix = |n: usize| Some(format!("{}%", &symbol[..n]));
    let pattern = |p: &str| Some(p.to_string());
    [
        (
            "0_point_lookup",
            GeneQuestion {
                symbol_like: prefix(3),
                function: AspectClause::Require(None),
                ..GeneQuestion::default()
            },
        ),
        (
            "1_selective_semijoin",
            GeneQuestion {
                symbol_like: prefix(2),
                function: AspectClause::Require(pattern("%kinase%")),
                disease: AspectClause::Exclude(pattern("%SYNDROME%")),
                combine: Combination::Any,
                ..GeneQuestion::default()
            },
        ),
        (
            "2_one_source_filter",
            GeneQuestion {
                symbol_like: prefix(1),
                organism: Some("Mus musculus".into()),
                function: AspectClause::Require(pattern("%receptor%")),
                ..GeneQuestion::default()
            },
        ),
        (
            "3_organism_x_go_pattern",
            GeneQuestion {
                organism: Some("Homo sapiens".into()),
                function: AspectClause::Require(pattern("%kinase%")),
                ..GeneQuestion::default()
            },
        ),
        (
            "4_figure5b_negation",
            GeneQuestion {
                function: AspectClause::Require(pattern("%transporter%")),
                disease: AspectClause::Exclude(None),
                ..GeneQuestion::default()
            },
        ),
    ]
}

fn bench_ask_classes(c: &mut Criterion) {
    let corpus = workload::corpus_of(2000, 7);
    let symbol = corpus.locuslink.scan().next().expect("loci").symbol.clone();
    let over = |pushdown: bool| {
        let mut annoda = workload::annoda_over(&corpus);
        let mediator = annoda.registry_mut().mediator_mut();
        mediator.optimizer.pushdown = pushdown;
        mediator.enable_cache();
        annoda
    };
    let (annoda, unpushed) = (over(true), over(false));
    let questions = ask_class_questions(&symbol);
    for (name, question) in &questions {
        // Warms the subquery cache, and pins the answer: pushdown (and
        // with it the mediator's semijoin) changes cost, never which
        // genes answer. (Without pushdown a gene also keeps the names
        // of the functions a pattern did not match.)
        let symbols = |annoda: &annoda::Annoda| -> Vec<String> {
            let genes = annoda.ask(question).unwrap().fused.genes;
            genes.into_iter().map(|g| g.symbol).collect()
        };
        let answered = symbols(&annoda);
        assert!(!answered.is_empty(), "{name} answers");
        assert_eq!(
            answered,
            symbols(&unpushed),
            "pushdown changed the answer to {name}"
        );
    }

    let mut group = c.benchmark_group("ask_classes");
    group.sample_size(200);
    for (name, question) in &questions {
        group.bench_with_input(BenchmarkId::from_parameter(name), name, |b, _| {
            b.iter(|| {
                let ans = annoda.ask(question).unwrap();
                black_box(ans.fused.genes.len())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ablation, bench_ask_classes);
criterion_main!(benches);
