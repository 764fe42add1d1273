//! B5 — optimizer ablation: the wall-time effect of the bind join,
//! predicate pushdown and source selection on the mediator's question
//! path, each switched off alone from the default (all on). The
//! simulated cost table lives in `cargo run --bin bench_report`; real
//! wall time shows the same ordering because less data is shipped and
//! joined. Set-up asserts what B5 claims before anything is timed: every
//! configuration returns the same integrated genes, and the default
//! ships fewer records than the same plan without the bind join.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use annoda_bench::workload;
use annoda_mediator::decompose::{AspectClause, GeneQuestion};
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

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
