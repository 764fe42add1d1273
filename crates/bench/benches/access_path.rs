//! Access-path comparison on the GO OML: the Lorel planner's index seek
//! (a value index memoised on the OML) vs the naive scan of the same
//! query. The navigator's object views issue the point lookup; the
//! mediator's bind join issues the 64-key disjunction.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use annoda_bench::workload;
use annoda_lorel::{eval_rows_explained, eval_rows_naive, parse};
use annoda_wrap::{GoWrapper, Wrapper};

fn bench_access_paths(c: &mut Criterion) {
    let corpus = workload::corpus_of(2000, 7);
    let go = GoWrapper::new(corpus.go.clone());
    let oml = go.oml();
    let mut symbols: Vec<String> = corpus
        .go
        .annotations()
        .map(|a| a.gene_symbol.clone())
        .collect();
    symbols.sort();
    symbols.dedup();
    let bound = symbols
        .iter()
        .take(64)
        .map(|s| format!(r#"A.Gene = "{s}""#))
        .collect::<Vec<_>>()
        .join(" or ");
    let cases = [
        (
            "point_lookup_annotation_by_gene",
            format!(
                r#"select A.Accession, A.EvidenceCode from GO.Annotation A where A.Gene = "{}""#,
                symbols[0]
            ),
        ),
        (
            "bind_join_64_keys",
            format!("select A.Accession, A.EvidenceCode from GO.Annotation A where ({bound})"),
        ),
    ];

    for (name, text) in cases {
        let query = parse(&text).expect("bench query parses");
        let (seeked, explain) = eval_rows_explained(oml, &query).unwrap();
        assert!(explain.index_backed(), "{name} must seek");
        assert_eq!(seeked, eval_rows_naive(oml, &query).unwrap());
        let mut group = c.benchmark_group(name);
        group.bench_with_input(BenchmarkId::from_parameter("seek"), &query, |b, q| {
            b.iter(|| black_box(eval_rows_explained(oml, q).unwrap().0.len()))
        });
        group.bench_with_input(BenchmarkId::from_parameter("scan"), &query, |b, q| {
            b.iter(|| black_box(eval_rows_naive(oml, q).unwrap().len()))
        });
        group.finish();
    }
}

criterion_group!(benches, bench_access_paths);
criterion_main!(benches);
