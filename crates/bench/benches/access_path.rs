//! Access-path comparison: the Lorel planner's index seek (a value index
//! memoised on the OML) vs the naive scan of the same query. The
//! navigator's object views issue the GO point lookup; the mediator's
//! bind join issues the 64-key GO disjunction, its gene leg the
//! LocusLink `Symbol like "ABC%"` prefix, and its disease fill-in the
//! OMIM `MimNumber = "<id>"` disjunction over integer-spelled keys.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use annoda_bench::workload;
use annoda_lorel::{eval_rows_explained, eval_rows_naive, parse};
use annoda_wrap::{GoWrapper, LocusLinkWrapper, OmimWrapper, Wrapper};

fn bench_access_paths(c: &mut Criterion) {
    let corpus = workload::corpus_of(2000, 7);
    let go = GoWrapper::new(corpus.go.clone());
    let locuslink = LocusLinkWrapper::new(corpus.locuslink.clone());
    let omim = OmimWrapper::new(corpus.omim.clone());
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
    let prefix: String = corpus
        .locuslink
        .scan()
        .next()
        .expect("the corpus has loci")
        .symbol
        .chars()
        .take(3)
        .collect();
    let mims = corpus
        .omim
        .scan()
        .step_by(50)
        .take(4)
        .map(|e| format!(r#"X.MimNumber = "{}""#, e.mim_number))
        .collect::<Vec<_>>()
        .join(" or ");
    let cases = [
        (
            "point_lookup_annotation_by_gene",
            go.oml(),
            format!(
                r#"select A.Accession, A.EvidenceCode from GO.Annotation A where A.Gene = "{}""#,
                symbols[0]
            ),
        ),
        (
            "bind_join_64_keys",
            go.oml(),
            format!("select A.Accession, A.EvidenceCode from GO.Annotation A where ({bound})"),
        ),
        (
            "gene_leg_symbol_prefix",
            locuslink.oml(),
            format!(
                "select X.Description as Description, X.LocusID as GeneID, \
                 X.Organism as Organism, X.Position as Position, X.Symbol as Symbol, \
                 X.Url as Link, X.GOID as FunctionID, X.MIM as DiseaseID \
                 from LocusLink.Locus X where X.Symbol like \"{prefix}%\""
            ),
        ),
        (
            "disease_fill_in_mim_numbers",
            omim.oml(),
            format!(
                "select X.GeneSymbol as Symbol, X.Inheritance as Inheritance, \
                 X.Title as Name, X.Url as Link, X.MimNumber as DiseaseID \
                 from OMIM.Entry X where ({mims})"
            ),
        ),
    ];

    for (name, oml, text) in cases {
        let query = parse(&text).expect("bench query parses");
        let (seeked, explain) = eval_rows_explained(oml, &query).unwrap();
        assert!(explain.index_backed(), "{name} must seek");
        assert!(!seeked.is_empty(), "{name} must find rows");
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
