//! Byte identity of Lorel answers across changes to how they are
//! built. A sequence of queries runs in place, one after another, over
//! one materialised ANNODA-GML: each answer lands on top of the last,
//! so later queries range over earlier answers (`into Saved`, `answer`).
//! After each query the store's `encode_store` bytes, the rendered
//! answer and the row count must equal the digests recorded when answers
//! were still built by scanning for duplicate edges and replaying an op
//! log; the overlay over the shared store must render the same text.

use annoda_bench::workload;
use annoda_lorel::{run_query_snapshot_explained, run_query_with, FunctionRegistry};
use annoda_oem::{text as oem_text, Snapshot};
use annoda_persist::encode_store;
use annoda_sources::{Corpus, CorpusConfig};

const QUERIES: [&str; 14] = [
    "select G.Symbol, G.Symbol from ANNODA-GML.Gene G",
    r#"select G, G from ANNODA-GML.Gene G where G.Organism like "%sapiens%""#,
    r#"select "lit" as tag, 7 as n, G.Symbol from ANNODA-GML.Gene G where G.Symbol like "K%""#,
    "select count(G) from ANNODA-GML.Gene G, G.FunctionID F, G.DiseaseID D",
    "select G.Organism, count(G.Symbol), sum(G.LocusID) from ANNODA-GML.Gene G group by G.Organism",
    r#"select G into Saved from ANNODA-GML.Gene G where G.Symbol like "T%""#,
    r#"select S from ANNODA-GML.Source S where S.Name = "LocusLink""#,
    "select upper(G.Symbol) as u, G.Organism, G.Organism from ANNODA-GML.Gene G",
    "select F, D from ANNODA-GML.Gene G, G.FunctionID F, G.DiseaseID D",
    "select G.Symbol, count(G.FunctionID) as Symbol from ANNODA-GML.Gene G",
    "select G, G.Symbol, count(G.FunctionID) from ANNODA-GML.Gene G group by G.Organism",
    "select X from ANNODA-GML.#.Name X",
    "select X.G from Saved X",
    "select A into answer from answer.G A",
];

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// Per query: FNV-1a of `encode_store` after it ran in place, FNV-1a
/// of the rendered answer, and the row count.
const DIGESTS: [(u64, u64, usize); 14] = [
    (0x8d214e606b862bc5, 0x29d9c7a6f93c2261, 30),
    (0xf6675ae7adc5cd88, 0x045bd5faa125d44a, 21),
    (0x7cce67b60e952714, 0x498fa516cfa9d3db, 2),
    (0x1f00a06b14fd6513, 0xf8f25c1939675dfe, 32),
    (0x5f59fea4357d05c2, 0x599f7ead29e74db5, 30),
    (0x45ab949f3be73a47, 0xfb3d6f0e9671e8af, 2),
    (0x8afeadf7cd9cdb13, 0x9807b288e961d971, 1),
    (0xb527969a7d15844a, 0xad9a88d44d6b40e6, 30),
    (0x3b5b5e94fc8b88fc, 0x1f07696eeaa13781, 32),
    (0x9db04b7cc14dd695, 0xcf1513dc8982c389, 30),
    (0xaa86f6e80f26cebc, 0x59e4b4b2cd796b1d, 30),
    (0x51b6e3358417e39d, 0xab291e8684701efb, 44),
    (0x138913c63a4ade2e, 0xb4f6a24a23d6fe77, 1),
    (0x7fce20297b0740ee, 0xde374d3a798af60a, 2),
];

#[test]
fn in_place_answers_encode_to_the_recorded_bytes() {
    let c = Corpus::generate(CorpusConfig::tiny(42));
    let a = workload::annoda_four_sources(&c);
    let (mut gml, _, _) = a
        .lorel("select count(GML.Gene) from ANNODA-GML GML")
        .unwrap();
    let functions = FunctionRegistry::standard();
    for (q, &(store_digest, text_digest, rows)) in QUERIES.iter().zip(&DIGESTS) {
        let (overlay, shared, _) = run_query_snapshot_explained(&gml, q, functions).unwrap();
        let view = Snapshot::new(&gml, overlay).unwrap();
        let shared_text = oem_text::write_rooted(&view, "answer", shared.answer);
        let out = run_query_with(&mut gml, q, functions).unwrap();
        let text = oem_text::write_rooted(&gml, "answer", out.answer);
        assert_eq!(text, shared_text, "overlay and in-place renders of `{q}`");
        assert_eq!(
            (
                fnv(&encode_store(&gml)),
                fnv(text.as_bytes()),
                out.rows.len()
            ),
            (store_digest, text_digest, rows),
            "bytes after `{q}`"
        );
    }
}
