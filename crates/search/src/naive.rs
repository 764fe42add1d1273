//! The naive scan oracle.
//!
//! An independent, index-free implementation of the same ranked
//! search: every query re-tokenizes **every document** in the corpus,
//! counts term frequencies by scanning, and computes the identical
//! BM25 quantities in the identical order. It exists for correctness:
//! the proptest suite asserts the indexed top-k equals this oracle's
//! top-k exactly (recall 1.0, scores bit-identical).
//!
//! Keep it boring. Any cleverness here weakens the oracle.

use annoda_oem::TextDoc;

use crate::fusion::{fuse, FusionStrategy, RankedAnswer};
use crate::index::{aggregate_to_loci, bm25_term, idf, Doc};
use crate::tokenizer::tokenize;

/// Ranked search by full scan, no index. Same results as
/// [`crate::SearchIndex::search`] over the same `(source, docs)` pairs.
pub fn naive_search(
    sources: &[(String, Vec<TextDoc>)],
    query: &str,
    k: usize,
    strategy: FusionStrategy,
) -> Vec<RankedAnswer> {
    let terms = tokenize(query);
    let mut rankings = std::collections::BTreeMap::new();
    for (source, docs) in sources {
        if docs.is_empty() {
            continue;
        }
        // The scan: tokenize the whole source per query.
        let tokenized: Vec<Vec<String>> = docs.iter().map(|d| tokenize(&d.text)).collect();
        let n = docs.len();
        let avg_len = tokenized.iter().map(|t| t.len() as u64).sum::<u64>() as f64 / n as f64;
        let scan_docs: Vec<Doc> = docs
            .iter()
            .zip(&tokenized)
            .map(|(d, toks)| Doc {
                key: d.key.clone(),
                text: d.text.clone(),
                loci: d.loci.clone(),
                len: toks.len() as u32,
            })
            .collect();
        // Document frequency per query term, by scanning.
        let dfs: Vec<usize> = terms
            .iter()
            .map(|term| tokenized.iter().filter(|toks| toks.contains(term)).count())
            .collect();
        // Score every document, summing in query-term order — the same
        // accumulation order the index uses.
        let mut scored: Vec<(u32, f64)> = Vec::new();
        for (doc_id, toks) in tokenized.iter().enumerate() {
            let mut score = 0.0;
            let mut matched = false;
            for (term, &df) in terms.iter().zip(&dfs) {
                let tf = toks.iter().filter(|t| *t == term).count() as u32;
                if tf > 0 {
                    matched = true;
                    score += bm25_term(idf(n, df), tf, toks.len() as u32, avg_len);
                }
            }
            if matched {
                scored.push((doc_id as u32, score));
            }
        }
        let hits = aggregate_to_loci(&scored, &scan_docs);
        if !hits.is_empty() {
            rankings.insert(source.clone(), hits);
        }
    }
    fuse(&rankings, strategy, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::SearchIndex;

    fn corpus() -> Vec<(String, Vec<TextDoc>)> {
        vec![
            (
                "GO".to_string(),
                vec![
                    TextDoc {
                        key: "GO:1".into(),
                        text: "DNA repair and damage response".into(),
                        loci: vec!["BRCA1".into(), "TP53".into()],
                    },
                    TextDoc {
                        key: "GO:2".into(),
                        text: "apoptosis regulation via DNA binding".into(),
                        loci: vec!["TP53".into()],
                    },
                ],
            ),
            (
                "OMIM".to_string(),
                vec![TextDoc {
                    key: "100".into(),
                    text: "a disorder involving DNA repair".into(),
                    loci: vec!["BRCA1".into()],
                }],
            ),
        ]
    }

    #[test]
    fn oracle_agrees_with_index_exactly() {
        let sources = corpus();
        let idx = SearchIndex::build(&sources);
        for strategy in FusionStrategy::all() {
            for q in ["DNA repair", "apoptosis", "damage response", "nothing"] {
                assert_eq!(
                    idx.search(q, 10, strategy),
                    naive_search(&sources, q, 10, strategy),
                    "query {q:?} strategy {}",
                    strategy.name()
                );
            }
        }
    }
}
