//! The BM25 inverted index: per-source posting lists with document
//! lengths and term frequencies.
//!
//! Layout mirrors the classic IR design, one [`SourceIndex`] per
//! annotation source:
//!
//! ```text
//! SourceIndex("GO")
//!   docs:      [Doc { key: "GO:0000001", text, loci, len }, …]
//!   postings:  "repair" → [(doc 3, tf 2), (doc 17, tf 1), …]   (doc ids ascending)
//!   avg_len:   mean token count over all docs
//! ```
//!
//! Queries score with BM25 (`k1 = 1.2`, `b = 0.75`), aggregate doc
//! scores to *loci* (a locus's score in a source is its best-scoring
//! document there), and hand the per-source rankings to
//! [`crate::fusion::fuse`]. Every step is deterministic: posting lists
//! are doc-id ordered, per-doc sums accumulate in query-term order,
//! and locus aggregation resolves ties toward the earlier document.
//!
//! An index is built in memory from a harvest and never persisted: it
//! records the [`docs_fingerprint`] of that harvest, so its owner can
//! tell whether a fresh harvest still matches it or needs a rebuild.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use annoda_oem::TextDoc;
use annoda_persist::{crc32, write_string, write_varint};

use crate::fusion::{fuse, FusionStrategy, RankedAnswer};
use crate::tokenizer::tokenize;

/// BM25 term-frequency saturation constant.
pub const BM25_K1: f64 = 1.2;
/// BM25 length-normalization constant.
pub const BM25_B: f64 = 0.75;
/// Maximum snippet length in characters.
const SNIPPET_CHARS: usize = 110;

/// The (non-negative) BM25 inverse document frequency of a term with
/// document frequency `df` in a collection of `n_docs` documents.
pub fn idf(n_docs: usize, df: usize) -> f64 {
    (1.0 + (n_docs as f64 - df as f64 + 0.5) / (df as f64 + 0.5)).ln()
}

/// One term's BM25 contribution to one document's score.
pub fn bm25_term(idf: f64, tf: u32, doc_len: u32, avg_len: f64) -> f64 {
    let tf = tf as f64;
    idf * (tf * (BM25_K1 + 1.0))
        / (tf + BM25_K1 * (1.0 - BM25_B + BM25_B * doc_len as f64 / avg_len))
}

/// A snippet: the head of a document's text, cut at a char boundary.
pub fn snippet_of(text: &str) -> String {
    if text.chars().count() <= SNIPPET_CHARS {
        return text.to_string();
    }
    let mut s: String = text.chars().take(SNIPPET_CHARS).collect();
    s.push('…');
    s
}

/// crc32 fingerprint of a harvested corpus, canonicalized by source
/// name so wrapper registration order does not matter. Document order
/// within a source *does* matter (it breaks score ties) and is
/// fingerprinted as-is.
pub fn docs_fingerprint(sources: &[(String, Vec<TextDoc>)]) -> u32 {
    let mut ordered: Vec<&(String, Vec<TextDoc>)> = sources.iter().collect();
    ordered.sort_by(|a, b| a.0.cmp(&b.0));
    let mut buf = Vec::new();
    for (name, docs) in ordered {
        write_string(&mut buf, name);
        write_varint(&mut buf, docs.len() as u64);
        for doc in docs {
            write_string(&mut buf, &doc.key);
            write_string(&mut buf, &doc.text);
            write_varint(&mut buf, doc.loci.len() as u64);
            for locus in &doc.loci {
                write_string(&mut buf, locus);
            }
        }
    }
    crc32(&buf)
}

/// One indexed document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Doc {
    /// Stable per-source key (GO accession, MIM number, PMID).
    pub key: String,
    /// Original text, kept for snippets.
    pub text: String,
    /// Loci the document annotates.
    pub loci: Vec<String>,
    /// Token count (post-stopword), the BM25 document length.
    pub len: u32,
}

/// The inverted index of one annotation source.
#[derive(Debug, Clone)]
pub struct SourceIndex {
    /// Source (wrapper) name.
    pub source: String,
    pub(crate) docs: Vec<Doc>,
    /// term → posting list `(doc_id, tf)`, doc ids ascending.
    pub(crate) postings: HashMap<String, Vec<(u32, u32)>>,
    pub(crate) avg_len: f64,
}

impl SourceIndex {
    /// Tokenizes and indexes `docs` under source name `source`.
    pub fn build(source: &str, docs: &[TextDoc]) -> SourceIndex {
        let mut indexed = Vec::with_capacity(docs.len());
        let mut postings: HashMap<String, Vec<(u32, u32)>> = HashMap::new();
        for (doc_id, doc) in docs.iter().enumerate() {
            let tokens = tokenize(&doc.text);
            let mut tf: HashMap<&str, u32> = HashMap::new();
            for t in &tokens {
                *tf.entry(t).or_insert(0) += 1;
            }
            // Sorted term order keeps posting construction canonical.
            let mut terms: Vec<(&str, u32)> = tf.into_iter().collect();
            terms.sort_by(|a, b| a.0.cmp(b.0));
            for (term, tf) in terms {
                postings
                    .entry(term.to_string())
                    .or_default()
                    .push((doc_id as u32, tf));
            }
            indexed.push(Doc {
                key: doc.key.clone(),
                text: doc.text.clone(),
                loci: doc.loci.clone(),
                len: tokens.len() as u32,
            });
        }
        let avg_len = if indexed.is_empty() {
            0.0
        } else {
            indexed.iter().map(|d| d.len as u64).sum::<u64>() as f64 / indexed.len() as f64
        };
        SourceIndex {
            source: source.to_string(),
            docs: indexed,
            postings,
            avg_len,
        }
    }

    /// Number of indexed documents.
    pub fn doc_count(&self) -> usize {
        self.docs.len()
    }

    /// Number of distinct terms.
    pub fn term_count(&self) -> usize {
        self.postings.len()
    }

    /// Total posting entries.
    pub fn posting_count(&self) -> usize {
        self.postings.values().map(Vec::len).sum()
    }

    /// BM25-scores every document matching any query term. Returns
    /// `(doc_id, score)` with doc ids ascending; documents matching no
    /// term are absent. Per-doc sums accumulate in query-term order, so
    /// equal inputs produce bit-identical floats.
    pub fn score_docs(&self, terms: &[String]) -> Vec<(u32, f64)> {
        let n = self.docs.len();
        let mut scores: HashMap<u32, f64> = HashMap::new();
        for term in terms {
            let Some(list) = self.postings.get(term) else {
                continue;
            };
            let idf = idf(n, list.len());
            for &(doc_id, tf) in list {
                let len = self.docs[doc_id as usize].len;
                *scores.entry(doc_id).or_insert(0.0) += bm25_term(idf, tf, len, self.avg_len);
            }
        }
        let mut out: Vec<(u32, f64)> = scores.into_iter().collect();
        out.sort_by_key(|&(doc_id, _)| doc_id);
        out
    }

    /// Aggregates document scores to loci: a locus's score is its
    /// best-scoring document (ties keep the earlier document, whose
    /// snippet is served). Returns `(locus, score, snippet)` sorted by
    /// locus — [`fuse`] recomputes ranks.
    pub fn hits(&self, terms: &[String]) -> Vec<(String, f64, String)> {
        aggregate_to_loci(&self.score_docs(terms), &self.docs)
    }
}

/// The locus aggregation shared by the index and the naive oracle.
pub(crate) fn aggregate_to_loci(scored: &[(u32, f64)], docs: &[Doc]) -> Vec<(String, f64, String)> {
    let mut best: HashMap<&str, (f64, u32)> = HashMap::new();
    for &(doc_id, score) in scored {
        for locus in &docs[doc_id as usize].loci {
            let entry = best.entry(locus).or_insert((score, doc_id));
            if score > entry.0 {
                *entry = (score, doc_id);
            }
        }
    }
    let mut out: Vec<(String, f64, String)> = best
        .into_iter()
        .map(|(locus, (score, doc_id))| {
            (
                locus.to_string(),
                score,
                snippet_of(&docs[doc_id as usize].text),
            )
        })
        .collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// Size and build-cost counters for `/metrics`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SearchStats {
    /// Indexed sources.
    pub sources: usize,
    /// Total indexed documents.
    pub docs: usize,
    /// Distinct terms summed over sources.
    pub terms: usize,
    /// Total posting entries.
    pub postings: usize,
    /// Wall-clock microseconds the build took.
    pub build_us: u64,
}

/// The full cross-source search index: one [`SourceIndex`] per text-
/// bearing source, plus counters and the fingerprint of the corpus it
/// was built from.
#[derive(Debug, Clone)]
pub struct SearchIndex {
    pub(crate) sources: Vec<Arc<SourceIndex>>,
    pub(crate) stats: SearchStats,
    pub(crate) fingerprint: u32,
}

impl SearchIndex {
    /// Builds the index over `(source name, documents)` pairs. Sources
    /// without documents are skipped; source order is canonicalized by
    /// name (fusion is order-invariant).
    pub fn build(sources: &[(String, Vec<TextDoc>)]) -> SearchIndex {
        let start = Instant::now();
        let fingerprint = docs_fingerprint(sources);
        let mut built: Vec<Arc<SourceIndex>> = sources
            .iter()
            .filter(|(_, docs)| !docs.is_empty())
            .map(|(name, docs)| Arc::new(SourceIndex::build(name, docs)))
            .collect();
        built.sort_by(|a, b| a.source.cmp(&b.source));
        let mut index = SearchIndex {
            sources: built,
            stats: SearchStats::default(),
            fingerprint,
        };
        index.stats = index.recount(start.elapsed().as_micros() as u64);
        index
    }

    /// Clones the index with exactly one source's documents replaced:
    /// the named source is re-tokenized and re-indexed, every other
    /// [`SourceIndex`] is shared by `Arc`. `fingerprint` must be the
    /// fingerprint of the *full* post-update harvest. Empty `docs` drops
    /// the source; an unknown name inserts it in name order.
    ///
    /// The served system never calls this — it rebuilds with
    /// [`SearchIndex::build`] — and the function stays only because the
    /// benchmark harness's traced replay prices it as
    /// `search.incremental_update_ms`.
    pub fn with_source_updated(
        &self,
        name: &str,
        docs: &[TextDoc],
        fingerprint: u32,
    ) -> SearchIndex {
        let start = Instant::now();
        let mut sources: Vec<Arc<SourceIndex>> = self
            .sources
            .iter()
            .filter(|s| s.source != name)
            .cloned()
            .collect();
        if !docs.is_empty() {
            let pos = sources
                .binary_search_by(|s| s.source.as_str().cmp(name))
                .unwrap_or_else(|i| i);
            sources.insert(pos, Arc::new(SourceIndex::build(name, docs)));
        }
        let mut index = SearchIndex {
            sources,
            stats: SearchStats::default(),
            fingerprint,
        };
        index.stats = index.recount(start.elapsed().as_micros() as u64);
        index
    }

    fn recount(&self, build_us: u64) -> SearchStats {
        SearchStats {
            sources: self.sources.len(),
            docs: self.sources.iter().map(|s| s.doc_count()).sum(),
            terms: self.sources.iter().map(|s| s.term_count()).sum(),
            postings: self.sources.iter().map(|s| s.posting_count()).sum(),
            build_us,
        }
    }

    /// Size/build counters.
    pub fn stats(&self) -> SearchStats {
        self.stats
    }

    /// [`docs_fingerprint`] of the harvested corpus this index was
    /// built from.
    pub fn fingerprint(&self) -> u32 {
        self.fingerprint
    }

    /// The per-source indexes, name order.
    pub fn sources(&self) -> impl Iterator<Item = &SourceIndex> {
        self.sources.iter().map(Arc::as_ref)
    }

    /// Runs a ranked query: tokenizes, BM25-scores each source,
    /// aggregates to loci, fuses under `strategy`, returns the top `k`.
    pub fn search(&self, query: &str, k: usize, strategy: FusionStrategy) -> Vec<RankedAnswer> {
        let terms = tokenize(query);
        let mut rankings = std::collections::BTreeMap::new();
        for source in &self.sources {
            let hits = source.hits(&terms);
            if !hits.is_empty() {
                rankings.insert(source.source.clone(), hits);
            }
        }
        fuse(&rankings, strategy, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(key: &str, text: &str, loci: &[&str]) -> TextDoc {
        TextDoc {
            key: key.into(),
            text: text.into(),
            loci: loci.iter().map(|s| s.to_string()).collect(),
        }
    }

    fn tiny_index() -> SearchIndex {
        SearchIndex::build(&[
            (
                "GO".to_string(),
                vec![
                    doc("GO:1", "DNA repair and damage response", &["BRCA1", "TP53"]),
                    doc("GO:2", "apoptosis regulation", &["TP53"]),
                    doc("GO:3", "cell cycle checkpoint", &["CDK2"]),
                ],
            ),
            (
                "OMIM".to_string(),
                vec![doc("100", "a disorder involving DNA repair", &["BRCA1"])],
            ),
        ])
    }

    #[test]
    fn scores_and_ranks_matching_loci() {
        let idx = tiny_index();
        let top = idx.search("DNA repair", 10, FusionStrategy::Weighted);
        assert_eq!(top[0].locus, "BRCA1", "two-source locus wins");
        assert_eq!(top[0].per_source_scores.len(), 2);
        assert!(top.iter().all(|a| a.locus != "CDK2"));
    }

    #[test]
    fn zero_hit_query_is_empty() {
        let idx = tiny_index();
        assert!(idx
            .search("mitochondrion", 10, FusionStrategy::Rrf)
            .is_empty());
        // Stopword-only queries match nothing.
        assert!(idx.search("the of and", 10, FusionStrategy::Rrf).is_empty());
    }

    #[test]
    fn stats_count_terms_and_postings() {
        let idx = tiny_index();
        let stats = idx.stats();
        assert_eq!(stats.sources, 2);
        assert_eq!(stats.docs, 4);
        assert!(stats.terms > 0);
        assert!(stats.postings >= stats.terms);
    }

    #[test]
    fn search_is_deterministic() {
        let idx = tiny_index();
        let a = idx.search("repair apoptosis", 10, FusionStrategy::Rrf);
        let b = idx.search("repair apoptosis", 10, FusionStrategy::Rrf);
        assert_eq!(a, b);
    }

    #[test]
    fn incremental_source_update_matches_full_rebuild() {
        let idx = tiny_index();
        let updated_omim = vec![
            doc("100", "a disorder involving DNA repair", &["BRCA1"]),
            doc("200", "revised apoptosis phenotype", &["TP53"]),
        ];
        let full_sources = vec![
            (
                "GO".to_string(),
                vec![
                    doc("GO:1", "DNA repair and damage response", &["BRCA1", "TP53"]),
                    doc("GO:2", "apoptosis regulation", &["TP53"]),
                    doc("GO:3", "cell cycle checkpoint", &["CDK2"]),
                ],
            ),
            ("OMIM".to_string(), updated_omim.clone()),
        ];
        let full = SearchIndex::build(&full_sources);
        let incr = idx.with_source_updated("OMIM", &updated_omim, full.fingerprint());
        assert_eq!(incr.fingerprint(), full.fingerprint());
        for q in ["DNA repair", "apoptosis", "checkpoint"] {
            assert_eq!(
                incr.search(q, 10, FusionStrategy::Weighted),
                full.search(q, 10, FusionStrategy::Weighted),
                "query {q} must be identical"
            );
        }
        let (a, b) = (incr.stats(), full.stats());
        assert_eq!(
            (a.sources, a.docs, a.terms, a.postings),
            (b.sources, b.docs, b.terms, b.postings)
        );
        // The untouched source is shared, not copied.
        assert!(Arc::ptr_eq(&idx.sources[0], &incr.sources[0]));
        // Emptying a source drops it; updating an unknown one inserts.
        let dropped = idx.with_source_updated("OMIM", &[], 0);
        assert_eq!(dropped.stats().sources, 1);
        let inserted =
            idx.with_source_updated("PubMed", &[doc("1", "linkage study", &["CDK2"])], 0);
        let names: Vec<&str> = inserted.sources().map(|s| s.source.as_str()).collect();
        assert_eq!(names, vec!["GO", "OMIM", "PubMed"]);
    }

    #[test]
    fn fingerprint_is_source_order_invariant_but_doc_order_sensitive() {
        let mut sources = vec![
            (
                "GO".to_string(),
                vec![
                    doc("GO:1", "DNA repair", &["BRCA1"]),
                    doc("GO:2", "apoptosis", &["TP53"]),
                ],
            ),
            (
                "OMIM".to_string(),
                vec![doc("100", "a disorder", &["BRCA1"])],
            ),
        ];
        let fp = docs_fingerprint(&sources);
        assert_eq!(SearchIndex::build(&sources).fingerprint(), fp);
        sources.swap(0, 1);
        assert_eq!(docs_fingerprint(&sources), fp);
        sources[1].1.reverse();
        assert_ne!(docs_fingerprint(&sources), fp);
    }

    #[test]
    fn empty_sources_are_skipped() {
        let idx = SearchIndex::build(&[("LocusLink".to_string(), vec![])]);
        assert_eq!(idx.stats().sources, 0);
        assert!(idx
            .search("anything", 5, FusionStrategy::Weighted)
            .is_empty());
    }
}
