//! # annoda-search — ranked full-text search over annotation text
//!
//! The ANNODA paper's Figure 5 interface answers *structured*
//! require/exclude questions over source membership; it cannot answer
//! "which loci are about **DNA repair**?" even though GO definitions,
//! OMIM disease text, and PubMed titles all sit in the OEM stores as
//! free text. This crate adds that workload:
//!
//! * [`tokenizer`] — a deterministic lowercase/alnum tokenizer with
//!   compound-symbol handling (`BRCA-1` ≡ `BRCA1`), Greek-letter
//!   expansion (`TGF-β` ≡ `TGF-beta`), and a small biology-aware
//!   stopword list. Pinned by a golden test: index keys are stable
//!   across rebuilds.
//! * [`index`] — per-source BM25 inverted indexes ([`SourceIndex`]:
//!   posting lists with term frequencies and document lengths) built
//!   from the [`annoda_oem::TextDoc`]s wrappers harvest, combined in a
//!   [`SearchIndex`] that carries the [`docs_fingerprint`] of its
//!   corpus.
//! * [`fusion`] — cross-source rank fusion with pluggable strategies
//!   ([`FusionStrategy::Weighted`] | [`FusionStrategy::Rrf`] |
//!   [`FusionStrategy::MaxScore`]); a locus scoring in all three
//!   sources outranks single-source hits, and ties always break the
//!   same way (coverage, then locus name).
//! * [`naive`] — the index-free scan oracle the proptest suite and
//!   `tests/extensions.rs` hold the index to (recall 1.0, identical
//!   scores).
//!
//! The crate is deliberately storage-agnostic: it consumes
//! `(source name, Vec<TextDoc>)` pairs and keeps nothing on disk.
//! Harvesting those from wrapper OMLs lives in `annoda-wrap`; building
//! an index per served snapshot, and reusing it while the corpus
//! fingerprint is unchanged, lives in `annoda`.

pub mod fusion;
pub mod index;
pub mod naive;
pub mod tokenizer;

pub use fusion::{fuse, FusionStrategy, RankedAnswer, RRF_K};
pub use index::{docs_fingerprint, SearchIndex, SearchStats, SourceIndex};
pub use naive::naive_search;
pub use tokenizer::{is_stopword, tokenize};
