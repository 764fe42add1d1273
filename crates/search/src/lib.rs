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
//!   from the [`annoda_oem::TextDoc`]s wrappers harvest at
//!   ingest/refresh time, combined in a [`SearchIndex`].
//! * [`fusion`] — cross-source rank fusion with pluggable strategies
//!   ([`FusionStrategy::Weighted`] | [`FusionStrategy::Rrf`] |
//!   [`FusionStrategy::MaxScore`]); a locus scoring in all three
//!   sources outranks single-source hits, and ties always break the
//!   same way (coverage, then locus name).
//! * [`segment`] — persisted index segments through the
//!   `annoda-persist` codec (varint postings, crc32-framed), verified
//!   against a corpus fingerprint on load and rebuilt on any mismatch.
//! * [`naive`] — the index-free scan oracle the proptest suite and
//!   `tests/extensions.rs` hold the index to (recall 1.0, identical
//!   scores).
//!
//! The crate is deliberately storage-agnostic: it consumes
//! `(source name, Vec<TextDoc>)` pairs. Harvesting those from wrapper
//! OMLs lives in `annoda-wrap`; epoch-swapping a built index alongside
//! the served `GmlSnapshot` lives in `annoda`.

pub mod fusion;
pub mod index;
pub mod naive;
pub mod segment;
pub mod tokenizer;

pub use fusion::{fuse, FusionStrategy, RankedAnswer, RRF_K};
pub use index::{SearchIndex, SearchStats, SourceIndex};
pub use naive::naive_search;
pub use segment::{docs_fingerprint, load_segments, save_segments};
pub use tokenizer::{is_stopword, tokenize};
