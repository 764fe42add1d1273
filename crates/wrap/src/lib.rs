//! # annoda-wrap — wrappers from native sources to ANNODA-OML
//!
//! A *wrapper* turns one native annotation database into an ANNODA-OML
//! local model: an OEM store whose named root is the source name and whose
//! labelled structure mirrors the source's own vocabulary. Figure 1 of the
//! paper places one wrapper under the mediator per participating source
//! (LocusLink, GO, OMIM).
//!
//! Each wrapper also publishes a [`SourceDescription`] — the "annotation
//! database description" box of Figure 1 — carrying capabilities and a
//! simulated latency model, and answers Lorel subqueries over its local
//! model, accounting the simulated cost in a [`Cost`] meter.
//!
//! Deliberately, the three OMLs use *different label vocabularies*
//! (`Symbol` vs `Gene` vs `GeneSymbol`, `LocusID` vs `Accession` vs
//! `MimNumber`): bridging that heterogeneity is the mapping module's job.

pub mod cost;
pub mod custom;
pub mod descr;
pub mod flaky;
pub mod go;
pub mod locuslink;
pub mod mutate;
pub mod omim;
pub mod pubmed;
pub mod wrapper;

pub use cost::{Cost, LatencyModel};
pub use custom::CustomWrapper;
pub use descr::{Capabilities, SourceDescription};
pub use flaky::{DelayMode, FailureMode, FlakyWrapper};
pub use go::GoWrapper;
pub use locuslink::{locus_flat, LocusLinkWrapper};
pub use mutate::scripted_mutation;
pub use omim::{omim_flat, OmimWrapper};
pub use pubmed::PubmedWrapper;
pub use wrapper::{SubqueryResult, WrapError, Wrapper};
