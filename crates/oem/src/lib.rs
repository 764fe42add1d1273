//! # annoda-oem — the Object Exchange Model
//!
//! The Object Exchange Model (OEM) is the semi-structured data model ANNODA
//! uses to express both the per-source local models (ANNODA-OML) and the
//! federated global model (ANNODA-GML). Data in OEM is a rooted, labelled
//! graph:
//!
//! * every entity is an **object** with a unique object identifier
//!   ([`Oid`]);
//! * **atomic** objects carry a value from one of the disjoint basic atomic
//!   types (integer, real, string, boolean, URL, GIF) — the value-type
//!   extension the ANNODA paper adds to plain OEM;
//! * **complex** objects hold a set of *object references*, denoted as
//!   `(label, oid, type)` triples ([`Edge`]).
//!
//! The crate provides:
//!
//! * [`OemStore`] — an arena-backed graph store with named roots and an
//!   interned label table;
//! * [`text`] — the indented textual notation of Figure 3 of the paper
//!   (`label  &oid  type  value`), both writer and reader;
//! * [`path`] — Lorel-style path expressions (label sequences, `%` single
//!   wildcard, `#` arbitrary-path wildcard) evaluated against a store;
//! * [`dataguide`] — DataGuide structural summaries, from which wrappers
//!   extract the label-path schema the MDSM matcher consumes;
//! * [`graph`] — reachability, garbage collection, structural equality and
//!   cross-store fragment import (the primitive result fusion builds on).

mod cache;
pub mod dataguide;
pub mod error;
pub mod graph;
pub mod harvest;
pub mod index;
pub mod label;
pub mod object;
pub mod oid;
pub mod overlay;
pub mod path;
pub mod shard;
pub mod stats;
pub mod store;
pub mod text;
pub mod value;

pub use error::{IoFailure, OemError};
pub use graph::{diff, diff_structured, DiffEntry, DiffOp, PathSeg, StructuredDiff};
pub use harvest::{atomic_text, DocSpec, HarvestText, TextDoc};
pub use index::ValueIndex;
pub use label::{Label, LabelInterner};
pub use object::{Edge, Object, ObjectKind};
pub use oid::Oid;
pub use overlay::{AnswerOverlay, OemRead, Snapshot};
pub use path::{PathExpr, PathStep};
pub use shard::{fragment_key, mask_stamp, shard_mask, ShardRouter, ShardedStore, MAX_SHARDS};
pub use stats::AttributeStats;
pub use store::{store_clone_count, OemStore};
pub use value::{AtomicType, AtomicValue, OemType};
