//! # annoda-lorel — the Lorel query language over OEM
//!
//! Lorel is the query language ANNODA uses against both the global model
//! (ANNODA-GML) and, after decomposition, against per-source local models.
//! It is an SQL/OQL-flavoured select-from-where language designed for
//! semi-structured data: path expressions navigate the OEM graph,
//! comparisons coerce across atomic types, predicates over paths are
//! existentially quantified, and duplicate elimination is by oid.
//!
//! ```
//! use annoda_oem::OemStore;
//! use annoda_lorel::run_query;
//!
//! let mut db = OemStore::new();
//! let root = db.new_complex();
//! let g = db.add_complex_child(root, "Gene").unwrap();
//! db.add_atomic_child(g, "Symbol", "TP53").unwrap();
//! db.set_name("DB", root).unwrap();
//!
//! let out = run_query(&mut db, r#"select G.Symbol from DB.Gene G where G.Symbol = "TP53""#).unwrap();
//! assert_eq!(out.rows.len(), 1);
//! ```
//!
//! The paper's example (§4.1):
//!
//! ```text
//! select X from ANNODA-GML where Source.Name = "LocusLink"
//! ```
//!
//! is accepted in its canonical Lorel form
//! `select S from ANNODA-GML.Source S where S.Name = "LocusLink"` and
//! produces a *new* answer object (the paper's `&442`) whose references
//! point at the original database objects — see [`eval::QueryOutcome`].
//!
//! # Query planning
//!
//! Evaluation is split into a reference path and a planned path:
//!
//! * [`eval_rows_naive`] is the specification — a left-to-right
//!   nested-loop over the `from` clause with the whole `where` clause
//!   checked once per complete binding;
//! * [`eval_rows`] (and everything built on it: [`run_query`],
//!   [`run_query_snapshot_explained`], the wrappers' subquery path)
//!   first consults the [`plan`] module, which rewrites eligible
//!   queries into an index-backed plan and otherwise falls back to the
//!   naive loop.
//!
//! The planner applies three rewrites, all proven row-order preserving:
//!
//! 1. **Selection pushdown** — a conjunct `V.Attr = "literal"` with a
//!    non-numeric string literal over a root-anchored variable seeds
//!    `V`'s candidates from a store-cached
//!    [`annoda_oem::ValueIndex`] bucket instead of scanning; the
//!    conjunct is still re-verified as a residual predicate.
//! 2. **Filter-as-you-bind** — each top-level conjunct of the `where`
//!    clause runs at the shallowest binding depth where its range
//!    variables are bound, pruning doomed partial bindings before the
//!    remaining variables multiply them.
//! 3. **From-clause reordering** — binding order follows estimated
//!    candidate counts (index bucket sizes and cached path
//!    cardinalities from [`annoda_oem::OemStore::cached_cardinality`]),
//!    respecting head dependencies; the textual left-to-right row order
//!    is restored before returning.
//!
//! [`eval_rows_explained`] additionally returns a [`plan::PlanExplain`]
//! describing the chosen access path ([`plan::AccessPath::IndexSeek`]
//! vs [`plan::AccessPath::Scan`]), the binding order, and execution
//! probe counters — the hooks `bench_report` and the planner tests
//! assert against. Queries the planner cannot prove equivalent
//! (duplicate range-variable names, heads that resolve differently
//! under reordering, calls to unregistered functions whose error timing
//! the naive path defines) set `naive_fallback` and run the reference
//! loop; `proptest` oracles in `tests/` check planned ≡ naive on
//! arbitrary query/store pairs.

pub mod ast;
pub mod error;
pub mod eval;
pub mod lexer;
pub mod parser;
pub mod plan;

pub use ast::{CompOp, Cond, Expr, FromItem, OrderKey, Query, SelectItem};
pub use error::LorelError;
pub use eval::{
    eval_rows, eval_rows_explained, eval_rows_naive, project_row, row_passes, run_query,
    run_query_snapshot_explained, run_query_with, FunctionRegistry, LorelFn, Projected,
    QueryOutcome, Row,
};
pub use parser::parse;
pub use plan::{AccessPath, PlanExplain, PlanProbes};
