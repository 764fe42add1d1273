//! # annoda — the ANNODA system façade
//!
//! ANNODA integrates molecular-biological annotation data behind a single
//! access point. This crate assembles the substrates into the tool the
//! paper demonstrates:
//!
//! * [`registry`] — the plug-in procedure for participating sources: wrap
//!   a native database, match its OML against the global model with MDSM,
//!   install the mapping rules, and create the mediator interface — "a
//!   new annotation data source should be plugged in as it comes into
//!   existence";
//! * [`question`] — the biological-question interface of Figure 5a: users
//!   select sources to include/exclude, a combination method, and search
//!   conditions — no SQL knowledge required — and the builder compiles
//!   the form into the Lorel query the mediator executes;
//! * [`navigate`] — interactive navigation (Figure 5c): every object in
//!   an integrated view carries web-links; following a link renders the
//!   individual object view;
//! * [`parse`] — the textual clause grammar of the question interface,
//!   shared by the CLI (`ask` command) and the HTTP server's `/genes`
//!   query parameters so the two transports cannot drift;
//! * [`render`] — the textual renderings of the integrated annotation
//!   view (Figure 5b) and the individual object view (Figure 5c);
//! * [`reorganize`] — re-organisation of retrieved results (grouping,
//!   sorting, tabular export, summaries), the paper's future-work item
//!   and the feed for automated large-scale analysis;
//! * [`system`] — [`Annoda`], the single-access-point façade tying
//!   registry, mediator, question interface, and navigation together. It
//!   also implements the `IntegrationSystem` probe surface indirectly via
//!   the mediator (see `annoda-baselines`).

pub mod durable;
pub mod navigate;
pub mod parse;
pub mod question;
pub mod registry;
pub mod render;
pub mod reorganize;
pub mod repl;
pub mod system;
pub mod txn;

pub use durable::{
    DurableSystem, GmlSnapshot, LorelServed, RefreshOutcome, SnapshotInfo, GML_ROOT,
};
pub use navigate::{NavigateError, Navigator, ObjectView};
pub use parse::{apply_clause, parse_question, parse_question_pairs};
pub use question::{AspectClause, Combination, Condition, GeneQuestion, QuestionBuilder};
pub use registry::{PlugReport, SourceRegistry};
pub use render::{render_integrated_view, render_object_view};
pub use reorganize::{
    chromosome_of, group_genes, sort_genes, summarize, to_tsv, GroupKey, SortKey, ViewSummary,
};
pub use repl::{ReplShared, Role};
pub use system::{Annoda, AnnodaError};
pub use txn::{
    CommitError, CommitOutcome, EpochsHandle, ShardGauges, ShardTxn, ShardedGml, TxnStats,
};

// Re-exported so the serving and bench layers can speak persistence
// without depending on `annoda-persist` directly.
pub use annoda_persist::{
    DurableStore, FsyncPolicy, PersistError, PersistStats, RecoveryReport, SnapshotMeta,
};

// Re-exported so the serving layer and the CLI can speak ranked search
// without depending on `annoda-search` directly.
pub use annoda_search::{FusionStrategy, RankedAnswer, SearchIndex, SearchStats};
