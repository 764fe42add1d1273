//! # annoda-stream — push-based incremental source updates
//!
//! The federation tier (`annoda-federation`) *pulls*: a refresh
//! re-fetches a source's whole native database and re-materialises the
//! global model. This crate *tails*: each source-server keeps a
//! [`annoda_federation::ChangeJournal`] of record-level changes to its
//! native database, and a [`StreamClient`] subscribes to that feed,
//! absorbing every batch in the system's one write protocol: an apply
//! ([`annoda::DurableSystem::absorb_apply`], record-level, under the
//! writer lock) then a commit ([`annoda::DurableSystem::absorb_commit`],
//! under a reader lock). The commit is the same call in every store
//! shape; in the sharded one only the shards holding touched entities
//! bump their epochs and only their WAL segments journal, and the
//! published snapshot rebuilds the search index if the batch changed
//! harvested text.
//!
//! One protocol serves two kinds of feed, over one session layer
//! ([`annoda_federation::session`]) and one handler
//! ([`annoda_federation::FeedSession`]):
//!
//! | | source feed (`--subscribe`) | leader feed (`--follow`) |
//! |--------------------------------|------------------------------------|---------------------|
//! | server | `SourceServer`: one wrapper | `annoda-replica`'s `LeaderServer`: each plugged source of a `DurableSystem` |
//! | client | [`StreamClient::spawn`] | [`StreamClient::follow`], one per source |
//! | sequences | from 1 | from a random incarnation, so a restarted or promoted leader bootstraps its followers |
//! | a source it does not serve | resubscribe | `SourceGone`: unplug it here, stop |
//! | stops | on shutdown | on shutdown, or once the node is promoted |
//!
//! The cursor is ack-driven: the client acknowledges the last sequence
//! it has durably absorbed, and the server replays strictly after it.
//! Because the ack is sent only after the commit returns `Ok`, a
//! connection torn down at any point — mid-batch, mid-absorb, or by
//! killing the source process — resumes at the acked sequence with
//! nothing lost and nothing double-applied (upserts and deletes are
//! idempotent, so even a batch replayed after a partial absorb
//! converges).

pub mod tail;

pub use tail::{FeedGauges, FeedSnapshot, StreamClient};
