//! # annoda-stream — push-based incremental source updates
//!
//! The federation tier (`annoda-federation`) *pulls*: a refresh
//! re-fetches a source's whole native database and re-materialises the
//! global model. This crate *tails*: each source-server keeps a
//! [`annoda_federation::ChangeJournal`] of record-level changes to its
//! native database, and a [`StreamClient`] subscribes to that feed,
//! handing every batch to [`annoda::DurableSystem::absorb_delta`] —
//! which stages the delta through the sharded transaction path so only
//! the shards holding touched entities bump their epochs, only their
//! WAL segments journal, and the search index re-tokenizes only the
//! changed source.
//!
//! The subscription mirrors the replica tier's WAL tail
//! (`annoda-replica`), one level up the stack, and shares its session
//! layer — [`annoda_federation::session`]:
//!
//! | replica tier                   | stream tier                        | shared (`session`)  |
//! |--------------------------------|------------------------------------|---------------------|
//! | WAL offset                     | change sequence number             |                     |
//! | snapshot transfer on stale log | bootstrap dump on compacted journal|                     |
//! | byte-identical store           | byte-identical *assembled* store   |                     |
//! | `LeaderServer` handler         | `SourceServer` handler             | `SessionServer`     |
//! | follower `Session`             | tailer `Session`                   | `Subscription`, `dial`, `LagClock`, `TailConfig` |
//!
//! The cursor is ack-driven: the client acknowledges the last sequence
//! it has durably absorbed, and the server replays strictly after it.
//! Because the ack is sent only after `absorb_delta` returns `Ok`, a
//! connection torn down at any point — mid-batch, mid-absorb, or by
//! killing the source process — resumes at the acked sequence with
//! nothing lost and nothing double-applied (upserts and deletes are
//! idempotent, so even a batch replayed after a partial absorb
//! converges).

pub mod tail;

pub use tail::{FeedGauges, FeedSnapshot, StreamClient};
