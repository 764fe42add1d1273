//! # annoda-replica — WAL-shipping read replicas
//!
//! The warehousing tier scaled horizontally: one integrating *leader*
//! (the mediator process that owns the sources and the writes) ships
//! its `annoda-persist` WAL over the AFED wire protocol to any number
//! of read-only *followers*, each serving `/genes`, `/lorel`, and
//! `/search` from its own byte-identical copy of the materialised
//! ANNODA-GML store.
//!
//! The protocol is pull-based and preserves AFED's strict
//! request/response alternation:
//!
//! ```text
//! follower                          leader
//!    | Subscribe{gen, offset}          |
//!    |-------------------------------->|
//!    |        SnapshotXfer | WalBatch  |   unservable position → full
//!    |<--------------------------------|   state; otherwise records
//!    | ReplicaStatus{gen, applied}     |
//!    |-------------------------------->|   ... and so on, one batch
//!    |                    WalBatch     |   per poll; empty batch =
//!    |<--------------------------------|   caught up
//! ```
//!
//! Positions are `(generation, byte offset)` pairs into the leader's
//! log. Followers journal the *original* record bytes
//! ([`annoda::DurableStore::journal_raw`]), so a follower's WAL is
//! byte-identical to the leader's prefix and its own file length *is*
//! its replication position — restarts resume with no handshake state.
//! A torn or corrupted batch frame is caught by the AFED crc32 framing
//! and answered by tearing the subscription down and re-subscribing
//! from the last durable position, never by applying garbage.
//!
//! Neither end owns a socket loop: the leader is a handler over
//! `annoda-federation`'s [`SessionServer`](annoda_federation::SessionServer)
//! and the follower a [`Session`](annoda_federation::Session) run by its
//! [`Subscription`](annoda_federation::Subscription) thread — the same
//! session layer the source-servers and `annoda-stream`'s feed tailer
//! run on.
//!
//! Failover: any follower can be promoted
//! ([`annoda::DurableSystem::promote`]) — it seals the replicated WAL
//! behind a snapshot (bumping the generation so the old stream can
//! never be confused with the new one) and starts accepting writes;
//! surviving followers re-subscribe to it and bootstrap from its
//! snapshot.

pub mod follower;
pub mod leader;

pub use follower::ReplicaClient;
pub use leader::LeaderServer;
