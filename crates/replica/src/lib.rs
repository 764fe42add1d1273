//! # annoda-replica — read replicas over the change feed
//!
//! The warehousing tier scaled horizontally: one integrating *leader*
//! serves its own sources' change feeds, and any number of read-only
//! *followers* subscribe to them, each re-deriving `/genes`, `/lorel`
//! and `/search` from the same source records the leader holds. A
//! follower ships no copy of the leader's global model: like the
//! multidatabase systems that propagate a local change upward rather
//! than a second copy of the global schema, it receives what changed
//! at each source and integrates it itself.
//!
//! This crate is the leader's side, [`LeaderServer`]: the feed handler
//! ([`annoda_federation::FeedSession`], the one a source-server runs)
//! over a [`annoda::DurableSystem`]'s outbound journals. A follower is
//! `annoda-stream`'s `StreamClient::follow`, one per source it holds.
//!
//! ```text
//! follower (per source)                 leader
//!    | SubscribeSource{source, seq+1}     |
//!    |----------------------------------->|
//!    |          FeedStatus | SourceGone   |   not served → unplug, stop
//!    |<-----------------------------------|
//!    | ChangeAck{applied seq}             |
//!    |----------------------------------->|   cursor outside the journal
//!    |                        ChangeBatch |   (another incarnation,
//!    |<-----------------------------------|   compacted) → bootstrap dump
//! ```
//!
//! Failover: a follower promoted with
//! [`annoda::DurableSystem::promote`] stops its tailers and serves its
//! own journals, whose incarnations no other node's cursor can resume
//! into, so followers re-pointed at it bootstrap.

pub mod leader;

pub use leader::LeaderServer;
