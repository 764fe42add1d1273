//! # annoda-persist — WAL-backed durable OEM storage
//!
//! The ANNODA paper's mediator keeps its integrated ANNODA-GML view in
//! memory and re-wraps every source on startup. This crate gives the
//! store a disk life so a restarted server can *warm-start*: it
//! recovers the exact integrated view a crashed process held and serves
//! it immediately, refreshing from the sources in the background
//! instead of on the critical path.
//!
//! Three layers, bottom up:
//!
//! * [`codec`] — a compact canonical binary encoding of [`OemStore`]s
//!   and rooted fragments (no serde; every read bounds-checked).
//! * [`wal`](FsyncPolicy) + snapshots — an append-only log of
//!   checksummed, length-prefixed records plus atomic point-in-time
//!   snapshots; a crash can only ever tear the log's *tail*, which
//!   recovery truncates silently.
//! * [`DurableStore`] — ties them together: mutations are journaled as
//!   [`JournalRecord`]s through one shared `apply` path, so a recovered
//!   store re-encodes byte-for-byte identical to the one that was lost.
//!
//! A commit journals what one keyed walk
//! ([`annoda_oem::ShardedStore::changed_groups`]) found changed: one
//! [`JournalRecord::ReplaceFragments`] per changed fragment group, the
//! fragments under a shard root that share an entity label and key. A
//! shard segment is first journaled whole, as one
//! [`JournalRecord::PutRoot`].
//!
//! [`OemStore`]: annoda_oem::OemStore

pub mod codec;
pub mod durable;
pub mod error;
pub mod record;
pub mod sharded;
pub mod snapshot;
pub mod wal;

pub use codec::{
    decode_fragment_into, decode_store, encode_fragment, encode_store, write_string, write_varint,
    Reader,
};
pub use durable::{DurableStore, PersistStats, RecoveryReport};
pub use error::PersistError;
pub use record::{apply, JournalRecord, SourceEventKind};
pub use sharded::{ShardedDurableStore, SHARDS_META};
pub use snapshot::SnapshotMeta;
pub use wal::{crc32, read_tail, FsyncPolicy, TailRead, WAL_HEADER_LEN};
