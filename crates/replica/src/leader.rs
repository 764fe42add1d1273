//! [`LeaderServer`] — the leader's side of the replication stream.
//!
//! A handler over `annoda-federation`'s shared AFED
//! [`SessionServer`] (accept loop, bounded worker pool, hello, fault
//! injection) that answers `Subscribe` and `ReplicaStatus` with the next
//! `WalBatch`, or a `SnapshotXfer` when the subscriber's position is
//! unservable; `Ping` is the session layer's. Batches are read under the
//! system's *read* lock — shipping never blocks serving, only writes do.

use std::io;
use std::net::SocketAddr;
use std::sync::atomic::Ordering;
use std::sync::{Arc, RwLock};

use annoda::DurableSystem;
use annoda_federation::proto::Message;
use annoda_federation::{ServerConfig, SessionServer};

/// Byte budget per `WalBatch` (frames; at least one record always ships
/// when available).
const MAX_BATCH_BYTES: u64 = 1 << 20;

/// A running replication leader. Dropping it stops and joins every
/// thread.
pub struct LeaderServer {
    server: SessionServer,
}

impl LeaderServer {
    /// Binds `bind` (port 0 for ephemeral) and ships `system`'s WAL to
    /// subscribers until shutdown or drop. Fails fast when the system
    /// has no durable store — there is no log to ship.
    pub fn spawn(
        system: Arc<RwLock<DurableSystem>>,
        bind: &str,
        config: ServerConfig,
    ) -> io::Result<LeaderServer> {
        if system.read().expect("system lock").wal_position().is_none() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "replication needs a durable system (no --data-dir, no WAL to ship)",
            ));
        }
        let server = SessionServer::spawn(bind, config, move |request| match request {
            Message::Subscribe {
                generation,
                from_offset,
            }
            | Message::ReplicaStatus {
                generation,
                applied_offset: from_offset,
            } => position_reply(&system, generation, from_offset),
            // Anything else on a replication socket is a protocol
            // violation; drop the session.
            _ => None,
        })?;
        Ok(LeaderServer { server })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Stops accepting, tears down subscriber sessions, joins threads.
    pub fn shutdown(&mut self) {
        self.server.shutdown();
    }
}

/// Computes the reply to a subscriber at `(generation, from_offset)`:
/// the next batch, or a snapshot transfer when the position is
/// unservable. `None` drops the session (the store is gone or
/// unreadable — the subscriber will reconnect and try again).
fn position_reply(
    system: &RwLock<DurableSystem>,
    generation: u64,
    from_offset: u64,
) -> Option<Message> {
    let sys = system.read().expect("system lock");
    let repl = sys.repl_handle();
    match sys.read_wal_tail(generation, from_offset, MAX_BATCH_BYTES) {
        Ok(Some(tail)) => {
            let shipped: u64 = tail.records.iter().map(|r| r.len() as u64).sum();
            if !tail.records.is_empty() {
                repl.batches_sent.fetch_add(1, Ordering::Relaxed);
                repl.shipped_bytes.fetch_add(shipped, Ordering::Relaxed);
            }
            Some(Message::WalBatch {
                generation: tail.generation,
                from_offset,
                records: tail.records,
                next_offset: tail.next_offset,
                leader_offset: tail.end_offset,
                remaining_records: tail.remaining_records,
            })
        }
        Ok(None) => match sys.base_snapshot() {
            Ok((store, generation)) => {
                repl.snapshot_xfers_sent.fetch_add(1, Ordering::Relaxed);
                Some(Message::SnapshotXfer { generation, store })
            }
            Err(_) => None,
        },
        Err(_) => None,
    }
}
