//! [`ReplicaClient`] — the follower's side of the replication stream.
//!
//! One background thread (`annoda-federation`'s [`Subscription`]):
//! dial, subscribe from the local durable position (or from an
//! impossible position to force a snapshot transfer when the local WAL
//! is not a trusted replica), then poll — one `ReplicaStatus` per
//! applied batch, sleeping briefly while caught up. Any transport error,
//! frame corruption, or position the leader cannot serve tears the
//! connection down and re-subscribes from the last *durably applied*
//! position; a damaged batch is never applied, so the follower can lag
//! but never diverge.
//!
//! The thread exits on [`ReplicaClient::shutdown`]/drop, or on its own
//! when the node stops being a follower (promotion).

use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Duration;

use annoda::{DurableSystem, ReplShared, Role};
use annoda_federation::proto::{self, Message, ProtoError};
use annoda_federation::{LagClock, Session, Subscription, TailConfig};
use annoda_persist::encode_store;

/// A running replica subscription. Dropping it stops and joins the
/// shipping thread.
pub struct ReplicaClient {
    subscription: Subscription,
}

impl ReplicaClient {
    /// Starts shipping `leader_addr`'s WAL into `system` (which must
    /// have been opened with [`DurableSystem::open_follower`]).
    pub fn spawn(
        system: Arc<RwLock<DurableSystem>>,
        leader_addr: &str,
        config: TailConfig,
    ) -> ReplicaClient {
        let repl = system.read().expect("system lock").repl_handle();
        let follower = Follower {
            system,
            repl,
            poll_interval: config.poll_interval,
            lag: LagClock::default(),
        };
        ReplicaClient {
            subscription: Subscription::spawn(leader_addr, config, follower),
        }
    }

    /// Stops the shipping thread and joins it.
    pub fn shutdown(&mut self) {
        self.subscription.shutdown();
    }
}

struct Follower {
    system: Arc<RwLock<DurableSystem>>,
    repl: Arc<ReplShared>,
    poll_interval: Duration,
    lag: LagClock,
}

impl Session for Follower {
    fn resubscribes(&self) -> &AtomicU64 {
        &self.repl.resubscribes
    }

    fn active(&self) -> bool {
        self.repl.role() == Role::Follower
    }

    /// One subscription lifetime: subscribe, poll until an error (`Err`
    /// → re-subscribe) or a clean stop or promotion (`Ok`).
    fn run(&mut self, mut conn: TcpStream, stop: &AtomicBool) -> Result<(), ProtoError> {
        let (system, repl) = (&self.system, &self.repl);
        // Resume from the local durable position when it is a trusted
        // replica of the leader's log; otherwise subscribe from a
        // position no log can serve, forcing a snapshot transfer.
        let (generation, offset) = {
            let sys = system.read().expect("system lock");
            sys.replica_resume_position().unwrap_or((u64::MAX, 0))
        };
        proto::send(
            &mut conn,
            &Message::Subscribe {
                generation,
                from_offset: offset,
            },
        )?;

        while !stop.load(Ordering::SeqCst) && self.active() {
            let position = match proto::recv(&mut conn)? {
                Message::SnapshotXfer { generation, store } => {
                    let bytes = encode_store(&store).len() as u64;
                    let mut sys = system.write().expect("system lock");
                    let base = sys
                        .install_replica_snapshot(store, generation)
                        .map_err(|e| ProtoError::Frame(format!("snapshot install: {e}")))?;
                    repl.snapshot_xfer_bytes.fetch_add(bytes, Ordering::Relaxed);
                    (generation, base)
                }
                Message::WalBatch {
                    generation,
                    from_offset,
                    records,
                    next_offset,
                    leader_offset,
                    remaining_records,
                } => {
                    let applied = {
                        let mut sys = system.write().expect("system lock");
                        sys.apply_replica_batch(generation, from_offset, &records)
                            .map_err(|e| ProtoError::Frame(format!("batch apply: {e}")))?
                    };
                    debug_assert_eq!(applied, next_offset);
                    repl.set_lag(leader_offset, applied, remaining_records);
                    let caught_up = applied >= leader_offset && remaining_records == 0;
                    repl.lag_us
                        .store(self.lag.lag_us(caught_up), Ordering::Release);
                    if records.is_empty() {
                        std::thread::sleep(self.poll_interval);
                    }
                    (generation, applied)
                }
                // Anything else is a protocol violation; re-subscribe.
                other => {
                    return Err(ProtoError::Frame(format!(
                        "unexpected replication message: {other:?}"
                    )))
                }
            };
            proto::send(
                &mut conn,
                &Message::ReplicaStatus {
                    generation: position.0,
                    applied_offset: position.1,
                },
            )?;
        }
        Ok(())
    }
}
