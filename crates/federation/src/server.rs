//! `SourceServer` — one wrapper behind a socket.
//!
//! The Figure 1 deployment the paper describes but the in-process
//! mediator only simulates: a wrapper process sitting next to its native
//! database, answering Describe/FetchOml/Subquery/Refresh and its change
//! feed over the AFED protocol. Sockets, workers and connection faults
//! are the [`session`](crate::session) layer's; this module gives the
//! requests their meaning. A [`FlakyWrapper`](annoda_wrap::FlakyWrapper)
//! whose injected failures are `WrapError::Transport` makes the server
//! *abort the connection* instead of answering, turning simulated
//! unreachability into real unreachability.

use std::io;
use std::net::SocketAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, RwLock};

use annoda_wrap::{Cost, WrapError, Wrapper};

use crate::feed::{ChangeJournal, DEFAULT_JOURNAL_CAP};
use crate::proto::{ChangeRecord, Message, RefusalKind, RemoteResult};
use crate::session::{ServerConfig, ServerStats, SessionServer};

/// Most change records shipped in one [`Message::ChangeBatch`].
const FEED_BATCH_MAX: usize = 512;

/// A running source-server. Dropping it stops and joins every thread.
pub struct SourceServer {
    server: SessionServer,
    name: String,
    wrapper: Arc<RwLock<Box<dyn Wrapper>>>,
    journal: Arc<ChangeJournal>,
}

impl SourceServer {
    /// Binds `bind` (use port 0 for an ephemeral port) and serves
    /// `wrapper` until [`SourceServer::shutdown`] or drop.
    pub fn spawn(
        wrapper: Box<dyn Wrapper>,
        bind: &str,
        config: ServerConfig,
    ) -> io::Result<SourceServer> {
        SourceServer::spawn_shared(
            Arc::new(RwLock::new(wrapper)),
            Arc::new(ChangeJournal::new(DEFAULT_JOURNAL_CAP)),
            bind,
            config,
        )
    }

    /// Like [`SourceServer::spawn`], but over externally shared wrapper
    /// and journal handles. Mutators (e.g. `--mutate-every`) hold the
    /// wrapper's write lock, apply the change, append it to the journal,
    /// and refresh the wrapper's exported model; a killed server can be
    /// respawned over the same handles and every subscriber resumes at
    /// its acked sequence with nothing lost or duplicated.
    pub fn spawn_shared(
        shared: Arc<RwLock<Box<dyn Wrapper>>>,
        journal: Arc<ChangeJournal>,
        bind: &str,
        config: ServerConfig,
    ) -> io::Result<SourceServer> {
        let name = shared.read().expect("wrapper lock").name().to_string();
        let server = {
            let (wrapper, journal, name) =
                (Arc::clone(&shared), Arc::clone(&journal), name.clone());
            SessionServer::spawn(bind, config, move |request| {
                source_reply(&wrapper, &journal, &name, request)
            })?
        };
        Ok(SourceServer {
            server,
            name,
            wrapper: shared,
            journal,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// The served source's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Lifetime counters.
    pub fn stats(&self) -> &ServerStats {
        self.server.stats()
    }

    /// The served wrapper, shared with mutators and respawns.
    pub fn wrapper(&self) -> &Arc<RwLock<Box<dyn Wrapper>>> {
        &self.wrapper
    }

    /// The change journal, shared with mutators and respawns.
    pub fn journal(&self) -> &Arc<ChangeJournal> {
        &self.journal
    }

    /// Stops accepting, drains queued connections, joins every thread.
    pub fn shutdown(&mut self) {
        self.server.shutdown();
    }
}

/// The source-server's answer to one request; `None` closes the session.
fn source_reply(
    shared: &RwLock<Box<dyn Wrapper>>,
    journal: &ChangeJournal,
    name: &str,
    request: Message,
) -> Option<Message> {
    let reply = match request {
        Message::Describe => {
            let wrapper = shared.read().expect("wrapper lock");
            Message::Description(wrapper.description().clone())
        }
        Message::FetchOml => {
            let wrapper = shared.read().expect("wrapper lock");
            Message::Oml(wrapper.oml().clone())
        }
        Message::Subquery(lorel) => {
            let wrapper = shared.read().expect("wrapper lock");
            let mut cost = Cost::new();
            // Contain wrapper panics to the session: a crashing
            // source must not take a worker thread down with it.
            let outcome = catch_unwind(AssertUnwindSafe(|| wrapper.subquery(&lorel, &mut cost)));
            match outcome {
                Ok(Ok(result)) => Message::SubqueryOk(RemoteResult {
                    root: result.root,
                    rows: result.rows as u64,
                    used_index: result.used_index,
                    planner_index_backed: result.planner_index_backed,
                    store: result.store,
                    cost,
                }),
                Ok(Err(WrapError::Query(e))) => Message::SubqueryErr {
                    kind: RefusalKind::Query,
                    message: e.to_string(),
                },
                Ok(Err(WrapError::Unsupported(message))) => Message::SubqueryErr {
                    kind: RefusalKind::Unsupported,
                    message,
                },
                // Simulated unreachability becomes *real*
                // unreachability: abort the connection so the
                // client sees a wire-level loss, not an answer.
                Ok(Err(WrapError::Transport(_))) => return None,
                Err(panic) => {
                    let msg = panic
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_string())
                        .or_else(|| panic.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "wrapper panicked".to_string());
                    Message::SubqueryErr {
                        kind: RefusalKind::Unsupported,
                        message: format!("panic: {msg}"),
                    }
                }
            }
        }
        Message::Refresh => {
            let mut wrapper = shared.write().expect("wrapper lock");
            let objects = wrapper.refresh() as u64;
            Message::Refreshed {
                objects,
                oml: wrapper.oml().clone(),
            }
        }
        Message::SubscribeSource { source, .. } => {
            // A subscriber naming a source this server does not
            // serve is a protocol violation; drop the session.
            if source != name {
                return None;
            }
            let w = journal.window();
            Message::FeedStatus {
                source,
                tail: w.tail,
                head: w.head,
            }
        }
        // The feed is ack-driven: each ack names the last sequence
        // the subscriber absorbed, and the reply is the next batch
        // (empty = caught up; bootstrap = compaction outran the
        // subscriber and it must replace, not merge).
        Message::ChangeAck { seq } => {
            match journal.replay_from(seq.saturating_add(1), FEED_BATCH_MAX) {
                Some(entries) => {
                    let last = entries.last().map_or(seq, |(s, _)| *s);
                    Message::ChangeBatch {
                        seq: last,
                        bootstrap: false,
                        records: entries.into_iter().map(|(_, rec)| rec).collect(),
                    }
                }
                None => {
                    // Hold the wrapper's read lock across dump + head so
                    // state and sequence agree (appends hold the write
                    // lock; see the feed module's locking contract).
                    let wrapper = shared.read().expect("wrapper lock");
                    let head = journal.window().head;
                    match wrapper.change_dump() {
                        Ok(dump) => Message::ChangeBatch {
                            seq: head,
                            bootstrap: true,
                            records: dump
                                .into_iter()
                                .map(|(key, flat)| ChangeRecord {
                                    key,
                                    flat: Some(flat),
                                })
                                .collect(),
                        },
                        // A source that cannot dump cannot re-seed a
                        // lapped subscriber; drop the session.
                        Err(_) => return None,
                    }
                }
            }
        }
        // Server-to-client tags arriving here are a protocol
        // violation; drop the session.
        _ => return None,
    };
    Some(reply)
}
