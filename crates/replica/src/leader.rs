//! [`LeaderServer`] — a leader's change feeds on a socket.
//!
//! A [`SessionServer`] whose sessions each run one
//! [`FeedSession`] against the system, holding its *read* lock for each
//! reply: appends hold the writer lock, so a bootstrap dump and its
//! journal head agree, and serving followers never blocks readers.
//! Anything but a feed request closes the session; `Ping` is the
//! session layer's.
//!
//! A follower holds one session per source it follows, each on a worker
//! of its own for as long as it tails: `ServerConfig::workers` bounds
//! the sessions served at once, and a subscriber past it waits in the
//! queue (timing out its hello and redialing) until one ends.

use std::io;
use std::net::SocketAddr;
use std::sync::{Arc, RwLock};

use annoda::DurableSystem;
use annoda_federation::{FeedSession, ServerConfig, SessionServer};

/// A running replication leader. Dropping it stops and joins every
/// thread.
pub struct LeaderServer {
    server: SessionServer,
}

impl LeaderServer {
    /// Binds `bind` (port 0 for ephemeral) and serves `system`'s change
    /// feeds until shutdown or drop.
    pub fn spawn(
        system: Arc<RwLock<DurableSystem>>,
        bind: &str,
        config: ServerConfig,
    ) -> io::Result<LeaderServer> {
        let server = SessionServer::spawn(bind, config, move || {
            let (system, mut feed) = (Arc::clone(&system), FeedSession::default());
            Box::new(move |request| {
                let sys = system.read().expect("system lock");
                feed.reply(&*sys, request)
            })
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
