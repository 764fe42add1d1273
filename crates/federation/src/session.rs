//! The AFED session layer: what every AFED server and subscriber does
//! with a connection, apart from what its messages mean.
//!
//! [`SessionServer`] is an AFED [`Service`] on the crate's connection
//! [`runtime`](crate::runtime), the one `annoda-serve` runs its HTTP
//! connections on: each session gets a thread of its own, blocked in a
//! plain read between requests, for hello, then `recv → handler → send`
//! until the handler answers `None`, with one handler per session (a
//! feed subscriber's session remembers its source). Past
//! [`ServerConfig::max_sessions`] open sessions a connection is closed
//! at accept, so its client reads EOF at its hello and backs off.
//! `SourceServer` and `annoda-replica`'s `LeaderServer` build them.
//! [`dial`] is every client's connect and hello; [`Subscription`] is
//! the feed tailer's dial → [`Session`] → backoff thread. [`FaultConfig`]
//! drops connections before the hello and damages reply frames after
//! their checksum; either must end in a retry or a resubscribe, never in
//! applied garbage.

use std::fmt;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crate::proto::{self, Message, ProtoError};
use crate::runtime::{Runtime, Service};

/// Connection- and frame-level fault injection for tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultConfig {
    /// Drop (close without handshake) the first `n` accepted
    /// connections (1-based).
    pub drop_first: u64,
    /// Additionally drop every `n`-th accepted connection (0 = never).
    pub drop_every: u64,
    /// Flip one payload byte of the first `n` reply frames, counted over
    /// all sessions, after their checksum is computed.
    pub corrupt_first_replies: u64,
}

impl FaultConfig {
    /// No injected faults.
    pub fn none() -> Self {
        FaultConfig::default()
    }

    fn should_drop(&self, seq: u64) -> bool {
        seq <= self.drop_first || (self.drop_every > 0 && seq.is_multiple_of(self.drop_every))
    }
}

/// Server tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Sessions served at once, each on its own thread; a connection
    /// past them is closed at accept (counted in [`ServerStats::shed`]).
    pub max_sessions: usize,
    /// Per-socket read timeout; an idle session past it is reaped (the
    /// pooling client transparently redials).
    pub read_timeout: Duration,
    /// Per-socket write timeout.
    pub write_timeout: Duration,
    /// Injected faults.
    pub fault: FaultConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_sessions: 128,
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(10),
            fault: FaultConfig::none(),
        }
    }
}

/// Lifetime counters, readable while the server runs.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Connections accepted (including ones then faulted or shed).
    pub accepted: AtomicU64,
    /// Connections dropped by [`FaultConfig`].
    pub faulted: AtomicU64,
    /// Connections closed at accept because `max_sessions` were open
    /// (or a session thread could not be started).
    pub shed: AtomicU64,
}

/// `accepted N, faulted N, shed N`, the line servers print on shutdown.
impl fmt::Display for ServerStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [accepted, faulted, shed] =
            [&self.accepted, &self.faulted, &self.shed].map(|n| n.load(Ordering::Relaxed));
        write!(f, "accepted {accepted}, faulted {faulted}, shed {shed}")
    }
}

/// One session's replies: the reply to one request, or `None` to close
/// the session.
pub type Handler = Box<dyn FnMut(Message) -> Option<Message> + Send>;

/// Builds each session's [`Handler`].
type Factory = dyn Fn() -> Handler + Send + Sync;

/// What every session thread shares.
struct Shared {
    config: ServerConfig,
    stats: ServerStats,
    /// Reply frames still to be damaged ([`FaultConfig::corrupt_first_replies`]).
    corrupt_budget: AtomicU64,
    factory: Box<Factory>,
}

/// A running AFED server. Dropping it stops it and waits for every thread.
pub struct SessionServer {
    shared: Arc<Shared>,
    runtime: Runtime,
}

impl SessionServer {
    /// Binds `bind` (port 0 for an ephemeral port) and answers every
    /// request of each session with a handler `factory` builds for it,
    /// until [`SessionServer::shutdown`] or drop. `Ping` is answered
    /// with `Pong` here, for every server.
    pub fn spawn(
        bind: &str,
        config: ServerConfig,
        factory: impl Fn() -> Handler + Send + Sync + 'static,
    ) -> io::Result<SessionServer> {
        let shared = Arc::new(Shared {
            config,
            stats: ServerStats::default(),
            corrupt_budget: AtomicU64::new(config.fault.corrupt_first_replies),
            factory: Box::new(factory),
        });
        let runtime = Runtime::spawn(
            TcpListener::bind(bind)?,
            config.max_sessions,
            ["afed-accept", "afed-session"],
            Arc::clone(&shared),
        )?;
        Ok(SessionServer { shared, runtime })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.runtime.addr()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> &ServerStats {
        &self.shared.stats
    }

    /// Stops accepting, tears down sessions (idle ones included), and
    /// waits for the acceptor and every session thread. Idempotent.
    pub fn shutdown(&mut self) {
        self.runtime.shutdown(None);
    }
}

impl Drop for SessionServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Service for Shared {
    /// Counts the connection and applies [`FaultConfig`]'s drops.
    fn admit(&self) -> bool {
        let seq = self.stats.accepted.fetch_add(1, Ordering::Relaxed) + 1;
        if self.config.fault.should_drop(seq) {
            self.stats.faulted.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        true
    }

    /// Closes the connection, so its client reads EOF at its hello.
    fn shed(&self, _conn: TcpStream) {
        self.stats.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Serves one connection until EOF (shutdown included), a read
    /// idle past `read_timeout`, a protocol error, or the handler
    /// closing it.
    fn serve(&self, mut conn: TcpStream, _stop: &AtomicBool) {
        let _ = conn.set_read_timeout(Some(self.config.read_timeout));
        let _ = conn.set_write_timeout(Some(self.config.write_timeout));
        let _ = conn.set_nodelay(true);
        if proto::expect_hello(&mut conn).is_err() || proto::send_hello(&mut conn).is_err() {
            return;
        }
        let mut handler = (self.factory)();
        loop {
            let reply = match proto::recv(&mut conn) {
                Ok(Message::Ping) => Message::Pong,
                Ok(request) => match handler(request) {
                    Some(reply) => reply,
                    None => return,
                },
                // EOF, timeout, or garbage: either way the session is over.
                Err(_) => return,
            };
            if self.send(&mut conn, &reply).is_err() {
                return;
            }
        }
    }
}

impl Shared {
    /// Sends `reply` as one frame — with one payload byte flipped after
    /// the checksum while the corruption budget lasts.
    fn send(&self, conn: &mut TcpStream, reply: &Message) -> io::Result<()> {
        let corrupt = self
            .corrupt_budget
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok();
        if !corrupt {
            return proto::send(conn, reply);
        }
        let mut frame = Vec::new();
        proto::write_frame(&mut frame, &reply.encode())?;
        let last = frame.len() - 1;
        frame[last] ^= 0x40;
        conn.write_all(&frame)?;
        conn.flush()
    }
}

/// Connects to `addr` — every address it resolves to, in order, until
/// one accepts within `connect_timeout` — sets `io_timeout` on reads and
/// writes, and exchanges hellos.
pub fn dial(
    addr: &str,
    connect_timeout: Duration,
    io_timeout: Duration,
) -> Result<TcpStream, ProtoError> {
    let mut last = None;
    for sock in addr.to_socket_addrs()? {
        match TcpStream::connect_timeout(&sock, connect_timeout) {
            Ok(mut conn) => {
                conn.set_read_timeout(Some(io_timeout))?;
                conn.set_write_timeout(Some(io_timeout))?;
                let _ = conn.set_nodelay(true);
                proto::send_hello(&mut conn)?;
                proto::expect_hello(&mut conn)?;
                return Ok(conn);
            }
            Err(e) => last = Some(e),
        }
    }
    Err(ProtoError::Io(last.unwrap_or_else(|| {
        io::Error::new(
            io::ErrorKind::AddrNotAvailable,
            format!("no address for {addr}"),
        )
    })))
}

/// Subscriber tuning for a feed tailer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TailConfig {
    /// Dial timeout per connection attempt.
    pub connect_timeout: Duration,
    /// Per-socket read and write timeout (the server answers every poll
    /// immediately, so this only trips on a dead peer).
    pub io_timeout: Duration,
    /// Poll cadence: the feed tailer sleeps this long after every ack
    /// round (see `annoda-stream`).
    pub poll_interval: Duration,
    /// Sleep before reconnecting after an error.
    pub backoff: Duration,
}

impl Default for TailConfig {
    fn default() -> Self {
        TailConfig {
            connect_timeout: Duration::from_millis(500),
            io_timeout: Duration::from_secs(10),
            poll_interval: Duration::from_millis(20),
            backoff: Duration::from_millis(100),
        }
    }
}

/// A subscriber's message handling over one connection.
pub trait Session: Send + 'static {
    /// Runs one subscription lifetime over a dialed connection: `Ok`
    /// is a clean stop (the thread exits), `Err` tears the connection
    /// down for a resubscribe after the backoff.
    fn run(&mut self, conn: TcpStream, stop: &AtomicBool) -> Result<(), ProtoError>;

    /// The counter each tear-down bumps.
    fn resubscribes(&self) -> &AtomicU64;

    /// Whether to keep subscribing; checked before every dial.
    fn active(&self) -> bool {
        true
    }
}

/// A running subscription: one background thread that dials, runs its
/// [`Session`], and on any error counts a resubscribe, sleeps the
/// backoff and dials again. Dropping it stops and joins the thread.
pub struct Subscription {
    stop: Arc<AtomicBool>,
    addr: Arc<Mutex<String>>,
    thread: Option<JoinHandle<()>>,
}

impl Subscription {
    /// Starts subscribing `session` to `addr`.
    pub fn spawn(addr: &str, config: TailConfig, mut session: impl Session) -> Subscription {
        let stop = Arc::new(AtomicBool::new(false));
        let addr = Arc::new(Mutex::new(addr.to_string()));
        let (thread_stop, thread_addr) = (Arc::clone(&stop), Arc::clone(&addr));
        let tailer = thread::Builder::new().name("afed-tail".into());
        let thread = tailer
            .spawn(move || {
                while !thread_stop.load(Ordering::SeqCst) && session.active() {
                    let target = thread_addr.lock().expect("addr lock").clone();
                    match dial(&target, config.connect_timeout, config.io_timeout)
                        .and_then(|conn| session.run(conn, &thread_stop))
                    {
                        Ok(()) => return,
                        Err(_) => {
                            session.resubscribes().fetch_add(1, Ordering::Relaxed);
                            thread::sleep(config.backoff);
                        }
                    }
                }
            })
            .expect("spawn the feed tailer thread");
        Subscription {
            stop,
            addr,
            thread: Some(thread),
        }
    }

    /// Points the subscription at a new address; takes effect on the
    /// next connection attempt, so killing the old server fails over.
    pub fn set_addr(&self, addr: &str) {
        *self.addr.lock().expect("addr lock") = addr.to_string();
    }

    /// Stops the thread and joins it.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Subscription {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Time since a subscriber was last confirmed caught up. It keeps
/// running across reconnects, so an outage reads as lag.
#[derive(Debug, Default)]
pub struct LagClock {
    caught_up_at: Option<Instant>,
}

impl LagClock {
    /// Records one position report and returns the lag in µs: 0 when
    /// caught up (restarting the clock), otherwise the time since the
    /// last catch-up, at least 1 so "behind" never reads as caught up.
    pub fn lag_us(&mut self, caught_up: bool) -> u64 {
        if caught_up {
            self.caught_up_at = Some(Instant::now());
            return 0;
        }
        self.caught_up_at
            .map_or(0, |t| t.elapsed().as_micros() as u64)
            .max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_schedule() {
        let f = FaultConfig {
            drop_first: 2,
            drop_every: 5,
            ..FaultConfig::none()
        };
        assert!(f.should_drop(1));
        assert!(f.should_drop(2));
        assert!(!f.should_drop(3));
        assert!(f.should_drop(5));
        assert!(f.should_drop(10));
        assert!(!f.should_drop(11));
        assert!(!FaultConfig::none().should_drop(1));
    }

    #[test]
    fn lag_clock_reads_zero_only_when_caught_up() {
        let mut lag = LagClock::default();
        assert_eq!(lag.lag_us(false), 1, "never caught up: behind, not zero");
        assert_eq!(lag.lag_us(true), 0);
        thread::sleep(Duration::from_millis(2));
        assert!(lag.lag_us(false) >= 2_000);
    }
}
