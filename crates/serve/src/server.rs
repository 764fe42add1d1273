//! The server: an acceptor that gives each accepted connection its own
//! thread ([`crate::conn`]), and the drain.
//!
//! Overload policy, end to end:
//!
//! 1. The acceptor sheds only on the connection cap
//!    ([`ServeConfig::max_connections`]): `503 + Retry-After`, close,
//!    without reading a byte. The cap is also the bound on threads.
//! 2. Per request, admission control (in-flight budget, queue-delay
//!    watermark) sheds with `503 + Retry-After` *before* queueing delay
//!    explodes.
//! 3. Hard head/body caps and read/write progress timeouts bound what
//!    any single client can consume.
//!
//! Shutdown stops the acceptor, lets every connection finish the
//! request it is answering, and closes idle ones — all within a bounded
//! deadline.

use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread;
use std::time::{Duration, Instant};

use annoda::{Annoda, DurableSystem};

use crate::cache::{CacheGauges, ResponseCache};
use crate::conn::{self, shed_503, Shared, ShedGauges, Slot};
use crate::http::encode_response;
use crate::metrics::Metrics;
use crate::routes::App;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Idle-connection timeout (no request bytes for this long).
    pub read_timeout: Duration,
    /// Write progress timeout (slow-reader defence).
    pub write_timeout: Duration,
    /// Request head cap (431 beyond it).
    pub max_head_bytes: usize,
    /// Request body cap (413 beyond it).
    pub max_body_bytes: usize,
    /// Requests served per connection before the server closes it.
    pub keep_alive_max_requests: usize,
    /// Open-connection (and so connection-thread) cap; beyond it the
    /// acceptor sheds with `503 + Retry-After`.
    pub max_connections: usize,
    /// Server-wide budget of requests computing at once.
    pub max_in_flight: usize,
    /// Queue-delay watermark: shed once estimated wait
    /// (`in_flight × EWMA(service)`) exceeds this.
    pub target_p99: Duration,
    /// Response-cache entries (0 disables the cache).
    pub cache_capacity: usize,
    /// Artificial delay before handling each request — zero in
    /// production; tests use it to hold requests in flight
    /// deterministically.
    pub handler_delay: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            max_head_bytes: 8 * 1024,
            max_body_bytes: 64 * 1024,
            keep_alive_max_requests: 100,
            max_connections: 1024,
            max_in_flight: 256,
            target_p99: Duration::from_millis(2_500),
            cache_capacity: 512,
            handler_delay: Duration::ZERO,
        }
    }
}

/// What a graceful shutdown managed to do.
#[derive(Debug, Clone, Copy)]
pub struct ShutdownReport {
    /// Whether every connection finished and closed in time.
    pub drained: bool,
    /// Total requests served over the server's lifetime.
    pub requests_served: u64,
}

/// A running server.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: thread::JoinHandle<()>,
}

impl Server {
    /// Binds, spawns the acceptor, and returns. The system is served
    /// over an in-memory one-shard store, without persistence.
    pub fn start(system: Annoda, config: ServeConfig) -> io::Result<Server> {
        Server::start_durable(DurableSystem::new(system), config)
    }

    /// [`Server::start`] for a system that may carry a durable store
    /// (opened with a data directory for warm-start serving).
    pub fn start_durable(system: DurableSystem, config: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let http_cache = Arc::new(CacheGauges::default());
        let app = Arc::new(App {
            generation: system.generation_handle(),
            epochs: system.sharded().epochs_handle(),
            pending: system.pending_handle(),
            system: Arc::new(RwLock::new(system)),
            metrics: Arc::new(Metrics::default()),
            http_cache: Arc::clone(&http_cache),
            shed: Arc::new(ShedGauges::default()),
            started: Instant::now(),
            search_queries: AtomicU64::default(),
            search_zero_hits: AtomicU64::default(),
            feeds: RwLock::new(Vec::new()),
        });
        let shared = Arc::new(Shared {
            app,
            cache: Mutex::new(ResponseCache::new(config.cache_capacity, http_cache)),
            config,
            stop: AtomicBool::new(false),
            open: AtomicU64::new(0),
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("annoda-serve-acceptor".into())
                .spawn(move || accept_loop(&listener, &shared))?
        };
        Ok(Server {
            addr,
            shared,
            acceptor,
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared application state (metrics, gauges, system).
    pub fn app(&self) -> Arc<App> {
        Arc::clone(&self.shared.app)
    }

    /// Stops accepting, lets open connections finish within `deadline`,
    /// and reports what happened.
    pub fn shutdown(self, deadline: Duration) -> ShutdownReport {
        let cutoff = Instant::now() + deadline;
        self.shared.stop.store(true, Ordering::SeqCst);
        // One connect to our own port wakes the acceptor out of
        // `accept` (on Linux an unspecified bind address, `0.0.0.0` or
        // `::`, connects to the loopback).
        if TcpStream::connect(self.addr).is_ok() {
            let _ = self.acceptor.join();
        }
        let drained = loop {
            if self.shared.open.load(Ordering::SeqCst) == 0 {
                break true;
            }
            if Instant::now() >= cutoff {
                break false; // connections left to finish detached
            }
            thread::sleep(Duration::from_millis(1));
        };
        ShutdownReport {
            drained,
            requests_served: self.shared.app.metrics.requests_total(),
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    let max_connections = shared.config.max_connections.max(1) as u64;
    loop {
        let accepted = listener.accept();
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok((stream, _)) = accepted else {
            // A failing accept (out of descriptors) backs off instead
            // of spinning.
            thread::sleep(Duration::from_millis(2));
            continue;
        };
        shared.app.metrics.record_connection();
        if shared.open.load(Ordering::SeqCst) >= max_connections {
            shed(stream, &shared.app.shed);
            continue;
        }
        shared.open.fetch_add(1, Ordering::SeqCst);
        let worker = Arc::clone(shared);
        let spawned = thread::Builder::new()
            .name("annoda-serve-conn".into())
            .spawn(move || {
                let _open = Slot(&worker.open);
                conn::serve(stream, &worker);
            });
        if spawned.is_err() {
            shared.open.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// Answers a connection shed at the accept stage (connection cap):
/// `503` + `Retry-After`, then close — without reading a byte.
fn shed(mut stream: TcpStream, gauges: &ShedGauges) {
    gauges.shed_connection_cap.fetch_add(1, Ordering::Relaxed);
    gauges.shed_total.fetch_add(1, Ordering::Relaxed);
    let mut bytes = Vec::with_capacity(256);
    encode_response(&mut bytes, &shed_503(), false);
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let _ = stream.write_all(&bytes);
}
