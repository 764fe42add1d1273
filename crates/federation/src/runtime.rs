//! The connection runtime of `annoda-serve`'s HTTP and of AFED's
//! [`SessionServer`](crate::SessionServer): a blocking acceptor gives
//! each connection a named thread of its own, up to a cap, and a
//! [`Service`] admits, sheds and serves. Every live socket is in one
//! registry, the cap's count and what the drain waits out. Shutdown
//! sets the stop flag and shuts the read half of every registered
//! socket under the registry's lock, so a blocked `read` returns EOF at
//! once and no socket registers after the walk. Nothing polls: a
//! connection thread blocks in a plain read that only its idle timeout
//! bounds.

use std::collections::HashMap;
use std::io::{self, ErrorKind};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// What a server does with the connections its [`Runtime`] accepts.
pub trait Service: Send + Sync + 'static {
    /// Sees every accepted connection before the cap check; `false`
    /// closes it unserved.
    fn admit(&self) -> bool;
    /// A connection past the cap, or whose thread could not be started.
    fn shed(&self, conn: TcpStream);
    /// One connection's whole life, on its own thread; `stop` reads
    /// `true` once shutdown began (and reads see EOF).
    fn serve(&self, conn: TcpStream, stop: &AtomicBool);
}

/// A running acceptor and its connection threads.
pub struct Runtime {
    addr: SocketAddr,
    registry: Arc<Registry>,
    acceptor: Option<JoinHandle<()>>,
}

impl Runtime {
    /// Accepts on `listener` from a thread named `names[0]`, serving
    /// each connection on a thread named `names[1]` while fewer than
    /// `cap` are open.
    pub fn spawn<S: Service>(
        listener: TcpListener,
        cap: usize,
        names: [&'static str; 2],
        service: Arc<S>,
    ) -> io::Result<Runtime> {
        let addr = listener.local_addr()?;
        let registry = Arc::new(Registry {
            cap: cap.max(1),
            ..Registry::default()
        });
        let acceptor = {
            let registry = Arc::clone(&registry);
            thread::Builder::new()
                .name(names[0].into())
                .spawn(move || accept_loop(listener, &registry, &*service, names[1]))?
        };
        Ok(Runtime {
            addr,
            registry,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, shuts the read half of every open connection,
    /// and waits until `deadline` (or for as long as it takes) for every
    /// connection thread to end; `true` if they all did. An answer
    /// being computed still finishes and can still be written.
    /// Idempotent.
    pub fn shutdown(&mut self, deadline: Option<Duration>) -> bool {
        let started = Instant::now();
        let woke = self.acceptor.is_some() && self.registry.stop(self.addr);
        let left = deadline.map_or(Duration::MAX, |d| d.saturating_sub(started.elapsed()));
        let drained = self.registry.drain(left);
        if let Some(acceptor) = self.acceptor.take().filter(|_| woke && drained) {
            // Connection threads are scoped to the acceptor.
            let _ = acceptor.join();
        }
        drained
    }
}

/// The live connections: a second handle on each one's socket.
#[derive(Default)]
struct Registry {
    cap: usize,
    /// Set under `live`'s lock.
    stop: AtomicBool,
    next: AtomicU64,
    live: Mutex<HashMap<u64, TcpStream>>,
    /// Signalled when the last live connection ends.
    emptied: Condvar,
}

impl Registry {
    fn lock(&self) -> MutexGuard<'_, HashMap<u64, TcpStream>> {
        self.live.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The key of `conn`'s entry; `None` when stopping, full, or out of
    /// descriptors for the second handle.
    fn register(&self, conn: &TcpStream) -> Option<u64> {
        let mut live = self.lock();
        if self.stop.load(Ordering::SeqCst) || live.len() >= self.cap {
            return None;
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        live.insert(id, conn.try_clone().ok()?);
        Some(id)
    }

    fn unregister(&self, id: u64) -> Option<TcpStream> {
        let mut live = self.lock();
        let socket = live.remove(&id);
        if live.is_empty() {
            self.emptied.notify_all();
        }
        socket
    }

    /// Sets the stop flag, shuts every live socket's read half, and
    /// wakes the acceptor at `addr`; `false` if it may not have woken.
    fn stop(&self, addr: SocketAddr) -> bool {
        {
            let live = self.lock();
            self.stop.store(true, Ordering::SeqCst);
            for socket in live.values() {
                let _ = socket.shutdown(Shutdown::Read);
            }
        }
        // One connect to our own port wakes the acceptor out of `accept`
        // (on Linux an unspecified bind address connects to the
        // loopback). A refused one found the acceptor gone; one that
        // times out met a full backlog, which wakes it as well.
        match TcpStream::connect_timeout(&addr, Duration::from_millis(100)) {
            Err(e) => matches!(e.kind(), ErrorKind::ConnectionRefused | ErrorKind::TimedOut),
            Ok(_) => true,
        }
    }

    /// Waits up to `left` for the last live connection to end.
    fn drain(&self, left: Duration) -> bool {
        let busy = |live: &mut HashMap<u64, TcpStream>| !live.is_empty();
        let waited = self.emptied.wait_timeout_while(self.lock(), left, busy);
        !waited.unwrap_or_else(PoisonError::into_inner).1.timed_out()
    }
}

/// A connection thread's registry entry, removed when dropped — also
/// when the thread unwinds.
struct Registered<'a>(&'a Registry, u64);

impl Drop for Registered<'_> {
    fn drop(&mut self) {
        self.0.unregister(self.1);
    }
}

/// Returns after the last connection thread; the listener closes as
/// soon as the stop flag is seen.
fn accept_loop<S: Service>(listener: TcpListener, registry: &Registry, service: &S, name: &str) {
    thread::scope(move |scope| loop {
        let accepted = listener.accept();
        if registry.stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok((conn, _)) = accepted else {
            // A failing accept (out of descriptors) backs off instead
            // of spinning.
            thread::sleep(Duration::from_millis(2));
            continue;
        };
        if !service.admit() {
            continue;
        }
        let Some(id) = registry.register(&conn) else {
            if registry.stop.load(Ordering::SeqCst) {
                return;
            }
            service.shed(conn);
            continue;
        };
        let spawned = thread::Builder::new()
            .name(name.into())
            .spawn_scoped(scope, move || {
                let _entry = Registered(registry, id);
                service.serve(conn, &registry.stop);
            });
        // A thread that never ran leaves the registry's handle to shed.
        if let Some(conn) = spawned.err().and_then(|_| registry.unregister(id)) {
            service.shed(conn);
        }
    });
}
