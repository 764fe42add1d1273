//! The connection runtime under `annoda-serve` and the AFED session
//! server, seen through the threads it runs: idle connections cost no
//! wake-ups, and a shutdown racing new connections ends every
//! connection thread. Linux-only: threads are read from
//! `/proc/self/task`.
#![cfg(target_os = "linux")]

use std::fs;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use annoda::Annoda;
use annoda_federation::proto::{self, Message};
use annoda_federation::{dial, ServerConfig, SessionServer};
use annoda_serve::http::read_response;
use annoda_serve::{ServeConfig, Server};
use annoda_sources::{Corpus, CorpusConfig};

/// Thread-name prefixes of both servers' acceptors and connection
/// threads (`comm` keeps the first 15 bytes of a name).
const PREFIXES: [&str; 2] = ["annoda-serve-", "afed-"];

const HEALTHZ: &[u8] = b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n";

/// Both tests count every server thread of this process: one at a time.
fn one_at_a_time() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn system() -> Annoda {
    let c = Corpus::generate(CorpusConfig::tiny(42));
    Annoda::over_sources(c.locuslink, c.go, c.omim).0
}

fn http_server() -> Server {
    Server::start(system(), ServeConfig::default()).expect("bind an ephemeral port")
}

fn afed_server() -> SessionServer {
    // `Ping` is the session layer's; the handler closes on anything else.
    SessionServer::spawn("127.0.0.1:0", ServerConfig::default(), || {
        Box::new(|_| None)
    })
    .expect("bind an ephemeral port")
}

/// The servers' threads alive now, and the sum of their voluntary
/// context switches.
fn server_threads() -> (u64, u64) {
    let (mut threads, mut switches) = (0, 0);
    for task in fs::read_dir("/proc/self/task").expect("/proc/self/task") {
        let dir = task.expect("task entry").path();
        // A thread that exits meanwhile takes its files with it.
        let (Ok(comm), Ok(status)) = (
            fs::read_to_string(dir.join("comm")),
            fs::read_to_string(dir.join("status")),
        ) else {
            continue;
        };
        if !PREFIXES.iter().any(|prefix| comm.starts_with(prefix)) {
            continue;
        }
        threads += 1;
        switches += status
            .lines()
            .find_map(|line| line.strip_prefix("voluntary_ctxt_switches:"))
            .and_then(|n| n.trim().parse::<u64>().ok())
            .expect("voluntary_ctxt_switches");
    }
    (threads, switches)
}

/// Waits until no server thread is left, for at most `grace`: a joined
/// thread's last instructions (its exit) may still be running.
fn server_threads_gone(grace: Duration) -> bool {
    let started = Instant::now();
    while server_threads().0 > 0 {
        if started.elapsed() > grace {
            return false;
        }
        thread::sleep(Duration::from_millis(1));
    }
    true
}

/// Eight keep-alive HTTP connections and eight AFED sessions, each past
/// one answered request, then left idle: their threads and both
/// acceptors block without waking.
#[test]
fn idle_connections_do_not_poll() {
    let _one = one_at_a_time();
    let http = http_server();
    let mut afed = afed_server();
    let afed_addr = afed.addr().to_string();
    let mut held = Vec::new();
    for _ in 0..8 {
        let mut stream = TcpStream::connect(http.addr()).expect("connect");
        stream.write_all(HEALTHZ).expect("send");
        let mut reader = BufReader::new(stream);
        assert_eq!(read_response(&mut reader).expect("answer").0, 200);
        held.push(reader.into_inner());

        let mut session = dial(&afed_addr, Duration::from_secs(1), Duration::from_secs(2))
            .expect("an AFED session");
        proto::send(&mut session, &Message::Ping).expect("ping");
        assert!(matches!(proto::recv(&mut session), Ok(Message::Pong)));
        held.push(session);
    }
    // Every connection thread has written its answer and gone back to
    // its read.
    thread::sleep(Duration::from_millis(100));

    let (threads, before) = server_threads();
    assert_eq!(threads, 18, "2 acceptors and 16 connection threads");
    thread::sleep(Duration::from_millis(500));
    let (threads, after) = server_threads();
    assert_eq!(threads, 18, "every idle connection is still open");
    let woke = after - before;
    assert!(
        woke <= threads,
        "{threads} idle server threads woke {woke} times in 500 ms"
    );

    drop(held);
    assert!(http.shutdown(Duration::from_secs(5)).drained);
    afed.shutdown();
}

/// Dials `addr` and sends `hello` over and over until `stop`, keeping
/// every connection open, so connections arrive while shutdown runs.
fn dial_in_a_loop(addr: SocketAddr, hello: Vec<u8>, stop: Arc<AtomicBool>) -> JoinHandle<()> {
    thread::spawn(move || {
        let mut open = Vec::new();
        while !stop.load(Ordering::SeqCst) {
            match TcpStream::connect_timeout(&addr, Duration::from_millis(200)) {
                Ok(mut stream) => {
                    let _ = stream.write_all(&hello);
                    open.push(stream);
                }
                Err(_) => thread::sleep(Duration::from_millis(1)),
            }
        }
    })
}

/// Shutdown while a client keeps dialing: each of 20 rounds per server
/// returns well inside the idle timeouts (5 s HTTP, 30 s AFED), HTTP
/// reports a drain, and no server thread is left behind. A connection
/// registered after shutdown walked the registry would instead sit out
/// its whole read timeout, and a wake-up connect stuck behind a full
/// backlog would wait out its SYN retries.
#[test]
fn shutdown_racing_accepts_ends_every_connection_thread() {
    let _one = one_at_a_time();
    let mut afed_hello = Vec::new();
    proto::send_hello(&mut afed_hello).expect("encode the hello");
    for round in 0..20u64 {
        let lead = Duration::from_millis(round % 5);

        let http = http_server();
        let stop = Arc::new(AtomicBool::new(false));
        let dialer = dial_in_a_loop(http.addr(), HEALTHZ.to_vec(), Arc::clone(&stop));
        thread::sleep(lead);
        let started = Instant::now();
        let report = http.shutdown(Duration::from_secs(5));
        let took = started.elapsed();
        assert!(report.drained, "round {round}: HTTP drained");
        assert!(
            took < Duration::from_secs(1),
            "round {round}: HTTP took {took:?}"
        );
        assert!(
            server_threads_gone(Duration::from_millis(200)),
            "round {round}: an HTTP thread outlived shutdown"
        );
        stop.store(true, Ordering::SeqCst);
        dialer.join().expect("HTTP dialer");

        let mut afed = afed_server();
        let stop = Arc::new(AtomicBool::new(false));
        let dialer = dial_in_a_loop(afed.addr(), afed_hello.clone(), Arc::clone(&stop));
        thread::sleep(lead);
        let started = Instant::now();
        afed.shutdown();
        let took = started.elapsed();
        assert!(
            took < Duration::from_secs(1),
            "round {round}: AFED took {took:?}"
        );
        assert!(
            server_threads_gone(Duration::from_millis(200)),
            "round {round}: an AFED thread outlived shutdown"
        );
        stop.store(true, Ordering::SeqCst);
        dialer.join().expect("AFED dialer");
    }
}
