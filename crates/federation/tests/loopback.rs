//! Client ↔ server loopback tests over real sockets.

use std::net::TcpStream;
use std::time::{Duration, Instant};

use annoda_federation::proto::{self, Message};
use annoda_federation::{
    dial, BreakerConfig, BreakerState, ClientConfig, FaultConfig, RemoteWrapper, ServerConfig,
    SessionServer, SourceServer,
};
use annoda_persist::encode_store;
use annoda_sources::{Corpus, CorpusConfig};
use annoda_wrap::{Cost, LocusLinkWrapper, WrapError, Wrapper};

fn local_wrapper() -> LocusLinkWrapper {
    LocusLinkWrapper::new(Corpus::generate(CorpusConfig::tiny(7)).locuslink)
}

fn spawn_server(fault: FaultConfig) -> SourceServer {
    SourceServer::spawn(
        Box::new(local_wrapper()),
        "127.0.0.1:0",
        ServerConfig {
            fault,
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port")
}

fn fast_client() -> ClientConfig {
    ClientConfig {
        connect_timeout: Duration::from_millis(500),
        request_timeout: Duration::from_secs(2),
        retries: 2,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(4),
        ..ClientConfig::default()
    }
}

#[test]
fn remote_wrapper_mirrors_the_local_one() {
    let server = spawn_server(FaultConfig::none());
    let remote = RemoteWrapper::connect(&server.addr().to_string(), fast_client()).unwrap();
    let local = local_wrapper();

    // Identity: description, OML bytes, schema paths.
    assert_eq!(remote.description(), local.description());
    assert_eq!(encode_store(remote.oml()), encode_store(local.oml()));
    assert_eq!(remote.schema_paths(), local.schema_paths());

    // A subquery ships the same fragment and charges the same virtual
    // cost; wall-clock is additionally measured on the remote side.
    let q = r#"select L.Symbol, L.LocusID from LocusLink.Locus L"#;
    let mut lc = Cost::new();
    let local_res = local.subquery(q, &mut lc).unwrap();
    let mut rc = Cost::new();
    let remote_res = remote.subquery(q, &mut rc).unwrap();
    assert_eq!(remote_res.rows, local_res.rows);
    assert_eq!(
        encode_store(&remote_res.store),
        encode_store(&local_res.store)
    );
    assert_eq!(remote_res.root, local_res.root);
    assert_eq!(rc.requests, lc.requests);
    assert_eq!(rc.records, lc.records);
    assert_eq!(rc.virtual_us, lc.virtual_us);
    assert!(rc.wall_us > 0, "round trip must be timed");
    assert_eq!(lc.wall_us, 0, "in-process work is not timed");

    // Refusals come back as answers, not transport errors.
    let err = remote.subquery("select", &mut Cost::new()).unwrap_err();
    assert!(matches!(err, WrapError::Query(_)));
    assert!(!err.is_retryable());
    let snap = remote.stats_snapshot();
    assert_eq!(snap.refusals, 1);
    assert_eq!(snap.transport_errors, 0);
    assert_eq!(snap.breaker, BreakerState::Closed);

    assert!(remote.ping().is_ok());
}

#[test]
fn refresh_ships_the_new_model() {
    let server = spawn_server(FaultConfig::none());
    let mut remote = RemoteWrapper::connect(&server.addr().to_string(), fast_client()).unwrap();
    let before = remote.oml().len();
    let objects = remote.refresh();
    assert_eq!(objects, remote.oml().len());
    assert_eq!(objects, before, "same corpus re-exports the same model");
}

#[test]
fn dropped_connections_are_retried_transparently() {
    // The server kills the first 2 connections before the handshake;
    // with 2 retries the client still gets through everywhere.
    let server = spawn_server(FaultConfig {
        drop_first: 2,
        drop_every: 0,
        ..FaultConfig::none()
    });
    let remote = RemoteWrapper::connect(&server.addr().to_string(), fast_client()).unwrap();
    let mut cost = Cost::new();
    let res = remote
        .subquery("select L from LocusLink.Locus L", &mut cost)
        .unwrap();
    assert!(res.rows > 0);
    let snap = remote.stats_snapshot();
    assert!(snap.retries >= 2, "the two faulted dials were retried");
    assert!(snap.transport_errors >= 2);
    assert_eq!(snap.breaker, BreakerState::Closed);
    assert!(
        server
            .stats()
            .faulted
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 2
    );
}

#[test]
fn dead_server_trips_the_breaker_and_cooldown_recovers() {
    let mut server = spawn_server(FaultConfig::none());
    let addr = server.addr().to_string();
    let config = ClientConfig {
        retries: 0,
        breaker: BreakerConfig {
            failure_threshold: 2,
            cooldown: Duration::from_millis(50),
        },
        connect_timeout: Duration::from_millis(300),
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(2),
        ..ClientConfig::default()
    };
    let remote = RemoteWrapper::connect(&addr, config).unwrap();
    let q = "select L from LocusLink.Locus L";
    assert!(remote.subquery(q, &mut Cost::new()).is_ok());

    // Take the server down: requests fail, the second trips the breaker.
    server.shutdown();
    drop(server);
    for _ in 0..2 {
        let err = remote.subquery(q, &mut Cost::new()).unwrap_err();
        assert!(err.is_retryable(), "transport loss: {err}");
    }
    assert_eq!(remote.breaker_state(), BreakerState::Open);
    // While open, failures are local fast-fails (no new transport hit).
    let before = remote.stats_snapshot().transport_errors;
    let err = remote.subquery(q, &mut Cost::new()).unwrap_err();
    assert!(matches!(err, WrapError::Transport(ref m) if m.contains("circuit open")));
    assert_eq!(remote.stats_snapshot().transport_errors, before);
    assert_eq!(remote.stats_snapshot().fast_failures, 1);
    assert!(remote.stats_snapshot().breaker_opens >= 1);

    // After the cooldown the breaker probes; the server is still gone,
    // so it re-opens — but the probe did reach the wire.
    std::thread::sleep(Duration::from_millis(60));
    let _ = remote.subquery(q, &mut Cost::new()).unwrap_err();
    assert_eq!(remote.breaker_state(), BreakerState::Open);
    assert!(remote.stats_snapshot().transport_errors > before);
}

#[test]
fn shutdown_is_idempotent_and_frees_the_port() {
    let mut server = spawn_server(FaultConfig::none());
    let addr = server.addr().to_string();
    server.shutdown();
    server.shutdown();
    drop(server);
    // The listener is closed: connects are refused (or time out), not
    // accepted-and-ignored.
    assert!(RemoteWrapper::connect(
        &addr,
        ClientConfig {
            connect_timeout: Duration::from_millis(300),
            retries: 0,
            backoff_base: Duration::ZERO,
            ..ClientConfig::default()
        }
    )
    .is_err());
}

#[test]
fn shutdown_returns_promptly_while_sessions_sit_idle() {
    // Ping is the session layer's; the handler closes on anything else.
    let config = ServerConfig::default();
    let mut server = SessionServer::spawn("127.0.0.1:0", config, || Box::new(|_| None)).unwrap();
    let addr = server.addr().to_string();
    // Every worker holds a live session (proven by a round trip) that
    // then sits idle well inside the 30 s read timeout; one more
    // connection waits in the queue without ever saying hello.
    let mut idle = Vec::new();
    for _ in 0..config.workers {
        let mut conn = dial(&addr, Duration::from_millis(500), Duration::from_secs(2)).unwrap();
        proto::send(&mut conn, &Message::Ping).unwrap();
        assert!(matches!(proto::recv(&mut conn).unwrap(), Message::Pong));
        idle.push(conn);
    }
    idle.push(TcpStream::connect(&addr).unwrap());

    let started = Instant::now();
    server.shutdown();
    let took = started.elapsed();
    assert!(
        took < Duration::from_secs(1),
        "shutdown took {took:?} with idle sessions open"
    );
}
