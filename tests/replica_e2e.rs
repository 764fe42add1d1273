//! End-to-end failover: a leader and two followers, each a full HTTP
//! server over a WAL-shipping replication link. The centerpiece kills
//! the leader and proves that **no acknowledged write is lost** across
//! promotion — every write durably journaled and replicated before the
//! kill is still answered, byte-for-byte, by the promoted node — and
//! that `/genes` answers are byte-identical before and after failover.
//!
//! Also covered here: the read-your-writes gate
//! (`min_generation`/`min_offset`) end to end — write on the leader,
//! take the position token from `/healthz`, pin the replica read — and
//! the write-path refusals (`403` naming the leader, `409` promoting a
//! leader, `412` for unreachable positions).

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use annoda::{Annoda, DurableSystem, FsyncPolicy, Role};
use annoda_federation::{ServerConfig, TailConfig};
use annoda_replica::{LeaderServer, ReplicaClient};
use annoda_serve::http::read_response;
use annoda_serve::{ServeConfig, Server};
use annoda_sources::{Corpus, CorpusConfig};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "annoda-replica-e2e-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn system() -> Annoda {
    let c = Corpus::generate(CorpusConfig::tiny(42));
    let (mut a, _) = Annoda::over_sources(c.locuslink, c.go, c.omim);
    a.registry_mut().mediator_mut().enable_cache();
    a
}

fn ephemeral() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..ServeConfig::default()
    }
}

fn fast_client() -> TailConfig {
    TailConfig {
        poll_interval: Duration::from_millis(5),
        backoff: Duration::from_millis(10),
        ..TailConfig::default()
    }
}

fn roundtrip(server: &Server, request: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream.write_all(request.as_bytes()).expect("send");
    let mut reader = BufReader::new(stream);
    let (status, body) = read_response(&mut reader).expect("response");
    (status, String::from_utf8_lossy(&body).into_owned())
}

fn get(server: &Server, path: &str) -> (u16, String) {
    roundtrip(
        server,
        &format!(
            "GET {path} HTTP/1.1\r\nHost: t\r\nAccept: text/plain\r\nConnection: close\r\n\r\n"
        ),
    )
}

fn post(server: &Server, path: &str, body: &str) -> (u16, String) {
    roundtrip(
        server,
        &format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        ),
    )
}

/// Pulls a `key: value` line out of a text `/healthz` (or promote) body.
fn field<'a>(body: &'a str, key: &str) -> &'a str {
    body.lines()
        .find_map(|l| l.strip_prefix(key).and_then(|r| r.strip_prefix(": ")))
        .unwrap_or_else(|| panic!("no `{key}:` line in {body:?}"))
}

/// The node's durable `(generation, wal_offset)` write token.
fn position(server: &Server) -> (u64, u64) {
    let (status, body) = get(server, "/healthz");
    assert_eq!(status, 200, "{body}");
    (
        field(&body, "generation").parse().unwrap(),
        field(&body, "wal_offset").parse().unwrap(),
    )
}

fn wait_until(what: &str, mut pred: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(15);
    while Instant::now() < deadline {
        if pred() {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("timed out waiting for {what}");
}

/// A multi-count Lorel probe touching all three sources, so losing any
/// replicated write (e.g. an unplug) changes the answer.
const PROBE: &str = "select count(GML.Gene), count(GML.Function), count(GML.Disease) \
                     from ANNODA-GML GML";

fn probe(server: &Server, query_suffix: &str) -> (u16, String) {
    post(server, &format!("/lorel{query_suffix}"), PROBE)
}

/// Strips result oids (`&650` → `&_`) from a Lorel answer. The answer
/// *objects* are freshly allocated per evaluation (and promotion
/// compacts the allocator), so equality of answers means equality
/// modulo those ids — the counts and structure, not the handles.
fn normalized(answer: &str) -> String {
    let mut out = String::with_capacity(answer.len());
    let mut chars = answer.chars().peekable();
    while let Some(c) = chars.next() {
        out.push(c);
        if c == '&' {
            while chars.peek().is_some_and(|d| d.is_ascii_digit()) {
                chars.next();
            }
            out.push('_');
        }
    }
    out
}

/// A follower node: its own data dir, HTTP server, and shipping client.
struct FollowerNode {
    dir: PathBuf,
    server: Server,
    client: ReplicaClient,
}

fn follower(tag: &str, leader_http: &str, repl_addr: &str) -> FollowerNode {
    let dir = tmp_dir(tag);
    let durable =
        DurableSystem::open_follower(system(), &dir, FsyncPolicy::Always).expect("follower open");
    durable.repl_handle().set_leader_addr(leader_http);
    let server = Server::start_durable(durable, ephemeral()).expect("bind follower");
    let client = ReplicaClient::spawn(Arc::clone(&server.app().system), repl_addr, fast_client());
    FollowerNode {
        dir,
        server,
        client,
    }
}

/// The headline e2e: writes acknowledged by the leader survive its
/// death. Leader + two followers; write, replicate, capture the exact
/// answers; kill the leader; promote follower 1; re-point follower 2 at
/// the new leader. Every answer must come back identical.
#[test]
fn kill_the_leader_loses_no_acknowledged_write() {
    let leader_dir = tmp_dir("leader");
    let durable =
        DurableSystem::open(system(), &leader_dir, FsyncPolicy::Always).expect("leader open");
    let leader = Server::start_durable(durable, ephemeral()).expect("bind leader");
    let leader_http = leader.addr().to_string();
    let mut shipping = LeaderServer::spawn(
        Arc::clone(&leader.app().system),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .expect("bind shipping listener");
    let repl_addr = shipping.addr().to_string();

    let mut f1 = follower("f1", &leader_http, &repl_addr);
    let mut f2 = follower("f2", &leader_http, &repl_addr);

    // Acknowledged write #1: materialise + journal the GML over HTTP.
    let (status, body) = post(&leader, "/admin/refresh", "");
    assert_eq!(status, 200, "{body}");
    // Acknowledged write #2: an unplug, journaled and fsynced before
    // the call returns — the write whose loss would be visible in the
    // Disease count below.
    assert!(
        leader.app().system_mut().unplug("OMIM").expect("unplug"),
        "OMIM was plugged"
    );

    // The client's write token: the leader's durable position.
    let token = position(&leader);
    assert!(token.1 > 0, "writes moved the WAL");

    // Both replicas converge to (at least) the token position.
    wait_until("followers to reach the leader's position", || {
        position(&f1.server) >= token && position(&f2.server) >= token
    });

    // Read-your-writes on a replica: pin the read at the token. The
    // answer must match the leader's own, byte for byte.
    let gate = format!("?min_generation={}&min_offset={}", token.0, token.1);
    let (status, leader_answer) = probe(&leader, "");
    assert_eq!(status, 200, "{leader_answer}");
    for f in [&f1, &f2] {
        let (status, answer) = probe(&f.server, &gate);
        assert_eq!(status, 200, "{answer}");
        assert_eq!(
            normalized(&answer),
            normalized(&leader_answer),
            "pinned replica read diverged"
        );
    }

    // Followers refuse writes, naming the leader's HTTP address.
    let (status, body) = post(&f1.server, "/admin/refresh", "");
    assert_eq!(status, 403, "{body}");
    assert!(body.contains("read-only follower"), "{body}");
    assert!(
        body.contains(&leader_http),
        "403 should name the leader: {body}"
    );

    // Capture the integrated view, then kill the leader outright.
    let (_, genes_before) = get(&f1.server, "/genes");
    shipping.shutdown();
    leader.shutdown(Duration::from_secs(5));

    // Failover: promote follower 1.
    let (status, body) = post(&f1.server, "/admin/promote", "");
    assert_eq!(status, 200, "{body}");
    assert_eq!(field(&body, "role"), "leader");
    let promoted_generation: u64 = field(&body, "generation").parse().unwrap();
    assert!(
        promoted_generation > token.0,
        "promotion seals the old log behind a new generation"
    );
    f1.client.shutdown();

    // Zero acknowledged-write loss: the promoted node still answers
    // exactly what the dead leader acknowledged...
    let (status, answer) = probe(&f1.server, "");
    assert_eq!(status, 200, "{answer}");
    assert_eq!(
        normalized(&answer),
        normalized(&leader_answer),
        "acknowledged write lost in failover"
    );
    // ...and `/genes` is byte-identical across the promotion.
    let (status, genes_after) = get(&f1.server, "/genes");
    assert_eq!(status, 200);
    assert_eq!(genes_after, genes_before, "/genes changed across failover");

    // The promoted node is a writable leader now.
    let (status, body) = post(&f1.server, "/admin/refresh", "");
    assert_eq!(status, 200, "promoted node must accept writes: {body}");
    let new_token = position(&f1.server);

    // Re-point follower 2 at the new leader. Its WAL is a prefix of the
    // *old* leader's log, so resuming must trigger a fresh snapshot
    // bootstrap (new generation), never a silent divergence.
    f2.client.shutdown();
    let mut new_shipping = LeaderServer::spawn(
        Arc::clone(&f1.server.app().system),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .expect("bind new shipping listener");
    let f2_system: Arc<RwLock<DurableSystem>> = Arc::clone(&f2.server.app().system);
    f2.server
        .app()
        .system()
        .repl_handle()
        .set_leader_addr(&f1.server.addr().to_string());
    let mut f2_client =
        ReplicaClient::spawn(f2_system, &new_shipping.addr().to_string(), fast_client());
    wait_until("follower 2 to converge on the new leader", || {
        position(&f2.server) >= new_token
    });
    let (status, answer) = probe(
        &f2.server,
        &format!("?min_generation={}&min_offset={}", new_token.0, new_token.1),
    );
    assert_eq!(status, 200, "{answer}");
    let (_, expected) = probe(&f1.server, "");
    assert_eq!(
        normalized(&answer),
        normalized(&expected),
        "re-pointed replica diverged"
    );

    f2_client.shutdown();
    new_shipping.shutdown();
    f1.server.shutdown(Duration::from_secs(5));
    f2.server.shutdown(Duration::from_secs(5));
    let _ = std::fs::remove_dir_all(&leader_dir);
    let _ = std::fs::remove_dir_all(&f1.dir);
    let _ = std::fs::remove_dir_all(&f2.dir);
}

/// The consistency gate on a single durable leader: satisfied positions
/// answer `200`, unreachable ones stall then `412`, malformed ones
/// `400`, and promoting a node that is already the leader is `409`.
#[test]
fn gate_and_admin_edges_on_a_leader() {
    let dir = tmp_dir("gate");
    let durable = DurableSystem::open(system(), &dir, FsyncPolicy::Always).expect("open");
    let server = Server::start_durable(durable, ephemeral()).expect("bind");
    let (status, _) = post(&server, "/admin/refresh", "");
    assert_eq!(status, 200);
    let (generation, offset) = position(&server);

    // Already satisfied: the leader is trivially at its own position.
    let (status, _) = get(
        &server,
        &format!("/genes?min_generation={generation}&min_offset={offset}"),
    );
    assert_eq!(status, 200);
    // A later generation is unreachable without more writes: the gate
    // stalls its bounded window, then answers 412.
    let t = Instant::now();
    let (status, body) = get(
        &server,
        &format!("/genes?min_generation={}", generation + 1),
    );
    assert_eq!(status, 412, "{body}");
    assert!(
        t.elapsed() >= Duration::from_millis(400),
        "the gate should stall before giving up, took {:?}",
        t.elapsed()
    );
    // Malformed pins are client errors, not stalls.
    let (status, body) = get(&server, "/genes?min_generation=soon");
    assert_eq!(status, 400, "{body}");
    let (status, body) = get(&server, "/genes?min_offset=9");
    assert_eq!(status, 400, "min_offset without min_generation: {body}");
    // Promoting the leader is a conflict, not a no-op.
    let (status, body) = post(&server, "/admin/promote", "");
    assert_eq!(status, 409, "{body}");
    assert!(body.contains("already the leader"), "{body}");

    server.shutdown(Duration::from_secs(5));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A node with no durable position (no `--data-dir`) can never satisfy
/// a pinned read: `412` immediately, because there is no WAL to wait on.
#[test]
fn gate_on_a_non_durable_node_is_precondition_failed() {
    let server = Server::start_durable(DurableSystem::new(system()), ephemeral()).expect("bind");
    let (status, body) = get(&server, "/genes?min_generation=0");
    assert_eq!(status, 412, "{body}");
    assert!(body.contains("no durable position"), "{body}");
    assert_eq!(server.app().system().role(), Role::Leader);
    server.shutdown(Duration::from_secs(5));
}
