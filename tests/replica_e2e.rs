//! End-to-end replication: a leader and followers, each a full HTTP
//! server, the followers subscribed to the leader's change feeds. The
//! centerpiece kills the leader and proves that **no acknowledged write
//! is lost** across promotion — every write the leader absorbed and its
//! feeds carried before the kill is still answered, byte-for-byte, by
//! the promoted node — and that a follower re-pointed at the new leader
//! bootstraps and converges.
//!
//! Also covered here: a follower's `/genes` and `/search` bodies equal
//! its leader's after a source feed write, the read-your-writes gate
//! (`?min_position=`) end to end in one- and four-shard stores — write
//! on the leader, take the position token from `/healthz`, pin the
//! replica read — and the write-path refusals (`403` naming the leader,
//! `409` promoting a leader, `412` for positions a node cannot reach).

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use annoda::{Annoda, DurableSystem, FsyncPolicy, Role};
use annoda_federation::{ChangeRecord, ServerConfig, SourceServer, TailConfig};
use annoda_replica::LeaderServer;
use annoda_serve::http::read_response;
use annoda_serve::{ServeConfig, Server};
use annoda_sources::{Corpus, CorpusConfig};
use annoda_stream::StreamClient;
use annoda_wrap::{scripted_mutation, LocusLinkWrapper, OmimWrapper, Wrapper};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "annoda-replica-e2e-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn corpus() -> Corpus {
    Corpus::generate(CorpusConfig::tiny(42))
}

fn system() -> Annoda {
    let c = corpus();
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

/// A feed server with a worker for each session it serves: a follower
/// holds one per source it follows.
fn feed_server() -> ServerConfig {
    ServerConfig {
        workers: 8,
        ..ServerConfig::default()
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

fn get_as(server: &Server, path: &str, accept: &str) -> (u16, String) {
    roundtrip(
        server,
        &format!("GET {path} HTTP/1.1\r\nHost: t\r\nAccept: {accept}\r\nConnection: close\r\n\r\n"),
    )
}

fn get(server: &Server, path: &str) -> (u16, String) {
    get_as(server, path, "text/plain")
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

/// The node's write token: its `/healthz` positions.
fn position(server: &Server) -> String {
    let (status, body) = get(server, "/healthz");
    assert_eq!(status, 200, "{body}");
    field(&body, "positions").to_string()
}

/// The sequence a token holds for `source`.
fn seq_of(token: &str, source: &str) -> u64 {
    let pair = token
        .split(',')
        .find_map(|p| p.strip_prefix(&format!("{source}:")));
    pair.unwrap_or_else(|| panic!("no {source} in {token}"))
        .parse()
        .unwrap()
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

/// Strips result oids (`&650` → `&_`) from a Lorel answer: answer
/// objects are freshly allocated per evaluation, so equal answers are
/// equal modulo those ids.
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

/// A follower node: its own data dir, HTTP server, and one leader-feed
/// tailer per source it holds.
struct FollowerNode {
    dir: PathBuf,
    server: Server,
    clients: Vec<StreamClient>,
}

fn follower(tag: &str, leader_http: &str, feed_addr: &str) -> FollowerNode {
    let dir = tmp_dir(tag);
    let durable =
        DurableSystem::open_sharded(system(), &dir, FsyncPolicy::Always, 1).expect("follower open");
    durable.follow(leader_http);
    let server = Server::start_durable(durable, ephemeral()).expect("bind follower");
    let app = server.app();
    let sources = app.system().positions();
    let clients = (sources.into_iter())
        .map(|(source, _)| {
            let system = Arc::clone(&app.system);
            let client = StreamClient::follow(system, &source, feed_addr, fast_client());
            app.register_feed(client.gauges());
            client
        })
        .collect();
    FollowerNode {
        dir,
        server,
        clients,
    }
}

/// A scripted LocusLink revision, as the leader's feed would carry it.
fn locuslink_record(step: u64) -> ChangeRecord {
    let mut feed = LocusLinkWrapper::new(corpus().locuslink);
    let mut last = None;
    for s in 0..=step {
        last = scripted_mutation(&mut feed, 21, s);
    }
    let (key, flat) = last.expect("LocusLink mutates");
    ChangeRecord {
        key,
        flat: Some(flat),
    }
}

/// The headline e2e: writes acknowledged by the leader survive its
/// death. Leader + two followers; write, replicate, capture the exact
/// answers; kill the leader; promote follower 1; re-point follower 2 at
/// the new leader. Every answer must come back identical.
#[test]
fn kill_the_leader_loses_no_acknowledged_write() {
    let leader_dir = tmp_dir("leader");
    let durable = DurableSystem::open_sharded(system(), &leader_dir, FsyncPolicy::Always, 1)
        .expect("leader open");
    let leader = Server::start_durable(durable, ephemeral()).expect("bind leader");
    let leader_http = leader.addr().to_string();
    let mut shipping = LeaderServer::spawn(
        Arc::clone(&leader.app().system),
        "127.0.0.1:0",
        feed_server(),
    )
    .expect("bind the feed listener");
    let feed_addr = shipping.addr().to_string();

    let mut f1 = follower("f1", &leader_http, &feed_addr);
    let mut f2 = follower("f2", &leader_http, &feed_addr);

    // Acknowledged write #1: a LocusLink record the leader absorbs, as
    // its source feed would deliver it.
    let record = locuslink_record(0);
    let app = leader.app();
    let absorbed = app.system_mut().absorb_delta("LocusLink", &[record], false);
    assert!(
        absorbed.expect("absorb").changed_shards > 0,
        "a real GML change"
    );
    // Acknowledged write #2: an unplug — the write whose loss would be
    // visible in the Disease count below.
    assert!(
        leader.app().system_mut().unplug("OMIM").expect("unplug"),
        "OMIM was plugged"
    );

    // The client's write token: the leader's positions.
    let token = position(&leader);
    assert!(!token.contains("OMIM"), "{token}");
    wait_until("followers to reach the leader's positions", || {
        position(&f1.server) == token && position(&f2.server) == token
    });

    // Read-your-writes on a replica: pin the read at the token. The
    // answer must match the leader's own, byte for byte.
    let gate = format!("?min_position={token}");
    let (status, leader_answer) = probe(&leader, "");
    assert_eq!(status, 200, "{leader_answer}");
    let (_, leader_genes) = get(&leader, "/genes");
    for f in [&f1, &f2] {
        let (status, answer) = probe(&f.server, &gate);
        assert_eq!(status, 200, "{answer}");
        assert_eq!(
            normalized(&answer),
            normalized(&leader_answer),
            "pinned replica read diverged"
        );
        assert_eq!(get(&f.server, "/genes").1, leader_genes, "/genes diverged");
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

    // Failover: promote follower 1. Its journals are its own
    // incarnations, never the dead leader's.
    let (status, body) = post(&f1.server, "/admin/promote", "");
    assert_eq!(status, 200, "{body}");
    assert_eq!(field(&body, "role"), "leader");
    let promoted = field(&body, "positions").to_string();
    let incarnation = |token: &str| seq_of(token, "LocusLink") >> 32;
    assert_ne!(incarnation(&promoted), incarnation(&token), "{promoted}");
    for client in &mut f1.clients {
        client.shutdown();
    }

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
    let record = locuslink_record(1);
    let app = f1.server.app();
    app.system_mut()
        .absorb_delta("LocusLink", &[record], false)
        .expect("absorb on the new leader");
    let new_token = position(&f1.server);

    // Re-point follower 2 at the new leader. Its cursors come from the
    // dead leader's incarnation, so it bootstraps, never diverges.
    let mut new_shipping = LeaderServer::spawn(
        Arc::clone(&f1.server.app().system),
        "127.0.0.1:0",
        feed_server(),
    )
    .expect("bind the new feed listener");
    f2.server
        .app()
        .system()
        .follow(&f1.server.addr().to_string());
    for client in &f2.clients {
        client.set_addr(&new_shipping.addr().to_string());
    }
    wait_until("follower 2 to converge on the new leader", || {
        position(&f2.server) == new_token
    });
    let (status, answer) = probe(&f2.server, &format!("?min_position={new_token}"));
    assert_eq!(status, 200, "{answer}");
    let (_, expected) = probe(&f1.server, "");
    assert_eq!(
        normalized(&answer),
        normalized(&expected),
        "re-pointed replica diverged"
    );
    assert_eq!(get(&f2.server, "/genes").1, get(&f1.server, "/genes").1);
    let ll = f2.clients[0].gauges().snapshot();
    assert_eq!((ll.source.as_str(), ll.bootstraps), ("LocusLink", 2));

    for client in &mut f2.clients {
        client.shutdown();
    }
    new_shipping.shutdown();
    f1.server.shutdown(Duration::from_secs(5));
    f2.server.shutdown(Duration::from_secs(5));
    let _ = std::fs::remove_dir_all(&leader_dir);
    let _ = std::fs::remove_dir_all(&f1.dir);
    let _ = std::fs::remove_dir_all(&f2.dir);
}

/// A source-server whose mutations journal into its feed.
fn source_server(wrapper: Box<dyn Wrapper>) -> SourceServer {
    SourceServer::spawn(wrapper, "127.0.0.1:0", ServerConfig::default()).expect("bind source")
}

/// One scripted mutation of a source-server's database, journaled — what
/// `source-server --mutate-every` does per tick.
fn mutate(server: &SourceServer, step: u64) {
    let mut w = server.wrapper().write().unwrap();
    let (key, flat) = scripted_mutation(&mut **w, 5, step).expect("mutable source");
    server.journal().append(ChangeRecord {
        key,
        flat: Some(flat),
    });
    w.refresh();
}

/// The follower half of a stale-source defect: the follower derives
/// `/genes` and `/search` from the records its leader absorbed from its
/// source feeds, not from the corpus it generated at start.
#[test]
fn a_followers_genes_and_search_equal_the_leaders_after_a_feed_write() {
    let c = corpus();
    let sources = [
        source_server(Box::new(LocusLinkWrapper::new(c.locuslink.clone()))),
        source_server(Box::new(OmimWrapper::new(c.omim.clone()))),
    ];
    let leader = Server::start_durable(DurableSystem::new(system()), ephemeral()).expect("bind");
    let upstream: Vec<StreamClient> = (sources.iter())
        .map(|s| {
            let system = Arc::clone(&leader.app().system);
            let client =
                StreamClient::spawn(system, s.name(), &s.addr().to_string(), fast_client());
            leader.app().register_feed(client.gauges());
            client
        })
        .collect();
    let mut shipping = LeaderServer::spawn(
        Arc::clone(&leader.app().system),
        "127.0.0.1:0",
        feed_server(),
    )
    .expect("bind the feed listener");
    let mut f = follower(
        "f1-feed",
        &leader.addr().to_string(),
        &shipping.addr().to_string(),
    );

    for step in 0..3 {
        for source in &sources {
            mutate(source, step);
        }
    }
    wait_until("the leader to absorb its sources' feeds", || {
        (upstream.iter().zip(&sources)).all(|(client, source)| {
            let head = source.journal().window().head;
            client
                .gauges()
                .applied_seq
                .load(std::sync::atomic::Ordering::Acquire)
                == head
        })
    });
    let token = position(&leader);
    wait_until("the follower to reach the leader", || {
        position(&f.server) == token
    });
    // Bodies agree byte for byte, apart from `/search`'s `epoch`: the
    // number of the node's own serving snapshot.
    let body = |server: &Server, path: &str, accept: &str| {
        let (status, body) = get_as(server, path, accept);
        assert_eq!(status, 200, "{path}: {body}");
        let epoch = |l: &str| l.starts_with("epoch: ");
        let json = body.split(',').filter(|f| !f.starts_with("\"epoch\":"));
        match accept {
            "text/plain" => body
                .lines()
                .filter(|l| !epoch(l))
                .collect::<Vec<_>>()
                .join("\n"),
            _ => json.collect::<Vec<_>>().join(","),
        }
    };
    for accept in ["text/plain", "application/json"] {
        for path in ["/genes", "/search?q=penetrance", "/search?q=protein&k=5"] {
            let expected = body(&leader, path, accept);
            assert_eq!(body(&f.server, path, accept), expected, "{path} {accept}");
        }
    }
    let (_, hits) = get(&f.server, "/search?q=penetrance");
    assert!(
        hits.lines().count() > 1,
        "the streamed OMIM text is found: {hits}"
    );

    for client in f.clients.iter_mut() {
        client.shutdown();
    }
    for mut client in upstream {
        client.shutdown();
    }
    shipping.shutdown();
    f.server.shutdown(Duration::from_secs(5));
    leader.shutdown(Duration::from_secs(5));
    let _ = std::fs::remove_dir_all(&f.dir);
}

/// The consistency gate in a one- and a four-shard store. On a leader:
/// its own positions answer `200`; more than its head, another
/// incarnation and an unknown source are `412` at once; malformed pins
/// `400`; promoting it is `409`. On a follower whose feeds are behind:
/// it stalls, then `412`.
#[test]
fn gate_and_admin_edges_on_a_leader() {
    for shards in [1, 4] {
        let dir = tmp_dir(&format!("gate-{shards}"));
        let durable =
            DurableSystem::open_sharded(system(), &dir, FsyncPolicy::Always, shards).expect("open");
        let server = Server::start_durable(durable, ephemeral()).expect("bind");
        let before = position(&server);
        let app = server.app();
        let absorbed = app
            .system_mut()
            .absorb_delta("LocusLink", &[locuslink_record(0)], false);
        absorbed.expect("absorb");
        let token = position(&server);
        let head = seq_of(&token, "LocusLink");
        assert_eq!(head, seq_of(&before, "LocusLink") + 1, "{shards}: {token}");
        assert_eq!(seq_of(&token, "GO"), 0, "GO never changes here");

        let pinned = |server: &Server, pin: &str| {
            let t = Instant::now();
            let (status, body) = get(server, &format!("/genes?min_position={pin}"));
            (status, body, t.elapsed())
        };
        let (status, body, _) = pinned(&server, &token);
        assert_eq!(status, 200, "{shards}: {body}");
        let (status, body, _) = pinned(&server, &format!("LocusLink:{},GO:0", head - 1));
        assert_eq!(
            status, 200,
            "{shards}: an older position is reached: {body}"
        );
        let quick = Duration::from_millis(400);
        for (pin, why) in [
            (format!("LocusLink:{}", head + 1), "has not reached"),
            (
                format!("LocusLink:{}", head ^ (1 << 32)),
                "another incarnation",
            ),
            ("LocusLink:7".to_string(), "another incarnation"),
            ("NOPE:1".to_string(), "does not serve NOPE"),
        ] {
            let (status, body, took) = pinned(&server, &pin);
            assert_eq!(status, 412, "{shards}: {pin}: {body}");
            assert!(
                body.contains(why) && !body.contains("replica"),
                "{pin}: {body}"
            );
            assert!(
                took < quick,
                "{shards}: {pin} answers at once, took {took:?}"
            );
        }
        for pin in ["soon", "LocusLink:soon", ":5", "LocusLink:1,"] {
            let (status, body, _) = pinned(&server, pin);
            assert_eq!(status, 400, "{shards}: {pin}: {body}");
        }
        let (status, body) = post(&server, "/admin/promote", "");
        assert_eq!(status, 409, "{body}");
        assert!(body.contains("already the leader"), "{body}");
        server.shutdown(Duration::from_secs(5));

        // A follower whose feeds have absorbed nothing is behind every
        // position of its leader's: it stalls its bounded window, then
        // answers 412.
        let lagging = DurableSystem::new_sharded(system(), shards).expect("shard");
        lagging.follow("127.0.0.1:1");
        let server = Server::start_durable(lagging, ephemeral()).expect("bind");
        let (status, body, took) = pinned(&server, &token);
        assert_eq!(status, 412, "{shards}: {body}");
        assert!(
            took >= quick,
            "{shards}: the gate stalls first, took {took:?}"
        );
        assert!(body.contains("retry or read the leader"), "{body}");
        let (status, body, _) = pinned(&server, "GO:0");
        assert_eq!(status, 200, "{shards}: {body}");
        server.shutdown(Duration::from_secs(5));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A node without a data directory has positions too, and a token from
/// another node's journals is a precondition it can never meet: `412`
/// at once.
#[test]
fn gate_on_a_non_durable_node_is_precondition_failed() {
    let server = Server::start_durable(DurableSystem::new(system()), ephemeral()).expect("bind");
    let token = position(&server);
    let (status, body) = get(&server, &format!("/genes?min_position={token}"));
    assert_eq!(status, 200, "its own positions: {body}");
    let (status, body) = get(&server, "/genes?min_position=LocusLink:1");
    assert_eq!(status, 412, "{body}");
    assert!(body.contains("another incarnation"), "{body}");
    assert_eq!(server.app().system().role(), Role::Leader);
    server.shutdown(Duration::from_secs(5));
}
