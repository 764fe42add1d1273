//! Socket-level replication: a real [`LeaderServer`] serving a leader's
//! change feeds over TCP to a follower whose one tailer per source is a
//! [`StreamClient::follow`].

use std::sync::atomic::Ordering;
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use annoda::{Annoda, DurableSystem, FsyncPolicy, GeneQuestion, Role};
use annoda_federation::{ChangeRecord, FaultConfig, ServerConfig, TailConfig};
use annoda_persist::encode_store;
use annoda_replica::LeaderServer;
use annoda_sources::{Corpus, CorpusConfig};
use annoda_stream::StreamClient;
use annoda_wrap::{scripted_mutation, LocusLinkWrapper};

type Shared = Arc<RwLock<DurableSystem>>;

fn system() -> Annoda {
    let c = Corpus::generate(CorpusConfig::tiny(42));
    Annoda::over_sources(c.locuslink, c.go, c.omim).0
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("annoda-replsock-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn fast_client() -> TailConfig {
    TailConfig {
        poll_interval: Duration::from_millis(5),
        backoff: Duration::from_millis(10),
        ..TailConfig::default()
    }
}

/// Polls `pred` for up to ten seconds, panicking with `what` on expiry.
fn wait_until(what: &str, mut pred: impl FnMut() -> bool) {
    let start = Instant::now();
    while !pred() {
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "timed out waiting for {what}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A durable one-shard leader behind a feed server with `config`.
fn leader(dir: &std::path::Path, config: ServerConfig) -> (Shared, LeaderServer) {
    let sys = DurableSystem::open_sharded(system(), dir, FsyncPolicy::Always, 1).unwrap();
    let leader = Arc::new(RwLock::new(sys));
    let server = LeaderServer::spawn(Arc::clone(&leader), "127.0.0.1:0", config).unwrap();
    (leader, server)
}

/// An in-memory four-shard follower of the feeds at `addr`: the store
/// shape is the follower's own business.
fn follower(addr: &str) -> (Shared, Vec<StreamClient>) {
    let sys = DurableSystem::new_sharded(system(), 4).unwrap();
    sys.follow(addr);
    let follower = Arc::new(RwLock::new(sys));
    let clients = tail(&follower, addr);
    (follower, clients)
}

/// One leader-feed tailer per source `follower` holds.
fn tail(follower: &Shared, addr: &str) -> Vec<StreamClient> {
    let sources = follower.read().unwrap().positions();
    let follow = |(source, _): (String, u64)| {
        StreamClient::follow(Arc::clone(follower), &source, addr, fast_client())
    };
    sources.into_iter().map(follow).collect()
}

/// Whether every feed of the leader's is absorbed up to its head, and
/// the follower holds exactly the leader's sources.
fn caught_up(leader: &Shared, follower: &Shared, clients: &[StreamClient]) -> bool {
    let applied = |source: &str| {
        let feed = clients.iter().find(|c| c.gauges().source == source)?;
        Some(feed.gauges().applied_seq.load(Ordering::Acquire))
    };
    let heads = leader.read().unwrap().positions();
    let held = follower.read().unwrap().positions();
    held.len() == heads.len() && heads.iter().all(|(s, head)| applied(s) == Some(*head))
}

/// What the follower derives equals what the leader does: the `/genes`
/// answer and the assembled store.
fn assert_converged(leader: &Shared, follower: &Shared) {
    let ask = |sys: &Shared| {
        let sys = sys.read().unwrap();
        let answer = sys.annoda().ask(&GeneQuestion::default()).unwrap();
        let store = encode_store(&sys.query_snapshot().unwrap().store);
        (format!("{:?}", answer.fused), store)
    };
    assert!(ask(follower) == ask(leader), "the follower diverged");
}

/// A scripted LocusLink revision the leader absorbs as its feed would.
fn leader_write(leader: &Shared, step: u64) {
    let c = Corpus::generate(CorpusConfig::tiny(42));
    let mut feed = LocusLinkWrapper::new(c.locuslink);
    let mut last = None;
    for s in 0..=step {
        last = scripted_mutation(&mut feed, 5, s);
    }
    let (key, flat) = last.unwrap();
    let record = ChangeRecord {
        key,
        flat: Some(flat),
    };
    let mut sys = leader.write().unwrap();
    sys.absorb_delta("LocusLink", &[record], false).unwrap();
}

#[test]
fn follower_bootstraps_and_tails_live_writes() {
    let dir = tmp_dir("boot-leader");
    let (leader, server) = leader(&dir, ServerConfig::default());
    // A snapshot and a write before anyone subscribes.
    leader.write().unwrap().snapshot().unwrap();
    leader_write(&leader, 0);
    let (follower, mut clients) = follower(&server.addr().to_string());

    wait_until("bootstrap to converge", || {
        caught_up(&leader, &follower, &clients)
    });
    assert_converged(&leader, &follower);
    for client in &clients {
        let g = client.gauges().snapshot();
        let dumps = u64::from(g.source != "GO");
        assert_eq!(g.bootstraps, dumps, "{}: bootstraps", g.source);
    }

    // Live acknowledged writes tail over the wire, one record each.
    let before = clients[0].gauges().snapshot().records;
    for step in 1..4 {
        leader_write(&leader, step);
        wait_until("a live write to replicate", || {
            caught_up(&leader, &follower, &clients)
        });
        assert_converged(&leader, &follower);
    }
    let ll = clients[0].gauges().snapshot();
    assert_eq!((ll.source.as_str(), ll.records), ("LocusLink", before + 3));
    assert_eq!(ll.lag_records, 0);

    // An unplug: the leader's feed answers SourceGone, the follower
    // unplugs OMIM too.
    assert!(leader.write().unwrap().unplug("OMIM").unwrap());
    wait_until("the unplug to replicate", || {
        caught_up(&leader, &follower, &clients)
    });
    assert_converged(&leader, &follower);

    for client in &mut clients {
        client.shutdown();
    }
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_frames_force_resubscribe_never_divergence() {
    let dir = tmp_dir("corrupt-leader");
    // The first two reply frames arrive with a flipped byte; the
    // framing checksum must catch both and the tailer re-subscribe.
    let config = ServerConfig {
        fault: FaultConfig {
            corrupt_first_replies: 2,
            ..FaultConfig::none()
        },
        ..ServerConfig::default()
    };
    let (leader, server) = leader(&dir, config);
    leader_write(&leader, 0);
    let (follower, mut clients) = follower(&server.addr().to_string());

    wait_until("convergence despite corruption", || {
        caught_up(&leader, &follower, &clients)
    });
    let resubscribes: u64 = (clients.iter())
        .map(|c| c.gauges().resubscribes.load(Ordering::Relaxed))
        .sum();
    assert!(
        resubscribes >= 2,
        "each damaged frame tears a subscription down (saw {resubscribes})"
    );
    assert_converged(&leader, &follower);

    for client in &mut clients {
        client.shutdown();
    }
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A follower's cursors live in memory, so a restarted follower re-seeds
/// by bootstrap; a promoted one stops its tailers and takes writes.
#[test]
fn promotion_stops_the_tailers_and_a_restarted_follower_reseeds_by_bootstrap() {
    let dir = tmp_dir("promo-leader");
    let (leader, server) = leader(&dir, ServerConfig::default());
    let addr = server.addr().to_string();
    let (follower, mut clients) = follower(&addr);
    wait_until("initial convergence", || {
        caught_up(&leader, &follower, &clients)
    });

    // Restart the follower: a fresh system and fresh tailers.
    for client in &mut clients {
        client.shutdown();
    }
    {
        let fresh = DurableSystem::new_sharded(system(), 4).unwrap();
        fresh.follow(&addr);
        *follower.write().unwrap() = fresh;
    }
    let mut clients = tail(&follower, &addr);
    leader_write(&leader, 0);
    wait_until("the restart to converge", || {
        caught_up(&leader, &follower, &clients)
    });
    assert_converged(&leader, &follower);
    let ll = clients[0].gauges().snapshot();
    assert_eq!(
        (ll.source.as_str(), ll.bootstraps),
        ("LocusLink", 1),
        "re-seeded"
    );

    // Promote: the tailers notice the role flip and stop absorbing; the
    // node accepts writes from then on.
    follower.write().unwrap().promote().unwrap();
    assert_eq!(follower.read().unwrap().role(), Role::Leader);
    let applied = ll.applied_seq;
    leader_write(&leader, 1);
    std::thread::sleep(Duration::from_millis(200));
    let after = clients[0].gauges().applied_seq.load(Ordering::Acquire);
    assert_eq!(after, applied, "a promoted node absorbs no leader feed");
    for client in &mut clients {
        client.shutdown();
    }
    assert!(
        follower.write().unwrap().unplug("OMIM").unwrap(),
        "the promoted node accepts writes"
    );

    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn follower_dials_a_hostname_leader_address() {
    let dir = tmp_dir("host-leader");
    let (leader, server) = leader(&dir, ServerConfig::default());
    leader_write(&leader, 0);
    let (follower, mut clients) = follower(&format!("localhost:{}", server.addr().port()));

    wait_until("a hostname leader address to converge", || {
        caught_up(&leader, &follower, &clients)
    });
    assert_converged(&leader, &follower);

    for client in &mut clients {
        client.shutdown();
    }
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}
