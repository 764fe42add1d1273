//! Socket-level replication tests: a real [`LeaderServer`] shipping a
//! real WAL over TCP into a [`ReplicaClient`]-driven follower.

use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use annoda::{Annoda, DurableSystem, FsyncPolicy};
use annoda_federation::{FaultConfig, ServerConfig, TailConfig};
use annoda_persist::encode_store;
use annoda_replica::{LeaderServer, ReplicaClient};
use annoda_sources::{Corpus, CorpusConfig};

fn system() -> Annoda {
    let c = Corpus::generate(CorpusConfig::tiny(42));
    let (a, _) = Annoda::over_sources(c.locuslink.clone(), c.go.clone(), c.omim.clone());
    a
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

/// Polls `pred` for up to `timeout`, panicking with `what` on expiry.
fn wait_until(timeout: Duration, what: &str, mut pred: impl FnMut() -> bool) {
    let start = Instant::now();
    while !pred() {
        assert!(start.elapsed() < timeout, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn caught_up(leader: &RwLock<DurableSystem>, follower: &RwLock<DurableSystem>) -> bool {
    let l = leader.read().unwrap().wal_position();
    let f = follower.read().unwrap().wal_position();
    l == f
}

#[test]
fn follower_bootstraps_from_snapshot_and_tails_live_writes() {
    let leader_dir = tmp_dir("boot-leader");
    let follower_dir = tmp_dir("boot-follower");
    let mut sys = DurableSystem::open(system(), &leader_dir, FsyncPolicy::Always).unwrap();
    // Past generation 0: a fresh follower cannot replay its way here
    // and must receive a genuine snapshot transfer.
    sys.snapshot().unwrap();
    sys.refresh().unwrap();
    let leader = Arc::new(RwLock::new(sys));
    let server =
        LeaderServer::spawn(Arc::clone(&leader), "127.0.0.1:0", ServerConfig::default()).unwrap();

    let follower = Arc::new(RwLock::new(
        DurableSystem::open_follower(system(), &follower_dir, FsyncPolicy::Always).unwrap(),
    ));
    let mut client = ReplicaClient::spawn(
        Arc::clone(&follower),
        &server.addr().to_string(),
        fast_client(),
    );

    wait_until(Duration::from_secs(10), "bootstrap to converge", || {
        caught_up(&leader, &follower)
    });
    {
        let l = leader.read().unwrap();
        let f = follower.read().unwrap();
        assert_eq!(
            encode_store(f.persisted_gml().unwrap()),
            encode_store(l.persisted_gml().unwrap()),
            "bootstrap converges to the leader's store"
        );
        let repl = f.repl_handle();
        let stats = repl.stats();
        assert!(
            stats.snapshot_xfer_bytes > 0,
            "bootstrap shipped a snapshot"
        );
    }

    // A live acknowledged write tails over the wire.
    assert!(leader.write().unwrap().unplug("OMIM").unwrap());
    wait_until(Duration::from_secs(10), "live write to replicate", || {
        caught_up(&leader, &follower)
    });
    {
        let l = leader.read().unwrap();
        let f = follower.read().unwrap();
        assert_eq!(
            encode_store(f.persisted_gml().unwrap()),
            encode_store(l.persisted_gml().unwrap()),
            "live tail converges"
        );
        // The replicated WAL is byte-identical to the leader's file.
        assert_eq!(
            std::fs::read(leader_dir.join("wal.log")).unwrap(),
            std::fs::read(follower_dir.join("wal.log")).unwrap(),
            "follower WAL is a byte-identical copy"
        );
        let stats = f.repl_handle().stats();
        assert_eq!(stats.lag_records, 0);
        assert_eq!(stats.lag_bytes, 0);
    }

    client.shutdown();
    drop(server);
    let _ = std::fs::remove_dir_all(&leader_dir);
    let _ = std::fs::remove_dir_all(&follower_dir);
}

#[test]
fn corrupt_batches_force_resubscribe_never_divergence() {
    let leader_dir = tmp_dir("corrupt-leader");
    let follower_dir = tmp_dir("corrupt-follower");
    let leader = Arc::new(RwLock::new(
        DurableSystem::open(system(), &leader_dir, FsyncPolicy::Always).unwrap(),
    ));
    // The first two reply frames arrive with a flipped byte; the
    // framing checksum must catch both and the client re-subscribe.
    let config = ServerConfig {
        fault: FaultConfig {
            corrupt_first_replies: 2,
            ..FaultConfig::none()
        },
        ..ServerConfig::default()
    };
    let server = LeaderServer::spawn(Arc::clone(&leader), "127.0.0.1:0", config).unwrap();

    let follower = Arc::new(RwLock::new(
        DurableSystem::open_follower(system(), &follower_dir, FsyncPolicy::Always).unwrap(),
    ));
    let mut client = ReplicaClient::spawn(
        Arc::clone(&follower),
        &server.addr().to_string(),
        fast_client(),
    );

    wait_until(
        Duration::from_secs(10),
        "convergence despite corruption",
        || caught_up(&leader, &follower),
    );
    let f = follower.read().unwrap();
    let stats = f.repl_handle().stats();
    assert!(
        stats.resubscribes >= 2,
        "each damaged frame tears the subscription down (saw {})",
        stats.resubscribes
    );
    assert_eq!(
        encode_store(f.persisted_gml().unwrap()),
        encode_store(leader.read().unwrap().persisted_gml().unwrap()),
        "no damaged byte was ever applied"
    );
    assert_eq!(
        std::fs::read(leader_dir.join("wal.log")).unwrap(),
        std::fs::read(follower_dir.join("wal.log")).unwrap(),
    );
    drop(f);

    client.shutdown();
    drop(server);
    let _ = std::fs::remove_dir_all(&leader_dir);
    let _ = std::fs::remove_dir_all(&follower_dir);
}

#[test]
fn promotion_stops_the_client_and_restarted_follower_resumes() {
    let leader_dir = tmp_dir("promo-leader");
    let follower_dir = tmp_dir("promo-follower");
    let leader = Arc::new(RwLock::new(
        DurableSystem::open(system(), &leader_dir, FsyncPolicy::Always).unwrap(),
    ));
    let server =
        LeaderServer::spawn(Arc::clone(&leader), "127.0.0.1:0", ServerConfig::default()).unwrap();

    let follower = Arc::new(RwLock::new(
        DurableSystem::open_follower(system(), &follower_dir, FsyncPolicy::Always).unwrap(),
    ));
    let mut client = ReplicaClient::spawn(
        Arc::clone(&follower),
        &server.addr().to_string(),
        fast_client(),
    );
    wait_until(Duration::from_secs(10), "initial convergence", || {
        caught_up(&leader, &follower)
    });

    // Restart the follower process: the marker file lets it resume
    // from its local WAL without a second snapshot transfer.
    client.shutdown();
    let position = follower.read().unwrap().wal_position();
    {
        let mut guard = follower.write().unwrap();
        let resumed =
            DurableSystem::open_follower(system(), &follower_dir, FsyncPolicy::Always).unwrap();
        assert_eq!(resumed.replica_resume_position(), position);
        *guard = resumed;
    }
    let mut client = ReplicaClient::spawn(
        Arc::clone(&follower),
        &server.addr().to_string(),
        fast_client(),
    );
    assert!(leader.write().unwrap().refresh().is_ok());
    wait_until(Duration::from_secs(10), "resume to converge", || {
        caught_up(&leader, &follower)
    });
    assert_eq!(
        follower
            .read()
            .unwrap()
            .repl_handle()
            .stats()
            .snapshot_xfer_bytes,
        0,
        "resume needed no snapshot transfer"
    );

    // Promote: the shipping thread notices the role flip and exits on
    // its own; the node accepts writes from then on.
    let q = "select count(GML.Gene) from ANNODA-GML GML";
    let count_rows = |sys: &DurableSystem| {
        let snap = sys.query_snapshot().unwrap();
        DurableSystem::lorel_on(&snap, q)
            .unwrap()
            .outcome
            .rows
            .len()
    };
    let rows_before = count_rows(&follower.read().unwrap());
    follower.write().unwrap().promote().unwrap();
    // shutdown() joins; the thread exits on its own when it observes
    // the role flip, so this returns promptly either way.
    client.shutdown();
    let mut f = follower.write().unwrap();
    assert_eq!(count_rows(&f), rows_before);
    assert!(f.unplug("OMIM").unwrap(), "promoted node accepts writes");

    drop(f);
    drop(server);
    let _ = std::fs::remove_dir_all(&leader_dir);
    let _ = std::fs::remove_dir_all(&follower_dir);
}

#[test]
fn follower_dials_a_hostname_leader_address() {
    let leader_dir = tmp_dir("host-leader");
    let follower_dir = tmp_dir("host-follower");
    let leader = Arc::new(RwLock::new(
        DurableSystem::open(system(), &leader_dir, FsyncPolicy::Always).unwrap(),
    ));
    let server =
        LeaderServer::spawn(Arc::clone(&leader), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let follower = Arc::new(RwLock::new(
        DurableSystem::open_follower(system(), &follower_dir, FsyncPolicy::Always).unwrap(),
    ));
    let addr = format!("localhost:{}", server.addr().port());
    let mut client = ReplicaClient::spawn(Arc::clone(&follower), &addr, fast_client());

    wait_until(
        Duration::from_secs(10),
        "a hostname leader address to converge",
        || caught_up(&leader, &follower),
    );
    assert_eq!(
        encode_store(follower.read().unwrap().persisted_gml().unwrap()),
        encode_store(leader.read().unwrap().persisted_gml().unwrap()),
    );

    client.shutdown();
    drop(server);
    let _ = std::fs::remove_dir_all(&leader_dir);
    let _ = std::fs::remove_dir_all(&follower_dir);
}
