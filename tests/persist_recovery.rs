//! Crash-consistency harness for `annoda-persist`, plus the
//! kill-and-recover end-to-end path through `annoda-serve`.
//!
//! The core property: for a journaled mutation sequence, truncating the
//! WAL at **every byte offset** and recovering must yield exactly the
//! store state after the last record that fits entirely below the cut —
//! never an error, never a partial record applied. That is the strongest
//! statement of "a crash can only tear the tail".

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};

use proptest::prelude::*;

use annoda::{Annoda, DurableSystem, FsyncPolicy};
use annoda_oem::{OemStore, ShardedStore};
use annoda_persist::{encode_store, DurableStore, JournalRecord};
use annoda_serve::http::read_response;
use annoda_serve::{ServeConfig, Server};
use annoda_sources::{Corpus, CorpusConfig};

const SYMBOLS: &[&str] = &["TP53", "BRCA1", "BRCA2", "KRAS", "EGFR", "MYC"];

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "annoda-recovery-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Builds a GML-shaped store holding one `Gene` child per symbol.
fn gml(symbol_picks: &[u8]) -> (OemStore, annoda_oem::Oid) {
    let mut db = OemStore::new();
    let root = db.new_complex();
    for pick in symbol_picks {
        let g = db.add_complex_child(root, "Gene").unwrap();
        db.add_atomic_child(g, "Symbol", SYMBOLS[*pick as usize % SYMBOLS.len()])
            .unwrap();
    }
    db.set_name("GML", root).unwrap();
    (db, root)
}

/// The records that carry `d`'s root `GML` to `target`: the whole root
/// while the store holds none, then one `ReplaceFragments` per fragment
/// group the keyed walk finds changed, as a commit journals them.
fn records_to(d: &DurableStore, target: &OemStore) -> Vec<JournalRecord> {
    let Some(_) = d.store().named("GML") else {
        return vec![JournalRecord::put_root("GML", target)];
    };
    let pinned = ShardedStore::partition(d.store(), "GML", 1).unwrap();
    let staged = ShardedStore::partition(target, "GML", 1).unwrap();
    let groups = pinned.changed_groups(&staged).remove(0);
    let record = |g| JournalRecord::replace_fragments("GML", staged.shard(0), g);
    groups.iter().map(record).collect()
}

/// Journals the delta to each target state in turn, recording the store
/// encoding and the WAL length after every single record.
struct Journaled {
    /// `states[k]` is the canonical encoding after `k` records.
    states: Vec<Vec<u8>>,
    /// `boundaries[k]` is the WAL byte length after `k` records
    /// (`boundaries[0]` is the bare header).
    boundaries: Vec<u64>,
}

fn journal_targets(dir: &Path, targets: &[Vec<u8>]) -> Journaled {
    let mut d = DurableStore::open(dir, FsyncPolicy::Always).unwrap();
    let mut states = vec![encode_store(d.store())];
    let mut boundaries = vec![d.stats().wal_bytes];
    for picks in targets {
        let (target, _) = gml(picks);
        for rec in records_to(&d, &target) {
            d.journal(&rec).unwrap();
            states.push(encode_store(d.store()));
            boundaries.push(d.stats().wal_bytes);
        }
    }
    Journaled { states, boundaries }
}

/// Copies `dir` into a fresh directory with the WAL truncated at `cut`.
fn dir_with_cut(src: &Path, dst: &Path, cut: usize) {
    let _ = std::fs::remove_dir_all(dst);
    std::fs::create_dir_all(dst).unwrap();
    if src.join("snapshot.bin").exists() {
        std::fs::copy(src.join("snapshot.bin"), dst.join("snapshot.bin")).unwrap();
    }
    let wal = std::fs::read(src.join("wal.log")).unwrap();
    std::fs::write(dst.join("wal.log"), &wal[..cut]).unwrap();
}

/// How many whole records fit below `cut`.
fn records_below(boundaries: &[u64], cut: usize) -> usize {
    boundaries
        .iter()
        .filter(|&&b| b <= cut as u64)
        .count()
        .saturating_sub(1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Truncate the WAL at every byte offset; recovery must always
    /// restore exactly the longest record prefix below the cut.
    #[test]
    fn truncation_at_every_offset_recovers_a_record_prefix(
        targets in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..5),
            1..4,
        ),
    ) {
        let dir = tmp_dir("everybyte");
        let j = journal_targets(&dir, &targets);
        let wal = std::fs::read(dir.join("wal.log")).unwrap();
        let scratch = tmp_dir("everybyte-cut");
        for cut in 0..=wal.len() {
            dir_with_cut(&dir, &scratch, cut);
            let d = DurableStore::open(&scratch, FsyncPolicy::OnSnapshot)
                .unwrap_or_else(|e| panic!("cut {cut}: recovery errored: {e}"));
            let k = records_below(&j.boundaries, cut);
            prop_assert_eq!(
                encode_store(d.store()),
                j.states[k].clone(),
                "cut at byte {} should recover state {}", cut, k
            );
            prop_assert_eq!(d.recovery().replayed_records, k as u64);
            // Whatever was dropped is accounted for: a cut inside the
            // header discards the whole file; otherwise the tail past
            // the last complete record.
            let expect_truncated = if (cut as u64) < j.boundaries[0] {
                cut as u64
            } else {
                cut as u64 - j.boundaries[k]
            };
            prop_assert_eq!(d.recovery().truncated_bytes, expect_truncated);
        }
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&scratch);
    }

    /// Same property with a snapshot in the middle: recovery = snapshot
    /// + the record prefix of the post-snapshot WAL.
    #[test]
    fn snapshot_plus_torn_suffix_recovers(
        before in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..5),
            1..3,
        ),
        after in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..5),
            1..3,
        ),
    ) {
        let dir = tmp_dir("snapsuffix");
        let mut d = DurableStore::open(&dir, FsyncPolicy::Always).unwrap();
        for picks in &before {
            let (target, _) = gml(picks);
            for rec in records_to(&d, &target) {
                d.journal(&rec).unwrap();
            }
        }
        d.snapshot().unwrap();
        let mut states = vec![encode_store(d.store())];
        let mut boundaries = vec![d.stats().wal_bytes];
        for picks in &after {
            let (target, _) = gml(picks);
            for rec in records_to(&d, &target) {
                d.journal(&rec).unwrap();
                states.push(encode_store(d.store()));
                boundaries.push(d.stats().wal_bytes);
            }
        }
        drop(d);
        let wal = std::fs::read(dir.join("wal.log")).unwrap();
        let scratch = tmp_dir("snapsuffix-cut");
        for cut in 0..=wal.len() {
            dir_with_cut(&dir, &scratch, cut);
            let d = DurableStore::open(&scratch, FsyncPolicy::OnSnapshot)
                .unwrap_or_else(|e| panic!("cut {cut}: recovery errored: {e}"));
            let k = records_below(&boundaries, cut);
            prop_assert!(d.recovery().snapshot_loaded);
            prop_assert_eq!(
                encode_store(d.store()),
                states[k].clone(),
                "cut at byte {} should recover snapshot + {} records", cut, k
            );
            prop_assert_eq!(d.recovery().replayed_records, k as u64);
        }
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&scratch);
    }
}

/// Bit flips anywhere in the log must never panic: framed corruption
/// truncates replay at the damaged record; header corruption is a
/// clean, typed error.
#[test]
fn flipping_any_wal_byte_never_panics() {
    let dir = tmp_dir("flip");
    let j = journal_targets(&dir, &[vec![0, 1, 2], vec![0, 3], vec![4, 4, 5, 1]]);
    let wal = std::fs::read(dir.join("wal.log")).unwrap();
    let scratch = tmp_dir("flip-cut");
    for i in 0..wal.len() {
        let mut damaged = wal.clone();
        damaged[i] ^= 0xa5;
        let _ = std::fs::remove_dir_all(&scratch);
        std::fs::create_dir_all(&scratch).unwrap();
        std::fs::write(scratch.join("wal.log"), &damaged).unwrap();
        match DurableStore::open(&scratch, FsyncPolicy::OnSnapshot) {
            Ok(d) => {
                // Replay stopped at or before the damage; whatever was
                // recovered is one of the legitimate prefix states.
                let got = encode_store(d.store());
                assert!(
                    j.states.contains(&got),
                    "flip at byte {i} produced a state outside the journaled prefixes"
                );
            }
            Err(e) => {
                // Header damage (or a checksum collision caught at
                // decode) reports corruption; it must never panic.
                let text = e.to_string();
                assert!(text.contains("corrupt"), "unexpected error shape: {text}");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&scratch);
}

// ---------------------------------------------------------------------
// kill-and-recover, end to end through the HTTP layer

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

fn metric_value(metrics: &str, name: &str) -> Option<u64> {
    metrics
        .lines()
        .find(|l| l.starts_with(name) && l.as_bytes().get(name.len()) == Some(&b' '))
        .and_then(|l| l[name.len() + 1..].trim().parse().ok())
}

#[test]
fn kill_and_recover_serves_the_same_view_warm() {
    let dir = tmp_dir("e2e");

    // First life: durable server, journal a refresh, then die WITHOUT
    // a shutdown snapshot (Server::shutdown never snapshots — only the
    // binary's clean-quit path does, so this models a kill).
    let durable =
        DurableSystem::open_sharded(system(), &dir, FsyncPolicy::Always, 1).expect("cold open");
    let server = Server::start_durable(durable, ephemeral()).expect("bind");
    let (status, body) = post(&server, "/admin/refresh", "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("journaled_records"), "{body}");

    let (status, metrics) = get(&server, "/metrics");
    assert_eq!(status, 200);
    assert!(
        metric_value(&metrics, "annoda_persist_appended_records_total").unwrap() > 0,
        "{metrics}"
    );
    let (_, genes_before) = get(&server, "/genes");
    server.shutdown(std::time::Duration::from_secs(5));

    // Second life: recovery must replay the journal (no snapshot was
    // ever written) and serve the identical integrated view warm.
    let durable =
        DurableSystem::open_sharded(system(), &dir, FsyncPolicy::Always, 1).expect("warm open");
    let report = durable.sharded().recovery().expect("durable has a report");
    assert!(!report.snapshot_loaded, "no snapshot was written");
    assert!(report.replayed_records > 0, "journal replayed: {report:?}");
    let server = Server::start_durable(durable, ephemeral()).expect("bind");

    let (status, metrics) = get(&server, "/metrics");
    assert_eq!(status, 200);
    assert!(
        metric_value(&metrics, "annoda_persist_replayed_records").unwrap() > 0,
        "{metrics}"
    );
    assert_eq!(
        metric_value(&metrics, "annoda_persist_snapshot_loaded"),
        Some(0),
        "{metrics}"
    );

    // The Figure 5 routes still answer; /genes is unchanged.
    let (_, genes_after) = get(&server, "/genes");
    assert_eq!(genes_before, genes_after, "recovered view must match");

    // Warm Lorel runs against the recovered GML clone.
    let (status, body) = post(
        &server,
        "/lorel",
        "select count(GML.Gene) from ANNODA-GML GML",
    );
    assert_eq!(status, 200, "{body}");

    // Object navigation still resolves.
    let symbol = {
        let sys = system();
        let ans = sys.ask(&annoda::GeneQuestion::default()).unwrap();
        ans.fused.genes[0].symbol.clone()
    };
    let (status, body) = get(&server, &format!("/object/gene/{symbol}"));
    assert_eq!(status, 200, "{body}");

    // A snapshot over HTTP truncates the log; the third life starts
    // from the snapshot with nothing to replay.
    let (status, body) = post(&server, "/admin/snapshot", "");
    assert_eq!(status, 200, "{body}");
    server.shutdown(std::time::Duration::from_secs(5));

    let durable =
        DurableSystem::open_sharded(system(), &dir, FsyncPolicy::Always, 1).expect("third open");
    let report = durable.sharded().recovery().expect("report");
    assert!(report.snapshot_loaded);
    assert_eq!(report.replayed_records, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_without_data_dir_is_a_conflict() {
    let server = Server::start(system(), ephemeral()).expect("bind");
    let (status, body) = post(&server, "/admin/snapshot", "");
    assert_eq!(status, 409, "{body}");
    // Refresh still works ephemerally — it just persists nothing.
    let (status, body) = post(&server, "/admin/refresh", "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("persisted: false"), "{body}");
    server.shutdown(std::time::Duration::from_secs(5));
}
