//! Property tests for WAL-shipping replication (satellite of the
//! replica subsystem):
//!
//! 1. Resuming a follower from **every** valid WAL boundary — under any
//!    batch byte-budget — replays to a byte-identical store and a
//!    byte-identical WAL file. Replication has no privileged starting
//!    point; any prefix is a valid replica.
//! 2. A torn or corrupted `WalBatch` frame never decodes into anything:
//!    the crc32 framing rejects every single-byte flip and every
//!    truncation, so a follower's only possible reaction is to drop the
//!    session and re-subscribe — divergence is structurally impossible.

use std::io::Cursor;
use std::path::{Path, PathBuf};

use proptest::prelude::*;

use annoda_federation::proto::{self, Message};
use annoda_oem::{OemStore, ShardedStore};
use annoda_persist::{
    encode_store, read_tail, DurableStore, FsyncPolicy, JournalRecord, WAL_HEADER_LEN,
};

const SYMBOLS: &[&str] = &["TP53", "BRCA1", "BRCA2", "KRAS", "EGFR", "MYC"];

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "annoda-replprop-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Builds a GML-shaped store holding one `Gene` child per symbol pick.
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

/// Journals the deltas to each target state into a leader store,
/// returning the WAL byte boundary after every record.
fn journal_targets(dir: &Path, targets: &[Vec<u8>]) -> Vec<u64> {
    let mut d = DurableStore::open(dir, FsyncPolicy::Always).unwrap();
    let mut boundaries = vec![d.stats().wal_bytes];
    for picks in targets {
        let (target, _) = gml(picks);
        for rec in records_to(&d, &target) {
            d.journal(&rec).unwrap();
            boundaries.push(d.stats().wal_bytes);
        }
    }
    boundaries
}

/// Ships `leader`'s WAL into `follower` from the follower's current
/// position, `budget` bytes per batch, until caught up.
fn ship(leader_wal: &Path, follower: &mut DurableStore, budget: u64) {
    loop {
        let from = follower.wal_offset();
        let tail = read_tail(leader_wal, from, budget)
            .expect("leader WAL is readable")
            .expect("follower position is a valid boundary");
        for record in &tail.records {
            follower.journal_raw(record).unwrap();
        }
        assert_eq!(follower.wal_offset(), tail.next_offset);
        if tail.next_offset == tail.end_offset {
            return;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every valid boundary is a valid resume point, under any batch
    /// budget: the converged follower is byte-identical to the leader —
    /// same canonical store encoding, same WAL file bytes.
    #[test]
    fn resume_from_every_boundary_replays_byte_identically(
        targets in proptest::collection::vec(
            proptest::collection::vec(0u8..6, 0..5),
            1..4,
        ),
        budget in 1u64..2048,
    ) {
        let leader_dir = tmp_dir("leader");
        let boundaries = journal_targets(&leader_dir, &targets);
        let leader_wal = leader_dir.join("wal.log");
        let leader_bytes = std::fs::read(&leader_wal).unwrap();
        let full = read_tail(&leader_wal, WAL_HEADER_LEN, u64::MAX)
            .unwrap()
            .expect("base offset is always valid");
        prop_assert_eq!(full.records.len() + 1, boundaries.len());
        let leader_state = {
            let d = DurableStore::open(&leader_dir, FsyncPolicy::Always).unwrap();
            encode_store(d.store())
        };

        for (k, resume_at) in boundaries.iter().enumerate() {
            // A follower that already holds the first k records...
            let follower_dir = tmp_dir(&format!("follower-{k}"));
            let mut follower = DurableStore::open(&follower_dir, FsyncPolicy::Always).unwrap();
            for record in &full.records[..k] {
                follower.journal_raw(record).unwrap();
            }
            prop_assert_eq!(follower.wal_offset(), *resume_at,
                "journaling the leader's bytes reproduces the leader's boundary");
            // ...resumes from its own WAL length and converges.
            ship(&leader_wal, &mut follower, budget);
            prop_assert_eq!(&encode_store(follower.store()), &leader_state);
            prop_assert_eq!(&std::fs::read(follower_dir.join("wal.log")).unwrap(), &leader_bytes);
            let _ = std::fs::remove_dir_all(&follower_dir);
        }
        let _ = std::fs::remove_dir_all(&leader_dir);
    }

    /// Any single corrupted byte in a framed `WalBatch` — and any
    /// truncation — fails the receive. The follower can never observe a
    /// damaged batch as data; it can only re-subscribe.
    #[test]
    fn corrupted_or_torn_wal_batch_frames_never_decode(
        records in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..64),
            1..6,
        ),
        flip_pick in any::<u64>(),
        flip_bit in 0u8..8,
        cut_pick in any::<u64>(),
    ) {
        let message = Message::WalBatch {
            generation: 3,
            from_offset: 13,
            records,
            next_offset: 999,
            leader_offset: 1_024,
            remaining_records: 0,
        };
        let mut framed = Vec::new();
        proto::write_frame(&mut framed, &message.encode()).unwrap();

        // Sanity: the clean frame round-trips (compared via
        // re-encoding; the wire enum carries no PartialEq).
        let clean = proto::recv(&mut Cursor::new(framed.clone())).unwrap();
        prop_assert_eq!(clean.encode(), message.encode());

        // One flipped bit anywhere in the frame (length, checksum, or
        // payload) must fail the receive, not decode differently.
        let mut damaged = framed.clone();
        let pos = (flip_pick as usize) % damaged.len();
        damaged[pos] ^= 1 << flip_bit;
        prop_assert!(
            proto::recv(&mut Cursor::new(damaged)).is_err(),
            "flip at byte {pos} must not pass the crc32 framing"
        );

        // Every strict prefix (a torn frame) must also fail.
        let torn_len = (cut_pick as usize) % framed.len();
        prop_assert!(
            proto::recv(&mut Cursor::new(&framed[..torn_len])).is_err(),
            "torn frame of {torn_len} bytes must not decode"
        );
    }
}
