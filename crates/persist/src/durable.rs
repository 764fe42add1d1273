//! [`DurableStore`] — an [`OemStore`] that survives crashes.
//!
//! The contract: every mutation goes through [`DurableStore::journal`],
//! which applies the record to the in-memory store and *then* appends
//! it to the WAL (an unappliable record never reaches disk). Recovery
//! loads the newest snapshot, replays the WAL suffix through the exact
//! same [`crate::record::apply`], and truncates whatever torn tail the
//! crash left — so the recovered store re-encodes to the same bytes as
//! the store that was lost.
//!
//! Generation numbers guard the snapshot/WAL pair: [`snapshot`] writes
//! the new snapshot (atomic rename) *before* resetting the log, and a
//! crash in between leaves a log whose generation no longer matches —
//! recovery discards it, which is safe because the snapshot already
//! contains everything the old log carried.
//!
//! [`snapshot`]: DurableStore::snapshot

use std::path::{Path, PathBuf};

use annoda_oem::graph::compact;
use annoda_oem::shard::FragmentGroup;
use annoda_oem::OemStore;

use crate::error::PersistError;
use crate::record::{apply, JournalRecord};
use crate::snapshot::{read_snapshot, write_snapshot, SnapshotMeta};
use crate::wal::{read_tail, scan, FsyncPolicy, TailRead, WalWriter, WAL_HEADER_LEN};

pub(crate) const SNAPSHOT_FILE: &str = "snapshot.bin";
const SNAPSHOT_TMP: &str = "snapshot.tmp";
pub(crate) const WAL_FILE: &str = "wal.log";

/// What recovery found when the store was opened.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Whether a snapshot was loaded (false on a cold data directory).
    pub snapshot_loaded: bool,
    /// Objects restored from the snapshot.
    pub snapshot_objects: usize,
    /// Journal records replayed on top of the snapshot.
    pub replayed_records: u64,
    /// Bytes dropped: the torn WAL tail, or a whole stale log whose
    /// generation no longer matched the snapshot.
    pub truncated_bytes: u64,
    /// Generation the store resumed at.
    pub generation: u64,
}

/// Counters the serving layer exports from `/metrics`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PersistStats {
    /// Current snapshot/WAL generation.
    pub generation: u64,
    /// Whether startup restored from a snapshot.
    pub snapshot_loaded: bool,
    /// Records replayed at startup.
    pub replayed_records: u64,
    /// Bytes truncated at startup (torn tail or stale log).
    pub truncated_bytes: u64,
    /// Current WAL file size in bytes.
    pub wal_bytes: u64,
    /// Records journaled since open.
    pub appended_records: u64,
    /// Payload + framing bytes journaled since open.
    pub appended_bytes: u64,
    /// fsyncs issued since open.
    pub fsyncs: u64,
    /// Snapshots written since open.
    pub snapshots: u64,
}

/// A WAL-backed durable OEM store. See the module docs for the
/// recovery contract.
pub struct DurableStore {
    dir: PathBuf,
    store: OemStore,
    wal: WalWriter,
    policy: FsyncPolicy,
    generation: u64,
    recovery: RecoveryReport,
    appended_records: u64,
    appended_bytes: u64,
    snapshots: u64,
}

impl DurableStore {
    /// Opens (creating if necessary) the data directory `dir`,
    /// recovering whatever a previous process — cleanly shut down or
    /// not — left behind.
    pub fn open(dir: &Path, policy: FsyncPolicy) -> Result<DurableStore, PersistError> {
        std::fs::create_dir_all(dir).map_err(|e| PersistError::io("mkdir", dir, &e))?;
        let snap_path = dir.join(SNAPSHOT_FILE);
        let wal_path = dir.join(WAL_FILE);
        // A crash during a snapshot write can leave the tmp file; it
        // was never renamed, so it is dead weight.
        let _ = std::fs::remove_file(dir.join(SNAPSHOT_TMP));

        let mut recovery = RecoveryReport::default();
        let mut store = OemStore::new();
        let mut generation = 0u64;
        if let Some((snap_store, meta)) = read_snapshot(&snap_path)? {
            recovery.snapshot_loaded = true;
            recovery.snapshot_objects = meta.objects;
            store = snap_store;
            generation = meta.generation;
        }

        let scanned = scan(&wal_path)?;
        let wal = match scanned.generation {
            Some(g) if g == generation => {
                let mut offset = crate::wal::WAL_HEADER_LEN;
                for payload in &scanned.records {
                    let record =
                        JournalRecord::decode(payload).map_err(|e| PersistError::Corrupt {
                            what: "wal",
                            offset,
                            reason: format!("checksummed record does not decode: {e}"),
                        })?;
                    apply(&mut store, &record).map_err(|e| PersistError::Corrupt {
                        what: "wal",
                        offset,
                        reason: format!("checksummed record does not apply: {e}"),
                    })?;
                    offset += 8 + payload.len() as u64;
                    recovery.replayed_records += 1;
                }
                recovery.truncated_bytes = scanned.file_len - scanned.valid_len;
                WalWriter::open(&wal_path, scanned.valid_len, policy)?
            }
            Some(_) => {
                // Stale log from before the last snapshot's rename: its
                // records are already inside the snapshot. Discard.
                recovery.truncated_bytes = scanned.file_len;
                WalWriter::create(&wal_path, generation, policy)?
            }
            None => {
                // No log, or one torn inside its own header.
                recovery.truncated_bytes = scanned.file_len;
                WalWriter::create(&wal_path, generation, policy)?
            }
        };
        recovery.generation = generation;
        Ok(DurableStore {
            dir: dir.to_path_buf(),
            store,
            wal,
            policy,
            generation,
            recovery,
            appended_records: 0,
            appended_bytes: 0,
            snapshots: 0,
        })
    }

    /// The recovered/live store. All mutation goes through
    /// [`DurableStore::journal`]; readers may borrow freely.
    pub fn store(&self) -> &OemStore {
        &self.store
    }

    /// What recovery found when this store was opened.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// The data directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The fsync policy appends run under.
    pub fn policy(&self) -> FsyncPolicy {
        self.policy
    }

    /// Applies `record` to the in-memory store, then appends it to the
    /// WAL. If the record cannot be applied nothing reaches disk.
    pub fn journal(&mut self, record: &JournalRecord) -> Result<(), PersistError> {
        apply(&mut self.store, record)?;
        let bytes = self.wal.append(&record.encode())?;
        self.appended_records += 1;
        self.appended_bytes += bytes;
        Ok(())
    }

    /// Journals what carries this segment's root `root` to the staged
    /// shard `store`, given the fragment groups the commit's walk found
    /// changed: one [`JournalRecord::ReplaceFragments`] per group, or,
    /// while the segment holds no such root (a promoted replica that
    /// never received one), the whole shard as one
    /// [`JournalRecord::PutRoot`]. Returns how many records it journaled.
    pub fn journal_groups(
        &mut self,
        root: &str,
        store: &OemStore,
        groups: &[FragmentGroup],
    ) -> Result<usize, PersistError> {
        let records: Vec<JournalRecord> = match self.store.named(root) {
            None => vec![JournalRecord::put_root(root, store)],
            Some(_) => groups
                .iter()
                .map(|g| JournalRecord::replace_fragments(root, store, g))
                .collect(),
        };
        for record in &records {
            self.journal(record)?;
        }
        Ok(records.len())
    }

    /// Applies an already-encoded record and appends the *original*
    /// bytes — not a re-encoding — so a replica's log stays
    /// byte-identical to the leader log it is shipped from (its own
    /// file length then doubles as its replication position). Returns
    /// the decoded record so the caller can mirror side effects.
    pub fn journal_raw(&mut self, payload: &[u8]) -> Result<JournalRecord, PersistError> {
        let record = JournalRecord::decode(payload)?;
        apply(&mut self.store, &record)?;
        let bytes = self.wal.append(payload)?;
        self.appended_records += 1;
        self.appended_bytes += bytes;
        Ok(record)
    }

    /// The current snapshot/WAL generation.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The end of the WAL in bytes — the position a subscriber caught
    /// up to this instant would hold.
    pub fn wal_offset(&self) -> u64 {
        self.wal.len()
    }

    /// The byte offset of the first WAL frame — where a subscriber
    /// starts replaying after a state transfer.
    pub fn wal_base_offset() -> u64 {
        WAL_HEADER_LEN
    }

    /// Reads complete WAL records starting at `from_offset` (bounded by
    /// `max_bytes` of frames, always at least one record when
    /// available). `Ok(None)` when `generation` is not the current one
    /// or `from_offset` is not a frame boundary — the reader needs a
    /// full state transfer, not a tail.
    pub fn read_tail(
        &self,
        generation: u64,
        from_offset: u64,
        max_bytes: u64,
    ) -> Result<Option<TailRead>, PersistError> {
        if generation != self.generation {
            return Ok(None);
        }
        let tail = read_tail(&self.dir.join(WAL_FILE), from_offset, max_bytes)?;
        // `scan` sees whatever reached the file; records appended but
        // not yet flushed by the OS are still visible to same-host
        // reads, so the tail never trails self.wal.len() here — but a
        // reader must never be handed frames past what this writer
        // wrote (a torn in-flight append could otherwise leak).
        Ok(tail.filter(|t| t.next_offset <= self.wal.len()))
    }

    /// The base state a new subscriber must install before replaying
    /// this store's WAL: the on-disk snapshot of the current
    /// generation, or an empty store when no snapshot has ever been
    /// written (generation 0 — the WAL then carries everything).
    pub fn base_snapshot(&self) -> Result<(OemStore, u64), PersistError> {
        match read_snapshot(&self.dir.join(SNAPSHOT_FILE))? {
            Some((store, meta)) if meta.generation == self.generation => {
                Ok((store, self.generation))
            }
            Some((_, meta)) => Err(PersistError::Corrupt {
                what: "snapshot",
                offset: 0,
                reason: format!(
                    "snapshot generation {} does not match live generation {}",
                    meta.generation, self.generation
                ),
            }),
            None if self.generation == 0 => Ok((OemStore::new(), 0)),
            None => Err(PersistError::Corrupt {
                what: "snapshot",
                offset: 0,
                reason: format!("generation {} has no snapshot file", self.generation),
            }),
        }
    }

    /// Replaces this store's entire state with a transferred base
    /// snapshot: writes it durably (atomic rename), adopts it in
    /// memory, and resets the WAL at `generation`. Everything the
    /// store previously held is discarded — this is the receiving end
    /// of a replication bootstrap.
    pub fn install_snapshot(
        &mut self,
        store: OemStore,
        generation: u64,
    ) -> Result<(), PersistError> {
        write_snapshot(
            &self.dir.join(SNAPSHOT_FILE),
            &self.dir.join(SNAPSHOT_TMP),
            &store,
            generation,
        )?;
        self.store = store;
        self.generation = generation;
        let fsyncs_so_far = self.wal.fsyncs;
        self.wal = WalWriter::create(&self.dir.join(WAL_FILE), generation, self.policy)?;
        self.wal.fsyncs += fsyncs_so_far;
        self.snapshots += 1;
        Ok(())
    }

    /// Clean shutdown: forces any records still waiting on a batched
    /// fsync to disk and returns the final counters. Dropping the
    /// store performs the same flush best-effort; `close` exists so
    /// callers can observe the error (and tests the counter).
    pub fn close(mut self) -> Result<PersistStats, PersistError> {
        if self.wal.pending_sync() {
            self.wal.sync()?;
        }
        Ok(self.stats())
    }

    /// Forces all appended records to disk regardless of policy.
    pub fn sync(&mut self) -> Result<(), PersistError> {
        self.wal.sync()
    }

    /// Writes a point-in-time snapshot and truncates the log.
    ///
    /// The store is first compacted around its named roots (journal
    /// garbage — replaced roots, removed children — is dropped), then
    /// written under the next generation; only after the snapshot is
    /// durably renamed into place is the WAL reset. Returns the new
    /// snapshot's metadata.
    pub fn snapshot(&mut self) -> Result<SnapshotMeta, PersistError> {
        let names: Vec<String> = self.store.names().map(|(n, _)| n.to_string()).collect();
        let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let (compacted, _remap) = compact(&self.store, &name_refs);
        self.store = compacted;
        self.generation += 1;
        let bytes = write_snapshot(
            &self.dir.join(SNAPSHOT_FILE),
            &self.dir.join(SNAPSHOT_TMP),
            &self.store,
            self.generation,
        )?;
        let fsyncs_so_far = self.wal.fsyncs;
        self.wal = WalWriter::create(&self.dir.join(WAL_FILE), self.generation, self.policy)?;
        self.wal.fsyncs += fsyncs_so_far;
        self.snapshots += 1;
        Ok(SnapshotMeta {
            generation: self.generation,
            objects: self.store.len(),
            bytes,
        })
    }

    /// Counters for `/metrics`.
    pub fn stats(&self) -> PersistStats {
        PersistStats {
            generation: self.generation,
            snapshot_loaded: self.recovery.snapshot_loaded,
            replayed_records: self.recovery.replayed_records,
            truncated_bytes: self.recovery.truncated_bytes,
            wal_bytes: self.wal.len(),
            appended_records: self.appended_records,
            appended_bytes: self.appended_bytes,
            fsyncs: self.wal.fsyncs,
            snapshots: self.snapshots,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{encode_fragment, encode_store};
    use crate::record::SourceEventKind;
    use annoda_oem::AtomicValue;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("annoda-durable-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn put_gml(symbols: &[&str]) -> JournalRecord {
        let mut src = OemStore::new();
        let root = src.new_complex();
        for s in symbols {
            let g = src.add_complex_child(root, "Gene").unwrap();
            src.add_atomic_child(g, "Symbol", *s).unwrap();
        }
        JournalRecord::PutRoot {
            name: "GML".into(),
            fragment: encode_fragment(&src, root),
        }
    }

    #[test]
    fn cold_open_journal_reopen_is_byte_identical() {
        let dir = tmp_dir("cold");
        let mut d = DurableStore::open(&dir, FsyncPolicy::Always).unwrap();
        assert!(!d.recovery().snapshot_loaded);
        assert_eq!(d.recovery().replayed_records, 0);
        d.journal(&put_gml(&["TP53", "BRCA1"])).unwrap();
        d.journal(&JournalRecord::SourceEvent {
            kind: SourceEventKind::Refresh,
            name: "genbank".into(),
        })
        .unwrap();
        let live = encode_store(d.store());
        drop(d); // no snapshot, no clean shutdown step

        let d2 = DurableStore::open(&dir, FsyncPolicy::Always).unwrap();
        assert_eq!(d2.recovery().replayed_records, 2);
        assert_eq!(encode_store(d2.store()), live);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_truncates_log_and_reopens_without_replay() {
        let dir = tmp_dir("snap");
        let mut d = DurableStore::open(&dir, FsyncPolicy::Always).unwrap();
        d.journal(&put_gml(&["TP53"])).unwrap();
        d.journal(&put_gml(&["TP53", "KRAS"])).unwrap(); // first root becomes garbage
        let wal_before = d.stats().wal_bytes;
        let meta = d.snapshot().unwrap();
        assert_eq!(meta.generation, 1);
        assert!(d.stats().wal_bytes < wal_before, "log truncated");
        let live = encode_store(d.store());
        drop(d);

        let d2 = DurableStore::open(&dir, FsyncPolicy::Always).unwrap();
        assert!(d2.recovery().snapshot_loaded);
        assert_eq!(d2.recovery().replayed_records, 0);
        assert_eq!(d2.recovery().generation, 1);
        assert_eq!(encode_store(d2.store()), live);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_plus_suffix_replays_only_the_suffix() {
        let dir = tmp_dir("suffix");
        let mut d = DurableStore::open(&dir, FsyncPolicy::Batched(2)).unwrap();
        d.journal(&put_gml(&["TP53"])).unwrap();
        d.snapshot().unwrap();
        d.journal(&put_gml(&["TP53", "KRAS"])).unwrap();
        d.sync().unwrap();
        let live = encode_store(d.store());
        drop(d);

        let d2 = DurableStore::open(&dir, FsyncPolicy::Batched(2)).unwrap();
        assert!(d2.recovery().snapshot_loaded);
        assert_eq!(d2.recovery().replayed_records, 1);
        assert_eq!(encode_store(d2.store()), live);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_log_after_snapshot_rename_is_discarded() {
        let dir = tmp_dir("stale");
        let mut d = DurableStore::open(&dir, FsyncPolicy::Always).unwrap();
        d.journal(&put_gml(&["TP53"])).unwrap();
        let wal_copy = std::fs::read(dir.join("wal.log")).unwrap();
        d.snapshot().unwrap();
        let live = encode_store(d.store());
        drop(d);
        // Simulate the crash window: snapshot renamed, log not yet
        // reset — the pre-snapshot log (old generation) reappears.
        std::fs::write(dir.join("wal.log"), &wal_copy).unwrap();

        let d2 = DurableStore::open(&dir, FsyncPolicy::Always).unwrap();
        assert_eq!(d2.recovery().replayed_records, 0, "stale log not replayed");
        assert_eq!(d2.recovery().truncated_bytes, wal_copy.len() as u64);
        assert_eq!(
            encode_store(d2.store()),
            live,
            "snapshot already had the records"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unappliable_record_never_reaches_disk() {
        let dir = tmp_dir("noop");
        let mut d = DurableStore::open(&dir, FsyncPolicy::Always).unwrap();
        let before = d.stats();
        let err = d.journal(&JournalRecord::ReplaceFragments {
            root: "ghost".into(),
            label: "Gene".into(),
            key: "TP53".into(),
            fragments: Vec::new(),
        });
        assert!(matches!(err, Err(PersistError::Apply { .. })));
        assert_eq!(d.stats().wal_bytes, before.wal_bytes);
        assert_eq!(d.stats().appended_records, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batched_fsync_flushes_on_clean_shutdown_below_threshold() {
        // Regression: under Batched(n), a clean shutdown after fewer
        // than n appends used to leave the tail in page cache only —
        // no fsync between the last batch boundary and process exit.
        let dir = tmp_dir("drainfsync");
        let d = DurableStore::open(&dir, FsyncPolicy::Batched(1000)).unwrap();
        let open_fsyncs = d.stats().fsyncs; // header fsync from create
        drop(d);

        let mut d = DurableStore::open(&dir, FsyncPolicy::Batched(1000)).unwrap();
        d.journal(&put_gml(&["TP53"])).unwrap();
        d.journal(&put_gml(&["TP53", "KRAS"])).unwrap();
        let before_close = d.stats().fsyncs;
        let final_stats = d.close().unwrap();
        assert_eq!(
            final_stats.fsyncs,
            before_close + 1,
            "close() must flush the sub-threshold batch"
        );
        assert_eq!(final_stats.appended_records, 2);

        // An already-synced store closes without a redundant fsync.
        let mut d = DurableStore::open(&dir, FsyncPolicy::Batched(1000)).unwrap();
        d.journal(&put_gml(&["BRCA1"])).unwrap();
        d.sync().unwrap();
        let before_close = d.stats().fsyncs;
        assert_eq!(d.close().unwrap().fsyncs, before_close);

        // And the records are genuinely on disk for the next open.
        let d = DurableStore::open(&dir, FsyncPolicy::Batched(1000)).unwrap();
        assert_eq!(d.recovery().replayed_records, 3);
        let _ = open_fsyncs;
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_raw_replays_leader_bytes_identically() {
        let leader_dir = tmp_dir("rawleader");
        let follower_dir = tmp_dir("rawfollower");
        let mut leader = DurableStore::open(&leader_dir, FsyncPolicy::Always).unwrap();
        leader.journal(&put_gml(&["TP53"])).unwrap();
        leader.journal(&put_gml(&["TP53", "KRAS"])).unwrap();
        leader
            .journal(&JournalRecord::SourceEvent {
                kind: SourceEventKind::Unplug,
                name: "OMIM".into(),
            })
            .unwrap();

        let mut follower = DurableStore::open(&follower_dir, FsyncPolicy::Always).unwrap();
        let (base, generation) = leader.base_snapshot().unwrap();
        follower.install_snapshot(base, generation).unwrap();
        assert_eq!(follower.wal_offset(), DurableStore::wal_base_offset());
        let tail = leader
            .read_tail(generation, DurableStore::wal_base_offset(), u64::MAX)
            .unwrap()
            .expect("aligned");
        for payload in &tail.records {
            follower.journal_raw(payload).unwrap();
        }
        assert_eq!(follower.wal_offset(), leader.wal_offset());
        assert_eq!(encode_store(follower.store()), encode_store(leader.store()));
        assert_eq!(
            std::fs::read(leader_dir.join("wal.log")).unwrap(),
            std::fs::read(follower_dir.join("wal.log")).unwrap(),
            "replicated log is byte-identical"
        );
        let _ = std::fs::remove_dir_all(&leader_dir);
        let _ = std::fs::remove_dir_all(&follower_dir);
    }

    #[test]
    fn read_tail_refuses_other_generations_and_base_snapshot_tracks() {
        let dir = tmp_dir("tailgen");
        let mut d = DurableStore::open(&dir, FsyncPolicy::Always).unwrap();
        d.journal(&put_gml(&["TP53"])).unwrap();
        // Generation 0: no snapshot file yet, base is the empty store.
        let (base, generation) = d.base_snapshot().unwrap();
        assert_eq!(generation, 0);
        assert_eq!(base.len(), 0);
        assert!(d
            .read_tail(1, DurableStore::wal_base_offset(), u64::MAX)
            .unwrap()
            .is_none());

        d.snapshot().unwrap();
        d.journal(&put_gml(&["TP53", "KRAS"])).unwrap();
        let (base, generation) = d.base_snapshot().unwrap();
        assert_eq!(generation, 1);
        assert!(!base.is_empty());
        // The old generation's offsets are meaningless now.
        assert!(d
            .read_tail(0, DurableStore::wal_base_offset(), u64::MAX)
            .unwrap()
            .is_none());
        let tail = d
            .read_tail(1, DurableStore::wal_base_offset(), u64::MAX)
            .unwrap()
            .unwrap();
        assert_eq!(tail.records.len(), 1, "only the post-snapshot suffix");
        assert_eq!(tail.next_offset, d.wal_offset());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn keyed_groups_survive_snapshot_compaction() {
        // Snapshots renumber oids; a group is named by its key.
        let dir = tmp_dir("compacted-groups");
        let mut d = DurableStore::open(&dir, FsyncPolicy::Always).unwrap();
        d.journal(&put_gml(&["TP53", "BRCA1"])).unwrap();
        d.snapshot().unwrap();
        let mut src = OemStore::new();
        let gene = src.new_complex();
        src.add_atomic_child(gene, "Symbol", "BRCA1").unwrap();
        src.add_atomic_child(gene, "Note", "revised").unwrap();
        d.journal(&JournalRecord::ReplaceFragments {
            root: "GML".into(),
            label: "Gene".into(),
            key: "BRCA1".into(),
            fragments: vec![encode_fragment(&src, gene)],
        })
        .unwrap();
        let live = encode_store(d.store());
        drop(d);
        let d2 = DurableStore::open(&dir, FsyncPolicy::Always).unwrap();
        assert_eq!(encode_store(d2.store()), live);
        let root = d2.store().named("GML").unwrap();
        let genes: Vec<_> = d2.store().children(root, "Gene").collect();
        assert_eq!(genes.len(), 2, "the group was replaced, not added to");
        assert_eq!(
            d2.store().child_value(genes[1], "Note"),
            Some(&AtomicValue::Str("revised".into()))
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
