//! MVCC transactions over the sharded global model.
//!
//! [`ShardedGml`] holds the integrated ANNODA-GML view as an
//! [`annoda_oem::shard::ShardedStore`]: per-shard immutable `Arc`s with
//! per-shard epochs, optionally backed by per-shard WAL segments
//! ([`annoda_persist::ShardedDurableStore`]). Writers run optimistic
//! transactions:
//!
//! 1. [`begin`](ShardedGml::begin) pins the current shard vector —
//!    `Arc` clones, no store copy;
//! 2. [`stage`](ShardTxn::stage) partitions the writer's proposed GML
//!    and walks it against the pinned vector **outside every lock**
//!    (this is where the work is);
//! 3. [`commit`](ShardedGml::commit) validates *first-writer-wins* on
//!    the touched shard set — every shard the transaction changes must
//!    still be at its begin epoch — then journals each touched shard's
//!    changed fragment groups into its own WAL segment and finally swaps
//!    exactly those shards' `Arc`s, bumping their epochs. Write-ahead
//!    order: a journaling failure aborts the commit before any reader
//!    could observe it.
//!
//! Two writers touching disjoint shard sets both commit; overlapping
//! writers get exactly one [`CommitError::Conflict`] (the later one).
//! Readers never block: they pin a consistent epoch vector and keep
//! serving the `Arc`s they hold while commits swap newer ones in.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use annoda_oem::shard::{touched_shards, FragmentGroup, ShardRouter, ShardedStore};
use annoda_oem::OemStore;
use annoda_persist::{
    DurableStore, FsyncPolicy, JournalRecord, PersistStats, RecoveryReport, ShardedDurableStore,
    SnapshotMeta,
};
use parking_lot::{Mutex, RwLock};

use crate::system::AnnodaError;

/// OEM-level trouble (bad root, bad shard vector) surfaces through the
/// persistence error path — it is a store-shape problem either way.
fn oem_err(e: annoda_oem::OemError) -> AnnodaError {
    AnnodaError::Persist(e.into())
}

/// A recovered shard store laid out as a partition lays out a shard, so
/// every installed shard has one layout whatever path it arrived by.
fn laid_out(store: &OemStore, root_name: &str) -> Result<Arc<OemStore>, AnnodaError> {
    let one = ShardedStore::partition(store, root_name, 1).map_err(oem_err)?;
    Ok(Arc::clone(one.shard(0)))
}

/// Shared, lock-cheap view of the live epoch vector. The serve tier
/// reads this on every request to stamp and validate cache entries
/// without touching the system lock.
pub type EpochsHandle = Arc<RwLock<Arc<Vec<u64>>>>;

/// A random per-boot base for warm-reopen epochs and for every
/// `DurableSystem`'s serving generation, so epoch values (and the masked
/// sums dep-stamped ETags carry) and generations never collide across
/// process lifetimes. Keyed from std's per-process SipHash seed — no
/// extra dependency. Capped at 48 bits, leaving 2^64 − 2^48 commits of
/// monotone headroom, and floored at 1 so a warm store never reports
/// epoch 0.
pub(crate) fn boot_epoch_salt() -> u64 {
    use std::hash::{BuildHasher, Hasher};
    let h = std::collections::hash_map::RandomState::new()
        .build_hasher()
        .finish();
    (h & 0xFFFF_FFFF_FFFF) | 1
}

/// Why a commit did not go through.
#[derive(Debug)]
pub enum CommitError {
    /// First-writer-wins validation failed: another transaction already
    /// advanced one of the shards this one changed.
    Conflict {
        /// The touched shards that failed validation.
        shards: Vec<usize>,
    },
    /// The commit itself failed (journaling, materialisation).
    Annoda(AnnodaError),
}

impl std::fmt::Display for CommitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommitError::Conflict { shards } => {
                write!(f, "txn conflict on shards {shards:?}")
            }
            CommitError::Annoda(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CommitError {}

impl From<AnnodaError> for CommitError {
    fn from(e: AnnodaError) -> Self {
        CommitError::Annoda(e)
    }
}

impl From<annoda_persist::PersistError> for CommitError {
    fn from(e: annoda_persist::PersistError) -> Self {
        CommitError::Annoda(AnnodaError::Persist(e))
    }
}

/// What a successful commit did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitOutcome {
    /// Shards whose `Arc`s were swapped (epoch bumped). Empty when the
    /// staged model was identical to the pinned one.
    pub changed: Vec<usize>,
    /// Journal records written across the touched WAL segments.
    pub journaled: usize,
}

/// Transaction counters, for `/metrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TxnStats {
    /// Transactions committed (including empty commits).
    pub commits: u64,
    /// Commits refused by first-writer-wins validation.
    pub conflicts: u64,
    /// Transactions explicitly abandoned.
    pub aborts: u64,
}

/// One shard's gauges, for `/metrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardGauges {
    /// Shard index.
    pub shard: usize,
    /// Objects in the shard store (root included).
    pub objects: usize,
    /// Entity fragments rooted in the shard.
    pub fragments: usize,
    /// The shard's MVCC epoch.
    pub epoch: u64,
    /// The shard's WAL segment size in bytes (0 without persistence).
    pub wal_bytes: u64,
    /// The shard's durable snapshot generation (0 without persistence).
    pub generation: u64,
}

/// An in-flight optimistic transaction.
pub struct ShardTxn {
    begin: ShardedStore,
    /// The staged partition, the shards it touches, and each shard's
    /// changed fragment groups.
    staged: Option<(ShardedStore, Vec<usize>, Vec<Vec<FragmentGroup>>)>,
    /// The source event (plug, unplug, refresh) the commit journals
    /// into shard 0 ahead of the shard deltas, changed or not.
    event: Option<JournalRecord>,
}

impl ShardTxn {
    /// The consistent shard vector this transaction pinned at begin —
    /// also a perfectly good read snapshot for the writer.
    pub fn pinned(&self) -> &ShardedStore {
        &self.begin
    }

    /// Stages a proposed global model: partitions `flat` with the
    /// pinned router and walks it against the pinned vector group by
    /// group ([`ShardedStore::changed_groups`]). All the expensive work
    /// (partitioning, the walk) happens here, outside every lock, so
    /// staging never stalls readers or other writers. The benchmark
    /// harness drives it too (ROADMAP 1(e)).
    pub fn stage(&mut self, flat: &OemStore) -> Result<&[usize], AnnodaError> {
        let staged =
            ShardedStore::partition(flat, self.begin.root_name(), self.begin.shard_count())
                .map_err(oem_err)?;
        let groups = self.begin.changed_groups(&staged);
        let touched = touched_shards(&groups);
        Ok(&self.staged.insert((staged, touched, groups)).1)
    }

    /// The shards staged for swap, empty before [`stage`](Self::stage).
    pub fn touched(&self) -> &[usize] {
        self.staged.as_ref().map_or(&[], |s| &s.1)
    }

    /// Entity fragments that differ between the pinned and staged
    /// stores, summed over the walk's changed groups. Zero before
    /// [`stage`](Self::stage). This is the record-level grain of a
    /// commit — what `/admin/refresh` reports so operators can tell a
    /// one-locus delta from a wholesale churn.
    pub fn changed_fragment_count(&self) -> usize {
        let groups = self.staged.iter().flat_map(|s| s.2.iter().flatten());
        groups.map(|g| g.changed).sum()
    }
}

/// The sharded, transactional global model. See the module docs.
pub struct ShardedGml {
    root_name: String,
    /// The live shard vector. Readers hold this lock only long enough
    /// to clone `Arc`s; commits only long enough to swap them.
    current: RwLock<ShardedStore>,
    /// Published epoch vector, updated on every commit — the serve
    /// tier's lock-cheap stamp source.
    epochs: EpochsHandle,
    /// Cache of the last assembled flat store, keyed by epoch vector.
    assembled: Mutex<Option<(Vec<u64>, Arc<OemStore>)>>,
    /// Per-shard WAL segments, when durability is on.
    durable: Mutex<Option<ShardedDurableStore>>,
    /// Serialises validate+swap+journal. Staging (the expensive part)
    /// runs outside it, so writer throughput still scales.
    commit_lock: Mutex<()>,
    commits: AtomicU64,
    conflicts: AtomicU64,
    aborts: AtomicU64,
}

impl ShardedGml {
    /// An in-memory sharded model partitioned from `flat`.
    pub fn new(flat: &OemStore, root_name: &str, shards: usize) -> Result<Self, AnnodaError> {
        let sharded = ShardedStore::partition(flat, root_name, shards).map_err(oem_err)?;
        Ok(Self::from_store(root_name, sharded, None))
    }

    /// Opens (or cold-initialises) a durable sharded model under `dir`.
    /// When every shard segment recovered a root, the model is rebuilt
    /// directly from the per-shard stores — no re-partitioning. A cold
    /// (or partially cold) store partitions `flat()` and, with
    /// `journal_cold`, journals every shard; without it (a replica's
    /// segment, which must receive a leader's WAL byte for byte) the
    /// partition is served from memory only. `shards = 0` adopts the
    /// manifest's count.
    pub fn open(
        dir: &Path,
        policy: FsyncPolicy,
        shards: usize,
        root_name: &str,
        flat: impl FnOnce() -> Result<OemStore, AnnodaError>,
        journal_cold: bool,
    ) -> Result<Self, AnnodaError> {
        let mut durable = ShardedDurableStore::open(dir, policy, shards)?;
        let n = durable.shard_count();
        let warm = (0..n).all(|i| durable.shard(i).store().named(root_name).is_some());
        let sharded = if warm {
            let stores = (0..n)
                .map(|i| laid_out(durable.shard(i).store(), root_name))
                .collect::<Result<_, _>>()?;
            // The ETag/cache proof ("epochs only grow, so an equal
            // masked sum proves nothing changed") must survive a
            // restart: a dep-stamped validator minted before
            // commit+restart may cover data that changed since. The
            // durable generations are the per-shard monotone floor, but
            // they advance only on snapshot promotion — WAL-only
            // commits leave them unchanged — so a per-boot salt is
            // mixed in as well: any validator stamped by a previous
            // boot misses with overwhelming probability instead of
            // falsely revalidating over changed data.
            let salt = boot_epoch_salt();
            let epochs = durable
                .generations()
                .iter()
                .map(|g| salt.saturating_add(*g))
                .collect();
            ShardedStore::from_shards(root_name, stores, epochs).map_err(oem_err)?
        } else {
            let flat = flat()?;
            let sharded = ShardedStore::partition(&flat, root_name, n).map_err(oem_err)?;
            if journal_cold {
                for i in 0..n {
                    let put = JournalRecord::put_root(root_name, sharded.shard(i));
                    durable.shard_mut(i).journal(&put)?;
                }
                durable.sync_all()?;
            }
            sharded
        };
        Ok(Self::from_store(root_name, sharded, Some(durable)))
    }

    fn from_store(
        root_name: &str,
        sharded: ShardedStore,
        durable: Option<ShardedDurableStore>,
    ) -> Self {
        let epochs = Arc::new(RwLock::new(Arc::new(sharded.epochs().to_vec())));
        Self {
            root_name: root_name.to_string(),
            current: RwLock::new(sharded),
            epochs,
            assembled: Mutex::new(None),
            durable: Mutex::new(durable),
            commit_lock: Mutex::new(()),
            commits: AtomicU64::new(0),
            conflicts: AtomicU64::new(0),
            aborts: AtomicU64::new(0),
        }
    }

    /// The root name shards are keyed under.
    pub fn root_name(&self) -> &str {
        &self.root_name
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.current.read().shard_count()
    }

    /// The key router (shard count is fixed for the model's lifetime).
    pub fn router(&self) -> ShardRouter {
        self.current.read().router()
    }

    /// Pins the current shard vector: a consistent cross-shard read
    /// snapshot. `Arc` clones only — the pinned shards stay immutable
    /// and servable no matter how many commits land afterwards.
    pub fn pin(&self) -> ShardedStore {
        self.current.read().clone()
    }

    /// The live epoch vector, cheap enough for per-request reads.
    pub fn epoch_vector(&self) -> Arc<Vec<u64>> {
        Arc::clone(&self.epochs.read())
    }

    /// Shared handle the serve tier stamps cache entries from.
    pub fn epochs_handle(&self) -> EpochsHandle {
        Arc::clone(&self.epochs)
    }

    /// Begins an optimistic transaction pinned at the current vector.
    pub fn begin(&self) -> ShardTxn {
        ShardTxn {
            begin: self.pin(),
            staged: None,
            event: None,
        }
    }

    /// Abandons a transaction (counts toward the abort gauge).
    pub fn abort(&self, txn: ShardTxn) {
        drop(txn);
        self.aborts.fetch_add(1, Ordering::Relaxed);
    }

    /// Commits a staged transaction. First-writer-wins: every shard the
    /// transaction changed must still be at its begin epoch, otherwise
    /// the commit conflicts and nothing is swapped or journaled. Public
    /// for B15 and the benchmark harness (ROADMAP item 1(e)).
    pub fn commit(&self, txn: ShardTxn) -> Result<CommitOutcome, CommitError> {
        let Some((staged, changed, groups)) = txn.staged else {
            // Nothing staged: an empty (read-only) transaction.
            self.commits.fetch_add(1, Ordering::Relaxed);
            return Ok(CommitOutcome {
                changed: Vec::new(),
                journaled: 0,
            });
        };
        let _serialised = self.commit_lock.lock();
        // First-writer-wins validation against the live vector. Only
        // commits mutate `current`, and every commit holds the commit
        // lock, so a read snapshot of the epochs is stable for the rest
        // of this function.
        {
            let cur = self.current.read();
            for &i in &changed {
                if cur.epochs()[i] != txn.begin.epochs()[i] {
                    drop(cur);
                    self.conflicts.fetch_add(1, Ordering::Relaxed);
                    return Err(CommitError::Conflict { shards: changed });
                }
            }
        }
        // Journal *before* publishing (write-ahead): if a segment write
        // fails here, the commit was never visible — readers keep the
        // old vector, the epochs never advanced, and the returned Err
        // is truthful. The WAL may then be ahead of memory (crc framing
        // drops any torn tail; a fully-journaled shard of a failed
        // multi-shard commit surfaces on the next open), which is the
        // safe direction — the reverse order would let readers observe
        // a state change that a crash then silently loses. Journaling
        // runs outside the shard-vector lock (readers proceed) but
        // inside the commit lock (segments see commit order).
        let mut journaled = 0;
        if let Some(d) = self.durable.lock().as_mut() {
            if let Some(record) = &txn.event {
                d.shard_mut(0).journal(record)?;
                journaled += 1;
            }
            for &i in &changed {
                let (root, store) = (&self.root_name, staged.shard(i));
                journaled += d.shard_mut(i).journal_groups(root, store, &groups[i])?;
            }
        }
        if !changed.is_empty() {
            self.install(changed.iter().map(|&i| (i, Arc::clone(staged.shard(i)))));
        }
        self.commits.fetch_add(1, Ordering::Relaxed);
        Ok(CommitOutcome { changed, journaled })
    }

    /// Lays `flat` out over the shards without moving an epoch: the
    /// first materialisation of a model opened as a placeholder that no
    /// reader was served, which is no change a reader could observe.
    pub(crate) fn fill(&self, flat: &OemStore) -> Result<(), AnnodaError> {
        let filled =
            ShardedStore::partition(flat, &self.root_name, self.shard_count()).map_err(oem_err)?;
        let _serialised = self.commit_lock.lock();
        let mut cur = self.current.write();
        let epochs = cur.epochs().to_vec();
        *cur = ShardedStore::from_shards(&self.root_name, filled.shards().to_vec(), epochs)
            .map_err(oem_err)?;
        drop(cur);
        self.assembled.lock().take();
        Ok(())
    }

    /// Swaps `shards` into the live vector, bumping their epochs, and
    /// drops the cached assembly.
    fn install(&self, shards: impl IntoIterator<Item = (usize, Arc<OemStore>)>) {
        let mut cur = self.current.write();
        for (i, store) in shards {
            cur.install(i, store);
        }
        *self.epochs.write() = Arc::new(cur.epochs().to_vec());
        drop(cur);
        self.assembled.lock().take();
    }

    /// Commits the model `propose` returns, proposing again after each
    /// first-writer-wins conflict (other writers may hold this handle),
    /// up to 16 times, journaling `event` with the one that commits.
    /// Returns the outcome and the changed-fragment count.
    pub fn commit_proposed(
        &self,
        event: Option<&JournalRecord>,
        mut propose: impl FnMut() -> Result<OemStore, AnnodaError>,
    ) -> Result<(CommitOutcome, usize), AnnodaError> {
        let mut last = Vec::new();
        for _ in 0..16 {
            let proposed = propose()?;
            let mut txn = self.begin();
            txn.stage(&proposed)?;
            txn.event = event.cloned();
            let fragments = txn.changed_fragment_count();
            match self.commit(txn) {
                Ok(outcome) => return Ok((outcome, fragments)),
                Err(CommitError::Conflict { shards }) => last = shards,
                Err(CommitError::Annoda(e)) => return Err(e),
            }
        }
        let lost = format!("commit lost 16 first-writer-wins races in a row (last: {last:?})");
        Err(AnnodaError::Txn(lost))
    }

    /// Runs `f` on the per-shard WAL segments (`None` without
    /// persistence).
    fn durable<R>(&self, f: impl FnOnce(&mut ShardedDurableStore) -> R) -> Option<R> {
        self.durable.lock().as_mut().map(f)
    }

    /// Runs `f` on the WAL segment replication ships: the one segment
    /// of a one-shard durable model (`None` otherwise).
    pub(crate) fn with_segment<R>(&self, f: impl FnOnce(&mut DurableStore) -> R) -> Option<R> {
        let one = |d: &mut ShardedDurableStore| (d.shard_count() == 1).then(|| f(d.shard_mut(0)));
        self.durable(one).flatten()
    }

    /// Replica side: serves what the segment holds — a copy of its
    /// store replaces shard 0, bumping its epoch — once it has a root.
    pub(crate) fn adopt_segment(&self) -> Result<(), AnnodaError> {
        let _serialised = self.commit_lock.lock();
        let root = &self.root_name;
        let copy = self.with_segment(|d| d.store().named(root).map(|_| laid_out(d.store(), root)));
        if let Some(store) = copy.flatten().transpose()? {
            self.install([(0, store)]);
        }
        Ok(())
    }

    /// The assembled flat view of the current vector, cached per epoch
    /// vector. Readers that need a single `OemStore` (Lorel, search
    /// harvesting) share one assembly per committed state; the rebuild
    /// runs outside the shard-vector lock, so commits and pinned reads
    /// proceed while it runs. One shard, laid out as every installed
    /// shard is, is its own assembly.
    pub fn assembled(&self) -> (Vec<u64>, Arc<OemStore>) {
        let pin = self.pin();
        let vector = pin.epochs().to_vec();
        if pin.shard_count() == 1 {
            return (vector, Arc::clone(pin.shard(0)));
        }
        let mut guard = self.assembled.lock();
        if let Some((v, store)) = guard.as_ref() {
            if *v == vector {
                return (vector, Arc::clone(store));
            }
        }
        let store = Arc::new(pin.assemble());
        *guard = Some((vector.clone(), Arc::clone(&store)));
        (vector, store)
    }

    /// Transaction counters.
    pub fn txn_stats(&self) -> TxnStats {
        TxnStats {
            commits: self.commits.load(Ordering::Relaxed),
            conflicts: self.conflicts.load(Ordering::Relaxed),
            aborts: self.aborts.load(Ordering::Relaxed),
        }
    }

    /// Per-shard gauges (objects, fragments, epoch, WAL segment size).
    pub fn shard_gauges(&self) -> Vec<ShardGauges> {
        let pin = self.pin();
        let persist = self.durable(|d| d.stats());
        (0..pin.shard_count())
            .map(|i| {
                let (wal_bytes, generation) = persist
                    .as_ref()
                    .map(|p| (p[i].wal_bytes, p[i].generation))
                    .unwrap_or((0, 0));
                ShardGauges {
                    shard: i,
                    objects: pin.shard_objects(i),
                    fragments: pin.shard_fragments(i),
                    epoch: pin.epochs()[i],
                    wal_bytes,
                    generation,
                }
            })
            .collect()
    }

    /// Fsyncs every dirty WAL segment (e.g. after a refresh burst).
    pub fn sync(&self) -> Result<(), AnnodaError> {
        Ok(self.durable(|d| d.sync_all()).unwrap_or(Ok(()))?)
    }

    /// Compacts every WAL segment behind a snapshot, under the commit
    /// lock so no commit journals into a segment mid-reset. The shard
    /// epochs are untouched: nothing a reader sees changed. `Ok(None)`
    /// without persistence.
    pub fn snapshot(&self) -> Result<Option<SnapshotMeta>, AnnodaError> {
        let _serialised = self.commit_lock.lock();
        Ok(self.durable(|d| d.snapshot_all()).transpose()?)
    }

    /// Journal/WAL counters summed over the shard segments (`None`
    /// without persistence).
    pub fn persist_stats(&self) -> Option<PersistStats> {
        self.durable(|d| d.total_stats())
    }

    /// Whether per-shard durability backs this model.
    pub fn is_durable(&self) -> bool {
        self.durable(|_| ()).is_some()
    }

    /// What recovery found in the shard segments at open time, summed
    /// (`None` without persistence).
    pub fn recovery(&self) -> Option<RecoveryReport> {
        self.durable(|d| d.recovery())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gml(notes: &[(&str, &str)]) -> OemStore {
        let mut s = OemStore::new();
        let root = s.new_complex();
        s.set_name("ANNODA-GML", root).unwrap();
        for sym in ["TP53", "BRCA1", "MDM2", "EGFR", "KRAS", "BRAF"] {
            let g = s.add_complex_child(root, "Gene").unwrap();
            s.add_atomic_child(g, "Symbol", sym).unwrap();
            if let Some((_, note)) = notes.iter().find(|(k, _)| k == &sym) {
                s.add_atomic_child(g, "Note", *note).unwrap();
            }
        }
        s
    }

    /// Shards of a set of symbols under the model's router.
    fn shards_of(m: &ShardedGml, syms: &[&str]) -> Vec<usize> {
        let r = m.router();
        let mut v: Vec<usize> = syms.iter().map(|s| r.route(s)).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    #[test]
    fn empty_and_identical_commits_touch_nothing() {
        let m = ShardedGml::new(&gml(&[]), "ANNODA-GML", 4).unwrap();
        let before = m.epoch_vector();
        let txn = m.begin();
        let out = m.commit(txn).unwrap();
        assert!(out.changed.is_empty());
        let mut txn = m.begin();
        txn.stage(&gml(&[])).unwrap();
        let out = m.commit(txn).unwrap();
        assert!(out.changed.is_empty(), "identical stage changes nothing");
        assert_eq!(*m.epoch_vector(), *before);
        assert_eq!(m.txn_stats().commits, 2);
    }

    #[test]
    fn commit_swaps_only_touched_shards_and_readers_keep_pins() {
        let m = ShardedGml::new(&gml(&[]), "ANNODA-GML", 4).unwrap();
        let reader_pin = m.pin();
        let before = m.epoch_vector();

        let mut txn = m.begin();
        txn.stage(&gml(&[("TP53", "v2")])).unwrap();
        let want = shards_of(&m, &["TP53"]);
        assert_eq!(txn.touched(), want.as_slice());
        let out = m.commit(txn).unwrap();
        assert_eq!(out.changed, want);

        let after = m.epoch_vector();
        for i in 0..4 {
            let expect = if want.contains(&i) {
                before[i] + 1
            } else {
                before[i]
            };
            assert_eq!(after[i], expect);
        }
        // The reader's pinned vector still serves the old state.
        let (idx, frag) = reader_pin.fragment("Gene", "TP53").unwrap();
        assert!(reader_pin.shard(idx).child_value(frag, "Note").is_none());
        // A fresh pin sees the commit.
        let now = m.pin();
        let (idx, frag) = now.fragment("Gene", "TP53").unwrap();
        assert_eq!(
            annoda_oem::harvest::atomic_text(now.shard(idx).child_value(frag, "Note").unwrap()),
            Some("v2".to_string())
        );
    }

    #[test]
    fn overlapping_txns_get_exactly_one_conflict() {
        let m = ShardedGml::new(&gml(&[]), "ANNODA-GML", 4).unwrap();
        let mut a = m.begin();
        let mut b = m.begin();
        a.stage(&gml(&[("TP53", "from-a")])).unwrap();
        b.stage(&gml(&[("TP53", "from-b")])).unwrap();
        m.commit(a).unwrap();
        match m.commit(b) {
            Err(CommitError::Conflict { shards }) => {
                assert_eq!(shards, shards_of(&m, &["TP53"]));
            }
            other => panic!("expected conflict, got {other:?}"),
        }
        let stats = m.txn_stats();
        assert_eq!((stats.commits, stats.conflicts), (1, 1));
    }

    #[test]
    fn disjoint_txns_both_commit() {
        // Find two symbols on different shards so the touched sets are
        // provably disjoint.
        let m = ShardedGml::new(&gml(&[]), "ANNODA-GML", 4).unwrap();
        let syms = ["TP53", "BRCA1", "MDM2", "EGFR", "KRAS", "BRAF"];
        let r = m.router();
        let a_sym = syms[0];
        let b_sym = syms
            .iter()
            .find(|s| r.route(s) != r.route(a_sym))
            .expect("6 symbols over 4 shards cannot all collide");
        let mut a = m.begin();
        let mut b = m.begin();
        a.stage(&gml(&[(a_sym, "A")])).unwrap();
        b.stage(&gml(&[(b_sym, "B")])).unwrap();
        m.commit(a).unwrap();
        m.commit(b).unwrap();
        let stats = m.txn_stats();
        assert_eq!((stats.commits, stats.conflicts), (2, 0));
        // Both writes are visible in one consistent pin.
        let now = m.pin();
        for (sym, note) in [(a_sym, "A"), (*b_sym, "B")] {
            let (idx, frag) = now.fragment("Gene", sym).unwrap();
            assert_eq!(
                annoda_oem::harvest::atomic_text(now.shard(idx).child_value(frag, "Note").unwrap()),
                Some(note.to_string())
            );
        }
    }

    #[test]
    fn assembled_is_cached_per_vector_and_invalidated_by_commit() {
        let m = ShardedGml::new(&gml(&[]), "ANNODA-GML", 3).unwrap();
        let (v1, s1) = m.assembled();
        let (v2, s2) = m.assembled();
        assert_eq!(v1, v2);
        assert!(Arc::ptr_eq(&s1, &s2), "same vector shares the assembly");
        let mut txn = m.begin();
        txn.stage(&gml(&[("EGFR", "x")])).unwrap();
        m.commit(txn).unwrap();
        let (v3, s3) = m.assembled();
        assert_ne!(v1, v3);
        assert!(!Arc::ptr_eq(&s1, &s3), "commit rebuilds the assembly");
    }

    #[test]
    fn one_shard_is_its_own_assembly_on_every_path_in() {
        use annoda_persist::encode_store;
        let same = |m: &ShardedGml| {
            let (_, served) = m.assembled();
            assert!(Arc::ptr_eq(&served, m.pin().shard(0)), "no copy is made");
            encode_store(&served)
        };
        let assembled = |m: &ShardedGml| encode_store(&m.pin().assemble());
        let dir = std::env::temp_dir().join(format!("annoda-txn-one-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let written = {
            let m = ShardedGml::open(
                &dir,
                FsyncPolicy::Always,
                1,
                "ANNODA-GML",
                || Ok(gml(&[])),
                true,
            )
            .unwrap();
            assert_eq!(same(&m), assembled(&m), "partitioned at a cold open");
            let mut txn = m.begin();
            txn.stage(&gml(&[("EGFR", "x"), ("KRAS", "y")])).unwrap();
            m.commit(txn).unwrap();
            assert_eq!(same(&m), assembled(&m), "staged by a commit");
            same(&m)
        };
        // A warm open lays the recovered segment out as a partition
        // does, so it serves the bytes the writer served.
        let warm = ShardedGml::open(
            &dir,
            FsyncPolicy::Always,
            0,
            "ANNODA-GML",
            || panic!("warm open must not re-materialise"),
            true,
        )
        .unwrap();
        assert_eq!(same(&warm), written, "recovered from the segment");
        assert_eq!(same(&warm), assembled(&warm));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The cross-restart half of the ETag proof: a dep-stamped
    /// validator minted before a commit+restart must never collide with
    /// the reopened vector, or a client would get a false `304` over
    /// changed data. Warm open re-seeds epochs from the durable
    /// generations plus a per-boot salt, so pre-restart masked sums
    /// miss (probabilistically, at 2^-48).
    #[test]
    fn warm_reopen_never_revalidates_pre_restart_stamps() {
        let dir = std::env::temp_dir().join(format!("annoda-txn-salt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let before = {
            let m = ShardedGml::open(
                &dir,
                FsyncPolicy::Always,
                3,
                "ANNODA-GML",
                || Ok(gml(&[])),
                true,
            )
            .unwrap();
            let mut txn = m.begin();
            txn.stage(&gml(&[("KRAS", "pre-restart")])).unwrap();
            m.commit(txn).unwrap();
            m.epoch_vector().to_vec()
        };
        let warm = ShardedGml::open(
            &dir,
            FsyncPolicy::Always,
            0,
            "ANNODA-GML",
            || panic!("warm open must not re-materialise"),
            true,
        )
        .unwrap();
        let after = warm.epoch_vector();
        let full_mask = (1u64 << 3) - 1;
        assert_ne!(
            annoda_oem::mask_stamp(&before, full_mask),
            annoda_oem::mask_stamp(&after, full_mask),
            "a stamp minted before the restart must not revalidate after it"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_roundtrip_recovers_per_shard() {
        let dir = std::env::temp_dir().join(format!("annoda-txn-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let m = ShardedGml::open(
                &dir,
                FsyncPolicy::Always,
                3,
                "ANNODA-GML",
                || Ok(gml(&[])),
                true,
            )
            .unwrap();
            let mut txn = m.begin();
            txn.stage(&gml(&[("KRAS", "durable")])).unwrap();
            let out = m.commit(txn).unwrap();
            assert!(out.journaled > 0, "touched shard journals its delta");
        }
        let warm = ShardedGml::open(
            &dir,
            FsyncPolicy::Always,
            0,
            "ANNODA-GML",
            || panic!("warm open must not re-materialise"),
            true,
        )
        .unwrap();
        assert_eq!(warm.shard_count(), 3);
        let pin = warm.pin();
        let (idx, frag) = pin.fragment("Gene", "KRAS").unwrap();
        assert_eq!(
            annoda_oem::harvest::atomic_text(pin.shard(idx).child_value(frag, "Note").unwrap()),
            Some("durable".to_string())
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
