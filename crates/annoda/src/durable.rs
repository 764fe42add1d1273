//! [`DurableSystem`] — the ANNODA façade with a disk life.
//!
//! [`Annoda`] alone is ephemeral: every process start re-wraps all
//! sources and re-materialises ANNODA-GML from scratch. This layer
//! pairs the façade with a store holding the committed global model:
//!
//! * **cold start** — no persisted GML yet: materialise once and
//!   journal it, so the *next* start is warm;
//! * **warm start** — recovery rebuilt the exact GML the previous
//!   process held (snapshot + WAL replay); queries are served from it
//!   immediately without re-materialising;
//! * **refresh** — wrappers re-pull their native databases (which also
//!   invalidates the mediator's subquery cache), and the commit journals
//!   one `ReplaceFragments` record per fragment group that changed
//!   against the pinned model — the groups of the keyed walk
//!   ([`annoda_oem::ShardedStore::changed_groups`]) that also decides
//!   which shards the commit swaps.
//!
//! # One write protocol
//!
//! Every write is an **apply** followed by a **commit**. The apply
//! changes the wrappers and needs `&mut self` (a serve tier's writer
//! lock). The commit is `&self` (a reader lock): it
//! brings the model up to the wrappers, persists it, and only then
//! publishes — retiring the serving snapshot and moving the cache stamp
//! in one step — so readers keep the previous snapshot while it runs,
//! and the next query builds the new one.
//! Plug, unplug and refresh apply and commit in one call; a change feed
//! calls [`DurableSystem::absorb_apply`] and
//! [`DurableSystem::absorb_commit`] under the two locks.
//!
//! The store is one [`ShardedGml`] in every shape, in memory or
//! durable; leader and follower are roles:
//!
//! | role | apply (`&mut self`) | commit (`&self`) | publish |
//! |---|---|---|---|
//! | leader | the wrappers | materialise, stage, first-writer-wins commit (journals the source event into shard 0, then the touched shard segments, fsync) | the touched shards' epochs move; a plug, unplug or text-only delta also drops the snapshot, generation + 1 |
//! | follower | refused | nothing: its model is its leader's log | every shipped batch drops the snapshot, generation + 1 |
//!
//! The next snapshot assembles the shards.
//!
//! Two staleness rules hold in every shape. A façade mutation
//! ([`DurableSystem::annoda_mut`]) marks the model dirty, and the next
//! [`DurableSystem::query_snapshot`] reconciles it through a commit.
//! Between an apply and its commit the wrappers are ahead of the
//! published model: [`DurableSystem::pending_handle`] numbers that
//! window. Anything derived from the wrappers in it may be cached only
//! under the pre-apply stamp, which the commit moves, and may carry only
//! a tag that names the window and never revalidates; a snapshot built
//! in it is never installed.
//!
//! The ranked-search index is derived, never persisted: a data
//! directory holds only the `shards.meta` manifest, the replica marker,
//! and a `shard-NNN/` per shard with its WAL and snapshot files. Each
//! snapshot build harvests the wrappers' text and either republishes
//! the previous index (the corpus fingerprint is unchanged) or builds a
//! new one. That memo is the one place a served index is kept.

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use annoda_lorel::{FunctionRegistry, PlanExplain, QueryOutcome};
use annoda_mediator::{Mediator, MediatorError};
use annoda_oem::shard::ShardRouter;
use annoda_oem::{OemStore, Snapshot};
use annoda_persist::{
    DurableStore, FsyncPolicy, JournalRecord, RecoveryReport, SnapshotMeta, SourceEventKind,
    TailRead,
};
use annoda_search::{docs_fingerprint, FusionStrategy, RankedAnswer, SearchIndex, SearchStats};
use annoda_wrap::{Cost, LatencyModel, Wrapper};
use parking_lot::{Mutex, RwLock};

use crate::registry::PlugReport;
use crate::repl::{ReplShared, Role};
use crate::system::{Annoda, AnnodaError};
use crate::txn::{boot_epoch_salt, ShardedGml};

/// The name the mediator binds the materialised global model under —
/// also the root name the journal tracks.
pub const GML_ROOT: &str = "ANNODA-GML";

/// Marker file a follower leaves at its data directory's root: its WAL
/// segment is a byte-for-byte replica of some leader's, so the local
/// WAL length is a valid replication resume position. A directory
/// without the marker may hold locally-journaled bytes (a leader's, or
/// a cold materialisation) whose offsets mean nothing on the leader's
/// log — such a follower must bootstrap via snapshot transfer.
/// Promotion removes the marker.
const FOLLOWER_MARKER: &str = "replica.follower";

/// The follower marker of the data directory `segment` (its
/// `shard-000/`) lives in: at the directory's root.
fn marker(segment: &DurableStore) -> std::path::PathBuf {
    segment.dir().with_file_name(FOLLOWER_MARKER)
}

/// Leaves the follower marker at `path`.
fn write_marker(path: &Path) -> Result<(), AnnodaError> {
    std::fs::write(path, b"replica\n")
        .map_err(|e| AnnodaError::Replication(format!("cannot write marker: {e}")))
}

/// What one durable refresh did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefreshOutcome {
    /// Objects re-pulled by the wrappers.
    pub refreshed_objects: usize,
    /// Journal records written for the resulting GML delta (including
    /// the refresh marker itself), zero when persistence is off.
    pub journaled_records: usize,
    /// Whether a durable store backs this system.
    pub persisted: bool,
    /// Shards whose epoch bumped for this delta — the blast radius a
    /// cached reader sees.
    pub changed_shards: usize,
    /// Entity fragments that structurally changed across the bumped
    /// shards — the record-level grain of the delta.
    pub changed_fragments: usize,
}

/// One epoch of the served global model: an immutable `Arc<OemStore>`
/// shared by every in-flight query, plus what it cost to build.
///
/// Built by the first query after a commit retired the previous one
/// (see the module docs). Queries evaluate against the `Arc` with **no
/// lock held and no store clone** — answers land in per-query
/// [`annoda_oem::AnswerOverlay`]s above the snapshot's high-water mark.
#[derive(Debug, Clone)]
pub struct GmlSnapshot {
    /// Monotonic epoch number; bumps on every rebuild.
    pub epoch: u64,
    /// The immutable global model this epoch serves.
    pub store: Arc<OemStore>,
    /// What building this epoch cost: one amortised local copy of the
    /// assembled shards.
    pub build_cost: Cost,
    /// The ranked-search index over the same epoch's wrapper text —
    /// published atomically with the store (one `RwLock` swap installs
    /// both), so `/search` and `/genes` can never observe different
    /// epochs within one generation. The wrappers cannot change while a
    /// snapshot is built, and one built between an apply and its commit
    /// is never installed, so the pair describes one committed state.
    pub search: Arc<SearchIndex>,
    /// The per-shard epoch vector this snapshot was assembled from;
    /// `Some` except where the benchmark harness builds the struct
    /// (ROADMAP item 1(e)).
    pub shard_epochs: Option<Arc<Vec<u64>>>,
    /// The key router; kept for the benchmark harness until ROADMAP item
    /// 1(e) drops it.
    pub shard_router: Option<ShardRouter>,
}

/// A point-in-time view of the current snapshot, for `/metrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapshotInfo {
    /// The served epoch.
    pub epoch: u64,
    /// Objects in the served store.
    pub objects: usize,
}

/// One served Lorel answer: the outcome plus the `base ⊕ overlay` view
/// it renders through, the epoch it was computed against, and real cost
/// and planner accounting.
#[derive(Debug, Clone)]
pub struct LorelServed {
    /// Epoch of the snapshot the query ran against.
    pub epoch: u64,
    /// Object count of the base store (answer oids start here).
    pub store_len: usize,
    /// The answer view — render with [`annoda_oem::text::write_rooted`].
    pub view: Snapshot<Arc<OemStore>>,
    /// The query outcome (answer oid, rows, projections, groups).
    pub outcome: QueryOutcome,
    /// Snapshot build cost plus the local evaluation charge.
    pub cost: Cost,
    /// What the planner did.
    pub explain: PlanExplain,
}

/// An [`Annoda`] system over its committed global model (module docs).
pub struct DurableSystem {
    system: Annoda,
    /// The MVCC shard vector, with or without per-shard WAL segments.
    store: Arc<ShardedGml>,
    /// The published serving snapshot; `None` until the first query
    /// after a commit. Readers clone the `Arc` and drop the guard before
    /// evaluating.
    snapshot: RwLock<Option<Arc<GmlSnapshot>>>,
    /// Epochs handed out so far.
    epochs: AtomicU64,
    /// The serving generation: bumps whenever a publish is not covered
    /// by the shard epochs (a plug, an unplug, a text-only delta, every
    /// follower commit) and on every façade mutation. Shared as an `Arc`
    /// so the HTTP layer can key its response cache and mint `ETag`s
    /// without taking the system lock. It starts at a random per-system
    /// salt, so two processes (or two systems in one) never mint the
    /// same tag for different bodies.
    generation: Arc<AtomicU64>,
    /// The open apply window: the number of the last apply while its
    /// commit has not published (the wrappers are ahead of the published
    /// model), `0` otherwise. Shared like `generation`, for the same
    /// readers.
    pending: Arc<AtomicU64>,
    /// Applies so far; they number the windows.
    applies: u64,
    /// Set by a façade mutation; the next snapshot build commits.
    dirty: AtomicBool,
    /// Set while the model is an in-memory open's root-only placeholder.
    placeholder: AtomicBool,
    /// Held by [`DurableSystem::reconcile`].
    reconcile: Mutex<()>,
    /// Replication role and position gauges, shared with the
    /// replication threads and the HTTP layer.
    repl: Arc<ReplShared>,
    /// In-memory search-index reuse: `(corpus fingerprint, index)` of
    /// the last build. A shard commit that did not change any harvested
    /// text republishes the same index instead of rebuilding — the
    /// search half of selective invalidation.
    search_memo: RwLock<Option<(u32, Arc<SearchIndex>)>>,
}

impl DurableSystem {
    fn with_store(system: Annoda, store: ShardedGml, placeholder: bool) -> Self {
        DurableSystem {
            system,
            store: Arc::new(store),
            snapshot: RwLock::new(None),
            epochs: AtomicU64::new(0),
            generation: Arc::new(AtomicU64::new(boot_epoch_salt())),
            pending: Arc::new(AtomicU64::new(0)),
            applies: 0,
            dirty: AtomicBool::new(false),
            placeholder: AtomicBool::new(placeholder),
            reconcile: Mutex::new(()),
            repl: Arc::new(ReplShared::new(Role::Leader)),
            search_memo: RwLock::new(None),
        }
    }

    /// Wraps a system over an in-memory one-shard global model, without
    /// persistence: [`new_sharded`](Self::new_sharded) with one shard.
    pub fn new(system: Annoda) -> Self {
        Self::new_sharded(system, 1).expect("one shard is a valid shard count")
    }

    /// Wraps a system over an in-memory global model of `shards`
    /// shards: MVCC per-shard epochs and concurrent transactional
    /// writers, no persistence. Nothing is materialised here: the model
    /// opens as a root-only placeholder that the first snapshot or apply
    /// fills, keeping the epochs; concurrent first readers wait for the
    /// fill, so none is served the placeholder.
    pub fn new_sharded(system: Annoda, shards: usize) -> Result<Self, AnnodaError> {
        let mut placeholder = OemStore::new();
        let root = placeholder.new_complex();
        placeholder
            .set_name(GML_ROOT, root)
            .expect("a fresh store has no names");
        let sharded = ShardedGml::new(&placeholder, GML_ROOT, shards)?;
        Ok(Self::with_store(system, sharded, true))
    }

    /// Opens `dir` as a durable store of `shards` shards (`0` adopts
    /// the manifest's count): per-shard WAL segments and snapshot
    /// generations under `dir/shard-NNN/`. A warm directory rebuilds the
    /// shard vector straight from the recovered segments; a cold one
    /// materialises the GML once, partitions it, and journals (and
    /// fsyncs) every shard.
    pub fn open_sharded(
        system: Annoda,
        dir: &Path,
        policy: FsyncPolicy,
        shards: usize,
    ) -> Result<Self, AnnodaError> {
        let materialize = || Ok(system.mediator().materialize_gml()?.0);
        let sharded = ShardedGml::open(dir, policy, shards, GML_ROOT, materialize, true)?;
        // This process journals locally from here on; a follower later
        // opened over the same directory must bootstrap via snapshot
        // transfer, not resume from these offsets.
        let _ = std::fs::remove_file(dir.join(FOLLOWER_MARKER));
        Ok(Self::with_store(system, sharded, false))
    }

    /// The wrapped façade.
    pub fn annoda(&self) -> &Annoda {
        &self.system
    }

    /// Mutable façade access (annotations, eval functions, wrapper
    /// edits, ...). The caller may change what the GML materialises to,
    /// so this bumps the generation and marks the model dirty: the next
    /// [`DurableSystem::query_snapshot`] reconciles it through a commit.
    pub fn annoda_mut(&mut self) -> &mut Annoda {
        *self.dirty.get_mut() = true;
        self.generation.fetch_add(1, Ordering::Release);
        &mut self.system
    }

    /// The current serving generation — a strong cache key for any
    /// response derived from the global model. Two reads returning the
    /// same value bracket a window in which the GML cannot have
    /// changed.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// A shared handle to the generation counter, for readers (the HTTP
    /// cache) that must observe invalidations without taking any lock
    /// on the system itself.
    pub fn generation_handle(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.generation)
    }

    /// A shared handle to the open apply window: between an apply and
    /// the commit that publishes it, when answers derived from the
    /// wrappers are ahead of every cache stamp, a number no other window
    /// gets; `0` otherwise. A commit moves the stamp first.
    pub fn pending_handle(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.pending)
    }

    /// A copy of the persisted GML store — the segment of a one-shard
    /// durable store, once its root has been journaled.
    pub fn persisted_gml(&self) -> Option<OemStore> {
        let segment = |d: &mut DurableStore| d.store().named(GML_ROOT).map(|_| d.store().clone());
        self.store.with_segment(segment)?
    }

    // -----------------------------------------------------------------
    // replication

    /// Opens `dir` as a read-only follower over a one-shard segment:
    /// its store advances only by applying the leader's shipped WAL, so
    /// a cold segment journals nothing (the follower serves its own
    /// materialisation from memory until the leader's root arrives),
    /// and a warm one serves what it recovered. A directory carrying
    /// the follower marker — or a completely fresh one, trivially in
    /// sync at the log base, which gets the marker — resumes the
    /// subscription from its own `(generation, wal_offset)`; anything
    /// else holds locally-journaled bytes and must bootstrap via
    /// snapshot transfer.
    pub fn open_follower(
        system: Annoda,
        dir: &Path,
        policy: FsyncPolicy,
    ) -> Result<Self, AnnodaError> {
        let materialize = || Ok(system.mediator().materialize_gml()?.0);
        let sharded = ShardedGml::open(dir, policy, 1, GML_ROOT, materialize, false)?;
        let position = sharded.with_segment(|d| {
            // Nothing recovered, nothing truncated: a fresh segment.
            if *d.recovery() == RecoveryReport::default() {
                write_marker(&marker(d))?;
            }
            Ok::<_, AnnodaError>((d.generation(), d.wal_offset()))
        });
        let (generation, offset) = position.expect("a replica opens one durable shard")?;
        let this = Self::with_store(system, sharded, false);
        this.repl.set_role(Role::Follower);
        this.repl.set_applied(generation, offset);
        Ok(this)
    }

    /// This node's replication role.
    pub fn role(&self) -> Role {
        self.repl.role()
    }

    /// The shared replication gauges — role, positions, lag — read by
    /// the HTTP layer and written by the replication threads without
    /// taking the system lock.
    pub fn repl_handle(&self) -> Arc<ReplShared> {
        Arc::clone(&self.repl)
    }

    /// The durable `(generation, wal_offset)` position of a one-shard
    /// store's segment — what `/healthz` reports and what
    /// read-your-writes clients compare against.
    pub fn wal_position(&self) -> Option<(u64, u64)> {
        self.store
            .with_segment(|d| (d.generation(), d.wal_offset()))
    }

    /// Where a replica client should resume its subscription: the local
    /// WAL position when it is a trusted replica of the leader's log,
    /// `None` when only a snapshot transfer can synchronise this node.
    pub fn replica_resume_position(&self) -> Option<(u64, u64)> {
        let marked = self.store.with_segment(|d| marker(d).exists())?;
        marked.then(|| self.wal_position()).flatten()
    }

    /// Runs `f` on the segment replication ships.
    fn segment<R>(&self, f: impl FnOnce(&mut DurableStore) -> R) -> Result<R, AnnodaError> {
        let shipped = self.store.with_segment(f);
        shipped.ok_or_else(|| AnnodaError::Replication("no one-shard durable store".into()))
    }

    /// Leader side: reads WAL records for a subscriber positioned at
    /// `(generation, from_offset)`. `Ok(None)` means the position is
    /// unservable (stale generation or misaligned offset) and the
    /// subscriber needs [`DurableSystem::base_snapshot`].
    pub fn read_wal_tail(
        &self,
        generation: u64,
        from_offset: u64,
        max_bytes: u64,
    ) -> Result<Option<TailRead>, AnnodaError> {
        Ok(self.segment(|d| d.read_tail(generation, from_offset, max_bytes))??)
    }

    /// Leader side: the base state a bootstrapping subscriber installs
    /// before replaying this WAL (the on-disk snapshot, or the empty
    /// store at generation 0).
    pub fn base_snapshot(&self) -> Result<(OemStore, u64), AnnodaError> {
        Ok(self.segment(|d| d.base_snapshot())??)
    }

    /// Follower side: runs `write` on the replicated segment, or
    /// refuses with `refused` on a leader.
    fn follower_write<R>(
        &self,
        refused: &str,
        write: impl FnOnce(&mut DurableStore) -> Result<R, AnnodaError>,
    ) -> Result<R, AnnodaError> {
        if self.repl.role() != Role::Follower {
            return Err(AnnodaError::Replication(refused.to_string()));
        }
        self.segment(write)?
    }

    /// Follower side: serves what the segment now holds, and retires
    /// the served snapshot.
    fn adopt(&self) -> Result<(), AnnodaError> {
        self.store.adopt_segment()?;
        self.invalidate();
        Ok(())
    }

    /// Follower side: installs a transferred base snapshot, discarding
    /// all local state, and returns the offset to tail from (the WAL
    /// base). Marks the directory as a genuine replica so restarts
    /// resume instead of re-transferring.
    pub fn install_replica_snapshot(
        &mut self,
        store: OemStore,
        generation: u64,
    ) -> Result<u64, AnnodaError> {
        self.follower_write("snapshot install refused: not a follower", |d| {
            d.install_snapshot(store, generation)?;
            write_marker(&marker(d))
        })?;
        let base = DurableStore::wal_base_offset();
        self.repl.set_applied(generation, base);
        self.adopt()?;
        Ok(base)
    }

    /// Follower side: applies one shipped batch of raw WAL record
    /// payloads. The batch must extend the applied position exactly —
    /// `(generation, from_offset)` equal to the local WAL head — and
    /// each record is journaled with its *original* bytes, keeping the
    /// local log byte-identical to the leader's. Source-unplug events
    /// are mirrored into the live registry so search harvesting tracks
    /// the replicated model. Returns the new applied offset.
    pub fn apply_replica_batch(
        &mut self,
        generation: u64,
        from_offset: u64,
        records: &[Vec<u8>],
    ) -> Result<u64, AnnodaError> {
        let (applied, unplugs) =
            self.follower_write("batch apply refused: not a follower", |d| {
                if generation != d.generation() || from_offset != d.wal_offset() {
                    return Err(AnnodaError::Replication(format!(
                        "batch at ({generation}, {from_offset}) does not extend applied \
                         position ({}, {})",
                        d.generation(),
                        d.wal_offset()
                    )));
                }
                let mut unplugs = Vec::new();
                for payload in records {
                    if let JournalRecord::SourceEvent {
                        kind: SourceEventKind::Unplug,
                        name,
                    } = d.journal_raw(payload)?
                    {
                        unplugs.push(name);
                    }
                }
                Ok((d.wal_offset(), unplugs))
            })?;
        for name in unplugs {
            self.system.unplug(&name);
        }
        self.repl.set_applied(generation, applied);
        if !records.is_empty() {
            self.repl.batches_applied.fetch_add(1, Ordering::Relaxed);
            self.repl
                .records_applied
                .fetch_add(records.len() as u64, Ordering::Relaxed);
            self.adopt()?;
        }
        Ok(applied)
    }

    /// Failover: promotes this follower to leader. Seals the replicated
    /// WAL behind a snapshot (bumping the generation, so stale
    /// subscribers of the old leader can never mistake the new log for
    /// the old one), removes the replica marker, and flips the role —
    /// writes are accepted from here on. Returns the new
    /// `(generation, wal_offset)` position.
    pub fn promote(&mut self) -> Result<(u64, u64), AnnodaError> {
        let position = self.follower_write("promote refused: already the leader", |d| {
            d.snapshot()?;
            let _ = std::fs::remove_file(marker(d));
            Ok((d.generation(), d.wal_offset()))
        })?;
        self.repl.set_applied(position.0, position.1);
        self.repl.set_role(Role::Leader);
        self.adopt()?;
        Ok(position)
    }

    /// Writes (and leader-only admin) are refused on a follower.
    fn require_leader(&self, what: &str) -> Result<(), AnnodaError> {
        if self.repl.role() != Role::Leader {
            let leader = self.repl.leader_addr();
            return Err(AnnodaError::Replication(format!(
                "{what} refused: this node is a read-only follower{}",
                if leader.is_empty() {
                    String::new()
                } else {
                    format!(" (leader: {leader})")
                }
            )));
        }
        Ok(())
    }

    // -----------------------------------------------------------------
    // writes: apply (`&mut self`), then commit (`&self`)

    /// Starts an apply to `source` (to every source when `None`):
    /// refuses on a follower or for an unknown source, then marks the
    /// wrappers ahead of the published model until the matching commit
    /// publishes.
    fn apply(&mut self, what: &str, source: Option<&str>) -> Result<&mut Annoda, AnnodaError> {
        self.require_leader(what)?;
        // The write's commit diffs against the model before it.
        self.reconcile()?;
        if let Some(name) = source.filter(|name| self.system.mediator().wrapper(name).is_none()) {
            let name = name.to_string();
            return Err(AnnodaError::Mediator(MediatorError::UnknownSource(name)));
        }
        self.applies += 1;
        self.pending.store(self.applies, Ordering::Release);
        Ok(&mut self.system)
    }

    /// Plugs a source, journals the lifecycle event, and commits.
    pub fn plug(&mut self, wrapper: Box<dyn Wrapper>) -> Result<PlugReport, AnnodaError> {
        let name = wrapper.description().name.clone();
        let report = self.apply("plug", None)?.plug(wrapper);
        self.commit(Some((SourceEventKind::Plug, &name)), 0)?;
        Ok(report)
    }

    /// Unplugs a source, journals the lifecycle event, and commits.
    pub fn unplug(&mut self, name: &str) -> Result<bool, AnnodaError> {
        match self.apply("unplug", Some(name)) {
            Ok(system) => system.unplug(name),
            Err(AnnodaError::Mediator(MediatorError::UnknownSource(_))) => return Ok(false),
            Err(e) => return Err(e),
        };
        self.commit(Some((SourceEventKind::Unplug, name)), 0)?;
        Ok(true)
    }

    /// Refreshes every wrapper from its native database (invalidating
    /// the mediator's subquery cache) and commits the GML delta.
    pub fn refresh(&mut self) -> Result<RefreshOutcome, AnnodaError> {
        let refreshed_objects = self
            .apply("refresh", None)?
            .registry_mut()
            .mediator_mut()
            .refresh_all();
        self.commit(Some((SourceEventKind::Refresh, "all")), refreshed_objects)
    }

    /// Re-pulls **one** source from its native database and commits the
    /// delta. In the sharded shape only the shards holding that source's
    /// changed entities bump — every cached response that does not
    /// depend on them stays valid.
    pub fn refresh_source(&mut self, name: &str) -> Result<RefreshOutcome, AnnodaError> {
        let refreshed_objects = self
            .apply("refresh", Some(name))?
            .registry_mut()
            .mediator_mut()
            .refresh_source(name)
            .expect("apply checked the source");
        self.commit(Some((SourceEventKind::Refresh, name)), refreshed_objects)
    }

    /// Applies one change-feed batch from `source`'s feed (see
    /// `annoda_federation::feed`) and commits the resulting delta —
    /// [`DurableSystem::absorb_apply`] then
    /// [`DurableSystem::absorb_commit`] in one call, the push-based
    /// sibling of [`DurableSystem::refresh_source`].
    ///
    /// The caller must acknowledge the batch upstream only after this
    /// returns `Ok` — resuming from the last acked sequence then
    /// replays exactly the records that were never absorbed.
    pub fn absorb_delta(
        &mut self,
        source: &str,
        records: &[annoda_federation::ChangeRecord],
        bootstrap: bool,
    ) -> Result<RefreshOutcome, AnnodaError> {
        let refreshed_objects = self.absorb_apply(source, records, bootstrap)?;
        self.absorb_commit(source, refreshed_objects)
    }

    /// The apply half of [`DurableSystem::absorb_delta`]: applies the
    /// batch to the local wrapper's native database and re-exports that
    /// one source's OML. Upserts (`flat: Some`) and deletes
    /// (`flat: None`) apply record by record; a `bootstrap` batch
    /// *replaces* the database with the feed's full dump. This is
    /// record-level work — microseconds per record plus one per-batch
    /// re-export — so a serve tier holds its writer lock only for this
    /// call and runs [`DurableSystem::absorb_commit`] under a reader
    /// lock.
    ///
    /// Returns the refreshed model's object count, which the matching
    /// `absorb_commit` reports back in its [`RefreshOutcome`].
    pub fn absorb_apply(
        &mut self,
        source: &str,
        records: &[annoda_federation::ChangeRecord],
        bootstrap: bool,
    ) -> Result<usize, AnnodaError> {
        let wrap_err = |e| AnnodaError::Mediator(MediatorError::Wrap(e));
        let mediator = self
            .apply("absorb", Some(source))?
            .registry_mut()
            .mediator_mut();
        let wrapper = mediator
            .wrapper_mut(source)
            .expect("apply checked the source");
        if bootstrap {
            let dump: Vec<(String, String)> = records
                .iter()
                .filter_map(|r| r.flat.clone().map(|flat| (r.key.clone(), flat)))
                .collect();
            wrapper.apply_bootstrap(&dump).map_err(wrap_err)?;
        } else {
            for record in records {
                wrapper
                    .apply_change(&record.key, record.flat.as_deref())
                    .map_err(wrap_err)?;
            }
        }
        Ok(mediator
            .refresh_source(source)
            .expect("apply checked the source"))
    }

    /// The commit half of [`DurableSystem::absorb_delta`]: `&self`
    /// throughout, so concurrent readers keep serving the previous
    /// snapshot while it materialises, persists and publishes. The `source` names the journaled refresh event.
    ///
    /// A crash between `absorb_apply` and this commit is safe: the
    /// batch was never acked, so the feed replays it and the
    /// record-level upserts/deletes re-apply idempotently.
    pub fn absorb_commit(
        &self,
        source: &str,
        refreshed_objects: usize,
    ) -> Result<RefreshOutcome, AnnodaError> {
        self.commit(Some((SourceEventKind::Refresh, source)), refreshed_objects)
    }

    /// Brings the model up to the wrappers and publishes it: persist
    /// first (commit the changed shards, journaling `event` and the
    /// delta), then retire the served snapshot and move the stamp
    /// together, and clear the dirty and pending marks last. The next
    /// query — a change feed's tailer runs one at once — builds the new
    /// snapshot.
    fn commit(
        &self,
        event: Option<(SourceEventKind, &str)>,
        refreshed_objects: usize,
    ) -> Result<RefreshOutcome, AnnodaError> {
        let materialize = || Ok(self.system.mediator().materialize_gml()?.0);
        // A follower's model is its leader's log; it only publishes.
        let leader = self.role() == Role::Leader;
        let (journaled_records, changed_shards, changed_fragments) = if leader {
            let event = event.map(|(kind, name)| JournalRecord::SourceEvent {
                kind,
                name: name.to_string(),
            });
            let (outcome, fragments) = self.store.commit_proposed(event.as_ref(), materialize)?;
            self.store.sync()?;
            (outcome.journaled, outcome.changed.len(), fragments)
        } else {
            (0, 0, 0)
        };
        // Publish. A moved shard epoch already retired the snapshot (it
        // is no longer live); the generation moves for what the epochs
        // cannot see — a plug or unplug, which cached answers on
        // untouched shards would otherwise outlive, and a text-only
        // delta that changed `/search` under an unmoved epoch vector.
        let wholesale = matches!(
            event,
            Some((SourceEventKind::Plug | SourceEventKind::Unplug, _))
        );
        if !leader || wholesale || (changed_shards == 0 && self.search_is_stale()) {
            self.invalidate();
        }
        // The wrappers cannot change under `&self`, so whatever a façade
        // mutation changed before this commit began, it committed.
        self.dirty.store(false, Ordering::Release);
        self.pending.store(0, Ordering::Release);
        Ok(RefreshOutcome {
            refreshed_objects,
            journaled_records,
            persisted: self.store.is_durable(),
            changed_shards,
            changed_fragments,
        })
    }

    /// Drops the served snapshot and moves the generation in one
    /// critical section, so a reader that builds the next snapshot also
    /// sees the new generation.
    fn invalidate(&self) {
        let mut published = self.snapshot.write();
        *published = None;
        self.generation.fetch_add(1, Ordering::Release);
    }

    /// Whether the published snapshot's search index no longer matches
    /// what the wrappers harvest to. `false` when nothing is published
    /// (the next build fingerprints for itself).
    fn search_is_stale(&self) -> bool {
        let published = self.snapshot.read().clone();
        let harvested = || docs_fingerprint(&self.system.mediator().harvest_text_docs());
        published.is_some_and(|s| harvested() != s.search.fingerprint())
    }

    /// Brings a placeholder or dirty model up to the wrappers while
    /// concurrent callers wait. The placeholder's fill keeps the epochs:
    /// nothing a reader was served changed. A dirty model commits.
    fn reconcile(&self) -> Result<(), AnnodaError> {
        // Load first: taking the lock on every query would serialise
        // readers.
        if !self.placeholder.load(Ordering::Acquire) && !self.dirty.load(Ordering::Acquire) {
            return Ok(());
        }
        let _reconcile = self.reconcile.lock();
        if self.placeholder.load(Ordering::Acquire) {
            let (gml, _cost) = self.system.mediator().materialize_gml()?;
            self.store.fill(&gml)?;
            self.dirty.store(false, Ordering::Release);
            self.placeholder.store(false, Ordering::Release);
        } else if self.dirty.load(Ordering::Acquire) {
            self.commit(None, 0)?;
        }
        Ok(())
    }

    /// Whether `snap` still describes the committed model: its epoch
    /// vector is the live one (a commit through a raw [`ShardedGml`]
    /// handle moves it too).
    fn is_live(&self, snap: &GmlSnapshot) -> bool {
        snap.shard_epochs.as_deref() == Some(&*self.store.epoch_vector())
    }

    /// A fresh snapshot of the committed model: the assembled shard
    /// vector, plus the search index over the wrappers' text. Its epoch
    /// is the one the next install takes.
    fn build_snapshot(&self) -> GmlSnapshot {
        let (vector, store) = self.store.assembled();
        let mut build_cost = Cost::new();
        build_cost.charge(&LatencyModel::local(), store.len() as u64);
        GmlSnapshot {
            epoch: self.epochs.load(Ordering::Relaxed) + 1,
            store,
            build_cost,
            search: self.build_search_index(),
            shard_epochs: Some(Arc::new(vector)),
            shard_router: Some(self.store.router()),
        }
    }

    // -----------------------------------------------------------------
    // the shard vector

    /// The transactional model.
    pub fn sharded(&self) -> &ShardedGml {
        &self.store
    }

    /// The transactional model as a shared handle. Always `Some`; an
    /// `Option` only because the benchmark harness unwraps it (ROADMAP
    /// item 1(e) drops the `Option`).
    pub fn sharded_handle(&self) -> Option<Arc<ShardedGml>> {
        Some(Arc::clone(&self.store))
    }

    // -----------------------------------------------------------------
    // reads

    /// The current serving snapshot.
    ///
    /// Fast path: one brief read-lock to clone the published `Arc`.
    /// After an in-memory open this first fills the placeholder, and
    /// after a façade mutation it first commits (the dirty rule);
    /// concurrent callers wait for that. When nothing
    /// live is published — the first query after a commit — it builds a
    /// snapshot of the committed model and installs it, unless a write
    /// is applied but not yet committed: such a snapshot harvests
    /// wrappers ahead of the model, so only this caller gets it.
    /// Evaluation never runs under the lock.
    pub fn query_snapshot(&self) -> Result<Arc<GmlSnapshot>, AnnodaError> {
        self.reconcile()?;
        if let Some(s) = self.snapshot.read().as_ref().filter(|s| self.is_live(s)) {
            return Ok(Arc::clone(s));
        }
        let mut snap = self.build_snapshot();
        let mut published = self.snapshot.write();
        match published.as_ref() {
            // A racing builder or commit installed a live one first.
            Some(s) if self.is_live(s) => Ok(Arc::clone(s)),
            _ if self.is_live(&snap) && self.pending.load(Ordering::Acquire) == 0 => {
                snap.epoch = self.epochs.fetch_add(1, Ordering::Relaxed) + 1;
                Ok(Arc::clone(published.insert(Arc::new(snap))))
            }
            // Served to this caller only, under the epoch it was built
            // with: every such build of one state renders alike.
            _ => Ok(Arc::new(snap)),
        }
    }

    /// The epoch's search index: harvest the wrappers' text documents,
    /// then reuse the previous epoch's index when the harvested corpus
    /// is unchanged (selective invalidation: a shard commit that touched
    /// no searchable text republishes the same `Arc`), or build from
    /// scratch. The memo is the only place a served index is kept.
    fn build_search_index(&self) -> Arc<SearchIndex> {
        let docs = self.system.mediator().harvest_text_docs();
        let fingerprint = docs_fingerprint(&docs);
        if let Some((fp, index)) = self.search_memo.read().as_ref() {
            if *fp == fingerprint {
                return Arc::clone(index);
            }
        }
        let index = Arc::new(SearchIndex::build(&docs));
        *self.search_memo.write() = Some((fingerprint, Arc::clone(&index)));
        index
    }

    /// The served epoch and object count, when a snapshot is live.
    pub fn snapshot_stats(&self) -> Option<SnapshotInfo> {
        self.snapshot.read().as_ref().map(|s| SnapshotInfo {
            epoch: s.epoch,
            objects: s.store.len(),
        })
    }

    /// Evaluates `text` against an already-acquired snapshot. An
    /// associated function on purpose: it needs no `&self`, so the HTTP
    /// layer calls it with **no system lock held** — a slow query can
    /// never stall `refresh` or health probes.
    pub fn lorel_on(snap: &GmlSnapshot, text: &str) -> Result<LorelServed, AnnodaError> {
        let (overlay, outcome, explain) =
            Mediator::query_gml_shared(&snap.store, text, &FunctionRegistry::standard())
                .map_err(AnnodaError::from)?;
        let mut cost = snap.build_cost;
        cost.charge(&LatencyModel::local(), outcome.rows.len() as u64);
        let store_len = snap.store.len();
        let view = Snapshot::new(Arc::clone(&snap.store), overlay)
            .expect("overlay was built over this snapshot's store");
        Ok(LorelServed {
            epoch: snap.epoch,
            store_len,
            view,
            outcome,
            cost,
            explain,
        })
    }

    /// Ranked full-text search against an already-acquired snapshot.
    /// Associated function for the same reason as [`DurableSystem::lorel_on`]:
    /// no `&self`, so the HTTP layer searches with no system lock held.
    pub fn search_on(
        snap: &GmlSnapshot,
        query: &str,
        k: usize,
        strategy: FusionStrategy,
    ) -> Vec<RankedAnswer> {
        snap.search.search(query, k, strategy)
    }

    /// Shape of the live snapshot's search index, when one is published.
    pub fn search_stats(&self) -> Option<SearchStats> {
        self.snapshot.read().as_ref().map(|s| s.search.stats())
    }

    /// Writes a point-in-time snapshot of every shard segment and
    /// truncates its journal, reported as one (objects and bytes summed,
    /// the highest generation). `Ok(None)` when persistence is off.
    pub fn snapshot(&mut self) -> Result<Option<SnapshotMeta>, AnnodaError> {
        self.require_leader("snapshot")?;
        self.store.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use annoda_persist::encode_store;
    use annoda_sources::{Corpus, CorpusConfig};

    fn system() -> Annoda {
        let c = Corpus::generate(CorpusConfig::tiny(42));
        let (a, _) = Annoda::over_sources(c.locuslink.clone(), c.go.clone(), c.omim.clone());
        a
    }

    /// Acquire the snapshot, then evaluate — what the serve tier does.
    fn lorel(sys: &DurableSystem, text: &str) -> LorelServed {
        DurableSystem::lorel_on(&sys.query_snapshot().unwrap(), text).unwrap()
    }

    /// Acquire the snapshot, then search — what the serve tier does.
    fn search(sys: &DurableSystem, q: &str, k: usize, by: FusionStrategy) -> Vec<RankedAnswer> {
        DurableSystem::search_on(&sys.query_snapshot().unwrap(), q, k, by)
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("annoda-dursys-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn ephemeral_system_still_answers() {
        let sys = DurableSystem::new(system());
        assert!(!sys.sharded().is_durable());
        assert!(sys.sharded().persist_stats().is_none());
        let served = lorel(
            &sys,
            r#"select S from ANNODA-GML.Source S where S.Name = "LocusLink""#,
        );
        assert!(served.outcome.sole_result(&served.view).is_some());
    }

    #[test]
    fn cold_open_then_warm_open_serves_identical_gml() {
        let dir = tmp_dir("coldwarm");
        let cold = DurableSystem::open_sharded(system(), &dir, FsyncPolicy::Always, 1).unwrap();
        assert!(cold.sharded().is_durable());
        let report = cold.sharded().recovery().unwrap();
        assert!(!report.snapshot_loaded);
        let cold_bytes = encode_store(&cold.persisted_gml().unwrap());
        drop(cold); // no snapshot: simulate an unclean exit

        let warm = DurableSystem::open_sharded(system(), &dir, FsyncPolicy::Always, 1).unwrap();
        let report = warm.sharded().recovery().unwrap();
        assert!(report.replayed_records > 0, "WAL replay restored GML");
        assert_eq!(encode_store(&warm.persisted_gml().unwrap()), cold_bytes);

        // Warm queries answer from the recovered store.
        let served = lorel(
            &warm,
            r#"select S from ANNODA-GML.Source S where S.Name = "LocusLink""#,
        );
        assert!(served.outcome.sole_result(&served.view).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn generation_bumps_on_every_invalidation() {
        let mut sys = DurableSystem::new(system());
        let handle = sys.generation_handle();
        let g0 = sys.generation();
        assert_eq!(g0, handle.load(Ordering::Acquire));
        // The shard epochs carry what a refresh changes in the store; one
        // that changed nothing invalidates nothing.
        let e0 = sys.sharded().epoch_vector();
        sys.refresh().unwrap();
        let g1 = sys.generation();
        assert_eq!(
            g1, g0,
            "a refresh that changed nothing keeps the generation"
        );
        assert_eq!(sys.sharded().epoch_vector(), e0, "and the epochs");
        let _ = sys.annoda_mut();
        let g2 = sys.generation();
        assert!(g2 > g1, "façade mutation must bump the generation");
        assert!(sys.unplug("OMIM").unwrap());
        let g3 = sys.generation();
        assert!(g3 > g2, "unplug must bump the generation");
        assert_eq!(g3, handle.load(Ordering::Acquire), "handle tracks");
        // Queries do not bump it.
        let _ = lorel(&sys, "select count(GML.Gene) from ANNODA-GML GML");
        assert_eq!(sys.generation(), g3);
    }

    #[test]
    fn refresh_journals_and_snapshot_truncates() {
        let dir = tmp_dir("refresh");
        let mut sys = DurableSystem::open_sharded(system(), &dir, FsyncPolicy::Always, 1).unwrap();
        let outcome = sys.refresh().unwrap();
        assert!(outcome.persisted);
        assert!(outcome.journaled_records >= 1, "at least the marker");
        let before = sys.sharded().persist_stats().unwrap();
        let meta = sys.snapshot().unwrap().unwrap();
        assert!(meta.objects > 0);
        let after = sys.sharded().persist_stats().unwrap();
        assert!(after.wal_bytes < before.wal_bytes);
        assert_eq!(after.generation, before.generation + 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A query term guaranteed to hit: the first token of a harvested
    /// document (the corpus vocabulary is seed-dependent, so tests derive
    /// terms instead of hard-coding them).
    fn live_term(sys: &DurableSystem) -> String {
        let docs = sys.system.mediator().harvest_text_docs();
        docs.iter()
            .flat_map(|(_, d)| d.iter())
            .filter(|d| !d.loci.is_empty())
            .flat_map(|d| annoda_search::tokenize(&d.text))
            .next()
            .expect("tiny corpus harvests at least one locus-bearing doc")
    }

    #[test]
    fn snapshot_publishes_search_index_with_store() {
        let sys = DurableSystem::new(system());
        assert!(sys.search_stats().is_none(), "no index before a snapshot");
        let term = live_term(&sys);
        let snap = sys.query_snapshot().unwrap();
        let hits = DurableSystem::search_on(&snap, &term, 5, FusionStrategy::Weighted);
        assert!(!hits.is_empty(), "derived term must hit");
        let stats = sys.search_stats().unwrap();
        assert!(stats.sources >= 2, "GO and OMIM both harvest text");
        assert!(stats.terms > 0 && stats.postings > 0);
        // The convenience path answers identically.
        assert_eq!(search(&sys, &term, 5, FusionStrategy::Weighted), hits);
    }

    /// Every file under `dir`, recursively, by name.
    fn file_names(dir: &Path) -> Vec<String> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                names.extend(file_names(&path));
            } else {
                names.push(path.file_name().unwrap().to_string_lossy().into_owned());
            }
        }
        names
    }

    #[test]
    fn warm_reopen_searches_identically_and_persists_no_index() {
        type Open = fn(Annoda, &Path) -> DurableSystem;
        let shapes: [(&str, Open); 2] = [
            ("sharded-1", |a, dir| {
                DurableSystem::open_sharded(a, dir, FsyncPolicy::Always, 1).unwrap()
            }),
            ("sharded", |a, dir| {
                DurableSystem::open_sharded(a, dir, FsyncPolicy::Always, 4).unwrap()
            }),
        ];
        for (shape, open) in shapes {
            let dir = tmp_dir(&format!("warmsearch-{shape}"));
            let cold = open(system(), &dir);
            let term = live_term(&cold);
            let cold_hits = search(&cold, &term, 10, FusionStrategy::Rrf);
            assert!(!cold_hits.is_empty(), "{shape}: term {term} must hit");
            drop(cold);

            let warm = open(system(), &dir);
            assert!(
                warm.sharded().recovery().unwrap().replayed_records > 0,
                "{shape}: the reopen is warm"
            );
            assert_eq!(
                search(&warm, &term, 10, FusionStrategy::Rrf),
                cold_hits,
                "{shape}: a warm reopen answers like the cold open"
            );
            // The index is derived from the harvest, never stored.
            for name in file_names(&dir) {
                assert!(
                    ["wal.log", "snapshot.bin", "shards.meta"].contains(&name.as_str()),
                    "{shape}: unexpected file {name} in the data dir"
                );
            }
            drop(warm);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn refresh_republishes_search_with_new_epoch() {
        let mut sys = DurableSystem::new(system());
        let term = live_term(&sys);
        let first = sys.query_snapshot().unwrap();
        let e0 = first.epoch;
        drop(first);
        mutate_locus(&mut sys, 1000, "a refresh pulls this");
        sys.refresh().unwrap();
        let second = sys.query_snapshot().unwrap();
        assert!(second.epoch > e0, "refresh publishes a fresh epoch");
        let hits = DurableSystem::search_on(&second, &term, 5, FusionStrategy::MaxScore);
        assert!(!hits.is_empty(), "rebuilt index still answers");
    }

    /// Manually pumps the leader's WAL into the follower — the same
    /// install/apply sequence the socket-level replica client drives.
    fn pump(leader: &DurableSystem, follower: &mut DurableSystem) {
        loop {
            let (generation, offset) = follower.wal_position().unwrap();
            match leader.read_wal_tail(generation, offset, u64::MAX).unwrap() {
                Some(tail) => {
                    follower
                        .apply_replica_batch(tail.generation, offset, &tail.records)
                        .unwrap();
                    if tail.next_offset == tail.end_offset {
                        return;
                    }
                }
                None => {
                    let (store, generation) = leader.base_snapshot().unwrap();
                    follower
                        .install_replica_snapshot(store, generation)
                        .unwrap();
                }
            }
        }
    }

    #[test]
    fn follower_replays_leader_writes_and_mirrors_unplug() {
        let leader_dir = tmp_dir("repl-leader");
        let follower_dir = tmp_dir("repl-follower");
        let mut leader =
            DurableSystem::open_sharded(system(), &leader_dir, FsyncPolicy::Always, 1).unwrap();
        let mut follower =
            DurableSystem::open_follower(system(), &follower_dir, FsyncPolicy::Always).unwrap();
        assert_eq!(follower.role(), Role::Follower);
        assert!(
            follower.replica_resume_position().is_some(),
            "fresh directory is trivially in sync"
        );

        pump(&leader, &mut follower);
        assert_eq!(
            encode_store(&follower.persisted_gml().unwrap()),
            encode_store(&leader.persisted_gml().unwrap()),
            "bootstrap converges"
        );

        // An acknowledged leader write: unplug OMIM (journals a real
        // GML delta plus the lifecycle event).
        assert!(leader.unplug("OMIM").unwrap());
        pump(&leader, &mut follower);
        assert_eq!(
            encode_store(&follower.persisted_gml().unwrap()),
            encode_store(&leader.persisted_gml().unwrap()),
            "write replicates"
        );
        assert_eq!(follower.wal_position(), leader.wal_position());
        // The registry mirrored the unplug (search harvest tracks it).
        assert!(!follower
            .annoda()
            .registry()
            .sources()
            .iter()
            .any(|s| s.name == "OMIM"));

        // Queries answer identically on both nodes.
        let q = "select count(GML.Gene) from ANNODA-GML GML";
        let leader_rows = lorel(&leader, q).outcome.rows;
        let follower_rows = lorel(&follower, q).outcome.rows;
        assert_eq!(leader_rows, follower_rows);
        let _ = std::fs::remove_dir_all(&leader_dir);
        let _ = std::fs::remove_dir_all(&follower_dir);
    }

    #[test]
    fn follower_restart_resumes_without_snapshot_transfer() {
        let leader_dir = tmp_dir("resume-leader");
        let follower_dir = tmp_dir("resume-follower");
        let mut leader =
            DurableSystem::open_sharded(system(), &leader_dir, FsyncPolicy::Always, 1).unwrap();
        // Put the leader past generation 0 so a bootstrap needs a
        // genuine snapshot transfer.
        leader.snapshot().unwrap();
        leader.refresh().unwrap();

        let mut follower =
            DurableSystem::open_follower(system(), &follower_dir, FsyncPolicy::Always).unwrap();
        pump(&leader, &mut follower);
        let position = follower.wal_position();
        drop(follower);

        // Restart: the marker makes the local position trustworthy.
        let follower2 =
            DurableSystem::open_follower(system(), &follower_dir, FsyncPolicy::Always).unwrap();
        assert_eq!(follower2.replica_resume_position(), position);
        assert_eq!(
            encode_store(&follower2.persisted_gml().unwrap()),
            encode_store(&leader.persisted_gml().unwrap())
        );

        // A directory that once journaled locally must NOT resume.
        drop(follower2);
        let local =
            DurableSystem::open_sharded(system(), &follower_dir, FsyncPolicy::Always, 1).unwrap();
        drop(local);
        let follower3 =
            DurableSystem::open_follower(system(), &follower_dir, FsyncPolicy::Always).unwrap();
        assert!(
            follower3.replica_resume_position().is_none(),
            "locally-journaled bytes force a snapshot transfer"
        );
        let _ = std::fs::remove_dir_all(&leader_dir);
        let _ = std::fs::remove_dir_all(&follower_dir);
    }

    #[test]
    fn follower_refuses_writes_until_promoted() {
        let leader_dir = tmp_dir("promote-leader");
        let follower_dir = tmp_dir("promote-follower");
        let leader =
            DurableSystem::open_sharded(system(), &leader_dir, FsyncPolicy::Always, 1).unwrap();
        let mut follower =
            DurableSystem::open_follower(system(), &follower_dir, FsyncPolicy::Always).unwrap();
        pump(&leader, &mut follower);

        assert!(matches!(
            follower.refresh(),
            Err(AnnodaError::Replication(_))
        ));
        assert!(matches!(
            follower.unplug("OMIM"),
            Err(AnnodaError::Replication(_))
        ));
        assert!(matches!(
            follower.snapshot(),
            Err(AnnodaError::Replication(_))
        ));
        // Batches that do not extend the applied position are refused.
        let (generation, offset) = follower.wal_position().unwrap();
        assert!(matches!(
            follower.apply_replica_batch(generation, offset + 1, &[vec![0]]),
            Err(AnnodaError::Replication(_))
        ));
        assert!(matches!(
            follower.apply_replica_batch(generation + 1, offset, &[]),
            Err(AnnodaError::Replication(_))
        ));

        // Promotion compacts the store behind a snapshot (oids may be
        // renumbered), so the invariant is identical *answers*, not
        // identical raw bytes.
        let q = "select count(GML.Gene) from ANNODA-GML GML";
        let before_rows = lorel(&follower, q).outcome.rows.len();
        let old_generation = follower.wal_position().unwrap().0;
        let (new_generation, _offset) = follower.promote().unwrap();
        assert_eq!(follower.role(), Role::Leader);
        assert!(new_generation > old_generation, "promotion seals the WAL");
        assert_eq!(
            lorel(&follower, q).outcome.rows.len(),
            before_rows,
            "promotion loses nothing"
        );
        // Writes are accepted now; a second promote is refused.
        assert!(follower.unplug("OMIM").unwrap());
        assert!(matches!(
            follower.promote(),
            Err(AnnodaError::Replication(_))
        ));
        // The old leader cannot ship to a promoted node.
        assert!(matches!(
            follower.apply_replica_batch(new_generation, 13, &[]),
            Err(AnnodaError::Replication(_))
        ));
        let _ = std::fs::remove_dir_all(&leader_dir);
        let _ = std::fs::remove_dir_all(&follower_dir);
    }

    /// Rewrites one locus description in the live LocusLink native DB
    /// (the same mutation the freshness experiment applies).
    fn mutate_locus(sys: &mut DurableSystem, locus_id: u32, desc: &str) {
        let w = sys
            .annoda_mut()
            .registry_mut()
            .mediator_mut()
            .wrapper_mut("LocusLink")
            .unwrap()
            .as_any_mut()
            .downcast_mut::<annoda_wrap::LocusLinkWrapper>()
            .unwrap();
        w.db_mut().by_id_mut(locus_id).unwrap().description = desc.to_string();
    }

    /// The projected atomic values of a Lorel answer, sorted: oids differ
    /// between store shapes, the values they carry must not.
    fn projected_values(sys: &DurableSystem, text: &str) -> Vec<String> {
        use annoda_oem::OemRead;
        let served = lorel(sys, text);
        let mut values: Vec<String> = (served.outcome.projected.iter())
            .flat_map(|(_, oids)| oids.iter().filter_map(|&o| served.view.value_of(o)))
            .map(|v| format!("{v:?}"))
            .collect();
        values.sort();
        values
    }

    /// The `/lorel` body of `text`: the answer as the route renders it,
    /// oids included.
    fn rendered(sys: &DurableSystem, text: &str) -> String {
        let served = lorel(sys, text);
        annoda_oem::text::write_rooted(&served.view, "answer", served.outcome.answer)
    }

    #[test]
    fn every_store_shape_answers_alike_after_every_write() {
        use annoda_federation::ChangeRecord;
        use annoda_wrap::{scripted_mutation, LocusLinkWrapper, OmimWrapper};
        let dirs = [tmp_dir("shapes-sharded-1"), tmp_dir("shapes-sharded")];
        let mut shapes = [
            ("in-memory", DurableSystem::new(system())),
            (
                "sharded-1-durable",
                DurableSystem::open_sharded(system(), &dirs[0], FsyncPolicy::Always, 1).unwrap(),
            ),
            (
                "sharded-4",
                DurableSystem::new_sharded(system(), 4).unwrap(),
            ),
            (
                "sharded-durable",
                DurableSystem::open_sharded(system(), &dirs[1], FsyncPolicy::Always, 4).unwrap(),
            ),
        ];
        let by_description = |desc: &str| {
            format!(r#"select G.Symbol from ANNODA-GML.Gene G where G.Description = "{desc}""#)
        };
        // Every shape must give the reference shape's answers, down to
        // the bytes of each rendered `/lorel` body; `hits` pins how many
        // genes carry each description written so far.
        let term = live_term(&shapes[0].1);
        let check = |shapes: &[(&str, DurableSystem)], step: &str, hits: &[(String, usize)]| {
            let mut queries = vec!["select G.Symbol from ANNODA-GML.Gene G".to_string()];
            queries.push("select D.Name from ANNODA-GML.Disease D".to_string());
            queries.extend(hits.iter().map(|(desc, _)| by_description(desc)));
            let terms = [term.as_str(), "penetrance", "revised"];
            let answers = |sys: &DurableSystem| {
                let rows: Vec<_> = queries.iter().map(|q| projected_values(sys, q)).collect();
                let bodies: Vec<_> = queries.iter().map(|q| rendered(sys, q)).collect();
                let found: Vec<_> = (terms.iter())
                    .map(|t| search(sys, t, 5, FusionStrategy::Weighted))
                    .collect();
                (rows, bodies, found)
            };
            let (reference, _) = &shapes[0];
            let expected = answers(&shapes[0].1);
            for ((desc, n), rows) in hits.iter().zip(&expected.0[2..]) {
                assert_eq!(rows.len(), *n, "{step}: {reference} rows for {desc}");
            }
            for (shape, sys) in &shapes[1..] {
                assert!(
                    answers(sys) == expected,
                    "{step}: {shape} differs from {reference}"
                );
            }
        };
        check(&shapes, "open", &[]);

        // 1. A façade rewrite plus a re-export, committed by nothing but
        //    the next snapshot build.
        let facade = "rewritten through the facade".to_string();
        for (_, sys) in &mut shapes {
            mutate_locus(sys, 1000, &facade);
            let mediator = sys.annoda_mut().registry_mut().mediator_mut();
            mediator.refresh_source("LocusLink").unwrap();
        }
        let mut hits = vec![(facade, 1)];
        check(&shapes, "facade", &hits);

        // 2. A feed batch per source through the apply/commit pair: a
        //    store-bearing LocusLink edit and a text-only OMIM edit.
        let corpus = Corpus::generate(CorpusConfig::tiny(42));
        let mut feed_ll = LocusLinkWrapper::new(corpus.locuslink.clone());
        let mut feed_omim = OmimWrapper::new(corpus.omim.clone());
        let (ll_key, ll_flat) = scripted_mutation(&mut feed_ll, 9, 0).unwrap();
        let (omim_key, omim_flat) = scripted_mutation(&mut feed_omim, 9, 0).unwrap();
        let batch = |key: &str, flat: &str| ChangeRecord {
            key: key.to_string(),
            flat: Some(flat.to_string()),
        };
        for (_, sys) in &mut shapes {
            for (source, record) in [
                ("LocusLink", batch(&ll_key, &ll_flat)),
                ("OMIM", batch(&omim_key, &omim_flat)),
            ] {
                let n = sys.absorb_apply(source, &[record], false).unwrap();
                sys.absorb_commit(source, n).unwrap();
            }
        }
        let id: u32 = ll_key.parse().unwrap();
        let streamed = feed_ll.db().by_id(id).unwrap().description.clone();
        hits.push((streamed, 1));
        check(&shapes, "absorb", &hits);

        // 3. A native edit pulled by `refresh_source`.
        let pulled = "pulled by refresh_source".to_string();
        for (_, sys) in &mut shapes {
            mutate_locus(sys, 1001, &pulled);
            sys.refresh_source("LocusLink").unwrap();
        }
        hits.push((pulled, 1));
        check(&shapes, "refresh_source", &hits);

        // 4. An unplug: OMIM's diseases and text leave every shape.
        for (_, sys) in &mut shapes {
            assert!(sys.unplug("OMIM").unwrap());
        }
        check(&shapes, "unplug", &hits);
        assert!(search(&shapes[0].1, "penetrance", 5, FusionStrategy::Weighted).is_empty());

        drop(shapes);
        for dir in dirs {
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn a_snapshot_built_inside_an_apply_window_is_never_installed() {
        let mut sys = DurableSystem::new(system());
        let refreshed = sys.absorb_apply("OMIM", &[], false).unwrap();
        let (a, b) = (sys.query_snapshot().unwrap(), sys.query_snapshot().unwrap());
        assert!(!Arc::ptr_eq(&a, &b), "each caller gets its own build");
        assert_eq!(a.epoch, b.epoch, "builds of one state render alike");
        assert!(sys.snapshot_stats().is_none(), "nothing was installed");
        sys.absorb_commit("OMIM", refreshed).unwrap();
        let c = sys.query_snapshot().unwrap();
        assert!(Arc::ptr_eq(&c, &sys.query_snapshot().unwrap()), "installed");
        assert_eq!(
            c.epoch, a.epoch,
            "the install takes the epoch the builds showed"
        );
    }

    #[test]
    fn concurrent_first_readers_never_see_the_placeholder() {
        let sys = DurableSystem::new(system());
        let barrier = std::sync::Barrier::new(4);
        let genes = "select count(GML.Gene) from ANNODA-GML GML";
        let epochs = sys.sharded().epoch_vector();
        let snaps: Vec<_> = std::thread::scope(|scope| {
            let readers: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        sys.query_snapshot().unwrap()
                    })
                })
                .collect();
            readers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        let rows = DurableSystem::lorel_on(&snaps[0], genes)
            .unwrap()
            .outcome
            .rows;
        assert!(
            !rows.is_empty() && snaps[0].store.len() > 1,
            "the model, filled"
        );
        assert!(
            snaps.iter().all(|s| Arc::ptr_eq(s, &snaps[0])),
            "one snapshot"
        );
        assert_eq!(
            sys.sharded().epoch_vector(),
            epochs,
            "the fill moved no epoch"
        );
    }

    #[test]
    fn sharded_refresh_source_bumps_only_touched_shards() {
        let mut sys = DurableSystem::new_sharded(system(), 4).unwrap();
        let handle = sys.sharded_handle().unwrap();
        let _ = sys.query_snapshot().unwrap();
        let g0 = sys.generation();
        let e0 = handle.epoch_vector();

        // A refresh with an unchanged native DB commits nothing.
        let out = sys.refresh_source("LocusLink").unwrap();
        assert_eq!(out.journaled_records, 0);
        assert_eq!(*handle.epoch_vector(), *e0, "no-op refresh bumps nothing");
        assert_eq!(sys.generation(), g0, "sharded refresh keeps the generation");

        // Mutate one locus; only the shards its entities live on bump.
        mutate_locus(&mut sys, 1000, "sharded-refresh rewrites this locus");
        let g_after_mut = sys.generation();
        sys.refresh_source("LocusLink").unwrap();
        let e1 = handle.epoch_vector();
        let bumped: Vec<usize> = (0..4).filter(|&i| e1[i] != e0[i]).collect();
        assert!(!bumped.is_empty(), "a real change must bump something");
        assert!(
            bumped.len() < 4,
            "a one-locus change must not bump every shard (bumped {bumped:?})"
        );
        assert_eq!(
            sys.generation(),
            g_after_mut,
            "selective commit leaves the generation alone"
        );
        // The new description is served.
        let snap = sys.query_snapshot().unwrap();
        assert_eq!(snap.shard_epochs.as_deref(), Some(e1.as_ref()));
        let stats = sys.sharded().txn_stats();
        assert!(stats.commits >= 1);
        assert_eq!(stats.conflicts, 0);
        let gauges = sys.sharded().shard_gauges();
        assert_eq!(gauges.len(), 4);
        assert!(gauges.iter().all(|g| g.objects > 0 && g.epoch >= 1));

        // Unknown sources are refused.
        assert!(sys.refresh_source("NOPE").is_err());
    }

    #[test]
    fn absorb_delta_matches_direct_mutation_and_refresh() {
        use annoda_federation::ChangeRecord;
        use annoda_wrap::scripted_mutation;
        // Control: mutate the wrapper in place, pull-refresh. Streamed:
        // absorb the emitted (key, flat) pairs as change batches — the
        // path a feed subscriber drives.
        let mut control = DurableSystem::new_sharded(system(), 4).unwrap();
        let mut streamed = DurableSystem::new_sharded(system(), 4).unwrap();
        let _ = streamed.query_snapshot().unwrap();
        let emit = |control: &mut DurableSystem, source: &str, step: u64| {
            let w = control
                .annoda_mut()
                .registry_mut()
                .mediator_mut()
                .wrapper_mut(source)
                .unwrap();
            let (key, flat) =
                scripted_mutation(&mut **w, 9, step).expect("source supports scripted mutation");
            control.refresh_source(source).unwrap();
            vec![ChangeRecord {
                key,
                flat: Some(flat),
            }]
        };
        // LocusLink description edits are store-bearing: the GML's Gene
        // Description changes, so shards bump — but never all of them.
        for step in 0..5u64 {
            let batch = emit(&mut control, "LocusLink", step);
            let out = streamed.absorb_delta("LocusLink", &batch, false).unwrap();
            assert!(out.changed_shards >= 1, "a description edit bumps a shard");
            assert!(out.changed_shards < 4, "one record must not bump them all");
            assert!(out.changed_fragments >= 1);
        }
        // OMIM text edits are search-only: the GML carries no Text
        // attribute, so no shard bumps — yet `/search` must still see
        // the revision (the generation carries the invalidation).
        for step in 0..3u64 {
            let batch = emit(&mut control, "OMIM", step);
            let out = streamed.absorb_delta("OMIM", &batch, false).unwrap();
            assert_eq!(out.changed_shards, 0, "text is not materialised");
        }
        let a = streamed.query_snapshot().unwrap();
        let b = control.query_snapshot().unwrap();
        assert_eq!(
            encode_store(&a.store),
            encode_store(&b.store),
            "incremental absorb assembles the byte-identical store"
        );
        // "penetrance" only occurs in the scripted OMIM revision, so a
        // hit proves both indexes re-published past the text-only delta.
        for term in [live_term(&control), "penetrance".to_string()] {
            let hits = DurableSystem::search_on(&a, &term, 5, FusionStrategy::Weighted);
            assert!(!hits.is_empty(), "term {term} must hit");
            assert_eq!(
                hits,
                DurableSystem::search_on(&b, &term, 5, FusionStrategy::Weighted),
                "the absorbed index ranks like the re-pulled one"
            );
        }

        // Deltas are refused on unknown sources and absorbed as no-ops
        // when empty.
        assert!(streamed.absorb_delta("NOPE", &[], false).is_err());
        let out = streamed.absorb_delta("OMIM", &[], false).unwrap();
        assert_eq!(out.changed_shards, 0);
    }

    #[test]
    fn one_shard_text_only_absorb_ranks_like_a_full_refetch() {
        use annoda_federation::ChangeRecord;
        use annoda_wrap::scripted_mutation;
        // Control re-pulls OMIM after mutating it in place; the streamed
        // one-shard durable system absorbs the same records as feed batches.
        let dir = tmp_dir("one-shard-absorb");
        let mut control = DurableSystem::new(system());
        let mut streamed =
            DurableSystem::open_sharded(system(), &dir, FsyncPolicy::Always, 1).unwrap();
        let _ = streamed.query_snapshot().unwrap();
        let g0 = streamed.generation();
        for step in 0..3u64 {
            let w = control
                .annoda_mut()
                .registry_mut()
                .mediator_mut()
                .wrapper_mut("OMIM")
                .unwrap();
            let (key, flat) =
                scripted_mutation(&mut **w, 9, step).expect("OMIM supports scripted mutation");
            control.refresh_source("OMIM").unwrap();
            let batch = [ChangeRecord {
                key,
                flat: Some(flat),
            }];
            streamed.absorb_delta("OMIM", &batch, false).unwrap();
        }
        assert!(
            streamed.generation() > g0,
            "the text-only delta invalidates"
        );
        let (a, b) = (
            streamed.query_snapshot().unwrap(),
            control.query_snapshot().unwrap(),
        );
        // "penetrance" only occurs in the scripted OMIM revision.
        for term in [live_term(&control), "penetrance".to_string()] {
            let hits = DurableSystem::search_on(&a, &term, 5, FusionStrategy::Weighted);
            assert!(!hits.is_empty(), "term {term} must hit");
            assert_eq!(
                hits,
                DurableSystem::search_on(&b, &term, 5, FusionStrategy::Weighted),
                "the absorbed index ranks like the re-pulled one"
            );
        }
        drop(streamed);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn planning_statistics_follow_the_source() {
        use annoda_federation::ChangeRecord;
        use annoda_mediator::GeneQuestion;
        use annoda_sources::LocusLinkDb;
        use annoda_wrap::{locus_flat, LocusLinkWrapper};
        // The mediator holds no statistics of its own: after a delta
        // (absorbed or pull-refreshed) the next plan must estimate from
        // the changed OML, with nothing in between invalidating it.
        fn locuslink(sys: &mut DurableSystem) -> &mut LocusLinkDb {
            let w = sys
                .annoda_mut()
                .registry_mut()
                .mediator_mut()
                .wrapper_mut("LocusLink")
                .unwrap();
            let w = w.as_any_mut().downcast_mut::<LocusLinkWrapper>();
            w.unwrap().db_mut()
        }
        let mut sys = DurableSystem::new(system());
        let organism = "Homo sapiens";
        let question = GeneQuestion {
            organism: Some(organism.into()),
            ..GeneQuestion::default()
        };
        let carriers = |sys: &mut DurableSystem| {
            let db = locuslink(sys);
            let n = db.scan().filter(|r| r.organism == organism).count();
            (n, db.len())
        };
        // The optimizer's estimate: loci × the histogram's selectivity.
        let expected =
            |(n, total): (usize, usize)| (total as f64 * (n as f64 / total as f64)).ceil() as u64;
        let estimate = |sys: &DurableSystem| {
            let plan = sys.annoda().mediator().plan(&question);
            let step = plan.steps.iter().find(|s| s.query.source == "LocusLink");
            step.expect("the gene step").est_records
        };

        let before = carriers(&mut sys);
        assert_eq!(estimate(&sys), expected(before));

        // One more locus of that organism, through the change feed.
        let mut rec = locuslink(&mut sys)
            .scan()
            .find(|r| r.organism != organism)
            .expect("the corpus mixes organisms")
            .clone();
        rec.organism = organism.to_string();
        let batch = [ChangeRecord {
            key: rec.locus_id.to_string(),
            flat: Some(locus_flat(&rec)),
        }];
        sys.absorb_delta("LocusLink", &batch, false).unwrap();
        let absorbed = carriers(&mut sys);
        assert_eq!(absorbed, (before.0 + 1, before.1));
        assert_eq!(estimate(&sys), expected(absorbed), "absorb_delta");

        // One fewer, through a native edit and a pull refresh.
        let db = locuslink(&mut sys);
        let id = db.scan().find(|r| r.organism == organism).unwrap().locus_id;
        db.by_id_mut(id).unwrap().organism = "Mus musculus".into();
        sys.refresh_source("LocusLink").unwrap();
        let refreshed = carriers(&mut sys);
        assert_eq!(refreshed, before);
        assert_eq!(estimate(&sys), expected(refreshed), "refresh_source");
    }

    #[test]
    fn bootstrap_batch_replaces_the_native_db() {
        use annoda_federation::ChangeRecord;
        // Different seeds: the subscriber's local corpus disagrees with
        // the feed until the bootstrap dump replaces it.
        let c = Corpus::generate(CorpusConfig::tiny(7));
        let (a, _) = Annoda::over_sources(c.locuslink.clone(), c.go.clone(), c.omim.clone());
        let mut upstream = DurableSystem::new(a);
        let mut sub = DurableSystem::new_sharded(system(), 4).unwrap();

        let dump = upstream
            .annoda_mut()
            .registry_mut()
            .mediator_mut()
            .wrapper_mut("LocusLink")
            .unwrap()
            .change_dump()
            .unwrap();
        let records: Vec<ChangeRecord> = dump
            .iter()
            .map(|(key, flat)| ChangeRecord {
                key: key.clone(),
                flat: Some(flat.clone()),
            })
            .collect();
        sub.absorb_delta("LocusLink", &records, true).unwrap();
        let sub_dump = sub
            .annoda_mut()
            .registry_mut()
            .mediator_mut()
            .wrapper_mut("LocusLink")
            .unwrap()
            .change_dump()
            .unwrap();
        assert_eq!(sub_dump, dump, "bootstrap replaces, record for record");
    }

    #[test]
    fn sharded_durable_roundtrip_serves_after_restart() {
        let dir = tmp_dir("sharded-durable");
        let q = "select count(GML.Gene) from ANNODA-GML GML";
        let rows = {
            let mut sys =
                DurableSystem::open_sharded(system(), &dir, FsyncPolicy::Always, 3).unwrap();
            assert!(sys.sharded().is_durable());
            mutate_locus(&mut sys, 1001, "durable sharded mutation");
            sys.refresh_source("LocusLink").unwrap();
            lorel(&sys, q).outcome.rows
        };
        // Warm restart adopts the manifest shard count and recovered
        // per-shard segments.
        let warm = DurableSystem::open_sharded(system(), &dir, FsyncPolicy::Always, 0).unwrap();
        assert_eq!(warm.sharded_handle().unwrap().shard_count(), 3);
        let report = warm
            .sharded()
            .recovery()
            .expect("sharded durable has a report");
        assert!(report.replayed_records > 0, "segments replayed: {report:?}");
        assert_eq!(lorel(&warm, q).outcome.rows, rows);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sharded_snapshot_compacts_every_segment_and_persist_stats_cover_them() {
        let dir = tmp_dir("sharded-snapshot");
        let q = "select count(GML.Gene) from ANNODA-GML GML";
        {
            let mut sys =
                DurableSystem::open_sharded(system(), &dir, FsyncPolicy::Always, 3).unwrap();
            mutate_locus(&mut sys, 1001, "journaled before the snapshot");
            sys.refresh_source("LocusLink").unwrap();
            let stats = sys
                .sharded()
                .persist_stats()
                .expect("a sharded data dir has counters");
            assert!(stats.fsyncs > 0, "{stats:?}");
            assert!(stats.appended_records > 0, "{stats:?}");
        }
        // Uncompacted: the warm open replays every segment's whole log.
        let mut sys = DurableSystem::open_sharded(system(), &dir, FsyncPolicy::Always, 0).unwrap();
        let replayed = sys.sharded().recovery().unwrap();
        assert!(!replayed.snapshot_loaded && replayed.replayed_records > 0);
        let rows = lorel(&sys, q).outcome.rows;

        let before = sys.sharded().shard_gauges();
        let meta = sys
            .snapshot()
            .unwrap()
            .expect("a sharded data dir can be compacted");
        assert!(meta.objects > 0 && meta.bytes > 0, "{meta:?}");
        let after = sys.sharded().shard_gauges();
        for (b, a) in before.iter().zip(&after) {
            assert!(a.wal_bytes < b.wal_bytes, "segment {} shrank", a.shard);
            assert_eq!(a.generation, b.generation + 1);
            assert_eq!(a.epoch, b.epoch, "compaction is invisible to readers");
        }
        assert_eq!(meta.generation, after[0].generation);
        assert_eq!(sys.sharded().persist_stats().unwrap().snapshots, 3);
        drop(sys);

        // Compacted: the snapshots load and (nearly) nothing replays.
        let warm = DurableSystem::open_sharded(system(), &dir, FsyncPolicy::Always, 0).unwrap();
        let report = warm.sharded().recovery().unwrap();
        assert!(report.snapshot_loaded, "{report:?}");
        assert!(report.replayed_records < replayed.replayed_records);
        assert!(warm.sharded().persist_stats().unwrap().snapshot_loaded);
        assert_eq!(lorel(&warm, q).outcome.rows, rows);

        // Without a data dir there is still nothing to compact.
        let mut memory = DurableSystem::new_sharded(system(), 3).unwrap();
        assert!(memory.snapshot().unwrap().is_none());
        assert!(memory.sharded().persist_stats().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_shard_count_no_mask_can_hold_is_refused_before_the_directory() {
        assert!(DurableSystem::new_sharded(system(), 65).is_err());
        let dir = tmp_dir("65-shards");
        assert!(DurableSystem::open_sharded(system(), &dir, FsyncPolicy::Always, 65).is_err());
        assert!(!dir.exists(), "a refused count writes nothing");
    }

    /// Every file under `dir`, recursively, with its bytes.
    fn files(dir: &Path) -> Vec<(std::path::PathBuf, Vec<u8>)> {
        let mut files = Vec::new();
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                files.extend(self::files(&path));
            } else {
                files.push((path.clone(), std::fs::read(&path).unwrap()));
            }
        }
        files.sort();
        files
    }

    #[test]
    fn a_flat_layout_data_dir_is_refused_and_left_as_it_was() {
        let dir = tmp_dir("flat-layout");
        {
            let mut flat = DurableStore::open(&dir, FsyncPolicy::Always).unwrap();
            let (gml, _) = system().mediator().materialize_gml().unwrap();
            flat.journal(&JournalRecord::put_root(GML_ROOT, &gml))
                .unwrap();
        }
        std::fs::write(dir.join(FOLLOWER_MARKER), b"replica\n").unwrap();
        let before = files(&dir);
        let refused = DurableSystem::open_sharded(system(), &dir, FsyncPolicy::Always, 1);
        let err = refused.err().expect("a flat directory is refused");
        assert!(err.to_string().contains("flat layout"), "{err}");
        assert!(DurableSystem::open_follower(system(), &dir, FsyncPolicy::Always).is_err());
        assert_eq!(files(&dir), before, "the refused directory is untouched");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_promoted_followers_directory_reopens_warm_as_one_shard() {
        let leader_dir = tmp_dir("reopen-leader");
        let follower_dir = tmp_dir("reopen-follower");
        let mut leader =
            DurableSystem::open_sharded(system(), &leader_dir, FsyncPolicy::Always, 1).unwrap();
        assert!(leader.unplug("OMIM").unwrap());
        let mut follower =
            DurableSystem::open_follower(system(), &follower_dir, FsyncPolicy::Always).unwrap();
        pump(&leader, &mut follower);
        follower.promote().unwrap();
        let q = "select G.Symbol, G.Description from ANNODA-GML.Gene G";
        let answer = |sys: &DurableSystem| rendered(sys, q);
        let (bytes, promoted) = (
            encode_store(&follower.persisted_gml().unwrap()),
            answer(&follower),
        );
        drop(follower);

        let reopened =
            DurableSystem::open_sharded(system(), &follower_dir, FsyncPolicy::Always, 1).unwrap();
        assert!(
            reopened.sharded().recovery().unwrap().snapshot_loaded,
            "the reopen is warm"
        );
        assert_eq!(encode_store(&reopened.persisted_gml().unwrap()), bytes);
        assert_eq!(answer(&reopened), promoted);
        assert_eq!(answer(&leader), promoted, "and the leader answers alike");
        let _ = std::fs::remove_dir_all(&leader_dir);
        let _ = std::fs::remove_dir_all(&follower_dir);
    }

    #[test]
    fn unplug_is_journaled_and_survives_restart() {
        let dir = tmp_dir("unplug");
        let mut sys = DurableSystem::open_sharded(system(), &dir, FsyncPolicy::Always, 1).unwrap();
        assert!(sys.unplug("OMIM").unwrap());
        let bytes = encode_store(&sys.persisted_gml().unwrap());
        drop(sys);
        // Restart with OMIM already gone from the live registry too.
        let c = Corpus::generate(CorpusConfig::tiny(42));
        let (mut a, _) = Annoda::over_sources(c.locuslink.clone(), c.go.clone(), c.omim.clone());
        a.unplug("OMIM");
        let warm = DurableSystem::open_sharded(a, &dir, FsyncPolicy::Always, 1).unwrap();
        assert_eq!(encode_store(&warm.persisted_gml().unwrap()), bytes);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Deleting, then inserting, the locus whose symbol sorts first
    /// shifts every later `Gene` of its shard; a keyed journal does not
    /// care. Each commit journals its refresh event and one
    /// `ReplaceFragments` per group the walk changed, in a few KB, and a
    /// warm reopen answers `/lorel` alike.
    #[test]
    fn a_commit_journals_the_fragment_groups_it_changed() {
        use annoda_federation::ChangeRecord;
        use annoda_persist::read_tail;
        use annoda_sources::LocusLinkDb;
        let dir = tmp_dir("keyed-journal");
        let c = Corpus::generate(CorpusConfig::default());
        let open = || {
            let (a, _) = Annoda::over_sources(c.locuslink.clone(), c.go.clone(), c.omim.clone());
            DurableSystem::open_sharded(a, &dir, FsyncPolicy::Always, 4).unwrap()
        };
        let mut sys = open();
        let first = c.locuslink.scan().min_by(|a, b| a.symbol.cmp(&b.symbol));
        let mut inserted = first.unwrap().clone();
        let delete = ChangeRecord {
            key: inserted.locus_id.to_string(),
            flat: None,
        };
        inserted.locus_id = c.locuslink.scan().map(|r| r.locus_id).max().unwrap() + 1;
        inserted.symbol = "AAA0".into();
        assert!(c.locuslink.scan().all(|r| r.symbol.as_str() > "AAA0"));
        let insert = ChangeRecord {
            key: inserted.locus_id.to_string(),
            flat: Some(LocusLinkDb::from_records([inserted]).to_flat()),
        };
        let q = "select G.Symbol, G.Description, G.Position from ANNODA-GML.Gene G";
        for batch in [delete, insert] {
            let wal_bytes = |sys: &DurableSystem| -> Vec<u64> {
                sys.sharded()
                    .shard_gauges()
                    .iter()
                    .map(|g| g.wal_bytes)
                    .collect()
            };
            let (pinned, before) = (sys.sharded().pin(), wal_bytes(&sys));
            let out = sys.absorb_delta("LocusLink", &[batch], false).unwrap();
            let groups = pinned.changed_groups(&sys.sharded().pin());
            let mut keys: Vec<(String, String)> = groups
                .iter()
                .flatten()
                .map(|g| (g.label.clone(), g.key.clone()))
                .collect();
            assert!(keys.iter().any(|(label, _)| label == "Gene"), "{keys:?}");
            assert_eq!(out.journaled_records, 1 + keys.len());

            let (mut events, mut journaled) = (0, Vec::new());
            for (i, from) in before.iter().enumerate() {
                let wal = dir.join(format!("shard-{i:03}")).join("wal.log");
                let tail = read_tail(&wal, *from, u64::MAX).unwrap().unwrap();
                for payload in &tail.records {
                    match JournalRecord::decode(payload).unwrap() {
                        JournalRecord::SourceEvent { .. } => events += 1,
                        JournalRecord::ReplaceFragments { label, key, .. } => {
                            journaled.push((label, key))
                        }
                        other => panic!("a commit journaled {other:?}"),
                    }
                }
            }
            keys.sort();
            journaled.sort();
            assert_eq!(
                (events, journaled),
                (1, keys),
                "one record per changed group"
            );
            let grown: u64 = wal_bytes(&sys).iter().sum::<u64>() - before.iter().sum::<u64>();
            assert!(grown < 4096, "the WAL grew by {grown} B");

            let answer = rendered(&sys, q);
            drop(sys);
            sys = open();
            assert_eq!(rendered(&sys, q), answer, "a warm reopen answers alike");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A journal written by a release that recorded positional path
    /// edits (tags 2-5) is refused as corrupt at the record's offset,
    /// and the refused open leaves every byte of the directory in place.
    #[test]
    fn a_journal_of_path_edits_is_refused_and_left_as_it_was() {
        let dir = tmp_dir("path-edit-journal");
        drop(DurableSystem::open_sharded(system(), &dir, FsyncPolicy::Always, 4).unwrap());
        let wal = dir.join("shard-002").join("wal.log");
        let offset = std::fs::metadata(&wal).unwrap().len();
        // `SetValueAt { root, path: [Gene[0], Symbol[0]], value: "TP53" }`
        // as earlier releases framed it: tag 3, the root, the path, the
        // value.
        let mut payload = vec![3];
        annoda_persist::write_string(&mut payload, GML_ROOT);
        annoda_persist::write_varint(&mut payload, 2);
        for label in ["Gene", "Symbol"] {
            annoda_persist::write_string(&mut payload, label);
            annoda_persist::write_varint(&mut payload, 0);
        }
        annoda_persist::codec::write_value(&mut payload, &"TP53".into());
        let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
        frame.extend(annoda_persist::crc32(&payload).to_le_bytes());
        frame.extend(&payload);
        let mut bytes = std::fs::read(&wal).unwrap();
        bytes.extend(&frame);
        std::fs::write(&wal, bytes).unwrap();

        let before = files(&dir);
        let refused = DurableSystem::open_sharded(system(), &dir, FsyncPolicy::Always, 4);
        match refused.err().expect("a path-edit record is refused") {
            AnnodaError::Persist(annoda_persist::PersistError::Corrupt {
                what: "wal",
                offset: at,
                reason,
            }) => {
                assert_eq!(at, offset, "{reason}");
                assert!(reason.contains("unknown record tag 3"), "{reason}");
            }
            other => panic!("expected a corrupt WAL, got {other}"),
        }
        assert_eq!(files(&dir), before, "the refused directory is untouched");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
