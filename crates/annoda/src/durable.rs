//! [`DurableSystem`] — the ANNODA façade with a disk life.
//!
//! [`Annoda`] alone is ephemeral: every process start re-wraps all
//! sources and re-materialises ANNODA-GML from scratch. This layer
//! pairs the façade with an [`annoda_persist::DurableStore`] holding
//! the materialised global model:
//!
//! * **cold start** — no persisted GML yet: materialise once and
//!   journal it, so the *next* start is warm;
//! * **warm start** — recovery rebuilt the exact GML the previous
//!   process held (snapshot + WAL replay); queries are served from it
//!   immediately without touching the wrappers;
//! * **refresh** — wrappers re-pull their native databases (which also
//!   invalidates the mediator's subquery cache), and the resulting
//!   delta against the persisted GML is journaled via
//!   [`annoda_persist::sync_root`] — a handful of path-addressed edit
//!   records when the change is small, a full fragment when it is not.
//!
//! Construction with [`DurableSystem::new`] keeps the façade fully
//! usable with persistence disabled — the serving layer treats that as
//! "no `--data-dir` given".
//!
//! The ranked-search index is derived, never persisted: a data
//! directory holds only WAL, snapshot, manifest and replica-marker
//! files. Each snapshot build harvests the wrappers' text and either
//! republishes the previous index (the corpus fingerprint is unchanged)
//! or builds a new one. That memo is the one place a served index is
//! kept.

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use annoda_lorel::{FunctionRegistry, PlanExplain, QueryOutcome};
use annoda_mediator::{Mediator, MediatorError};
use annoda_oem::shard::ShardRouter;
use annoda_oem::{OemStore, Snapshot};
use annoda_persist::{
    sync_root, DurableStore, FsyncPolicy, JournalRecord, PersistStats, RecoveryReport,
    SnapshotMeta, SourceEventKind, TailRead,
};
use annoda_search::{docs_fingerprint, FusionStrategy, RankedAnswer, SearchIndex, SearchStats};
use annoda_wrap::{Cost, LatencyModel, Wrapper};
use parking_lot::RwLock;

use crate::registry::PlugReport;
use crate::repl::{ReplShared, Role};
use crate::system::{Annoda, AnnodaError};
use crate::txn::{CommitError, CommitOutcome, EpochsHandle, ShardGauges, ShardedGml, TxnStats};

/// The name the mediator binds the materialised global model under —
/// also the root name the journal tracks.
pub const GML_ROOT: &str = "ANNODA-GML";

/// Marker file a follower leaves in its data directory: its WAL is a
/// byte-for-byte replica of some leader's log, so the local WAL length
/// is a valid replication resume position. A directory without the
/// marker may hold locally-journaled bytes (a leader's, or a cold
/// materialisation) whose offsets mean nothing on the leader's log —
/// such a follower must bootstrap via snapshot transfer. Promotion
/// removes the marker.
const FOLLOWER_MARKER: &str = "replica.follower";

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
    /// Sharded mode: shards whose epoch bumped for this delta — the
    /// blast radius a cached reader sees. Zero on the flat path (the
    /// generation bump invalidates wholesale there).
    pub changed_shards: usize,
    /// Sharded mode: entity fragments that structurally changed across
    /// the bumped shards — the record-level grain of the delta. Zero on
    /// the flat path.
    pub changed_fragments: usize,
}

/// One epoch of the served global model: an immutable `Arc<OemStore>`
/// shared by every in-flight query, plus what it cost to build.
///
/// Snapshots are built lazily by [`DurableSystem::query_snapshot`] and
/// swapped atomically whenever the GML changes (refresh, plug, unplug,
/// façade mutation). Queries evaluate against the `Arc` with **no lock
/// held and no store clone** — answers land in per-query
/// [`annoda_oem::AnswerOverlay`]s above the snapshot's high-water mark.
#[derive(Debug, Clone)]
pub struct GmlSnapshot {
    /// Monotonic epoch number; bumps on every rebuild.
    pub epoch: u64,
    /// The immutable global model this epoch serves.
    pub store: Arc<OemStore>,
    /// What building this epoch cost (materialisation requests on the
    /// ephemeral path, one amortised local copy on the persisted path).
    pub build_cost: Cost,
    /// The ranked-search index over the same epoch's wrapper text —
    /// published atomically with the store (one `RwLock` swap installs
    /// both), so `/search` and `/genes` can never observe different
    /// epochs within one generation. In sharded mode the builder also
    /// re-checks the epoch vector across store assembly and corpus
    /// harvest, retrying if a commit landed in between, so the pair
    /// inside one snapshot comes from one committed state.
    pub search: Arc<SearchIndex>,
    /// Sharded mode only: the per-shard epoch vector this snapshot was
    /// assembled from. The serve tier stamps cache entries with sums
    /// over this vector for selective invalidation.
    pub shard_epochs: Option<Arc<Vec<u64>>>,
    /// Sharded mode only: the key router, so response handlers can map
    /// entity keys to the shards they depend on.
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

/// An [`Annoda`] system optionally backed by a WAL + snapshot store.
pub struct DurableSystem {
    system: Annoda,
    durable: Option<DurableStore>,
    /// The current serving snapshot; `None` until first use or after an
    /// invalidation. Readers clone the `Arc` and drop the guard before
    /// evaluating.
    snapshot: RwLock<Option<Arc<GmlSnapshot>>>,
    /// Epochs handed out so far.
    epochs: AtomicU64,
    /// The serving generation: bumps on *every* invalidation (refresh,
    /// plug, unplug, façade mutation), whether or not a snapshot is
    /// ever rebuilt. Shared as an `Arc` so the HTTP layer can key its
    /// response cache and mint `ETag`s without taking the system lock.
    generation: Arc<AtomicU64>,
    /// Replication role and position gauges, shared with the
    /// replication threads and the HTTP layer.
    repl: Arc<ReplShared>,
    /// Whether the local WAL position is a trusted replication resume
    /// point (follower opened over a marked or fresh directory).
    follower_resume: bool,
    /// Sharded mode: the transactional shard vector. When set, the
    /// flat `durable` store is unused (per-shard WAL segments persist
    /// instead) and refreshes commit per-shard instead of wholesale.
    sharded: Option<Arc<ShardedGml>>,
    /// Sharded mode: set when a wholesale invalidation (plug, unplug,
    /// façade mutation) may have changed the materialised GML; the next
    /// snapshot build reconciles it through a transaction so only the
    /// truly-changed shards bump.
    sharded_dirty: AtomicBool,
    /// In-memory search-index reuse: `(corpus fingerprint, index)` of
    /// the last build. A shard commit that did not change any harvested
    /// text republishes the same index instead of rebuilding — the
    /// search half of selective invalidation.
    search_memo: RwLock<Option<(u32, Arc<SearchIndex>)>>,
}

impl DurableSystem {
    /// Wraps a system with persistence disabled (ephemeral, exactly the
    /// old behaviour).
    pub fn new(system: Annoda) -> Self {
        DurableSystem {
            system,
            durable: None,
            snapshot: RwLock::new(None),
            epochs: AtomicU64::new(0),
            generation: Arc::new(AtomicU64::new(1)),
            repl: Arc::new(ReplShared::new(Role::Leader)),
            follower_resume: false,
            sharded: None,
            sharded_dirty: AtomicBool::new(false),
            search_memo: RwLock::new(None),
        }
    }

    /// Wraps a system over an in-memory **sharded** global model:
    /// MVCC per-shard epochs and concurrent transactional writers, no
    /// persistence. The GML is materialised once and partitioned.
    pub fn new_sharded(system: Annoda, shards: usize) -> Result<Self, AnnodaError> {
        let (gml, _cost) = system.mediator().materialize_gml()?;
        let sharded = Arc::new(ShardedGml::new(&gml, GML_ROOT, shards)?);
        let mut this = Self::new(system);
        this.sharded = Some(sharded);
        Ok(this)
    }

    /// Opens `dir` as a **sharded** durable store: per-shard WAL
    /// segments and snapshot generations under `dir/shard-NNN/`. A warm
    /// directory rebuilds the shard vector straight from the recovered
    /// segments; a cold one materialises the GML once, partitions it,
    /// and journals every shard.
    pub fn open_sharded(
        system: Annoda,
        dir: &Path,
        policy: FsyncPolicy,
        shards: usize,
    ) -> Result<Self, AnnodaError> {
        let sharded = ShardedGml::open(dir, policy, shards, GML_ROOT, || {
            let (gml, _cost) = system.mediator().materialize_gml()?;
            Ok(gml)
        })?;
        let mut this = Self::new(system);
        this.sharded = Some(Arc::new(sharded));
        Ok(this)
    }

    /// Opens `dir` (recovering whatever a previous process left) and
    /// attaches it to `system`. A cold directory gets the materialised
    /// GML journaled immediately; a warm one serves the recovered GML
    /// without re-materialising.
    pub fn open(system: Annoda, dir: &Path, policy: FsyncPolicy) -> Result<Self, AnnodaError> {
        let mut durable = DurableStore::open(dir, policy)?;
        // This process journals locally from here on; a follower later
        // opened over the same directory must bootstrap via snapshot
        // transfer, not resume from these offsets.
        let _ = std::fs::remove_file(dir.join(FOLLOWER_MARKER));
        if durable.store().named(GML_ROOT).is_none() {
            let (gml, _cost) = system.mediator().materialize_gml()?;
            let root = gml.named(GML_ROOT).expect("materialize_gml names its root");
            sync_root(&mut durable, GML_ROOT, &gml, root)?;
        }
        let mut this = Self::new(system);
        this.durable = Some(durable);
        // Make the bootstrap durable regardless of policy: a cold open
        // under OnSnapshot would otherwise hold the whole GML in page
        // cache only.
        if let Some(d) = this.durable.as_mut() {
            d.sync()?;
        }
        Ok(this)
    }

    /// The wrapped façade.
    pub fn annoda(&self) -> &Annoda {
        &self.system
    }

    /// Mutable façade access (annotations, eval functions, ...).
    /// Invalidates the serving snapshot — the caller may change what
    /// the GML materialises to.
    pub fn annoda_mut(&mut self) -> &mut Annoda {
        *self.snapshot.get_mut() = None;
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

    /// Whether a durable store backs this system (flat WAL or per-shard
    /// segments).
    pub fn is_durable(&self) -> bool {
        self.durable.is_some() || self.sharded.as_ref().is_some_and(|s| s.is_durable())
    }

    /// The persisted GML store, when persistence is on and the root has
    /// been journaled.
    pub fn persisted_gml(&self) -> Option<&OemStore> {
        let d = self.durable.as_ref()?;
        d.store().named(GML_ROOT)?;
        Some(d.store())
    }

    /// What recovery found at open time: the flat store's report, or
    /// in sharded mode the sum over the per-shard segments (the flat
    /// store is unused there).
    pub fn recovery(&self) -> Option<RecoveryReport> {
        match &self.sharded {
            Some(sharded) => sharded.recovery(),
            None => self.durable.as_ref().map(|d| *d.recovery()),
        }
    }

    /// Journal/WAL counters for `/metrics`: the flat store's, or in
    /// sharded mode the sum over the per-shard segments.
    pub fn persist_stats(&self) -> Option<PersistStats> {
        match &self.sharded {
            Some(sharded) => sharded.persist_stats(),
            None => self.durable.as_ref().map(DurableStore::stats),
        }
    }

    // -----------------------------------------------------------------
    // replication

    /// Opens `dir` as a read-only follower: never cold-materialises
    /// (its store advances only by applying the leader's shipped WAL),
    /// and decides whether the local WAL position can resume the
    /// subscription. A directory carrying the follower marker — or a
    /// completely fresh one, trivially in sync at the log base —
    /// resumes from its own `(generation, wal_offset)`; anything else
    /// holds locally-journaled bytes and must bootstrap via snapshot
    /// transfer.
    pub fn open_follower(
        system: Annoda,
        dir: &Path,
        policy: FsyncPolicy,
    ) -> Result<Self, AnnodaError> {
        let durable = DurableStore::open(dir, policy)?;
        let marker = dir.join(FOLLOWER_MARKER);
        let r = *durable.recovery();
        let fresh = !r.snapshot_loaded
            && r.replayed_records == 0
            && r.truncated_bytes == 0
            && durable.wal_offset() == DurableStore::wal_base_offset();
        let resume = marker.exists() || fresh;
        if resume && !marker.exists() {
            std::fs::write(&marker, b"replica\n")
                .map_err(|e| AnnodaError::Replication(format!("cannot write marker: {e}")))?;
        }
        let repl = Arc::new(ReplShared::new(Role::Follower));
        repl.set_applied(durable.generation(), durable.wal_offset());
        let mut this = Self::new(system);
        this.durable = Some(durable);
        this.repl = repl;
        this.follower_resume = resume;
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

    /// The durable `(generation, wal_offset)` position — what `/healthz`
    /// reports and what read-your-writes clients compare against.
    pub fn wal_position(&self) -> Option<(u64, u64)> {
        self.durable
            .as_ref()
            .map(|d| (d.generation(), d.wal_offset()))
    }

    /// Where a replica client should resume its subscription: the local
    /// WAL position when it is a trusted replica of the leader's log,
    /// `None` when only a snapshot transfer can synchronise this node.
    pub fn replica_resume_position(&self) -> Option<(u64, u64)> {
        if self.follower_resume {
            self.wal_position()
        } else {
            None
        }
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
        let d = self
            .durable
            .as_ref()
            .ok_or_else(|| AnnodaError::Replication("no durable store to tail".into()))?;
        Ok(d.read_tail(generation, from_offset, max_bytes)?)
    }

    /// Leader side: the base state a bootstrapping subscriber installs
    /// before replaying this WAL (the on-disk snapshot, or the empty
    /// store at generation 0).
    pub fn base_snapshot(&self) -> Result<(OemStore, u64), AnnodaError> {
        let d = self
            .durable
            .as_ref()
            .ok_or_else(|| AnnodaError::Replication("no durable store to snapshot".into()))?;
        Ok(d.base_snapshot()?)
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
        if self.repl.role() != Role::Follower {
            return Err(AnnodaError::Replication(
                "snapshot install refused: not a follower".into(),
            ));
        }
        let d = self
            .durable
            .as_mut()
            .ok_or_else(|| AnnodaError::Replication("follower has no durable store".into()))?;
        d.install_snapshot(store, generation)?;
        let marker = d.dir().join(FOLLOWER_MARKER);
        std::fs::write(&marker, b"replica\n")
            .map_err(|e| AnnodaError::Replication(format!("cannot write marker: {e}")))?;
        self.follower_resume = true;
        let base = DurableStore::wal_base_offset();
        self.repl.set_applied(generation, base);
        self.invalidate_snapshot();
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
        if self.repl.role() != Role::Follower {
            return Err(AnnodaError::Replication(
                "batch apply refused: not a follower".into(),
            ));
        }
        let d = self
            .durable
            .as_mut()
            .ok_or_else(|| AnnodaError::Replication("follower has no durable store".into()))?;
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
            let record = d.journal_raw(payload)?;
            if let JournalRecord::SourceEvent {
                kind: SourceEventKind::Unplug,
                name,
            } = record
            {
                unplugs.push(name);
            }
        }
        let applied = d.wal_offset();
        for name in unplugs {
            self.system.unplug(&name);
        }
        self.repl.set_applied(generation, applied);
        if !records.is_empty() {
            self.repl.batches_applied.fetch_add(1, Ordering::Relaxed);
            self.repl
                .records_applied
                .fetch_add(records.len() as u64, Ordering::Relaxed);
            self.invalidate_snapshot();
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
        if self.repl.role() != Role::Follower {
            return Err(AnnodaError::Replication(
                "promote refused: already the leader".into(),
            ));
        }
        let d = self
            .durable
            .as_mut()
            .ok_or_else(|| AnnodaError::Replication("follower has no durable store".into()))?;
        d.snapshot()?;
        let _ = std::fs::remove_file(d.dir().join(FOLLOWER_MARKER));
        self.follower_resume = false;
        let position = (d.generation(), d.wal_offset());
        self.repl.set_applied(position.0, position.1);
        self.repl.set_role(Role::Leader);
        self.invalidate_snapshot();
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

    /// Plugs a source, journals the lifecycle event, and re-syncs the
    /// persisted GML.
    pub fn plug(&mut self, wrapper: Box<dyn Wrapper>) -> Result<PlugReport, AnnodaError> {
        self.require_leader("plug")?;
        let name = wrapper.description().name.clone();
        let report = self.system.plug(wrapper);
        self.invalidate_snapshot();
        self.journal_event(SourceEventKind::Plug, &name)?;
        self.resync()?;
        Ok(report)
    }

    /// Plugs a remote federation source, journaling the lifecycle event
    /// like any other plug.
    pub fn plug_remote(&mut self, addr: &str) -> Result<PlugReport, AnnodaError> {
        let remote = annoda_federation::RemoteWrapper::connect(
            addr,
            annoda_federation::ClientConfig::default(),
        )?;
        self.plug(Box::new(remote))
    }

    /// Unplugs a source, journals the lifecycle event, and re-syncs the
    /// persisted GML.
    pub fn unplug(&mut self, name: &str) -> Result<bool, AnnodaError> {
        self.require_leader("unplug")?;
        let removed = self.system.unplug(name);
        if removed {
            self.invalidate_snapshot();
            self.journal_event(SourceEventKind::Unplug, name)?;
            self.resync()?;
        }
        Ok(removed)
    }

    /// Refreshes every wrapper from its native database (invalidating
    /// the mediator's subquery cache and the serving snapshot) and
    /// journals the GML delta.
    pub fn refresh(&mut self) -> Result<RefreshOutcome, AnnodaError> {
        self.require_leader("refresh")?;
        let refreshed_objects = self.system.registry_mut().mediator_mut().refresh_all();
        self.commit_refreshed("all", refreshed_objects)
    }

    /// The shared tail of every refresh-shaped write: commits the
    /// re-materialised GML. Sharded mode bumps only the truly-changed
    /// shards (no generation bump — shard epochs carry the
    /// invalidation) and reports the blast radius; the flat path
    /// journals the delta wholesale and invalidates by generation.
    fn commit_refreshed(
        &mut self,
        event_name: &str,
        refreshed_objects: usize,
    ) -> Result<RefreshOutcome, AnnodaError> {
        if self.sharded.is_some() {
            return self.sharded_commit_refreshed(refreshed_objects);
        }
        self.invalidate_snapshot();
        let mut journaled_records = 0;
        if self.durable.is_some() {
            self.journal_event(SourceEventKind::Refresh, event_name)?;
            journaled_records = 1 + self.resync()?;
            if let Some(d) = self.durable.as_mut() {
                d.sync()?;
            }
        }
        Ok(RefreshOutcome {
            refreshed_objects,
            journaled_records,
            persisted: self.durable.is_some(),
            changed_shards: 0,
            changed_fragments: 0,
        })
    }

    /// The sharded half of [`DurableSystem::commit_refreshed`],
    /// deliberately `&self`: every step — materialise, stage, the
    /// first-writer-wins commit, snapshot invalidation — works through
    /// shared handles, so concurrent readers keep serving the previous
    /// epoch vector while the commit runs.
    fn sharded_commit_refreshed(
        &self,
        refreshed_objects: usize,
    ) -> Result<RefreshOutcome, AnnodaError> {
        let sharded = self
            .sharded
            .as_ref()
            .expect("sharded_commit_refreshed requires sharded mode");
        let (outcome, changed_fragments) = self.sharded_resync()?;
        if !outcome.changed.is_empty() {
            *self.snapshot.write() = None;
        } else if self.search_is_stale() {
            // A text-only delta: nothing the GML materialises moved,
            // so no shard epoch bumped — but the harvested text (and
            // with it `/search`) drifted. Epoch-stamped caches would
            // serve the old index forever; invalidate by generation.
            *self.snapshot.write() = None;
            self.generation.fetch_add(1, Ordering::Release);
        }
        sharded.sync()?;
        Ok(RefreshOutcome {
            refreshed_objects,
            journaled_records: outcome.journaled,
            persisted: sharded.is_durable(),
            changed_shards: outcome.changed.len(),
            changed_fragments,
        })
    }

    /// Drops the serving snapshot; the next query builds (and swaps in)
    /// a fresh epoch. Bumps the serving generation so epoch-keyed
    /// response caches invalidate wholesale. In sharded mode the next
    /// snapshot build additionally reconciles the shard vector through
    /// a transaction, so per-shard epochs advance only where the model
    /// really changed.
    fn invalidate_snapshot(&self) {
        *self.snapshot.write() = None;
        if self.sharded.is_some() {
            self.sharded_dirty.store(true, Ordering::Release);
        }
        self.generation.fetch_add(1, Ordering::Release);
    }

    // -----------------------------------------------------------------
    // sharded mode

    /// The sharded transactional model, in sharded mode.
    pub fn sharded_handle(&self) -> Option<Arc<ShardedGml>> {
        self.sharded.as_ref().map(Arc::clone)
    }

    /// Whether this system serves a sharded store.
    pub fn is_sharded(&self) -> bool {
        self.sharded.is_some()
    }

    /// Shared live epoch vector, for the serve tier's cache stamps.
    pub fn shard_epochs_handle(&self) -> Option<EpochsHandle> {
        self.sharded.as_ref().map(|s| s.epochs_handle())
    }

    /// Per-shard gauges for `/metrics`, in sharded mode.
    pub fn shard_gauges(&self) -> Option<Vec<ShardGauges>> {
        self.sharded.as_ref().map(|s| s.shard_gauges())
    }

    /// Transaction counters for `/metrics`, in sharded mode.
    pub fn txn_stats(&self) -> Option<TxnStats> {
        self.sharded.as_ref().map(|s| s.txn_stats())
    }

    /// Materialises the current GML and commits it through a
    /// transaction, retrying on first-writer-wins conflicts (other
    /// writers may hold direct [`ShardedGml`] handles). Only the shards
    /// the new materialisation actually changed bump their epochs.
    fn sharded_resync(&self) -> Result<(CommitOutcome, usize), AnnodaError> {
        let sharded = self
            .sharded
            .as_ref()
            .expect("sharded_resync requires sharded mode");
        const RETRIES: usize = 16;
        let mut last = None;
        for _ in 0..RETRIES {
            let (gml, _cost) = self.system.mediator().materialize_gml()?;
            let mut txn = sharded.begin();
            txn.stage(&gml)?;
            let changed_fragments = txn.changed_fragment_count();
            match sharded.commit(txn) {
                Ok(outcome) => return Ok((outcome, changed_fragments)),
                Err(CommitError::Conflict { shards }) => {
                    last = Some(shards);
                    continue;
                }
                Err(CommitError::Annoda(e)) => return Err(e),
            }
        }
        Err(AnnodaError::Txn(format!(
            "resync lost {RETRIES} consecutive first-writer-wins races (last conflict on \
             shards {last:?})"
        )))
    }

    /// Re-pulls **one** source from its native database and commits the
    /// delta transactionally. In sharded mode only the shards holding
    /// that source's changed entities bump — every cached response that
    /// does not depend on them stays valid. Without sharding this
    /// degrades to a wholesale refresh of the one wrapper.
    pub fn refresh_source(&mut self, name: &str) -> Result<RefreshOutcome, AnnodaError> {
        self.require_leader("refresh")?;
        let refreshed_objects = self
            .system
            .registry_mut()
            .mediator_mut()
            .refresh_source(name)
            .ok_or_else(|| AnnodaError::Mediator(MediatorError::UnknownSource(name.to_string())))?;
        self.commit_refreshed(name, refreshed_objects)
    }

    /// Applies one change-feed batch from `source`'s feed (see
    /// `annoda_federation::feed`) and commits the resulting delta —
    /// the push-based sibling of [`DurableSystem::refresh_source`],
    /// which re-pulls the whole native database instead.
    ///
    /// Upserts (`flat: Some`) and deletes (`flat: None`) mutate the
    /// local wrapper's native database record-by-record; a `bootstrap`
    /// batch *replaces* it with the feed's full dump. Either way the
    /// wrapper then re-materialises once per batch, and the commit
    /// rides the same transactional path as a pull refresh: in sharded
    /// mode only the shards holding touched entities bump their epochs,
    /// and only their WAL segments journal the delta. The next snapshot
    /// rebuilds the search index if the batch changed harvested text.
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
        self.commit_refreshed(source, refreshed_objects)
    }

    /// The exclusive half of [`DurableSystem::absorb_delta`]: applies
    /// the batch to the local wrapper's native database and re-exports
    /// that one source's OML. This is record-level work — microseconds
    /// per record plus one per-batch re-export — so a serve tier can
    /// hold its writer lock only for this call and run the expensive
    /// [`DurableSystem::absorb_commit`] under a reader lock, keeping
    /// queries flowing while the commit materialises and stages.
    ///
    /// Returns the refreshed model's object count, which the matching
    /// `absorb_commit` reports back in its [`RefreshOutcome`].
    pub fn absorb_apply(
        &mut self,
        source: &str,
        records: &[annoda_federation::ChangeRecord],
        bootstrap: bool,
    ) -> Result<usize, AnnodaError> {
        self.require_leader("absorb")?;
        let unknown = || AnnodaError::Mediator(MediatorError::UnknownSource(source.to_string()));
        let wrap_err = |e| AnnodaError::Mediator(MediatorError::Wrap(e));
        {
            let wrapper = self
                .system
                .registry_mut()
                .mediator_mut()
                .wrapper_mut(source)
                .ok_or_else(unknown)?;
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
        }
        self.system
            .registry_mut()
            .mediator_mut()
            .refresh_source(source)
            .ok_or_else(unknown)
    }

    /// The shared half of [`DurableSystem::absorb_delta`], sharded mode
    /// only: materialises the post-apply model and commits it through
    /// the first-writer-wins transaction path (bumping only the shards
    /// the delta touched). `&self` throughout — concurrent readers keep
    /// serving the previous epoch vector, and a reader racing the commit
    /// assembles the last *committed* state, never a half-applied one.
    /// The `source` argument is unused; the benchmark harness's traced
    /// replay calls this signature.
    ///
    /// A crash between `absorb_apply` and this commit is safe: the
    /// batch was never acked, so the feed replays it and the
    /// record-level upserts/deletes re-apply idempotently.
    pub fn absorb_commit(
        &self,
        _source: &str,
        refreshed_objects: usize,
    ) -> Result<RefreshOutcome, AnnodaError> {
        if self.sharded.is_none() {
            return Err(AnnodaError::Txn(
                "absorb_commit requires sharded mode (use absorb_delta)".to_string(),
            ));
        }
        self.sharded_commit_refreshed(refreshed_objects)
    }

    /// Whether the published snapshot's search index no longer matches
    /// what the wrappers harvest to — the text-only-delta case the
    /// shard-epoch stamps cannot see. `false` when no snapshot is live
    /// (the next build fingerprints for itself).
    fn search_is_stale(&self) -> bool {
        let published = match self.snapshot.read().as_ref() {
            Some(s) => s.search.fingerprint(),
            None => return false,
        };
        let docs = self.system.mediator().harvest_text_docs();
        docs_fingerprint(&docs) != published
    }

    /// The current serving snapshot, building one if none is live.
    ///
    /// Fast path: one brief read-lock to clone the `Arc`. Slow path
    /// (first query of an epoch): the GML is copied from the persisted
    /// store — the *only* full-store copy the epoch will ever pay — or
    /// materialised from the wrappers when persistence is off, then
    /// installed under a write lock. Evaluation never runs under this
    /// lock.
    pub fn query_snapshot(&self) -> Result<Arc<GmlSnapshot>, AnnodaError> {
        if let Some(sharded) = self.sharded.as_ref() {
            return self.query_snapshot_sharded(sharded);
        }
        if let Some(s) = self.snapshot.read().as_ref() {
            return Ok(Arc::clone(s));
        }
        let (store, build_cost) = match self.persisted_gml() {
            Some(gml) => {
                let mut cost = Cost::new();
                cost.charge(&LatencyModel::local(), gml.len() as u64);
                (gml.clone(), cost)
            }
            None => {
                let (gml, cost) = self.system.mediator().materialize_gml()?;
                (gml, cost)
            }
        };
        let search = self.build_search_index();
        let mut guard = self.snapshot.write();
        if let Some(s) = guard.as_ref() {
            // A racing builder installed an epoch first; serve that one.
            return Ok(Arc::clone(s));
        }
        let snap = Arc::new(GmlSnapshot {
            epoch: self.epochs.fetch_add(1, Ordering::Relaxed) + 1,
            store: Arc::new(store),
            build_cost,
            search,
            shard_epochs: None,
            shard_router: None,
        });
        *guard = Some(Arc::clone(&snap));
        Ok(snap)
    }

    /// Sharded snapshot path. The cached snapshot is keyed by the epoch
    /// vector it was assembled from: a commit that bumped any shard
    /// makes it stale, an untouched vector serves it as-is. The
    /// assembly itself is shared with [`ShardedGml::assembled`]'s
    /// per-vector cache, so the *only* per-commit cost is reassembling
    /// — never a store copy per query.
    fn query_snapshot_sharded(
        &self,
        sharded: &Arc<ShardedGml>,
    ) -> Result<Arc<GmlSnapshot>, AnnodaError> {
        // Wholesale invalidations (plug/unplug/façade mutation) must be
        // reconciled into the shard vector before serving.
        if self.sharded_dirty.swap(false, Ordering::AcqRel) {
            self.sharded_resync()?;
        }
        let live = sharded.epoch_vector();
        if let Some(s) = self.snapshot.read().as_ref() {
            if s.shard_epochs.as_deref() == Some(live.as_ref()) {
                return Ok(Arc::clone(s));
            }
        }
        // The store and the search index must describe the *same*
        // committed state: assemble, harvest, then re-read the live
        // vector — if a commit landed in between, the harvested corpus
        // may already reflect it while the assembled store does not, so
        // retry the pair against the newer vector. (Mediator mutations
        // reach readers only through a commit, so an unmoved vector
        // brackets an unchanged corpus.) Bounded: each retry means a
        // whole commit landed during one snapshot build.
        const PAIR_RETRIES: usize = 8;
        let (mut vector, mut store) = sharded.assembled();
        let mut search = self.build_search_index();
        for _ in 0..PAIR_RETRIES {
            if *sharded.epoch_vector() == vector {
                break;
            }
            (vector, store) = sharded.assembled();
            search = self.build_search_index();
        }
        let mut build_cost = Cost::new();
        build_cost.charge(&LatencyModel::local(), store.len() as u64);
        let mut guard = self.snapshot.write();
        if let Some(s) = guard.as_ref() {
            if s.shard_epochs.as_deref() == Some(&vector) {
                return Ok(Arc::clone(s));
            }
        }
        let snap = Arc::new(GmlSnapshot {
            epoch: self.epochs.fetch_add(1, Ordering::Relaxed) + 1,
            store,
            build_cost,
            search,
            shard_epochs: Some(Arc::new(vector)),
            shard_router: Some(sharded.router()),
        });
        *guard = Some(Arc::clone(&snap));
        Ok(snap)
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

    /// Writes a point-in-time snapshot and truncates the journal — in
    /// sharded mode every shard segment, reported as one (objects and
    /// bytes summed, the highest generation). `Ok(None)` when
    /// persistence is off.
    pub fn snapshot(&mut self) -> Result<Option<SnapshotMeta>, AnnodaError> {
        self.require_leader("snapshot")?;
        if let Some(sharded) = &self.sharded {
            return sharded.snapshot();
        }
        match self.durable.as_mut() {
            Some(d) => Ok(Some(d.snapshot()?)),
            None => Ok(None),
        }
    }

    fn journal_event(&mut self, kind: SourceEventKind, name: &str) -> Result<(), AnnodaError> {
        if let Some(d) = self.durable.as_mut() {
            d.journal(&JournalRecord::SourceEvent {
                kind,
                name: name.to_string(),
            })?;
        }
        Ok(())
    }

    /// Re-materialises GML and journals the delta against the persisted
    /// copy. Returns the number of records journaled.
    fn resync(&mut self) -> Result<usize, AnnodaError> {
        let Some(d) = self.durable.as_mut() else {
            return Ok(0);
        };
        let (gml, _cost) = self.system.mediator().materialize_gml()?;
        let root = gml.named(GML_ROOT).expect("materialize_gml names its root");
        Ok(sync_root(d, GML_ROOT, &gml, root)?)
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
        assert!(!sys.is_durable());
        assert!(sys.persist_stats().is_none());
        let served = lorel(
            &sys,
            r#"select S from ANNODA-GML.Source S where S.Name = "LocusLink""#,
        );
        assert!(served.outcome.sole_result(&served.view).is_some());
    }

    #[test]
    fn cold_open_then_warm_open_serves_identical_gml() {
        let dir = tmp_dir("coldwarm");
        let cold = DurableSystem::open(system(), &dir, FsyncPolicy::Always).unwrap();
        assert!(cold.is_durable());
        let report = cold.recovery().unwrap();
        assert!(!report.snapshot_loaded);
        let cold_bytes = encode_store(cold.persisted_gml().unwrap());
        drop(cold); // no snapshot: simulate an unclean exit

        let warm = DurableSystem::open(system(), &dir, FsyncPolicy::Always).unwrap();
        let report = warm.recovery().unwrap();
        assert!(report.replayed_records > 0, "WAL replay restored GML");
        assert_eq!(encode_store(warm.persisted_gml().unwrap()), cold_bytes);

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
        sys.refresh().unwrap();
        let g1 = sys.generation();
        assert!(g1 > g0, "refresh must bump the generation");
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
        let mut sys = DurableSystem::open(system(), &dir, FsyncPolicy::Always).unwrap();
        let outcome = sys.refresh().unwrap();
        assert!(outcome.persisted);
        assert!(outcome.journaled_records >= 1, "at least the marker");
        let before = sys.persist_stats().unwrap();
        let meta = sys.snapshot().unwrap().unwrap();
        assert!(meta.objects > 0);
        let after = sys.persist_stats().unwrap();
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
            ("flat", |a, dir| {
                DurableSystem::open(a, dir, FsyncPolicy::Always).unwrap()
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
                warm.recovery().unwrap().replayed_records > 0,
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
        let mut leader = DurableSystem::open(system(), &leader_dir, FsyncPolicy::Always).unwrap();
        let mut follower =
            DurableSystem::open_follower(system(), &follower_dir, FsyncPolicy::Always).unwrap();
        assert_eq!(follower.role(), Role::Follower);
        assert!(
            follower.replica_resume_position().is_some(),
            "fresh directory is trivially in sync"
        );

        pump(&leader, &mut follower);
        assert_eq!(
            encode_store(follower.persisted_gml().unwrap()),
            encode_store(leader.persisted_gml().unwrap()),
            "bootstrap converges"
        );

        // An acknowledged leader write: unplug OMIM (journals a real
        // GML delta plus the lifecycle event).
        assert!(leader.unplug("OMIM").unwrap());
        pump(&leader, &mut follower);
        assert_eq!(
            encode_store(follower.persisted_gml().unwrap()),
            encode_store(leader.persisted_gml().unwrap()),
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
        let mut leader = DurableSystem::open(system(), &leader_dir, FsyncPolicy::Always).unwrap();
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
            encode_store(follower2.persisted_gml().unwrap()),
            encode_store(leader.persisted_gml().unwrap())
        );

        // A directory that once journaled locally must NOT resume.
        drop(follower2);
        let local = DurableSystem::open(system(), &follower_dir, FsyncPolicy::Always).unwrap();
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
        let leader = DurableSystem::open(system(), &leader_dir, FsyncPolicy::Always).unwrap();
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

    #[test]
    fn sharded_mode_answers_identically_to_flat() {
        let sharded = DurableSystem::new_sharded(system(), 4).unwrap();
        assert!(sharded.is_sharded());
        let flat = DurableSystem::new(system());
        let q = "select count(GML.Gene) from ANNODA-GML GML";
        assert_eq!(
            lorel(&sharded, q).outcome.rows,
            lorel(&flat, q).outcome.rows
        );
        // Search answers over the assembled model too.
        let term = live_term(&sharded);
        assert_eq!(
            search(&sharded, &term, 5, FusionStrategy::Weighted).len(),
            search(&flat, &term, 5, FusionStrategy::Weighted).len()
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
        let stats = sys.txn_stats().unwrap();
        assert!(stats.commits >= 1);
        assert_eq!(stats.conflicts, 0);
        let gauges = sys.shard_gauges().unwrap();
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
    fn flat_text_only_absorb_ranks_like_a_full_refetch() {
        use annoda_federation::ChangeRecord;
        use annoda_wrap::scripted_mutation;
        // Control re-pulls OMIM after mutating it in place; the streamed
        // flat-durable system absorbs the same records as feed batches.
        let dir = tmp_dir("flat-absorb");
        let mut control = DurableSystem::new(system());
        let mut streamed = DurableSystem::open(system(), &dir, FsyncPolicy::Always).unwrap();
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
            assert!(sys.is_durable());
            mutate_locus(&mut sys, 1001, "durable sharded mutation");
            sys.refresh_source("LocusLink").unwrap();
            lorel(&sys, q).outcome.rows
        };
        // Warm restart adopts the manifest shard count and recovered
        // per-shard segments.
        let warm = DurableSystem::open_sharded(system(), &dir, FsyncPolicy::Always, 0).unwrap();
        assert_eq!(warm.sharded_handle().unwrap().shard_count(), 3);
        // The report is the shard segments', not the unused flat store's.
        let report = warm.recovery().expect("sharded durable has a report");
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
            // The counters are the segments', not the unused flat store's.
            let stats = sys
                .persist_stats()
                .expect("a sharded data dir has counters");
            assert!(stats.fsyncs > 0, "{stats:?}");
            assert!(stats.appended_records > 0, "{stats:?}");
        }
        // Uncompacted: the warm open replays every segment's whole log.
        let mut sys = DurableSystem::open_sharded(system(), &dir, FsyncPolicy::Always, 0).unwrap();
        let replayed = sys.recovery().unwrap();
        assert!(!replayed.snapshot_loaded && replayed.replayed_records > 0);
        let rows = lorel(&sys, q).outcome.rows;

        let before = sys.shard_gauges().unwrap();
        let meta = sys
            .snapshot()
            .unwrap()
            .expect("a sharded data dir can be compacted");
        assert!(meta.objects > 0 && meta.bytes > 0, "{meta:?}");
        let after = sys.shard_gauges().unwrap();
        for (b, a) in before.iter().zip(&after) {
            assert!(a.wal_bytes < b.wal_bytes, "segment {} shrank", a.shard);
            assert_eq!(a.generation, b.generation + 1);
            assert_eq!(a.epoch, b.epoch, "compaction is invisible to readers");
        }
        assert_eq!(meta.generation, after[0].generation);
        assert_eq!(sys.persist_stats().unwrap().snapshots, 3);
        drop(sys);

        // Compacted: the snapshots load and (nearly) nothing replays.
        let warm = DurableSystem::open_sharded(system(), &dir, FsyncPolicy::Always, 0).unwrap();
        let report = warm.recovery().unwrap();
        assert!(report.snapshot_loaded, "{report:?}");
        assert!(report.replayed_records < replayed.replayed_records);
        assert!(warm.persist_stats().unwrap().snapshot_loaded);
        assert_eq!(lorel(&warm, q).outcome.rows, rows);

        // Without a data dir there is still nothing to compact.
        let mut memory = DurableSystem::new_sharded(system(), 3).unwrap();
        assert!(memory.snapshot().unwrap().is_none());
        assert!(memory.persist_stats().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unplug_is_journaled_and_survives_restart() {
        let dir = tmp_dir("unplug");
        let mut sys = DurableSystem::open(system(), &dir, FsyncPolicy::Always).unwrap();
        assert!(sys.unplug("OMIM").unwrap());
        let bytes = encode_store(sys.persisted_gml().unwrap());
        drop(sys);
        // Restart with OMIM already gone from the live registry too.
        let c = Corpus::generate(CorpusConfig::tiny(42));
        let (mut a, _) = Annoda::over_sources(c.locuslink.clone(), c.go.clone(), c.omim.clone());
        a.unplug("OMIM");
        let warm = DurableSystem::open(a, &dir, FsyncPolicy::Always).unwrap();
        assert_eq!(encode_store(warm.persisted_gml().unwrap()), bytes);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
