//! Segment-addressed sharded durability: one [`DurableStore`] per shard.
//!
//! The sharded OEM store ([`annoda_oem::shard::ShardedStore`]) swaps
//! shards independently, so its durability must be segment-addressed
//! too: each shard journals into its own `shard-NNN/` subdirectory
//! (its own crc32-framed WAL + snapshot generations, reusing the
//! existing codec and recovery machinery verbatim), and a commit that
//! touches two shards writes exactly two WAL segments. A `shards.meta`
//! manifest pins the shard count so a restart cannot silently re-route
//! keys across a different partition layout.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use annoda_oem::{IoFailure, OemStore, Oid};

use crate::delta::sync_root;
use crate::durable::{DurableStore, PersistStats, RecoveryReport};
use crate::error::PersistError;
use crate::snapshot::SnapshotMeta;
use crate::wal::FsyncPolicy;

/// Name of the shard-layout manifest inside the store directory.
pub const SHARDS_META: &str = "shards.meta";

fn io_err(op: &'static str, path: &Path, err: std::io::Error) -> PersistError {
    PersistError::Io(IoFailure::new(op, path, &err))
}

fn shard_dir(dir: &Path, idx: usize) -> PathBuf {
    dir.join(format!("shard-{idx:03}"))
}

fn write_manifest(dir: &Path, shards: usize) -> Result<(), PersistError> {
    let tmp = dir.join("shards.meta.tmp");
    let body = format!("annoda-shards v1\nshards={shards}\n");
    let mut f = fs::File::create(&tmp).map_err(|e| io_err("create", &tmp, e))?;
    f.write_all(body.as_bytes())
        .map_err(|e| io_err("write", &tmp, e))?;
    f.sync_all().map_err(|e| io_err("fsync", &tmp, e))?;
    let dst = dir.join(SHARDS_META);
    fs::rename(&tmp, &dst).map_err(|e| io_err("rename", &dst, e))?;
    Ok(())
}

fn read_manifest(dir: &Path) -> Result<Option<usize>, PersistError> {
    let path = dir.join(SHARDS_META);
    let text = match fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(io_err("read", &path, e)),
    };
    let mut lines = text.lines();
    if lines.next() != Some("annoda-shards v1") {
        return Err(PersistError::Corrupt {
            what: "shards.meta",
            offset: 0,
            reason: "bad manifest header".to_string(),
        });
    }
    let shards = lines
        .next()
        .and_then(|l| l.strip_prefix("shards="))
        .and_then(|n| n.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .ok_or(PersistError::Corrupt {
            what: "shards.meta",
            offset: 0,
            reason: "bad shard count".to_string(),
        })?;
    Ok(Some(shards))
}

/// A fixed-width vector of independently journaled [`DurableStore`]s.
///
/// Shard `i` of the in-memory [`ShardedStore`] persists under
/// `dir/shard-00i/`; its WAL segment and snapshot generation advance
/// only when that shard commits. Recovery opens every segment with the
/// standard torn-tail-tolerant path and hands back the per-shard GML
/// roots for direct reassembly (no re-partitioning on warm start).
///
/// [`ShardedStore`]: annoda_oem::shard::ShardedStore
pub struct ShardedDurableStore {
    dir: PathBuf,
    shards: Vec<DurableStore>,
}

impl ShardedDurableStore {
    /// Opens (or creates) a sharded store of exactly `shards` segments
    /// under `dir`. An existing manifest with a different shard count is
    /// an error: the on-disk partition layout is keyed by the count and
    /// cannot be reinterpreted. Pass `shards = 0` to adopt whatever
    /// count the manifest records (error if the store does not exist).
    pub fn open(dir: &Path, policy: FsyncPolicy, shards: usize) -> Result<Self, PersistError> {
        fs::create_dir_all(dir).map_err(|e| io_err("create_dir_all", dir, e))?;
        let existing = read_manifest(dir)?;
        let count = match (existing, shards) {
            (Some(on_disk), 0) => on_disk,
            (Some(on_disk), want) if on_disk == want => on_disk,
            (Some(on_disk), want) => {
                return Err(PersistError::Corrupt {
                    what: "shards.meta",
                    offset: 0,
                    reason: format!("store has {on_disk} shards, caller wants {want}"),
                });
            }
            (None, 0) => {
                return Err(PersistError::Corrupt {
                    what: "shards.meta",
                    offset: 0,
                    reason: "no manifest and no shard count given".to_string(),
                });
            }
            (None, want) => {
                write_manifest(dir, want)?;
                want
            }
        };
        let mut stores = Vec::with_capacity(count);
        for i in 0..count {
            stores.push(DurableStore::open(&shard_dir(dir, i), policy)?);
        }
        Ok(Self {
            dir: dir.to_path_buf(),
            shards: stores,
        })
    }

    /// Whether a sharded store already exists under `dir`.
    pub fn exists(dir: &Path) -> bool {
        dir.join(SHARDS_META).is_file()
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of shard segments.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// One shard's durable segment.
    pub fn shard(&self, idx: usize) -> &DurableStore {
        &self.shards[idx]
    }

    /// Journals whatever deltas make shard `idx`'s root `name` match
    /// `target_root` in `target` — the per-shard commit write. Only
    /// this shard's WAL segment grows.
    pub fn sync_shard_root(
        &mut self,
        idx: usize,
        name: &str,
        target: &OemStore,
        target_root: Oid,
    ) -> Result<usize, PersistError> {
        sync_root(&mut self.shards[idx], name, target, target_root)
    }

    /// What recovery found across every segment at open time: counts
    /// are summed, `snapshot_loaded` means some segment had one, and
    /// `generation` is the highest any segment resumed at.
    pub fn recovery(&self) -> RecoveryReport {
        let mut total = RecoveryReport::default();
        for r in self.shards.iter().map(DurableStore::recovery) {
            total.snapshot_loaded |= r.snapshot_loaded;
            total.snapshot_objects += r.snapshot_objects;
            total.replayed_records += r.replayed_records;
            total.truncated_bytes += r.truncated_bytes;
            total.generation = total.generation.max(r.generation);
        }
        total
    }

    /// Per-shard durable stats (generation, WAL bytes, object counts).
    pub fn stats(&self) -> Vec<PersistStats> {
        self.shards.iter().map(|s| s.stats()).collect()
    }

    /// The per-shard stats as one: counters are summed,
    /// `snapshot_loaded` means some segment had one, and `generation`
    /// is the highest of any segment — the same folding as
    /// [`ShardedDurableStore::recovery`].
    pub fn total_stats(&self) -> PersistStats {
        let mut total = PersistStats::default();
        for s in self.shards.iter().map(DurableStore::stats) {
            total.generation = total.generation.max(s.generation);
            total.snapshot_loaded |= s.snapshot_loaded;
            total.replayed_records += s.replayed_records;
            total.truncated_bytes += s.truncated_bytes;
            total.wal_bytes += s.wal_bytes;
            total.appended_records += s.appended_records;
            total.appended_bytes += s.appended_bytes;
            total.fsyncs += s.fsyncs;
            total.snapshots += s.snapshots;
        }
        total
    }

    /// Per-shard snapshot generations — the durable face of the
    /// in-memory epoch vector.
    pub fn generations(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.generation()).collect()
    }

    /// Fsyncs every shard segment.
    pub fn sync_all(&mut self) -> Result<(), PersistError> {
        for s in &mut self.shards {
            s.sync()?;
        }
        Ok(())
    }

    /// Compacts every shard: snapshot + WAL reset, segment by segment.
    /// Objects and bytes are summed; `generation` is the highest any
    /// segment reached.
    pub fn snapshot_all(&mut self) -> Result<SnapshotMeta, PersistError> {
        let mut total = SnapshotMeta {
            generation: 0,
            objects: 0,
            bytes: 0,
        };
        for shard in &mut self.shards {
            let meta = shard.snapshot()?;
            total.generation = total.generation.max(meta.generation);
            total.objects += meta.objects;
            total.bytes += meta.bytes;
        }
        Ok(total)
    }

    /// Closes every segment, returning final per-shard stats.
    pub fn close(self) -> Result<Vec<PersistStats>, PersistError> {
        let mut out = Vec::with_capacity(self.shards.len());
        for s in self.shards {
            out.push(s.close()?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use annoda_oem::shard::ShardedStore;

    fn gml(symbols: &[&str]) -> OemStore {
        let mut s = OemStore::new();
        let root = s.new_complex();
        s.set_name("ANNODA-GML", root).unwrap();
        for sym in symbols {
            let g = s.add_complex_child(root, "Gene").unwrap();
            s.add_atomic_child(g, "Symbol", *sym).unwrap();
        }
        s
    }

    #[test]
    fn open_sync_recover_roundtrip() {
        let dir = std::env::temp_dir().join(format!("annoda-sharded-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let flat = gml(&["TP53", "BRCA1", "MDM2", "EGFR"]);
        let sharded = ShardedStore::partition(&flat, "ANNODA-GML", 3).unwrap();
        {
            let mut durable = ShardedDurableStore::open(&dir, FsyncPolicy::OnSnapshot, 3).unwrap();
            for i in 0..3 {
                let store = sharded.shard(i);
                let root = store.named("ANNODA-GML").unwrap();
                durable
                    .sync_shard_root(i, "ANNODA-GML", store, root)
                    .unwrap();
            }
            durable.sync_all().unwrap();
        }
        // Warm reopen adopting the manifest count.
        let recovered = ShardedDurableStore::open(&dir, FsyncPolicy::OnSnapshot, 0).unwrap();
        assert_eq!(recovered.shard_count(), 3);
        for i in 0..3 {
            let want = sharded.shard(i);
            let got = recovered.shard(i).store();
            let (rw, rg) = (
                want.named("ANNODA-GML").unwrap(),
                got.named("ANNODA-GML").unwrap(),
            );
            assert!(annoda_oem::graph::structural_eq(want, rw, got, rg));
        }
        // Mismatched count is refused.
        assert!(ShardedDurableStore::open(&dir, FsyncPolicy::OnSnapshot, 5).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_store_needs_explicit_count() {
        let dir = std::env::temp_dir().join(format!("annoda-sharded-miss-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        assert!(ShardedDurableStore::open(&dir, FsyncPolicy::OnSnapshot, 0).is_err());
        let _ = fs::remove_dir_all(&dir);
    }
}
