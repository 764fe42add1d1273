//! The append-only write-ahead log.
//!
//! File layout:
//!
//! ```text
//! "AWAL"  u8 version  u64-LE generation          <- 13-byte header
//! [u32-LE len][u32-LE crc32(payload)][payload]   <- frame, repeated
//! ```
//!
//! The generation number ties the log to the snapshot it extends; a log
//! whose generation does not match the snapshot's is stale (the process
//! died between snapshot rename and log reset) and its records are
//! discarded rather than replayed against the wrong base.
//!
//! `scan` is deliberately forgiving about the *tail*: a partial
//! header, a partial frame, or a frame whose checksum fails marks the
//! end of the valid prefix — that is what a crash mid-write looks like,
//! and recovery truncates there. Corruption *before* the tail cannot be
//! distinguished from a torn tail by the scanner, so the same rule
//! applies: replay stops at the first bad frame. Only a damaged header
//! (bad magic or version) is a hard [`PersistError::Corrupt`].

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::error::PersistError;

const WAL_MAGIC: &[u8; 4] = b"AWAL";
const WAL_VERSION: u8 = 1;
/// magic + version + generation — also the offset of the first frame.
pub const WAL_HEADER_LEN: u64 = 13;
/// Frames above this are assumed to be garbage lengths from a torn
/// write, not real records.
const MAX_FRAME: u32 = 1 << 30;

/// When the journal forces bytes to disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every appended record — maximum durability.
    Always,
    /// `fsync` once every `n` appended records.
    Batched(u32),
    /// Never `fsync` on append; only snapshots force data down. The
    /// fastest option: a crash may lose records since the last
    /// snapshot, but never corrupts what recovery can read.
    OnSnapshot,
}

impl FsyncPolicy {
    /// Parses `"always"`, `"batched:N"`, or `"onsnapshot"`.
    pub fn parse(text: &str) -> Option<FsyncPolicy> {
        match text {
            "always" => Some(FsyncPolicy::Always),
            "onsnapshot" => Some(FsyncPolicy::OnSnapshot),
            _ => {
                let n = text.strip_prefix("batched:")?.parse::<u32>().ok()?;
                if n == 0 {
                    None
                } else {
                    Some(FsyncPolicy::Batched(n))
                }
            }
        }
    }
}

impl std::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsyncPolicy::Always => write!(f, "always"),
            FsyncPolicy::Batched(n) => write!(f, "batched:{n}"),
            FsyncPolicy::OnSnapshot => write!(f, "onsnapshot"),
        }
    }
}

// ---------------------------------------------------------------------
// CRC32 (IEEE 802.3, the zlib polynomial), table built at compile time.

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc_table();

/// IEEE CRC-32 over `bytes` — the WAL's and the federation wire
/// protocol's shared frame checksum.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xffff_ffffu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
    }
    c ^ 0xffff_ffff
}

// ---------------------------------------------------------------------
// scanning

/// Everything a recovery pass learns from one read of the log file.
#[derive(Debug)]
pub(crate) struct WalScan {
    /// Generation from the header; `None` when the header itself is
    /// torn (file shorter than 13 bytes — treated as an empty log).
    pub generation: Option<u64>,
    /// Decoded record payloads, in append order.
    pub records: Vec<Vec<u8>>,
    /// Length of the valid prefix; bytes past this are torn.
    pub valid_len: u64,
    /// File length on disk (so `truncated = file_len - valid_len`).
    pub file_len: u64,
}

/// Reads and frames the whole log. Never errors on a torn tail; errors
/// only on unreadable files or a well-formed header with wrong
/// magic/version.
pub(crate) fn scan(path: &Path) -> Result<WalScan, PersistError> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(WalScan {
                generation: None,
                records: Vec::new(),
                valid_len: 0,
                file_len: 0,
            })
        }
        Err(e) => return Err(PersistError::io("read", path, &e)),
    };
    let file_len = bytes.len() as u64;
    if file_len < WAL_HEADER_LEN {
        // Crash while writing the very first header: nothing usable.
        return Ok(WalScan {
            generation: None,
            records: Vec::new(),
            valid_len: 0,
            file_len,
        });
    }
    if &bytes[..4] != WAL_MAGIC {
        return Err(PersistError::Corrupt {
            what: "wal",
            offset: 0,
            reason: "bad magic".into(),
        });
    }
    if bytes[4] != WAL_VERSION {
        return Err(PersistError::Corrupt {
            what: "wal",
            offset: 4,
            reason: format!("unsupported version {}", bytes[4]),
        });
    }
    let generation = u64::from_le_bytes(bytes[5..13].try_into().expect("8 bytes"));
    let mut records = Vec::new();
    let mut pos = WAL_HEADER_LEN as usize;
    loop {
        let rest = &bytes[pos..];
        if rest.len() < 8 {
            break; // torn frame header (or clean EOF)
        }
        let len = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes"));
        let crc = u32::from_le_bytes(rest[4..8].try_into().expect("4 bytes"));
        if len > MAX_FRAME || rest.len() < 8 + len as usize {
            break; // torn payload
        }
        let payload = &rest[8..8 + len as usize];
        if crc32(payload) != crc {
            break; // torn or flipped bytes — stop replaying here
        }
        records.push(payload.to_vec());
        pos += 8 + len as usize;
    }
    Ok(WalScan {
        generation: Some(generation),
        records,
        valid_len: pos as u64,
        file_len,
    })
}

// ---------------------------------------------------------------------
// writing

/// Appends checksummed frames to the log, applying the fsync policy.
pub(crate) struct WalWriter {
    file: File,
    path: PathBuf,
    len: u64,
    policy: FsyncPolicy,
    since_sync: u32,
    /// fsyncs issued (for stats).
    pub fsyncs: u64,
}

impl WalWriter {
    /// Creates (or truncates) the log with a fresh header.
    pub(crate) fn create(
        path: &Path,
        generation: u64,
        policy: FsyncPolicy,
    ) -> Result<Self, PersistError> {
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(|e| PersistError::io("create", path, &e))?;
        let mut header = Vec::with_capacity(WAL_HEADER_LEN as usize);
        header.extend_from_slice(WAL_MAGIC);
        header.push(WAL_VERSION);
        header.extend_from_slice(&generation.to_le_bytes());
        file.write_all(&header)
            .map_err(|e| PersistError::io("write", path, &e))?;
        file.sync_all()
            .map_err(|e| PersistError::io("fsync", path, &e))?;
        Ok(WalWriter {
            file,
            path: path.to_path_buf(),
            len: WAL_HEADER_LEN,
            policy,
            since_sync: 0,
            fsyncs: 1,
        })
    }

    /// Opens an existing log for appending, first truncating it to
    /// `valid_len` (discarding any torn tail found by [`scan`]).
    pub(crate) fn open(
        path: &Path,
        valid_len: u64,
        policy: FsyncPolicy,
    ) -> Result<Self, PersistError> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| PersistError::io("open", path, &e))?;
        file.set_len(valid_len)
            .map_err(|e| PersistError::io("truncate", path, &e))?;
        let mut file = file;
        file.seek(SeekFrom::End(0))
            .map_err(|e| PersistError::io("seek", path, &e))?;
        Ok(WalWriter {
            file,
            path: path.to_path_buf(),
            len: valid_len,
            policy,
            since_sync: 0,
            fsyncs: 0,
        })
    }

    /// Appends one framed record; returns the frame's size in bytes.
    pub(crate) fn append(&mut self, payload: &[u8]) -> Result<u64, PersistError> {
        let mut frame = Vec::with_capacity(8 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        self.file
            .write_all(&frame)
            .map_err(|e| PersistError::io("append", &self.path, &e))?;
        self.len += frame.len() as u64;
        match self.policy {
            FsyncPolicy::Always => self.sync()?,
            FsyncPolicy::Batched(n) => {
                self.since_sync += 1;
                if self.since_sync >= n {
                    self.sync()?;
                }
            }
            FsyncPolicy::OnSnapshot => {}
        }
        Ok(frame.len() as u64)
    }

    /// Forces everything appended so far to disk.
    pub(crate) fn sync(&mut self) -> Result<(), PersistError> {
        self.file
            .sync_all()
            .map_err(|e| PersistError::io("fsync", &self.path, &e))?;
        self.since_sync = 0;
        self.fsyncs += 1;
        Ok(())
    }

    pub(crate) fn len(&self) -> u64 {
        self.len
    }

    /// Whether appended records are still waiting for a batched fsync.
    pub(crate) fn pending_sync(&self) -> bool {
        self.since_sync > 0
    }
}

impl Drop for WalWriter {
    /// Clean-shutdown flush: under `Batched(n)` a drop below the batch
    /// threshold used to leave the last records in page cache only.
    /// Errors cannot propagate from a destructor — callers who need
    /// them use [`crate::DurableStore::close`].
    fn drop(&mut self) {
        if self.since_sync > 0 {
            let _ = self.file.sync_all();
        }
    }
}

/// Best-effort directory fsync so renames and creates are durable on
/// filesystems that need it. Failure is ignored: some platforms refuse
/// to open directories for writing, and the data fsyncs still stand.
pub(crate) fn fsync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_all(path: &Path) -> Vec<u8> {
        std::fs::read(path).unwrap()
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("annoda-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn crc_matches_known_vectors() {
        // Standard IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn policy_parsing() {
        assert_eq!(FsyncPolicy::parse("always"), Some(FsyncPolicy::Always));
        assert_eq!(
            FsyncPolicy::parse("onsnapshot"),
            Some(FsyncPolicy::OnSnapshot)
        );
        assert_eq!(
            FsyncPolicy::parse("batched:8"),
            Some(FsyncPolicy::Batched(8))
        );
        assert_eq!(FsyncPolicy::parse("batched:0"), None);
        assert_eq!(FsyncPolicy::parse("sometimes"), None);
        assert_eq!(FsyncPolicy::Batched(8).to_string(), "batched:8");
    }

    #[test]
    fn append_then_scan_round_trips() {
        let dir = tmp_dir("roundtrip");
        let path = dir.join("wal.log");
        let mut w = WalWriter::create(&path, 7, FsyncPolicy::Always).unwrap();
        w.append(b"first").unwrap();
        w.append(b"").unwrap();
        w.append(b"third record").unwrap();
        let scan = scan(&path).unwrap();
        assert_eq!(scan.generation, Some(7));
        assert_eq!(
            scan.records,
            vec![b"first".to_vec(), Vec::new(), b"third record".to_vec()]
        );
        assert_eq!(scan.valid_len, scan.file_len);
        assert_eq!(scan.valid_len, w.len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_truncation_recovers_a_prefix() {
        let dir = tmp_dir("trunc");
        let path = dir.join("wal.log");
        let mut w = WalWriter::create(&path, 1, FsyncPolicy::OnSnapshot).unwrap();
        let mut boundaries = vec![w.len()];
        for payload in [&b"aa"[..], b"bbbb", b"cccccc"] {
            w.append(payload).unwrap();
            boundaries.push(w.len());
        }
        w.sync().unwrap();
        let full = read_all(&path);
        for cut in 0..=full.len() {
            let torn = dir.join("torn.log");
            std::fs::write(&torn, &full[..cut]).unwrap();
            let scan = scan(&torn).unwrap();
            // Number of complete frames before the cut.
            // Cuts inside the header leave zero frames; otherwise the
            // frames whose end boundary fits before the cut survive.
            let expect = boundaries
                .iter()
                .filter(|&&b| b <= cut as u64)
                .count()
                .saturating_sub(1);
            assert_eq!(scan.records.len(), expect, "cut at {cut}");
            assert!(scan.valid_len <= cut as u64);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flipped_byte_stops_replay_without_error() {
        let dir = tmp_dir("flip");
        let path = dir.join("wal.log");
        let mut w = WalWriter::create(&path, 1, FsyncPolicy::Always).unwrap();
        w.append(b"good one").unwrap();
        let boundary = w.len();
        w.append(b"about to be damaged").unwrap();
        let mut bytes = read_all(&path);
        let n = bytes.len();
        bytes[n - 3] ^= 0x40; // inside the second payload
        std::fs::write(&path, &bytes).unwrap();
        let scan = scan(&path).unwrap();
        assert_eq!(scan.records, vec![b"good one".to_vec()]);
        assert_eq!(scan.valid_len, boundary);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_magic_is_a_hard_error() {
        let dir = tmp_dir("magic");
        let path = dir.join("wal.log");
        std::fs::write(&path, b"NOPE\x01\0\0\0\0\0\0\0\0extra").unwrap();
        assert!(matches!(
            scan(&path),
            Err(PersistError::Corrupt { what: "wal", .. })
        ));
        // But a file too short to even hold a header is a torn header,
        // not corruption.
        std::fs::write(&path, b"AW").unwrap();
        let s = scan(&path).unwrap();
        assert_eq!(s.generation, None);
        assert_eq!(s.valid_len, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_truncates_the_torn_tail() {
        let dir = tmp_dir("open");
        let path = dir.join("wal.log");
        let mut w = WalWriter::create(&path, 3, FsyncPolicy::Always).unwrap();
        w.append(b"keep me").unwrap();
        drop(w);
        // Simulate a torn append.
        let mut bytes = read_all(&path);
        bytes.extend_from_slice(&[9, 0, 0, 0, 1, 2]); // half a frame header
        std::fs::write(&path, &bytes).unwrap();
        let s = scan(&path).unwrap();
        assert_eq!(s.records.len(), 1);
        assert!(s.file_len > s.valid_len);
        let mut w = WalWriter::open(&path, s.valid_len, FsyncPolicy::Always).unwrap();
        w.append(b"and me").unwrap();
        let s2 = scan(&path).unwrap();
        assert_eq!(s2.records, vec![b"keep me".to_vec(), b"and me".to_vec()]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
