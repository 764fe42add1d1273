//! The AFED wire protocol: crc32-framed, versioned, length-prefixed
//! binary messages over TCP.
//!
//! The frame format deliberately mirrors the `annoda-persist` WAL —
//! `[u32-LE len][u32-LE crc32(payload)][payload]` — and the payloads
//! reuse the persist codec's primitives ([`write_varint`],
//! [`write_string`], [`Reader`]) and its canonical store encoding
//! ([`encode_store`]/[`decode_store`]). Reuse is the point: a
//! `SubqueryResult` shipped over a socket is byte-for-byte the same
//! fragment the WAL would journal, with the same torn-frame tolerance —
//! a truncated or corrupted frame is detected by length/checksum and
//! surfaced as a transport error, never as garbage data.
//!
//! A connection starts with a 5-byte hello (`b"AFED"` + version) in each
//! direction; every subsequent frame carries one [`Message`] — a tag
//! byte followed by a tag-specific body. Within a connection, requests
//! and responses strictly alternate (one in flight at a time);
//! concurrency comes from using multiple connections, which the client
//! pools.

use std::fmt;
use std::io::{self, Read, Write};
use std::sync::Arc;

use annoda_oem::{OemStore, Oid};
use annoda_persist::codec::{write_string, write_varint, Reader};
use annoda_persist::{crc32, decode_store, encode_store, PersistError};
use annoda_wrap::{Capabilities, Cost, LatencyModel, SourceDescription, SubqueryResult};

/// Protocol magic, first bytes on the wire in both directions.
pub const MAGIC: &[u8; 4] = b"AFED";
/// Protocol version, negotiated (exact-match) during the hello.
/// v2 added WAL-shipping replication messages (tags 11–14). v3 added
/// the change-feed messages ([`Message::SubscribeSource`],
/// [`Message::FeedStatus`], [`Message::ChangeBatch`],
/// [`Message::ChangeAck`]). v4 dropped WAL shipping — a follower
/// subscribes to its leader's change feeds — leaving tags 11–14
/// unassigned (a frame carrying one is an error), and added
/// [`Message::SourceGone`].
pub const VERSION: u8 = 4;
/// Hard cap on one frame's payload, so a corrupted length field cannot
/// ask for a multi-gigabyte allocation (same bound as the WAL).
pub const MAX_FRAME: usize = 1 << 30;

/// Errors crossing or decoding the wire.
#[derive(Debug)]
pub enum ProtoError {
    /// The socket failed (connect, read, write, timeout, EOF).
    Io(io::Error),
    /// A frame was malformed: bad magic, version mismatch, implausible
    /// length, checksum mismatch, or an unknown/unexpected message tag.
    Frame(String),
    /// A frame's payload failed to decode as its message body.
    Codec(PersistError),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "io: {e}"),
            ProtoError::Frame(what) => write!(f, "bad frame: {what}"),
            ProtoError::Codec(e) => write!(f, "bad payload: {e}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<io::Error> for ProtoError {
    fn from(e: io::Error) -> Self {
        ProtoError::Io(e)
    }
}

impl From<PersistError> for ProtoError {
    fn from(e: PersistError) -> Self {
        ProtoError::Codec(e)
    }
}

// ---------------------------------------------------------------------
// framing

/// Writes one frame: `[len][crc32][payload]`, then flushes.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    debug_assert!(payload.len() <= MAX_FRAME);
    let mut head = [0u8; 8];
    head[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    head[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    w.write_all(&head)?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame, verifying length plausibility and checksum.
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, ProtoError> {
    let mut head = [0u8; 8];
    r.read_exact(&mut head)?;
    let len = u32::from_le_bytes(head[..4].try_into().expect("4 bytes")) as usize;
    let want = u32::from_le_bytes(head[4..].try_into().expect("4 bytes"));
    if len > MAX_FRAME {
        return Err(ProtoError::Frame(format!("implausible frame length {len}")));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    let got = crc32(&payload);
    if got != want {
        return Err(ProtoError::Frame(format!(
            "checksum mismatch (want {want:#010x}, got {got:#010x})"
        )));
    }
    Ok(payload)
}

/// Sends the 5-byte hello.
pub fn send_hello(w: &mut impl Write) -> io::Result<()> {
    w.write_all(MAGIC)?;
    w.write_all(&[VERSION])?;
    w.flush()
}

/// Reads and verifies the peer's hello.
pub fn expect_hello(r: &mut impl Read) -> Result<(), ProtoError> {
    let mut hello = [0u8; 5];
    r.read_exact(&mut hello)?;
    if &hello[..4] != MAGIC {
        return Err(ProtoError::Frame("bad magic".into()));
    }
    if hello[4] != VERSION {
        return Err(ProtoError::Frame(format!(
            "version mismatch (peer {}, ours {VERSION})",
            hello[4]
        )));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// messages

/// How a source *refused* a subquery. Transport losses never cross the
/// wire as a refusal — they are precisely the failures where no answer
/// arrived.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefusalKind {
    /// The Lorel subquery failed to parse or evaluate.
    Query,
    /// The request needs a capability the source does not offer.
    Unsupported,
}

/// A subquery answer shipped back from a source-server: the
/// [`SubqueryResult`] fields plus the *server-side* cost meter, so the
/// client charges exactly what an in-process wrapper would have.
#[derive(Debug, Clone)]
pub struct RemoteResult {
    /// The shipped result fragment.
    pub store: OemStore,
    /// The `result` root inside the fragment.
    pub root: Oid,
    /// Rows shipped.
    pub rows: u64,
    /// Whether the planner's index seek answered: bit 1 of the flag
    /// byte. Bit 0 is reserved — written 0 and ignored on read, so a
    /// peer of the same `VERSION` that still sets it decodes the same.
    pub planner_index_backed: bool,
    /// The source-side cost of executing the subquery.
    pub cost: Cost,
}

impl RemoteResult {
    /// Converts into the wrapper-layer result type, whose store is
    /// shared from here on.
    pub fn into_subquery_result(self) -> SubqueryResult {
        SubqueryResult {
            store: Arc::new(self.store),
            root: self.root,
            rows: self.rows as usize,
            planner_index_backed: self.planner_index_backed,
        }
    }
}

/// One record-level change in a source's native database, shipped over
/// a change feed. `flat` carries the record's native flat-format
/// serialization for an upsert; `None` marks a delete. The flat text is
/// exactly what the source's own export format would contain for that
/// record, so absorbing a change is a parse-and-upsert against the
/// subscriber's copy of the native database — no bespoke delta codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChangeRecord {
    /// The record's native primary key (e.g. a LocusLink id).
    pub key: String,
    /// Upserted record in native flat form, or `None` for a delete.
    pub flat: Option<String>,
}

fn write_change_record(buf: &mut Vec<u8>, rec: &ChangeRecord) {
    write_string(buf, &rec.key);
    match &rec.flat {
        Some(flat) => {
            buf.push(1);
            write_string(buf, flat);
        }
        None => buf.push(0),
    }
}

fn read_change_record(r: &mut Reader<'_>) -> Result<ChangeRecord, ProtoError> {
    let key = r.string()?;
    let flat = match r.byte()? {
        0 => None,
        1 => Some(r.string()?),
        b => return Err(ProtoError::Frame(format!("unknown change flavor {b}"))),
    };
    Ok(ChangeRecord { key, flat })
}

/// One protocol message. Tags are stable wire constants; unknown tags
/// are a frame error (a v2 peer must bump [`VERSION`]).
#[derive(Debug, Clone)]
pub enum Message {
    /// Client → server: send me your source description.
    Describe,
    /// Server → client: the wrapped source's description.
    Description(SourceDescription),
    /// Client → server: send me your current ANNODA-OML local model.
    FetchOml,
    /// Server → client: the OML, canonically encoded.
    Oml(OemStore),
    /// Client → server: execute this Lorel subquery.
    Subquery(String),
    /// Server → client: the subquery answered.
    SubqueryOk(RemoteResult),
    /// Server → client: the source *refused* the subquery.
    SubqueryErr {
        /// Why it refused.
        kind: RefusalKind,
        /// The refusal message (the source-side error's display form).
        message: String,
    },
    /// Client → server: re-export your OML from the native database.
    Refresh,
    /// Server → client: refresh done; the new model and its size.
    Refreshed {
        /// Objects in the refreshed model.
        objects: u64,
        /// The refreshed OML.
        oml: OemStore,
    },
    /// Client → server: liveness probe.
    Ping,
    /// Server → client: liveness answer.
    Pong,
    /// Subscriber → feed server: start (or restart) the change feed
    /// for `source` at sequence `from_seq`. A `from_seq` the server's
    /// journal has compacted past is answered with a bootstrap
    /// [`Message::ChangeBatch`] (full record dump at the journal head)
    /// rather than an error.
    SubscribeSource {
        /// Name of the source whose feed to tail.
        source: String,
        /// First change sequence the subscriber wants (1 = from the
        /// beginning; `u64::MAX` = head, i.e. tail new changes only).
        from_seq: u64,
    },
    /// Source-server → subscriber: the feed's current window, sent as
    /// the first reply to a [`Message::SubscribeSource`]. `tail` is the
    /// oldest sequence still replayable; `head` is the last sequence
    /// assigned (0 when no change has ever been journaled).
    FeedStatus {
        /// Name of the source the feed belongs to.
        source: String,
        /// Oldest replayable change sequence (journal compaction floor).
        tail: u64,
        /// Newest assigned change sequence.
        head: u64,
    },
    /// Source-server → subscriber: record changes ending at sequence
    /// `seq`. A bootstrap batch (after compaction outran the
    /// subscriber) carries the full record dump with `bootstrap = true`;
    /// the subscriber must replace its copy, not merge.
    ChangeBatch {
        /// Sequence of the *last* change in this batch (the position
        /// the subscriber is at after applying it).
        seq: u64,
        /// Whether this batch is a full-state bootstrap dump.
        bootstrap: bool,
        /// The record changes, journal order.
        records: Vec<ChangeRecord>,
    },
    /// Subscriber → source-server: the subscriber has durably absorbed
    /// everything up to `seq`; send the next batch when there is one.
    ChangeAck {
        /// Last change sequence the subscriber has absorbed.
        seq: u64,
    },
    /// Feed server → subscriber: this server does not serve `source`
    /// (a leader that unplugged it, or never had it), in answer to a
    /// [`Message::SubscribeSource`] or a [`Message::ChangeAck`].
    SourceGone {
        /// The source the subscriber named.
        source: String,
    },
}

const TAG_DESCRIBE: u8 = 0;
const TAG_DESCRIPTION: u8 = 1;
const TAG_FETCH_OML: u8 = 2;
const TAG_OML: u8 = 3;
const TAG_SUBQUERY: u8 = 4;
const TAG_SUBQUERY_OK: u8 = 5;
const TAG_SUBQUERY_ERR: u8 = 6;
const TAG_REFRESH: u8 = 7;
const TAG_REFRESHED: u8 = 8;
const TAG_PING: u8 = 9;
const TAG_PONG: u8 = 10;
// Tags 11–14 were v2's WAL-shipping messages; they stay unassigned.
const TAG_SUBSCRIBE_SOURCE: u8 = 15;
const TAG_FEED_STATUS: u8 = 16;
const TAG_CHANGE_BATCH: u8 = 17;
const TAG_CHANGE_ACK: u8 = 18;
const TAG_SOURCE_GONE: u8 = 19;

fn write_store(buf: &mut Vec<u8>, store: &OemStore) {
    let bytes = encode_store(store);
    write_varint(buf, bytes.len() as u64);
    buf.extend_from_slice(&bytes);
}

fn read_store(r: &mut Reader<'_>) -> Result<OemStore, ProtoError> {
    let len = r.len_field()?;
    let bytes = r.take(len)?;
    Ok(decode_store(bytes)?)
}

fn write_cost(buf: &mut Vec<u8>, cost: &Cost) {
    write_varint(buf, cost.requests);
    write_varint(buf, cost.records);
    write_varint(buf, cost.virtual_us);
    write_varint(buf, cost.cache_hits);
    write_varint(buf, cost.wall_us);
}

fn read_cost(r: &mut Reader<'_>) -> Result<Cost, ProtoError> {
    Ok(Cost {
        requests: r.varint()?,
        records: r.varint()?,
        virtual_us: r.varint()?,
        cache_hits: r.varint()?,
        wall_us: r.varint()?,
    })
}

fn write_description(buf: &mut Vec<u8>, d: &SourceDescription) {
    write_string(buf, &d.name);
    write_string(buf, &d.content);
    write_string(buf, &d.base_url);
    write_string(buf, &d.structure);
    let caps = &d.capabilities;
    buf.push(
        u8::from(caps.id_lookup)
            | u8::from(caps.key_lookup) << 1
            | u8::from(caps.full_scan) << 2
            | u8::from(caps.predicate_pushdown) << 3,
    );
    write_varint(buf, d.latency.per_request_us);
    write_varint(buf, d.latency.per_record_us);
}

fn read_description(r: &mut Reader<'_>) -> Result<SourceDescription, ProtoError> {
    let name = r.string()?;
    let content = r.string()?;
    let base_url = r.string()?;
    let structure = r.string()?;
    let bits = r.byte()?;
    let capabilities = Capabilities {
        id_lookup: bits & 1 != 0,
        key_lookup: bits & 2 != 0,
        full_scan: bits & 4 != 0,
        predicate_pushdown: bits & 8 != 0,
    };
    let latency = LatencyModel {
        per_request_us: r.varint()?,
        per_record_us: r.varint()?,
    };
    Ok(SourceDescription {
        name,
        content,
        base_url,
        structure,
        capabilities,
        latency,
    })
}

impl Message {
    /// Encodes as one frame payload: tag byte + body.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Message::Describe => buf.push(TAG_DESCRIBE),
            Message::Description(d) => {
                buf.push(TAG_DESCRIPTION);
                write_description(&mut buf, d);
            }
            Message::FetchOml => buf.push(TAG_FETCH_OML),
            Message::Oml(store) => {
                buf.push(TAG_OML);
                write_store(&mut buf, store);
            }
            Message::Subquery(lorel) => {
                buf.push(TAG_SUBQUERY);
                write_string(&mut buf, lorel);
            }
            Message::SubqueryOk(res) => {
                buf.push(TAG_SUBQUERY_OK);
                write_varint(&mut buf, res.rows);
                buf.push(u8::from(res.planner_index_backed) << 1);
                write_cost(&mut buf, &res.cost);
                // The codec preserves oid order, so the root travels as
                // its raw index into the canonical encoding.
                write_varint(&mut buf, res.root.index() as u64);
                write_store(&mut buf, &res.store);
            }
            Message::SubqueryErr { kind, message } => {
                buf.push(TAG_SUBQUERY_ERR);
                buf.push(match kind {
                    RefusalKind::Query => 0,
                    RefusalKind::Unsupported => 1,
                });
                write_string(&mut buf, message);
            }
            Message::Refresh => buf.push(TAG_REFRESH),
            Message::Refreshed { objects, oml } => {
                buf.push(TAG_REFRESHED);
                write_varint(&mut buf, *objects);
                write_store(&mut buf, oml);
            }
            Message::Ping => buf.push(TAG_PING),
            Message::Pong => buf.push(TAG_PONG),
            Message::SubscribeSource { source, from_seq } => {
                buf.push(TAG_SUBSCRIBE_SOURCE);
                write_string(&mut buf, source);
                write_varint(&mut buf, *from_seq);
            }
            Message::FeedStatus { source, tail, head } => {
                buf.push(TAG_FEED_STATUS);
                write_string(&mut buf, source);
                write_varint(&mut buf, *tail);
                write_varint(&mut buf, *head);
            }
            Message::ChangeBatch {
                seq,
                bootstrap,
                records,
            } => {
                buf.push(TAG_CHANGE_BATCH);
                write_varint(&mut buf, *seq);
                buf.push(u8::from(*bootstrap));
                write_varint(&mut buf, records.len() as u64);
                for rec in records {
                    write_change_record(&mut buf, rec);
                }
            }
            Message::ChangeAck { seq } => {
                buf.push(TAG_CHANGE_ACK);
                write_varint(&mut buf, *seq);
            }
            Message::SourceGone { source } => {
                buf.push(TAG_SOURCE_GONE);
                write_string(&mut buf, source);
            }
        }
        buf
    }

    /// Decodes one frame payload. Trailing bytes are a frame error.
    pub fn decode(payload: &[u8]) -> Result<Message, ProtoError> {
        let mut r = Reader::new(payload);
        let msg = match r.byte()? {
            TAG_DESCRIBE => Message::Describe,
            TAG_DESCRIPTION => Message::Description(read_description(&mut r)?),
            TAG_FETCH_OML => Message::FetchOml,
            TAG_OML => Message::Oml(read_store(&mut r)?),
            TAG_SUBQUERY => Message::Subquery(r.string()?),
            TAG_SUBQUERY_OK => {
                let rows = r.varint()?;
                let flags = r.byte()?;
                let cost = read_cost(&mut r)?;
                let root = Oid::from_index(r.varint()? as usize);
                let store = read_store(&mut r)?;
                if store.get(root).is_none() {
                    return Err(ProtoError::Frame(format!(
                        "result root {} not in shipped store",
                        root.index()
                    )));
                }
                Message::SubqueryOk(RemoteResult {
                    store,
                    root,
                    rows,
                    planner_index_backed: flags & 2 != 0,
                    cost,
                })
            }
            TAG_SUBQUERY_ERR => {
                let kind = match r.byte()? {
                    0 => RefusalKind::Query,
                    1 => RefusalKind::Unsupported,
                    k => return Err(ProtoError::Frame(format!("unknown refusal kind {k}"))),
                };
                Message::SubqueryErr {
                    kind,
                    message: r.string()?,
                }
            }
            TAG_REFRESH => Message::Refresh,
            TAG_REFRESHED => {
                let objects = r.varint()?;
                let oml = read_store(&mut r)?;
                Message::Refreshed { objects, oml }
            }
            TAG_PING => Message::Ping,
            TAG_PONG => Message::Pong,
            TAG_SUBSCRIBE_SOURCE => Message::SubscribeSource {
                source: r.string()?,
                from_seq: r.varint()?,
            },
            TAG_FEED_STATUS => Message::FeedStatus {
                source: r.string()?,
                tail: r.varint()?,
                head: r.varint()?,
            },
            TAG_CHANGE_BATCH => {
                let seq = r.varint()?;
                let bootstrap = match r.byte()? {
                    0 => false,
                    1 => true,
                    b => return Err(ProtoError::Frame(format!("unknown bootstrap flag {b}"))),
                };
                let count = r.varint()? as usize;
                let mut records = Vec::with_capacity(count.min(1 << 16));
                for _ in 0..count {
                    records.push(read_change_record(&mut r)?);
                }
                Message::ChangeBatch {
                    seq,
                    bootstrap,
                    records,
                }
            }
            TAG_CHANGE_ACK => Message::ChangeAck { seq: r.varint()? },
            TAG_SOURCE_GONE => Message::SourceGone {
                source: r.string()?,
            },
            tag => return Err(ProtoError::Frame(format!("unknown message tag {tag}"))),
        };
        if !r.is_empty() {
            return Err(ProtoError::Frame("trailing bytes after message".into()));
        }
        Ok(msg)
    }
}

/// Writes `msg` as one frame.
pub fn send(w: &mut impl Write, msg: &Message) -> io::Result<()> {
    write_frame(w, &msg.encode())
}

/// Reads one frame and decodes it.
pub fn recv(r: &mut impl Read) -> Result<Message, ProtoError> {
    Message::decode(&read_frame(r)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"").unwrap();
        let mut r = &wire[..];
        assert_eq!(read_frame(&mut r).unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap(), b"");
    }

    #[test]
    fn torn_and_corrupt_frames_are_detected() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"payload").unwrap();
        // Torn: drop the last byte.
        let torn = &wire[..wire.len() - 1];
        assert!(matches!(read_frame(&mut &torn[..]), Err(ProtoError::Io(_))));
        // Corrupt: flip a payload bit.
        let mut bad = wire.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x40;
        assert!(matches!(
            read_frame(&mut &bad[..]),
            Err(ProtoError::Frame(_))
        ));
        // Implausible length field.
        let mut huge = Vec::new();
        huge.extend_from_slice(&(u32::MAX).to_le_bytes());
        huge.extend_from_slice(&[0u8; 4]);
        assert!(matches!(
            read_frame(&mut &huge[..]),
            Err(ProtoError::Frame(_))
        ));
    }

    #[test]
    fn hello_rejects_strangers() {
        let mut wire = Vec::new();
        send_hello(&mut wire).unwrap();
        assert!(expect_hello(&mut &wire[..]).is_ok());
        assert!(matches!(
            expect_hello(&mut &b"HTTP/1.1 "[..]),
            Err(ProtoError::Frame(_))
        ));
        let future = [MAGIC[0], MAGIC[1], MAGIC[2], MAGIC[3], VERSION + 1];
        assert!(matches!(
            expect_hello(&mut &future[..]),
            Err(ProtoError::Frame(_))
        ));
    }

    #[test]
    fn description_round_trips() {
        let d = SourceDescription::remote("GO", "gene ontology", "http://example/go");
        let payload = Message::Description(d.clone()).encode();
        match Message::decode(&payload).unwrap() {
            Message::Description(got) => assert_eq!(got, d),
            other => panic!("wrong message: {other:?}"),
        }
    }

    #[test]
    fn subquery_result_round_trips_byte_identically() {
        let mut store = OemStore::new();
        let root = store.new_complex();
        store.set_name_overwrite("result", root).unwrap();
        let row = store.add_complex_child(root, "row").unwrap();
        store.add_atomic_child(row, "Symbol", "TP53").unwrap();
        let before = encode_store(&store);
        let msg = Message::SubqueryOk(RemoteResult {
            store,
            root,
            rows: 1,
            planner_index_backed: true,
            cost: Cost {
                requests: 1,
                records: 1,
                virtual_us: 40_050,
                cache_hits: 0,
                wall_us: 120,
            },
        });
        let mut bytes = msg.encode();
        // Tag, one-byte row count, then the flag byte: bit 1 only.
        assert_eq!(bytes[2], 0b10);
        // A peer that sets the reserved bit 0 decodes the same.
        bytes[2] |= 1;
        match Message::decode(&bytes).unwrap() {
            Message::SubqueryOk(got) => {
                assert_eq!(encode_store(&got.store), before);
                assert_eq!(got.root, root);
                assert_eq!(got.rows, 1);
                assert!(got.planner_index_backed);
                assert_eq!(got.cost.virtual_us, 40_050);
                assert_eq!(got.cost.wall_us, 120);
            }
            other => panic!("wrong message: {other:?}"),
        }
    }

    #[test]
    fn out_of_range_root_is_a_frame_error() {
        let mut store = OemStore::new();
        let root = store.new_complex();
        store.set_name_overwrite("result", root).unwrap();
        let msg = Message::SubqueryOk(RemoteResult {
            store,
            root: Oid::from_index(99),
            rows: 0,
            planner_index_backed: false,
            cost: Cost::new(),
        });
        assert!(matches!(
            Message::decode(&msg.encode()),
            Err(ProtoError::Frame(_))
        ));
    }

    #[test]
    fn change_feed_messages_round_trip() {
        let msgs = vec![
            Message::SubscribeSource {
                source: "locuslink".into(),
                from_seq: u64::MAX,
            },
            Message::FeedStatus {
                source: "omim".into(),
                tail: 7,
                head: 42,
            },
            Message::ChangeBatch {
                seq: 42,
                bootstrap: true,
                records: vec![
                    ChangeRecord {
                        key: "1007".into(),
                        flat: Some(">>1007\nSYMBOL: TP53\n".into()),
                    },
                    ChangeRecord {
                        key: "1008".into(),
                        flat: None,
                    },
                ],
            },
            Message::ChangeAck { seq: 42 },
            Message::SourceGone {
                source: "OMIM".into(),
            },
        ];
        for msg in msgs {
            let decoded = Message::decode(&msg.encode()).unwrap();
            match (&msg, &decoded) {
                (
                    Message::SubscribeSource {
                        source: s1,
                        from_seq: f1,
                    },
                    Message::SubscribeSource {
                        source: s2,
                        from_seq: f2,
                    },
                ) => assert_eq!((s1, f1), (s2, f2)),
                (
                    Message::FeedStatus {
                        source: s1,
                        tail: t1,
                        head: h1,
                    },
                    Message::FeedStatus {
                        source: s2,
                        tail: t2,
                        head: h2,
                    },
                ) => assert_eq!((s1, t1, h1), (s2, t2, h2)),
                (
                    Message::ChangeBatch {
                        seq: q1,
                        bootstrap: b1,
                        records: r1,
                    },
                    Message::ChangeBatch {
                        seq: q2,
                        bootstrap: b2,
                        records: r2,
                    },
                ) => {
                    assert_eq!((q1, b1), (q2, b2));
                    assert_eq!(r1, r2);
                }
                (Message::ChangeAck { seq: q1 }, Message::ChangeAck { seq: q2 }) => {
                    assert_eq!(q1, q2)
                }
                (Message::SourceGone { source: s1 }, Message::SourceGone { source: s2 }) => {
                    assert_eq!(s1, s2)
                }
                other => panic!("wrong shape: {other:?}"),
            }
        }
    }

    #[test]
    fn truncated_change_batch_is_a_decode_error_not_garbage() {
        let msg = Message::ChangeBatch {
            seq: 9,
            bootstrap: false,
            records: vec![
                ChangeRecord {
                    key: "1042".into(),
                    flat: Some(">>1042\nSYMBOL: BRCA2\n".into()),
                },
                ChangeRecord {
                    key: "1043".into(),
                    flat: None,
                },
            ],
        };
        let payload = msg.encode();
        for cut in 1..payload.len() {
            assert!(
                Message::decode(&payload[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }

    #[test]
    fn empty_and_unknown_tags_fail() {
        assert!(Message::decode(&[]).is_err());
        assert!(matches!(Message::decode(&[200]), Err(ProtoError::Frame(_))));
        // v2's WAL-shipping tags are unassigned, whatever follows them.
        for tag in 11..=14 {
            for body in [&[][..], &[3, 13], &[0; 8]] {
                let payload = [&[tag][..], body].concat();
                assert!(
                    matches!(Message::decode(&payload), Err(ProtoError::Frame(_))),
                    "tag {tag}"
                );
            }
        }
        // Trailing garbage after a well-formed message.
        let mut payload = Message::Ping.encode();
        payload.push(0);
        assert!(matches!(
            Message::decode(&payload),
            Err(ProtoError::Frame(_))
        ));
    }
}
