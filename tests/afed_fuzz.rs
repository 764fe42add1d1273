//! Fuzzing the AFED decoder (ROADMAP 5(c), AFED part): hostile bytes on
//! an AFED socket produce an error, never a panic or an abort, and
//! whatever does decode is a real message — it re-encodes to bytes that
//! decode to the same encoding. (The wire enum carries no `PartialEq`,
//! so equality is compared through `encode()`, as in
//! `tests/replica_props.rs`.)
//!
//! It found one defect, fixed with it: a store-carrying message (`Oml`,
//! `SubqueryOk`, `Refreshed`, `SnapshotXfer`) whose label or object
//! count claimed up to 2^30 entries made `decode_store` reserve that
//! many up front — 24 GiB for a ten-byte varint, an allocation failure
//! that aborts the process.

use std::io::Cursor;

use proptest::prelude::*;

use annoda_federation::proto::{self, ChangeRecord, Message, RefusalKind, RemoteResult};
use annoda_oem::OemStore;
use annoda_wrap::{Cost, SourceDescription};

/// One valid message per variant, each with a non-trivial body.
fn one_of_each() -> Vec<Message> {
    let mut store = OemStore::new();
    let root = store.new_complex();
    store.set_name_overwrite("result", root).unwrap();
    let row = store.add_complex_child(root, "row").unwrap();
    store.add_atomic_child(row, "Symbol", "TP53").unwrap();
    vec![
        Message::Describe,
        Message::Description(SourceDescription::remote(
            "GO",
            "gene ontology",
            "http://go",
        )),
        Message::FetchOml,
        Message::Oml(store.clone()),
        Message::Subquery("select L.Symbol from LocusLink.Locus L".into()),
        Message::SubqueryOk(RemoteResult {
            store: store.clone(),
            root,
            rows: 1,
            used_index: true,
            planner_index_backed: false,
            cost: Cost {
                requests: 1,
                records: 1,
                virtual_us: 40_050,
                cache_hits: 0,
                wall_us: 120,
            },
        }),
        Message::SubqueryErr {
            kind: RefusalKind::Query,
            message: "no such label".into(),
        },
        Message::Refresh,
        Message::Refreshed {
            objects: 4,
            oml: store.clone(),
        },
        Message::Ping,
        Message::Pong,
        Message::Subscribe {
            generation: 3,
            from_offset: 13,
        },
        Message::SnapshotXfer {
            generation: 4,
            store,
        },
        Message::WalBatch {
            generation: 2,
            from_offset: 13,
            records: vec![b"one".to_vec(), Vec::new()],
            next_offset: 49,
            leader_offset: 1024,
            remaining_records: 7,
        },
        Message::ReplicaStatus {
            generation: u64::MAX,
            applied_offset: 0,
        },
        Message::SubscribeSource {
            source: "OMIM".into(),
            from_seq: 1,
        },
        Message::FeedStatus {
            source: "OMIM".into(),
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
    ]
}

/// `decode` answers `Err`, or a message whose encoding decodes to an
/// identical encoding.
fn decodes_to_err_or_a_real_message(bytes: &[u8]) {
    if let Ok(msg) = Message::decode(bytes) {
        let encoded = msg.encode();
        let back = Message::decode(&encoded)
            .unwrap_or_else(|e| panic!("{msg:?} re-encodes to undecodable bytes: {e}"));
        assert_eq!(back.encode(), encoded, "{msg:?} does not round-trip");
    }
}

/// The largest value a codec length field accepts (2^30), as a varint.
const HUGE_LEN: [u8; 5] = [0x80, 0x80, 0x80, 0x80, 0x04];

#[test]
fn every_truncation_flip_and_huge_length_of_every_variant() {
    for msg in one_of_each() {
        let payload = msg.encode();
        assert_eq!(Message::decode(&payload).unwrap().encode(), payload);
        for cut in 0..payload.len() {
            decodes_to_err_or_a_real_message(&payload[..cut]);
        }
        for pos in 0..payload.len() {
            for flip in (0..8).map(|bit| 1u8 << bit).chain([0xff]) {
                let mut damaged = payload.clone();
                damaged[pos] ^= flip;
                decodes_to_err_or_a_real_message(&damaged);
            }
            // Whichever length or count field sits at `pos` now claims
            // 2^30 entries the payload does not hold.
            let mut hostile = payload[..pos].to_vec();
            hostile.extend_from_slice(&HUGE_LEN);
            hostile.extend_from_slice(&payload[pos + 1..]);
            decodes_to_err_or_a_real_message(&hostile);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// A valid encoding cut anywhere and followed by arbitrary bytes:
    /// the decoder gets past every tag and prefix into each body's
    /// length and count fields with hostile values.
    #[test]
    fn valid_prefixes_with_arbitrary_tails_never_panic(
        pick in any::<usize>(),
        cut_pick in any::<usize>(),
        tail in proptest::collection::vec(any::<u8>(), 0..48),
    ) {
        let messages = one_of_each();
        let payload = messages[pick % messages.len()].encode();
        let mut bytes = payload[..cut_pick % (payload.len() + 1)].to_vec();
        bytes.extend(tail);
        decodes_to_err_or_a_real_message(&bytes);
    }

    /// Arbitrary byte streams through the frame reader: every frame it
    /// accepts passed its checksum and is handed to the decoder, and a
    /// stream it rejects is an error, never a panic.
    #[test]
    fn arbitrary_streams_never_panic_the_frame_reader(
        stream in proptest::collection::vec(any::<u8>(), 0..96),
        framed_prefix in any::<bool>(),
    ) {
        // Half the cases start with a well-formed frame of the stream's
        // own bytes, so the reader also sees a good frame followed by
        // garbage.
        let mut wire = Vec::new();
        if framed_prefix {
            proto::write_frame(&mut wire, &stream).unwrap();
        }
        wire.extend_from_slice(&stream);
        let mut r = Cursor::new(wire);
        while let Ok(payload) = proto::read_frame(&mut r) {
            decodes_to_err_or_a_real_message(&payload);
        }
    }
}
