//! Journal records: the mutations the WAL can carry, and the single
//! [`apply`] function shared between the live write path, recovery and
//! a follower's shipped batches.
//!
//! Byte-identical recovery hinges on that sharing: `DurableStore`
//! mutates its in-memory store *only* through `apply`, so replaying the
//! same records against the same base can't drift.
//!
//! A commit journals at the grain of the fragment group — every
//! fragment under a shard root with one `(label, fragment_key)`, the
//! key `/object/{kind}/{id}` resolves — so a record names what it
//! replaces by key, not by position, and stays valid across the oid
//! renumbering a snapshot's compaction performs and across every
//! insert or delete that shifts its neighbours.

use annoda_oem::shard::{replace_group, FragmentGroup};
use annoda_oem::{OemStore, Oid};

use crate::codec::{decode_fragment_into, encode_fragment, write_string, write_varint, Reader};
use crate::error::PersistError;

/// Which lifecycle event a [`JournalRecord::SourceEvent`] marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceEventKind {
    /// A wrapper was plugged into the registry.
    Plug,
    /// A wrapper was unplugged.
    Unplug,
    /// A source refresh ran (the data delta follows as separate records).
    Refresh,
}

/// One journaled mutation.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// Registry lifecycle marker. Carries no store mutation; recovery
    /// counts these so `/metrics` can report what the journal saw.
    SourceEvent {
        /// What happened.
        kind: SourceEventKind,
        /// Wrapper / source name.
        name: String,
    },
    /// Bind `name` to a freshly imported fragment (encoded with
    /// [`crate::codec::encode_fragment`]), replacing any prior binding:
    /// how a shard segment is first journaled.
    PutRoot {
        /// Root name to bind.
        name: String,
        /// Encoded fragment; its root becomes the named object.
        fragment: Vec<u8>,
    },
    /// Replace the `(label, key)` fragment group under the root named
    /// `root` with `fragments` (see [`replace_group`]); no fragments
    /// deletes the group.
    ReplaceFragments {
        /// Named root whose child edges hold the group.
        root: String,
        /// Entity label of the group's edges.
        label: String,
        /// The group's identifying key.
        key: String,
        /// The group's new fragments, each encoded on its own.
        fragments: Vec<Vec<u8>>,
    },
}

impl JournalRecord {
    /// The record that binds `name` to the root of that name in `store`,
    /// whole: how a shard segment is first journaled.
    pub fn put_root(name: &str, store: &OemStore) -> Self {
        let root = store.named(name).expect("the store holds the root it puts");
        let fragment = encode_fragment(store, root);
        JournalRecord::PutRoot {
            name: name.to_string(),
            fragment,
        }
    }

    /// The record that journals `group`, a changed group of the staged
    /// shard `store`, under the root named `root`.
    pub fn replace_fragments(root: &str, store: &OemStore, group: &FragmentGroup) -> Self {
        let fragments = group.fragments.iter();
        JournalRecord::ReplaceFragments {
            root: root.to_string(),
            label: group.label.clone(),
            key: group.key.clone(),
            fragments: fragments.map(|&f| encode_fragment(store, f)).collect(),
        }
    }

    /// Encodes the record as a WAL frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        let bytes = |buf: &mut Vec<u8>, bytes: &[u8]| {
            write_varint(buf, bytes.len() as u64);
            buf.extend_from_slice(bytes);
        };
        match self {
            JournalRecord::SourceEvent { kind, name } => {
                buf.push(0);
                buf.push(match kind {
                    SourceEventKind::Plug => 0,
                    SourceEventKind::Unplug => 1,
                    SourceEventKind::Refresh => 2,
                });
                write_string(&mut buf, name);
            }
            JournalRecord::PutRoot { name, fragment } => {
                buf.push(1);
                write_string(&mut buf, name);
                bytes(&mut buf, fragment);
            }
            // Tags 2-5 carried positional path edits in earlier
            // releases; a journal holding one is refused, not misread.
            JournalRecord::ReplaceFragments {
                root,
                label,
                key,
                fragments,
            } => {
                buf.push(6);
                for field in [root, label, key] {
                    write_string(&mut buf, field);
                }
                write_varint(&mut buf, fragments.len() as u64);
                for fragment in fragments {
                    bytes(&mut buf, fragment);
                }
            }
        }
        buf
    }

    /// Decodes a WAL frame payload.
    pub fn decode(payload: &[u8]) -> Result<JournalRecord, PersistError> {
        let mut r = Reader::new(payload);
        let bytes = |r: &mut Reader<'_>| -> Result<Vec<u8>, PersistError> {
            let len = r.len_field()?;
            Ok(r.take(len)?.to_vec())
        };
        let rec = match r.byte()? {
            0 => {
                let kind = match r.byte()? {
                    0 => SourceEventKind::Plug,
                    1 => SourceEventKind::Unplug,
                    2 => SourceEventKind::Refresh,
                    k => return Err(PersistError::codec(format!("unknown source event {k}"))),
                };
                JournalRecord::SourceEvent {
                    kind,
                    name: r.string()?,
                }
            }
            1 => JournalRecord::PutRoot {
                name: r.string()?,
                fragment: bytes(&mut r)?,
            },
            6 => JournalRecord::ReplaceFragments {
                root: r.string()?,
                label: r.string()?,
                key: r.string()?,
                fragments: (0..r.len_field()?)
                    .map(|_| bytes(&mut r))
                    .collect::<Result<_, _>>()?,
            },
            tag => return Err(PersistError::codec(format!("unknown record tag {tag}"))),
        };
        if !r.is_empty() {
            return Err(PersistError::codec("trailing bytes after record"));
        }
        Ok(rec)
    }
}

/// Applies one record to the store. This is the only mutation path the
/// durable store uses, whether journaling live, recovering, or
/// replaying a leader's shipped batch.
pub fn apply(store: &mut OemStore, record: &JournalRecord) -> Result<(), PersistError> {
    match record {
        JournalRecord::SourceEvent { .. } => Ok(()),
        JournalRecord::PutRoot { name, fragment } => {
            let root = decode_fragment_into(store, fragment)?;
            store.set_name_overwrite(name, root)?;
            Ok(())
        }
        JournalRecord::ReplaceFragments {
            root,
            label,
            key,
            fragments,
        } => {
            let root_oid = store
                .named(root)
                .ok_or_else(|| PersistError::apply(format!("no root named {root:?}")))?;
            let fresh = fragments.iter().map(|f| decode_fragment_into(store, f));
            let fresh: Vec<Oid> = fresh.collect::<Result<_, _>>()?;
            replace_group(store, root_oid, label, key, &fresh)?;
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::encode_store;
    use annoda_oem::shard::ShardedStore;
    use annoda_oem::AtomicValue;

    fn gml(genes: &[(&str, &str)]) -> OemStore {
        let mut s = OemStore::new();
        let root = s.new_complex();
        for (symbol, description) in genes {
            let g = s.add_complex_child(root, "Gene").unwrap();
            s.add_atomic_child(g, "Symbol", *symbol).unwrap();
            s.add_atomic_child(g, "Description", *description).unwrap();
        }
        s.set_name("GML", root).unwrap();
        s
    }

    fn all_variants() -> Vec<JournalRecord> {
        let store = gml(&[("KRAS", "a"), ("KRAS", "b")]);
        let root = store.named("GML").unwrap();
        let group = FragmentGroup {
            label: "Gene".into(),
            key: "KRAS".into(),
            fragments: store.children(root, "Gene").collect(),
            changed: 2,
        };
        vec![
            JournalRecord::SourceEvent {
                kind: SourceEventKind::Refresh,
                name: "genbank".into(),
            },
            JournalRecord::PutRoot {
                name: "ANNODA-GML".into(),
                fragment: encode_fragment(&store, root),
            },
            JournalRecord::replace_fragments("ANNODA-GML", &store, &group),
            JournalRecord::ReplaceFragments {
                root: "ANNODA-GML".into(),
                label: "Gene".into(),
                key: "TP53".into(),
                fragments: Vec::new(),
            },
        ]
    }

    #[test]
    fn every_variant_round_trips() {
        for rec in all_variants() {
            let bytes = rec.encode();
            assert_eq!(JournalRecord::decode(&bytes).unwrap(), rec, "{rec:?}");
        }
    }

    #[test]
    fn truncated_records_error_cleanly() {
        for rec in all_variants() {
            let bytes = rec.encode();
            for cut in 0..bytes.len() {
                assert!(JournalRecord::decode(&bytes[..cut]).is_err());
            }
        }
    }

    #[test]
    fn path_edit_tags_of_earlier_releases_are_refused() {
        for tag in 2u8..=5 {
            let mut payload = vec![tag];
            write_string(&mut payload, "ANNODA-GML");
            let err = JournalRecord::decode(&payload).unwrap_err();
            assert!(err.to_string().contains("unknown record tag"), "{err}");
        }
    }

    #[test]
    fn replacing_groups_rebuilds_the_staged_shard() {
        let pinned = gml(&[("BRCA1", "x"), ("KRAS", "a"), ("KRAS", "b"), ("TP53", "p")]);
        let staged = gml(&[("AAA0", "new"), ("BRCA1", "x"), ("KRAS", "b"), ("MYC", "m")]);
        let (pinned, staged) = (
            ShardedStore::partition(&pinned, "GML", 1).unwrap(),
            ShardedStore::partition(&staged, "GML", 1).unwrap(),
        );
        let groups = &pinned.changed_groups(&staged)[0];
        let keys: Vec<&str> = groups.iter().map(|g| g.key.as_str()).collect();
        assert_eq!(keys, ["AAA0", "KRAS", "MYC", "TP53"], "BRCA1 is unchanged");

        let mut store = (**pinned.shard(0)).clone();
        for group in groups {
            let record = JournalRecord::replace_fragments("GML", staged.shard(0), group);
            let record = JournalRecord::decode(&record.encode()).unwrap();
            apply(&mut store, &record).unwrap();
        }
        let laid_out = ShardedStore::partition(&store, "GML", 1).unwrap();
        assert_eq!(
            encode_store(laid_out.shard(0)),
            encode_store(staged.shard(0))
        );

        // SourceEvent leaves the store alone.
        let before = encode_store(&store);
        let event = JournalRecord::SourceEvent {
            kind: SourceEventKind::Plug,
            name: "swissprot".into(),
        };
        apply(&mut store, &event).unwrap();
        assert_eq!(encode_store(&store), before);
    }

    #[test]
    fn a_group_under_a_missing_or_atomic_root_is_an_apply_error() {
        let mut store = OemStore::new();
        let record = JournalRecord::ReplaceFragments {
            root: "ghost".into(),
            label: "Gene".into(),
            key: "TP53".into(),
            fragments: Vec::new(),
        };
        let e = apply(&mut store, &record);
        assert!(matches!(e, Err(PersistError::Apply { .. })), "{e:?}");
        let atom = store.new_atomic(AtomicValue::Int(1));
        store.set_name("ghost", atom).unwrap();
        let mut fragment = OemStore::new();
        let gene = fragment.new_complex();
        let record = JournalRecord::ReplaceFragments {
            root: "ghost".into(),
            label: "Gene".into(),
            key: "TP53".into(),
            fragments: vec![encode_fragment(&fragment, gene)],
        };
        assert!(apply(&mut store, &record).is_err());
    }
}
