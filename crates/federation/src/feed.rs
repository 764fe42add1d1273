//! `ChangeJournal` — a record-level change feed, and the one handler
//! that serves it.
//!
//! Every mutation of a served source's native database appends one
//! [`ChangeRecord`] here under a monotonic sequence number. Subscribers
//! tail the journal with
//! [`Message::SubscribeSource`] and resume from any sequence still
//! inside the journal's bounded window. When compaction has outrun a
//! subscriber, or its cursor lies outside the window (its state came
//! from another journal), the server answers with a full-state
//! bootstrap batch instead of an error.
//!
//! Two hosts serve feeds through [`FeedSession`]: a source-server (its
//! one wrapper) and a leader `annoda-serve` (each plugged source it can
//! dump), whose followers are feed subscribers like any other.
//!
//! Locking contract: appends must happen while holding the lock that
//! guards the served native database for writing, so a reader holding
//! it for reading sees a native database and a journal head that agree
//! — that is what makes a bootstrap dump (state + head seq) atomic.
//!
//! Journal identity: a journal made by [`ChangeJournal::new`] numbers
//! from 1, so a source-server respawned over a regenerated database
//! starts a fresh journal whose head usually lies behind its old
//! subscribers' cursors. A leader must never let a subscriber resume
//! into a journal its cursor did not come from — it may restart or be
//! promoted with any head — so its journals come from
//! [`ChangeJournal::incarnation`]: sequences start at a random
//! `incarnation << 32`, and a cursor of any other incarnation lies
//! below the tail or past the head.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use crate::proto::{ChangeRecord, Message};

/// Default bound on retained changes; older entries compact away and
/// late subscribers bootstrap instead of replaying.
pub const DEFAULT_JOURNAL_CAP: usize = 4096;

/// Most change records shipped in one [`Message::ChangeBatch`].
const FEED_BATCH_MAX: usize = 512;

/// Bounded, replayable journal of record-level changes.
#[derive(Debug)]
pub struct ChangeJournal {
    inner: Mutex<Inner>,
    cap: usize,
}

#[derive(Debug)]
struct Inner {
    entries: VecDeque<(u64, ChangeRecord)>,
    next_seq: u64,
}

/// The journal's replayable window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeedWindow {
    /// Oldest sequence still replayable. When the journal is empty this
    /// equals `head + 1` (everything has compacted away, or nothing was
    /// ever appended).
    pub tail: u64,
    /// Newest assigned sequence (0, or `incarnation << 32`, when
    /// nothing was ever appended).
    pub head: u64,
}

impl ChangeJournal {
    /// An empty journal retaining at most `cap` changes.
    pub fn new(cap: usize) -> ChangeJournal {
        ChangeJournal {
            inner: Mutex::new(Inner {
                entries: VecDeque::new(),
                next_seq: 1,
            }),
            cap: cap.max(1),
        }
    }

    /// Appends one change, returning its assigned sequence. Must be
    /// called while holding the served wrapper's write lock (see the
    /// module docs for why).
    pub fn append(&self, rec: ChangeRecord) -> u64 {
        let mut inner = self.inner.lock().expect("journal lock");
        let seq = inner.next_seq;
        inner.next_seq += 1;
        inner.entries.push_back((seq, rec));
        while inner.entries.len() > self.cap {
            inner.entries.pop_front();
        }
        seq
    }

    /// An empty journal retaining at most `cap` changes whose sequences
    /// start past `incarnation << 32`, for a random non-zero 31-bit
    /// `incarnation` (so every sequence fits an `i64`). Its empty head
    /// is `incarnation << 32`; see the module docs for why a leader
    /// numbers this way.
    pub fn incarnation(cap: usize) -> ChangeJournal {
        use std::hash::{BuildHasher, Hasher};
        let random = std::collections::hash_map::RandomState::new()
            .build_hasher()
            .finish();
        let incarnation = (random & 0x7FFF_FFFF).max(1);
        let journal = ChangeJournal::new(cap);
        journal.inner.lock().expect("journal lock").next_seq = (incarnation << 32) + 1;
        journal
    }

    /// The current replayable window.
    pub fn window(&self) -> FeedWindow {
        let inner = self.inner.lock().expect("journal lock");
        let head = inner.next_seq - 1;
        let tail = inner.entries.front().map_or(head + 1, |(seq, _)| *seq);
        FeedWindow { tail, head }
    }

    /// Changes with sequence `>= from_seq`, at most `max` of them, in
    /// journal order. An empty `Some` (`from_seq == head + 1`) means
    /// caught up. `None` means the subscriber must bootstrap: `from_seq`
    /// has compacted away, or it lies past `head + 1`, so the
    /// subscriber's state came from another journal (a respawned
    /// source starts a fresh one over a regenerated database; a leader
    /// a fresh incarnation).
    pub fn replay_from(&self, from_seq: u64, max: usize) -> Option<Vec<(u64, ChangeRecord)>> {
        let inner = self.inner.lock().expect("journal lock");
        let head = inner.next_seq - 1;
        let tail = inner.entries.front().map_or(head + 1, |(seq, _)| *seq);
        if from_seq < tail || from_seq > head + 1 {
            return None;
        }
        // Sequences are contiguous, so `from_seq` is entry `from_seq - tail`.
        let skip = (from_seq - tail) as usize;
        Some(inner.entries.range(skip..).take(max).cloned().collect())
    }
}

/// What a feed host serves of one source.
#[derive(Debug, Clone)]
pub enum Served {
    /// The source's journal.
    Journal(Arc<ChangeJournal>),
    /// A source this host never changes (it cannot dump): its feed is
    /// caught up at 0 for good.
    Unchanging,
    /// Not served here, or no longer.
    Gone,
}

/// A host of change feeds, as [`FeedSession`] reads it.
pub trait FeedHost {
    /// What this host serves of `source`.
    fn served(&self, source: &str) -> Served;

    /// `source`'s full native state as `(key, flat)` records, with the
    /// head of its journal, both read under the lock appends hold (see
    /// the module docs). `None` when it cannot dump.
    fn dump(&self, source: &str) -> Option<(u64, Vec<(String, String)>)>;
}

/// One subscriber connection's feed state: the source it subscribed
/// to. A [`Message::ChangeAck`] names no source, so each session holds
/// its own.
#[derive(Debug, Default)]
pub struct FeedSession {
    source: Option<String>,
}

impl FeedSession {
    /// The reply to one feed request; `None` closes the session (a
    /// non-feed message, an ack before any subscribe, or a lapped
    /// subscriber of a source that cannot dump).
    ///
    /// The feed is ack-driven: each ack names the last sequence the
    /// subscriber absorbed, and the reply is the next batch (empty =
    /// caught up; bootstrap = the cursor lies outside the journal's
    /// window, and the subscriber must replace, not merge). A source
    /// the host does not serve is answered [`Message::SourceGone`].
    pub fn reply(&mut self, host: &dyn FeedHost, request: Message) -> Option<Message> {
        match request {
            Message::SubscribeSource { source, .. } => {
                let (tail, head) = match host.served(&source) {
                    Served::Gone => return Some(Message::SourceGone { source }),
                    Served::Unchanging => (1, 0),
                    Served::Journal(journal) => {
                        let w = journal.window();
                        (w.tail, w.head)
                    }
                };
                self.source = Some(source.clone());
                Some(Message::FeedStatus { source, tail, head })
            }
            Message::ChangeAck { seq } => {
                let source = self.source.as_deref()?;
                let journal = match host.served(source) {
                    Served::Gone => {
                        let source = source.to_string();
                        return Some(Message::SourceGone { source });
                    }
                    Served::Unchanging => None,
                    Served::Journal(journal) => Some(journal),
                };
                let replay = match &journal {
                    Some(journal) => journal.replay_from(seq.saturating_add(1), FEED_BATCH_MAX),
                    None => Some(Vec::new()),
                };
                Some(match replay {
                    Some(entries) => Message::ChangeBatch {
                        seq: entries.last().map_or(seq, |(s, _)| *s),
                        bootstrap: false,
                        records: entries.into_iter().map(|(_, rec)| rec).collect(),
                    },
                    None => {
                        let (head, dump) = host.dump(source)?;
                        let records = dump.into_iter().map(|(key, flat)| ChangeRecord {
                            key,
                            flat: Some(flat),
                        });
                        Message::ChangeBatch {
                            seq: head,
                            bootstrap: true,
                            records: records.collect(),
                        }
                    }
                })
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(key: &str) -> ChangeRecord {
        ChangeRecord {
            key: key.into(),
            flat: Some(format!(">>{key}\n")),
        }
    }

    #[test]
    fn sequences_are_monotonic_from_one() {
        let j = ChangeJournal::new(10);
        assert_eq!(j.window(), FeedWindow { tail: 1, head: 0 });
        assert_eq!(j.append(rec("a")), 1);
        assert_eq!(j.append(rec("b")), 2);
        assert_eq!(j.window(), FeedWindow { tail: 1, head: 2 });
    }

    #[test]
    fn replay_from_every_position() {
        let j = ChangeJournal::new(10);
        for i in 0..5 {
            j.append(rec(&format!("k{i}")));
        }
        for from in 1..=6u64 {
            let got = j.replay_from(from, 100).expect("inside window");
            assert_eq!(got.len(), (6 - from) as usize);
            if let Some((first, _)) = got.first() {
                assert_eq!(*first, from);
            }
        }
        // Caught up: empty, not None.
        assert!(j.replay_from(6, 100).expect("caught up").is_empty());

        // A compacted journal, its window starting past 1: every cursor
        // in it replays exactly the entries at or after it, in order.
        let j = ChangeJournal::new(4);
        for i in 0..11 {
            j.append(rec(&format!("k{i}")));
        }
        let w = j.window();
        assert_eq!(w, FeedWindow { tail: 8, head: 11 });
        for from in w.tail..=w.head + 1 {
            for max in [1, 2, 100] {
                let got = j.replay_from(from, max).expect("inside window");
                let want: Vec<u64> = (from..=w.head).take(max).collect();
                let seqs: Vec<u64> = got.iter().map(|(seq, _)| *seq).collect();
                assert_eq!(seqs, want, "from {from}, max {max}");
                for (seq, record) in &got {
                    assert_eq!(record.key, format!("k{}", seq - 1));
                }
            }
        }
    }

    #[test]
    fn compaction_forces_bootstrap() {
        let j = ChangeJournal::new(3);
        for i in 0..10 {
            j.append(rec(&format!("k{i}")));
        }
        let w = j.window();
        assert_eq!(w, FeedWindow { tail: 8, head: 10 });
        assert!(j.replay_from(7, 100).is_none(), "compacted seq must miss");
        let got = j.replay_from(8, 100).expect("tail is replayable");
        assert_eq!(got.len(), 3);
    }

    #[test]
    fn a_cursor_past_the_head_bootstraps() {
        let j = ChangeJournal::new(10);
        for i in 0..3 {
            j.append(rec(&format!("k{i}")));
        }
        let head = j.window().head;
        assert!(j.replay_from(head + 1, 100).expect("caught up").is_empty());
        assert!(
            j.replay_from(head + 2, 100).is_none(),
            "a cursor from an earlier journal must bootstrap"
        );
        // An empty journal: only seq 1 is caught up.
        let empty = ChangeJournal::new(10);
        assert!(empty.replay_from(1, 100).expect("caught up").is_empty());
        assert!(empty.replay_from(5, 100).is_none());
    }

    /// A cursor handed out by one incarnation never replays from
    /// another: it lies below the new tail or past the new head, even
    /// once the new head's counter has passed the old cursor's.
    #[test]
    fn a_cursor_from_another_incarnation_always_bootstraps() {
        let old = ChangeJournal::incarnation(10);
        let empty = old.window();
        assert_eq!((empty.tail, empty.head & 0xFFFF_FFFF), (empty.head + 1, 0));
        assert!(empty.head >> 32 != 0 && empty.head >> 32 < 1 << 31);
        assert!(
            old.replay_from(1, 100).is_none(),
            "a fresh cursor bootstraps"
        );
        for i in 0..3 {
            old.append(rec(&format!("k{i}")));
        }
        let cursors = [empty.head, old.window().head];
        for _ in 0..16 {
            let new = ChangeJournal::incarnation(10);
            if new.window().head == empty.head {
                continue; // the same incarnation drawn twice
            }
            for i in 0..8 {
                new.append(rec(&format!("n{i}")));
            }
            assert!(new.window().head & 0xFFFF_FFFF > cursors[1] & 0xFFFF_FFFF);
            for cursor in cursors {
                assert!(new.replay_from(cursor + 1, 100).is_none(), "{cursor}");
            }
            // And the journals `new` starts at 1 never mix with them.
            let plain = ChangeJournal::new(10);
            for i in 0..8 {
                plain.append(rec(&format!("p{i}")));
            }
            assert!(plain.replay_from(cursors[1] + 1, 100).is_none());
            assert!(new.replay_from(plain.window().head + 1, 100).is_none());
        }
    }

    #[test]
    fn replay_respects_batch_cap() {
        let j = ChangeJournal::new(100);
        for i in 0..10 {
            j.append(rec(&format!("k{i}")));
        }
        let got = j.replay_from(1, 4).expect("window");
        assert_eq!(got.len(), 4);
        assert_eq!(got.last().expect("nonempty").0, 4);
    }
}
