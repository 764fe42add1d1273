//! `ChangeJournal` — a source-server's record-level change feed.
//!
//! Every mutation of a served wrapper's native database appends one
//! [`ChangeRecord`] here under a monotonic sequence number (seqs start
//! at 1; 0 means "nothing absorbed yet"). Subscribers tail the journal
//! with [`Message::SubscribeSource`](crate::Message::SubscribeSource)
//! and resume from any sequence still inside the journal's bounded
//! window — exactly the replica tier's bootstrap-then-tail shape, with
//! sequences in place of WAL byte offsets. When compaction has outrun a
//! subscriber, or its cursor lies past the head (its state came from an
//! earlier journal), the server answers with a full-state bootstrap
//! batch instead of an error, mirroring how a stale replica position is
//! answered with a snapshot transfer.
//!
//! Locking contract: appends must happen while holding the served
//! wrapper's *write* lock, so a reader holding the wrapper's read lock
//! sees a native database and a journal head that agree — that is what
//! makes a bootstrap dump (state + head seq) atomic.

use std::collections::VecDeque;
use std::sync::Mutex;

use crate::proto::ChangeRecord;

/// Default bound on retained changes; older entries compact away and
/// late subscribers bootstrap instead of replaying.
pub const DEFAULT_JOURNAL_CAP: usize = 4096;

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
    /// Newest assigned sequence (0 when nothing was ever appended).
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
    /// subscriber's state came from an earlier journal (a respawned
    /// source starts a fresh one over a regenerated database).
    pub fn replay_from(&self, from_seq: u64, max: usize) -> Option<Vec<(u64, ChangeRecord)>> {
        let inner = self.inner.lock().expect("journal lock");
        let head = inner.next_seq - 1;
        let tail = inner.entries.front().map_or(head + 1, |(seq, _)| *seq);
        if from_seq < tail || from_seq > head + 1 {
            return None;
        }
        Some(
            inner
                .entries
                .iter()
                .filter(|(seq, _)| *seq >= from_seq)
                .take(max)
                .cloned()
                .collect(),
        )
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
