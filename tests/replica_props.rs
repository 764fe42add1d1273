//! Property tests for replication over the change feed: a follower
//! resumed from **every** sequence its leader handed out converges to
//! the leader's derived state — the same `/genes` answer, the same
//! assembled store bytes, the same ranked search. Replication has no
//! privileged starting point; any cursor the leader's feed produced is a
//! valid resume point.
//!
//! The damaged-frame half of the old WAL-shipping properties went with
//! its message: every feed frame carries the same crc32 framing, which
//! `afed_fuzz.rs` flips and truncates for every message variant.

use std::collections::HashMap;

use proptest::prelude::*;

use annoda::{Annoda, DurableSystem, FusionStrategy, GeneQuestion};
use annoda_federation::{ChangeRecord, FeedHost, FeedSession, Message};
use annoda_persist::encode_store;
use annoda_sources::{Corpus, CorpusConfig};
use annoda_wrap::{scripted_mutation, LocusLinkWrapper, OmimWrapper, Wrapper};

fn corpus() -> Corpus {
    Corpus::generate(CorpusConfig::tiny(42))
}

fn system() -> Annoda {
    let c = corpus();
    Annoda::over_sources(c.locuslink, c.go, c.omim).0
}

/// Carries the leader's feeds into `follower` from its `cursors`, as
/// its tailers do: a session per source, batches through the
/// apply/commit pair, a gone source unplugged.
fn resume(
    leader: &DurableSystem,
    follower: &mut DurableSystem,
    cursors: &mut HashMap<String, u64>,
) {
    for (source, _) in follower.positions() {
        let cursor = cursors.entry(source.clone()).or_default();
        let mut session = FeedSession::default();
        let subscribe = Message::SubscribeSource {
            source: source.clone(),
            from_seq: *cursor + 1,
        };
        let mut reply = session.reply(leader, subscribe);
        loop {
            match reply {
                Some(Message::FeedStatus { .. }) => {}
                Some(Message::ChangeBatch {
                    seq,
                    bootstrap,
                    records,
                }) => {
                    if records.is_empty() && !bootstrap {
                        break;
                    }
                    let n = follower.absorb_apply(&source, &records, bootstrap).unwrap();
                    follower.absorb_commit(&source, n).unwrap();
                    *cursor = seq;
                }
                Some(Message::SourceGone { .. }) => {
                    assert!(follower.absorb_unplug(&source).unwrap());
                    break;
                }
                other => panic!("{source}: unexpected feed reply {other:?}"),
            }
            reply = session.reply(leader, Message::ChangeAck { seq: *cursor });
        }
    }
}

/// What a client reads off a node.
fn derived(sys: &DurableSystem) -> (String, Vec<u8>, String) {
    let answer = sys.annoda().ask(&GeneQuestion::default()).unwrap();
    let snap = sys.query_snapshot().unwrap();
    let hits = ["protein", "disease", "penetrance"]
        .map(|q| DurableSystem::search_on(&snap, q, 10, FusionStrategy::Rrf));
    (
        format!("{:?}", answer.fused),
        encode_store(&snap.store),
        format!("{hits:?}"),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Every cursor the leader handed out is a valid resume point: a
    /// follower that absorbed the feed up to it, then resumed, ends where
    /// the leader is.
    #[test]
    fn resume_from_every_boundary_replays_byte_identically(
        ops in proptest::collection::vec((any::<bool>(), 0u8..4), 1..6),
        unplug in any::<bool>(),
    ) {
        let c = corpus();
        let mut leader = DurableSystem::new(system());
        let mut feeds: [Box<dyn Wrapper>; 2] = [
            Box::new(LocusLinkWrapper::new(c.locuslink.clone())),
            Box::new(OmimWrapper::new(c.omim.clone())),
        ];
        // One follower caught up at each point the leader handed out a
        // sequence, with its cursors.
        let mut followers = Vec::new();
        let mut catch_up = |leader: &DurableSystem| {
            let mut follower = DurableSystem::new(system());
            follower.follow("leader");
            let mut cursors = HashMap::new();
            resume(leader, &mut follower, &mut cursors);
            followers.push((follower, cursors));
        };
        catch_up(&leader);
        for (step, (omim, kind)) in ops.into_iter().enumerate() {
            let (source, feed) = if omim {
                ("OMIM", &mut feeds[1])
            } else {
                ("LocusLink", &mut feeds[0])
            };
            let record = if kind == 0 {
                // A delete of a record the leader holds.
                let (_, dump) = leader.dump(source).unwrap();
                let key = dump[step % dump.len()].0.clone();
                ChangeRecord { key, flat: None }
            } else {
                let (key, flat) = scripted_mutation(&mut **feed, 11, step as u64).unwrap();
                ChangeRecord { key, flat: Some(flat) }
            };
            leader.absorb_delta(source, &[record], false).unwrap();
            catch_up(&leader);
        }
        if unplug {
            prop_assert!(leader.unplug("OMIM").unwrap());
        }
        let expected = derived(&leader);
        for (k, (mut follower, mut cursors)) in followers.into_iter().enumerate() {
            resume(&leader, &mut follower, &mut cursors);
            prop_assert!(derived(&follower) == expected, "resumed from point {}", k);
        }
    }
}
