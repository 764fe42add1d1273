//! [`StreamClient`] — one background thread tailing one source's
//! change feed.
//!
//! Connect, subscribe from the last absorbed sequence, then strictly
//! alternate: acknowledge what is absorbed, receive the next batch,
//! absorb it, repeat. An empty batch means caught up (sleep one poll
//! interval); a `bootstrap` batch replaces the local native database
//! with the feed's full dump (the journal compacted past our cursor).
//! Any transport error, frame corruption, or absorb failure tears the
//! connection down and re-subscribes after a backoff — from the last
//! *acked* sequence, so a batch that never finished absorbing is
//! simply replayed.
//!
//! The dial → session → backoff thread is `annoda-federation`'s
//! [`Subscription`], which re-reads the target address on every
//! connection attempt ([`StreamClient::set_addr`]), so a feed can fail
//! over to a respawned source-server without restarting the tailer.

use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use annoda::DurableSystem;
use annoda_federation::proto::{self, Message, ProtoError};
use annoda_federation::{LagClock, Session, Subscription, TailConfig};

/// Nice value the tailer thread runs at (Linux: each thread carries its
/// own).
const BACKGROUND_NICE: i32 = 5;

/// Lowers the calling thread's scheduling priority to
/// [`BACKGROUND_NICE`] (best effort; Linux semantics —
/// `setpriority(PRIO_PROCESS, 0, ..)` targets the calling thread there,
/// and lowering needs no privilege). Declared directly against the C
/// library `std` already links, so no crate dependency.
///
/// Kept because the benchmark defends it: on `reads_under_writes`,
/// removing this together with [`lock_write_politely`] lowered
/// `throughput_rps` in 7 of 7 alternating pairs (change/parent req/s
/// 29.2/37.8, 34.4/38.8, 32.5/37.2, 30.1/37.8, 38.6/43.6, 36.6/42.7,
/// 38.2/42.4: −10…−23 %) and raised `read_p50_us` by 12…28 %. Removing
/// this alone lost 3 of 4 pairs (36.9/41.9, 38.7/43.4, 40.5/42.7,
/// 40.6/37.4). EXPERIMENTS.md, "Tailer scheduling", has the runs.
#[cfg(target_os = "linux")]
fn deprioritize_current_thread() {
    extern "C" {
        fn setpriority(which: i32, who: u32, prio: i32) -> i32;
    }
    const PRIO_PROCESS: i32 = 0;
    // SAFETY: `setpriority` takes three integers by value and touches
    // no memory of ours; `who = 0` names the calling thread, and a
    // failure is reported through the return value, which is ignored.
    unsafe {
        let _ = setpriority(PRIO_PROCESS, 0, BACKGROUND_NICE);
    }
}

#[cfg(not(target_os = "linux"))]
fn deprioritize_current_thread() {}

/// Per-source feed gauges, written by the tailer thread and read by
/// `/metrics` and `/healthz` with no lock on the system.
#[derive(Debug, Default)]
pub struct FeedGauges {
    /// The source this feed tails.
    pub source: String,
    /// Last sequence durably absorbed (and acked). 0 = nothing yet.
    pub applied_seq: AtomicU64,
    /// Highest sequence the server has reported or shipped.
    pub head_seq: AtomicU64,
    /// Known outstanding records (`head_seq - applied_seq`); exact at
    /// subscribe time, zero whenever an empty batch confirms caught-up.
    pub lag_records: AtomicU64,
    /// Microseconds since the feed was last confirmed caught up; 0 when
    /// caught up, pinned to at least 1 while behind.
    pub lag_us: AtomicU64,
    /// Non-empty batches absorbed.
    pub batches: AtomicU64,
    /// Records absorbed across all batches.
    pub records: AtomicU64,
    /// Bootstrap dumps absorbed (journal compacted past our cursor).
    pub bootstraps: AtomicU64,
    /// Connection lifetimes torn down and re-subscribed.
    pub resubscribes: AtomicU64,
    /// Cumulative microseconds spent inside `absorb_delta`.
    pub absorb_us: AtomicU64,
}

impl FeedGauges {
    /// A coherent-enough point-in-time copy for rendering.
    pub fn snapshot(&self) -> FeedSnapshot {
        FeedSnapshot {
            source: self.source.clone(),
            applied_seq: self.applied_seq.load(Ordering::Acquire),
            head_seq: self.head_seq.load(Ordering::Acquire),
            lag_records: self.lag_records.load(Ordering::Acquire),
            lag_us: self.lag_us.load(Ordering::Acquire),
            batches: self.batches.load(Ordering::Relaxed),
            records: self.records.load(Ordering::Relaxed),
            bootstraps: self.bootstraps.load(Ordering::Relaxed),
            resubscribes: self.resubscribes.load(Ordering::Relaxed),
            absorb_us: self.absorb_us.load(Ordering::Relaxed),
        }
    }
}

/// Plain-value copy of [`FeedGauges`], for `/metrics` and `/healthz`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeedSnapshot {
    pub source: String,
    pub applied_seq: u64,
    pub head_seq: u64,
    pub lag_records: u64,
    pub lag_us: u64,
    pub batches: u64,
    pub records: u64,
    pub bootstraps: u64,
    pub resubscribes: u64,
    pub absorb_us: u64,
}

/// A running feed subscription. Dropping it stops and joins the tailer
/// thread.
pub struct StreamClient {
    subscription: Subscription,
    gauges: Arc<FeedGauges>,
}

impl StreamClient {
    /// Starts tailing `source`'s change feed at `addr` into `system`.
    /// `source` must name both the remote wrapper (the server refuses a
    /// mismatched subscription) and the local wrapper the deltas apply
    /// to.
    pub fn spawn(
        system: Arc<RwLock<DurableSystem>>,
        source: &str,
        addr: &str,
        config: TailConfig,
    ) -> StreamClient {
        let gauges = Arc::new(FeedGauges {
            source: source.to_string(),
            ..FeedGauges::default()
        });
        let tailer = Tailer {
            system,
            gauges: Arc::clone(&gauges),
            poll_interval: config.poll_interval,
            lag: LagClock::default(),
        };
        StreamClient {
            subscription: Subscription::spawn(addr, config, tailer),
            gauges,
        }
    }

    /// The feed's live gauges.
    pub fn gauges(&self) -> Arc<FeedGauges> {
        Arc::clone(&self.gauges)
    }

    /// Points the tailer at a new address; takes effect on the next
    /// connection attempt (kill the old source and the tailer fails
    /// over by itself).
    pub fn set_addr(&self, addr: &str) {
        self.subscription.set_addr(addr);
    }

    /// Stops the tailer thread and joins it.
    pub fn shutdown(&mut self) {
        self.subscription.shutdown();
    }
}

/// Acquires the writer lock by `try_write` with 50 µs naps (50 tries,
/// then a parking `write` so a steady reader stream cannot starve the
/// feed): std's `RwLock` prefers writers, so a parked writer blocks
/// every later-arriving reader until it has acquired and released.
///
/// Kept because the benchmark defends it together with
/// [`deprioritize_current_thread`]: on `reads_under_writes`, removing
/// both lowered `throughput_rps` in 7 of 7 alternating pairs by
/// 10…23 % and raised `read_p50_us` by 12…28 % (numbers there).
/// Removing this alone is unresolved at four pairs (change/parent
/// req/s 38.7/41.5, 39.6/41.0, 41.1/40.5, 41.9/42.2), so it stays
/// until a longer run says otherwise.
fn lock_write_politely(
    system: &RwLock<DurableSystem>,
) -> std::sync::RwLockWriteGuard<'_, DurableSystem> {
    for _ in 0..50 {
        match system.try_write() {
            Ok(guard) => return guard,
            Err(std::sync::TryLockError::WouldBlock) => {
                std::thread::sleep(Duration::from_micros(50));
            }
            Err(std::sync::TryLockError::Poisoned(e)) => panic!("system lock: {e}"),
        }
    }
    system.write().expect("system lock")
}

struct Tailer {
    system: Arc<RwLock<DurableSystem>>,
    gauges: Arc<FeedGauges>,
    /// The feed cadence: the tailer sleeps this long after every ack
    /// round — while caught up *and* after absorbing a batch. Absorb
    /// cost is per batch (one OML re-export, one transactional commit),
    /// so the journal coalescing records during the sleep is what makes
    /// high record rates sustainable; the price is at most this much
    /// extra staleness.
    poll_interval: Duration,
    lag: LagClock,
}

impl Session for Tailer {
    fn resubscribes(&self) -> &AtomicU64 {
        &self.gauges.resubscribes
    }

    /// One subscription lifetime: subscribe, alternate ack/batch until
    /// an error (`Err` → re-subscribe) or a clean stop (`Ok`).
    fn run(&mut self, mut conn: TcpStream, stop: &AtomicBool) -> Result<(), ProtoError> {
        // Idempotent (it sets an absolute nice value), so once per
        // connection is once per thread.
        deprioritize_current_thread();
        let (system, gauges) = (&self.system, &self.gauges);
        let applied = gauges.applied_seq.load(Ordering::Acquire);
        proto::send(
            &mut conn,
            &Message::SubscribeSource {
                source: gauges.source.clone(),
                from_seq: applied.saturating_add(1),
            },
        )?;
        match proto::recv(&mut conn)? {
            Message::FeedStatus { source, head, .. } if source == gauges.source => {
                gauges.head_seq.store(head, Ordering::Release);
                gauges
                    .lag_records
                    .store(head.saturating_sub(applied), Ordering::Release);
            }
            other => {
                return Err(ProtoError::Frame(format!(
                    "unexpected subscribe reply: {other:?}"
                )))
            }
        }

        while !stop.load(Ordering::SeqCst) {
            let applied = gauges.applied_seq.load(Ordering::Acquire);
            proto::send(&mut conn, &Message::ChangeAck { seq: applied })?;
            let (seq, bootstrap, records) = match proto::recv(&mut conn)? {
                Message::ChangeBatch {
                    seq,
                    bootstrap,
                    records,
                } => (seq, bootstrap, records),
                other => {
                    return Err(ProtoError::Frame(format!(
                        "unexpected feed message: {other:?}"
                    )))
                }
            };
            if records.is_empty() && !bootstrap {
                // Caught up: the server echoed our cursor.
                gauges.lag_records.store(0, Ordering::Release);
                gauges
                    .lag_us
                    .store(self.lag.lag_us(true), Ordering::Release);
                std::thread::sleep(self.poll_interval);
                continue;
            }
            let absorb_started = Instant::now();
            let absorb_err = |e| ProtoError::Frame(format!("absorb: {e}"));
            // Hold the writer lock only for the record-level apply; in
            // sharded mode the expensive materialise-and-commit is
            // `&self`, so it runs under a reader lock and the serve tier
            // keeps answering queries meanwhile. Either phase failing
            // tears the connection down unacked — the replay re-applies
            // the records idempotently.
            let applied = {
                let mut sys = lock_write_politely(system);
                if sys.is_sharded() {
                    Some(
                        sys.absorb_apply(&gauges.source, &records, bootstrap)
                            .map_err(absorb_err)?,
                    )
                } else {
                    sys.absorb_delta(&gauges.source, &records, bootstrap)
                        .map_err(absorb_err)?;
                    None
                }
            };
            if let Some(refreshed) = applied {
                let sys = system.read().expect("system lock");
                sys.absorb_commit(&gauges.source, refreshed)
                    .map_err(absorb_err)?;
                // Eagerly publish the post-commit snapshot from the
                // tailer thread: the first query after a commit pays the
                // reassembly otherwise, and that tail latency belongs to
                // the feed, not to a reader.
                let _ = sys.query_snapshot();
            }
            gauges.absorb_us.fetch_add(
                absorb_started.elapsed().as_micros() as u64,
                Ordering::Relaxed,
            );
            // Ack-after-absorb: only now may the cursor advance.
            gauges.applied_seq.store(seq, Ordering::Release);
            gauges.batches.fetch_add(1, Ordering::Relaxed);
            gauges
                .records
                .fetch_add(records.len() as u64, Ordering::Relaxed);
            if bootstrap {
                gauges.bootstraps.fetch_add(1, Ordering::Relaxed);
            }
            let head = gauges.head_seq.load(Ordering::Acquire).max(seq);
            gauges.head_seq.store(head, Ordering::Release);
            gauges
                .lag_records
                .store(head.saturating_sub(seq), Ordering::Release);
            gauges
                .lag_us
                .store(self.lag.lag_us(head <= seq), Ordering::Release);
            // Pace the feed: sleep one interval before the next ack so
            // the upstream journal coalesces the next window of records
            // into one batch instead of trickling them in at one commit
            // per record.
            std::thread::sleep(self.poll_interval);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use annoda::{Annoda, FusionStrategy};
    use annoda_federation::{ChangeJournal, ChangeRecord, FaultConfig, ServerConfig, SourceServer};
    use annoda_sources::{Corpus, CorpusConfig};
    use annoda_wrap::{scripted_mutation, OmimWrapper, Wrapper};

    fn fast() -> TailConfig {
        TailConfig {
            poll_interval: Duration::from_millis(5),
            backoff: Duration::from_millis(20),
            ..TailConfig::default()
        }
    }

    fn subscriber(corpus: &Corpus) -> Arc<RwLock<DurableSystem>> {
        let (a, _) = Annoda::over_sources(
            corpus.locuslink.clone(),
            corpus.go.clone(),
            corpus.omim.clone(),
        );
        Arc::new(RwLock::new(DurableSystem::new_sharded(a, 4).unwrap()))
    }

    /// Applies one scripted mutation on the served wrapper, journaling
    /// it — exactly what `source-server --mutate-every` does per tick.
    fn mutate(server: &SourceServer, seed: u64, step: u64) {
        let mut w = server.wrapper().write().unwrap();
        let (key, flat) = scripted_mutation(&mut **w, seed, step).expect("mutable source");
        server.journal().append(ChangeRecord {
            key,
            flat: Some(flat),
        });
        w.refresh();
    }

    fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
        let start = Instant::now();
        while start.elapsed() < Duration::from_secs(10) {
            if done() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        panic!("timed out waiting for {what}");
    }

    fn omim_dump(sys: &Arc<RwLock<DurableSystem>>) -> Vec<(String, String)> {
        sys.write()
            .unwrap()
            .annoda_mut()
            .registry_mut()
            .mediator_mut()
            .wrapper_mut("OMIM")
            .unwrap()
            .change_dump()
            .unwrap()
    }

    #[test]
    fn tailer_absorbs_and_survives_source_failover() {
        let corpus = Corpus::generate(CorpusConfig::tiny(42));
        let wrapper: Box<dyn Wrapper> = Box::new(OmimWrapper::new(corpus.omim.clone()));
        let shared = Arc::new(RwLock::new(wrapper));
        let journal = Arc::new(ChangeJournal::new(64));
        let mut server = SourceServer::spawn_shared(
            Arc::clone(&shared),
            Arc::clone(&journal),
            "127.0.0.1:0",
            ServerConfig::default(),
        )
        .unwrap();

        let sys = subscriber(&corpus);
        let mut client =
            StreamClient::spawn(Arc::clone(&sys), "OMIM", &server.addr().to_string(), fast());
        let gauges = client.gauges();

        for step in 0..4 {
            mutate(&server, 7, step);
        }
        wait_until("first 4 changes absorbed", || {
            gauges.applied_seq.load(Ordering::Acquire) >= 4
        });
        {
            let upstream = shared.read().unwrap().change_dump().unwrap();
            assert_eq!(omim_dump(&sys), upstream, "tailing converges");
        }
        // The scripted OMIM revision carries "penetrance" — the
        // search index published after the absorb must already serve it.
        let snap = sys.read().unwrap().query_snapshot().unwrap();
        let hits = DurableSystem::search_on(&snap, "penetrance", 5, FusionStrategy::Weighted);
        assert!(!hits.is_empty(), "streamed text is searchable");

        // Kill the source mid-tail; respawn over the same wrapper and
        // journal on a fresh port (same state, new address) and point
        // the tailer at it. It resumes at the acked sequence: nothing
        // lost, nothing double-applied.
        server.shutdown();
        drop(server);
        let server2 = SourceServer::spawn_shared(
            Arc::clone(&shared),
            Arc::clone(&journal),
            "127.0.0.1:0",
            ServerConfig::default(),
        )
        .unwrap();
        client.set_addr(&server2.addr().to_string());
        for step in 4..9 {
            mutate(&server2, 7, step);
        }
        wait_until("all 9 changes absorbed after failover", || {
            gauges.applied_seq.load(Ordering::Acquire) >= 9
        });
        let upstream = shared.read().unwrap().change_dump().unwrap();
        assert_eq!(omim_dump(&sys), upstream, "failover converges");
        let snap = gauges.snapshot();
        assert!(snap.resubscribes >= 1, "the outage was observed");
        assert_eq!(snap.records, 9, "each change absorbed exactly once");
        assert_eq!(snap.bootstraps, 0, "resume never needed a dump");
        client.shutdown();
    }

    #[test]
    fn compacted_journal_forces_bootstrap() {
        let corpus = Corpus::generate(CorpusConfig::tiny(5));
        let wrapper: Box<dyn Wrapper> = Box::new(OmimWrapper::new(corpus.omim.clone()));
        let shared = Arc::new(RwLock::new(wrapper));
        // Cap 2: ten mutations before anyone subscribes compact the
        // journal far past a fresh subscriber's cursor.
        let journal = Arc::new(ChangeJournal::new(2));
        let server = SourceServer::spawn_shared(
            Arc::clone(&shared),
            Arc::clone(&journal),
            "127.0.0.1:0",
            ServerConfig::default(),
        )
        .unwrap();
        for step in 0..10 {
            mutate(&server, 11, step);
        }

        let sys = subscriber(&corpus);
        let mut client =
            StreamClient::spawn(Arc::clone(&sys), "OMIM", &server.addr().to_string(), fast());
        let gauges = client.gauges();
        wait_until("bootstrap dump absorbed", || {
            gauges.applied_seq.load(Ordering::Acquire) >= 10
        });
        let upstream = shared.read().unwrap().change_dump().unwrap();
        assert_eq!(omim_dump(&sys), upstream, "bootstrap converges");
        assert!(gauges.snapshot().bootstraps >= 1, "a dump was needed");
        client.shutdown();
    }

    fn omim_server(corpus: &Corpus, config: ServerConfig) -> SourceServer {
        let wrapper = Box::new(OmimWrapper::new(corpus.omim.clone()));
        SourceServer::spawn(wrapper, "127.0.0.1:0", config).unwrap()
    }

    #[test]
    fn tailer_dials_a_hostname() {
        let corpus = Corpus::generate(CorpusConfig::tiny(9));
        let server = omim_server(&corpus, ServerConfig::default());
        for step in 0..3 {
            mutate(&server, 9, step);
        }
        let sys = subscriber(&corpus);
        let addr = format!("localhost:{}", server.addr().port());
        let mut client = StreamClient::spawn(Arc::clone(&sys), "OMIM", &addr, fast());
        let gauges = client.gauges();
        wait_until("a hostname feed address to converge", || {
            gauges.applied_seq.load(Ordering::Acquire) >= 3
        });
        let upstream = server.wrapper().read().unwrap().change_dump().unwrap();
        assert_eq!(omim_dump(&sys), upstream, "tailing by hostname converges");
        client.shutdown();
    }

    #[test]
    fn corrupt_feed_frames_force_resubscribe_never_double_absorb() {
        let corpus = Corpus::generate(CorpusConfig::tiny(13));
        // The first two reply frames arrive with a flipped byte; the
        // framing checksum must catch both and the tailer re-subscribe.
        let config = ServerConfig {
            fault: FaultConfig {
                corrupt_first_replies: 2,
                ..FaultConfig::none()
            },
            ..ServerConfig::default()
        };
        let server = omim_server(&corpus, config);
        for step in 0..6 {
            mutate(&server, 13, step);
        }
        let sys = subscriber(&corpus);
        let mut client =
            StreamClient::spawn(Arc::clone(&sys), "OMIM", &server.addr().to_string(), fast());
        let gauges = client.gauges();
        wait_until("convergence despite corruption", || {
            gauges.applied_seq.load(Ordering::Acquire) >= 6
        });
        let upstream = server.wrapper().read().unwrap().change_dump().unwrap();
        assert_eq!(omim_dump(&sys), upstream, "no damaged frame was absorbed");
        let snap = gauges.snapshot();
        assert!(
            snap.resubscribes >= 2,
            "each damaged frame tears the subscription down (saw {})",
            snap.resubscribes
        );
        assert_eq!(snap.records, 6, "each change absorbed exactly once");
        assert_eq!(snap.bootstraps, 0, "resume never needed a dump");
        client.shutdown();
    }
}
