//! The harness's side of `reads_under_writes`: it *is* the LocusLink
//! source. A mutator thread revises one record per tick on an
//! open-loop schedule (sources change on their own clock) and journals
//! it; a session thread speaks the change-feed protocol to the SUT's
//! tailer and notes when each sequence is acknowledged.
//!
//! The feed is hosted here over `annoda_federation::proto` and the real
//! `ChangeJournal` rather than through `SourceServer`, because the ack
//! — the moment the SUT has absorbed a record — is only observable to
//! whoever owns the server end of the subscription.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use annoda_federation::proto::{self, Message};
use annoda_federation::{ChangeJournal, ChangeRecord};
use annoda_sources::LocusLinkDb;
use annoda_wrap::{scripted_mutation, LocusLinkWrapper};

const SOURCE: &str = "LocusLink";
/// Records shipped per batch (the source-server's own limit).
const BATCH_MAX: usize = 512;

/// An open-loop schedule: tick `k` is due at `start + k × interval`,
/// whatever happened to earlier ticks.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub start: Instant,
    pub interval: Duration,
}

impl Schedule {
    pub fn due(&self, k: u64) -> Instant {
        self.start + self.interval.mul_f64(k as f64)
    }
}

/// One journaled revision.
#[derive(Debug, Clone)]
pub struct Mutation {
    /// Its sequence in the change journal (1-based).
    pub seq: u64,
    /// When the schedule said it should happen.
    pub due: Instant,
    /// When it was actually journaled.
    pub sent: Instant,
    pub locus_id: u32,
    /// The description the record carries from this revision on.
    pub description: String,
}

impl Mutation {
    /// Due time → acknowledged. Timed from when the change was *due*,
    /// so a stalled generator or a stalled SUT both show as delay.
    pub fn visible_after(&self, acked: Instant) -> Duration {
        acked.saturating_duration_since(self.due)
    }

    /// How late the generator ran.
    pub fn late_by(&self) -> Duration {
        self.sent.saturating_duration_since(self.due)
    }
}

#[derive(Default)]
struct Log {
    mutations: Vec<Mutation>,
    /// `(acked sequence, when)`, strictly increasing in sequence.
    acks: Vec<(u64, Instant)>,
    /// Journal head minus last ack, sampled at every append.
    lag_samples: Vec<u64>,
}

/// What the feed saw.
pub struct FeedReport {
    pub mutations: Vec<Mutation>,
    acks: Vec<(u64, Instant)>,
    pub lag_samples: Vec<u64>,
}

impl FeedReport {
    /// When the SUT acknowledged `seq` (the first ack at or past it).
    pub fn acked_at(&self, seq: u64) -> Option<Instant> {
        let i = self.acks.partition_point(|&(s, _)| s < seq);
        self.acks.get(i).map(|&(_, t)| t)
    }
}

/// The running feed: listener, session thread, mutator thread.
pub struct Feed {
    pub addr: SocketAddr,
    stop: Arc<AtomicBool>,
    log: Arc<Mutex<Log>>,
    journal: Arc<ChangeJournal>,
    last_acked: Arc<AtomicU64>,
    threads: Vec<JoinHandle<()>>,
}

impl Feed {
    /// Binds the feed; nothing is journaled until [`Feed::mutate`].
    pub fn bind() -> io::Result<Feed> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let log = Arc::new(Mutex::new(Log::default()));
        let journal = Arc::new(ChangeJournal::new(1 << 16));
        let last_acked = Arc::new(AtomicU64::new(0));

        let session = {
            let (stop, log, journal, last_acked) = (
                Arc::clone(&stop),
                Arc::clone(&log),
                Arc::clone(&journal),
                Arc::clone(&last_acked),
            );
            std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    match listener.accept() {
                        Ok((conn, _)) => serve_session(conn, &journal, &log, &last_acked, &stop),
                        Err(_) => std::thread::sleep(Duration::from_millis(2)),
                    }
                }
            })
        };
        Ok(Feed {
            addr,
            stop,
            log,
            journal,
            last_acked,
            threads: vec![session],
        })
    }

    /// Starts revising `db` on `schedule`, one scripted mutation per
    /// tick (deterministic under `seed`), for every tick due before
    /// `until`.
    pub fn mutate(&mut self, db: LocusLinkDb, seed: u64, schedule: Schedule, until: Instant) {
        let (stop, log, journal, last_acked) = (
            Arc::clone(&self.stop),
            Arc::clone(&self.log),
            Arc::clone(&self.journal),
            Arc::clone(&self.last_acked),
        );
        self.threads.push({
            std::thread::spawn(move || {
                let mut wrapper = LocusLinkWrapper::new(db);
                for k in 0.. {
                    let due = schedule.due(k);
                    if due >= until {
                        return;
                    }
                    while Instant::now() < due {
                        if stop.load(Ordering::SeqCst) {
                            return;
                        }
                        std::thread::sleep(
                            due.saturating_duration_since(Instant::now())
                                .min(Duration::from_millis(20)),
                        );
                    }
                    let (key, flat) =
                        scripted_mutation(&mut wrapper, seed, k).expect("LocusLink is scriptable");
                    let locus_id: u32 = key.parse().expect("LocusLink keys are locus ids");
                    let description = wrapper
                        .db()
                        .by_id(locus_id)
                        .expect("just revised")
                        .description
                        .clone();
                    // Journal and log under one lock so an ack can never
                    // name a sequence the log has not recorded yet.
                    let mut log = log.lock().expect("feed log");
                    let seq = journal.append(ChangeRecord {
                        key,
                        flat: Some(flat),
                    });
                    log.lag_samples
                        .push(seq - last_acked.load(Ordering::Acquire).min(seq));
                    log.mutations.push(Mutation {
                        seq,
                        due,
                        sent: Instant::now(),
                        locus_id,
                        description,
                    });
                }
            })
        });
    }

    /// Every description `locus_id` has carried since the run began
    /// (its journaled revisions; the original is the caller's).
    pub fn revisions(&self, locus_id: u32) -> Vec<String> {
        let log = self.log.lock().expect("feed log");
        log.mutations
            .iter()
            .filter(|m| m.locus_id == locus_id)
            .map(|m| m.description.clone())
            .collect()
    }

    /// Highest sequence the SUT has acknowledged.
    pub fn acked_seq(&self) -> u64 {
        self.last_acked.load(Ordering::Acquire)
    }

    /// Sequences journaled so far.
    pub fn head_seq(&self) -> u64 {
        self.log
            .lock()
            .expect("feed log")
            .mutations
            .last()
            .map_or(0, |m| m.seq)
    }

    /// What the feed has recorded so far.
    pub fn report(&self) -> FeedReport {
        let log = self.log.lock().expect("feed log");
        FeedReport {
            mutations: log.mutations.clone(),
            acks: log.acks.clone(),
            lag_samples: log.lag_samples.clone(),
        }
    }

    /// Stops and joins both threads. Call it after the SUT has stopped:
    /// a tailer whose feed is gone spins on reconnects.
    pub fn finish(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Waits until a frame starts arriving, the peer leaves, or `stop`.
fn readable(conn: &TcpStream, stop: &AtomicBool) -> bool {
    let mut probe = [0u8; 1];
    loop {
        if stop.load(Ordering::SeqCst) {
            return false;
        }
        match conn.peek(&mut probe) {
            Ok(0) => return false,
            Ok(_) => return true,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) => {}
            Err(_) => return false,
        }
    }
}

/// One subscriber session: the ack-driven loop of the source-server.
fn serve_session(
    mut conn: TcpStream,
    journal: &ChangeJournal,
    log: &Mutex<Log>,
    last_acked: &AtomicU64,
    stop: &AtomicBool,
) {
    let _ = conn.set_nonblocking(false);
    let _ = conn.set_nodelay(true);
    let _ = conn.set_read_timeout(Some(Duration::from_millis(50)));
    let _ = conn.set_write_timeout(Some(Duration::from_secs(5)));
    if !readable(&conn, stop)
        || proto::expect_hello(&mut conn).is_err()
        || proto::send_hello(&mut conn).is_err()
    {
        return;
    }
    while readable(&conn, stop) {
        let reply = match proto::recv(&mut conn) {
            Ok(Message::SubscribeSource { source, .. }) if source == SOURCE => {
                let w = journal.window();
                Message::FeedStatus {
                    source,
                    tail: w.tail,
                    head: w.head,
                }
            }
            Ok(Message::ChangeAck { seq }) => {
                let now = Instant::now();
                if seq > last_acked.load(Ordering::Acquire) {
                    log.lock().expect("feed log").acks.push((seq, now));
                    last_acked.store(seq, Ordering::Release);
                }
                let Some(entries) = journal.replay_from(seq + 1, BATCH_MAX) else {
                    return; // the journal never compacts within a run
                };
                Message::ChangeBatch {
                    seq: entries.last().map_or(seq, |(s, _)| *s),
                    bootstrap: false,
                    records: entries.into_iter().map(|(_, rec)| rec).collect(),
                }
            }
            _ => return,
        };
        if proto::send(&mut conn, &reply).is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_times_from_the_due_instant_not_the_send_instant() {
        let start = Instant::now();
        let schedule = Schedule {
            start,
            interval: Duration::from_millis(100),
        };
        assert_eq!(schedule.due(0), start);
        assert_eq!(schedule.due(7), start + Duration::from_millis(700));
        // Tick 3 was due at 300 ms but the generator stalled and only
        // journaled it at 450 ms; the SUT acked at 500 ms. The record
        // was invisible for 200 ms, not 50.
        let m = Mutation {
            seq: 4,
            due: schedule.due(3),
            sent: start + Duration::from_millis(450),
            locus_id: 1000,
            description: String::new(),
        };
        assert_eq!(
            m.visible_after(start + Duration::from_millis(500)),
            Duration::from_millis(200)
        );
        assert_eq!(m.late_by(), Duration::from_millis(150));
        // Later ticks keep their own due times: no drift accumulates.
        assert_eq!(schedule.due(4), start + Duration::from_millis(400));
    }

    #[test]
    fn an_ack_covers_every_sequence_at_or_below_it() {
        let t = Instant::now();
        let report = FeedReport {
            mutations: Vec::new(),
            acks: vec![(2, t), (5, t + Duration::from_millis(10))],
            lag_samples: Vec::new(),
        };
        assert_eq!(report.acked_at(1), Some(t));
        assert_eq!(report.acked_at(2), Some(t));
        assert_eq!(report.acked_at(3), Some(t + Duration::from_millis(10)));
        assert_eq!(report.acked_at(6), None);
    }
}
