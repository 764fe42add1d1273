//! `RemoteWrapper` — a [`Wrapper`] whose source lives across a socket.
//!
//! Drop-in for the in-process wrappers: the mediator plans, decomposes,
//! fuses, and cost-accounts identically, because the client ships back
//! the *server-side* cost meter and the canonically-encoded result
//! fragment (same bytes the WAL would journal, same oid order, so
//! fusion's output is byte-identical to the in-process run).
//!
//! What the wire adds, this layer absorbs:
//!
//! * **deadlines** — every socket operation carries a timeout, so a hung
//!   peer costs a bounded wait, never a stuck mediator thread;
//! * **bounded retries with jittered exponential backoff** — transport
//!   losses (and only those: refusals are answers) are retried a fixed
//!   number of times with deterministic, seed-derived jitter;
//! * **a per-source circuit breaker** — a source that keeps failing
//!   fast-fails locally for a cooldown instead of costing a full
//!   deadline per question (see [`crate::breaker`]);
//! * **connection reuse** — idle connections return to a pool, so one
//!   mediator batch issuing several subqueries to one source pays one
//!   handshake, not three.

use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use annoda_lorel::LorelError;
use annoda_oem::OemStore;
use annoda_wrap::{Cost, SourceDescription, SubqueryResult, WrapError, Wrapper};

use crate::breaker::{BreakerConfig, BreakerState, CircuitBreaker};
use crate::proto::{self, Message, ProtoError, RefusalKind};
use crate::session::dial;

/// Client tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientConfig {
    /// TCP connect deadline.
    pub connect_timeout: Duration,
    /// Per-socket-operation deadline for requests (read and write).
    pub request_timeout: Duration,
    /// Transport retries after the first attempt (2 ⇒ ≤ 3 attempts).
    pub retries: u32,
    /// First backoff; doubles per retry.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// Seed for the deterministic backoff jitter.
    pub jitter_seed: u64,
    /// Circuit-breaker tuning.
    pub breaker: BreakerConfig,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_secs(1),
            request_timeout: Duration::from_secs(5),
            retries: 2,
            backoff_base: Duration::from_millis(20),
            backoff_cap: Duration::from_millis(500),
            jitter_seed: 0x5eed,
            breaker: BreakerConfig::default(),
        }
    }
}

impl ClientConfig {
    /// Equal-jitter exponential backoff before retry `attempt`
    /// (1-based): half the capped exponential plus a deterministic
    /// uniform draw over the other half, keyed by `(seed, nonce,
    /// attempt)` so two concurrent subqueries do not thundering-herd in
    /// lockstep.
    pub fn backoff(&self, attempt: u32, nonce: u64) -> Duration {
        let exp = self
            .backoff_base
            .saturating_mul(1u32 << attempt.min(16).saturating_sub(1))
            .min(self.backoff_cap);
        let half = exp / 2;
        let span = half.as_nanos() as u64;
        let jitter = if span == 0 {
            0
        } else {
            mix64(self.jitter_seed ^ nonce, u64::from(attempt)) % (span + 1)
        };
        half + Duration::from_nanos(jitter)
    }
}

/// SplitMix64 step — deterministic jitter source.
fn mix64(seed: u64, n: u64) -> u64 {
    let mut z = seed
        .wrapping_add(n.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Lifetime counters for one remote source, shared with metrics.
#[derive(Debug, Default)]
pub struct RemoteStats {
    /// Requests issued (top-level, not counting retries).
    pub requests: AtomicU64,
    /// Retry attempts taken after transport losses.
    pub retries: AtomicU64,
    /// Transport-level failures observed (per attempt).
    pub transport_errors: AtomicU64,
    /// Answered refusals (query errors, capability misses).
    pub refusals: AtomicU64,
    /// Times the circuit breaker opened.
    pub breaker_opens: AtomicU64,
    /// Requests fast-failed by an open breaker without touching the wire.
    pub fast_failures: AtomicU64,
    /// Total measured wall-clock across successful subqueries, µs.
    pub wall_us_total: AtomicU64,
    /// Wall-clock of the most recent successful subquery, µs.
    pub last_wall_us: AtomicU64,
}

/// A point-in-time copy of [`RemoteStats`] plus the breaker state, for
/// `/metrics`-style reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RemoteStatsSnapshot {
    /// Requests issued (top-level, not counting retries).
    pub requests: u64,
    /// Retry attempts taken after transport losses.
    pub retries: u64,
    /// Transport-level failures observed (per attempt).
    pub transport_errors: u64,
    /// Answered refusals.
    pub refusals: u64,
    /// Times the circuit breaker opened.
    pub breaker_opens: u64,
    /// Requests fast-failed by an open breaker.
    pub fast_failures: u64,
    /// Total measured wall-clock across successful subqueries, µs.
    pub wall_us_total: u64,
    /// Wall-clock of the most recent successful subquery, µs.
    pub last_wall_us: u64,
    /// Breaker state at snapshot time.
    pub breaker: BreakerState,
}

/// A [`Wrapper`] over a source-server reached via the AFED protocol.
pub struct RemoteWrapper {
    addr: String,
    descr: SourceDescription,
    oml: OemStore,
    config: ClientConfig,
    pool: Mutex<Vec<TcpStream>>,
    breaker: CircuitBreaker,
    stats: Arc<RemoteStats>,
}

impl RemoteWrapper {
    /// Connects to a source-server: handshake, Describe, FetchOml. The
    /// returned wrapper plugs into the mediator like any local one.
    pub fn connect(addr: &str, config: ClientConfig) -> Result<RemoteWrapper, ProtoError> {
        let mut wrapper = RemoteWrapper {
            addr: addr.to_string(),
            descr: SourceDescription::remote("", "", ""),
            oml: OemStore::new(),
            config,
            pool: Mutex::new(Vec::new()),
            breaker: CircuitBreaker::new(config.breaker),
            stats: Arc::new(RemoteStats::default()),
        };
        wrapper.descr = match wrapper.raw_request(&Message::Describe)? {
            Message::Description(d) => d,
            other => {
                return Err(ProtoError::Frame(format!(
                    "expected Description, got {other:?}"
                )))
            }
        };
        wrapper.oml = match wrapper.raw_request(&Message::FetchOml)? {
            Message::Oml(store) => store,
            other => return Err(ProtoError::Frame(format!("expected Oml, got {other:?}"))),
        };
        Ok(wrapper)
    }

    /// The server address this wrapper talks to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The counters plus breaker state, copied now.
    pub fn stats_snapshot(&self) -> RemoteStatsSnapshot {
        let s = &self.stats;
        RemoteStatsSnapshot {
            requests: s.requests.load(Ordering::Relaxed),
            retries: s.retries.load(Ordering::Relaxed),
            transport_errors: s.transport_errors.load(Ordering::Relaxed),
            refusals: s.refusals.load(Ordering::Relaxed),
            breaker_opens: s.breaker_opens.load(Ordering::Relaxed),
            fast_failures: s.fast_failures.load(Ordering::Relaxed),
            wall_us_total: s.wall_us_total.load(Ordering::Relaxed),
            last_wall_us: s.last_wall_us.load(Ordering::Relaxed),
            breaker: self.breaker.state(),
        }
    }

    /// The breaker's current state.
    pub fn breaker_state(&self) -> BreakerState {
        self.breaker.state()
    }

    /// Liveness probe (counts as a breaker-visible request).
    pub fn ping(&self) -> Result<(), WrapError> {
        match self.request(&Message::Ping)? {
            Message::Pong => Ok(()),
            other => Err(WrapError::Transport(format!(
                "{}: expected Pong, got {other:?}",
                self.addr
            ))),
        }
    }

    /// One request/response exchange with retries — no breaker. Used
    /// during connect (before the wrapper is fully built) and by the
    /// breaker-guarded [`RemoteWrapper::request`].
    fn raw_request(&self, msg: &Message) -> Result<Message, ProtoError> {
        let nonce = self.stats.requests.fetch_add(1, Ordering::Relaxed);
        let mut attempt = 0u32;
        loop {
            let outcome = self.attempt_once(msg);
            match outcome {
                Ok(reply) => return Ok(reply),
                Err(e) => {
                    self.stats.transport_errors.fetch_add(1, Ordering::Relaxed);
                    if attempt >= self.config.retries {
                        return Err(e);
                    }
                    attempt += 1;
                    self.stats.retries.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(self.config.backoff(attempt, nonce));
                }
            }
        }
    }

    /// One attempt: reuse a pooled connection or dial, exchange one
    /// frame, return the connection to the pool on success.
    fn attempt_once(&self, msg: &Message) -> Result<Message, ProtoError> {
        let pooled = self.pool.lock().expect("pool lock").pop();
        let mut conn = match pooled {
            Some(conn) => conn,
            None => dial(
                &self.addr,
                self.config.connect_timeout,
                self.config.request_timeout,
            )?,
        };
        proto::send(&mut conn, msg)?;
        let reply = proto::recv(&mut conn)?;
        self.pool.lock().expect("pool lock").push(conn);
        Ok(reply)
    }

    /// A breaker-guarded request. Transport losses (after retries)
    /// count against the breaker; any answered reply resets it.
    fn request(&self, msg: &Message) -> Result<Message, WrapError> {
        if let Err(remaining) = self.breaker.try_acquire() {
            self.stats.fast_failures.fetch_add(1, Ordering::Relaxed);
            return Err(WrapError::Transport(format!(
                "{} circuit open ({}ms cooldown remaining)",
                self.descr.name,
                remaining.as_millis()
            )));
        }
        match self.raw_request(msg) {
            Ok(reply) => {
                self.breaker.record_success();
                Ok(reply)
            }
            Err(e) => {
                if self.breaker.record_failure() {
                    self.stats.breaker_opens.fetch_add(1, Ordering::Relaxed);
                }
                Err(WrapError::Transport(format!("{}: {e}", self.descr.name)))
            }
        }
    }
}

impl Wrapper for RemoteWrapper {
    fn description(&self) -> &SourceDescription {
        &self.descr
    }

    fn oml(&self) -> &OemStore {
        &self.oml
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    /// Asks the server to re-export from its native database and swaps
    /// in the refreshed model. On transport failure the cached model is
    /// kept — a stale answer beats no answer, which is the same
    /// degradation the mediator applies source-wide.
    fn refresh(&mut self) -> usize {
        match self.request(&Message::Refresh) {
            Ok(Message::Refreshed { objects, oml }) => {
                self.oml = oml;
                objects as usize
            }
            _ => self.oml.len(),
        }
    }

    /// Ships the subquery to the source-server. Charges the meter with
    /// the *server-side* cost (so virtual accounting matches an
    /// in-process run exactly) plus the measured round-trip wall-clock
    /// in [`Cost::wall_us`].
    fn subquery(&self, lorel: &str, cost: &mut Cost) -> Result<SubqueryResult, WrapError> {
        let start = Instant::now();
        match self.request(&Message::Subquery(lorel.to_string()))? {
            Message::SubqueryOk(res) => {
                let wall_us = start.elapsed().as_micros() as u64;
                self.stats
                    .wall_us_total
                    .fetch_add(wall_us, Ordering::Relaxed);
                self.stats.last_wall_us.store(wall_us, Ordering::Relaxed);
                let mut shipped = res.cost;
                // The server's meter measured *its* wall; the client's
                // round trip subsumes it.
                shipped.wall_us = wall_us;
                *cost += shipped;
                Ok(res.into_subquery_result())
            }
            Message::SubqueryErr { kind, message } => {
                self.stats.refusals.fetch_add(1, Ordering::Relaxed);
                Err(match kind {
                    RefusalKind::Query => WrapError::Query(LorelError::Eval(message)),
                    RefusalKind::Unsupported => WrapError::Unsupported(message),
                })
            }
            other => Err(WrapError::Transport(format!(
                "{}: unexpected reply {other:?}",
                self.descr.name
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_bounded_and_growing() {
        let c = ClientConfig {
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(100),
            jitter_seed: 7,
            ..ClientConfig::default()
        };
        for attempt in 1..=6 {
            let d = c.backoff(attempt, 0);
            assert_eq!(d, c.backoff(attempt, 0), "deterministic");
            let exp = Duration::from_millis(10)
                .saturating_mul(1 << (attempt - 1))
                .min(Duration::from_millis(100));
            assert!(d >= exp / 2 && d <= exp, "attempt {attempt}: {d:?}");
        }
        // Different nonces de-correlate concurrent retries.
        assert_ne!(c.backoff(3, 1), c.backoff(3, 2));
        // Cap holds for absurd attempt numbers.
        assert!(c.backoff(40, 0) <= Duration::from_millis(100));
    }

    #[test]
    fn connect_refused_is_a_proto_error() {
        // Port 1 on localhost is essentially never listening.
        let err = RemoteWrapper::connect(
            "127.0.0.1:1",
            ClientConfig {
                connect_timeout: Duration::from_millis(200),
                retries: 0,
                backoff_base: Duration::ZERO,
                ..ClientConfig::default()
            },
        );
        assert!(err.is_err());
    }
}
