//! One connection's whole life, on its own thread: read a request,
//! answer it, write the answer, repeat.
//!
//! The thread parses ([`crate::http::try_parse`]) a per-connection
//! buffer. When the buffer holds no complete request, it blocks in one
//! plain `read` that only `SO_RCVTIMEO` (the idle timeout) bounds:
//! arriving bytes wake it at once, and shutdown wakes it with EOF by
//! shutting the socket's read half. It reads only when it needs the
//! next request: bytes a client pipelines ahead stay in the kernel, and
//! TCP pushes back.
//!
//! Each request is answered strictly in order, front to back:
//!
//! 1. **Revalidation**: a cacheable `GET` whose `If-None-Match` still
//!    matches the live generation and the live epoch vector gets
//!    `304 Not Modified` without computing.
//! 2. **Response cache**: a cacheable `GET` that hits the server's
//!    [`ResponseCache`] is answered from the stored response.
//! 3. **Admission control**: the server-wide in-flight budget and the
//!    queue-delay watermark (`in_flight × EWMA(service time)` against the
//!    target p99) shed with `503 + Retry-After` before latency explodes.
//! 4. **Compute**: [`crate::routes::handle`], and a cacheable 200 is
//!    stored for the next reader.
//!
//! Cache stamping rule: the serving generation and the shard epochs are
//! read **before** the response is computed. The response is cached
//! and tagged only if that stamp still holds **after** it was computed;
//! if a write then sat between its apply and its commit, its tag names
//! that apply window and never revalidates. A write landing
//! mid-computation would otherwise put the old tag on new bytes, and a
//! client holding the old tag for the old bytes would revalidate
//! against a body it never saw.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use crate::cache::{
    etag_for_deps, revalidate_etag, wildcard_304, CacheKey, ResponseCache, ShardDeps,
};
use crate::http::{encode_response, try_parse, Limits, Parsed, Request, RequestError, Response};
use crate::metrics::Metrics;
use crate::routes::{handle, negotiate, App};
use crate::server::ServeConfig;

/// Requests served per connection before the server closes it.
const KEEP_ALIVE_MAX_REQUESTS: usize = 100;

/// Shed counters and the admission-control state, server-wide.
#[derive(Debug, Default)]
pub struct ShedGauges {
    /// Every `503` the server sends (sum of the three causes).
    pub shed_total: AtomicU64,
    /// Connections shed at accept because `max_connections` were open.
    pub shed_connection_cap: AtomicU64,
    /// Requests shed because the in-flight budget was exhausted.
    pub shed_in_flight: AtomicU64,
    /// Requests shed because estimated queue delay exceeded the target
    /// p99.
    pub shed_queue_delay: AtomicU64,
    /// Requests computing right now.
    pub in_flight: AtomicU64,
    /// Exponentially weighted moving average of compute time,
    /// microseconds.
    pub service_ewma_us: AtomicU64,
}

/// A point-in-time copy of [`ShedGauges`] for rendering.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShedSnapshot {
    /// Every `503`.
    pub total: u64,
    /// Connection-cap sheds.
    pub connection_cap: u64,
    /// In-flight-budget sheds.
    pub in_flight_budget: u64,
    /// Queue-delay-watermark sheds.
    pub queue_delay: u64,
    /// Requests computing right now.
    pub in_flight_now: u64,
    /// EWMA of compute time, microseconds.
    pub service_ewma_us: u64,
}

impl ShedGauges {
    /// Samples every counter.
    pub fn snapshot(&self) -> ShedSnapshot {
        ShedSnapshot {
            total: self.shed_total.load(Ordering::Relaxed),
            connection_cap: self.shed_connection_cap.load(Ordering::Relaxed),
            in_flight_budget: self.shed_in_flight.load(Ordering::Relaxed),
            queue_delay: self.shed_queue_delay.load(Ordering::Relaxed),
            in_flight_now: self.in_flight.load(Ordering::Relaxed),
            service_ewma_us: self.service_ewma_us.load(Ordering::Relaxed),
        }
    }
}

/// What the acceptor and every connection thread share.
pub(crate) struct Shared {
    pub(crate) app: Arc<App>,
    pub(crate) config: ServeConfig,
    pub(crate) cache: Mutex<ResponseCache>,
}

/// One unit of a counter, given back when dropped — also when the
/// holder unwinds, so a panicking handler cannot leak a slot.
struct Slot<'a>(&'a AtomicU64);

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The `503 + Retry-After` every shed answers with.
pub(crate) fn shed_503() -> Response {
    let mut response = Response::text(503, "server busy, retry shortly\n");
    response.headers.push(("retry-after", "1".into()));
    response
}

/// Serves one accepted connection until the client closes it, it idles
/// past `read_timeout`, an answer closes it, or the server stops.
pub(crate) fn serve(mut stream: TcpStream, shared: &Shared, stop: &AtomicBool) {
    let config = &shared.config;
    let limits = Limits {
        max_head_bytes: config.max_head_bytes,
        max_body_bytes: config.max_body_bytes,
    };
    let _ = stream.set_read_timeout(Some(config.read_timeout));
    let _ = stream.set_write_timeout(Some(config.write_timeout));
    let _ = stream.set_nodelay(true);
    let mut inbuf = Vec::new();
    let mut outbuf = Vec::new();
    let mut served = 0usize;
    loop {
        let request = match try_parse(&inbuf, &limits) {
            Ok(Parsed::Complete { request, consumed }) => {
                inbuf.drain(..consumed);
                request
            }
            Ok(Parsed::NeedMore) => {
                if fill(&mut stream, &mut inbuf) {
                    continue;
                }
                return;
            }
            Err(e) => {
                let response = error_response(&e);
                // No path was parsed: the `other` route slot.
                let other = Metrics::route_index("");
                shared
                    .app
                    .metrics
                    .record(other, response.status, Duration::ZERO);
                encode_response(&mut outbuf, &response, false);
                let _ = stream.write_all(&outbuf);
                return;
            }
        };
        served += 1;
        let keep_alive = respond(&request, shared, stop, served, &mut outbuf);
        if stream.write_all(&outbuf).is_err() || !keep_alive {
            return;
        }
        outbuf.clear();
    }
}

/// Blocks until more request bytes arrive. `false` ends the connection:
/// EOF (shutdown included), a socket error, or `read_timeout` without
/// a byte.
fn fill(stream: &mut TcpStream, inbuf: &mut Vec<u8>) -> bool {
    let mut chunk = [0u8; 16 * 1024];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return false,
            Ok(n) => {
                inbuf.extend_from_slice(&chunk[..n]);
                return true;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
}

/// Encodes the answer to `req` into `out`; returns whether the
/// connection stays open after it.
fn respond(
    req: &Request,
    shared: &Shared,
    stop: &AtomicBool,
    served: usize,
    out: &mut Vec<u8>,
) -> bool {
    let app = &shared.app;
    let route = Metrics::route_index(&req.path);
    // Decided when the answer is encoded, so a drain that began while
    // it was computing still closes the connection.
    let keep_alive =
        || !req.wants_close() && served < KEEP_ALIVE_MAX_REQUESTS && !stop.load(Ordering::SeqCst);
    // The cache stamp, and the apply window it was read in: captured
    // before anything is computed.
    let generation = app.generation.load(Ordering::Acquire);
    let window = app.pending.load(Ordering::Acquire);
    // `If-None-Match: *` answers a tagged 200 as a 304 with its tag.
    let wildcard = |response: &Response| {
        let not_modified = wildcard_304(req.header("if-none-match"), response);
        if not_modified.is_some() {
            app.http_cache.not_modified.fetch_add(1, Ordering::Relaxed);
        }
        not_modified
    };

    let mut cache_key = None;
    if let (true, Some(format)) = (cacheable(req), negotiate(req.header("accept"))) {
        // Dep-stamped entries and ETags validate against the live epoch
        // vector without the system lock.
        let epochs = Arc::clone(&app.epochs.read());
        if let Some(etag) = req
            .header("if-none-match")
            .and_then(|h| revalidate_etag(h, generation, Some(&epochs)))
        {
            app.http_cache.not_modified.fetch_add(1, Ordering::Relaxed);
            app.metrics.record(route, 304, Duration::ZERO);
            let keep_alive = keep_alive();
            encode_response(out, &Response::not_modified(&etag), keep_alive);
            return keep_alive;
        }
        let key = CacheKey {
            target: request_target(req),
            format,
        };
        let mut cache = shared.cache.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(cached) = cache.lookup(&key, generation, Some(&epochs)) {
            let not_modified = wildcard(cached);
            let answer = not_modified.as_ref().unwrap_or(cached);
            app.metrics.record(route, answer.status, Duration::ZERO);
            let keep_alive = keep_alive();
            encode_response(out, answer, keep_alive);
            return keep_alive;
        }
        cache_key = Some((key, epochs));
    }

    // Admission control — shed before computing, not after.
    let shed = &app.shed;
    let ahead = shed.in_flight.fetch_add(1, Ordering::SeqCst);
    let slot = Slot(&shed.in_flight);
    let ewma = shed.service_ewma_us.load(Ordering::Relaxed);
    let cause = if ahead >= shared.config.max_in_flight.max(1) as u64 {
        Some(&shed.shed_in_flight)
    } else if ewma > 0 && ahead * ewma > shared.config.target_p99.as_micros() as u64 {
        Some(&shed.shed_queue_delay)
    } else {
        None
    };
    if let Some(cause) = cause {
        cause.fetch_add(1, Ordering::Relaxed);
        shed.shed_total.fetch_add(1, Ordering::Relaxed);
        app.metrics.record(route, 503, Duration::ZERO);
        let keep_alive = keep_alive();
        encode_response(out, &shed_503(), keep_alive);
        return keep_alive;
    }

    if !shared.config.handler_delay.is_zero() {
        thread::sleep(shared.config.handler_delay);
    }
    let t0 = Instant::now();
    let mut response = handle(app, req);
    let elapsed = t0.elapsed();
    drop(slot);
    let us = u64::try_from(elapsed.as_micros())
        .unwrap_or(u64::MAX)
        .clamp(1, 3_600_000_000);
    let prev = shed.service_ewma_us.load(Ordering::Relaxed);
    let next = if prev == 0 { us } else { (prev * 7 + us) / 8 };
    shed.service_ewma_us.store(next, Ordering::Relaxed);

    // Cache a successful answer whose stamp and apply window both held.
    // One computed inside a window (between a write's apply and its
    // commit) is ahead of the stamp, which the commit moves: its tag
    // names the window and never revalidates. Windows are never reused,
    // so an unchanged one means the sources did not move meanwhile. The
    // window is read first: a commit moves the stamp before closing it.
    // An answer without shard deps is never cached.
    let held = app.pending.load(Ordering::Acquire) == window
        && app.generation.load(Ordering::Acquire) == generation;
    let cached = cache_key
        .filter(|_| response.status == 200 && held)
        .and_then(|(key, epochs)| {
            let deps = ShardDeps::new(response.shards?, &epochs);
            deps.current(&app.epochs.read()).then_some((key, deps))
        });
    if let Some((_, deps)) = &cached {
        let etag = etag_for_deps(generation, Some(*deps), window);
        response.headers.push(("etag", etag));
    }
    let not_modified = wildcard(&response);
    let answer = not_modified.as_ref().unwrap_or(&response);
    app.metrics.record(route, answer.status, elapsed);
    let keep_alive = keep_alive();
    encode_response(out, answer, keep_alive);
    if let Some((key, deps)) = cached {
        let mut cache = shared.cache.lock().unwrap_or_else(|p| p.into_inner());
        cache.insert(key, generation, Some(deps), response);
    }
    keep_alive
}

/// Whether a request may be served from / stored into the response
/// cache: `GET` on the snapshot-derived read routes. Reads pinned to a
/// replication position (`min_position`) are answered against the
/// node's feed positions, not the serving epoch the cache is keyed by,
/// so they always compute.
fn cacheable(req: &Request) -> bool {
    req.method == "GET"
        && (req.path == "/genes" || req.path == "/search" || req.path.starts_with("/object/"))
        && !req.query.contains(crate::routes::GATE_PARAM)
}

/// The cache identity of a request target (path plus raw query).
fn request_target(req: &Request) -> String {
    if req.query.is_empty() {
        req.path.clone()
    } else {
        format!("{}?{}", req.path, req.query)
    }
}

fn error_response(e: &RequestError) -> Response {
    match e {
        RequestError::HeadTooLarge => Response::text(431, "error: request head too large\n"),
        RequestError::BodyTooLarge => Response::text(413, "error: request body too large\n"),
        RequestError::Malformed(msg) => Response::text(400, format!("error: {msg}\n")),
    }
}
