//! annoda-serve: the ANNODA Figure 5 interface served over HTTP.
//!
//! The paper presents ANNODA as a web application — a single access
//! point where a biologist fills the query form (Figure 5a), reads the
//! integrated annotation view (Figure 5b), and navigates web-links to
//! individual object views (Figure 5c). This crate turns the in-process
//! reproduction into exactly that: a network-served, observable,
//! overload-safe system — on `std::net` alone, no external
//! dependencies.
//!
//! Architecture, front to back:
//!
//! - [`http`] — bounded, *incremental* HTTP/1.1 parsing and response
//!   encoding (every response carries `Date` and `Connection`), plus
//!   the small response reader the e2e suites and examples share.
//! - [`server`] — the acceptor: one thread per accepted connection up
//!   to the connection cap, graceful drain-on-shutdown.
//! - [`conn`] — one connection's life on its thread: blocking reads
//!   into a per-connection buffer, `304`/cache hits answered first,
//!   admission control, then compute — answers strictly in order.
//! - [`cache`] — the server's epoch-keyed response cache: snapshot
//!   generation → strong `ETag`, identical reads within an epoch served
//!   as stored responses, conditional requests answered `304`, and
//!   wholesale invalidation whenever the epoch turns.
//! - [`routes`] — the Figure 5 screens as routes over a shared
//!   [`annoda::Annoda`], with `Accept`-negotiated text/JSON bodies.
//! - [`metrics`] — per-route counters, log-scale latency histograms
//!   (p50/p99 derivable), cache and shed gauges at `/metrics`.
//! - [`json`] — the crate's own RFC 8259 writer (the build is offline;
//!   no serde).
//!
//! Load generation lives outside the crate: `benchmark/` drives the
//! built `annoda-serve` binary as a child process.

pub mod cache;
pub mod conn;
pub mod http;
pub mod json;
pub mod metrics;
pub mod routes;
pub mod server;

pub use cache::{
    etag_for_deps, parse_etag, revalidate_etag, CacheGauges, CacheSnapshot, ResponseCache,
    ShardDeps,
};
pub use conn::{ShedGauges, ShedSnapshot};
pub use json::Json;
pub use metrics::Metrics;
pub use routes::{handle, negotiate, App, Format};
pub use server::{ServeConfig, Server, ShutdownReport};
