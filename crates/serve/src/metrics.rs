//! Request metrics: per-route counters, fixed log-scale latency
//! histograms with derivable p50/p99, the response cache and shed
//! gauges, and every subsystem's stats —
//! stated once, as one table of [`Row`]s grouped into [`Section`]s, and
//! rendered from that table as a Prometheus-style text exposition or as
//! JSON (for negotiating clients).
//!
//! Adding a gauge is one [`Row`] in the section builder of the
//! subsystem that owns the value; both renderings pick it up.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use annoda::{PersistStats, ReplStats, SearchStats, ShardGauges, SnapshotInfo, TxnStats};
use annoda_federation::RemoteStatsSnapshot;
use annoda_mediator::CacheStats;
use annoda_stream::FeedSnapshot;

use crate::cache::CacheSnapshot;
use crate::conn::ShedSnapshot;
use crate::json::Json;

/// The routes the server distinguishes, plus a catch-all.
pub const ROUTES: [&str; 8] = [
    "genes", "lorel", "search", "object", "healthz", "metrics", "admin", "other",
];

/// One fact on `/metrics`: its series (name and labels) in the text
/// exposition, its key in the JSON tree, and its value. The two names
/// are history, not a rule — `_total` exists only in text,
/// `annoda_store_clones_total` sits under `snapshot`, an enum is
/// one-hot series in text and one string in JSON — so every row spells
/// both; an empty name leaves the row out of that rendering.
pub struct Row {
    text: String,
    json: &'static str,
    /// `Int` for counters and gauges. The exposition prints a `Bool` as
    /// `0`/`1` and a `Float` with four decimals; a `Str` is JSON-only.
    value: Json,
}

fn both_as(text: impl Into<String>, json: &'static str, value: Json) -> Row {
    let text = text.into();
    Row { text, json, value }
}

fn int(value: impl TryInto<i64>) -> Json {
    Json::Int(value.try_into().unwrap_or(i64::MAX))
}

fn both(text: impl Into<String>, json: &'static str, value: impl TryInto<i64>) -> Row {
    both_as(text, json, int(value))
}

fn text_only(text: impl Into<String>, value: impl TryInto<i64>) -> Row {
    both(text, "", value)
}

fn json_only(json: &'static str, value: Json) -> Row {
    both_as("", json, value)
}

/// How a [`Section`] appears in its parent's JSON object.
enum Shape {
    /// An object: the rows, then the children under their keys.
    Object,
    /// An array of the children, each an object (their keys unused).
    Array,
    /// The subsystem is off: `null` in JSON, nothing in text.
    Absent,
}

/// A run of rows that is also one node of the JSON tree: the text
/// exposition prints a section's rows and then its children's, depth
/// first; JSON nests the children under their keys. `/metrics` is one
/// such tree ([`Metrics::tree`]).
pub struct Section {
    key: String,
    rows: Vec<Row>,
    children: Vec<Section>,
    shape: Shape,
}

impl Section {
    fn new(key: &str, rows: Vec<Row>, children: Vec<Section>) -> Section {
        Section {
            key: key.to_string(),
            rows,
            children,
            shape: Shape::Object,
        }
    }

    /// `rows` under `key`, or JSON `null` (and no text) for `None`.
    fn optional(key: &str, rows: Option<Vec<Row>>) -> Section {
        let shape = match rows {
            Some(_) => Shape::Object,
            None => Shape::Absent,
        };
        Section {
            shape,
            ..Section::new(key, rows.unwrap_or_default(), Vec::new())
        }
    }

    fn write_text(&self, out: &mut String) {
        for row in self.rows.iter().filter(|row| !row.text.is_empty()) {
            let series = &row.text;
            let _ = match &row.value {
                Json::Bool(flag) => writeln!(out, "{series} {}", u8::from(*flag)),
                Json::Float(x) => writeln!(out, "{series} {x:.4}"),
                value => writeln!(out, "{series} {}", value.to_text()),
            };
        }
        for child in &self.children {
            child.write_text(out);
        }
    }

    /// The members of this section's JSON object, in order.
    fn members(&self) -> Vec<(String, Json)> {
        let rows = self.rows.iter().filter(|row| !row.json.is_empty());
        let mut members: Vec<(String, Json)> = rows
            .map(|row| (row.json.to_string(), row.value.clone()))
            .collect();
        for child in &self.children {
            let object = |section: &Section| Json::Obj(section.members());
            let value = match child.shape {
                Shape::Object => object(child),
                Shape::Array => Json::Arr(child.children.iter().map(object).collect()),
                Shape::Absent => Json::Null,
            };
            members.push((child.key.clone(), value));
        }
        members
    }

    /// The text exposition (Prometheus style).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        self.write_text(&mut out);
        out
    }

    /// The same tree as a JSON value.
    pub fn render_json(&self) -> Json {
        let mut members = self.members();
        // The one place the two orders differ: the exposition has always
        // printed the store block between search and replication, the
        // JSON tree has always closed with it.
        members.sort_by_key(|(key, _)| key == "store");
        Json::Obj(members)
    }
}

/// Histogram bucket upper bounds, microseconds — fixed log scale
/// (powers of two from 64 µs to ~33.5 s), so p50/p99 are derivable
/// with bounded relative error at any latency magnitude.
const BUCKETS_US: [u64; 20] = [
    1 << 6,
    1 << 7,
    1 << 8,
    1 << 9,
    1 << 10,
    1 << 11,
    1 << 12,
    1 << 13,
    1 << 14,
    1 << 15,
    1 << 16,
    1 << 17,
    1 << 18,
    1 << 19,
    1 << 20,
    1 << 21,
    1 << 22,
    1 << 23,
    1 << 24,
    1 << 25,
];

#[derive(Default)]
struct Histogram {
    /// One counter per bound in [`BUCKETS_US`] plus the +Inf bucket.
    buckets: [AtomicU64; BUCKETS_US.len() + 1],
    sum_us: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    fn observe(&self, us: u64) {
        let idx = BUCKETS_US
            .iter()
            .position(|&bound| us <= bound)
            .unwrap_or(BUCKETS_US.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// The `p`-quantile (0..=1) as a bucket upper bound, microseconds —
    /// the smallest bound whose cumulative count covers `p` of the
    /// observations. Observations past the last bound report the last
    /// bound. `0` when empty.
    fn quantile_us(&self, p: f64) -> u64 {
        let count = self.count.load(Ordering::Relaxed);
        if count == 0 {
            return 0;
        }
        let rank = (count as f64 * p).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (bound, bucket) in BUCKETS_US.iter().zip(&self.buckets) {
            cumulative += bucket.load(Ordering::Relaxed);
            if cumulative >= rank {
                return *bound;
            }
        }
        BUCKETS_US[BUCKETS_US.len() - 1]
    }
}

#[derive(Default)]
struct RouteMetrics {
    requests: AtomicU64,
    /// Responses with status >= 400.
    errors: AtomicU64,
    latency: Histogram,
}

/// All counters the server maintains.
#[derive(Default)]
pub struct Metrics {
    routes: [RouteMetrics; ROUTES.len()],
    connections: AtomicU64,
}

impl Metrics {
    /// The metrics slot for a request path.
    pub fn route_index(path: &str) -> usize {
        let key = match path {
            "/genes" => "genes",
            "/lorel" => "lorel",
            "/search" => "search",
            "/healthz" => "healthz",
            "/metrics" => "metrics",
            p if p.starts_with("/object/") || p == "/object" => "object",
            p if p.starts_with("/admin/") || p == "/admin" => "admin",
            _ => "other",
        };
        ROUTES.iter().position(|r| *r == key).expect("known key")
    }

    /// Records one served request.
    pub fn record(&self, route_index: usize, status: u16, latency: Duration) {
        let route = &self.routes[route_index];
        route.requests.fetch_add(1, Ordering::Relaxed);
        if status >= 400 {
            route.errors.fetch_add(1, Ordering::Relaxed);
        }
        route
            .latency
            .observe(u64::try_from(latency.as_micros()).unwrap_or(u64::MAX));
    }

    /// Records an accepted connection.
    pub fn record_connection(&self) {
        self.connections.fetch_add(1, Ordering::Relaxed);
    }

    /// Total requests served across routes.
    pub fn requests_total(&self) -> u64 {
        self.routes
            .iter()
            .map(|r| r.requests.load(Ordering::Relaxed))
            .sum()
    }

    /// The whole `/metrics` tree: the connection row at its top level,
    /// then `sections` in exposition order.
    pub fn tree(&self, sections: Vec<Section>) -> Section {
        let connections = self.connections.load(Ordering::Relaxed);
        let rows = vec![both("annoda_connections_total", "connections", connections)];
        Section::new("", rows, sections)
    }

    /// Per-route counters and latency. The cumulative histogram buckets
    /// are text-only; JSON carries the derived quantiles.
    #[rustfmt::skip] // a table: one fact per line
    pub fn route_sections(&self) -> Section {
        let routes = ROUTES.iter().zip(&self.routes).map(|(name, route)| {
            let t = |series: &str, labels: &str| format!("{series}{{route=\"{name}\"{labels}}}");
            let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
            let latency = &route.latency;
            let mut rows = vec![
                both(t("annoda_requests_total", ""), "requests", load(&route.requests)),
                both(t("annoda_errors_total", ""),   "errors",   load(&route.errors)),
            ];
            let mut cumulative = 0u64;
            for (i, bucket) in latency.buckets.iter().enumerate() {
                cumulative += load(bucket);
                let le = BUCKETS_US.get(i).map_or("+Inf".to_string(), u64::to_string);
                let bucket = t("annoda_latency_us_bucket", &format!(",le=\"{le}\""));
                rows.push(text_only(bucket, cumulative));
            }
            let quantile = |q: &str| t("annoda_latency_us", &format!(",quantile=\"{q}\""));
            rows.extend([
                both(t("annoda_latency_us_sum", ""),   "latency_us_sum", load(&latency.sum_us)),
                both(t("annoda_latency_us_count", ""), "latency_count",  load(&latency.count)),
                both(quantile("p50"),                  "latency_p50_us", latency.quantile_us(0.50)),
                both(quantile("p99"),                  "latency_p99_us", latency.quantile_us(0.99)),
            ]);
            Section::new(name, rows, Vec::new())
        });
        Section::new("routes", Vec::new(), routes.collect())
    }
}

/// The HTTP serve tier: the live serving generation (the ETag key), the
/// response cache and admission control.
#[rustfmt::skip] // a table: one fact per line
pub fn http_section(generation: u64, c: CacheSnapshot, s: ShedSnapshot) -> Section {
    let cache = vec![
        both("annoda_http_cache_hits_total",         "hits",         c.hits),
        both("annoda_http_cache_misses_total",       "misses",       c.misses),
        both("annoda_http_cache_not_modified_total", "not_modified", c.not_modified),
        both("annoda_http_cache_evictions_total",    "evictions",    c.evictions),
        both("annoda_http_cache_epoch_invalidations_total", "epoch_invalidations", c.epoch_invalidations),
        both("annoda_http_cache_deps_invalidations_total", "deps_invalidations", c.deps_invalidations),
        both("annoda_http_cache_entries",            "entries",      c.entries),
    ];
    let shed = vec![
        both("annoda_shed_total",                  "total",            s.total),
        both("annoda_shed_connection_cap_total",   "connection_cap",   s.connection_cap),
        both("annoda_shed_in_flight_budget_total", "in_flight_budget", s.in_flight_budget),
        both("annoda_shed_queue_delay_total",      "queue_delay",      s.queue_delay),
        both("annoda_in_flight_requests",          "in_flight_now",    s.in_flight_now),
        both("annoda_service_ewma_us",             "service_ewma_us",  s.service_ewma_us),
    ];
    Section::new("http", vec![both("annoda_serving_generation", "generation", generation)], vec![
        Section::new("cache", cache, Vec::new()),
        Section::new("shed", shed, Vec::new()),
    ])
}

/// The mediator's subquery cache, when enabled.
#[rustfmt::skip] // a table: one fact per line
pub fn mediator_cache_section(stats: Option<&CacheStats>) -> Section {
    Section::optional("mediator_cache", stats.map(|s| vec![
        both("annoda_mediator_cache_capacity",        "capacity",  s.capacity),
        both("annoda_mediator_cache_entries",         "entries",   s.len),
        both("annoda_mediator_cache_hits_total",      "hits",      s.hits),
        both("annoda_mediator_cache_misses_total",    "misses",    s.misses),
        both("annoda_mediator_cache_evictions_total", "evictions", s.evictions),
        both_as("annoda_mediator_cache_hit_rate",     "hit_rate",  Json::Float(s.hit_rate())),
    ]))
}

/// Journal/WAL counters, when a data directory is attached (summed over
/// the segments of a sharded one).
#[rustfmt::skip] // a table: one fact per line
pub fn persist_section(stats: Option<&PersistStats>) -> Section {
    Section::optional("persist", stats.map(|p| vec![
        both("annoda_persist_generation",             "generation",       p.generation),
        both_as("annoda_persist_snapshot_loaded", "snapshot_loaded", Json::Bool(p.snapshot_loaded)),
        both("annoda_persist_replayed_records",       "replayed_records", p.replayed_records),
        both("annoda_persist_truncated_bytes",        "truncated_bytes",  p.truncated_bytes),
        both("annoda_persist_wal_bytes",              "wal_bytes",        p.wal_bytes),
        both("annoda_persist_appended_records_total", "appended_records", p.appended_records),
        both("annoda_persist_appended_bytes_total",   "appended_bytes",   p.appended_bytes),
        both("annoda_persist_fsyncs_total",           "fsyncs",           p.fsyncs),
        both("annoda_persist_snapshots_total",        "snapshots",        p.snapshots),
    ]))
}

/// The served GML snapshot, plus the process-lifetime count of full
/// `OemStore` clones ([`annoda_oem::store_clone_count`]) — flat under
/// warm `/lorel` traffic, which is the zero-clone property in gauge form.
#[rustfmt::skip] // a table: one fact per line
pub fn snapshot_section(snapshot: Option<SnapshotInfo>, store_clones_total: u64) -> Section {
    Section::optional("snapshot", snapshot.map(|s| vec![
        both("annoda_snapshot_epoch",     "epoch",              s.epoch),
        both("annoda_snapshot_objects",   "objects",            s.objects),
        both("annoda_store_clones_total", "store_clones_total", store_clones_total),
    ]))
}

/// Ranked search: the shape of the live snapshot's inverted index, the
/// epoch it was published with, and the serve tier's hit counters.
/// (Search latency is the `route="search"` histogram.)
#[rustfmt::skip] // a table: one fact per line
pub fn search_section(
    index: Option<&SearchStats>,
    index_epoch: u64,
    queries: u64,
    zero_hits: u64,
) -> Section {
    Section::optional("search", index.map(|s| vec![
        both("annoda_search_index_sources",   "sources",     s.sources),
        both("annoda_search_index_docs",      "docs",        s.docs),
        both("annoda_search_index_terms",     "terms",       s.terms),
        both("annoda_search_index_postings",  "postings",    s.postings),
        both("annoda_search_index_build_us",  "build_us",    s.build_us),
        both("annoda_search_index_epoch",     "index_epoch", index_epoch),
        both("annoda_search_queries_total",   "queries",     queries),
        both("annoda_search_zero_hits_total", "zero_hits",   zero_hits),
    ]))
}

/// The sharded store: one block per store shard (its index is the
/// `shard` label in text, a member in JSON) and the transaction
/// counters — commits, first-writer-wins conflicts, aborts.
#[rustfmt::skip] // a table: one fact per line
pub fn store_section(shards: &[ShardGauges], txns: TxnStats) -> Section {
    let per_shard = shards.iter().map(|shard| {
        let t = |series: &str| format!("{series}{{shard=\"{}\"}}", shard.shard);
        Section::new("", vec![
            json_only("shard", int(shard.shard)),
            both(t("annoda_store_shard_objects"),    "objects",    shard.objects),
            both(t("annoda_store_shard_fragments"),  "fragments",  shard.fragments),
            both(t("annoda_store_shard_epoch"),      "epoch",      shard.epoch),
            both(t("annoda_store_shard_wal_bytes"),  "wal_bytes",  shard.wal_bytes),
            both(t("annoda_store_shard_generation"), "generation", shard.generation),
        ], Vec::new())
    });
    let txn = vec![
        both("annoda_txn_commits_total",   "commits",   txns.commits),
        both("annoda_txn_conflicts_total", "conflicts", txns.conflicts),
        both("annoda_txn_aborts_total",    "aborts",    txns.aborts),
    ];
    Section::new("store", vec![text_only("annoda_store_shards", shards.len())], vec![
        Section { shape: Shape::Array, ..Section::new("shards", Vec::new(), per_shard.collect()) },
        Section::new("txn", txn, Vec::new()),
    ])
}

/// Replication role, positions and lag. The role is a one-hot enum
/// gauge in text, Prometheus style, and one string in JSON.
#[rustfmt::skip] // a table: one fact per line
pub fn repl_section(stats: Option<&ReplStats>) -> Section {
    Section::optional("replication", stats.map(|r| vec![
        text_only("annoda_repl_role{role=\"leader\"}",   u8::from(!r.follower)),
        text_only("annoda_repl_role{role=\"follower\"}", u8::from(r.follower)),
        json_only("role", Json::str(if r.follower { "follower" } else { "leader" })),
        both("annoda_repl_applied_generation",        "applied_generation",  r.applied_generation),
        both("annoda_repl_applied_offset",            "applied_offset",      r.applied_offset),
        both("annoda_repl_leader_offset",             "leader_offset",       r.leader_offset),
        both("annoda_repl_lag_bytes",                 "lag_bytes",           r.lag_bytes),
        both("annoda_repl_lag_records",               "lag_records",         r.lag_records),
        both("annoda_repl_lag_us",                    "lag_us",              r.lag_us),
        both("annoda_repl_snapshot_xfer_bytes_total", "snapshot_xfer_bytes", r.snapshot_xfer_bytes),
        both("annoda_repl_batches_applied_total",     "batches_applied",     r.batches_applied),
        both("annoda_repl_records_applied_total",     "records_applied",     r.records_applied),
        both("annoda_repl_resubscribes_total",        "resubscribes",        r.resubscribes),
        both("annoda_repl_snapshot_xfers_sent_total", "snapshot_xfers_sent", r.snapshot_xfers_sent),
        both("annoda_repl_batches_sent_total",        "batches_sent",        r.batches_sent),
        both("annoda_repl_shipped_bytes_total",       "shipped_bytes",       r.shipped_bytes),
    ]))
}

/// Per-remote-source client stats, keyed by source. The breaker state
/// is a one-hot enum gauge in text and one string in JSON.
#[rustfmt::skip] // a table: one fact per line
pub fn federation_section(sources: &[(String, RemoteStatsSnapshot)]) -> Section {
    let per_source = sources.iter().map(|(source, f)| {
        let t = |series: &str| format!("{series}{{source=\"{source}\"}}");
        let breaker = f.breaker.as_str();
        let state = |state: &str| text_only(
            format!("annoda_federation_breaker_state{{source=\"{source}\",state=\"{state}\"}}"),
            u8::from(breaker == state),
        );
        Section::new(source, vec![
            state("closed"),
            state("open"),
            state("half-open"),
            json_only("breaker", Json::str(breaker)),
            both(t("annoda_federation_requests_total"),      "requests",      f.requests),
            both(t("annoda_federation_retries_total"),       "retries",       f.retries),
            both(t("annoda_federation_transport_errors_total"), "transport_errors", f.transport_errors),
            both(t("annoda_federation_refusals_total"),      "refusals",      f.refusals),
            both(t("annoda_federation_breaker_opens_total"), "breaker_opens", f.breaker_opens),
            both(t("annoda_federation_fast_failures_total"), "fast_failures", f.fast_failures),
            both(t("annoda_federation_wall_us_total"),       "wall_us_total", f.wall_us_total),
            both(t("annoda_federation_last_wall_us"),        "last_wall_us",  f.last_wall_us),
        ], Vec::new())
    });
    Section::new("federation", Vec::new(), per_source.collect())
}

/// Change-feed tailer positions and throughput, keyed by source.
#[rustfmt::skip] // a table: one fact per line
pub fn feed_section(feeds: &[FeedSnapshot]) -> Section {
    let per_feed = feeds.iter().map(|f| {
        let t = |series: &str| format!("{series}{{source=\"{}\"}}", f.source);
        Section::new(&f.source, vec![
            both(t("annoda_feed_applied_seq"),        "applied_seq",  f.applied_seq),
            both(t("annoda_feed_head_seq"),           "head_seq",     f.head_seq),
            both(t("annoda_feed_lag_records"),        "lag_records",  f.lag_records),
            both(t("annoda_feed_lag_us"),             "lag_us",       f.lag_us),
            both(t("annoda_feed_batches_total"),      "batches",      f.batches),
            both(t("annoda_feed_records_total"),      "records",      f.records),
            both(t("annoda_feed_bootstraps_total"),   "bootstraps",   f.bootstraps),
            both(t("annoda_feed_resubscribes_total"), "resubscribes", f.resubscribes),
            both(t("annoda_feed_absorb_us_total"),    "absorb_us",    f.absorb_us),
        ], Vec::new())
    });
    Section::new("feeds", Vec::new(), per_feed.collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routes_map_to_slots() {
        assert_eq!(ROUTES[Metrics::route_index("/genes")], "genes");
        assert_eq!(ROUTES[Metrics::route_index("/lorel")], "lorel");
        assert_eq!(ROUTES[Metrics::route_index("/search")], "search");
        assert_eq!(ROUTES[Metrics::route_index("/object/gene/TP53")], "object");
        assert_eq!(ROUTES[Metrics::route_index("/healthz")], "healthz");
        assert_eq!(ROUTES[Metrics::route_index("/metrics")], "metrics");
        assert_eq!(ROUTES[Metrics::route_index("/admin/refresh")], "admin");
        assert_eq!(ROUTES[Metrics::route_index("/admin/snapshot")], "admin");
        assert_eq!(ROUTES[Metrics::route_index("/nope")], "other");
    }

    #[test]
    fn counters_accumulate_and_render() {
        let m = Metrics::default();
        m.record(
            Metrics::route_index("/genes"),
            200,
            Duration::from_micros(800),
        );
        m.record(
            Metrics::route_index("/genes"),
            400,
            Duration::from_micros(80),
        );
        m.record(
            Metrics::route_index("/object/x/y"),
            404,
            Duration::from_secs(2),
        );
        assert_eq!(m.requests_total(), 3);
        let cache = CacheSnapshot {
            hits: 12,
            misses: 4,
            not_modified: 2,
            evictions: 1,
            epoch_invalidations: 3,
            deps_invalidations: 7,
            entries: 5,
        };
        let shed = ShedSnapshot {
            total: 6,
            connection_cap: 1,
            in_flight_budget: 2,
            queue_delay: 3,
            in_flight_now: 4,
            service_ewma_us: 750,
        };
        let sections = vec![
            http_section(9, cache, shed),
            m.route_sections(),
            mediator_cache_section(Some(&CacheStats {
                capacity: 256,
                len: 3,
                hits: 9,
                misses: 1,
                evictions: 0,
            })),
            persist_section(Some(&PersistStats {
                generation: 2,
                snapshot_loaded: true,
                replayed_records: 5,
                truncated_bytes: 12,
                wal_bytes: 340,
                appended_records: 7,
                appended_bytes: 280,
                fsyncs: 7,
                snapshots: 1,
            })),
            snapshot_section(
                Some(SnapshotInfo {
                    epoch: 4,
                    objects: 120,
                }),
                6,
            ),
            search_section(
                Some(&SearchStats {
                    sources: 3,
                    docs: 48,
                    terms: 210,
                    postings: 530,
                    build_us: 1_450,
                }),
                4,
                17,
                2,
            ),
            store_section(
                &[
                    ShardGauges {
                        shard: 0,
                        objects: 61,
                        fragments: 20,
                        epoch: 5,
                        wal_bytes: 900,
                        generation: 2,
                    },
                    ShardGauges {
                        shard: 1,
                        objects: 58,
                        fragments: 19,
                        epoch: 3,
                        wal_bytes: 700,
                        generation: 1,
                    },
                ],
                TxnStats {
                    commits: 9,
                    conflicts: 2,
                    aborts: 1,
                },
            ),
            repl_section(Some(&ReplStats {
                follower: true,
                applied_generation: 3,
                applied_offset: 1_213,
                leader_offset: 1_500,
                lag_bytes: 287,
                lag_records: 4,
                lag_us: 950,
                snapshot_xfer_bytes: 4_096,
                batches_applied: 8,
                records_applied: 40,
                resubscribes: 1,
                snapshot_xfers_sent: 0,
                batches_sent: 0,
                shipped_bytes: 0,
            })),
            federation_section(&[(
                "OMIM".to_string(),
                RemoteStatsSnapshot {
                    requests: 11,
                    retries: 3,
                    transport_errors: 4,
                    refusals: 1,
                    breaker_opens: 1,
                    fast_failures: 2,
                    wall_us_total: 9_000,
                    last_wall_us: 700,
                    breaker: annoda_federation::BreakerState::Open,
                },
            )]),
            feed_section(&[FeedSnapshot {
                source: "OMIM".to_string(),
                applied_seq: 42,
                head_seq: 45,
                lag_records: 3,
                lag_us: 1_800,
                batches: 6,
                records: 42,
                bootstraps: 1,
                resubscribes: 2,
                absorb_us: 5_400,
            }]),
        ];
        let tree = m.tree(sections);
        let text = tree.render_text();
        // JSON states the same table: every value under its key.
        assert_eq!(
            tree.render_json().to_text(),
            concat!(
                r#"{"connections":0,"#,
                r#""http":{"generation":9,"cache":{"hits":12,"misses":4,"not_modified":2,"evictions":1,"#,
                r#""epoch_invalidations":3,"deps_invalidations":7,"entries":5},"shed":{"total":6,"#,
                r#""connection_cap":1,"in_flight_budget":2,"queue_delay":3,"in_flight_now":4,"#,
                r#""service_ewma_us":750}},"routes":{"genes":{"requests":2,"errors":1,"#,
                r#""latency_us_sum":880,"latency_count":2,"latency_p50_us":128,"latency_p99_us":1024},"#,
                r#""lorel":{"requests":0,"errors":0,"latency_us_sum":0,"latency_count":0,"#,
                r#""latency_p50_us":0,"latency_p99_us":0},"search":{"requests":0,"errors":0,"#,
                r#""latency_us_sum":0,"latency_count":0,"latency_p50_us":0,"latency_p99_us":0},"#,
                r#""object":{"requests":1,"errors":1,"latency_us_sum":2000000,"latency_count":1,"#,
                r#""latency_p50_us":2097152,"latency_p99_us":2097152},"healthz":{"requests":0,"#,
                r#""errors":0,"latency_us_sum":0,"latency_count":0,"latency_p50_us":0,"#,
                r#""latency_p99_us":0},"metrics":{"requests":0,"errors":0,"latency_us_sum":0,"#,
                r#""latency_count":0,"latency_p50_us":0,"latency_p99_us":0},"admin":{"requests":0,"#,
                r#""errors":0,"latency_us_sum":0,"latency_count":0,"latency_p50_us":0,"#,
                r#""latency_p99_us":0},"other":{"requests":0,"errors":0,"latency_us_sum":0,"#,
                r#""latency_count":0,"latency_p50_us":0,"latency_p99_us":0}},"#,
                r#""mediator_cache":{"capacity":256,"entries":3,"hits":9,"misses":1,"evictions":0,"#,
                r#""hit_rate":0.9},"persist":{"generation":2,"snapshot_loaded":true,"#,
                r#""replayed_records":5,"truncated_bytes":12,"wal_bytes":340,"appended_records":7,"#,
                r#""appended_bytes":280,"fsyncs":7,"snapshots":1},"snapshot":{"epoch":4,"objects":120,"#,
                r#""store_clones_total":6},"search":{"sources":3,"docs":48,"terms":210,"postings":530,"#,
                r#""build_us":1450,"index_epoch":4,"queries":17,"zero_hits":2},"#,
                r#""replication":{"role":"follower","applied_generation":3,"applied_offset":1213,"#,
                r#""leader_offset":1500,"lag_bytes":287,"lag_records":4,"lag_us":950,"#,
                r#""snapshot_xfer_bytes":4096,"batches_applied":8,"records_applied":40,"#,
                r#""resubscribes":1,"snapshot_xfers_sent":0,"batches_sent":0,"shipped_bytes":0},"#,
                r#""federation":{"OMIM":{"breaker":"open","requests":11,"retries":3,"#,
                r#""transport_errors":4,"refusals":1,"breaker_opens":1,"fast_failures":2,"#,
                r#""wall_us_total":9000,"last_wall_us":700}},"feeds":{"OMIM":{"applied_seq":42,"#,
                r#""head_seq":45,"lag_records":3,"lag_us":1800,"batches":6,"records":42,"bootstraps":1,"#,
                r#""resubscribes":2,"absorb_us":5400}},"store":{"shards":[{"shard":0,"objects":61,"#,
                r#""fragments":20,"epoch":5,"wal_bytes":900,"generation":2},{"shard":1,"objects":58,"#,
                r#""fragments":19,"epoch":3,"wal_bytes":700,"generation":1}],"txn":{"commits":9,"#,
                r#""conflicts":2,"aborts":1}}}"#,
            )
        );
        assert!(
            text.contains("annoda_requests_total{route=\"genes\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("annoda_errors_total{route=\"genes\"} 1"),
            "{text}"
        );
        // Log-scale buckets: 80us lands at le=128; 800us joins it
        // cumulatively at le=1024.
        assert!(text.contains("annoda_latency_us_bucket{route=\"genes\",le=\"128\"} 1"));
        assert!(text.contains("annoda_latency_us_bucket{route=\"genes\",le=\"1024\"} 2"));
        // The 2s observation: above 2^20 us, within 2^21 us.
        assert!(text.contains("annoda_latency_us_bucket{route=\"object\",le=\"1048576\"} 0"));
        assert!(text.contains("annoda_latency_us_bucket{route=\"object\",le=\"2097152\"} 1"));
        // Quantiles derive from the buckets: of the two genes
        // observations (80us, 800us), p50 covers the first bucket and
        // p99 the second.
        assert!(
            text.contains("annoda_latency_us{route=\"genes\",quantile=\"p50\"} 128"),
            "{text}"
        );
        assert!(
            text.contains("annoda_latency_us{route=\"genes\",quantile=\"p99\"} 1024"),
            "{text}"
        );
        // The serve-tier gauges.
        assert!(text.contains("annoda_serving_generation 9"));
        assert!(text.contains("annoda_http_cache_hits_total 12"));
        assert!(text.contains("annoda_http_cache_misses_total 4"));
        assert!(text.contains("annoda_http_cache_not_modified_total 2"));
        assert!(text.contains("annoda_http_cache_evictions_total 1"));
        assert!(text.contains("annoda_http_cache_epoch_invalidations_total 3"));
        assert!(text.contains("annoda_shed_total 6"));
        assert!(text.contains("annoda_shed_connection_cap_total 1"));
        assert!(text.contains("annoda_shed_in_flight_budget_total 2"));
        assert!(text.contains("annoda_shed_queue_delay_total 3"));
        assert!(text.contains("annoda_in_flight_requests 4"));
        assert!(text.contains("annoda_service_ewma_us 750"));
        assert!(text.contains("annoda_mediator_cache_hits_total 9"));
        assert!(text.contains("annoda_mediator_cache_hit_rate 0.9000"));
        assert!(text.contains("annoda_persist_generation 2"));
        assert!(text.contains("annoda_persist_snapshot_loaded 1"));
        assert!(text.contains("annoda_persist_replayed_records 5"));
        assert!(text.contains("annoda_persist_wal_bytes 340"));
        assert!(text.contains("annoda_snapshot_epoch 4"));
        assert!(text.contains("annoda_snapshot_objects 120"));
        assert!(text.contains("annoda_store_clones_total 6"));
        assert!(text.contains("annoda_search_index_sources 3"));
        assert!(text.contains("annoda_search_index_docs 48"));
        assert!(text.contains("annoda_search_index_terms 210"));
        assert!(text.contains("annoda_search_index_postings 530"));
        assert!(text.contains("annoda_search_index_build_us 1450"));
        assert!(text.contains("annoda_search_index_epoch 4"));
        assert!(text.contains("annoda_search_queries_total 17"));
        assert!(text.contains("annoda_search_zero_hits_total 2"));
        assert!(text.contains("annoda_repl_role{role=\"follower\"} 1"));
        assert!(text.contains("annoda_repl_role{role=\"leader\"} 0"));
        assert!(text.contains("annoda_repl_applied_generation 3"));
        assert!(text.contains("annoda_repl_applied_offset 1213"));
        assert!(text.contains("annoda_repl_leader_offset 1500"));
        assert!(text.contains("annoda_repl_lag_bytes 287"));
        assert!(text.contains("annoda_repl_lag_records 4"));
        assert!(text.contains("annoda_repl_lag_us 950"));
        assert!(text.contains("annoda_repl_snapshot_xfer_bytes_total 4096"));
        assert!(text.contains("annoda_repl_batches_applied_total 8"));
        assert!(text.contains("annoda_repl_records_applied_total 40"));
        assert!(text.contains("annoda_repl_resubscribes_total 1"));
        assert!(text.contains("annoda_http_cache_deps_invalidations_total 7"));
        assert!(text.contains("annoda_store_shards 2"));
        assert!(text.contains("annoda_store_shard_objects{shard=\"0\"} 61"));
        assert!(text.contains("annoda_store_shard_epoch{shard=\"1\"} 3"));
        assert!(text.contains("annoda_store_shard_wal_bytes{shard=\"0\"} 900"));
        assert!(text.contains("annoda_store_shard_generation{shard=\"1\"} 1"));
        assert!(text.contains("annoda_txn_commits_total 9"));
        assert!(text.contains("annoda_txn_conflicts_total 2"));
        assert!(text.contains("annoda_txn_aborts_total 1"));
        assert!(
            text.contains("annoda_federation_breaker_state{source=\"OMIM\",state=\"open\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("annoda_federation_breaker_state{source=\"OMIM\",state=\"closed\"} 0")
        );
        assert!(text.contains("annoda_federation_requests_total{source=\"OMIM\"} 11"));
        assert!(text.contains("annoda_federation_retries_total{source=\"OMIM\"} 3"));
        assert!(text.contains("annoda_federation_transport_errors_total{source=\"OMIM\"} 4"));
        assert!(text.contains("annoda_federation_breaker_opens_total{source=\"OMIM\"} 1"));
        assert!(text.contains("annoda_federation_wall_us_total{source=\"OMIM\"} 9000"));
        assert!(text.contains("annoda_federation_last_wall_us{source=\"OMIM\"} 700"));
        assert!(text.contains("annoda_feed_applied_seq{source=\"OMIM\"} 42"));
        assert!(text.contains("annoda_feed_head_seq{source=\"OMIM\"} 45"));
        assert!(text.contains("annoda_feed_lag_records{source=\"OMIM\"} 3"));
        assert!(text.contains("annoda_feed_lag_us{source=\"OMIM\"} 1800"));
        assert!(text.contains("annoda_feed_batches_total{source=\"OMIM\"} 6"));
        assert!(text.contains("annoda_feed_records_total{source=\"OMIM\"} 42"));
        assert!(text.contains("annoda_feed_bootstraps_total{source=\"OMIM\"} 1"));
        assert!(text.contains("annoda_feed_resubscribes_total{source=\"OMIM\"} 2"));
        assert!(text.contains("annoda_feed_absorb_us_total{source=\"OMIM\"} 5400"));

        // Every optional subsystem off: `null` (or an empty map), no text;
        // the store is always there.
        let off = |http: Section, federation: Section, feeds: Section| {
            let sections = vec![
                http,
                m.route_sections(),
                mediator_cache_section(None),
                persist_section(None),
                snapshot_section(None, 0),
                search_section(None, 0, 0, 0),
                store_section(&[], TxnStats::default()),
                repl_section(None),
                federation,
                feeds,
            ];
            m.tree(sections).render_json().to_text()
        };
        let json = off(
            http_section(9, cache, shed),
            federation_section(&[]),
            feed_section(&[]),
        );
        assert!(
            json.contains("\"genes\":{\"requests\":2,\"errors\":1"),
            "{json}"
        );
        assert!(json.contains("\"mediator_cache\":null"));
        assert!(json.contains("\"persist\":null"));
        assert!(json.contains("\"snapshot\":null"));
        assert!(json.contains("\"search\":null"));
        assert!(json.contains("\"replication\":null"));
        assert!(json.contains("\"store\":{\"shards\":[],\"txn\":"), "{json}");
        assert!(json.contains("\"federation\":{}"));
        assert!(json.contains("\"feeds\":{}"));
        assert!(json.contains("\"generation\":9"), "{json}");
        assert!(json.contains("\"not_modified\":2"), "{json}");
        assert!(json.contains("\"in_flight_budget\":2"), "{json}");
        assert!(json.contains("\"latency_p50_us\":128"), "{json}");

        let json = off(
            http_section(0, CacheSnapshot::default(), ShedSnapshot::default()),
            federation_section(&[("GO".to_string(), RemoteStatsSnapshot::default())]),
            feed_section(&[FeedSnapshot {
                source: "LocusLink".to_string(),
                applied_seq: 9,
                head_seq: 9,
                lag_records: 0,
                lag_us: 0,
                batches: 4,
                records: 9,
                bootstraps: 0,
                resubscribes: 1,
                absorb_us: 2_100,
            }]),
        );
        assert!(
            json.contains("\"federation\":{\"GO\":{\"breaker\":\"closed\""),
            "{json}"
        );
        assert!(
            json.contains("\"feeds\":{\"LocusLink\":{\"applied_seq\":9,\"head_seq\":9"),
            "{json}"
        );
    }
}
