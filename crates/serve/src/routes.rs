//! The HTTP routes: the Figure 5 screens over the network.
//!
//! - `GET /genes?...` — the query form of Figure 5a; query parameters
//!   use the same clause grammar as the CLI (`annoda::parse`).
//! - `POST /lorel` — a raw Lorel query, body is the query text.
//! - `GET /object/{kind}/{id}` — the individual object view of
//!   Figure 5c; internal `annoda://` web-links are rewritten to real
//!   `/object/...` hrefs so a client can navigate.
//! - `GET /healthz`, `GET /metrics` — liveness and observability.
//!
//! Every route answers in plain text (default) or JSON, negotiated via
//! the `Accept` header.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Instant;

use annoda::{
    parse_question_pairs, render_integrated_view, render_object_view, AnnodaError, DurableSystem,
    EpochsHandle, FusionStrategy, NavigateError, ObjectView, Role,
};
use annoda_mediator::fusion::IntegratedGene;
use annoda_mediator::{MediatorError, WebLink};
use annoda_oem::text as oem_text;
use annoda_oem::ShardRouter;
use annoda_stream::{FeedGauges, FeedSnapshot};

use crate::cache::{CacheGauges, ShardDeps};
use crate::http::{percent_decode, Request, Response};
use crate::json::Json;
use crate::metrics::{self, Metrics};
use crate::pool::QueueGauge;
use crate::shard::ShedGauges;

/// Shared state every worker sees.
pub struct App {
    /// The ANNODA system, optionally durable. Query routes take the
    /// read side; the `/admin/*` mutation routes take the write side.
    pub system: Arc<RwLock<DurableSystem>>,
    /// Request counters and latency histograms.
    pub metrics: Arc<Metrics>,
    /// Queue pressure, published by the worker pool.
    pub gauge: Arc<QueueGauge>,
    /// Response-cache counters, shared by every shard's cache.
    pub http_cache: Arc<CacheGauges>,
    /// Admission-control counters, shared by every shard.
    pub shed: Arc<ShedGauges>,
    /// The live serving generation (the ETag / cache epoch key).
    pub generation: Arc<AtomicU64>,
    /// Sharded-store mode: the live per-shard epoch vector. Reactor
    /// shards validate dep-stamped cache entries and ETags against it
    /// without taking the system lock. `None` for a flat store.
    pub epochs: Option<EpochsHandle>,
    /// Server start time (for `/healthz` uptime).
    pub started: Instant,
    /// `/search` queries answered (any outcome with a 200).
    pub search_queries: AtomicU64,
    /// `/search` queries that matched no locus.
    pub search_zero_hits: AtomicU64,
    /// Change-feed tailer gauges, one per subscribed source. Registered
    /// after startup (the tailers need the system handle the server
    /// creates), hence the lock rather than a plain `Vec`.
    pub feeds: RwLock<Vec<Arc<FeedGauges>>>,
}

impl App {
    /// Read access to the system. A poisoned lock (a handler panicked
    /// mid-mutation) is recovered rather than cascading: the store
    /// itself journals before mutating, so its state stays coherent.
    pub fn system(&self) -> RwLockReadGuard<'_, DurableSystem> {
        self.system.read().unwrap_or_else(|p| p.into_inner())
    }

    /// Write access to the system (admin routes only).
    pub fn system_mut(&self) -> RwLockWriteGuard<'_, DurableSystem> {
        self.system.write().unwrap_or_else(|p| p.into_inner())
    }

    /// Registers a change-feed tailer's gauges for `/metrics` and
    /// `/healthz` exposition.
    pub fn register_feed(&self, gauges: Arc<FeedGauges>) {
        self.feeds
            .write()
            .unwrap_or_else(|p| p.into_inner())
            .push(gauges);
    }

    /// Point-in-time copies of every registered feed's gauges.
    pub fn feed_snapshots(&self) -> Vec<FeedSnapshot> {
        self.feeds
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .iter()
            .map(|g| g.snapshot())
            .collect()
    }
}

/// Sharding context captured **before** computing an answer: the key
/// router plus the epoch vector at capture time. Stamping against the
/// pre-compute vector is the safe direction — a commit landing
/// mid-compute advances the live vector past the stamp, so the entry
/// revalidates instead of serving possibly mixed-epoch bytes as fresh.
struct ShardCtx {
    router: ShardRouter,
    epochs: Arc<Vec<u64>>,
}

/// The sharding context, or `None` when the system serves a flat store.
fn shard_ctx(app: &App) -> Option<ShardCtx> {
    let sharded = app.system().sharded_handle()?;
    Some(ShardCtx {
        router: sharded.router(),
        epochs: sharded.epoch_vector(),
    })
}

impl ShardCtx {
    /// Deps over the shards the given entity keys route to — exact
    /// invalidation for answers whose membership is fixed by its keys.
    fn deps_for_keys<'a>(&self, keys: impl IntoIterator<Item = &'a str>) -> ShardDeps {
        let shards: Vec<usize> = keys.into_iter().map(|k| self.router.route(k)).collect();
        ShardDeps::over(&shards, &self.epochs)
    }

    /// Deps on every shard — for set-valued answers whose membership
    /// any shard's commit could change (and for empty answers, which
    /// surface no keys to route).
    fn full(&self) -> ShardDeps {
        ShardDeps::full(self.router.shards(), &self.epochs)
    }
}

/// The response format a request negotiated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Format {
    /// `text/plain` — the default.
    Text,
    /// `application/json`.
    Json,
}

/// Resolves the `Accept` header: plain text by default, JSON when asked
/// for, `None` (406) when the client accepts neither.
pub fn negotiate(accept: Option<&str>) -> Option<Format> {
    let Some(accept) = accept else {
        return Some(Format::Text);
    };
    let mut acceptable = None;
    for range in accept.split(',') {
        let media = range.split(';').next().unwrap_or("").trim();
        match media {
            "application/json" | "application/*" => return Some(Format::Json),
            "text/plain" | "text/*" => return Some(Format::Text),
            "*/*" | "" => acceptable = acceptable.or(Some(Format::Text)),
            _ => {}
        }
    }
    acceptable
}

/// Dispatches one parsed request to its route handler.
pub fn handle(app: &App, req: &Request) -> Response {
    let Some(format) = negotiate(req.header("accept")) else {
        return Response::text(406, "acceptable formats: text/plain, application/json\n");
    };
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/genes") => genes(app, req, format),
        ("POST", "/lorel") => lorel(app, req, format),
        ("GET", "/search") => search(app, req, format),
        ("GET", "/healthz") => healthz(app, format),
        ("GET", "/metrics") => metrics(app, format),
        ("POST", "/admin/refresh") => admin_refresh(app, req, format),
        ("POST", "/admin/snapshot") => admin_snapshot(app, format),
        ("POST", "/admin/promote") => admin_promote(app, format),
        ("GET", path) if path.starts_with("/object/") => object(app, path, format),
        (_, "/genes" | "/lorel" | "/search" | "/healthz" | "/metrics") => {
            method_not_allowed(format)
        }
        (_, "/admin/refresh" | "/admin/snapshot" | "/admin/promote") => method_not_allowed(format),
        (_, path) if path.starts_with("/object/") => method_not_allowed(format),
        _ => error(404, format, format!("no route for {}", req.path)),
    }
}

fn method_not_allowed(format: Format) -> Response {
    error(405, format, "method not allowed for this route".to_string())
}

/// Builds the negotiated one of a reply's two bodies — the only place
/// outside the four content routes that looks at the format.
fn negotiated(
    status: u16,
    format: Format,
    text: impl FnOnce() -> String,
    json: impl FnOnce() -> Json,
) -> Response {
    match format {
        Format::Text => Response::text(status, text()),
        Format::Json => Response::json(status, &json()),
    }
}

/// `key: value` lines, the text form of a flat reply.
fn field_lines(fields: &[(&'static str, Json)]) -> String {
    let line = |(key, value): &(&str, Json)| match value {
        Json::Str(s) => format!("{key}: {s}\n"),
        other => format!("{key}: {}\n", other.to_text()),
    };
    fields.iter().map(line).collect()
}

/// A flat key/value reply, its fields spelled once: `key: value` lines
/// in text, one object in JSON.
fn flat_reply(status: u16, format: Format, fields: Vec<(&'static str, Json)>) -> Response {
    negotiated(
        status,
        format,
        || field_lines(&fields),
        || Json::obj(fields.iter().cloned()),
    )
}

/// A uniform error body in the negotiated format.
fn error(status: u16, format: Format, message: String) -> Response {
    flat_reply(status, format, vec![("error", Json::str(message))])
}

/// Query parameters consumed by the read-your-writes gate (stripped
/// before route-specific parameter handling).
pub const GATE_PARAMS: [&str; 2] = ["min_generation", "min_offset"];

/// How long a gated read stalls for the replica to catch up before
/// answering `412 Precondition Failed`.
const GATE_STALL: std::time::Duration = std::time::Duration::from_millis(750);

/// Read-your-writes: a client that wrote through the leader and
/// learned its `(generation, wal_offset)` position (from the write
/// response's `/healthz`) can pin a read to at least that position with
/// `?min_generation=G&min_offset=O`. The handler stalls briefly while
/// the node catches up; if it does not, `412` tells the client to retry
/// (or read the leader), which is strictly better than silently
/// serving stale data.
fn replication_gate(app: &App, pairs: &[(String, String)], format: Format) -> Result<(), Response> {
    let mut min_generation = None;
    let mut min_offset = 0u64;
    for (key, value) in pairs {
        let slot = match key.as_str() {
            "min_generation" => &mut min_generation,
            "min_offset" => {
                match value.parse::<u64>() {
                    Ok(v) => min_offset = v,
                    Err(_) => {
                        return Err(error(
                            400,
                            format,
                            format!("min_offset must be a non-negative integer: {value}"),
                        ))
                    }
                }
                continue;
            }
            _ => continue,
        };
        match value.parse::<u64>() {
            Ok(v) => *slot = Some(v),
            Err(_) => {
                return Err(error(
                    400,
                    format,
                    format!("min_generation must be a non-negative integer: {value}"),
                ))
            }
        }
    }
    let Some(min_generation) = min_generation else {
        if min_offset > 0 {
            return Err(error(
                400,
                format,
                "min_offset needs min_generation".to_string(),
            ));
        }
        return Ok(());
    };

    let deadline = Instant::now() + GATE_STALL;
    loop {
        let position = app.system().wal_position();
        match position {
            // Positions order lexicographically: promotion bumps the
            // generation, so any later generation satisfies any offset
            // of an earlier one.
            Some((gen, off)) if (gen, off) >= (min_generation, min_offset) => return Ok(()),
            Some((gen, off)) => {
                if Instant::now() >= deadline {
                    return Err(error(
                        412,
                        format,
                        format!(
                            "replica at generation {gen} offset {off}, \
                             precondition needs generation {min_generation} \
                             offset {min_offset}; retry or read the leader"
                        ),
                    ));
                }
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            None => {
                return Err(error(
                    412,
                    format,
                    "this node has no durable position (started without --data-dir)".to_string(),
                ))
            }
        }
    }
}

/// `GET /genes` — Figure 5a: clause parameters build a [`GeneQuestion`].
fn genes(app: &App, req: &Request, format: Format) -> Response {
    let pairs = req.query_pairs();
    if let Err(stale) = replication_gate(app, &pairs, format) {
        return stale;
    }
    let question = match parse_question_pairs(
        pairs
            .iter()
            .filter(|(k, _)| !GATE_PARAMS.contains(&k.as_str()))
            .map(|(k, v)| (k.as_str(), v.as_str())),
    ) {
        Ok(q) => q,
        Err(e) => return error(400, format, e),
    };
    let sharding = shard_ctx(app);
    match app.system().annoda().ask(&question) {
        Ok(answer) => {
            // A question is a *selection* (organism, symbol_like,
            // function/disease clauses): its membership is not fixed by
            // the keys it happens to surface — any shard's commit could
            // add the N+1th matching gene (or the first). Stamping only
            // the surfaced keys' shards would let such a commit land
            // outside the mask and the cached answer revalidate forever
            // while silently missing the new member, so selections pin
            // the full vector; exact per-key deps are reserved for
            // point reads (`/object`) whose membership the key fixes.
            let deps = sharding.map(|ctx| ctx.full());
            let mut response = match format {
                Format::Text => {
                    let mut body = rewrite_links(&render_integrated_view(&answer.fused.genes));
                    // Degradation travels with the answer: a tripped or
                    // unreachable source is announced, never silently dropped.
                    if !answer.fused.missing_sources.is_empty() {
                        body.push_str(&format!(
                            "\nPARTIAL ANSWER — sources unavailable: {}\n",
                            answer.fused.missing_sources.join(", ")
                        ));
                    }
                    Response::text(200, body)
                }
                Format::Json => Response::json(
                    200,
                    &Json::obj([
                        ("count", Json::Int(answer.fused.genes.len() as i64)),
                        (
                            "genes",
                            Json::Arr(answer.fused.genes.iter().map(gene_json).collect()),
                        ),
                        // The planned subquery count, not the round
                        // trips this ask happened to pay: `requests`
                        // alone shrinks as the subquery cache warms, and
                        // one ETag must name one body on every shard.
                        (
                            "cost_requests",
                            Json::Int((answer.cost.requests + answer.cost.cache_hits) as i64),
                        ),
                        (
                            "partial",
                            Json::Bool(!answer.fused.missing_sources.is_empty()),
                        ),
                        (
                            "missing_sources",
                            Json::Arr(answer.fused.missing_sources.iter().map(Json::str).collect()),
                        ),
                    ]),
                ),
            };
            response.deps = deps;
            response
        }
        Err(e) => error(500, format, e.to_string()),
    }
}

/// `POST /lorel` — runs the body as a Lorel query over ANNODA-GML.
///
/// Zero-clone warm path: the handler briefly takes the system read lock
/// to grab (or lazily build) the current epoch's `Arc<OemStore>`
/// snapshot, then **drops the lock before evaluating** — a slow query
/// can never stall `/healthz`, `/metrics`, or `/admin/refresh`, and the
/// answer is materialised in a per-request overlay instead of a
/// per-request store clone.
fn lorel(app: &App, req: &Request, format: Format) -> Response {
    if let Err(stale) = replication_gate(app, &req.query_pairs(), format) {
        return stale;
    }
    let Ok(text) = std::str::from_utf8(&req.body) else {
        return error(400, format, "body is not UTF-8".to_string());
    };
    if text.trim().is_empty() {
        return error(400, format, "empty query body".to_string());
    }
    let snap = {
        let sys = app.system();
        match sys.query_snapshot() {
            Ok(snap) => snap,
            Err(e) => return error(500, format, e.to_string()),
        }
        // guard drops here — evaluation below holds no lock
    };
    match DurableSystem::lorel_on(&snap, text) {
        Ok(served) => {
            let answer_text = oem_text::write_rooted(&served.view, "answer", served.outcome.answer);
            match format {
                Format::Text => Response::text(200, answer_text),
                Format::Json => Response::json(
                    200,
                    &Json::obj([
                        ("rows", Json::Int(served.outcome.rows.len() as i64)),
                        (
                            "projected",
                            Json::Arr(
                                served
                                    .outcome
                                    .projected
                                    .iter()
                                    .map(|(label, oids)| {
                                        Json::obj([
                                            ("label", Json::str(label.clone())),
                                            ("results", Json::Int(oids.len() as i64)),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ),
                        (
                            "groups",
                            Json::Arr(served.outcome.groups.iter().map(Json::str).collect()),
                        ),
                        ("answer", Json::str(answer_text)),
                        ("epoch", Json::Int(served.epoch as i64)),
                        ("store_len", Json::Int(served.store_len as i64)),
                        (
                            "answer_objects",
                            Json::Int(served.view.overlay().len() as i64),
                        ),
                        (
                            "bindings_enumerated",
                            Json::Int(served.explain.probes.bindings_enumerated as i64),
                        ),
                        ("cost_requests", Json::Int(served.cost.requests as i64)),
                        ("cost_records", Json::Int(served.cost.records as i64)),
                        ("cost_virtual_us", Json::Int(served.cost.virtual_us as i64)),
                        ("cost_cache_hits", Json::Int(served.cost.cache_hits as i64)),
                    ]),
                ),
            }
        }
        Err(e) => error(400, format, e.to_string()),
    }
}

/// `GET /search?q=...&k=...&fusion=...` — BM25-ranked search over the
/// harvested annotation text, rank-fused across sources. Same
/// snapshot-then-drop-the-lock discipline as `/lorel`: the handler
/// grabs the epoch's `Arc<SearchIndex>` under a brief read lock and
/// scores with no lock held, so a burst of searches cannot stall
/// refresh or health probes. The route is epoch-cacheable: within one
/// generation the same URL yields a byte-identical response.
fn search(app: &App, req: &Request, format: Format) -> Response {
    let pairs = req.query_pairs();
    if let Err(stale) = replication_gate(app, &pairs, format) {
        return stale;
    }
    let mut query = None;
    let mut k = 10usize;
    let mut strategy = FusionStrategy::Weighted;
    for (key, value) in &pairs {
        match key.as_str() {
            key if GATE_PARAMS.contains(&key) => {} // consumed by the gate
            "q" => query = Some(value.clone()),
            "k" => match value.parse::<usize>() {
                Ok(n) if n > 0 => k = n,
                _ => {
                    return error(
                        400,
                        format,
                        format!("k must be a positive integer: {value}"),
                    )
                }
            },
            "fusion" => match FusionStrategy::parse(value) {
                Some(s) => strategy = s,
                None => {
                    return error(
                        400,
                        format,
                        format!("unknown fusion `{value}` (weighted|rrf|maxscore)"),
                    )
                }
            },
            other => return error(400, format, format!("unknown search parameter `{other}`")),
        }
    }
    let Some(query) = query.filter(|q| !q.trim().is_empty()) else {
        return error(400, format, "missing query parameter q".to_string());
    };
    let sharding = shard_ctx(app);
    let snap = {
        let sys = app.system();
        match sys.query_snapshot() {
            Ok(snap) => snap,
            Err(e) => return error(500, format, e.to_string()),
        }
        // guard drops here — scoring below holds no lock
    };
    let answers = DurableSystem::search_on(&snap, &query, k, strategy);
    app.search_queries.fetch_add(1, Ordering::Relaxed);
    if answers.is_empty() {
        app.search_zero_hits.fetch_add(1, Ordering::Relaxed);
    }
    // Ranked search is a whole-corpus selection: any shard's commit can
    // reorder or re-score, so its deps pin the full vector.
    let deps = sharding.map(|ctx| ctx.full());
    let mut response = match format {
        Format::Text => {
            let mut body = String::new();
            use std::fmt::Write as _;
            let _ = writeln!(
                body,
                "query: {query}\nfusion: {}\nepoch: {}\nhits: {}",
                strategy.name(),
                snap.epoch,
                answers.len()
            );
            for (rank, a) in answers.iter().enumerate() {
                let per_source = a
                    .per_source_scores
                    .iter()
                    .map(|(s, v)| format!("{s}={v:.3}"))
                    .collect::<Vec<_>>()
                    .join(" ");
                let _ = writeln!(
                    body,
                    "{:>3}. {:<10} fused={:.4} [{per_source}]",
                    rank + 1,
                    a.locus,
                    a.fused_score
                );
                for (source, snippet) in &a.snippets {
                    let _ = writeln!(body, "       {source}: {snippet}");
                }
            }
            Response::text(200, body)
        }
        Format::Json => Response::json(
            200,
            &Json::obj([
                ("query", Json::str(query)),
                ("fusion", Json::str(strategy.name())),
                ("k", Json::Int(k as i64)),
                ("epoch", Json::Int(snap.epoch as i64)),
                ("count", Json::Int(answers.len() as i64)),
                (
                    "answers",
                    Json::Arr(
                        answers
                            .iter()
                            .map(|a| {
                                Json::obj([
                                    ("locus", Json::str(a.locus.clone())),
                                    ("fused_score", Json::Float(a.fused_score)),
                                    (
                                        "per_source_scores",
                                        Json::Obj(
                                            a.per_source_scores
                                                .iter()
                                                .map(|(s, v)| (s.clone(), Json::Float(*v)))
                                                .collect(),
                                        ),
                                    ),
                                    (
                                        "snippets",
                                        Json::Obj(
                                            a.snippets
                                                .iter()
                                                .map(|(s, t)| (s.clone(), Json::str(t.clone())))
                                                .collect(),
                                        ),
                                    ),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        ),
    };
    response.deps = deps;
    response
}

/// `GET /object/{kind}/{id}` — Figure 5c via the Navigator. An unknown
/// kind is the client's mistake (400); a missing id is a dangling
/// reference (404).
fn object(app: &App, path: &str, format: Format) -> Response {
    let rest = &path["/object/".len()..];
    let Some((kind, key)) = rest.split_once('/') else {
        return error(
            400,
            format,
            format!("expected /object/{{kind}}/{{id}}, got {path}"),
        );
    };
    let (kind, key) = (percent_decode(kind), percent_decode(key));
    if key.is_empty() {
        return error(400, format, "empty object id".to_string());
    }
    let sharding = shard_ctx(app);
    match app.system().annoda().navigator().view(&kind, &key) {
        Ok(view) => {
            // A point read: the viewed object's key plus every internal
            // link target it renders — exact shard deps.
            let deps = sharding.map(|ctx| {
                ctx.deps_for_keys(
                    std::iter::once(view.key.as_str()).chain(
                        view.links
                            .iter()
                            .filter_map(|l| l.internal_target().map(|(_, k)| k)),
                    ),
                )
            });
            let mut response = match format {
                Format::Text => Response::text(200, rewrite_links(&render_object_view(&view))),
                Format::Json => Response::json(200, &object_json(&view)),
            };
            response.deps = deps;
            response
        }
        Err(e @ NavigateError::UnknownKind(_)) => error(400, format, e.to_string()),
        Err(e @ NavigateError::NotFound { .. }) => error(404, format, e.to_string()),
    }
}

fn healthz(app: &App, format: Format) -> Response {
    // The durable position doubles as the write token for
    // read-your-writes: a client that writes, reads `/healthz` on the
    // leader, and pins replica reads with `min_generation`/`min_offset`
    // sees its own write everywhere.
    let (role, generation, wal_offset) = {
        let sys = app.system();
        let (generation, wal_offset) = sys.wal_position().unwrap_or((0, 0));
        (sys.role(), generation, wal_offset)
    };
    let fields = [
        (
            "uptime_s",
            Json::Int(app.started.elapsed().as_secs() as i64),
        ),
        ("requests", Json::Int(app.metrics.requests_total() as i64)),
        ("role", Json::str(role.to_string())),
        ("generation", Json::Int(generation as i64)),
        ("wal_offset", Json::Int(wal_offset as i64)),
    ];
    // Feed positions double as the streaming write token: a client can
    // wait for `applied_seq` to cover a mutation it knows the source
    // journaled.
    let feeds = app.feed_snapshots();
    negotiated(
        200,
        format,
        || {
            let mut body = format!("ok\n{}", field_lines(&fields));
            for f in &feeds {
                body.push_str(&format!(
                    "feed {}: applied_seq {} head_seq {} lag_records {}\n",
                    f.source, f.applied_seq, f.head_seq, f.lag_records
                ));
            }
            body
        },
        || {
            let feed = |f: &FeedSnapshot| {
                let position = Json::obj([
                    ("applied_seq", Json::Int(f.applied_seq as i64)),
                    ("head_seq", Json::Int(f.head_seq as i64)),
                    ("lag_records", Json::Int(f.lag_records as i64)),
                ]);
                (f.source.clone(), position)
            };
            let status = [("status", Json::str("ok"))];
            let feeds = [("feeds", Json::Obj(feeds.iter().map(feed).collect()))];
            Json::obj(
                status
                    .into_iter()
                    .chain(fields.iter().cloned())
                    .chain(feeds),
            )
        },
    )
}

/// `GET /metrics` — every subsystem's section, built under the one
/// system read lock, then rendered in the negotiated format.
fn metrics(app: &App, format: Format) -> Response {
    let feeds = app.feed_snapshots();
    let sections = {
        let sys = app.system();
        let snapshot = sys.snapshot_stats();
        vec![
            metrics::http_section(
                app.generation.load(Ordering::Acquire),
                app.http_cache.snapshot(),
                app.shed.snapshot(),
            ),
            app.metrics.route_sections(),
            metrics::mediator_cache_section(sys.annoda().mediator().cache_stats().as_ref()),
            metrics::persist_section(sys.persist_stats().as_ref()),
            metrics::snapshot_section(
                Some(snapshot.unwrap_or_default()),
                annoda_oem::store_clone_count(),
            ),
            metrics::search_section(
                sys.search_stats().as_ref(),
                snapshot.map_or(0, |s| s.epoch),
                app.search_queries.load(Ordering::Relaxed),
                app.search_zero_hits.load(Ordering::Relaxed),
            ),
            metrics::store_section(
                sys.shard_gauges().as_deref(),
                sys.txn_stats().unwrap_or_default(),
            ),
            metrics::repl_section(Some(&sys.repl_handle().stats())),
            metrics::federation_section(&sys.annoda().federation_stats()),
            metrics::feed_section(&feeds),
        ]
    };
    let tree = app.metrics.tree(&app.gauge, sections);
    negotiated(200, format, || tree.render_text(), || tree.render_json())
}

/// `POST /admin/refresh` — wrappers re-pull their sources; with a data
/// directory attached the GML delta is journaled. `?source=NAME`
/// re-pulls a single source: in sharded-store mode only the store
/// shards holding that source's changed entities bump their epochs, so
/// cached responses for everything else keep serving.
fn admin_refresh(app: &App, req: &Request, format: Format) -> Response {
    let mut source: Option<String> = None;
    for (key, value) in req.query_pairs() {
        match key.as_str() {
            "source" => source = Some(value),
            other => return error(400, format, format!("unknown refresh parameter `{other}`")),
        }
    }
    let outcome = match &source {
        Some(name) => app.system_mut().refresh_source(name),
        None => app.system_mut().refresh(),
    };
    match outcome {
        Ok(outcome) => flat_reply(
            200,
            format,
            vec![
                (
                    "refreshed_objects",
                    Json::Int(outcome.refreshed_objects as i64),
                ),
                (
                    "journaled_records",
                    Json::Int(outcome.journaled_records as i64),
                ),
                ("persisted", Json::Bool(outcome.persisted)),
                ("changed_shards", Json::Int(outcome.changed_shards as i64)),
                (
                    "changed_fragments",
                    Json::Int(outcome.changed_fragments as i64),
                ),
            ],
        ),
        Err(AnnodaError::Mediator(MediatorError::UnknownSource(name))) => {
            error(404, format, format!("unknown source `{name}`"))
        }
        Err(e) => admin_error(e, format),
    }
}

/// A failed admin mutation: `403` when the node is a read-only
/// follower (the body names the leader so the client can redirect its
/// write), `500` otherwise.
fn admin_error(e: AnnodaError, format: Format) -> Response {
    let status = match &e {
        AnnodaError::Replication(_) => 403,
        _ => 500,
    };
    error(status, format, e.to_string())
}

/// `POST /admin/promote` — failover: a follower seals its replicated
/// WAL behind a snapshot, bumps the generation, and starts accepting
/// writes. `409` on a node that is already the leader.
fn admin_promote(app: &App, format: Format) -> Response {
    {
        let sys = app.system();
        if sys.role() == Role::Leader {
            return error(409, format, "this node is already the leader".to_string());
        }
    }
    match app.system_mut().promote() {
        Ok((generation, wal_offset)) => flat_reply(
            200,
            format,
            vec![
                ("role", Json::str("leader")),
                ("generation", Json::Int(generation as i64)),
                ("wal_offset", Json::Int(wal_offset as i64)),
            ],
        ),
        // A concurrent promote can win the race between the role check
        // above and the write lock.
        Err(e @ AnnodaError::Replication(_)) => error(409, format, e.to_string()),
        Err(e) => error(500, format, e.to_string()),
    }
}

/// `POST /admin/snapshot` — point-in-time snapshot + log truncation.
/// `409` when the server runs without a data directory.
fn admin_snapshot(app: &App, format: Format) -> Response {
    match app.system_mut().snapshot() {
        Ok(Some(meta)) => flat_reply(
            200,
            format,
            vec![
                ("generation", Json::Int(meta.generation as i64)),
                ("objects", Json::Int(meta.objects as i64)),
                ("bytes", Json::Int(meta.bytes as i64)),
            ],
        ),
        Ok(None) => error(
            409,
            format,
            "persistence is disabled (start with --data-dir)".to_string(),
        ),
        Err(e) => admin_error(e, format),
    }
}

/// Rewrites internal `annoda://object/...` link text to the hrefs this
/// server actually serves, so text clients can follow them too.
fn rewrite_links(text: &str) -> String {
    text.replace("annoda://object/", "/object/")
}

/// An onward href: internal links become routes on this server,
/// external links keep their original URL.
fn link_href(link: &WebLink) -> String {
    match link.internal_target() {
        Some((kind, key)) => format!("/object/{kind}/{key}"),
        None => link.url.clone(),
    }
}

fn link_json(link: &WebLink) -> Json {
    Json::obj([
        ("label", Json::str(link.label.clone())),
        ("href", Json::str(link_href(link))),
    ])
}

fn gene_json(g: &IntegratedGene) -> Json {
    Json::obj([
        ("symbol", Json::str(g.symbol.clone())),
        ("gene_id", g.gene_id.map(Json::Int).unwrap_or(Json::Null)),
        ("organism", Json::opt(g.organism.clone())),
        ("description", Json::opt(g.description.clone())),
        ("position", Json::opt(g.position.clone())),
        (
            "functions",
            Json::Arr(
                g.functions
                    .iter()
                    .map(|f| {
                        Json::obj([
                            ("id", Json::str(f.id.clone())),
                            ("name", Json::opt(f.name.clone())),
                            ("namespace", Json::opt(f.namespace.clone())),
                            ("evidence", Json::opt(f.evidence.clone())),
                            (
                                "sources",
                                Json::Arr(f.sources.iter().map(Json::str).collect()),
                            ),
                            ("link", link_json(&f.link)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "diseases",
            Json::Arr(
                g.diseases
                    .iter()
                    .map(|d| {
                        Json::obj([
                            ("id", Json::str(d.id.clone())),
                            ("name", Json::opt(d.name.clone())),
                            ("inheritance", Json::opt(d.inheritance.clone())),
                            (
                                "sources",
                                Json::Arr(d.sources.iter().map(Json::str).collect()),
                            ),
                            ("link", link_json(&d.link)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "publications",
            Json::Arr(
                g.publications
                    .iter()
                    .map(|p| {
                        Json::obj([
                            ("id", Json::str(p.id.clone())),
                            ("title", Json::opt(p.title.clone())),
                            ("journal", Json::opt(p.journal.clone())),
                            ("year", Json::opt(p.year.clone())),
                            ("link", link_json(&p.link)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("links", Json::Arr(g.links.iter().map(link_json).collect())),
    ])
}

fn object_json(view: &ObjectView) -> Json {
    Json::obj([
        ("kind", Json::str(view.kind.clone())),
        ("key", Json::str(view.key.clone())),
        (
            "attributes",
            Json::Obj(
                view.attributes
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::str(v.clone())))
                    .collect(),
            ),
        ),
        (
            "links",
            Json::Arr(view.links.iter().map(link_json).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accept_negotiation() {
        assert_eq!(negotiate(None), Some(Format::Text));
        assert_eq!(negotiate(Some("text/plain")), Some(Format::Text));
        assert_eq!(negotiate(Some("text/*")), Some(Format::Text));
        assert_eq!(negotiate(Some("*/*")), Some(Format::Text));
        assert_eq!(negotiate(Some("application/json")), Some(Format::Json));
        assert_eq!(
            negotiate(Some("application/json; q=0.9, text/plain")),
            Some(Format::Json)
        );
        assert_eq!(
            negotiate(Some("text/html, */*;q=0.1")),
            Some(Format::Text),
            "*/* fallback"
        );
        assert_eq!(negotiate(Some("text/html")), None);
        assert_eq!(negotiate(Some("image/png, text/html")), None);
    }

    #[test]
    fn internal_links_become_server_hrefs() {
        let internal = WebLink::internal("gene", "TP53");
        assert_eq!(link_href(&internal), "/object/gene/TP53");
        let external = WebLink::external("GO", "http://go/GO:1");
        assert_eq!(link_href(&external), "http://go/GO:1");
        assert_eq!(
            rewrite_links("see annoda://object/disease/151623 here"),
            "see /object/disease/151623 here"
        );
    }
}
