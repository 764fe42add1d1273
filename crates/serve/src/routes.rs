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
use annoda_stream::{FeedGauges, FeedSnapshot};

use crate::cache::CacheGauges;
use crate::conn::ShedGauges;
use crate::http::{percent_decode, Request, Response};
use crate::json::Json;
use crate::metrics::{self, Metrics};

/// Shared state every connection thread sees.
pub struct App {
    /// The ANNODA system, optionally durable. Query routes take the
    /// read side; the `/admin/*` mutation routes take the write side.
    pub system: Arc<RwLock<DurableSystem>>,
    /// Request counters and latency histograms.
    pub metrics: Arc<Metrics>,
    /// The response cache's counters.
    pub http_cache: Arc<CacheGauges>,
    /// Shed counters and admission-control state.
    pub shed: Arc<ShedGauges>,
    /// The live serving generation (the ETag / cache epoch key).
    pub generation: Arc<AtomicU64>,
    /// The live per-shard epoch vector. Connection threads validate
    /// dep-stamped cache entries and ETags against it without taking
    /// the system lock.
    pub epochs: EpochsHandle,
    /// The open apply window ([`DurableSystem::pending_handle`]):
    /// nonzero between a write's apply and its commit, when answers
    /// derived from the sources run ahead of every stamp.
    pub pending: Arc<AtomicU64>,
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

/// The store shards an answer depends on, as a mask: the shards `keys`
/// route to — exact for a point read, whose membership its keys fix —
/// or, for a selection (`None`), every shard, since any shard's commit
/// could add a member.
fn shards_read(app: &App, keys: Option<&[&str]>) -> u64 {
    let router = app.system().sharded().router();
    let shards: Vec<usize> = match keys {
        Some(keys) => keys.iter().map(|k| router.route(k)).collect(),
        None => (0..router.shards()).collect(),
    };
    annoda_oem::shard_mask(&shards)
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

/// The query parameter the read-your-writes gate consumes (stripped
/// before route-specific parameter handling).
pub const GATE_PARAM: &str = "min_position";

/// How long a gated read stalls for a follower's feeds to catch up
/// before answering `412 Precondition Failed`.
const GATE_STALL: std::time::Duration = std::time::Duration::from_millis(750);

/// This node's position per plugged source: on a leader the head of the
/// source's outbound journal, on a follower the sequence its leader-feed
/// tailer has absorbed (0 before its first batch).
fn positions(app: &App) -> (Role, Vec<(String, u64)>) {
    let (role, mut positions) = {
        let sys = app.system();
        (sys.role(), sys.positions())
    };
    if role == Role::Follower {
        let feeds = app.feed_snapshots();
        for (source, seq) in &mut positions {
            let feed = feeds.iter().find(|f| f.source == *source);
            *seq = feed.map_or(0, |f| f.applied_seq);
        }
    }
    (role, positions)
}

/// `SOURCE:SEQ,…` — the write token `/healthz` prints and
/// `?min_position` takes.
fn position_token(positions: &[(String, u64)]) -> String {
    let pairs: Vec<String> = positions.iter().map(|(s, q)| format!("{s}:{q}")).collect();
    pairs.join(",")
}

/// Read-your-writes: a client that wrote through the leader and read
/// its `positions` from `/healthz` can pin a read to at least them with
/// `?min_position=SOURCE:SEQ[,SOURCE:SEQ…]`, on any node in any store
/// shape. A sequence's high 32 bits name the journal incarnation it
/// came from. Per source:
///
/// - reached (same incarnation, at least `SEQ`) → served;
/// - a follower behind → it stalls up to [`GATE_STALL`] for its feeds,
///   then `412`; a follower at 0 has absorbed nothing yet, so it is
///   behind every position;
/// - another incarnation → `412` at once: the node holds a different
///   journal's state than the one the token came from;
/// - a leader asked for more than its head, or any node for a source it
///   does not serve → `412` at once: waiting brings nothing;
/// - malformed → `400`.
fn replication_gate(app: &App, pairs: &[(String, String)], format: Format) -> Result<(), Response> {
    let mut wanted = Vec::new();
    for (_, value) in pairs.iter().filter(|(key, _)| key == GATE_PARAM) {
        let parse = |p: &str| {
            let (source, seq) = p.rsplit_once(':')?;
            Some((source.to_string(), seq.parse::<u64>().ok()?)).filter(|_| !source.is_empty())
        };
        match value.split(',').map(parse).collect::<Option<Vec<_>>>() {
            Some(positions) => wanted.extend(positions),
            None => {
                let why = format!("min_position takes SOURCE:SEQ[,SOURCE:SEQ...]: {value}");
                return Err(error(400, format, why));
            }
        }
    }
    if wanted.is_empty() {
        return Ok(());
    }
    let deadline = Instant::now() + GATE_STALL;
    loop {
        let (role, held) = positions(app);
        let mut behind = None;
        for (source, want) in &wanted {
            let at = held.iter().find(|(s, _)| s == source).map(|(_, seq)| *seq);
            let refused = |why: String| Err(error(412, format, why));
            match at {
                None => return refused(format!("this {role} does not serve {source}")),
                Some(at) if at >> 32 == want >> 32 && at >= *want => {}
                Some(at) if at != 0 && at >> 32 != want >> 32 => {
                    return refused(format!(
                        "{role} at {source}:{at}: {source}:{want} is from another \
                         incarnation of the journal; read the node that handed it out"
                    ))
                }
                Some(at) if role == Role::Leader => {
                    return refused(format!(
                        "leader at {source}:{at} has not reached {source}:{want}"
                    ))
                }
                Some(at) => {
                    behind = Some(format!(
                        "{role} at {source}:{at}, precondition needs {source}:{want}"
                    ))
                }
            }
        }
        match behind {
            None => return Ok(()),
            Some(why) if Instant::now() >= deadline => {
                return Err(error(
                    412,
                    format,
                    format!("{why}; retry or read the leader"),
                ))
            }
            Some(_) => std::thread::sleep(std::time::Duration::from_millis(5)),
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
            .filter(|(k, _)| k != GATE_PARAM)
            .map(|(k, v)| (k.as_str(), v.as_str())),
    ) {
        Ok(q) => q,
        Err(e) => return error(400, format, e),
    };
    let answer = app.system().annoda().ask(&question);
    match answer {
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
            let shards = shards_read(app, None);
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
                        // trips this ask happened to pay: the subquery
                        // cache and the bind join change what runs (a
                        // question with no qualifying gene skips its
                        // bound legs), and one ETag must name one body
                        // whenever computed.
                        ("cost_requests", Json::Int(answer.plan.steps.len() as i64)),
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
            response.shards = Some(shards);
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
///
/// A 200 carries `Server-Timing` with the wall time of each stage in
/// ms: `parse`, `eval` (planning and binding), `materialize` (building
/// the answer) and `render` (text, and JSON when asked for).
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
            let render_started = Instant::now();
            let answer_text = oem_text::write_rooted(&served.view, "answer", served.outcome.answer);
            let mut response = match format {
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
            };
            let stages = served.explain.stages;
            let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
            response.headers.push((
                "server-timing",
                format!(
                    "parse;dur={:.3}, eval;dur={:.3}, materialize;dur={:.3}, render;dur={:.3}",
                    ms(stages.parse),
                    ms(stages.eval),
                    ms(stages.materialize),
                    ms(render_started.elapsed()),
                ),
            ));
            response
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
            GATE_PARAM => {} // consumed by the gate
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
    let shards = shards_read(app, None);
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
    response.shards = Some(shards);
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
    let view = app.system().annoda().navigator().view(&kind, &key);
    match view {
        Ok(view) => {
            // A point read: the viewed object's key plus every internal
            // link target it renders — exact shard deps.
            let links = view.links.iter().filter_map(|l| l.internal_target());
            let keys: Vec<&str> = std::iter::once(view.key.as_str())
                .chain(links.map(|(_, k)| k))
                .collect();
            let shards = shards_read(app, Some(&keys));
            let mut response = match format {
                Format::Text => Response::text(200, rewrite_links(&render_object_view(&view))),
                Format::Json => Response::json(200, &object_json(&view)),
            };
            response.shards = Some(shards);
            response
        }
        Err(e @ NavigateError::UnknownKind(_)) => error(400, format, e.to_string()),
        Err(e @ NavigateError::NotFound { .. }) => error(404, format, e.to_string()),
    }
}

fn healthz(app: &App, format: Format) -> Response {
    // The positions double as the write token for read-your-writes: a
    // client that writes, reads `/healthz` on the leader, and pins
    // replica reads with `?min_position=` sees its own write everywhere.
    let (role, positions) = positions(app);
    let fields = vec![
        (
            "uptime_s",
            Json::Int(app.started.elapsed().as_secs() as i64),
        ),
        ("requests", Json::Int(app.metrics.requests_total() as i64)),
        ("role", Json::str(role.to_string())),
        ("positions", Json::str(position_token(&positions))),
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
            metrics::persist_section(sys.sharded().persist_stats().as_ref()),
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
            metrics::store_section(&sys.sharded().shard_gauges(), sys.sharded().txn_stats()),
            metrics::repl_section(sys.role()),
            metrics::federation_section(&sys.annoda().federation_stats()),
            metrics::feed_section(&feeds),
        ]
    };
    let tree = app.metrics.tree(sections);
    negotiated(200, format, || tree.render_text(), || tree.render_json())
}

/// `POST /admin/refresh` — wrappers re-pull their sources; with a data
/// directory attached the GML delta is journaled. `?source=NAME`
/// re-pulls a single source: only the store shards holding that
/// source's changed entities bump their epochs, so cached responses for
/// everything else keep serving.
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

/// `POST /admin/promote` — failover: a follower becomes the leader and
/// starts accepting writes; its leader-feed tailers stop. The reply
/// names its positions, the write token its own journals start from.
/// `409` on a node that is already the leader.
fn admin_promote(app: &App, format: Format) -> Response {
    {
        let sys = app.system();
        if sys.role() == Role::Leader {
            return error(409, format, "this node is already the leader".to_string());
        }
    }
    let promoted = app.system_mut().promote();
    match promoted {
        Ok(()) => flat_reply(
            200,
            format,
            vec![
                ("role", Json::str("leader")),
                ("positions", Json::str(position_token(&positions(app).1))),
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

    /// `POST /lorel` on the three-binding join, in process: the four
    /// stages appear in order, each duration parses as a non-negative
    /// number of ms, and together they fit inside the call's wall time.
    #[test]
    fn lorel_reports_its_stages_in_server_timing() {
        use crate::{ServeConfig, Server};
        use annoda::Annoda;
        use annoda_sources::{Corpus, CorpusConfig};

        let c = Corpus::generate(CorpusConfig::tiny(42));
        let (system, _) = Annoda::over_sources(c.locuslink, c.go, c.omim);
        let server = Server::start(system, ServeConfig::default()).expect("bind ephemeral port");
        let app = server.app();
        for accept in ["text/plain", "application/json"] {
            let req = Request {
                method: "POST".into(),
                path: "/lorel".into(),
                query: String::new(),
                headers: vec![("accept".into(), accept.into())],
                body: b"select count(G) from ANNODA-GML.Gene G, G.FunctionID F, G.DiseaseID D"
                    .to_vec(),
            };
            let started = Instant::now();
            let response = handle(&app, &req);
            let wall_ms = started.elapsed().as_secs_f64() * 1e3;
            assert_eq!(
                response.status,
                200,
                "{}",
                String::from_utf8_lossy(&response.body)
            );
            let timing = response
                .headers
                .iter()
                .find(|(name, _)| *name == "server-timing")
                .map(|(_, value)| value.clone())
                .expect("a Server-Timing header");
            let stages: Vec<(&str, f64)> = timing
                .split(", ")
                .map(|metric| {
                    let (name, dur) = metric.split_once(";dur=").expect("name;dur=ms");
                    (name, dur.parse::<f64>().expect("dur is a number"))
                })
                .collect();
            let names: Vec<&str> = stages.iter().map(|(name, _)| *name).collect();
            assert_eq!(
                names,
                ["parse", "eval", "materialize", "render"],
                "{timing}"
            );
            assert!(stages.iter().all(|&(_, dur)| dur >= 0.0), "{timing}");
            let sum: f64 = stages.iter().map(|(_, dur)| dur).sum();
            assert!(
                sum <= wall_ms,
                "stages {timing} sum past the wall time {wall_ms} ms"
            );
        }
        drop(app);
        server.shutdown(std::time::Duration::from_secs(1));
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
