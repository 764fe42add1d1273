//! The traced run: the same system built inside the harness process,
//! the first requests (or mutations) of the seeded stream replayed
//! single-threaded, with a span around every call into a crate's
//! public functions.
//!
//! Each request goes through the opaque entry point (`routes::handle`,
//! `Annoda::ask`, `DurableSystem::absorb_delta`) *and* through the same
//! steps called one by one, so what the steps do not account for is
//! itself a number (`*_unattributed_*`, `trace.coverage`).
//!
//! Only public functions and published fields are used; no private
//! algorithm of a crate is copied here. Where a step is private (the
//! mediator's narrowing of subqueries between its source phases), the
//! opaque call's own measurements stand in for it, and a step that
//! disagrees with the opaque call is a warning, not a failed operation:
//! the oracle alone judges answers.
//!
//! Two deliberate differences from the SUT, both so that every step
//! really runs and can be timed: the response cache is the harness's
//! own `ResponseCache` instance (a reactor shard's is private), and the
//! ask decomposition of `uncached_asks` runs with the mediator's
//! subquery cache off (its hit ratio is measured on the SUT instead).

use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use annoda::{
    parse_question_pairs, render_integrated_view, render_object_view, Annoda, DurableSystem,
    FsyncPolicy, FusionStrategy, GmlSnapshot, GML_ROOT,
};
use annoda_federation::ChangeRecord;
use annoda_mediator::fusion::{fuse, TaggedResult};
use annoda_mediator::{GeneQuestion, Mediator};
use annoda_oem::ShardedStore;
use annoda_persist::encode_store;
use annoda_search::{docs_fingerprint, SearchIndex};
use annoda_serve::cache::CacheKey;
use annoda_serve::http::{encode_response, try_parse, Limits, Parsed, Request};
use annoda_serve::{negotiate, CacheGauges, ResponseCache, ServeConfig, Server};
use annoda_sources::Corpus;
use annoda_wrap::{scripted_mutation, Cost, GoWrapper, LocusLinkWrapper, OmimWrapper, Wrapper};

use crate::client::encode;
use crate::metrics::Cell;
use crate::oracle::{check_body, Oracle};
use crate::spans::{Span, Tracer};
use crate::stats::median;
use crate::streams::{Op, Plan, Req, Workload, RESPONSE_CACHE_PER_SHARD};

/// What the traced run produced.
pub struct Traced {
    pub cells: Vec<Cell>,
    /// Answers that disagreed with the oracle: failed operations.
    pub mismatches: Vec<String>,
    /// Steps that disagreed with the opaque call: printed, not failed.
    pub warnings: Vec<String>,
}

/// Requests (mutations for the write workload) replayed at most; the
/// time budget usually ends the replay first on the heavy workloads.
fn replay_length(workload: Workload) -> usize {
    match workload {
        Workload::CachedReads => 2000,
        Workload::UncachedAsks => 300,
        Workload::LorelSearchMix => 1000,
        Workload::ReadsUnderWrites => 100,
    }
}

/// Records per absorbed batch in the write replay — what one tailer
/// poll collects at the offered 10 records/s when a commit takes about
/// half a second.
const BATCH: usize = 5;

fn us(ns: f64) -> f64 {
    ns / 1e3
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

/// Median duration of the spans called `span`, converted by `unit`;
/// `scale` shrinks the metric's sample floor for a shortened replay.
fn cell(t: &Tracer, scale: f64, name: &'static str, span: &str, unit: fn(f64) -> f64) -> Cell {
    let mut d = t.durations_ns(span);
    let n = d.len() as u64;
    match median(&mut d) {
        Some(m) => Cell::floored(name, Some(unit(m)), n, scale),
        None => Cell::plain(name, 0.0, 0),
    }
}

/// Plugs the three sources the way `Annoda::over_sources` does, with a
/// span around the export and around the MDSM match.
fn build_system(t: &mut Tracer, corpus: &Corpus) -> Annoda {
    let (ll, go, omim) = (
        corpus.locuslink.clone(),
        corpus.go.clone(),
        corpus.omim.clone(),
    );
    let wrappers: Vec<Box<dyn Wrapper>> = t.span("wrap.export_oml", 0, |_| {
        vec![
            Box::new(LocusLinkWrapper::new(ll)) as Box<dyn Wrapper>,
            Box::new(GoWrapper::new(go)),
            Box::new(OmimWrapper::new(omim)),
        ]
    });
    let mut system = Annoda::new();
    t.span("matcher.mdsm_match", 0, |_| {
        for w in wrappers {
            system.plug(w);
        }
    });
    system
}

/// What one uncached ask cost, from the opaque call's own published
/// measurements and from the steps reachable through public functions.
struct AskSteps {
    /// The request the spans carry.
    id: u64,
    /// Subqueries the ask executed (source requests plus cache hits).
    subqueries: u64,
    /// Records the sources shipped to it, by the mediator's own account
    /// (`cost.records`: one per projected value of every shipped row).
    records: u64,
    /// The mediator's own clock around its concurrent source phases.
    wall_path_us: f64,
    /// Per source: mean measured time of the subqueries the ask ran.
    per_source_us: Vec<(String, f64)>,
}

/// The steps of `Mediator::answer` that public functions reach: `plan`,
/// every planned subquery *as planned*, `fuse` over their results.
/// (Between its two source phases the mediator may narrow the planned
/// annotation and disease subqueries to the genes the first phase found;
/// that rewrite is private, so what the ask really ran is read from the
/// answer it published instead, see [`AskSteps`], and `mediator.fuse`
/// here sees at least the rows the ask's own fusion saw.)
/// Returns the fused symbols.
fn planned_steps(
    t: &mut Tracer,
    id: u64,
    mediator: &Mediator,
    question: &GeneQuestion,
) -> Result<Vec<String>, String> {
    let plan = t.span("mediator.plan", id, |_| mediator.plan(question));
    let mut tagged: Vec<TaggedResult> = Vec::new();
    for step in &plan.steps {
        let source = &step.query.source;
        let wrapper = mediator
            .wrapper(source)
            .ok_or_else(|| format!("no wrapper {source}"))?;
        let result = t
            .span("wrap.subquery_as_planned", id, |_| {
                wrapper.subquery(&step.query.lorel, &mut Cost::new())
            })
            .map_err(|e| e.to_string())?;
        tagged.push(TaggedResult {
            source: source.clone(),
            purpose: step.query.purpose,
            result,
        });
    }
    let fused = t.span("mediator.fuse", id, |_| {
        fuse(question, &tagged, mediator.policy.clone())
    });
    Ok(fused.genes.into_iter().map(|g| g.symbol).collect())
}

/// Spans of request `id` called `name`, summed (ns).
fn sum_ns(spans: &[Span], id: u64, names: &[&str]) -> f64 {
    spans
        .iter()
        .filter(|s| {
            s.request_id == id
                && names.iter().any(|n| {
                    s.name == *n
                        || (n.ends_with('*') && s.name.starts_with(n.trim_end_matches('*')))
                })
        })
        .map(|s| s.duration_ns() as f64)
        .sum()
}

/// Replays the read stream of `plan` through an in-process server's
/// `App`, opaque and stepwise.
fn replay_reads(
    t: &mut Tracer,
    system: Annoda,
    plan: &Plan,
    oracle: &Oracle,
    budget: Duration,
    scale: f64,
) -> io::Result<Traced> {
    let workload = plan.workload();
    let server = Server::start_durable(DurableSystem::new(system), ServeConfig::default())?;
    let app = server.app();
    let limits = Limits::default();
    let requests: Vec<Req> = plan.stream(0, 1).take(replay_length(workload)).collect();
    let mut mismatches = Vec::new();

    if workload == Workload::LorelSearchMix {
        // The first snapshot of an epoch materialises the GML and builds
        // the search index; every later one only pins it.
        t.span("annoda.snapshot_build", 0, |_| {
            app.system().query_snapshot()
        })
        .map_err(|e| io::Error::other(e.to_string()))?;
    }

    // Tracing overhead: the opaque call alone over a prefix of the
    // stream, warm, without and then with a span around it.
    let overhead_started = Instant::now();
    let parsed: Vec<Request> = requests
        .iter()
        .map(|r| match try_parse(&encode(r, None), &limits) {
            Ok(Parsed::Complete { request, .. }) => Ok(request),
            _ => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "harness request does not parse",
            )),
        })
        .collect::<io::Result<_>>()?;
    let mut prefix = 0;
    for request in &parsed {
        std::hint::black_box(annoda_serve::handle(&app, request));
        prefix += 1;
        if overhead_started.elapsed() > budget / 8 {
            break;
        }
    }
    let untraced = Instant::now();
    for request in &parsed[..prefix] {
        std::hint::black_box(annoda_serve::handle(&app, request));
    }
    let untraced = untraced.elapsed();
    let mut probe = Tracer::new(true);
    let traced = Instant::now();
    for (i, request) in parsed[..prefix].iter().enumerate() {
        probe.span("serve.handle", i as u64, |_| {
            std::hint::black_box(annoda_serve::handle(&app, request))
        });
    }
    let overhead = traced.elapsed().as_secs_f64() / untraced.as_secs_f64().max(1e-9);

    let generation = 1;
    let mut cache = ResponseCache::new(RESPONSE_CACHE_PER_SHARD, Arc::new(CacheGauges::default()));
    let mut out = Vec::new();
    let started = Instant::now();
    let mut asks: Vec<AskSteps> = Vec::new();
    let mut warnings = Vec::new();
    let mut probes_per_row = Vec::new();
    let mut workers = Vec::new();
    for (i, (req, request)) in requests.iter().zip(&parsed).enumerate() {
        if i > 0 && started.elapsed() > budget {
            break;
        }
        let id = i as u64 + 1;
        let bytes = encode(req, None);
        t.span("serve.http_parse", id, |_| {
            std::hint::black_box(try_parse(&bytes, &limits).is_ok())
        });
        let format = negotiate(request.header("accept")).expect("harness sends acceptable formats");
        let key = CacheKey {
            target: req.target.clone(),
            format,
        };
        let cacheable = req.op != Op::Lorel;
        let hit = cacheable
            && t.span("serve.cache_lookup", id, |_| {
                cache.lookup(&key, generation, None).is_some()
            });
        if hit {
            let cached = cache.lookup(&key, generation, None).expect("just hit");
            t.span("serve.encode_response", id, |_| {
                encode_response(&mut out, cached, true)
            });
            out.clear();
            continue;
        }
        let response = t.span("serve.handle_miss", id, |_| {
            annoda_serve::handle(&app, request)
        });
        t.span("serve.encode_response", id, |_| {
            encode_response(&mut out, &response, true)
        });
        out.clear();
        let body = String::from_utf8_lossy(&response.body);
        if response.status != 200 {
            mismatches.push(format!("traced {}: status {}", req.target, response.status));
        } else if let Err(e) = check_body(oracle, &req.expect, req.json, &body, None) {
            mismatches.push(format!("traced {}: {e}", req.target));
        }
        if cacheable && response.status == 200 {
            cache.insert(key, generation, None, response.clone());
        }

        // The same request, step by step.
        let sys = app.system();
        match req.op {
            Op::Genes => {
                let pairs = request.query_pairs();
                let question =
                    parse_question_pairs(pairs.iter().map(|(k, v)| (k.as_str(), v.as_str())))
                        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
                let answer = t
                    .span("mediator.ask_total", id, |_| sys.annoda().ask(&question))
                    .map_err(|e| io::Error::other(e.to_string()))?;
                if !req.json {
                    t.span("serve.render_text", id, |_| {
                        std::hint::black_box(render_integrated_view(&answer.fused.genes))
                    });
                }
                if workload == Workload::UncachedAsks {
                    asks.push(AskSteps {
                        id,
                        subqueries: answer.cost.requests + answer.cost.cache_hits,
                        records: answer.cost.records,
                        wall_path_us: answer.wall_path_us as f64,
                        per_source_us: answer
                            .per_source_cost
                            .iter()
                            .filter(|(_, c)| c.requests > 0)
                            .map(|(source, c)| {
                                (source.clone(), c.wall_us as f64 / c.requests as f64)
                            })
                            .collect(),
                    });
                    // Narrowing the planned subqueries must not change
                    // the answer; if it ever does, say so, but the
                    // oracle above is the judge of the answer.
                    match planned_steps(t, id, sys.annoda().mediator(), &question) {
                        Ok(symbols) => {
                            if !symbols
                                .iter()
                                .eq(answer.fused.genes.iter().map(|g| &g.symbol))
                            {
                                warnings.push(format!(
                                    "the plan run as planned fuses other genes than Annoda::ask on {}",
                                    req.target
                                ));
                            }
                        }
                        Err(e) => warnings.push(format!("planned steps of {}: {e}", req.target)),
                    }
                }
            }
            Op::Object => {
                let symbol = req.target.rsplit('/').next().unwrap_or_default();
                if let Ok(view) = t.span("annoda.navigate", id, |_| {
                    sys.annoda().navigator().view("gene", symbol)
                }) {
                    if !req.json {
                        t.span("serve.render_text", id, |_| {
                            std::hint::black_box(render_object_view(&view))
                        });
                    }
                }
            }
            Op::Lorel => {
                let snap = t
                    .span("annoda.snapshot_pin", id, |_| sys.query_snapshot())
                    .map_err(|e| io::Error::other(e.to_string()))?;
                t.span("lorel.parse", id, |_| {
                    std::hint::black_box(annoda_lorel::parse(&req.body).is_ok())
                });
                let span = if req.body.starts_with("select count") {
                    "lorel.eval_join"
                } else if req.body.contains("Source S") {
                    "lorel.eval_example"
                } else {
                    "lorel.eval_point"
                };
                if let Ok(served) = t.span(span, id, |_| DurableSystem::lorel_on(&snap, &req.body))
                {
                    probes_per_row.push(
                        served.explain.probes.bindings_enumerated as f64
                            / served.explain.probes.rows_emitted.max(1) as f64,
                    );
                    workers.push(served.explain.workers_used as f64);
                }
            }
            Op::Search => {
                let snap = t
                    .span("annoda.snapshot_pin", id, |_| sys.query_snapshot())
                    .map_err(|e| io::Error::other(e.to_string()))?;
                let pairs = request.query_pairs();
                let get = |k: &str| {
                    pairs
                        .iter()
                        .find(|(key, _)| key == k)
                        .map(|(_, v)| v.clone())
                };
                let (query, k) = (
                    get("q").unwrap_or_default(),
                    get("k").and_then(|k| k.parse().ok()).unwrap_or(10),
                );
                let strategy = get("fusion")
                    .and_then(|f| FusionStrategy::parse(&f))
                    .unwrap_or(FusionStrategy::Weighted);
                t.span("search.query", id, |_| {
                    std::hint::black_box(DurableSystem::search_on(&snap, &query, k, strategy))
                });
            }
        }
    }

    // ---- cells -------------------------------------------------------
    let mut cells = vec![
        cell(t, scale, "serve.http_parse_us", "serve.http_parse", us),
        cell(
            t,
            scale,
            "serve.cache_lookup_ns",
            "serve.cache_lookup",
            |ns| ns,
        ),
        cell(t, scale, "serve.handle_miss_us", "serve.handle_miss", us),
        cell(t, scale, "serve.render_text_us", "serve.render_text", us),
        cell(
            t,
            scale,
            "serve.encode_response_us",
            "serve.encode_response",
            us,
        ),
        cell(t, scale, "mediator.ask_total_us", "mediator.ask_total", us),
        cell(t, scale, "mediator.plan_us", "mediator.plan", us),
        cell(t, scale, "mediator.fuse_us", "mediator.fuse", us),
        Cell::plain("trace.overhead_ratio", overhead, prefix as u64),
    ];
    let spans = t.spans();
    let ids: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == "serve.handle_miss")
        .map(|s| s.request_id)
        .collect();
    // Coverage: stepwise spans over their opaque parent, on the
    // requests that have both. For uncached asks the parent is
    // `Annoda::ask` and the time it waited on its sources, which the
    // mediator clocks itself, counts as a step; elsewhere the parent is
    // `routes::handle` on text requests.
    let source_wait_ns: HashMap<u64, f64> =
        asks.iter().map(|a| (a.id, a.wall_path_us * 1e3)).collect();
    let (opaque, steps): (&str, &[&str]) = if workload == Workload::UncachedAsks {
        ("mediator.ask_total", &["mediator.plan", "mediator.fuse"])
    } else {
        (
            "serve.handle_miss",
            &[
                "mediator.ask_total",
                "annoda.navigate",
                "annoda.snapshot_*",
                "lorel.eval_*",
                "search.query",
                "serve.render_text",
            ],
        )
    };
    let covered: Vec<u64> = ids
        .iter()
        .copied()
        .filter(|&id| {
            workload == Workload::UncachedAsks
                || !requests[id as usize - 1].json
                || requests[id as usize - 1].op == Op::Lorel
        })
        .collect();
    let (mut opaque_ns, mut step_ns) = (0.0, 0.0);
    let mut unattributed = Vec::new();
    for &id in &covered {
        let o = sum_ns(spans, id, &[opaque]);
        let s = sum_ns(spans, id, steps) + source_wait_ns.get(&id).copied().unwrap_or(0.0);
        if o > 0.0 && s > 0.0 {
            opaque_ns += o;
            step_ns += s;
            unattributed.push(us(o - s));
        }
    }
    cells.push(Cell::plain(
        "trace.coverage",
        if opaque_ns > 0.0 {
            step_ns / opaque_ns
        } else {
            0.0
        },
        unattributed.len() as u64,
    ));
    if workload == Workload::UncachedAsks {
        let n = asks.len() as u64;
        let mean =
            |f: fn(&AskSteps) -> u64| asks.iter().map(f).sum::<u64>() as f64 / n.max(1) as f64;
        let mut wall: Vec<f64> = asks.iter().map(|a| a.wall_path_us).collect();
        cells.extend([
            Cell::plain(
                "mediator.ask_unattributed_us",
                median(&mut unattributed).unwrap_or(0.0),
                n,
            ),
            Cell::plain("mediator.subqueries_per_ask", mean(|a| a.subqueries), n),
            Cell::plain("wrap.rows_shipped_per_ask", mean(|a| a.records), n),
            Cell::plain(
                "mediator.source_wall_path_us",
                median(&mut wall).unwrap_or(0.0),
                n,
            ),
        ]);
        for (name, source) in [
            ("wrap.subquery_locuslink_us", "LocusLink"),
            ("wrap.subquery_go_us", "GO"),
            ("wrap.subquery_omim_us", "OMIM"),
        ] {
            let mut of_source: Vec<f64> = asks
                .iter()
                .flat_map(|a| &a.per_source_us)
                .filter(|(s, _)| s == source)
                .map(|(_, us)| *us)
                .collect();
            let n = of_source.len() as u64;
            cells.push(Cell::floored(name, median(&mut of_source), n, scale));
        }
    }
    if workload == Workload::LorelSearchMix {
        let n = probes_per_row.len() as u64;
        // (The hot set's eight searches also pin a snapshot and query the
        // index, but eight samples are not a measurement.)
        cells.extend([
            cell(t, scale, "lorel.parse_us", "lorel.parse", us),
            cell(t, scale, "lorel.eval_point_us", "lorel.eval_point", us),
            cell(t, scale, "lorel.eval_join_us", "lorel.eval_join", us),
            cell(t, scale, "lorel.eval_example_us", "lorel.eval_example", us),
            cell(t, scale, "search.query_us", "search.query", us),
            cell(
                t,
                scale,
                "annoda.snapshot_build_ms",
                "annoda.snapshot_build",
                ms,
            ),
            cell(
                t,
                scale,
                "annoda.snapshot_pin_ns",
                "annoda.snapshot_pin",
                |ns| ns,
            ),
            Cell::plain(
                "lorel.probes_per_row",
                median(&mut probes_per_row).unwrap_or(0.0),
                n,
            ),
            Cell::plain("lorel.workers_used", median(&mut workers).unwrap_or(0.0), n),
        ]);
        // What set-up pays once, each on its own.
        let sys = app.system();
        let mediator = sys.annoda().mediator();
        let gml = t
            .span("mediator.materialize_gml", 0, |_| {
                mediator.materialize_gml()
            })
            .map_err(|e| io::Error::other(e.to_string()))?
            .0;
        t.span("persist.encode_store", 0, |_| {
            std::hint::black_box(encode_store(&gml).len())
        });
        let docs = mediator.harvest_text_docs();
        let index = t.span("search.index_build", 0, |_| SearchIndex::build(&docs));
        // The first point lookup on a fresh store builds the value
        // index it then seeks in; the second only seeks.
        let objects = gml.len();
        let fresh = GmlSnapshot {
            epoch: 0,
            store: Arc::new(gml),
            build_cost: Cost::new(),
            search: Arc::new(index),
            shard_epochs: None,
            shard_router: None,
        };
        let point = requests
            .iter()
            .find(|r| r.op == Op::Lorel)
            .map(|r| r.body.clone())
            .unwrap_or_default();
        let lookups: Vec<f64> = (0..2)
            .map(|_| {
                let t0 = Instant::now();
                std::hint::black_box(DurableSystem::lorel_on(&fresh, &point).is_ok());
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        cells.extend([
            cell(
                t,
                scale,
                "mediator.materialize_gml_ms",
                "mediator.materialize_gml",
                ms,
            ),
            cell(
                t,
                scale,
                "persist.encode_store_ms",
                "persist.encode_store",
                ms,
            ),
            cell(t, scale, "search.index_build_ms", "search.index_build", ms),
            Cell::plain("search.postings", fresh.search.stats().postings as f64, 1),
            Cell::plain("oem.store_objects", objects as f64, 1),
            Cell::plain("oem.index_build_ms", (lookups[0] - lookups[1]).max(0.0), 1),
        ]);
    }
    drop(app);
    let _ = server.shutdown(Duration::from_secs(5));
    Ok(Traced {
        cells,
        mismatches,
        warnings,
    })
}

/// Replays scripted mutations into an in-process sharded durable
/// system, batch by batch: opaque (`absorb_delta`), as the two public
/// halves the tailer calls, and with the commit half taken apart.
fn replay_writes(
    t: &mut Tracer,
    system: Annoda,
    corpus: &Corpus,
    seed: u64,
    scratch: &Path,
    budget: Duration,
    scale: f64,
) -> io::Result<Vec<Cell>> {
    let other = |e: annoda::AnnodaError| io::Error::other(e.to_string());
    let dir = scratch.join(format!("trace-data-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)?;
    let mut sys = t
        .span("persist.cold_open", 0, |_| {
            DurableSystem::open_sharded(system, &dir, FsyncPolicy::Batched(64), 4)
        })
        .map_err(other)?;
    let snapshot = t
        .span("annoda.snapshot_build", 0, |_| sys.query_snapshot())
        .map_err(other)?;
    let sharded = sys.sharded_handle().expect("opened sharded");

    let mut source = LocusLinkWrapper::new(corpus.locuslink.clone());
    let mut mirror = LocusLinkWrapper::new(corpus.locuslink.clone());
    let started = Instant::now();
    let (mut step, mut batch_no) = (0u64, 0u64);
    let mut untraced_ms = Vec::new();
    let (mut shards, mut fragments) = (Vec::new(), Vec::new());
    while (step as usize) < replay_length(Workload::ReadsUnderWrites)
        && (batch_no < 4 || started.elapsed() < budget)
    {
        batch_no += 1;
        let id = batch_no;
        let mut records = Vec::with_capacity(BATCH);
        for _ in 0..BATCH {
            let (key, flat) =
                scripted_mutation(&mut source, seed, step).expect("LocusLink is scriptable");
            step += 1;
            t.span("wrap.apply_change", id, |_| {
                mirror.apply_change(&key, Some(&flat))
            })
            .map_err(|e| io::Error::other(e.to_string()))?;
            records.push(ChangeRecord {
                key,
                flat: Some(flat),
            });
        }
        match batch_no % 4 {
            1 => {
                t.span("annoda.absorb_delta", id, |_| {
                    sys.absorb_delta("LocusLink", &records, false)
                })
                .map_err(other)?;
            }
            2 => {
                let n = t
                    .span("annoda.absorb_apply", id, |_| {
                        sys.absorb_apply("LocusLink", &records, false)
                    })
                    .map_err(other)?;
                let outcome = t
                    .span("annoda.absorb_commit", id, |_| {
                        sys.absorb_commit("LocusLink", n)
                    })
                    .map_err(other)?;
                shards.push(outcome.changed_shards as f64);
                fragments.push(outcome.changed_fragments as f64);
            }
            3 => {
                t.span("annoda.absorb_apply", id, |_| {
                    sys.absorb_apply("LocusLink", &records, false)
                })
                .map_err(other)?;
                t.span(
                    "annoda.commit_stepwise",
                    id,
                    |t| -> Result<(), annoda::AnnodaError> {
                        let (gml, _) = t.span("mediator.materialize_gml", id, |_| {
                            sys.annoda().mediator().materialize_gml()
                        })?;
                        let txn = t.span("annoda.txn_stage", id, |_| {
                            let mut txn = sharded.begin();
                            txn.stage(&gml)?;
                            Ok::<_, annoda::AnnodaError>(txn)
                        })?;
                        t.span("annoda.txn_commit", id, |_| sharded.commit(txn))
                            .map_err(|_| {
                                annoda::AnnodaError::Txn("stepwise commit conflicted".into())
                            })?;
                        t.span("persist.sync", id, |_| sharded.sync())?;
                        // What `absorb_commit` pays to learn that the delta
                        // touched no searchable text.
                        t.span("search.harvest_fingerprint", id, |_| {
                            std::hint::black_box(docs_fingerprint(
                                &sys.annoda().mediator().harvest_text_docs(),
                            ))
                        });
                        Ok(())
                    },
                )
                .map_err(other)?;
            }
            _ => {
                let t0 = Instant::now();
                sys.absorb_delta("LocusLink", &records, false)
                    .map_err(other)?;
                untraced_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            }
        }
        t.span("annoda.republish", id, |_| sys.query_snapshot())
            .map_err(other)?;
    }

    // Layer steps the commit runs inside `stage`/`republish`, each on
    // its own against the final state.
    let (gml, _) = sys
        .annoda()
        .mediator()
        .materialize_gml()
        .map_err(|e| io::Error::other(e.to_string()))?;
    let staged = t
        .span("oem.partition", 0, |_| {
            ShardedStore::partition(&gml, GML_ROOT, 4)
        })
        .map_err(|e| io::Error::other(e.to_string()))?;
    let pinned = sharded.pin();
    t.span("oem.changed_shards_diff", 0, |_| {
        std::hint::black_box(pinned.changed_shards(&staged))
    });
    t.span("oem.assemble", 0, |_| {
        std::hint::black_box(pinned.assemble().len())
    });
    t.span("persist.encode_store", 0, |_| {
        std::hint::black_box(encode_store(&gml).len())
    });
    let docs = sys.annoda().mediator().harvest_text_docs();
    if let Some((name, omim_docs)) = docs.iter().find(|(name, _)| name == "OMIM") {
        // One source's slice rebuilt, the rest of the postings reused.
        t.span("search.incremental_update", 0, |_| {
            std::hint::black_box(snapshot.search.with_source_updated(
                name,
                omim_docs,
                docs_fingerprint(&docs),
            ))
        });
    }

    let per_record = |t: &Tracer, span: &str| -> Vec<f64> {
        t.durations_ns(span)
            .into_iter()
            .map(|ns| us(ns) / BATCH as f64)
            .collect()
    };
    let mut apply = per_record(t, "annoda.absorb_apply");
    let apply_n = apply.len() as u64;
    let spans = t.spans();
    let commit_ids: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == "annoda.commit_stepwise")
        .map(|s| s.request_id)
        .collect();
    let step_names = [
        "mediator.materialize_gml",
        "annoda.txn_stage",
        "annoda.txn_commit",
        "persist.sync",
        "search.harvest_fingerprint",
    ];
    let mut stepwise_ms: Vec<f64> = commit_ids
        .iter()
        .map(|&id| ms(sum_ns(spans, id, &step_names)))
        .collect();
    let mut commit_ms: Vec<f64> = t
        .durations_ns("annoda.absorb_commit")
        .into_iter()
        .map(ms)
        .collect();
    let (commit, stepwise) = (
        median(&mut commit_ms).unwrap_or(0.0),
        median(&mut stepwise_ms).unwrap_or(0.0),
    );
    let mut traced_ms: Vec<f64> = t
        .durations_ns("annoda.absorb_delta")
        .into_iter()
        .map(ms)
        .collect();
    let overhead = match (median(&mut traced_ms), median(&mut untraced_ms)) {
        (Some(a), Some(b)) if b > 0.0 => a / b,
        _ => 0.0,
    };
    let cells = vec![
        cell(t, scale, "persist.cold_open_ms", "persist.cold_open", ms),
        cell(
            t,
            scale,
            "annoda.snapshot_build_ms",
            "annoda.snapshot_build",
            ms,
        ),
        cell(
            t,
            scale,
            "wrap.apply_change_us_per_record",
            "wrap.apply_change",
            us,
        ),
        Cell::floored(
            "annoda.absorb_apply_us_per_record",
            median(&mut apply),
            apply_n,
            scale,
        ),
        cell(
            t,
            scale,
            "annoda.absorb_commit_ms",
            "annoda.absorb_commit",
            ms,
        ),
        Cell::plain(
            "annoda.absorb_unattributed_ms",
            commit - stepwise,
            commit_ids.len() as u64,
        ),
        Cell::plain(
            "annoda.changed_shards_per_commit",
            median(&mut shards).unwrap_or(0.0),
            shards.len() as u64,
        ),
        Cell::plain(
            "annoda.changed_fragments_per_commit",
            median(&mut fragments).unwrap_or(0.0),
            fragments.len() as u64,
        ),
        cell(
            t,
            scale,
            "mediator.materialize_gml_ms",
            "mediator.materialize_gml",
            ms,
        ),
        cell(t, scale, "oem.partition_ms", "oem.partition", ms),
        cell(
            t,
            scale,
            "oem.changed_shards_diff_ms",
            "oem.changed_shards_diff",
            ms,
        ),
        cell(t, scale, "oem.assemble_ms", "oem.assemble", ms),
        cell(
            t,
            scale,
            "persist.encode_store_ms",
            "persist.encode_store",
            ms,
        ),
        cell(
            t,
            scale,
            "search.incremental_update_ms",
            "search.incremental_update",
            ms,
        ),
        Cell::plain(
            "search.postings",
            snapshot.search.stats().postings as f64,
            1,
        ),
        Cell::plain("oem.store_objects", gml.len() as f64, 1),
        Cell::plain(
            "trace.coverage",
            if commit > 0.0 { stepwise / commit } else { 0.0 },
            commit_ids.len() as u64,
        ),
        Cell::plain("trace.overhead_ratio", overhead, traced_ms.len() as u64),
    ];
    drop((snapshot, sharded, sys));
    let _ = std::fs::remove_dir_all(&dir);
    Ok(cells)
}

/// The traced run of `plan`'s workload. Spans go to `trace_file` when
/// given; the write replay keeps its data directory under `scratch`.
pub fn run(
    corpus: &Corpus,
    oracle: &Oracle,
    plan: &Plan,
    scratch: &Path,
    budget: Duration,
    trace_file: Option<&Path>,
) -> io::Result<Traced> {
    let mut t = Tracer::new(true);
    // Sample floors are stated for the full 5 s replay budget.
    let scale = (budget.as_secs_f64() / 5.0).min(1.0);
    let mut system = build_system(&mut t, corpus);
    let mut cells = vec![
        cell(&t, scale, "wrap.export_oml_ms", "wrap.export_oml", ms),
        cell(&t, scale, "matcher.mdsm_match_ms", "matcher.mdsm_match", ms),
    ];
    let (mut mismatches, mut warnings) = (Vec::new(), Vec::new());
    // The ask decomposition runs with the subquery cache off (see the
    // module docs); everything else has it on, as the binary does.
    if plan.workload() != Workload::UncachedAsks {
        system.registry_mut().mediator_mut().enable_cache();
    }
    if plan.workload() == Workload::ReadsUnderWrites {
        cells.extend(replay_writes(
            &mut t,
            system,
            corpus,
            plan.seed(),
            scratch,
            budget,
            scale,
        )?);
    } else {
        let replay = replay_reads(&mut t, system, plan, oracle, budget, scale)?;
        cells.extend(replay.cells);
        mismatches = replay.mismatches;
        warnings = replay.warnings;
    }
    if let Some(path) = trace_file {
        let mut file = io::BufWriter::new(std::fs::File::create(path)?);
        t.write_jsonl(&mut file)?;
        io::Write::flush(&mut file)?;
    }
    Ok(Traced {
        cells,
        mismatches,
        warnings,
    })
}
