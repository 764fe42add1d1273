//! One out-of-process run of one workload: bring the SUT up (timed,
//! several times), warm it, drive it closed-loop for the timed window,
//! check every answer, and turn what was observed into metric cells.

use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use annoda_sources::Corpus;

use crate::client::{encode, Conn};
use crate::feed::{Feed, Schedule};
use crate::metrics::Cell;
use crate::oracle::{check_body, Expect, Oracle};
use crate::stats::{median, percentile, percentile_sorted};
use crate::streams::{object_view, point_lookup, readiness_probes, Op, Plan, Req, Workload};
use crate::sut::{cpu_ms, delta, peak_rss_mib, scrape, Scrape, Sut};

/// Closed-loop client connections: `min(2, nproc)`.
pub fn client_count() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// How a run is shaped.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: Workload,
    /// Seeds the request streams and the mutation script.
    pub seed: u64,
    /// Seeds the corpus, in the harness and in the SUT.
    pub corpus_seed: u64,
    pub loci: usize,
    /// The timed window.
    pub window: Duration,
    pub warmup: Duration,
    /// How many times the SUT is brought up; `setup_s` is the median.
    pub setups: usize,
    /// The `annoda-serve` binary.
    pub sut: PathBuf,
    /// Scratch space for the SUT's `--data-dir` (inside the checkout).
    pub scratch: PathBuf,
    /// Scales the sample floors: 1 for a full-length window, less for
    /// the short `--smoke` windows.
    pub floor_scale: f64,
}

/// What one run observed.
pub struct RunResult {
    pub end_to_end: Vec<Cell>,
    /// Per-layer cells this run could fill from outside the process:
    /// per-operation medians, the write path, `/metrics` deltas.
    pub layer: Vec<Cell>,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the operator.
    pub failures: Vec<String>,
}

/// The mutation cadence of `reads_under_writes`.
pub const MUTATION_INTERVAL: Duration = Duration::from_millis(100);
/// How long the feed may take to drain after the window.
const DRAIN_DEADLINE: Duration = Duration::from_secs(5);
/// Mutated records re-read through `/object` after the drain (each is
/// an uncached mediated ask); all of them are re-read through Lorel.
const OBJECT_CHECKS: usize = 16;

struct Sample {
    op: Op,
    latency_us: f64,
    bytes: usize,
    done: Instant,
}

#[derive(Default)]
struct ClientReport {
    /// Answers to requests started inside the timed window.
    samples: Vec<Sample>,
    /// Every request sent and every one that failed, warm-up included:
    /// a warm-up answer is checked like any other.
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    reconnects: u64,
}

/// A scratch `--data-dir` that is removed when the SUT using it stops.
struct DataDir(PathBuf);

impl DataDir {
    fn fresh(scratch: &Path, tag: &str) -> io::Result<DataDir> {
        let dir = scratch.join(format!("data-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(DataDir(dir))
    }
}

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn sut_args(cfg: &RunConfig, feed: Option<&Feed>, data: Option<&DataDir>) -> Vec<String> {
    let mut args = vec![
        "--loci".to_string(),
        cfg.loci.to_string(),
        "--seed".to_string(),
        cfg.corpus_seed.to_string(),
    ];
    if let (Some(feed), Some(data)) = (feed, data) {
        args.extend(["--store-shards", "4", "--fsync", "batched:64"].map(String::from));
        args.extend(["--data-dir".to_string(), data.0.display().to_string()]);
        args.extend([
            "--subscribe".to_string(),
            format!("LocusLink={}", feed.addr),
        ]);
    }
    args
}

/// Spawns the SUT and returns it with the seconds from `exec` to the
/// last oracle-correct probe answer.
fn bring_up(
    cfg: &RunConfig,
    oracle: &Oracle,
    probes: &[Req],
    feed: Option<&Feed>,
    data: Option<&DataDir>,
) -> io::Result<(Sut, f64)> {
    let sut = Sut::spawn(&cfg.sut, &sut_args(cfg, feed, data))?;
    let mut conn = Conn::new(sut.addr);
    for probe in probes {
        let reply = conn.exchange(&encode(probe, None))?;
        let body = String::from_utf8_lossy(&reply.body);
        if reply.status != 200 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("set-up probe {} answered {}", probe.target, reply.status),
            ));
        }
        check_body(oracle, &probe.expect, probe.json, &body, None).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("set-up probe {}: {e}", probe.target),
            )
        })?;
    }
    let seconds = sut.started.elapsed().as_secs_f64();
    Ok((sut, seconds))
}

/// What every client connection of a run shares.
#[derive(Clone, Copy)]
struct Drive<'a> {
    plan: &'a Plan,
    oracle: &'a Oracle,
    feed: Option<&'a Feed>,
    addr: SocketAddr,
    conns: usize,
    warm_end: Instant,
    window_end: Instant,
}

/// One closed-loop connection: next request only after the previous
/// answer, from now until `window_end`; requests started before
/// `warm_end` are warm-up and leave no sample.
fn client(drive: Drive<'_>, conn_index: usize) -> ClientReport {
    let Drive {
        plan,
        oracle,
        feed,
        addr,
        conns,
        warm_end,
        window_end,
    } = drive;
    let mut report = ClientReport::default();
    let mut stream = plan.stream(conn_index, conns);
    let mut conn = Conn::new(addr);
    // What this client was handed per cache key: `(ETag, body)`. Only
    // the hot-set workloads revisit a URL, so only they remember.
    let remember =
        plan.workload() != Workload::UncachedAsks && plan.workload() != Workload::LorelSearchMix;
    let mut held: HashMap<(String, bool), (String, Vec<u8>)> = HashMap::new();
    loop {
        let started = Instant::now();
        if started >= window_end {
            break;
        }
        let timed = started >= warm_end;
        let req = stream.next().expect("streams are endless");
        let key = (req.target.clone(), req.json);
        let offered = if req.conditional {
            held.get(&key).map(|(tag, _)| tag.clone())
        } else {
            None
        };
        let outcome: Result<(usize, Instant, f64), String> = match conn
            .exchange(&encode(&req, offered.as_deref()))
        {
            Err(e) => Err(format!("{}: transport: {e}", req.target)),
            Ok(reply) => {
                let done = Instant::now();
                let verdict = match reply.status {
                    // A 304 is only acceptable for an ETag this client
                    // was handed for this very URL.
                    304 if offered.is_some() && reply.etag == offered => Ok(()),
                    304 => Err("304 for an ETag this client never held".to_string()),
                    200 => match (held.get(&key), &reply.etag) {
                        // Same ETag as last time: the body must be the
                        // same bytes, and those were already checked.
                        (Some((tag, body)), Some(now)) if tag == now => {
                            if *body == reply.body {
                                Ok(())
                            } else {
                                Err("body changed under an unchanged ETag".to_string())
                            }
                        }
                        _ => {
                            let revisions = match (&req.expect, feed) {
                                (Expect::Object { symbol }, Some(feed)) => {
                                    oracle.gene(symbol).map(|g| {
                                        let mut all = vec![g.description.clone()];
                                        all.extend(feed.revisions(g.locus_id));
                                        all
                                    })
                                }
                                _ => None,
                            };
                            let checked = check_body(
                                oracle,
                                &req.expect,
                                req.json,
                                &String::from_utf8_lossy(&reply.body),
                                revisions.as_deref(),
                            );
                            if let (true, Ok(()), Some(tag)) = (remember, &checked, &reply.etag) {
                                held.insert(key, (tag.clone(), reply.body.clone()));
                            }
                            checked
                        }
                    },
                    other => Err(format!("unexpected status {other}")),
                };
                verdict
                    .map(|()| (reply.body.len(), done, reply.latency.as_secs_f64() * 1e6))
                    .map_err(|e| format!("{}: {e}", req.target))
            }
        };
        report.attempted += 1;
        match outcome {
            Ok((bytes, done, latency_us)) if timed => report.samples.push(Sample {
                op: req.op,
                latency_us,
                bytes,
                done,
            }),
            Ok(_) => {}
            Err(message) => {
                report.failed += 1;
                if report.failures.len() < 3 {
                    report.failures.push(message);
                }
            }
        }
    }
    report.reconnects = conn.reconnects();
    report
}

struct Observation {
    at: Instant,
    scrape: Scrape,
    sut_cpu_ms: f64,
    harness_cpu_ms: f64,
}

/// Scrapes on a connection of its own: the server closes keep-alive
/// connections idle for 5 s, which a held control connection would be.
fn observe(addr: SocketAddr, pid: u32) -> io::Result<Observation> {
    Ok(Observation {
        at: Instant::now(),
        scrape: scrape(&mut Conn::new(addr))?,
        sut_cpu_ms: cpu_ms(&pid.to_string())?,
        harness_cpu_ms: cpu_ms("self")?,
    })
}

fn sleep_until(t: Instant) {
    std::thread::sleep(t.saturating_duration_since(Instant::now()));
}

/// Runs `cfg.workload` once against a fresh SUT.
pub fn run(
    cfg: &RunConfig,
    corpus: &Corpus,
    oracle: &Oracle,
    plan: &Plan,
) -> io::Result<RunResult> {
    let conns = client_count();
    let probes = readiness_probes(oracle, cfg.workload);
    let mut feed = if cfg.workload.writes() {
        Some(Feed::bind()?)
    } else {
        None
    };

    // Set-up, several times; the last SUT stays up for the run.
    let mut setup_seconds = Vec::with_capacity(cfg.setups);
    let mut live: Option<(Sut, Option<DataDir>)> = None;
    for i in 0..cfg.setups.max(1) {
        if let Some((sut, _data)) = live.take() {
            sut.stop()?;
        }
        let data = match &feed {
            Some(_) => Some(DataDir::fresh(&cfg.scratch, &i.to_string())?),
            None => None,
        };
        let (sut, seconds) = bring_up(cfg, oracle, &probes, feed.as_ref(), data.as_ref())?;
        setup_seconds.push(seconds);
        live = Some((sut, data));
    }
    let (sut, _data) = live.expect("at least one set-up");

    let t0 = Instant::now();
    let warm_end = t0 + cfg.warmup;
    let window_end = warm_end + cfg.window;
    if let Some(feed) = feed.as_mut() {
        let schedule = Schedule {
            start: t0,
            interval: MUTATION_INTERVAL,
        };
        feed.mutate(corpus.locuslink.clone(), cfg.seed, schedule, window_end);
    }

    let (reports, before, after) = std::thread::scope(|scope| -> io::Result<_> {
        let drive = Drive {
            plan,
            oracle,
            feed: feed.as_ref(),
            addr: sut.addr,
            conns,
            warm_end,
            window_end,
        };
        let handles: Vec<_> = (0..conns)
            .map(|c| scope.spawn(move || client(drive, c)))
            .collect();
        sleep_until(warm_end);
        let before = observe(sut.addr, sut.pid());
        sleep_until(window_end);
        let after = observe(sut.addr, sut.pid());
        let reports: Vec<ClientReport> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        Ok((reports, before?, after?))
    })?;

    // Drain: the feed must catch up, then every mutated record must
    // read back at its last revision — all of them from the committed
    // store (a Lorel point lookup is cheap), the latest few also
    // through the mediated `/object` view.
    let mut write_failures: Vec<String> = Vec::new();
    let mut drain_checks = 0u64;
    let mut control = Conn::new(sut.addr);
    let mut drain_ms = 0.0;
    let feed_report = feed.as_ref().map(|feed| {
        let drain_started = Instant::now();
        while feed.acked_seq() < feed.head_seq() && drain_started.elapsed() < DRAIN_DEADLINE {
            std::thread::sleep(Duration::from_millis(2));
        }
        drain_ms = drain_started.elapsed().as_secs_f64() * 1e3;
        feed.report()
    });
    if let Some(report) = &feed_report {
        let mut last: Vec<(u32, &str)> = Vec::new();
        for m in report.mutations.iter().rev() {
            if last.iter().all(|(locus, _)| *locus != m.locus_id) {
                last.push((m.locus_id, &m.description));
            }
        }
        for (i, (locus_id, description)) in last.into_iter().enumerate() {
            let gene = oracle
                .gene_by_locus(locus_id)
                .expect("mutations revise generated loci");
            let stored = point_lookup(&gene.symbol);
            let viewed = object_view(&gene.symbol);
            for probe in [Some(stored), (i < OBJECT_CHECKS).then_some(viewed)]
                .into_iter()
                .flatten()
            {
                drain_checks += 1;
                let verdict = match control.exchange(&encode(&probe, None)) {
                    Ok(reply) if reply.status == 200 => {
                        let body = String::from_utf8_lossy(&reply.body);
                        check_body(
                            oracle,
                            &probe.expect,
                            false,
                            &body,
                            Some(&[description.to_string()]),
                        )
                        .and_then(|()| {
                            if body.contains(description) {
                                Ok(())
                            } else {
                                Err("last revision missing".to_string())
                            }
                        })
                    }
                    Ok(reply) => Err(format!("status {}", reply.status)),
                    Err(e) => Err(format!("transport: {e}")),
                };
                if let Err(e) = verdict {
                    write_failures.push(format!(
                        "after drain, {} {}: {e}",
                        probe.target, gene.symbol
                    ));
                }
            }
        }
    }
    let rss = peak_rss_mib(sut.pid())?;
    drop(control);
    sut.stop()?;
    if let Some(feed) = feed {
        feed.finish();
    }

    // ---- numbers ----------------------------------------------------
    let window_s = after.at.duration_since(before.at).as_secs_f64();
    let mut attempted: u64 = reports.iter().map(|r| r.attempted).sum::<u64>() + drain_checks;
    let mut failed: u64 = reports.iter().map(|r| r.failed).sum();
    let mut failures: Vec<String> = reports
        .iter()
        .flat_map(|r| r.failures.iter().cloned())
        .collect();
    let samples: Vec<&Sample> = reports.iter().flat_map(|r| &r.samples).collect();
    let completed = samples.iter().filter(|s| s.done <= after.at).count() as u64;
    let scaled = |name: &'static str, value: Option<f64>, n: u64| {
        Cell::floored(name, value, n, cfg.floor_scale)
    };

    let mut all: Vec<f64> = samples.iter().map(|s| s.latency_us).collect();
    all.sort_by(|a, b| a.total_cmp(b));
    let reads = all.len() as u64;
    let setups = setup_seconds.len() as u64;
    let end_to_end = vec![
        scaled("setup_s", median(&mut setup_seconds), setups),
        scaled(
            "throughput_rps",
            Some(completed as f64 / window_s),
            completed,
        ),
        scaled("read_p50_us", percentile_sorted(&all, 50.0), reads),
    ];

    let mut layer = vec![
        scaled("read_p95_us", percentile_sorted(&all, 95.0), reads),
        scaled("read_p99_us", percentile_sorted(&all, 99.0), reads),
        scaled(
            "sut_cpu_ms_per_req",
            Some((after.sut_cpu_ms - before.sut_cpu_ms) / completed.max(1) as f64),
            completed,
        ),
        scaled("peak_rss_mb", Some(rss), 1),
    ];
    for (name, op) in [
        ("genes_p50_us", Op::Genes),
        ("object_p50_us", Op::Object),
        ("lorel_p50_us", Op::Lorel),
        ("search_p50_us", Op::Search),
    ] {
        let mut of_op: Vec<f64> = samples
            .iter()
            .filter(|s| s.op == op)
            .map(|s| s.latency_us)
            .collect();
        let n = of_op.len() as u64;
        layer.push(if n == 0 {
            Cell::plain(name, 0.0, 0)
        } else {
            scaled(name, percentile(&mut of_op, 50.0), n)
        });
    }
    match &feed_report {
        None => {
            for name in [
                "write_visible_p50_ms",
                "write_visible_p95_ms",
                "absorbed_records_s",
                "stream.lag_records_p50",
                "harness.feed_late_us_p99",
            ] {
                layer.push(Cell::plain(name, 0.0, 0));
            }
        }
        Some(report) => {
            let due_in_window: Vec<_> = report
                .mutations
                .iter()
                .filter(|m| m.due >= before.at && m.due < after.at)
                .collect();
            let mut visible_ms = Vec::with_capacity(due_in_window.len());
            for m in &due_in_window {
                attempted += 1;
                match report.acked_at(m.seq) {
                    Some(acked) => visible_ms.push(m.visible_after(acked).as_secs_f64() * 1e3),
                    None => {
                        write_failures.push(format!("mutation seq {} never acknowledged", m.seq))
                    }
                }
            }
            let n = visible_ms.len() as u64;
            let acked_in_window = report
                .mutations
                .iter()
                .filter(|m| {
                    report
                        .acked_at(m.seq)
                        .is_some_and(|t| t >= before.at && t < after.at)
                })
                .count() as u64;
            let mut late_us: Vec<f64> = due_in_window
                .iter()
                .map(|m| m.late_by().as_secs_f64() * 1e6)
                .collect();
            let mut lag: Vec<f64> = report.lag_samples.iter().map(|&l| l as f64).collect();
            layer.push(scaled(
                "write_visible_p50_ms",
                percentile(&mut visible_ms, 50.0),
                n,
            ));
            layer.push(scaled(
                "write_visible_p95_ms",
                percentile(&mut visible_ms, 95.0),
                n,
            ));
            layer.push(scaled(
                "absorbed_records_s",
                Some(acked_in_window as f64 / window_s),
                acked_in_window,
            ));
            layer.push(Cell::plain(
                "stream.lag_records_p50",
                percentile(&mut lag, 50.0).unwrap_or(0.0),
                lag.len() as u64,
            ));
            layer.push(Cell::plain(
                "harness.feed_late_us_p99",
                percentile(&mut late_us, 99.0).unwrap_or(0.0),
                late_us.len() as u64,
            ));
        }
    }
    failed += write_failures.len() as u64;
    failures.extend(write_failures);
    failures.truncate(6);
    layer.push(Cell::plain(
        "failed_share",
        failed as f64 / attempted.max(1) as f64,
        attempted,
    ));

    // `/metrics` deltas over the timed window.
    let d = |name: &str| delta(&before.scrape, &after.scrape, name);
    let ratio = |hit: f64, miss: f64| {
        if hit + miss > 0.0 {
            hit / (hit + miss)
        } else {
            0.0
        }
    };
    let (hits, misses, revalidated) = (
        d("annoda_http_cache_hits_total"),
        d("annoda_http_cache_misses_total"),
        d("annoda_http_cache_not_modified_total"),
    );
    let cacheable = hits + misses + revalidated;
    let (batches, records) = (
        d("annoda_feed_batches_total"),
        d("annoda_feed_records_total"),
    );
    let mut response_bytes: Vec<f64> = samples.iter().map(|s| s.bytes as f64).collect();
    layer.extend([
        Cell::plain(
            "serve.cache_hit_ratio",
            if cacheable > 0.0 {
                (hits + revalidated) / cacheable
            } else {
                0.0
            },
            cacheable as u64,
        ),
        Cell::plain(
            "serve.not_modified_share",
            if cacheable > 0.0 {
                revalidated / cacheable
            } else {
                0.0
            },
            cacheable as u64,
        ),
        Cell::plain(
            "serve.deps_invalidations",
            d("annoda_http_cache_deps_invalidations_total"),
            1,
        ),
        Cell::plain("serve.shed_total", d("annoda_shed_total"), 1),
        Cell::plain(
            "serve.reconnects",
            reports.iter().map(|r| r.reconnects).sum::<u64>() as f64,
            1,
        ),
        scaled(
            "serve.response_bytes_p50",
            percentile(&mut response_bytes, 50.0),
            reads,
        ),
        Cell::plain(
            "mediator.subquery_cache_hit_ratio",
            ratio(
                d("annoda_mediator_cache_hits_total"),
                d("annoda_mediator_cache_misses_total"),
            ),
            (d("annoda_mediator_cache_hits_total") + d("annoda_mediator_cache_misses_total"))
                as u64,
        ),
        Cell::plain(
            "mediator.subquery_cache_evictions",
            d("annoda_mediator_cache_evictions_total"),
            1,
        ),
        Cell::plain(
            "oem.store_clones_per_req",
            d("annoda_store_clones_total") / completed.max(1) as f64,
            completed,
        ),
        Cell::plain(
            "persist.wal_bytes_per_record",
            if records > 0.0 {
                d("annoda_store_shard_wal_bytes") / records
            } else {
                0.0
            },
            records as u64,
        ),
        Cell::plain("annoda.txn_conflicts", d("annoda_txn_conflicts_total"), 1),
        Cell::plain("stream.batches", batches, 1),
        Cell::plain(
            "stream.records_per_batch",
            if batches > 0.0 {
                records / batches
            } else {
                0.0
            },
            batches as u64,
        ),
        Cell::plain(
            "stream.absorb_us_per_record",
            if records > 0.0 {
                d("annoda_feed_absorb_us_total") / records
            } else {
                0.0
            },
            records as u64,
        ),
        Cell::plain("stream.drain_ms", drain_ms, 1),
        Cell::plain(
            "stream.resubscribes",
            d("annoda_feed_resubscribes_total"),
            1,
        ),
        Cell::plain(
            "harness.cpu_share",
            (after.harness_cpu_ms - before.harness_cpu_ms)
                / (window_s
                    * 1e3
                    * std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
            1,
        ),
    ]);

    Ok(RunResult {
        end_to_end,
        layer,
        attempted,
        failed,
        failures,
    })
}
