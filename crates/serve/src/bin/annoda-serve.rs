//! The `annoda-serve` binary: generates a bundled corpus, plugs the
//! sources into ANNODA, and serves the Figure 5 interface over HTTP.
//!
//! Entirely offline — the corpus is synthesized in-process, the server
//! is std-only. `quit` (or EOF) on stdin triggers a graceful shutdown.
//!
//! With `--data-dir` the materialised ANNODA-GML lives in a WAL-backed
//! durable store: a restart warm-starts from snapshot + journal replay
//! instead of re-materialising, `POST /admin/refresh` journals source
//! deltas, and a clean `quit` writes a snapshot (a kill does not — the
//! journal covers it).
//!
//! Replication (both need `--data-dir`):
//!
//! - `--repl-bind ADDR` makes this node a shipping **leader**: its WAL
//!   streams to any follower that subscribes on ADDR.
//! - `--follow ADDR` makes it a read-only **follower** of the leader's
//!   replication address: writes answer `403` (naming the leader when
//!   `--leader-http` is given), reads serve the replicated store, and
//!   `POST /admin/promote` fails it over to leader.
//!
//! With `--store-shards N` the materialised store is split into N
//! hash-routed shards with per-shard MVCC epochs: refreshes commit as
//! shard transactions, readers pin consistent epoch vectors, and the
//! HTTP cache invalidates only the shards a refresh actually touched.
//! Not combinable with `--repl-bind` / `--follow`: replication ships
//! the flat WAL, not per-shard segments.
//!
//! With `--subscribe SOURCE=HOST:PORT` (repeatable) the node tails a
//! source-server's change feed: record-level deltas are absorbed
//! through `DurableSystem::absorb_delta` as they are pushed, so the
//! served view stays fresh without `POST /admin/refresh` round trips.
//! `/metrics` exposes per-source feed gauges and `/healthz` the feed
//! positions. A `--follow` node rejects `--subscribe` — a follower's
//! store must stay a byte-identical replica of its leader's WAL, so
//! it inherits streamed changes through replication instead.
//!
//! ```text
//! annoda-serve [--addr HOST:PORT] [--loci N] [--seed N]
//!              [--shards N] [--workers N] [--queue N]
//!              [--store-shards N]
//!              [--data-dir DIR] [--fsync always|batched:N|onsnapshot]
//!              [--repl-bind HOST:PORT]
//!              [--follow HOST:PORT] [--leader-http HOST:PORT]
//!              [--subscribe SOURCE=HOST:PORT]...
//! ```

use std::io::BufRead;
use std::process::ExitCode;
use std::time::Duration;

use annoda::{Annoda, DurableSystem, FsyncPolicy, Role};
use annoda_federation::{ServerConfig, TailConfig};
use annoda_replica::{LeaderServer, ReplicaClient};
use annoda_serve::{ServeConfig, Server};
use annoda_sources::{Corpus, CorpusConfig};
use annoda_stream::StreamClient;

/// Parses a numeric flag's value, naming the flag on stderr when the
/// value is not a number (a missing value was already reported).
fn number<T: std::str::FromStr>(name: &str, value: Option<String>) -> Option<T> {
    let parsed = value?.parse().ok();
    if parsed.is_none() {
        eprintln!("error: {name} takes a number");
    }
    parsed
}

fn main() -> ExitCode {
    let mut addr = "127.0.0.1:8642".to_string();
    let mut loci = 500usize;
    let mut seed = 7u64;
    let mut shards = 2usize;
    let mut workers = 4usize;
    let mut queue = 64usize;
    let mut store_shards: Option<usize> = None;
    let mut data_dir: Option<String> = None;
    let mut fsync = FsyncPolicy::Batched(64);
    let mut repl_bind: Option<String> = None;
    let mut follow: Option<String> = None;
    let mut leader_http: Option<String> = None;
    let mut subscriptions: Vec<(String, String)> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut take = |name: &str| -> Option<String> {
            match args.next() {
                Some(v) => Some(v),
                None => {
                    eprintln!("error: {name} needs a value");
                    None
                }
            }
        };
        match flag.as_str() {
            "--addr" => match take("--addr") {
                Some(v) => addr = v,
                None => return ExitCode::FAILURE,
            },
            "--loci" => match number("--loci", take("--loci")) {
                Some(v) => loci = v,
                None => return ExitCode::FAILURE,
            },
            "--seed" => match number("--seed", take("--seed")) {
                Some(v) => seed = v,
                None => return ExitCode::FAILURE,
            },
            "--shards" => match number("--shards", take("--shards")) {
                Some(v) => shards = v,
                None => return ExitCode::FAILURE,
            },
            "--workers" => match number("--workers", take("--workers")) {
                Some(v) => workers = v,
                None => return ExitCode::FAILURE,
            },
            "--queue" => match number("--queue", take("--queue")) {
                Some(v) => queue = v,
                None => return ExitCode::FAILURE,
            },
            "--store-shards" => match take("--store-shards").and_then(|v| v.parse().ok()) {
                Some(v) if v >= 1 => store_shards = Some(v),
                _ => {
                    eprintln!("error: --store-shards takes a shard count >= 1");
                    return ExitCode::FAILURE;
                }
            },
            "--data-dir" => match take("--data-dir") {
                Some(v) => data_dir = Some(v),
                None => return ExitCode::FAILURE,
            },
            "--fsync" => match take("--fsync").as_deref().and_then(FsyncPolicy::parse) {
                Some(v) => fsync = v,
                None => {
                    eprintln!("error: --fsync takes always | batched:N | onsnapshot");
                    return ExitCode::FAILURE;
                }
            },
            "--repl-bind" => match take("--repl-bind") {
                Some(v) => repl_bind = Some(v),
                None => return ExitCode::FAILURE,
            },
            "--follow" => match take("--follow") {
                Some(v) => follow = Some(v),
                None => return ExitCode::FAILURE,
            },
            "--leader-http" => match take("--leader-http") {
                Some(v) => leader_http = Some(v),
                None => return ExitCode::FAILURE,
            },
            "--subscribe" => match take("--subscribe") {
                Some(v) => match v.split_once('=') {
                    Some((source, addr)) if !source.is_empty() && !addr.is_empty() => {
                        subscriptions.push((source.to_string(), addr.to_string()));
                    }
                    _ => {
                        eprintln!("error: --subscribe takes SOURCE=HOST:PORT");
                        return ExitCode::FAILURE;
                    }
                },
                None => return ExitCode::FAILURE,
            },
            "--help" | "-h" => {
                println!(
                    "annoda-serve [--addr HOST:PORT] [--loci N] [--seed N] \
                     [--shards N] [--workers N] [--queue N] \
                     [--store-shards N] [--data-dir DIR] \
                     [--fsync always|batched:N|onsnapshot] \
                     [--repl-bind HOST:PORT] [--follow HOST:PORT] \
                     [--leader-http HOST:PORT] \
                     [--subscribe SOURCE=HOST:PORT]..."
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("error: unknown flag `{other}` (try --help)");
                return ExitCode::FAILURE;
            }
        }
    }
    if (repl_bind.is_some() || follow.is_some()) && data_dir.is_none() {
        eprintln!("error: --repl-bind / --follow need --data-dir (the WAL is the stream)");
        return ExitCode::FAILURE;
    }
    if repl_bind.is_some() && follow.is_some() {
        eprintln!("error: --repl-bind and --follow are mutually exclusive");
        return ExitCode::FAILURE;
    }
    if store_shards.is_some() && follow.is_some() {
        eprintln!("error: --store-shards needs a writable store (not --follow)");
        return ExitCode::FAILURE;
    }
    if store_shards.is_some() && repl_bind.is_some() {
        eprintln!(
            "error: --store-shards cannot be combined with --repl-bind: a sharded store \
             journals into per-shard WAL segments, and replication does not ship those yet"
        );
        return ExitCode::FAILURE;
    }
    if follow.is_some() && !subscriptions.is_empty() {
        eprintln!(
            "error: --subscribe needs a writable store (not --follow): a follower's \
             store is a byte-identical replica of its leader's WAL, so it receives \
             streamed changes through replication — subscribe on the leader instead"
        );
        return ExitCode::FAILURE;
    }

    eprintln!("generating corpus ({loci} loci, seed {seed})...");
    let base = CorpusConfig::default();
    let factor = loci as f64 / base.loci as f64;
    let corpus = Corpus::generate(CorpusConfig {
        seed,
        ..base.scaled(factor)
    });
    let (mut system, reports) = Annoda::over_sources(
        corpus.locuslink.clone(),
        corpus.go.clone(),
        corpus.omim.clone(),
    );
    for r in &reports {
        eprintln!("plugged source: {}", r.source);
    }
    system.registry_mut().mediator_mut().enable_cache();

    let durable = match &data_dir {
        Some(dir) => {
            let dir = std::path::PathBuf::from(dir);
            let opened = if follow.is_some() {
                DurableSystem::open_follower(system, &dir, fsync)
            } else if let Some(n) = store_shards {
                DurableSystem::open_sharded(system, &dir, fsync, n)
            } else {
                DurableSystem::open(system, &dir, fsync)
            };
            match opened {
                Ok(d) => {
                    let r = d.recovery().unwrap_or_default();
                    eprintln!(
                        "data dir {} ({}): generation {}, snapshot {} ({} objects), \
                         replayed {} journal records, truncated {} bytes",
                        dir.display(),
                        d.role(),
                        r.generation,
                        if r.snapshot_loaded {
                            "loaded"
                        } else {
                            "absent"
                        },
                        r.snapshot_objects,
                        r.replayed_records,
                        r.truncated_bytes,
                    );
                    d
                }
                Err(e) => {
                    eprintln!("error: cannot open data dir: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => match store_shards {
            Some(n) => match DurableSystem::new_sharded(system, n) {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("error: cannot shard the store: {e}");
                    return ExitCode::FAILURE;
                }
            },
            None => DurableSystem::new(system),
        },
    };
    if let Some(n) = store_shards {
        eprintln!("store sharded {n} ways (MVCC epochs, per-shard WAL)");
    }
    if let Some(leader) = leader_http.as_deref().or(follow.as_deref()) {
        durable.repl_handle().set_leader_addr(leader);
    }

    let config = ServeConfig {
        addr,
        shards,
        workers,
        queue_capacity: queue,
        ..ServeConfig::default()
    };
    let server = match Server::start_durable(durable, config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot bind: {e}");
            return ExitCode::FAILURE;
        }
    };
    let bound = server.addr();

    let system_handle = std::sync::Arc::clone(&server.app().system);
    let mut leader_server = match &repl_bind {
        Some(bind) => match LeaderServer::spawn(
            std::sync::Arc::clone(&system_handle),
            bind,
            ServerConfig::default(),
        ) {
            Ok(s) => {
                eprintln!("replication leader shipping the WAL on {}", s.addr());
                Some(s)
            }
            Err(e) => {
                eprintln!("error: cannot bind replication listener: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    let mut replica_client = follow.as_deref().map(|leader| {
        eprintln!("following leader WAL at {leader}");
        ReplicaClient::spawn(
            std::sync::Arc::clone(&system_handle),
            leader,
            TailConfig::default(),
        )
    });
    let mut stream_clients: Vec<StreamClient> = subscriptions
        .iter()
        .map(|(source, feed_addr)| {
            eprintln!("tailing change feed for {source} at {feed_addr}");
            let client = StreamClient::spawn(
                std::sync::Arc::clone(&system_handle),
                source,
                feed_addr,
                TailConfig::default(),
            );
            server.app().register_feed(client.gauges());
            client
        })
        .collect();

    println!("annoda-serve listening on http://{bound}");
    println!("routes:");
    println!("  GET  /genes?organism=...&function=require:...&combine=all");
    println!("  POST /lorel                 (body: Lorel query text)");
    println!("  GET  /object/{{kind}}/{{id}}    (kind: gene|function|disease|publication)");
    println!("  GET  /search?q=...&k=...&fusion=weighted|rrf|max");
    println!("  GET  /healthz");
    println!("  GET  /metrics");
    println!("  POST /admin/refresh         (re-pull sources, journal the delta)");
    println!("  POST /admin/snapshot        (snapshot + journal truncation)");
    println!("  POST /admin/promote         (failover: follower becomes leader)");
    println!("send `quit` (or EOF) on stdin for graceful shutdown");

    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        match line {
            Ok(l) if l.trim() == "quit" => break,
            Ok(_) => continue,
            Err(_) => break,
        }
    }

    eprintln!("shutting down (draining in-flight requests)...");
    for client in &mut stream_clients {
        client.shutdown();
    }
    if let Some(client) = replica_client.as_mut() {
        client.shutdown();
    }
    if let Some(leader) = leader_server.as_mut() {
        leader.shutdown();
    }
    if data_dir.is_some() && server.app().system().role() == Role::Leader {
        // Clean shutdown compacts into a snapshot; an unclean one (kill)
        // leaves the journal, which recovery replays. A follower never
        // snapshots — its WAL must stay a byte-identical leader prefix.
        match server.app().system_mut().snapshot() {
            Ok(Some(meta)) => eprintln!(
                "snapshot written: generation {}, {} objects, {} bytes",
                meta.generation, meta.objects, meta.bytes
            ),
            Ok(None) => {}
            Err(e) => eprintln!("warning: shutdown snapshot failed: {e}"),
        }
    }
    let report = server.shutdown(Duration::from_secs(10));
    eprintln!(
        "served {} requests; drained: {}",
        report.requests_served, report.drained
    );
    ExitCode::SUCCESS
}
