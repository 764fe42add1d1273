//! The `annoda-serve` binary: generates a bundled corpus, plugs the
//! sources into ANNODA, and serves the Figure 5 interface over HTTP.
//!
//! Entirely offline — the corpus is synthesized in-process, the server
//! is std-only. `quit` (or EOF) on stdin triggers a graceful shutdown.
//!
//! The materialised store is split into `--store-shards N` (1..=64,
//! default 1) hash-routed shards with per-shard MVCC epochs: refreshes
//! commit as shard transactions, readers pin consistent epoch vectors,
//! and the HTTP cache invalidates only the shards a refresh actually
//! touched. Without `--data-dir` the store lives in memory and is first
//! materialised by the first request that needs it.
//!
//! With `--data-dir DIR` each shard journals into `DIR/shard-NNN/`
//! (one shard unless `--store-shards` says more; a root-level WAL, the
//! old flat layout, is refused): a restart warm-starts from snapshot +
//! journal replay instead of re-materialising, `POST /admin/refresh`
//! journals source deltas, and a clean `quit` writes a snapshot (a kill
//! does not — the journal covers it).
//!
//! Replication (any store shape, with or without `--data-dir`):
//!
//! - `--repl-bind ADDR` makes this node a **leader** that serves its
//!   sources' change feeds on ADDR: every record it absorbs, per source
//!   that can dump (LocusLink, OMIM).
//! - `--follow ADDR` makes it a read-only **follower**: one feed tailer
//!   per source it holds subscribes to the leader at ADDR, bootstraps
//!   from the leader's dump, then absorbs the leader's records, so its
//!   `/genes`, `/search` and `/lorel` derive from the leader's sources.
//!   Writes answer `403` (naming `--leader-http` when given, else ADDR),
//!   and `POST /admin/promote` fails it over to leader. A follower must
//!   run its leader's `--loci`/`--seed`: GO, which cannot dump, and the
//!   MDSM mapping come from the corpus it generates. A source the
//!   leader unplugs is unplugged here; a source plugged on the leader
//!   is not mirrored.
//!
//! With `--subscribe SOURCE=HOST:PORT` (repeatable) the node tails a
//! source-server's change feed: record-level deltas are applied and
//! committed as they are pushed (the commit under a read lock), so the
//! served view stays fresh without `POST /admin/refresh` round trips.
//! `/metrics` exposes per-source feed gauges and `/healthz` the feed
//! positions. A `--follow` node rejects `--subscribe`: its leader's
//! feeds are its only writer.
//!
//! ```text
//! annoda-serve [--addr HOST:PORT] [--loci N] [--seed N]
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
// Output that drops on a closed pipe (`EPIPE`), so `quit` still drains
// and snapshots when whoever read the output has gone.
use annoda_federation::{eprintln, println};
use annoda_federation::{ServerConfig, TailConfig};
use annoda_oem::MAX_SHARDS;
use annoda_replica::LeaderServer;
use annoda_serve::{ServeConfig, Server};
use annoda_sources::{Corpus, CorpusConfig};
use annoda_stream::StreamClient;

/// Feed sessions the replication leader serves at once: a follower
/// holds one per source it follows (three here), each on a worker of its
/// own, so this serves sixteen followers; later ones wait for a worker.
const LEADER_FEED_WORKERS: usize = 48;

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
    let mut store_shards = 1usize;
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
            "--store-shards" => match take("--store-shards").and_then(|v| v.parse().ok()) {
                Some(v) if (1..=MAX_SHARDS).contains(&v) => store_shards = v,
                _ => {
                    eprintln!("error: --store-shards takes a shard count in 1..={MAX_SHARDS}");
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
                     [--store-shards N] [--data-dir DIR] \
                     [--fsync always|batched:N|onsnapshot] \
                     [--repl-bind HOST:PORT] [--follow HOST:PORT] \
                     [--leader-http HOST:PORT] \
                     [--subscribe SOURCE=HOST:PORT]...\n\n\
                     --store-shards N  shards of the store, 1..={MAX_SHARDS} \
                     (in memory without --data-dir; 1 with it unless given)\n\
                     --data-dir DIR    DIR/shards.meta + DIR/shard-NNN/{{wal.log,snapshot.bin}}; \
                     a DIR with a root wal.log or snapshot.bin (the flat layout) is refused\n\
                     --repl-bind ADDR  serve this node's source change feeds to followers on ADDR\n\
                     --follow ADDR     a read-only follower of the leader whose --repl-bind is ADDR; \
                     run the leader's --loci and --seed"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("error: unknown flag `{other}` (try --help)");
                return ExitCode::FAILURE;
            }
        }
    }
    if repl_bind.is_some() && follow.is_some() {
        eprintln!("error: --repl-bind and --follow are mutually exclusive");
        return ExitCode::FAILURE;
    }
    if follow.is_some() && !subscriptions.is_empty() {
        eprintln!(
            "error: --subscribe needs a writable store (not --follow): a follower's \
             only writer is its leader's feeds — subscribe on the leader instead"
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
            match DurableSystem::open_sharded(system, &dir, fsync, store_shards) {
                Ok(d) => {
                    let r = d.sharded().recovery().unwrap_or_default();
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
        None => match DurableSystem::new_sharded(system, store_shards) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("error: cannot shard the store: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    if store_shards > 1 {
        eprintln!("store sharded {store_shards} ways (MVCC epochs, per-shard WAL)");
    }
    if let Some(leader) = follow.as_deref() {
        durable.follow(leader_http.as_deref().unwrap_or(leader));
    }

    let config = ServeConfig {
        addr,
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
            ServerConfig {
                workers: LEADER_FEED_WORKERS,
                ..ServerConfig::default()
            },
        ) {
            Ok(s) => {
                eprintln!("replication leader serving change feeds on {}", s.addr());
                Some(s)
            }
            Err(e) => {
                eprintln!("error: cannot bind replication listener: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    // A follower tails its leader's feed of every source it holds.
    let feeds: Vec<(String, String)> = match &follow {
        Some(leader) => (server.app().system().positions().into_iter())
            .map(|(source, _)| (source, leader.clone()))
            .collect(),
        None => subscriptions.clone(),
    };
    let tail = if follow.is_some() {
        StreamClient::follow
    } else {
        StreamClient::spawn
    };
    let mut stream_clients: Vec<StreamClient> = feeds
        .iter()
        .map(|(source, feed_addr)| {
            eprintln!("tailing change feed for {source} at {feed_addr}");
            let system = std::sync::Arc::clone(&system_handle);
            let client = tail(system, source, feed_addr, TailConfig::default());
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
    if let Some(leader) = leader_server.as_mut() {
        leader.shutdown();
    }
    if data_dir.is_some() && server.app().system().role() == Role::Leader {
        // Clean shutdown compacts into a snapshot; an unclean one (kill)
        // leaves the journal, which recovery replays. A follower's
        // snapshots are refused, as every leader-only admin write is.
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
