//! The whole operator surface, pinned: every `name{labels}` series of
//! text `/metrics` in order, the ordered key tree (with value types) of
//! JSON `/metrics`, and the text and JSON bodies of `/healthz`, the
//! `/admin/*` routes and an error — across every deployment shape that
//! changes what is exposed. Values are masked (they move run to run);
//! names, order, nesting and types are not.
//!
//! The transcript lives in `tests/golden/operator_surface.txt`. A
//! change to the surface shows up as a diff of that file; on a
//! mismatch the test writes what it saw next to the build outputs and
//! names both paths.

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Duration;

use annoda::{Annoda, DurableSystem, FsyncPolicy, GeneQuestion};
use annoda_federation::{ClientConfig, ServerConfig, SourceServer};
use annoda_serve::http::read_response;
use annoda_serve::{ServeConfig, Server};
use annoda_sources::{Corpus, CorpusConfig};
use annoda_stream::FeedGauges;
use annoda_wrap::{GoWrapper, LocusLinkWrapper, OmimWrapper};

const TEXT: &str = "text/plain";
const JSON: &str = "application/json";

fn corpus() -> Corpus {
    Corpus::generate(CorpusConfig::tiny(42))
}

fn system() -> Annoda {
    let c = corpus();
    let (mut a, _) = Annoda::over_sources(c.locuslink, c.go, c.omim);
    a.registry_mut().mediator_mut().enable_cache();
    a
}

fn serve(system: DurableSystem) -> Server {
    Server::start_durable(system, ServeConfig::default()).expect("bind ephemeral port")
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("operator-surface-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One request on a fresh connection; returns `(status, body)`.
fn request(server: &Server, method: &str, path: &str, accept: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: t\r\nAccept: {accept}\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(head.as_bytes()).expect("send");
    let (status, body) = read_response(&mut BufReader::new(stream)).expect("response");
    (status, String::from_utf8_lossy(&body).into_owned())
}

/// One request per route slot, so every per-route row has traffic
/// behind it and a snapshot (with its search index) is live.
fn touch_every_route(server: &Server) {
    let symbol = system()
        .ask(&GeneQuestion::default())
        .expect("blank question")
        .fused
        .genes[0]
        .symbol
        .clone();
    let lorel = "select count(GML.Gene) from ANNODA-GML GML";
    for (method, path, body) in [
        ("GET", "/genes?function=require&combine=all".to_string(), ""),
        ("POST", "/lorel".to_string(), lorel),
        ("GET", "/search?q=protein".to_string(), ""),
        ("GET", format!("/object/gene/{symbol}"), ""),
        ("GET", "/healthz".to_string(), ""),
        ("GET", "/metrics".to_string(), ""),
        ("POST", "/admin/promote".to_string(), ""),
        ("GET", "/nope".to_string(), ""),
    ] {
        request(server, method, &path, TEXT, body);
    }
}

// ---------------------------------------------------------------------
// masking

/// Text exposition: the series names with their labels, values dropped.
/// A run of histogram buckets folds into one line that keeps every
/// `le` bound in order: `…_bucket{route="genes",le="64|128|…|+Inf"}`.
fn series_names(body: &str) -> String {
    let mut names: Vec<String> = Vec::new();
    for line in body.lines() {
        let name = line.rsplit_once(' ').expect("`name value` line").0;
        if let Some((series, bound)) = name.split_once(",le=\"") {
            if let Some(run) = names.last_mut().filter(|n| n.starts_with(series)) {
                run.truncate(run.len() - "\"}".len());
                run.push_str(&format!("|{bound}"));
                continue;
            }
        }
        names.push(name.to_string());
    }
    names.join("\n")
}

/// A flat reply with every run of digits replaced by `N`.
fn mask_digits(body: &str) -> String {
    let mut out = String::new();
    let mut in_run = false;
    for c in body.chars() {
        if c.is_ascii_digit() {
            if !in_run {
                out.push('N');
            }
            in_run = true;
        } else {
            in_run = false;
            out.push(c);
        }
    }
    out
}

/// The ordered key tree of a JSON document, one `key: type` line per
/// value, nested values indented under their key.
fn json_shape(body: &str) -> String {
    let mut out = String::new();
    let rest = shape_value(body.trim(), 0, &mut out);
    assert!(rest.trim().is_empty(), "trailing JSON: {rest}");
    out
}

fn json_string(s: &str) -> (&str, &str) {
    let s = s.strip_prefix('"').expect("string");
    let mut escaped = false;
    for (i, c) in s.char_indices() {
        match c {
            '\\' if !escaped => escaped = true,
            '"' if !escaped => return (&s[..i], &s[i + 1..]),
            _ => escaped = false,
        }
    }
    panic!("unterminated string: {s}");
}

/// Writes the type of the value at the head of `s` (and, indented, the
/// shape of its members); returns what follows the value.
fn shape_value<'a>(s: &'a str, depth: usize, out: &mut String) -> &'a str {
    let pad = "  ".repeat(depth + 1);
    match s.as_bytes()[0] {
        b'{' => {
            out.push_str("obj\n");
            let mut rest = s[1..].trim_start();
            while !rest.starts_with('}') {
                let (key, after) = json_string(rest.trim_start_matches(',').trim_start());
                out.push_str(&format!("{pad}{key}: "));
                let after = after.trim_start().strip_prefix(':').expect("colon");
                rest = shape_value(after.trim_start(), depth + 1, out).trim_start();
            }
            &rest[1..]
        }
        b'[' => {
            out.push_str("arr\n");
            let mut rest = s[1..].trim_start();
            while !rest.starts_with(']') {
                out.push_str(&format!("{pad}- "));
                let item = rest.trim_start_matches(',').trim_start();
                rest = shape_value(item, depth + 1, out).trim_start();
            }
            &rest[1..]
        }
        b'"' => {
            out.push_str("str\n");
            json_string(s).1
        }
        _ => {
            let end = s.find([',', '}', ']']).unwrap_or(s.len());
            out.push_str(match &s[..end] {
                "null" => "null\n",
                "true" | "false" => "bool\n",
                _ => "num\n",
            });
            &s[end..]
        }
    }
}

/// Collects the transcript, one titled entry per captured reply.
struct Transcript(String);

impl Transcript {
    fn entry(&mut self, title: &str, status: u16, body: &str) {
        self.0
            .push_str(&format!("## {title} -> {status}\n{}\n\n", body.trim_end()));
    }

    /// Text and JSON `/metrics`, masked.
    fn metrics(&mut self, shape: &str, server: &Server) -> String {
        let (status, text) = request(server, "GET", "/metrics", TEXT, "");
        self.entry(
            &format!("{shape}: GET /metrics text"),
            status,
            &series_names(&text),
        );
        let (status, json) = request(server, "GET", "/metrics", JSON, "");
        self.entry(
            &format!("{shape}: GET /metrics json"),
            status,
            &json_shape(&json),
        );
        text
    }

    /// One flat reply in both formats, digits masked.
    fn flat(&mut self, shape: &str, server: &Server, method: &str, path: &str) {
        for (name, accept) in [("text", TEXT), ("json", JSON)] {
            let (status, body) = request(server, method, path, accept, "");
            self.entry(
                &format!("{shape}: {method} {path} {name}"),
                status,
                &mask_digits(&body),
            );
        }
    }
}

// ---------------------------------------------------------------------
// the deployment shapes

fn ephemeral(t: &mut Transcript) {
    let server = serve(DurableSystem::new(system()));
    t.flat("ephemeral", &server, "POST", "/admin/refresh");
    t.flat(
        "ephemeral",
        &server,
        "POST",
        "/admin/refresh?source=LocusLink",
    );
    t.flat("ephemeral", &server, "POST", "/admin/refresh?source=NOPE");
    touch_every_route(&server);
    t.flat("ephemeral", &server, "GET", "/healthz");
    t.flat("ephemeral", &server, "POST", "/admin/snapshot");
    t.flat("ephemeral", &server, "POST", "/admin/promote");
    t.flat("ephemeral", &server, "GET", "/search");
    t.flat("ephemeral", &server, "GET", "/nope");
    t.flat("ephemeral", &server, "DELETE", "/genes");
    t.flat("ephemeral", &server, "GET", "/genes?min_generation=1");
    t.metrics("ephemeral", &server);
    server.shutdown(Duration::from_secs(5));
}

/// `annoda_…` series the frozen benchmark harness reads by name: every
/// quoted literal of that shape in `benchmark/src/*.rs`.
fn harness_scrape_names() -> Vec<String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("benchmark/src");
    let mut names = Vec::new();
    for entry in std::fs::read_dir(&dir).expect("benchmark/src") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_none_or(|e| e != "rs") {
            continue;
        }
        let source = std::fs::read_to_string(&path).expect("harness source");
        for (at, _) in source.match_indices("\"annoda_") {
            let rest = &source[at + 1..];
            let len = rest
                .find(|c: char| !(c.is_ascii_lowercase() || c == '_'))
                .unwrap_or(rest.len());
            if rest[len..].starts_with('"') {
                names.push(rest[..len].to_string());
            }
        }
    }
    names.sort();
    names.dedup();
    names
}

fn sharded_with_feed(t: &mut Transcript) {
    let server = serve(DurableSystem::new_sharded(system(), 4).expect("shard the store"));
    server.app().register_feed(Arc::new(FeedGauges {
        source: "LocusLink".to_string(),
        applied_seq: AtomicU64::new(7),
        head_seq: AtomicU64::new(9),
        lag_records: AtomicU64::new(2),
        lag_us: AtomicU64::new(1_500),
        batches: AtomicU64::new(3),
        records: AtomicU64::new(7),
        bootstraps: AtomicU64::new(1),
        resubscribes: AtomicU64::new(0),
        absorb_us: AtomicU64::new(4_200),
    }));
    touch_every_route(&server);
    t.flat("sharded+feed", &server, "GET", "/healthz");
    t.flat(
        "sharded+feed",
        &server,
        "POST",
        "/admin/refresh?source=LocusLink",
    );
    t.flat("sharded+feed", &server, "POST", "/admin/snapshot");
    let exposition = t.metrics("sharded+feed", &server);

    // The frozen harness turns a series it cannot find into a silent 0:
    // every name it scrapes must still be exposed by the configuration
    // it runs (`reads_under_writes`: sharded store, one feed).
    let scraped = harness_scrape_names();
    assert!(
        scraped.len() >= 15,
        "benchmark/src names too few series: {scraped:?}"
    );
    for name in &scraped {
        assert!(
            exposition.lines().any(|line| line
                .strip_prefix(name.as_str())
                .is_some_and(|rest| rest.starts_with(' ') || rest.starts_with('{'))),
            "benchmark/src scrapes `{name}`, which /metrics no longer exposes"
        );
    }
    server.shutdown(Duration::from_secs(5));
}

fn follower_then_promoted(t: &mut Transcript) {
    let dir = tmp_dir("follower");
    let system =
        DurableSystem::open_follower(system(), &dir, FsyncPolicy::Always).expect("open follower");
    let server = serve(system);
    request(
        &server,
        "POST",
        "/lorel",
        TEXT,
        "select G from ANNODA-GML.Gene G",
    );
    t.flat("follower", &server, "GET", "/healthz");
    t.flat("follower", &server, "POST", "/admin/refresh");
    t.flat("follower", &server, "POST", "/admin/snapshot");
    t.metrics("follower", &server);
    // Failover, then the flat durable store it leaves behind.
    let (status, body) = request(&server, "POST", "/admin/promote", TEXT, "");
    t.entry(
        "follower: POST /admin/promote text",
        status,
        &mask_digits(&body),
    );
    t.flat("promoted", &server, "POST", "/admin/promote");
    t.flat("promoted", &server, "POST", "/admin/refresh");
    t.flat("promoted", &server, "POST", "/admin/snapshot");
    t.flat("promoted", &server, "GET", "/genes?min_generation=x");
    server.shutdown(Duration::from_secs(5));
    let _ = std::fs::remove_dir_all(&dir);
}

fn federated(t: &mut Transcript) {
    let c = corpus();
    let spawn = |w| SourceServer::spawn(w, "127.0.0.1:0", ServerConfig::default()).expect("bind");
    let servers = [
        spawn(Box::new(LocusLinkWrapper::new(c.locuslink.clone()))),
        spawn(Box::new(GoWrapper::new(c.go.clone()))),
        spawn(Box::new(OmimWrapper::new(c.omim.clone()))),
    ];
    let mut annoda = Annoda::new();
    for source in &servers {
        annoda
            .plug_remote_with(&source.addr().to_string(), ClientConfig::default())
            .expect("plug remote source");
    }
    let server = serve(DurableSystem::new(annoda));
    request(&server, "GET", "/genes?symbol=A%25", TEXT, "");
    t.metrics("federated", &server);
    server.shutdown(Duration::from_secs(5));
}

/// Every value of `series` (any labels) in a text exposition, in order.
fn series_values(exposition: &str, series: &str) -> Vec<u64> {
    let values: Vec<u64> = exposition
        .lines()
        .filter_map(|line| line.strip_prefix(series))
        .filter(|rest| rest.starts_with(' ') || rest.starts_with('{'))
        .map(|rest| {
            rest.rsplit_once(' ')
                .expect("value")
                .1
                .parse()
                .expect("integer")
        })
        .collect();
    assert!(!values.is_empty(), "no `{series}` in:\n{exposition}");
    values
}

/// `--store-shards 4 --data-dir D`: the persist gauges cover the shard
/// segments, `/admin/snapshot` compacts them, and a warm reopen loads
/// the snapshots and serves the same bytes.
fn sharded_data_dir(t: &mut Transcript) {
    let dir = tmp_dir("sharded-data-dir");
    let open = |shards| {
        serve(
            DurableSystem::open_sharded(system(), &dir, FsyncPolicy::Always, shards)
                .expect("open the sharded data dir"),
        )
    };
    let lorel = "select G.Symbol from ANNODA-GML.Gene G";
    let answers = |server: &Server| {
        [TEXT, JSON].map(|accept| {
            let (genes_status, genes) = request(server, "GET", "/genes?symbol=A%25", accept, "");
            let (lorel_status, answer) = request(server, "POST", "/lorel", accept, lorel);
            assert_eq!(
                (genes_status, lorel_status),
                (200, 200),
                "{genes}\n{answer}"
            );
            (genes, answer)
        })
    };

    let server = open(4);
    t.flat("sharded+datadir", &server, "POST", "/admin/refresh");
    let before_restart = answers(&server);
    let (_, journaled) = request(&server, "GET", "/metrics", TEXT, "");
    assert!(series_values(&journaled, "annoda_persist_fsyncs_total")[0] > 0);
    let appended = series_values(&journaled, "annoda_persist_appended_records_total")[0];
    assert!(appended > 0);

    t.flat("sharded+datadir", &server, "POST", "/admin/snapshot");
    let compacted = t.metrics("sharded+datadir", &server);
    let wal_bytes = |exposition| series_values(exposition, "annoda_store_shard_wal_bytes");
    for (after, before) in wal_bytes(&compacted).iter().zip(wal_bytes(&journaled)) {
        assert!(
            *after < before,
            "a segment did not shrink: {after} >= {before}"
        );
    }
    server.shutdown(Duration::from_secs(5));

    let server = open(0);
    let (_, warm) = request(&server, "GET", "/metrics", TEXT, "");
    assert_eq!(series_values(&warm, "annoda_persist_snapshot_loaded"), [1]);
    assert!(series_values(&warm, "annoda_persist_replayed_records")[0] < appended);
    assert_eq!(
        answers(&server),
        before_restart,
        "bytes differ across the restart"
    );
    server.shutdown(Duration::from_secs(5));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn operator_surface_matches_the_golden_transcript() {
    let mut t = Transcript(String::new());
    ephemeral(&mut t);
    sharded_with_feed(&mut t);
    follower_then_promoted(&mut t);
    federated(&mut t);
    sharded_data_dir(&mut t);

    let golden_path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/operator_surface.txt");
    let golden = std::fs::read_to_string(&golden_path).unwrap_or_default();
    if t.0 != golden {
        let actual_path =
            Path::new(env!("CARGO_TARGET_TMPDIR")).join("operator_surface.actual.txt");
        std::fs::write(&actual_path, &t.0).expect("write the transcript");
        let line =
            t.0.lines()
                .zip(golden.lines())
                .position(|(a, g)| a != g)
                .unwrap_or_else(|| t.0.lines().count().min(golden.lines().count()));
        panic!(
            "the operator surface changed at line {} (saw `{}`, golden has `{}`).\n\
             diff {} {}\nand, if the change is intended, copy the first over the second",
            line + 1,
            t.0.lines().nth(line).unwrap_or("<end>"),
            golden.lines().nth(line).unwrap_or("<end>"),
            actual_path.display(),
            golden_path.display(),
        );
    }
}
