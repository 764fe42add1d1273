//! End-to-end tests for the annoda-serve HTTP layer, over a real
//! loopback socket: the Figure 5 routes in both formats, malformed and
//! oversized input, overload shedding, and graceful shutdown.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::thread;
use std::time::{Duration, Instant};

use annoda::{Annoda, GeneQuestion};
use annoda_serve::http::read_response;
use annoda_serve::{ServeConfig, Server};
use annoda_sources::{Corpus, CorpusConfig};

fn system() -> Annoda {
    let c = Corpus::generate(CorpusConfig::tiny(42));
    let (mut a, _) = Annoda::over_sources(c.locuslink, c.go, c.omim);
    a.registry_mut().mediator_mut().enable_cache();
    a
}

/// A symbol guaranteed to exist in the corpus the server runs over.
fn known_symbol(a: &Annoda) -> String {
    let answer = a.ask(&GeneQuestion::default()).expect("blank question");
    answer.fused.genes[0].symbol.clone()
}

fn start(config: ServeConfig) -> (Server, String) {
    let a = system();
    let symbol = known_symbol(&a);
    let server = Server::start(a, config).expect("bind ephemeral port");
    (server, symbol)
}

fn ephemeral() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..ServeConfig::default()
    }
}

/// One request on a fresh connection; returns `(status, body)`.
fn roundtrip(server: &Server, request: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream.write_all(request.as_bytes()).expect("send");
    let mut reader = BufReader::new(stream);
    let (status, body) = read_response(&mut reader).expect("response");
    (status, String::from_utf8_lossy(&body).into_owned())
}

fn get(server: &Server, path: &str, accept: &str) -> (u16, String) {
    roundtrip(
        server,
        &format!("GET {path} HTTP/1.1\r\nHost: t\r\nAccept: {accept}\r\nConnection: close\r\n\r\n"),
    )
}

#[test]
fn figure5_routes_serve_text_and_json() {
    let (server, symbol) = start(ephemeral());

    // Figure 5a/5b: the query form → integrated view.
    let (status, text) = get(&server, "/genes?function=require&combine=all", "text/plain");
    assert_eq!(status, 200);
    assert!(text.contains("Annotation integrated view"), "{text}");
    let (status, json) = get(&server, "/genes", "application/json");
    assert_eq!(status, 200);
    assert!(json.starts_with("{\"count\":"), "{json}");
    assert!(json.contains("\"genes\":["));

    // Figure 5c: the individual object view, links as served hrefs.
    let (status, text) = get(&server, &format!("/object/gene/{symbol}"), "text/plain");
    assert_eq!(status, 200, "{text}");
    assert!(text.contains("Individual object view"), "{text}");
    assert!(
        !text.contains("annoda://"),
        "links must be rewritten: {text}"
    );
    let (status, json) = get(
        &server,
        &format!("/object/gene/{symbol}"),
        "application/json",
    );
    assert_eq!(status, 200);
    assert!(json.contains("\"kind\":\"gene\""), "{json}");
    assert!(json.contains("\"href\":"), "{json}");

    // Lorel over POST.
    let query = "select count(GML.Gene) from ANNODA-GML GML";
    let (status, body) = roundtrip(
        &server,
        &format!(
            "POST /lorel HTTP/1.1\r\nHost: t\r\nAccept: application/json\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{query}",
            query.len()
        ),
    );
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"rows\":"), "{body}");
    let (status, body) = roundtrip(
        &server,
        &format!(
            "POST /lorel HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{query}",
            query.len()
        ),
    );
    assert_eq!(status, 200);
    assert!(body.contains("answer"), "{body}");

    // Health and metrics.
    let (status, body) = get(&server, "/healthz", "text/plain");
    assert_eq!(status, 200);
    assert!(body.starts_with("ok"));
    let (status, body) = get(&server, "/metrics", "text/plain");
    assert_eq!(status, 200);
    assert!(
        body.contains("annoda_requests_total{route=\"genes\"} 2"),
        "{body}"
    );
    assert!(body.contains("annoda_mediator_cache_hits_total"), "{body}");
    let (status, body) = get(&server, "/metrics", "application/json");
    assert_eq!(status, 200);
    assert!(body.contains("\"queue_depth_high_water\""), "{body}");

    server.shutdown(Duration::from_secs(5));
}

#[test]
fn error_statuses_are_typed() {
    let (server, _symbol) = start(ephemeral());

    // Unknown object kind is the client's mistake: 400.
    let (status, body) = get(&server, "/object/widget/x", "text/plain");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("unknown object kind"), "{body}");
    // A valid kind with a dangling id: 404.
    let (status, body) = get(&server, "/object/gene/NO-SUCH-GENE", "text/plain");
    assert_eq!(status, 404, "{body}");
    // Bad question clause: 400.
    let (status, _) = get(&server, "/genes?combine=sometimes", "text/plain");
    assert_eq!(status, 400);
    let (status, _) = get(&server, "/genes?frobnicate=1", "text/plain");
    assert_eq!(status, 400);
    // Unknown route: 404; wrong method: 405; unacceptable format: 406.
    let (status, _) = get(&server, "/nope", "text/plain");
    assert_eq!(status, 404);
    let (status, _) = roundtrip(
        &server,
        "DELETE /genes HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status, 405);
    for path in ["/genes", "/healthz", "/metrics", "/object/gene/X"] {
        let (status, _) = get(&server, path, "text/html");
        assert_eq!(status, 406, "{path} should refuse text/html");
    }

    server.shutdown(Duration::from_secs(5));
}

#[test]
fn malformed_and_oversized_requests_close_the_connection() {
    let (server, _symbol) = start(ServeConfig {
        max_head_bytes: 512,
        ..ephemeral()
    });

    // Malformed request line → 400, then EOF.
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.write_all(b"NOT A VALID REQUEST\r\n\r\n").unwrap();
    let mut reader = BufReader::new(stream);
    let (status, _) = read_response(&mut reader).unwrap();
    assert_eq!(status, 400);
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "connection must be closed after 400");

    // Oversized header → 431, then EOF.
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let huge = format!(
        "GET /healthz HTTP/1.1\r\nHost: t\r\nX-Pad: {}\r\n\r\n",
        "a".repeat(2048)
    );
    stream.write_all(huge.as_bytes()).unwrap();
    let mut reader = BufReader::new(stream);
    let (status, _) = read_response(&mut reader).unwrap();
    assert_eq!(status, 431);
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "connection must be closed after 431");

    server.shutdown(Duration::from_secs(5));
}

#[test]
fn concurrent_clients_share_one_system() {
    let (server, _symbol) = start(ephemeral());
    let addr = server.addr();
    let handles: Vec<_> = (0..8)
        .map(|_| {
            thread::spawn(move || {
                let stream = TcpStream::connect(addr).unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut writer = stream;
                // Keep-alive: several requests on one connection.
                for _ in 0..5 {
                    writer
                        .write_all(
                            b"GET /genes HTTP/1.1\r\nHost: t\r\nAccept: application/json\r\n\r\n",
                        )
                        .unwrap();
                    let (status, body) = read_response(&mut reader).unwrap();
                    assert_eq!(status, 200);
                    assert!(body.starts_with(b"{"));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
    let (_, metrics) = get(&server, "/metrics", "text/plain");
    assert!(
        metrics.contains("annoda_requests_total{route=\"genes\"} 40"),
        "{metrics}"
    );
    server.shutdown(Duration::from_secs(5));
}

#[test]
fn overload_sheds_with_503_and_retry_after() {
    // One worker, a queue of one, and a slow handler. Eight concurrent
    // connections arrive at once: one occupies the worker, one waits in
    // the queue, and the rest are shed by the acceptor with 503 +
    // Retry-After — immediately, without parsing a byte of them.
    let (server, _symbol) = start(ServeConfig {
        workers: 1,
        queue_capacity: 1,
        handler_delay: Duration::from_secs(1),
        ..ephemeral()
    });
    let addr = server.addr();

    // Open all eight sockets up front (TCP connects complete against
    // the listen backlog immediately, independent of scheduling), so
    // the burst arrives as a burst even on a loaded test host.
    let sockets: Vec<TcpStream> = (0..8)
        .map(|_| {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
                .unwrap();
            s
        })
        .collect();
    let results: Vec<(u16, bool)> = sockets
        .into_iter()
        .map(|s| {
            let mut reader = BufReader::new(s);
            // Read the raw head so the Retry-After header is visible.
            let mut status_line = String::new();
            reader.read_line(&mut status_line).unwrap();
            let status: u16 = status_line.split(' ').nth(1).unwrap().parse().unwrap();
            let mut retry_after = false;
            let mut line = String::new();
            loop {
                line.clear();
                if reader.read_line(&mut line).unwrap() == 0 || line.trim().is_empty() {
                    break;
                }
                if line.to_ascii_lowercase().starts_with("retry-after:") {
                    retry_after = true;
                }
            }
            (status, retry_after)
        })
        .collect();

    let served = results.iter().filter(|(s, _)| *s == 200).count();
    let shed = results.iter().filter(|(s, _)| *s == 503).count();
    assert_eq!(
        served + shed,
        8,
        "every connection gets an answer: {results:?}"
    );
    // The worker serves one connection and the queue may hold another
    // (whether #2 queues or sheds races with the worker's pop); the
    // bulk of the burst must be shed, and nothing may hang.
    assert!(served >= 1, "the occupied worker still serves: {results:?}");
    assert!(shed >= 4, "excess load must be shed: {results:?}");
    for (status, retry_after) in &results {
        if *status == 503 {
            assert!(retry_after, "503 must advertise Retry-After");
        }
    }

    let gauge = server.app().gauge.clone();
    assert!(gauge.rejected() >= shed as u64);
    assert!(gauge.high_water() >= 1);
    server.shutdown(Duration::from_secs(5));
}

/// Regression for the snapshot-serving refactor: a long-running `/lorel`
/// evaluation must never stall `/healthz`, `/metrics`, or
/// `/admin/refresh`. Before the epoch-swapped `Arc<OemStore>` snapshot,
/// the handler held the system read lock through evaluation, so a slow
/// query serialised every other route behind it.
#[test]
fn slow_lorel_does_not_block_other_routes() {
    // A corpus big enough that the 3-way self-join below runs for a
    // while on one worker (it yields zero rows — the predicate cycle is
    // contradictory — so only binding enumeration costs anything).
    let c = Corpus::generate(CorpusConfig::tiny(42).scaled(4.0));
    let (a, _) = Annoda::over_sources(c.locuslink, c.go, c.omim);
    let server = Server::start(
        a,
        ServeConfig {
            workers: 4,
            ..ephemeral()
        },
    )
    .expect("bind ephemeral port");
    let addr = server.addr();

    let slow_query = "select count(G) from ANNODA-GML GML, GML.Gene G, GML.Gene H, GML.Gene K \
                      where G.Symbol < H.Symbol and H.Symbol < K.Symbol and K.Symbol < G.Symbol";
    let request = format!(
        "POST /lorel HTTP/1.1\r\nHost: t\r\nAccept: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{slow_query}",
        slow_query.len()
    );
    let started = std::time::Instant::now();
    let slow = thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(request.as_bytes()).unwrap();
        let mut reader = BufReader::new(stream);
        let (status, body) = read_response(&mut reader).unwrap();
        (status, String::from_utf8_lossy(&body).into_owned())
    });
    // Let the slow evaluation get onto a worker.
    thread::sleep(Duration::from_millis(150));

    // Every other route must answer while the query is still running.
    let (status, body) = get(&server, "/healthz", "text/plain");
    assert_eq!(status, 200, "{body}");
    let (status, body) = get(&server, "/metrics", "text/plain");
    assert_eq!(status, 200, "{body}");
    let (status, body) = roundtrip(
        &server,
        "POST /admin/refresh HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status, 200, "refresh must not wait for the query: {body}");
    let others_done = started.elapsed();

    let (status, body) = slow.join().expect("slow client");
    let slow_done = started.elapsed();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"rows\":0"), "{body}");
    assert!(
        slow_done > others_done,
        "the slow query ({slow_done:?}) must still have been in flight when \
         healthz/metrics/refresh finished ({others_done:?}) — otherwise this \
         test proves nothing; grow the corpus"
    );
    server.shutdown(Duration::from_secs(5));
}

/// Sixteen concurrent clients mixing `/lorel`, `/object`, and
/// `/admin/refresh`: every response must be internally consistent with
/// exactly one snapshot epoch (no torn reads across an atomic swap) and
/// nothing may 5xx.
#[test]
fn concurrent_serving_has_no_torn_snapshots() {
    let a = system();
    let symbol = known_symbol(&a);
    let server = Server::start(
        a,
        ServeConfig {
            workers: 8,
            ..ephemeral()
        },
    )
    .expect("bind ephemeral port");
    let addr = server.addr();

    fn json_int(body: &str, key: &str) -> i64 {
        let pat = format!("\"{key}\":");
        let at = body.find(&pat).unwrap_or_else(|| panic!("{key} in {body}"));
        body[at + pat.len()..]
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '-')
            .collect::<String>()
            .parse()
            .expect("integer field")
    }

    let query = "select count(GML.Gene) from ANNODA-GML GML";
    let handles: Vec<_> = (0..16)
        .map(|client| {
            let symbol = symbol.clone();
            thread::spawn(move || {
                // (epoch, store_len, rows) triples from /lorel responses.
                let mut observed: Vec<(i64, i64, i64)> = Vec::new();
                for round in 0..6 {
                    let request = match (client + round) % 4 {
                        // A quarter of the traffic churns epochs.
                        0 => "POST /admin/refresh HTTP/1.1\r\nHost: t\r\n\
                              Content-Length: 0\r\nConnection: close\r\n\r\n"
                            .to_string(),
                        1 => format!(
                            "GET /object/gene/{symbol} HTTP/1.1\r\nHost: t\r\n\
                             Accept: application/json\r\nConnection: close\r\n\r\n"
                        ),
                        _ => format!(
                            "POST /lorel HTTP/1.1\r\nHost: t\r\nAccept: application/json\r\n\
                             Content-Length: {}\r\nConnection: close\r\n\r\n{query}",
                            query.len()
                        ),
                    };
                    let mut stream = TcpStream::connect(addr).unwrap();
                    stream.write_all(request.as_bytes()).unwrap();
                    let mut reader = BufReader::new(stream);
                    let (status, body) = read_response(&mut reader).unwrap();
                    let body = String::from_utf8_lossy(&body).into_owned();
                    assert!(status < 500, "no 5xx under mixed load: {status} {body}");
                    assert_eq!(status, 200, "{body}");
                    if body.contains("\"epoch\":") {
                        observed.push((
                            json_int(&body, "epoch"),
                            json_int(&body, "store_len"),
                            json_int(&body, "rows"),
                        ));
                    }
                }
                observed
            })
        })
        .collect();

    let mut by_epoch: std::collections::BTreeMap<i64, (i64, i64)> = Default::default();
    for h in handles {
        for (epoch, store_len, rows) in h.join().expect("client thread") {
            // A torn snapshot would pair one epoch's store with
            // another's metadata — every response for an epoch must
            // agree on what that epoch contained.
            let entry = by_epoch.entry(epoch).or_insert((store_len, rows));
            assert_eq!(
                *entry,
                (store_len, rows),
                "epoch {epoch} served inconsistent (store_len, rows)"
            );
        }
    }
    assert!(
        by_epoch.len() >= 2,
        "refreshes must have produced multiple epochs: {by_epoch:?}"
    );
    server.shutdown(Duration::from_secs(5));
}

#[test]
fn graceful_shutdown_drains_in_flight_requests() {
    let (server, _symbol) = start(ServeConfig {
        workers: 2,
        handler_delay: Duration::from_millis(300),
        ..ephemeral()
    });
    let addr = server.addr();

    // A request that will still be in flight when shutdown begins.
    let client = thread::spawn(move || {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"GET /genes HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
            .unwrap();
        let mut reader = BufReader::new(s);
        read_response(&mut reader).expect("in-flight request completes")
    });
    thread::sleep(Duration::from_millis(100));

    let report = server.shutdown(Duration::from_secs(10));
    assert!(report.drained, "pool must drain within the deadline");
    let (status, _) = client.join().expect("client thread");
    assert_eq!(status, 200, "the in-flight request was served, not dropped");
    assert!(report.requests_served >= 1);
}

// ---------------------------------------------------------------------
// Epoch-keyed response cache, conditional requests, and the sharded
// event loop's fairness/admission behaviour.

/// Reads one full response from a keep-alive stream: status, headers
/// (names lowercased), body.
fn read_full<R: BufRead>(reader: &mut R) -> (u16, Vec<(String, String)>, Vec<u8>) {
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status line");
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("numeric status");
    let mut headers = Vec::new();
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header line");
        let trimmed = line.trim();
        if trimmed.is_empty() {
            break;
        }
        if let Some((name, value)) = trimmed.split_once(':') {
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim().to_string();
            if name == "content-length" {
                content_length = value.parse().unwrap_or(0);
            }
            headers.push((name, value));
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("body");
    (status, headers, body)
}

fn header_value<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

#[test]
fn etag_304_conformance_and_cache_transparency() {
    let (server, _symbol) = start(ephemeral());
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    const GET_GENES: &str = "GET /genes HTTP/1.1\r\nHost: t\r\nAccept: application/json\r\n\r\n";

    // Fresh epoch: 200 with a strong generation ETag.
    stream.write_all(GET_GENES.as_bytes()).expect("send");
    let (status, headers, body1) = read_full(&mut reader);
    assert_eq!(status, 200);
    let etag1 = header_value(&headers, "etag")
        .expect("cacheable route carries an ETag")
        .to_string();
    assert!(etag1.starts_with("\"g") && etag1.ends_with('"'), "{etag1}");

    // Same epoch, If-None-Match with the current validator: 304, empty
    // body, validator echoed.
    let conditional = format!(
        "GET /genes HTTP/1.1\r\nHost: t\r\nAccept: application/json\r\n\
         If-None-Match: {etag1}\r\n\r\n"
    );
    stream.write_all(conditional.as_bytes()).expect("send");
    let (status, headers, body) = read_full(&mut reader);
    assert_eq!(status, 304);
    assert!(body.is_empty(), "304 must not carry a body");
    assert_eq!(header_value(&headers, "etag"), Some(etag1.as_str()));

    // A repeat unconditional GET within the epoch is a cache hit and
    // byte-identical to the first response.
    stream.write_all(GET_GENES.as_bytes()).expect("send");
    let (status, _, body2) = read_full(&mut reader);
    assert_eq!(status, 200);
    assert_eq!(body1, body2, "cached response must be byte-identical");
    let cache = server.app().http_cache.snapshot();
    assert!(cache.hits >= 1, "repeat GET must hit the response cache");
    assert!(cache.not_modified >= 1, "conditional GET must count a 304");

    // A refresh turns the epoch: the old validator no longer matches.
    stream
        .write_all(b"POST /admin/refresh HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n")
        .expect("send");
    let (status, _, _) = read_full(&mut reader);
    assert_eq!(status, 200);
    stream.write_all(conditional.as_bytes()).expect("send");
    let (status, headers, body3) = read_full(&mut reader);
    assert_eq!(status, 200, "a stale validator must get a full response");
    let etag2 = header_value(&headers, "etag")
        .expect("new epoch ETag")
        .to_string();
    assert_ne!(etag1, etag2, "the validator must change across epochs");

    // And the recomputed body matches a repeat (now cached) request.
    stream.write_all(GET_GENES.as_bytes()).expect("send");
    let (status, _, body4) = read_full(&mut reader);
    assert_eq!(status, 200);
    assert_eq!(
        body3, body4,
        "post-refresh cached response must be byte-identical"
    );
    assert!(
        server.app().http_cache.snapshot().epoch_invalidations >= 1,
        "the refresh must have invalidated the cache wholesale"
    );
    server.shutdown(Duration::from_secs(5));
}

/// One ETag names one body: a JSON `/genes` answer must not depend on
/// how warm the mediator's subquery cache was when it was computed —
/// reactor shards cache independently, so a cold shard and a warm shard
/// would otherwise hold different bytes under the same validator.
#[test]
fn json_genes_body_is_independent_of_subquery_cache_state() {
    // Response cache off, so both requests reach the mediator: the
    // first with a cold subquery cache, the second with a warm one.
    let (server, symbol) = start(ServeConfig {
        cache_capacity: 0,
        ..ephemeral()
    });
    let hits = || {
        let stats = server.app().system().annoda().mediator().cache_stats();
        stats.expect("system() enables the subquery cache").hits
    };
    let ask = || {
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        let request = format!(
            "GET /genes?symbol={symbol} HTTP/1.1\r\nHost: t\r\n\
             Accept: application/json\r\nConnection: close\r\n\r\n"
        );
        stream.write_all(request.as_bytes()).expect("send");
        let (status, headers, body) = read_full(&mut BufReader::new(stream));
        assert_eq!(status, 200);
        let etag = header_value(&headers, "etag").expect("ETag").to_string();
        (etag, body)
    };

    let before = hits();
    let (cold_etag, cold_body) = ask();
    assert_eq!(hits(), before, "the first ask must run cold");
    let (warm_etag, warm_body) = ask();
    assert!(hits() > before, "the second ask must hit the cache");

    assert_eq!(cold_etag, warm_etag);
    assert_eq!(
        String::from_utf8_lossy(&cold_body),
        String::from_utf8_lossy(&warm_body),
        "same ETag, same bytes"
    );
    server.shutdown(Duration::from_secs(5));
}

/// A search term guaranteed to hit: the first token harvested from a
/// locus-bearing annotation document (the corpus vocabulary is
/// seed-dependent, so the test derives a term instead of pinning one).
fn live_search_term(a: &Annoda) -> String {
    a.mediator()
        .harvest_text_docs()
        .iter()
        .flat_map(|(_, docs)| docs.iter())
        .filter(|d| !d.loci.is_empty())
        .flat_map(|d| annoda_search::tokenize(&d.text))
        .next()
        .expect("tiny corpus harvests at least one locus-bearing doc")
}

#[test]
fn search_route_is_epoch_cached_and_validated() {
    let a = system();
    let term = live_search_term(&a);
    let server = Server::start(a, ephemeral()).expect("bind ephemeral port");
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let get_search = format!(
        "GET /search?q={term}&k=5&fusion=rrf HTTP/1.1\r\nHost: t\r\n\
         Accept: application/json\r\n\r\n"
    );

    // Fresh epoch: 200 with a strong generation ETag and ranked answers.
    stream.write_all(get_search.as_bytes()).expect("send");
    let (status, headers, body1) = read_full(&mut reader);
    assert_eq!(status, 200);
    let text1 = String::from_utf8_lossy(&body1).into_owned();
    assert!(text1.contains("\"answers\":["), "{text1}");
    assert!(text1.contains("\"fused_score\":"), "{text1}");
    assert!(text1.contains("\"fusion\":\"rrf\""), "{text1}");
    let etag1 = header_value(&headers, "etag")
        .expect("search is a cacheable route and carries an ETag")
        .to_string();
    assert!(etag1.starts_with("\"g") && etag1.ends_with('"'), "{etag1}");

    // A repeat unconditional GET within the epoch is served from the
    // response cache, byte-identical to the uncached answer.
    let hits_before = server.app().http_cache.snapshot().hits;
    stream.write_all(get_search.as_bytes()).expect("send");
    let (status, _, body2) = read_full(&mut reader);
    assert_eq!(status, 200);
    assert_eq!(body1, body2, "cached search must be byte-identical");
    assert!(
        server.app().http_cache.snapshot().hits > hits_before,
        "repeat search must hit the epoch cache"
    );

    // Conditional GET with the live validator: 304, no body.
    let conditional = format!(
        "GET /search?q={term}&k=5&fusion=rrf HTTP/1.1\r\nHost: t\r\n\
         Accept: application/json\r\nIf-None-Match: {etag1}\r\n\r\n"
    );
    stream.write_all(conditional.as_bytes()).expect("send");
    let (status, _, body) = read_full(&mut reader);
    assert_eq!(status, 304);
    assert!(body.is_empty(), "304 must not carry a body");

    // Refresh turns the epoch: the stale validator gets a full answer
    // under a new ETag.
    stream
        .write_all(b"POST /admin/refresh HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n")
        .expect("send");
    let (status, _, _) = read_full(&mut reader);
    assert_eq!(status, 200);
    stream.write_all(conditional.as_bytes()).expect("send");
    let (status, headers, _) = read_full(&mut reader);
    assert_eq!(status, 200, "stale validator must get a full response");
    let etag2 = header_value(&headers, "etag").expect("new epoch ETag");
    assert_ne!(etag1, etag2, "the validator must change across epochs");

    // The index gauges and hit counters surface on /metrics.
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: t\r\nAccept: text/plain\r\n\r\n")
        .expect("send");
    let (status, _, body) = read_full(&mut reader);
    assert_eq!(status, 200);
    let metrics = String::from_utf8_lossy(&body);
    assert!(metrics.contains("annoda_search_index_terms"), "{metrics}");
    assert!(
        metrics.contains("annoda_search_index_postings"),
        "{metrics}"
    );
    assert!(metrics.contains("annoda_search_index_epoch"), "{metrics}");
    assert!(
        metrics.contains("annoda_search_index_build_us"),
        "{metrics}"
    );
    assert!(metrics.contains("annoda_search_queries_total"), "{metrics}");
    assert!(
        metrics.contains("annoda_requests_total{route=\"search\"}"),
        "{metrics}"
    );
    server.shutdown(Duration::from_secs(5));
}

#[test]
fn search_route_rejects_bad_parameters() {
    let (server, _symbol) = start(ephemeral());
    for (path, want) in [
        ("/search", "missing query parameter q"),
        ("/search?q=", "missing query parameter q"),
        ("/search?q=dna&fusion=wat", "unknown fusion"),
        ("/search?q=dna&k=0", "k must be a positive integer"),
        ("/search?q=dna&k=ten", "k must be a positive integer"),
        ("/search?q=dna&order=asc", "unknown search parameter"),
    ] {
        let (status, body) = get(&server, path, "text/plain");
        assert_eq!(status, 400, "{path}: {body}");
        assert!(body.contains(want), "{path}: {body}");
    }
    // Wrong method on the route.
    let (status, _) = roundtrip(
        &server,
        "POST /search HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status, 405);
    // A query that matches nothing is a valid, empty, 200 answer.
    let (status, body) = get(&server, "/search?q=zzzzunindexedzzzz", "application/json");
    assert_eq!(status, 200);
    assert!(body.contains("\"count\":0"), "{body}");
    server.shutdown(Duration::from_secs(5));
}

#[test]
fn slowloris_drip_does_not_stall_the_shard() {
    // One shard, so the dripping connection and the healthy ones share
    // the same event loop — the old thread-per-connection server would
    // have parked a worker on the drip.
    let (server, _symbol) = start(ServeConfig {
        shards: 1,
        ..ephemeral()
    });
    let addr = server.addr();
    let dripper = thread::spawn(move || {
        let mut s = TcpStream::connect(addr).expect("connect");
        for b in b"GET /healthz HTTP/1.1\r\nHost: drip\r\nX-Slow: ".iter() {
            if s.write_all(&[*b]).is_err() {
                return;
            }
            thread::sleep(Duration::from_millis(20));
        }
        // Never finishes the head; the server's idle timeout reaps it.
    });

    // While the drip is in progress, requests on the same shard must
    // answer promptly.
    for _ in 0..5 {
        let t0 = Instant::now();
        let (status, body) = get(&server, "/healthz", "text/plain");
        assert_eq!(status, 200);
        assert!(body.starts_with("ok"));
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "healthz stalled behind a slowloris connection"
        );
    }
    dripper.join().expect("dripper thread");
    server.shutdown(Duration::from_secs(5));
}

#[test]
fn shed_under_load_returns_retry_after_and_counts() {
    let (server, _symbol) = start(ServeConfig {
        shards: 1,
        max_in_flight: 1,
        handler_delay: Duration::from_millis(800),
        ..ephemeral()
    });

    // Occupy the single in-flight slot with a slow-path request.
    let mut busy = TcpStream::connect(server.addr()).expect("connect");
    busy.write_all(b"GET /genes HTTP/1.1\r\nHost: t\r\nAccept: application/json\r\n\r\n")
        .expect("send");
    thread::sleep(Duration::from_millis(300));

    // The next slow-path request must be shed immediately, not queued.
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .write_all(
            b"GET /genes HTTP/1.1\r\nHost: t\r\nAccept: application/json\r\n\
              Connection: close\r\n\r\n",
        )
        .expect("send");
    let mut reader = BufReader::new(stream);
    let (status, headers, body) = read_full(&mut reader);
    assert_eq!(status, 503, "{}", String::from_utf8_lossy(&body));
    assert_eq!(header_value(&headers, "retry-after"), Some("1"));
    let shed = server.app().shed.snapshot();
    assert!(shed.total >= 1, "shed counter must record the 503");
    assert!(
        shed.in_flight_budget >= 1,
        "the shed must be attributed to the in-flight budget"
    );

    // The admitted request still completes normally.
    let mut reader = BufReader::new(busy);
    let (status, _) = read_response(&mut reader).expect("busy response");
    assert_eq!(status, 200);
    server.shutdown(Duration::from_secs(5));
}

#[test]
fn pipelined_requests_answer_in_order_under_the_cap() {
    // The per-connection pipeline cap is far below the burst size: the
    // shard must stop reading, drain answers in order, then resume —
    // never drop, reorder, or deadlock.
    let (server, symbol) = start(ServeConfig {
        pipeline_max: 2,
        ..ephemeral()
    });
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    let object = format!(
        "GET /object/gene/{symbol} HTTP/1.1\r\nHost: t\r\nAccept: application/json\r\n\r\n"
    );
    let health = "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n";
    let genes = "GET /genes HTTP/1.1\r\nHost: t\r\nAccept: application/json\r\n\r\n";
    let kinds = [
        "object", "health", "genes", "health", "genes", "health", "object", "health",
    ];
    let mut burst = String::new();
    for kind in &kinds {
        burst.push_str(match *kind {
            "object" => &object,
            "health" => health,
            "genes" => genes,
            _ => unreachable!(),
        });
    }
    stream.write_all(burst.as_bytes()).expect("send burst");

    for kind in &kinds {
        let (status, _, body) = read_full(&mut reader);
        assert_eq!(status, 200);
        let body = String::from_utf8_lossy(&body);
        match *kind {
            "object" => assert!(body.contains("\"kind\":\"gene\""), "{body}"),
            "health" => assert!(body.starts_with("ok"), "{body}"),
            "genes" => assert!(body.starts_with("{\"count\":"), "{body}"),
            _ => unreachable!(),
        }
    }
    server.shutdown(Duration::from_secs(5));
}

#[test]
fn error_responses_carry_date_and_connection_headers() {
    let (server, _symbol) = start(ephemeral());

    // Malformed request line: 400, with the mandatory headers.
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream.write_all(b"BOGUS /x\r\n\r\n").expect("send");
    let mut reader = BufReader::new(stream);
    let (status, headers, _) = read_full(&mut reader);
    assert_eq!(status, 400);
    assert!(
        header_value(&headers, "date").is_some(),
        "400 must carry Date"
    );
    assert_eq!(header_value(&headers, "connection"), Some("close"));

    // Oversized head: 431, same discipline.
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    let huge = format!(
        "GET / HTTP/1.1\r\nHost: t\r\nX-Big: {}\r\n\r\n",
        "a".repeat(10 * 1024)
    );
    let _ = stream.write_all(huge.as_bytes());
    let mut reader = BufReader::new(stream);
    let (status, headers, _) = read_full(&mut reader);
    assert_eq!(status, 431);
    assert!(
        header_value(&headers, "date").is_some(),
        "431 must carry Date"
    );
    assert_eq!(header_value(&headers, "connection"), Some("close"));
    server.shutdown(Duration::from_secs(5));
}

// ---------------------------------------------------------------------
// Sharded-store selective cache invalidation.

/// Over a sharded store, a one-source refresh must invalidate only the
/// cached responses whose shard dependencies were actually touched:
/// the rewritten gene's object view recomputes, while object views for
/// genes on untouched shards keep serving the cached bytes — verified
/// byte-for-byte — and the old generation-wholesale invalidation path
/// stays quiet.
#[test]
fn sharded_refresh_invalidates_the_cache_selectively() {
    use annoda::DurableSystem;
    use annoda_oem::ShardRouter;

    const STORE_SHARDS: usize = 8;
    let corpus = Corpus::generate(CorpusConfig::tiny(42));
    let (mut a, _) = Annoda::over_sources(
        corpus.locuslink.clone(),
        corpus.go.clone(),
        corpus.omim.clone(),
    );
    a.registry_mut().mediator_mut().enable_cache();
    let durable = DurableSystem::new_sharded(a, STORE_SHARDS).expect("shard the store");
    let server = Server::start_durable(
        durable,
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            // One reactor shard so every request shares one response
            // cache.
            shards: 1,
            ..ServeConfig::default()
        },
    )
    .expect("bind");

    // The victim is the first locus; witnesses are genes routed to
    // other store shards, so the victim's refresh cannot stamp them.
    let router = ShardRouter::new(STORE_SHARDS);
    let victim = corpus.locuslink.scan().next().expect("non-empty corpus");
    let victim_shard = router.route(&victim.symbol);
    let witnesses: Vec<String> = corpus
        .locuslink
        .scan()
        .filter(|r| router.route(&r.symbol) != victim_shard)
        .take(6)
        .map(|r| r.symbol.clone())
        .collect();
    assert!(!witnesses.is_empty(), "tiny corpus spans several shards");

    // Rewrite the victim's native record FIRST: the façade mutation
    // turns the serving generation once, but the materialised shard
    // store is untouched until a refresh re-pulls the source.
    const SENTINEL: &str = "selectively invalidated locus description";
    {
        let app = server.app();
        let mut sys = app.system_mut();
        let w = sys
            .annoda_mut()
            .registry_mut()
            .mediator_mut()
            .wrapper_mut("LocusLink")
            .expect("LocusLink plugged")
            .as_any_mut()
            .downcast_mut::<annoda_wrap::LocusLinkWrapper>()
            .expect("native wrapper type");
        w.db_mut()
            .by_id_mut(victim.locus_id)
            .expect("victim exists")
            .description = SENTINEL.to_string();
    }

    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    fn fetch(
        stream: &mut TcpStream,
        reader: &mut BufReader<TcpStream>,
        symbol: &str,
        validator: Option<&str>,
    ) -> (u16, Option<String>, Vec<u8>) {
        let conditional = validator
            .map(|v| format!("If-None-Match: {v}\r\n"))
            .unwrap_or_default();
        stream
            .write_all(
                format!(
                    "GET /object/gene/{symbol} HTTP/1.1\r\nHost: t\r\n\
                     Accept: application/json\r\n{conditional}\r\n"
                )
                .as_bytes(),
            )
            .expect("send");
        let (status, headers, body) = read_full(reader);
        let etag = header_value(&headers, "etag").map(str::to_string);
        (status, etag, body)
    }

    // Populate the cache: the victim still serves its pre-rewrite
    // bytes, stamped with shard-dependency ETags.
    let (status, victim_etag, victim_before) =
        fetch(&mut stream, &mut reader, &victim.symbol, None);
    assert_eq!(status, 200);
    let victim_etag = victim_etag.expect("object views carry ETags");
    assert!(
        victim_etag.contains(".s"),
        "sharded validators carry a dependency stamp: {victim_etag}"
    );
    assert!(
        !String::from_utf8_lossy(&victim_before).contains(SENTINEL),
        "the native rewrite must not be visible before the refresh"
    );
    let cached: Vec<(String, String, Vec<u8>)> = witnesses
        .iter()
        .map(|symbol| {
            let (status, etag, body) = fetch(&mut stream, &mut reader, symbol, None);
            assert_eq!(status, 200, "{symbol}");
            (symbol.clone(), etag.expect("etag"), body)
        })
        .collect();

    // A cached *selection* must die with any commit: its membership is
    // not fixed by the keys it surfaced (a refresh could add the N+1th
    // matching gene on any shard), so /genes pins the full vector.
    fn fetch_target(
        stream: &mut TcpStream,
        reader: &mut BufReader<TcpStream>,
        target: &str,
        validator: Option<&str>,
    ) -> (u16, Option<String>) {
        let conditional = validator
            .map(|v| format!("If-None-Match: {v}\r\n"))
            .unwrap_or_default();
        stream
            .write_all(
                format!(
                    "GET {target} HTTP/1.1\r\nHost: t\r\n\
                     Accept: application/json\r\n{conditional}\r\n"
                )
                .as_bytes(),
            )
            .expect("send");
        let (status, headers, _) = read_full(reader);
        (status, header_value(&headers, "etag").map(str::to_string))
    }
    const GENES: &str = "/genes?organism=Homo+sapiens";
    let (status, genes_etag) = fetch_target(&mut stream, &mut reader, GENES, None);
    assert_eq!(status, 200);
    let genes_etag = genes_etag.expect("selections carry ETags");
    assert!(
        genes_etag.contains(".s"),
        "sharded selection validators carry a dependency stamp: {genes_etag}"
    );

    // Re-pull only LocusLink: the commit bumps the victim's shard
    // epoch and leaves the serving generation alone.
    stream
        .write_all(
            b"POST /admin/refresh?source=LocusLink HTTP/1.1\r\nHost: t\r\n\
              Content-Length: 0\r\n\r\n",
        )
        .expect("send");
    let (status, _, body) = read_full(&mut reader);
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));

    // The victim's validator is dead; the recomputed view serves the
    // rewritten description under a fresh stamp.
    let (status, new_etag, victim_after) =
        fetch(&mut stream, &mut reader, &victim.symbol, Some(&victim_etag));
    assert_eq!(status, 200, "a touched shard must fail revalidation");
    assert_ne!(new_etag.as_deref(), Some(victim_etag.as_str()));
    assert!(
        String::from_utf8_lossy(&victim_after).contains(SENTINEL),
        "refresh must surface the rewrite"
    );

    // The cached selection's full-vector stamp is dead too, even
    // though every key it surfaced may live on untouched shards.
    let (status, _) = fetch_target(&mut stream, &mut reader, GENES, Some(&genes_etag));
    assert_eq!(
        status, 200,
        "a selection must never revalidate across a commit — its \
         membership is not fixed by the keys it surfaced"
    );

    // Witness entries on untouched shards keep validating, and repeat
    // reads serve the cached response byte-identically.
    let mut survivors = 0;
    for (symbol, etag, before) in &cached {
        let (status, _, _) = fetch(&mut stream, &mut reader, symbol, Some(etag));
        if status == 304 {
            survivors += 1;
            let (status, _, again) = fetch(&mut stream, &mut reader, symbol, None);
            assert_eq!(status, 200);
            assert_eq!(
                &again, before,
                "surviving cache entry for {symbol} must be byte-identical"
            );
        }
    }
    assert!(
        survivors > 0,
        "a one-locus refresh must keep entries for untouched shards"
    );

    let cache = server.app().http_cache.snapshot();
    assert!(
        cache.deps_invalidations >= 1,
        "the victim's entry must fall to a shard-dependency stamp"
    );
    assert_eq!(
        cache.epoch_invalidations, 0,
        "selective invalidation must not fall back to the wholesale path"
    );
    server.shutdown(Duration::from_secs(5));
}
