//! Serving quickstart: start the HTTP layer in-process, hit every
//! Figure 5 route over loopback, and shut down gracefully.
//!
//! ```sh
//! cargo run --example serve_quickstart
//! ```

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use annoda::Annoda;
use annoda_serve::http::read_response;
use annoda_serve::{ServeConfig, Server};
use annoda_sources::{Corpus, CorpusConfig};

fn request(addr: std::net::SocketAddr, raw: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(raw.as_bytes()).expect("send");
    let mut reader = BufReader::new(stream);
    let (status, body) = read_response(&mut reader).expect("response");
    (status, String::from_utf8_lossy(&body).into_owned())
}

fn main() {
    // The same offline corpus and system the CLI uses.
    let corpus = Corpus::generate(CorpusConfig::tiny(42));
    let (mut system, _) = Annoda::over_sources(corpus.locuslink, corpus.go, corpus.omim);
    system.registry_mut().mediator_mut().enable_cache();

    let server = Server::start(
        system,
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            ..ServeConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.addr();
    println!("serving on http://{addr}\n");

    // Figure 5a/5b: the query form, answered as text.
    let (status, body) = request(
        addr,
        &format!("GET /genes?function=require&combine=all HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"),
    );
    println!("GET /genes -> {status}");
    println!("{}", body.lines().take(6).collect::<Vec<_>>().join("\n"));

    // The same form as JSON.
    let (status, body) = request(
        addr,
        &format!("GET /genes HTTP/1.1\r\nHost: {addr}\r\nAccept: application/json\r\nConnection: close\r\n\r\n"),
    );
    println!("\nGET /genes (JSON) -> {status}");
    println!("{}...", &body[..body.len().min(120)]);

    // A Lorel query over POST.
    let query = "select count(GML.Gene) from ANNODA-GML GML";
    let (status, body) = request(
        addr,
        &format!(
            "POST /lorel HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{query}",
            query.len()
        ),
    );
    println!("\nPOST /lorel -> {status}");
    print!("{body}");

    // Figure 5c: follow a link from the integrated view.
    let (status, body) = request(
        addr,
        &format!("GET /metrics HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"),
    );
    println!("\nGET /metrics -> {status}");
    println!(
        "{}",
        body.lines()
            .filter(|l| l.contains("requests_total") || l.contains("cache_hit"))
            .collect::<Vec<_>>()
            .join("\n")
    );

    let report = server.shutdown(Duration::from_secs(5));
    println!(
        "\nshut down: served {} requests, drained: {}",
        report.requests_served, report.drained
    );
}
