//! A minimal blocking HTTP/1.1 client: one keep-alive connection that
//! reconnects when the server closes it (the 100-request keep-alive
//! cap), and times each request from the first request byte written to
//! the last body byte read.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::streams::Req;

/// How long a request may take before it counts as failed.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// One parsed response.
#[derive(Debug)]
pub struct Reply {
    pub status: u16,
    pub etag: Option<String>,
    pub body: Vec<u8>,
    /// First request byte written → last body byte read.
    pub latency: Duration,
}

/// One keep-alive connection to the SUT.
pub struct Conn {
    addr: SocketAddr,
    link: Option<(TcpStream, BufReader<TcpStream>)>,
    /// Connections opened so far.
    opened: u64,
}

fn accept(json: bool) -> &'static str {
    if json {
        "application/json"
    } else {
        "text/plain"
    }
}

/// A `GET`; `etag` adds `If-None-Match`.
pub fn encode_get(target: &str, json: bool, etag: Option<&str>) -> Vec<u8> {
    let condition = etag
        .map(|t| format!("If-None-Match: {t}\r\n"))
        .unwrap_or_default();
    format!(
        "GET {target} HTTP/1.1\r\nHost: bench\r\nAccept: {}\r\n{condition}\r\n",
        accept(json)
    )
    .into_bytes()
}

/// Serialises `req`: a `POST` when it has a body, else a `GET`.
pub fn encode(req: &Req, etag: Option<&str>) -> Vec<u8> {
    if req.body.is_empty() {
        return encode_get(&req.target, req.json, etag);
    }
    format!(
        "POST {} HTTP/1.1\r\nHost: bench\r\nAccept: {}\r\nContent-Length: {}\r\n\r\n{}",
        req.target,
        accept(req.json),
        req.body.len(),
        req.body
    )
    .into_bytes()
}

impl Conn {
    pub fn new(addr: SocketAddr) -> Conn {
        Conn {
            addr,
            link: None,
            opened: 0,
        }
    }

    /// Connections opened after the first (keep-alive cap, errors).
    pub fn reconnects(&self) -> u64 {
        self.opened.saturating_sub(1)
    }

    fn link(&mut self) -> io::Result<&mut (TcpStream, BufReader<TcpStream>)> {
        if self.link.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, IO_TIMEOUT)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(IO_TIMEOUT))?;
            stream.set_write_timeout(Some(IO_TIMEOUT))?;
            let reader = BufReader::with_capacity(64 * 1024, stream.try_clone()?);
            self.opened += 1;
            self.link = Some((stream, reader));
        }
        Ok(self.link.as_mut().expect("just connected"))
    }

    /// Sends `bytes` and reads one response. Any I/O error drops the
    /// connection (the next call reconnects) and is the caller's to
    /// count as a failed request.
    pub fn exchange(&mut self, bytes: &[u8]) -> io::Result<Reply> {
        let outcome = self.try_exchange(bytes);
        if !matches!(&outcome, Ok((_, false))) {
            self.link = None;
        }
        outcome.map(|(reply, _)| reply)
    }

    fn try_exchange(&mut self, bytes: &[u8]) -> io::Result<(Reply, bool)> {
        let (writer, reader) = self.link()?;
        let started = Instant::now();
        writer.write_all(bytes)?;
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "closed before the status line",
            ));
        }
        let status: u16 = line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let (mut length, mut etag, mut close) = (0usize, None, false);
        loop {
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "closed in the headers",
                ));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            let Some((name, value)) = header.split_once(':') else {
                return Err(bad("bad header line"));
            };
            let value = value.trim();
            match name.to_ascii_lowercase().as_str() {
                "content-length" => {
                    length = value.parse().map_err(|_| bad("bad content-length"))?
                }
                "etag" => etag = Some(value.to_string()),
                "connection" => close = value.eq_ignore_ascii_case("close"),
                _ => {}
            }
        }
        let mut body = vec![0u8; length];
        reader.read_exact(&mut body)?;
        let latency = started.elapsed();
        Ok((
            Reply {
                status,
                etag,
                body,
                latency,
            },
            close,
        ))
    }
}
