//! Minimal HTTP/1.1 on top of `std::io` — request parsing with hard
//! size caps, percent-decoding, and response writing.
//!
//! The parser is deliberately strict and bounded: the request head
//! (request line + headers) may not exceed [`Limits::max_head_bytes`]
//! and the body may not exceed [`Limits::max_body_bytes`]; a client
//! that sends more gets a 431/413 and the connection is closed. This is
//! the first line of overload defence — no request can make the server
//! buffer unbounded input.
//!
//! There is one parsing entry point, [`try_parse`]: it consumes a byte
//! buffer incrementally and reports `NeedMore` instead of blocking, so
//! a connection thread decides itself when to read more bytes and when
//! to give up on a client dripping them one at a time.

use std::io::{self, BufRead};
use std::time::{SystemTime, UNIX_EPOCH};

/// Per-request input bounds.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Cap on the request line + headers, bytes (431 beyond it).
    pub max_head_bytes: usize,
    /// Cap on the declared body size, bytes (413 beyond it).
    pub max_body_bytes: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_head_bytes: 8 * 1024,
            max_body_bytes: 64 * 1024,
        }
    }
}

/// A parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// `GET`, `POST`, … (uppercased token, as sent).
    pub method: String,
    /// The path component of the target, percent-decoded per segment
    /// left to the router (kept raw here).
    pub path: String,
    /// The raw query string (no leading `?`; empty when absent).
    pub query: String,
    /// Header `(name, value)` pairs in arrival order; names lowercased.
    pub headers: Vec<(String, String)>,
    /// The request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a header, by case-insensitive name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Percent-decoded query parameters in arrival order.
    pub fn query_pairs(&self) -> Vec<(String, String)> {
        parse_query(&self.query)
    }

    /// Whether the client asked to drop the connection after this
    /// exchange (`Connection: close`).
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum RequestError {
    /// Syntactically invalid request (→ 400, close).
    Malformed(String),
    /// The head exceeded [`Limits::max_head_bytes`] (→ 431, close).
    HeadTooLarge,
    /// The declared body exceeded [`Limits::max_body_bytes`]
    /// (→ 413, close).
    BodyTooLarge,
}

/// Outcome of feeding [`try_parse`] a (possibly incomplete) buffer.
#[derive(Debug)]
pub enum Parsed {
    /// The buffer does not yet hold a complete request; read more.
    NeedMore,
    /// One complete request, and how many buffer bytes it consumed.
    Complete {
        /// The parsed request.
        request: Request,
        /// Bytes of the buffer the request occupied (head + body).
        consumed: usize,
    },
}

/// Incrementally parses the front of `buf` as one HTTP/1.1 request.
///
/// Never blocks and never consumes on `NeedMore` — the caller keeps
/// appending socket bytes to `buf` and retrying. Size caps apply to the
/// partial input too: a head that grows past `max_head_bytes` without
/// terminating is rejected immediately (431), not buffered further.
pub fn try_parse(buf: &[u8], limits: &Limits) -> Result<Parsed, RequestError> {
    // The head ends at the first blank line. Search only within the cap
    // (plus the terminator itself) so a hostile endless header stream
    // is cut off at the limit, not at allocation failure.
    let window = buf.len().min(limits.max_head_bytes + 4);
    let Some(head_end) = find_head_end(&buf[..window]) else {
        if buf.len() > limits.max_head_bytes {
            return Err(RequestError::HeadTooLarge);
        }
        return Ok(Parsed::NeedMore);
    };
    if head_end > limits.max_head_bytes {
        return Err(RequestError::HeadTooLarge);
    }
    let mut request = parse_head(&buf[..head_end])?;
    let mut consumed = head_end + 4;
    if let Some(len) = request.header("content-length") {
        let len: usize = len
            .parse()
            .map_err(|_| RequestError::Malformed(format!("bad content-length `{len}`")))?;
        if len > limits.max_body_bytes {
            return Err(RequestError::BodyTooLarge);
        }
        if buf.len() < consumed + len {
            return Ok(Parsed::NeedMore);
        }
        request.body = buf[consumed..consumed + len].to_vec();
        consumed += len;
    }
    Ok(Parsed::Complete { request, consumed })
}

/// Index of the `\r\n\r\n` head terminator, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Parses a complete request head (everything before the blank line,
/// without the terminating `\r\n\r\n`). The returned request carries an
/// empty body.
fn parse_head(head: &[u8]) -> Result<Request, RequestError> {
    let text = std::str::from_utf8(head)
        .map_err(|_| RequestError::Malformed("head is not UTF-8".into()))?;
    let mut lines = text.split("\r\n");
    let request_line = lines
        .next()
        .ok_or_else(|| RequestError::Malformed("empty head".into()))?;
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => {
            return Err(RequestError::Malformed(format!(
                "bad request line `{}`",
                request_line.chars().take(80).collect::<String>()
            )))
        }
    };
    if !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(RequestError::Malformed(format!("bad method `{method}`")));
    }
    if !version.starts_with("HTTP/1.") {
        return Err(RequestError::Malformed(format!(
            "unsupported version `{version}`"
        )));
    }
    if !target.starts_with('/') {
        return Err(RequestError::Malformed(format!("bad target `{target}`")));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue; // the trailing blank line
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| RequestError::Malformed(format!("header without colon: `{line}`")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    Ok(Request {
        method: method.to_string(),
        path,
        query,
        headers,
        body: Vec::new(),
    })
}

/// Percent-decodes one URL component (`+` becomes a space — query
/// convention; bad escapes pass through literally). An escape is `%`
/// followed by exactly two ASCII hex digits.
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => {
                // Digits are checked byte by byte: `from_str_radix` alone
                // would also take a sign (`%+1`), and slicing the `str`
                // could split a multibyte char.
                match (hex_digit(bytes.get(i + 1)), hex_digit(bytes.get(i + 2))) {
                    (Some(hi), Some(lo)) => {
                        out.push((hi << 4) | lo);
                        i += 3;
                    }
                    _ => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// The value of one ASCII hex digit.
fn hex_digit(b: Option<&u8>) -> Option<u8> {
    (*b? as char).to_digit(16).map(|d| d as u8)
}

/// Splits a query string into percent-decoded `(key, value)` pairs.
pub fn parse_query(query: &str) -> Vec<(String, String)> {
    query
        .split('&')
        .filter(|part| !part.is_empty())
        .map(|part| {
            let (k, v) = part.split_once('=').unwrap_or((part, ""));
            (percent_decode(k), percent_decode(v))
        })
        .collect()
}

/// A response ready to write.
#[derive(Debug, Clone)]
pub struct Response {
    /// The HTTP status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Extra headers, e.g. `Retry-After` on 503.
    pub headers: Vec<(&'static str, String)>,
    /// Response body bytes.
    pub body: Vec<u8>,
    /// Sharded-store mode: which store shards the answer was derived
    /// from, stamped at compute time. Metadata for the response cache
    /// and ETag minting — never serialized onto the wire.
    pub deps: Option<crate::cache::ShardDeps>,
}

impl Response {
    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            headers: Vec::new(),
            body: body.into().into_bytes(),
            deps: None,
        }
    }

    /// A JSON response.
    pub fn json(status: u16, value: &crate::json::Json) -> Response {
        Response {
            status,
            content_type: "application/json",
            headers: Vec::new(),
            body: value.to_text().into_bytes(),
            deps: None,
        }
    }

    /// An empty-bodied `304 Not Modified` carrying the entity tag the
    /// client revalidated against.
    pub fn not_modified(etag: &str) -> Response {
        Response {
            status: 304,
            content_type: "text/plain; charset=utf-8",
            headers: vec![("etag", etag.to_string())],
            body: Vec::new(),
            deps: None,
        }
    }

    /// Standard reason phrase for the status codes this server emits.
    pub fn reason(status: u16) -> &'static str {
        match status {
            200 => "OK",
            304 => "Not Modified",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            406 => "Not Acceptable",
            408 => "Request Timeout",
            409 => "Conflict",
            413 => "Payload Too Large",
            431 => "Request Header Fields Too Large",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "",
        }
    }
}

/// The current instant as an RFC 9110 `IMF-fixdate` (`Date` header).
pub fn http_date_now() -> String {
    format_http_date(SystemTime::now())
}

/// Formats a timestamp as `Sun, 06 Nov 1994 08:49:37 GMT`.
pub fn format_http_date(t: SystemTime) -> String {
    let secs = t
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let days = (secs / 86_400) as i64;
    let rem = secs % 86_400;
    let (hh, mm, ss) = (rem / 3_600, (rem % 3_600) / 60, rem % 60);
    // 1970-01-01 was a Thursday.
    let weekday = ["Thu", "Fri", "Sat", "Sun", "Mon", "Tue", "Wed"][(days % 7) as usize];
    // Civil-from-days (Howard Hinnant's algorithm).
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    let month = [
        "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
    ][(month - 1) as usize];
    format!("{weekday}, {day:02} {month} {year} {hh:02}:{mm:02}:{ss:02} GMT")
}

/// Serializes `response` (head + body) onto the end of `out`,
/// announcing whether the connection stays open.
///
/// Every response path — including the early 400/431/413 errors and
/// acceptor-side sheds — goes through here, so `Date`, `Connection`,
/// and `Content-Length` are emitted unconditionally.
pub fn encode_response(out: &mut Vec<u8>, response: &Response, keep_alive: bool) {
    use std::io::Write as _;
    let _ = write!(
        out,
        "HTTP/1.1 {} {}\r\ndate: {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {}\r\n",
        response.status,
        Response::reason(response.status),
        http_date_now(),
        response.content_type,
        response.body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (name, value) in &response.headers {
        let _ = write!(out, "{name}: {value}\r\n");
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(&response.body);
}

/// Reads one HTTP response (status line, headers, `Content-Length`
/// body) — the client half of [`encode_response`], for the e2e suites
/// and examples that talk to a live server over a socket. Returns
/// `(status, body)`.
pub fn read_response<R: BufRead>(reader: &mut R) -> io::Result<(u16, Vec<u8>)> {
    let mut status_line = String::new();
    if reader.read_line(&mut status_line)? == 0 {
        return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "closed"));
    }
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    let mut content_length = 0usize;
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "closed in headers",
            ));
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            break;
        }
        if let Some((name, value)) = trimmed.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().unwrap_or(0);
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_with(bytes: &[u8], limits: &Limits) -> Result<Request, RequestError> {
        match try_parse(bytes, limits)? {
            Parsed::Complete { request, .. } => Ok(request),
            Parsed::NeedMore => panic!("incomplete: {}", String::from_utf8_lossy(bytes)),
        }
    }

    fn parse(bytes: &[u8]) -> Result<Request, RequestError> {
        parse_with(bytes, &Limits::default())
    }

    fn encoded(response: &Response, keep_alive: bool) -> String {
        let mut out = Vec::new();
        encode_response(&mut out, response, keep_alive);
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn well_formed_get_parses() {
        let r =
            parse(b"GET /genes?function=require HTTP/1.1\r\nHost: x\r\nAccept: text/plain\r\n\r\n")
                .unwrap();
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/genes");
        assert_eq!(r.query, "function=require");
        assert_eq!(r.header("accept"), Some("text/plain"));
        assert_eq!(r.header("ACCEPT"), Some("text/plain"));
        assert!(r.body.is_empty());
        assert!(!r.wants_close());
    }

    #[test]
    fn post_reads_the_declared_body() {
        let r = parse(b"POST /lorel HTTP/1.1\r\nContent-Length: 8\r\n\r\nselect S").unwrap();
        assert_eq!(r.body, b"select S");
    }

    #[test]
    fn malformed_request_lines_are_rejected() {
        for bad in [
            &b"NOT-HTTP\r\n\r\n"[..],
            b"GET /x\r\n\r\n",
            b"GET /x HTTP/1.1 extra\r\n\r\n",
            b"get /x HTTP/1.1\r\n\r\n",
            b"GET x HTTP/1.1\r\n\r\n",
            b"GET /x SPDY/3\r\n\r\n",
            b"GET /x HTTP/1.1\r\nno-colon-here\r\n\r\n",
            b"GET /x HTTP/1.1\r\nContent-Length: banana\r\n\r\n",
        ] {
            assert!(
                matches!(parse(bad), Err(RequestError::Malformed(_))),
                "{}",
                String::from_utf8_lossy(bad)
            );
        }
    }

    #[test]
    fn oversized_heads_and_bodies_are_bounded() {
        let limits = Limits {
            max_head_bytes: 64,
            max_body_bytes: 8,
        };
        let big = format!("GET /x HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "a".repeat(100));
        assert!(matches!(
            parse_with(big.as_bytes(), &limits),
            Err(RequestError::HeadTooLarge)
        ));
        let fat = b"POST /x HTTP/1.1\r\nContent-Length: 9\r\n\r\n123456789";
        assert!(matches!(
            parse_with(fat, &limits),
            Err(RequestError::BodyTooLarge)
        ));
    }

    #[test]
    fn empty_and_truncated_heads_need_more() {
        // The parser never decides a connection is over: at EOF the
        // connection thread closes, quietly, whatever the buffer holds.
        let limits = Limits::default();
        assert!(matches!(try_parse(b"", &limits), Ok(Parsed::NeedMore)));
        assert!(matches!(
            try_parse(b"GET /x HT", &limits),
            Ok(Parsed::NeedMore)
        ));
    }

    #[test]
    fn percent_decoding() {
        assert_eq!(percent_decode("Homo+sapiens"), "Homo sapiens");
        assert_eq!(percent_decode("TP%25"), "TP%");
        assert_eq!(percent_decode("a%2Fb"), "a/b");
        assert_eq!(percent_decode("bad%zz"), "bad%zz");
        assert_eq!(percent_decode("trail%2"), "trail%2");
        // A multibyte char right after `%` must not panic the slicer.
        assert_eq!(percent_decode("x%éy"), "x%éy");
        // Escapes take exactly two hex digits: no sign, no short form.
        assert_eq!(percent_decode("%+1"), "% 1");
        assert_eq!(percent_decode("%-1x"), "%-1x");
        assert_eq!(percent_decode("a%4"), "a%4");
        assert_eq!(percent_decode("%41%4a"), "AJ");
    }

    #[test]
    fn query_pairs_decode_in_order() {
        assert_eq!(
            parse_query("function=require%3A%25kinase%25&combine=any&flag"),
            vec![
                ("function".to_string(), "require:%kinase%".to_string()),
                ("combine".to_string(), "any".to_string()),
                ("flag".to_string(), String::new()),
            ]
        );
        assert!(parse_query("").is_empty());
    }

    #[test]
    fn responses_carry_length_connection_and_date() {
        let mut resp = Response::text(503, "busy");
        resp.headers.push(("retry-after", "1".into()));
        let text = encoded(&resp, false);
        assert!(
            text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"),
            "{text}"
        );
        assert!(text.contains("content-length: 4\r\n"));
        assert!(text.contains("connection: close\r\n"));
        assert!(text.contains("retry-after: 1\r\n"));
        assert!(text.contains("date: "), "all responses carry Date: {text}");
        assert!(text.contains(" GMT\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\nbusy"));

        // The early-error statuses go through the same writer, so they
        // carry the same headers.
        let text = encoded(&Response::text(431, "too big"), false);
        assert!(text.contains("date: "), "{text}");
        assert!(text.contains("connection: close\r\n"), "{text}");
    }

    #[test]
    fn not_modified_is_empty_with_etag() {
        let text = encoded(&Response::not_modified("\"g4\""), true);
        assert!(text.starts_with("HTTP/1.1 304 Not Modified\r\n"), "{text}");
        assert!(text.contains("content-length: 0\r\n"));
        assert!(text.contains("etag: \"g4\"\r\n"));
        assert!(text.contains("connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n"), "304 must carry no body");
    }

    #[test]
    fn http_date_formats_known_instants() {
        assert_eq!(
            format_http_date(UNIX_EPOCH),
            "Thu, 01 Jan 1970 00:00:00 GMT"
        );
        // RFC 9110's own example date.
        let t = UNIX_EPOCH + std::time::Duration::from_secs(784_111_777);
        assert_eq!(format_http_date(t), "Sun, 06 Nov 1994 08:49:37 GMT");
        // A leap-day, after noon.
        let t = UNIX_EPOCH + std::time::Duration::from_secs(1_709_209_057);
        assert_eq!(format_http_date(t), "Thu, 29 Feb 2024 12:17:37 GMT");
    }

    #[test]
    fn incremental_parse_needs_more_until_complete() {
        let limits = Limits::default();
        let full = b"POST /lorel HTTP/1.1\r\nHost: x\r\nContent-Length: 8\r\n\r\nselect S";
        // Every strict prefix is NeedMore; the full buffer completes.
        for cut in 0..full.len() {
            assert!(
                matches!(try_parse(&full[..cut], &limits), Ok(Parsed::NeedMore)),
                "prefix of {cut} bytes must not complete"
            );
        }
        match try_parse(full, &limits).unwrap() {
            Parsed::Complete { request, consumed } => {
                assert_eq!(consumed, full.len());
                assert_eq!(request.method, "POST");
                assert_eq!(request.body, b"select S");
            }
            Parsed::NeedMore => panic!("full request must parse"),
        }
    }

    #[test]
    fn incremental_parse_leaves_pipelined_tail() {
        let limits = Limits::default();
        let two = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
        let (first, consumed) = match try_parse(two, &limits).unwrap() {
            Parsed::Complete { request, consumed } => (request, consumed),
            Parsed::NeedMore => panic!("first request must parse"),
        };
        assert_eq!(first.path, "/a");
        match try_parse(&two[consumed..], &limits).unwrap() {
            Parsed::Complete { request, .. } => assert_eq!(request.path, "/b"),
            Parsed::NeedMore => panic!("second request must parse"),
        }
    }

    #[test]
    fn incremental_parse_enforces_caps_early() {
        let limits = Limits {
            max_head_bytes: 64,
            max_body_bytes: 8,
        };
        // An unterminated head past the cap is rejected *now*, not
        // buffered until the client deigns to finish it.
        let drip = format!("GET /x HTTP/1.1\r\nX-Pad: {}", "a".repeat(100));
        assert!(matches!(
            try_parse(drip.as_bytes(), &limits),
            Err(RequestError::HeadTooLarge)
        ));
        // An oversized declared body is rejected from the head alone.
        let fat = b"POST /x HTTP/1.1\r\nContent-Length: 9\r\n\r\n";
        assert!(matches!(
            try_parse(fat, &limits),
            Err(RequestError::BodyTooLarge)
        ));
        assert!(matches!(
            try_parse(b"NOT-HTTP\r\n\r\n", &limits),
            Err(RequestError::Malformed(_))
        ));
    }
}
