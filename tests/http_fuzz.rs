//! Hostile bytes on an HTTP connection: `http::try_parse` answers `Ok`
//! or `Err` for any buffer, never a panic. Two properties bound what a
//! connection thread buffers:
//!
//! - a parse never consumes more bytes than the buffer holds;
//! - a buffer longer than `max_head_bytes + 4 + max_body_bytes` (the
//!   largest request the limits admit, blank line included) never
//!   answers `NeedMore`, so a client cannot grow it without bound.
//!
//! Inputs are arbitrary bytes, and every truncation and single-byte
//! flip of valid GET and POST requests.

use proptest::prelude::*;

use annoda_serve::http::{self, Limits, Parsed};

/// Valid requests, one of each shape the server routes.
fn valid_requests() -> Vec<Vec<u8>> {
    let lorel = "select G.Symbol from ANNODA-GML.Gene G";
    vec![
        b"GET /genes?function=require%3A%25kinase%25&combine=any HTTP/1.1\r\n\
          Host: x\r\nAccept: application/json\r\n\r\n"
            .to_vec(),
        b"GET /search?q=dna+repair&k=5&fusion=rrf HTTP/1.1\r\nConnection: close\r\n\r\n".to_vec(),
        format!(
            "POST /lorel HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{lorel}",
            lorel.len()
        )
        .into_bytes(),
    ]
}

/// The default limits, and limits small enough that every valid request
/// runs into them.
fn limit_sets() -> [Limits; 2] {
    [
        Limits::default(),
        Limits {
            max_head_bytes: 48,
            max_body_bytes: 8,
        },
    ]
}

/// The largest buffer that may still answer `NeedMore`.
fn bound(limits: &Limits) -> usize {
    limits.max_head_bytes + 4 + limits.max_body_bytes
}

/// Parses `buf` and checks what must hold of any outcome; a panic in
/// the parser fails the calling test too.
fn check(buf: &[u8], limits: &Limits) {
    match http::try_parse(buf, limits) {
        Ok(Parsed::Complete { request, consumed }) => {
            assert!(
                consumed <= buf.len(),
                "consumed {consumed} of {} bytes",
                buf.len()
            );
            assert!(request.body.len() <= limits.max_body_bytes);
            let _ = request.query_pairs();
        }
        Ok(Parsed::NeedMore) => assert!(
            buf.len() <= bound(limits),
            "NeedMore on {} bytes, past the bound {}",
            buf.len(),
            bound(limits)
        ),
        Err(_) => {}
    }
}

#[test]
fn every_truncation_and_byte_flip_of_valid_requests() {
    for request in valid_requests() {
        match http::try_parse(&request, &Limits::default()) {
            Ok(Parsed::Complete { consumed, .. }) => assert_eq!(consumed, request.len()),
            other => panic!("a valid request must parse: {other:?}"),
        }
        for limits in limit_sets() {
            for cut in 0..=request.len() {
                check(&request[..cut], &limits);
            }
            for pos in 0..request.len() {
                for flip in (0..8).map(|bit| 1u8 << bit).chain([0xff]) {
                    let mut damaged = request.clone();
                    damaged[pos] ^= flip;
                    check(&damaged, &limits);
                }
            }
        }
    }
}

fn any_limits() -> impl Strategy<Value = Limits> {
    (0usize..96, 0usize..48).prop_map(|(max_head_bytes, max_body_bytes)| Limits {
        max_head_bytes,
        max_body_bytes,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes, under arbitrary (small) limits and the default.
    #[test]
    fn arbitrary_bytes_never_panic(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
        limits in any_limits(),
    ) {
        check(&bytes, &limits);
        check(&bytes, &Limits::default());
    }

    /// A valid request cut anywhere and followed by arbitrary bytes: the
    /// parser gets past the request line into headers, lengths and
    /// bodies with hostile values.
    #[test]
    fn valid_prefixes_with_arbitrary_tails_never_panic(
        pick in any::<usize>(),
        cut_pick in any::<usize>(),
        tail in proptest::collection::vec(any::<u8>(), 0..64),
        limits in any_limits(),
    ) {
        let requests = valid_requests();
        let request = &requests[pick % requests.len()];
        let mut bytes = request[..cut_pick % (request.len() + 1)].to_vec();
        bytes.extend(tail);
        check(&bytes, &limits);
        check(&bytes, &Limits::default());
    }

    /// Buffers past the bound, whatever they start with, are decided:
    /// a request or an error, never a wait for more bytes.
    #[test]
    fn buffers_past_the_bound_never_need_more(
        pick in any::<usize>(),
        cut_pick in any::<usize>(),
        filler in any::<u8>(),
        extra in 1usize..32,
        limits in any_limits(),
    ) {
        let requests = valid_requests();
        let request = &requests[pick % requests.len()];
        let mut bytes = request[..cut_pick % (request.len() + 1)].to_vec();
        let target = bytes.len().max(bound(&limits)) + extra;
        bytes.resize(target, filler);
        prop_assert!(!matches!(
            http::try_parse(&bytes, &limits),
            Ok(Parsed::NeedMore)
        ));
    }

    /// Percent-decoding takes any string of escape-ish characters
    /// (signs, hex and non-hex digits, multibyte chars); a byte escaped
    /// as two hex digits, either case, decodes to itself.
    #[test]
    fn percent_decoding_never_panics_and_inverts_escapes(
        picks in proptest::collection::vec(any::<usize>(), 0..24),
        byte in 0u8..0x80,
        lower in any::<bool>(),
    ) {
        const ALPHABET: &[char] = &['%', '+', '-', '0', '9', 'a', 'F', 'g', ' ', 'é', '😀'];
        let text: String = picks.iter().map(|p| ALPHABET[p % ALPHABET.len()]).collect();
        let _ = http::percent_decode(&text);
        let escaped = if lower { format!("%{byte:02x}") } else { format!("%{byte:02X}") };
        prop_assert_eq!(http::percent_decode(&escaped), (byte as char).to_string());
    }
}
