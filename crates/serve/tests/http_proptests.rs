//! Split invariance of the incremental HTTP parser: the reactor feeds
//! `parse_buffered` whatever a connection has buffered after each read,
//! so however the network cuts a pipelined byte stream into reads, the
//! connection must see the same requests, in the same order, ending in
//! the same error (or the same unfinished tail) as one read of the whole
//! stream would give.

use diffnet_serve::http::{parse_buffered, Limits, Parsed};
use proptest::prelude::*;

/// What a connection made of a byte stream: each parsed request, then
/// either the error that closed it or the count of bytes left waiting
/// for more. (After an error nothing more is read, so how much of the
/// stream was buffered by then depends on the cuts, and is not compared.)
#[derive(Debug, PartialEq)]
struct Outcome {
    requests: Vec<String>,
    end: Result<usize, String>,
}

/// Drives the parser the way the reactor does: append each read to the
/// buffer, then parse requests off its front until it needs more bytes
/// or fails.
fn drive(pieces: &[&[u8]], limits: &Limits) -> Outcome {
    let mut buf = Vec::new();
    let mut requests = Vec::new();
    for piece in pieces {
        buf.extend_from_slice(piece);
        loop {
            match parse_buffered(&buf, limits) {
                Ok(Parsed::Complete { request, consumed }) => {
                    assert!(consumed > 0 && consumed <= buf.len(), "consumed {consumed}");
                    requests.push(format!("{request:?}"));
                    buf.drain(..consumed);
                }
                Ok(Parsed::NeedMore) => break,
                Err(e) => {
                    return Outcome {
                        requests,
                        end: Err(format!("{e:?}")),
                    }
                }
            }
        }
    }
    Outcome {
        requests,
        end: Ok(buf.len()),
    }
}

/// One request-shaped fragment of a pipelined stream, well-formed or
/// not, chosen by `kind` and sized by `size`.
fn fragment(kind: u8, size: usize, salt: u64) -> Vec<u8> {
    const PATTERN: &[u8] = b"ab\r\n\r\nxyz\n";
    let body: Vec<u8> = (0..size)
        .map(|i| PATTERN[(salt as usize % PATTERN.len() + i) % PATTERN.len()])
        .collect();
    let mut out = Vec::new();
    match kind {
        0 => out.extend_from_slice(
            format!("GET /v1/jobs/{salt}?wait_ms=5&x HTTP/1.1\r\nHost: h\r\n\r\n").as_bytes(),
        ),
        1 => {
            out.extend_from_slice(
                format!("POST /v1/jobs HTTP/1.1\r\nContent-Length: {size}\r\n\r\n").as_bytes(),
            );
            out.extend_from_slice(&body);
        }
        2 => out.extend_from_slice(b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"),
        // Lenient bare-LF terminators, alone and ahead of a CRLF one.
        3 => out.extend_from_slice(b"GET /a HTTP/1.1\n\n"),
        4 => out.extend_from_slice(b"GET /b HTTP/1.1\r\nX: 1\n\nY: 2\r\n\r\n"),
        5 => out.extend_from_slice(b"GET /c HTTP/1.1\r\n\n"),
        // A head near or past a small cap.
        6 => {
            out.extend_from_slice(b"GET /d HTTP/1.1\r\nX-Pad: ");
            out.resize(out.len() + size, b'p');
            out.extend_from_slice(b"\r\n\r\n");
        }
        // Declared bodies over the cap, and POST without a length.
        7 => out.extend_from_slice(
            format!(
                "POST /e HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                1000 + size
            )
            .as_bytes(),
        ),
        8 => out.extend_from_slice(b"POST /f HTTP/1.1\r\n\r\n"),
        // Garbage: bad methods, targets, versions, non-UTF-8 bytes.
        9 => out.extend_from_slice(b"DELETE /g HTTP/1.1\r\n\r\n"),
        10 => out.extend_from_slice(b"GET nope HTTP/1.1\r\n\r\n"),
        11 => out.extend_from_slice(b"\xff\xfe\r\n\r\n"),
        _ => out.extend_from_slice(&body),
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn parse_buffered_is_split_invariant(
        fragments in proptest::collection::vec((0u8..13, 0usize..80, any::<u64>()), 1..6),
        cuts in proptest::collection::vec(any::<usize>(), 0..16),
        max_head_bytes in 24usize..120,
    ) {
        let limits = Limits { max_head_bytes, max_body_bytes: 64 };
        let stream: Vec<u8> = fragments
            .iter()
            .flat_map(|&(kind, size, salt)| fragment(kind, size, salt))
            .collect();
        let whole = drive(&[&stream], &limits);
        let mut at: Vec<usize> = cuts.iter().map(|c| c % (stream.len() + 1)).collect();
        at.push(0);
        at.push(stream.len());
        at.sort_unstable();
        at.dedup();
        let pieces: Vec<&[u8]> = at.windows(2).map(|w| &stream[w[0]..w[1]]).collect();
        let split = drive(&pieces, &limits);
        prop_assert_eq!(
            &split, &whole,
            "stream {:?} cut at {:?}", String::from_utf8_lossy(&stream), at
        );
        // Byte at a time: the finest partition of all.
        let bytes: Vec<&[u8]> = stream.chunks(1).collect();
        prop_assert_eq!(&drive(&bytes, &limits), &whole);
    }
}
