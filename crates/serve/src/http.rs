//! A minimal, hostile-input-hardened HTTP/1.1 layer on `std::net`.
//!
//! The workspace builds with no registry access, so this module hand-rolls
//! exactly the protocol subset the job API needs: `GET`/`POST`, a parsed
//! request target (path + query pairs), `Content-Length`-framed bodies,
//! and keep-alive/pipelined responses. Everything else is rejected with a
//! typed [`HttpError`] that maps onto a 4xx status — the server never
//! panics on short reads and never buffers an unbounded body:
//!
//! * the head (request line + headers) is read incrementally and capped at
//!   [`Limits::max_head_bytes`] — exceeding it is `431`;
//! * a `POST` must declare `Content-Length` (`411`), the declared length
//!   is checked against [`Limits::max_body_bytes`] *before* any body byte
//!   is read (`413`), and a connection that ends before delivering the
//!   declared bytes is a truncated upload (`400`), mirroring the
//!   `Truncated` machinery of the on-disk formats.
//!
//! The core is the pure incremental parser [`parse_buffered`]: given the
//! bytes buffered so far it either produces one parsed request plus the
//! byte count it consumed (pipelined requests parse one at a time from
//! the same buffer), asks for more bytes, or rejects with a typed error.
//! The epoll reactor drives it directly from readiness events.

use std::fmt;
use std::io::{self, Write};
use std::time::Duration;

/// The request methods the job API serves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    /// `GET`.
    Get,
    /// `POST`.
    Post,
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Method::Get => "GET",
            Method::Post => "POST",
        })
    }
}

/// Size caps applied while parsing a request.
#[derive(Clone, Copy, Debug)]
pub struct Limits {
    /// Maximum bytes for the request line + headers.
    pub max_head_bytes: usize,
    /// Maximum bytes for a request body.
    pub max_body_bytes: usize,
}

impl Default for Limits {
    fn default() -> Limits {
        Limits {
            max_head_bytes: 16 * 1024,
            max_body_bytes: 64 * 1024 * 1024,
        }
    }
}

/// A parsed request.
#[derive(Clone, Debug)]
pub struct Request {
    /// Request method.
    pub method: Method,
    /// Decoded path, without the query string (e.g. `/v1/jobs/3`).
    pub path: String,
    /// Query pairs in order of appearance (`?a=1&b=2`); a key without `=`
    /// gets an empty value.
    pub query: Vec<(String, String)>,
    /// Headers with lower-cased names, in order of appearance.
    pub headers: Vec<(String, String)>,
    /// The request body (empty for `GET`).
    pub body: Vec<u8>,
    /// `true` for `HTTP/1.0` requests (which default to close).
    pub http10: bool,
}

impl Request {
    /// First query value for `key`, if present.
    pub fn query_value(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// First header value for the lower-case `name`, if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the connection should stay open after this request:
    /// HTTP/1.1 defaults to keep-alive unless the client sent
    /// `Connection: close`; HTTP/1.0 defaults to close unless it sent
    /// `Connection: keep-alive`.
    pub fn wants_keep_alive(&self) -> bool {
        match self.header("connection") {
            Some(v) if v.eq_ignore_ascii_case("close") => false,
            Some(v) if v.eq_ignore_ascii_case("keep-alive") => true,
            _ => !self.http10,
        }
    }
}

/// Why a request was rejected; each variant maps onto one response status.
#[derive(Debug)]
pub enum HttpError {
    /// Malformed request line, header, or framing → `400`.
    Malformed(String),
    /// The connection closed before delivering the declared body → `400`.
    TruncatedBody {
        /// Bytes declared by `Content-Length`.
        expected: usize,
        /// Bytes actually received.
        found: usize,
    },
    /// `POST` without a `Content-Length` header → `411`.
    LengthRequired,
    /// Declared body larger than the configured cap → `413`.
    BodyTooLarge {
        /// Declared `Content-Length`.
        declared: usize,
        /// The configured cap.
        limit: usize,
    },
    /// Request line + headers larger than the configured cap → `431`.
    HeadTooLarge {
        /// The configured cap.
        limit: usize,
    },
    /// A method this server does not implement → `501`.
    UnsupportedMethod(String),
    /// Socket-level failure while reading the request.
    Io(io::Error),
}

impl HttpError {
    /// The response status this error maps onto.
    pub fn status(&self) -> u16 {
        match self {
            HttpError::Malformed(_) | HttpError::TruncatedBody { .. } => 400,
            HttpError::LengthRequired => 411,
            HttpError::BodyTooLarge { .. } => 413,
            HttpError::HeadTooLarge { .. } => 431,
            HttpError::UnsupportedMethod(_) => 501,
            HttpError::Io(_) => 400,
        }
    }
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::Malformed(msg) => write!(f, "malformed request: {msg}"),
            HttpError::TruncatedBody { expected, found } => write!(
                f,
                "truncated body: Content-Length declares {expected} bytes, got {found}"
            ),
            HttpError::LengthRequired => write!(f, "POST requires a Content-Length header"),
            HttpError::BodyTooLarge { declared, limit } => write!(
                f,
                "request body of {declared} bytes exceeds the {limit}-byte limit"
            ),
            HttpError::HeadTooLarge { limit } => {
                write!(f, "request head exceeds the {limit}-byte limit")
            }
            HttpError::UnsupportedMethod(m) => write!(f, "unsupported method {m:?}"),
            HttpError::Io(e) => write!(f, "I/O error reading request: {e}"),
        }
    }
}

impl std::error::Error for HttpError {}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> HttpError {
        HttpError::Io(e)
    }
}

/// Outcome of feeding buffered bytes to [`parse_buffered`].
#[derive(Debug)]
pub enum Parsed {
    /// The buffer does not yet hold one complete request.
    NeedMore,
    /// One complete request, and how many buffered bytes it consumed
    /// (bytes past `consumed` belong to the next pipelined request).
    Complete {
        /// The parsed request.
        request: Request,
        /// Bytes of `buf` this request occupied (head + body).
        consumed: usize,
    },
}

/// Parses one request from the front of `buf`, enforcing `limits`.
///
/// Pure and incremental: the reactor calls it after every readiness
/// event with whatever has accumulated in the connection's read buffer.
/// The head cap is enforced as soon as the cap plus a terminator's four
/// bytes are buffered without a terminator, and the body cap as soon as
/// `Content-Length` is parsed — before the body is buffered, so a hostile
/// declared length costs nothing. The outcome depends only on the bytes,
/// not on how reads cut them: a pipelined stream fed in any pieces
/// yields the same requests and the same error as one buffer.
pub fn parse_buffered(buf: &[u8], limits: &Limits) -> Result<Parsed, HttpError> {
    // Only the head window needs scanning for the terminator; the +4
    // allows a terminator straddling the cap boundary. The head is too
    // large only once the whole window is buffered without one, so a
    // short read near the cap waits instead of failing a head the full
    // window would complete.
    let window = limits.max_head_bytes + 4;
    let Some(head_end) = find_head_end(&buf[..buf.len().min(window)]) else {
        if buf.len() >= window {
            return Err(HttpError::HeadTooLarge {
                limit: limits.max_head_bytes,
            });
        }
        return Ok(Parsed::NeedMore);
    };
    let head_text = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| HttpError::Malformed("request head is not UTF-8".to_string()))?;

    let mut lines = head_text.split("\r\n");
    let request_line = lines
        .next()
        .ok_or_else(|| HttpError::Malformed("missing request line".to_string()))?
        .trim_end_matches('\n'); // lenient \n\n terminator leaves one behind
    let mut parts = request_line.split(' ');
    let method_raw = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or_else(|| HttpError::Malformed("missing method".to_string()))?;
    let method = match method_raw {
        "GET" => Method::Get,
        "POST" => Method::Post,
        other if other.chars().all(|c| c.is_ascii_uppercase()) => {
            return Err(HttpError::UnsupportedMethod(other.to_string()))
        }
        other => return Err(HttpError::Malformed(format!("bad method {other:?}"))),
    };
    let target = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("missing request target".to_string()))?;
    let http10 = match parts.next() {
        Some("HTTP/1.1") => false,
        Some("HTTP/1.0") => true,
        other => return Err(HttpError::Malformed(format!("bad HTTP version {other:?}"))),
    };
    if parts.next().is_some() {
        return Err(HttpError::Malformed(
            "trailing tokens on request line".to_string(),
        ));
    }
    if !target.starts_with('/') {
        return Err(HttpError::Malformed(format!("bad target {target:?}")));
    }
    let (path, query) = parse_target(target);

    let mut headers: Vec<(String, String)> = Vec::new();
    for line in lines {
        let line = line.trim_end_matches('\n');
        if line.is_empty() {
            continue; // the terminating blank line
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::Malformed(format!("bad header line {line:?}")));
        };
        if name.is_empty() || name.contains(' ') {
            return Err(HttpError::Malformed(format!("bad header name {name:?}")));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }

    let mut request = Request {
        method,
        path,
        query,
        headers,
        body: Vec::new(),
        http10,
    };

    let declared = match request.header("content-length") {
        Some(raw) => Some(
            raw.parse::<usize>()
                .map_err(|_| HttpError::Malformed(format!("bad Content-Length {raw:?}")))?,
        ),
        None => None,
    };
    let expected = match (method, declared) {
        (Method::Post, None) => return Err(HttpError::LengthRequired),
        (_, None) => 0,
        (_, Some(len)) => len,
    };
    // The size check happens before the body is buffered, so an
    // oversized upload is refused from its declared length alone.
    if expected > limits.max_body_bytes {
        return Err(HttpError::BodyTooLarge {
            declared: expected,
            limit: limits.max_body_bytes,
        });
    }
    if buf.len() < head_end + expected {
        return Ok(Parsed::NeedMore);
    }
    request.body = buf[head_end..head_end + expected].to_vec();
    Ok(Parsed::Complete {
        request,
        consumed: head_end + expected,
    })
}

/// The typed error for a connection that hit EOF with a partial request
/// still buffered: a half-sent head is `Malformed`, a half-sent body is
/// `TruncatedBody` with the declared-vs-received counts. Shared by the
/// blocking reader and the reactor's peer-EOF path.
pub fn truncation_error(buf: &[u8]) -> HttpError {
    match find_head_end(buf) {
        None => HttpError::Malformed("connection closed mid request head".to_string()),
        Some(head_end) => HttpError::TruncatedBody {
            expected: declared_length(&buf[..head_end]).unwrap_or(0),
            found: buf.len() - head_end,
        },
    }
}

/// Best-effort `Content-Length` extraction from a raw head, for the
/// truncated-upload error path.
fn declared_length(head: &[u8]) -> Option<usize> {
    let text = std::str::from_utf8(head).ok()?;
    for line in text.split("\r\n") {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                return value.trim().parse().ok();
            }
        }
    }
    None
}

/// Locates the end of the head: the byte after the first `\r\n\r\n` or,
/// leniently, `\n\n` — whichever ends first. The earliest end depends
/// only on the bytes up to it, so a pipelined stream splits into the
/// same heads however its reads were cut.
fn find_head_end(bytes: &[u8]) -> Option<usize> {
    (1..bytes.len())
        .find(|&i| {
            bytes[i] == b'\n'
                && (bytes[i - 1] == b'\n' || (i >= 3 && &bytes[i - 3..i] == b"\r\n\r"))
        })
        .map(|i| i + 1)
}

/// Splits a request target into path and query pairs.
fn parse_target(target: &str) -> (String, Vec<(String, String)>) {
    match target.split_once('?') {
        None => (target.to_string(), Vec::new()),
        Some((path, query)) => {
            let pairs = query
                .split('&')
                .filter(|p| !p.is_empty())
                .map(|pair| match pair.split_once('=') {
                    Some((k, v)) => (k.to_string(), v.to_string()),
                    None => (pair.to_string(), String::new()),
                })
                .collect();
            (path.to_string(), pairs)
        }
    }
}

/// A response ready to serialize: status, content type, extra headers,
/// body.
#[derive(Clone, Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Extra response headers (e.g. `X-Request-Id`), emitted after the
    /// content headers. Values must already be header-safe — the writer
    /// does not sanitize them.
    pub headers: Vec<(&'static str, String)>,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response from a [`diffnet_observe::Json`] tree.
    pub fn json(status: u16, json: &diffnet_observe::Json) -> Response {
        Response {
            status,
            content_type: "application/json",
            headers: Vec::new(),
            body: json.to_pretty().into_bytes(),
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            headers: Vec::new(),
            body: body.into().into_bytes(),
        }
    }

    /// A JSON error envelope `{"error": "..."}`.
    pub fn error(status: u16, message: impl Into<String>) -> Response {
        let mut json = diffnet_observe::Json::object();
        json.push("error", message.into());
        Response::json(status, &json)
    }

    /// Adds an extra response header.
    pub fn header(&mut self, name: &'static str, value: impl Into<String>) {
        self.headers.push((name, value.into()));
    }

    /// Serializes the response into `out`. `keep_alive` selects the
    /// `Connection` header; a kept-alive response also advertises the
    /// server's idle timeout (`Keep-Alive: timeout=N`) so well-behaved
    /// clients drop connections before the reactor reaps them.
    pub fn serialize_into(&self, out: &mut Vec<u8>, keep_alive: bool, idle_timeout_secs: u64) {
        use std::io::Write as _;
        let _ = write!(
            out,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
            self.status,
            reason_phrase(self.status),
            self.content_type,
            self.body.len()
        );
        if keep_alive {
            let _ = write!(
                out,
                "Connection: keep-alive\r\nKeep-Alive: timeout={idle_timeout_secs}\r\n"
            );
        } else {
            out.extend_from_slice(b"Connection: close\r\n");
        }
        for (name, value) in &self.headers {
            let _ = write!(out, "{name}: {value}\r\n");
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(&self.body);
    }

    /// Serializes the response (with `Connection: close`) onto `w` — the
    /// one-shot path used by tests and the connection-cap rejection.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        let mut out = Vec::with_capacity(256 + self.body.len());
        self.serialize_into(&mut out, false, 0);
        w.write_all(&out)?;
        w.flush()
    }
}

/// The reason phrase for the statuses this server emits.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        411 => "Length Required",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Per-connection socket timeouts: a stalled peer cannot pin a handler
/// thread forever.
pub fn configure_stream(stream: &std::net::TcpStream) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.set_write_timeout(Some(Duration::from_secs(30)))?;
    stream.set_nodelay(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    /// Reads one request from `stream`, enforcing `limits` — a blocking
    /// loop around [`parse_buffered`]. Bytes past the first request's
    /// declared length are rejected (this reader does not pipeline).
    fn read_request<S: Read>(stream: &mut S, limits: &Limits) -> Result<Request, HttpError> {
        let mut buf: Vec<u8> = Vec::with_capacity(512);
        let mut chunk = [0u8; 8 * 1024];
        loop {
            match parse_buffered(&buf, limits)? {
                Parsed::Complete { request, consumed } => {
                    if buf.len() > consumed {
                        return Err(HttpError::Malformed(format!(
                            "{} bytes past the declared Content-Length",
                            buf.len() - consumed
                        )));
                    }
                    return Ok(request);
                }
                Parsed::NeedMore => {}
            }
            let read = stream.read(&mut chunk)?;
            if read == 0 {
                if buf.is_empty() {
                    return Err(HttpError::Malformed("empty request".to_string()));
                }
                return Err(truncation_error(&buf));
            }
            buf.extend_from_slice(&chunk[..read]);
        }
    }

    fn parse(raw: &[u8]) -> Result<Request, HttpError> {
        read_request(&mut io::Cursor::new(raw.to_vec()), &Limits::default())
    }

    #[test]
    fn parses_get_with_query() {
        let req =
            parse(b"GET /v1/jobs/3?full=1&x HTTP/1.1\r\nHost: localhost\r\n\r\n").expect("parse");
        assert_eq!(req.method, Method::Get);
        assert_eq!(req.path, "/v1/jobs/3");
        assert_eq!(req.query_value("full"), Some("1"));
        assert_eq!(req.query_value("x"), Some(""));
        assert_eq!(req.header("host"), Some("localhost"));
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_post_with_body() {
        let req =
            parse(b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello").expect("parse");
        assert_eq!(req.method, Method::Post);
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn post_without_length_is_411() {
        let err = parse(b"POST /v1/jobs HTTP/1.1\r\n\r\n").unwrap_err();
        assert_eq!(err.status(), 411);
    }

    #[test]
    fn truncated_body_is_400_with_counts() {
        let err = parse(b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 10\r\n\r\nhel").unwrap_err();
        match err {
            HttpError::TruncatedBody { expected, found } => {
                assert_eq!(expected, 10);
                assert_eq!(found, 3);
            }
            other => panic!("expected TruncatedBody, got {other:?}"),
        }
    }

    #[test]
    fn oversized_declared_body_is_413_before_reading() {
        let limits = Limits {
            max_head_bytes: 1024,
            max_body_bytes: 8,
        };
        // The body bytes are never provided: the declared length alone
        // must trigger the rejection.
        let raw = b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 1000000\r\n\r\n";
        let err = read_request(&mut io::Cursor::new(raw.to_vec()), &limits).unwrap_err();
        assert_eq!(err.status(), 413);
    }

    #[test]
    fn oversized_head_is_431() {
        let limits = Limits {
            max_head_bytes: 64,
            max_body_bytes: 1024,
        };
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        raw.extend_from_slice(format!("X-Junk: {}\r\n\r\n", "a".repeat(200)).as_bytes());
        let err = read_request(&mut io::Cursor::new(raw), &limits).unwrap_err();
        assert_eq!(err.status(), 431);
    }

    #[test]
    fn garbage_request_line_is_400() {
        for raw in [
            b"\x00\x01\x02\x03\r\n\r\n".to_vec(),
            b"GET\r\n\r\n".to_vec(),
            b"GET /x HTTP/9.9\r\n\r\n".to_vec(),
            b"GET relative HTTP/1.1\r\n\r\n".to_vec(),
            b"GET /x HTTP/1.1 extra\r\n\r\n".to_vec(),
        ] {
            let err = parse(&raw).unwrap_err();
            assert_eq!(err.status(), 400, "{raw:?}");
        }
    }

    #[test]
    fn garbage_header_is_400() {
        let err = parse(b"GET / HTTP/1.1\r\nnot a header\r\n\r\n").unwrap_err();
        assert_eq!(err.status(), 400);
        let err = parse(b"GET / HTTP/1.1\r\nContent-Length: lots\r\n\r\n").unwrap_err();
        assert_eq!(err.status(), 400);
    }

    #[test]
    fn unknown_method_is_501() {
        let err = parse(b"DELETE /v1/jobs/1 HTTP/1.1\r\n\r\n").unwrap_err();
        assert_eq!(err.status(), 501);
    }

    #[test]
    fn closed_mid_head_is_400_not_panic() {
        let err = parse(b"GET /v1/jo").unwrap_err();
        assert_eq!(err.status(), 400);
        let err = parse(b"").unwrap_err();
        assert_eq!(err.status(), 400);
    }

    fn feed(buf: &[u8]) -> Result<Parsed, HttpError> {
        parse_buffered(buf, &Limits::default())
    }

    #[test]
    fn incremental_parser_needs_more_then_completes() {
        let raw = b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
        // Every proper prefix asks for more bytes; the full buffer
        // parses and consumes everything.
        for cut in 0..raw.len() {
            match feed(&raw[..cut]).expect("prefix parses") {
                Parsed::NeedMore => {}
                Parsed::Complete { .. } => panic!("prefix of {cut} bytes completed"),
            }
        }
        match feed(raw).expect("parses") {
            Parsed::Complete { request, consumed } => {
                assert_eq!(consumed, raw.len());
                assert_eq!(request.body, b"hello");
            }
            Parsed::NeedMore => panic!("complete request not recognized"),
        }
    }

    #[test]
    fn incremental_parser_pipelines_requests_in_order() {
        let mut buf =
            b"GET /a HTTP/1.1\r\n\r\nPOST /b HTTP/1.1\r\nContent-Length: 3\r\n\r\nxyzGET /c"
                .to_vec();
        let Parsed::Complete { request, consumed } = feed(&buf).expect("first") else {
            panic!("first request incomplete");
        };
        assert_eq!(request.path, "/a");
        buf.drain(..consumed);
        let Parsed::Complete { request, consumed } = feed(&buf).expect("second") else {
            panic!("second request incomplete");
        };
        assert_eq!(request.path, "/b");
        assert_eq!(request.body, b"xyz");
        buf.drain(..consumed);
        // The third request is a bare prefix: more bytes required.
        assert!(matches!(feed(&buf).expect("prefix"), Parsed::NeedMore));
    }

    #[test]
    fn keep_alive_negotiation_follows_version_and_header() {
        let req = parse(b"GET / HTTP/1.1\r\n\r\n").expect("parse");
        assert!(req.wants_keep_alive());
        let req = parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n").expect("parse");
        assert!(!req.wants_keep_alive());
        let req = parse(b"GET / HTTP/1.0\r\n\r\n").expect("parse");
        assert!(!req.wants_keep_alive());
        let req = parse(b"GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n").expect("parse");
        assert!(req.wants_keep_alive());
    }

    #[test]
    fn keep_alive_response_advertises_timeout() {
        let mut out = Vec::new();
        Response::text(200, "ok").serialize_into(&mut out, true, 30);
        let text = String::from_utf8(out).expect("utf8");
        assert!(text.contains("Connection: keep-alive\r\n"), "{text}");
        assert!(text.contains("Keep-Alive: timeout=30\r\n"), "{text}");
        assert!(!text.contains("Connection: close"), "{text}");
    }

    #[test]
    fn response_serializes_with_length_and_close() {
        let mut out = Vec::new();
        Response::text(200, "ok").write_to(&mut out).expect("write");
        let text = String::from_utf8(out).expect("utf8");
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\nok"));
    }

    #[test]
    fn extra_headers_are_emitted_before_the_blank_line() {
        let mut resp = Response::text(200, "ok");
        resp.header("X-Request-Id", "req-7");
        let mut out = Vec::new();
        resp.write_to(&mut out).expect("write");
        let text = String::from_utf8(out).expect("utf8");
        let head_end = text.find("\r\n\r\n").expect("head terminator");
        assert!(text[..head_end].contains("X-Request-Id: req-7"), "{text}");
        assert!(text.ends_with("\r\n\r\nok"));
    }

    #[test]
    fn error_envelope_is_json() {
        let resp = Response::error(404, "no such job");
        assert_eq!(resp.status, 404);
        let json = diffnet_observe::parse_json(std::str::from_utf8(&resp.body).expect("utf8"))
            .expect("json");
        assert_eq!(
            json.get("error").and_then(diffnet_observe::Json::as_str),
            Some("no such job")
        );
    }
}
