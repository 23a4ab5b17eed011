//! A tiny blocking HTTP client for the daemon, used by the CLI's
//! `submit`/`job` subcommands, the load generator, the integration
//! tests, and the CI smoke job — so exercising the server needs no
//! external tooling at all.
//!
//! The client keeps one connection alive and reuses it across requests
//! (responses are `Content-Length`-framed, so reuse needs no `close`
//! delimiter): the long-polls of [`Client::wait_for_job`] ride a single
//! connection instead of reconnecting per poll. The server's
//! `Connection: close` answers — and idle reaping, which it advertises
//! via `Keep-Alive: timeout=N` — are honored by dropping the pooled
//! connection and dialing a fresh one on the next request. A failed
//! pooled roundtrip is transparently retried on a fresh dial only when
//! that is provably safe: the request died while being written (never
//! processed), or the method is an idempotent `GET`. A `POST` that
//! failed after it was fully sent surfaces the error instead of
//! risking a duplicate submit or append. Socket timeouts ensure a
//! wedged server fails a test instead of hanging it.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use diffnet_observe::{parse_json, Json};

use crate::http::Method;
use crate::server::MAX_JOB_WAIT;

/// A client bound to one server address, holding at most one pooled
/// keep-alive connection (shared across clones).
#[derive(Clone, Debug)]
pub struct Client {
    addr: SocketAddr,
    timeout: Duration,
    conn: Arc<Mutex<Option<TcpStream>>>,
}

impl Client {
    /// A client with the default 30 s socket timeouts.
    pub fn new(addr: SocketAddr) -> Client {
        Client::with_timeout(addr, Duration::from_secs(30))
    }

    /// Overrides the connect/read/write timeout.
    pub fn with_timeout(addr: SocketAddr, timeout: Duration) -> Client {
        Client {
            addr,
            timeout,
            conn: Arc::new(Mutex::new(None)),
        }
    }

    fn connect(&self) -> io::Result<TcpStream> {
        let stream = TcpStream::connect_timeout(&self.addr, self.timeout)?;
        stream.set_read_timeout(Some(self.timeout))?;
        stream.set_write_timeout(Some(self.timeout))?;
        stream.set_nodelay(true)?;
        Ok(stream)
    }

    /// One request/response roundtrip; returns the status and raw body.
    ///
    /// Reuses the pooled connection when one is alive. A pooled
    /// connection the server has since reaped (idle timeout, restart)
    /// usually fails while *writing* the request — the server cannot
    /// have processed it, so any method is safe to retry once on a
    /// fresh connection. If the failure comes *after* the request was
    /// fully written (read timeout, connection dying mid-response), the
    /// server may already have executed it, so only idempotent `GET`s
    /// are retried; for `POST` the error surfaces instead of risking a
    /// silent duplicate submit/append.
    pub fn request(&self, method: Method, path: &str, body: &[u8]) -> io::Result<(u16, Vec<u8>)> {
        let mut pooled = self.conn.lock().expect("client connection lock");
        if let Some(mut stream) = pooled.take() {
            match self.roundtrip(&mut stream, method, path, body) {
                Ok((status, body, keep)) => {
                    if keep {
                        *pooled = Some(stream);
                    }
                    return Ok((status, body));
                }
                Err(e) if e.request_sent && method != Method::Get => return Err(e.error),
                // Provably-unprocessed (or idempotent) failure on a
                // stale pooled connection: fall through to a fresh dial.
                Err(_) => {}
            }
        }
        let mut stream = self.connect()?;
        let (status, response, keep) = self
            .roundtrip(&mut stream, method, path, body)
            .map_err(|e| e.error)?;
        if keep {
            *pooled = Some(stream);
        }
        Ok((status, response))
    }

    fn roundtrip(
        &self,
        stream: &mut TcpStream,
        method: Method,
        path: &str,
        body: &[u8],
    ) -> Result<(u16, Vec<u8>, bool), RoundtripError> {
        let sent = write!(
            stream,
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Length: {}\r\n\r\n",
            self.addr,
            body.len()
        )
        .and_then(|()| stream.write_all(body))
        .and_then(|()| stream.flush());
        if let Err(error) = sent {
            // The request never left intact; a `Content-Length` underrun
            // is a typed 400 on the server, never an executed request.
            return Err(RoundtripError {
                request_sent: false,
                error,
            });
        }
        read_framed_response(stream).map_err(|error| RoundtripError {
            request_sent: true,
            error,
        })
    }

    /// `GET path`.
    pub fn get(&self, path: &str) -> io::Result<(u16, Vec<u8>)> {
        self.request(Method::Get, path, b"")
    }

    /// `GET path`, expecting a JSON body.
    pub fn get_json(&self, path: &str) -> io::Result<(u16, Json)> {
        let (status, body) = self.get(path)?;
        Ok((status, to_json(&body)?))
    }

    /// `POST path` with a body, expecting a JSON reply.
    pub fn post_json(&self, path: &str, body: &[u8]) -> io::Result<(u16, Json)> {
        let (status, body) = self.request(Method::Post, path, body)?;
        Ok((status, to_json(&body)?))
    }

    /// `GET /v1/healthz`, as a boolean.
    pub fn healthz(&self) -> io::Result<bool> {
        Ok(self.get("/v1/healthz")?.0 == 200)
    }

    /// `GET /v1/metrics`, as the exposition text.
    pub fn metrics(&self) -> io::Result<String> {
        let (status, body) = self.get("/v1/metrics")?;
        if status != 200 {
            return Err(io::Error::other(format!("metrics returned {status}")));
        }
        String::from_utf8(body).map_err(|_| io::Error::other("metrics body is not UTF-8"))
    }

    /// `POST /v1/shutdown`; succeeds once the server acknowledged.
    pub fn shutdown(&self) -> io::Result<()> {
        let (status, _) = self.request(Method::Post, "/v1/shutdown", b"")?;
        if status == 200 {
            Ok(())
        } else {
            Err(io::Error::other(format!("shutdown returned {status}")))
        }
    }

    /// Long-polls `GET /v1/jobs/{id}?wait_ms=` until the state is
    /// terminal or `deadline` (measured from the call) passes; returns the
    /// final status document. The server answers each poll as soon as
    /// the job settles, so a finished job costs one request. Each poll
    /// waits at most the time left, and at most half the socket timeout,
    /// so the read never times out on a server that is merely waiting.
    pub fn wait_for_job(&self, id: u64, deadline: Duration) -> io::Result<Json> {
        let started = Instant::now();
        loop {
            let wait = deadline
                .saturating_sub(started.elapsed())
                .min(self.timeout / 2)
                .min(MAX_JOB_WAIT);
            let path = format!("/v1/jobs/{id}?wait_ms={}", wait.as_millis());
            let (status, json) = self.get_json(&path)?;
            if status != 200 {
                return Err(io::Error::other(format!(
                    "job {id} status returned {status}: {}",
                    json.to_pretty().trim()
                )));
            }
            let state = json.get("state").and_then(Json::as_str).unwrap_or("");
            if matches!(state, "done" | "failed" | "partial") {
                return Ok(json);
            }
            let waited = started.elapsed();
            if waited >= deadline {
                return Err(io::Error::other(format!(
                    "job {id} still {state:?} after {waited:?}"
                )));
            }
        }
    }
}

/// A failed roundtrip, tagged with whether the request bytes had been
/// fully written (and flushed) before the error hit — the line between
/// "provably not processed, safe to retry" and "may have executed".
struct RoundtripError {
    request_sent: bool,
    error: io::Error,
}

fn to_json(body: &[u8]) -> io::Result<Json> {
    let text =
        std::str::from_utf8(body).map_err(|_| io::Error::other("response body is not UTF-8"))?;
    parse_json(text).map_err(|e| io::Error::other(format!("bad JSON response: {e}")))
}

/// Reads exactly one `Content-Length`-framed response from `stream`.
/// Returns `(status, body, keep_alive)` — `keep_alive` is whether the
/// connection may be reused afterwards. A response without a
/// `Content-Length` is read to EOF and marks the connection unusable.
pub fn read_framed_response<S: Read>(stream: &mut S) -> io::Result<(u16, Vec<u8>, bool)> {
    let mut raw: Vec<u8> = Vec::with_capacity(512);
    let mut chunk = [0u8; 8 * 1024];
    let head_end = loop {
        if let Some(pos) = raw.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::other("connection closed mid response head"));
        }
        raw.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&raw[..head_end])
        .map_err(|_| io::Error::other("response head is not UTF-8"))?;
    let status_line = head.lines().next().unwrap_or("");
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| io::Error::other(format!("bad status line {status_line:?}")))?;
    let mut content_length: Option<usize> = None;
    let mut keep_alive = true; // HTTP/1.1 default
    for line in head.lines().skip(1) {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().ok();
            } else if name.eq_ignore_ascii_case("connection") {
                keep_alive = value.trim().eq_ignore_ascii_case("keep-alive");
            }
        }
    }
    let mut body = raw[head_end..].to_vec();
    match content_length {
        Some(len) => {
            while body.len() < len {
                let n = stream.read(&mut chunk)?;
                if n == 0 {
                    return Err(io::Error::other(format!(
                        "connection closed mid response body ({} of {len} bytes)",
                        body.len()
                    )));
                }
                body.extend_from_slice(&chunk[..n]);
            }
            body.truncate(len);
            Ok((status, body, keep_alive))
        }
        None => {
            // Unframed response: delimited by EOF, so the connection is
            // spent either way.
            stream.read_to_end(&mut body)?;
            Ok((status, body, false))
        }
    }
}

/// Sends raw bytes and returns the raw response as text — the hostile
/// input tests use this to speak deliberately broken HTTP.
pub fn raw_roundtrip(addr: SocketAddr, bytes: &[u8]) -> io::Result<String> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(10))?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.set_write_timeout(Some(Duration::from_secs(10)))?;
    stream.write_all(bytes)?;
    stream.flush()?;
    // Half-close the write side so a server waiting for more body bytes
    // sees EOF (the truncated-upload case) instead of timing out.
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    String::from_utf8(raw).map_err(|_| io::Error::other("response is not UTF-8"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Splits a raw HTTP response into status code and body.
    fn parse_response(raw: &[u8]) -> io::Result<(u16, Vec<u8>)> {
        let (status, body, _) = read_framed_response(&mut io::Cursor::new(raw.to_vec()))?;
        Ok((status, body))
    }

    #[test]
    fn parse_response_splits_status_and_body() {
        let (status, body) =
            parse_response(b"HTTP/1.1 404 Not Found\r\nContent-Length: 2\r\n\r\nno").expect("ok");
        assert_eq!(status, 404);
        assert_eq!(body, b"no");
    }

    #[test]
    fn parse_response_rejects_garbage() {
        assert!(parse_response(b"not http at all").is_err());
        assert!(parse_response(b"HTTP/1.1 banana\r\n\r\n").is_err());
    }

    #[test]
    fn framed_reader_stops_at_content_length_and_reports_keep_alive() {
        // Two pipelined responses in one stream: the reader must consume
        // exactly the first frame so the second stays for the next call.
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\nConnection: keep-alive\r\n\r\nabc\
                    HTTP/1.1 204 No Content\r\nContent-Length: 0\r\n\r\n";
        let mut cursor = io::Cursor::new(raw.to_vec());
        let (status, body, keep) = read_framed_response(&mut cursor).expect("first frame");
        assert_eq!(
            (status, body.as_slice(), keep),
            (200, b"abc".as_slice(), true)
        );
    }

    #[test]
    fn framed_reader_honors_connection_close() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\nok";
        let (_, _, keep) = read_framed_response(&mut io::Cursor::new(raw.to_vec())).expect("frame");
        assert!(!keep);
    }

    /// Reads one request (head, then `Content-Length` body bytes) off a
    /// raw socket — just enough HTTP for the fake servers below.
    fn read_request(stream: &mut TcpStream) -> Vec<u8> {
        let mut raw = Vec::new();
        let mut byte = [0u8; 1];
        while !raw.ends_with(b"\r\n\r\n") {
            match stream.read(&mut byte) {
                Ok(0) | Err(_) => return raw,
                Ok(_) => raw.push(byte[0]),
            }
        }
        let head = String::from_utf8_lossy(&raw).to_string();
        let len: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0);
        let mut body = vec![0u8; len];
        let _ = stream.read_exact(&mut body);
        raw.extend_from_slice(&body);
        raw
    }

    fn keep_alive_ok(stream: &mut TcpStream) {
        stream
            .write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\nConnection: keep-alive\r\n\r\n")
            .expect("respond");
    }

    #[test]
    fn pooled_post_is_not_retried_after_the_request_was_sent() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            // Warm the pool with one keep-alive answer, then swallow the
            // POST — fully read, never answered — and close.
            let (mut stream, _) = listener.accept().expect("accept");
            read_request(&mut stream);
            keep_alive_ok(&mut stream);
            read_request(&mut stream);
            drop(stream);
            // A transparent retry would dial again; report whether one
            // arrived within the grace window.
            listener.set_nonblocking(true).expect("nonblocking");
            std::thread::sleep(Duration::from_millis(300));
            listener.accept().is_ok()
        });

        let client = Client::with_timeout(addr, Duration::from_secs(5));
        let (status, _) = client.get("/warmup").expect("pooled warmup");
        assert_eq!(status, 200);
        // The POST was fully written before the connection died, so the
        // server may have executed it: the failure must surface.
        let err = client
            .request(Method::Post, "/v1/jobs", b"body")
            .expect_err("post after send must not be retried");
        assert!(!err.to_string().is_empty());
        let retried = server.join().expect("server thread");
        assert!(!retried, "POST was silently retried on a fresh dial");
    }

    #[test]
    fn pooled_get_is_retried_on_a_fresh_connection() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            // Answer one request keep-alive, then reap the pooled
            // connection (as the idle timeout would); the retry dial
            // gets a working answer.
            let (mut stream, _) = listener.accept().expect("accept");
            read_request(&mut stream);
            keep_alive_ok(&mut stream);
            drop(stream);
            let (mut stream, _) = listener.accept().expect("retry accept");
            read_request(&mut stream);
            keep_alive_ok(&mut stream);
        });

        let client = Client::with_timeout(addr, Duration::from_secs(5));
        assert_eq!(client.get("/warmup").expect("pooled warmup").0, 200);
        // Idempotent GET on the reaped pooled connection: retried
        // transparently, whichever phase the stale connection failed in.
        assert_eq!(client.get("/again").expect("retried get").0, 200);
        server.join().expect("server thread");
    }
}
