//! Hostile and slow clients against the epoll reactor: slowloris heads,
//! split writes, pipelined bursts, oversized pipelined bodies, idle
//! reaping, per-connection throttling. Each test drives raw sockets so
//! the byte-level behavior (response order, close semantics) is pinned,
//! not just the status codes.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use diffnet_observe::Json;
use diffnet_serve::client::read_framed_response;
use diffnet_serve::{Client, ServeConfig, Server, Tuning};

fn temp_config(tag: &str) -> ServeConfig {
    let dir = std::env::temp_dir().join(format!(
        "diffnet-reactor-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    ServeConfig {
        data_dir: dir,
        access_log: false,
        ..ServeConfig::default()
    }
}

fn start(config: &ServeConfig) -> (SocketAddr, std::thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(config).expect("bind");
    let addr = server.addr();
    let handle = std::thread::spawn(move || server.serve_forever());
    (addr, handle)
}

fn shut_down(
    addr: SocketAddr,
    handle: std::thread::JoinHandle<std::io::Result<()>>,
    config: &ServeConfig,
) {
    let client = Client::new(addr);
    client.shutdown().expect("shutdown");
    handle.join().expect("join").expect("serve");
    let _ = std::fs::remove_dir_all(&config.data_dir);
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    stream.set_nodelay(true).expect("nodelay");
    stream
}

/// A deterministic status matrix in the submit wire format.
fn sample_statuses_body(beta: usize, n: usize) -> Vec<u8> {
    let mut out = String::new();
    let mut state = 0x9e3779b97f4a7c15u64;
    for l in 0..beta {
        let mut row = vec![false; n];
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let start = (state >> 33) as usize % n;
        for k in 0..1 + (l % (n / 2)) {
            row[(start + k) % n] = true;
        }
        let cells: Vec<&str> = row.iter().map(|&b| if b { "1" } else { "0" }).collect();
        out.push_str(&cells.join(" "));
        out.push('\n');
    }
    out.into_bytes()
}

#[test]
fn slowloris_head_gets_408_within_the_read_deadline() {
    let mut config = temp_config("slowloris");
    config.tuning = Tuning {
        request_read_timeout: Duration::from_millis(400),
        ..Tuning::default()
    };
    let (addr, handle) = start(&config);

    // Drip a request head one byte at a time, never finishing it.
    let mut stream = connect(addr);
    let started = Instant::now();
    for b in b"GET /v1/healthz HT" {
        stream.write_all(&[*b]).expect("write byte");
        std::thread::sleep(Duration::from_millis(30));
    }
    // Stop feeding: the partial request passes its deadline.
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let text = String::from_utf8(raw).expect("utf8");
    assert!(text.starts_with("HTTP/1.1 408"), "{text}");
    assert!(text.contains("Connection: close"), "{text}");
    // The 408 arrived from the deadline sweep, not from a 30s socket
    // timeout somewhere.
    assert!(
        started.elapsed() < Duration::from_secs(8),
        "took {:?}",
        started.elapsed()
    );

    // The daemon is unaffected.
    assert!(Client::new(addr).healthz().expect("healthz"));
    shut_down(addr, handle, &config);
}

#[test]
fn request_split_across_many_writes_still_parses() {
    let config = temp_config("split");
    let (addr, handle) = start(&config);

    let raw = b"POST /v1/jobs?thread=oops HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody";
    let mut stream = connect(addr);
    // Several readiness events per request: the incremental parser must
    // resume exactly where it left off, including mid-header and
    // mid-body splits.
    for chunk in raw.chunks(7) {
        stream.write_all(chunk).expect("write chunk");
        stream.flush().expect("flush");
        std::thread::sleep(Duration::from_millis(15));
    }
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read");
    let text = String::from_utf8(response).expect("utf8");
    // The unknown-option 422 proves the full request (path, query, body)
    // was assembled correctly from the fragments.
    assert!(text.starts_with("HTTP/1.1 422"), "{text}");
    assert!(text.contains("thread"), "{text}");

    shut_down(addr, handle, &config);
}

#[test]
fn pipelined_burst_is_answered_in_order_on_one_connection() {
    let config = temp_config("pipeline");
    let (addr, handle) = start(&config);

    const N: usize = 20;
    let mut burst = Vec::new();
    for i in 0..N {
        burst.extend_from_slice(
            format!("GET /v1/healthz HTTP/1.1\r\nX-Request-Id: rid-{i}\r\n\r\n").as_bytes(),
        );
    }
    let mut stream = connect(addr);
    stream.write_all(&burst).expect("write burst");
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read all");
    let text = String::from_utf8(raw).expect("utf8");

    assert_eq!(
        text.matches("HTTP/1.1 200").count(),
        N,
        "every pipelined request answered:\n{text}"
    );
    // Echoed request ids appear in submission order: responses are
    // serialized per-slot, never interleaved or reordered.
    let positions: Vec<usize> = (0..N)
        .map(|i| {
            text.find(&format!("X-Request-Id: rid-{i}\r\n"))
                .unwrap_or_else(|| panic!("rid-{i} missing:\n{text}"))
        })
        .collect();
    for w in positions.windows(2) {
        assert!(w[0] < w[1], "responses out of order");
    }

    shut_down(addr, handle, &config);
}

#[test]
fn oversized_pipelined_body_gets_413_and_the_connection_closes() {
    let mut config = temp_config("oversize");
    config.limits = diffnet_serve::Limits {
        max_head_bytes: 1024,
        max_body_bytes: 64,
    };
    let (addr, handle) = start(&config);

    // A good request, then an oversized declared body, then another good
    // request that must never be answered: framing after the 413 is
    // unrecoverable, so the server closes instead of guessing.
    let mut burst = Vec::new();
    burst.extend_from_slice(b"GET /v1/healthz HTTP/1.1\r\n\r\n");
    burst.extend_from_slice(b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 100000\r\n\r\n");
    burst.extend_from_slice(b"GET /v1/healthz HTTP/1.1\r\n\r\n");
    let mut stream = connect(addr);
    stream.write_all(&burst).expect("write burst");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read all");
    let text = String::from_utf8(raw).expect("utf8");

    assert_eq!(text.matches("HTTP/1.1 200").count(), 1, "{text}");
    assert_eq!(text.matches("HTTP/1.1 413").count(), 1, "{text}");
    let p200 = text.find("HTTP/1.1 200").expect("200");
    let p413 = text.find("HTTP/1.1 413").expect("413");
    assert!(p200 < p413, "pipelined order preserved:\n{text}");
    // read_to_end returning proves the server closed after the 413; the
    // third request died with the connection.
    assert_eq!(text.matches("HTTP/1.1").count(), 2, "{text}");

    shut_down(addr, handle, &config);
}

#[test]
fn per_connection_inflight_budget_throttles_with_429() {
    let mut config = temp_config("throttle");
    config.http_workers = 1;
    config.tuning = Tuning {
        max_inflight_per_conn: 2,
        ..Tuning::default()
    };
    let (addr, handle) = start(&config);

    // Four pipelined submits arrive in one readiness batch. The first
    // two enter the worker pipeline; the rest exceed the per-connection
    // budget before any completion can land (completions apply only
    // after the parse loop), so the 429s are deterministic.
    let body = sample_statuses_body(10, 6);
    let one = format!(
        "POST /v1/jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    let mut burst = Vec::new();
    for _ in 0..4 {
        burst.extend_from_slice(one.as_bytes());
        burst.extend_from_slice(&body);
    }
    let mut stream = connect(addr);
    stream.write_all(&burst).expect("write burst");
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read all");
    let text = String::from_utf8(raw).expect("utf8");

    assert_eq!(text.matches("HTTP/1.1 201").count(), 2, "{text}");
    assert_eq!(text.matches("HTTP/1.1 429").count(), 2, "{text}");
    assert!(text.contains("Retry-After: 1"), "{text}");

    shut_down(addr, handle, &config);
}

#[test]
fn idle_timeout_reaps_connections_but_not_in_flight_jobs() {
    let mut config = temp_config("idle");
    config.tuning = Tuning {
        idle_timeout: Duration::from_millis(400),
        ..Tuning::default()
    };
    let (addr, handle) = start(&config);
    let client = Client::new(addr);

    // Submit a job, then let a second connection sit idle past the
    // timeout while the job runs.
    let (status, submitted) = client
        .post_json("/v1/jobs", &sample_statuses_body(40, 8))
        .expect("submit");
    assert_eq!(status, 201, "{}", submitted.to_pretty());
    let id = submitted.get("id").and_then(Json::as_f64).expect("id") as u64;

    let mut idle = connect(addr);
    idle.write_all(b"GET /v1/healthz HTTP/1.1\r\n\r\n")
        .expect("warm up");
    let mut first = [0u8; 4096];
    let n = idle.read(&mut first).expect("first response");
    assert!(n > 0);

    // The server advertised its idle timeout on the keep-alive response.
    let head = String::from_utf8_lossy(&first[..n]).to_string();
    assert!(head.contains("Keep-Alive: timeout="), "{head}");

    // EOF (read returns 0) proves the reactor reaped the idle
    // connection rather than leaving it to accumulate.
    let mut rest = Vec::new();
    idle.read_to_end(&mut rest).expect("EOF after idle reap");
    assert!(rest.is_empty(), "unexpected bytes: {rest:?}");

    // The job the other connection submitted is untouched by the reap.
    let done = client
        .wait_for_job(id, Duration::from_secs(30))
        .expect("job completes");
    assert_eq!(done.get("state").and_then(Json::as_str), Some("done"));

    shut_down(addr, handle, &config);
}

#[test]
fn keep_alive_client_reuses_one_connection_across_requests() {
    let config = temp_config("keepalive");
    let (addr, handle) = start(&config);
    let client = Client::new(addr);

    for _ in 0..10 {
        assert!(client.healthz().expect("healthz"));
    }
    let text = client.metrics().expect("metrics");
    let opened = metric_value(&text, "diffnet_http_connections_opened");
    let reuses = metric_value(&text, "diffnet_http_keepalive_reuses");
    assert_eq!(opened, 1.0, "one pooled connection, opened once:\n{text}");
    assert!(reuses >= 10.0, "reuses {reuses}:\n{text}");

    shut_down(addr, handle, &config);
}

#[test]
fn http10_and_connection_close_are_honored() {
    let config = temp_config("close");
    let (addr, handle) = start(&config);

    // HTTP/1.0 without keep-alive: answered and closed.
    let mut stream = connect(addr);
    stream
        .write_all(b"GET /v1/healthz HTTP/1.0\r\n\r\n")
        .expect("write");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read");
    let text = String::from_utf8(raw).expect("utf8");
    assert!(text.starts_with("HTTP/1.1 200"), "{text}");
    assert!(text.contains("Connection: close"), "{text}");

    // Explicit Connection: close on HTTP/1.1, with a pipelined request
    // behind it that must not be processed.
    let mut stream = connect(addr);
    stream
        .write_all(
            b"GET /v1/healthz HTTP/1.1\r\nConnection: close\r\n\r\nGET /v1/healthz HTTP/1.1\r\n\r\n",
        )
        .expect("write");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read");
    let text = String::from_utf8(raw).expect("utf8");
    assert_eq!(text.matches("HTTP/1.1 200").count(), 1, "{text}");
    assert!(text.contains("Connection: close"), "{text}");

    shut_down(addr, handle, &config);
}

#[test]
fn graceful_shutdown_drains_a_pending_response() {
    let config = temp_config("drain");
    let (addr, handle) = start(&config);

    // Pipeline a request *behind* the shutdown request on the same
    // connection: the drain must still flush both answers in order.
    let mut stream = connect(addr);
    stream
        .write_all(
            b"POST /v1/shutdown HTTP/1.1\r\nContent-Length: 0\r\n\r\nGET /v1/healthz HTTP/1.1\r\n\r\n",
        )
        .expect("write");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read");
    let text = String::from_utf8(raw).expect("utf8");
    assert!(text.starts_with("HTTP/1.1 200"), "{text}");
    assert!(text.contains("shutting down"), "{text}");

    handle.join().expect("join").expect("serve");
    let _ = std::fs::remove_dir_all(&config.data_dir);
}

/// Like [`metric_value`], but a counter never incremented (and so not
/// exported) reads as zero.
fn counter(text: &str, name: &str) -> f64 {
    text.lines()
        .find(|l| l.starts_with(name) && l.as_bytes().get(name.len()).copied() == Some(b' '))
        .map_or(0.0, |_| metric_value(text, name))
}

/// Blocks until the reactor has parked `n` long-polls in total: an
/// ordering handshake, so a test acts only once its request is parked.
fn await_parked(client: &Client, n: f64) {
    for _ in 0..10_000 {
        let text = client.metrics().expect("metrics");
        if counter(&text, "diffnet_http_long_polls_parked") >= n {
            return;
        }
    }
    panic!("the reactor never parked {n} long-polls");
}

/// Extracts the first sample value for `name` from an exposition.
fn metric_value(text: &str, name: &str) -> f64 {
    text.lines()
        .find(|l| l.starts_with(name) && l.as_bytes().get(name.len()).copied() == Some(b' '))
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("metric {name} not found in:\n{text}"))
}

/// Submits `body` and returns the new job's id.
fn submit(client: &Client, body: &[u8]) -> u64 {
    let (status, submitted) = client.post_json("/v1/jobs", body).expect("submit");
    assert_eq!(status, 201, "{}", submitted.to_pretty());
    submitted.get("id").and_then(Json::as_f64).expect("id") as u64
}

/// A job that runs for seconds in a debug build, far longer than any test
/// below holds it: tests park on it while it is still running, and
/// shutdown interrupts it. (About 1.4 s on a 2-CPU host; an optimized
/// build finishes it sooner, which these tests do not yet allow for.)
fn long_job_body() -> Vec<u8> {
    sample_statuses_body(4000, 400)
}

fn state_of(doc: &Json) -> &str {
    doc.get("state").and_then(Json::as_str).unwrap_or("")
}

#[test]
fn waited_job_costs_at_most_two_status_requests() {
    let config = temp_config("longpoll-count");
    let (addr, handle) = start(&config);
    let client = Client::new(addr);

    // A job that runs for many poll periods of a sleeping client: the
    // long-poll is answered when it settles, so the wait is one request
    // (a second one only after a wait runs out).
    let id = submit(&client, &sample_statuses_body(800, 100));
    let done = client
        .wait_for_job(id, Duration::from_secs(120))
        .expect("job completes");
    assert_eq!(state_of(&done), "done");
    let text = client.metrics().expect("metrics");
    let polls = metric_value(&text, "diffnet_http_request_seconds_job_status_count");
    assert!(polls <= 2.0, "{polls} status requests for one job:\n{text}");
    // A parked poll was answered by the job settling, not by its wait
    // running out.
    assert_eq!(
        counter(&text, "diffnet_http_long_polls_expired"),
        0.0,
        "{text}"
    );
    // The stage histograms attribute the job's time on the server.
    assert_eq!(
        metric_value(&text, "diffnet_job_queue_wait_seconds_count"),
        1.0
    );
    assert_eq!(metric_value(&text, "diffnet_job_run_seconds_count"), 1.0);
    diffnet_observe::lint_exposition(&text).expect("exposition lints clean");

    shut_down(addr, handle, &config);
}

#[test]
fn long_poll_expiry_returns_the_current_nonterminal_state() {
    let config = temp_config("longpoll-expiry");
    let (addr, handle) = start(&config);
    let client = Client::new(addr);

    let id = submit(&client, &long_job_body());
    for wait in ["1", "0"] {
        let (status, doc) = client
            .get_json(&format!("/v1/jobs/{id}?wait_ms={wait}"))
            .expect("long-poll");
        assert_eq!(status, 200, "{}", doc.to_pretty());
        assert!(
            matches!(state_of(&doc), "queued" | "running"),
            "{}",
            doc.to_pretty()
        );
        assert_eq!(doc.get("id").and_then(Json::as_f64), Some(id as f64));
    }
    // `wait_ms=1` parked and expired; `wait_ms=0` answered inline.
    let text = client.metrics().expect("metrics");
    assert_eq!(
        counter(&text, "diffnet_http_long_polls_parked"),
        1.0,
        "{text}"
    );
    assert_eq!(
        counter(&text, "diffnet_http_long_polls_expired"),
        1.0,
        "{text}"
    );

    shut_down(addr, handle, &config);
}

#[test]
fn malformed_wait_ms_is_422() {
    let config = temp_config("longpoll-bad");
    let (addr, handle) = start(&config);
    let client = Client::new(addr);

    let id = submit(&client, &sample_statuses_body(40, 8));
    for bad in ["abc", "-1", "", "1.5", "99999999999999999999999"] {
        let (status, body) = client
            .get(&format!("/v1/jobs/{id}?wait_ms={bad}"))
            .expect("long-poll");
        let body = String::from_utf8(body).expect("utf8");
        assert_eq!(status, 422, "wait_ms={bad:?}: {body}");
        assert!(body.contains("wait_ms"), "{body}");
    }
    // Unknown jobs stay 404, whatever the wait.
    let (status, _) = client.get("/v1/jobs/999?wait_ms=10").expect("missing");
    assert_eq!(status, 404);

    shut_down(addr, handle, &config);
}

#[test]
fn request_pipelined_behind_a_parked_long_poll_is_answered_after_it() {
    let config = temp_config("longpoll-pipeline");
    let (addr, handle) = start(&config);
    let client = Client::new(addr);

    let id = submit(&client, &long_job_body());
    // The long-poll parks (its job runs for seconds) until its wait
    // expires; the healthz behind it is answered inline at once but must
    // not overtake it on the wire.
    let mut stream = connect(addr);
    stream
        .write_all(
            format!(
                "GET /v1/jobs/{id}?wait_ms=300 HTTP/1.1\r\nX-Request-Id: rid-wait\r\n\r\n\
                 GET /v1/healthz HTTP/1.1\r\nX-Request-Id: rid-health\r\n\
                 Connection: close\r\n\r\n"
            )
            .as_bytes(),
        )
        .expect("write pipeline");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read both answers");
    let text = String::from_utf8(raw).expect("utf8");
    assert_eq!(text.matches("HTTP/1.1 200").count(), 2, "{text}");
    let wait = text
        .find("X-Request-Id: rid-wait\r\n")
        .expect("long-poll answer");
    let health = text
        .find("X-Request-Id: rid-health\r\n")
        .expect("healthz answer");
    assert!(wait < health, "pipelined order broken:\n{text}");
    assert!(
        text.contains(r#""state": "queued""#) || text.contains(r#""state": "running""#),
        "{text}"
    );

    shut_down(addr, handle, &config);
}

#[test]
fn closing_a_parked_connection_leaves_job_and_reactor_healthy() {
    let config = temp_config("longpoll-close");
    let (addr, handle) = start(&config);
    let client = Client::new(addr);

    let id = submit(&client, &long_job_body());
    let mut stream = connect(addr);
    stream
        .write_all(format!("GET /v1/jobs/{id}?wait_ms=30000 HTTP/1.1\r\n\r\n").as_bytes())
        .expect("write long-poll");
    await_parked(&client, 1.0);
    drop(stream);

    // The reactor keeps serving, and the job keeps running: closing a
    // connection never touches the job it was waiting on.
    for _ in 0..5 {
        assert!(client.healthz().expect("healthz after close"));
    }
    let (status, doc) = client.get_json(&format!("/v1/jobs/{id}")).expect("status");
    assert_eq!(status, 200);
    assert!(
        matches!(state_of(&doc), "queued" | "running"),
        "{}",
        doc.to_pretty()
    );

    shut_down(addr, handle, &config);
}

#[test]
fn shutdown_answers_parked_long_polls_instead_of_waiting_out_the_drain() {
    let mut config = temp_config("longpoll-drain");
    // A drain deadline far beyond the test: a parked request that were
    // held to it would be force-closed without an answer.
    config.tuning = Tuning {
        drain_timeout: Duration::from_secs(120),
        ..Tuning::default()
    };
    let (addr, handle) = start(&config);
    let client = Client::new(addr);

    let id = submit(&client, &long_job_body());
    let mut stream = connect(addr);
    stream
        .write_all(format!("GET /v1/jobs/{id}?wait_ms=30000 HTTP/1.1\r\n\r\n").as_bytes())
        .expect("write long-poll");
    await_parked(&client, 1.0);
    client.shutdown().expect("shutdown");

    // The drain answers the parked request with the job's state as of
    // now and then closes the connection.
    let (status, body, keep_alive) = read_framed_response(&mut stream).expect("drained answer");
    let text = String::from_utf8(body).expect("utf8");
    assert_eq!(status, 200, "{text}");
    let doc = diffnet_observe::parse_json(&text).expect("JSON");
    assert!(matches!(state_of(&doc), "queued" | "running"), "{text}");
    assert!(!keep_alive, "a drained answer announces the close");
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).expect("EOF after the drain");
    assert!(rest.is_empty());

    handle.join().expect("join").expect("serve");
    let _ = std::fs::remove_dir_all(&config.data_dir);
}

#[test]
fn wait_for_job_honours_its_deadline() {
    let config = temp_config("longpoll-deadline");
    let (addr, handle) = start(&config);
    let client = Client::new(addr);

    let id = submit(&client, &long_job_body());
    let deadline = Duration::from_millis(300);
    let started = Instant::now();
    let err = client
        .wait_for_job(id, deadline)
        .expect_err("the job outlives the deadline");
    let waited = started.elapsed();
    assert!(err.to_string().contains("still"), "{err}");
    // Long-polls are bounded by the time left, and the deadline is
    // measured on the clock rather than summed from poll periods, so the
    // call neither gives up early nor keeps waiting on a parked request.
    assert!(waited >= deadline, "gave up after {waited:?}");

    shut_down(addr, handle, &config);
}
