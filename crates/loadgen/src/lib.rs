//! `diffnet-loadgen` — a traffic harness for the diffnet daemon.
//!
//! Drives the HTTP API from many concurrent connections in either
//! closed-loop (each connection fires its next request as soon as the
//! previous one answers — measures capacity) or open-loop mode (requests
//! are launched on a fixed global schedule regardless of completions —
//! measures behavior at a target arrival rate, exposing queueing).
//! Workload mixes cover the three traffic shapes the daemon serves:
//! cheap inline probes (`healthz`), the full inference round-trip
//! (`submit` → wait → `edges`), and incremental re-estimation
//! (`append` cascades to a standing job).
//!
//! Latency is recorded into [`diffnet_observe::DurationHistogram`]s
//! (per-worker, merged at the end), so `p50`/`p95`/`p99` resolve at
//! microsecond granularity; responses are accounted by class — `2xx`,
//! throttles (`429`), shed load (`503`), other `4xx`/`5xx`, timeouts,
//! transport errors — because under deliberate overload an error *is* a
//! result, not a failure of the harness. A warmup window (discarded) and
//! repeat windows (all reported) follow the same run-twice-report-both
//! convention as the bench harness.
//!
//! The crate is a library (used by `diffnet loadgen` and the
//! `serve_loopback` bench) with no dependencies beyond the workspace.

#![warn(missing_docs)]

use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use diffnet_observe::{DurationHistogram, Json};
use diffnet_serve::{Client, Method};

/// Which request shape a worker fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `GET /v1/healthz` — the cheapest inline route; measures the
    /// reactor's request-handling floor.
    Healthz,
    /// `POST /v1/jobs` with a small status matrix, long-poll to a terminal
    /// state, then `GET /v1/jobs/{id}/edges` — the full inference
    /// round-trip, measured as one operation.
    Submit,
    /// `POST /v1/jobs/{id}/cascades` against a standing job created
    /// during setup — incremental re-estimation traffic.
    Append,
}

impl Workload {
    /// Parses a workload name (`healthz`, `submit`, `append`).
    pub fn parse(name: &str) -> Result<Workload, String> {
        match name {
            "healthz" => Ok(Workload::Healthz),
            "submit" => Ok(Workload::Submit),
            "append" => Ok(Workload::Append),
            other => Err(format!(
                "unknown workload {other:?} (expected healthz, submit, or append)"
            )),
        }
    }
}

/// A weighted workload mix, e.g. `healthz=9,submit=1`.
#[derive(Clone, Debug)]
pub struct Mix {
    entries: Vec<(Workload, u32)>,
    /// The flattened weighted rotation each worker walks (offset by its
    /// index), so the mix is deterministic without randomness.
    pattern: Vec<Workload>,
}

impl Mix {
    /// A single-workload mix.
    pub fn single(w: Workload) -> Mix {
        Mix::new(vec![(w, 1)]).expect("single-entry mix")
    }

    /// Builds a mix from `(workload, weight)` pairs.
    pub fn new(entries: Vec<(Workload, u32)>) -> Result<Mix, String> {
        if entries.is_empty() || entries.iter().all(|&(_, w)| w == 0) {
            return Err("workload mix has no positive weights".to_string());
        }
        let mut pattern = Vec::new();
        for &(w, weight) in &entries {
            for _ in 0..weight {
                pattern.push(w);
            }
        }
        Ok(Mix { entries, pattern })
    }

    /// Parses `name[=weight][,name[=weight]]…`, e.g. `healthz` or
    /// `healthz=9,submit=1`.
    pub fn parse(spec: &str) -> Result<Mix, String> {
        let mut entries = Vec::new();
        for part in spec.split(',').filter(|p| !p.is_empty()) {
            let (name, weight) = match part.split_once('=') {
                Some((n, w)) => (
                    n,
                    w.parse::<u32>()
                        .map_err(|_| format!("bad weight in {part:?}"))?,
                ),
                None => (part, 1),
            };
            entries.push((Workload::parse(name)?, weight));
        }
        Mix::new(entries)
    }

    /// Whether any entry uses `workload`.
    pub fn uses(&self, workload: Workload) -> bool {
        self.entries.iter().any(|&(w, wt)| w == workload && wt > 0)
    }

    fn pick(&self, step: usize) -> Workload {
        self.pattern[step % self.pattern.len()]
    }

    fn spec_string(&self) -> String {
        let parts: Vec<String> = self
            .entries
            .iter()
            .map(|(w, weight)| format!("{}={weight}", format!("{w:?}").to_lowercase()))
            .collect();
        parts.join(",")
    }
}

/// How the generator is wired up.
#[derive(Clone, Debug)]
pub struct LoadgenConfig {
    /// The daemon to drive.
    pub addr: SocketAddr,
    /// Concurrent connections (one worker thread each).
    pub connections: usize,
    /// Length of each measured window.
    pub duration: Duration,
    /// Discarded warmup window before the first measurement (zero to
    /// skip).
    pub warmup: Duration,
    /// Measured windows to run; every window is reported.
    pub repeats: usize,
    /// Reuse each worker's connection across requests; `false` dials a
    /// fresh connection per request (the pre-reactor behavior).
    pub keep_alive: bool,
    /// `Some(rps)` switches to open-loop mode at that global arrival
    /// rate, spread evenly over the workers; `None` is closed-loop.
    pub target_rps: Option<f64>,
    /// The workload mix.
    pub mix: Mix,
    /// Per-request socket timeout.
    pub timeout: Duration,
}

impl LoadgenConfig {
    /// A closed-loop healthz config against `addr`; callers override
    /// fields from there.
    pub fn new(addr: SocketAddr) -> LoadgenConfig {
        LoadgenConfig {
            addr,
            connections: 4,
            duration: Duration::from_secs(5),
            warmup: Duration::from_secs(1),
            repeats: 1,
            keep_alive: true,
            target_rps: None,
            mix: Mix::single(Workload::Healthz),
            timeout: Duration::from_secs(30),
        }
    }
}

/// Counts and latency for one measured window.
#[derive(Clone, Debug, Default)]
pub struct LoadReport {
    /// Operations completed (any outcome).
    pub requests: u64,
    /// Operations whose final status was 2xx.
    pub ok: u64,
    /// `429 Too Many Requests` (per-connection throttle).
    pub status_429: u64,
    /// `503 Service Unavailable` (queue full / capacity).
    pub status_503: u64,
    /// Other `4xx` responses.
    pub other_4xx: u64,
    /// Other `5xx` responses.
    pub other_5xx: u64,
    /// Requests that hit the client socket timeout.
    pub timeouts: u64,
    /// Other transport errors (refused, reset, protocol).
    pub io_errors: u64,
    /// Wall time of the window.
    pub elapsed: Duration,
    /// Merged per-operation latency across all workers.
    pub hist: DurationHistogram,
}

impl LoadReport {
    /// Successful operations per second over the window.
    pub fn ok_rps(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.ok as f64 / self.elapsed.as_secs_f64()
    }

    /// All completed operations per second over the window.
    pub fn total_rps(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.requests as f64 / self.elapsed.as_secs_f64()
    }

    fn absorb(&mut self, t: &LoadReport) {
        self.requests += t.requests;
        self.ok += t.ok;
        self.status_429 += t.status_429;
        self.status_503 += t.status_503;
        self.other_4xx += t.other_4xx;
        self.other_5xx += t.other_5xx;
        self.timeouts += t.timeouts;
        self.io_errors += t.io_errors;
        self.hist.merge(&t.hist);
    }

    /// The window as a JSON object (the `diffnet loadgen` output shape).
    pub fn to_json(&self) -> Json {
        let mut j = Json::object();
        j.push("requests", self.requests);
        j.push("ok", self.ok);
        j.push("rps", round3(self.ok_rps()));
        j.push("total_rps", round3(self.total_rps()));
        j.push("elapsed_s", round3(self.elapsed.as_secs_f64()));
        j.push("latency_p50_s", self.hist.quantile(0.50));
        j.push("latency_p95_s", self.hist.quantile(0.95));
        j.push("latency_p99_s", self.hist.quantile(0.99));
        let mut errors = Json::object();
        errors.push("status_429", self.status_429);
        errors.push("status_503", self.status_503);
        errors.push("other_4xx", self.other_4xx);
        errors.push("other_5xx", self.other_5xx);
        errors.push("timeouts", self.timeouts);
        errors.push("io_errors", self.io_errors);
        j.push("errors", errors);
        j
    }
}

/// All measured windows of one run.
#[derive(Clone, Debug)]
pub struct LoadSummary {
    /// One report per repeat, in order.
    pub reports: Vec<LoadReport>,
}

impl LoadSummary {
    /// The repeat with the highest successful throughput — the number a
    /// capacity claim should quote (the slowest window includes noise the
    /// fastest one proves is not inherent).
    pub fn best(&self) -> &LoadReport {
        self.reports
            .iter()
            .max_by(|a, b| a.ok_rps().total_cmp(&b.ok_rps()))
            .expect("at least one repeat")
    }

    /// The whole run as JSON: config echo, per-repeat windows, and the
    /// best window hoisted to the top level.
    pub fn to_json(&self, config: &LoadgenConfig) -> Json {
        let mut j = Json::object();
        let mut cfg = Json::object();
        cfg.push("addr", config.addr.to_string());
        cfg.push("connections", config.connections as u64);
        cfg.push("duration_s", round3(config.duration.as_secs_f64()));
        cfg.push("warmup_s", round3(config.warmup.as_secs_f64()));
        cfg.push("repeats", config.repeats.max(1) as u64);
        cfg.push("keep_alive", config.keep_alive);
        match config.target_rps {
            Some(r) => {
                cfg.push("target_rps", r);
            }
            None => {
                cfg.push("mode", "closed-loop");
            }
        }
        cfg.push("mix", config.mix.spec_string());
        j.push("config", cfg);
        j.push("best", self.best().to_json());
        let windows: Vec<Json> = self.reports.iter().map(LoadReport::to_json).collect();
        j.push("repeats", Json::Arr(windows));
        j
    }
}

fn round3(v: f64) -> f64 {
    (v * 1000.0).round() / 1000.0
}

/// Parses a human duration: `5s`, `750ms`, `2m`, or bare seconds
/// (`0.5`).
pub fn parse_duration(raw: &str) -> Result<Duration, String> {
    let raw = raw.trim();
    let (digits, scale) = if let Some(d) = raw.strip_suffix("ms") {
        (d, 0.001)
    } else if let Some(d) = raw.strip_suffix('s') {
        (d, 1.0)
    } else if let Some(d) = raw.strip_suffix('m') {
        (d, 60.0)
    } else {
        (raw, 1.0)
    };
    let value: f64 = digits
        .trim()
        .parse()
        .map_err(|_| format!("bad duration {raw:?} (expected e.g. 5s, 750ms, 2m)"))?;
    if !value.is_finite() || value < 0.0 {
        return Err(format!("bad duration {raw:?}"));
    }
    Ok(Duration::from_secs_f64(value * scale))
}

/// A deterministic status matrix (cascades over a ring) in the submit
/// wire format — the same generator the serve tests use.
pub fn sample_statuses_body(beta: usize, n: usize) -> Vec<u8> {
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

/// Per-run fixtures: the standing job the `append` workload targets.
struct Setup {
    append_job: Option<u64>,
}

fn prepare(config: &LoadgenConfig) -> io::Result<Setup> {
    let client = Client::with_timeout(config.addr, config.timeout);
    if !client.healthz()? {
        return Err(io::Error::other("server failed healthz before the run"));
    }
    let append_job = if config.mix.uses(Workload::Append) {
        let (status, doc) = client.post_json("/v1/jobs", &sample_statuses_body(10, 6))?;
        if status != 201 {
            return Err(io::Error::other(format!(
                "append-target submit returned {status}: {}",
                doc.to_pretty().trim()
            )));
        }
        let id = doc
            .get("id")
            .and_then(Json::as_f64)
            .ok_or_else(|| io::Error::other("submit response has no id"))? as u64;
        client.wait_for_job(id, Duration::from_secs(60))?;
        Some(id)
    } else {
        None
    };
    Ok(Setup { append_job })
}

/// Runs the configured load: setup, warmup (discarded), then
/// `repeats` measured windows.
pub fn run(config: &LoadgenConfig) -> io::Result<LoadSummary> {
    if config.connections == 0 {
        return Err(io::Error::other("connections must be at least 1"));
    }
    let setup = prepare(config)?;
    if !config.warmup.is_zero() {
        run_window(config, &setup, config.warmup)?;
    }
    let mut reports = Vec::new();
    for _ in 0..config.repeats.max(1) {
        reports.push(run_window(config, &setup, config.duration)?);
    }
    Ok(LoadSummary { reports })
}

fn run_window(config: &LoadgenConfig, setup: &Setup, window: Duration) -> io::Result<LoadReport> {
    let stop = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(config.connections + 1));
    let tallies: Arc<Mutex<Vec<LoadReport>>> = Arc::new(Mutex::new(Vec::new()));
    // Open loop: each worker fires every `connections / rps` seconds,
    // with start offsets staggering the fleet across one period.
    let period = config
        .target_rps
        .map(|rps| Duration::from_secs_f64(config.connections as f64 / rps.max(0.001)));
    let mut handles = Vec::new();
    for worker in 0..config.connections {
        let cfg = config.clone();
        let stop = Arc::clone(&stop);
        let barrier = Arc::clone(&barrier);
        let tallies = Arc::clone(&tallies);
        let append_job = setup.append_job;
        handles.push(std::thread::spawn(move || {
            let client = Client::with_timeout(cfg.addr, cfg.timeout);
            let mut tally = LoadReport::default();
            barrier.wait();
            let start = Instant::now();
            let mut next = period.map(|p| {
                start
                    + Duration::from_secs_f64(
                        p.as_secs_f64() * worker as f64 / cfg.connections as f64,
                    )
            });
            let mut step = worker;
            while !stop.load(Ordering::Relaxed) {
                if let (Some(p), Some(n)) = (period, next.as_mut()) {
                    let now = Instant::now();
                    if now < *n {
                        std::thread::sleep((*n - now).min(Duration::from_millis(50)));
                        continue;
                    }
                    *n += p;
                }
                let workload = cfg.mix.pick(step);
                step += 1;
                let began = Instant::now();
                let outcome = run_op(&cfg, &client, workload, append_job);
                tally.hist.record(began.elapsed().as_secs_f64());
                tally.requests += 1;
                match outcome {
                    Outcome::Status(s) if (200..300).contains(&s) => tally.ok += 1,
                    Outcome::Status(429) => tally.status_429 += 1,
                    Outcome::Status(503) => tally.status_503 += 1,
                    Outcome::Status(s) if s >= 500 => tally.other_5xx += 1,
                    Outcome::Status(_) => tally.other_4xx += 1,
                    Outcome::TimedOut => tally.timeouts += 1,
                    Outcome::IoError => tally.io_errors += 1,
                }
            }
            tally.elapsed = start.elapsed();
            tallies.lock().expect("tally lock").push(tally);
        }));
    }
    barrier.wait();
    let began = Instant::now();
    std::thread::sleep(window);
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().map_err(|_| io::Error::other("worker panicked"))?;
    }
    let mut merged = LoadReport {
        elapsed: began.elapsed(),
        ..LoadReport::default()
    };
    for t in tallies.lock().expect("tally lock").iter() {
        merged.absorb(t);
    }
    Ok(merged)
}

enum Outcome {
    Status(u16),
    TimedOut,
    IoError,
}

fn classify(err: &io::Error) -> Outcome {
    match err.kind() {
        io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock => Outcome::TimedOut,
        _ => Outcome::IoError,
    }
}

fn run_op(
    config: &LoadgenConfig,
    pooled: &Client,
    workload: Workload,
    append_job: Option<u64>,
) -> Outcome {
    // keep_alive=false measures the reconnect-per-request protocol: a
    // fresh client per operation dials a fresh connection.
    let fresh;
    let client = if config.keep_alive {
        pooled
    } else {
        fresh = Client::with_timeout(config.addr, config.timeout);
        &fresh
    };
    match workload {
        Workload::Healthz => match client.get("/v1/healthz") {
            Ok((status, _)) => Outcome::Status(status),
            Err(e) => classify(&e),
        },
        Workload::Submit => {
            let (status, doc) = match client.post_json("/v1/jobs", &sample_statuses_body(10, 6)) {
                Ok(r) => r,
                Err(e) => return classify(&e),
            };
            if status != 201 {
                return Outcome::Status(status);
            }
            let Some(id) = doc.get("id").and_then(Json::as_f64).map(|v| v as u64) else {
                return Outcome::IoError;
            };
            if let Err(e) = client.wait_for_job(id, config.timeout) {
                return classify(&e);
            }
            match client.get(&format!("/v1/jobs/{id}/edges")) {
                Ok((status, _)) => Outcome::Status(status),
                Err(e) => classify(&e),
            }
        }
        Workload::Append => {
            let Some(id) = append_job else {
                return Outcome::IoError;
            };
            match client.request(
                Method::Post,
                &format!("/v1/jobs/{id}/cascades"),
                &sample_statuses_body(5, 6),
            ) {
                Ok((status, _)) => Outcome::Status(status),
                Err(e) => classify(&e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_duration_accepts_units_and_bare_seconds() {
        assert_eq!(parse_duration("5s").unwrap(), Duration::from_secs(5));
        assert_eq!(parse_duration("750ms").unwrap(), Duration::from_millis(750));
        assert_eq!(parse_duration("2m").unwrap(), Duration::from_secs(120));
        assert_eq!(parse_duration("0.5").unwrap(), Duration::from_millis(500));
        assert!(parse_duration("five").is_err());
        assert!(parse_duration("-1s").is_err());
    }

    #[test]
    fn mix_parses_weights_and_rotates_deterministically() {
        let mix = Mix::parse("healthz=3,submit=1").expect("mix");
        let picks: Vec<Workload> = (0..8).map(|i| mix.pick(i)).collect();
        assert_eq!(picks.iter().filter(|&&w| w == Workload::Healthz).count(), 6);
        assert_eq!(picks.iter().filter(|&&w| w == Workload::Submit).count(), 2);
        assert!(mix.uses(Workload::Submit));
        assert!(!mix.uses(Workload::Append));
        assert!(Mix::parse("bogus").is_err());
        assert!(Mix::parse("healthz=0").is_err());
    }

    #[test]
    fn report_json_carries_error_classes_and_percentiles() {
        let mut r = LoadReport {
            requests: 10,
            ok: 8,
            status_429: 1,
            status_503: 1,
            elapsed: Duration::from_secs(2),
            ..LoadReport::default()
        };
        for _ in 0..10 {
            r.hist.record(0.002);
        }
        let j = r.to_json();
        assert_eq!(j.get("requests").and_then(Json::as_f64), Some(10.0));
        assert_eq!(j.get("rps").and_then(Json::as_f64), Some(4.0));
        let errors = j.get("errors").expect("errors");
        assert_eq!(errors.get("status_429").and_then(Json::as_f64), Some(1.0));
        assert_eq!(errors.get("status_503").and_then(Json::as_f64), Some(1.0));
        let p50 = j.get("latency_p50_s").and_then(Json::as_f64).expect("p50");
        assert!((0.002..0.0026).contains(&p50), "{p50}");
    }

    #[test]
    fn closed_loop_healthz_run_against_a_live_server() {
        let dir = std::env::temp_dir().join(format!("diffnet-loadgen-e2e-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let server = diffnet_serve::Server::bind(&diffnet_serve::ServeConfig {
            data_dir: dir.clone(),
            access_log: false,
            ..diffnet_serve::ServeConfig::default()
        })
        .expect("bind");
        let addr = server.addr();
        let handle = std::thread::spawn(move || server.serve_forever());

        let config = LoadgenConfig {
            connections: 2,
            duration: Duration::from_millis(300),
            warmup: Duration::from_millis(100),
            ..LoadgenConfig::new(addr)
        };
        let summary = run(&config).expect("load run");
        let best = summary.best();
        assert!(best.ok > 0, "no successful requests");
        assert_eq!(best.io_errors, 0, "{best:?}");
        assert!(
            best.hist.quantile(0.5) > 0.0,
            "degenerate latency histogram"
        );
        let json = summary.to_json(&config);
        assert!(json.get("best").is_some() && json.get("config").is_some());

        Client::new(addr).shutdown().expect("shutdown");
        handle.join().expect("join").expect("serve");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
