//! The daemon workloads: a live `diffnet serve` process driven over
//! HTTP through `diffnet_serve::Client`.
//!
//! * `daemon_jobs`: healthz probes and small jobs, each at a fixed rate
//!   (open loop, one connection each).
//! * `daemon_append`: a closed loop of cascade appends to a deep standing
//!   job, beside status reads of another job at a fixed rate.
//!
//! Open-loop requests are timed from the moment they were due, so a
//! stall also delays every request scheduled behind it.

use std::collections::BTreeMap;
use std::fs::File;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use diffnet_graph::DiGraph;
use diffnet_observe::Json;
use diffnet_serve::Client;
use diffnet_simulate::StatusMatrix;
use diffnet_tends::{Tends, TendsConfig};

use crate::inputs;
use crate::report::{candidate_stage_s, counters_json, GateStore, Outcome};
use crate::stats::{median, percentile, tail};
use crate::sys::{self, Usage};
use crate::Ctx;

const THREADS: usize = 2;
/// Set-ups per run: daemon_jobs' is cheap (~25 ms) and noisy, so it is
/// repeated more often than daemon_append's (~2.5 s).
const JOBS_SETUP_REPS: usize = 7;
const APPEND_SETUP_REPS: usize = 3;
const CLIENT_TIMEOUT: Duration = Duration::from_secs(60);
const JOB_DEADLINE: Duration = Duration::from_secs(120);

/// `daemon_jobs`: rates, and the pool of distinct small inputs. At
/// n = 300 a job's run (35–65 ms here, checkpoint writes included)
/// straddled the client's first 50 ms poll, so submit→edges jumped
/// between ~55 ms and ~105 ms from run to run. At n = 150 a job runs in
/// ~15–20 ms, so every job lands in the first poll and the latency reads
/// the poll floor itself.
const PROBE_RATE: f64 = 1000.0;
const JOB_RATE: f64 = 5.0;
const POOL: usize = 16;
const POOL_N: usize = 150;
const POOL_BETA: usize = 150;

/// `daemon_append`: the standing job and its append batches.
const APPEND_N: usize = 1000;
const APPEND_BASE_BETA: usize = 20_000;
const APPEND_BATCH: usize = 200;
const APPEND_BATCHES: usize = 24;
const MIN_APPENDS: usize = 2;
const READ_RATE: f64 = 100.0;

/// Counters that must repeat exactly for one job input.
const EXACT_COUNTERS: [&str; 8] = [
    "correlation_pairs",
    "combinations_scored",
    "score_cache_hits",
    "score_cache_misses",
    "correlation_tiles",
    "pairs_above_tau",
    "dirty_nodes",
    "nodes_reused",
];

/// A `diffnet serve` child process with its default configuration; its
/// access log goes to a file in the run directory.
struct Daemon {
    child: Option<Child>,
    addr: SocketAddr,
    log: PathBuf,
}

impl Daemon {
    fn start(ctx: &Ctx, tag: &str) -> Result<Daemon, String> {
        let dir = ctx.run_dir.join(tag);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let log = dir.join("access.log");
        let port_file = dir.join("port");
        let stderr = File::create(&log).map_err(|e| format!("create access log: {e}"))?;
        let child = Command::new(&ctx.diffnet)
            .arg("serve")
            .args(["--addr", "127.0.0.1:0", "--data-dir"])
            .arg(dir.join("data"))
            .arg("--port-file")
            .arg(&port_file)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("start {}: {e}", ctx.diffnet.display()))?;
        let mut daemon = Daemon {
            child: Some(child),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            log,
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Some(addr) = std::fs::read_to_string(&port_file)
                .ok()
                .and_then(|s| s.trim().parse().ok())
            {
                daemon.addr = addr;
                break;
            }
            let exited = daemon
                .child
                .as_mut()
                .and_then(|c| c.try_wait().ok().flatten());
            if let Some(status) = exited {
                return Err(format!("daemon exited during start-up: {status}"));
            }
            if Instant::now() > deadline {
                return Err("daemon did not write its port file within 30 s".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        match daemon.client().healthz() {
            Ok(true) => Ok(daemon),
            other => Err(format!("daemon failed its first healthz: {other:?}")),
        }
    }

    fn client(&self) -> Client {
        Client::with_timeout(self.addr, CLIENT_TIMEOUT)
    }

    fn log_bytes(&self) -> u64 {
        std::fs::metadata(&self.log).map_or(0, |m| m.len())
    }

    /// Graceful shutdown; returns the process's resource usage.
    fn stop(mut self) -> Result<Usage, String> {
        let mut child = self.child.take().expect("a running daemon");
        let _ = self.client().shutdown();
        match sys::reap(&mut child, Duration::from_secs(60)) {
            Ok((Some(0), usage)) => Ok(usage),
            Ok((code, _)) => Err(format!("daemon exited with {code:?}")),
            Err(e) => Err(format!("daemon shutdown: {e}")),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// One scrape of `/v1/metrics`: plain samples by name, and histogram
/// buckets as `(upper bound, cumulative count)`.
#[derive(Default)]
struct Scrape {
    values: BTreeMap<String, f64>,
    buckets: BTreeMap<String, Vec<(f64, f64)>>,
}

impl Scrape {
    fn take(client: &Client) -> Result<Scrape, String> {
        let text = client
            .metrics()
            .map_err(|e| format!("scrape /v1/metrics: {e}"))?;
        let mut s = Scrape::default();
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let Some((key, value)) = line.rsplit_once(' ') else {
                continue;
            };
            let Ok(value) = value.parse::<f64>() else {
                continue;
            };
            if let Some((name, le)) = key.split_once("_bucket{le=\"") {
                let le = le.trim_end_matches("\"}");
                let le = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse().unwrap_or(f64::NAN)
                };
                s.buckets
                    .entry(name.to_string())
                    .or_default()
                    .push((le, value));
            } else {
                s.values.insert(key.to_string(), value);
            }
        }
        Ok(s)
    }

    fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }
}

/// `after − before` for a counter.
fn delta(before: &Scrape, after: &Scrape, name: &str) -> f64 {
    after.get(name) - before.get(name)
}

/// The `q` quantile of the requests a histogram gained between two
/// scrapes, as the upper bound of the bucket it falls in; `None` when the
/// histogram gained nothing.
fn window_quantile(before: &Scrape, after: &Scrape, name: &str, q: f64) -> Option<f64> {
    let b = after.buckets.get(name)?;
    let a = before.buckets.get(name);
    let cum = |i: usize, le: f64| {
        let prior = a.and_then(|a| {
            a.get(i)
                .filter(|x| x.0 == le || (x.0.is_infinite() && le.is_infinite()))
        });
        b[i].1 - prior.map_or(0.0, |x| x.1)
    };
    let total = cum(b.len() - 1, b[b.len() - 1].0);
    if total <= 0.0 {
        return None;
    }
    (0..b.len())
        .find(|&i| cum(i, b[i].0) >= q * total)
        .map(|i| b[i].0)
}

/// What an open loop saw.
#[derive(Default)]
struct LoopResult {
    /// Completion minus due time, for operations that succeeded.
    latencies: Vec<f64>,
    /// Send minus due time: how far behind schedule the generator ran.
    lags: Vec<f64>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl LoopResult {
    fn record(&mut self, due: Instant, sent: Instant, result: Result<(), String>) {
        self.attempted += 1;
        self.lags
            .push(sent.saturating_duration_since(due).as_secs_f64());
        match result {
            Ok(()) => self.latencies.push(due.elapsed().as_secs_f64()),
            Err(e) => {
                self.failed += 1;
                if self.errors.len() < 5 {
                    self.errors.push(e);
                }
            }
        }
    }

    fn merge_into(&self, out: &mut Outcome, what: &str) {
        out.attempted += self.attempted;
        out.failed += self.failed;
        for e in &self.errors {
            out.failures.push(format!("{what}: {e}"));
        }
    }
}

/// Sends `op(k)` at `start + k / rate` until `end` (or until `stop` is
/// set), each timed from its due time.
fn open_loop(
    rate: f64,
    start: Instant,
    end: Instant,
    stop: &AtomicBool,
    mut op: impl FnMut(u64) -> Result<(), String>,
) -> LoopResult {
    let mut r = LoopResult::default();
    for k in 0u64.. {
        let due = start + Duration::from_secs_f64(k as f64 / rate);
        if due >= end || stop.load(Ordering::Relaxed) {
            break;
        }
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        let result = op(k);
        r.record(due, sent, result);
    }
    r
}

fn parse_id(j: &Json) -> Result<u64, String> {
    j.get("id")
        .and_then(Json::as_f64)
        .map(|v| v as u64)
        .ok_or_else(|| format!("no job id in {}", j.to_compact()))
}

fn submit(client: &Client, body: &[u8]) -> Result<u64, String> {
    let (code, j) = client
        .post_json(&format!("/v1/jobs?threads={THREADS}"), body)
        .map_err(|e| format!("submit: {e}"))?;
    if code != 201 {
        return Err(format!("submit returned {code}: {}", j.to_compact()));
    }
    parse_id(&j)
}

/// Waits for job `id` to finish (at `revision`, when given).
fn wait_done(client: &Client, id: u64, revision: Option<u64>) -> Result<(), String> {
    let j = client
        .wait_for_job(id, JOB_DEADLINE)
        .map_err(|e| format!("wait for job {id}: {e}"))?;
    let state = j.get("state").and_then(Json::as_str).unwrap_or("");
    if state != "done" {
        return Err(format!("job {id} ended {state:?}: {}", j.to_compact()));
    }
    let got = j.get("revision").and_then(Json::as_f64).map(|r| r as u64);
    if revision.is_some() && got != revision {
        return Err(format!(
            "job {id} finished revision {got:?}, expected {revision:?}"
        ));
    }
    Ok(())
}

fn fetch_edges(client: &Client, id: u64) -> Result<Vec<u8>, String> {
    match client.get(&format!("/v1/jobs/{id}/edges")) {
        Ok((200, body)) => Ok(body),
        Ok((code, _)) => Err(format!("edges of job {id} returned {code}")),
        Err(e) => Err(format!("edges of job {id}: {e}")),
    }
}

/// Phase wall times and counters from a job's report.
struct JobReport {
    phases: BTreeMap<String, f64>,
    counters: BTreeMap<String, u64>,
}

impl JobReport {
    fn fetch(client: &Client, id: u64) -> Result<JobReport, String> {
        let (code, j) = client
            .get_json(&format!("/v1/jobs/{id}/report"))
            .map_err(|e| format!("report of job {id}: {e}"))?;
        if code != 200 {
            return Err(format!("report of job {id} returned {code}"));
        }
        let obj = |j: Option<&Json>| -> Vec<(String, f64)> {
            j.and_then(Json::as_obj)
                .map(|o| {
                    o.iter()
                        .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                        .collect()
                })
                .unwrap_or_default()
        };
        Ok(JobReport {
            phases: obj(j.get("runtime").and_then(|r| r.get("phase_wall_seconds")))
                .into_iter()
                .collect(),
            counters: obj(j.get("counters"))
                .into_iter()
                .map(|(k, v)| (k, v as u64))
                .collect(),
        })
    }

    fn run_s(&self) -> f64 {
        self.phases.values().sum()
    }
}

/// Median over `reports` of phase `name`; `None` when no report has it.
fn phase_median(reports: &[JobReport], name: &str) -> Option<f64> {
    median(
        &reports
            .iter()
            .filter_map(|r| r.phases.get(name).copied())
            .collect::<Vec<_>>(),
    )
}

/// The library's edge list for `m`, as the daemon should serve it.
fn library_edges(m: &StatusMatrix) -> Result<(DiGraph, Vec<u8>), String> {
    let result = Tends::with_config(TendsConfig {
        threads: THREADS,
        ..Default::default()
    })
    .reconstruct(m)
    .map_err(|e| format!("library reconstruction: {e}"))?;
    let mut bytes = Vec::new();
    diffnet_graph::io::write_edge_list(&result.graph, &mut bytes)
        .expect("writing to a Vec cannot fail");
    Ok((result.graph, bytes))
}

fn f_score(truth: &DiGraph, inferred: &DiGraph) -> f64 {
    diffnet_metrics::EdgeSetComparison::against_truth(truth, inferred).f_score()
}

/// Repeats `setup` `reps` times, stopping every daemon but the last;
/// returns the last result and the median set-up time.
fn repeated_setup<T>(
    out: &mut Outcome,
    reps: usize,
    mut setup: impl FnMut() -> Result<(Daemon, T), String>,
) -> Result<(Daemon, T), String> {
    let mut times = Vec::new();
    let mut last = None;
    for rep in 0..reps {
        let t = Instant::now();
        let (daemon, value) = setup()?;
        times.push(t.elapsed().as_secs_f64());
        if rep + 1 < reps {
            daemon.stop()?;
        } else {
            last = Some((daemon, value));
        }
    }
    out.set(
        "setup_s",
        median(&times).expect("set-up reps"),
        format!("median of {reps} set-ups (inputs, daemon start, base jobs)"),
    );
    out.line(format!("e2e setup_s samples = {times:?}"));
    Ok(last.expect("at least one set-up rep"))
}

/// Server-side metrics over the measured window.
fn server_layers(out: &mut Outcome, d0: &Scrape, d1: &Scrape, log_bytes: f64) {
    let requests = delta(d0, d1, "diffnet_http_requests");
    let src = "/v1/metrics delta over the window";
    out.set(
        "serve.reactor.wakeups_per_request",
        delta(d0, d1, "diffnet_reactor_wakeups") / requests,
        src,
    );
    out.set(
        "serve.http.keepalive_reuse_ratio",
        delta(d0, d1, "diffnet_http_keepalive_reuses") / requests,
        src,
    );
    out.set_opt(
        "serve.http.healthz_server_p50_s",
        window_quantile(d0, d1, "diffnet_http_request_seconds_healthz", 0.5),
        "/v1/metrics healthz histogram delta, bucket upper bound",
    );
    out.set_opt(
        "serve.http.job_status_server_p99_s",
        window_quantile(d0, d1, "diffnet_http_request_seconds_job_status", 0.99),
        "/v1/metrics job_status histogram delta, bucket upper bound",
    );
    let cpu = delta(d0, d1, "diffnet_process_user_cpu_seconds")
        + delta(d0, d1, "diffnet_process_system_cpu_seconds");
    out.set("serve.process.cpu_s_per_request", cpu / requests, src);
    out.set(
        "serve.process.peak_rss_bytes",
        d1.get("diffnet_process_peak_rss_bytes"),
        "/v1/metrics gauge process_peak_rss_bytes",
    );
    let rejected = [
        "diffnet_http_throttled_429",
        "diffnet_http_rejected_busy",
        "diffnet_http_rejected_capacity",
    ]
    .iter()
    .map(|n| delta(d0, d1, n))
    .sum::<f64>();
    out.set(
        "serve.http.rejected",
        rejected,
        "/v1/metrics 429 + 503 counters delta",
    );
    out.set(
        "observe.access_log_bytes_per_request",
        log_bytes / requests,
        "access-log file growth / request count",
    );
}

fn latency_lines(out: &mut Outcome, name: &str, xs: &[f64]) {
    if let Some(m) = median(xs) {
        out.line(format!(
            "e2e {name}_p50_s = {m} s (median of {} samples)",
            xs.len()
        ));
    }
    match tail(xs) {
        Some(t) => out.line(format!(
            "e2e {name}_tail_s = {} s (p{} of {} samples)",
            t.value, t.percentile, t.samples
        )),
        None => out.line(format!(
            "e2e {name}_tail_s unavailable: {} samples < 20",
            xs.len()
        )),
    }
}

fn lag_metric(out: &mut Outcome, loops: &[&LoopResult]) {
    let lags: Vec<f64> = loops.iter().flat_map(|l| l.lags.iter().copied()).collect();
    if let Some(p) = percentile(&lags, 99.0) {
        out.set(
            "driver.lag_p99_s",
            p,
            format!("p99 of send − due over {} open-loop sends", lags.len()),
        );
        out.line(format!(
            "generator lag_p99_s = {p} s over {} sends",
            lags.len()
        ));
    }
}

/// One small job through the client, timed from `due`.
struct JobSample {
    id: u64,
    input: usize,
    submit_s: f64,
    wait_s: f64,
    edges_s: f64,
}

pub fn run_jobs(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (daemon, (truths, mats, bodies)) = repeated_setup(&mut out, JOBS_SETUP_REPS, || {
        let mut truths = Vec::new();
        let mut mats = Vec::new();
        let mut bodies = Vec::new();
        for i in 0..POOL {
            let (g, m) = inputs::lfr_statuses(
                POOL_N,
                POOL_BETA,
                inputs::sub_seed(ctx.seed, 100 + i as u64),
            );
            bodies.push(inputs::to_bytes(&m));
            truths.push(g);
            mats.push(m);
        }
        Ok((Daemon::start(ctx, "daemon")?, (truths, mats, bodies)))
    })?;

    // Expected outputs from the library, outside the timed set-up.
    let mut expected = Vec::new();
    let mut f = Vec::new();
    for (m, truth) in mats.iter().zip(&truths) {
        let (g, bytes) = library_edges(m)?;
        f.push(f_score(truth, &g));
        expected.push(bytes);
    }
    out.set(
        "f_score",
        f.iter().sum::<f64>() / f.len() as f64,
        format!("mean F-score over the {POOL} pool inputs (served edges are gated equal to these)"),
    );

    // Warm-up: one job and one probe before the window.
    let client = daemon.client();
    let id = submit(&client, &bodies[0])?;
    wait_done(&client, id, None)?;
    out.gate(fetch_edges(&client, id)? == expected[0], || {
        "warm-up job edges differ from the library's".into()
    });
    client.healthz().map_err(|e| format!("healthz: {e}"))?;

    let before = Scrape::take(&client)?;
    let log0 = daemon.log_bytes();
    let tracer = &ctx.tracer;
    let start = Instant::now() + Duration::from_millis(10);
    let end = start + Duration::from_secs_f64(ctx.seconds);
    let stop = AtomicBool::new(false);
    let mut samples: Vec<JobSample> = Vec::new();
    let (probes, jobs) = std::thread::scope(|s| {
        let probes = s.spawn(|| {
            let probe_client = daemon.client();
            open_loop(PROBE_RATE, start, end, &stop, |_| {
                let op = tracer.next_id();
                let _span = tracer.span("serve.client.healthz", op, None);
                match probe_client.get("/v1/healthz") {
                    Ok((200, _)) => Ok(()),
                    Ok((code, _)) => Err(format!("healthz returned {code}")),
                    Err(e) => Err(format!("healthz: {e}")),
                }
            })
        });
        let job_client = daemon.client();
        let jobs = open_loop(JOB_RATE, start, end, &stop, |k| {
            let input = k as usize % POOL;
            let op = tracer.next_id();
            let root = tracer.span("daemon.job", op, None);
            let t0 = Instant::now();
            let id = {
                let _s = tracer.span("serve.client.submit", op, root.id());
                submit(&job_client, &bodies[input])?
            };
            let t1 = Instant::now();
            {
                let _s = tracer.span("serve.client.wait", op, root.id());
                wait_done(&job_client, id, None)?;
            }
            let t2 = Instant::now();
            let edges = {
                let _s = tracer.span("serve.client.edges", op, root.id());
                fetch_edges(&job_client, id)?
            };
            let t3 = Instant::now();
            samples.push(JobSample {
                id,
                input,
                submit_s: (t1 - t0).as_secs_f64(),
                wait_s: (t2 - t1).as_secs_f64(),
                edges_s: (t3 - t2).as_secs_f64(),
            });
            if edges != expected[input] {
                return Err(format!(
                    "job {id} edges differ from the library's for input {input}"
                ));
            }
            Ok(())
        });
        stop.store(true, Ordering::Relaxed);
        (probes.join().expect("probe thread"), jobs)
    });
    let after = Scrape::take(&client)?;
    let log_bytes = daemon.log_bytes() - log0;
    probes.merge_into(&mut out, "probe");
    jobs.merge_into(&mut out, "job");

    // Reports, outside the window: run time and the exact-count gate.
    let mut store = GateStore::open(ctx.state_file());
    let mut by_input: BTreeMap<usize, Json> = BTreeMap::new();
    let mut run_s = Vec::new();
    let mut residual_s = Vec::new();
    let mut reports = Vec::new();
    for s in &samples {
        let r = JobReport::fetch(&client, s.id)?;
        let counters = counters_json(&r.counters, &EXACT_COUNTERS);
        let first = by_input.entry(s.input).or_insert_with(|| counters.clone());
        out.gate(first.to_compact() == counters.to_compact(), || {
            format!(
                "job {} counters differ from another job on input {}",
                s.id, s.input
            )
        });
        run_s.push(r.run_s());
        residual_s.push(s.wait_s - r.run_s());
        reports.push(r);
    }
    for (input, counters) in by_input {
        store.exact(&mut out, &format!("job_input{input}_counters"), counters);
    }
    store.save().map_err(|e| format!("save gate state: {e}"))?;

    let job_latency = &jobs.latencies;
    let p50 = median(job_latency).ok_or("no job completed in the window")?;
    out.set(
        "op_p50_s",
        p50,
        format!(
            "job_p50_s: median submit→edges of {} jobs, from due time",
            job_latency.len()
        ),
    );
    latency_lines(&mut out, "probe", &probes.latencies);
    latency_lines(&mut out, "job", job_latency);

    if ctx.tracer.enabled() {
        let col = |f: fn(&JobSample) -> f64| samples.iter().map(f).collect::<Vec<_>>();
        let src = format!(
            "span around the client call, median of {} jobs",
            samples.len()
        );
        out.set_opt(
            "serve.client.submit_s",
            median(&col(|s| s.submit_s)),
            src.clone(),
        );
        out.set_opt(
            "serve.client.wait_s",
            median(&col(|s| s.wait_s)),
            src.clone(),
        );
        out.set_opt(
            "serve.client.edges_s",
            median(&col(|s| s.edges_s)),
            src.clone(),
        );
        out.set_opt(
            "edges.output_s",
            median(&col(|s| s.edges_s)),
            format!("serve.client.edges_s: {src}"),
        );
        out.set_opt(
            "serve.job.run_s",
            median(&run_s),
            "sum of report phases, median over jobs",
        );
        out.set_opt(
            "serve.job.residual_s",
            median(&residual_s),
            "client wait − report run time, median over jobs",
        );
        report_layers(&mut out, &reports);
        server_layers(&mut out, &before, &after, log_bytes as f64);
        lag_metric(&mut out, &[&probes, &jobs]);
        out.set_opt(
            "driver.probe_p50_s",
            median(&probes.latencies),
            "healthz latency from due time",
        );
        out.set_opt(
            "driver.probe_tail_s",
            tail(&probes.latencies).map(|t| t.value),
            "healthz tail latency from due time",
        );
        out.set_opt(
            "driver.job_p50_s",
            median(job_latency),
            "submit→edges latency from due time",
        );
        out.set_opt(
            "driver.job_tail_s",
            tail(job_latency).map(|t| t.value),
            "submit→edges tail latency from due time",
        );
    }
    let usage = daemon.stop()?;
    out.set(
        "peak_rss_bytes",
        usage.maxrss_bytes as f64,
        "daemon process peak RSS (wait4), whole run",
    );
    Ok(out)
}

/// Pipeline phases and counters that the job reports carry.
fn report_layers(out: &mut Outcome, reports: &[JobReport]) {
    let k = reports.len();
    let phase = |name: &str| phase_median(reports, name);
    let src = |p: &str| format!("job report phase {p}, median of {k} reports");
    out.set_opt(
        "simulate.io.parse_s",
        phase("load_statuses"),
        src("load_statuses"),
    );
    out.set_opt(
        "simulate.status.columns_s",
        phase("status_columns"),
        src("status_columns"),
    );
    let corr = phase("correlation_matrix");
    out.set_opt("tends.imi.correlation_s", corr, src("correlation_matrix"));
    let count = |name: &str| {
        median(
            &reports
                .iter()
                .filter_map(|r| r.counters.get(name).map(|&c| c as f64))
                .collect::<Vec<_>>(),
        )
    };
    if let (Some(c), Some(pairs)) = (corr, count("correlation_pairs")) {
        out.set(
            "tends.imi.pairs_per_s",
            pairs / c,
            "report counter correlation_pairs / phase correlation_matrix",
        );
    }
    out.set_opt(
        "tends.kmeans.threshold_s",
        phase("threshold"),
        src("threshold"),
    );
    out.set_opt(
        "tends.search.candidate_pruning_s",
        phase("candidate_pruning"),
        src("candidate_pruning"),
    );
    out.set_opt(
        "tends.search.parent_search_s",
        phase("parent_search"),
        src("parent_search"),
    );
    out.set_opt(
        "tends.candidates_s",
        median(
            &reports
                .iter()
                .filter_map(|r| candidate_stage_s(&r.phases))
                .collect::<Vec<_>>(),
        ),
        format!("sum of job report phases before parent_search, median of {k} reports"),
    );
    out.set_opt(
        "tends.search.combinations_scored",
        count("combinations_scored"),
        "report counter, median over jobs",
    );
    let hits: u64 = reports
        .iter()
        .filter_map(|r| r.counters.get("score_cache_hits"))
        .sum();
    let misses: u64 = reports
        .iter()
        .filter_map(|r| r.counters.get("score_cache_misses"))
        .sum();
    if hits + misses > 0 {
        out.set(
            "tends.search.cache_hit_ratio",
            hits as f64 / (hits + misses) as f64,
            "report counters, summed over jobs",
        );
    }
}

/// One append: POST the batch, wait for the new revision, fetch edges.
struct AppendSample {
    post_s: f64,
    wait_s: f64,
    edges_s: f64,
    total_s: f64,
}

pub fn run_append(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (daemon, (truth, all, batches, base_id, reader_id)) =
        repeated_setup(&mut out, APPEND_SETUP_REPS, || {
            let total = APPEND_BASE_BETA + APPEND_BATCH * APPEND_BATCHES;
            let (truth, all) =
                inputs::lfr_statuses(APPEND_N, total, inputs::sub_seed(ctx.seed, 200));
            let base = inputs::to_bytes(&inputs::rows(&all, 0..APPEND_BASE_BETA));
            let batches: Vec<Vec<u8>> = (0..APPEND_BATCHES)
                .map(|b| {
                    let lo = APPEND_BASE_BETA + b * APPEND_BATCH;
                    inputs::to_bytes(&inputs::rows(&all, lo..lo + APPEND_BATCH))
                })
                .collect();
            let (_, reader) =
                inputs::lfr_statuses(POOL_N, POOL_BETA, inputs::sub_seed(ctx.seed, 201));
            let daemon = Daemon::start(ctx, "daemon")?;
            let client = daemon.client();
            let base_id = submit(&client, &base)?;
            let reader_id = submit(&client, &inputs::to_bytes(&reader))?;
            wait_done(&client, base_id, Some(1))?;
            wait_done(&client, reader_id, None)?;
            Ok((daemon, (truth, all, batches, base_id, reader_id)))
        })?;
    let client = daemon.client();
    let mut store = GateStore::open(ctx.state_file());
    let base_report = JobReport::fetch(&client, base_id)?;
    store.exact(
        &mut out,
        "base_counters",
        counters_json(&base_report.counters, &EXACT_COUNTERS),
    );

    let before = Scrape::take(&client)?;
    let log0 = daemon.log_bytes();
    let tracer = &ctx.tracer;
    let start = Instant::now() + Duration::from_millis(10);
    let end = start + Duration::from_secs_f64(ctx.seconds);
    let stop = AtomicBool::new(false);
    let mut appends: Vec<AppendSample> = Vec::new();
    let mut reports: Vec<JobReport> = Vec::new();
    let mut last_edges = Vec::new();
    // The run's F-score and edge digest come from a fixed revision, since
    // how many appends fit in the window varies from run to run.
    let mut fixed_edges = Vec::new();
    let (reads, append_result) = std::thread::scope(|s| {
        let reads = s.spawn(|| {
            let read_client = daemon.client();
            open_loop(READ_RATE, start, end, &stop, |_| {
                let op = tracer.next_id();
                let _span = tracer.span("serve.client.status", op, None);
                match read_client.get_json(&format!("/v1/jobs/{reader_id}")) {
                    Ok((200, j)) if j.get("state").and_then(Json::as_str) == Some("done") => Ok(()),
                    Ok((code, j)) => {
                        Err(format!("status read returned {code}: {}", j.to_compact()))
                    }
                    Err(e) => Err(format!("status read: {e}")),
                }
            })
        });
        // Closed loop: the next append starts when the previous one's
        // edges are back.
        let mut attempted = 0u64;
        let result = (|| -> Result<(), String> {
            let now = Instant::now();
            if now < start {
                std::thread::sleep(start - now);
            }
            for (b, batch) in batches.iter().enumerate() {
                if appends.len() >= MIN_APPENDS && Instant::now() >= end {
                    break;
                }
                attempted += 1;
                let op = tracer.next_id();
                let root = tracer.span("daemon.append", op, None);
                let t0 = Instant::now();
                {
                    let _s = tracer.span("serve.client.append_post", op, root.id());
                    let (code, j) = client
                        .post_json(&format!("/v1/jobs/{base_id}/cascades"), batch)
                        .map_err(|e| format!("append: {e}"))?;
                    if code != 200 {
                        return Err(format!("append returned {code}: {}", j.to_compact()));
                    }
                }
                let t1 = Instant::now();
                {
                    let _s = tracer.span("serve.client.wait", op, root.id());
                    wait_done(&client, base_id, Some(b as u64 + 2))?;
                }
                let t2 = Instant::now();
                last_edges = {
                    let _s = tracer.span("serve.client.edges", op, root.id());
                    fetch_edges(&client, base_id)?
                };
                let t3 = Instant::now();
                drop(root);
                appends.push(AppendSample {
                    post_s: (t1 - t0).as_secs_f64(),
                    wait_s: (t2 - t1).as_secs_f64(),
                    edges_s: (t3 - t2).as_secs_f64(),
                    total_s: (t3 - t0).as_secs_f64(),
                });
                if appends.len() == MIN_APPENDS {
                    fixed_edges = last_edges.clone();
                }
                // Not part of the append's latency: the report of this
                // revision, before the next append replaces it.
                reports.push(JobReport::fetch(&client, base_id)?);
            }
            Ok(())
        })();
        stop.store(true, Ordering::Relaxed);
        (reads.join().expect("reader thread"), (attempted, result))
    });
    let after = Scrape::take(&client)?;
    let log_bytes = daemon.log_bytes() - log0;
    let (append_attempted, append_result) = append_result;
    reads.merge_into(&mut out, "status read");
    out.attempted += append_attempted;
    if let Err(e) = append_result {
        out.fail(format!("append loop: {e}"));
    }

    // Exactness, outside the window: the served edges after the last
    // append equal a fresh library run over the combined matrix.
    let rows = APPEND_BASE_BETA + APPEND_BATCH * appends.len();
    let (_, fresh) = library_edges(&inputs::rows(&all, 0..rows))?;
    let exact = fresh == last_edges;
    out.gate(exact, || {
        format!(
            "edges after {} appends differ from a fresh run over {rows} cascades",
            appends.len()
        )
    });
    out.line(format!(
        "gate append_equals_fresh = {exact} ({} appends, {rows} cascades)",
        appends.len()
    ));
    let fixed = diffnet_graph::io::read_edge_list(&fixed_edges[..], Some(APPEND_N))
        .map_err(|e| format!("served edge list does not parse: {e}"))?;
    out.set(
        "f_score",
        f_score(&truth, &fixed),
        format!("F-score of the edges after {MIN_APPENDS} appends against the generating graph"),
    );
    store.exact(
        &mut out,
        &format!("edges_after_{MIN_APPENDS}_appends_digest"),
        Json::from(format!("{:016x}", crate::stats::fnv1a(&fixed_edges))),
    );
    for (r, report) in reports.iter().enumerate() {
        store.exact(
            &mut out,
            &format!("append_rev{}_counters", r + 2),
            counters_json(&report.counters, &EXACT_COUNTERS),
        );
    }
    store.save().map_err(|e| format!("save gate state: {e}"))?;

    let totals: Vec<f64> = appends.iter().map(|a| a.total_s).collect();
    let p50 = median(&totals).ok_or("no append completed")?;
    out.set(
        "op_p50_s",
        p50,
        format!(
            "append_p50_s: median POST→refreshed edges of {} appends",
            totals.len()
        ),
    );
    out.line(format!(
        "e2e append_p50_s = {p50} s (median of {} appends: {totals:?})",
        totals.len()
    ));
    latency_lines(&mut out, "read", &reads.latencies);

    if ctx.tracer.enabled() {
        let col = |f: fn(&AppendSample) -> f64| appends.iter().map(f).collect::<Vec<_>>();
        let k = appends.len();
        let src = format!("span around the client call, median of {k} appends");
        out.set_opt(
            "serve.client.append_post_s",
            median(&col(|a| a.post_s)),
            src.clone(),
        );
        out.set_opt(
            "serve.client.wait_s",
            median(&col(|a| a.wait_s)),
            src.clone(),
        );
        out.set_opt(
            "serve.client.edges_s",
            median(&col(|a| a.edges_s)),
            src.clone(),
        );
        out.set_opt(
            "edges.output_s",
            median(&col(|a| a.edges_s)),
            format!("serve.client.edges_s: {src}"),
        );
        let run_s: Vec<f64> = reports.iter().map(JobReport::run_s).collect();
        let residual: Vec<f64> = appends
            .iter()
            .zip(&run_s)
            .map(|(a, r)| a.wait_s - r)
            .collect();
        out.set_opt(
            "serve.job.run_s",
            median(&run_s),
            "sum of report phases, median over revisions",
        );
        out.set_opt(
            "serve.job.residual_s",
            median(&residual),
            "client wait − report run time, median over revisions",
        );
        report_layers(&mut out, &reports);
        out.set_opt(
            "tends.append.stats_append_s",
            phase_median(&reports, "stats_append"),
            "job report phase stats_append",
        );
        out.set_opt(
            "tends.append.load_statuses_s",
            phase_median(&reports, "load_statuses"),
            "job report phase load_statuses",
        );
        let dirty: Vec<f64> = reports
            .iter()
            .filter_map(|r| Some(*r.counters.get("dirty_nodes")? as f64 / APPEND_N as f64))
            .collect();
        out.set_opt(
            "tends.append.dirty_ratio",
            median(&dirty),
            "report counter dirty_nodes / n",
        );
        server_layers(&mut out, &before, &after, log_bytes as f64);
        lag_metric(&mut out, &[&reads]);
        out.set_opt(
            "driver.read_p50_s",
            median(&reads.latencies),
            "status-read latency from due time",
        );
        out.set_opt(
            "driver.read_tail_s",
            tail(&reads.latencies).map(|t| t.value),
            "status-read tail latency from due time",
        );
    }
    let usage = daemon.stop()?;
    out.set(
        "peak_rss_bytes",
        usage.maxrss_bytes as f64,
        "daemon process peak RSS (wait4), whole run",
    );
    Ok(out)
}
