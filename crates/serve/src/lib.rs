//! `diffnet-serve` — a zero-dependency inference daemon.
//!
//! Turns the offline reconstruction pipeline into a long-running service
//! without adding a single external crate: a hand-rolled HTTP/1.1 layer
//! with an incremental, readiness-driven parser ([`http`]), an
//! `epoll(7)` event loop over raw FFI that owns every socket on one
//! thread — keep-alive, pipelining, bounded buffers, timeouts, and
//! backpressure ([`reactor`]) — a durable job queue whose persistence
//! layer *is* the PR-4 checkpoint machinery ([`job`]), routing, config,
//! and signal handling ([`server`]), and a small blocking keep-alive
//! client for the CLI, the load generator, and tests ([`client`]).
//!
//! # API
//!
//! | Route | Meaning |
//! |---|---|
//! | `POST /v1/jobs?algorithm=&threads=&checkpoint-interval=&edges=` | submit an input, get a job id |
//! | `GET /v1/jobs` | list jobs |
//! | `GET /v1/jobs/{id}` | state machine + live progress counters |
//! | `GET /v1/jobs/{id}?wait_ms=N` | the same, long-polled: answered once the job settles or `N` ms pass (capped at 30 s) |
//! | `GET /v1/jobs/{id}/edges` | the inferred edge list |
//! | `GET /v1/jobs/{id}/report` | the run report (with `runtime.job`) |
//! | `GET /v1/jobs/{id}/trace` | the job's span tree (live while running, from the report once finished) |
//! | `POST /v1/jobs/{id}/cascades` | append cascades, re-estimate |
//! | `GET /v1/metrics` | Prometheus text exposition |
//! | `GET /v1/healthz` | liveness |
//! | `POST /v1/shutdown` | graceful stop (same path as SIGTERM) |
//!
//! # Request telemetry
//!
//! Every request gets an id — the client's `X-Request-Id` header when it
//! is short and header-safe, else a generated `req-N` — echoed back as
//! `X-Request-Id` and stamped on the structured JSON access-log line the
//! daemon writes to stderr (disable with `access_log: false` /
//! `--no-access-log`). Per-endpoint latency lands in log₂ duration
//! histograms exposed on `/v1/metrics` with real-second bucket
//! boundaries plus `_p50`/`_p95`/`_p99` gauges; requests slower than
//! `slow_request_secs` increment `http_slow_requests` and are always
//! logged. A background [`diffnet_observe::ResourceProfiler`] backs the
//! `process_rss_bytes` / `process_peak_rss_bytes` /
//! `process_user_cpu_seconds` / `process_system_cpu_seconds` gauges.
//!
//! # Durability contract
//!
//! Every state transition and output is written atomically
//! (temp + fsync + rename). A tends job checkpoints its per-node results
//! as it runs, so `kill -9` at any instant — including mid-flush, via the
//! `job_flush` and `checkpoint_flush` fault sites — loses at most the
//! nodes since the last flush. On restart the data dir is rescanned,
//! interrupted jobs resume from their checkpoint, and the finished edge
//! list is byte-identical to an uninterrupted run at any thread count.

pub mod client;
pub mod http;
pub mod job;
pub mod reactor;
pub mod server;

pub use client::Client;
pub use http::{HttpError, Limits, Method, Request, Response};
pub use job::{
    job_report_json, parse_size, status_json, JobError, JobManager, JobMeta, JobSpec, JobState,
    ALGORITHMS,
};
pub use reactor::Tuning;
pub use server::{ServeConfig, Server, FAULT_ACCEPT, MAX_JOB_WAIT};
