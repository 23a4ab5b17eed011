#![warn(missing_docs)]
//! # diffnet-cli
//!
//! The `diffnet` command-line tool: generate diffusion networks, simulate
//! diffusion processes, infer topologies from the observations, and
//! evaluate inferred edge sets — each step reading and writing plain text
//! files so pipelines compose with standard tooling.
//!
//! ```sh
//! diffnet generate --model lfr --n 200 --k 4 --t 2 --seed 1 --out truth.edges
//! diffnet simulate --graph truth.edges --alpha 0.15 --beta 150 --mu 0.3 \
//!     --seed 2 --out statuses.txt --observations obs.txt
//! diffnet infer --statuses statuses.txt --out inferred.edges
//! diffnet eval --truth truth.edges --inferred inferred.edges
//! ```

mod args;
mod commands;

pub use args::{ArgError, ParsedArgs};
pub use commands::{run, CommandOutput, EXIT_PARTIAL};

/// Usage text printed by `diffnet help` and on errors.
pub const USAGE: &str = "\
diffnet — diffusion network inference toolkit (TENDS, ICDE 2020)

USAGE:
  diffnet <command> [--option value ...]

COMMANDS:
  generate   Generate a diffusion network
             --model lfr|er|ba|ws|kronecker|netsci|dunf  --out FILE
             [--n N] [--k K] [--t T] [--m M] [--mixing X] [--rewire X]
             [--power P] [--seed S] [--reciprocal]
  simulate   Simulate diffusion processes on a network
             --graph FILE  --out FILE  [--observations FILE] [--model ic|lt]
             [--alpha A] [--beta B] [--mu MU] [--sigma SD] [--seed S]
  infer      Infer a topology from observations
             --statuses FILE --out FILE  [--algorithm tends|netrate|multree|lift|netinf|path]
             [--observations FILE] [--edges M] [--threshold-scale X] [--mi]
             [--threads T] [--simd auto|avx2|popcnt|scalar]
             [--symmetrize | --mutual-only]
             [--memory-budget BYTES[K|M|G]] [--shard-index I --shard-count S]
             [--trace] [--run-report FILE]
             [--checkpoint FILE] [--resume] [--checkpoint-interval N]
  eval       Score an inferred edge set against the ground truth
             --truth FILE --inferred FILE
  report-check  Validate a --run-report JSON file (schema + counters)
             --report FILE  [--phases a,b,...] [--counters a,b,...]
  trace      Render a recorded span tree (run report or /trace response)
             trace render FILE  [--timeline] [--collapsed]
  metrics-lint  Lint a scraped Prometheus text exposition
             --file FILE
  estimate   Fit per-edge propagation probabilities for a topology
             --graph FILE --statuses FILE --out FILE
  stats      Print summary statistics of a network
             --graph FILE
  serve      Run the inference daemon (HTTP/1.1 job API over TCP)
             --data-dir DIR  [--addr HOST:PORT] [--http-workers N]
             [--job-workers N] [--max-body-bytes N] [--port-file FILE]
             [--simd auto|avx2|popcnt|scalar]
             [--slow-request-secs S] [--no-access-log]
             [--max-connections N] [--max-inflight N] [--max-queued-jobs N]
             [--idle-timeout DUR] [--read-timeout DUR] [--drain-timeout DUR]
  loadgen    Drive a running daemon with generated traffic
             --server HOST:PORT  [--connections N] [--duration DUR]
             [--warmup DUR] [--repeats N] [--mix healthz|submit|append
             or weighted, e.g. healthz=9,submit=1] [--target-rps R]
             [--no-keep-alive] [--timeout DUR] [--json]
  submit     Submit a job to a running daemon
             --server HOST:PORT  --statuses FILE | --observations FILE
             [--algorithm A] [--threads T] [--checkpoint-interval N]
             [--edges M] [--memory-budget BYTES[K|M|G]]
             [--shards S [--merged-out FILE]] [--wait] [--timeout-secs S]
  job        Query a job on a running daemon (and fetch its outputs)
             --server HOST:PORT  --id N  [--wait] [--timeout-secs S]
             [--edges-out FILE] [--report-out FILE]
  help       Show this message

Cascade-based algorithms (netrate, multree, netinf, path) and lift need
--observations (written by `simulate --observations`); tends needs only
--statuses. multree/lift/netinf/path need --edges (the budget m).

Observability: `infer --trace` prints per-phase wall times and counters to
stderr; `infer --run-report FILE` writes the structured JSON run report
(instrumented algorithms: tends, netrate), which carries a nested span
tree under `runtime.trace` and an RSS/CPU resource profile under
`runtime.resources`. `report-check` validates such a file (including the
trace and resource schemas) and exits non-zero on violations. `trace
render` turns a recorded span tree into a text timeline (default) or
flamegraph-collapsed stacks (`--collapsed`); `metrics-lint` checks a
scraped /v1/metrics exposition for format violations.

SIMD: the bit-counting kernels pick the fastest tier the CPU supports
(AVX2, then POPCNT, then portable scalar) at startup. `--simd MODE` or
DIFFNET_SIMD=MODE forces a tier; every tier produces bit-identical output,
so `scalar` is a safe cross-check. The requested mode is recorded in the
run report's deterministic section, the resolved tier under `runtime`.

Scaling (tends only): `infer --memory-budget 512M` (or
DIFFNET_MEMORY_BUDGET) switches onto the out-of-core streamed IMI
pipeline — the status file is memory-mapped into column bitsets, the
dense correlation matrix is never built, and per-node candidates live in
bounded sparse accumulators. `--shard-index I --shard-count S` restricts
the run to one node-range shard; the sorted union of the shard edge
lists (same budget everywhere) is byte-identical to the unsharded run.
`submit --shards S --wait --merged-out FILE` fans one reconstruction out
across S daemon jobs and merges the edges client-side.

Robustness (tends only): `infer --checkpoint FILE` persists per-node
progress atomically every --checkpoint-interval nodes (default 8);
re-running with `--resume` skips completed nodes and produces the same
output bit for bit. Per-node failures degrade gracefully: the surviving
edges are still written, the failed nodes are listed in the report and
run report, and the process exits with code 3 instead of 0.

Serving: `serve` exposes the pipeline as a zero-dependency HTTP daemon
(POST /v1/jobs, GET /v1/jobs/{id}, /edges, /report, POST
/v1/jobs/{id}/cascades, GET /v1/metrics, /v1/healthz).
GET /v1/jobs/{id}?wait_ms=N long-polls: the answer comes as soon as the
job is done, failed or partial, or after N ms (at most 30 s) with its
state at that moment; `submit --wait` and `job --wait` wait this way. Requests are
handled by an epoll event loop with HTTP/1.1 keep-alive and pipelining;
overload answers are typed (429 past the per-connection in-flight
budget, 503 when the request or job queue is full, 408 on stalled
request heads) and tunable via the serve flags above (DUR accepts 5s,
750ms, 2m). Jobs are durable: state and checkpoints live under
--data-dir, and a killed or SIGTERM'd server resumes interrupted jobs
on restart with bit-identical results. `submit`/`job` are the built-in
client for scripts and CI.

Load generation: `loadgen` drives a daemon from N concurrent
connections, closed-loop by default or open-loop at `--target-rps`,
mixing healthz probes, full submit→wait→edges round-trips, and cascade
appends (`--mix healthz=9,submit=1`). It reports ok/total rps, p50/p95
/p99 latency from fine-grained histograms, and per-class error counts
(429/503/timeouts); `--json` emits the structured report, `--repeats`
re-measures, and the warmup window is discarded.
";
