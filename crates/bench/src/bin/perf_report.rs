//! Performance report for the TENDS hot paths, written to
//! `BENCH_micro.json` at the repository root.
//!
//! Measures, at two LFR sizes:
//!
//! * the raw pairwise counting kernel: cache-blocked tiles
//!   ([`NodeColumns::pair_counts_block`]) vs the per-pair column walk,
//!   plus the same tiled sweep pinned to the runtime-resolved SIMD tier
//!   and to the portable scalar fallback (`simd_s` / `scalar_s`). The
//!   headline rows use a deep workload (β=8192, 128 words per column)
//!   that times the kernels at streaming depth; the nested
//!   `inference_shape` row keeps the β=150 shape the pipeline sees.
//!   Detected CPU features are recorded in the header;
//! * the IMI correlation matrix, single-threaded vs 8 workers;
//! * one full TENDS reconstruction, 1 vs 8 threads;
//! * the `N_ijk` counting kernel: the recursive bitset kernel vs the
//!   incremental [`CountsWorkspace`] refinement;
//! * the full greedy parent search: cached workspace path vs the
//!   from-scratch reference path, both single-threaded, with the score
//!   cache's hit/miss counts;
//! * one instrumented reconstruction (`tends_run_report`): per-phase wall
//!   times and the full observability counter set for the small workload;
//! * checkpoint overhead: the robust reconstruction with per-node
//!   progress persisted atomically every 8 nodes vs the same path with
//!   checkpointing disabled;
//! * incremental append: a deep archived base history (β=153600) plus a
//!   +10% cascade batch, re-estimated warm from the checkpoint's
//!   sufficient statistics vs a full checkpointed re-run of the combined
//!   matrix, with the dirty/reused node split from the run counters;
//! * the dense statistics stage at the `offline_dense` benchmark shape
//!   (n=3000, β=500, 2 threads; n=1000 under `--quick`): the
//!   `correlation_matrix`, `threshold` and `candidate_pruning` phase
//!   seconds as min/median/max over the repetitions, plus the sampled
//!   peak RSS. It runs first, so no earlier row's heap inflates the peak;
//! * the serving layer over loopback: `/v1/healthz` round-trips per
//!   second and the end-to-end submit→done latency of an HTTP-submitted
//!   job (upload, queue, reconstruction, output writes, status long-poll),
//!   each with client-side p50/p95/p99 from the same log₂ duration
//!   buckets the daemon exposes on `/v1/metrics`.
//!
//! Multi-thread speedups are only meaningful on multi-core hardware; on a
//! single-CPU machine the thread-scaling rows are marked
//! `"skipped_single_cpu"` instead of reporting ~1.0x noise as a speedup.
//! The report records `hardware_threads` so the numbers are interpretable.
//! `--quick` (or `DIFFNET_QUICK=1`) shrinks the workloads for smoke runs.

use diffnet_bench::harness::{observe, Setting};
use diffnet_datasets::LfrSpec;
use diffnet_metrics::timed;
use diffnet_observe::{DurationHistogram, Json, Recorder, RunReport};
use diffnet_simulate::{CountsWorkspace, Kernels, NodeColumns, SimdMode, StatusMatrix};
use diffnet_tends::search::{find_parents_reference, SearchParams};
use diffnet_tends::{
    CorrelationMatrix, CorrelationMeasure, RobustOptions, ScoreCacheStats, SearchScratch, Tends,
    TendsConfig,
};

/// Median wall-clock seconds of `reps` runs of `f`.
fn median_secs<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let (out, secs) = timed(&mut f);
            std::hint::black_box(out);
            secs
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
    times[times.len() / 2]
}

fn status_workload(n: usize, beta: usize, seed: u64) -> StatusMatrix {
    let spec = LfrSpec {
        name: "perf",
        n,
        mean_degree: 4.0,
        degree_exponent: 2.0,
    };
    let truth = spec.generate(2020);
    let setting = Setting {
        beta,
        seed,
        ..Default::default()
    };
    observe(&truth, &setting).statuses
}

/// Splits a status matrix into its first `at` rows and the rest.
fn split_rows(m: &StatusMatrix, at: usize) -> (StatusMatrix, StatusMatrix) {
    let n = m.num_nodes();
    let mut base = StatusMatrix::new(at, n);
    let mut rest = StatusMatrix::new(m.num_processes() - at, n);
    for l in 0..m.num_processes() {
        for i in 0..n as u32 {
            if m.get(l, i) {
                if l < at {
                    base.set(l, i);
                } else {
                    rest.set(l - at, i);
                }
            }
        }
    }
    (base, rest)
}

/// A large synthetic status matrix for the streamed-IMI row: xorshift
/// noise at ~12.5% infection. LFR generation at n=100,000 would dominate
/// the bench wall-clock; the fold's cost is data-independent, so noise
/// times the same work as a real diffusion workload.
fn synthetic_statuses(beta: usize, n: usize, seed: u64) -> StatusMatrix {
    let mut m = StatusMatrix::new(beta, n);
    let mut state = seed | 1;
    for l in 0..beta {
        for i in 0..n as u32 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            if state & 7 == 0 {
                m.set(l, i);
            }
        }
    }
    m
}

struct KernelRow {
    n: usize,
    recursive_s: f64,
    workspace_s: f64,
}

/// Times the two counting kernels over every node as child, with a cached
/// 3-parent base and a 2-node extension — the shape of one greedy round.
fn kernel_row(n: usize, cols: &NodeColumns, reps: usize) -> KernelRow {
    let base: Vec<u32> = [0u32, 2, 4]
        .into_iter()
        .filter(|&p| (p as usize) < n)
        .collect();
    let extra: Vec<u32> = [1u32, 3]
        .into_iter()
        .filter(|&p| (p as usize) < n)
        .collect();
    let mut union: Vec<u32> = base.iter().chain(&extra).copied().collect();
    union.sort_unstable();

    let children: Vec<u32> = (5..n as u32).collect();
    let recursive_s = median_secs(reps, || {
        let mut acc = 0u64;
        for &child in &children {
            acc += cols.combo_counts(child, &union).expect("small combo")[0][0];
        }
        acc
    });
    let mut ws = CountsWorkspace::new();
    ws.set_base(cols, &base).expect("small base");
    let workspace_s = median_secs(reps, || {
        let mut acc = 0u64;
        for &child in &children {
            acc += ws.refined_counts(cols, child, &extra).expect("small combo")[0][0];
        }
        acc
    });
    KernelRow {
        n,
        recursive_s,
        workspace_s,
    }
}

/// Sum of `n11` over the whole pair triangle through the per-pair walk.
fn per_pair_sweep(cols: &NodeColumns) -> u64 {
    let n = cols.num_nodes();
    let mut acc = 0u64;
    for i in 0..n as u32 {
        for j in (i + 1)..n as u32 {
            acc += cols.pair_counts(i, j).n11;
        }
    }
    acc
}

/// Sum of `n11` over the whole pair triangle through the tiled kernel.
fn tiled_sweep(cols: &NodeColumns) -> u64 {
    let n = cols.num_nodes();
    let ones = cols.ones_counts();
    let tile = cols.pair_tile_size();
    let num_tiles = n.div_ceil(tile);
    let mut acc = 0u64;
    for bi in 0..num_tiles {
        let rows = bi * tile..((bi + 1) * tile).min(n);
        for bj in bi..num_tiles {
            let jcols = bj * tile..((bj + 1) * tile).min(n);
            cols.pair_counts_block(rows.clone(), jcols, &ones, &mut |_, _, pc| {
                acc += pc.n11;
            });
        }
    }
    acc
}

/// Sum of `n11` over the pair triangle through an explicit kernel table,
/// walking the same tiles as [`tiled_sweep`] but bypassing the
/// process-wide dispatcher — times one SIMD tier in isolation.
fn forced_sweep(cols: &NodeColumns, k: &Kernels) -> u64 {
    let n = cols.num_nodes();
    let tile = cols.pair_tile_size();
    let num_tiles = n.div_ceil(tile);
    let mut acc = 0u64;
    for bi in 0..num_tiles {
        for bj in bi..num_tiles {
            let jcols = bj * tile..((bj + 1) * tile).min(n);
            for i in bi * tile..((bi + 1) * tile).min(n) {
                let ci = cols.col(i as u32);
                for j in jcols.start.max(i + 1)..jcols.end {
                    acc += k.and_popcount(ci, cols.col(j as u32));
                }
            }
        }
    }
    acc
}

/// A thread-scaling row: on a single-CPU box the multi-thread timing is
/// noise, so the row carries a status instead of a fake "speedup".
fn scaling_row(n: usize, t1: f64, t8: Option<f64>) -> Json {
    let mut row = Json::object();
    row.push("n", n as u64);
    row.push("threads_1_s", t1);
    match t8 {
        Some(t8) => {
            row.push("status", "ok");
            row.push("threads_8_s", t8);
            row.push("speedup", t1 / t8);
        }
        None => {
            row.push("status", "skipped_single_cpu");
        }
    }
    row
}

/// `{min, median, max}` of a non-empty sample.
fn spread(mut xs: Vec<f64>) -> Json {
    xs.sort_by(f64::total_cmp);
    let mut row = Json::object();
    row.push("min", xs[0]);
    row.push("median", xs[xs.len() / 2]);
    row.push("max", xs[xs.len() - 1]);
    row
}

/// The dense statistics stage at the `offline_dense` benchmark shape:
/// `reps` instrumented dense reconstructions on 2 threads, with the
/// stage's three phases as `{min, median, max}` seconds and the sampled
/// peak RSS across the repetitions.
fn dense_stage_row(n: usize, beta: usize, reps: usize) -> Json {
    const PHASES: [&str; 3] = ["correlation_matrix", "threshold", "candidate_pruning"];
    const THREADS: usize = 2;
    let statuses = status_workload(n, beta, 14);
    let profiler =
        diffnet_observe::ResourceProfiler::start(diffnet_observe::DEFAULT_SAMPLE_INTERVAL);
    let mut seconds: Vec<Vec<f64>> = vec![Vec::new(); PHASES.len()];
    for _ in 0..reps {
        let recorder = Recorder::new();
        Tends::with_config(TendsConfig {
            threads: THREADS,
            ..Default::default()
        })
        .reconstruct_observed(&statuses, &recorder)
        .expect("default search fits");
        let phases = recorder.snapshot().phases;
        for (name, secs) in PHASES.iter().zip(&mut seconds) {
            let phase = phases.iter().find(|(p, _)| p == name);
            secs.push(phase.expect("dense phase recorded").1);
        }
    }
    let profile = profiler.stop();
    let mut row = Json::object();
    row.push("n", n as u64);
    row.push("beta", beta as u64);
    row.push("threads", THREADS as u64);
    row.push("reps", reps as u64);
    for (name, secs) in PHASES.iter().zip(seconds) {
        row.push(format!("{name}_s"), spread(secs));
    }
    row.push("peak_rss_bytes", profile.peak_rss_bytes);
    row
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick")
        || std::env::var("DIFFNET_QUICK").is_ok_and(|v| v == "1");
    let (n_small, n_large, reps) = if quick { (100, 200, 3) } else { (300, 1000, 5) };
    let beta = 150;
    let hardware_threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    let multi_core = hardware_threads > 1;

    // Kernel-throughput workload: long columns (many AVX2 lane groups per
    // node) so the pair-kernel timings measure word-stream throughput. At
    // β=150 a column is a single lane group and per-pair call overhead
    // dominates; β=8192 streams 128 words per column pair.
    let (n_deep, beta_deep) = if quick { (120, 2048) } else { (400, 8192) };

    let n_dense = if quick { 1000 } else { 3000 };
    eprintln!("perf_report: dense statistics stage (n={n_dense}, beta=500)");
    let dense_stage = dense_stage_row(n_dense, 500, reps);

    eprintln!("perf_report: generating workloads (n={n_small}, n={n_large}, beta={beta})");
    let small = status_workload(n_small, beta, 11);
    let large = status_workload(n_large, beta, 12);
    let deep = status_workload(n_deep, beta_deep, 13);
    let small_cols = small.columns();
    let large_cols = large.columns();
    let deep_cols = deep.columns();

    // Raw pairwise counting: tiled kernel vs per-pair walk, single-thread,
    // no MI float work — the kernel-level win the tiling is for. Timed at
    // both shapes: the β=150 inference shape and the deep kernel shape.
    eprintln!("perf_report: pair kernel (n={n_large} β={beta}, n={n_deep} β={beta_deep})");
    for cols in [&large_cols, &deep_cols] {
        assert_eq!(
            per_pair_sweep(cols),
            tiled_sweep(cols),
            "kernels must agree before being timed"
        );
    }
    let pair_ref = median_secs(reps, || per_pair_sweep(&large_cols));
    let pair_tiled = median_secs(reps, || tiled_sweep(&large_cols));
    // The same sweep with explicit kernel tables: the resolved tier vs the
    // portable scalar fallback, so the report separates what SIMD buys
    // from what the scalar multi-accumulator loop already buys.
    let auto_k = diffnet_simulate::simd::kernels();
    let scalar_k = Kernels::for_mode(SimdMode::Scalar);
    for cols in [&large_cols, &deep_cols] {
        assert_eq!(
            forced_sweep(cols, auto_k),
            forced_sweep(cols, &scalar_k),
            "dispatch tiers must agree before being timed"
        );
    }
    let deep_ref = median_secs(reps, || per_pair_sweep(&deep_cols));
    let deep_tiled = median_secs(reps, || tiled_sweep(&deep_cols));
    let deep_simd = median_secs(reps, || forced_sweep(&deep_cols, auto_k));
    let deep_scalar = median_secs(reps, || forced_sweep(&deep_cols, &scalar_k));

    // IMI matrix at the large size, 1 vs 8 threads.
    eprintln!("perf_report: IMI matrix (n={n_large})");
    let imi_1 = median_secs(reps, || {
        CorrelationMatrix::compute_observed(
            &large_cols,
            CorrelationMeasure::Imi,
            1,
            Recorder::disabled(),
        )
    });
    let imi_8 = multi_core.then(|| {
        median_secs(reps, || {
            CorrelationMatrix::compute_observed(
                &large_cols,
                CorrelationMeasure::Imi,
                8,
                Recorder::disabled(),
            )
        })
    });

    // Full reconstruction at the small size, 1 vs 8 threads.
    eprintln!("perf_report: reconstruction (n={n_small})");
    let rec_1 = median_secs(reps.min(3), || {
        Tends::with_config(TendsConfig {
            threads: 1,
            ..Default::default()
        })
        .reconstruct(&small)
        .expect("default search fits")
    });
    let rec_8 = multi_core.then(|| {
        median_secs(reps.min(3), || {
            Tends::with_config(TendsConfig {
                threads: 8,
                ..Default::default()
            })
            .reconstruct(&small)
            .expect("default search fits")
        })
    });

    // Counting kernel at both sizes.
    eprintln!("perf_report: counting kernels");
    let kernels = [
        kernel_row(n_small, &small_cols, reps),
        kernel_row(n_large, &large_cols, reps),
    ];

    // Full greedy parent search (cached workspace vs reference),
    // single-threaded, over every node of the small workload with its IMI
    // candidates.
    eprintln!("perf_report: greedy search (n={n_small})");
    let corr = CorrelationMatrix::compute(&small_cols, CorrelationMeasure::Imi);
    let tau = diffnet_tends::pinned_two_means(corr.upper_triangle()).tau;
    let params = SearchParams::default();
    let candidates: Vec<Vec<u32>> = (0..n_small as u32)
        .map(|i| diffnet_tends::search::candidate_parents(&corr, i, tau, params.max_candidates))
        .collect();
    let greedy_ref = median_secs(reps.min(3), || {
        let mut acc = 0usize;
        for (i, cands) in candidates.iter().enumerate() {
            acc += find_parents_reference(&small_cols, i as u32, cands, &params)
                .expect("default search fits")
                .stats
                .evaluations;
        }
        acc
    });
    let mut cache_totals = ScoreCacheStats::default();
    let greedy_ws = median_secs(reps.min(3), || {
        let mut scratch = SearchScratch::new();
        let mut acc = 0usize;
        cache_totals = ScoreCacheStats::default();
        for (i, cands) in candidates.iter().enumerate() {
            let res = diffnet_tends::search::find_parents_with(
                &mut scratch,
                &small_cols,
                i as u32,
                cands,
                &params,
            )
            .expect("default search fits");
            cache_totals.merge(&res.cache_stats);
            acc += res.stats.evaluations;
        }
        acc
    });

    // Checkpoint overhead: the same robust reconstruction with per-node
    // progress persisted atomically at the default interval vs without.
    eprintln!("perf_report: checkpoint overhead (n={n_small})");
    let ck_path = std::env::temp_dir().join("diffnet_perf_checkpoint.json");
    // Both sides of this ratio finish in ~10ms, so the 3-rep cap used for
    // the expensive rows leaves the median dominated by scheduler noise;
    // more reps cost nothing here and keep overhead_ratio stable.
    let ck_reps = reps.max(9);
    let plain_s = median_secs(ck_reps, || {
        Tends::with_config(TendsConfig {
            threads: 1,
            ..Default::default()
        })
        .reconstruct_robust(&small, Recorder::disabled(), &RobustOptions::default())
        .expect("robust run")
    });
    let ck_interval = RobustOptions::default().checkpoint_interval;
    let checkpointed_s = median_secs(ck_reps, || {
        std::fs::remove_file(&ck_path).ok();
        Tends::with_config(TendsConfig {
            threads: 1,
            ..Default::default()
        })
        .reconstruct_robust(
            &small,
            Recorder::disabled(),
            &RobustOptions {
                checkpoint: Some(ck_path.clone()),
                ..Default::default()
            },
        )
        .expect("checkpointed run")
    });
    std::fs::remove_file(&ck_path).ok();

    // Incremental re-estimation: +10% appended cascades, warm-started
    // from the checkpoint's persisted sufficient statistics (count fold
    // over the new columns + dirty-node search only) vs the old append
    // behavior — dropping the checkpoint and re-running the combined
    // matrix from scratch with checkpointing back on. The workload models
    // what the warm path exists for: a deep archived history (β large
    // enough that per-pair recounting dominates the run) receiving a
    // fresh batch, not a toy matrix where fixed costs drown the counting.
    let (append_base_beta, append_beta) = if quick {
        (2_048, 204)
    } else {
        (153_600, 15_360)
    };
    eprintln!(
        "perf_report: incremental append (n={n_large}, β={append_base_beta}, +{append_beta} cascades)"
    );
    let append_combined = status_workload(n_large, append_base_beta + append_beta, 14);
    let (append_base, appended) = split_rows(&append_combined, append_base_beta);
    let ck_append = std::env::temp_dir().join("diffnet_perf_append_checkpoint.json");
    let append_tends = || {
        Tends::with_config(TendsConfig {
            threads: 1,
            ..Default::default()
        })
    };
    std::fs::remove_file(&ck_append).ok();
    append_tends()
        .reconstruct_robust(
            &append_base,
            Recorder::disabled(),
            &RobustOptions {
                checkpoint: Some(ck_append.clone()),
                ..Default::default()
            },
        )
        .expect("base run");
    let warm_state = std::fs::read(&ck_append).expect("read base checkpoint");
    let full_rerun_s = median_secs(reps.min(3), || {
        std::fs::remove_file(&ck_append).ok();
        append_tends()
            .reconstruct_robust(
                &append_combined,
                Recorder::disabled(),
                &RobustOptions {
                    checkpoint: Some(ck_append.clone()),
                    ..Default::default()
                },
            )
            .expect("full re-run")
    });
    let warm_options = RobustOptions {
        checkpoint: Some(ck_append.clone()),
        resume: true,
        revision: 1,
        ..Default::default()
    };
    let incremental_s = median_secs(reps.min(3), || {
        std::fs::write(&ck_append, &warm_state).expect("restore base checkpoint");
        append_tends()
            .reconstruct_robust_append(
                &append_combined,
                &appended,
                Recorder::disabled(),
                &warm_options,
            )
            .expect("incremental append run")
    });
    // One instrumented pair for the splice accounting and the exactness
    // check: the warm result must equal the fresh combined run bit for bit.
    let append_full = append_tends()
        .reconstruct_observed(&append_combined, Recorder::disabled())
        .expect("fresh combined run");
    std::fs::write(&ck_append, &warm_state).expect("restore base checkpoint");
    let append_recorder = Recorder::new();
    let append_warm = append_tends()
        .reconstruct_robust_append(&append_combined, &appended, &append_recorder, &warm_options)
        .expect("incremental append run");
    assert_eq!(
        append_warm.result.graph, append_full.graph,
        "incremental append must reproduce the fresh combined run"
    );
    let append_counters = append_recorder.snapshot().counters;
    let append_dirty = append_counters.get("dirty_nodes").copied().unwrap_or(0);
    let append_reused = append_counters.get("nodes_reused").copied().unwrap_or(0);
    std::fs::remove_file(&ck_append).ok();

    // The serving layer over loopback: request throughput on the cheapest
    // endpoint, then the full submit→done latency for the small workload —
    // the price of running inference behind the daemon instead of inline.
    eprintln!("perf_report: serve loopback (n={n_small})");
    let serve_dir = std::env::temp_dir().join(format!("diffnet_perf_serve_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&serve_dir);
    let server = diffnet_serve::Server::bind(&diffnet_serve::ServeConfig {
        data_dir: serve_dir.clone(),
        access_log: false,
        ..Default::default()
    })
    .expect("bind loopback server");
    let addr = server.addr();
    let server_thread = std::thread::spawn(move || server.serve_forever());
    let client = diffnet_serve::Client::new(addr);
    // Throughput curves from the loadgen harness: closed-loop healthz at
    // each connection count, with and without keep-alive, so the report
    // shows how the reactor scales with concurrency and what
    // connection-per-request costs. Latency lands in the same fine-grained
    // buckets the daemon exposes on /v1/metrics, so the rows carry tail
    // percentiles (p50/p95/p99), not batch means.
    let lg_window = if quick {
        std::time::Duration::from_millis(800)
    } else {
        std::time::Duration::from_secs(3)
    };
    let mut curves: Vec<(usize, bool, diffnet_loadgen::LoadReport)> = Vec::new();
    for keep_alive in [true, false] {
        for connections in [1usize, 4, 16, 64] {
            eprintln!(
                "perf_report: loadgen healthz ({connections} conns, keep-alive {keep_alive})"
            );
            let cfg = diffnet_loadgen::LoadgenConfig {
                connections,
                duration: lg_window,
                warmup: std::time::Duration::from_millis(300),
                keep_alive,
                ..diffnet_loadgen::LoadgenConfig::new(addr)
            };
            let summary = diffnet_loadgen::run(&cfg).expect("load run");
            curves.push((connections, keep_alive, summary.best().clone()));
        }
    }
    let best_keepalive = curves
        .iter()
        .filter(|&&(_, ka, _)| ka)
        .map(|(_, _, r)| r)
        .max_by(|a, b| a.ok_rps().total_cmp(&b.ok_rps()))
        .expect("keep-alive curve")
        .clone();
    let mut serve_body = Vec::new();
    diffnet_simulate::io::write_status_matrix(&small, &mut serve_body).expect("serialize statuses");
    let mut submit_hist = DurationHistogram::default();
    let submit_to_done_s = median_secs(reps.min(3), || {
        let (_, secs) = timed(|| {
            let (code, job) = client.post_json("/v1/jobs", &serve_body).expect("submit");
            assert_eq!(code, 201, "{}", job.to_pretty());
            let id = job.get("id").and_then(Json::as_f64).expect("job id") as u64;
            let done = client
                .wait_for_job(id, std::time::Duration::from_secs(300))
                .expect("job finishes");
            assert_eq!(done.get("state").and_then(Json::as_str), Some("done"));
        });
        submit_hist.record(secs);
    });
    client.shutdown().expect("shutdown");
    server_thread.join().expect("join").expect("serve loop");
    let _ = std::fs::remove_dir_all(&serve_dir);

    // Streamed IMI at out-of-core scale: τ from the deterministic pair
    // sample, then the tiled fold into bounded sparse candidate
    // accumulators — the dense matrix is never allocated, which is what
    // makes this n feasible at all (its f64 upper triangle alone for
    // n=100,000 would be ~40 GB). Peak RSS is profiled so the row
    // demonstrates the memory bound, not just the throughput.
    let (n_stream, beta_stream) = if quick { (10_000, 64) } else { (100_000, 64) };
    let stream_budget: u64 = 512 << 20;
    eprintln!("perf_report: streamed IMI (n={n_stream}, beta={beta_stream})");
    let stream_statuses = synthetic_statuses(beta_stream, n_stream, 2020);
    let stream_cols = stream_statuses.columns();
    drop(stream_statuses);
    let stream_profiler =
        diffnet_observe::ResourceProfiler::start(diffnet_observe::DEFAULT_SAMPLE_INTERVAL);
    let stream_threads = if multi_core { 8 } else { 1 };
    let (tau_sample, tau_sample_s) = timed(|| {
        diffnet_tends::stream::sample_tau(
            &stream_cols,
            CorrelationMeasure::Imi,
            Some(stream_budget),
            stream_threads,
        )
    });
    let (fold, fold_s) = timed(|| {
        diffnet_tends::stream::fold_candidates(
            &stream_cols,
            CorrelationMeasure::Imi,
            tau_sample.kmeans.tau,
            SearchParams::default().max_candidates,
            diffnet_tends::Shard::full(stream_cols.num_nodes()),
            stream_threads,
        )
    });
    let stream_profile = stream_profiler.stop();
    drop(stream_cols);

    // One instrumented reconstruction for the per-phase breakdown, so the
    // report shows where the wall-clock goes inside a single run.
    eprintln!("perf_report: instrumented phase breakdown (n={n_small})");
    let recorder = Recorder::new();
    let _ = Tends::with_config(TendsConfig {
        threads: 1,
        ..Default::default()
    })
    .reconstruct_observed(&small, &recorder)
    .expect("default search fits");
    let run_report = RunReport::new("tends", recorder.snapshot(), 1);

    let mut json = Json::object();
    json.push("generated_by", "perf_report");
    json.push("quick", quick);
    json.push("hardware_threads", hardware_threads as u64);
    json.push("beta", beta as u64);
    json.push(
        "cpu_features",
        Json::Arr(
            Kernels::detected_features()
                .into_iter()
                .map(Json::from)
                .collect(),
        ),
    );
    json.push("simd_dispatch", auto_k.dispatch());

    // Headline rows time the kernels at streaming depth (β=2048); the
    // nested inference_shape row keeps the β=150 tiled-vs-per-pair
    // comparison the reconstruction pipeline actually sees.
    let mut pair = Json::object();
    pair.push("n", n_deep as u64);
    pair.push("beta", beta_deep as u64);
    pair.push("tile_size", deep_cols.pair_tile_size() as u64);
    pair.push("dispatch", auto_k.dispatch());
    pair.push("per_pair_s", deep_ref);
    pair.push("tiled_s", deep_tiled);
    pair.push("speedup", deep_ref / deep_tiled);
    pair.push("simd_s", deep_simd);
    pair.push("simd_speedup", deep_ref / deep_simd);
    pair.push("scalar_s", deep_scalar);
    pair.push("scalar_speedup", deep_ref / deep_scalar);
    let mut pair_inf = Json::object();
    pair_inf.push("n", n_large as u64);
    pair_inf.push("beta", beta as u64);
    pair_inf.push("tile_size", large_cols.pair_tile_size() as u64);
    pair_inf.push("per_pair_s", pair_ref);
    pair_inf.push("tiled_s", pair_tiled);
    pair_inf.push("speedup", pair_ref / pair_tiled);
    pair.push("inference_shape", pair_inf);
    json.push("pair_kernel", pair);

    json.push("imi_matrix", scaling_row(n_large, imi_1, imi_8));
    json.push("dense_stage", dense_stage);
    json.push("reconstruction", scaling_row(n_small, rec_1, rec_8));

    let rows: Vec<Json> = kernels
        .iter()
        .map(|k| {
            let mut row = Json::object();
            row.push("n", k.n as u64);
            row.push("recursive_s", k.recursive_s);
            row.push("workspace_s", k.workspace_s);
            row.push("speedup", k.recursive_s / k.workspace_s);
            row
        })
        .collect();
    json.push("counting_kernel", rows);

    let mut greedy = Json::object();
    greedy.push("n", n_small as u64);
    greedy.push("reference_s", greedy_ref);
    greedy.push("cached_workspace_s", greedy_ws);
    greedy.push("speedup", greedy_ref / greedy_ws);
    greedy.push("score_cache_hits", cache_totals.hits);
    greedy.push("score_cache_misses", cache_totals.misses);
    json.push("greedy_search", greedy);

    let mut ck = Json::object();
    ck.push("n", n_small as u64);
    ck.push("interval_nodes", ck_interval as u64);
    ck.push("plain_s", plain_s);
    ck.push("checkpointed_s", checkpointed_s);
    ck.push("overhead_ratio", checkpointed_s / plain_s);
    json.push("checkpoint_overhead", ck);

    let mut append_row = Json::object();
    append_row.push("n", n_large as u64);
    append_row.push("base_processes", append_base_beta as u64);
    append_row.push("appended_processes", append_beta as u64);
    append_row.push("full_rerun_s", full_rerun_s);
    append_row.push("incremental_s", incremental_s);
    append_row.push("speedup", full_rerun_s / incremental_s);
    append_row.push("dirty_nodes", append_dirty);
    append_row.push("nodes_reused", append_reused);
    json.push("incremental_append", append_row);

    let mut serve = Json::object();
    serve.push("n", n_small as u64);
    serve.push("healthz_rps", best_keepalive.ok_rps());
    serve.push("healthz_p50_s", best_keepalive.hist.quantile(0.50));
    serve.push("healthz_p95_s", best_keepalive.hist.quantile(0.95));
    serve.push("healthz_p99_s", best_keepalive.hist.quantile(0.99));
    let mut throughput = Vec::new();
    for (connections, keep_alive, r) in &curves {
        let mut row = Json::object();
        row.push("connections", *connections as u64);
        row.push("keep_alive", *keep_alive);
        row.push("rps", r.ok_rps());
        row.push("requests", r.requests);
        row.push("errors", r.requests - r.ok);
        row.push("p50_s", r.hist.quantile(0.50));
        row.push("p95_s", r.hist.quantile(0.95));
        row.push("p99_s", r.hist.quantile(0.99));
        throughput.push(row);
    }
    serve.push("throughput", Json::Arr(throughput));
    serve.push("submit_to_done_s", submit_to_done_s);
    serve.push("submit_to_done_p50_s", submit_hist.quantile(0.50));
    serve.push("submit_to_done_p95_s", submit_hist.quantile(0.95));
    serve.push("submit_to_done_p99_s", submit_hist.quantile(0.99));
    json.push("serve_loopback", serve);

    let mut streaming = Json::object();
    streaming.push("n", n_stream as u64);
    streaming.push("beta", beta_stream as u64);
    streaming.push("threads", stream_threads as u64);
    streaming.push("memory_budget_bytes", stream_budget);
    streaming.push("tau_sample_s", tau_sample_s);
    streaming.push("tau_sample_pairs", tau_sample.sampled_pairs);
    streaming.push("tau_sample_stride", tau_sample.stride);
    streaming.push("tau", tau_sample.kmeans.tau);
    streaming.push("fold_s", fold_s);
    streaming.push("scanned_pairs", fold.scanned_pairs);
    streaming.push("pairs_per_s", fold.scanned_pairs as f64 / fold_s);
    streaming.push("tiles", fold.tiles);
    streaming.push("pairs_above_tau", fold.pairs_above_tau);
    streaming.push("candidate_evictions", fold.candidate_evictions);
    streaming.push("peak_rss_bytes", stream_profile.peak_rss_bytes);
    streaming.push(
        "under_budget",
        stream_profile.peak_rss_bytes < stream_budget,
    );
    json.push("streaming_imi", streaming);

    json.push("tends_run_report", run_report.to_json());

    let text = json.to_pretty();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_micro.json");
    std::fs::write(path, &text).expect("write BENCH_micro.json");
    println!("{text}");
    eprintln!("perf_report: wrote {path}");
}
