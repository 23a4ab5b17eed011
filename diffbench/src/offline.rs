//! The offline workloads: what `diffnet infer` does, status bytes in and
//! an edge list out, on the dense pipeline (`offline_dense`) and on the
//! streamed pipeline under a memory budget (`offline_streamed`).
//!
//! Each inference runs in a worker process (this binary's `worker`
//! subcommand), so its peak RSS is the inference's own and excludes the
//! set-up's allocations.

use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use diffnet_graph::DiGraph;
use diffnet_observe::{parse_json, Json, Recorder};
use diffnet_tends::{RobustOptions, Tends, TendsConfig};

use crate::inputs;
use crate::report::{candidate_stage_s, counters_json, expected_digest, GateStore, Outcome};
use crate::stats::{fnv1a, median};
use crate::trace::{Span, Tracer};
use crate::Ctx;

/// Counters that must repeat exactly for one input and configuration.
const EXACT_COUNTERS: [&str; 7] = [
    "correlation_pairs",
    "combinations_scored",
    "score_cache_hits",
    "score_cache_misses",
    "correlation_tiles",
    "pairs_above_tau",
    "candidate_evictions",
];

const BETA: usize = 500;
const THREADS: usize = 2;
const STREAM_BUDGET: u64 = 256 << 20;
const SETUP_REPS: usize = 9;
/// Inferences each run makes at least, however long they take.
const MIN_REPS: usize = 3;

#[derive(Clone, Copy, PartialEq)]
enum Pipeline {
    Dense,
    Streamed,
}

impl Pipeline {
    fn name(self) -> &'static str {
        match self {
            Pipeline::Dense => "dense",
            Pipeline::Streamed => "streamed",
        }
    }
}

/// What one worker process measured.
struct Infer {
    infer_s: f64,
    parse_s: f64,
    reconstruct_s: f64,
    write_s: f64,
    reconstruct_cpu_s: f64,
    maxrss_bytes: f64,
    phases: BTreeMap<String, f64>,
    counters: BTreeMap<String, u64>,
    /// Spans relative to the worker's clock start.
    spans: Vec<(String, Option<usize>, f64, f64)>,
    digest: u64,
}

pub fn run(ctx: &Ctx, streamed: bool) -> Result<Outcome, String> {
    let pipeline = if streamed {
        Pipeline::Streamed
    } else {
        Pipeline::Dense
    };
    let n = if streamed { 10_000 } else { 3_000 };
    let mut out = Outcome::default();
    let input = ctx.run_dir.join("statuses.txt");

    // Set-up: generate and serialize the input, several times, timing each.
    let mut setup = Vec::new();
    let mut truth = None;
    let mut input_digest = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let (graph, statuses) = inputs::lfr_statuses(n, BETA, inputs::sub_seed(ctx.seed, 0));
        let bytes = inputs::to_bytes(&statuses);
        std::fs::write(&input, &bytes).map_err(|e| format!("write input: {e}"))?;
        setup.push(t.elapsed().as_secs_f64());
        let d = fnv1a(&bytes);
        out.gate(input_digest.is_none_or(|p| p == d), || {
            "input generation is not a pure function of the seed".to_string()
        });
        input_digest = Some(d);
        truth = Some(graph);
    }
    let truth = truth.expect("at least one set-up rep");
    out.set(
        "setup_s",
        median(&setup).expect("set-up reps"),
        format!("median of {SETUP_REPS} input generations"),
    );
    out.line(format!("e2e setup_s samples = {setup:?}"));

    // One recorded inference before the window: it warms the caches and
    // gives the digest and counters the gates check.
    let gate = infer(ctx, pipeline, THREADS, true, &input)?;
    check_edges(ctx, &mut out, &gate, &truth, pipeline)?;
    let mut store = GateStore::open(ctx.state_file());
    store.exact(
        &mut out,
        "edges_digest",
        Json::from(format!("{:016x}", gate.digest)),
    );
    if let Some(expected) = expected_digest(&ctx.root, ctx.workload, ctx.seed) {
        let got = format!("{:016x}", gate.digest);
        out.gate(got == expected, || {
            format!("edge-list digest {got} differs from the recorded {expected}")
        });
        out.line(format!(
            "gate expected_digest matched = {}",
            got == expected
        ));
    }
    store.exact(
        &mut out,
        "counters_threads_2",
        counters_json(&gate.counters, &EXACT_COUNTERS),
    );

    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut single = Vec::new();
    while plain.len() < MIN_REPS || Instant::now() < deadline {
        plain.push(infer(ctx, pipeline, THREADS, false, &input)?);
        if ctx.tracer.enabled() {
            traced.push(infer(ctx, pipeline, THREADS, true, &input)?);
            single.push(infer(ctx, pipeline, 1, false, &input)?);
        }
    }
    for r in plain.iter().chain(&traced).chain(&single) {
        out.op(if r.digest == gate.digest {
            Ok(())
        } else {
            Err(format!(
                "edge list {:016x} differs within one run (expected {:016x})",
                r.digest, gate.digest
            ))
        });
    }
    for r in &traced {
        out.gate(
            counters_json(&r.counters, &EXACT_COUNTERS).to_compact()
                == counters_json(&gate.counters, &EXACT_COUNTERS).to_compact(),
            || "work counters differ between inferences of one input".to_string(),
        );
    }

    let infer_s = median_of(&plain, |r| r.infer_s).expect("at least one rep");
    let reps = plain.len();
    out.set(
        "op_p50_s",
        infer_s,
        format!("infer_s: median of {reps} inferences, threads={THREADS}"),
    );
    out.set(
        "peak_rss_bytes",
        median_of(&plain, |r| r.maxrss_bytes).expect("reps"),
        format!("median over {reps} inference processes of their peak RSS"),
    );
    out.line(format!(
        "e2e infer_s = {infer_s} s (median of {reps}, threads={THREADS}, {} pipeline)",
        pipeline.name()
    ));
    out.line(format!(
        "e2e infer_s samples = {:?}",
        plain.iter().map(|r| r.infer_s).collect::<Vec<_>>()
    ));

    if ctx.tracer.enabled() {
        layer_metrics(&mut out, pipeline, &plain, &traced, &single, &gate);
        for r in &traced {
            r.record_spans(&ctx.tracer);
        }
    }
    store.save().map_err(|e| format!("save gate state: {e}"))?;
    Ok(out)
}

/// Median over `rs` of one measured field.
fn median_of(rs: &[Infer], field: fn(&Infer) -> f64) -> Option<f64> {
    median(&rs.iter().map(field).collect::<Vec<_>>())
}

fn layer_metrics(
    out: &mut Outcome,
    pipeline: Pipeline,
    plain: &[Infer],
    traced: &[Infer],
    single: &[Infer],
    gate: &Infer,
) {
    let k = traced.len();
    let src = |what: &str| format!("{what}, median of {k} traced inferences");
    let phase = |name: &str| {
        median(
            &traced
                .iter()
                .filter_map(|r| r.phases.get(name).copied())
                .collect::<Vec<_>>(),
        )
    };
    let c = |name: &str| gate.counters.get(name).copied().unwrap_or(0) as f64;

    out.set_opt(
        "simulate.io.parse_s",
        median_of(traced, |r| r.parse_s),
        src("span around diffnet_simulate::io read"),
    );
    out.set_opt(
        "graph.io.write_s",
        median_of(traced, |r| r.write_s),
        src("span around write_edge_list"),
    );
    out.set_opt(
        "edges.output_s",
        median_of(traced, |r| r.write_s),
        src("graph.io.write_s: span around write_edge_list"),
    );
    out.set_opt(
        "tends.candidates_s",
        median(
            &traced
                .iter()
                .filter_map(|r| candidate_stage_s(&r.phases))
                .collect::<Vec<_>>(),
        ),
        src("sum of recorder phases before parent_search"),
    );
    out.set_opt(
        "tends.search.parent_search_s",
        phase("parent_search"),
        src("recorder phase parent_search"),
    );
    out.set(
        "tends.search.combinations_scored",
        c("combinations_scored"),
        "recorder counter combinations_scored",
    );
    let (hits, misses) = (c("score_cache_hits"), c("score_cache_misses"));
    out.set(
        "tends.search.cache_hit_ratio",
        hits / (hits + misses),
        "recorder counters score_cache_hits / (hits + misses)",
    );
    let cpu = traced
        .iter()
        .map(|r| r.reconstruct_cpu_s / (r.reconstruct_s * THREADS as f64))
        .collect::<Vec<_>>();
    out.set_opt(
        "tends.parallel.cpu_util",
        median(&cpu),
        src("getrusage CPU s / (wall s x threads) around reconstruction"),
    );
    let t1 = median_of(single, |r| r.infer_s);
    let t2 = median_of(plain, |r| r.infer_s);
    if let (Some(t1), Some(t2)) = (t1, t2) {
        out.set(
            "tends.parallel.speedup",
            t1 / t2,
            format!("infer_s threads=1 ({t1} s) / threads={THREADS} ({t2} s), untraced"),
        );
    }
    if let (Some(tr), Some(t2)) = (median_of(traced, |r| r.infer_s), t2) {
        out.set(
            "observe.tracing_overhead_ratio",
            tr / t2,
            format!("traced infer_s ({tr} s) / untraced ({t2} s)"),
        );
    }
    match pipeline {
        Pipeline::Dense => {
            out.set_opt(
                "simulate.status.columns_s",
                phase("status_columns"),
                src("recorder phase status_columns"),
            );
            let corr = phase("correlation_matrix");
            out.set_opt(
                "tends.imi.correlation_s",
                corr,
                src("recorder phase correlation_matrix"),
            );
            out.set_opt(
                "tends.imi.pairs_per_s",
                corr.map(|s| c("correlation_pairs") / s),
                "counter correlation_pairs / phase correlation_matrix",
            );
            out.set_opt(
                "tends.kmeans.threshold_s",
                phase("threshold"),
                src("recorder phase threshold"),
            );
            out.set_opt(
                "tends.search.candidate_pruning_s",
                phase("candidate_pruning"),
                src("recorder phase candidate_pruning"),
            );
        }
        Pipeline::Streamed => {
            out.set_opt(
                "tends.stream.tau_sample_s",
                phase("tau_sample"),
                src("recorder phase tau_sample"),
            );
            let fold = phase("streamed_fold");
            out.set_opt(
                "tends.stream.fold_s",
                fold,
                src("recorder phase streamed_fold"),
            );
            out.set_opt(
                "tends.stream.pairs_per_s",
                fold.map(|s| c("correlation_pairs") / s),
                "counter correlation_pairs / phase streamed_fold",
            );
            out.set(
                "tends.stream.eviction_ratio",
                c("candidate_evictions") / c("pairs_above_tau"),
                "counters candidate_evictions / pairs_above_tau",
            );
        }
    }
}

/// Checks the gate inference's edge list and scores it against the
/// generating graph.
fn check_edges(
    ctx: &Ctx,
    out: &mut Outcome,
    gate: &Infer,
    truth: &DiGraph,
    pipeline: Pipeline,
) -> Result<(), String> {
    let edges =
        std::fs::read(ctx.run_dir.join("edges.txt")).map_err(|e| format!("read edges: {e}"))?;
    let inferred = diffnet_graph::io::read_edge_list(&edges[..], Some(truth.node_count()))
        .map_err(|e| format!("inferred edge list does not parse: {e}"))?;
    let f = diffnet_metrics::EdgeSetComparison::against_truth(truth, &inferred).f_score();
    out.set(
        "f_score",
        f,
        "F-score of the inferred edges against the generating graph",
    );
    out.line(format!(
        "e2e f_score = {f} ratio ({} inferred edges, {} true, {} pipeline, digest {:016x})",
        inferred.edge_count(),
        truth.edge_count(),
        pipeline.name(),
        gate.digest
    ));
    Ok(())
}

/// Runs one inference in a worker process and collects what it measured.
fn infer(
    ctx: &Ctx,
    pipeline: Pipeline,
    threads: usize,
    record: bool,
    input: &Path,
) -> Result<Infer, String> {
    let edges = ctx.run_dir.join("edges.txt");
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let spawned = Instant::now();
    let child = Command::new(exe)
        .args([
            "worker",
            pipeline.name(),
            &threads.to_string(),
            if record { "1" } else { "0" },
        ])
        .arg(input)
        .arg(&edges)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn worker: {e}"))?;
    let output = child
        .wait_with_output()
        .map_err(|e| format!("wait for worker: {e}"))?;
    if !output.status.success() {
        return Err(format!("inference worker failed: {}", output.status));
    }
    let text = String::from_utf8_lossy(&output.stdout);
    let j = parse_json(text.trim()).map_err(|e| format!("worker output: {e}"))?;
    let num = |k: &str| {
        j.get(k)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("worker output lacks {k}"))
    };
    let map = |k: &str| -> BTreeMap<String, f64> {
        j.get(k)
            .and_then(Json::as_obj)
            .map(|o| {
                o.iter()
                    .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                    .collect()
            })
            .unwrap_or_default()
    };
    let offset = ctx.tracer.offset(spawned);
    let spans = j
        .get("spans")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|s| {
            Some((
                s.get("name")?.as_str()?.to_string(),
                s.get("parent").and_then(Json::as_f64).map(|p| p as usize),
                offset + s.get("start_s")?.as_f64()?,
                offset + s.get("end_s")?.as_f64()?,
            ))
        })
        .collect();
    let digest = fnv1a(&std::fs::read(&edges).map_err(|e| format!("read edges: {e}"))?);
    Ok(Infer {
        infer_s: num("infer_s")?,
        parse_s: num("parse_s")?,
        reconstruct_s: num("reconstruct_s")?,
        write_s: num("write_s")?,
        reconstruct_cpu_s: num("reconstruct_cpu_s")?,
        maxrss_bytes: num("maxrss_bytes")?,
        phases: map("phases"),
        counters: map("counters")
            .into_iter()
            .map(|(k, v)| (k, v as u64))
            .collect(),
        spans,
        digest,
    })
}

impl Infer {
    fn record_spans(&self, tracer: &Tracer) {
        let op = tracer.next_id();
        let ids: Vec<u64> = self.spans.iter().map(|_| tracer.next_id()).collect();
        for (i, (name, parent, start_s, end_s)) in self.spans.iter().enumerate() {
            tracer.push(Span {
                id: ids[i],
                parent: parent.map(|p| ids[p]),
                op,
                name: name.clone(),
                start_s: *start_s,
                end_s: *end_s,
            });
        }
    }
}

/// `worker <dense|streamed> <threads> <record 0|1> <input> <edges-out>`:
/// one inference, timed from status bytes in memory to the edge list
/// written, printed as one JSON object.
pub fn worker_main(args: &[String]) -> Result<(), String> {
    let [mode, threads, record, input, out_path] = args else {
        return Err("usage: worker <dense|streamed> <threads> <0|1> <input> <edges>".into());
    };
    let threads: usize = threads.parse().map_err(|_| "bad thread count")?;
    let owned;
    let rec: &Recorder = if record == "1" {
        owned = Recorder::new();
        &owned
    } else {
        Recorder::disabled()
    };
    let clock = Instant::now();
    let bytes = std::fs::read(input).map_err(|e| format!("read {input}: {e}"))?;
    let cfg = TendsConfig {
        threads,
        memory_budget: (mode == "streamed").then_some(STREAM_BUDGET),
        ..Default::default()
    };

    let t0 = Instant::now();
    let since = |t: Instant| t.duration_since(clock).as_secs_f64();
    let (graph, parse_end, cpu) = if mode == "streamed" {
        let cols =
            diffnet_simulate::io::read_status_columns(&bytes).map_err(|e| format!("parse: {e}"))?;
        let parse_end = Instant::now();
        let u0 = crate::sys::self_usage();
        let partial = Tends::with_config(cfg)
            .reconstruct_robust_from_columns(&cols, rec, &RobustOptions::default())
            .map_err(|e| format!("reconstruct: {e}"))?;
        if !partial.is_complete() {
            return Err(format!("{} nodes failed", partial.failed_nodes.len()));
        }
        let cpu = crate::sys::self_usage().cpu_s - u0.cpu_s;
        (partial.result.graph, parse_end, cpu)
    } else {
        let m = diffnet_simulate::io::read_status_matrix(&bytes[..])
            .map_err(|e| format!("parse: {e}"))?;
        let parse_end = Instant::now();
        let u0 = crate::sys::self_usage();
        let result = Tends::with_config(cfg)
            .reconstruct_observed(&m, rec)
            .map_err(|e| format!("reconstruct: {e}"))?;
        let cpu = crate::sys::self_usage().cpu_s - u0.cpu_s;
        (result.graph, parse_end, cpu)
    };
    let rec_end = Instant::now();
    let file = std::fs::File::create(out_path).map_err(|e| format!("create {out_path}: {e}"))?;
    let mut w = BufWriter::new(file);
    diffnet_graph::io::write_edge_list(&graph, &mut w).map_err(|e| format!("write edges: {e}"))?;
    w.flush().map_err(|e| format!("write edges: {e}"))?;
    drop(w);
    let end = Instant::now();
    let usage = crate::sys::self_usage();

    let mut j = Json::object();
    j.push("infer_s", end.duration_since(t0).as_secs_f64());
    j.push("parse_s", parse_end.duration_since(t0).as_secs_f64());
    j.push(
        "reconstruct_s",
        rec_end.duration_since(parse_end).as_secs_f64(),
    );
    j.push("write_s", end.duration_since(rec_end).as_secs_f64());
    j.push("reconstruct_cpu_s", cpu);
    j.push("maxrss_bytes", usage.maxrss_bytes);
    let snap = rec.snapshot();
    let mut phases = Json::object();
    for (name, secs) in &snap.phases {
        phases.push(*name, *secs);
    }
    j.push("phases", phases);
    let mut counters = Json::object();
    for (name, v) in &snap.counters {
        counters.push(*name, *v);
    }
    j.push("counters", counters);
    if rec.is_enabled() {
        // Spans: the inference (0), its three stages (parents 0), and the
        // recorder's pipeline phases under the reconstruction (2).
        let mut spans = vec![
            span_json("offline.infer", None, since(t0), since(end)),
            span_json("simulate.io.parse", Some(0), since(t0), since(parse_end)),
            span_json(
                "tends.reconstruct",
                Some(0),
                since(parse_end),
                since(rec_end),
            ),
            span_json("graph.io.write", Some(0), since(rec_end), since(end)),
        ];
        let base = since(parse_end);
        for s in snap.spans.iter().filter(|s| s.parent.is_none()) {
            spans.push(span_json(
                &format!("tends.{}", s.name),
                Some(2),
                base + s.start_s,
                base + s.end_s,
            ));
        }
        j.push("spans", Json::Arr(spans));
    }
    println!("{}", j.to_compact());
    Ok(())
}

fn span_json(name: &str, parent: Option<usize>, start_s: f64, end_s: f64) -> Json {
    let mut s = Json::object();
    s.push("name", name);
    s.push("parent", parent.map_or(Json::Null, Json::from));
    s.push("start_s", start_s);
    s.push("end_s", end_s);
    s
}
