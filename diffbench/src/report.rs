//! Metric tables, correctness gates, the host record and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use diffnet_observe::{parse_json, Json};

/// End-to-end metrics: every workload reports each of them, with tracing
/// off. `op_p50_s` is the median of the workload's unit of work.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("op_p50_s", "s"),
    ("peak_rss_bytes", "bytes"),
    ("f_score", "ratio"),
];

/// Per-layer metrics of the traced run's result line. Every workload
/// measures each of them: `tends.candidates_s` sums the phases listed in
/// [`CANDIDATE_PHASES`] that its pipeline runs, and `edges.output_s` is
/// `graph.io.write_s` offline and `serve.client.edges_s` on a daemon.
pub const PER_LAYER: [(&str, &str); 6] = [
    ("simulate.io.parse_s", "s"),
    ("tends.candidates_s", "s"),
    ("tends.search.parent_search_s", "s"),
    ("tends.search.combinations_scored", "count"),
    ("tends.search.cache_hit_ratio", "ratio"),
    ("edges.output_s", "s"),
];

/// The finer layer breakdown of the traced run, printed as `layer` lines
/// before the result line. A workload that bypasses a layer prints it as
/// absent.
pub const LAYERS: [(&str, &str); 38] = [
    ("simulate.status.columns_s", "s"),
    ("tends.imi.correlation_s", "s"),
    ("tends.imi.pairs_per_s", "1/s"),
    ("tends.kmeans.threshold_s", "s"),
    ("tends.search.candidate_pruning_s", "s"),
    ("tends.stream.tau_sample_s", "s"),
    ("tends.stream.fold_s", "s"),
    ("tends.stream.pairs_per_s", "1/s"),
    ("tends.stream.eviction_ratio", "ratio"),
    ("tends.parallel.cpu_util", "ratio"),
    ("tends.parallel.speedup", "ratio"),
    ("tends.append.stats_append_s", "s"),
    ("tends.append.load_statuses_s", "s"),
    ("tends.append.dirty_ratio", "ratio"),
    ("graph.io.write_s", "s"),
    ("serve.client.submit_s", "s"),
    ("serve.client.wait_s", "s"),
    ("serve.client.edges_s", "s"),
    ("serve.client.append_post_s", "s"),
    ("serve.job.run_s", "s"),
    ("serve.job.residual_s", "s"),
    ("serve.reactor.wakeups_per_request", "ratio"),
    ("serve.http.keepalive_reuse_ratio", "ratio"),
    ("serve.http.healthz_server_p50_s", "s"),
    ("serve.http.job_status_server_p99_s", "s"),
    ("serve.process.cpu_s_per_request", "s"),
    ("serve.process.peak_rss_bytes", "bytes"),
    ("serve.http.rejected", "count"),
    ("observe.tracing_overhead_ratio", "ratio"),
    ("observe.access_log_bytes_per_request", "bytes"),
    ("driver.lag_p99_s", "s"),
    ("driver.probe_p50_s", "s"),
    ("driver.probe_tail_s", "s"),
    ("driver.job_p50_s", "s"),
    ("driver.job_tail_s", "s"),
    ("driver.read_p50_s", "s"),
    ("driver.read_tail_s", "s"),
    ("driver.error_ratio", "ratio"),
];

/// Pipeline phases between loading the statuses and the parent search:
/// pairwise statistics (IMI) and candidate selection, under the names the
/// dense, streamed and append pipelines give them.
pub const CANDIDATE_PHASES: [&str; 6] = [
    "correlation_matrix",
    "threshold",
    "candidate_pruning",
    "tau_sample",
    "streamed_fold",
    "stats_append",
];

/// Seconds spent in [`CANDIDATE_PHASES`], if the pipeline ran any of them.
pub fn candidate_stage_s(phases: &BTreeMap<String, f64>) -> Option<f64> {
    let parts: Vec<f64> = CANDIDATE_PHASES
        .iter()
        .filter_map(|&p| phases.get(p).copied())
        .collect();
    (!parts.is_empty()).then(|| parts.iter().sum())
}

/// A measured value and where it came from.
#[derive(Clone, Debug)]
pub struct Value {
    pub value: f64,
    pub source: String,
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, Value>,
    /// Human-readable lines printed before the result (the workload's own
    /// metric names, sample counts, percentiles).
    pub lines: Vec<String>,
    /// Why operations failed or gates did not hold; any entry fails the run.
    pub failures: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64, source: impl Into<String>) {
        self.metrics.insert(
            name,
            Value {
                value,
                source: source.into(),
            },
        );
    }

    pub fn set_opt(&mut self, name: &'static str, value: Option<f64>, source: impl Into<String>) {
        if let Some(v) = value {
            self.set(name, v, source);
        }
    }

    pub fn line(&mut self, text: impl Into<String>) {
        self.lines.push(text.into());
    }

    /// Counts a failure of an operation already counted as attempted.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }

    /// Records one operation, failed when `result` is an error.
    pub fn op(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.fail(why);
        }
    }

    /// Records a correctness gate; it counts as an operation, so a gate
    /// that does not hold counts in `failed` and fails the run.
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.op(if ok { Ok(()) } else { Err(what()) });
    }

    /// Prints the metric lines and returns them with the result line, or
    /// names a metric of the result line that the run did not measure as
    /// a positive number.
    pub fn render(&self, workload: &str, trace: bool) -> Result<String, String> {
        let mut out = String::new();
        for l in &self.lines {
            let _ = writeln!(out, "{l}");
        }
        if trace {
            for &(name, unit) in &LAYERS {
                match self.metrics.get(name) {
                    Some(v) => {
                        let _ = writeln!(out, "layer {name} = {} {unit}  [{}]", v.value, v.source);
                    }
                    None => {
                        let _ =
                            writeln!(out, "layer {name} absent: {workload} bypasses this layer");
                    }
                }
            }
        }
        let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let mut metrics = Json::object();
        for &(name, unit) in table {
            let v = self
                .metrics
                .get(name)
                .ok_or_else(|| format!("{workload} did not measure {name}"))?;
            if !(v.value.is_finite() && v.value > 0.0) {
                return Err(format!(
                    "{workload} measured {name} = {}, not a positive number",
                    v.value
                ));
            }
            let _ = writeln!(out, "metric {name} = {} {unit}  [{}]", v.value, v.source);
            let mut m = Json::object();
            m.push("value", v.value);
            m.push("unit", unit);
            metrics.push(name, m);
        }
        for f in &self.failures {
            let _ = writeln!(out, "FAILED: {f}");
        }
        let mut result = Json::object();
        result.push("correct", self.failed == 0);
        result.push("attempted", self.attempted.max(1));
        result.push("failed", self.failed);
        result.push("metrics", metrics);
        let _ = writeln!(out, "{}", result.to_compact());
        Ok(out)
    }
}

/// Values that must repeat exactly across runs of one seed (edge-list
/// digests and work counters), kept between runs in the run directory.
pub struct GateStore {
    path: PathBuf,
    previous: Option<Json>,
    current: Json,
}

impl GateStore {
    pub fn open(path: PathBuf) -> GateStore {
        let previous = std::fs::read_to_string(&path)
            .ok()
            .and_then(|text| parse_json(&text).ok());
        GateStore {
            path,
            previous,
            current: Json::object(),
        }
    }

    /// Compares `value` under `key` with the last run of this seed and
    /// remembers it for the next one.
    pub fn exact(&mut self, out: &mut Outcome, key: &str, value: Json) {
        if let Some(before) = self.previous.as_ref().and_then(|p| p.get(key)) {
            let same = before.to_compact() == value.to_compact();
            out.gate(same, || {
                format!(
                    "{key} differs from an earlier run of this seed: {} then {}",
                    before.to_compact(),
                    value.to_compact()
                )
            });
        }
        self.current.push(key, value);
    }

    /// Writes the values seen, keeping earlier keys this run did not reach.
    pub fn save(self) -> std::io::Result<()> {
        let mut merged = self.current;
        if let Some(Json::Obj(fields)) = self.previous {
            for (k, v) in fields {
                if merged.get(&k).is_none() {
                    merged.push(k, v);
                }
            }
        }
        std::fs::write(&self.path, merged.to_pretty())
    }
}

/// A counter map as JSON, keeping only the named counters.
pub fn counters_json(counters: &BTreeMap<String, u64>, names: &[&str]) -> Json {
    let mut j = Json::object();
    for &name in names {
        if let Some(&v) = counters.get(name) {
            j.push(name, v);
        }
    }
    j
}

/// The expected edge-list digest of `workload` at `seed`, if recorded.
pub fn expected_digest(root: &Path, workload: &str, seed: u64) -> Option<String> {
    let text = std::fs::read_to_string(root.join("diffbench/expected_digests.txt")).ok()?;
    text.lines().filter(|l| !l.starts_with('#')).find_map(|l| {
        let mut f = l.split_whitespace();
        (f.next()? == workload && f.next()?.parse::<u64>().ok()? == seed)
            .then(|| f.next().map(str::to_string))?
    })
}

/// Host record printed with every run, so rows stay interpretable.
pub fn host_lines(ctx: &crate::Ctx) -> Vec<String> {
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    let features = diffnet_simulate::Kernels::detected_features().join(",");
    let dispatch = diffnet_simulate::simd::kernels().dispatch();
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(&ctx.root)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unavailable (not a git checkout)".to_string());
    vec![
        format!("host nproc = {nproc}"),
        format!("host cpu_features = {features}"),
        format!("host simd_dispatch = {dispatch}"),
        format!("host kernel = {}", crate::sys::kernel_release()),
        format!("host git_commit = {commit}"),
        format!("host source_digest = {:016x}", ctx.source_digest),
        format!("host seed = {}", ctx.seed),
    ]
}

/// Digest of the program's sources (manifests and `crates/**/*.rs`), which
/// identifies the code measured where no git commit is available.
pub fn source_digest(root: &Path) -> u64 {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut all = Vec::new();
    for f in files {
        all.extend_from_slice(
            f.strip_prefix(root)
                .unwrap_or(&f)
                .to_string_lossy()
                .as_bytes(),
        );
        all.extend(std::fs::read(&f).unwrap_or_default());
    }
    crate::stats::fnv1a(&all)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables here and in `BENCHMARK.json` must agree.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside diffbench/");
        let spec = parse_json(&text).expect("BENCHMARK.json parses");
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(String, String)> = spec
                .get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(Json::as_str)
                            .expect("name and unit")
                            .to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = table
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key} differs from BENCHMARK.json");
        }
    }
}
