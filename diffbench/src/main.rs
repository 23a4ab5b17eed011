//! The diffnet benchmark: one workload per run, measured end to end with
//! tracing off (`--trace 0`) or layer by layer (`--trace 1`).
//!
//! ```text
//! diffnet-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> --diffnet <daemon binary>
//! ```
//!
//! Metric lines go to stdout, one per metric, and the last line is the
//! result object `{"correct", "attempted", "failed", "metrics"}`. The exit
//! code is non-zero when a correctness or exact-count gate fails. See
//! `diffbench/README.md` for the workloads and the metric tables.

mod daemon;
mod inputs;
mod offline;
mod report;
mod stats;
mod sys;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Outcome;
use trace::Tracer;

pub const WORKLOADS: [&str; 4] = [
    "offline_dense",
    "offline_streamed",
    "daemon_jobs",
    "daemon_append",
];

/// Everything a workload needs from the command line.
pub struct Ctx {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub tracer: Tracer,
    /// The checkout root (the working directory).
    pub root: PathBuf,
    /// This run's working directory, emptied at the start of the run.
    pub run_dir: PathBuf,
    /// The `diffnet` binary the daemon workloads start.
    pub diffnet: PathBuf,
    /// Digest of the program's sources: which code this run measures.
    pub source_digest: u64,
}

impl Ctx {
    /// Where values that must repeat across runs of this seed are kept.
    /// Keyed by the source digest: another version of the program may
    /// legitimately do different work, so only runs of the same code are
    /// compared.
    pub fn state_file(&self) -> PathBuf {
        let trace = if self.tracer.enabled() { 1 } else { 0 };
        self.root.join(".bench_runs/state").join(format!(
            "{}-seed{}-trace{trace}-{:016x}.json",
            self.workload, self.seed, self.source_digest
        ))
    }
}

fn parse_args(args: &[String]) -> Result<Ctx, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut diffnet = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                workload = Some(
                    WORKLOADS
                        .into_iter()
                        .find(|&k| k == w)
                        .ok_or_else(|| format!("unknown workload {w:?} (one of {WORKLOADS:?})"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--diffnet" => diffnet = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let root = std::env::current_dir().map_err(|e| format!("working directory: {e}"))?;
    let run_dir = root.join(".bench_runs").join(workload);
    let _ = std::fs::remove_dir_all(&run_dir);
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("create {}: {e}", run_dir.display()))?;
    std::fs::create_dir_all(root.join(".bench_runs/state"))
        .map_err(|e| format!("create state dir: {e}"))?;
    Ok(Ctx {
        workload,
        seed,
        seconds,
        tracer: Tracer::new(trace),
        run_dir,
        diffnet: diffnet.ok_or("--diffnet is required")?,
        source_digest: report::source_digest(&root),
        root,
    })
}

fn run(ctx: &Ctx) -> Result<Outcome, String> {
    match ctx.workload {
        "offline_dense" => offline::run(ctx, false),
        "offline_streamed" => offline::run(ctx, true),
        "daemon_jobs" => daemon::run_jobs(ctx),
        "daemon_append" => daemon::run_append(ctx),
        _ => unreachable!("parse_args accepts only known workloads"),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "worker") {
        return match offline::worker_main(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("worker: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let ctx = match parse_args(&args) {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("diffnet-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    for line in report::host_lines(&ctx) {
        println!("{line}");
    }
    println!(
        "workload {} seconds {} trace {}",
        ctx.workload,
        ctx.seconds,
        ctx.tracer.enabled()
    );
    let mut outcome = match run(&ctx) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("diffnet-benchmark: {} failed: {e}", ctx.workload);
            return ExitCode::FAILURE;
        }
    };
    let error_ratio = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    outcome.line(format!(
        "e2e error_ratio = {error_ratio} ({} failed of {} attempted)",
        outcome.failed, outcome.attempted
    ));
    outcome.set(
        "driver.error_ratio",
        error_ratio,
        "failed / attempted operations in the window",
    );
    if ctx.tracer.enabled() {
        let path = ctx.run_dir.join("trace.json");
        if let Err(e) = std::fs::write(&path, ctx.tracer.to_json().to_pretty()) {
            eprintln!("diffnet-benchmark: write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("trace spans -> {}", path.display());
    }
    match outcome.render(ctx.workload, ctx.tracer.enabled()) {
        Ok(text) => print!("{text}"),
        Err(e) => {
            eprintln!("diffnet-benchmark: {e}");
            return ExitCode::FAILURE;
        }
    }
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
