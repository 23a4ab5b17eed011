//! The durable job queue behind the daemon.
//!
//! Every job lives in its own directory under the server data dir:
//!
//! ```text
//! data/job-7/
//!   job.json             # JobMeta — id, spec, state, revision, shape, errors
//!   statuses.txt         # the uploaded input (tends jobs); written once
//!   observations.txt     # the uploaded observation set (baseline jobs)
//!   cascades-R.txt       # the cascades applied at revision R (R ≥ 2)
//!   pending-append-N.txt # an append batch not yet applied
//!   checkpoint.json      # tends checkpoint; the durability log
//!   edges.txt            # inferred edge list, written on completion
//!   report.json          # RunReport with a `runtime.job` section
//! ```
//!
//! A tends job's input at revision `r` is `statuses.txt` followed by the
//! segments `cascades-2.txt ..= cascades-r.txt`. Neither the base file nor
//! a committed segment is ever rewritten, so an append costs I/O in the
//! size of its batch, not of the history. `job.json` and every other file
//! are written with [`diffnet_graph::io::save_atomic`] (temp + fsync +
//! rename), so a `kill -9` at any instant leaves either the old or the new
//! file, never a torn one. On startup [`JobManager::new`] rescans the data
//! dir: `queued` jobs are re-enqueued as-is, `running` jobs are
//! re-enqueued with `resume` semantics — the tends checkpoint restores
//! every node that completed before the crash, so the finished edge list
//! is byte-identical to an uninterrupted run.
//!
//! State machine: `queued → running → done | failed | partial`, plus the
//! transition `running → queued` taken only on disk, implicitly, when the
//! process dies or shuts down gracefully mid-job (the meta still says
//! `running`; the rescan treats that as "resume me"). Appends are first
//! stored as `pending-append-N.txt`. On a terminal job they are applied
//! at once; while the job is queued or running they wait for its next
//! terminal transition. Applying folds every pending batch into one new
//! segment `cascades-{r+1}.txt`, then commits `revision = r + 1` and the
//! highest applied `N` to `job.json` and re-queues the job. A segment
//! numbered above the committed revision is a crash orphan that the next
//! apply overwrites; a pending batch at or below the committed `N` was
//! applied by a commit whose cleanup never ran, and the rescan deletes
//! it instead of applying it twice. The checkpoint (which carries the
//! pair-count sufficient statistics) is kept as the warm state: the
//! re-run folds in only the newest segment instead of re-searching every
//! node.
//!
//! The manager also keeps parsed dense inputs resident, keyed by
//! `(job, revision)` and bounded by [`RESIDENT_INPUT_CAP`] bytes: submit
//! stores the matrix it parsed, an apply appends the batch's rows to it
//! in memory, and a run reads its input from disk only on a miss: the
//! first run after a restart, an input evicted from the LRU, or one
//! larger than the cap on its own.

use std::collections::{BTreeMap, VecDeque};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use diffnet_baselines::{Lift, MulTree, NetInf, NetRate, PathReconstruction};
use diffnet_graph::io::{save_atomic, save_edge_list};
use diffnet_graph::DiGraph;
use diffnet_observe::{
    parse_json, CheckpointInfo, FaultPlan, Json, Recorder, ResourceProfiler, RunReport, Snapshot,
    DEFAULT_SAMPLE_INTERVAL,
};
use diffnet_simulate::io::{
    load_status_columns, load_status_matrix, read_observations, read_status_matrix,
    save_status_matrix,
};
use diffnet_simulate::StatusMatrix;
use diffnet_tends::{plan_shards, NodeError, RobustOptions, Tends, TendsConfig};

/// Algorithms a job may request. `tends` takes a status matrix body;
/// the baselines take an observations body plus an edge budget.
pub const ALGORITHMS: &[&str] = &["tends", "netrate", "multree", "lift", "netinf", "path"];

/// Fault-injection site hit after every `job.json` flush.
pub const FAULT_JOB_FLUSH: &str = "job_flush";

const META_FORMAT: &str = "diffnet-job";
/// Version 2: the input is `statuses.txt` plus per-revision segments, and
/// `applied_pending` records the last applied append batch. Version-1
/// directories (one rewritten `statuses.txt`) are rejected, not misread.
const META_VERSION: u64 = 2;

/// Byte cap on the parsed inputs a [`JobManager`] keeps resident. A packed
/// row costs one bit per cell against two bytes of text, so a
/// 22,600 × 1,000 history is 2.9 MB here against 45 MB on disk.
pub const RESIDENT_INPUT_CAP: usize = 64 << 20;

/// Where a job is in its lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Waiting for a worker (also the rewind target of a cascade append).
    Queued,
    /// A worker owns it. Found on disk at startup ⇒ the process died
    /// mid-job; the rescan re-enqueues it and the checkpoint resumes it.
    Running,
    /// Every node searched; outputs written.
    Done,
    /// The run itself errored (bad input, I/O failure); no outputs.
    Failed,
    /// Finished, but some nodes failed their search — the edge list
    /// covers the rest (mirrors the CLI's dedicated exit code).
    Partial,
}

impl JobState {
    /// Stable string form used on disk and over the wire.
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Partial => "partial",
        }
    }

    /// Parses the on-disk form.
    pub fn from_wire(s: &str) -> Option<JobState> {
        Some(match s {
            "queued" => JobState::Queued,
            "running" => JobState::Running,
            "done" => JobState::Done,
            "failed" => JobState::Failed,
            "partial" => JobState::Partial,
            _ => return None,
        })
    }

    /// True for `done`, `failed`, and `partial`.
    pub fn is_terminal(self) -> bool {
        matches!(self, JobState::Done | JobState::Failed | JobState::Partial)
    }
}

/// Parses a byte-size value with an optional `K`/`M`/`G` suffix
/// (powers of 1024): `"512M"` → 512 MiB, `"65536"` → 65536 bytes.
/// Returns `None` on malformed input or overflow.
pub fn parse_size(raw: &str) -> Option<u64> {
    let raw = raw.trim();
    let (digits, mult) = match raw.as_bytes().last()? {
        b'k' | b'K' => (&raw[..raw.len() - 1], 1u64 << 10),
        b'm' | b'M' => (&raw[..raw.len() - 1], 1u64 << 20),
        b'g' | b'G' => (&raw[..raw.len() - 1], 1u64 << 30),
        _ => (raw, 1u64),
    };
    digits.parse::<u64>().ok()?.checked_mul(mult)
}

/// What the client asked for at submission time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobSpec {
    /// One of [`ALGORITHMS`].
    pub algorithm: String,
    /// Worker threads for the parent search (tends only; `0` = all cores).
    pub threads: usize,
    /// Checkpoint flush interval in completed nodes (tends only).
    pub checkpoint_interval: usize,
    /// Edge budget `m` — required by the baselines, ignored by tends.
    pub edges_budget: Option<usize>,
    /// Byte budget for the streamed IMI pipeline (tends only). Setting it
    /// switches the job onto the out-of-core sparse-candidate path.
    pub memory_budget: Option<u64>,
    /// This job's shard of a node-range-sharded reconstruction (tends
    /// only; requires `shard_count`). Shard jobs search only their node
    /// range; the client unions the per-shard edge lists.
    pub shard_index: Option<usize>,
    /// Total shards of the sharded reconstruction (tends only).
    pub shard_count: Option<usize>,
}

impl Default for JobSpec {
    fn default() -> JobSpec {
        JobSpec {
            algorithm: "tends".to_string(),
            threads: 1,
            checkpoint_interval: 8,
            edges_budget: None,
            memory_budget: None,
            shard_index: None,
            shard_count: None,
        }
    }
}

impl JobSpec {
    /// Validates algorithm/budget consistency; the message is surfaced to
    /// the client as a `422`.
    pub fn validate(&self) -> Result<(), String> {
        if !ALGORITHMS.contains(&self.algorithm.as_str()) {
            return Err(format!(
                "unknown algorithm {:?} (expected one of {ALGORITHMS:?})",
                self.algorithm
            ));
        }
        if self.algorithm != "tends" && self.edges_budget.is_none() {
            return Err(format!(
                "algorithm {:?} needs \"edges\" (the budget m)",
                self.algorithm
            ));
        }
        if self.algorithm != "tends" && (self.memory_budget.is_some() || self.shard_count.is_some())
        {
            return Err(format!(
                "algorithm {:?} does not support the streamed pipeline \
                 (memory-budget / shard-index / shard-count are tends-only)",
                self.algorithm
            ));
        }
        if self.shard_index.is_some() != self.shard_count.is_some() {
            return Err("shard-index and shard-count must be given together".to_string());
        }
        if let (Some(i), Some(c)) = (self.shard_index, self.shard_count) {
            if c == 0 || i >= c {
                return Err(format!("shard-index {i} out of range for shard-count {c}"));
            }
        }
        Ok(())
    }

    /// Whether the job runs the out-of-core streamed IMI pipeline.
    pub fn is_streamed(&self) -> bool {
        self.memory_budget.is_some() || self.shard_count.is_some()
    }

    /// Whether the job consumes a status matrix (vs an observation set).
    pub fn takes_statuses(&self) -> bool {
        self.algorithm == "tends"
    }
}

/// The persisted per-job record (`job.json`).
#[derive(Clone, Debug, PartialEq)]
pub struct JobMeta {
    /// Server-assigned id, dense from 1.
    pub id: u64,
    /// The submission parameters.
    pub spec: JobSpec,
    /// Current lifecycle state.
    pub state: JobState,
    /// Bumped by every cascade append; lets clients tell a re-estimation
    /// apart from the original run.
    pub revision: u64,
    /// Processes (cascades) in the current input.
    pub processes: usize,
    /// Sequence number of the last `pending-append-N.txt` batch folded
    /// into the input (0 = none yet); later batches are still pending.
    pub applied_pending: u64,
    /// Nodes in the current input.
    pub nodes: usize,
    /// Nodes whose search failed on the last completed run.
    pub failed_nodes: Vec<u64>,
    /// Human-readable failure, when `state` is `failed`.
    pub error: Option<String>,
}

impl JobMeta {
    fn new(id: u64, spec: JobSpec, processes: usize, nodes: usize) -> JobMeta {
        JobMeta {
            id,
            spec,
            state: JobState::Queued,
            revision: 1,
            processes,
            applied_pending: 0,
            nodes,
            failed_nodes: Vec::new(),
            error: None,
        }
    }

    /// Serializes to the `job.json` tree.
    pub fn to_json(&self) -> Json {
        let mut root = Json::object();
        root.push("format", META_FORMAT);
        root.push("version", META_VERSION);
        root.push("id", self.id);
        root.push("algorithm", self.spec.algorithm.as_str());
        root.push("threads", self.spec.threads);
        root.push("checkpoint_interval", self.spec.checkpoint_interval);
        if let Some(m) = self.spec.edges_budget {
            root.push("edges_budget", m);
        }
        if let Some(b) = self.spec.memory_budget {
            root.push("memory_budget", b);
        }
        if let Some(i) = self.spec.shard_index {
            root.push("shard_index", i);
        }
        if let Some(c) = self.spec.shard_count {
            root.push("shard_count", c);
        }
        root.push("state", self.state.as_str());
        root.push("revision", self.revision);
        root.push("processes", self.processes);
        root.push("applied_pending", self.applied_pending);
        root.push("nodes", self.nodes);
        root.push("failed_nodes", self.failed_nodes.as_slice());
        if let Some(e) = &self.error {
            root.push("error", e.as_str());
        }
        root
    }

    /// Parses a `job.json` tree, rejecting wrong formats and versions.
    pub fn from_json(root: &Json) -> Result<JobMeta, String> {
        let format = root.get("format").and_then(Json::as_str).unwrap_or("");
        if format != META_FORMAT {
            return Err(format!("not a {META_FORMAT} file (format {format:?})"));
        }
        let version = num(root, "version")?;
        if version != META_VERSION {
            return Err(format!("unsupported {META_FORMAT} version {version}"));
        }
        let state_raw = root
            .get("state")
            .and_then(Json::as_str)
            .ok_or("missing string field \"state\"")?;
        let state = JobState::from_wire(state_raw)
            .ok_or_else(|| format!("unknown job state {state_raw:?}"))?;
        let failed_nodes = root
            .get("failed_nodes")
            .and_then(Json::as_arr)
            .ok_or("missing array field \"failed_nodes\"")?
            .iter()
            .map(|v| {
                v.as_f64()
                    .map(|f| f as u64)
                    .ok_or_else(|| "non-numeric entry in \"failed_nodes\"".to_string())
            })
            .collect::<Result<Vec<u64>, String>>()?;
        Ok(JobMeta {
            id: num(root, "id")?,
            spec: JobSpec {
                algorithm: root
                    .get("algorithm")
                    .and_then(Json::as_str)
                    .ok_or("missing string field \"algorithm\"")?
                    .to_string(),
                threads: num(root, "threads")? as usize,
                checkpoint_interval: num(root, "checkpoint_interval")? as usize,
                edges_budget: root
                    .get("edges_budget")
                    .and_then(Json::as_f64)
                    .map(|f| f as usize),
                memory_budget: root
                    .get("memory_budget")
                    .and_then(Json::as_f64)
                    .map(|f| f as u64),
                shard_index: root
                    .get("shard_index")
                    .and_then(Json::as_f64)
                    .map(|f| f as usize),
                shard_count: root
                    .get("shard_count")
                    .and_then(Json::as_f64)
                    .map(|f| f as usize),
            },
            state,
            revision: num(root, "revision")?,
            processes: num(root, "processes")? as usize,
            applied_pending: num(root, "applied_pending")?,
            nodes: num(root, "nodes")? as usize,
            failed_nodes,
            error: root.get("error").and_then(Json::as_str).map(String::from),
        })
    }
}

fn num(root: &Json, key: &str) -> Result<u64, String> {
    root.get(key)
        .and_then(Json::as_f64)
        .map(|f| f as u64)
        .ok_or_else(|| format!("missing numeric field {key:?}"))
}

/// An API-facing job error: an HTTP status plus a message for the
/// `{"error": ...}` envelope.
#[derive(Debug)]
pub struct JobError {
    /// The HTTP status this error maps onto.
    pub status: u16,
    /// Human-readable description.
    pub message: String,
}

impl JobError {
    fn new(status: u16, message: impl Into<String>) -> JobError {
        JobError {
            status,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {}", self.status, self.message)
    }
}

impl std::error::Error for JobError {}

struct Entry {
    meta: JobMeta,
    /// Live recorder while a worker runs the job, for progress queries.
    live: Option<Arc<Recorder>>,
}

struct ManagerState {
    jobs: BTreeMap<u64, Entry>,
    /// Job ids waiting for a worker, each with the instant it was
    /// enqueued (the start of its `job_queue_wait_seconds` sample).
    queue: VecDeque<(u64, Instant)>,
    next_id: u64,
}

/// One job's parsed dense input at one revision.
struct ResidentInput {
    id: u64,
    revision: u64,
    statuses: Arc<StatusMatrix>,
    /// Rows of the newest segment, the warm re-run's delta (0 at
    /// revision 1, which has no segment).
    delta_rows: usize,
}

/// The resident inputs, least recently used first. Holds at most one
/// revision per job: a job only ever runs at its current revision.
struct ResidentInputs {
    entries: VecDeque<ResidentInput>,
    bytes: usize,
    /// Byte cap ([`RESIDENT_INPUT_CAP`] outside tests).
    cap: usize,
}

impl ResidentInputs {
    fn new(cap: usize) -> ResidentInputs {
        ResidentInputs {
            entries: VecDeque::new(),
            bytes: 0,
            cap,
        }
    }

    /// The input of job `id` at `revision`, marked most recently used.
    fn get(&mut self, id: u64, revision: u64) -> Option<&ResidentInput> {
        let at = self
            .entries
            .iter()
            .position(|e| e.id == id && e.revision == revision)?;
        let hit = self.entries.remove(at)?;
        self.entries.push_back(hit);
        self.entries.back()
    }

    /// Drops every revision of job `id`, returning the one at `revision`.
    fn take(&mut self, id: u64, revision: u64) -> Option<ResidentInput> {
        let (mine, rest) = std::mem::take(&mut self.entries)
            .into_iter()
            .partition::<Vec<_>, _>(|e| e.id == id);
        self.entries = rest.into();
        self.bytes -= mine.iter().map(|e| e.statuses.heap_bytes()).sum::<usize>();
        mine.into_iter().find(|e| e.revision == revision)
    }

    /// Stores `input` as the most recently used entry in place of any
    /// other revision of its job, evicting from the cold end until the cap
    /// holds. An input over the cap on its own is not kept. (A stored
    /// matrix is never mutated, so its size stays what was charged.)
    fn insert(&mut self, input: ResidentInput) {
        self.take(input.id, input.revision);
        let bytes = input.statuses.heap_bytes();
        if bytes > self.cap {
            return;
        }
        while self.bytes + bytes > self.cap {
            let cold = self.entries.pop_front().expect("bytes > 0 implies entries");
            self.bytes -= cold.statuses.heap_bytes();
        }
        self.bytes += bytes;
        self.entries.push_back(input);
    }
}

/// Called with a job's id after each of its terminal transitions.
type SettleHook = Box<dyn Fn(u64) + Send + Sync>;

/// The queue + worker pool + on-disk store, shared across handler threads.
pub struct JobManager {
    root: PathBuf,
    fault: Arc<FaultPlan>,
    shutdown: Arc<AtomicBool>,
    rec: Arc<Recorder>,
    state: Mutex<ManagerState>,
    available: Condvar,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// Cap on jobs waiting in the queue; a submit beyond it is `503`
    /// (the explicit backpressure signal, distinct from the per-request
    /// worker queue). `usize::MAX` (the default) means unbounded.
    max_queued: AtomicUsize,
    /// See [`JobManager::set_settle_hook`].
    settle_hook: OnceLock<SettleHook>,
    /// Parsed dense inputs (see the module docs). Lock order: `state`
    /// before `resident`.
    resident: Mutex<ResidentInputs>,
}

impl JobManager {
    /// Opens (or creates) the data dir, rescans persisted jobs, re-enqueues
    /// the unfinished ones, and starts `job_workers` worker threads.
    ///
    /// `shutdown` is the server-wide flag: once set, workers finish their
    /// cancellation-checkpointed node, persist, and exit. `rec` is the
    /// server recorder feeding `/v1/metrics`.
    pub fn new(
        data_dir: &Path,
        job_workers: usize,
        shutdown: Arc<AtomicBool>,
        rec: Arc<Recorder>,
        fault: Arc<FaultPlan>,
    ) -> io::Result<Arc<JobManager>> {
        fs::create_dir_all(data_dir)?;
        let mut jobs = BTreeMap::new();
        let mut queue = VecDeque::new();
        let mut next_id = 1u64;
        for entry in fs::read_dir(data_dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(id) = name
                .to_str()
                .and_then(|n| n.strip_prefix("job-"))
                .and_then(|n| n.parse::<u64>().ok())
            else {
                continue;
            };
            let meta_path = entry.path().join("job.json");
            let text = fs::read_to_string(&meta_path)
                .map_err(|e| io::Error::other(format!("cannot read {meta_path:?}: {e}")))?;
            let json = parse_json(&text)
                .map_err(|e| io::Error::other(format!("corrupt {meta_path:?}: {e}")))?;
            let meta = JobMeta::from_json(&json)
                .map_err(|e| io::Error::other(format!("corrupt {meta_path:?}: {e}")))?;
            if meta.id != id {
                return Err(io::Error::other(format!(
                    "job dir {name:?} holds job id {}",
                    meta.id
                )));
            }
            next_id = next_id.max(id + 1);
            // Drop batches a committed apply folded in before it could
            // delete them.
            unapplied_pending(&entry.path(), meta.applied_pending);
            match meta.state {
                JobState::Queued => queue.push_back((id, Instant::now())),
                JobState::Running => {
                    // The previous process died (or shut down) mid-job:
                    // the checkpoint carries the finished nodes, so this
                    // re-run resumes instead of restarting.
                    rec.add("jobs_resumed", 1);
                    queue.push_back((id, Instant::now()));
                }
                _ => {}
            }
            jobs.insert(id, Entry { meta, live: None });
        }

        let manager = Arc::new(JobManager {
            root: data_dir.to_path_buf(),
            fault,
            shutdown,
            rec,
            state: Mutex::new(ManagerState {
                jobs,
                queue,
                next_id,
            }),
            available: Condvar::new(),
            workers: Mutex::new(Vec::new()),
            max_queued: AtomicUsize::new(usize::MAX),
            settle_hook: OnceLock::new(),
            resident: Mutex::new(ResidentInputs::new(RESIDENT_INPUT_CAP)),
        });
        // Appends buffered by a previous process: terminal jobs fold them
        // in now; queued/running jobs fold them in when they next finish.
        let stranded: Vec<u64> = {
            let st = manager.state.lock().expect("state lock");
            st.jobs
                .iter()
                .filter(|(id, e)| {
                    e.meta.state.is_terminal() && !pending_paths(&manager.job_dir(**id)).is_empty()
                })
                .map(|(&id, _)| id)
                .collect()
        };
        for id in stranded {
            let mut st = manager.state.lock().expect("state lock");
            // Failure leaves the batch buffered for a later transition.
            let _ = manager.apply_pending_locked(&mut st, id);
        }
        let mut handles = Vec::new();
        for i in 0..job_workers.max(1) {
            let m = Arc::clone(&manager);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("diffnet-job-{i}"))
                    .spawn(move || m.worker_loop())?,
            );
        }
        *manager.workers.lock().expect("workers lock") = handles;
        Ok(manager)
    }

    /// The directory holding job `id`'s files.
    pub fn job_dir(&self, id: u64) -> PathBuf {
        self.root.join(format!("job-{id}"))
    }

    fn input_path(&self, meta: &JobMeta) -> PathBuf {
        let name = if meta.spec.takes_statuses() {
            "statuses.txt"
        } else {
            "observations.txt"
        };
        self.job_dir(meta.id).join(name)
    }

    /// Persists `meta` atomically and hits the `job_flush` fault site —
    /// the injection point for crash tests around state transitions.
    fn save_meta(&self, meta: &JobMeta) -> io::Result<()> {
        let dir = self.job_dir(meta.id);
        fs::create_dir_all(&dir)?;
        let json = meta.to_json();
        save_atomic(dir.join("job.json"), |w| {
            w.write_all(json.to_pretty().as_bytes())
        })?;
        self.fault.hit(FAULT_JOB_FLUSH)?;
        Ok(())
    }

    /// Caps the number of queued (not-yet-running) jobs; submits beyond
    /// the cap are rejected with a `503` so clients back off instead of
    /// growing the queue without bound.
    pub fn set_max_queued(&self, cap: usize) {
        self.max_queued.store(cap.max(1), Ordering::Relaxed);
    }

    /// Installs the hook a worker calls with the job id once a job has
    /// reached `done`, `failed` or `partial` and that state is persisted.
    /// The daemon uses it to wake long-polls parked on the job; only the
    /// first hook installed is kept.
    pub fn set_settle_hook(&self, hook: impl Fn(u64) + Send + Sync + 'static) {
        let _ = self.settle_hook.set(Box::new(hook));
    }

    /// Accepts a new job: validates the spec, parses the uploaded input
    /// (status matrix or observation set), persists everything, enqueues.
    pub fn submit(&self, spec: JobSpec, body: &[u8]) -> Result<JobMeta, JobError> {
        spec.validate().map_err(|e| JobError::new(422, e))?;
        // Queue-full check up front, before the body is parsed or
        // anything is persisted: shedding should be cheap.
        {
            let st = self.state.lock().expect("state lock");
            let cap = self.max_queued.load(Ordering::Relaxed);
            if st.queue.len() >= cap {
                self.rec.add("jobs_rejected_queue_full", 1);
                return Err(JobError::new(
                    503,
                    format!("job queue full ({} jobs queued, cap {cap})", st.queue.len()),
                ));
            }
        }
        let (processes, nodes, statuses) = if spec.takes_statuses() {
            let m = read_status_matrix(body)
                .map_err(|e| JobError::new(422, format!("bad status matrix: {e}")))?;
            if m.num_processes() == 0 || m.num_nodes() == 0 {
                return Err(JobError::new(422, "status matrix is empty"));
            }
            (m.num_processes(), m.num_nodes(), Some(m))
        } else {
            let obs = read_observations(body)
                .map_err(|e| JobError::new(422, format!("bad observations: {e}")))?;
            if obs.num_processes() == 0 || obs.num_nodes() == 0 {
                return Err(JobError::new(422, "observation set is empty"));
            }
            (obs.num_processes(), obs.num_nodes(), None)
        };

        let mut st = self.state.lock().expect("state lock");
        let id = st.next_id;
        st.next_id += 1;
        let meta = JobMeta::new(id, spec, processes, nodes);
        let dir = self.job_dir(id);
        fs::create_dir_all(&dir)
            .map_err(|e| JobError::new(500, format!("cannot create job dir: {e}")))?;
        save_atomic(self.input_path(&meta), |w| w.write_all(body))
            .map_err(|e| JobError::new(500, format!("cannot store job input: {e}")))?;
        self.save_meta(&meta)
            .map_err(|e| JobError::new(500, format!("cannot persist job: {e}")))?;
        st.jobs.insert(
            id,
            Entry {
                meta: meta.clone(),
                live: None,
            },
        );
        // Streamed jobs read their input column-wise from disk instead.
        if let Some(m) = statuses.filter(|_| !meta.spec.is_streamed()) {
            self.keep_resident(id, 1, Arc::new(m), 0);
        }
        st.queue.push_back((id, Instant::now()));
        self.rec.add("jobs_submitted", 1);
        drop(st);
        self.available.notify_one();
        Ok(meta)
    }

    /// Appends cascades (extra status rows) to a tends job.
    ///
    /// The batch is first stored as `pending-append-N.txt`. On a terminal
    /// job it is applied at once (see `apply_pending_locked`): it becomes
    /// the segment of the bumped revision, the checkpoint is *kept* (it
    /// carries the pair-count sufficient statistics the warm re-run folds
    /// onto), and the job re-queues for incremental re-estimation. While
    /// the job is queued or running the batch stays pending instead of
    /// returning `409`; every pending batch is folded in — with a single
    /// revision bump — at the next terminal transition. Either way the
    /// I/O is in the size of the batch. Returns the job meta plus whether
    /// the append was buffered.
    pub fn append_cascades(&self, id: u64, body: &[u8]) -> Result<(JobMeta, bool), JobError> {
        let appended = read_status_matrix(body)
            .map_err(|e| JobError::new(422, format!("bad status matrix: {e}")))?;
        if appended.num_processes() == 0 {
            return Err(JobError::new(422, "no cascades in upload"));
        }

        let mut st = self.state.lock().expect("state lock");
        let entry = st
            .jobs
            .get_mut(&id)
            .ok_or_else(|| JobError::new(404, format!("no job {id}")))?;
        if !entry.meta.spec.takes_statuses() {
            return Err(JobError::new(
                409,
                format!(
                    "job {id} runs {:?}, which takes observations; cascade append only \
                     applies to status-matrix jobs",
                    entry.meta.spec.algorithm
                ),
            ));
        }
        if entry.meta.spec.is_streamed() {
            return Err(JobError::new(
                422,
                format!(
                    "job {id} runs the streamed pipeline (memory-budget / shards), which \
                     does not retain the dense sufficient statistics incremental append \
                     needs; submit the combined matrix as a new job instead"
                ),
            ));
        }
        if appended.num_nodes() != entry.meta.nodes {
            return Err(JobError::new(
                422,
                format!(
                    "appended cascades cover {} nodes but the job has {}",
                    appended.num_nodes(),
                    entry.meta.nodes
                ),
            ));
        }

        // Persist the batch before acknowledging: buffered appends must
        // survive a process restart just like every other transition.
        let dir = self.job_dir(id);
        let seq = next_pending_seq(&dir, entry.meta.applied_pending);
        save_status_matrix(&appended, dir.join(pending_name(seq)))
            .map_err(|e| JobError::new(500, format!("cannot store appended cascades: {e}")))?;
        self.rec
            .add("cascades_appended", appended.num_processes() as u64);
        if !entry.meta.state.is_terminal() {
            self.rec.add("appends_buffered", 1);
            return Ok((entry.meta.clone(), true));
        }
        let meta = self.apply_pending_locked(&mut st, id)?;
        drop(st);
        self.available.notify_one();
        Ok((meta, false))
    }

    /// Folds every pending append batch into the job input as the
    /// segment of the next revision, commits that revision, and
    /// re-queues. The caller holds the state lock and has checked the job
    /// is terminal. The checkpoint file survives — it is the warm state
    /// [`run_tends`](Self::run_tends) resumes from.
    fn apply_pending_locked(&self, st: &mut ManagerState, id: u64) -> Result<JobMeta, JobError> {
        let dir = self.job_dir(id);
        let entry = st
            .jobs
            .get_mut(&id)
            .ok_or_else(|| JobError::new(404, format!("no job {id}")))?;
        let pending = unapplied_pending(&dir, entry.meta.applied_pending);
        let Some(&(last_seq, _)) = pending.last() else {
            return Ok(entry.meta.clone());
        };
        let mut batch: Option<StatusMatrix> = None;
        for (_, path) in &pending {
            let m = load_status_matrix(path)
                .map_err(|e| JobError::new(500, format!("cannot reload pending append: {e}")))?;
            if m.num_nodes() != entry.meta.nodes {
                return Err(JobError::new(
                    500,
                    format!("pending append {path:?} covers {} nodes", m.num_nodes()),
                ));
            }
            match &mut batch {
                None => batch = Some(m),
                Some(b) => b.append_rows(&m),
            }
        }
        let batch = batch.expect("pending is non-empty");

        // The segment lands before the commit; a crash in between leaves
        // an orphan above the committed revision, which the next apply
        // overwrites.
        let revision = entry.meta.revision + 1;
        save_status_matrix(&batch, dir.join(segment_name(revision)))
            .map_err(|e| JobError::new(500, format!("cannot store appended cascades: {e}")))?;
        let mut meta = entry.meta.clone();
        meta.processes += batch.num_processes();
        meta.revision = revision;
        meta.applied_pending = last_seq;
        meta.state = JobState::Queued;
        meta.failed_nodes.clear();
        meta.error = None;
        // `job.json` is the commit point. Until it lands the job is
        // unchanged and the batches stay pending; once it has, the
        // recorded `applied_pending` keeps them from being applied again
        // even if the cleanup below never runs.
        self.save_meta(&meta)
            .map_err(|e| JobError::new(500, format!("cannot persist job: {e}")))?;
        entry.meta = meta.clone();
        for stale in ["edges.txt", "report.json"] {
            let _ = fs::remove_file(dir.join(stale));
        }
        for (_, path) in pending {
            let _ = fs::remove_file(path);
        }
        // Grow the resident input in memory; with none resident the next
        // run loads the input from disk.
        let mut resident = self.resident.lock().expect("resident lock");
        if let Some(mut input) = resident.take(id, revision - 1) {
            Arc::make_mut(&mut input.statuses).append_rows(&batch);
            input.revision = revision;
            input.delta_rows = batch.num_processes();
            resident.insert(input);
        }
        self.rec
            .value("job_input_resident_bytes", resident.bytes as f64);
        drop(resident);
        st.queue.push_back((id, Instant::now()));
        Ok(meta)
    }

    /// Stores job `id`'s parsed input at `revision` (see
    /// [`ResidentInputs::insert`]).
    fn keep_resident(
        &self,
        id: u64,
        revision: u64,
        statuses: Arc<StatusMatrix>,
        delta_rows: usize,
    ) {
        let mut resident = self.resident.lock().expect("resident lock");
        resident.insert(ResidentInput {
            id,
            revision,
            statuses,
            delta_rows,
        });
        self.rec
            .value("job_input_resident_bytes", resident.bytes as f64);
    }

    /// A dense job's input at its current revision, plus the row count of
    /// its newest segment: the resident copy when there is one, else
    /// `statuses.txt` and the segments `2..=revision` loaded from disk
    /// (and then kept resident).
    fn job_input(&self, meta: &JobMeta) -> Result<(Arc<StatusMatrix>, usize), String> {
        if let Some(hit) = self
            .resident
            .lock()
            .expect("resident lock")
            .get(meta.id, meta.revision)
        {
            self.rec.add("job_input_resident_hits", 1);
            return Ok((Arc::clone(&hit.statuses), hit.delta_rows));
        }
        self.rec.add("job_input_loads", 1);
        let dir = self.job_dir(meta.id);
        let mut statuses = load_status_matrix(dir.join("statuses.txt"))
            .map_err(|e| format!("cannot load statuses: {e}"))?;
        let mut delta_rows = 0;
        for revision in 2..=meta.revision {
            let name = segment_name(revision);
            let segment = load_status_matrix(dir.join(&name))
                .map_err(|e| format!("cannot load {name}: {e}"))?;
            if segment.num_nodes() != statuses.num_nodes() {
                return Err(format!("{name} covers {} nodes", segment.num_nodes()));
            }
            delta_rows = segment.num_processes();
            statuses.append_rows(&segment);
        }
        if statuses.num_processes() != meta.processes {
            return Err(format!(
                "job input holds {} processes, job.json records {}",
                statuses.num_processes(),
                meta.processes
            ));
        }
        let statuses = Arc::new(statuses);
        self.keep_resident(meta.id, meta.revision, Arc::clone(&statuses), delta_rows);
        Ok((statuses, delta_rows))
    }

    /// The job's current meta plus, while running, a live progress
    /// snapshot of its recorder.
    pub fn status(&self, id: u64) -> Option<(JobMeta, Option<Snapshot>)> {
        let st = self.state.lock().expect("state lock");
        let entry = st.jobs.get(&id)?;
        let snap = entry.live.as_ref().map(|r| r.snapshot());
        Some((entry.meta.clone(), snap))
    }

    /// The job's current state alone: [`JobManager::status`] without the
    /// meta clone and the live progress snapshot.
    pub fn state(&self, id: u64) -> Option<JobState> {
        let st = self.state.lock().expect("state lock");
        st.jobs.get(&id).map(|e| e.meta.state)
    }

    /// All jobs, in id order.
    pub fn list(&self) -> Vec<JobMeta> {
        let st = self.state.lock().expect("state lock");
        st.jobs.values().map(|e| e.meta.clone()).collect()
    }

    /// Reads a finished job's output file (`edges.txt` or `report.json`).
    pub fn read_output(&self, id: u64, file: &str) -> Result<Vec<u8>, JobError> {
        let meta = self
            .status(id)
            .ok_or_else(|| JobError::new(404, format!("no job {id}")))?
            .0;
        match meta.state {
            JobState::Done | JobState::Partial => {}
            other => {
                return Err(JobError::new(
                    409,
                    format!(
                        "job {id} is {}; outputs exist once it finishes",
                        other.as_str()
                    ),
                ))
            }
        }
        fs::read(self.job_dir(id).join(file))
            .map_err(|e| JobError::new(500, format!("cannot read job output {file:?}: {e}")))
    }

    /// Signals the workers, wakes them, and joins them. In-flight tends
    /// jobs observe the flag through [`RobustOptions::cancel`], flush
    /// their checkpoint, and stay `running` on disk so the next process
    /// resumes them.
    pub fn shutdown_and_join(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.available.notify_all();
        let handles = std::mem::take(&mut *self.workers.lock().expect("workers lock"));
        for h in handles {
            let _ = h.join();
        }
    }

    fn worker_loop(&self) {
        loop {
            let (id, queued_at) = {
                let mut st = self.state.lock().expect("state lock");
                loop {
                    if self.shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    if let Some(next) = st.queue.pop_front() {
                        break next;
                    }
                    st = self
                        .available
                        .wait_timeout(st, Duration::from_millis(200))
                        .expect("state lock")
                        .0;
                }
            };
            let queue_wait_s = queued_at.elapsed().as_secs_f64();
            self.rec.duration("job_queue_wait_seconds", queue_wait_s);
            self.run_one(id, queue_wait_s);
        }
    }

    /// Claims job `id`, runs it, and persists the outcome. `queue_wait_s`
    /// is how long the job waited for a worker; the report records it.
    fn run_one(&self, id: u64, queue_wait_s: f64) {
        let claimed = Instant::now();
        let rec = Arc::new(Recorder::new());
        let meta = {
            let mut st = self.state.lock().expect("state lock");
            let Some(entry) = st.jobs.get_mut(&id) else {
                return;
            };
            entry.meta.state = JobState::Running;
            entry.meta.error = None;
            entry.live = Some(Arc::clone(&rec));
            entry.meta.clone()
        };
        if self.save_meta(&meta).is_err() {
            // Cannot record the claim; leave the job queued on disk and
            // give up this attempt rather than running unrecorded.
            let mut st = self.state.lock().expect("state lock");
            if let Some(entry) = st.jobs.get_mut(&id) {
                entry.meta.state = JobState::Queued;
                entry.live = None;
            }
            self.rec.add("jobs_failed", 1);
            return;
        }

        let outcome = if meta.spec.takes_statuses() {
            self.run_tends(&meta, &rec, queue_wait_s)
        } else {
            self.run_baseline(&meta, &rec, queue_wait_s)
        };

        let mut st = self.state.lock().expect("state lock");
        let Some(entry) = st.jobs.get_mut(&id) else {
            return;
        };
        entry.live = None;
        match outcome {
            Outcome::Interrupted => {
                // Leave `running` on disk: the startup rescan resumes it.
                self.rec.add("jobs_interrupted", 1);
                entry.meta.state = JobState::Running;
            }
            Outcome::Finished {
                state,
                failed_nodes,
                error,
            } => {
                entry.meta.state = state;
                entry.meta.failed_nodes = failed_nodes;
                entry.meta.error = error;
                let counter = match state {
                    JobState::Done => "jobs_completed",
                    JobState::Partial => "jobs_partial",
                    _ => "jobs_failed",
                };
                self.rec.add(counter, 1);
                let meta = entry.meta.clone();
                drop(st);
                let _ = self.save_meta(&meta);
                self.rec
                    .duration("job_run_seconds", claimed.elapsed().as_secs_f64());
                if let Some(hook) = self.settle_hook.get() {
                    hook(id);
                }
                // Cascades appended mid-run were buffered; fold them in
                // (one revision bump for the whole batch) and re-queue.
                let mut st = self.state.lock().expect("state lock");
                if matches!(
                    self.apply_pending_locked(&mut st, id),
                    Ok(applied) if applied.revision > meta.revision
                ) {
                    drop(st);
                    self.available.notify_one();
                }
            }
        }
    }

    fn run_tends(&self, meta: &JobMeta, rec: &Recorder, queue_wait_s: f64) -> Outcome {
        let dir = self.job_dir(meta.id);
        // Window-scoped resource profile for the job; attached to the
        // report's runtime section. Early returns drop the profiler,
        // which just joins its sampler thread.
        let profiler = ResourceProfiler::start(DEFAULT_SAMPLE_INTERVAL);
        let checkpoint = dir.join("checkpoint.json");
        let options = RobustOptions {
            checkpoint: Some(checkpoint.clone()),
            resume: true,
            checkpoint_interval: meta.spec.checkpoint_interval,
            fault: self.fault.as_ref(),
            cancel: Some(&self.shutdown),
            // JobMeta revisions are 1-based (fresh submission = 1); the
            // tends sufficient-statistics revision is 0-based.
            revision: meta.revision.saturating_sub(1),
        };
        // Mirror the CLI's `infer` path exactly — same phases, same
        // config defaults — so the report's deterministic section is
        // byte-identical to an offline `diffnet infer` run.
        let run = if meta.spec.is_streamed() {
            // Out-of-core: mmap the statuses straight into the column
            // bitset and never materialize the row-major matrix or the
            // dense correlation matrix.
            let cols = {
                let _p = rec.phase("load_statuses");
                match load_status_columns(dir.join("statuses.txt")) {
                    Ok(c) => c,
                    Err(e) => return Outcome::failed(format!("cannot load statuses: {e}")),
                }
            };
            let shard = match (meta.spec.shard_index, meta.spec.shard_count) {
                (Some(i), Some(c)) => Some(plan_shards(cols.num_nodes(), c)[i]),
                _ => None,
            };
            let cfg = TendsConfig {
                threads: meta.spec.threads,
                memory_budget: meta.spec.memory_budget,
                shard,
                ..TendsConfig::default()
            };
            Tends::with_config(cfg).reconstruct_robust_from_columns(&cols, rec, &options)
        } else {
            let (statuses, appended) = {
                let _p = rec.phase("load_statuses");
                let (statuses, delta_rows) = match self.job_input(meta) {
                    Ok(input) => input,
                    Err(e) => return Outcome::failed(e),
                };
                // Past revision 1 the newest segment is the delta the
                // warm path folds into the checkpointed statistics.
                let beta = statuses.num_processes();
                let appended = (meta.revision > 1 && checkpoint.exists())
                    .then(|| statuses.rows_slice(beta - delta_rows..beta));
                (statuses, appended)
            };
            let cfg = TendsConfig {
                threads: meta.spec.threads,
                ..TendsConfig::default()
            };
            let tends = Tends::with_config(cfg);
            match appended {
                // Warm path: fold only the appended rows into the
                // checkpointed sufficient statistics and re-search only
                // the dirty nodes (a checkpoint already at this revision
                // is a plain resume). Byte-identical to a fresh run over
                // the combined matrix, so a failure to warm-start
                // (foreign, stale, or corrupt checkpoint) just drops the
                // checkpoint and falls back to the full re-run.
                Some(appended) => tends
                    .reconstruct_robust_append(&statuses, &appended, rec, &options)
                    .or_else(|e| {
                        self.rec.add("append_cold_fallbacks", 1);
                        rec.add("append_cold_fallbacks", 1);
                        eprintln!(
                            "job {}: warm append failed ({e}); re-running from scratch",
                            meta.id
                        );
                        let _ = fs::remove_file(&checkpoint);
                        tends.reconstruct_robust(&statuses, rec, &options)
                    }),
                None => tends.reconstruct_robust(&statuses, rec, &options),
            }
        };
        let partial = match run {
            Ok(p) => p,
            Err(e) => return Outcome::failed(e.to_string()),
        };
        if partial
            .errors
            .iter()
            .any(|(_, e)| matches!(e, NodeError::Cancelled))
        {
            return Outcome::Interrupted;
        }
        let failed_nodes: Vec<u64> = partial.failed_nodes.iter().map(|&v| u64::from(v)).collect();
        let mut report = RunReport::new(
            meta.spec.algorithm.as_str(),
            rec.snapshot(),
            meta.spec.threads.max(1),
        );
        report.failed_nodes = failed_nodes.clone();
        // Same recording rule as the CLI: the override (daemon-wide, set at
        // startup) is deterministic config, the resolved tier is runtime.
        let requested = diffnet_simulate::simd::requested_mode();
        if requested != diffnet_simulate::SimdMode::Auto {
            report.simd = Some(requested.to_string());
        }
        report.simd_dispatch = Some(diffnet_simulate::simd::kernels().dispatch().to_string());
        report.checkpoint = Some(CheckpointInfo {
            path: checkpoint.display().to_string(),
            resumed_nodes: partial.resumed_nodes,
            flushes: partial.checkpoint_flushes,
            delta_records: partial.delta_records,
        });
        report.resources = Some(profiler.stop());
        let state = if failed_nodes.is_empty() {
            JobState::Done
        } else {
            JobState::Partial
        };
        self.write_outputs(
            meta,
            state,
            &partial.result.graph,
            &report,
            &failed_nodes,
            queue_wait_s,
        )
    }

    fn run_baseline(&self, meta: &JobMeta, rec: &Recorder, queue_wait_s: f64) -> Outcome {
        let dir = self.job_dir(meta.id);
        let profiler = ResourceProfiler::start(DEFAULT_SAMPLE_INTERVAL);
        let obs = match diffnet_simulate::io::load_observations(dir.join("observations.txt")) {
            Ok(o) => o,
            Err(e) => return Outcome::failed(format!("cannot load observations: {e}")),
        };
        let m = meta.spec.edges_budget.unwrap_or(0);
        let graph: DiGraph = match meta.spec.algorithm.as_str() {
            "netrate" => NetRate::new().infer_observed(&obs, rec).top_m(m),
            "multree" => MulTree::new().infer(&obs, m),
            "lift" => Lift::new().infer(&obs, m),
            "netinf" => NetInf::new().infer(&obs, m),
            "path" => PathReconstruction::new().infer(&obs, m),
            other => return Outcome::failed(format!("unknown algorithm {other:?}")),
        };
        let mut report = RunReport::new(meta.spec.algorithm.as_str(), rec.snapshot(), 1);
        report.resources = Some(profiler.stop());
        self.write_outputs(meta, JobState::Done, &graph, &report, &[], queue_wait_s)
    }

    fn write_outputs(
        &self,
        meta: &JobMeta,
        state: JobState,
        graph: &DiGraph,
        report: &RunReport,
        failed_nodes: &[u64],
        queue_wait_s: f64,
    ) -> Outcome {
        let dir = self.job_dir(meta.id);
        if let Err(e) = save_edge_list(graph, dir.join("edges.txt")) {
            return Outcome::failed(format!("cannot write edges: {e}"));
        }
        let json = job_report_json(report, meta.id, state, meta.revision, queue_wait_s);
        if let Err(e) = save_atomic(dir.join("report.json"), |w| {
            w.write_all(json.to_pretty().as_bytes())
        }) {
            return Outcome::failed(format!("cannot write report: {e}"));
        }
        Outcome::Finished {
            state,
            failed_nodes: failed_nodes.to_vec(),
            error: None,
        }
    }
}

enum Outcome {
    /// Terminal: persist the state and outputs.
    Finished {
        state: JobState,
        failed_nodes: Vec<u64>,
        error: Option<String>,
    },
    /// Cancelled by shutdown mid-run; leave `running` on disk for resume.
    Interrupted,
}

impl Outcome {
    fn failed(message: String) -> Outcome {
        Outcome::Finished {
            state: JobState::Failed,
            failed_nodes: Vec::new(),
            error: Some(message),
        }
    }
}

/// The job's `report.json`: a normal [`RunReport`] with a `job` record
/// (id, state, revision, and the seconds the job waited in the queue)
/// injected into the `runtime` section — the deterministic section stays
/// byte-identical to an offline CLI run on the same input.
pub fn job_report_json(
    report: &RunReport,
    id: u64,
    state: JobState,
    revision: u64,
    queue_wait_s: f64,
) -> Json {
    let mut root = report.to_json();
    let mut runtime = root.remove("runtime").unwrap_or_else(Json::object);
    let mut job = Json::object();
    job.push("id", id);
    job.push("state", state.as_str());
    job.push("revision", revision);
    job.push("queue_wait_s", queue_wait_s);
    runtime.push("job", job);
    root.push("runtime", runtime);
    root
}

fn pending_name(seq: u64) -> String {
    format!("pending-append-{seq:06}.txt")
}

/// The input segment holding the cascades applied at `revision` (≥ 2).
fn segment_name(revision: u64) -> String {
    format!("cascades-{revision}.txt")
}

/// Pending append batches as `(sequence number, path)`, in arrival order.
fn pending_paths(dir: &Path) -> Vec<(u64, PathBuf)> {
    let mut out = Vec::new();
    if let Ok(entries) = fs::read_dir(dir) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            let seq = name
                .to_str()
                .and_then(|n| n.strip_prefix("pending-append-"))
                .and_then(|n| n.strip_suffix(".txt"))
                .and_then(|n| n.parse::<u64>().ok());
            if let Some(seq) = seq {
                out.push((seq, entry.path()));
            }
        }
    }
    out.sort();
    out
}

/// The pending batches above `applied`. Those at or below it were folded
/// in by a committed apply whose cleanup never ran (a crash or an I/O
/// error after the `job.json` write); they are deleted, not returned.
fn unapplied_pending(dir: &Path, applied: u64) -> Vec<(u64, PathBuf)> {
    let (stale, fresh): (Vec<_>, Vec<_>) = pending_paths(dir)
        .into_iter()
        .partition(|&(seq, _)| seq <= applied);
    for (_, path) in stale {
        let _ = fs::remove_file(path);
    }
    fresh
}

/// The sequence number for the next pending batch: past every batch on
/// disk and every batch ever applied, so a new batch is never mistaken
/// for an applied one.
fn next_pending_seq(dir: &Path, applied: u64) -> u64 {
    pending_paths(dir)
        .last()
        .map_or(applied, |&(seq, _)| seq.max(applied))
        + 1
}

/// Renders the wire form of a job's status for `GET /v1/jobs/{id}`.
pub fn status_json(meta: &JobMeta, live: Option<&Snapshot>) -> Json {
    let mut root = Json::object();
    root.push("id", meta.id);
    root.push("algorithm", meta.spec.algorithm.as_str());
    root.push("state", meta.state.as_str());
    root.push("revision", meta.revision);
    root.push("processes", meta.processes);
    root.push("nodes", meta.nodes);
    root.push("threads", meta.spec.threads);
    root.push("failed_nodes", meta.failed_nodes.as_slice());
    if let Some(e) = &meta.error {
        root.push("error", e.as_str());
    }
    if let Some(snap) = live {
        let mut progress = Json::object();
        progress.push(
            "phases",
            Json::Arr(
                snap.phases
                    .iter()
                    .map(|&(name, _)| Json::from(name))
                    .collect(),
            ),
        );
        let mut counters = Json::object();
        for (&name, &value) in &snap.counters {
            counters.push(name, value);
        }
        progress.push("counters", counters);
        root.push("progress", progress);
    }
    root
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "diffnet-serve-job-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create tmp dir");
        dir
    }

    /// A small deterministic status matrix with real correlation
    /// structure (cascades over a ring) so tends finds edges.
    fn sample_statuses(beta: usize, n: usize) -> StatusMatrix {
        let mut rows = Vec::with_capacity(beta);
        let mut state = 0x9e3779b97f4a7c15u64;
        for l in 0..beta {
            let mut row = vec![false; n];
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let start = (state >> 33) as usize % n;
            let len = 1 + (l % (n / 2));
            for k in 0..len {
                row[(start + k) % n] = true;
            }
            rows.push(row);
        }
        StatusMatrix::from_rows(&rows)
    }

    /// Row-wise concatenation: the input of a fresh combined submission.
    fn concat_statuses(a: &StatusMatrix, b: &StatusMatrix) -> StatusMatrix {
        let mut out = a.clone();
        out.append_rows(b);
        out
    }

    fn statuses_bytes(m: &StatusMatrix) -> Vec<u8> {
        let mut buf = Vec::new();
        diffnet_simulate::io::write_status_matrix(m, &mut buf).expect("serialize");
        buf
    }

    fn manager(dir: &Path) -> (Arc<JobManager>, Arc<AtomicBool>) {
        let shutdown = Arc::new(AtomicBool::new(false));
        let m = JobManager::new(
            dir,
            1,
            Arc::clone(&shutdown),
            Arc::new(Recorder::new()),
            Arc::new(FaultPlan::disabled()),
        )
        .expect("manager");
        (m, shutdown)
    }

    #[test]
    fn queue_cap_rejects_submits_with_503() {
        let dir = tmp_dir("queue-cap");
        let (m, shutdown) = manager(&dir);
        // Park the worker so nothing dequeues: the cap then applies to a
        // deterministic queue length.
        shutdown.store(true, Ordering::SeqCst);
        m.shutdown_and_join();
        m.set_max_queued(1);
        let body = statuses_bytes(&sample_statuses(10, 6));
        m.submit(JobSpec::default(), &body).expect("first queued");
        let err = m.submit(JobSpec::default(), &body).expect_err("cap hit");
        assert_eq!(err.status, 503);
        assert!(err.message.contains("queue full"), "{}", err.message);
    }

    fn wait_terminal(m: &JobManager, id: u64) -> JobMeta {
        for _ in 0..600 {
            let (meta, _) = m.status(id).expect("job exists");
            if meta.state.is_terminal() {
                return meta;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("job {id} never reached a terminal state");
    }

    #[test]
    fn meta_round_trips_through_json() {
        let mut meta = JobMeta::new(
            7,
            JobSpec {
                algorithm: "netrate".to_string(),
                threads: 4,
                checkpoint_interval: 3,
                edges_budget: Some(12),
                ..JobSpec::default()
            },
            100,
            20,
        );
        meta.state = JobState::Partial;
        meta.revision = 3;
        meta.failed_nodes = vec![2, 9];
        meta.error = Some("boom".to_string());
        let text = meta.to_json().to_pretty();
        let back = JobMeta::from_json(&parse_json(&text).expect("json")).expect("meta");
        assert_eq!(back, meta);
    }

    #[test]
    fn meta_rejects_foreign_and_corrupt_files() {
        let err = JobMeta::from_json(&Json::object()).unwrap_err();
        assert!(err.contains("not a diffnet-job"), "{err}");
        let mut wrong = JobMeta::new(1, JobSpec::default(), 1, 1).to_json();
        wrong.remove("state");
        assert!(JobMeta::from_json(&wrong).unwrap_err().contains("state"));
    }

    #[test]
    fn submit_runs_to_done_with_outputs() {
        let dir = tmp_dir("submit");
        let (m, _) = manager(&dir);
        let statuses = sample_statuses(40, 8);
        let meta = m
            .submit(JobSpec::default(), &statuses_bytes(&statuses))
            .expect("submit");
        assert_eq!(meta.id, 1);
        assert_eq!(meta.state, JobState::Queued);
        assert_eq!(meta.processes, 40);
        assert_eq!(meta.nodes, 8);

        let done = wait_terminal(&m, 1);
        assert_eq!(done.state, JobState::Done);
        let edges = m.read_output(1, "edges.txt").expect("edges");
        assert!(edges.starts_with(b"# nodes: 8\n"));
        let report = m.read_output(1, "report.json").expect("report");
        let text = std::str::from_utf8(&report).expect("utf8");
        diffnet_observe::validate_report_json(text, &["load_statuses", "parent_search"], &[])
            .expect("valid job report");
        let json = parse_json(text).expect("json");
        let job = json.get("runtime").and_then(|r| r.get("job")).expect("job");
        assert_eq!(job.get("state").and_then(Json::as_str), Some("done"));

        // The job report carries the span tree and the resource profile.
        let runtime = json.get("runtime").expect("runtime");
        let spans = runtime
            .get("trace")
            .and_then(|t| t.get("spans"))
            .and_then(Json::as_arr)
            .expect("runtime.trace.spans");
        assert!(
            spans
                .iter()
                .any(|s| s.get("name").and_then(Json::as_str) == Some("node_search")),
            "trace must include node_search spans"
        );
        let resources = runtime.get("resources").expect("runtime.resources");
        let peak = resources
            .get("peak_rss_bytes")
            .and_then(Json::as_f64)
            .expect("peak_rss_bytes");
        #[cfg(target_os = "linux")]
        assert!(peak > 0.0, "peak RSS must be positive on Linux");
        let _ = peak;

        m.shutdown_and_join();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn streamed_and_sharded_jobs_match_the_dense_job() {
        let dir = tmp_dir("streamed");
        let (m, _) = manager(&dir);
        let statuses = sample_statuses(60, 10);
        let body = statuses_bytes(&statuses);
        // Job 1: dense oracle. Job 2: streamed under a memory budget.
        m.submit(JobSpec::default(), &body).expect("dense submit");
        m.submit(
            JobSpec {
                memory_budget: Some(8 << 20),
                ..JobSpec::default()
            },
            &body,
        )
        .expect("streamed submit");
        assert_eq!(wait_terminal(&m, 1).state, JobState::Done);
        assert_eq!(wait_terminal(&m, 2).state, JobState::Done);
        let dense_edges = m.read_output(1, "edges.txt").expect("dense edges");
        let streamed_edges = m.read_output(2, "edges.txt").expect("streamed edges");
        assert_eq!(
            dense_edges, streamed_edges,
            "streamed job must be byte-identical to the dense job"
        );

        // Shard the same reconstruction across two jobs (same budget, so
        // both compute the same τ) and union the edges client-side.
        let mut union: Vec<(u32, u32)> = Vec::new();
        for index in 0..2 {
            let meta = m
                .submit(
                    JobSpec {
                        memory_budget: Some(8 << 20),
                        shard_index: Some(index),
                        shard_count: Some(2),
                        ..JobSpec::default()
                    },
                    &body,
                )
                .expect("shard submit");
            assert_eq!(wait_terminal(&m, meta.id).state, JobState::Done);
            let bytes = m.read_output(meta.id, "edges.txt").expect("shard edges");
            let part = diffnet_graph::io::read_edge_list(&bytes[..], None).expect("parse shard");
            assert_eq!(part.node_count(), 10, "shard graphs keep the global n");
            union.extend(part.edges());
        }
        union.sort_unstable();
        union.dedup();
        let dense = diffnet_graph::io::read_edge_list(&dense_edges[..], None).expect("parse dense");
        assert_eq!(
            union,
            dense.edge_vec(),
            "shard union must equal the dense edge set"
        );

        m.shutdown_and_join();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn streamed_spec_round_trips_and_validates() {
        let spec = JobSpec {
            memory_budget: Some(512 << 20),
            shard_index: Some(1),
            shard_count: Some(4),
            ..JobSpec::default()
        };
        spec.validate().expect("valid spec");
        let meta = JobMeta::new(3, spec, 10, 5);
        let text = meta.to_json().to_pretty();
        let back = JobMeta::from_json(&parse_json(&text).expect("json")).expect("meta");
        assert_eq!(back, meta);

        for bad in [
            JobSpec {
                shard_index: Some(0),
                ..JobSpec::default()
            },
            JobSpec {
                shard_index: Some(2),
                shard_count: Some(2),
                ..JobSpec::default()
            },
            JobSpec {
                algorithm: "netinf".to_string(),
                edges_budget: Some(4),
                memory_budget: Some(1 << 20),
                ..JobSpec::default()
            },
        ] {
            assert!(bad.validate().is_err(), "spec must be rejected: {bad:?}");
        }

        assert_eq!(parse_size("512M"), Some(512 << 20));
        assert_eq!(parse_size("2g"), Some(2 << 30));
        assert_eq!(parse_size("65536"), Some(65536));
        assert_eq!(parse_size("64K"), Some(64 << 10));
        assert_eq!(parse_size(""), None);
        assert_eq!(parse_size("12Q"), None);
        assert_eq!(parse_size("-5M"), None);
    }

    #[test]
    fn submit_rejects_bad_specs_and_inputs() {
        let dir = tmp_dir("reject");
        let (m, _) = manager(&dir);
        let spec = JobSpec {
            algorithm: "psychic".to_string(),
            ..JobSpec::default()
        };
        assert_eq!(m.submit(spec, b"").unwrap_err().status, 422);
        let spec = JobSpec {
            algorithm: "netinf".to_string(),
            edges_budget: None,
            ..JobSpec::default()
        };
        assert_eq!(m.submit(spec, b"").unwrap_err().status, 422);
        // Truncated status matrix: header promises more rows than follow.
        let bad = b"# diffnet status matrix: 5 processes x 3 nodes\n0 1 0\n";
        let err = m.submit(JobSpec::default(), bad).unwrap_err();
        assert_eq!(err.status, 422);
        assert!(err.message.contains("bad status matrix"), "{}", err.message);
        m.shutdown_and_join();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_cascades_requeues_with_bumped_revision() {
        let dir = tmp_dir("append");
        let (m, _) = manager(&dir);
        let first = sample_statuses(30, 8);
        m.submit(JobSpec::default(), &statuses_bytes(&first))
            .expect("submit");
        wait_terminal(&m, 1);

        let more = sample_statuses(10, 8);
        let (meta, buffered) = m
            .append_cascades(1, &statuses_bytes(&more))
            .expect("append");
        assert!(!buffered, "append to a terminal job applies immediately");
        assert_eq!(meta.revision, 2);
        assert_eq!(meta.processes, 40);
        let done = wait_terminal(&m, 1);
        assert_eq!(done.state, JobState::Done);
        // The warm re-run consumed the appended rows and spliced the
        // clean nodes from the kept checkpoint.
        assert!(!m.job_dir(1).join("append.txt").exists());
        assert!(m.job_dir(1).join("checkpoint.json").exists());

        // The re-estimated result equals a fresh job over the combined
        // input: incremental append is exact, not approximate.
        let combined = concat_statuses(&first, &more);
        let fresh = m
            .submit(JobSpec::default(), &statuses_bytes(&combined))
            .expect("submit combined");
        wait_terminal(&m, fresh.id);
        assert_eq!(
            m.read_output(1, "edges.txt").expect("edges"),
            m.read_output(fresh.id, "edges.txt").expect("edges"),
        );

        // The warm run's report carries the splice accounting.
        let report = m.read_output(1, "report.json").expect("report");
        let text = std::str::from_utf8(&report).expect("utf8");
        assert!(text.contains("\"nodes_reused\""), "{text}");
        assert!(text.contains("\"dirty_nodes\""), "{text}");

        // Wrong node count is a typed 422.
        let narrow = sample_statuses(4, 5);
        assert_eq!(
            m.append_cascades(1, &statuses_bytes(&narrow))
                .unwrap_err()
                .status,
            422
        );
        m.shutdown_and_join();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn appends_while_running_buffer_and_apply_as_one_batch() {
        let dir = tmp_dir("buffered");
        let (m, _) = manager(&dir);
        let first = sample_statuses(30, 8);
        m.submit(JobSpec::default(), &statuses_bytes(&first))
            .expect("submit");
        wait_terminal(&m, 1);

        // Simulate a worker owning the job: appends must buffer, not 409.
        {
            let mut st = m.state.lock().expect("state lock");
            st.jobs.get_mut(&1).expect("job").meta.state = JobState::Running;
        }
        let more_a = sample_statuses(6, 8);
        let more_b = sample_statuses(4, 8);
        let (meta, buffered) = m
            .append_cascades(1, &statuses_bytes(&more_a))
            .expect("append A");
        assert!(buffered, "append to a running job is buffered");
        assert_eq!(meta.revision, 1, "revision bumps only when applied");
        let (_, buffered) = m
            .append_cascades(1, &statuses_bytes(&more_b))
            .expect("append B");
        assert!(buffered);
        assert_eq!(pending_paths(&m.job_dir(1)).len(), 2);

        // The "running" job finishes: the terminal transition folds both
        // buffered batches in with one revision bump and re-queues.
        m.run_one(1, 0.0);
        let done = wait_terminal(&m, 1);
        assert_eq!(done.state, JobState::Done);
        assert_eq!(done.revision, 2, "one bump per applied batch");
        assert_eq!(done.processes, 40);
        assert!(pending_paths(&m.job_dir(1)).is_empty());

        // Byte-identical to a fresh run over base + A + B.
        let combined = concat_statuses(&concat_statuses(&first, &more_a), &more_b);
        let fresh = m
            .submit(JobSpec::default(), &statuses_bytes(&combined))
            .expect("submit combined");
        wait_terminal(&m, fresh.id);
        assert_eq!(
            m.read_output(1, "edges.txt").expect("edges"),
            m.read_output(fresh.id, "edges.txt").expect("edges"),
        );
        m.shutdown_and_join();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn restart_applies_buffered_appends_to_terminal_jobs() {
        let dir = tmp_dir("stranded");
        let first = sample_statuses(30, 8);
        let more = sample_statuses(8, 8);
        {
            let (m, _) = manager(&dir);
            m.submit(JobSpec::default(), &statuses_bytes(&first))
                .expect("submit");
            wait_terminal(&m, 1);
            // Buffer an append as if the process died mid-run: the
            // in-memory Running state is never persisted, so on disk
            // the job stays `done` with a pending batch beside it.
            {
                let mut st = m.state.lock().expect("state lock");
                st.jobs.get_mut(&1).expect("job").meta.state = JobState::Running;
            }
            let (_, buffered) = m
                .append_cascades(1, &statuses_bytes(&more))
                .expect("append");
            assert!(buffered);
            m.shutdown_and_join();
        }
        // Restart: the rescan folds the stranded batch in and re-runs.
        let (m, _) = manager(&dir);
        let done = wait_terminal(&m, 1);
        assert_eq!(done.state, JobState::Done);
        assert_eq!(done.revision, 2);
        assert_eq!(done.processes, 38);
        assert!(pending_paths(&m.job_dir(1)).is_empty());
        let combined = concat_statuses(&first, &more);
        let fresh = m
            .submit(JobSpec::default(), &statuses_bytes(&combined))
            .expect("submit combined");
        wait_terminal(&m, fresh.id);
        assert_eq!(
            m.read_output(1, "edges.txt").expect("edges"),
            m.read_output(fresh.id, "edges.txt").expect("edges"),
        );
        m.shutdown_and_join();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn streamed_job_rejects_cascade_append() {
        let dir = tmp_dir("streamed-append");
        let (m, _) = manager(&dir);
        let statuses = sample_statuses(40, 8);
        m.submit(
            JobSpec {
                memory_budget: Some(8 << 20),
                ..JobSpec::default()
            },
            &statuses_bytes(&statuses),
        )
        .expect("submit");
        wait_terminal(&m, 1);
        let err = m
            .append_cascades(1, &statuses_bytes(&sample_statuses(5, 8)))
            .unwrap_err();
        assert_eq!(err.status, 422);
        assert!(err.message.contains("streamed"), "{}", err.message);
        m.shutdown_and_join();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn restart_resumes_persisted_queue() {
        let dir = tmp_dir("restart");
        let statuses = sample_statuses(40, 8);
        {
            let (m, _) = manager(&dir);
            m.submit(JobSpec::default(), &statuses_bytes(&statuses))
                .expect("submit");
            wait_terminal(&m, 1);
            m.shutdown_and_join();
        }
        // A second manager over the same dir sees the finished job and
        // assigns fresh ids after it.
        let (m, _) = manager(&dir);
        let jobs = m.list();
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].state, JobState::Done);
        let meta = m
            .submit(JobSpec::default(), &statuses_bytes(&statuses))
            .expect("submit");
        assert_eq!(meta.id, 2);
        wait_terminal(&m, 2);
        assert_eq!(
            m.read_output(1, "edges.txt").expect("edges"),
            m.read_output(2, "edges.txt").expect("edges"),
        );
        m.shutdown_and_join();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn graceful_shutdown_leaves_job_resumable() {
        let dir = tmp_dir("graceful");
        let statuses = sample_statuses(60, 10);
        {
            let shutdown = Arc::new(AtomicBool::new(true)); // cancel immediately
            let m = JobManager::new(
                &dir,
                1,
                Arc::clone(&shutdown),
                Arc::new(Recorder::new()),
                Arc::new(FaultPlan::disabled()),
            )
            .expect("manager");
            // Workers exit instantly on the pre-set flag, so drive the
            // cancelled run directly to exercise the interrupt path.
            let meta = m
                .submit(JobSpec::default(), &statuses_bytes(&statuses))
                .expect("submit");
            m.run_one(meta.id, 0.0);
            let (meta, _) = m.status(1).expect("job");
            assert_eq!(
                meta.state,
                JobState::Running,
                "interrupted job stays running"
            );
            m.shutdown_and_join();
        }
        // Restart: the rescan re-enqueues the running job and it finishes.
        let (m, _) = manager(&dir);
        let done = wait_terminal(&m, 1);
        assert_eq!(done.state, JobState::Done);
        m.shutdown_and_join();
        let _ = fs::remove_dir_all(&dir);
    }

    fn counter(m: &JobManager, name: &str) -> u64 {
        m.rec.snapshot().counters.get(name).copied().unwrap_or(0)
    }

    /// Waits for a terminal state with no append batch left pending.
    fn wait_settled(m: &JobManager, id: u64) -> JobMeta {
        for _ in 0..600 {
            let meta = wait_terminal(m, id);
            if pending_paths(&m.job_dir(id)).is_empty() {
                return meta;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("job {id} never settled");
    }

    #[test]
    fn apply_failing_after_its_commit_is_not_applied_twice() {
        let dir = tmp_dir("apply-commit-fault");
        let first = sample_statuses(30, 8);
        let more = sample_statuses(10, 8);
        {
            // `job_flush` hits: submit, claim, done, then the apply's
            // commit. The 4th fails after `job.json` is written: the
            // window where the batch is committed but still pending.
            let m = JobManager::new(
                &dir,
                1,
                Arc::new(AtomicBool::new(false)),
                Arc::new(Recorder::new()),
                Arc::new(FaultPlan::new().io_error(FAULT_JOB_FLUSH, 4)),
            )
            .expect("manager");
            m.submit(JobSpec::default(), &statuses_bytes(&first))
                .expect("submit");
            wait_terminal(&m, 1);
            let err = m
                .append_cascades(1, &statuses_bytes(&more))
                .expect_err("injected fault");
            assert_eq!(err.status, 500);
            m.shutdown_and_join();
        }
        let (m, _) = manager(&dir);
        let done = wait_settled(&m, 1);
        assert_eq!(done.state, JobState::Done);
        assert_eq!(done.processes, 40, "the batch is applied exactly once");
        assert_eq!(done.revision, 2);
        let fresh = m
            .submit(
                JobSpec::default(),
                &statuses_bytes(&concat_statuses(&first, &more)),
            )
            .expect("submit combined");
        wait_terminal(&m, fresh.id);
        assert_eq!(
            m.read_output(1, "edges.txt").expect("edges"),
            m.read_output(fresh.id, "edges.txt").expect("edges"),
        );
        m.shutdown_and_join();
        let _ = fs::remove_dir_all(&dir);
    }

    #[cfg(unix)]
    #[test]
    fn statuses_txt_is_written_once_across_appends() {
        use std::os::unix::fs::MetadataExt;
        let dir = tmp_dir("write-once");
        let (m, _) = manager(&dir);
        let mut combined = sample_statuses(30, 8);
        m.submit(JobSpec::default(), &statuses_bytes(&combined))
            .expect("submit");
        wait_terminal(&m, 1);
        let base = m.job_dir(1).join("statuses.txt");
        let bytes = fs::read(&base).expect("read base");
        let inode = fs::metadata(&base).expect("stat base").ino();
        for (revision, beta) in [(2, 6), (3, 4), (4, 9)] {
            let more = sample_statuses(beta, 8);
            m.append_cascades(1, &statuses_bytes(&more))
                .expect("append");
            combined = concat_statuses(&combined, &more);
            let done = wait_terminal(&m, 1);
            assert_eq!((done.state, done.revision), (JobState::Done, revision));
            assert_eq!(fs::read(&base).expect("read base"), bytes);
            assert_eq!(fs::metadata(&base).expect("stat base").ino(), inode);
            let segment = m.job_dir(1).join(segment_name(revision));
            assert_eq!(
                load_status_matrix(segment).expect("segment"),
                more,
                "revision {revision}'s segment holds exactly its batch"
            );
        }
        let fresh = m
            .submit(JobSpec::default(), &statuses_bytes(&combined))
            .expect("submit combined");
        wait_terminal(&m, fresh.id);
        assert_eq!(
            m.read_output(1, "edges.txt").expect("edges"),
            m.read_output(fresh.id, "edges.txt").expect("edges"),
        );
        m.shutdown_and_join();
        let _ = fs::remove_dir_all(&dir);
    }

    /// The report minus its runtime section.
    fn deterministic_report(m: &JobManager, id: u64) -> String {
        let bytes = m.read_output(id, "report.json").expect("report");
        let mut json = parse_json(std::str::from_utf8(&bytes).expect("utf8")).expect("json");
        json.remove("runtime");
        json.to_pretty()
    }

    #[test]
    fn resident_and_reloaded_warm_runs_are_byte_identical() {
        let first = sample_statuses(30, 8);
        let more = sample_statuses(10, 8);
        let hits = "job_input_resident_hits";
        let loads = "job_input_loads";

        // Resident: submit keeps the parsed matrix, the apply grows it in
        // memory, and the warm run reads it without touching the disk.
        let dir_a = tmp_dir("resident");
        let (a, _) = manager(&dir_a);
        a.submit(JobSpec::default(), &statuses_bytes(&first))
            .expect("submit");
        wait_terminal(&a, 1);
        let (hits0, loads0) = (counter(&a, hits), counter(&a, loads));
        a.append_cascades(1, &statuses_bytes(&more))
            .expect("append");
        assert_eq!(wait_terminal(&a, 1).revision, 2);
        assert_eq!(counter(&a, hits) - hits0, 1, "the warm run is a hit");
        assert_eq!(counter(&a, loads) - loads0, 0, "and loads nothing");

        // Reloaded: the batch is still pending when the process stops, so
        // the warm run after the restart loads base + segment from disk.
        let dir_b = tmp_dir("reloaded");
        {
            let (b, _) = manager(&dir_b);
            b.submit(JobSpec::default(), &statuses_bytes(&first))
                .expect("submit");
            wait_terminal(&b, 1);
            b.state
                .lock()
                .expect("state lock")
                .jobs
                .get_mut(&1)
                .expect("job")
                .meta
                .state = JobState::Running;
            let (_, buffered) = b
                .append_cascades(1, &statuses_bytes(&more))
                .expect("append");
            assert!(buffered);
            b.shutdown_and_join();
        }
        let (b, _) = manager(&dir_b);
        assert_eq!(wait_terminal(&b, 1).revision, 2);
        assert_eq!(counter(&b, loads), 1, "the first run after a restart loads");
        assert_eq!(counter(&b, hits), 0);

        assert_eq!(
            a.read_output(1, "edges.txt").expect("edges"),
            b.read_output(1, "edges.txt").expect("edges"),
        );
        assert_eq!(deterministic_report(&a, 1), deterministic_report(&b, 1));
        let gauge = |m: &JobManager| {
            m.rec
                .snapshot()
                .values
                .get("job_input_resident_bytes")
                .copied()
        };
        // 40 rows of one word each, charged without spare capacity on both
        // paths: grown in memory by the apply, or loaded from disk.
        assert_eq!(gauge(&a), Some(40.0 * 8.0));
        assert_eq!(gauge(&b), Some(40.0 * 8.0));
        for m in [a, b] {
            m.shutdown_and_join();
        }
        let _ = fs::remove_dir_all(&dir_a);
        let _ = fs::remove_dir_all(&dir_b);
    }

    #[test]
    fn resident_inputs_evict_least_recently_used_under_the_cap() {
        let input = |id, revision, beta| ResidentInput {
            id,
            revision,
            statuses: Arc::new(StatusMatrix::new(beta, 64)),
            delta_rows: 0,
        };
        // One word per row at n = 64: a β-row input costs 8β bytes.
        let mut resident = ResidentInputs::new(8 * 100);
        resident.insert(input(1, 1, 40));
        resident.insert(input(2, 1, 40));
        assert!(resident.get(1, 1).is_some(), "touch job 1");
        resident.insert(input(3, 1, 40));
        assert!(
            resident.get(2, 1).is_none(),
            "job 2 was least recently used"
        );
        assert!(resident.get(1, 1).is_some() && resident.get(3, 1).is_some());
        // A new revision replaces the old one of the same job.
        resident.insert(input(1, 2, 50));
        assert!(resident.get(1, 1).is_none() && resident.get(1, 2).is_some());
        assert_eq!(resident.bytes, 8 * 90);
        // An input over the cap on its own is not kept.
        resident.insert(input(4, 1, 101));
        assert!(resident.get(4, 1).is_none());
        assert_eq!(resident.bytes, 8 * 90);
    }

    #[test]
    fn version_1_job_dirs_are_rejected() {
        let mut v1 = JobMeta::new(1, JobSpec::default(), 4, 3).to_json();
        v1.remove("version");
        v1.push("version", 1u64);
        let err = JobMeta::from_json(&v1).unwrap_err();
        assert!(err.contains("unsupported diffnet-job version 1"), "{err}");

        let dir = tmp_dir("v1");
        fs::create_dir_all(dir.join("job-1")).expect("job dir");
        fs::write(dir.join("job-1").join("job.json"), v1.to_pretty()).expect("write v1");
        let err = JobManager::new(
            &dir,
            1,
            Arc::new(AtomicBool::new(false)),
            Arc::new(Recorder::new()),
            Arc::new(FaultPlan::disabled()),
        )
        .err()
        .expect("a v1 data dir is refused");
        assert!(err.to_string().contains("unsupported"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn job_report_injects_runtime_job_only() {
        let rec = Recorder::new();
        {
            let _p = rec.phase("load_statuses");
        }
        rec.add("edges_emitted", 3);
        let report = RunReport::new("tends", rec.snapshot(), 2);
        let json = job_report_json(&report, 9, JobState::Done, 4, 0.25);
        diffnet_observe::validate_report_json(&json.to_pretty(), &["load_statuses"], &[])
            .expect("valid");
        let job = json.get("runtime").and_then(|r| r.get("job")).expect("job");
        assert_eq!(job.get("id").and_then(Json::as_f64), Some(9.0));
        assert_eq!(job.get("revision").and_then(Json::as_f64), Some(4.0));
        assert_eq!(job.get("queue_wait_s").and_then(Json::as_f64), Some(0.25));
        // Stripping runtime removes the job record: the deterministic
        // section is unchanged relative to an offline run.
        let mut stripped = json.clone();
        stripped.remove("runtime");
        assert_eq!(stripped.to_pretty(), report.deterministic_json());
    }
}
