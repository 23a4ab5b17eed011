//! The TENDS algorithm (paper Algorithm 1): end-to-end reconstruction of a
//! diffusion network topology from a status matrix.

use crate::checkpoint::{self, Checkpoint, CheckpointEntry, CheckpointError};
use crate::imi::{CorrelationMatrix, CorrelationMeasure, PairStats};
use crate::kmeans::{pinned_two_means, PinnedKmeans};
use crate::parallel;
use crate::score::ScoreCacheStats;
use crate::search::{
    find_parents_reference, find_parents_with, JointTable, NodeSearchResult, SearchError,
    SearchParams, SearchScratch, SearchStats,
};
use crate::stream::{self, Shard};
use diffnet_graph::{DiGraph, GraphBuilder, NodeId};
use diffnet_observe::{FaultPlan, Recorder, SpanId};
use diffnet_simulate::{NodeColumns, StatusMatrix, WorkspaceStats};
use std::collections::BTreeMap;
use std::fmt;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Mutex};

/// How the pruning threshold `τ` is chosen.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub enum ThresholdMode {
    /// Find `τ` with the pinned 2-means over the pairwise correlation
    /// values (Algorithm 1 line 5). Default.
    #[default]
    Auto,
    /// Use a fixed threshold (for sensitivity studies).
    Fixed(f64),
    /// Find `τ` automatically, then scale it by the given factor — the
    /// paper's Fig. 10–11 sweep varies the threshold from `0.4τ` to `2τ`.
    ScaledAuto(f64),
}

impl ThresholdMode {
    /// The applied τ given the pinned 2-means τ of the run's pair values —
    /// the one place the mode is resolved.
    pub fn resolve(self, auto_tau: f64) -> f64 {
        match self {
            ThresholdMode::Auto => auto_tau,
            ThresholdMode::Fixed(t) => t,
            ThresholdMode::ScaledAuto(s) => auto_tau * s,
        }
    }
}

/// How inferred edge directions are post-processed.
///
/// Final infection statuses carry no directional information *within* a
/// pair — the likelihood gain of `u` as a parent of `v` equals that of `v`
/// as a parent of `u` — so on networks with one-directional edges TENDS
/// tends to propose both directions. These policies let a user encode
/// domain knowledge about reciprocity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum DirectionPolicy {
    /// Keep the per-node selections as-is (the paper's behaviour). Default.
    #[default]
    AsIs,
    /// Whenever `u -> v` is inferred, also add `v -> u`: appropriate when
    /// influence is known to be mutual (coauthorship, physical contact).
    Symmetrize,
    /// Keep only pairs inferred in *both* directions: raises precision on
    /// reciprocal networks by demanding agreement between the two
    /// independent per-node searches.
    MutualOnly,
}

/// Full configuration of a TENDS run.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct TendsConfig {
    /// Pairwise correlation measure for pruning (IMI, or plain MI for the
    /// paper's ablation).
    pub correlation: CorrelationMeasure,
    /// Threshold selection mode.
    pub threshold: ThresholdMode,
    /// Parent-search parameters.
    pub search: SearchParams,
    /// Edge-direction post-processing.
    pub direction: DirectionPolicy,
    /// Worker threads for the per-node parent searches (each node's search
    /// is independent). `0` uses all available cores; `1` (default) runs
    /// single-threaded, which keeps timing comparisons with the
    /// single-threaded baselines honest.
    pub threads: usize,
    /// Peak-memory budget in bytes for the out-of-core streamed IMI path.
    /// Setting this (or [`shard`](TendsConfig::shard)) switches
    /// reconstruction from the dense `n × n` correlation matrix to the
    /// streamed sparse-candidate pipeline (see [`crate::stream`]): τ comes
    /// from a budget-sized systematic pair sample and candidates from
    /// bounded per-node accumulators. `None` (default) keeps the dense
    /// path — the bit-identity oracle. The budget also sizes the τ
    /// sample, so runs must share a budget to share τ bit-for-bit.
    pub memory_budget: Option<u64>,
    /// Restricts the streamed path to one contiguous node range: only the
    /// shard's nodes get candidate lists, parent searches, and edges, so
    /// one logical reconstruction can be split across processes and
    /// merged by edge union. Implies the streamed path. The result's
    /// `node_results` are indexed by `node − shard.start`; the graph
    /// keeps global node ids. Incompatible with
    /// [`DirectionPolicy::MutualOnly`], which needs every node's parent
    /// set (callers must reject that combination; the library asserts).
    pub shard: Option<Shard>,
}

/// Result of a TENDS reconstruction.
#[derive(Clone, Debug)]
pub struct TendsResult {
    /// The inferred diffusion network topology.
    pub graph: DiGraph,
    /// The pruning threshold that was applied.
    pub tau: f64,
    /// Details of the threshold clustering (the *unscaled* `τ` lives in
    /// here when [`ThresholdMode::ScaledAuto`] is used).
    pub kmeans: PinnedKmeans,
    /// Per-node search outcomes, indexed by node id — or, on a sharded
    /// streamed run, by `node − shard.start` (only the shard's nodes are
    /// searched).
    pub node_results: Vec<NodeSearchResult>,
    /// The global score `g(T)` of the inferred topology (Eq. 12): the sum
    /// of the per-node local scores.
    pub global_score: f64,
}

/// Why one node's parent search failed.
#[derive(Debug)]
pub enum NodeError {
    /// The search configuration exceeded the counting kernels' limits.
    Search(SearchError),
    /// An I/O failure reached the search (in practice: injected by a
    /// [`FaultPlan`] to exercise degradation paths).
    Io(std::io::Error),
    /// The run was cancelled through [`RobustOptions::cancel`] before this
    /// node was searched; completed nodes stay checkpointed, so a resumed
    /// run picks up exactly here.
    Cancelled,
}

impl fmt::Display for NodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeError::Search(e) => e.fmt(f),
            NodeError::Io(e) => write!(f, "I/O error during node search: {e}"),
            NodeError::Cancelled => write!(f, "node search cancelled before it started"),
        }
    }
}

impl std::error::Error for NodeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NodeError::Search(e) => Some(e),
            NodeError::Io(e) => Some(e),
            NodeError::Cancelled => None,
        }
    }
}

/// A reconstruction that survived per-node failures instead of aborting:
/// failed nodes simply contribute no parent edges, and the caller decides
/// whether a partial topology is acceptable (the CLI signals it with a
/// dedicated exit code).
#[derive(Debug)]
pub struct PartialReconstruction {
    /// The reconstruction over the nodes that succeeded; failed nodes
    /// have an empty parent set and a zero local score.
    pub result: TendsResult,
    /// Nodes whose parent search failed, in ascending id order.
    pub failed_nodes: Vec<NodeId>,
    /// The failures, parallel to `failed_nodes`.
    pub errors: Vec<(NodeId, NodeError)>,
    /// Nodes restored from a checkpoint instead of searched. On the
    /// incremental append path this counts nodes whose parent sets were
    /// replayed from persisted joint tables rather than re-searched.
    pub resumed_nodes: usize,
    /// Checkpoint writes performed during the run (delta batches plus the
    /// final compaction).
    pub checkpoint_flushes: u64,
    /// Append-only delta records written to the checkpoint before the
    /// final compaction rewrite.
    pub delta_records: u64,
}

impl PartialReconstruction {
    /// True when every node's search succeeded.
    pub fn is_complete(&self) -> bool {
        self.failed_nodes.is_empty()
    }

    /// The inferred (possibly partial) topology.
    pub fn graph(&self) -> &DiGraph {
        &self.result.graph
    }
}

/// Robustness options for [`Tends::reconstruct_robust`]: checkpointing,
/// resume, and fault injection. [`Default`] disables all three.
#[derive(Debug)]
pub struct RobustOptions<'a> {
    /// Checkpoint file to write progress to; `None` disables
    /// checkpointing.
    pub checkpoint: Option<PathBuf>,
    /// Load `checkpoint` first and skip the nodes it already contains. A
    /// missing file is treated as an empty checkpoint so restart loops
    /// can pass `resume` unconditionally.
    pub resume: bool,
    /// Flush the checkpoint after this many newly completed nodes
    /// (clamped to ≥ 1).
    pub checkpoint_interval: usize,
    /// Fault-injection plan consulted at the `node_search` and
    /// `checkpoint_flush` sites.
    pub fault: &'a FaultPlan,
    /// Cooperative cancellation flag, polled before each node's search.
    /// Once set, remaining nodes fail with [`NodeError::Cancelled`] while
    /// every already-completed node still reaches the checkpoint's final
    /// flush — this is how a serving daemon checkpoints in-flight jobs on
    /// graceful shutdown. `None` (default) never cancels.
    pub cancel: Option<&'a std::sync::atomic::AtomicBool>,
    /// Sufficient-statistics revision of the input matrix: 0 for the
    /// original submission, bumped once per applied cascade-append batch.
    /// Folded into the checkpoint fingerprint so a resume against a stale
    /// pre-append checkpoint fails with a typed mismatch instead of
    /// silently splicing parents estimated from fewer cascades.
    pub revision: u64,
}

impl Default for RobustOptions<'_> {
    fn default() -> Self {
        RobustOptions {
            checkpoint: None,
            resume: false,
            checkpoint_interval: 8,
            fault: FaultPlan::none(),
            cancel: None,
            revision: 0,
        }
    }
}

impl TendsResult {
    /// Total number of local-score evaluations across all nodes (a proxy
    /// for search effort, used by the pruning experiments).
    pub fn total_evaluations(&self) -> usize {
        self.node_results.iter().map(|r| r.stats.evaluations).sum()
    }

    /// Mean number of surviving candidate parents per node.
    pub fn mean_candidates(&self) -> f64 {
        if self.node_results.is_empty() {
            return 0.0;
        }
        self.node_results
            .iter()
            .map(|r| r.candidates.len())
            .sum::<usize>() as f64
            / self.node_results.len() as f64
    }
}

/// The TENDS estimator.
///
/// ```
/// use diffnet_graph::DiGraph;
/// use diffnet_simulate::{EdgeProbs, IcConfig, IndependentCascade};
/// use diffnet_tends::Tends;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// // Hidden ground truth: a directed chain.
/// let truth = DiGraph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
/// let mut rng = StdRng::seed_from_u64(7);
/// let probs = EdgeProbs::constant(&truth, 0.5);
/// let obs = IndependentCascade::new(&truth, &probs)
///     .observe(IcConfig { initial_ratio: 0.2, num_processes: 400 }, &mut rng);
///
/// let result = Tends::new().reconstruct(&obs.statuses).expect("default search fits");
/// assert_eq!(result.graph.node_count(), 6);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Tends {
    config: TendsConfig,
}

impl Tends {
    /// TENDS with the paper's default configuration.
    pub fn new() -> Self {
        Tends::default()
    }

    /// TENDS with an explicit configuration.
    pub fn with_config(config: TendsConfig) -> Self {
        Tends { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &TendsConfig {
        &self.config
    }

    /// Reconstructs the diffusion network topology from final infection
    /// statuses (Algorithm 1).
    ///
    /// # Errors
    ///
    /// Returns [`SearchError`] when the search configuration asks the
    /// counting kernels to tabulate a parent set beyond their limit —
    /// unreachable with default parameters, reachable with hostile ones
    /// (see [`crate::search::find_parents`]).
    pub fn reconstruct(&self, statuses: &StatusMatrix) -> Result<TendsResult, SearchError> {
        self.reconstruct_observed(statuses, Recorder::disabled())
    }

    /// [`reconstruct`](Self::reconstruct) with instrumentation: each
    /// pipeline phase is timed on `rec`, and the load-bearing internals
    /// (pairs above `τ`, candidate-set sizes, Theorem-2 rejections,
    /// combinations scored, workspace refinements, pool utilization) are
    /// ingested at phase boundaries — the hot loops only bump plain
    /// integers. Passing [`Recorder::disabled`] makes every recorder call
    /// a branch on a constant, so `reconstruct` simply delegates here.
    ///
    /// The recorder is a parameter rather than a `TendsConfig` field
    /// because the config is `Copy` (it is embedded in sweep/ablation
    /// tables all over the workspace) and a collector handle is not.
    pub fn reconstruct_observed(
        &self,
        statuses: &StatusMatrix,
        rec: &Recorder,
    ) -> Result<TendsResult, SearchError> {
        let partial = self
            .reconstruct_robust(statuses, rec, &RobustOptions::default())
            .expect("checkpointing disabled: checkpoint errors are impossible");
        match partial.errors.into_iter().next() {
            None => Ok(partial.result),
            Some((_, NodeError::Search(e))) => Err(e),
            Some((_, NodeError::Io(e))) => {
                unreachable!("no fault plan installed, got injected I/O error: {e}")
            }
            Some((_, NodeError::Cancelled)) => {
                unreachable!("no cancellation flag installed, got a cancelled node")
            }
        }
    }

    /// [`reconstruct_observed`](Self::reconstruct_observed) with the full
    /// robustness layer: optional periodic checkpointing of completed
    /// per-node searches, resume from a prior checkpoint, fault
    /// injection, and graceful degradation — per-node failures are
    /// collected into the returned [`PartialReconstruction`] instead of
    /// aborting the run.
    ///
    /// Resume is *bit-identical*: because each node's result is a pure
    /// function of its id (and scores/counters are checkpointed
    /// bit-exactly), a run interrupted at any point and resumed at any
    /// thread count produces the same graph and the same deterministic
    /// report sections as an uninterrupted run.
    ///
    /// # Errors
    ///
    /// Only checkpoint problems are fatal: an unreadable, corrupt, or
    /// mismatched (different inputs/config) checkpoint file, or a failed
    /// checkpoint write.
    pub fn reconstruct_robust(
        &self,
        statuses: &StatusMatrix,
        rec: &Recorder,
        options: &RobustOptions<'_>,
    ) -> Result<PartialReconstruction, CheckpointError> {
        let cols = {
            let _p = rec.phase("status_columns");
            statuses.columns()
        };
        self.reconstruct_robust_from_columns(&cols, rec, options)
    }

    /// Incremental re-estimation after a cascade append: folds the
    /// appended processes into the checkpointed sufficient statistics,
    /// recomputes τ and every candidate set, and re-runs the parent search
    /// only for *dirty* nodes. A node is clean when its freshly derived
    /// candidate list equals the one its checkpointed search ran over, a
    /// joint table was persisted for it, and that table plus a delta table
    /// counted from the appended columns alone has exactly the marginals
    /// of the post-append statistics (`β`, the child's ones count, and
    /// `n11` against every candidate); a table that fails the check — a
    /// corrupted entry — is dirty, not an error. Clean nodes are
    /// *replayed* from the merged table, which reproduces the
    /// combined-matrix search bit-for-bit (see [`JointTable`]), so edges,
    /// scores, and τ are byte-identical to
    /// [`reconstruct_robust`](Self::reconstruct_robust) over the combined
    /// matrix at every thread count and SIMD tier — while replay cost is
    /// independent of how many processes history already holds.
    ///
    /// `combined` must contain exactly the base run's processes plus the
    /// `appended` processes (row order is irrelevant: every statistic is a
    /// function of the row multiset). `options.revision` must be the
    /// *bumped* revision (checkpoint revision + 1) and `options.checkpoint`
    /// must name the base run's checkpoint. The post-append run
    /// checkpoints like any other: its header (new revision, combined
    /// statistics) atomically replaces the file, then completed nodes
    /// append as delta records. If the file already carries the bumped
    /// revision — an append interrupted after that header landed, by a
    /// crash or by cancellation — the call is a plain resume of the
    /// combined run.
    ///
    /// Replayed nodes report zero score-cache activity (the replay is
    /// cacheless); every other search counter matches the fresh run.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Format`] when the checkpoint is missing, carries
    /// no sufficient statistics (streamed checkpoints), disagrees with the
    /// matrix shapes, or its revision cannot warm-start
    /// `options.revision`; [`CheckpointError::Mismatch`] when the
    /// persisted fingerprint is not reproducible from the checkpoint's own
    /// statistics under the current config (a stale or foreign file).
    pub fn reconstruct_robust_append(
        &self,
        combined: &StatusMatrix,
        appended: &StatusMatrix,
        rec: &Recorder,
        options: &RobustOptions<'_>,
    ) -> Result<PartialReconstruction, CheckpointError> {
        assert!(
            self.config.memory_budget.is_none() && self.config.shard.is_none(),
            "incremental append is a dense-path operation; callers reject streamed configs",
        );
        let path = options.checkpoint.as_ref().ok_or_else(|| {
            CheckpointError::Format("incremental append requires a checkpoint file".into())
        })?;
        let ck = Checkpoint::load(path)?;
        if ck.revision == options.revision {
            // The previous attempt already wrote this append's header
            // before being interrupted: plain resume.
            let opts = RobustOptions {
                checkpoint: options.checkpoint.clone(),
                resume: true,
                ..*options
            };
            return self.reconstruct_robust(combined, rec, &opts);
        }
        if ck.revision + 1 != options.revision {
            return Err(CheckpointError::Format(format!(
                "checkpoint revision {} cannot warm-start append revision {}",
                ck.revision, options.revision
            )));
        }
        let mut stats = ck.stats.clone().ok_or_else(|| {
            CheckpointError::Format(
                "checkpoint has no sufficient statistics \
                 (streamed checkpoints cannot warm-start appends)"
                    .into(),
            )
        })?;
        let n = combined.num_nodes();
        if stats.num_nodes() != n || appended.num_nodes() != n {
            return Err(CheckpointError::Format(format!(
                "node counts disagree: checkpoint {}, combined {}, appended {}",
                stats.num_nodes(),
                n,
                appended.num_nodes()
            )));
        }
        if stats.num_processes() + appended.num_processes() as u64
            != combined.num_processes() as u64
        {
            return Err(CheckpointError::Format(format!(
                "process counts disagree: checkpoint {} + appended {} != combined {}",
                stats.num_processes(),
                appended.num_processes(),
                combined.num_processes()
            )));
        }

        let (combined_cols, appended_cols) = {
            let _p = rec.phase("status_columns");
            (combined.columns(), appended.columns())
        };

        // The statistics' integrity was already established when
        // `Checkpoint::load` re-verified their content digest, so the warm
        // path spends no `O(n²)` pipeline work validating the past. Fold
        // the appended processes in — work proportional to the new columns
        // only — and derive the post-append correlation matrix from the
        // updated counts.
        let stage = {
            let corr = {
                let _p = rec.phase("stats_append");
                stats.append(&appended_cols, self.config.threads);
                if rec.is_enabled() {
                    rec.add("append_processes", appended_cols.num_processes() as u64);
                }
                stats.correlation(self.config.correlation)
            };
            self.threshold_and_candidates(&corr, rec)
        };
        let warm = Warm {
            entries: &ck.entries,
            appended: &appended_cols,
            stats: &stats,
        };
        self.run_stage(
            stage,
            Some(stats.clone()),
            &combined_cols,
            Some(warm),
            rec,
            options,
        )
    }

    /// [`reconstruct_robust`](Self::reconstruct_robust) starting from the
    /// column bitset view — the entry point for out-of-core callers that
    /// streamed the columns straight off disk
    /// (`diffnet_simulate::io::load_status_columns`) and never held the
    /// row-major matrix.
    ///
    /// Dispatches on the config: with
    /// [`memory_budget`](TendsConfig::memory_budget) or
    /// [`shard`](TendsConfig::shard) set, τ and the candidates come from
    /// the streamed sparse-candidate fold (phases `tau_sample`,
    /// `streamed_fold`); otherwise from the dense correlation matrix.
    pub fn reconstruct_robust_from_columns(
        &self,
        cols: &NodeColumns,
        rec: &Recorder,
        options: &RobustOptions<'_>,
    ) -> Result<PartialReconstruction, CheckpointError> {
        if self.config.memory_budget.is_some() || self.config.shard.is_some() {
            return self.reconstruct_streamed(cols, rec, options);
        }

        // Lines 2–4: pairwise correlation values. With checkpointing
        // enabled the same tiled pass also captures the pairwise
        // sufficient statistics (β, per-node ones, upper-triangle n11)
        // that make later cascade appends incremental; both variants
        // produce bit-identical matrices.
        let (stage, stats) = {
            let (corr, stats) = {
                let _p = rec.phase("correlation_matrix");
                let (measure, threads) = (self.config.correlation, self.config.threads);
                if options.checkpoint.is_some() {
                    let (corr, stats) =
                        CorrelationMatrix::compute_observed_with_stats(cols, measure, threads, rec);
                    (corr, Some(stats))
                } else {
                    let corr = CorrelationMatrix::compute_observed(cols, measure, threads, rec);
                    (corr, None)
                }
            };
            (self.threshold_and_candidates(&corr, rec), stats)
        };
        self.run_stage(stage, stats, cols, None, rec, options)
    }

    /// The statistics stage over a dense correlation matrix, shared by the
    /// dense and append sources: τ from the pinned 2-means over the
    /// non-negative upper-triangle values (Algorithm 1 line 5), then each
    /// node's ranked candidates above τ (lines 10–12) from one fold of the
    /// triangle into the streamed path's sparse accumulator.
    fn threshold_and_candidates(&self, corr: &CorrelationMatrix, rec: &Recorder) -> Stage {
        let kmeans = {
            let _p = rec.phase("threshold");
            pinned_two_means(corr.upper_triangle())
        };
        let tau = self.record_tau(&kmeans, rec);
        let candidates = {
            let _p = rec.phase("candidate_pruning");
            let (candidates, above) =
                stream::fold_dense(corr, tau, self.config.search.max_candidates);
            if rec.is_enabled() {
                rec.add("pairs_above_tau", above);
            }
            candidates
        };
        if rec.is_enabled() {
            for cands in &candidates {
                rec.histogram("candidate_set_size", cands.len());
            }
        }
        Stage {
            kmeans,
            tau,
            candidates,
            base: 0,
        }
    }

    /// The applied τ for a 2-means fit, recorded next to the unscaled τ.
    fn record_tau(&self, kmeans: &PinnedKmeans, rec: &Recorder) -> f64 {
        let tau = self.config.threshold.resolve(kmeans.tau);
        if rec.is_enabled() {
            rec.value("tau", tau);
            rec.value("tau_unscaled", kmeans.tau);
        }
        tau
    }

    /// The streamed statistics source: τ from a budget-sized systematic
    /// pair sample, candidates from bounded sparse accumulators folded tile
    /// by tile, for the configured shard's nodes only. The dense `n × n`
    /// matrix never exists; see [`crate::stream`] for the determinism
    /// argument (results are invariant to threads, SIMD tier, and shard
    /// count, and bit-identical to the dense path whenever the τ sample is
    /// exhaustive).
    fn reconstruct_streamed(
        &self,
        cols: &NodeColumns,
        rec: &Recorder,
        options: &RobustOptions<'_>,
    ) -> Result<PartialReconstruction, CheckpointError> {
        let n = cols.num_nodes();
        let shard = self.config.shard.unwrap_or_else(|| Shard::full(n));
        assert!(
            shard.start <= shard.end && shard.end as usize <= n,
            "shard {}..{} out of range for n = {n}",
            shard.start,
            shard.end,
        );
        // MutualOnly needs the parent set of every node in the graph;
        // a shard only computes its own range. Callers (CLI, daemon)
        // reject the combination with a typed error before getting here.
        assert!(
            self.config.direction != DirectionPolicy::MutualOnly || shard.len() == n,
            "MutualOnly direction requires an unsharded run",
        );

        // τ from the deterministic systematic pair sample.
        let kmeans = {
            let _p = rec.phase("tau_sample");
            let sample = stream::sample_tau(
                cols,
                self.config.correlation,
                self.config.memory_budget,
                self.config.threads,
            );
            if rec.is_enabled() {
                rec.add("tau_sample_pairs", sample.sampled_pairs);
                rec.add("tau_sample_stride", sample.stride);
                let mut span = rec.span_with_parent("rss_sample", _p.span_id());
                if let Some(rss) = diffnet_observe::current_rss_bytes() {
                    span.attr("rss_bytes", rss);
                }
            }
            sample.kmeans
        };
        let tau = self.record_tau(&kmeans, rec);

        // Tile fold: above-τ pairs stream straight into the bounded
        // per-node accumulators; candidate lists come out in
        // candidate_parents order.
        let fold = {
            let _p = rec.phase("streamed_fold");
            let fold = stream::fold_candidates(
                cols,
                self.config.correlation,
                tau,
                self.config.search.max_candidates,
                shard,
                self.config.threads,
            );
            if rec.is_enabled() {
                rec.worker_chunks("streamed_fold", &fold.chunks_per_worker);
                rec.add("pairs_above_tau", fold.pairs_above_tau);
                rec.add("candidate_evictions", fold.candidate_evictions);
                rec.add("correlation_pairs", fold.scanned_pairs);
                rec.add("correlation_tiles", fold.tiles);
                for cands in &fold.candidates {
                    rec.histogram("candidate_set_size", cands.len());
                }
                let mut span = rec.span_with_parent("rss_sample", _p.span_id());
                if let Some(rss) = diffnet_observe::current_rss_bytes() {
                    span.attr("rss_bytes", rss);
                }
            }
            fold
        };
        let stage = Stage {
            kmeans,
            tau,
            candidates: fold.candidates,
            base: shard.start,
        };
        // No sufficient statistics: the streamed path never holds the
        // dense pair state an append would fold into, so its checkpoints
        // resume but do not warm-start appends.
        self.run_stage(stage, None, cols, None, rec, options)
    }

    /// Signature of the search-relevant configuration for checkpoint
    /// fingerprints. `threads` is deliberately excluded (results are
    /// thread-count invariant) and so is `direction` (applied after the
    /// search, to fresh and restored results alike). The streamed path
    /// appends its budget and shard: the budget sizes the τ sample (so
    /// different budgets can mean different τ) and a shard's checkpoint
    /// only covers its own node range — neither may silently resume the
    /// other's file.
    fn config_signature(&self) -> String {
        let mut sig = format!(
            "correlation={:?};search={:?}",
            self.config.correlation, self.config.search
        );
        if self.config.memory_budget.is_some() || self.config.shard.is_some() {
            let shard = self.config.shard.map(|s| (s.start, s.end));
            sig.push_str(&format!(
                ";streamed=1;budget={:?};shard={:?}",
                self.config.memory_budget, shard
            ));
        }
        sig
    }

    /// Everything after the statistics stage, for every source: the
    /// parent search (Algorithm 1 lines 6–20) and the edge assembly
    /// (line 21). `stats` go into the checkpoint header; `warm` is an
    /// append's replayable prior.
    fn run_stage(
        &self,
        stage: Stage,
        stats: Option<PairStats>,
        cols: &NodeColumns,
        warm: Option<Warm<'_>>,
        rec: &Recorder,
        options: &RobustOptions<'_>,
    ) -> Result<PartialReconstruction, CheckpointError> {
        let outcome = {
            let _p = rec.phase("parent_search");
            self.search_all(&stage, stats, cols, warm, rec, _p.span_id(), options)?
        };
        Ok(self.assemble(cols.num_nodes(), stage, outcome, rec))
    }

    /// Line 21 plus bookkeeping: a directed edge from each inferred parent
    /// to its child, the configured direction post-processing, and
    /// assembly into a [`PartialReconstruction`]. Results index by
    /// `node − stage.base`; the graph keeps global ids.
    fn assemble(
        &self,
        n: usize,
        stage: Stage,
        outcome: SearchOutcome,
        rec: &Recorder,
    ) -> PartialReconstruction {
        let node_results = outcome.results;
        let base = stage.base;
        let _p = rec.phase("direction");
        let mut builder = GraphBuilder::new(n);
        let mut global_score = 0.0;
        for (k, res) in node_results.iter().enumerate() {
            let child = base + k as NodeId;
            for &p in &res.parents {
                match self.config.direction {
                    DirectionPolicy::AsIs => {
                        builder.add_edge(p, child);
                    }
                    DirectionPolicy::Symmetrize => {
                        builder.add_reciprocal(p, child);
                    }
                    DirectionPolicy::MutualOnly => {
                        // Only unsharded runs get here (the streamed
                        // source asserts it), so `p − base` indexes p.
                        if node_results[(p - base) as usize].parents.contains(&child) {
                            builder.add_edge(p, child);
                        }
                    }
                }
            }
            global_score += res.score;
        }
        let graph = builder.build();
        drop(_p);
        if rec.is_enabled() {
            rec.add("edges_emitted", graph.edge_count() as u64);
        }

        let failed_nodes: Vec<NodeId> = outcome.failures.iter().map(|&(i, _)| i).collect();
        PartialReconstruction {
            result: TendsResult {
                graph,
                tau: stage.tau,
                kmeans: stage.kmeans,
                node_results,
                global_score,
            },
            failed_nodes,
            errors: outcome.failures,
            resumed_nodes: outcome.resumed_nodes,
            checkpoint_flushes: outcome.flushes,
            delta_records: outcome.delta_records,
        }
    }

    /// The one per-node search driver, on a cost-aware worker pool. Each
    /// node is, in order of preference: *restored* from the resumed
    /// checkpoint as-is; *replayed* — on an append, when its warm entry is
    /// clean (see [`Warm::clean_table`]) — by running the cacheless
    /// reference search over the merged joint table; or *searched* from
    /// the columns.
    ///
    /// Per-node search cost varies wildly: with `k = |P_i|` candidates a
    /// node enumerates `Θ(k²)` combinations (at the default
    /// `max_combo_size = 2`), a replay only marginalizes a `2^k`-cell
    /// table, and a fully pruned node scores only the empty set. Chunks
    /// are therefore weighted by those estimates (see
    /// [`parallel::cost_chunks`]) so a handful of hub nodes doesn't
    /// serialize the pool. Each worker owns one [`SearchScratch`]
    /// (counting workspace + score cache) reused across all its nodes;
    /// each node's result depends only on its id, so the output is
    /// identical for every thread count — and so are the summed
    /// search/workspace/cache counters reported through `rec` (per-worker
    /// chunk claims are the one scheduler-dependent datum, and land in the
    /// runtime-only report section).
    ///
    /// `stage.candidates` may cover a node-range shard rather than all
    /// nodes: `stage.base` is the global id of the slice's first node (0
    /// for dense runs) — spans, fault sites, and checkpoint entries always
    /// use global ids, while results index by `id − base`.
    #[allow(clippy::too_many_arguments)]
    fn search_all(
        &self,
        stage: &Stage,
        stats: Option<PairStats>,
        cols: &NodeColumns,
        warm: Option<Warm<'_>>,
        rec: &Recorder,
        parent_span: Option<SpanId>,
        options: &RobustOptions<'_>,
    ) -> Result<SearchOutcome, CheckpointError> {
        let (candidates, base) = (&stage.candidates, stage.base);
        let n = candidates.len();
        let fp = checkpoint::fingerprint(
            cols.num_processes(),
            cols.num_nodes(),
            stage.tau,
            &self.config_signature(),
            options.revision,
            candidates,
        );

        // Prior progress: a resumed node is returned from the checkpoint
        // instead of searched. A missing file is an empty checkpoint. An
        // append's file holds the previous revision, whose entries are the
        // warm prior instead.
        let mut restored: BTreeMap<NodeId, CheckpointEntry> = BTreeMap::new();
        if let (Some(path), true, None) = (&options.checkpoint, options.resume, &warm) {
            if path.exists() {
                let ck = Checkpoint::load(path)?;
                if ck.fingerprint != fp {
                    return Err(CheckpointError::Mismatch {
                        expected: format!("{fp:016x}"),
                        found: format!("{:016x}", ck.fingerprint),
                    });
                }
                let stray = ck
                    .entries
                    .range(..base)
                    .next()
                    .or_else(|| ck.entries.range(base + n as NodeId..).next());
                if let Some((&id, _)) = stray {
                    return Err(CheckpointError::Format(if base == 0 {
                        format!("node {id} out of range for n = {n}")
                    } else {
                        format!(
                            "node {id} out of range for shard {base}..{}",
                            base + n as NodeId
                        )
                    }));
                }
                restored = ck.entries;
            }
        }
        let fault = options.fault;
        let interval = options.checkpoint_interval.max(1);
        let checkpoint_path = options.checkpoint.as_deref();

        // Checkpointing starts with one atomic write of the header
        // (fingerprint, revision, sufficient statistics) plus any restored
        // entries. From then on the run only *appends* delta records. The
        // writer thread performs the initial save as its first action and
        // then owns every fsync, so the search pool never blocks on
        // checkpoint I/O — not even for the header write.
        let initial = checkpoint_path.map(|_| Checkpoint {
            fingerprint: fp,
            revision: options.revision,
            stats,
            entries: restored.clone(),
        });

        let costs: Vec<u64> = candidates
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let id = base + i as NodeId;
                if restored.contains_key(&id) {
                    1
                } else if warm.as_ref().is_some_and(|w| w.replayable(id, c).is_some()) {
                    1 + c.len() as u64
                } else {
                    1 + (c.len() * c.len()) as u64
                }
            })
            .collect();

        // Completed-node records accumulate in a shared queue; the channel
        // is only a doorbell, rung once `interval` records are pending, so
        // writer wakeups track flush-sized batches instead of nodes — on a
        // single-core box every extra wakeup is a context switch stolen
        // from the search pool. `Sender` is `Send` but not `Sync` and the
        // pool closure must be `Sync`, so workers take a mutex around the
        // (cheap, non-blocking) ring; without a checkpoint the doorbell is
        // born disconnected and the queue stays empty.
        let (tx, rx) = mpsc::channel::<()>();
        let doorbell = checkpoint_path.map(|_| Mutex::new(tx));
        let queue: Mutex<Vec<(NodeId, CheckpointEntry)>> = Mutex::new(Vec::new());

        type NodeOut = (NodeSearchResult, WorkspaceStats, bool);
        let (results, pool, writer_result) = std::thread::scope(|scope| {
            let writer = initial.map(|ck| {
                let path = checkpoint_path.expect("checkpoint path");
                let queue = &queue;
                scope.spawn(move || delta_writer(rx, queue, ck, path, interval, fault))
            });
            let (results, pool) = parallel::run_weighted(
                &costs,
                4,
                self.config.threads,
                SearchScratch::new,
                |scratch, i| -> Result<NodeOut, NodeError> {
                    let id = base + i as NodeId;
                    let cands = &candidates[i];
                    if let Some(entry) = restored.get(&id) {
                        return Ok((entry.clone().into_result(), entry.ws, false));
                    }
                    let (res, ws, table, replayed) =
                        match warm.as_ref().and_then(|w| w.clean_table(id, cands)) {
                            Some((entry, table)) => {
                                let res =
                                    find_parents_reference(&table, id, cands, &self.config.search)
                                        .map_err(NodeError::Search)?;
                                // Workspace activity is carried over from the
                                // original search: a replay never touches one.
                                (res, entry.ws, Some(table.cells().to_vec()), true)
                            }
                            None => {
                                let (res, ws) = self.search_node(
                                    scratch,
                                    cols,
                                    id,
                                    cands,
                                    rec,
                                    parent_span,
                                    options,
                                )?;
                                // The joint candidate table is the warm state
                                // the next cascade append replays from; an
                                // oversized candidate set just re-searches.
                                let table = doorbell
                                    .as_ref()
                                    .filter(|_| cands.len() <= checkpoint::MAX_TABLE_CANDIDATES)
                                    .and_then(|_| JointTable::from_cols(cols, id, cands).ok())
                                    .map(|t| t.cells().to_vec());
                                (res, ws, table, false)
                            }
                        };
                    if let Some(bell) = &doorbell {
                        let entry = CheckpointEntry::from_result(&res, ws, table);
                        let backlog = {
                            let mut q = queue.lock().expect("delta queue lock");
                            q.push((id, entry));
                            q.len()
                        };
                        // Ring only at the durability floor; a busy writer
                        // coalesces repeat rings when it next drains.
                        if backlog >= interval {
                            let _ = bell.lock().expect("doorbell lock").send(());
                        }
                    }
                    Ok((res, ws, replayed))
                },
            );
            // Disconnect the doorbell so the writer drains the queue one
            // last time and exits, then collect its outcome before any
            // result leaves this function — the final compaction is
            // durable before edges are reported.
            drop(doorbell);
            let writer_result = writer.map(|h| h.join().expect("delta writer thread panicked"));
            (results, pool, writer_result)
        });
        let (flushes, delta_records) = match writer_result {
            Some(r) => r?,
            None => (0, 0),
        };

        let mut node_results = Vec::with_capacity(n);
        let mut failures: Vec<(NodeId, NodeError)> = Vec::new();
        let (mut refinements, mut rebases, mut replayed) = (0u64, 0u64, 0usize);
        for (i, r) in results.into_iter().enumerate() {
            match r {
                Ok((res, ws, was_replayed)) => {
                    refinements += ws.refinements;
                    rebases += ws.rebases;
                    replayed += usize::from(was_replayed);
                    node_results.push(res);
                }
                Err(e) => {
                    failures.push((base + i as NodeId, e));
                    // A failed node degrades to "no inferred parents"; the
                    // placeholder keeps node_results indexable by id.
                    node_results.push(NodeSearchResult {
                        parents: Vec::new(),
                        score: 0.0,
                        candidates: candidates[i].clone(),
                        stats: SearchStats::default(),
                        cache_stats: ScoreCacheStats::default(),
                    });
                }
            }
        }

        if rec.is_enabled() {
            rec.worker_chunks("parent_search", &pool.chunks_per_worker);
            let mut total = SearchStats::default();
            let mut cache = ScoreCacheStats::default();
            for r in &node_results {
                total.merge(&r.stats);
                cache.merge(&r.cache_stats);
            }
            rec.add("combinations_scored", total.evaluations as u64);
            rec.add("bound_rejections", total.bound_rejections as u64);
            rec.add("greedy_rounds", total.greedy_rounds as u64);
            rec.add("score_cache_hits", cache.hits);
            rec.add("score_cache_misses", cache.misses);
            rec.add("workspace_refinements", refinements);
            rec.add("workspace_rebases", rebases);
            if warm.is_some() {
                rec.add("dirty_nodes", (n - replayed) as u64);
                rec.add("nodes_reused", replayed as u64);
            }
        }
        Ok(SearchOutcome {
            results: node_results,
            failures,
            resumed_nodes: restored.len() + replayed,
            flushes,
            delta_records,
        })
    }

    /// One node's search from the columns: the cancellation and fault
    /// checks, then [`find_parents_with`] under a `node_search` span.
    /// Returns the result and the workspace activity it performed.
    #[allow(clippy::too_many_arguments)]
    fn search_node(
        &self,
        scratch: &mut SearchScratch,
        cols: &NodeColumns,
        id: NodeId,
        candidates: &[NodeId],
        rec: &Recorder,
        parent_span: Option<SpanId>,
        options: &RobustOptions<'_>,
    ) -> Result<(NodeSearchResult, WorkspaceStats), NodeError> {
        if let Some(flag) = options.cancel {
            if flag.load(std::sync::atomic::Ordering::Relaxed) {
                return Err(NodeError::Cancelled);
            }
        }
        options
            .fault
            .hit_indexed("node_search", u64::from(id))
            .map_err(NodeError::Io)?;
        // One span per freshly searched node, parented under the
        // parent_search phase span (restored and replayed nodes get none).
        // Ends when the guard drops — including on the error path, where it
        // records without cache attributes.
        let mut span = rec.span_with_parent("node_search", parent_span);
        span.attr("node", u64::from(id));
        span.attr("candidates", candidates.len() as u64);
        let before = scratch.ws.stats();
        let res = find_parents_with(scratch, cols, id, candidates, &self.config.search)
            .map_err(NodeError::Search)?;
        let after = scratch.ws.stats();
        span.attr("score_cache_hits", res.cache_stats.hits);
        span.attr("score_cache_misses", res.cache_stats.misses);
        // The per-node workspace delta, not the pool total: it is what the
        // checkpoint stores, so a resumed run can report the same summed
        // counters as an uninterrupted one.
        let ws = WorkspaceStats {
            refinements: after.refinements - before.refinements,
            rebases: after.rebases - before.rebases,
        };
        Ok((res, ws))
    }
}

/// What a statistics source hands the search: the threshold fit and
/// applied τ, and the ranked candidate lists of the nodes to search,
/// starting at global id `base` (a shard's first node; 0 otherwise).
struct Stage {
    kmeans: PinnedKmeans,
    tau: f64,
    candidates: Vec<Vec<NodeId>>,
    base: NodeId,
}

/// An append's per-node prior: the pre-append checkpoint's entries, the
/// appended columns their joint tables are brought up to date with, and
/// the post-append statistics every merged table must agree with.
struct Warm<'a> {
    entries: &'a BTreeMap<NodeId, CheckpointEntry>,
    appended: &'a NodeColumns,
    stats: &'a PairStats,
}

impl Warm<'_> {
    /// `id`'s entry when it ran over exactly `candidates` and persisted a
    /// joint table — the precondition for replay.
    fn replayable(&self, id: NodeId, candidates: &[NodeId]) -> Option<&CheckpointEntry> {
        self.entries
            .get(&id)
            .filter(|e| e.table.is_some() && e.candidates == candidates)
    }

    /// `id`'s persisted table plus the appended columns' delta table, when
    /// `id` is clean: replayable, and the merged table's marginals equal
    /// the post-append statistics ([`JointTable::agrees_with`]). The
    /// replayed search then sees exactly the counts the combined columns
    /// would produce. Anything else is dirty and re-searches.
    fn clean_table(
        &self,
        id: NodeId,
        candidates: &[NodeId],
    ) -> Option<(&CheckpointEntry, JointTable)> {
        let entry = self.replayable(id, candidates)?;
        let mut sorted = candidates.to_vec();
        sorted.sort_unstable();
        let mut table = JointTable::from_parts(id, sorted, entry.table.clone()?).ok()?;
        table.merge(&JointTable::from_cols(self.appended, id, candidates).ok()?);
        table.agrees_with(self.stats).then_some((entry, table))
    }
}

/// Outcome of the per-node search stage.
struct SearchOutcome {
    /// One entry per node (placeholders for failed nodes).
    results: Vec<NodeSearchResult>,
    /// Per-node failures, ascending node order.
    failures: Vec<(NodeId, NodeError)>,
    /// Nodes restored from the checkpoint (or, on the append path,
    /// replayed from persisted joint tables).
    resumed_nodes: usize,
    /// Paced group-commit syncs of the delta log.
    flushes: u64,
    /// Delta records appended before the final compaction.
    delta_records: u64,
}

/// The delta-writer loop: atomically writes the initial checkpoint (header
/// plus restored entries), then drains completed-node records from the
/// shared queue and appends them as single-line delta records.
/// Workers ring the doorbell only once `interval` records are queued, and
/// each wakeup swaps out the *whole* queue — including anything that piled
/// up while the previous fsync was in flight — so a single write+fsync
/// covers the batch and both wakeups and fsyncs track flush-sized batches
/// instead of node count. `interval` is the durability floor: a producer
/// slower than the disk may leave up to `interval - 1` records unflushed
/// until more arrive (or the pool finishes), exactly the granularity the
/// old fixed-batch writer guaranteed.
///
/// Durability is two-tier, database group-commit style. Every
/// `interval`-sized batch is *written* to the log immediately — after the
/// write a process crash loses nothing, the records are in the page
/// cache. `fsync` (power-loss durability) is paced: the first batch syncs
/// at once, then a sync runs only when [`SYNC_PACING`] × the previous
/// sync's own cost has elapsed since it finished, and always once more at
/// the end. On a fast disk that is a sync every few batches; on a slow
/// disk the sync tax stays a bounded fraction of wall-clock instead of
/// serializing the run behind the disk.
///
/// When the doorbell disconnects the remainder is written and synced. The
/// log is compacted — one atomic rewrite of header plus deduplicated
/// entries — only when a delta line superseded an entry already present;
/// a run whose deltas are all fresh nodes leaves header + unique delta
/// lines, which loads to the identical state, so the rewrite (and its
/// fsync) is skipped. A crash mid-run leaves header + delta lines, which
/// [`Checkpoint::load`] compacts on read.
///
/// Returns `(flushes, delta_records)`. The first failure is sticky: later
/// records are still drained (workers must never block on a dead writer)
/// but nothing more is written, and the error surfaces after the pool
/// finishes.
fn delta_writer(
    rx: mpsc::Receiver<()>,
    queue: &Mutex<Vec<(NodeId, CheckpointEntry)>>,
    mut ck: Checkpoint,
    path: &Path,
    interval: usize,
    fault: &FaultPlan,
) -> Result<(u64, u64), CheckpointError> {
    let mut file: Option<std::fs::File> = None;
    let mut pending: Vec<String> = Vec::new();
    let mut flushes = 0u64;
    let mut delta_records = 0u64;
    let mut unsynced = false;
    let mut sync_cost = std::time::Duration::ZERO;
    let mut last_sync_end = std::time::Instant::now();
    // The initial save runs here — on the writer thread, concurrently with
    // the first node searches — and must complete before any delta line is
    // appended; the single-threaded loop below guarantees that ordering. A
    // crash before it lands leaves no (or a stale) checkpoint, which the
    // next run detects by fingerprint and simply restarts.
    let mut error: Option<CheckpointError> = ck.save(path).err();
    let mut superseded = false;
    let mut open = true;
    while open {
        // Block for one ring (or the disconnect), then swallow any backlog
        // of repeat rings — the queue swap below picks up every record
        // they announced, and the final swap after a disconnect catches a
        // sub-interval tail that never rang at all.
        if rx.recv().is_err() {
            open = false;
        }
        while rx.try_recv().is_ok() {}
        let batch = std::mem::take(&mut *queue.lock().expect("delta queue lock"));
        for (id, entry) in batch {
            if error.is_none() {
                pending.push(Checkpoint::entry_line(id, &entry));
            }
            superseded |= ck.entries.insert(id, entry).is_some();
        }
        if error.is_none() && pending.len() >= interval {
            write_batch(
                &mut file,
                path,
                &mut pending,
                &mut delta_records,
                &mut unsynced,
                &mut error,
            );
            // Group commit: the first sync runs immediately (zero recorded
            // cost), later ones only once their pacing budget has elapsed.
            if error.is_none() && unsynced && last_sync_end.elapsed() >= SYNC_PACING * sync_cost {
                sync_delta(
                    &mut file,
                    &mut flushes,
                    &mut unsynced,
                    &mut sync_cost,
                    &mut last_sync_end,
                    fault,
                    &mut error,
                );
            }
        }
    }
    if error.is_none() && !pending.is_empty() {
        write_batch(
            &mut file,
            path,
            &mut pending,
            &mut delta_records,
            &mut unsynced,
            &mut error,
        );
    }
    if error.is_none() && unsynced {
        sync_delta(
            &mut file,
            &mut flushes,
            &mut unsynced,
            &mut sync_cost,
            &mut last_sync_end,
            fault,
            &mut error,
        );
    }
    if error.is_none() && delta_records > 0 && superseded {
        if let Err(e) = ck.save(path) {
            error = Some(e);
        }
    }
    match error {
        Some(e) => Err(e),
        None => Ok((flushes, delta_records)),
    }
}

/// Group-commit pacing: a delta sync may run only once this multiple of
/// the previous sync's own duration has passed since it finished, keeping
/// the sync tax under ~1/[`SYNC_PACING`] of wall-clock on any disk.
const SYNC_PACING: u32 = 10;

/// Appends one batch of delta lines to the log (no sync — the bytes are
/// process-crash durable in the page cache once written).
fn write_batch(
    file: &mut Option<std::fs::File>,
    path: &Path,
    pending: &mut Vec<String>,
    delta_records: &mut u64,
    unsynced: &mut bool,
    error: &mut Option<CheckpointError>,
) {
    let io = (|| -> std::io::Result<()> {
        if file.is_none() {
            *file = Some(std::fs::OpenOptions::new().append(true).open(path)?);
        }
        let f = file.as_mut().expect("delta log handle");
        let mut buf = String::with_capacity(pending.iter().map(|l| l.len() + 1).sum());
        for line in pending.iter() {
            buf.push_str(line);
            buf.push('\n');
        }
        f.write_all(buf.as_bytes())
    })();
    match io {
        Ok(()) => {
            *delta_records += pending.len() as u64;
            *unsynced = true;
            pending.clear();
        }
        Err(e) => *error = Some(CheckpointError::Io(e)),
    }
}

/// Syncs everything written since the last sync and records its cost for
/// the pacing decision.
fn sync_delta(
    file: &mut Option<std::fs::File>,
    flushes: &mut u64,
    unsynced: &mut bool,
    sync_cost: &mut std::time::Duration,
    last_sync_end: &mut std::time::Instant,
    fault: &FaultPlan,
    error: &mut Option<CheckpointError>,
) {
    let Some(f) = file.as_mut() else { return };
    let started = std::time::Instant::now();
    match f.sync_data() {
        Ok(()) => {
            *sync_cost = started.elapsed();
            *last_sync_end = std::time::Instant::now();
            *flushes += 1;
            *unsynced = false;
            // The fault site sits *after* the group is durable: a kill
            // rule here models a crash between delta syncs, leaving a
            // loadable header + delta log on disk; an io rule exercises
            // the fatal flush-failure path.
            if let Err(e) = fault.hit("checkpoint_flush") {
                *error = Some(CheckpointError::Io(e));
            }
        }
        Err(e) => *error = Some(CheckpointError::Io(e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diffnet_simulate::{EdgeProbs, IcConfig, IndependentCascade};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn observe(truth: &DiGraph, p: f64, alpha: f64, beta: usize, seed: u64) -> StatusMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let probs = EdgeProbs::constant(truth, p);
        IndependentCascade::new(truth, &probs)
            .observe(
                IcConfig {
                    initial_ratio: alpha,
                    num_processes: beta,
                },
                &mut rng,
            )
            .statuses
    }

    fn f_score(truth: &DiGraph, inferred: &DiGraph) -> f64 {
        let tp = inferred
            .edges()
            .filter(|&(u, v)| truth.has_edge(u, v))
            .count();
        let fp = inferred.edge_count() - tp;
        let fn_ = truth.edge_count() - tp;
        if 2 * tp + fp + fn_ == 0 {
            return 0.0;
        }
        2.0 * tp as f64 / (2 * tp + fp + fn_) as f64
    }

    #[test]
    fn chain_topology_recall_is_high() {
        // Final statuses cannot identify edge *direction* within a pair
        // (the likelihood gain of j as parent of i equals that of i as
        // parent of j), so on a one-directional chain TENDS recovers the
        // influence pairs in both directions: recall ≈ 1, precision ≈ ½.
        let truth =
            DiGraph::from_edges(8, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)]);
        let statuses = observe(&truth, 0.6, 0.2, 600, 101);
        let result = Tends::new().reconstruct(&statuses).expect("search fits");
        let tp = result
            .graph
            .edges()
            .filter(|&(u, v)| truth.has_edge(u, v))
            .count();
        let recall = tp as f64 / truth.edge_count() as f64;
        assert!(recall > 0.85, "recall {recall} too low");
        let f = f_score(&truth, &result.graph);
        assert!(f > 0.55, "F-score {f} too low; inferred {:?}", result.graph);
    }

    #[test]
    fn recovers_reciprocal_chain_exactly() {
        // With mutual influence edges the direction ambiguity vanishes and
        // reconstruction should be near-perfect.
        let mut edges = Vec::new();
        for i in 0..7u32 {
            edges.push((i, i + 1));
            edges.push((i + 1, i));
        }
        let truth = DiGraph::from_edges(8, &edges);
        let statuses = observe(&truth, 0.6, 0.2, 600, 108);
        let result = Tends::new().reconstruct(&statuses).expect("search fits");
        let f = f_score(&truth, &result.graph);
        assert!(
            f > 0.85,
            "F-score {f}; inferred {:?}",
            result.graph.edge_vec()
        );
    }

    #[test]
    fn recovers_star_topology() {
        // Hub 0 influences 6 leaves.
        let edges: Vec<(NodeId, NodeId)> = (1..7).map(|i| (0, i)).collect();
        let truth = DiGraph::from_edges(7, &edges);
        let statuses = observe(&truth, 0.5, 0.15, 600, 102);
        let result = Tends::new().reconstruct(&statuses).expect("search fits");
        let f = f_score(&truth, &result.graph);
        assert!(f > 0.6, "F-score {f} too low");
    }

    #[test]
    fn empty_network_stays_mostly_empty() {
        // No edges: all statuses are independent seed draws, so the
        // inferred topology must be (nearly) empty.
        let truth = DiGraph::empty(12);
        let statuses = observe(&truth, 0.5, 0.2, 400, 103);
        let result = Tends::new().reconstruct(&statuses).expect("search fits");
        assert!(
            result.graph.edge_count() <= 2,
            "spurious edges: {:?}",
            result.graph.edge_vec()
        );
    }

    #[test]
    fn fixed_threshold_is_respected() {
        let truth = DiGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let statuses = observe(&truth, 0.5, 0.2, 200, 104);
        let cfg = TendsConfig {
            threshold: ThresholdMode::Fixed(10.0), // absurdly high: prunes everything
            ..Default::default()
        };
        let result = Tends::with_config(cfg)
            .reconstruct(&statuses)
            .expect("search fits");
        assert_eq!(result.tau, 10.0);
        assert_eq!(result.graph.edge_count(), 0);
    }

    #[test]
    fn scaled_threshold_scales_auto_tau() {
        let truth = DiGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let statuses = observe(&truth, 0.5, 0.2, 200, 105);
        let auto = Tends::new().reconstruct(&statuses).expect("search fits");
        let scaled = Tends::with_config(TendsConfig {
            threshold: ThresholdMode::ScaledAuto(2.0),
            ..Default::default()
        })
        .reconstruct(&statuses)
        .expect("search fits");
        assert!((scaled.tau - 2.0 * auto.tau).abs() < 1e-12);
        assert!((scaled.kmeans.tau - auto.kmeans.tau).abs() < 1e-12);
    }

    #[test]
    fn global_score_is_sum_of_local_scores() {
        let truth = DiGraph::from_edges(6, &[(0, 1), (1, 2), (0, 3), (3, 4), (4, 5)]);
        let statuses = observe(&truth, 0.4, 0.2, 300, 106);
        let result = Tends::new().reconstruct(&statuses).expect("search fits");
        let sum: f64 = result.node_results.iter().map(|r| r.score).sum();
        assert!((result.global_score - sum).abs() < 1e-9);
    }

    #[test]
    fn parallel_search_matches_sequential() {
        let truth = DiGraph::from_edges(30, &{
            let mut e = Vec::new();
            for i in 0..29u32 {
                e.push((i, i + 1));
                e.push((i + 1, i));
            }
            e
        });
        let statuses = observe(&truth, 0.4, 0.15, 200, 109);
        let seq = Tends::new().reconstruct(&statuses).expect("search fits");
        let par = Tends::with_config(TendsConfig {
            threads: 4,
            ..Default::default()
        })
        .reconstruct(&statuses)
        .expect("search fits");
        let par_all = Tends::with_config(TendsConfig {
            threads: 0,
            ..Default::default()
        })
        .reconstruct(&statuses)
        .expect("search fits");
        assert_eq!(seq.graph, par.graph);
        assert_eq!(seq.graph, par_all.graph);
        assert_eq!(seq.global_score, par.global_score);
    }

    #[test]
    fn symmetrize_policy_makes_graph_reciprocal() {
        let truth = DiGraph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        let statuses = observe(&truth, 0.5, 0.2, 300, 110);
        let cfg = TendsConfig {
            direction: DirectionPolicy::Symmetrize,
            ..Default::default()
        };
        let g = Tends::with_config(cfg)
            .reconstruct(&statuses)
            .expect("search fits")
            .graph;
        for (u, v) in g.edges() {
            assert!(g.has_edge(v, u), "({u},{v}) not reciprocal");
        }
    }

    #[test]
    fn mutual_only_is_a_subset_of_as_is() {
        let truth =
            DiGraph::from_edges(8, &[(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (4, 5), (6, 7)]);
        let statuses = observe(&truth, 0.5, 0.2, 300, 111);
        let as_is = Tends::new()
            .reconstruct(&statuses)
            .expect("search fits")
            .graph;
        let mutual = Tends::with_config(TendsConfig {
            direction: DirectionPolicy::MutualOnly,
            ..Default::default()
        })
        .reconstruct(&statuses)
        .expect("search fits")
        .graph;
        assert!(mutual.edge_count() <= as_is.edge_count());
        for (u, v) in mutual.edges() {
            assert!(as_is.has_edge(u, v));
            assert!(
                mutual.has_edge(v, u),
                "MutualOnly output must be reciprocal"
            );
        }
    }

    #[test]
    fn observed_reconstruction_matches_plain_and_populates_recorder() {
        let truth = DiGraph::from_edges(6, &[(0, 1), (1, 0), (1, 2), (2, 1), (3, 4), (4, 3)]);
        let statuses = observe(&truth, 0.5, 0.2, 300, 112);
        let plain = Tends::new().reconstruct(&statuses).expect("search fits");
        let rec = Recorder::new();
        let observed = Tends::new()
            .reconstruct_observed(&statuses, &rec)
            .expect("search fits");
        assert_eq!(plain.graph, observed.graph);
        assert_eq!(
            plain.global_score.to_bits(),
            observed.global_score.to_bits()
        );

        let snap = rec.snapshot();
        let names: Vec<_> = snap.phases.iter().map(|(n, _)| *n).collect();
        for phase in [
            "status_columns",
            "correlation_matrix",
            "threshold",
            "candidate_pruning",
            "parent_search",
            "direction",
        ] {
            assert!(names.contains(&phase), "missing phase {phase}: {names:?}");
        }
        assert!(snap.counters["combinations_scored"] > 0);
        assert_eq!(
            snap.counters["combinations_scored"],
            observed.total_evaluations() as u64
        );
        assert_eq!(snap.values["tau"], observed.tau);
        let hist = &snap.histograms["candidate_set_size"];
        assert_eq!(hist.iter().sum::<u64>(), 6, "one histogram entry per node");
        assert!(snap.worker_chunks.contains_key("parent_search"));
        assert!(snap.counters["workspace_refinements"] > 0);
        assert!(snap.counters["workspace_rebases"] > 0);
        assert!(
            snap.counters["score_cache_hits"] > 0,
            "greedy rounds must reuse scores memoized during enumeration"
        );
        assert_eq!(
            snap.counters["score_cache_hits"] + snap.counters["score_cache_misses"],
            snap.counters["combinations_scored"],
            "every evaluation is exactly one cache hit or miss"
        );
        assert!(
            snap.counters["workspace_refinements"] < snap.counters["combinations_scored"],
            "cache hits must skip workspace refinements ({} vs {})",
            snap.counters["workspace_refinements"],
            snap.counters["combinations_scored"]
        );

        // Span tree: one root span per phase, and one node_search span per
        // node parented under the parent_search phase span.
        let parent = snap
            .spans
            .iter()
            .find(|s| s.name == "parent_search" && s.parent.is_none())
            .expect("parent_search root span");
        let node_spans: Vec<_> = snap
            .spans
            .iter()
            .filter(|s| s.name == "node_search")
            .collect();
        assert_eq!(node_spans.len(), 6, "one span per freshly searched node");
        let mut seen_nodes: Vec<u64> = Vec::new();
        for span in &node_spans {
            assert_eq!(span.parent, Some(parent.id));
            assert!(span.end_s >= span.start_s);
            let attr = |key: &str| span.attrs.iter().find(|&&(k, _)| k == key).map(|&(_, v)| v);
            seen_nodes.push(attr("node").expect("node attr"));
            assert!(attr("candidates").is_some());
            let hits = attr("score_cache_hits").expect("cache hit attr");
            let misses = attr("score_cache_misses").expect("cache miss attr");
            assert!(hits + misses > 0, "searched nodes evaluate something");
        }
        seen_nodes.sort_unstable();
        assert_eq!(seen_nodes, vec![0, 1, 2, 3, 4, 5]);
    }

    fn temp_checkpoint(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("diffnet_algo_ck_test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(name)
    }

    #[test]
    fn checkpoint_resume_is_bit_identical() {
        // β = 250 is not a multiple of 64, so partial-word column handling
        // is in play too.
        let truth = DiGraph::from_edges(10, &{
            let mut e = Vec::new();
            for i in 0..9u32 {
                e.push((i, i + 1));
                e.push((i + 1, i));
            }
            e
        });
        let statuses = observe(&truth, 0.5, 0.2, 250, 77);

        for threads in [1usize, 4] {
            let tends = Tends::with_config(TendsConfig {
                threads,
                ..Default::default()
            });
            let rec = Recorder::new();
            let full = tends
                .reconstruct_observed(&statuses, &rec)
                .expect("search fits");
            let full_report = diffnet_observe::RunReport::new("tends", rec.snapshot(), threads);

            // Produce a complete checkpoint, then cut it down to the first
            // k entries — exactly what a crash after k nodes leaves behind.
            let path = temp_checkpoint(&format!("resume_{threads}.json"));
            std::fs::remove_file(&path).ok();
            let opts = RobustOptions {
                checkpoint: Some(path.clone()),
                checkpoint_interval: 3,
                ..Default::default()
            };
            let rec2 = Recorder::new();
            tends
                .reconstruct_robust(&statuses, &rec2, &opts)
                .expect("checkpointed run");
            let mut ck = Checkpoint::load(&path).expect("load checkpoint");
            assert_eq!(ck.entries.len(), 10, "final flush persists all nodes");
            for k in [1usize, 4, 9] {
                let mut cut = ck.clone();
                cut.entries = ck
                    .entries
                    .iter()
                    .take(k)
                    .map(|(&i, e)| (i, e.clone()))
                    .collect();
                cut.save(&path).expect("save partial");

                let rec3 = Recorder::new();
                let resumed = tends
                    .reconstruct_robust(
                        &statuses,
                        &rec3,
                        &RobustOptions {
                            checkpoint: Some(path.clone()),
                            resume: true,
                            checkpoint_interval: 3,
                            ..Default::default()
                        },
                    )
                    .expect("resumed run");
                assert!(resumed.is_complete());
                assert_eq!(resumed.resumed_nodes, k);
                assert_eq!(
                    resumed.result.graph, full.graph,
                    "graph (k={k}, t={threads})"
                );
                assert_eq!(
                    resumed.result.global_score.to_bits(),
                    full.global_score.to_bits(),
                    "score bits (k={k}, t={threads})"
                );
                let resumed_report =
                    diffnet_observe::RunReport::new("tends", rec3.snapshot(), threads);
                assert_eq!(
                    resumed_report.deterministic_json(),
                    full_report.deterministic_json(),
                    "deterministic report sections (k={k}, t={threads})"
                );
            }
            ck.entries.clear();
            std::fs::remove_file(&path).ok();
        }
    }

    /// Splits a matrix into its first `at` and remaining processes.
    fn split_statuses(m: &StatusMatrix, at: usize) -> (StatusMatrix, StatusMatrix) {
        let n = m.num_nodes();
        let take = |range: std::ops::Range<usize>| -> StatusMatrix {
            let mut out = StatusMatrix::new(range.len(), n);
            for (l_out, l) in range.enumerate() {
                for i in 0..n {
                    if m.get(l, i as NodeId) {
                        out.set(l_out, i as NodeId);
                    }
                }
            }
            out
        };
        (take(0..at), take(at..m.num_processes()))
    }

    #[test]
    fn incremental_append_is_byte_identical_to_fresh_combined_run() {
        // β = 260 (base 220 + appended 40) is not a multiple of 64, so
        // partial-word handling is in play on both sides of the split.
        let truth = DiGraph::from_edges(10, &{
            let mut e = Vec::new();
            for i in 0..9u32 {
                e.push((i, i + 1));
                e.push((i + 1, i));
            }
            e
        });
        let combined = observe(&truth, 0.5, 0.2, 260, 79);
        let (base, appended) = split_statuses(&combined, 220);

        for threads in [1usize, 4] {
            let tends = Tends::with_config(TendsConfig {
                threads,
                ..Default::default()
            });
            let fresh = tends
                .reconstruct_observed(&combined, Recorder::disabled())
                .expect("search fits");

            let path = temp_checkpoint(&format!("append_{threads}.json"));
            std::fs::remove_file(&path).ok();
            let base_opts = RobustOptions {
                checkpoint: Some(path.clone()),
                ..Default::default()
            };
            tends
                .reconstruct_robust(&base, Recorder::disabled(), &base_opts)
                .expect("base run");

            let rec = Recorder::new();
            let warm = tends
                .reconstruct_robust_append(
                    &combined,
                    &appended,
                    &rec,
                    &RobustOptions {
                        checkpoint: Some(path.clone()),
                        revision: 1,
                        ..Default::default()
                    },
                )
                .expect("incremental append");
            assert!(warm.is_complete());
            assert_eq!(warm.result.graph, fresh.graph, "graph (t={threads})");
            assert_eq!(
                warm.result.global_score.to_bits(),
                fresh.global_score.to_bits(),
                "score bits (t={threads})"
            );
            for (i, (w, f)) in warm
                .result
                .node_results
                .iter()
                .zip(fresh.node_results.iter())
                .enumerate()
            {
                assert_eq!(w.parents, f.parents, "parents of node {i}");
                assert_eq!(w.score.to_bits(), f.score.to_bits(), "score of node {i}");
                assert_eq!(w.candidates, f.candidates, "candidates of node {i}");
                // The replay walks the identical search trajectory, so even
                // the effort counters match the fresh combined search.
                assert_eq!(w.stats, f.stats, "search stats of node {i}");
            }

            let snap = rec.snapshot();
            let reused = snap.counters["nodes_reused"];
            let dirty = snap.counters["dirty_nodes"];
            assert_eq!(reused + dirty, 10, "every node is reused or dirty");
            assert_eq!(warm.resumed_nodes as u64, reused);
            assert!(
                reused > 0,
                "a 15% append should leave some nodes replayable"
            );

            // The checkpoint advanced to the post-append revision with the
            // combined statistics, ready for the next append.
            let ck = Checkpoint::load(&path).expect("post-append checkpoint");
            assert_eq!(ck.revision, 1);
            let stats = ck.stats.expect("stats persisted");
            assert_eq!(stats.num_processes(), 260);
            assert_eq!(ck.entries.len(), 10);
            assert!(ck.entries.values().all(|e| e.table.is_some()));
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn chained_appends_stay_byte_identical() {
        // Two appends in sequence: revision 0 → 1 → 2, each warm-started
        // from the previous append's checkpoint.
        let truth = DiGraph::from_edges(8, &[(0, 1), (1, 0), (2, 3), (3, 2), (5, 6), (6, 5)]);
        let combined = observe(&truth, 0.5, 0.2, 200, 91);
        let (base01, app2) = split_statuses(&combined, 170);
        let (base0, app1) = split_statuses(&base01, 140);

        let tends = Tends::new();
        let path = temp_checkpoint("append_chain.json");
        std::fs::remove_file(&path).ok();
        tends
            .reconstruct_robust(
                &base0,
                Recorder::disabled(),
                &RobustOptions {
                    checkpoint: Some(path.clone()),
                    ..Default::default()
                },
            )
            .expect("base run");
        for (revision, combined_so_far, appended) in [(1, &base01, &app1), (2, &combined, &app2)] {
            let warm = tends
                .reconstruct_robust_append(
                    combined_so_far,
                    appended,
                    Recorder::disabled(),
                    &RobustOptions {
                        checkpoint: Some(path.clone()),
                        revision,
                        ..Default::default()
                    },
                )
                .expect("incremental append");
            let fresh = tends
                .reconstruct_observed(combined_so_far, Recorder::disabled())
                .expect("fresh combined run");
            assert_eq!(
                warm.result.graph, fresh.graph,
                "graph at revision {revision}"
            );
            assert_eq!(
                warm.result.global_score.to_bits(),
                fresh.global_score.to_bits(),
                "score bits at revision {revision}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_joint_tables_are_re_searched_not_replayed() {
        // The data of incremental_append_is_byte_identical_to_fresh_combined_run.
        let truth = DiGraph::from_edges(10, &{
            let mut e = Vec::new();
            for i in 0..9u32 {
                e.push((i, i + 1));
                e.push((i + 1, i));
            }
            e
        });
        let combined = observe(&truth, 0.5, 0.2, 260, 79);
        let (base, appended) = split_statuses(&combined, 220);
        let tends = Tends::new();
        let fresh = tends
            .reconstruct_observed(&combined, Recorder::disabled())
            .expect("search fits");

        let path = temp_checkpoint("corrupt_tables.json");
        std::fs::remove_file(&path).ok();
        tends
            .reconstruct_robust(
                &base,
                Recorder::disabled(),
                &RobustOptions {
                    checkpoint: Some(path.clone()),
                    ..Default::default()
                },
            )
            .expect("base run");

        // Entries carry no checksum of their own, so an edited table still
        // loads. Corrupt the even nodes' tables; the odd nodes whose
        // candidate lists survive the append stay replayable.
        let mut ck = Checkpoint::load(&path).expect("base checkpoint");
        let (mut edited_replayable, mut expected_reused) = (0, 0u64);
        for (&id, entry) in ck.entries.iter_mut() {
            let replayable = entry.table.is_some()
                && entry.candidates == fresh.node_results[id as usize].candidates;
            if id % 2 == 0 {
                entry.table.as_mut().expect("table persisted")[0][1] += 500;
                edited_replayable += usize::from(replayable);
            } else {
                expected_reused += u64::from(replayable);
            }
        }
        assert!(
            edited_replayable > 0,
            "the edit must hit nodes a pristine append would replay"
        );
        ck.save(&path).expect("save edited checkpoint");

        let rec = Recorder::new();
        let warm = tends
            .reconstruct_robust_append(
                &combined,
                &appended,
                &rec,
                &RobustOptions {
                    checkpoint: Some(path.clone()),
                    revision: 1,
                    ..Default::default()
                },
            )
            .expect("a corrupted table is dirty, not an error");
        assert_eq!(warm.result.graph, fresh.graph);
        assert_eq!(
            warm.result.global_score.to_bits(),
            fresh.global_score.to_bits()
        );
        for (i, (w, f)) in warm
            .result
            .node_results
            .iter()
            .zip(&fresh.node_results)
            .enumerate()
        {
            assert_eq!(w.score.to_bits(), f.score.to_bits(), "score of node {i}");
        }
        let snap = rec.snapshot();
        assert_eq!(snap.counters["nodes_reused"], expected_reused);
        assert_eq!(snap.counters["dirty_nodes"], 10 - expected_reused);
        assert_eq!(warm.resumed_nodes as u64, snap.counters["nodes_reused"]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_post_append_checkpoint_resumes_byte_identical() {
        // The append writes through the delta log: a header at the new
        // revision, then one line per node. A crash can leave any prefix.
        let truth = DiGraph::from_edges(8, &[(0, 1), (1, 0), (2, 3), (3, 2), (5, 6), (6, 5)]);
        let combined = observe(&truth, 0.5, 0.2, 200, 91);
        let (base, appended) = split_statuses(&combined, 170);
        let tends = Tends::new();
        let fresh = tends
            .reconstruct_observed(&combined, Recorder::disabled())
            .expect("search fits");

        let path = temp_checkpoint("torn_append.json");
        std::fs::remove_file(&path).ok();
        let opts = |revision| RobustOptions {
            checkpoint: Some(path.clone()),
            revision,
            ..Default::default()
        };
        tends
            .reconstruct_robust(&base, Recorder::disabled(), &opts(0))
            .expect("base run");
        tends
            .reconstruct_robust_append(&combined, &appended, Recorder::disabled(), &opts(1))
            .expect("append");
        let bytes = std::fs::read(&path).expect("post-append checkpoint");
        let full = Checkpoint::load(&path).expect("full checkpoint");
        assert_eq!(full.entries.len(), 8);

        // Every prefix loads to a typed error or to a subset of the full
        // state. A rerun is a function of the loaded state, so each
        // distinct state is rerun once.
        let mut rerun: Vec<Checkpoint> = Vec::new();
        let mut errors = 0;
        for cut in 0..=bytes.len() {
            std::fs::write(&path, &bytes[..cut]).expect("write prefix");
            let Ok(loaded) = Checkpoint::load(&path) else {
                errors += 1;
                continue;
            };
            assert_eq!(
                (loaded.fingerprint, loaded.revision, &loaded.stats),
                (full.fingerprint, full.revision, &full.stats),
                "header at cut {cut}"
            );
            for (id, entry) in &loaded.entries {
                assert_eq!(Some(entry), full.entries.get(id), "node {id} at cut {cut}");
            }
            if rerun.contains(&loaded) {
                continue;
            }
            let again = tends
                .reconstruct_robust_append(&combined, &appended, Recorder::disabled(), &opts(1))
                .expect("rerun from a torn checkpoint");
            assert_eq!(again.result.graph, fresh.graph, "graph at cut {cut}");
            assert_eq!(
                again.result.global_score.to_bits(),
                fresh.global_score.to_bits(),
                "score bits at cut {cut}"
            );
            assert_eq!(again.resumed_nodes, loaded.entries.len(), "cut {cut}");
            rerun.push(loaded);
        }
        assert!(errors > 0, "a torn header must fail typed");
        assert_eq!(rerun.len(), 9, "one state per number of complete entries");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stale_pre_append_checkpoint_is_a_typed_mismatch_on_resume() {
        // Serve bumps the revision when it applies an append; a resume of
        // the combined run must then refuse the stale revision-0 file.
        let truth = DiGraph::from_edges(8, &[(0, 1), (1, 0), (2, 3), (3, 2)]);
        let combined = observe(&truth, 0.5, 0.2, 180, 83);
        let (base, _appended) = split_statuses(&combined, 150);

        let tends = Tends::new();
        let path = temp_checkpoint("stale_revision.json");
        std::fs::remove_file(&path).ok();
        tends
            .reconstruct_robust(
                &base,
                Recorder::disabled(),
                &RobustOptions {
                    checkpoint: Some(path.clone()),
                    ..Default::default()
                },
            )
            .expect("base run");

        let err = tends
            .reconstruct_robust(
                &combined,
                Recorder::disabled(),
                &RobustOptions {
                    checkpoint: Some(path.clone()),
                    resume: true,
                    revision: 1,
                    ..Default::default()
                },
            )
            .expect_err("stale checkpoint must not resume");
        assert!(
            matches!(err, CheckpointError::Mismatch { .. }),
            "expected Mismatch, got {err:?}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn hand_edited_checkpoint_is_rejected_by_the_append_path() {
        let truth = DiGraph::from_edges(8, &[(0, 1), (1, 0), (2, 3), (3, 2)]);
        let combined = observe(&truth, 0.5, 0.2, 180, 87);
        let (base, appended) = split_statuses(&combined, 150);

        let tends = Tends::new();
        let path = temp_checkpoint("hand_edited.json");
        std::fs::remove_file(&path).ok();
        tends
            .reconstruct_robust(
                &base,
                Recorder::disabled(),
                &RobustOptions {
                    checkpoint: Some(path.clone()),
                    ..Default::default()
                },
            )
            .expect("base run");
        let pristine = std::fs::read_to_string(&path).expect("read checkpoint");

        let append_opts = |revision| RobustOptions {
            checkpoint: Some(path.clone()),
            revision,
            ..Default::default()
        };

        // A wrong revision (double-applied batch, skipped batch) cannot
        // warm-start.
        let tampered = pristine.replacen("\"revision\":0", "\"revision\":5", 1);
        assert_ne!(tampered, pristine, "edit must hit the header");
        std::fs::write(&path, &tampered).expect("write tampered");
        let err = tends
            .reconstruct_robust_append(&combined, &appended, Recorder::disabled(), &append_opts(1))
            .expect_err("wrong revision must be rejected");
        assert!(
            matches!(&err, CheckpointError::Format(m) if m.contains("revision")),
            "expected a revision Format error, got {err:?}"
        );

        // Statistics edited into *impossible* counts (ones[0] = β with
        // unchanged pair counts) fail the consistency validation on load —
        // a typed error, not an underflow panic in the MI derivation.
        let ck = Checkpoint::from_text(&pristine, false).expect("parse pristine");
        let stats = ck.stats.as_ref().expect("stats present");
        let ones = stats.ones().to_vec();
        let needle = format!("\"ones\":\"{} ", ones[0]);
        let swap = format!("\"ones\":\"{} ", stats.num_processes());
        let tampered = pristine.replacen(&needle, &swap, 1);
        assert_ne!(tampered, pristine, "edit must hit the statistics");
        std::fs::write(&path, &tampered).expect("write tampered");
        let err = tends
            .reconstruct_robust_append(&combined, &appended, Recorder::disabled(), &append_opts(1))
            .expect_err("impossible statistics must be rejected");
        assert!(
            matches!(&err, CheckpointError::Format(m) if m.contains("inconsistent")),
            "expected a Format error about inconsistency, got {err:?}"
        );

        // Statistics edited into *plausible but different* counts no
        // longer match the content digest the base run recorded: typed
        // mismatch, not silently spliced wrong parents. Pair (0,1)'s n11
        // is pushed to its maximum consistent value.
        let n11 = stats.n11().to_vec();
        let needle = format!("\"n11\":\"{} ", n11[0]);
        let swap = format!("\"n11\":\"{} ", ones[0].min(ones[1]));
        let tampered = pristine.replacen(&needle, &swap, 1);
        assert_ne!(tampered, pristine, "edit must hit the statistics");
        std::fs::write(&path, &tampered).expect("write tampered");
        let err = tends
            .reconstruct_robust_append(&combined, &appended, Recorder::disabled(), &append_opts(1))
            .expect_err("tampered statistics must be rejected");
        assert!(
            matches!(err, CheckpointError::Mismatch { .. }),
            "expected Mismatch, got {err:?}"
        );

        // A checkpoint without statistics (streamed producer) cannot
        // warm-start an append either.
        let mut stripped = Checkpoint::from_text(&pristine, false).expect("parse pristine");
        stripped.stats = None;
        stripped.save(&path).expect("save stripped");
        let err = tends
            .reconstruct_robust_append(&combined, &appended, Recorder::disabled(), &append_opts(1))
            .expect_err("stats-free checkpoint must be rejected");
        assert!(
            matches!(&err, CheckpointError::Format(m) if m.contains("sufficient statistics")),
            "expected a Format error about statistics, got {err:?}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn injected_node_failures_degrade_instead_of_aborting() {
        let truth = DiGraph::from_edges(8, &[(0, 1), (1, 0), (2, 3), (3, 2), (5, 6), (6, 5)]);
        let statuses = observe(&truth, 0.5, 0.2, 300, 113);
        let clean = Tends::new().reconstruct(&statuses).expect("search fits");

        let fault = FaultPlan::new()
            .io_error_at("node_search", 2, 1)
            .io_error_at("node_search", 5, 1);
        let partial = Tends::new()
            .reconstruct_robust(
                &statuses,
                Recorder::disabled(),
                &RobustOptions {
                    fault: &fault,
                    ..Default::default()
                },
            )
            .expect("degrades, does not abort");
        assert_eq!(
            partial.failed_nodes,
            vec![2, 5],
            "exactly the faulted nodes"
        );
        assert_eq!(partial.errors.len(), 2);
        assert!(matches!(partial.errors[0].1, NodeError::Io(_)));
        assert!(!partial.is_complete());
        // Surviving nodes are untouched by their neighbours' failures.
        for (i, res) in partial.result.node_results.iter().enumerate() {
            if i == 2 || i == 5 {
                assert!(res.parents.is_empty());
                assert_eq!(res.score, 0.0);
            } else {
                assert_eq!(res.parents, clean.node_results[i].parents, "node {i}");
            }
        }
    }

    #[test]
    fn cancelled_run_resumes_to_identical_result() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let truth = DiGraph::from_edges(8, &[(0, 1), (1, 0), (2, 3), (3, 2), (5, 6), (6, 5)]);
        let statuses = observe(&truth, 0.5, 0.2, 200, 118);
        let clean = Tends::new().reconstruct(&statuses).expect("search fits");

        let path = temp_checkpoint("cancel.json");
        std::fs::remove_file(&path).ok();
        let cancel = AtomicBool::new(true);
        let cancelled = Tends::new()
            .reconstruct_robust(
                &statuses,
                Recorder::disabled(),
                &RobustOptions {
                    checkpoint: Some(path.clone()),
                    cancel: Some(&cancel),
                    ..Default::default()
                },
            )
            .expect("cancellation degrades, does not abort");
        assert!(!cancelled.is_complete());
        assert_eq!(cancelled.failed_nodes.len(), 8, "every node cancelled");
        assert!(matches!(cancelled.errors[0].1, NodeError::Cancelled));

        // Clearing the flag and resuming completes the job with the same
        // result as an uninterrupted run.
        cancel.store(false, Ordering::Relaxed);
        let resumed = Tends::new()
            .reconstruct_robust(
                &statuses,
                Recorder::disabled(),
                &RobustOptions {
                    checkpoint: Some(path.clone()),
                    resume: true,
                    cancel: Some(&cancel),
                    ..Default::default()
                },
            )
            .expect("resumed run");
        assert!(resumed.is_complete());
        assert_eq!(resumed.result.graph, clean.graph);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mismatched_checkpoint_is_a_typed_error() {
        let truth = DiGraph::from_edges(6, &[(0, 1), (1, 0), (2, 3), (3, 2)]);
        let statuses = observe(&truth, 0.5, 0.2, 200, 114);
        let path = temp_checkpoint("mismatch.json");
        std::fs::remove_file(&path).ok();
        let opts = RobustOptions {
            checkpoint: Some(path.clone()),
            ..Default::default()
        };
        Tends::new()
            .reconstruct_robust(&statuses, Recorder::disabled(), &opts)
            .expect("first run");

        // Same file, different threshold → different τ → different searches.
        let other = Tends::with_config(TendsConfig {
            threshold: ThresholdMode::Fixed(0.123),
            ..Default::default()
        });
        let err = other
            .reconstruct_robust(
                &statuses,
                Recorder::disabled(),
                &RobustOptions {
                    checkpoint: Some(path.clone()),
                    resume: true,
                    ..Default::default()
                },
            )
            .expect_err("fingerprint mismatch");
        assert!(matches!(err, CheckpointError::Mismatch { .. }), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_checkpoint_is_a_typed_error() {
        let truth = DiGraph::from_edges(5, &[(0, 1), (1, 0)]);
        let statuses = observe(&truth, 0.5, 0.2, 150, 115);
        let path = temp_checkpoint("corrupt.json");
        std::fs::write(&path, "{\"format\": \"diffnet-checkpoint\", \"ver").expect("write");
        let err = Tends::new()
            .reconstruct_robust(
                &statuses,
                Recorder::disabled(),
                &RobustOptions {
                    checkpoint: Some(path.clone()),
                    resume: true,
                    ..Default::default()
                },
            )
            .expect_err("corrupt file");
        assert!(matches!(err, CheckpointError::Parse(_)), "{err}");
        assert!(err.to_string().contains("byte"), "offset in {err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn failed_checkpoint_flush_is_fatal_and_typed() {
        let truth = DiGraph::from_edges(5, &[(0, 1), (1, 0)]);
        let statuses = observe(&truth, 0.5, 0.2, 150, 116);
        let path = temp_checkpoint("flushfail.json");
        std::fs::remove_file(&path).ok();
        let fault = FaultPlan::new().io_error("checkpoint_flush", 1);
        let err = Tends::new()
            .reconstruct_robust(
                &statuses,
                Recorder::disabled(),
                &RobustOptions {
                    checkpoint: Some(path.clone()),
                    checkpoint_interval: 1,
                    fault: &fault,
                    ..Default::default()
                },
            )
            .expect_err("flush failure surfaces");
        assert!(matches!(err, CheckpointError::Io(_)), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_with_missing_checkpoint_starts_fresh() {
        let truth = DiGraph::from_edges(5, &[(0, 1), (1, 0)]);
        let statuses = observe(&truth, 0.5, 0.2, 150, 117);
        let path = temp_checkpoint("fresh.json");
        std::fs::remove_file(&path).ok();
        let partial = Tends::new()
            .reconstruct_robust(
                &statuses,
                Recorder::disabled(),
                &RobustOptions {
                    checkpoint: Some(path.clone()),
                    resume: true,
                    ..Default::default()
                },
            )
            .expect("missing file = empty checkpoint");
        assert_eq!(partial.resumed_nodes, 0);
        assert!(partial.is_complete());
        assert!(path.exists(), "final state checkpointed");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn result_accessors() {
        let truth = DiGraph::from_edges(5, &[(0, 1), (1, 2)]);
        let statuses = observe(&truth, 0.5, 0.2, 150, 107);
        let result = Tends::new().reconstruct(&statuses).expect("search fits");
        assert_eq!(result.node_results.len(), 5);
        assert!(result.total_evaluations() >= 5);
        assert!(result.mean_candidates() >= 0.0);
    }

    /// Dense-oracle comparison harness for the streamed pipeline: at
    /// small n the τ sample is exhaustive (stride 1), so the streamed run
    /// must be bit-identical to the dense run — graph, τ, and scores.
    fn assert_streamed_matches_dense(statuses: &StatusMatrix, streamed_cfg: TendsConfig) {
        let dense_cfg = TendsConfig {
            memory_budget: None,
            shard: None,
            ..streamed_cfg
        };
        let dense = Tends::with_config(dense_cfg)
            .reconstruct(statuses)
            .expect("search fits");
        let streamed = Tends::with_config(streamed_cfg)
            .reconstruct(statuses)
            .expect("search fits");
        assert_eq!(dense.graph, streamed.graph);
        assert_eq!(dense.tau.to_bits(), streamed.tau.to_bits(), "τ drifted");
        assert_eq!(
            dense.global_score.to_bits(),
            streamed.global_score.to_bits()
        );
        for (d, s) in dense.node_results.iter().zip(&streamed.node_results) {
            assert_eq!(d.candidates, s.candidates);
            assert_eq!(d.parents, s.parents);
            assert_eq!(d.score.to_bits(), s.score.to_bits());
        }
    }

    #[test]
    fn streamed_path_is_bit_identical_to_dense() {
        let truth = DiGraph::from_edges(30, &{
            let mut e = Vec::new();
            for i in 0..29u32 {
                e.push((i, i + 1));
                e.push((i + 1, i));
            }
            e
        });
        let statuses = observe(&truth, 0.4, 0.15, 300, 120);
        for threads in [1usize, 4] {
            assert_streamed_matches_dense(
                &statuses,
                TendsConfig {
                    memory_budget: Some(64 << 20),
                    threads,
                    ..Default::default()
                },
            );
        }
    }

    #[test]
    fn streamed_tau_matches_dense_tau_exactly() {
        // The satellite regression: τ from the streamed systematic sample
        // equals the dense 2-means τ bit-for-bit whenever the sample
        // covers every pair (always true at small n).
        let truth = DiGraph::from_edges(12, &[(0, 1), (1, 2), (3, 4), (5, 6), (7, 8), (9, 10)]);
        let statuses = observe(&truth, 0.5, 0.2, 250, 121);
        let dense = Tends::new().reconstruct(&statuses).expect("search fits");
        let streamed = Tends::with_config(TendsConfig {
            memory_budget: Some(32 << 20),
            ..Default::default()
        })
        .reconstruct(&statuses)
        .expect("search fits");
        assert_eq!(dense.tau.to_bits(), streamed.tau.to_bits());
        assert_eq!(dense.kmeans.tau.to_bits(), streamed.kmeans.tau.to_bits());
        // Threshold scaling composes the same way on both paths.
        let scfg = TendsConfig {
            threshold: ThresholdMode::ScaledAuto(1.5),
            memory_budget: Some(32 << 20),
            ..Default::default()
        };
        assert_streamed_matches_dense(&statuses, scfg);
    }

    #[test]
    fn sharded_union_matches_unsharded_run() {
        let truth = DiGraph::from_edges(20, &{
            let mut e = Vec::new();
            for i in 0..19u32 {
                e.push((i, i + 1));
            }
            e.push((0, 10));
            e.push((5, 15));
            e
        });
        let statuses = observe(&truth, 0.5, 0.2, 300, 122);
        let budget = Some(16u64 << 20);
        let whole = Tends::with_config(TendsConfig {
            memory_budget: budget,
            ..Default::default()
        })
        .reconstruct(&statuses)
        .expect("search fits");
        for count in [2usize, 3, 7] {
            let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
            for shard in crate::stream::plan_shards(statuses.num_nodes(), count) {
                let part = Tends::with_config(TendsConfig {
                    memory_budget: budget,
                    shard: Some(shard),
                    ..Default::default()
                })
                .reconstruct(&statuses)
                .expect("search fits");
                assert_eq!(part.node_results.len(), shard.len());
                edges.extend(part.graph.edges());
            }
            edges.sort_unstable();
            edges.dedup();
            assert_eq!(
                edges,
                whole.graph.edge_vec(),
                "{count}-shard union must equal the unsharded edge set"
            );
        }
    }

    #[test]
    fn sharded_checkpoint_resume_stays_scoped_to_the_shard() {
        let truth = DiGraph::from_edges(10, &[(0, 1), (1, 2), (2, 3), (4, 5), (6, 7), (8, 9)]);
        let statuses = observe(&truth, 0.5, 0.2, 200, 123);
        let shard = Shard { start: 3, end: 8 };
        let cfg = TendsConfig {
            memory_budget: Some(8 << 20),
            shard: Some(shard),
            ..Default::default()
        };
        let path = temp_checkpoint("shard.json");
        std::fs::remove_file(&path).ok();
        let first = Tends::with_config(cfg)
            .reconstruct_robust(
                &statuses,
                Recorder::disabled(),
                &RobustOptions {
                    checkpoint: Some(path.clone()),
                    resume: true,
                    checkpoint_interval: 1,
                    ..Default::default()
                },
            )
            .expect("first run");
        assert!(first.is_complete());
        // Resume restores exactly the shard's nodes and reproduces the
        // same edges bit-for-bit.
        let resumed = Tends::with_config(cfg)
            .reconstruct_robust(
                &statuses,
                Recorder::disabled(),
                &RobustOptions {
                    checkpoint: Some(path.clone()),
                    resume: true,
                    ..Default::default()
                },
            )
            .expect("resumed run");
        assert_eq!(resumed.resumed_nodes, shard.len());
        assert_eq!(first.result.graph, resumed.result.graph);
        // A different shard must refuse the checkpoint (fingerprint
        // covers the shard via the config signature).
        let err = Tends::with_config(TendsConfig {
            shard: Some(Shard { start: 0, end: 3 }),
            ..cfg
        })
        .reconstruct_robust(
            &statuses,
            Recorder::disabled(),
            &RobustOptions {
                checkpoint: Some(path.clone()),
                resume: true,
                ..Default::default()
            },
        )
        .expect_err("shard mismatch must not resume");
        assert!(matches!(err, CheckpointError::Mismatch { .. }), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn streamed_recorder_reports_streamed_phases_and_counters() {
        let truth = DiGraph::from_edges(8, &[(0, 1), (1, 2), (2, 3), (4, 5), (6, 7)]);
        let statuses = observe(&truth, 0.5, 0.2, 200, 124);
        let rec = Recorder::new();
        Tends::with_config(TendsConfig {
            memory_budget: Some(8 << 20),
            ..Default::default()
        })
        .reconstruct_robust(&statuses, &rec, &RobustOptions::default())
        .expect("streamed run");
        let snapshot = rec.snapshot();
        let phases: Vec<&str> = snapshot.phases.iter().map(|(n, _)| *n).collect();
        assert_eq!(
            phases,
            vec![
                "status_columns",
                "tau_sample",
                "streamed_fold",
                "parent_search",
                "direction"
            ]
        );
        assert!(snapshot.counters.contains_key("pairs_above_tau"));
        assert!(snapshot.counters.contains_key("candidate_evictions"));
        assert!(snapshot.counters.contains_key("tau_sample_pairs"));
        assert!(snapshot.counters["tau_sample_stride"] >= 1);
    }

    #[test]
    fn eviction_counter_fires_when_top_k_truncates() {
        // A dense clique with a tiny max_candidates bound: every node
        // sees more above-τ partners than it may keep.
        let mut edges = Vec::new();
        for i in 0..8u32 {
            for j in 0..8u32 {
                if i != j {
                    edges.push((i, j));
                }
            }
        }
        let truth = DiGraph::from_edges(8, &edges);
        let statuses = observe(&truth, 0.6, 0.2, 300, 125);
        let rec = Recorder::new();
        let cfg = TendsConfig {
            memory_budget: Some(8 << 20),
            search: SearchParams {
                max_candidates: 1,
                ..Default::default()
            },
            ..Default::default()
        };
        Tends::with_config(cfg)
            .reconstruct_robust(&statuses, &rec, &RobustOptions::default())
            .expect("streamed run");
        let snapshot = rec.snapshot();
        assert!(
            snapshot.counters["candidate_evictions"] > 0,
            "clique + top-1 bound must evict above-τ candidates"
        );
        // The dense path with the same bound keeps the same candidates.
        assert_streamed_matches_dense(&statuses, cfg);
    }

    #[test]
    #[should_panic(expected = "MutualOnly direction requires an unsharded run")]
    fn sharded_mutual_only_is_rejected() {
        let truth = DiGraph::from_edges(6, &[(0, 1), (1, 0)]);
        let statuses = observe(&truth, 0.5, 0.2, 100, 126);
        let _ = Tends::with_config(TendsConfig {
            direction: DirectionPolicy::MutualOnly,
            shard: Some(Shard { start: 0, end: 3 }),
            ..Default::default()
        })
        .reconstruct(&statuses);
    }
}
