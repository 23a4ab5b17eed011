//! Bit-packed infection status matrix and its counting kernels.
//!
//! The status matrix `S ∈ {0,1}^{β×n}` is the *only* input TENDS consumes.
//! Its hot operations are:
//!
//! * pairwise joint counts (for the infection-MI pruning) — served by a
//!   column-major transpose ([`NodeColumns`]) where each count is a few
//!   `popcount`s, and
//! * parent-combination counts `N_ijk` (for the scoring criterion) —
//!   served by [`StatusMatrix::combo_counts`], a row scan that assembles
//!   each process's combination index bit by bit.

use diffnet_graph::NodeId;
use std::fmt;

const WORD_BITS: usize = 64;

/// Largest parent set any counting kernel will tabulate: the combination
/// table has `2^|parents|` entries, so 26+ parents would not fit in memory.
/// TENDS's Theorem-2 bound keeps real parent sets far smaller; the limit
/// only guards against hostile or degenerate inputs.
pub const MAX_TABULATED_PARENTS: usize = 25;

/// A parent set too large to tabulate: its `2^|parents|` combination table
/// would exceed [`MAX_TABULATED_PARENTS`].
///
/// Returned (instead of panicking) by every `N_ijk` counting kernel, so
/// hostile inputs surface as a typed error through the search API rather
/// than aborting the process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ComboSizeError {
    /// The offending parent-set size.
    pub parents: usize,
}

impl fmt::Display for ComboSizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parent set of {} nodes is too large to tabulate (limit {})",
            self.parents, MAX_TABULATED_PARENTS
        )
    }
}

impl std::error::Error for ComboSizeError {}

/// Errors unless `parents` fits in a combination table.
#[inline]
fn check_combo_size(parents: usize) -> Result<(), ComboSizeError> {
    if parents > MAX_TABULATED_PARENTS {
        Err(ComboSizeError { parents })
    } else {
        Ok(())
    }
}

/// A `β × n` binary matrix: row `ℓ` holds the final infection statuses of
/// all `n` nodes in the `ℓ`-th diffusion process.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StatusMatrix {
    beta: usize,
    n: usize,
    words_per_row: usize,
    rows: Vec<u64>,
}

impl StatusMatrix {
    /// An all-uninfected matrix for `beta` processes over `n` nodes.
    pub fn new(beta: usize, n: usize) -> Self {
        let words_per_row = n.div_ceil(WORD_BITS).max(1);
        StatusMatrix {
            beta,
            n,
            words_per_row,
            rows: vec![0; beta * words_per_row],
        }
    }

    /// Builds from boolean rows.
    ///
    /// # Panics
    ///
    /// Panics if rows have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<bool>]) -> Self {
        let beta = rows.len();
        let n = rows.first().map_or(0, |r| r.len());
        let mut m = StatusMatrix::new(beta, n);
        for (l, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), n, "row {l} has inconsistent length");
            for (i, &infected) in row.iter().enumerate() {
                if infected {
                    m.set(l, i as NodeId);
                }
            }
        }
        m
    }

    /// Wraps already-packed row words (`beta` rows of `words_per_row`
    /// words each, bits past `n` clear) — the parser's output.
    pub(crate) fn from_packed(beta: usize, n: usize, mut rows: Vec<u64>) -> Self {
        let words_per_row = n.div_ceil(WORD_BITS).max(1);
        debug_assert_eq!(rows.len(), beta * words_per_row);
        rows.shrink_to_fit();
        StatusMatrix {
            beta,
            n,
            words_per_row,
            rows,
        }
    }

    /// Appends `other`'s processes below this matrix's, one word copy per
    /// packed word: the cost is the appended rows, not the history. The
    /// rows grow to exactly their new length, so no spare capacity builds
    /// up across appends.
    ///
    /// # Panics
    ///
    /// Panics if the node counts differ.
    pub fn append_rows(&mut self, other: &StatusMatrix) {
        assert_eq!(
            self.n, other.n,
            "appended rows cover a different node count"
        );
        self.rows.reserve_exact(other.rows.len());
        self.rows.extend_from_slice(&other.rows);
        self.beta += other.beta;
    }

    /// A copy of the processes in `range` (row order kept).
    ///
    /// # Panics
    ///
    /// Panics if `range` reaches past `β`.
    pub fn rows_slice(&self, range: std::ops::Range<usize>) -> StatusMatrix {
        assert!(range.start <= range.end && range.end <= self.beta);
        let w = self.words_per_row;
        StatusMatrix {
            beta: range.len(),
            n: self.n,
            words_per_row: w,
            rows: self.rows[range.start * w..range.end * w].to_vec(),
        }
    }

    /// Heap bytes held by the packed rows: one bit per cell, rounded up
    /// to whole words per row. Every constructor and
    /// [`append_rows`](Self::append_rows) allocate exactly that, so the
    /// figure carries no spare capacity.
    pub fn heap_bytes(&self) -> usize {
        self.rows.capacity() * std::mem::size_of::<u64>()
    }

    /// Number of processes `β`.
    #[inline]
    pub fn num_processes(&self) -> usize {
        self.beta
    }

    /// Number of nodes `n`.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Marks node `i` infected in process `l`.
    #[inline]
    pub fn set(&mut self, l: usize, i: NodeId) {
        debug_assert!(l < self.beta && (i as usize) < self.n);
        let w = l * self.words_per_row + (i as usize) / WORD_BITS;
        self.rows[w] |= 1u64 << ((i as usize) % WORD_BITS);
    }

    /// Whether node `i` is infected in process `l`.
    #[inline]
    pub fn get(&self, l: usize, i: NodeId) -> bool {
        debug_assert!(l < self.beta && (i as usize) < self.n);
        let w = l * self.words_per_row + (i as usize) / WORD_BITS;
        (self.rows[w] >> ((i as usize) % WORD_BITS)) & 1 == 1
    }

    /// Number of infected nodes in process `l`.
    pub fn infected_in_process(&self, l: usize) -> usize {
        let start = l * self.words_per_row;
        self.rows[start..start + self.words_per_row]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// Number of processes in which node `i` ends up infected — the paper's
    /// `N₂` for node `i` (`N₁ = β − N₂`).
    pub fn infection_count(&self, i: NodeId) -> usize {
        (0..self.beta).filter(|&l| self.get(l, i)).count()
    }

    /// Counts `N_ijk` for child `i` with ordered parent set `parents`.
    ///
    /// Returns a vector of length `2^|parents|`; entry `j` is `[N_ij1,
    /// N_ij2]`, i.e. the number of processes where the parents' statuses
    /// form combination `j` (parent `t`'s status is bit `t` of `j`) and the
    /// child is uninfected (`k=1`, status 0) / infected (`k=2`, status 1),
    /// following the paper's `s₁ = 0, s₂ = 1` convention.
    ///
    /// # Errors
    ///
    /// Returns [`ComboSizeError`] if `parents.len()` exceeds
    /// [`MAX_TABULATED_PARENTS`] (the combination table would not fit in
    /// memory; TENDS's Theorem-2 bound keeps real parent sets far smaller).
    pub fn combo_counts(
        &self,
        child: NodeId,
        parents: &[NodeId],
    ) -> Result<Vec<[u64; 2]>, ComboSizeError> {
        check_combo_size(parents.len())?;
        let mut counts = vec![[0u64; 2]; 1usize << parents.len()];
        for l in 0..self.beta {
            let mut j = 0usize;
            for (t, &p) in parents.iter().enumerate() {
                if self.get(l, p) {
                    j |= 1 << t;
                }
            }
            let k = usize::from(self.get(l, child));
            counts[j][k] += 1;
        }
        Ok(counts)
    }

    /// Builds the column-major transpose used for fast pairwise counting.
    pub fn columns(&self) -> NodeColumns {
        NodeColumns::from_matrix(self)
    }

    /// Overall infected fraction across all processes and nodes.
    pub fn infected_fraction(&self) -> f64 {
        if self.beta == 0 || self.n == 0 {
            return 0.0;
        }
        let total: usize = (0..self.beta).map(|l| self.infected_in_process(l)).sum();
        total as f64 / (self.beta * self.n) as f64
    }
}

/// Joint status counts for a node pair across all processes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PairCounts {
    /// Processes where both are infected.
    pub n11: u64,
    /// Processes where `i` is infected and `j` is not.
    pub n10: u64,
    /// Processes where `j` is infected and `i` is not.
    pub n01: u64,
    /// Processes where neither is infected.
    pub n00: u64,
}

impl PairCounts {
    /// Total number of processes `β`.
    pub fn total(&self) -> u64 {
        self.n11 + self.n10 + self.n01 + self.n00
    }
}

/// Column-major bitset view: one `β`-bit vector per node, so pairwise joint
/// counts are word-parallel `popcount`s.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeColumns {
    beta: usize,
    words_per_col: usize,
    cols: Vec<u64>,
}

impl NodeColumns {
    /// An all-uninfected column view for `beta` processes over `n` nodes —
    /// the allocation target of the streaming status parser
    /// ([`crate::io::read_status_columns`]), which sets bits directly into
    /// the column bitsets without ever materializing the row-major matrix.
    pub(crate) fn new_empty(beta: usize, n: usize) -> Self {
        let words_per_col = beta.div_ceil(WORD_BITS).max(1);
        NodeColumns {
            beta,
            words_per_col,
            cols: vec![0u64; n * words_per_col],
        }
    }

    /// Marks node `i` infected in process `l` (streaming-parser hook).
    #[inline]
    pub(crate) fn set_bit(&mut self, l: usize, i: usize) {
        debug_assert!(l < self.beta && i * self.words_per_col < self.cols.len());
        self.cols[i * self.words_per_col + l / WORD_BITS] |= 1u64 << (l % WORD_BITS);
    }

    fn from_matrix(m: &StatusMatrix) -> Self {
        let words_per_col = m.beta.div_ceil(WORD_BITS).max(1);
        let mut cols = vec![0u64; m.n * words_per_col];
        // Cache-blocked bit transpose: each 64×64 tile (one row-word column
        // by one process-word row) is gathered into registers, transposed
        // with the Hacker's Delight butterfly network, and scattered into
        // the column bitsets — `O(n·β/64)` word swaps with linear streaming
        // over the source rows, instead of `O(n·β)` strided bit probes.
        let mut tile = [0u64; WORD_BITS];
        for iw in 0..m.words_per_row {
            let cols_here = m.n.saturating_sub(iw * WORD_BITS).min(WORD_BITS);
            for lw in 0..m.beta.div_ceil(WORD_BITS) {
                let rows_here = (m.beta - lw * WORD_BITS).min(WORD_BITS);
                for (r, t) in tile.iter_mut().take(rows_here).enumerate() {
                    *t = m.rows[(lw * WORD_BITS + r) * m.words_per_row + iw];
                }
                tile[rows_here..].fill(0);
                transpose64(&mut tile);
                for (c, &w) in tile.iter().enumerate().take(cols_here) {
                    cols[(iw * WORD_BITS + c) * words_per_col + lw] = w;
                }
            }
        }
        NodeColumns {
            beta: m.beta,
            words_per_col,
            cols,
        }
    }

    /// Number of processes `β`.
    pub fn num_processes(&self) -> usize {
        self.beta
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.cols.len().checked_div(self.words_per_col).unwrap_or(0)
    }

    /// Node `i`'s raw `β`-bit infection column (process `l` is bit `l`,
    /// little-endian; padding bits past `β` are zero). The operand shape
    /// the [`simd`](crate::simd) kernels consume — exposed so benchmarks
    /// can time explicit kernel tiers over real column data.
    #[inline]
    pub fn col(&self, i: NodeId) -> &[u64] {
        let i = i as usize;
        &self.cols[i * self.words_per_col..(i + 1) * self.words_per_col]
    }

    /// Number of processes where node `i` is infected.
    pub fn ones(&self, i: NodeId) -> u64 {
        crate::simd::kernels().popcount(self.col(i))
    }

    /// Per-column ones counts for every node, in node order — the
    /// precompute that lets the tiled pairwise kernel derive `n10/n01/n00`
    /// from `n11` alone and short-circuit degenerate columns.
    pub fn ones_counts(&self) -> Vec<u64> {
        (0..self.num_nodes() as u32).map(|i| self.ones(i)).collect()
    }

    /// Suggested tile side for [`pair_counts_block`], lane-width-aware:
    /// the largest `T` such that two tiles of `T` columns — each column's
    /// `⌈β/64⌉` words rounded up to whole 256-bit lane groups, since the
    /// SIMD kernels consume four words per step regardless of the tail —
    /// stay within a 32 KiB L1 budget, clamped to `[16, 1024]` and then
    /// aligned down to a multiple of 16 so tile boundaries land on SIMD
    /// word groups. At the paper's scales (`β = 150`, 3 words ⇒ one
    /// 32-byte lane group per column) this is 512, so the whole working
    /// set of a tile pair stays L1-resident; tiles start mattering once
    /// `β` reaches the tens of thousands, where a single column spans
    /// many cache lines.
    ///
    /// [`pair_counts_block`]: NodeColumns::pair_counts_block
    pub fn pair_tile_size(&self) -> usize {
        const L1_BUDGET_BYTES: usize = 32 * 1024;
        // 256-bit AVX2 lane group: four 64-bit words.
        const LANE_BYTES: usize = 32;
        let col_bytes =
            (self.words_per_col * std::mem::size_of::<u64>()).next_multiple_of(LANE_BYTES);
        let t = (L1_BUDGET_BYTES / (2 * col_bytes)).clamp(16, 1024);
        t - t % 16
    }

    /// Joint counts for every pair `(i, j)` with `i ∈ rows`, `j ∈ cols`,
    /// and `i < j`, emitted in row-major order.
    ///
    /// This is the tiled counterpart of [`pair_counts`]: callers walk the
    /// upper triangle in `T×T` blocks (see [`pair_tile_size`], which sizes
    /// `T` to the SIMD lane width) so the `j` tile's columns stay hot in L1
    /// while the `i` rows stream past. Per pair it runs a single
    /// AND+popcount pass for `n11` through the runtime-dispatched
    /// [`simd`](crate::simd) kernel (AVX2/popcnt/scalar, resolved once per
    /// process) and derives `n10/n01/n00` from the precomputed `ones`
    /// counts — one popcount stream instead of [`pair_counts`]' three.
    /// Columns that are never infected (`ones = 0`) or always infected
    /// (`ones = β`) short-circuit before the word loop: their joint counts
    /// are a pure function of the partner's ones count.
    ///
    /// Counts are bit-identical to [`pair_counts`] for every pair, under
    /// every dispatch tier.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `ones` was not produced by
    /// [`ones_counts`] on this view, or if a range end exceeds the node
    /// count.
    ///
    /// [`pair_counts`]: NodeColumns::pair_counts
    /// [`pair_tile_size`]: NodeColumns::pair_tile_size
    /// [`ones_counts`]: NodeColumns::ones_counts
    // `j` is a node id (fed to `emit` and `col`), not just an index into
    // `ones` — the iterator rewrite clippy suggests would obscure that.
    #[allow(clippy::needless_range_loop)]
    pub fn pair_counts_block(
        &self,
        rows: std::ops::Range<usize>,
        cols: std::ops::Range<usize>,
        ones: &[u64],
        emit: &mut impl FnMut(NodeId, NodeId, PairCounts),
    ) {
        debug_assert_eq!(ones.len(), self.num_nodes());
        debug_assert!(rows.end <= self.num_nodes() && cols.end <= self.num_nodes());
        let k = crate::simd::kernels();
        let beta = self.beta as u64;
        // Counts of a pair where one column is degenerate, from the other
        // column's ones count alone (no word loop).
        let degenerate = |ones_deg: u64, ones_other: u64| {
            let n11 = if ones_deg == 0 { 0 } else { ones_other };
            PairCounts {
                n11,
                n10: ones_deg - n11,
                n01: ones_other - n11,
                // `+ n11` first: `ones_deg + ones_other` may exceed `β`.
                n00: beta + n11 - ones_deg - ones_other,
            }
        };
        for i in rows {
            let oi = ones[i];
            let j_lo = cols.start.max(i + 1);
            if oi == 0 || oi == beta {
                for j in j_lo..cols.end {
                    // NB: `degenerate(oi, ·)` treats `i` as the degenerate
                    // side; n10/n01 come out in (i, j) orientation.
                    emit(i as NodeId, j as NodeId, degenerate(oi, ones[j]));
                }
                continue;
            }
            let ci = self.col(i as NodeId);
            for j in j_lo..cols.end {
                let oj = ones[j];
                if oj == 0 || oj == beta {
                    let d = degenerate(oj, oi);
                    emit(
                        i as NodeId,
                        j as NodeId,
                        PairCounts {
                            n11: d.n11,
                            n10: d.n01,
                            n01: d.n10,
                            n00: d.n00,
                        },
                    );
                    continue;
                }
                let cj = self.col(j as NodeId);
                let n11 = k.and_popcount(ci, cj);
                emit(
                    i as NodeId,
                    j as NodeId,
                    PairCounts {
                        n11,
                        n10: oi - n11,
                        n01: oj - n11,
                        n00: beta + n11 - oi - oj,
                    },
                );
            }
        }
    }

    /// Counts `N_ijk` for child `i` with ordered parent set `parents`,
    /// word-parallel.
    ///
    /// Semantics are identical to [`StatusMatrix::combo_counts`] (entry `j`
    /// of the result is `[N_ij1, N_ij2]`, parent `t`'s status is bit `t` of
    /// `j`), but the combination table is built by recursive bitset
    /// intersection: for `f` parents the cost is `O(2^f · ⌈β/64⌉)` word
    /// operations instead of `O(β · f)` bit probes. This is the scoring
    /// hot path of TENDS.
    ///
    /// # Errors
    ///
    /// Returns [`ComboSizeError`] if `parents.len()` exceeds
    /// [`MAX_TABULATED_PARENTS`].
    pub fn combo_counts(
        &self,
        child: NodeId,
        parents: &[NodeId],
    ) -> Result<Vec<[u64; 2]>, ComboSizeError> {
        check_combo_size(parents.len())?;
        let words = self.words_per_col;
        let mut counts = vec![[0u64; 2]; 1usize << parents.len()];
        // One arena allocation holds the root mask plus a (zero, one) mask
        // pair per recursion level; the per-branch vector allocations it
        // replaces dominated the cost of tabulating small candidate sets
        // in bulk (checkpoint tables build one per node).
        let mut arena = vec![0u64; words + 2 * words * parents.len()];
        let (root, rest) = arena.split_at_mut(words);
        self.root_mask_into(root);
        self.combo_rec(child, parents, 0, 0, root, rest, &mut counts);
        Ok(counts)
    }

    #[allow(clippy::too_many_arguments)]
    fn combo_rec(
        &self,
        child: NodeId,
        parents: &[NodeId],
        depth: usize,
        index: usize,
        mask: &[u64],
        arena: &mut [u64],
        counts: &mut [[u64; 2]],
    ) {
        if depth == parents.len() {
            let (infected, total) = crate::simd::kernels().and_self_popcount(mask, self.col(child));
            counts[index] = [total - infected, infected];
            return;
        }
        // Prune empty branches: every deeper combination has N_ij = 0,
        // which is what the zero-initialized table already says.
        if mask.iter().all(|&m| m == 0) {
            return;
        }
        let words = mask.len();
        let pcol = self.col(parents[depth]);
        let (cur, rest) = arena.split_at_mut(2 * words);
        let (zero, one) = cur.split_at_mut(words);
        zero.copy_from_slice(mask);
        one.fill(0);
        crate::simd::kernels().refine_masks(zero, one, pcol);
        self.combo_rec(child, parents, depth + 1, index, zero, rest, counts);
        self.combo_rec(
            child,
            parents,
            depth + 1,
            index | (1 << depth),
            one,
            rest,
            counts,
        );
    }

    /// Writes the all-ones mask over the `β` valid process bits into `out`.
    fn root_mask_into(&self, out: &mut [u64]) {
        debug_assert_eq!(out.len(), self.words_per_col);
        out.fill(u64::MAX);
        if !self.beta.is_multiple_of(WORD_BITS) {
            out[self.words_per_col - 1] = (1u64 << (self.beta % WORD_BITS)) - 1;
        }
        if self.beta == 0 {
            out[self.words_per_col - 1] = 0;
        }
    }

    /// Joint counts for the pair `(i, j)` over all `β` processes.
    pub fn pair_counts(&self, i: NodeId, j: NodeId) -> PairCounts {
        let (ci, cj) = (self.col(i), self.col(j));
        let mut n11 = 0u64;
        let mut ones_i = 0u64;
        let mut ones_j = 0u64;
        for (wi, wj) in ci.iter().zip(cj) {
            n11 += (wi & wj).count_ones() as u64;
            ones_i += wi.count_ones() as u64;
            ones_j += wj.count_ones() as u64;
        }
        let n10 = ones_i - n11;
        let n01 = ones_j - n11;
        let n00 = self.beta as u64 - n11 - n10 - n01;
        PairCounts { n11, n10, n01, n00 }
    }
}

/// In-place transpose of a 64×64 bit matrix (`a[r]` bit `c` ⇄ `a[c]` bit
/// `r`, both little-endian): the Hacker's Delight butterfly network, six
/// rounds of swapping `2^k × 2^k` sub-blocks entirely in registers.
fn transpose64(a: &mut [u64; WORD_BITS]) {
    let mut j = 32usize;
    let mut mask = 0x0000_0000_FFFF_FFFFu64;
    while j != 0 {
        let mut k = 0usize;
        while k < WORD_BITS {
            let t = ((a[k] >> j) ^ a[k + j]) & mask;
            a[k] ^= t << j;
            a[k + j] ^= t;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        mask ^= mask << j;
    }
}

/// Reusable scratch state for incremental `N_ijk` counting.
///
/// The greedy parent search evaluates `g(v_i, F ∪ W)` for one fixed base set
/// `F` and many small extensions `W` per round. The recursive kernel
/// ([`NodeColumns::combo_counts`]) rebuilds the whole partition tree — and
/// allocates two mask vectors per tree node — on every call. This workspace
/// instead *instantiates* `F`'s partition once per round ([`set_base`]) as a
/// flat arena of `2^|F|` process-bitset masks, and each evaluation
/// ([`refined_counts`]) only refines that cached partition along `W`'s
/// nodes. All buffers are retained across calls, so steady-state evaluation
/// performs no allocations.
///
/// Counts are **bit-identical** to `cols.combo_counts(child, &union)` where
/// `union` is the sorted merge of the base and extension sets: entry `j` of
/// the result indexes parent combinations by the sorted-union bit order
/// (parent `t` of the union contributes bit `t`), exactly like the other
/// two kernels. Identical table order means downstream floating-point score
/// sums visit terms in the same order and reproduce the same bits.
///
/// [`set_base`]: CountsWorkspace::set_base
/// [`refined_counts`]: CountsWorkspace::refined_counts
#[derive(Clone, Debug, Default)]
pub struct CountsWorkspace {
    /// The cached base parent set `F` (sorted, deduplicated).
    base_parents: Vec<NodeId>,
    /// `2^|F|` masks of `words` words each; entry `j` holds the processes
    /// whose `F`-statuses form combination `j` (base-order bits).
    base: Vec<u64>,
    /// Refinement arena: `2^(|F|+|W|)` masks during an evaluation.
    scratch: Vec<u64>,
    /// Output table, in sorted-union combination order.
    counts: Vec<[u64; 2]>,
    /// Per-base-entry `[infected, total]` counts shared across a batched
    /// single-extension pass
    /// ([`refined_counts_single_batch`](Self::refined_counts_single_batch)).
    batch_counts: Vec<[u64; 2]>,
    /// Bit position in the sorted union for each source bit (base bits
    /// first, then extension bits).
    bit_pos: Vec<u32>,
    /// Words per process-bitset column; fixed by the `NodeColumns` that the
    /// base was instantiated from.
    words: usize,
    /// Cumulative [`refined_counts`](Self::refined_counts) calls.
    refine_calls: u64,
    /// Cumulative [`set_base`](Self::set_base) calls (full recounts).
    rebase_calls: u64,
}

/// Cumulative call counts of one [`CountsWorkspace`], distinguishing cheap
/// incremental refinements from full base recounts — the ratio is the
/// whole point of the incremental engine, so runs report both.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkspaceStats {
    /// [`CountsWorkspace::refined_counts`] calls (incremental refinements).
    pub refinements: u64,
    /// [`CountsWorkspace::set_base`] calls (full partition recounts).
    pub rebases: u64,
}

impl CountsWorkspace {
    /// An empty workspace; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        CountsWorkspace::default()
    }

    /// Instantiates the partition of `parents` (the round's base set `F`)
    /// over `cols`, replacing any previous base.
    ///
    /// `parents` must be sorted and duplicate-free — the invariant the
    /// greedy search maintains for its accepted parent set.
    ///
    /// # Errors
    ///
    /// Returns [`ComboSizeError`] if `parents.len()` exceeds
    /// [`MAX_TABULATED_PARENTS`].
    ///
    /// # Panics
    ///
    /// Panics if `parents` is unsorted or duplicated (a programmer-contract
    /// violation, unlike the size limit which hostile inputs can reach).
    pub fn set_base(
        &mut self,
        cols: &NodeColumns,
        parents: &[NodeId],
    ) -> Result<(), ComboSizeError> {
        assert!(
            parents.windows(2).all(|w| w[0] < w[1]),
            "base parent set must be sorted and duplicate-free"
        );
        check_combo_size(parents.len())?;
        self.rebase_calls += 1;
        self.words = cols.words_per_col;
        self.base_parents.clear();
        self.base_parents.extend_from_slice(parents);
        self.base.resize((1usize << parents.len()) * self.words, 0);
        cols.root_mask_into(&mut self.base[..self.words]);
        for (t, &p) in parents.iter().enumerate() {
            Self::refine_level(&mut self.base, cols.col(p), 1usize << t, self.words);
        }
        Ok(())
    }

    /// The cached base parent set.
    pub fn base_parents(&self) -> &[NodeId] {
        &self.base_parents
    }

    /// Cumulative refine/rebase call counts since construction.
    pub fn stats(&self) -> WorkspaceStats {
        WorkspaceStats {
            refinements: self.refine_calls,
            rebases: self.rebase_calls,
        }
    }

    /// Splits each of the first `len` masks in `arena` along parent column
    /// `pcol`: the zero-half stays at entry `e`, the one-half lands at
    /// `len + e`. Each word is read before either half is written, so the
    /// doubling is safely in place.
    fn refine_level(arena: &mut [u64], pcol: &[u64], len: usize, words: usize) {
        debug_assert!(arena.len() >= 2 * len * words);
        let k = crate::simd::kernels();
        let (lo, hi) = arena.split_at_mut(len * words);
        for e in 0..len {
            let src = &mut lo[e * words..(e + 1) * words];
            let dst = &mut hi[e * words..(e + 1) * words];
            k.refine_masks(src, dst, pcol);
        }
    }

    /// Counts `N_ijk` for `child` under the parent set `F ∪ extra`,
    /// refining the cached base partition along `extra`'s nodes only.
    ///
    /// `extra` must be sorted, duplicate-free and disjoint from the base
    /// set. The returned table is indexed by sorted-union combination
    /// order and is bit-identical to
    /// `cols.combo_counts(child, &sorted_union)`.
    ///
    /// # Errors
    ///
    /// Returns [`ComboSizeError`] if the union exceeds
    /// [`MAX_TABULATED_PARENTS`] nodes.
    ///
    /// # Panics
    ///
    /// Panics if `extra` violates the ordering/disjointness contract or if
    /// `cols` has a different process count than the base was instantiated
    /// from.
    pub fn refined_counts(
        &mut self,
        cols: &NodeColumns,
        child: NodeId,
        extra: &[NodeId],
    ) -> Result<&[[u64; 2]], ComboSizeError> {
        assert_eq!(
            self.words, cols.words_per_col,
            "workspace base was instantiated from a different matrix shape"
        );
        assert!(
            extra.windows(2).all(|w| w[0] < w[1]),
            "extension set must be sorted and duplicate-free"
        );
        assert!(
            extra
                .iter()
                .all(|p| self.base_parents.binary_search(p).is_err()),
            "extension set must be disjoint from the base parent set"
        );
        let f = self.base_parents.len();
        let w = extra.len();
        check_combo_size(f + w)?;
        self.refine_calls += 1;

        // Refine the cached base partition along the extension nodes.
        self.scratch.resize((1usize << (f + w)) * self.words, 0);
        self.scratch[..self.base.len()].copy_from_slice(&self.base);
        for (t, &p) in extra.iter().enumerate() {
            Self::refine_level(
                &mut self.scratch,
                cols.col(p),
                1usize << (f + t),
                self.words,
            );
        }

        // Map each source bit (base order, then extension order) to its
        // position in the sorted union. Both inputs are sorted and
        // disjoint, so a linear merge assigns positions.
        self.bit_pos.resize(f + w, 0);
        let (mut bi, mut wi) = (0usize, 0usize);
        for pos in 0..f + w {
            let take_base = wi >= w || (bi < f && self.base_parents[bi] < extra[wi]);
            if take_base {
                self.bit_pos[bi] = pos as u32;
                bi += 1;
            } else {
                self.bit_pos[f + wi] = pos as u32;
                wi += 1;
            }
        }

        // Tabulate. Entry `e` of the arena (extension bits above base bits)
        // scatters to union index `j`; the map is a bit permutation, so
        // every `j` is written exactly once.
        self.counts.resize(1usize << (f + w), [0, 0]);
        let k = crate::simd::kernels();
        let ccol = cols.col(child);
        for e in 0..1usize << (f + w) {
            let mask = &self.scratch[e * self.words..(e + 1) * self.words];
            let (infected, total) = k.and_self_popcount(mask, ccol);
            let mut j = 0usize;
            for (t, &pos) in self.bit_pos.iter().enumerate() {
                j |= ((e >> t) & 1) << pos;
            }
            self.counts[j] = [total - infected, infected];
        }
        Ok(&self.counts)
    }

    /// Counts `N_ijk` for `child` under every single-node extension
    /// `F ∪ {extras[t]}` in one streaming pass over the cached base
    /// partition, without materializing any refined arena.
    ///
    /// For each base-partition entry the kernel computes the entry's
    /// `(infected, total)` once, then for every candidate one fused
    /// AND³+popcount pass yields the candidate-infected half; the
    /// candidate-uninfected half follows by subtraction. The zero-copy
    /// pass replaces `extras.len()` arena copy+refine+tabulate cycles, so
    /// the base masks are read once per candidate *group* instead of once
    /// per candidate evaluation step — and the per-extension tables are
    /// bit-identical to [`refined_counts`](Self::refined_counts) with the
    /// same single-node extension (each counts once toward the
    /// [`refinements`](WorkspaceStats::refinements) stat, preserving the
    /// sequential accounting).
    ///
    /// `sink` receives `(t, counts)` for each extension index `t` in
    /// order; the table is indexed by sorted-union combination order,
    /// exactly like `refined_counts(cols, child, &[extras[t]])`.
    ///
    /// # Panics
    ///
    /// Panics under the same contract as `refined_counts`: each extra
    /// must be absent from the base set, `cols` must match the shape the
    /// base was instantiated from, and the unions `F ∪ {p}` must fit
    /// [`MAX_TABULATED_PARENTS`] (the greedy search caps parent sets far
    /// below the limit, so unlike the fallible kernels this is a
    /// programmer contract, not reachable from hostile input).
    pub fn refined_counts_single_batch(
        &mut self,
        cols: &NodeColumns,
        child: NodeId,
        extras: &[NodeId],
        mut sink: impl FnMut(usize, &[[u64; 2]]),
    ) {
        if extras.is_empty() {
            return;
        }
        assert_eq!(
            self.words, cols.words_per_col,
            "workspace base was instantiated from a different matrix shape"
        );
        assert!(
            extras
                .iter()
                .all(|p| self.base_parents.binary_search(p).is_err()),
            "extension nodes must be disjoint from the base parent set"
        );
        let f = self.base_parents.len();
        assert!(
            f < MAX_TABULATED_PARENTS,
            "single-node extensions of a {f}-parent base exceed the combination table limit"
        );
        self.refine_calls += extras.len() as u64;

        let k = crate::simd::kernels();
        let ccol = cols.col(child);
        // Shared per-entry counts of the unrefined base partition.
        self.batch_counts.resize(1usize << f, [0, 0]);
        for e in 0..1usize << f {
            let mask = &self.base[e * self.words..(e + 1) * self.words];
            let (infected, total) = k.and_self_popcount(mask, ccol);
            self.batch_counts[e] = [infected, total];
        }
        self.counts.resize(1usize << (f + 1), [0, 0]);
        for (t, &p) in extras.iter().enumerate() {
            // The new parent's bit position in the sorted union F ∪ {p}.
            let pos = self.base_parents.partition_point(|&b| b < p);
            let pcol = cols.col(p);
            for e in 0..1usize << f {
                let mask = &self.base[e * self.words..(e + 1) * self.words];
                let [i_e, t_e] = self.batch_counts[e];
                let (mw, mwc) = k.and3_popcount(mask, pcol, ccol);
                // Splice the new parent's bit into the base combination
                // index: bits below `pos` keep their place, bits at or
                // above shift up by one.
                let j0 = (e & ((1usize << pos) - 1)) | ((e >> pos) << (pos + 1));
                let j1 = j0 | (1usize << pos);
                self.counts[j1] = [mw - mwc, mwc];
                self.counts[j0] = [(t_e - i_e) - (mw - mwc), i_e - mwc];
            }
            sink(t, &self.counts);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> StatusMatrix {
        StatusMatrix::from_rows(&[
            vec![true, false, true],
            vec![true, true, false],
            vec![false, false, false],
            vec![true, true, true],
        ])
    }

    /// Per-bit oracle for [`StatusMatrix::append_rows`].
    fn concat_per_bit(a: &StatusMatrix, b: &StatusMatrix) -> StatusMatrix {
        let n = a.num_nodes();
        let mut out = StatusMatrix::new(a.num_processes() + b.num_processes(), n);
        for (offset, m) in [(0, a), (a.num_processes(), b)] {
            for l in 0..m.num_processes() {
                for i in 0..n as NodeId {
                    if m.get(l, i) {
                        out.set(offset + l, i);
                    }
                }
            }
        }
        out
    }

    fn patterned(beta: usize, n: usize, salt: u64) -> StatusMatrix {
        let mut m = StatusMatrix::new(beta, n);
        for l in 0..beta {
            for i in 0..n {
                let h = (l as u64 * 0x9e37_79b9 + i as u64 * 0x85eb_ca6b + salt)
                    .wrapping_mul(0xc2b2_ae35);
                if h >> 61 & 1 == 1 {
                    m.set(l, i as NodeId);
                }
            }
        }
        m
    }

    #[test]
    fn append_rows_matches_per_bit_oracle() {
        for n in [1usize, 63, 64, 65, 1000] {
            for (beta_a, beta_b) in [(0, 3), (5, 0), (7, 4), (1, 1)] {
                let a = patterned(beta_a, n, 1);
                let b = patterned(beta_b, n, 2);
                let mut got = a.clone();
                got.append_rows(&b);
                assert_eq!(got, concat_per_bit(&a, &b), "n={n} β={beta_a}+{beta_b}");
                // No spare capacity is charged after an append.
                assert_eq!(got.heap_bytes(), (beta_a + beta_b) * n.div_ceil(64) * 8);
                // The tail slice gives the appended rows back.
                assert_eq!(got.rows_slice(beta_a..beta_a + beta_b), b);
                assert_eq!(got.rows_slice(0..beta_a), a);
            }
        }
    }

    #[test]
    #[should_panic(expected = "different node count")]
    fn append_rows_rejects_other_widths() {
        StatusMatrix::new(2, 5).append_rows(&StatusMatrix::new(1, 6));
    }

    #[test]
    fn get_set_round_trip() {
        let mut m = StatusMatrix::new(3, 130);
        m.set(0, 0);
        m.set(1, 64);
        m.set(2, 129);
        assert!(m.get(0, 0) && m.get(1, 64) && m.get(2, 129));
        assert!(!m.get(0, 1) && !m.get(1, 63) && !m.get(2, 128));
    }

    #[test]
    fn from_rows_matches_get() {
        let m = sample();
        assert_eq!(m.num_processes(), 4);
        assert_eq!(m.num_nodes(), 3);
        assert!(m.get(0, 0) && !m.get(0, 1) && m.get(0, 2));
        assert!(!m.get(2, 0) && !m.get(2, 1) && !m.get(2, 2));
    }

    #[test]
    fn per_process_and_per_node_counts() {
        let m = sample();
        assert_eq!(m.infected_in_process(0), 2);
        assert_eq!(m.infected_in_process(2), 0);
        assert_eq!(m.infection_count(0), 3);
        assert_eq!(m.infection_count(1), 2);
        assert_eq!(m.infection_count(2), 2);
    }

    #[test]
    fn infected_fraction() {
        let m = sample();
        assert!((m.infected_fraction() - 7.0 / 12.0).abs() < 1e-12);
        assert_eq!(StatusMatrix::new(0, 0).infected_fraction(), 0.0);
    }

    #[test]
    fn combo_counts_empty_parent_set() {
        let m = sample();
        let c = m.combo_counts(0, &[]).expect("small parent set");
        assert_eq!(c.len(), 1);
        assert_eq!(c[0], [1, 3]); // node 0 uninfected once, infected 3 times
    }

    #[test]
    fn combo_counts_single_parent() {
        let m = sample();
        // child = 2, parent = 1. Processes: (p1, c2) = (0,1),(1,0),(0,0),(1,1)
        let c = m.combo_counts(2, &[1]).expect("small parent set");
        assert_eq!(c.len(), 2);
        assert_eq!(c[0], [1, 1]); // parent 0: child 0 once (row 2), child 1 once (row 0)
        assert_eq!(c[1], [1, 1]); // parent 1: child 0 once (row 1), child 1 once (row 3)
    }

    #[test]
    fn combo_counts_two_parents_bit_order() {
        let m = sample();
        // child = 2, parents = [0, 1]: bit 0 is node 0's status, bit 1 node 1's.
        let c = m.combo_counts(2, &[0, 1]).expect("small parent set");
        assert_eq!(c.len(), 4);
        // rows: (s0,s1,s2) = (1,0,1),(1,1,0),(0,0,0),(1,1,1)
        assert_eq!(c[0b00], [1, 0]); // row 2
        assert_eq!(c[0b01], [0, 1]); // row 0
        assert_eq!(c[0b10], [0, 0]);
        assert_eq!(c[0b11], [1, 1]); // rows 1 and 3
        let total: u64 = c.iter().map(|kc| kc[0] + kc[1]).sum();
        assert_eq!(total, m.num_processes() as u64, "ΣN_ij = β");
    }

    #[test]
    fn pair_counts_agree_with_bruteforce() {
        let m = sample();
        let cols = m.columns();
        for i in 0..3u32 {
            for j in 0..3u32 {
                let pc = cols.pair_counts(i, j);
                let mut expect = PairCounts {
                    n11: 0,
                    n10: 0,
                    n01: 0,
                    n00: 0,
                };
                for l in 0..m.num_processes() {
                    match (m.get(l, i), m.get(l, j)) {
                        (true, true) => expect.n11 += 1,
                        (true, false) => expect.n10 += 1,
                        (false, true) => expect.n01 += 1,
                        (false, false) => expect.n00 += 1,
                    }
                }
                assert_eq!(pc, expect, "pair ({i},{j})");
                assert_eq!(pc.total(), 4);
            }
        }
    }

    #[test]
    fn columns_across_word_boundary() {
        // β = 70 crosses the 64-bit word boundary in the column bitsets.
        let mut m = StatusMatrix::new(70, 2);
        for l in 0..70 {
            if l % 2 == 0 {
                m.set(l, 0);
            }
            if l % 3 == 0 {
                m.set(l, 1);
            }
        }
        let cols = m.columns();
        assert_eq!(cols.ones(0), 35);
        assert_eq!(cols.ones(1), 24);
        let pc = cols.pair_counts(0, 1);
        assert_eq!(
            pc.n11,
            (0..70).filter(|l| l % 2 == 0 && l % 3 == 0).count() as u64
        );
        assert_eq!(pc.total(), 70);
    }

    #[test]
    fn column_combo_counts_match_row_combo_counts() {
        // Randomized cross-check of the two N_ijk kernels, across a word
        // boundary in β.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let beta = 100;
        let n = 10;
        let mut m = StatusMatrix::new(beta, n);
        for l in 0..beta {
            for i in 0..n {
                if next() % 3 == 0 {
                    m.set(l, i as NodeId);
                }
            }
        }
        let cols = m.columns();
        for parents in [
            vec![],
            vec![1],
            vec![3, 7],
            vec![0, 2, 5],
            vec![1, 4, 6, 9],
            vec![0, 1, 2, 3, 4],
        ] {
            let child = 8;
            assert_eq!(
                cols.combo_counts(child, &parents).expect("small"),
                m.combo_counts(child, &parents).expect("small"),
                "parents {parents:?}"
            );
        }
    }

    fn random_matrix(beta: usize, n: usize, seed: u64) -> StatusMatrix {
        let mut state = seed;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut m = StatusMatrix::new(beta, n);
        for l in 0..beta {
            for i in 0..n {
                if next() % 3 == 0 {
                    m.set(l, i as NodeId);
                }
            }
        }
        m
    }

    #[test]
    fn workspace_counts_match_recursive_kernel() {
        // β = 100 crosses the word boundary; exercise base/extension splits
        // whose sorted unions interleave both ways.
        let m = random_matrix(100, 12, 0x9E3779B97F4A7C15);
        let cols = m.columns();
        let mut ws = CountsWorkspace::new();
        let cases: &[(&[NodeId], &[NodeId])] = &[
            (&[], &[]),
            (&[], &[4]),
            (&[2], &[]),
            (&[2], &[0]),
            (&[2], &[7]),
            (&[1, 5], &[3, 9]),
            (&[0, 4, 8], &[2, 6, 10]),
            (&[3, 4, 5], &[0, 1, 2]),
            (&[0, 1, 2], &[9, 10, 11]),
        ];
        for &(base, extra) in cases {
            ws.set_base(&cols, base).expect("small base");
            let mut union: Vec<NodeId> = base.iter().chain(extra).copied().collect();
            union.sort_unstable();
            let got = ws
                .refined_counts(&cols, 11, extra)
                .expect("small union")
                .to_vec();
            assert_eq!(
                got,
                cols.combo_counts(11, &union).expect("small"),
                "base {base:?} extra {extra:?}"
            );
        }
    }

    #[test]
    fn workspace_reuse_across_rounds_and_shrinking_sets() {
        // One workspace driven the way the greedy search drives it: bases
        // that grow, then shrink, with varying extension widths in between.
        let m = random_matrix(70, 10, 0xDEADBEEFCAFE1234);
        let cols = m.columns();
        let mut ws = CountsWorkspace::new();
        let rounds: &[&[NodeId]] = &[&[], &[3], &[3, 6], &[1, 3, 6], &[6]];
        for &base in rounds {
            ws.set_base(&cols, base).expect("small base");
            assert_eq!(ws.base_parents(), base);
            for extra in [vec![], vec![0], vec![0, 9], vec![2, 4, 9]] {
                if extra.iter().any(|p| base.contains(p)) {
                    continue;
                }
                let mut union: Vec<NodeId> = base.iter().chain(&extra).copied().collect();
                union.sort_unstable();
                for child in [5u32, 8] {
                    let got = ws
                        .refined_counts(&cols, child, &extra)
                        .expect("small union")
                        .to_vec();
                    assert_eq!(
                        got,
                        cols.combo_counts(child, &union).expect("small"),
                        "base {base:?} extra {extra:?} child {child}"
                    );
                }
            }
        }
    }

    #[test]
    fn batched_single_extensions_match_refined_counts() {
        // The batched pass must reproduce `refined_counts` bit-for-bit for
        // every candidate, with bases that interleave the candidates both
        // ways, and charge one refinement per candidate.
        let m = random_matrix(100, 12, 0x1357_9BDF_2468_ACE0);
        let cols = m.columns();
        let mut ws = CountsWorkspace::new();
        let mut oracle = CountsWorkspace::new();
        let cases: &[(&[NodeId], &[NodeId])] = &[
            (&[], &[0]),
            (&[], &[4, 7, 11]),
            (&[5], &[0, 6, 9]),
            (&[2, 8], &[0, 3, 5, 10, 11]),
            (&[0, 1, 2], &[3, 7, 9]),
            (&[4, 6, 10], &[0, 5, 11]),
        ];
        for &(base, extras) in cases {
            ws.set_base(&cols, base).expect("small base");
            oracle.set_base(&cols, base).expect("small base");
            let before = ws.stats().refinements;
            let mut seen = 0usize;
            ws.refined_counts_single_batch(&cols, 11, extras, |t, counts| {
                let expect = oracle
                    .refined_counts(&cols, 11, &[extras[t]])
                    .expect("small union");
                assert_eq!(counts, expect, "base {base:?} extra {}", extras[t]);
                seen += 1;
            });
            assert_eq!(seen, extras.len());
            assert_eq!(ws.stats().refinements, before + extras.len() as u64);
        }
        // Empty batches do nothing and charge nothing.
        let before = ws.stats().refinements;
        ws.refined_counts_single_batch(&cols, 11, &[], |_, _| panic!("no extras"));
        assert_eq!(ws.stats().refinements, before);
    }

    #[test]
    #[should_panic(expected = "disjoint")]
    fn batched_extensions_reject_base_overlap() {
        let m = sample();
        let cols = m.columns();
        let mut ws = CountsWorkspace::new();
        ws.set_base(&cols, &[1]).expect("small base");
        ws.refined_counts_single_batch(&cols, 2, &[0, 1], |_, _| {});
    }

    #[test]
    fn workspace_zero_beta() {
        let m = StatusMatrix::new(0, 4);
        let cols = m.columns();
        let mut ws = CountsWorkspace::new();
        ws.set_base(&cols, &[1]).expect("small base");
        assert_eq!(
            ws.refined_counts(&cols, 0, &[2]).expect("small union"),
            &[[0, 0]; 4]
        );
    }

    #[test]
    fn workspace_stats_count_rebases_and_refinements() {
        let m = sample();
        let cols = m.columns();
        let mut ws = CountsWorkspace::new();
        assert_eq!(ws.stats(), WorkspaceStats::default());
        ws.set_base(&cols, &[]).expect("empty base");
        ws.refined_counts(&cols, 2, &[0]).expect("small");
        ws.refined_counts(&cols, 2, &[1]).expect("small");
        ws.set_base(&cols, &[0]).expect("small base");
        ws.refined_counts(&cols, 2, &[1]).expect("small");
        let stats = ws.stats();
        assert_eq!(stats.rebases, 2);
        assert_eq!(stats.refinements, 3);
    }

    #[test]
    #[should_panic(expected = "disjoint")]
    fn workspace_rejects_overlapping_extension() {
        let m = sample();
        let cols = m.columns();
        let mut ws = CountsWorkspace::new();
        ws.set_base(&cols, &[1]).expect("small base");
        let _ = ws.refined_counts(&cols, 2, &[1]);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn workspace_rejects_unsorted_base() {
        let m = sample();
        let cols = m.columns();
        let _ = CountsWorkspace::new().set_base(&cols, &[2, 1]);
    }

    #[test]
    fn column_combo_counts_zero_beta() {
        let m = StatusMatrix::new(0, 4);
        let cols = m.columns();
        assert_eq!(
            cols.combo_counts(0, &[1, 2]).expect("small"),
            vec![[0, 0]; 4]
        );
    }

    #[test]
    fn combo_counts_rejects_huge_parent_sets_with_typed_error() {
        let m = StatusMatrix::new(1, 30);
        let parents: Vec<NodeId> = (0..26).collect();
        let err = m.combo_counts(29, &parents).unwrap_err();
        assert_eq!(err, ComboSizeError { parents: 26 });
        assert!(err.to_string().contains("too large"));
        let cols = m.columns();
        assert_eq!(cols.combo_counts(29, &parents).unwrap_err(), err);
        let mut ws = CountsWorkspace::new();
        assert_eq!(ws.set_base(&cols, &parents).unwrap_err(), err);
        // A base/extension split whose union crosses the limit errors too,
        // without counting the failed call as a refinement.
        ws.set_base(&cols, &parents[..20]).expect("20 fits");
        let rebases_before = ws.stats();
        assert_eq!(
            ws.refined_counts(&cols, 29, &parents[20..]).unwrap_err(),
            err
        );
        assert_eq!(ws.stats().refinements, rebases_before.refinements);
    }

    #[test]
    fn zero_size_matrices() {
        let m = StatusMatrix::new(0, 0);
        assert_eq!(m.num_processes(), 0);
        assert_eq!(m.columns().num_nodes(), 0);
        let m2 = StatusMatrix::new(5, 0);
        assert_eq!(m2.infected_fraction(), 0.0);
    }

    /// A deterministic pseudo-random matrix with planted degenerate columns.
    fn scrambled(beta: usize, n: usize) -> StatusMatrix {
        let mut m = StatusMatrix::new(beta, n);
        let mut state = 0x9e3779b97f4a7c15u64 ^ (beta as u64) << 32 ^ n as u64;
        for l in 0..beta {
            for i in 0..n {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                // Node 0 never infected, nodes 1, 2 always infected
                // (degenerate pair on both sides), and the last node
                // always infected so upper-triangle pairs also hit the
                // j-degenerate branch with a non-degenerate i.
                let infected = if i == 0 {
                    false
                } else if i == 1 || i == 2 || i + 1 == n {
                    true
                } else {
                    state >> 33 & 1 == 1
                };
                if infected {
                    m.set(l, i as NodeId);
                }
            }
        }
        m
    }

    #[test]
    fn ones_counts_match_per_node_ones() {
        let cols = scrambled(70, 9).columns();
        let ones = cols.ones_counts();
        assert_eq!(ones.len(), 9);
        for i in 0..9u32 {
            assert_eq!(ones[i as usize], cols.ones(i));
        }
        assert_eq!(ones[0], 0);
        assert_eq!(ones[1], 70);
        assert_eq!(ones[8], 70);
    }

    #[test]
    fn pair_tile_size_tracks_column_footprint() {
        // β = 150 → 3 words/col, lane-padded to 32 B → ⌊32768 / 64⌋ = 512.
        assert_eq!(StatusMatrix::new(150, 4).columns().pair_tile_size(), 512);
        // Tiny β also occupies one full 32-byte lane group per column.
        assert_eq!(StatusMatrix::new(8, 4).columns().pair_tile_size(), 512);
        // β = 65_536 → 1024 words/col → 2 tile columns fit in 32 KiB.
        // The lower clamp keeps tiles from degenerating to single columns.
        assert_eq!(StatusMatrix::new(65_536, 2).columns().pair_tile_size(), 16);
        // β = 2051 → 33 words, lane-padded to 36 → 56, aligned down to 48.
        assert_eq!(StatusMatrix::new(2051, 2).columns().pair_tile_size(), 48);
        // Every tile side lands on a 16-column boundary.
        for beta in [1usize, 100, 999, 4097, 30_000] {
            let t = StatusMatrix::new(beta, 2).columns().pair_tile_size();
            assert_eq!(t % 16, 0, "beta {beta} tile {t}");
            assert!((16..=1024).contains(&t), "beta {beta} tile {t}");
        }
    }

    #[test]
    fn blocked_transpose_matches_bit_probes() {
        // β and n both straddle several 64×64 transpose tiles, with ragged
        // edges on both axes; verify every column bit against the
        // row-major source.
        let m = scrambled(193, 131);
        let cols = m.columns();
        for i in 0..131u32 {
            let col = &cols.cols
                [(i as usize) * cols.words_per_col..(i as usize + 1) * cols.words_per_col];
            for l in 0..193usize {
                let bit = (col[l / WORD_BITS] >> (l % WORD_BITS)) & 1 == 1;
                assert_eq!(bit, m.get(l, i), "process {l} node {i}");
            }
            // Padding bits above β stay clear.
            for l in 193..cols.words_per_col * WORD_BITS {
                assert_eq!((col[l / WORD_BITS] >> (l % WORD_BITS)) & 1, 0);
            }
        }
    }

    #[test]
    fn transpose64_is_an_involution_and_transposes() {
        let mut a = [0u64; WORD_BITS];
        let mut state = 0xA5A5_5A5A_DEAD_BEEFu64;
        for w in a.iter_mut() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *w = state;
        }
        let orig = a;
        transpose64(&mut a);
        for (r, row) in orig.iter().enumerate() {
            for (c, col) in a.iter().enumerate() {
                assert_eq!((col >> r) & 1, (row >> c) & 1, "({r},{c})");
            }
        }
        transpose64(&mut a);
        assert_eq!(a, orig);
    }

    /// All pairs of the upper triangle via the tiled kernel, walked in
    /// `tile`-sized blocks like the production caller.
    fn tiled_pairs(cols: &NodeColumns, tile: usize) -> Vec<(NodeId, NodeId, PairCounts)> {
        let n = cols.num_nodes();
        let ones = cols.ones_counts();
        let mut out = Vec::new();
        for jb in (0..n).step_by(tile) {
            let j_hi = (jb + tile).min(n);
            for ib in (0..j_hi).step_by(tile) {
                let i_hi = (ib + tile).min(j_hi);
                cols.pair_counts_block(ib..i_hi, jb..j_hi, &ones, &mut |i, j, c| {
                    out.push((i, j, c));
                });
            }
        }
        out.sort_unstable_by_key(|&(i, j, _)| (i, j));
        out
    }

    #[test]
    fn tiled_pair_counts_match_per_pair_kernel() {
        // β values straddle word boundaries: 63/64/65 probe tail-word
        // masking, 1 and 130 probe tiny and multi-word columns.
        for beta in [1usize, 63, 64, 65, 130] {
            let cols = scrambled(beta, 13).columns();
            for tile in [1usize, 3, 16] {
                let got = tiled_pairs(&cols, tile);
                assert_eq!(got.len(), 13 * 12 / 2, "beta {beta} tile {tile}");
                for (i, j, c) in got {
                    assert_eq!(
                        c,
                        cols.pair_counts(i, j),
                        "beta {beta} tile {tile} pair ({i},{j})"
                    );
                    assert_eq!(c.total(), beta as u64);
                }
            }
        }
    }

    #[test]
    fn tiled_kernel_degenerate_columns() {
        // scrambled() plants never-infected node 0 and always-infected
        // nodes 1, 2 — every degenerate short-circuit branch fires:
        // i-degenerate, j-degenerate, and both-degenerate (1,2).
        let beta = 97u64;
        let cols = scrambled(beta as usize, 6).columns();
        let pairs = tiled_pairs(&cols, 4);
        for &(i, j, c) in &pairs {
            assert_eq!(c, cols.pair_counts(i, j), "pair ({i},{j})");
        }
        let at = |i: NodeId, j: NodeId| pairs.iter().find(|p| (p.0, p.1) == (i, j)).unwrap().2;
        // Never-infected × always-infected: all mass in n01.
        assert_eq!(
            at(0, 1),
            PairCounts {
                n11: 0,
                n10: 0,
                n01: beta,
                n00: 0
            }
        );
        // Always-infected × always-infected: all mass in n11.
        assert_eq!(
            at(1, 2),
            PairCounts {
                n11: beta,
                n10: 0,
                n01: 0,
                n00: 0
            }
        );
        // Never-infected × random j: n11 = n10 = 0, n01 = ones(j).
        let c03 = at(0, 3);
        assert_eq!((c03.n11, c03.n10), (0, 0));
        assert_eq!(c03.n01, cols.ones(3));
        // Random i × always-infected j (node 5 is planted always-on):
        // the j-degenerate branch, reached with a non-degenerate i.
        let c35 = at(3, 5);
        assert_eq!((c35.n10, c35.n00), (0, 0));
        assert_eq!(c35.n11, cols.ones(3));
        assert_eq!(c35.n01, beta - cols.ones(3));
    }

    #[test]
    fn tiled_kernel_empty_ranges_emit_nothing() {
        let cols = scrambled(40, 5).columns();
        let ones = cols.ones_counts();
        let mut calls = 0usize;
        cols.pair_counts_block(0..0, 0..5, &ones, &mut |_, _, _| calls += 1);
        cols.pair_counts_block(0..5, 5..5, &ones, &mut |_, _, _| calls += 1);
        // A block strictly below the diagonal emits nothing (i < j filter).
        cols.pair_counts_block(3..5, 0..2, &ones, &mut |_, _, _| calls += 1);
        assert_eq!(calls, 0);
    }
}
