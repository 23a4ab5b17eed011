//! The modified 2-means threshold finder (paper §IV-B, Algorithm 1 line 5).
//!
//! TENDS partitions all *non-negative* pairwise infection-MI values into two
//! clusters with K-means, `K = 2`, keeping one centroid pinned at 0 through
//! every iteration. The pinned cluster collects the compact mass of
//! near-zero values produced by unrelated node pairs; the threshold `τ` is
//! the largest value assigned to it, so every candidate parent must beat the
//! "noise" cluster.

/// Outcome of the pinned 2-means clustering.
#[derive(Clone, Debug, PartialEq)]
pub struct PinnedKmeans {
    /// The threshold `τ`: the largest value in the pinned (near-zero)
    /// cluster; 0 if that cluster is empty.
    pub tau: f64,
    /// Final position of the free centroid.
    pub free_centroid: f64,
    /// Number of values assigned to the pinned cluster.
    pub pinned_count: usize,
    /// Number of values assigned to the free cluster.
    pub free_count: usize,
    /// Iterations until convergence.
    pub iterations: usize,
}

/// Runs 2-means over the finite non-negative entries of `values` with one
/// centroid pinned at 0, and returns the threshold `τ`.
///
/// Negative entries are discarded first (the paper removes negative
/// infection-MI values before clustering). Non-finite entries (NaN, ±∞)
/// are discarded with them: a NaN has no cluster distance and an infinite
/// value would drag the free centroid to ∞, collapsing every finite value
/// into the pinned cluster — treating both as "no usable correlation" is
/// the same conservative policy as dropping negatives, and keeps this
/// function total over hostile input. Degenerate inputs have a
/// well-defined `τ`:
///
/// * **empty input** (or every entry negative): `τ = 0`, both clusters
///   empty, zero iterations;
/// * **all zeros** (no strictly positive value): `τ = 0`, every value in
///   the pinned cluster, the free cluster empty;
/// * **a single positive value**: it seeds — and stays in — the free
///   cluster, so the pinned cluster is empty and `τ = 0`.
///
/// In every case `τ = 0` keeps *all* positive correlations above threshold,
/// which is the conservative choice when there is no noise mass to fit.
///
/// # Only the tail is sorted
///
/// The result is exactly that of sorting every kept value and iterating
/// on the sorted array, but only the values above a bound `L ≤ c*/2` are
/// sorted (`c*` is the free centroid the iteration converges to). From
/// `c₀ = max` the update `c ← mean{v > c/2}` never increases `c`: the
/// values a smaller half admits all lie below the current mean. Every
/// evaluated half is therefore at least `c*/2 ≥ L`, so the values below
/// `L` always sit in the pinned cluster and need only their count, plus
/// their largest value for `τ` when the boundary lands exactly there.
/// Suffix sums accumulate from the top, so the tail's sums are bit-equal
/// to the matching part of the full array's.
///
/// `L` comes from one pass that builds a coarse histogram (count and sum
/// per bucket of the f64 bit prefix, which orders non-negative finite
/// values like their values). The same iteration run over whole buckets,
/// with the bucket straddling each half included, only ever adds values
/// below the mean, so it settles at or below `c*` and its straddling
/// bucket's lower edge is a valid `L`. Should float rounding ever put an
/// evaluated half below `L`, the fit is redone with every value sorted.
pub fn pinned_two_means(values: &[f64]) -> PinnedKmeans {
    let hist = Histogram::of(values);
    let bound = hist.lower_bound_bucket();
    fit_above(values, &hist, bound)
        .unwrap_or_else(|| fit_above(values, &hist, 0).expect("no kept value lies below bucket 0"))
}

/// Low bits of a value key dropped by its bucket index: the 4 mantissa
/// bits left in the index cut each binade into 16 buckets.
const BUCKET_SHIFT: u32 = 48;
/// The key of every discarded value (negative, NaN, ±∞). Its bucket lies
/// above every kept value's.
const DISCARDED: u64 = u64::MAX >> 1;
/// Buckets of kept values; the discarded key's bucket is the one after.
const KEPT_BUCKETS: usize = (DISCARDED >> BUCKET_SHIFT) as usize;
/// One past the key of `f64::MAX`, the largest kept value.
const KEY_END: u64 = f64::MAX.to_bits() + 2;

/// An order key over the kept values that sorts exactly like
/// `f64::total_cmp`: `−0.0 ↦ 0`, a non-negative finite `v ↦ bits(v) + 1`
/// (their bit patterns sort like their values), anything else
/// [`DISCARDED`]. Branch-free, so a pass over millions of values does not
/// stall on the unpredictable sign and finiteness tests.
#[inline]
fn key(v: f64) -> u64 {
    let bits = v.to_bits();
    let other = if bits == (-0.0f64).to_bits() {
        0
    } else {
        DISCARDED
    };
    if bits < f64::INFINITY.to_bits() {
        bits + 1
    } else {
        other
    }
}

/// The kept value a key stands for.
#[inline]
fn value(key: u64) -> f64 {
    if key == 0 {
        -0.0
    } else {
        f64::from_bits(key - 1)
    }
}

#[inline]
fn bucket(key: u64) -> usize {
    (key >> BUCKET_SHIFT) as usize
}

/// Count and sum of the kept values per key bucket, as totals over each
/// bucket and every bucket above it.
struct Histogram {
    count: Vec<u64>,
    sum: Vec<f64>,
}

impl Histogram {
    fn of(values: &[f64]) -> Histogram {
        let mut count = vec![0u64; KEPT_BUCKETS + 1];
        let mut sum = vec![0.0f64; KEPT_BUCKETS + 1];
        for &v in values {
            let b = bucket(key(v));
            count[b] += 1;
            sum[b] += v;
        }
        // Drop the discarded bucket, then accumulate from the top.
        count.truncate(KEPT_BUCKETS);
        sum.truncate(KEPT_BUCKETS);
        for b in (0..KEPT_BUCKETS - 1).rev() {
            count[b] += count[b + 1];
            sum[b] += sum[b + 1];
        }
        Histogram { count, sum }
    }

    /// Kept values in bucket `b` and above.
    fn count_from(&self, b: usize) -> usize {
        self.count.get(b).map_or(0, |&c| c as usize)
    }

    /// The bucket whose lower edge bounds the converged half from below:
    /// the pinned 2-means run over whole buckets, each half's straddling
    /// bucket included, from the top kept bucket down to its fixed point.
    fn lower_bound_bucket(&self) -> usize {
        let Some(mut b) = self.count.iter().rposition(|&c| c > 0) else {
            return 0;
        };
        loop {
            let c = self.sum[b] / self.count[b] as f64;
            let next = bucket(key(c / 2.0));
            // A strictly falling bucket index ends the walk after at most
            // one step per bucket; rounding that moves it up ends it too.
            if next >= b {
                return b;
            }
            b = next;
        }
    }
}

/// The pinned 2-means with only the kept values in bucket `bound` and
/// above sorted, or `None` when an evaluated half falls below the
/// bucket's lower edge (which `bound = 0` never does).
fn fit_above(values: &[f64], hist: &Histogram, bound: usize) -> Option<PinnedKmeans> {
    const MAX_ITERS: usize = 100;

    let total = hist.count_from(0);
    let lo = (bound as u64) << BUCKET_SHIFT;
    let tail_len = hist.count_from(bound);
    let below = total - tail_len;
    // Branch-free gather of the tail's keys: every key is written at the
    // cursor, which only advances past tail members; the spare slot
    // takes the rest. Keys sort like the values, and faster.
    let mut keys = vec![0u64; tail_len + 1];
    let mut len = 0usize;
    let span = KEY_END.saturating_sub(lo);
    for &v in values {
        let k = key(v);
        keys[len] = k;
        len += usize::from(k.wrapping_sub(lo) < span);
    }
    debug_assert_eq!(len, tail_len);
    keys.truncate(tail_len);
    keys.sort_unstable();
    let tail: Vec<f64> = keys.into_iter().map(value).collect();
    // The largest value under the bound, needed only when the boundary
    // lands exactly on it.
    let below_max = || {
        value(
            values
                .iter()
                .map(|&v| key(v))
                .filter(|&k| k < lo)
                .max()
                .unwrap_or(0),
        )
    };

    let Some(&positive_max) = tail.last() else {
        // No kept value at all, or a bound above all of them.
        return (below == 0).then_some(PinnedKmeans {
            tau: 0.0,
            free_centroid: 0.0,
            pinned_count: 0,
            free_count: 0,
            iterations: 0,
        });
    };
    if positive_max <= 0.0 {
        return Some(PinnedKmeans {
            tau: 0.0,
            free_centroid: 0.0,
            pinned_count: total,
            free_count: 0,
            iterations: 0,
        });
    }

    // Suffix sums make each free-cluster mean an O(1) lookup instead of
    // an O(cluster) re-summation per iteration: `suffix[i]` is the sum of
    // `tail[i..]`, accumulated right to left once after the sort.
    let mut suffix = vec![0.0f64; tail_len + 1];
    for i in (0..tail_len).rev() {
        suffix[i] = tail[i] + suffix[i + 1];
    }

    // Initialize the free centroid at the maximum so the pinned cluster
    // starts as inclusive as possible and shrinks from there.
    let mut c = positive_max;
    let mut boundary_idx = 0usize; // first index assigned to the free cluster
    let mut iterations = 0usize;

    for it in 1..=MAX_ITERS {
        iterations = it;
        // Assignment: v joins the free cluster iff it is strictly closer to
        // c than to 0, i.e. v > c/2. With sorted values this is a partition
        // point; the values under the bound all lie at or below the half.
        let half = c / 2.0;
        let covers_below = value(lo) <= half;
        if below > 0 && !covers_below {
            return None;
        }
        let new_boundary = below + tail.partition_point(|&v| v <= half);
        // Update: the free centroid moves to the mean of its members; if it
        // would be empty, keep it at the maximum (it then owns at least the
        // max element next round).
        let new_c = if new_boundary < total {
            suffix[new_boundary - below] / (total - new_boundary) as f64
        } else {
            positive_max
        };
        let converged = new_boundary == boundary_idx && (new_c - c).abs() < 1e-12;
        boundary_idx = new_boundary;
        c = new_c;
        if converged && it > 1 {
            break;
        }
    }

    let tau = if boundary_idx == 0 {
        0.0
    } else if boundary_idx > below {
        tail[boundary_idx - 1 - below]
    } else {
        below_max()
    };
    Some(PinnedKmeans {
        tau,
        free_centroid: c,
        pinned_count: boundary_idx,
        free_count: total - boundary_idx,
        iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The sort-everything pinned 2-means the bounded version must equal
    /// field for field, bit for bit.
    fn sort_all_two_means(values: &[f64]) -> PinnedKmeans {
        const MAX_ITERS: usize = 100;

        let mut vals: Vec<f64> = values
            .iter()
            .copied()
            .filter(|&v| v.is_finite() && v >= 0.0)
            .collect();
        vals.sort_unstable_by(f64::total_cmp);

        let positive_max = vals.last().copied().unwrap_or(0.0);
        if positive_max <= 0.0 {
            return PinnedKmeans {
                tau: 0.0,
                free_centroid: 0.0,
                pinned_count: vals.len(),
                free_count: 0,
                iterations: 0,
            };
        }
        let mut suffix = vec![0.0f64; vals.len() + 1];
        for i in (0..vals.len()).rev() {
            suffix[i] = vals[i] + suffix[i + 1];
        }
        let mut c = positive_max;
        let mut boundary_idx = 0usize;
        let mut iterations = 0usize;
        for it in 1..=MAX_ITERS {
            iterations = it;
            let half = c / 2.0;
            let new_boundary = vals.partition_point(|&v| v <= half);
            let new_c = if new_boundary < vals.len() {
                suffix[new_boundary] / (vals.len() - new_boundary) as f64
            } else {
                positive_max
            };
            let converged = new_boundary == boundary_idx && (new_c - c).abs() < 1e-12;
            boundary_idx = new_boundary;
            c = new_c;
            if converged && it > 1 {
                break;
            }
        }
        let tau = if boundary_idx == 0 {
            0.0
        } else {
            vals[boundary_idx - 1]
        };
        PinnedKmeans {
            tau,
            free_centroid: c,
            pinned_count: boundary_idx,
            free_count: vals.len() - boundary_idx,
            iterations,
        }
    }

    /// Field-for-field equality with the float fields compared as bits
    /// (`PartialEq` would equate `−0.0` with `0.0`).
    fn bit_equal(a: &PinnedKmeans, b: &PinnedKmeans) -> bool {
        a.tau.to_bits() == b.tau.to_bits()
            && a.free_centroid.to_bits() == b.free_centroid.to_bits()
            && (a.pinned_count, a.free_count, a.iterations)
                == (b.pinned_count, b.free_count, b.iterations)
    }

    /// One hostile f64: raw bits (NaN payloads, ±∞, subnormals, negative
    /// values), signed zeros, tiny subnormals, a small pool of repeated
    /// values, or a draw from an IMI-like mix of noise and signal.
    fn hostile_value() -> impl Strategy<Value = f64> {
        (0u8..8, any::<u64>(), 0.0f64..1.0).prop_map(|(kind, bits, u)| match kind {
            0 => f64::from_bits(bits),
            1 => [0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY][(bits % 5) as usize],
            2 => f64::from_bits(bits % 4096),
            3 => [0.25, 0.5, 1e-3, 0.125, 3.0][(bits % 5) as usize],
            4 => f64::MAX * u,
            _ => u * u * u * 0.01 + if bits % 10 == 0 { 0.3 } else { 0.0 },
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn bounded_sort_equals_sort_all(
            values in proptest::collection::vec(hostile_value(), 0..300),
            repeat in 1usize..4,
        ) {
            // Repeating the draw makes duplicate-heavy inputs common.
            let values: Vec<f64> = values.iter().copied().cycle().take(values.len() * repeat).collect();
            let got = pinned_two_means(&values);
            let want = sort_all_two_means(&values);
            prop_assert!(bit_equal(&got, &want), "{got:?} != {want:?} on {values:?}");
        }

        #[test]
        fn bounded_sort_equals_sort_all_on_imi_like_mixes(
            noise in proptest::collection::vec(0.0f64..0.01, 0..2000),
            signal in proptest::collection::vec(0.05f64..1.0, 0..100),
            negatives in proptest::collection::vec(-1.0f64..0.0, 0..500),
        ) {
            let values: Vec<f64> = noise.into_iter().chain(signal).chain(negatives).collect();
            let got = pinned_two_means(&values);
            let want = sort_all_two_means(&values);
            prop_assert!(bit_equal(&got, &want), "{got:?} != {want:?}");
        }
    }

    #[test]
    fn degenerate_inputs_match_the_sort_all_oracle() {
        let cases: Vec<Vec<f64>> = vec![
            vec![],
            vec![0.0; 7],
            vec![-0.0; 3],
            vec![-0.0, 0.0, -0.0],
            vec![0.4; 50],
            vec![0.7],
            vec![-0.0, 0.7],
            // The pinned cluster is exactly the values under the bound.
            vec![0.1, 0.1, 0.1, 1.0, 1.0],
            vec![-0.0, -0.0, 1.0, 1.0],
            vec![f64::MIN_POSITIVE / 4.0, 0.0, -0.0],
            vec![f64::MAX, f64::MAX, 1.0],
            vec![f64::NAN, f64::INFINITY, -1.0, f64::NEG_INFINITY],
        ];
        for values in cases {
            let got = pinned_two_means(&values);
            let want = sort_all_two_means(&values);
            assert!(bit_equal(&got, &want), "{got:?} != {want:?} on {values:?}");
        }
    }

    #[test]
    fn a_bound_above_the_converged_half_falls_back_and_still_matches() {
        // Noise near 0 and signal near 0.8: the converged half sits near
        // 0.4, far below a bound at the top value's bucket.
        let mut values: Vec<f64> = (0..500).map(|i| (i % 17) as f64 * 1e-4).collect();
        values.extend((0..40).map(|i| 0.75 + (i % 9) as f64 * 0.01));
        let hist = Histogram::of(&values);
        let top = bucket(key(0.83));
        assert!(top > hist.lower_bound_bucket());
        assert!(
            fit_above(&values, &hist, top).is_none(),
            "a bound above c*/2 must be caught"
        );
        let want = sort_all_two_means(&values);
        assert!(bit_equal(&fit_above(&values, &hist, 0).unwrap(), &want));
        assert!(bit_equal(&pinned_two_means(&values), &want));
        // The histogram bound itself needs no fallback here.
        let bounded = fit_above(&values, &hist, hist.lower_bound_bucket()).unwrap();
        assert!(bit_equal(&bounded, &want));
    }

    #[test]
    fn keys_sort_like_total_cmp() {
        let mut vals = vec![
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            1.0,
            0.5,
            f64::MAX,
            1e-300,
        ];
        vals.sort_unstable_by(f64::total_cmp);
        let keys: Vec<u64> = vals.iter().map(|&v| key(v)).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "{keys:?}");
        for &v in &vals {
            assert_eq!(value(key(v)).to_bits(), v.to_bits());
        }
        for v in [
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -1e-300,
            -2.0,
        ] {
            assert_eq!(key(v), DISCARDED, "{v}");
        }
    }

    #[test]
    fn two_well_separated_groups() {
        // Noise near 0, signal near 0.8.
        let mut vals = vec![0.001, 0.002, 0.0005, 0.003, 0.0];
        vals.extend([0.75, 0.8, 0.85, 0.78]);
        let r = pinned_two_means(&vals);
        assert!(r.tau >= 0.003 && r.tau < 0.75, "τ = {}", r.tau);
        assert_eq!(r.pinned_count, 5);
        assert_eq!(r.free_count, 4);
        assert!((r.free_centroid - 0.795).abs() < 0.01);
    }

    #[test]
    fn negatives_are_discarded() {
        let vals = vec![-0.5, -0.1, 0.001, 0.9];
        let r = pinned_two_means(&vals);
        assert_eq!(r.pinned_count + r.free_count, 2);
        assert!(r.tau < 0.9);
    }

    #[test]
    fn empty_input() {
        let r = pinned_two_means(&[]);
        assert_eq!(r.tau, 0.0);
        assert_eq!(r.free_count, 0);
    }

    #[test]
    fn all_zeros() {
        let r = pinned_two_means(&[0.0, 0.0, 0.0]);
        assert_eq!(r.tau, 0.0);
        assert_eq!(r.pinned_count, 3);
        assert_eq!(r.free_count, 0);
        assert_eq!(r.iterations, 0);
    }

    #[test]
    fn all_negatives_behave_like_empty_input() {
        let r = pinned_two_means(&[-0.4, -0.1, -2.0]);
        assert_eq!(r.tau, 0.0);
        assert_eq!(r.pinned_count, 0);
        assert_eq!(r.free_count, 0);
        assert_eq!(r.iterations, 0);
    }

    #[test]
    fn single_positive_value_goes_to_free_cluster() {
        let r = pinned_two_means(&[0.7]);
        assert_eq!(r.tau, 0.0, "nothing left in the pinned cluster");
        assert_eq!(r.free_count, 1);
        assert!((r.free_centroid - 0.7).abs() < 1e-12);
    }

    #[test]
    fn uniform_positive_values_split_at_half_centroid() {
        // Values spread uniformly: the pinned cluster takes the lower part.
        let vals: Vec<f64> = (1..=100).map(|i| i as f64 / 100.0).collect();
        let r = pinned_two_means(&vals);
        assert!(r.pinned_count > 10 && r.free_count > 10);
        assert!(r.tau > 0.0 && r.tau < 1.0);
        // τ must separate the clusters exactly.
        assert!(vals.iter().filter(|&&v| v <= r.tau).count() == r.pinned_count);
    }

    #[test]
    fn threshold_excludes_signal_in_realistic_mix() {
        // 95% near-zero noise plus 5% strong signal, like real IMI matrices.
        let mut vals: Vec<f64> = (0..950).map(|i| (i % 13) as f64 * 1e-4).collect();
        vals.extend((0..50).map(|i| 0.3 + (i % 7) as f64 * 0.01));
        let r = pinned_two_means(&vals);
        assert!(
            r.tau < 0.3,
            "signal must survive the threshold, τ = {}",
            r.tau
        );
        assert!(r.free_count >= 50);
    }

    #[test]
    fn non_finite_values_are_discarded_not_fatal() {
        // NaN used to panic the sort comparator; +∞ survived the `>= 0`
        // filter and poisoned the free-centroid mean. Both must now act
        // like discarded negatives.
        let with_nan = vec![f64::NAN, 0.001, 0.002, 0.8, 0.85];
        let r = pinned_two_means(&with_nan);
        assert_eq!(r.pinned_count + r.free_count, 4);
        assert!(r.tau >= 0.002 && r.tau < 0.8, "τ = {}", r.tau);

        let with_inf = vec![f64::INFINITY, 0.001, 0.002, 0.8, 0.85];
        let r = pinned_two_means(&with_inf);
        assert!(r.free_centroid.is_finite(), "centroid {}", r.free_centroid);
        assert!(r.tau >= 0.002 && r.tau < 0.8, "τ = {}", r.tau);

        let clean = pinned_two_means(&[0.001, 0.002, 0.8, 0.85]);
        let junk = pinned_two_means(&[
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.001,
            0.002,
            0.8,
            0.85,
        ]);
        assert_eq!(junk, clean, "junk values must not shift the result");
    }

    #[test]
    fn all_non_finite_behaves_like_empty_input() {
        let r = pinned_two_means(&[f64::NAN, f64::INFINITY, f64::NEG_INFINITY]);
        assert_eq!(r.tau, 0.0);
        assert_eq!(r.pinned_count, 0);
        assert_eq!(r.free_count, 0);
    }

    #[test]
    fn converges_quickly() {
        let vals: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.37).sin().abs()).collect();
        let r = pinned_two_means(&vals);
        assert!(r.iterations < 50, "iterations {}", r.iterations);
    }
}
