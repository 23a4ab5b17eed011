//! Order statistics and digests.

/// Median of `xs` (mean of the middle pair for even lengths); `None` when
/// empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// The `p`-th percentile (0–100) by the nearest-rank rule.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// Percentiles a tail metric may be reported at, highest first.
const TAIL_PERCENTILES: [f64; 7] = [99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0];

/// A tail latency: the highest percentile with at least ten samples
/// beyond it.
#[derive(Clone, Copy, Debug)]
pub struct Tail {
    pub percentile: f64,
    pub value: f64,
    pub samples: usize,
}

/// The tail of `xs`; `None` when fewer than twenty samples exist, since
/// then even the median has fewer than ten beyond it.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    let p = TAIL_PERCENTILES
        .into_iter()
        .find(|p| n as f64 * (100.0 - p) / 100.0 >= 10.0 - 1e-9)?;
    Some(Tail {
        percentile: p,
        value: percentile(xs, p)?,
        samples: n,
    })
}

/// 64-bit FNV-1a: a stable content digest for equality gates.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs).expect("enough samples");
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.value, 990.0);
        assert!(tail(&xs[..19]).is_none());
        assert_eq!(tail(&xs[..50]).expect("50").percentile, 80.0);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
