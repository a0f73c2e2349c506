//! The benchmark's own arithmetic: medians, nearest-rank percentiles,
//! the tail-percentile rule, and the attributed/unattributed ledger sum.

/// Median (mean of the middle pair for even counts); `NaN` when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// `p`-th percentile (0 < p ≤ 100) by nearest rank: the smallest sample
/// with at least `p`% of the samples at or below it. `NaN` when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[nearest_rank(v.len(), p) - 1]
}

/// 1-based nearest rank of the `p`-th percentile among `n` samples.
fn nearest_rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The highest whole percentile of `n` samples that still has at least
/// [`TAIL_BEYOND`] samples beyond it (by nearest rank), or `None` when
/// `n` is too small for any.
pub fn tail_percentile(n: usize) -> Option<u32> {
    if n <= TAIL_BEYOND {
        return None;
    }
    (1..100u32)
        .rev()
        .find(|&p| n - nearest_rank(n, p as f64) >= TAIL_BEYOND)
}

/// Fewest samples for which `p` is a reportable tail percentile.
pub fn min_samples_for(p: u32) -> usize {
    (1..)
        .find(|&n| tail_percentile(n).is_some_and(|q| q >= p))
        .unwrap_or(usize::MAX)
}

/// A time ledger: named layer totals against an end-to-end total.
#[derive(Clone, Debug, Default)]
pub struct Ledger {
    /// `(layer, seconds)` rows, in insertion order.
    pub rows: Vec<(String, f64)>,
}

impl Ledger {
    /// Add one layer's seconds.
    pub fn row(&mut self, layer: &str, seconds: f64) {
        self.rows.push((layer.to_string(), seconds));
    }

    /// Sum of every attributed row.
    pub fn attributed(&self) -> f64 {
        self.rows.iter().map(|(_, s)| s).sum()
    }

    /// The part of `total` no row accounts for (negative when the rows
    /// over-count, which is reported rather than clamped).
    pub fn unattributed(&self, total: f64) -> f64 {
        total - self.attributed()
    }

    /// Attributed share of `total`.
    pub fn attributed_frac(&self, total: f64) -> f64 {
        self.attributed() / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 100.0);
        assert_eq!(percentile(&xs, 95.0), 190.0);
        assert_eq!(percentile(&xs, 100.0), 200.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
        // Fewer than 20 samples: p95 is the slowest one.
        assert_eq!(percentile(&[1.0, 5.0, 2.0], 95.0), 5.0);
    }

    #[test]
    fn tail_rule_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(10), None);
        assert_eq!(tail_percentile(11), Some(9));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(200), Some(95));
        assert_eq!(tail_percentile(249), Some(95));
        assert_eq!(tail_percentile(250), Some(96));
        assert_eq!(tail_percentile(1000), Some(99));
        // The reported percentile always has ≥ 10 samples beyond it.
        for n in 11..2000 {
            let p = tail_percentile(n).expect("n > 10");
            assert!(n - nearest_rank(n, p as f64) >= TAIL_BEYOND, "n={n} p={p}");
            if p < 99 {
                assert!(n - nearest_rank(n, (p + 1) as f64) < TAIL_BEYOND, "n={n}");
            }
        }
        assert_eq!(min_samples_for(95), 200);
    }

    #[test]
    fn ledger_sums() {
        let mut l = Ledger::default();
        l.row("sigma", 40.0);
        l.row("precond", 3.0);
        l.row("vecops", 2.0);
        assert_eq!(l.attributed(), 45.0);
        assert_eq!(l.unattributed(50.0), 5.0);
        assert!((l.attributed_frac(50.0) - 0.9).abs() < 1e-15);
        assert_eq!(l.unattributed(40.0), -5.0);
    }
}
