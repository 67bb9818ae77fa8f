//! Order statistics and the sampled run's time attribution.

/// Median of `v` (mean of the middle pair for even lengths); `None`
/// when empty.
pub fn median(v: &[f64]) -> Option<f64> {
    let mut s = sorted(v)?;
    let n = s.len();
    Some(if n % 2 == 1 {
        s[n / 2]
    } else {
        let hi = s.swap_remove(n / 2);
        (s[n / 2 - 1] + hi) / 2.0
    })
}

/// The `p`-th percentile (0 < p < 100) by the nearest-rank method, with
/// the number of samples strictly beyond it; `None` when empty.
pub fn percentile(v: &[f64], p: f64) -> Option<(f64, usize)> {
    let s = sorted(v)?;
    let rank = ((p / 100.0) * s.len() as f64).ceil().max(1.0) as usize;
    let rank = rank.min(s.len());
    Some((s[rank - 1], s.len() - rank))
}

/// The percentile reported as a workload's tail latency must have at
/// least this many samples beyond it.
pub const MIN_BEYOND: usize = 10;

/// The `p`-th percentile, but only when at least [`MIN_BEYOND`] samples
/// lie beyond it.
pub fn tail(v: &[f64], p: f64) -> Option<f64> {
    percentile(v, p).and_then(|(x, beyond)| (beyond >= MIN_BEYOND).then_some(x))
}

fn sorted(v: &[f64]) -> Option<Vec<f64>> {
    if v.is_empty() {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    Some(s)
}

/// Geometric mean of positive values.
pub fn geomean(v: &[f64]) -> Option<f64> {
    if v.is_empty() || v.iter().any(|&x| x <= 0.0) {
        return None;
    }
    Some((v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp())
}

/// Where a sampled run's host time went, by leg: each leg's retired
/// instructions divided by the throughput of the engine that runs it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Attribution {
    /// Fast-forwarded instructions / RefCore rate.
    pub ff_s: f64,
    /// Warmed instructions / warm-drain rate.
    pub warm_s: f64,
    /// Measured instructions / interleaved detailed rate.
    pub measure_s: f64,
    /// What the three legs do not explain: `timed - attributed`
    /// (negative when the isolated engine rates underestimate the
    /// in-run ones).
    pub unattributed_s: f64,
}

impl Attribution {
    /// Attributes `timed_s` over the legs; rates are in instructions per
    /// second.
    pub fn new(
        timed_s: f64,
        (ff, warm, measured): (u64, u64, u64),
        (ff_rate, warm_rate, measure_rate): (f64, f64, f64),
    ) -> Attribution {
        let leg = |n: u64, rate: f64| if rate > 0.0 { n as f64 / rate } else { 0.0 };
        let ff_s = leg(ff, ff_rate);
        let warm_s = leg(warm, warm_rate);
        let measure_s = leg(measured, measure_rate);
        Attribution {
            ff_s,
            warm_s,
            measure_s,
            unattributed_s: timed_s - (ff_s + warm_s + measure_s),
        }
    }

    pub fn attributed_s(&self) -> f64 {
        self.ff_s + self.warm_s + self.measure_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn nearest_rank_percentile_counts_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), Some((990.0, 10)));
        assert_eq!(percentile(&v, 50.0), Some((500.0, 500)));
        assert_eq!(percentile(&[7.0], 99.0), Some((7.0, 0)));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v, 99.0), Some(990.0));
        assert_eq!(tail(&v[..999], 99.0), None);
        assert_eq!(tail(&v[..20], 50.0), Some(10.0));
        assert_eq!(tail(&v[..19], 50.0), None);
        // 24 heterogeneous cells: a p98 has no sample beyond it.
        assert_eq!(tail(&v[..24], 98.0), None);
    }

    #[test]
    fn attribution_terms_sum_to_the_timed_phase() {
        let a = Attribution::new(10.0, (900, 40, 60), (100.0, 20.0, 30.0));
        assert_eq!(a.ff_s, 9.0);
        assert_eq!(a.warm_s, 2.0);
        assert_eq!(a.measure_s, 2.0);
        assert_eq!(a.unattributed_s, -3.0);
        assert_eq!(a.attributed_s() + a.unattributed_s, 10.0);
        // An unmeasured engine attributes nothing rather than dividing by 0.
        let b = Attribution::new(1.0, (5, 5, 5), (0.0, 5.0, 5.0));
        assert_eq!((b.ff_s, b.attributed_s() + b.unattributed_s), (0.0, 1.0));
    }

    #[test]
    fn geomean_of_positive_values() {
        assert!((geomean(&[1.0, 4.0]).unwrap() - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[1.0, 0.0]), None);
    }
}
