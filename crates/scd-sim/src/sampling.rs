//! Interval sampling: the `SamplingPlan` / `SampleReport` types and the
//! hand-rolled CLT confidence-interval math behind the sampled
//! simulation mode (SMARTS-style systematic sampling with functional
//! warming — Wunderlich et al., ISCA 2003 — adapted to this engine's
//! three execution modes).
//!
//! The scheduler itself lives in `machine/sampling.rs` (it needs the
//! machine's internals); this module owns everything a *client* of
//! sampled simulation touches: plan parsing and validation, the ±
//! interval math, and the per-run [`SampleReport`].
//!
//! # The three execution modes
//!
//! Every retired instruction runs in exactly one mode:
//!
//! * *fast-forward* — pure architectural execution on the `scd-ref`
//!   reference core's threaded-code `run`. No timing model, no predictor
//!   or cache updates. Fastest; used to skip between sampling intervals.
//! * *warming* — functional execution with the cycle clock frozen:
//!   I-cache / D-cache / TLB / BTB / ITTAGE / JTE contents are updated
//!   exactly as in detailed mode, but no cycles are charged and the
//!   issue scoreboard is bypassed. Repairs the micro-architectural state
//!   the fast-forward leg left stale, so measurement does not start from
//!   misleadingly cold (or misleadingly stale) structures. It is the
//!   detailed loop monomorphized with `WARMING = true`
//!   ([`Machine::run_warming`]), and one window warms every structure.
//! * *detailed* — the full cycle-approximate model; the only mode that
//!   contributes to the sampled estimate.
//!
//! [`Machine::run_warming`]: crate::Machine::run_warming

use crate::stats::SimStats;

/// A systematic-sampling schedule: every `period` instructions, warm
/// every structure for `warmup` and measure `measure` in detailed mode;
/// fast-forward the remaining `period - warmup - measure`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplingPlan {
    /// Instructions per sampling interval.
    pub period: u64,
    /// Functional-warming window: caches, TLBs, BTB, predictors and the
    /// JTE overlay all warm for these instructions before each
    /// measurement.
    pub warmup: u64,
    /// Detailed instructions measured per interval.
    pub measure: u64,
    /// Paranoia knob: snapshot before each measured window, re-run it
    /// after a restore, and assert the two passes produced bit-identical
    /// stats deltas and end states. Roughly doubles the (small) detailed
    /// fraction; never changes results, so it is excluded from cache
    /// manifests. The sampled-vs-full golden test runs with it on.
    pub self_check: bool,
}

impl SamplingPlan {
    /// Builds a validated plan.
    ///
    /// # Errors
    /// A human-readable message when `measure` is zero or
    /// `warmup + measure` exceeds `period`.
    pub fn new(period: u64, warmup: u64, measure: u64) -> Result<SamplingPlan, String> {
        if measure == 0 {
            return Err("sampling plan: measured window must be at least 1 instruction".into());
        }
        if warmup.saturating_add(measure) > period {
            return Err(format!(
                "sampling plan: warmup + measure ({warmup} + {measure}) exceeds the period \
                 ({period})"
            ));
        }
        Ok(SamplingPlan {
            period,
            warmup,
            measure,
            self_check: false,
        })
    }

    /// Parses `"period:warmup:measure"` with optional `k` (×10³) and
    /// `M` (×10⁶) suffixes, e.g. `"1M:50k:20k"`.
    ///
    /// # Errors
    /// A human-readable message on malformed input or an invalid plan.
    pub fn parse(s: &str) -> Result<SamplingPlan, String> {
        let parts: Vec<&str> = s.split(':').collect();
        let [p, w, m] = parts.as_slice() else {
            return Err(format!(
                "sampling plan {s:?}: expected period:warmup:measure (e.g. 1M:50k:20k)"
            ));
        };
        SamplingPlan::new(parse_count(p)?, parse_count(w)?, parse_count(m)?)
    }

    /// The committed qualified default plan (what `--sample default`
    /// resolves to in the CLI and the sweep). The warming sensitivity
    /// study (`results/warming_sensitivity.txt`) shows the estimate's
    /// drift flattening once the warm window reaches 20k retirements
    /// (fibo 0.038%, spectral-norm 0.031%). `quick` scales the cadence
    /// down to tiny-input guest lengths for CI.
    #[must_use]
    pub fn qualified_default(quick: bool) -> SamplingPlan {
        let spec = if quick { "250k:20k:10k" } else { "1M:20k:20k" };
        SamplingPlan::parse(spec).expect("builtin plan")
    }

    /// Instructions fast-forwarded per interval.
    pub fn skip(&self) -> u64 {
        self.period - self.warmup - self.measure
    }

    /// The line this plan contributes to a result-cache manifest.
    /// `self_check` is excluded: it can only abort, never change a
    /// result, so it must not split cache keys.
    pub fn manifest(&self) -> String {
        format!("sample {self}")
    }
}

impl std::fmt::Display for SamplingPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}:{}", self.period, self.warmup, self.measure)
    }
}

fn parse_count(s: &str) -> Result<u64, String> {
    let (digits, scale) = match s.as_bytes().last() {
        Some(b'k' | b'K') => (&s[..s.len() - 1], 1_000u64),
        Some(b'm' | b'M') => (&s[..s.len() - 1], 1_000_000u64),
        _ => (s, 1),
    };
    let n: u64 = digits
        .parse()
        .map_err(|_| format!("sampling plan: bad instruction count {s:?}"))?;
    n.checked_mul(scale)
        .ok_or_else(|| format!("sampling plan: count {s:?} overflows"))
}

/// Sample mean and 95% CLT confidence half-width of `samples`
/// (`1.96 · s/√n` with the Bessel-corrected sample stddev `s`). The
/// half-width is 0 for fewer than two samples — a single interval has
/// no dispersion estimate, not a tight one.
pub fn mean_ci95(samples: &[f64]) -> (f64, f64) {
    let n = samples.len();
    if n == 0 {
        return (0.0, 0.0);
    }
    let mean = samples.iter().sum::<f64>() / n as f64;
    if n < 2 {
        return (mean, 0.0);
    }
    let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64;
    (mean, 1.96 * (var / n as f64).sqrt())
}

/// What one sampled run measured and estimated. Returned by
/// `Machine::run_sampled` next to the guest's [`Exit`](crate::Exit);
/// the machine's `stats` are overwritten with the scaled estimate, so
/// everything downstream (validation, reports) reads estimated counters
/// transparently — this report carries the sampling metadata those
/// counters no longer show.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleReport {
    /// The plan the run executed.
    pub plan: SamplingPlan,
    /// Completed (possibly partial-at-exit) measured intervals.
    pub intervals: u64,
    /// Exact total retired instructions (all three modes).
    pub total_insts: u64,
    /// Instructions retired inside measured windows.
    pub measured_insts: u64,
    /// Cycles charged inside measured windows.
    pub measured_cycles: u64,
    /// Instructions retired in fast-forward mode.
    pub ff_insts: u64,
    /// Instructions retired in warming mode.
    pub warm_insts: u64,
    /// Mean per-interval CPI.
    pub cpi_mean: f64,
    /// 95% confidence half-width of the per-interval CPI.
    pub cpi_ci95: f64,
    /// Estimated total cycles (`measured_cycles` scaled by
    /// `total_insts / measured_insts`).
    pub cycles_est: u64,
    /// 95% confidence half-width on `cycles_est`
    /// (`cpi_ci95 × total_insts`, rounded).
    pub cycles_ci95: u64,
    /// True when the run fell back to exact full-detail simulation
    /// because the guest exited before the first measured window (the
    /// estimate is then exact and the ± fields are zero).
    pub exact_fallback: bool,
}

/// Accumulates per-interval measured deltas during a sampled run and
/// produces the scaled estimate at the end.
#[derive(Debug, Default)]
pub struct SampleAccum {
    /// Summed counter deltas over every measured window.
    sum: SimStats,
    /// Per-interval CPI samples.
    cpi: Vec<f64>,
}

impl SampleAccum {
    /// Records one measured window's counter delta.
    pub fn record(&mut self, delta: &SimStats) {
        if delta.instructions > 0 {
            self.cpi
                .push(delta.cycles as f64 / delta.instructions as f64);
        }
        self.sum.accumulate(delta);
    }

    /// Measured intervals recorded so far.
    pub fn intervals(&self) -> u64 {
        self.cpi.len() as u64
    }

    /// Instructions measured so far.
    pub fn measured_insts(&self) -> u64 {
        self.sum.instructions
    }

    /// Cycles charged inside measured windows so far.
    pub fn measured_cycles(&self) -> u64 {
        self.sum.cycles
    }

    /// Scales the measured counter sums to `total_insts` and returns
    /// the estimated whole-run statistics (instructions kept exact)
    /// with the CPI mean/CI. Requires at least one recorded interval.
    pub fn estimate(&self, total_insts: u64) -> (SimStats, f64, f64) {
        let (mean, ci) = mean_ci95(&self.cpi);
        let mut est = self.sum.scaled(total_insts, self.sum.instructions.max(1));
        est.instructions = total_insts;
        (est, mean, ci)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_suffixes() {
        let p = SamplingPlan::parse("1M:50k:20k").unwrap();
        assert_eq!((p.period, p.warmup, p.measure), (1_000_000, 50_000, 20_000));
        assert_eq!(p.skip(), 930_000);
        let p = SamplingPlan::parse("1000:0:1000").unwrap();
        assert_eq!((p.period, p.warmup, p.measure), (1000, 0, 1000));
        assert_eq!(p.skip(), 0);
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(SamplingPlan::parse("1M:50k").is_err());
        assert!(SamplingPlan::parse("1M:50k:0").is_err());
        assert!(SamplingPlan::parse("100:90:20").is_err());
        assert!(SamplingPlan::parse("x:1:1").is_err());
        assert!(SamplingPlan::parse("1M:1k:2k:3k").is_err());
        // The retired per-structure window syntax fails loudly instead
        // of running a different plan.
        assert!(SamplingPlan::parse("1M:20k/BTB=30k,PRED=80k:20k").is_err());
    }

    #[test]
    fn manifest_and_display_are_suffix_free() {
        let p = SamplingPlan::parse("1M:50k:20k").unwrap();
        assert_eq!(p.manifest(), "sample 1000000:50000:20000");
        assert_eq!(p.to_string(), "1000000:50000:20000");
        // self_check never splits cache keys.
        let mut q = p;
        q.self_check = true;
        assert_eq!(p.manifest(), q.manifest());
    }

    #[test]
    fn ci_math() {
        assert_eq!(mean_ci95(&[]), (0.0, 0.0));
        assert_eq!(mean_ci95(&[2.5]), (2.5, 0.0));
        // Identical samples: zero dispersion.
        let (m, ci) = mean_ci95(&[2.0, 2.0, 2.0, 2.0]);
        assert_eq!((m, ci), (2.0, 0.0));
        // Hand-checked: samples 1,3 → mean 2, s = √2, half = 1.96·√(2/2).
        let (m, ci) = mean_ci95(&[1.0, 3.0]);
        assert!((m - 2.0).abs() < 1e-12);
        assert!((ci - 1.96).abs() < 1e-12);
    }

    #[test]
    fn accum_estimates_scale() {
        let mut acc = SampleAccum::default();
        let mut d = SimStats {
            instructions: 100,
            cycles: 200,
            loads: 10,
            ..Default::default()
        };
        d.icache.misses = 4;
        acc.record(&d);
        acc.record(&d);
        let (est, mean, ci) = acc.estimate(2000);
        assert_eq!(est.instructions, 2000);
        assert_eq!(est.cycles, 4000);
        assert_eq!(est.loads, 200);
        assert_eq!(est.icache.misses, 80);
        assert!((mean - 2.0).abs() < 1e-12);
        assert_eq!(ci, 0.0);
    }
}
