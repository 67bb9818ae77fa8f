//! The headline geomean ratios of Table IV and Table V, factored out of
//! the table renderers so the sampled-vs-full `--sample-gate` compares
//! exactly the numbers the tables print — not a reimplementation that
//! could drift from them.
//!
//! Everything here is a *ratio* (1.0 = no change), which is what
//! geomeans compose over; the renderers convert to the paper's
//! "% saved" / "% speedup" presentation at the last moment. The
//! per-element expressions are kept literally identical to what the
//! renderers historically pushed, so the committed `results/` artifacts
//! stay byte-for-byte stable across this refactor.

use scd_model::{edp_improvement, edp_improvement_measured, EnergyParams};
use scd_sim::{geomean, SimStats};

/// Table IV's four geomean columns, as ratios.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table4Headline {
    /// Geomean jump-threading instruction ratio (jt / base; <1 = fewer).
    pub jt_inst: f64,
    /// Geomean jump-threading speedup ratio (base / jt cycles; >1 = faster).
    pub jt_speedup: f64,
    /// Geomean SCD instruction ratio (scd / base; <1 = fewer).
    pub scd_inst: f64,
    /// Geomean SCD speedup ratio (base / scd cycles; >1 = faster).
    pub scd_speedup: f64,
}

impl Table4Headline {
    /// Computes the headline from per-benchmark `(base, jt, scd)` stats.
    ///
    /// # Panics
    /// Panics on an empty row set or non-positive counters — a harness
    /// must never average numbers from a run that retired nothing.
    pub fn compute<'a>(
        rows: impl Iterator<Item = (&'a SimStats, &'a SimStats, &'a SimStats)>,
    ) -> Table4Headline {
        let (mut jts, mut jtc, mut scds, mut scdc) = (vec![], vec![], vec![], vec![]);
        for (base, jt, scd) in rows {
            let isave = |x: &SimStats| 1.0 - x.instructions as f64 / base.instructions as f64;
            let spdup = |x: &SimStats| base.cycles as f64 / x.cycles as f64 - 1.0;
            jts.push(1.0 - isave(jt));
            jtc.push(1.0 + spdup(jt));
            scds.push(1.0 - isave(scd));
            scdc.push(1.0 + spdup(scd));
        }
        let gm = |v: &[f64]| geomean(v).expect("positive ratios");
        Table4Headline {
            jt_inst: gm(&jts),
            jt_speedup: gm(&jtc),
            scd_inst: gm(&scds),
            scd_speedup: gm(&scdc),
        }
    }

    /// The four ratios with stable labels, for comparison reports.
    pub fn named(&self) -> [(&'static str, f64); 4] {
        [
            ("table4 jt instruction ratio", self.jt_inst),
            ("table4 jt speedup ratio", self.jt_speedup),
            ("table4 scd instruction ratio", self.scd_inst),
            ("table4 scd speedup ratio", self.scd_speedup),
        ]
    }
}

/// Table V's two EDP geomeans, as ratios to baseline EDP (lower is
/// better; the paper's "24.2% improvement" is `1 - const_power`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdpHeadline {
    /// Geomean EDP ratio under the paper's constant-power arithmetic.
    pub const_power: f64,
    /// Geomean EDP ratio from activity-based (event-count) energy.
    pub activity: f64,
}

impl EdpHeadline {
    /// Computes the headline from per-benchmark `(base, scd)` stats and
    /// the modeled chip power increase (Table V's `power_increase`).
    ///
    /// # Panics
    /// Panics on an empty row set or non-positive EDP ratios.
    pub fn compute<'a>(
        rows: impl Iterator<Item = (&'a SimStats, &'a SimStats)>,
        power_increase: f64,
    ) -> EdpHeadline {
        let eparams = EnergyParams::default();
        let (mut edps, mut edps_measured) = (vec![], vec![]);
        for (base, scd) in rows {
            let speedup = base.cycles as f64 / scd.cycles as f64 - 1.0;
            edps.push(1.0 - edp_improvement(speedup, power_increase));
            edps_measured.push(1.0 - edp_improvement_measured(base, scd, &eparams));
        }
        let gm = |v: &[f64]| geomean(v).expect("positive EDP ratios");
        EdpHeadline { const_power: gm(&edps), activity: gm(&edps_measured) }
    }

    /// The two ratios with stable labels, for comparison reports.
    pub fn named(&self) -> [(&'static str, f64); 2] {
        [
            ("table5 EDP ratio (const-power)", self.const_power),
            ("table5 EDP ratio (activity)", self.activity),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(instructions: u64, cycles: u64) -> SimStats {
        SimStats { instructions, cycles, ..Default::default() }
    }

    #[test]
    fn table4_ratios_are_geomeans() {
        // Two benchmarks with hand-checkable ratios: jt inst ratios
        // {0.9, 0.4} -> geomean 0.6; scd speedup ratios {2.0, 12.5} ->
        // geomean 5.0.
        let rows = [
            (stats(100, 100), stats(90, 100), stats(100, 50)),
            (stats(1000, 1000), stats(400, 1000), stats(1000, 80)),
        ];
        let h = Table4Headline::compute(rows.iter().map(|(b, j, s)| (b, j, s)));
        assert!((h.jt_inst - 0.6).abs() < 1e-12);
        assert!((h.jt_speedup - 1.0).abs() < 1e-12);
        assert!((h.scd_inst - 1.0).abs() < 1e-12);
        assert!((h.scd_speedup - 5.0).abs() < 1e-9);
        assert_eq!(h.named().len(), 4);
    }

    #[test]
    fn edp_identical_runs_are_ratio_one_at_zero_power_delta() {
        let rows = [(stats(100, 200), stats(100, 200))];
        let h = EdpHeadline::compute(rows.iter().map(|(b, s)| (b, s)), 0.0);
        assert!((h.const_power - 1.0).abs() < 1e-12);
        assert!((h.activity - 1.0).abs() < 1e-12);
    }
}
