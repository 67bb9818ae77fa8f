//! Table V: area/power breakdown of the Rocket-like core with and
//! without SCD (analytical 40nm model; see DESIGN.md for the synthesis
//! substitution), plus the EDP improvement combining Table IV speedups.
//! Paper: +0.72% area, +1.09% power, 24.2% EDP improvement.

use super::Render;
use crate::sweep::{CellId, RunMatrix, SweepResults};
use crate::{ArgScale, EdpHeadline, Variant};
use luma::scripts::BENCHMARKS;
use scd_guest::Vm;
use scd_model::{edp_improvement, edp_improvement_measured, table_v, EnergyParams};
use scd_sim::SimConfig;
use std::fmt::Write as _;

/// Plans the table's cells and returns its renderer.
pub fn plan(m: &mut RunMatrix, scale: ArgScale) -> Box<dyn Render> {
    let cfg = SimConfig::fpga_rocket();
    let rows = BENCHMARKS
        .iter()
        .map(|b| {
            let base = m.variant(&cfg, Vm::Lvm, b, scale, Variant::Baseline, false);
            let scd = m.variant(&cfg, Vm::Lvm, b, scale, Variant::Scd, false);
            (base, scd)
        })
        .collect();
    Box::new(Plan { scale, rows })
}

struct Plan {
    scale: ArgScale,
    rows: Vec<(CellId, CellId)>,
}

impl Render for Plan {
    fn render(&self, r: &SweepResults) -> String {
        let scale = self.scale;
        let cfg = SimConfig::fpga_rocket();
        let t = table_v(&cfg);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Table V: area/power estimate, baseline vs SCD (analytical 40nm model)\n"
        );
        out += &t.baseline.render(Some(&t.scd));
        let _ = writeln!(
            out,
            "\nTotal area increase : {:+.2}%   (paper: +0.72%)",
            100.0 * t.area_increase
        );
        let _ = writeln!(
            out,
            "Total power increase: {:+.2}%   (paper: +1.09%)",
            100.0 * t.power_increase
        );
        let _ = writeln!(
            out,
            "BTB area increase   : {:+.1}%   (paper: ~+21.6%)",
            100.0 * t.btb_area_increase
        );
        let _ = writeln!(
            out,
            "BTB power increase  : {:+.1}%   (paper: ~+11.7%)",
            100.0 * t.btb_power_increase
        );

        // EDP needs runtimes: per-benchmark speedups on the FPGA config.
        // Two methods: (i) constant-power (the paper's arithmetic: chip
        // power delta x squared runtime ratio) and (ii) activity-based
        // energy from the simulator's event counts.
        let _ =
            writeln!(out, "\nEDP improvement (per benchmark, Rocket config, {scale:?} inputs):");
        let eparams = EnergyParams::default();
        for (b, &(base_id, scd_id)) in BENCHMARKS.iter().zip(&self.rows) {
            let base = r.get(base_id);
            let scd = r.get(scd_id);
            let speedup = base.stats.cycles as f64 / scd.stats.cycles as f64 - 1.0;
            let e = edp_improvement(speedup, t.power_increase);
            let em = edp_improvement_measured(&base.stats, &scd.stats, &eparams);
            let _ = writeln!(
                out,
                "  {:<18}{:>8.2}% speedup ->{:>8.2}% EDP (const-power), {:>7.2}% EDP (activity)",
                b.name,
                100.0 * speedup,
                100.0 * e,
                100.0 * em
            );
        }
        let h = EdpHeadline::compute(
            self.rows
                .iter()
                .map(|&(base_id, scd_id)| (&r.get(base_id).stats, &r.get(scd_id).stats)),
            t.power_increase,
        );
        let _ = writeln!(
            out,
            "  {:<18}{:>28.2}% const-power, {:>7.2}% activity-based (paper: 24.2%)",
            "GEOMEAN",
            100.0 * (1.0 - h.const_power),
            100.0 * (1.0 - h.activity)
        );
        out
    }
}
