//! Table IV: instruction count and cycle count of the Lua-like
//! interpreter on the FPGA (Rocket) configuration — baseline, jump
//! threading, SCD — with savings and speedups.
//! Paper geomeans: SCD saves 10.44% instructions, 12.04% cycles; jump
//! threading saves 4.84% instructions, ~0% cycles.

use super::Render;
use crate::sweep::{CellId, RunMatrix, SweepResults};
use crate::{ArgScale, Table4Headline, Variant};
use luma::scripts::BENCHMARKS;
use scd_guest::Vm;
use scd_serve::CachedRun;
use scd_sim::SimConfig;
use std::fmt::Write as _;

/// Plans the table's cells and returns its renderer.
pub fn plan(m: &mut RunMatrix, scale: ArgScale) -> Box<dyn Render> {
    let cfg = SimConfig::fpga_rocket();
    let rows = BENCHMARKS
        .iter()
        .map(|b| {
            let base = m.variant(&cfg, Vm::Lvm, b, scale, Variant::Baseline, false);
            let jt = m.variant(&cfg, Vm::Lvm, b, scale, Variant::JumpThreading, false);
            let scd = m.variant(&cfg, Vm::Lvm, b, scale, Variant::Scd, false);
            (base, jt, scd)
        })
        .collect();
    Box::new(Plan { scale, rows })
}

struct Plan {
    scale: ArgScale,
    rows: Vec<(CellId, CellId, CellId)>,
}

impl Render for Plan {
    fn render(&self, r: &SweepResults) -> String {
        let scale = self.scale;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Table IV: Lua-like interpreter on the Rocket (FPGA) configuration ({scale:?})"
        );
        let _ = writeln!(
            out,
            "{:<18}{:>14}{:>14}{:>14}{:>14}{:>14}{:>14}{:>11}{:>11}{:>11}{:>11}",
            "benchmark",
            "base-inst",
            "base-cyc",
            "jt-inst",
            "jt-cyc",
            "scd-inst",
            "scd-cyc",
            "jt-isave",
            "jt-spdup",
            "scd-isave",
            "scd-spdup"
        );
        for (b, &(base_id, jt_id, scd_id)) in BENCHMARKS.iter().zip(&self.rows) {
            let base = r.get(base_id);
            let jt = r.get(jt_id);
            let scd = r.get(scd_id);
            let isave =
                |x: &CachedRun| 1.0 - x.stats.instructions as f64 / base.stats.instructions as f64;
            let spdup = |x: &CachedRun| base.stats.cycles as f64 / x.stats.cycles as f64 - 1.0;
            let _ = writeln!(
                out,
                "{:<18}{:>14}{:>14}{:>14}{:>14}{:>14}{:>14}{:>10.2}%{:>10.2}%{:>10.2}%{:>10.2}%",
                b.name,
                base.stats.instructions,
                base.stats.cycles,
                jt.stats.instructions,
                jt.stats.cycles,
                scd.stats.instructions,
                scd.stats.cycles,
                100.0 * isave(jt),
                100.0 * spdup(jt),
                100.0 * isave(scd),
                100.0 * spdup(scd),
            );
        }
        let h = Table4Headline::compute(self.rows.iter().map(|&(base_id, jt_id, scd_id)| {
            (&r.get(base_id).stats, &r.get(jt_id).stats, &r.get(scd_id).stats)
        }));
        let _ = writeln!(
            out,
            "{:<18}{:>56}{:>42}{:>10.2}%{:>10.2}%{:>10.2}%{:>10.2}%",
            "GEOMEAN",
            "",
            "",
            100.0 * (1.0 - h.jt_inst),
            100.0 * (h.jt_speedup - 1.0),
            100.0 * (1.0 - h.scd_inst),
            100.0 * (h.scd_speedup - 1.0),
        );
        out
    }
}
