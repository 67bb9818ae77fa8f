//! Figure 10: instruction cache miss rates in MPKI, plus the fetch-stall
//! cycles those misses actually cost — attributed from the per-retirement
//! trace events of the same runs rather than from PC-range heuristics.
//! Paper: jump threading inflates Lua's I-cache misses (0.28 -> 4.80
//! MPKI); note that our interpreters are leaner than Lua's C handlers,
//! so absolute footprints are smaller (see EXPERIMENTS.md).

use super::Render;
use crate::sweep::{plan_matrix, MatrixPlan, RunMatrix, SweepResults};
use crate::{aggregate_breakdown, format_table, ArgScale, Variant};
use scd_guest::Vm;
use scd_sim::SimConfig;
use std::fmt::Write as _;

const VARIANTS: [Variant; 3] = [Variant::Baseline, Variant::JumpThreading, Variant::Scd];

/// Plans the figure's cells and returns its renderer.
pub fn plan(m: &mut RunMatrix, scale: ArgScale) -> Box<dyn Render> {
    let matrices = Vm::ALL
        .iter()
        .map(|&vm| plan_matrix(m, &SimConfig::embedded_a5(), vm, scale, &VARIANTS, true))
        .collect();
    Box::new(Plan { scale, matrices })
}

struct Plan {
    scale: ArgScale,
    matrices: Vec<MatrixPlan>,
}

impl Render for Plan {
    fn render(&self, r: &SweepResults) -> String {
        let scale = self.scale;
        let mut out = String::new();
        for plan in &self.matrices {
            let m = plan.resolve(r);
            out += &format_table(
                &format!("Figure 10: I-cache MPKI ({scale:?})"),
                &m,
                &VARIANTS,
                |r, v| r.get(v).stats.icache_mpki(),
                "misses/kinst",
            );
            out.push('\n');
            // What the misses cost: fetch-stall cycles per
            // kilo-instruction, and how much of that stalling lands in
            // dispatcher code.
            let _ = writeln!(out, "Fetch-stall attribution from trace events [{}]", m.vm.name());
            let _ = writeln!(
                out,
                "{:<16}{:>16}{:>16}{:>16}",
                "variant", "stall cyc/kinst", "share of cyc%", "in dispatch%"
            );
            for &v in &VARIANTS {
                let b = aggregate_breakdown(&m, v);
                let insts: u64 = m.rows.iter().map(|r| r.get(v).stats.instructions).sum();
                let _ = writeln!(
                    out,
                    "{:<16}{:>16.2}{:>16.1}{:>16.1}",
                    v.name(),
                    b.fetch_stall as f64 * 1000.0 / insts.max(1) as f64,
                    100.0 * b.fetch_stall as f64 / b.total.max(1) as f64,
                    100.0 * b.dispatch_fetch_stall as f64 / b.fetch_stall.max(1) as f64,
                );
            }
            out.push('\n');
        }
        out
    }
}
