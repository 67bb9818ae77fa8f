//! Figure 11: sensitivity studies.
//! (a)/(b) SCD speedup vs BTB size {64, 128, 256, 512} for both VMs.
//! (c)/(d) SCD speedup vs the maximum JTE cap {4, 16, unbounded} at the
//! smallest BTB (64 entries).

use super::Render;
use crate::sweep::{CellId, CellSpec, RunMatrix, SweepResults};
use crate::{ArgScale, Variant};
use luma::scripts::{Benchmark, BENCHMARKS};
use scd_guest::{GuestOptions, Vm};
use scd_sim::{geomean, SimConfig};
use std::fmt::Write as _;

const SIZES: [usize; 4] = [64, 128, 256, 512];
const CAPS: [(Option<usize>, &str); 3] = [(Some(4), "4"), (Some(16), "16"), (None, "inf")];

fn cell(
    m: &mut RunMatrix,
    cfg: &SimConfig,
    vm: Vm,
    b: &'static Benchmark,
    scale: ArgScale,
    v: Variant,
) -> CellId {
    m.cell(CellSpec {
        cfg: v.configure(cfg),
        vm,
        bench: b,
        arg: scale.arg(b),
        scheme: v.scheme(),
        opts: GuestOptions::default(),
        traced: false,
    })
}

/// Plans the figure's cells and returns its renderer.
pub fn plan(m: &mut RunMatrix, scale: ArgScale) -> Box<dyn Render> {
    // (a)/(b): BTB size sweep — baseline *and* SCD re-run per size, the
    // BTB serves both.
    let ab = Vm::ALL
        .iter()
        .map(|&vm| {
            BENCHMARKS
                .iter()
                .map(|b| {
                    SIZES
                        .iter()
                        .map(|&entries| {
                            let cfg = SimConfig::embedded_a5().with_btb_entries(entries);
                            let base = cell(m, &cfg, vm, b, scale, Variant::Baseline);
                            let scd = cell(m, &cfg, vm, b, scale, Variant::Scd);
                            (base, scd)
                        })
                        .collect()
                })
                .collect()
        })
        .collect();
    // (c)/(d): JTE cap sweep at the smallest BTB; one shared baseline.
    let cd = Vm::ALL
        .iter()
        .map(|&vm| {
            BENCHMARKS
                .iter()
                .map(|b| {
                    let base_cfg = SimConfig::embedded_a5().with_btb_entries(64);
                    let base = cell(m, &base_cfg, vm, b, scale, Variant::Baseline);
                    let scds = CAPS
                        .iter()
                        .map(|(cap, _)| {
                            let cfg = base_cfg.clone().with_jte_cap(*cap);
                            cell(m, &cfg, vm, b, scale, Variant::Scd)
                        })
                        .collect();
                    (base, scds)
                })
                .collect()
        })
        .collect();
    Box::new(Plan { scale, ab, cd })
}

struct Plan {
    scale: ArgScale,
    /// `ab[vm][bench][size]` -> (baseline, scd).
    ab: Vec<Vec<Vec<(CellId, CellId)>>>,
    /// `cd[vm][bench]` -> (baseline, one scd per cap).
    cd: Vec<Vec<(CellId, Vec<CellId>)>>,
}

impl Render for Plan {
    fn render(&self, r: &SweepResults) -> String {
        let scale = self.scale;
        let speedup = |base: CellId, scd: CellId| {
            r.get(base).stats.cycles as f64 / r.get(scd).stats.cycles as f64
        };
        let mut out = String::new();

        for (vi, vm) in Vm::ALL.iter().enumerate() {
            let _ =
                writeln!(out, "Figure 11a/b: SCD speedup vs BTB size [{}] ({scale:?})", vm.name());
            let _ = write!(out, "{:<18}", "benchmark");
            for s in SIZES {
                let _ = write!(out, "{s:>10}");
            }
            let _ = writeln!(out);
            let mut cols: Vec<Vec<f64>> = vec![Vec::new(); SIZES.len()];
            for (bi, b) in BENCHMARKS.iter().enumerate() {
                let _ = write!(out, "{:<18}", b.name);
                for (i, &(base, scd)) in self.ab[vi][bi].iter().enumerate() {
                    let speedup = speedup(base, scd);
                    cols[i].push(speedup);
                    let _ = write!(out, "{speedup:>10.3}");
                }
                let _ = writeln!(out);
            }
            let _ = write!(out, "{:<18}", "GEOMEAN");
            for c in &cols {
                let _ = write!(out, "{:>10.3}", geomean(c).expect("positive speedups"));
            }
            let _ = writeln!(out, "\n");
        }

        for (vi, vm) in Vm::ALL.iter().enumerate() {
            let _ = writeln!(
                out,
                "Figure 11c/d: SCD speedup vs JTE cap at 64-entry BTB [{}] ({scale:?})",
                vm.name()
            );
            let _ = write!(out, "{:<18}", "benchmark");
            for (_, label) in CAPS {
                let _ = write!(out, "{label:>10}");
            }
            let _ = writeln!(out);
            let mut cols: Vec<Vec<f64>> = vec![Vec::new(); CAPS.len()];
            for (bi, b) in BENCHMARKS.iter().enumerate() {
                let _ = write!(out, "{:<18}", b.name);
                let (base, scds) = &self.cd[vi][bi];
                for (i, &scd) in scds.iter().enumerate() {
                    let speedup = speedup(*base, scd);
                    cols[i].push(speedup);
                    let _ = write!(out, "{speedup:>10.3}");
                }
                let _ = writeln!(out);
            }
            let _ = write!(out, "{:<18}", "GEOMEAN");
            for c in &cols {
                let _ = write!(out, "{:>10.3}", geomean(c).expect("positive speedups"));
            }
            let _ = writeln!(out, "\n");
        }

        out
    }
}
