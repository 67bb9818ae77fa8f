//! Ablation studies for the design choices discussed in the paper:
//!
//! 1. `bop` stall scheme vs fall-through scheme (Section III-B) and the
//!    scheduled-fetch code layout that hides the Rop latency.
//! 2. OS context-switch JTE flushing at different quantum lengths
//!    (Section IV).
//! 3. Interpreter "production weight": how the dispatcher's share of
//!    work changes SCD's benefit (lean vs production fetch block).
//! 4. Jump-threading I-cache pressure vs I$ capacity.
//! 5. The indirect-predictor ladder (VBBI, ITTAGE) vs SCD.
//! 6. BTB-overlaid vs dedicated (CBT-style) JTE storage.

use super::Render;
use crate::sweep::{CellId, CellSpec, RunMatrix, SweepResults};
use crate::ArgScale;
use luma::scripts::{Benchmark, BENCHMARKS};
use scd_guest::{GuestOptions, Scheme, Vm};
use scd_sim::{geomean, SimConfig};
use std::fmt::Write as _;

/// Emulated context-switch quantum lengths for study 2.
const QUANTA: [u64; 4] = [u64::MAX, 1_000_000, 100_000, 10_000];
/// I-cache capacities (KB) for study 4.
const ICACHE_KB: [u64; 4] = [16, 4, 2, 1];

fn cell(
    m: &mut RunMatrix,
    cfg: &SimConfig,
    b: &'static Benchmark,
    scale: ArgScale,
    scheme: Scheme,
    opts: GuestOptions,
) -> CellId {
    m.cell(CellSpec {
        cfg: cfg.clone(),
        vm: Vm::Lvm,
        bench: b,
        arg: scale.arg(b),
        scheme,
        opts,
        traced: false,
    })
}

/// Per-benchmark (baseline-on-`cfg_base`, scd-on-`cfg_scd`) cell pairs,
/// both built with `opts` — the planning form of the old bin's
/// `speedups` helper.
fn pairs(
    m: &mut RunMatrix,
    cfg_base: &SimConfig,
    cfg_scd: &SimConfig,
    opts: GuestOptions,
    scale: ArgScale,
) -> Vec<(CellId, CellId)> {
    BENCHMARKS
        .iter()
        .map(|b| {
            let base = cell(m, cfg_base, b, scale, Scheme::Baseline, opts);
            let scd = cell(m, cfg_scd, b, scale, Scheme::Scd, opts);
            (base, scd)
        })
        .collect()
}

/// Plans the ablation cells and returns the renderer.
pub fn plan(m: &mut RunMatrix, scale: ArgScale) -> Box<dyn Render> {
    let a5 = SimConfig::embedded_a5();
    let dflt = GuestOptions::default();

    // 1. bop readiness handling.
    let stall = pairs(m, &a5, &a5, dflt, scale);
    let mut ft_cfg = a5.clone();
    ft_cfg.scd.stall_on_unready = false;
    let fall = pairs(m, &a5, &ft_cfg, dflt, scale);
    let sched =
        pairs(m, &a5, &a5, GuestOptions { production_weight: true, scheduled_fetch: true }, scale);

    // 2. Context-switch flushing.
    let flush = QUANTA
        .iter()
        .map(|&quantum| {
            let mut cfg = a5.clone();
            cfg.scd.flush_interval = if quantum == u64::MAX { None } else { Some(quantum) };
            pairs(m, &a5, &cfg, dflt, scale)
        })
        .collect();

    // 3. Interpreter weight.
    let weight = vec![
        pairs(m, &a5, &a5, dflt, scale),
        pairs(
            m,
            &a5,
            &a5,
            GuestOptions { production_weight: false, scheduled_fetch: false },
            scale,
        ),
    ];

    // 4. Jump-threading I-cache pressure: baseline vs threaded builds at
    // shrinking I$ capacities.
    let icache = ICACHE_KB
        .iter()
        .map(|&kb| {
            let mut cfg = a5.clone();
            cfg.icache.size = kb * 1024;
            BENCHMARKS
                .iter()
                .map(|b| {
                    let base = cell(m, &cfg, b, scale, Scheme::Baseline, dflt);
                    let jt = cell(m, &cfg, b, scale, Scheme::Threaded, dflt);
                    (base, jt)
                })
                .collect()
        })
        .collect();

    // 5. Indirect-predictor ladder.
    let ladder_nonscd = pairs(m, &a5, &a5.clone().without_scd(), dflt, scale);
    let ladder_pred = [("VBBI", a5.clone().with_vbbi()), ("ITTAGE", a5.clone().with_ittage())]
        .into_iter()
        .map(|(label, cfg)| {
            let rows = BENCHMARKS
                .iter()
                .map(|b| {
                    let base = cell(m, &a5, b, scale, Scheme::Baseline, dflt);
                    let pred = cell(m, &cfg, b, scale, Scheme::Baseline, dflt);
                    (base, pred)
                })
                .collect();
            (label, rows)
        })
        .collect();
    let ladder_scd = pairs(m, &a5, &a5, dflt, scale);

    // 6. JTE storage organization at a small BTB.
    let small = SimConfig::embedded_a5().with_btb_entries(64);
    let overlay = pairs(m, &small, &small, dflt, scale);
    let cbt_cfg = small.clone().with_dedicated_jte_table(64);
    let cbt = pairs(m, &small, &cbt_cfg, dflt, scale);

    Box::new(Plan {
        scale,
        stall,
        fall,
        sched,
        flush,
        weight,
        icache,
        ladder_nonscd,
        ladder_pred,
        ladder_scd,
        overlay,
        cbt,
    })
}

struct Plan {
    scale: ArgScale,
    stall: Vec<(CellId, CellId)>,
    fall: Vec<(CellId, CellId)>,
    sched: Vec<(CellId, CellId)>,
    /// One pair set per entry of [`QUANTA`].
    flush: Vec<Vec<(CellId, CellId)>>,
    /// Production then lean.
    weight: Vec<Vec<(CellId, CellId)>>,
    /// One (baseline, jump-threaded) pair set per entry of [`ICACHE_KB`].
    icache: Vec<Vec<(CellId, CellId)>>,
    ladder_nonscd: Vec<(CellId, CellId)>,
    ladder_pred: Vec<(&'static str, Vec<(CellId, CellId)>)>,
    ladder_scd: Vec<(CellId, CellId)>,
    overlay: Vec<(CellId, CellId)>,
    cbt: Vec<(CellId, CellId)>,
}

impl Render for Plan {
    fn render(&self, r: &SweepResults) -> String {
        let scale = self.scale;
        // Geomean speedup of the second cell over the first, as a
        // percentage delta.
        let gain = |rows: &[(CellId, CellId)]| {
            let speedups: Vec<f64> = rows
                .iter()
                .map(|&(a, b)| r.get(a).stats.cycles as f64 / r.get(b).stats.cycles as f64)
                .collect();
            100.0 * (geomean(&speedups).expect("positive speedups") - 1.0)
        };

        let mut out = String::new();
        let _ = writeln!(out, "Ablations (LVM, {scale:?} inputs; SCD speedup over baseline)\n");

        // 1. bop readiness handling.
        let _ = writeln!(out, "1. bop readiness handling (Section III-B):");
        let _ = writeln!(out, "   stall scheme (paper default): {:+.1}%", gain(&self.stall));
        let _ = writeln!(out, "   fall-through scheme         : {:+.1}%", gain(&self.fall));
        let _ = writeln!(out, "   stall + scheduled fetch     : {:+.1}%", gain(&self.sched));

        // 2. Context-switch flushing.
        let _ = writeln!(out, "\n2. JTE flush on emulated context switches (Section IV):");
        for (&quantum, rows) in QUANTA.iter().zip(&self.flush) {
            let label = if quantum == u64::MAX {
                "never".to_string()
            } else {
                format!("every {quantum} insts")
            };
            let _ = writeln!(out, "   flush {label:<22}: {:+.1}%", gain(rows));
        }

        // 3. Interpreter weight.
        let _ = writeln!(out, "\n3. Interpreter fetch-block weight:");
        for (label, rows) in
            ["production (hook + counters)", "lean (bare fetch)"].iter().zip(&self.weight)
        {
            let _ = writeln!(out, "   {label:<30}: {:+.1}%", gain(rows));
        }

        // 4. I-cache capacity: our interpreters are leaner than Lua's C
        //    handlers and fit comfortably in 16 KB, so jump threading's code
        //    bloat is invisible there (see EXPERIMENTS.md). Shrinking the
        //    I-cache restores the paper's Fig. 10 effect.
        let _ = writeln!(out, "\n4. Jump-threading I-cache pressure vs I$ capacity (LVM):");
        for (&kb, rows) in ICACHE_KB.iter().zip(&self.icache) {
            let mut jt_mpki = Vec::new();
            let mut base_mpki = Vec::new();
            let mut jt_speed = Vec::new();
            for &(base_id, jt_id) in rows {
                let base = r.get(base_id);
                let jt = r.get(jt_id);
                base_mpki.push(base.stats.icache_mpki());
                jt_mpki.push(jt.stats.icache_mpki());
                jt_speed.push(base.stats.cycles as f64 / jt.stats.cycles as f64);
            }
            let avg = |v: &Vec<f64>| v.iter().sum::<f64>() / v.len() as f64;
            let _ = writeln!(
                out,
                "   {kb:>2} KB I$: baseline I$ MPKI {:>6.2}, jump-threaded {:>6.2}, JT speedup {:+.1}%",
                avg(&base_mpki),
                avg(&jt_mpki),
                100.0 * (geomean(&jt_speed).expect("positive speedups") - 1.0)
            );
        }

        // 5. Indirect predictor ladder: how far can pure prediction go,
        //    and what does SCD add beyond it (cf. Section VII related work)?
        let _ = writeln!(out, "\n5. Indirect-predictor ladder (baseline binary unless noted):");
        let _ =
            writeln!(out, "   SCD binary on non-SCD core    : {:+.1}%", gain(&self.ladder_nonscd));
        for (label, rows) in &self.ladder_pred {
            let _ = writeln!(out, "   {label:<30}: {:+.1}%", gain(rows));
        }
        let _ = writeln!(out, "   SCD (BTB overlay)             : {:+.1}%", gain(&self.ladder_scd));

        // 6. BTB overlay vs dedicated (CBT-style) JTE table, at a small BTB
        //    where contention between B entries and JTEs is worst.
        let _ = writeln!(out, "\n6. JTE storage organization at a 64-entry BTB:");
        let _ = writeln!(out, "   BTB overlay (SCD, no extra table): {:+.1}%", gain(&self.overlay));
        let _ = writeln!(out, "   dedicated table (CBT-style)      : {:+.1}%", gain(&self.cbt));

        out
    }
}
