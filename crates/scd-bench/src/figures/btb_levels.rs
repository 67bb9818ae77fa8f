//! Extension study: BTB organization sensitivity (`btb_levels`).
//!
//! Every paper figure runs on an idealized single-table BTB indexed by
//! raw key bits. Real embedded frontends use a small zero-bubble L0
//! backed by a larger, slower L1, both indexed through cheap XOR-fold
//! hashes (Yavarzadeh et al., arXiv 2412.05413). This report re-runs
//! the headline {baseline, jump-threading, SCD} comparison across BTB
//! organizations and JTE caps, then stresses each organization with
//! adversarially aliased interpreters (`scd fuzz --bias aliasing`)
//! whose jump-table entries all fold into one L0 set.
//!
//! Sections 1–3 go through the shared deduplicating [`RunMatrix`] (and
//! therefore honor `--sample`); section 4 runs the generated programs
//! directly — they are reproducer-style programs, not corpus
//! benchmarks, so they have no cell identity — serially and in a fixed
//! order, so the rendered bytes are identical for any `--threads`.

use super::Render;
use crate::sweep::{CellId, CellSpec, RunMatrix, SweepResults};
use crate::{ArgScale, Variant};
use luma::scripts::{Benchmark, BENCHMARKS};
use scd_guest::{GuestOptions, Vm};
use scd_ref::gen::{generate, GenConfig, Generated};
use scd_sim::{
    geomean, BtbConfig, Machine, Replacement, SimConfig, SimError, SimStats, TwoLevelBtbConfig,
    TwoLevelStats,
};
use std::fmt::Write as _;

/// JTE caps for section 3, smallest first (fig. 11c-d's ladder).
const CAPS: [(Option<usize>, &str); 3] = [(Some(4), "4"), (Some(16), "16"), (None, "inf")];

/// Adversarial generator seeds for section 4. Fixed and small: each
/// program is a few tens of thousands of instructions, cheap enough to
/// run full-detail at render time.
const ALIAS_SEEDS: [u64; 4] = [0, 1, 2, 3];

/// Instruction budget per adversarial run (the fuzz harness default).
const ALIAS_BUDGET: u64 = 2_000_000;

/// The organizations under study, all with 256 predictor entries of
/// primary capacity on the A5 core (the two-level rows add the 512-entry
/// L1 backing store real frontends spend on the second level):
///
/// * `ideal-fa` — fully-associative, raw-indexed: no conflicts at all.
/// * `ideal-sa` — the paper's 2-way set-associative table, raw-indexed.
/// * `2lvl-f8`  — 32e/2w L0 + 512e/4w L1, 8-bit XOR-fold index,
///   14-bit folded `Pc`/`Vbbi` tags, 2 bubbles per L1-served
///   prediction ([`TwoLevelBtbConfig::arm_like`]).
/// * `2lvl-f7`  — the same banks under a 7-bit fold: a different hash
///   mixing, so aliasing classes regroup.
fn org_configs() -> Vec<(&'static str, SimConfig)> {
    let a5 = SimConfig::embedded_a5();
    let mut ideal_fa = a5.clone();
    ideal_fa.btb = BtbConfig::fully_assoc(256, Replacement::Lru);
    let two8 = a5.clone().with_two_level_btb(TwoLevelBtbConfig::arm_like());
    let two7 = a5.clone().with_two_level_btb(TwoLevelBtbConfig::arm_like().with_fold_bits(7));
    vec![("ideal-fa", ideal_fa), ("ideal-sa", a5), ("2lvl-f8", two8), ("2lvl-f7", two7)]
}

fn cell(
    m: &mut RunMatrix,
    cfg: &SimConfig,
    b: &'static Benchmark,
    scale: ArgScale,
    v: Variant,
) -> CellId {
    m.cell(CellSpec {
        cfg: v.configure(cfg),
        vm: Vm::Lvm,
        bench: b,
        arg: scale.arg(b),
        scheme: v.scheme(),
        opts: GuestOptions::default(),
        traced: false,
    })
}

/// One benchmark's cells under one organization.
struct OrgBench {
    base: CellId,
    threaded: CellId,
    /// One SCD cell per entry of [`CAPS`].
    scd: Vec<CellId>,
}

/// Plans the report's cells and returns its renderer.
pub fn plan(m: &mut RunMatrix, scale: ArgScale) -> Box<dyn Render> {
    let rows = org_configs()
        .iter()
        .map(|(_, cfg)| {
            BENCHMARKS
                .iter()
                .map(|b| OrgBench {
                    base: cell(m, cfg, b, scale, Variant::Baseline),
                    threaded: cell(m, cfg, b, scale, Variant::JumpThreading),
                    scd: CAPS
                        .iter()
                        .map(|(cap, _)| {
                            let c = cfg.clone().with_jte_cap(*cap);
                            cell(m, &c, b, scale, Variant::Scd)
                        })
                        .collect(),
                })
                .collect()
        })
        .collect();
    Box::new(Plan { scale, rows })
}

struct Plan {
    scale: ArgScale,
    /// `rows[org][bench]`, orgs in [`org_configs`] order.
    rows: Vec<Vec<OrgBench>>,
}

/// One adversarial program's outcome under one configuration.
struct AliasRun {
    stats: SimStats,
    two_level: Option<TwoLevelStats>,
}

/// Runs one generated program to completion (or the budget) under
/// `cfg`, full detail, replay fast path. Panics on any simulator error:
/// the report must never print numbers from a broken run.
fn run_alias(cfg: &SimConfig, g: &Generated, label: &str) -> AliasRun {
    let mut m = Machine::new(cfg.clone(), &g.program);
    m.map("fuzzdata", g.data_base, g.data_size);
    m.disable_invariants();
    match m.run(ALIAS_BUDGET) {
        Ok(_) | Err(SimError::InstLimit { .. }) => {}
        Err(e) => panic!("btb_levels adversarial run {label}: {e}"),
    }
    AliasRun { two_level: m.btb().two_level_stats(), stats: m.stats }
}

impl Render for Plan {
    fn render(&self, r: &SweepResults) -> String {
        let scale = self.scale;
        let orgs = org_configs();
        let speedup = |base: CellId, other: CellId| {
            r.get(base).stats.cycles as f64 / r.get(other).stats.cycles as f64
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "BTB organization sensitivity (LVM, {scale:?} inputs; extension study, arXiv 2412.05413)\n"
        );
        let _ = writeln!(out, "Organizations:");
        let _ = writeln!(out, "  ideal-fa  256e fully-assoc, raw index (no conflicts)");
        let _ = writeln!(out, "  ideal-sa  256e 2-way, raw index (paper simulator config)");
        let _ = writeln!(
            out,
            "  2lvl-f8   32e/2w L0 + 512e/4w L1, 8-bit fold, 14-bit tags, 2 L1 bubbles"
        );
        let _ = writeln!(out, "  2lvl-f7   same banks, 7-bit fold (different aliasing classes)\n");

        // 1. SCD speedup over the same-organization baseline, uncapped.
        let uncapped = CAPS.iter().position(|(c, _)| c.is_none()).expect("inf cap");
        let _ = writeln!(out, "1. SCD speedup over same-organization baseline (uncapped JTEs):");
        let _ = write!(out, "{:<18}", "benchmark");
        for (name, _) in &orgs {
            let _ = write!(out, "{name:>10}");
        }
        let _ = writeln!(out);
        let mut cols: Vec<Vec<f64>> = vec![Vec::new(); orgs.len()];
        for (bi, b) in BENCHMARKS.iter().enumerate() {
            let _ = write!(out, "{:<18}", b.name);
            for (oi, col) in cols.iter_mut().enumerate() {
                let ob = &self.rows[oi][bi];
                let s = speedup(ob.base, ob.scd[uncapped]);
                col.push(s);
                let _ = write!(out, "{s:>10.3}");
            }
            let _ = writeln!(out);
        }
        let _ = write!(out, "{:<18}", "GEOMEAN");
        for c in &cols {
            let _ = write!(out, "{:>10.3}", geomean(c).expect("positive speedups"));
        }
        let _ = writeln!(out, "\n");

        // 2. Jump threading under the same organizations: its benefit
        //    also leans on the BTB (one indirect branch per handler).
        let _ = writeln!(out, "2. Jump-threading speedup over baseline (geomean):");
        for (oi, (name, _)) in orgs.iter().enumerate() {
            let s: Vec<f64> =
                self.rows[oi].iter().map(|ob| speedup(ob.base, ob.threaded)).collect();
            let _ = writeln!(
                out,
                "   {name:<10}: {:+.1}%",
                100.0 * (geomean(&s).expect("positive speedups") - 1.0)
            );
        }

        // 3. JTE cap ladder per organization. Under the two-level
        //    organizations the cap bounds residency across both banks.
        let _ = writeln!(out, "\n3. SCD speedup vs JTE cap (geomean over benchmarks):");
        let _ = write!(out, "{:<18}", "organization");
        for (_, label) in CAPS {
            let _ = write!(out, "{label:>10}");
        }
        let _ = writeln!(out);
        for (oi, (name, _)) in orgs.iter().enumerate() {
            let _ = write!(out, "{name:<18}");
            for ci in 0..CAPS.len() {
                let s: Vec<f64> =
                    self.rows[oi].iter().map(|ob| speedup(ob.base, ob.scd[ci])).collect();
                let _ = write!(out, "{:>10.3}", geomean(&s).expect("positive speedups"));
            }
            let _ = writeln!(out);
        }

        // 4. Hostile aliasing: generated interpreters whose JTE keys all
        //    fold into one L0 set per branch id (`--bias aliasing`).
        //    SCD's win per organization is cycles(SCD off) / cycles(SCD
        //    on); erosion is the two-level win relative to the ideal
        //    set-associative one. bop% is the short-circuit hit rate —
        //    the dispatch fast path the aliasing attacks.
        let ideal = &orgs[1].1;
        let two_level = &orgs[2].1;
        let off = |cfg: &SimConfig| {
            let mut c = cfg.clone();
            c.scd.enabled = false;
            c
        };
        let _ = writeln!(
            out,
            "\n4. Adversarial aliasing (scd fuzz --bias aliasing programs, full detail):"
        );
        let _ = writeln!(
            out,
            "{:<10}{:>12}{:>12}{:>10}{:>12}{:>12}",
            "program", "ideal-sa", "2lvl-f8", "erosion", "bop% ideal", "bop% 2lvl"
        );
        let mut wins_ideal = Vec::new();
        let mut wins_two = Vec::new();
        let mut traffic = Vec::new();
        for &seed in &ALIAS_SEEDS {
            let g = generate(&GenConfig::aliasing_from_seed(seed));
            let label = format!("alias-{seed}");
            let on_ideal = run_alias(ideal, &g, &label);
            let off_ideal = run_alias(&off(ideal), &g, &label);
            let on_two = run_alias(two_level, &g, &label);
            let off_two = run_alias(&off(two_level), &g, &label);
            let win_i = off_ideal.stats.cycles as f64 / on_ideal.stats.cycles as f64;
            let win_t = off_two.stats.cycles as f64 / on_two.stats.cycles as f64;
            let bop_rate = |s: &SimStats| 100.0 * s.bop_hits as f64 / s.bop_executed.max(1) as f64;
            let _ = writeln!(
                out,
                "{label:<10}{win_i:>12.3}{win_t:>12.3}{:>9.1}%{:>12.1}{:>12.1}",
                100.0 * (win_t / win_i - 1.0),
                bop_rate(&on_ideal.stats),
                bop_rate(&on_two.stats),
            );
            wins_ideal.push(win_i);
            wins_two.push(win_t);
            traffic.push((label, on_two.two_level.expect("two-level run carries stats")));
        }
        let gi = geomean(&wins_ideal).expect("positive wins");
        let gt = geomean(&wins_two).expect("positive wins");
        let _ =
            writeln!(out, "{:<10}{gi:>12.3}{gt:>12.3}{:>9.1}%", "GEOMEAN", 100.0 * (gt / gi - 1.0));
        let _ = writeln!(out, "\n   Two-level traffic under SCD (the aliased JTE working set):");
        let _ = writeln!(
            out,
            "   {:<10}{:>10}{:>10}{:>12}{:>11}{:>7}",
            "program", "l0_hits", "l1_hits", "promotions", "demotions", "drops"
        );
        for (label, tl) in &traffic {
            let _ = writeln!(
                out,
                "   {label:<10}{:>10}{:>10}{:>12}{:>11}{:>7}",
                tl.l0_hits, tl.l1_hits, tl.promotions, tl.demotions, tl.demotion_drops
            );
        }
        out
    }
}
