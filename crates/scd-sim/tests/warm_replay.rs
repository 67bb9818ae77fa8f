//! Functional warming and its seams: warming in segments composes
//! exactly with warming in one go, a warmed machine continues into
//! detailed timing exactly, and sampled runs attribute every retirement
//! across the warm legs.

use proptest::prelude::*;
use scd_isa::{Asm, Inst, LoadOp, Program, Reg};
use scd_sim::{Machine, SamplingPlan, SimConfig, SimError};

/// The sampled-test dispatcher guest: `n` bytecode dispatches through a
/// `bop`/`jru` loop, touching every structure warming must fill
/// (caches, TLBs, direction predictor, BTB, JTE overlay, RAS via the
/// fill loop's calls, SCD registers).
fn dispatcher_program(n: i64) -> Program {
    let mut a = Asm::new(0x1_0000);
    a.li(Reg::S1, 0x10_0000);
    a.li(Reg::T0, 0);
    a.li(Reg::T1, n);
    a.label("fill");
    a.andi(Reg::T2, Reg::T0, 1);
    a.slli(Reg::T3, Reg::T0, 2);
    a.add(Reg::T3, Reg::T3, Reg::S1);
    a.sw(Reg::T2, 0, Reg::T3);
    a.addi(Reg::T0, Reg::T0, 1);
    a.bne(Reg::T0, Reg::T1, "fill");
    a.li(Reg::T2, 2);
    a.slli(Reg::T3, Reg::T0, 2);
    a.add(Reg::T3, Reg::T3, Reg::S1);
    a.sw(Reg::T2, 0, Reg::T3);

    a.li(Reg::T0, 0x3f);
    a.setmask(0, Reg::T0);
    a.li(Reg::A2, 0);
    a.la(Reg::S2, "jt");
    a.label("dispatch");
    a.load_op(LoadOp::Lw, 0, Reg::A0, 0, Reg::S1);
    a.addi(Reg::S1, Reg::S1, 4);
    a.bop(0);
    a.andi(Reg::A1, Reg::A0, 0x3f);
    a.sltiu(Reg::T3, Reg::A1, 3);
    a.beqz(Reg::T3, "bad");
    a.slli(Reg::T3, Reg::A1, 3);
    a.add(Reg::T3, Reg::T3, Reg::S2);
    a.ld(Reg::T4, 0, Reg::T3);
    a.jru(0, Reg::T4);

    a.label("h0");
    a.addi(Reg::A2, Reg::A2, 1);
    a.j("dispatch");
    a.label("h1");
    a.addi(Reg::A2, Reg::A2, 2);
    a.j("dispatch");
    a.label("h2");
    a.mv(Reg::A0, Reg::A2);
    a.li(Reg::A7, 0);
    a.ecall();
    a.label("bad");
    a.inst(Inst::Ebreak);

    a.ro_label("jt");
    a.ro_addr("h0");
    a.ro_addr("h1");
    a.ro_addr("h2");
    a.finish().expect("assemble")
}

/// A plain (SCD-less) guest: nested loops over a strided buffer with a
/// call/return pair per iteration — exercises the D-side, direct and
/// indirect branches and the RAS without any `bop`/`jru` traffic.
fn strider_program(rows: i64, stride: i64) -> Program {
    let mut a = Asm::new(0x1_0000);
    a.li(Reg::S1, 0x10_0000);
    a.li(Reg::S2, rows);
    a.li(Reg::S3, stride);
    a.li(Reg::A2, 0);
    a.label("outer");
    a.li(Reg::T0, 0);
    a.label("inner");
    a.mul(Reg::T1, Reg::T0, Reg::S3);
    a.add(Reg::T1, Reg::T1, Reg::S1);
    a.lw(Reg::T2, 0, Reg::T1);
    a.add(Reg::A2, Reg::A2, Reg::T2);
    a.sw(Reg::A2, 0, Reg::T1);
    a.call("bump");
    a.addi(Reg::T0, Reg::T0, 1);
    a.blt(Reg::T0, Reg::S3, "inner");
    a.addi(Reg::S2, Reg::S2, -1);
    a.bnez(Reg::S2, "outer");
    a.andi(Reg::A0, Reg::A2, 0xff);
    a.li(Reg::A7, 0);
    a.ecall();
    a.label("bump");
    a.addi(Reg::A2, Reg::A2, 1);
    a.ret();
    a.finish().expect("assemble")
}

fn machine(cfg: &SimConfig, p: &Program) -> Machine {
    let mut m = Machine::new(cfg.clone(), p);
    m.map("scratch", 0x10_0000, 0x10_0000);
    m.disable_invariants();
    m
}

fn hit_limit(r: Result<scd_sim::Exit, SimError>) -> bool {
    matches!(r, Err(SimError::InstLimit { .. }))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary guests, budgets, split points and flush quanta:
    /// stopping a warming run at `split` and resuming it leaves the
    /// bit-identical snapshot of one uninterrupted warming run.
    #[test]
    fn segmented_warming_matches_one_run(
        dispatches in 200i64..3_000,
        limit in 1_000u64..40_000,
        split_permille in 1u64..1_000,
        flush_raw in 0u64..5_000,
        strided in 0u8..2,
        rows in 2i64..40,
        stride in 2i64..24,
    ) {
        let p = if strided == 1 {
            strider_program(rows, stride)
        } else {
            dispatcher_program(dispatches)
        };
        let mut cfg = SimConfig::embedded_a5();
        // Below 1k the raw draw means "no flush quantum".
        cfg.scd.flush_interval = (flush_raw >= 1_000).then_some(flush_raw);

        let mut whole = machine(&cfg, &p);
        let r0 = whole.run_warming(limit);

        let mut m = machine(&cfg, &p);
        let r = match m.run_warming(limit * split_permille / 1_000) {
            Err(SimError::InstLimit { .. }) => m.run_warming(limit),
            done => done,
        };
        prop_assert_eq!(format!("{r:?}"), format!("{r0:?}"));
        prop_assert_eq!(m.snapshot().to_bytes(), whole.snapshot().to_bytes());
    }
}

/// Sampled run whose guest halts *inside* a warm leg (after measured
/// intervals have accumulated): the warming/measure boundary
/// bookkeeping must attribute every retirement and the architectural
/// result must equal the full-detail run's.
#[test]
fn golden_sampled_exit_crosses_warming_boundary() {
    let p = dispatcher_program(2_000);
    let cfg = SimConfig::embedded_a5();

    // Full-detail reference for the architectural result.
    let mut full = machine(&cfg, &p);
    let e_full = full.run(10_000_000).expect("full run");
    let total = full.stats.instructions;

    // Place the guest's end inside a warm leg: with period 4k and the
    // end at `total`, pick warmup long enough that `total % 4k` lands
    // after the skip but before the measure window.
    let period = 4_000u64;
    let into = total % period;
    assert!(into > 600, "guest length {total} must overshoot the skip");
    let plan = SamplingPlan::new(period, into.saturating_sub(200), 200).unwrap();

    let mut m = machine(&cfg, &p);
    let (e, report) = m.run_sampled(10_000_000, &plan).expect("sampled run");
    assert_eq!(e.code, e_full.code, "exit code");
    assert_eq!(e.output, e_full.output, "guest output");
    assert!(!report.exact_fallback);
    assert!(report.intervals >= 1);
    // Every retirement is attributed to exactly one leg.
    assert_eq!(
        report.total_insts,
        report.ff_insts + report.warm_insts + report.measured_insts
    );
}

/// The warm → detailed seam composes: warming to 8k in two segments
/// and then running detailed reaches the same exit, stats and snapshot
/// as warming in one go.
#[test]
fn warm_then_detailed_seam_composes() {
    let p = strider_program(60, 16);
    let cfg = SimConfig::embedded_a5();

    let mut a = machine(&cfg, &p);
    assert!(hit_limit(a.run_warming(8_000)));
    let ea = a.run(20_000);

    let mut b = machine(&cfg, &p);
    assert!(hit_limit(b.run_warming(3_000)));
    assert!(hit_limit(b.run_warming(8_000)));
    let eb = b.run(20_000);

    assert_eq!(format!("{ea:?}"), format!("{eb:?}"));
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.snapshot().to_bytes(), b.snapshot().to_bytes());
}
