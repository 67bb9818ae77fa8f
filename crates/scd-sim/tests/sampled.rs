//! Sampled-simulation integration tests: the fast-forward → warm →
//! measure cadence against full-detail runs of the same guest, the
//! exact-fallback and budget paths, and the mid-warming checkpoint
//! property the sampling scheduler leans on.

use proptest::prelude::*;
use scd_isa::{Asm, Inst, LoadOp, Program, Reg};
use scd_sim::{Machine, SamplingPlan, SimConfig, SimError};

/// A bytecode interpreter with `n` dispatches: fills an array with
/// alternating opcodes 0/1 (terminator 2), then dispatches through a
/// `bop`/`jru` loop — every structure sampling must carry (caches,
/// predictors, the JTE overlay, SCD registers) gets exercised.
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

fn machine(cfg: &SimConfig, p: &Program) -> Machine {
    let mut m = Machine::new(cfg.clone(), p);
    m.map("scratch", 0x10_0000, 0x10_0000);
    m.disable_invariants();
    m
}

#[test]
fn sampled_matches_full_run() {
    let p = dispatcher_program(3000);
    let cfg = SimConfig::embedded_a5();

    let mut full = machine(&cfg, &p);
    let e1 = full.run(10_000_000).expect("full run");

    let mut plan = SamplingPlan::parse("4k:1k:1k").unwrap();
    plan.self_check = true;
    let mut sampled = machine(&cfg, &p);
    let (e2, report) = sampled.run_sampled(10_000_000, &plan).expect("sampled run");

    // Architectural results are exact: same exit code, same output.
    assert_eq!(e1, e2);
    assert!(!report.exact_fallback);
    assert!(report.intervals >= 5, "intervals: {}", report.intervals);
    assert_eq!(
        report.total_insts,
        report.ff_insts + report.warm_insts + report.measured_insts
    );
    assert_eq!(sampled.stats.instructions, report.total_insts);

    // Characterization, not a specification: every fast-forward leg
    // resolves `bop` from a `(bid, Rop)` map that starts empty, so a
    // handful of extra slow-path dispatches slip in per interval and the
    // sampled count differs from full detail's. ROADMAP.md open item 1
    // makes sampled SCD runs exact and will change this pin to 33,040.
    assert_eq!(full.stats.instructions, 33_040);
    assert_eq!(report.total_insts, 33_096);

    // The timing estimate lands near the exact cycle count.
    let exact = full.stats.cycles as f64;
    let err = (report.cycles_est as f64 - exact).abs() / exact;
    assert!(
        err < 0.15,
        "cycles_est {} vs exact {} (err {err}, ±{})",
        report.cycles_est,
        full.stats.cycles,
        report.cycles_ci95
    );
    assert_eq!(sampled.stats.cycles, report.cycles_est);
}

#[test]
fn sampled_respects_flush_quantum() {
    let p = dispatcher_program(3000);
    let mut cfg = SimConfig::embedded_a5();
    cfg.scd.flush_interval = Some(2_000);

    let mut full = machine(&cfg, &p);
    let e1 = full.run(10_000_000).expect("full run");
    assert!(full.stats.btb.jte_flushes > 5);

    let mut plan = SamplingPlan::parse("4k:1k:1k").unwrap();
    plan.self_check = true;
    let mut sampled = machine(&cfg, &p);
    let (e2, report) = sampled.run_sampled(10_000_000, &plan).expect("sampled run");
    assert_eq!(e1, e2);
    // Flushes land during fast-forward legs too (the chunked run), so
    // the scaled estimate sees a comparable flush rate.
    assert!(sampled.stats.btb.jte_flushes > 0);
    assert!(!report.exact_fallback);
}

#[test]
fn sampled_falls_back_to_exact_for_short_guests() {
    let p = dispatcher_program(100);
    let cfg = SimConfig::embedded_a5();

    let mut full = machine(&cfg, &p);
    let e1 = full.run(1_000_000).expect("full run");

    // The guest exits inside the first fast-forward leg.
    let plan = SamplingPlan::parse("1M:50k:20k").unwrap();
    let mut sampled = machine(&cfg, &p);
    let (e2, report) = sampled.run_sampled(1_000_000, &plan).expect("sampled run");

    assert_eq!(e1, e2);
    assert!(report.exact_fallback);
    assert_eq!(report.intervals, 0);
    assert_eq!(report.cpi_ci95, 0.0);
    // The fallback re-ran in full detail: stats are bit-identical.
    assert_eq!(sampled.stats, full.stats);
}

#[test]
fn sampled_inst_limit_applies_estimate() {
    // A guest that never halts: the budget expires mid-run and the
    // estimate must still land in `stats` before the error surfaces.
    let mut a = Asm::new(0x1_0000);
    a.li(Reg::T0, 0);
    a.label("spin");
    a.addi(Reg::T0, Reg::T0, 1);
    a.j("spin");
    let p = a.finish().unwrap();
    let cfg = SimConfig::embedded_a5();

    let plan = SamplingPlan::parse("4k:1k:1k").unwrap();
    let mut m = machine(&cfg, &p);
    match m.run_sampled(50_000, &plan) {
        Err(SimError::InstLimit { limit }) => assert_eq!(limit, 50_000),
        other => panic!("expected InstLimit, got {other:?}"),
    }
    assert_eq!(m.stats.instructions, 50_000);
    assert!(m.stats.cycles > 0, "estimate was not applied");
}

/// The expected outcome of every bounded leg below (the shim's
/// `prop_assert!` cannot carry a `matches!` pattern with braces).
fn hit_limit(r: Result<scd_sim::Exit, SimError>) -> bool {
    matches!(r, Err(SimError::InstLimit { .. }))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A snapshot taken mid-warming restores bit-identical machine
    /// state (caches, BTB/JTE, ITTAGE, TLBs, SCD registers — the
    /// snapshot codec carries all of it), and the restored machine
    /// produces identical measured-interval statistics on resume.
    #[test]
    fn mid_warming_snapshot_resumes_bit_identical(
        w_total in 2_000u64..8_000,
        split_permille in 50u64..950,
        measure in 500u64..2_000,
    ) {
        let p = dispatcher_program(1000);
        let cfg = SimConfig::embedded_a5();
        let w_split = (w_total * split_permille / 1000).max(1);

        // Reference: warm w_total instructions in one go.
        let mut cont = machine(&cfg, &p);
        prop_assert!(hit_limit(cont.run_warming(w_total)));

        // Warm to the split point, snapshot, restore into a fresh
        // machine, finish warming there.
        let mut first = machine(&cfg, &p);
        prop_assert!(hit_limit(first.run_warming(w_split)));
        let snap = first.snapshot();
        let mut resumed = machine(&cfg, &p);
        resumed.restore(&snap).expect("restore mid-warming snapshot");
        prop_assert!(hit_limit(resumed.run_warming(w_total)));

        prop_assert_eq!(resumed.snapshot().to_bytes(), cont.snapshot().to_bytes());

        // And a detailed measured window from here is bit-identical.
        prop_assert!(hit_limit(resumed.run(w_total + measure)));
        prop_assert!(hit_limit(cont.run(w_total + measure)));
        prop_assert_eq!(&resumed.stats, &cont.stats);
        prop_assert_eq!(resumed.snapshot().to_bytes(), cont.snapshot().to_bytes());
    }
}
