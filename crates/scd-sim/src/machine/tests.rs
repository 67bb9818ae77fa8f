//! Machine-level unit tests: functional ISA semantics, predictor
//! behavior, the SCD fast path, dual-issue pairing rules, watchdogs,
//! and checkpoint/resume. These exercise the stage modules through the
//! whole [`Machine`], which is the contract that matters — stage
//! boundaries are an internal detail.

use super::execute::alu;
use super::*;
use crate::snapshot::{Snapshot, SnapshotError};
use scd_isa::{AluOp, Asm, LoadOp, Rounding};

fn run_asm(build: impl FnOnce(&mut Asm)) -> (Exit, SimStats) {
    let mut a = Asm::new(0x1_0000);
    build(&mut a);
    let p = a.finish().expect("assemble");
    let mut m = Machine::new(SimConfig::embedded_a5(), &p);
    m.map("scratch", 0x10_0000, 0x1000);
    let exit = m.run(1_000_000).expect("run");
    (exit, m.stats.clone())
}

fn halt(a: &mut Asm, code_reg: Reg) {
    a.mv(Reg::A0, code_reg);
    a.li(Reg::A7, 0);
    a.ecall();
}

#[test]
fn arithmetic_loop() {
    let (exit, stats) = run_asm(|a| {
        a.li(Reg::A0, 0);
        a.li(Reg::T0, 0);
        a.li(Reg::T1, 100);
        a.label("loop");
        a.add(Reg::A0, Reg::A0, Reg::T0);
        a.addi(Reg::T0, Reg::T0, 1);
        a.bne(Reg::T0, Reg::T1, "loop");
        halt(a, Reg::A0);
    });
    assert_eq!(exit.code, 4950);
    assert!(stats.instructions > 300);
    assert!(stats.cycles >= stats.instructions);
}

#[test]
fn memory_roundtrip() {
    let (exit, _) = run_asm(|a| {
        a.li(Reg::T0, 0x10_0000);
        a.li(Reg::T1, -12345);
        a.sd(Reg::T1, 8, Reg::T0);
        a.ld(Reg::T2, 8, Reg::T0);
        a.sub(Reg::A1, Reg::T2, Reg::T1); // 0 if equal
        halt(a, Reg::A1);
    });
    assert_eq!(exit.code, 0);
}

#[test]
fn word_ops_sign_extend() {
    let (exit, _) = run_asm(|a| {
        a.li(Reg::T0, 0x7fff_ffff);
        a.opi(AluOp::Addw, Reg::T1, Reg::T0, 1); // overflows to i32::MIN
        halt(a, Reg::T1);
    });
    assert_eq!(exit.code as i64, i32::MIN as i64);
}

#[test]
fn fp_pipeline() {
    let (exit, _) = run_asm(|a| {
        a.li(Reg::T0, 9);
        a.fcvt_d_l(scd_isa::FReg::FT1, Reg::T0);
        a.fsqrt(scd_isa::FReg::FT2, scd_isa::FReg::FT1);
        a.fcvt_l_d(Reg::A1, scd_isa::FReg::FT2, Rounding::Rtz);
        halt(a, Reg::A1);
    });
    assert_eq!(exit.code, 3);
}

#[test]
fn call_return_uses_ras() {
    let (exit, stats) = run_asm(|a| {
        a.li(Reg::A1, 0);
        a.li(Reg::T1, 50);
        a.label("loop");
        a.call("inc");
        a.bne(Reg::A1, Reg::T1, "loop");
        halt(a, Reg::A1);
        a.label("inc");
        a.addi(Reg::A1, Reg::A1, 1);
        a.ret();
    });
    assert_eq!(exit.code, 50);
    // After warm-up the RAS should predict returns near-perfectly.
    assert!(stats.ret.executed >= 50);
    assert!(stats.ret.mispredicted <= 2, "return mispredictions: {}", stats.ret.mispredicted);
}

#[test]
fn branch_predictor_learns_loop() {
    let (_, stats) = run_asm(|a| {
        a.li(Reg::T0, 0);
        a.li(Reg::T1, 1000);
        a.label("loop");
        a.addi(Reg::T0, Reg::T0, 1);
        a.bne(Reg::T0, Reg::T1, "loop");
        halt(a, Reg::T0);
    });
    assert!(stats.cond.executed >= 1000);
    // A steady loop branch should be near-perfectly predicted.
    assert!(stats.cond.mispredicted < 20, "loop mispredictions: {}", stats.cond.mispredicted);
}

/// A tiny dispatcher: two "bytecodes" (0 and 1) handled in a loop.
/// Shared by the SCD fast-path test and the checkpoint tests (it
/// exercises every structure a snapshot must carry).
fn build_dispatcher(a: &mut Asm) {
    // Bytecode array at 0x10_0000: alternating 0,1 x 100, terminator 2.
    a.li(Reg::S1, 0x10_0000);
    a.li(Reg::T0, 0);
    a.li(Reg::T1, 100);
    a.label("fill");
    a.andi(Reg::T2, Reg::T0, 1);
    a.slli(Reg::T3, Reg::T0, 2);
    a.add(Reg::T3, Reg::T3, Reg::S1);
    a.sw(Reg::T2, 0, Reg::T3);
    a.addi(Reg::T0, Reg::T0, 1);
    a.bne(Reg::T0, Reg::T1, "fill");
    // terminator opcode 2 at index 100
    a.li(Reg::T2, 2);
    a.slli(Reg::T3, Reg::T0, 2);
    a.add(Reg::T3, Reg::T3, Reg::S1);
    a.sw(Reg::T2, 0, Reg::T3);

    // Interpreter setup: mask = 0x3f, a2 = counter
    a.li(Reg::T0, 0x3f);
    a.setmask(0, Reg::T0);
    a.li(Reg::A2, 0);
    a.la(Reg::S2, "jt");

    a.label("dispatch");
    a.load_op(LoadOp::Lw, 0, Reg::A0, 0, Reg::S1);
    a.addi(Reg::S1, Reg::S1, 4);
    a.bop(0);
    // slow path: bound check + table jump
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
    a.jte_flush();
    halt(a, Reg::A2);
    a.label("bad");
    a.inst(Inst::Ebreak);

    a.ro_label("jt");
    a.ro_addr("h0");
    a.ro_addr("h1");
    a.ro_addr("h2");
}

#[test]
fn scd_fast_path_basic() {
    let (exit, stats) = run_asm(build_dispatcher);
    // 50 zeros (+1 each) and 50 ones (+2 each) = 150
    assert_eq!(exit.code, 150);
    assert_eq!(stats.bop_executed, 101);
    // First occurrence of each opcode takes the slow path; the
    // remaining 98 dispatches of opcodes 0/1 hit.
    assert_eq!(stats.bop_hits, 98);
    assert_eq!(stats.jru_executed, 3);
    assert_eq!(stats.btb.jte_inserts, 3);
    assert_eq!(stats.btb.jte_flushes, 1);
}

#[test]
fn scd_disabled_falls_through() {
    let cfg = SimConfig::embedded_a5().without_scd();
    let mut a = Asm::new(0x1_0000);
    a.li(Reg::T0, 0x3f);
    a.setmask(0, Reg::T0);
    a.bop(0); // must fall through
    a.li(Reg::A0, 7);
    a.li(Reg::A7, 0);
    a.ecall();
    let p = a.finish().unwrap();
    let mut m = Machine::new(cfg, &p);
    let exit = m.run(100).unwrap();
    assert_eq!(exit.code, 7);
    assert_eq!(m.stats.bop_hits, 0);
}

#[test]
fn putchar_collects_output() {
    let (exit, _) = run_asm(|a| {
        a.li(Reg::A0, b'h' as i64);
        a.li(Reg::A7, 1);
        a.ecall();
        a.li(Reg::A0, b'i' as i64);
        a.ecall();
        a.li(Reg::A0, 0);
        a.li(Reg::A7, 0);
        a.ecall();
    });
    assert_eq!(exit.output, b"hi");
}

#[test]
fn inst_limit_errors() {
    let mut a = Asm::new(0x1_0000);
    a.label("spin");
    a.j("spin");
    let p = a.finish().unwrap();
    let mut m = Machine::new(SimConfig::embedded_a5(), &p);
    assert!(matches!(m.run(100), Err(SimError::InstLimit { .. })));
}

#[test]
fn mem_fault_reported() {
    let mut a = Asm::new(0x1_0000);
    a.li(Reg::T0, 0x9999_0000);
    a.ld(Reg::T1, 0, Reg::T0);
    let p = a.finish().unwrap();
    let mut m = Machine::new(SimConfig::embedded_a5(), &p);
    match m.run(100) {
        Err(SimError::Mem { fault, .. }) => assert_eq!(fault.addr, 0x9999_0000),
        other => panic!("expected memory fault, got {other:?}"),
    }
}

#[test]
fn alu_division_edge_cases() {
    assert_eq!(alu(AluOp::Div, 7, 0), u64::MAX);
    assert_eq!(alu(AluOp::Div, i64::MIN as u64, u64::MAX), i64::MIN as u64);
    assert_eq!(alu(AluOp::Rem, 7, 0), 7);
    assert_eq!(alu(AluOp::Rem, i64::MIN as u64, u64::MAX), 0);
    assert_eq!(alu(AluOp::Divu, 7, 0), u64::MAX);
    assert_eq!(alu(AluOp::Remu, 7, 0), 7);
    assert_eq!(alu(AluOp::Mulh, u64::MAX, u64::MAX), 0); // (-1)*(-1) >> 64
    assert_eq!(alu(AluOp::Mulhu, u64::MAX, 2), 1);
}

// ---- dual-issue pairing rules ----

/// Runs `build` under an A5 core widened to `width` issue slots and
/// returns the cycle count, so tests can compare single- vs
/// dual-issue timing of the same program.
fn cycles_at_width(width: usize, build: impl Fn(&mut Asm)) -> u64 {
    let mut a = Asm::new(0x1_0000);
    build(&mut a);
    halt(&mut a, Reg::ZERO);
    let p = a.finish().expect("assemble");
    let mut cfg = SimConfig::embedded_a5();
    cfg.issue_width = width;
    let mut m = Machine::new(cfg, &p);
    m.map("scratch", 0x10_0000, 0x1000);
    m.run(1_000_000).expect("run");
    m.stats.cycles
}

const DUAL_N: usize = 64;

#[test]
fn dual_issue_pairs_independent_alu_ops() {
    let regs = [Reg::T0, Reg::T1, Reg::T2, Reg::T3];
    let build = |a: &mut Asm| {
        for i in 0..DUAL_N {
            a.addi(regs[i % regs.len()], Reg::ZERO, i as i64);
        }
    };
    let single = cycles_at_width(1, build);
    let dual = cycles_at_width(2, build);
    // Every other instruction rides in the second slot: the block
    // roughly halves.
    assert!(
        single - dual >= (DUAL_N / 2 - 6) as u64,
        "independent ALU ops should pair: single {single}, dual {dual}"
    );
}

#[test]
fn dual_issue_raw_hazard_blocks_pairing() {
    let build = |a: &mut Asm| {
        a.addi(Reg::T0, Reg::ZERO, 0);
        for _ in 0..DUAL_N {
            a.addi(Reg::T0, Reg::T0, 1); // consumes the previous dest
        }
    };
    let single = cycles_at_width(1, build);
    let dual = cycles_at_width(2, build);
    // A dependent chain gains nothing from the second slot (the halt
    // epilogue may pair, hence the tiny slack).
    assert!(single - dual <= 2, "RAW chain must not pair: single {single}, dual {dual}");
}

#[test]
fn dual_issue_never_pairs_two_memory_ops() {
    let regs = [Reg::T1, Reg::T2, Reg::T3];
    let build = |a: &mut Asm| {
        a.li(Reg::T0, 0x10_0000);
        a.sd(Reg::ZERO, 0, Reg::T0);
        for i in 0..DUAL_N {
            // Alternate loads and stores: all independent, but two
            // memory ops share the single D-cache port.
            if i % 4 == 3 {
                a.sd(Reg::T1, 0, Reg::T0);
            } else {
                a.ld(regs[i % regs.len()], 0, Reg::T0);
            }
        }
    };
    let single = cycles_at_width(1, build);
    let dual = cycles_at_width(2, build);
    assert!(
        single - dual <= 2,
        "back-to-back memory ops must not pair: single {single}, dual {dual}"
    );
}

/// A dual-issue machine with an empty program, for driving
/// [`Machine::issue`] directly. End-to-end cycle counts can't
/// isolate a single pairing rule: whenever one instruction is
/// kicked out of the second slot, its successor slides in, so the
/// loop's steady-state cost is unchanged.
fn issue_fixture() -> Machine {
    let mut a = Asm::new(0x1_0000);
    halt(&mut a, Reg::ZERO);
    let p = a.finish().expect("assemble");
    let mut cfg = SimConfig::embedded_a5();
    cfg.issue_width = 2;
    Machine::new(cfg, &p)
}

#[test]
fn dual_issue_fp_source_hazard_blocks_pairing() {
    use scd_isa::{FReg, FpOp};
    let fmv = |rd: u8| Inst::FmvDX { rd: FReg::new(rd), rs1: Reg::T0 };
    let fadd = |rs: u8| Inst::FOp {
        op: FpOp::FaddD,
        rd: FReg::new(2),
        rs1: FReg::new(rs),
        rs2: FReg::new(rs),
    };

    // An FOp with independent sources rides in the second slot.
    let mut m = issue_fixture();
    m.issue(&StaticInfo::of(&fmv(1)));
    assert_eq!(m.issued_this_cycle, 1);
    let c = m.cycle;
    m.issue(&StaticInfo::of(&fadd(3)));
    assert_eq!((m.issued_this_cycle, m.cycle), (2, c), "independent FP op should pair");

    // Reading the FP register the previous instruction wrote must
    // push the consumer to the next cycle.
    let mut m = issue_fixture();
    m.issue(&StaticInfo::of(&fmv(1)));
    let c = m.cycle;
    m.issue(&StaticInfo::of(&fadd(1)));
    assert_eq!(m.issued_this_cycle, 1, "FP source hazard must block pairing");
    assert_eq!(m.cycle, c + 1);

    // The single-source arm (fmv.x.d) honors the same rule.
    let mut m = issue_fixture();
    m.issue(&StaticInfo::of(&fmv(1)));
    m.issue(&StaticInfo::of(&Inst::FmvXD { rd: Reg::T1, rs1: FReg::new(1) }));
    assert_eq!(m.issued_this_cycle, 1, "fmv.x.d reading prev FP dest must not pair");
    let mut m = issue_fixture();
    m.issue(&StaticInfo::of(&fmv(1)));
    m.issue(&StaticInfo::of(&Inst::FmvXD { rd: Reg::T1, rs1: FReg::new(3) }));
    assert_eq!(m.issued_this_cycle, 2, "fmv.x.d with an unrelated source pairs");
}

#[test]
fn dual_issue_width_caps_group_at_two() {
    let addi = |rd: Reg| Inst::OpImm { op: AluOp::Add, rd, rs1: Reg::ZERO, imm: 1 };
    let mut m = issue_fixture();
    m.issue(&StaticInfo::of(&addi(Reg::T0)));
    m.issue(&StaticInfo::of(&addi(Reg::T1)));
    assert_eq!(m.issued_this_cycle, 2);
    let c = m.cycle;
    m.issue(&StaticInfo::of(&addi(Reg::T2)));
    assert_eq!((m.issued_this_cycle, m.cycle), (1, c + 1), "third op starts a new group");
}

// ---- watchdog ----

#[test]
fn cycle_watchdog_catches_livelock() {
    let mut a = Asm::new(0x1_0000);
    a.label("spin");
    a.j("spin");
    let p = a.finish().unwrap();
    let mut m = Machine::new(SimConfig::embedded_a5(), &p);
    m.set_cycle_budget(10_000);
    match m.run(u64::MAX) {
        Err(SimError::Watchdog { kind: WatchdogKind::Cycles, instructions, cycles }) => {
            assert!(cycles >= 10_000, "budget not exhausted: {cycles}");
            assert!(instructions > 0);
            // Stats are finalized for the partial run.
            assert_eq!(m.stats.cycles, cycles);
            assert_eq!(m.stats.instructions, instructions);
        }
        other => panic!("expected cycle watchdog, got {other:?}"),
    }
}

#[test]
fn wall_watchdog_fires() {
    let mut a = Asm::new(0x1_0000);
    a.label("spin");
    a.j("spin");
    let p = a.finish().unwrap();
    let mut m = Machine::new(SimConfig::embedded_a5(), &p);
    m.set_wall_budget(std::time::Duration::ZERO);
    assert!(matches!(
        m.run(u64::MAX),
        Err(SimError::Watchdog { kind: WatchdogKind::WallClock, .. })
    ));
}

#[test]
fn wall_budget_is_a_deadline_across_calls() {
    let mut a = Asm::new(0x1_0000);
    a.label("spin");
    a.j("spin");
    let p = a.finish().unwrap();
    let mut m = Machine::new(SimConfig::embedded_a5(), &p);
    m.set_wall_budget(std::time::Duration::from_millis(20));
    assert!(matches!(m.run(4096), Err(SimError::InstLimit { .. })));
    std::thread::sleep(std::time::Duration::from_millis(30));
    // A second call does not restart the clock: the deadline has passed.
    assert!(matches!(
        m.run(8192),
        Err(SimError::Watchdog { kind: WatchdogKind::WallClock, instructions: 4096, .. })
    ));
}

#[test]
fn wall_budget_covers_sampled_fast_forward() {
    let mut a = Asm::new(0x1_0000);
    a.label("spin");
    a.j("spin");
    let p = a.finish().unwrap();
    let mut m = Machine::new(SimConfig::embedded_a5(), &p);
    m.set_wall_budget(std::time::Duration::from_millis(10));
    let plan = crate::SamplingPlan::new(1_000_000, 20_000, 20_000).unwrap();
    match m.run_sampled(500_000_000, &plan) {
        Err(SimError::Watchdog { kind: WatchdogKind::WallClock, instructions, .. }) => {
            assert!(instructions < 500_000_000);
        }
        other => panic!("expected the wall-clock watchdog, got {other:?}"),
    }
}

// ---- checkpoint / resume ----

fn dispatcher_machine(p: &scd_isa::Program) -> Machine {
    let mut m = Machine::new(SimConfig::embedded_a5(), p);
    m.map("scratch", 0x10_0000, 0x1000);
    m
}

#[test]
fn checkpoint_resume_reproduces_run_exactly() {
    let mut a = Asm::new(0x1_0000);
    build_dispatcher(&mut a);
    let p = a.finish().expect("assemble");

    // Reference: the uninterrupted run.
    let mut whole = dispatcher_machine(&p);
    let exit_whole = whole.run(1_000_000).expect("run");

    // Chunked: stop every 117 instructions, snapshot through the
    // byte codec, restore into a FRESH machine, continue.
    let mut m = dispatcher_machine(&p);
    let mut limit = 117;
    let exit_chunked = loop {
        match m.run(limit) {
            Ok(exit) => break exit,
            Err(SimError::InstLimit { .. }) => {
                let bytes = m.snapshot().to_bytes();
                let snap = Snapshot::from_bytes(&bytes).expect("decode");
                let mut fresh = dispatcher_machine(&p);
                fresh.restore(&snap).expect("restore");
                m = fresh;
                limit += 117;
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    };

    assert_eq!(exit_whole.code, exit_chunked.code);
    assert_eq!(exit_whole.output, exit_chunked.output);
    // The whole point: SimStats (cycles, every counter) bit-identical.
    assert_eq!(whole.stats, m.stats);
}

/// Regression: a checkpoint whose *byte framing* is intact but whose
/// word stream is short (truncated words, passing fingerprint) used to
/// panic while reading the word stream. It must surface as the
/// documented [`SnapshotError::Format`] instead.
#[test]
fn restore_rejects_truncated_word_stream() {
    let mut a = Asm::new(0x1_0000);
    build_dispatcher(&mut a);
    let p = a.finish().expect("assemble");
    let mut m = dispatcher_machine(&p);
    assert!(matches!(m.run(500), Err(SimError::InstLimit { .. })));

    let mut snap = m.snapshot();
    snap.words.truncate(snap.words.len() / 2);
    // Round-trip through the byte codec: the file is well-formed and the
    // fingerprint (config + program only) still matches.
    let snap = Snapshot::from_bytes(&snap.to_bytes()).expect("framing is intact");
    let mut fresh = dispatcher_machine(&p);
    assert!(matches!(fresh.restore(&snap), Err(SnapshotError::Format(_))));
}

#[test]
fn restore_rejects_wrong_program() {
    let mut a = Asm::new(0x1_0000);
    a.label("spin");
    a.j("spin");
    let p1 = a.finish().unwrap();
    let mut b = Asm::new(0x1_0000);
    b.nop();
    b.label("spin");
    b.j("spin");
    let p2 = b.finish().unwrap();
    let mut m1 = Machine::new(SimConfig::embedded_a5(), &p1);
    let snap = m1.snapshot();
    let mut m2 = Machine::new(SimConfig::embedded_a5(), &p2);
    assert!(matches!(m2.restore(&snap), Err(SnapshotError::Fingerprint { .. })));
}

#[test]
fn restore_rejects_missing_segment() {
    let mut a = Asm::new(0x1_0000);
    a.label("spin");
    a.j("spin");
    let p = a.finish().unwrap();
    let mut m1 = Machine::new(SimConfig::embedded_a5(), &p);
    m1.map("scratch", 0x10_0000, 0x1000);
    let snap = m1.snapshot();
    let mut m2 = Machine::new(SimConfig::embedded_a5(), &p); // no scratch
    assert!(matches!(m2.restore(&snap), Err(SnapshotError::Format(_))));
}

// ---- pinned snapshot bytes across the fast-forward seam ----

/// A guest that leaves a trace in every piece of state a fast-forward
/// leg carries: it fills 64 doublewords of the scratch segment, zeroes
/// the upper 32 again (so the segment's write high-water mark lies past
/// its zero-trimmed extent), arms `Rmask[0]`/`Rmask[1]` with `setmask`,
/// then dispatches forever through `lbu.op`/`lw.op`/`bop`/`jru`.
fn ff_state_program() -> scd_isa::Program {
    let mut a = Asm::new(0x1_0000);
    a.li(Reg::S1, 0x10_0000);
    a.li(Reg::T0, 0);
    a.li(Reg::T1, 64);
    a.label("fill");
    a.slli(Reg::T3, Reg::T0, 3);
    a.add(Reg::T3, Reg::T3, Reg::S1);
    a.addi(Reg::T2, Reg::T0, 0x101);
    a.sd(Reg::T2, 0, Reg::T3);
    a.addi(Reg::T0, Reg::T0, 1);
    a.bne(Reg::T0, Reg::T1, "fill");
    a.li(Reg::T0, 32);
    a.label("zero");
    a.slli(Reg::T3, Reg::T0, 3);
    a.add(Reg::T3, Reg::T3, Reg::S1);
    a.sd(Reg::ZERO, 0, Reg::T3);
    a.addi(Reg::T0, Reg::T0, 1);
    a.bne(Reg::T0, Reg::T1, "zero");
    a.li(Reg::T0, 0xff);
    a.setmask(0, Reg::T0);
    a.li(Reg::T0, 0xff0);
    a.setmask(1, Reg::T0);
    a.la(Reg::S2, "jt");
    a.li(Reg::S3, 0);
    a.label("loop");
    a.andi(Reg::T0, Reg::S3, 7);
    a.slli(Reg::T0, Reg::T0, 3);
    a.add(Reg::T0, Reg::T0, Reg::S1);
    a.load_op(LoadOp::Lw, 1, Reg::A1, 0, Reg::T0);
    a.load_op(LoadOp::Lbu, 0, Reg::A0, 0, Reg::T0);
    a.addi(Reg::S3, Reg::S3, 1);
    a.bop(0);
    a.andi(Reg::T1, Reg::A0, 1);
    a.slli(Reg::T1, Reg::T1, 3);
    a.add(Reg::T1, Reg::T1, Reg::S2);
    a.ld(Reg::T4, 0, Reg::T1);
    a.jru(0, Reg::T4);
    a.label("h0");
    a.addi(Reg::A2, Reg::A2, 1);
    a.j("loop");
    a.label("h1");
    a.addi(Reg::A2, Reg::A2, 3);
    a.j("loop");
    a.ro_label("jt");
    a.ro_addr("h0");
    a.ro_addr("h1");
    a.finish().expect("assemble")
}

/// Checkpoints are a file format, and the sampled scheduler snapshots
/// across fast-forward legs, so the snapshot of a machine stopped on
/// an instruction limit inside a fast-forward leg is pinned: the
/// architectural words and the SCD register block literally, the whole
/// word stream (caches, predictors, BTB/JTE words and counters) by
/// length and FNV-1a hash, and every segment's zero-trimmed bytes.
#[test]
fn snapshot_after_fast_forward_limit_is_pinned() {
    let p = ff_state_program();
    let mut m = Machine::new(SimConfig::embedded_a5(), &p);
    m.map("scratch", 0x10_0000, 0x1000);
    let plan = crate::SamplingPlan::parse("400:50:50").unwrap();
    // Legs: ff [0,300) warm [300,350) measure [350,400), ..., and the
    // fourth fast-forward leg [1200,1500) ends on the limit.
    match m.run_sampled(1_500, &plan) {
        Err(SimError::InstLimit { limit: 1_500 }) => {}
        other => panic!("expected InstLimit, got {other:?}"),
    }
    let snap = m.snapshot();
    let w = &snap.words;
    let nonzero_regs: Vec<(usize, u64)> =
        w[..32].iter().copied().enumerate().filter(|&(_, v)| v != 0).collect();
    assert_eq!(
        nonzero_regs,
        [
            (5, 7),
            (6, 0x100c0),
            (7, 320),
            (9, 0x10_0000),
            (10, 7),
            (11, 0x107),
            (12, 175),
            (18, 0x100c0),
            (19, 87),
            (28, 0x10_01f8),
            (29, 0x1008c),
        ]
    );
    assert!(w[32..64].iter().all(|&f| f == 0), "no FP register written");
    assert_eq!((w[64], w[65]), (0x10060, 262), "pc, cycle");
    // Per branch id: Rop.v, Rop, Rmask, rbop_pc, rop_ready (stamped with
    // the frozen cycle at the end of the leg); then next_flush_at.
    assert_eq!(
        &w[134..155],
        &[
            0, 7, 0xff, 0x10074, 262, //
            1, 0x100, 0xff0, 0, 262, //
            0, 0, 0, 0, 262, //
            0, 0, 0, 0, 262, //
            u64::MAX,
        ]
    );
    // The scaled estimate, in counter-table order.
    assert_eq!(
        &w[155..155 + crate::stats::NUM_COUNTERS],
        &[
            2620, 1500, 0, 210, 80, 90, 20, 100, 0, 0, 0, 0, 0, 30, 30, 100, 60, 40, 310, 30,
            1500, 0, 0, 290, 10, 0, 0, 0, 0, 1500, 0, 0, 290, 0, 0, 30, 0, 0, 0, 0, 0, 0,
        ]
    );
    let fnv = |bytes: &[u8]| crate::snapshot::fnv1a(crate::snapshot::FNV_OFFSET, bytes);
    let word_bytes: Vec<u8> = w.iter().flat_map(|x| x.to_le_bytes()).collect();
    assert_eq!((w.len(), fnv(&word_bytes)), (8240, 0xaf2f_5e12_66e0_bf0f));

    let scratch: Vec<u8> = (0x101..0x121u64).flat_map(u64::to_le_bytes).take(250).collect();
    let segs: Vec<(&str, u64, u64, usize, u64)> = snap
        .segments
        .iter()
        .map(|(name, base, size, data)| (name.as_str(), *base, *size, data.len(), fnv(data)))
        .collect();
    assert_eq!(
        segs,
        [
            ("text", 0x10000, 0x9c, 156, 0x9c9f_e7ba_64ad_e12c),
            ("rodata", 0x100c0, 0x10, 11, 0x9802_b86c_d9e8_e05f),
            ("scratch", 0x10_0000, 0x1000, 250, fnv(&scratch)),
        ]
    );
    assert_eq!(snap.segments[2].3, scratch);
    assert!(snap.output.is_empty());
}

// ---- pinned checkpoints for every checkpointed structure ----

/// A dispatcher whose handlers call one- and two-deep leaf functions,
/// so the RAS holds live entries, over a 64-opcode bytecode that wraps
/// around forever. Four handlers keep the BTB, the JTEs and both
/// predictors busy.
fn call_dispatch_program() -> scd_isa::Program {
    let mut a = Asm::new(0x1_0000);
    a.li(Reg::S1, 0x10_0000);
    a.li(Reg::T0, 0);
    a.li(Reg::T1, 64);
    a.label("fill");
    a.srli(Reg::T2, Reg::T0, 1);
    a.xor(Reg::T2, Reg::T2, Reg::T0);
    a.andi(Reg::T2, Reg::T2, 3);
    a.slli(Reg::T3, Reg::T0, 2);
    a.add(Reg::T3, Reg::T3, Reg::S1);
    a.sw(Reg::T2, 0, Reg::T3);
    a.addi(Reg::T0, Reg::T0, 1);
    a.bne(Reg::T0, Reg::T1, "fill");
    a.li(Reg::T0, 0x3f);
    a.setmask(0, Reg::T0);
    a.la(Reg::S2, "jt");
    a.li(Reg::T5, 64);
    a.label("dispatch");
    a.load_op(LoadOp::Lw, 0, Reg::A0, 0, Reg::S1);
    a.addi(Reg::S1, Reg::S1, 4);
    a.addi(Reg::T5, Reg::T5, -1);
    a.bnez(Reg::T5, "go");
    a.li(Reg::S1, 0x10_0000);
    a.li(Reg::T5, 64);
    a.label("go");
    a.bop(0);
    a.andi(Reg::A1, Reg::A0, 3);
    a.slli(Reg::T3, Reg::A1, 3);
    a.add(Reg::T3, Reg::T3, Reg::S2);
    a.ld(Reg::T4, 0, Reg::T3);
    a.jru(0, Reg::T4);
    a.label("h0");
    a.call("leaf1");
    a.j("dispatch");
    a.label("h1");
    a.call("leaf2");
    a.j("dispatch");
    a.label("h2");
    a.addi(Reg::A2, Reg::A2, 5);
    a.j("dispatch");
    a.label("h3");
    a.call("leaf2");
    a.addi(Reg::A2, Reg::A2, 1);
    a.j("dispatch");
    a.label("leaf1");
    a.addi(Reg::A2, Reg::A2, 1);
    a.ret();
    a.label("leaf2");
    a.mv(Reg::S4, Reg::RA);
    a.call("leaf1");
    a.mv(Reg::RA, Reg::S4);
    a.addi(Reg::A2, Reg::A2, 2);
    a.ret();
    a.ro_label("jt");
    a.ro_addr("h0");
    a.ro_addr("h1");
    a.ro_addr("h2");
    a.ro_addr("h3");
    a.finish().expect("assemble")
}

/// One config per optional or variant checkpoint block: the flush
/// quantum, Gshare with a fully-associative LRU BTB, L2 with dual
/// issue, the dedicated JTE table, ITTAGE, and the two-level BTB.
fn checkpoint_configs() -> [(&'static str, SimConfig); 6] {
    let mut flushing = SimConfig::embedded_a5();
    flushing.scd.flush_interval = Some(700);
    [
        ("a5+flush", flushing),
        ("rocket", SimConfig::fpga_rocket()),
        ("a8", SimConfig::highend_a8()),
        ("a5+jte-table", SimConfig::embedded_a5().with_dedicated_jte_table(64)),
        ("a5+ittage", SimConfig::embedded_a5().with_ittage()),
        (
            "a5+arm-like",
            SimConfig::embedded_a5().with_two_level_btb(crate::TwoLevelBtbConfig::arm_like()),
        ),
    ]
}

fn call_dispatch_machine(cfg: SimConfig, p: &scd_isa::Program) -> Machine {
    let mut m = Machine::new(cfg, p);
    m.map("scratch", 0x10_0000, 0x1000);
    m
}

/// Checkpoints are a file format: the snapshot of the call/return
/// dispatcher stopped mid-run in full detail is pinned, per config, by
/// its word count, the FNV-1a hash of its words and its byte length.
#[test]
fn snapshot_is_pinned_for_every_checkpointed_block() {
    let p = call_dispatch_program();
    let mut got = Vec::new();
    for (name, cfg) in checkpoint_configs() {
        let mut m = call_dispatch_machine(cfg, &p);
        assert!(matches!(m.run(5_000), Err(SimError::InstLimit { limit: 5_000 })), "{name}");
        assert!(m.stats.ret.executed > 0 && m.stats.bop_hits > 0, "{name}");
        let snap = m.snapshot();
        let word_bytes: Vec<u8> = snap.words.iter().flat_map(|x| x.to_le_bytes()).collect();
        let hash = crate::snapshot::fnv1a(crate::snapshot::FNV_OFFSET, &word_bytes);
        got.push((name, snap.words.len(), hash, snap.to_bytes().len()));
    }
    assert_eq!(
        got,
        [
            ("a5+flush", 8240, 0x36b4_6238_f107_0dcf, 66523),
            ("rocket", 5397, 0x7e86_ce59_e29a_a4e4, 43779),
            ("a8", 22963, 0xf0fd_ee88_b218_009b, 184307),
            ("a5+jte-table", 8508, 0xf124_cc9d_0274_1535, 68667),
            ("a5+ittage", 8240, 0xa902_9e62_85df_e119, 66523),
            ("a5+arm-like", 9415, 0x25f3_999a_3142_b3cd, 75923),
        ]
    );
}

/// Runs the call/return dispatcher on `m` from 5,000 retirements to the
/// first stop where the RAS holds two return addresses — inside `leaf1`
/// called from `leaf2`, so the next return pops through `top`. Returns
/// the snapshot there and the position of its RAS block: the length,
/// the stack slots, `top` and `depth`, followed only by ITTAGE's four
/// 256-entry tables (3 words an entry) and its 3 scalar words.
fn snapshot_inside_nested_calls(m: &mut Machine) -> (Snapshot, usize) {
    const ITTAGE_WORDS: usize = 1 + 4 * (1 + 256 * 3) + 3;
    let ras_words = 3 + m.cfg.ras_entries;
    (5_000..)
        .find_map(|limit| {
            assert!(matches!(m.run(limit), Err(SimError::InstLimit { .. })));
            let snap = m.snapshot();
            let ras = snap.words.len() - ITTAGE_WORDS - ras_words;
            assert_eq!(snap.words[ras], m.cfg.ras_entries as u64, "RAS length word");
            (snap.words[ras + ras_words - 1] == 2).then_some((snap, ras))
        })
        .expect("the guest nests calls")
}

/// Regression: a RAS `top` past the stack used to restore without
/// error, and the next return then indexed past the stack and panicked.
/// Load now range-checks `top` and `depth`.
#[test]
fn restore_rejects_ras_words_past_the_stack() {
    let p = call_dispatch_program();
    let mut m = call_dispatch_machine(SimConfig::embedded_a5(), &p);
    let (snap, ras) = snapshot_inside_nested_calls(&mut m);
    for (slot, value) in [(9, 1_000_000), (9, 8), (10, 9), (10, 1_000_000)] {
        let mut bad = snap.clone();
        bad.words[ras + slot] = value;
        let bad = Snapshot::from_bytes(&bad.to_bytes()).expect("framing is intact");
        let mut fresh = call_dispatch_machine(SimConfig::embedded_a5(), &p);
        assert!(
            matches!(fresh.restore(&bad), Err(SnapshotError::Format(_))),
            "RAS word {slot} = {value} must be rejected"
        );
    }
    // The intact snapshot restores and runs on through the returns.
    let mut fresh = call_dispatch_machine(SimConfig::embedded_a5(), &p);
    fresh.restore(&snap).expect("restore");
    let limit = fresh.stats.instructions + 100;
    assert!(matches!(fresh.run(limit), Err(SimError::InstLimit { .. })));
}

/// Records, while saving, the position of every word a load checks
/// (with the check's label) and of every `usize` word (labelled
/// "usize"): lengths, indices and counts, whether checked or not.
struct CheckedWords {
    save: crate::snapshot::Save,
    checked: std::cell::RefCell<Vec<(usize, String)>>,
}

impl crate::snapshot::Walk for CheckedWords {
    fn loading(&self) -> bool {
        false
    }

    fn raw(&mut self, v: &mut u64) -> Result<(), SnapshotError> {
        self.save.raw(v)
    }

    fn word<T>(&mut self, v: &mut T) -> Result<(), SnapshotError>
    where
        T: Copy + TryFrom<u64> + TryInto<u64>,
    {
        let mut w = (*v).try_into().ok().expect("every field fits a word");
        self.raw(&mut w)?;
        if std::any::type_name::<T>() == "usize" {
            self.checked.borrow_mut().push((self.save.0.len() - 1, "usize".to_string()));
        }
        Ok(())
    }

    fn check(&self, _: impl FnOnce() -> bool, what: &str) -> Result<(), SnapshotError> {
        self.checked.borrow_mut().push((self.save.0.len() - 1, what.to_string()));
        Ok(())
    }
}

/// Overwriting any one word of a real snapshot with a large value
/// either fails the restore with [`SnapshotError::Format`] or leaves a
/// machine that runs on for 2,000 retirements without panicking. The
/// snapshot is taken inside nested calls, so the RAS is live. Every
/// geometry, presence, index, BTB-kind and JTE-count word is tried;
/// the per-entry flag and counter words and the plain data words are
/// tried at a stride.
#[test]
fn single_word_corruption_never_panics() {
    const LARGE: u64 = 1_000_000;
    const STRIDE: usize = 23;
    let strided = ["cache line flags", "TLB entry flags", "predictor counter", "ITTAGE confidence"];
    let p = call_dispatch_program();
    for (name, cfg) in checkpoint_configs() {
        if !matches!(name, "rocket" | "a5+jte-table" | "a5+arm-like") {
            continue;
        }
        let mut m = call_dispatch_machine(cfg.clone(), &p);
        let (snap, _) = snapshot_inside_nested_calls(&mut m);
        let mut rec = CheckedWords { save: Default::default(), checked: Default::default() };
        m.walk(&mut rec).unwrap();
        assert_eq!(rec.save.0, snap.words, "{name}: recording walks the same words");
        let mut positions: Vec<usize> = rec
            .checked
            .into_inner()
            .into_iter()
            .filter(|(_, what)| !strided.contains(&what.as_str()))
            .map(|(pos, _)| pos)
            .chain((0..snap.words.len()).step_by(STRIDE))
            .collect();
        positions.sort_unstable();
        positions.dedup();
        let (mut rejected, mut ran) = (0, 0);
        for &pos in &positions {
            let mut bad = snap.clone();
            bad.words[pos] = LARGE;
            let mut fresh = call_dispatch_machine(cfg.clone(), &p);
            match fresh.restore(&bad) {
                Err(SnapshotError::Format(_)) => rejected += 1,
                Err(e) => panic!("{name}: word {pos}: unexpected {e}"),
                Ok(()) => {
                    let limit = fresh.stats.instructions + 2_000;
                    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        let _ = fresh.run(limit);
                    }));
                    assert!(run.is_ok(), "{name}: word {pos} = {LARGE} restored, then panicked");
                    ran += 1;
                }
            }
        }
        assert!(rejected > 0 && ran > 0, "{name}: {rejected} rejected, {ran} ran");
    }
}

/// Taking a snapshot leaves the machine unchanged: a run that snapshots
/// every 97 retirements ends with the same stats and the same final
/// snapshot bytes as one that does not, on the detailed and the
/// warming loops.
#[test]
fn taking_a_snapshot_changes_nothing() {
    let p = call_dispatch_program();
    for warming in [false, true] {
        let run_to_end = |snapshot_every: bool| {
            let mut m = call_dispatch_machine(SimConfig::embedded_a5(), &p);
            for limit in (97..6_000).step_by(97) {
                let res = if warming { m.run_warming(limit) } else { m.run(limit) };
                assert!(matches!(res, Err(SimError::InstLimit { .. })));
                if snapshot_every {
                    m.snapshot();
                }
            }
            let bytes = m.snapshot().to_bytes();
            (m.stats.clone(), bytes)
        };
        assert_eq!(run_to_end(true), run_to_end(false), "warming: {warming}");
    }
}
