//! `RefCore::run` (threaded code over pre-decoded blocks) must leave the
//! core exactly where a `RefCore::step` loop would: registers, FP
//! registers, pc, SCD state, retirement count, output, memory, the JTE
//! map as `bop` sees it, and the returned result. Generated programs
//! (uniform and aliasing bias) are cut at arbitrary budgets and in
//! repeated chunks; hand-built programs cover
//! every budget cut of a small dispatch loop, faults in the middle of a
//! straight run, bad jump targets, undecodable holes and `jte.flush`.

use proptest::prelude::*;
use scd_isa::{encode, Asm, BranchOp, Inst, LoadOp, Program, Reg};
use scd_ref::gen::{generate, GenConfig};
use scd_ref::{ArchState, BopHint, GuestMemory, RefCore, RefError};

const TEXT: u64 = 0x1_0000;
const DATA: u64 = 0x8_0000;

/// The reference semantics `run` must match: one `step` per retirement.
fn step_loop(c: &mut RefCore, max_insts: u64) -> Result<u64, RefError> {
    while c.instructions < max_insts {
        if let Some(code) = c.step(BopHint::Auto)?.exited {
            return Ok(code);
        }
    }
    Err(RefError::InstLimit { limit: max_insts })
}

/// Everything architecturally observable about a core, JTE map included
/// (through what `bop` would do on each bid).
fn observe(c: &RefCore) -> impl PartialEq + std::fmt::Debug {
    let jtes: Vec<_> = (0..4).map(|b| c.bop_auto_target(b)).collect();
    (c.arch.clone(), c.instructions, c.output.clone(), jtes, c.mem.snapshot_segments())
}

/// Runs `core` both ways under `max_insts` and asserts the outcomes are
/// identical. Returns the step loop's result.
fn check(core: &RefCore, max_insts: u64, what: &str) -> Result<u64, RefError> {
    let mut threaded = core.clone();
    let mut stepped = core.clone();
    let r_run = threaded.run(max_insts);
    let r_step = step_loop(&mut stepped, max_insts);
    assert_eq!(r_run, r_step, "{what}: result, budget {max_insts}");
    assert_eq!(observe(&threaded), observe(&stepped), "{what}: state, budget {max_insts}");
    r_step
}

/// Runs `core` both ways in repeated chunks of the given sizes (cycled),
/// clearing `Rop.v` between chunks the way the fast-forward leg applies
/// the context-switch flush quantum, until both stop on something other
/// than the budget.
fn check_chunked(core: &RefCore, chunks: &[u64], what: &str) {
    let mut threaded = core.clone();
    let mut stepped = core.clone();
    for (k, &chunk) in chunks.iter().cycle().enumerate() {
        let stop = threaded.instructions + chunk;
        let r_run = threaded.run(stop);
        let r_step = step_loop(&mut stepped, stop);
        assert_eq!(r_run, r_step, "{what}: chunk {k} result");
        assert_eq!(observe(&threaded), observe(&stepped), "{what}: chunk {k} state");
        if !matches!(r_run, Err(RefError::InstLimit { .. })) {
            return;
        }
        threaded.flush_rop();
        stepped.flush_rop();
    }
}

fn generated(seed: u64, aliasing: bool) -> RefCore {
    let cfg =
        if aliasing { GenConfig::aliasing_from_seed(seed) } else { GenConfig::from_seed(seed) };
    let g = generate(&cfg);
    let mut c = RefCore::from_program(&g.program, true, 4);
    c.mem.add_segment("fuzzdata", g.data_base, g.data_size);
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn run_matches_step_loop_on_generated_programs(
        seed in any::<u64>(),
        aliasing in any::<bool>(),
        cut in 0u64..1000,
    ) {
        let c = generated(seed, aliasing);
        let mut full = c.clone();
        let r = step_loop(&mut full, 4_000_000);
        prop_assert!(r.is_ok(), "seed {seed}: generated program must exit: {r:?}");
        let _ = check(&c, 4_000_000, "to exit");
        // A budget cut anywhere in the run: mid-block or on a terminator.
        let _ = check(&c, full.instructions * cut / 1000, "cut");
    }

    #[test]
    fn chunked_run_matches_step_loop_on_generated_programs(
        seed in any::<u64>(),
        aliasing in any::<bool>(),
        chunks in prop::collection::vec(1u64..5000, 1..6),
    ) {
        check_chunked(&generated(seed, aliasing), &chunks, "chunked");
    }
}

/// A two-handler dispatch loop in the paper's idiom (`lbu.op`, `bop`,
/// `jru`) with `jal`/`jalr` calls, a `jte.flush`, putchar `ecall`s, loads,
/// stores and a backward branch.
fn dispatch_program() -> Program {
    let mut a = Asm::new(TEXT);
    a.la(Reg::S0, "bytes");
    a.la(Reg::S3, "table");
    a.li(Reg::S5, DATA as i64);
    a.li(Reg::T6, 0xFF);
    a.setmask(0, Reg::T6);
    a.li(Reg::S2, 0);
    a.label("fetch");
    a.slli(Reg::T0, Reg::S2, 3);
    a.add(Reg::T0, Reg::S0, Reg::T0);
    a.load_op(LoadOp::Lbu, 0, Reg::T1, 0, Reg::T0);
    a.bop(0);
    a.slli(Reg::T2, Reg::T1, 3);
    a.add(Reg::T2, Reg::T2, Reg::S3);
    a.ld(Reg::T3, 0, Reg::T2);
    a.jru(0, Reg::T3);
    a.label("h0"); // opcode 0: halt
    a.ld(Reg::A0, 0, Reg::S5);
    a.li(Reg::A7, 0);
    a.ecall();
    a.label("h1"); // opcode 1: count, print, advance
    a.call("bump");
    a.li(Reg::A0, b'.' as i64);
    a.li(Reg::A7, 1);
    a.ecall();
    a.addi(Reg::S2, Reg::S2, 1);
    a.j("fetch");
    a.label("h2"); // opcode 2: flush the JTEs, loop through a branch
    a.jte_flush();
    a.addi(Reg::S2, Reg::S2, 1);
    a.bne(Reg::S2, Reg::ZERO, "fetch");
    a.label("bump");
    a.ld(Reg::T4, 0, Reg::S5);
    a.addi(Reg::T4, Reg::T4, 3);
    a.sd(Reg::T4, 0, Reg::S5);
    a.ret();
    a.ro_label("bytes");
    for b in [1u64, 2, 1, 1, 2, 1, 1, 0] {
        a.ro_word(b);
    }
    a.ro_label("table");
    a.ro_addr("h0");
    a.ro_addr("h1");
    a.ro_addr("h2");
    a.finish().expect("assembles")
}

fn core_of(p: &Program) -> RefCore {
    let mut c = RefCore::from_program(p, true, 4);
    c.mem.add_segment("data", DATA, 64);
    c
}

#[test]
fn every_budget_cut_of_a_dispatch_loop_matches() {
    let c = core_of(&dispatch_program());
    let mut full = c.clone();
    assert_eq!(step_loop(&mut full, 100_000), Ok(15));
    assert_eq!(full.output, b".....");
    for budget in 0..=full.instructions + 1 {
        let _ = check(&c, budget, "dispatch");
    }
    for chunk in 1..=7 {
        check_chunked(&c, &[chunk], "dispatch chunks");
    }
    check_chunked(&c, &[3, 1, 9, 2], "dispatch mixed chunks");
}

/// Straight-line ALU work, then an access to `addr` from register t0.
fn faulting_access(addr: i64, store: bool) -> RefCore {
    let mut a = Asm::new(TEXT);
    a.li(Reg::T1, 5);
    a.addi(Reg::T1, Reg::T1, 1);
    a.li(Reg::T0, addr);
    a.xori(Reg::T2, Reg::T1, 3);
    if store {
        a.sd(Reg::T1, 0, Reg::T0);
    } else {
        a.ld(Reg::T1, 0, Reg::T0);
    }
    a.addi(Reg::T1, Reg::T1, 1);
    a.li(Reg::A7, 0);
    a.ecall();
    core_of(&a.finish().unwrap())
}

#[test]
fn a_fault_mid_run_stops_at_the_exact_pc_and_count() {
    for (addr, store) in [(0x9999, false), (0x9999, true), (-8, false), (-4, true)] {
        let c = faulting_access(addr, store);
        let r = check(&c, 1_000, "fault");
        let Err(RefError::Mem { pc, fault }) = r else {
            panic!("expected a memory fault, got {r:?}");
        };
        assert_eq!((fault.addr, fault.write), (addr as u64, store));
        let mut t = c.clone();
        let _ = t.run(1_000);
        assert_eq!(t.arch.pc, pc, "pc rests on the faulting instruction");
        assert_eq!(t.inst_at(pc).map(|i| i.is_load() || i.is_store()), Some(true));
        // Every cut before the fault is a budget stop, not a fault.
        for budget in 0..=t.instructions + 1 {
            let _ = check(&c, budget, "fault cuts");
        }
    }
}

#[test]
fn bad_jump_targets_fault_where_the_step_loop_does() {
    // jalr to a misaligned address, to below the text, to past its end;
    // a jal and a branch whose direct targets leave the text.
    let indirect = |target: i64| {
        let mut a = Asm::new(TEXT);
        a.li(Reg::T0, target);
        a.addi(Reg::T1, Reg::T1, 1);
        a.inst(Inst::Jalr { rd: Reg::RA, rs1: Reg::T0, offset: 0 });
        a.ecall();
        a.finish().unwrap()
    };
    let direct = |inst: Inst| {
        let mut a = Asm::new(TEXT);
        a.li(Reg::T1, 1);
        a.inst(inst);
        a.ecall();
        a.finish().unwrap()
    };
    let programs = [
        indirect(TEXT as i64 + 6),
        indirect(TEXT as i64 + 4 * 100),
        indirect(0x40),
        direct(Inst::Jal { rd: Reg::RA, offset: 4096 }),
        direct(Inst::Jal { rd: Reg::ZERO, offset: -64 }),
        direct(Inst::Branch { op: BranchOp::Bne, rs1: Reg::T1, rs2: Reg::ZERO, offset: 2046 }),
    ];
    for p in &programs {
        let c = core_of(p);
        let r = check(&c, 100, "bad target");
        assert!(matches!(r, Err(RefError::PcOutOfRange { .. })), "{r:?}");
        for budget in 0..6 {
            let _ = check(&c, budget, "bad target cuts");
        }
    }
}

#[test]
fn falling_off_the_end_of_the_text_faults_at_its_end() {
    let mut a = Asm::new(TEXT);
    a.li(Reg::T0, 1);
    a.addi(Reg::T0, Reg::T0, 1);
    let p = a.finish().unwrap();
    let r = check(&core_of(&p), 100, "fall off");
    assert_eq!(r, Err(RefError::PcOutOfRange { pc: p.text_end() }));
}

#[test]
fn from_state_holes_fault_only_when_reached() {
    let mut a = Asm::new(TEXT);
    a.li(Reg::T0, 7);
    a.beq(Reg::ZERO, Reg::ZERO, "over");
    a.nop(); // becomes a hole that is jumped over
    a.label("over");
    a.addi(Reg::T0, Reg::T0, 1);
    a.nop(); // becomes a hole that is reached
    a.ecall();
    let p = a.finish().unwrap();
    let hole = 0xFFFF_FFFFu32;
    assert!(scd_isa::decode(hole).is_err());
    let nop =
        encode(Inst::OpImm { op: scd_isa::AluOp::Add, rd: Reg::ZERO, rs1: Reg::ZERO, imm: 0 })
            .unwrap();
    let text: Vec<u8> = p
        .words
        .iter()
        .map(|&w| if w == nop { hole } else { w })
        .flat_map(u32::to_le_bytes)
        .collect();
    let mut mem = GuestMemory::from_program(&p);
    mem.write_bytes(TEXT, &text);
    mem.add_segment("data", DATA, 64);
    let arch = ArchState { pc: TEXT, ..ArchState::default() };
    let c = RefCore::from_state(mem, arch, true, 4);
    let r = check(&c, 100, "holes");
    let Err(RefError::BadInst { pc }) = r else {
        panic!("expected the reached hole to fault, got {r:?}");
    };
    assert_eq!(pc, p.text_end() - 8);
    for budget in 0..8 {
        let _ = check(&c, budget, "hole cuts");
    }
}

/// The pinned lockstep corpus: the programs that once exposed an
/// executor divergence, with SCD on and off, run whole and in chunks.
#[test]
fn pinned_corpus_runs_identically() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/lockstep");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("corpus dir exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "repro"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "the pinned corpus must not be empty");
    for path in &paths {
        let text = std::fs::read_to_string(path).expect("readable reproducer");
        let repro = scd_ref::corpus::load(&text).expect("pinned reproducer parses");
        for scd in [true, false] {
            let mut c = RefCore::from_program(&repro.program, scd, 4);
            c.mem.add_segment("fuzzdata", repro.data_base, repro.data_size);
            let what = format!("{} scd={scd}", path.display());
            let _ = check(&c, 2_000_000, &what);
            check_chunked(&c, &[997, 64, 4093], &what);
        }
    }
}

/// `auipc` values are resolved when the text is lowered, and a `jalr`
/// whose link register is its base must jump through the old value.
#[test]
fn pc_relative_values_and_self_linking_jumps_match() {
    let mut a = Asm::new(TEXT);
    a.inst(Inst::Auipc { rd: Reg::T0, imm: 4096 });
    a.inst(Inst::Lui { rd: Reg::T1, imm: 4096 });
    a.sub(Reg::T0, Reg::T0, Reg::T1);
    a.addi(Reg::T0, Reg::T0, 24); // t0 = address of "target"
    a.inst(Inst::Jalr { rd: Reg::T0, rs1: Reg::T0, offset: 0 });
    a.li(Reg::A7, 0); // skipped
    a.label("target");
    a.mv(Reg::A0, Reg::T0);
    a.li(Reg::A7, 0);
    a.ecall();
    let p = a.finish().unwrap();
    let c = core_of(&p);
    assert_eq!(p.sym("target"), TEXT + 24);
    assert_eq!(check(&c, 100, "auipc/jalr"), Ok(TEXT + 20));
    for budget in 0..8 {
        let _ = check(&c, budget, "auipc/jalr cuts");
    }
}
