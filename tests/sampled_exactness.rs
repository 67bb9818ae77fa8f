//! Tier-1 gates on the sampled run's architectural exactness: whatever
//! the cadence of fast-forward, warm and measure legs, a guest must end
//! in the same architectural state, with the same instruction count and
//! the same outcome, as the full-detail run of the same program.

use scd_isa::{Asm, FReg, LoadOp, Program, Reg, StoreOp};
use scd_ref::gen::{generate, GenConfig};
use scd_sim::{diff_architectural, Machine, SamplingPlan, SimConfig, SimError};

const SCRATCH: u64 = 0x10_0000;

/// Emits one load or store through t5.
type Access = fn(&mut Asm) -> &mut Asm;

/// Fills 100 doublewords of the scratch segment, then loads `addr` into
/// t5 and makes the access, which faults, then would halt.
fn faulting_program(access: Access, addr: u64) -> Program {
    let mut a = Asm::new(0x1_0000);
    a.li(Reg::S1, SCRATCH as i64);
    a.li(Reg::T0, 0);
    a.li(Reg::T1, 100);
    a.label("fill");
    a.slli(Reg::T3, Reg::T0, 3);
    a.add(Reg::T3, Reg::T3, Reg::S1);
    a.addi(Reg::T2, Reg::T0, 7);
    a.sd(Reg::T2, 0, Reg::T3);
    a.addi(Reg::T0, Reg::T0, 1);
    a.bne(Reg::T0, Reg::T1, "fill");
    a.li(Reg::T5, addr as i64);
    access(&mut a);
    a.li(Reg::A7, 0);
    a.ecall();
    a.finish().expect("assemble")
}

fn machine(cfg: &SimConfig, p: &Program) -> Machine {
    let mut m = Machine::new(cfg.clone(), p);
    m.map("scratch", SCRATCH, 0x1000);
    m
}

/// A load or store that faults inside a fast-forward leg reports the
/// same error at the same instruction count, pc and memory as full
/// detail, for unmapped addresses and for accesses that would wrap
/// past 2^64.
#[test]
fn faults_inside_fast_forward_match_full_detail() {
    let accesses: [(&str, Access); 8] = [
        ("lb", |a| a.load(LoadOp::Lb, Reg::A0, 0, Reg::T5)),
        ("lw", |a| a.load(LoadOp::Lw, Reg::A0, 0, Reg::T5)),
        ("ld", |a| a.load(LoadOp::Ld, Reg::A0, 0, Reg::T5)),
        ("lwu.op", |a| a.load_op(LoadOp::Lwu, 0, Reg::A0, 0, Reg::T5)),
        ("sb", |a| a.store(StoreOp::Sb, Reg::T2, 0, Reg::T5)),
        ("sw", |a| a.store(StoreOp::Sw, Reg::T2, 0, Reg::T5)),
        ("sd", |a| a.store(StoreOp::Sd, Reg::T2, 0, Reg::T5)),
        ("fsd", |a| a.fsd(FReg::new(1), 0, Reg::T5)),
    ];
    let cfg = SimConfig::embedded_a5();
    for addr in [0x4000_0000, u64::MAX - 3] {
        for (name, access) in accesses {
            let what = format!("{name} at {addr:#x}");
            let p = faulting_program(access, addr);
            let mut full = machine(&cfg, &p);
            let full_err = full.run(1_000_000).expect_err("the access faults");
            assert!(
                matches!(full_err, SimError::Mem { .. }),
                "{what}: {full_err:?}"
            );
            let n = full.stats.instructions;

            // Warm and measure 50 each, and a period that puts the
            // faulting instruction (number n, index n - 1) inside the
            // second fast-forward leg, [period, 2 * period - 100).
            let period = n / 2 + 100;
            assert!(period < n && n - 1 < 2 * period - 100, "{what}: n = {n}");
            let plan = SamplingPlan::new(period, 50, 50).unwrap();
            let mut sampled = machine(&cfg, &p);
            let sampled_err = sampled
                .run_sampled(1_000_000, &plan)
                .expect_err("the access faults");

            assert_eq!(
                format!("{sampled_err:?}"),
                format!("{full_err:?}"),
                "{what}"
            );
            assert_eq!(sampled.stats.instructions, n, "{what}");
            assert_eq!(diff_architectural(&full, &sampled), None, "{what}");
        }
    }
}

/// Generated interpreter-shaped programs with SCD off (so `bop` never
/// redirects and the instruction stream cannot depend on the BTB) end
/// sampled exactly as in full detail: same outcome, same instruction
/// count, same registers, pc, output and memory — also when the guest
/// exits inside a fast-forward leg.
#[test]
fn generated_programs_end_sampled_as_in_full_detail() {
    let mut cfg = SimConfig::embedded_a5();
    cfg.scd.enabled = false;
    let plan = SamplingPlan::parse("400:50:50").unwrap();
    for seed in 0..200 {
        let g = generate(&GenConfig::from_seed(seed));
        let build = || {
            let mut m = Machine::new(cfg.clone(), &g.program);
            m.map("fuzzdata", g.data_base, g.data_size);
            m
        };
        let mut full = build();
        let full_exit = full.run(2_000_000).expect("generated programs exit");
        let mut sampled = build();
        let (sampled_exit, _) = sampled
            .run_sampled(2_000_000, &plan)
            .expect("generated programs exit");
        assert_eq!(sampled_exit, full_exit, "seed {seed}");
        assert_eq!(
            sampled.stats.instructions, full.stats.instructions,
            "seed {seed}"
        );
        assert_eq!(diff_architectural(&full, &sampled), None, "seed {seed}");
    }
}
