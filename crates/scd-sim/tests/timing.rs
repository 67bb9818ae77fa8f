//! Directed timing tests: each microarchitectural cost in the model is
//! exercised in isolation with a tiny assembly kernel.

use scd_isa::{Asm, Reg};
use scd_sim::{Machine, SimConfig};

fn run(cfg: SimConfig, build: impl FnOnce(&mut Asm)) -> Machine {
    let mut a = Asm::new(0x1_0000);
    build(&mut a);
    a.li(Reg::A0, 0);
    a.li(Reg::A7, 0);
    a.ecall();
    let p = a.finish().expect("assembles");
    let mut m = Machine::new(cfg, &p);
    m.map("data", 0x10_0000, 1 << 20);
    m.run(10_000_000).expect("runs");
    m
}

fn cycles(cfg: SimConfig, build: impl FnOnce(&mut Asm)) -> u64 {
    run(cfg, build).stats.cycles
}

#[test]
fn hot_alu_loop_is_near_one_per_cycle() {
    // 100 iterations x (10 ALU + add + branch): once the I-cache and
    // predictor warm up, the core sustains ~1 IPC.
    let iters = 100u64;
    let m = run(SimConfig::embedded_a5(), |a| {
        a.li(Reg::T0, 0);
        a.li(Reg::T1, iters as i64);
        a.label("loop");
        for _ in 0..10 {
            a.addi(Reg::T2, Reg::T2, 1);
        }
        a.addi(Reg::T0, Reg::T0, 1);
        a.bne(Reg::T0, Reg::T1, "loop");
    });
    let insts = m.stats.instructions;
    let c = m.stats.cycles;
    assert!(c >= insts, "cycles {c} < insts {insts}");
    assert!(c < insts + insts / 4 + 200, "IPC too low: {c} cycles for {insts} insts");
}

#[test]
fn load_use_stall_charged() {
    let cfg = SimConfig::embedded_a5();
    let iters = 200u64;
    let kernel = |dependent: bool| {
        move |a: &mut Asm| {
            a.li(Reg::T0, 0x10_0000);
            a.li(Reg::S1, iters as i64);
            a.label("loop");
            for _ in 0..4 {
                a.ld(Reg::T1, 0, Reg::T0);
                if dependent {
                    a.addi(Reg::T2, Reg::T1, 1); // consumes the load
                } else {
                    a.addi(Reg::T2, Reg::T0, 1); // unrelated
                }
            }
            a.addi(Reg::S1, Reg::S1, -1);
            a.bnez(Reg::S1, "loop");
        }
    };
    let dep = cycles(cfg.clone(), kernel(true));
    let indep = cycles(cfg, kernel(false));
    // 4 load-use pairs per iteration, 2-cycle stall each (A5 D$ hit
    // latency), with a little slack for warm-up.
    let expected = iters * 4 * 2;
    assert!(
        dep >= indep + expected - expected / 10,
        "load-use pairs should stall ~2 cycles each: dep={dep} indep={indep}"
    );
}

#[test]
fn taken_branch_without_btb_entry_pays_penalty() {
    // A chain of never-taken branches is near-free; a chain of taken
    // branches costs the redirect penalty until the BTB warms up — and
    // with distinct PCs each executed once, it never warms up.
    let cfg = SimConfig::embedded_a5();
    let n = 100;
    let not_taken = cycles(cfg.clone(), |a| {
        for _ in 0..n {
            a.bne(Reg::ZERO, Reg::ZERO, "end"); // never taken
        }
        a.label("end");
    });
    let taken = cycles(cfg.clone(), |a| {
        for i in 0..n {
            let lbl = format!("l{i}");
            a.beq(Reg::ZERO, Reg::ZERO, &lbl); // always taken, unique PC
            a.label(&lbl);
        }
    });
    assert!(
        taken > not_taken + 2 * n,
        "cold taken branches must pay redirects: taken={taken} not_taken={not_taken}"
    );
}

#[test]
fn icache_misses_cost_memory_latency() {
    // A huge straight-line code path touches each line once: every 16th
    // instruction (64B line / 4B inst) misses.
    let cfg = SimConfig::embedded_a5();
    let n = 20_000; // 80 KB of code > 16 KB I$
    let m = run(cfg, |a| {
        for _ in 0..n {
            a.nop();
        }
    });
    let misses = m.stats.icache.misses;
    assert!(misses >= n / 16, "expected cold i-cache misses, got {misses}");
    assert!(m.stats.cycles > n + misses * 50, "miss latency must be charged");
}

#[test]
fn dcache_hits_after_warmup() {
    let m = run(SimConfig::embedded_a5(), |a| {
        a.li(Reg::T0, 0x10_0000);
        // Touch the same line 100 times.
        for _ in 0..100 {
            a.ld(Reg::T1, 0, Reg::T0);
        }
    });
    assert_eq!(m.stats.dcache.misses, 1);
    assert_eq!(m.stats.dcache.accesses, 100);
}

#[test]
fn dual_issue_pairs_independent_ops() {
    // A hot loop of independent pairs: the dual-issue core should
    // approach half the single-issue cycle count.
    let kernel = |a: &mut Asm| {
        a.li(Reg::S1, 300);
        a.label("loop");
        for _ in 0..8 {
            a.addi(Reg::T0, Reg::ZERO, 7);
            a.addi(Reg::T1, Reg::ZERO, 1);
        }
        a.addi(Reg::S1, Reg::S1, -1);
        a.bnez(Reg::S1, "loop");
    };
    let single = cycles(SimConfig::embedded_a5(), kernel);
    let dual = cycles(SimConfig::highend_a8(), kernel);
    assert!(
        (dual as f64) < single as f64 * 0.65,
        "dual-issue should approach half the cycles: {dual} vs {single}"
    );
}

#[test]
fn dual_issue_respects_raw_dependences() {
    let n = 400;
    let dual_dep = cycles(SimConfig::highend_a8(), |a| {
        for _ in 0..n {
            a.addi(Reg::T0, Reg::T0, 1); // chain: no pairing possible
        }
    });
    assert!(dual_dep >= n, "dependent chain cannot dual-issue: {dual_dep}");
}

#[test]
fn div_slower_than_mul_slower_than_add() {
    let mk = |op: scd_isa::AluOp| {
        cycles(SimConfig::embedded_a5(), move |a| {
            a.li(Reg::T0, 7);
            a.li(Reg::T1, 3);
            for _ in 0..100 {
                a.op(op, Reg::T2, Reg::T0, Reg::T1);
                a.addi(Reg::T3, Reg::T2, 1); // consume: expose latency
            }
        })
    };
    let add = mk(scd_isa::AluOp::Add);
    let mul = mk(scd_isa::AluOp::Mul);
    let div = mk(scd_isa::AluOp::Div);
    assert!(mul > add, "mul {mul} vs add {add}");
    assert!(div > mul, "div {div} vs mul {mul}");
}

#[test]
fn tlb_misses_charged_on_first_page_touch() {
    let m = run(SimConfig::embedded_a5(), |a| {
        a.li(Reg::T0, 0x10_0000);
        // Touch 64 distinct pages; a 10-entry TLB keeps missing.
        for p in 0..64 {
            a.ld(Reg::T1, 0, Reg::T0);
            let _ = p;
            a.li(Reg::T2, 4096);
            a.add(Reg::T0, Reg::T0, Reg::T2);
        }
    });
    assert!(m.stats.dtlb.misses >= 64, "dtlb misses {}", m.stats.dtlb.misses);
}

#[test]
fn return_address_stack_depth_matters() {
    // Nested calls deeper than the FPGA's 2-entry RAS mispredict on the
    // way out; the A5's 8-entry RAS nails them.
    let build = |a: &mut Asm| {
        a.li(Reg::S1, 200); // iterations
        a.label("iter");
        a.call("f1");
        a.addi(Reg::S1, Reg::S1, -1);
        a.bnez(Reg::S1, "iter");
        a.j("done");
        for d in 1..=6 {
            a.label(format!("f{d}"));
            if d < 6 {
                // save ra, call deeper, restore
                a.li(Reg::T5, 0x10_0000 + d as i64 * 64);
                a.sd(Reg::RA, 0, Reg::T5);
                a.call(format!("f{}", d + 1));
                a.li(Reg::T5, 0x10_0000 + d as i64 * 64);
                a.ld(Reg::RA, 0, Reg::T5);
            }
            a.ret();
        }
        a.label("done");
    };
    let deep_small_ras = run(SimConfig::fpga_rocket(), build);
    let deep_big_ras = run(SimConfig::embedded_a5(), build);
    let small = deep_small_ras.stats.ret.mispredicted;
    let big = deep_big_ras.stats.ret.mispredicted;
    assert!(
        small > big + 100,
        "2-entry RAS should mispredict deep returns: small={small} big={big}"
    );
}
