//! Reproduces the paper's Figure 6 running example: the BTB state as
//! SCD executes — the slow path inserting JTEs via `jru`, the fast path
//! hitting via `bop`, and `jte.flush` clearing JTEs while sparing
//! ordinary BTB entries.
//!
//! ```text
//! cargo run --release --example fig6_walkthrough
//! ```

use scd::scd_isa::{Asm, LoadOp, Reg};
use scd::scd_sim::{EntryKind, Machine, SimConfig};

/// A micro-interpreter with three opcodes: 0 = increment, 2 = exit,
/// 3 = flush-then-exit. Runs the given bytecode stream to completion.
fn run_interp(bytecodes: &[u32]) -> Machine {
    let mut a = Asm::new(0x1_0000);
    a.li(Reg::S1, 0x10_0000);
    a.li(Reg::T0, 0x3F);
    a.setmask(0, Reg::T0);
    // Warm-up loop: puts an ordinary B entry in the BTB, like the two
    // valid BTB entries of Fig. 6(a)'s initial state.
    a.li(Reg::T1, 4);
    a.label("warm");
    a.addi(Reg::T1, Reg::T1, -1);
    a.bnez(Reg::T1, "warm");

    // The dispatch loop of Fig. 4.
    a.label("dispatch");
    a.load_op(LoadOp::Lwu, 0, Reg::A0, 0, Reg::S1);
    a.addi(Reg::S1, Reg::S1, 4);
    a.bop(0);
    a.andi(Reg::A1, Reg::A0, 0x3F);
    a.slli(Reg::T1, Reg::A1, 3);
    a.la(Reg::T2, "jt");
    a.add(Reg::T1, Reg::T1, Reg::T2);
    a.ld(Reg::T3, 0, Reg::T1);
    a.jru(0, Reg::T3);

    a.label("h_incr"); // opcode 0: OP_LOAD stand-in
    a.addi(Reg::A2, Reg::A2, 1);
    a.j("dispatch");
    a.label("h_exit"); // opcode 2: leave the loop without flushing
    a.mv(Reg::A0, Reg::A2);
    a.li(Reg::A7, 0);
    a.ecall();
    a.label("h_exit_flush"); // opcode 3: Fig. 6(d) — jte.flush on exit
    a.jte_flush();
    a.mv(Reg::A0, Reg::A2);
    a.li(Reg::A7, 0);
    a.ecall();

    a.ro_label("jt");
    a.ro_addr("h_incr");
    a.ro_addr("h_incr");
    a.ro_addr("h_exit");
    a.ro_addr("h_exit_flush");

    let p = a.finish().expect("assembles");
    let mut m = Machine::new(SimConfig::fpga_rocket(), &p);
    m.map("data", 0x10_0000, 4096);
    for (i, &bc) in bytecodes.iter().enumerate() {
        m.mem_mut().write(0x10_0000 + 4 * i as u64, 4, bc.into()).expect("mapped");
    }
    m.run(100_000).expect("halts");
    m
}

fn show(m: &Machine, caption: &str) {
    println!("-- {caption}");
    for (kind, key, target) in m.btb().snapshot() {
        match kind {
            EntryKind::Jte => println!(
                "   V=1 J/B=J  opcode {key:>5?}      -> target {target:#x}   (jump table entry)"
            ),
            EntryKind::Pc => println!(
                "   V=1 J/B=B  pc>>2 {key:#7x} -> target {target:#x}   (BTB entry)"
            ),
            EntryKind::Vbbi => println!(
                "   V=1 J/B=V  hash  {key:#7x} -> target {target:#x}   (VBBI entry)"
            ),
        }
    }
    println!(
        "   [bop executed {}, bop hits {}, jru JTE inserts {}, jte.flush count {}]\n",
        m.stats.bop_executed, m.stats.bop_hits, m.stats.btb.jte_inserts, m.stats.btb.jte_flushes
    );
}

fn main() {
    println!("Figure 6 walk-through: the life cycle of jump table entries in the BTB\n");

    // (b) Step 1, slow path: the first OP_LOAD misses in bop; the slow
    // path runs and jru inserts the (opcode 0 -> handler) JTE. The exit
    // bytecode's dispatch also takes the slow path and inserts its JTE.
    show(
        &run_interp(&[0, 2]),
        "(b) slow path: first OP_LOAD dispatch missed in bop; jru inserted its JTE",
    );

    // (c) Step 2, fast path: a second OP_LOAD hits the freshly cached
    // JTE and bop short-circuits straight to the handler.
    show(
        &run_interp(&[0, 0, 2]),
        "(c) fast path: the second OP_LOAD dispatch hit in bop (1 short-circuit)",
    );

    // (d) jte.flush at loop exit: all JTEs invalidated, ordinary BTB
    // entries (the warm-up loop's branch) survive.
    show(
        &run_interp(&[0, 0, 3]),
        "(d) jte.flush on exit: JTEs gone, BTB entries survive",
    );
}
