//! The LVM guest interpreter, written in simulated assembly.
//!
//! This is the reproduction of the paper's Lua interpreter: a canonical
//! fetch/decode/bound-check/table-jump dispatch loop (Fig. 1b) over 47
//! register-bytecode handlers, in three builds — baseline, jump-threaded
//! (Fig. 1c) and SCD-transformed (Fig. 4).

use crate::common::{arm_label, label_name, regs, Guest, GuestOptions, Scheme};
use crate::layout::{self, Image};
use luma::lvm::bytecode::{builtin_id, Op, NUM_OPS};
use scd_isa::{Asm, FReg, LoadOp, Reg, Rounding};
use scd_sim::{Annotations, VbbiHint};

const A0: Reg = Reg::A0;
const A1: Reg = Reg::A1;
const T0: Reg = Reg::T0;
const T1: Reg = Reg::T1;
const T2: Reg = Reg::T2;
const T3: Reg = Reg::T3;
const T4: Reg = Reg::T4;
const T5: Reg = Reg::T5;
const T6: Reg = Reg::T6;
const FT0: FReg = FReg::FT0;
const FT1: FReg = FReg::FT1;
const FT2: FReg = FReg::FT2;
const FT3: FReg = FReg::FT3;
const FT4: FReg = FReg::FT4;

/// Raw bits of 2^53 as f64 (the integral-float threshold used by the
/// convert-based floor).
const TWO_POW_53_BITS: i64 = 0x4340_0000_0000_0000;

struct Builder<'i> {
    a: Asm,
    img: &'i Image,
    scheme: Scheme,
    opts: GuestOptions,
    fresh: u32,
    ann: Annotations,
}

impl<'i> Builder<'i> {
    fn fresh(&mut self, p: &str) -> String {
        self.fresh += 1;
        label_name(&[p, "_"], self.fresh)
    }

    /// The production-weight bookkeeping of the fetch block: hook check
    /// (Lua's `vmfetch` trace hook) + retired-bytecode counter. The hook
    /// stub is emitted later, after the enclosing site's terminal jump.
    fn emit_bookkeeping(&mut self, stub: &str) {
        self.a.lbu(T6, layout::CTL_HOOK_FLAG, regs::CTL);
        self.a.bnez(T6, stub);
        self.a.ld(T6, layout::CTL_DISPATCH_COUNT, regs::CTL);
        self.a.addi(T6, T6, 1);
        self.a.sd(T6, layout::CTL_DISPATCH_COUNT, regs::CTL);
    }

    /// The cold hook stub: stands in for the out-of-line hook machinery
    /// a production interpreter carries next to every fetch site. It is
    /// never executed with the hook flag off (and traps if it ever is),
    /// but it occupies instruction-cache space, as the real thing does.
    fn emit_hook_stub(&mut self, stub: &str) {
        self.a.label(stub);
        // Plausible spill sequence (cold).
        for k in 0..6 {
            self.a.sd(Reg::new(10 + k), -8 * (k as i64 + 1), Reg::SP);
        }
        for k in 0..6 {
            self.a.li(Reg::new(10 + k), k as i64);
        }
        for k in 0..6 {
            self.a.ld(Reg::new(10 + k), -8 * (k as i64 + 1), Reg::SP);
        }
        self.a.inst(scd_isa::Inst::Ebreak);
    }

    /// Emits one dispatch site. `site` must be unique; the common site is
    /// named `dispatch`. Returns nothing; updates annotations.
    fn emit_dispatch_site(&mut self, site: &str) {
        let start = self.a.here();
        let stub = self.fresh(&["hookstub_", site].concat());
        let bad = self.fresh(&["badop_", site].concat());
        let scd = self.scheme == Scheme::Scd;

        if self.opts.production_weight && !(scd && self.opts.scheduled_fetch) {
            self.emit_bookkeeping(&stub);
        }
        // Fetch (Fig. 1b lines 2-5 / Fig. 4 line 3): the bytecode load
        // carries the `.op` suffix in the SCD build.
        if scd {
            self.a.load_op(LoadOp::Lwu, 0, A0, 0, regs::VPC);
        } else {
            self.a.lwu(A0, 0, regs::VPC);
        }
        self.a.addi(regs::VPC, regs::VPC, 4);
        if self.opts.production_weight && scd && self.opts.scheduled_fetch {
            // Scheduled variant: bookkeeping fills the load-to-bop
            // distance so Rop is ready at bop's fetch.
            self.emit_bookkeeping(&stub);
        }
        if scd {
            self.a.bop(0);
        }
        // Slow path: decode, bound check, target address calculation
        // (the shaded lines of Fig. 1b).
        self.a.andi(A1, A0, 0x3F);
        self.a.sltiu(T0, A1, NUM_OPS as i64);
        self.a.beqz(T0, &bad);
        self.a.slli(T1, A1, 3);
        self.a.add(T1, T1, regs::JT);
        self.a.ld(T2, 0, T1);
        let jump_pc = self.a.here();
        if scd {
            self.a.jru(0, T2);
        } else {
            self.a.jr(T2);
        }
        let end = self.a.here();
        self.ann.dispatch_ranges.push((start, end));
        self.ann.dispatch_jumps.push(jump_pc);
        self.ann.vbbi_hints.push(VbbiHint { jump_pc, hint_reg: A1, mask: 0x3F });

        self.a.label(&bad);
        self.a.inst(scd_isa::Inst::Ebreak);
        if self.opts.production_weight {
            self.emit_hook_stub(&stub);
        }
    }

    /// Handler epilogue: jump back to the common dispatcher, or (jump
    /// threading) replicate the dispatcher in place.
    fn next(&mut self) {
        if self.scheme == Scheme::Threaded {
            let site = self.fresh("tail");
            self.emit_dispatch_site(&site);
        } else {
            self.a.j("dispatch");
        }
    }

    // ---- field decoding (operands of the 32-bit bytecode in a0) ----

    fn dec_a(&mut self, dst: Reg) {
        self.a.srli(dst, A0, 6);
        self.a.andi(dst, dst, 0xFF);
    }
    fn dec_b(&mut self, dst: Reg) {
        self.a.srli(dst, A0, 23);
    }
    fn dec_c(&mut self, dst: Reg) {
        self.a.srli(dst, A0, 14);
        self.a.andi(dst, dst, 0x1FF);
    }
    fn dec_bx(&mut self, dst: Reg) {
        self.a.srli(dst, A0, 14);
    }
    fn dec_sbx(&mut self, dst: Reg) {
        self.a.srli(dst, A0, 14);
        self.a.li(T6, 131071);
        self.a.sub(dst, dst, T6);
    }

    /// dst = address of R\[field\] (field already in dst).
    fn reg_addr(&mut self, dst: Reg) {
        self.a.slli(dst, dst, 3);
        self.a.add(dst, dst, regs::BASE);
    }

    /// Loads R\[A\]'s address into `dst`.
    fn ra_addr(&mut self, dst: Reg) {
        self.dec_a(dst);
        self.reg_addr(dst);
    }

    /// Loads R\[B\]'s value into `val` (clobbers `addr`).
    fn load_rb(&mut self, val: Reg, addr: Reg) {
        self.dec_b(addr);
        self.reg_addr(addr);
        self.a.ld(val, 0, addr);
    }

    /// Loads R\[C\]'s value into `val` (clobbers `addr`).
    fn load_rc(&mut self, val: Reg, addr: Reg) {
        self.dec_c(addr);
        self.reg_addr(addr);
        self.a.ld(val, 0, addr);
    }

    /// Loads K\[C\]'s value into `val` (clobbers `addr`).
    fn load_kc(&mut self, val: Reg, addr: Reg) {
        self.dec_c(addr);
        self.a.slli(addr, addr, 3);
        self.a.add(addr, addr, regs::KBASE);
        self.a.ld(val, 0, addr);
    }

    /// Traps unless `v` is a number (clobbers `tmp`).
    fn check_num(&mut self, v: Reg, tmp: Reg, trap: &str) {
        self.a.and(tmp, v, regs::BOX);
        self.a.beq(tmp, regs::BOX, trap);
    }

    /// Traps unless `v` is an array reference (clobbers `tmp`).
    fn check_array(&mut self, v: Reg, tmp: Reg, trap: &str) {
        self.a.srli(tmp, v, 44);
        self.a.bne(tmp, regs::TAG_ARR_HI, trap);
    }

    /// dst = payload (low 44 bits) of boxed value `v`.
    fn payload(&mut self, dst: Reg, v: Reg) {
        self.a.slli(dst, v, 20);
        self.a.srli(dst, dst, 20);
    }

    /// dst = boolean value from 0/1 flag in `flag` (clobbers flag).
    fn bool_value(&mut self, dst: Reg, flag: Reg) {
        self.a.slli(flag, flag, 44);
        self.a.add(dst, regs::FALSE, flag);
    }

    /// Stores `val` into R\[A\] (clobbers `tmp`).
    fn store_ra(&mut self, val: Reg, tmp: Reg) {
        self.ra_addr(tmp);
        self.a.sd(val, 0, tmp);
    }

    /// vpc += sBx * 4 (clobbers `tmp` and t6).
    fn vpc_add_sbx(&mut self, tmp: Reg) {
        self.dec_sbx(tmp);
        self.a.slli(tmp, tmp, 2);
        self.a.add(regs::VPC, regs::VPC, tmp);
    }

    /// ft_dst = floor(ft_x), robust to already-integral huge values
    /// (|x| >= 2^53 is its own floor). Clobbers tmp, FT3, FT4.
    fn floor_fp(&mut self, dst: FReg, x: FReg, tmp: Reg, skip: &str) {
        self.a.fop(scd_isa::FpOp::FsgnjD, dst, x, x); // dst = x (default)
        self.a.li(tmp, TWO_POW_53_BITS);
        self.a.fmv_d_x(FT3, tmp);
        self.a.fop(scd_isa::FpOp::FsgnjxD, FT4, x, x); // |x|
        self.a.flt(tmp, FT4, FT3);
        self.a.beqz(tmp, skip); // huge: already integral
        self.a.fcvt_l_d(tmp, x, Rounding::Rdn);
        self.a.fcvt_d_l(dst, tmp);
        self.a.label(skip);
    }

    // ---- handlers ----

    fn arith_rr(&mut self, op: Op) {
        let trap = self.fresh("trap");
        self.load_rb(T2, T0);
        self.load_rc(T3, T1);
        self.arith_common(op, &trap);
    }

    fn arith_rk(&mut self, op: Op) {
        let trap = self.fresh("trap");
        self.load_rb(T2, T0);
        self.load_kc(T3, T1);
        self.arith_common(op, &trap);
    }

    /// Shared arithmetic tail: operands in t2/t3.
    fn arith_common(&mut self, op: Op, trap: &str) {
        self.check_num(T2, T4, trap);
        self.check_num(T3, T4, trap);
        self.a.fmv_d_x(FT0, T2);
        self.a.fmv_d_x(FT1, T3);
        match op {
            Op::Add | Op::AddK => {
                self.a.fadd(FT2, FT0, FT1);
            }
            Op::Sub | Op::SubK => {
                self.a.fsub(FT2, FT0, FT1);
            }
            Op::Mul | Op::MulK => {
                self.a.fmul(FT2, FT0, FT1);
            }
            Op::Div | Op::DivK => {
                self.a.fdiv(FT2, FT0, FT1);
            }
            Op::Mod | Op::ModK => {
                // x - floor(x/y)*y
                self.a.fdiv(FT2, FT0, FT1);
                let skip = self.fresh("modfl");
                self.floor_fp(FT2, FT2, T4, &skip);
                self.a.fmul(FT2, FT2, FT1);
                self.a.fsub(FT2, FT0, FT2);
            }
            _ => unreachable!("not an arithmetic opcode"),
        }
        self.a.fmv_x_d(T5, FT2);
        self.store_ra(T5, T0);
        self.next();
        self.a.label(trap);
        self.a.inst(scd_isa::Inst::Ebreak);
    }

    fn compare(&mut self, op: Op) {
        let trap = self.fresh("trap");
        let boxed = self.fresh("cmpbox");
        let join = self.fresh("cmpj");
        self.load_rb(T2, T0);
        match op {
            Op::EqK | Op::NeK | Op::LtK | Op::LeK => self.load_kc(T3, T1),
            _ => self.load_rc(T3, T1),
        }
        match op {
            Op::Eq | Op::Ne | Op::EqK | Op::NeK => {
                // Numbers compare by IEEE ==, everything else by identity.
                self.a.and(T4, T2, regs::BOX);
                self.a.beq(T4, regs::BOX, &boxed);
                self.a.and(T4, T3, regs::BOX);
                self.a.beq(T4, regs::BOX, &boxed);
                self.a.fmv_d_x(FT0, T2);
                self.a.fmv_d_x(FT1, T3);
                self.a.feq(T5, FT0, FT1);
                self.a.j(&join);
                self.a.label(&boxed);
                self.a.xor(T5, T2, T3);
                self.a.sltiu(T5, T5, 1);
                self.a.label(&join);
                if matches!(op, Op::Ne | Op::NeK) {
                    self.a.xori(T5, T5, 1);
                }
            }
            Op::Lt | Op::LtK | Op::Le | Op::LeK => {
                self.check_num(T2, T4, &trap);
                self.check_num(T3, T4, &trap);
                self.a.fmv_d_x(FT0, T2);
                self.a.fmv_d_x(FT1, T3);
                if matches!(op, Op::Lt | Op::LtK) {
                    self.a.flt(T5, FT0, FT1);
                } else {
                    self.a.fle(T5, FT0, FT1);
                }
            }
            _ => unreachable!("not a comparison"),
        }
        self.bool_value(T5, T5);
        self.store_ra(T5, T0);
        self.next();
        if matches!(op, Op::Lt | Op::LtK | Op::Le | Op::LeK) {
            self.a.label(&trap);
            self.a.inst(scd_isa::Inst::Ebreak);
        }
    }

    /// Allocation tail shared by NewArr/NewArrI: element count in `len`
    /// (a plain integer register). Clobbers t3..t6; result stored to
    /// R\[A\].
    fn alloc_array(&mut self, len: Reg) {
        let trap = self.fresh("trap");
        let fill = self.fresh("fill");
        let done = self.fresh("filldone");
        // bytes = 16 + len*8; bump the heap pointer.
        self.a.slli(T3, len, 3);
        self.a.addi(T3, T3, 16);
        self.a.mv(T4, regs::HEAP);
        self.a.add(regs::HEAP, regs::HEAP, T3);
        self.a.li(T5, (layout::HEAP_BASE + layout::HEAP_SIZE) as i64);
        self.a.bltu(T5, regs::HEAP, &trap); // out of memory
        self.a.sd(len, 0, T4); // length
        self.a.sd(len, 8, T4); // capacity (== length; arrays are fixed)

        // Fill with nil (the nil bit pattern is exactly BOX).
        self.a.addi(T5, T4, 16);
        self.a.add(T6, T5, T3);
        self.a.addi(T6, T6, -16);
        self.a.label(&fill);
        self.a.beq(T5, T6, &done);
        self.a.sd(regs::BOX, 0, T5);
        self.a.addi(T5, T5, 8);
        self.a.j(&fill);
        self.a.label(&done);
        // Box the pointer: value = ptr | (0xFFFF3 << 44).
        self.a.slli(T5, regs::TAG_ARR_HI, 44);
        self.a.or(T5, T5, T4);
        self.store_ra(T5, T0);
        self.next();
        self.a.label(&trap);
        self.a.inst(scd_isa::Inst::Ebreak);
    }

    /// Element address calculation shared by the index handlers: array
    /// value in `arr`, f64 index value in `idx`; leaves the element
    /// address in t4. Clobbers t4..t6.
    fn elem_addr(&mut self, arr: Reg, idx: Reg, trap: &str) {
        self.check_array(arr, T4, trap);
        self.check_num(idx, T4, trap);
        self.payload(T4, arr); // array header pointer
        self.a.fmv_d_x(FT0, idx);
        self.a.fcvt_l_d(T5, FT0, Rounding::Rtz);
        self.a.ld(T6, 0, T4); // length
        self.a.bgeu(T5, T6, trap); // unsigned: negatives trap too
        self.a.slli(T5, T5, 3);
        self.a.add(T4, T4, T5);
        self.a.addi(T4, T4, 16);
    }

    fn emit_handler(&mut self, op: Op) {
        let trap = self.fresh("trap");
        match op {
            Op::Move => {
                self.load_rb(T2, T0);
                self.store_ra(T2, T0);
                self.next();
            }
            Op::LoadK => {
                self.dec_bx(T0);
                self.a.slli(T0, T0, 3);
                self.a.add(T0, T0, regs::KBASE);
                self.a.ld(T2, 0, T0);
                self.store_ra(T2, T0);
                self.next();
            }
            Op::LoadNil => {
                self.store_ra(regs::BOX, T0);
                self.next();
            }
            Op::LoadBool => {
                self.dec_b(T1);
                self.a.sltiu(T1, T1, 1);
                self.a.xori(T1, T1, 1); // normalize to 0/1
                self.bool_value(T2, T1);
                self.store_ra(T2, T0);
                self.next();
            }
            Op::LoadInt => {
                self.dec_sbx(T1);
                self.a.fcvt_d_l(FT0, T1);
                self.a.fmv_x_d(T2, FT0);
                self.store_ra(T2, T0);
                self.next();
            }
            Op::GetGlobal => {
                self.dec_bx(T0);
                self.a.slli(T0, T0, 3);
                self.a.add(T0, T0, regs::GLOBALS);
                self.a.ld(T2, 0, T0);
                self.store_ra(T2, T0);
                self.next();
            }
            Op::SetGlobal => {
                self.ra_addr(T0);
                self.a.ld(T2, 0, T0);
                self.dec_bx(T1);
                self.a.slli(T1, T1, 3);
                self.a.add(T1, T1, regs::GLOBALS);
                self.a.sd(T2, 0, T1);
                self.next();
            }
            Op::NewArr => {
                self.load_rb(T2, T0);
                self.check_num(T2, T4, &trap);
                self.a.fmv_d_x(FT0, T2);
                self.a.fcvt_l_d(T2, FT0, Rounding::Rtz);
                // Negative lengths become huge unsigned values and are
                // caught by the heap-overflow check inside alloc_array.
                self.alloc_array(T2);
                self.a.label(&trap);
                self.a.inst(scd_isa::Inst::Ebreak);
            }
            Op::NewArrI => {
                self.dec_bx(T2);
                self.alloc_array(T2);
            }
            Op::GetIdx => {
                self.load_rb(T2, T0);
                self.load_rc(T3, T1);
                self.elem_addr(T2, T3, &trap);
                self.a.ld(T2, 0, T4);
                self.store_ra(T2, T0);
                self.next();
                self.a.label(&trap);
                self.a.inst(scd_isa::Inst::Ebreak);
            }
            Op::SetIdx => {
                // R[A][R[B]] = R[C]
                self.ra_addr(T0);
                self.a.ld(T2, 0, T0); // array
                self.load_rb(T3, T1); // index
                self.elem_addr(T2, T3, &trap);
                self.load_rc(T3, T1); // value
                self.a.sd(T3, 0, T4);
                self.next();
                self.a.label(&trap);
                self.a.inst(scd_isa::Inst::Ebreak);
            }
            Op::GetIdxI => {
                self.load_rb(T2, T0);
                self.dec_c(T3);
                self.a.fcvt_d_l(FT0, T3);
                self.a.fmv_x_d(T3, FT0);
                self.elem_addr(T2, T3, &trap);
                self.a.ld(T2, 0, T4);
                self.store_ra(T2, T0);
                self.next();
                self.a.label(&trap);
                self.a.inst(scd_isa::Inst::Ebreak);
            }
            Op::SetIdxI => {
                self.ra_addr(T0);
                self.a.ld(T2, 0, T0);
                self.dec_b(T3);
                self.a.fcvt_d_l(FT0, T3);
                self.a.fmv_x_d(T3, FT0);
                self.elem_addr(T2, T3, &trap);
                self.load_rc(T3, T1);
                self.a.sd(T3, 0, T4);
                self.next();
                self.a.label(&trap);
                self.a.inst(scd_isa::Inst::Ebreak);
            }
            Op::Len => {
                self.load_rb(T2, T0);
                self.check_array(T2, T4, &trap);
                self.payload(T4, T2);
                self.a.ld(T5, 0, T4);
                self.a.fcvt_d_l(FT0, T5);
                self.a.fmv_x_d(T5, FT0);
                self.store_ra(T5, T0);
                self.next();
                self.a.label(&trap);
                self.a.inst(scd_isa::Inst::Ebreak);
            }
            Op::Add | Op::Sub | Op::Mul | Op::Div | Op::Mod => self.arith_rr(op),
            Op::AddK | Op::SubK | Op::MulK | Op::DivK | Op::ModK => self.arith_rk(op),
            Op::AddI => {
                self.load_rb(T2, T0);
                self.check_num(T2, T4, &trap);
                self.dec_c(T3);
                self.a.addi(T3, T3, -256);
                self.a.fmv_d_x(FT0, T2);
                self.a.fcvt_d_l(FT1, T3);
                self.a.fadd(FT2, FT0, FT1);
                self.a.fmv_x_d(T5, FT2);
                self.store_ra(T5, T0);
                self.next();
                self.a.label(&trap);
                self.a.inst(scd_isa::Inst::Ebreak);
            }
            Op::Unm => {
                self.load_rb(T2, T0);
                self.check_num(T2, T4, &trap);
                self.a.fmv_d_x(FT0, T2);
                self.a.fop(scd_isa::FpOp::FsgnjnD, FT1, FT0, FT0);
                self.a.fmv_x_d(T5, FT1);
                self.store_ra(T5, T0);
                self.next();
                self.a.label(&trap);
                self.a.inst(scd_isa::Inst::Ebreak);
            }
            Op::Not => {
                let one = self.fresh("notf");
                let done = self.fresh("notd");
                self.load_rb(T2, T0);
                // result = truthy(v) ? false : true
                self.a.beq(T2, regs::BOX, &one); // nil -> true
                self.a.beq(T2, regs::FALSE, &one); // false -> true
                self.a.li(T5, 0);
                self.a.j(&done);
                self.a.label(&one);
                self.a.li(T5, 1);
                self.a.label(&done);
                self.bool_value(T5, T5);
                self.store_ra(T5, T0);
                self.next();
            }
            Op::Jmp => {
                self.vpc_add_sbx(T0);
                self.next();
            }
            Op::Eq | Op::Ne | Op::EqK | Op::NeK | Op::Lt | Op::Le | Op::LtK | Op::LeK => {
                self.compare(op);
            }
            Op::TestT | Op::TestF => {
                let taken = self.fresh("tsttk");
                let fall = self.fresh("tstft");
                self.ra_addr(T0);
                self.a.ld(T2, 0, T0);
                // falsey iff nil or false
                if op == Op::TestT {
                    self.a.beq(T2, regs::BOX, &fall);
                    self.a.beq(T2, regs::FALSE, &fall);
                    self.vpc_add_sbx(T0);
                    self.a.label(&fall);
                } else {
                    self.a.beq(T2, regs::BOX, &taken);
                    self.a.beq(T2, regs::FALSE, &taken);
                    self.a.j(&fall);
                    self.a.label(&taken);
                    self.vpc_add_sbx(T0);
                    self.a.label(&fall);
                }
                self.next();
            }
            Op::Call => {
                self.ra_addr(T0); // address of R[A]
                self.a.ld(T1, 0, T0); // function value
                self.a.srli(T4, T1, 44);
                self.a.addi(T5, regs::TAG_ARR_HI, 1); // function tag prefix
                self.a.bne(T4, T5, &trap);
                self.payload(T2, T1); // function index
                self.a.slli(T2, T2, 4);
                self.a.add(T2, T2, regs::FUNCTAB);
                self.a.lwu(T3, 0, T2); // code_off (bytes)
                self.a.lwu(T4, 8, T2); // nregs

                // Push the CallInfo record.
                self.a.sd(regs::VPC, 0, regs::FRAMES);
                self.a.sd(regs::BASE, 8, regs::FRAMES);
                self.a.sd(T0, 16, regs::FRAMES); // result slot address
                self.dec_c(T5);
                self.a.addi(T5, T5, -1); // nresults
                self.a.sd(T5, 24, regs::FRAMES);
                self.a.addi(regs::FRAMES, regs::FRAMES, 32);
                self.a.li(T5, (layout::FRAME_BASE + layout::FRAME_SIZE) as i64);
                self.a.bgeu(regs::FRAMES, T5, &trap); // frame overflow

                // New frame: base = &R[A] + 8 (the first argument).
                self.a.addi(regs::BASE, T0, 8);
                self.a.slli(T4, T4, 3);
                self.a.add(T4, T4, regs::BASE);
                self.a.bltu(regs::CTL, T4, &trap); // value-stack overflow
                self.a.add(regs::VPC, regs::CODE, T3);
                self.next();
                self.a.label(&trap);
                self.a.inst(scd_isa::Inst::Ebreak);
            }
            Op::Return => {
                let noval = self.fresh("retnv");
                let store = self.fresh("retst");
                let halt = self.fresh("retha");
                // Value (before the frame switch): R[A] if B == 2.
                self.dec_b(T0);
                self.a.addi(T1, Reg::ZERO, 2);
                self.a.bne(T0, T1, &noval);
                self.ra_addr(T2);
                self.a.ld(T2, 0, T2);
                self.a.j(&store);
                self.a.label(&noval);
                self.a.mv(T2, regs::BOX); // nil
                self.a.label(&store);
                // Returning from main halts the interpreter.
                self.a.li(T3, layout::FRAME_BASE as i64);
                self.a.beq(regs::FRAMES, T3, &halt);
                // Pop the CallInfo record.
                self.a.addi(regs::FRAMES, regs::FRAMES, -32);
                self.a.ld(regs::VPC, 0, regs::FRAMES);
                self.a.ld(regs::BASE, 8, regs::FRAMES);
                self.a.ld(T4, 16, regs::FRAMES); // result slot
                self.a.ld(T5, 24, regs::FRAMES); // nresults
                let skip = self.fresh("retsk");
                self.a.beqz(T5, &skip);
                self.a.sd(T2, 0, T4);
                self.a.label(&skip);
                self.next();
                self.a.label(&halt);
                self.a.j("interp_exit");
            }
            Op::ForPrep => {
                self.ra_addr(T0);
                self.a.ld(T1, 0, T0); // index
                self.check_num(T1, T4, &trap);
                self.a.ld(T2, 8, T0); // limit
                self.check_num(T2, T4, &trap);
                self.a.ld(T3, 16, T0); // step
                self.check_num(T3, T4, &trap);
                self.a.fmv_d_x(FT0, T1);
                self.a.fmv_d_x(FT1, T3);
                self.a.fsub(FT2, FT0, FT1); // index -= step
                self.a.fmv_x_d(T5, FT2);
                self.a.sd(T5, 0, T0);
                self.vpc_add_sbx(T1);
                self.next();
                self.a.label(&trap);
                self.a.inst(scd_isa::Inst::Ebreak);
            }
            Op::ForLoop => {
                let neg = self.fresh("flng");
                let join = self.fresh("fljn");
                let exit = self.fresh("flex");
                self.ra_addr(T0);
                self.a.ld(T1, 0, T0); // index (numbers since ForPrep)
                self.a.ld(T2, 8, T0); // limit
                self.a.ld(T3, 16, T0); // step
                self.a.fmv_d_x(FT0, T1);
                self.a.fmv_d_x(FT1, T2);
                self.a.fmv_d_x(FT2, T3);
                self.a.fadd(FT0, FT0, FT2); // index += step
                self.a.fmv_x_d(T5, FT0);
                self.a.sd(T5, 0, T0);
                // continue iff step > 0 ? index <= limit : index >= limit
                self.a.fmv_d_x(FT3, Reg::ZERO); // +0.0
                self.a.flt(T4, FT3, FT2);
                self.a.beqz(T4, &neg);
                self.a.fle(T4, FT0, FT1);
                self.a.j(&join);
                self.a.label(&neg);
                self.a.fle(T4, FT1, FT0);
                self.a.label(&join);
                self.a.beqz(T4, &exit);
                self.a.sd(T5, 24, T0); // R[A+3] = index
                self.vpc_add_sbx(T1);
                self.a.label(&exit);
                self.next();
            }
            Op::Closure => {
                self.dec_bx(T1);
                self.a.addi(T2, regs::TAG_ARR_HI, 1);
                self.a.slli(T2, T2, 44);
                self.a.or(T2, T2, T1);
                self.store_ra(T2, T0);
                self.next();
            }
            Op::CallB => self.emit_callb(),
            Op::Sqrt => {
                self.load_rb(T2, T0);
                self.check_num(T2, T4, &trap);
                self.a.fmv_d_x(FT0, T2);
                self.a.fsqrt(FT1, FT0);
                self.a.fmv_x_d(T5, FT1);
                self.store_ra(T5, T0);
                self.next();
                self.a.label(&trap);
                self.a.inst(scd_isa::Inst::Ebreak);
            }
            Op::Floor => {
                self.load_rb(T2, T0);
                self.check_num(T2, T4, &trap);
                self.a.fmv_d_x(FT0, T2);
                let skip = self.fresh("flfl");
                self.floor_fp(FT1, FT0, T4, &skip);
                self.a.fmv_x_d(T5, FT1);
                self.store_ra(T5, T0);
                self.next();
                self.a.label(&trap);
                self.a.inst(scd_isa::Inst::Ebreak);
            }
            Op::Halt => {
                self.a.j("interp_exit");
            }
        }
    }

    /// The CallB handler: a branch tree over the builtin id in B, each
    /// arm operating on the register window at R\[A\].
    fn emit_callb(&mut self) {
        let trap = self.fresh("trap");
        self.ra_addr(T0); // address of R[A] (first argument / result)
        self.a.ld(T2, 0, T0); // first argument
        self.dec_b(T1); // builtin id

        let tag = self.fresh;
        let arm = |id: u32| arm_label("cb_", id, tag);
        // Dispatch tree.
        for id in 0..builtin_id::COUNT {
            self.a.addi(T3, Reg::ZERO, id as i64);
            self.a.beq(T1, T3, arm(id));
        }
        self.a.inst(scd_isa::Inst::Ebreak); // unknown builtin

        // floor
        self.a.label(arm(builtin_id::FLOOR));
        self.check_num(T2, T4, &trap);
        self.a.fmv_d_x(FT0, T2);
        let skip = self.fresh("cbfl");
        self.floor_fp(FT1, FT0, T4, &skip);
        self.a.fmv_x_d(T5, FT1);
        self.a.sd(T5, 0, T0);
        self.next();

        // sqrt
        self.a.label(arm(builtin_id::SQRT));
        self.check_num(T2, T4, &trap);
        self.a.fmv_d_x(FT0, T2);
        self.a.fsqrt(FT1, FT0);
        self.a.fmv_x_d(T5, FT1);
        self.a.sd(T5, 0, T0);
        self.next();

        // abs
        self.a.label(arm(builtin_id::ABS));
        self.check_num(T2, T4, &trap);
        self.a.fmv_d_x(FT0, T2);
        self.a.fop(scd_isa::FpOp::FsgnjxD, FT1, FT0, FT0);
        self.a.fmv_x_d(T5, FT1);
        self.a.sd(T5, 0, T0);
        self.next();

        // min / max (second argument at R[A+1])
        for id in [builtin_id::MIN, builtin_id::MAX] {
            self.a.label(arm(id));
            self.a.ld(T3, 8, T0);
            self.check_num(T2, T4, &trap);
            self.check_num(T3, T4, &trap);
            self.a.fmv_d_x(FT0, T2);
            self.a.fmv_d_x(FT1, T3);
            let op =
                if id == builtin_id::MIN { scd_isa::FpOp::FminD } else { scd_isa::FpOp::FmaxD };
            self.a.fop(op, FT2, FT0, FT1);
            self.a.fmv_x_d(T5, FT2);
            self.a.sd(T5, 0, T0);
            self.next();
        }

        // emit: checksum = rotl(checksum, 1) ^ value
        self.a.label(arm(builtin_id::EMIT));
        self.a.slli(T4, regs::CHK, 1);
        self.a.srli(T5, regs::CHK, 63);
        self.a.or(T4, T4, T5);
        self.a.xor(regs::CHK, T4, T2);
        self.next();

        // len
        self.a.label(arm(builtin_id::LEN));
        self.check_array(T2, T4, &trap);
        self.payload(T4, T2);
        self.a.ld(T5, 0, T4);
        self.a.fcvt_d_l(FT0, T5);
        self.a.fmv_x_d(T5, FT0);
        self.a.sd(T5, 0, T0);
        self.next();

        // array
        self.a.label(arm(builtin_id::ARRAY));
        self.check_num(T2, T4, &trap);
        self.a.fmv_d_x(FT0, T2);
        self.a.fcvt_l_d(T2, FT0, Rounding::Rtz);
        self.alloc_array(T2);

        self.a.label(&trap);
        self.a.inst(scd_isa::Inst::Ebreak);
    }

    fn build(mut self) -> Guest {
        let img = self.img;
        // ---- prologue ----
        self.a.label("entry");
        self.a.li(regs::TAG_ARR_HI, 0xFFFF3);
        self.a.li(regs::KBASE, img.consts_base as i64);
        self.a.li(regs::HEAP, layout::HEAP_BASE as i64);
        self.a.li(regs::FRAMES, layout::FRAME_BASE as i64);
        self.a.li(regs::GLOBALS, layout::GLOBALS_BASE as i64);
        self.a.li(regs::BOX, luma::value::BOX as i64);
        self.a.li(regs::FUNCTAB, img.functab_base as i64);
        self.a.li(regs::CHK, 0);
        self.a.li(regs::CODE, img.code_base as i64);
        self.a.li(regs::CTL, layout::VMCTL_BASE as i64);
        self.a.li(regs::FALSE, luma::value::FALSE as i64);
        self.a.la(regs::JT, "jt");
        self.a.li(regs::BASE, layout::VSTACK_BASE as i64);
        self.a.li(regs::VPC, (img.code_base + img.main_off) as i64);
        if self.scheme == Scheme::Scd {
            // Fig. 4: the mask register is set once, before the loop.
            self.a.li(T0, 0x3F);
            self.a.setmask(0, T0);
        }
        self.a.li(Reg::SP, (layout::VMCTL_BASE + layout::VMCTL_SIZE) as i64);
        self.a.j("dispatch");

        // ---- the common dispatcher ----
        self.a.label("dispatch");
        self.emit_dispatch_site("dispatch_main");

        // ---- handlers ----
        for op in Op::ALL {
            self.a.label(label_name(&["h_"], op as u32));
            self.emit_handler(op);
        }

        // ---- exit ----
        self.a.label("interp_exit");
        if self.scheme == Scheme::Scd {
            // Invalidate all JTEs on loop exit (Section III-A).
            self.a.jte_flush();
        }
        self.a.mv(Reg::A0, regs::CHK);
        self.a.li(Reg::A7, 0);
        self.a.ecall();

        // ---- jump table ----
        self.a.ro_label("jt");
        for op in Op::ALL {
            self.a.ro_addr(label_name(&["h_"], op as u32));
        }

        let program = self.a.finish().expect("LVM guest assembles");
        Guest { program, annotations: self.ann }
    }
}

/// Builds the LVM guest interpreter for `scheme` against a program image.
pub fn build_lvm_guest(img: &Image, scheme: Scheme, opts: GuestOptions) -> Guest {
    Builder {
        a: Asm::new(layout::TEXT_BASE),
        img,
        scheme,
        opts,
        fresh: 0,
        ann: Annotations::default(),
    }
    .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::build_lvm_image;
    use luma::parser::parse;

    fn guest_for(src: &str, scheme: Scheme) -> Guest {
        let script = parse(src).unwrap();
        let (p, init) = luma::lvm::compile_lvm(&script, &[]).unwrap();
        let img = build_lvm_image(&p, &init);
        build_lvm_guest(&img, scheme, GuestOptions::default())
    }

    #[test]
    fn assembles_for_all_schemes() {
        for scheme in Scheme::ALL {
            let g = guest_for("emit(1 + 2);", scheme);
            assert!(g.program.insts.len() > 300, "{scheme:?} suspiciously small");
            assert!(!g.annotations.dispatch_jumps.is_empty());
        }
    }

    #[test]
    fn baseline_has_one_dispatch_site_threaded_many() {
        let base = guest_for("emit(1);", Scheme::Baseline);
        let jt = guest_for("emit(1);", Scheme::Threaded);
        assert_eq!(base.annotations.dispatch_jumps.len(), 1);
        // Threaded: one replicated dispatcher per handler exit point
        // (handlers with several exits, like CallB's builtin arms, get
        // several), plus the common entry site.
        assert!(jt.annotations.dispatch_jumps.len() > NUM_OPS as usize);
        // Jump threading bloats the code, as Fig. 1c implies.
        assert!(jt.program.insts.len() > base.program.insts.len() + 300);
    }

    #[test]
    fn scd_build_contains_extension_instructions() {
        let g = guest_for("emit(1);", Scheme::Scd);
        let has = |pred: &dyn Fn(&scd_isa::Inst) -> bool| g.program.insts.iter().any(pred);
        assert!(has(&|i| matches!(i, scd_isa::Inst::Bop { .. })));
        assert!(has(&|i| matches!(i, scd_isa::Inst::Jru { .. })));
        assert!(has(&|i| matches!(i, scd_isa::Inst::SetMask { .. })));
        assert!(has(&|i| matches!(i, scd_isa::Inst::JteFlush)));
        assert!(has(&|i| matches!(i, scd_isa::Inst::LoadOp { .. })));
        let base = guest_for("emit(1);", Scheme::Baseline);
        assert!(!base.program.insts.iter().any(|i| matches!(i, scd_isa::Inst::Bop { .. })));
    }

    #[test]
    fn jump_table_covers_all_opcodes() {
        let g = guest_for("emit(1);", Scheme::Baseline);
        assert_eq!(g.program.rodata.len(), 8 * NUM_OPS as usize);
        // Every entry points into the text section.
        for chunk in g.program.rodata.chunks(8) {
            let addr = u64::from_le_bytes(chunk.try_into().unwrap());
            assert!(addr >= g.program.text_base && addr < g.program.text_end());
        }
    }
}
