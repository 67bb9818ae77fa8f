//! The SVM guest interpreter: the reproduction of the paper's
//! SpiderMonkey interpreter. Stack-based, one-byte opcodes,
//! variable-length instructions, a 229-entry dispatch table, and —
//! crucially — *multiple paths to the dispatcher*: several handlers
//! (Call, Jump, JumpIfFalse/True, Lt, Le) fetch the next bytecode at
//! their own tail, like SpiderMonkey's FUNCALL/BRANCH/LT. In the SCD
//! build only some of those early-fetch sites get the `.op` suffix
//! (Section III-C), which is why the stack VM benefits less from SCD
//! than the register VM, exactly as in the paper.

use crate::common::{arm_label, label_name, regs, Guest, GuestOptions, Scheme};
use crate::layout::{self, Image};
use luma::svm::bytecode::{builtin_id, Op, NUM_IMPLEMENTED, NUM_OPS};
use scd_isa::{Asm, FReg, LoadOp, Reg, Rounding};
use scd_sim::{Annotations, VbbiHint};

const A0: Reg = Reg::A0;
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

const SP: Reg = regs::SP; // operand stack pointer (s3)
const KB: Reg = regs::SVM_KBASE; // constants base (a6)

const TWO_POW_53_BITS: i64 = 0x4340_0000_0000_0000;

/// The early-fetch sites that receive the `.op` suffix in the SCD build.
/// The paper patched three locations in SpiderMonkey: the default fetch,
/// FUNCALL's tail, and the common macro shared by frequent bytecodes;
/// the remaining private tails (branches, compares, the rarer
/// variable-length forms) stay uncovered, which is why the stack VM
/// benefits less from SCD than the register VM.
fn scd_patched(op: Op) -> bool {
    matches!(op, Op::Call | Op::GetLocal | Op::SetLocal | Op::PushConst)
}

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

    fn emit_bookkeeping(&mut self, stub: &str) {
        self.a.lbu(T6, layout::CTL_HOOK_FLAG, regs::CTL);
        self.a.bnez(T6, stub);
        self.a.ld(T6, layout::CTL_DISPATCH_COUNT, regs::CTL);
        self.a.addi(T6, T6, 1);
        self.a.sd(T6, layout::CTL_DISPATCH_COUNT, regs::CTL);
    }

    fn emit_hook_stub(&mut self, stub: &str) {
        self.a.label(stub);
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

    /// A full dispatch site: bookkeeping + fetch + decode + table jump.
    /// `use_scd` selects the `.op`/`bop`/`jru` form (only the common
    /// dispatcher uses it; uncovered private tails always pass false).
    fn emit_dispatch_site(&mut self, use_scd: bool) {
        let start = self.a.here();
        let stub = self.fresh("hookstub");
        let bad = self.fresh("badop");

        if self.opts.production_weight {
            self.emit_bookkeeping(&stub);
        }
        if use_scd {
            self.a.load_op(LoadOp::Lbu, 0, A0, 0, regs::VPC);
        } else {
            self.a.lbu(A0, 0, regs::VPC);
        }
        self.a.addi(regs::VPC, regs::VPC, 1);
        if use_scd {
            self.a.label("decode"); // re-entry point for patched tails
            self.a.bop(0);
        }
        self.a.sltiu(T0, A0, NUM_OPS as i64);
        self.a.beqz(T0, &bad);
        self.a.slli(T1, A0, 3);
        self.a.add(T1, T1, regs::JT);
        self.a.ld(T2, 0, T1);
        let jump_pc = self.a.here();
        if use_scd {
            self.a.jru(0, T2);
        } else {
            self.a.jr(T2);
        }
        let end = self.a.here();
        self.ann.dispatch_ranges.push((start, end));
        self.ann.dispatch_jumps.push(jump_pc);
        self.ann.vbbi_hints.push(VbbiHint { jump_pc, hint_reg: A0, mask: 0xFF });

        self.a.label(&bad);
        self.a.inst(scd_isa::Inst::Ebreak);
        if self.opts.production_weight {
            self.emit_hook_stub(&stub);
        }
    }

    /// A *patched* private tail in the SCD build: `.op` fetch, then
    /// re-enter the common dispatcher at its `bop`.
    fn emit_patched_tail(&mut self) {
        let start = self.a.here();
        let stub = self.fresh("hookstub");
        if self.opts.production_weight {
            self.emit_bookkeeping(&stub);
        }
        self.a.load_op(LoadOp::Lbu, 0, A0, 0, regs::VPC);
        self.a.addi(regs::VPC, regs::VPC, 1);
        let end = self.a.here();
        self.ann.dispatch_ranges.push((start, end));
        self.a.j("decode");
        if self.opts.production_weight {
            self.emit_hook_stub(&stub);
        }
    }

    /// Handler epilogue for `op`.
    fn next(&mut self, op: Op) {
        match self.scheme {
            Scheme::Threaded => self.emit_dispatch_site(false),
            Scheme::Scd => {
                if op.has_private_tail() {
                    if scd_patched(op) {
                        self.emit_patched_tail();
                    } else {
                        // Uncovered path: plain private dispatch.
                        self.emit_dispatch_site(false);
                    }
                } else {
                    self.a.j("dispatch");
                }
            }
            Scheme::Baseline => {
                if op.has_private_tail() {
                    self.emit_dispatch_site(false);
                } else {
                    self.a.j("dispatch");
                }
            }
        }
    }

    // ---- stack & operand helpers ----

    fn push(&mut self, v: Reg) {
        self.a.sd(v, 0, SP);
        self.a.addi(SP, SP, 8);
    }

    fn pop(&mut self, v: Reg) {
        self.a.addi(SP, SP, -8);
        self.a.ld(v, 0, SP);
    }

    fn rd_u8(&mut self, dst: Reg) {
        self.a.lbu(dst, 0, regs::VPC);
        self.a.addi(regs::VPC, regs::VPC, 1);
    }

    fn rd_i8(&mut self, dst: Reg) {
        self.a.lb(dst, 0, regs::VPC);
        self.a.addi(regs::VPC, regs::VPC, 1);
    }

    fn rd_u16(&mut self, dst: Reg) {
        self.a.lhu(dst, 0, regs::VPC);
        self.a.addi(regs::VPC, regs::VPC, 2);
    }

    fn rd_i16(&mut self, dst: Reg) {
        self.a.lh(dst, 0, regs::VPC);
        self.a.addi(regs::VPC, regs::VPC, 2);
    }

    fn check_num(&mut self, v: Reg, tmp: Reg, trap: &str) {
        self.a.and(tmp, v, regs::BOX);
        self.a.beq(tmp, regs::BOX, trap);
    }

    fn check_array(&mut self, v: Reg, tmp: Reg, trap: &str) {
        self.a.srli(tmp, v, 44);
        self.a.bne(tmp, regs::TAG_ARR_HI, trap);
    }

    fn payload(&mut self, dst: Reg, v: Reg) {
        self.a.slli(dst, v, 20);
        self.a.srli(dst, dst, 20);
    }

    fn bool_value(&mut self, dst: Reg, flag: Reg) {
        self.a.slli(flag, flag, 44);
        self.a.add(dst, regs::FALSE, flag);
    }

    fn floor_fp(&mut self, dst: FReg, x: FReg, tmp: Reg, skip: &str) {
        self.a.fop(scd_isa::FpOp::FsgnjD, dst, x, x);
        self.a.li(tmp, TWO_POW_53_BITS);
        self.a.fmv_d_x(FT3, tmp);
        self.a.fop(scd_isa::FpOp::FsgnjxD, FT4, x, x);
        self.a.flt(tmp, FT4, FT3);
        self.a.beqz(tmp, skip);
        self.a.fcvt_l_d(tmp, x, Rounding::Rdn);
        self.a.fcvt_d_l(dst, tmp);
        self.a.label(skip);
    }

    /// Binary numeric op over the top two stack slots; the result
    /// replaces them. `f` emits the FP computation FT0 (x) op FT1 (y)
    /// into FT2.
    fn binop(&mut self, op: Op, f: impl FnOnce(&mut Self)) {
        let trap = self.fresh("trap");
        self.a.ld(T3, -8, SP); // y
        self.a.ld(T2, -16, SP); // x
        self.check_num(T2, T4, &trap);
        self.check_num(T3, T4, &trap);
        self.a.fmv_d_x(FT0, T2);
        self.a.fmv_d_x(FT1, T3);
        f(self);
        self.a.fmv_x_d(T5, FT2);
        self.a.sd(T5, -16, SP);
        self.a.addi(SP, SP, -8);
        self.next(op);
        self.a.label(&trap);
        self.a.inst(scd_isa::Inst::Ebreak);
    }

    /// Numeric comparison over the top two slots, boolean result.
    fn cmpop(&mut self, op: Op) {
        let trap = self.fresh("trap");
        self.a.ld(T3, -8, SP);
        self.a.ld(T2, -16, SP);
        self.check_num(T2, T4, &trap);
        self.check_num(T3, T4, &trap);
        self.a.fmv_d_x(FT0, T2);
        self.a.fmv_d_x(FT1, T3);
        match op {
            Op::Lt => self.a.flt(T5, FT0, FT1),
            Op::Le => self.a.fle(T5, FT0, FT1),
            Op::Gt => self.a.flt(T5, FT1, FT0),
            Op::Ge => self.a.fle(T5, FT1, FT0),
            _ => unreachable!("not an ordering comparison"),
        };
        self.bool_value(T5, T5);
        self.a.sd(T5, -16, SP);
        self.a.addi(SP, SP, -8);
        self.next(op);
        self.a.label(&trap);
        self.a.inst(scd_isa::Inst::Ebreak);
    }

    /// Array-allocation tail: length (integer) in `len`; pushes the boxed
    /// reference. Clobbers t3..t6.
    fn alloc_array(&mut self, len: Reg, op: Op) {
        let trap = self.fresh("trap");
        let fill = self.fresh("fill");
        let done = self.fresh("filldone");
        self.a.slli(T3, len, 3);
        self.a.addi(T3, T3, 16);
        self.a.mv(T4, regs::HEAP);
        self.a.add(regs::HEAP, regs::HEAP, T3);
        self.a.li(T5, (layout::HEAP_BASE + layout::HEAP_SIZE) as i64);
        self.a.bltu(T5, regs::HEAP, &trap);
        self.a.sd(len, 0, T4);
        self.a.sd(len, 8, T4);
        self.a.addi(T5, T4, 16);
        self.a.add(T6, T5, T3);
        self.a.addi(T6, T6, -16);
        self.a.label(&fill);
        self.a.beq(T5, T6, &done);
        self.a.sd(regs::BOX, 0, T5);
        self.a.addi(T5, T5, 8);
        self.a.j(&fill);
        self.a.label(&done);
        self.a.slli(T5, regs::TAG_ARR_HI, 44);
        self.a.or(T5, T5, T4);
        self.push(T5);
        self.next(op);
        self.a.label(&trap);
        self.a.inst(scd_isa::Inst::Ebreak);
    }

    /// Element address: array value in `arr`, *integer* index in `idx`;
    /// leaves the element address in t4. Clobbers t4..t6.
    fn elem_addr_int(&mut self, arr: Reg, idx: Reg, trap: &str) {
        self.check_array(arr, T4, trap);
        self.payload(T4, arr);
        self.a.ld(T6, 0, T4);
        self.a.bgeu(idx, T6, trap);
        self.a.slli(T5, idx, 3);
        self.a.add(T4, T4, T5);
        self.a.addi(T4, T4, 16);
    }

    fn emit_handler(&mut self, op: Op) {
        let trap = self.fresh("trap");
        match op {
            Op::Nop => self.next(op),
            Op::PushConst => {
                self.rd_u16(T0);
                self.a.slli(T0, T0, 3);
                self.a.add(T0, T0, KB);
                self.a.ld(T2, 0, T0);
                self.push(T2);
                self.next(op);
            }
            Op::PushInt8 => {
                self.rd_i8(T0);
                self.a.fcvt_d_l(FT0, T0);
                self.a.fmv_x_d(T2, FT0);
                self.push(T2);
                self.next(op);
            }
            Op::PushInt16 => {
                self.rd_i16(T0);
                self.a.fcvt_d_l(FT0, T0);
                self.a.fmv_x_d(T2, FT0);
                self.push(T2);
                self.next(op);
            }
            Op::PushNil => {
                self.push(regs::BOX);
                self.next(op);
            }
            Op::PushTrue => {
                self.a.addi(T0, regs::TAG_ARR_HI, -1); // 0xFFFF2 = true prefix
                self.a.slli(T0, T0, 44);
                self.push(T0);
                self.next(op);
            }
            Op::PushFalse => {
                self.push(regs::FALSE);
                self.next(op);
            }
            Op::PushConst0
            | Op::PushConst1
            | Op::PushConst2
            | Op::PushConst3
            | Op::PushConst4
            | Op::PushConst5
            | Op::PushConst6
            | Op::PushConst7 => {
                let k = (op as u8 - Op::PushConst0 as u8) as i64;
                self.a.ld(T2, 8 * k, KB);
                self.push(T2);
                self.next(op);
            }
            Op::GetLocal => {
                self.rd_u8(T0);
                self.a.slli(T0, T0, 3);
                self.a.add(T0, T0, regs::BASE);
                self.a.ld(T2, 0, T0);
                self.push(T2);
                self.next(op);
            }
            Op::SetLocal => {
                self.rd_u8(T0);
                self.a.slli(T0, T0, 3);
                self.a.add(T0, T0, regs::BASE);
                self.pop(T2);
                self.a.sd(T2, 0, T0);
                self.next(op);
            }
            Op::GetLocal0
            | Op::GetLocal1
            | Op::GetLocal2
            | Op::GetLocal3
            | Op::GetLocal4
            | Op::GetLocal5
            | Op::GetLocal6
            | Op::GetLocal7 => {
                let n = (op as u8 - Op::GetLocal0 as u8) as i64;
                self.a.ld(T2, 8 * n, regs::BASE);
                self.push(T2);
                self.next(op);
            }
            Op::SetLocal0 | Op::SetLocal1 | Op::SetLocal2 | Op::SetLocal3 => {
                let n = (op as u8 - Op::SetLocal0 as u8) as i64;
                self.pop(T2);
                self.a.sd(T2, 8 * n, regs::BASE);
                self.next(op);
            }
            Op::GetGlobal => {
                self.rd_u16(T0);
                self.a.slli(T0, T0, 3);
                self.a.add(T0, T0, regs::GLOBALS);
                self.a.ld(T2, 0, T0);
                self.push(T2);
                self.next(op);
            }
            Op::SetGlobal => {
                self.rd_u16(T0);
                self.a.slli(T0, T0, 3);
                self.a.add(T0, T0, regs::GLOBALS);
                self.pop(T2);
                self.a.sd(T2, 0, T0);
                self.next(op);
            }
            Op::Pop => {
                self.a.addi(SP, SP, -8);
                self.next(op);
            }
            Op::Dup => {
                self.a.ld(T2, -8, SP);
                self.push(T2);
                self.next(op);
            }
            Op::Add => self.binop(op, |b| {
                b.a.fadd(FT2, FT0, FT1);
            }),
            Op::Sub => self.binop(op, |b| {
                b.a.fsub(FT2, FT0, FT1);
            }),
            Op::Mul => self.binop(op, |b| {
                b.a.fmul(FT2, FT0, FT1);
            }),
            Op::Div => self.binop(op, |b| {
                b.a.fdiv(FT2, FT0, FT1);
            }),
            Op::Mod => {
                let skip = self.fresh("modfl");
                self.binop(op, |b| {
                    b.a.fdiv(FT2, FT0, FT1);
                    b.floor_fp(FT2, FT2, T6, &skip);
                    b.a.fmul(FT2, FT2, FT1);
                    b.a.fsub(FT2, FT0, FT2);
                });
            }
            Op::Neg => {
                self.a.ld(T2, -8, SP);
                self.check_num(T2, T4, &trap);
                self.a.fmv_d_x(FT0, T2);
                self.a.fop(scd_isa::FpOp::FsgnjnD, FT1, FT0, FT0);
                self.a.fmv_x_d(T5, FT1);
                self.a.sd(T5, -8, SP);
                self.next(op);
                self.a.label(&trap);
                self.a.inst(scd_isa::Inst::Ebreak);
            }
            Op::Not => {
                let one = self.fresh("notf");
                let done = self.fresh("notd");
                self.a.ld(T2, -8, SP);
                self.a.beq(T2, regs::BOX, &one);
                self.a.beq(T2, regs::FALSE, &one);
                self.a.li(T5, 0);
                self.a.j(&done);
                self.a.label(&one);
                self.a.li(T5, 1);
                self.a.label(&done);
                self.bool_value(T5, T5);
                self.a.sd(T5, -8, SP);
                self.next(op);
            }
            Op::Eq | Op::Ne => {
                let boxed = self.fresh("eqbx");
                let join = self.fresh("eqjn");
                self.a.ld(T3, -8, SP);
                self.a.ld(T2, -16, SP);
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
                if op == Op::Ne {
                    self.a.xori(T5, T5, 1);
                }
                self.bool_value(T5, T5);
                self.a.sd(T5, -16, SP);
                self.a.addi(SP, SP, -8);
                self.next(op);
            }
            Op::Lt | Op::Le | Op::Gt | Op::Ge => self.cmpop(op),
            Op::Jump => {
                self.rd_i16(T0);
                self.a.add(regs::VPC, regs::VPC, T0);
                self.next(op);
            }
            Op::JumpIfFalse | Op::JumpIfTrue => {
                let taken = self.fresh("jtk");
                let fall = self.fresh("jft");
                self.rd_i16(T0);
                self.pop(T2);
                if op == Op::JumpIfFalse {
                    self.a.beq(T2, regs::BOX, &taken);
                    self.a.beq(T2, regs::FALSE, &taken);
                    self.a.j(&fall);
                } else {
                    self.a.beq(T2, regs::BOX, &fall);
                    self.a.beq(T2, regs::FALSE, &fall);
                }
                self.a.label(&taken);
                self.a.add(regs::VPC, regs::VPC, T0);
                self.a.label(&fall);
                self.next(op);
            }
            Op::PushFn => {
                self.rd_u16(T0);
                self.a.addi(T1, regs::TAG_ARR_HI, 1);
                self.a.slli(T1, T1, 44);
                self.a.or(T1, T1, T0);
                self.push(T1);
                self.next(op);
            }
            Op::Call => {
                let fill = self.fresh("cfill");
                let done = self.fresh("cfdone");
                self.rd_u8(T0); // argc
                self.a.slli(T1, T0, 3);
                self.a.sub(T2, SP, T1); // t2 = &arg0 = new locals base
                self.a.ld(T3, -8, T2); // function value
                self.a.srli(T4, T3, 44);
                self.a.addi(T5, regs::TAG_ARR_HI, 1);
                self.a.bne(T4, T5, &trap);
                self.payload(T4, T3);
                self.a.slli(T4, T4, 4);
                self.a.add(T4, T4, regs::FUNCTAB);
                self.a.lwu(T5, 0, T4); // code_off
                self.a.lwu(T6, 8, T4); // nlocals

                // Push the frame record.
                self.a.sd(regs::VPC, 0, regs::FRAMES);
                self.a.sd(regs::BASE, 8, regs::FRAMES);
                self.a.addi(T4, T2, -8);
                self.a.sd(T4, 16, regs::FRAMES); // fun slot address
                self.a.addi(regs::FRAMES, regs::FRAMES, 24);
                self.a.li(T4, (layout::FRAME_BASE + layout::FRAME_SIZE) as i64);
                self.a.bgeu(regs::FRAMES, T4, &trap);
                // Switch frames.
                self.a.mv(regs::BASE, T2);
                self.a.slli(T6, T6, 3);
                self.a.add(T6, T6, regs::BASE); // new sp = locals + nlocals*8
                self.a.bltu(regs::CTL, T6, &trap); // stack overflow

                // Nil-fill the non-parameter locals (from sp to new sp).
                self.a.label(&fill);
                self.a.beq(SP, T6, &done);
                self.a.sd(regs::BOX, 0, SP);
                self.a.addi(SP, SP, 8);
                self.a.j(&fill);
                self.a.label(&done);
                self.a.add(regs::VPC, regs::CODE, T5);
                self.next(op);
                self.a.label(&trap);
                self.a.inst(scd_isa::Inst::Ebreak);
            }
            Op::Return | Op::ReturnVal => {
                let halt = self.fresh("retha");
                if op == Op::ReturnVal {
                    self.pop(T2);
                } else {
                    self.a.mv(T2, regs::BOX);
                }
                self.a.li(T3, layout::FRAME_BASE as i64);
                self.a.beq(regs::FRAMES, T3, &halt);
                self.a.addi(regs::FRAMES, regs::FRAMES, -24);
                self.a.ld(regs::VPC, 0, regs::FRAMES);
                self.a.ld(regs::BASE, 8, regs::FRAMES);
                self.a.ld(T4, 16, regs::FRAMES); // fun slot
                self.a.sd(T2, 0, T4); // result replaces the callee
                self.a.addi(SP, T4, 8);
                self.next(op);
                self.a.label(&halt);
                self.a.j("interp_exit");
            }
            Op::NewArray => {
                self.pop(T2);
                self.check_num(T2, T4, &trap);
                self.a.fmv_d_x(FT0, T2);
                self.a.fcvt_l_d(T2, FT0, Rounding::Rtz);
                self.alloc_array(T2, op);
                self.a.label(&trap);
                self.a.inst(scd_isa::Inst::Ebreak);
            }
            Op::GetElem => {
                self.pop(T3); // index value
                self.pop(T2); // array
                self.check_num(T3, T4, &trap);
                self.a.fmv_d_x(FT0, T3);
                self.a.fcvt_l_d(T3, FT0, Rounding::Rtz);
                self.elem_addr_int(T2, T3, &trap);
                self.a.ld(T2, 0, T4);
                self.push(T2);
                self.next(op);
                self.a.label(&trap);
                self.a.inst(scd_isa::Inst::Ebreak);
            }
            Op::SetElem => {
                self.pop(T0); // value
                self.pop(T3); // index
                self.pop(T2); // array
                self.check_num(T3, T4, &trap);
                self.a.fmv_d_x(FT0, T3);
                self.a.fcvt_l_d(T3, FT0, Rounding::Rtz);
                self.elem_addr_int(T2, T3, &trap);
                self.a.sd(T0, 0, T4);
                self.next(op);
                self.a.label(&trap);
                self.a.inst(scd_isa::Inst::Ebreak);
            }
            Op::GetElemI => {
                self.rd_u8(T3);
                self.pop(T2);
                self.elem_addr_int(T2, T3, &trap);
                self.a.ld(T2, 0, T4);
                self.push(T2);
                self.next(op);
                self.a.label(&trap);
                self.a.inst(scd_isa::Inst::Ebreak);
            }
            Op::SetElemI => {
                self.rd_u8(T3);
                self.pop(T0); // value
                self.pop(T2); // array
                self.elem_addr_int(T2, T3, &trap);
                self.a.sd(T0, 0, T4);
                self.next(op);
                self.a.label(&trap);
                self.a.inst(scd_isa::Inst::Ebreak);
            }
            Op::Len => {
                self.pop(T2);
                self.check_array(T2, T4, &trap);
                self.payload(T4, T2);
                self.a.ld(T5, 0, T4);
                self.a.fcvt_d_l(FT0, T5);
                self.a.fmv_x_d(T5, FT0);
                self.push(T5);
                self.next(op);
                self.a.label(&trap);
                self.a.inst(scd_isa::Inst::Ebreak);
            }
            Op::Builtin => self.emit_builtin(),
            Op::Inc | Op::Dec => {
                self.a.ld(T2, -8, SP);
                self.check_num(T2, T4, &trap);
                self.a.fmv_d_x(FT0, T2);
                self.a.li(T0, 0x3FF0_0000_0000_0000); // 1.0
                self.a.fmv_d_x(FT1, T0);
                if op == Op::Inc {
                    self.a.fadd(FT2, FT0, FT1);
                } else {
                    self.a.fsub(FT2, FT0, FT1);
                }
                self.a.fmv_x_d(T5, FT2);
                self.a.sd(T5, -8, SP);
                self.next(op);
                self.a.label(&trap);
                self.a.inst(scd_isa::Inst::Ebreak);
            }
            Op::Halt => {
                self.a.j("interp_exit");
            }
        }
    }

    fn emit_builtin(&mut self) {
        let trap = self.fresh("trap");
        self.rd_u8(T1); // builtin id
        let tag = self.fresh;
        let arm = |id: u32| arm_label("bi_", id, tag);
        for id in 0..builtin_id::COUNT {
            self.a.addi(T3, Reg::ZERO, id as i64);
            self.a.beq(T1, T3, arm(id));
        }
        self.a.inst(scd_isa::Inst::Ebreak);

        // floor
        self.a.label(arm(builtin_id::FLOOR));
        self.a.ld(T2, -8, SP);
        self.check_num(T2, T4, &trap);
        self.a.fmv_d_x(FT0, T2);
        let skip = self.fresh("bifl");
        self.floor_fp(FT1, FT0, T4, &skip);
        self.a.fmv_x_d(T5, FT1);
        self.a.sd(T5, -8, SP);
        self.next(Op::Builtin);

        // sqrt
        self.a.label(arm(builtin_id::SQRT));
        self.a.ld(T2, -8, SP);
        self.check_num(T2, T4, &trap);
        self.a.fmv_d_x(FT0, T2);
        self.a.fsqrt(FT1, FT0);
        self.a.fmv_x_d(T5, FT1);
        self.a.sd(T5, -8, SP);
        self.next(Op::Builtin);

        // abs
        self.a.label(arm(builtin_id::ABS));
        self.a.ld(T2, -8, SP);
        self.check_num(T2, T4, &trap);
        self.a.fmv_d_x(FT0, T2);
        self.a.fop(scd_isa::FpOp::FsgnjxD, FT1, FT0, FT0);
        self.a.fmv_x_d(T5, FT1);
        self.a.sd(T5, -8, SP);
        self.next(Op::Builtin);

        // min / max
        for id in [builtin_id::MIN, builtin_id::MAX] {
            self.a.label(arm(id));
            self.a.ld(T3, -8, SP);
            self.a.ld(T2, -16, SP);
            self.check_num(T2, T4, &trap);
            self.check_num(T3, T4, &trap);
            self.a.fmv_d_x(FT0, T2);
            self.a.fmv_d_x(FT1, T3);
            let op =
                if id == builtin_id::MIN { scd_isa::FpOp::FminD } else { scd_isa::FpOp::FmaxD };
            self.a.fop(op, FT2, FT0, FT1);
            self.a.fmv_x_d(T5, FT2);
            self.a.sd(T5, -16, SP);
            self.a.addi(SP, SP, -8);
            self.next(Op::Builtin);
        }

        // emit (value stays on the stack)
        self.a.label(arm(builtin_id::EMIT));
        self.a.ld(T2, -8, SP);
        self.a.slli(T4, regs::CHK, 1);
        self.a.srli(T5, regs::CHK, 63);
        self.a.or(T4, T4, T5);
        self.a.xor(regs::CHK, T4, T2);
        self.next(Op::Builtin);

        // len / array: not routed here by the compiler, but implemented
        // for completeness.
        self.a.label(arm(builtin_id::LEN));
        self.pop(T2);
        self.check_array(T2, T4, &trap);
        self.payload(T4, T2);
        self.a.ld(T5, 0, T4);
        self.a.fcvt_d_l(FT0, T5);
        self.a.fmv_x_d(T5, FT0);
        self.push(T5);
        self.next(Op::Builtin);

        self.a.label(arm(builtin_id::ARRAY));
        self.pop(T2);
        self.check_num(T2, T4, &trap);
        self.a.fmv_d_x(FT0, T2);
        self.a.fcvt_l_d(T2, FT0, Rounding::Rtz);
        self.alloc_array(T2, Op::Builtin);

        self.a.label(&trap);
        self.a.inst(scd_isa::Inst::Ebreak);
    }

    fn build(mut self) -> Guest {
        let img = self.img;
        self.a.label("entry");
        self.a.li(regs::TAG_ARR_HI, 0xFFFF3);
        self.a.li(KB, img.consts_base as i64);
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
        self.a.li(SP, (layout::VSTACK_BASE + 8 * img.main_frame_slots) as i64);
        self.a.li(regs::VPC, (img.code_base + img.main_off) as i64);
        if self.scheme == Scheme::Scd {
            self.a.li(T0, 0xFF);
            self.a.setmask(0, T0);
        }
        self.a.li(Reg::SP, (layout::VMCTL_BASE + layout::VMCTL_SIZE) as i64);
        self.a.j("dispatch");

        self.a.label("dispatch");
        self.emit_dispatch_site(self.scheme == Scheme::Scd);

        for n in 0..NUM_IMPLEMENTED {
            let op = Op::from_u8(n as u8).expect("dense opcode numbering");
            self.a.label(label_name(&["h_"], n));
            self.emit_handler(op);
        }
        // Reserved opcodes share one trapping handler.
        self.a.label("h_reserved");
        self.a.inst(scd_isa::Inst::Ebreak);

        self.a.label("interp_exit");
        if self.scheme == Scheme::Scd {
            self.a.jte_flush();
        }
        self.a.mv(Reg::A0, regs::CHK);
        self.a.li(Reg::A7, 0);
        self.a.ecall();

        self.a.ro_label("jt");
        for n in 0..NUM_OPS {
            if n < NUM_IMPLEMENTED {
                self.a.ro_addr(label_name(&["h_"], n));
            } else {
                self.a.ro_addr("h_reserved");
            }
        }

        let program = self.a.finish().expect("SVM guest assembles");
        Guest { program, annotations: self.ann }
    }
}

/// Builds the SVM guest interpreter for `scheme` against a program image.
pub fn build_svm_guest(img: &Image, scheme: Scheme, opts: GuestOptions) -> Guest {
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
    use crate::layout::build_svm_image;
    use luma::parser::parse;

    fn guest_for(src: &str, scheme: Scheme) -> Guest {
        let script = parse(src).unwrap();
        let (p, init) = luma::svm::compile_svm(&script, &[]).unwrap();
        let img = build_svm_image(&p, &init);
        build_svm_guest(&img, scheme, GuestOptions::default())
    }

    #[test]
    fn assembles_for_all_schemes() {
        for scheme in Scheme::ALL {
            let g = guest_for("emit(2 * 3);", scheme);
            assert!(g.program.insts.len() > 400);
        }
    }

    #[test]
    fn jump_table_has_229_entries() {
        let g = guest_for("emit(1);", Scheme::Baseline);
        assert_eq!(g.program.rodata.len(), 8 * NUM_OPS as usize);
        // Reserved entries all point at the shared trap handler.
        let reserved = g.program.sym("h_reserved");
        let last = u64::from_le_bytes(g.program.rodata[8 * 228..].try_into().unwrap());
        assert_eq!(last, reserved);
    }

    #[test]
    fn baseline_has_private_tails() {
        // Baseline: common site + one per private-tail handler.
        let g = guest_for("emit(1);", Scheme::Baseline);
        let privates = (0..NUM_IMPLEMENTED)
            .filter(|&n| Op::from_u8(n as u8).unwrap().has_private_tail())
            .count();
        // At least one site per private-tail handler (handlers with
        // several exit points, e.g. Builtin's arms, replicate more).
        assert!(g.annotations.dispatch_jumps.len() > privates);
    }

    #[test]
    fn scd_covers_only_patched_paths() {
        let g = guest_for("emit(1);", Scheme::Scd);
        // jru appears exactly once (common dispatcher).
        let jrus =
            g.program.insts.iter().filter(|i| matches!(i, scd_isa::Inst::Jru { .. })).count();
        assert_eq!(jrus, 1);
        // .op loads: common + the patched tails.
        let ops =
            g.program.insts.iter().filter(|i| matches!(i, scd_isa::Inst::LoadOp { .. })).count();
        let patched =
            (0..NUM_IMPLEMENTED).filter(|&n| scd_patched(Op::from_u8(n as u8).unwrap())).count();
        assert_eq!(ops, 1 + patched);
        // Uncovered private tails still use plain indirect jumps.
        let plain_jr = g.annotations.dispatch_jumps.len();
        assert!(plain_jr > 1);
    }
}
