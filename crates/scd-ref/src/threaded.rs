//! Threaded code for [`RefCore::run`].
//!
//! [`Text`] pre-decodes a text section, on the first run, into three
//! tables:
//!
//! * `ops` — a dense `(handler fn, operands)` array, one slot per
//!   instruction. Every straight-line instruction (ALU, FP, loads,
//!   stores, `<load>.op`, `setmask`, `jte.flush`, `fence`) has a
//!   handler monomorphized over its operation, so the per-instruction
//!   `match` on [`Inst`] happens here, at build time, instead of on
//!   every retirement.
//! * `run` — per index, how many straight-line instructions follow
//!   before the next terminator.
//! * `term` — the terminator at each index (`branch`, `jal`, `jalr`,
//!   `bop`, `jru`), with direct targets pre-resolved to indices, or
//!   `Slow` for anything irregular: `ecall`, `ebreak`, undecodable
//!   holes, direct targets outside the text, and the fall-off past its
//!   end.
//!
//! The run loop ([`RefCore::run_blocks`]) executes a whole straight run
//! plus its terminator with one budget check and chains to the next
//! block by index; only indirect targets (`jalr`, `jru`, a `bop` hit)
//! are range-checked. Whatever the loop cannot do — a `Slow` slot, a
//! faulting access, a pc outside the text, the tail of a budget — it
//! leaves with `pc` and `instructions` exact, for one
//! [`RefCore::step_impl`] to execute.
//!
//! Values still come from [`scd_isa::exec`] and the SCD register
//! semantics from the small helpers `step_impl` calls too: a handler is
//! only the operand plumbing around them.

use std::fmt;
use std::sync::OnceLock;

use scd_isa::{exec, AluOp, BranchOp, FCmpOp, FReg, FpOp, Inst, LoadOp, Reg, Rounding, StoreOp};

use crate::RefCore;

/// Executes one straight-line instruction. Returns `false`, with no
/// architectural state changed, when the instruction would fault; the
/// run loop then re-executes it with `step_impl` to report the error.
type Handler = fn(&mut RefCore, &Op) -> bool;

/// One pre-decoded straight-line instruction.
#[derive(Clone, Copy)]
struct Op {
    h: Handler,
    /// Immediate, memory offset, or a pre-resolved constant (`lui`,
    /// `auipc`).
    imm: u64,
    rd: u8,
    rs1: u8,
    rs2: u8,
    bid: u8,
}

/// The control transfer closing a straight run.
#[derive(Clone, Copy)]
enum Term {
    /// Executed by `step_impl`: `ecall`, `ebreak`, holes, unresolvable
    /// direct targets, the slot past the end of the text. Straight
    /// slots hold it too; the loop never reads them as terminators.
    Slow,
    /// Conditional branch; the fall-through is the next index.
    Branch {
        op: BranchOp,
        rs1: u8,
        rs2: u8,
        taken: u32,
    },
    Jal {
        rd: u8,
        target: u32,
        link: u64,
    },
    Jalr {
        rd: u8,
        rs1: u8,
        offset: u64,
        link: u64,
    },
    Bop {
        bid: u8,
    },
    Jru {
        bid: u8,
        rs1: u8,
    },
}

/// A terminator's successor: a pre-resolved direct target, or an
/// indirect one still to be range-checked.
enum Next {
    Index(usize),
    Pc(u64),
}

/// A decoded text section. Its threaded-code tables are built on the
/// first [`RefCore::run`], so a core that only steps (the lockstep
/// oracle) or never runs (a machine that never fast-forwards) does not
/// pay for them.
pub(crate) struct Text {
    base: u64,
    insts: Vec<Option<Inst>>,
    blocks: OnceLock<Blocks>,
}

/// The threaded-code tables of a [`Text`].
struct Blocks {
    ops: Vec<Op>,
    /// `insts.len() + 1` entries: the last is the fall-off slot.
    run: Vec<u32>,
    /// `insts.len() + 1` entries: the last is `Slow`.
    term: Vec<Term>,
}

impl fmt::Debug for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Text")
            .field("base", &self.base)
            .field("len", &self.insts.len())
            .finish_non_exhaustive()
    }
}

impl Text {
    /// The text of `insts` (one per 4-byte word, `None` for an
    /// undecodable word) laid out from `base`.
    pub(crate) fn new(base: u64, insts: Vec<Option<Inst>>) -> Self {
        Text { base, insts, blocks: OnceLock::new() }
    }

    /// The threaded-code tables, built on first use.
    fn blocks(&self) -> &Blocks {
        self.blocks.get_or_init(|| {
            let n = self.insts.len();
            let mut b = Blocks {
                ops: Vec::with_capacity(n),
                run: vec![0; n + 1],
                term: Vec::with_capacity(n + 1),
            };
            let mut straight = Vec::with_capacity(n);
            for i in 0..n {
                let lowered = self.lower(i);
                straight.push(lowered.is_ok());
                let (op, term) = match lowered {
                    Ok(op) => (op, Term::Slow),
                    Err(term) => (SLOW, term),
                };
                b.ops.push(op);
                b.term.push(term);
            }
            b.term.push(Term::Slow);
            for i in (0..n).rev() {
                if straight[i] {
                    b.run[i] = b.run[i + 1].saturating_add(1);
                }
            }
            b
        })
    }

    /// The decoded instruction at index `i` (`None` for a hole or past
    /// the end).
    #[inline]
    pub(crate) fn inst(&self, i: usize) -> Option<Inst> {
        self.insts.get(i).copied().flatten()
    }

    /// The index of `pc`, if it is an aligned address inside the text.
    #[inline]
    pub(crate) fn index(&self, pc: u64) -> Option<usize> {
        let off = pc.wrapping_sub(self.base);
        if pc >= self.base && off / 4 < self.insts.len() as u64 && off.is_multiple_of(4) {
            Some((off / 4) as usize)
        } else {
            None
        }
    }

    #[inline]
    fn pc_of(&self, i: usize) -> u64 {
        self.base.wrapping_add(4 * i as u64)
    }

    /// Lowers instruction `i` to a straight-line handler, or to the
    /// terminator that ends a straight run there.
    fn lower(&self, i: usize) -> Result<Op, Term> {
        let pc = self.pc_of(i);
        let op =
            |h: Handler, rd: u8, rs1: u8, rs2: u8, imm: u64| Op { h, imm, rd, rs1, rs2, bid: 0 };
        let x = |r: Reg| r.index() as u8;
        let f = |r: FReg| r.index() as u8;
        let direct = |offset: i64| self.index(pc.wrapping_add(offset as u64)).map(|t| t as u32);
        let straight = Ok;
        let term = Err;
        let Some(inst) = self.insts[i] else {
            return term(Term::Slow);
        };
        match inst {
            Inst::Lui { rd, imm } => straight(op(li, x(rd), 0, 0, imm as u64)),
            Inst::Auipc { rd, imm } => straight(op(li, x(rd), 0, 0, pc.wrapping_add(imm as u64))),
            Inst::OpImm { op: a, rd, rs1, imm } => {
                straight(op(ALU_RI[pos(&AluOp::ALL, a)], x(rd), x(rs1), 0, imm as u64))
            }
            Inst::Op { op: a, rd, rs1, rs2 } => {
                straight(op(ALU_RR[pos(&AluOp::ALL, a)], x(rd), x(rs1), x(rs2), 0))
            }
            Inst::Load { op: l, rd, rs1, offset } => {
                straight(op(LOAD[pos(&LoadOp::ALL, l)], x(rd), x(rs1), 0, offset as u64))
            }
            Inst::LoadOp { op: l, bid, rd, rs1, offset } => straight(Op {
                bid,
                ..op(LOAD_OP[pos(&LoadOp::ALL, l)], x(rd), x(rs1), 0, offset as u64)
            }),
            Inst::Store { op: s, rs2, rs1, offset } => {
                straight(op(STORE[pos(&StoreOp::ALL, s)], 0, x(rs1), x(rs2), offset as u64))
            }
            Inst::Fld { rd, rs1, offset } => straight(op(fld, f(rd), x(rs1), 0, offset as u64)),
            Inst::Fsd { rs2, rs1, offset } => straight(op(fsd, 0, x(rs1), f(rs2), offset as u64)),
            Inst::FOp { op: fop, rd, rs1, rs2 } => {
                straight(op(FP[pos(&FpOp::ALL, fop)], f(rd), f(rs1), f(rs2), 0))
            }
            Inst::FCmp { op: fop, rd, rs1, rs2 } => {
                straight(op(FCMP[pos(&FCmpOp::ALL, fop)], x(rd), f(rs1), f(rs2), 0))
            }
            Inst::FcvtLD { rd, rs1, rm } => {
                straight(op(FCVT_L_D[pos(&Rounding::ALL, rm)], x(rd), f(rs1), 0, 0))
            }
            Inst::FcvtDL { rd, rs1 } => straight(op(fcvt_d_l, f(rd), x(rs1), 0, 0)),
            Inst::FmvXD { rd, rs1 } => straight(op(fmv_x_d, x(rd), f(rs1), 0, 0)),
            Inst::FmvDX { rd, rs1 } => straight(op(fmv_d_x, f(rd), x(rs1), 0, 0)),
            Inst::Fence => straight(op(nop, 0, 0, 0, 0)),
            Inst::SetMask { bid, rs1 } => straight(Op { bid, ..op(setmask, 0, x(rs1), 0, 0) }),
            Inst::JteFlush => straight(op(jte_flush, 0, 0, 0, 0)),
            Inst::Branch { op: b, rs1, rs2, offset } => term(match direct(offset) {
                Some(taken) => Term::Branch { op: b, rs1: x(rs1), rs2: x(rs2), taken },
                None => Term::Slow,
            }),
            Inst::Jal { rd, offset } => term(match direct(offset) {
                Some(target) => Term::Jal { rd: x(rd), target, link: pc.wrapping_add(4) },
                None => Term::Slow,
            }),
            Inst::Jalr { rd, rs1, offset } => term(Term::Jalr {
                rd: x(rd),
                rs1: x(rs1),
                offset: offset as u64,
                link: pc.wrapping_add(4),
            }),
            Inst::Bop { bid } => term(Term::Bop { bid }),
            Inst::Jru { bid, rs1 } => term(Term::Jru { bid, rs1: x(rs1) }),
            Inst::Ecall | Inst::Ebreak => term(Term::Slow),
        }
    }
}

/// Position of `x` in one of the `scd_isa` `ALL` tables (which list
/// every variant, so the lookup cannot miss).
fn pos<T: PartialEq + Copy>(all: &[T], x: T) -> usize {
    all.iter().position(|&a| a == x).expect("ALL lists every variant")
}

impl RefCore {
    #[inline(always)]
    fn x(&self, r: u8) -> u64 {
        self.arch.regs[r as usize & 31]
    }

    #[inline(always)]
    fn set_x(&mut self, r: u8, v: u64) {
        if r != 0 {
            self.arch.regs[r as usize & 31] = v;
        }
    }

    #[inline(always)]
    fn f(&self, r: u8) -> u64 {
        self.arch.fregs[r as usize & 31]
    }

    #[inline(always)]
    fn set_f(&mut self, r: u8, v: u64) {
        self.arch.fregs[r as usize & 31] = v;
    }

    /// Runs straight ops until one reports a fault; returns how many
    /// retired.
    #[inline(always)]
    fn straight(&mut self, ops: &[Op]) -> usize {
        ops.iter().position(|o| !(o.h)(self, o)).unwrap_or(ops.len())
    }

    /// Executes whole blocks from `self.arch.pc` while the budget allows and
    /// every instruction is regular. Returns with `pc` and
    /// `instructions` exact at the first instruction it did not retire:
    /// the budget is spent, or that instruction is for `step_impl`.
    pub(crate) fn run_blocks(&mut self, t: &Text, max_insts: u64) {
        let Some(mut i) = t.index(self.arch.pc) else {
            return;
        };
        let b = t.blocks();
        loop {
            let n = b.run[i] as usize;
            let left = max_insts - self.instructions;
            if n as u64 >= left {
                // The budget ends inside this straight run.
                let done = self.straight(&b.ops[i..i + left as usize]);
                self.instructions += done as u64;
                self.arch.pc = t.pc_of(i + done);
                return;
            }
            let done = self.straight(&b.ops[i..i + n]);
            self.instructions += done as u64;
            let j = i + done;
            if done < n {
                self.arch.pc = t.pc_of(j);
                return;
            }
            let to = match b.term[j] {
                Term::Slow => {
                    self.arch.pc = t.pc_of(j);
                    return;
                }
                Term::Branch { op, rs1, rs2, taken } => {
                    Next::Index(if exec::branch_taken(op, self.x(rs1), self.x(rs2)) {
                        taken as usize
                    } else {
                        j + 1
                    })
                }
                Term::Jal { rd, target, link } => {
                    self.set_x(rd, link);
                    Next::Index(target as usize)
                }
                Term::Jalr { rd, rs1, offset, link } => {
                    // Target before the link write: `jalr ra, 0(ra)`
                    // must use the incoming ra.
                    let target = self.x(rs1).wrapping_add(offset) & !1;
                    self.set_x(rd, link);
                    Next::Pc(target)
                }
                Term::Bop { bid } => match self.bop_auto_target(bid) {
                    Some(target) => {
                        self.bop_follow(bid);
                        Next::Pc(target)
                    }
                    None => Next::Index(j + 1),
                },
                Term::Jru { bid, rs1 } => Next::Pc(self.jru_train(bid, self.x(rs1))),
            };
            self.instructions += 1;
            i = match to {
                Next::Index(next) => next,
                Next::Pc(pc) => match t.index(pc) {
                    Some(next) => next,
                    None => {
                        self.arch.pc = pc;
                        return;
                    }
                },
            };
        }
    }
}

// ---- handlers ----

/// The `ops` placeholder at terminator slots; never reached through
/// `straight`, and it would report a fault if it were.
const SLOW: Op = Op { h: slow, imm: 0, rd: 0, rs1: 0, rs2: 0, bid: 0 };

fn slow(_: &mut RefCore, _: &Op) -> bool {
    false
}

fn nop(_: &mut RefCore, _: &Op) -> bool {
    true
}

/// `lui` and `auipc`: the value is resolved when the table is built.
fn li(c: &mut RefCore, o: &Op) -> bool {
    c.set_x(o.rd, o.imm);
    true
}

fn alu_rr<const K: usize>(c: &mut RefCore, o: &Op) -> bool {
    c.set_x(o.rd, exec::alu(AluOp::ALL[K], c.x(o.rs1), c.x(o.rs2)));
    true
}

fn alu_ri<const K: usize>(c: &mut RefCore, o: &Op) -> bool {
    c.set_x(o.rd, exec::alu(AluOp::ALL[K], c.x(o.rs1), o.imm));
    true
}

fn load<const K: usize>(c: &mut RefCore, o: &Op) -> bool {
    let op = LoadOp::ALL[K];
    let addr = c.x(o.rs1).wrapping_add(o.imm);
    let raw = c.mem.read(addr, exec::load_width(op));
    raw.map(|raw| c.set_x(o.rd, exec::load_extend(op, raw))).is_ok()
}

fn load_op<const K: usize>(c: &mut RefCore, o: &Op) -> bool {
    let op = LoadOp::ALL[K];
    let addr = c.x(o.rs1).wrapping_add(o.imm);
    let raw = c.mem.read(addr, exec::load_width(op));
    raw.map(|raw| {
        let v = exec::load_extend(op, raw);
        c.set_x(o.rd, v);
        c.load_op_commit(o.bid, v);
    })
    .is_ok()
}

fn store<const K: usize>(c: &mut RefCore, o: &Op) -> bool {
    let op = StoreOp::ALL[K];
    let v = exec::store_truncate(op, c.x(o.rs2));
    c.mem.write(c.x(o.rs1).wrapping_add(o.imm), exec::store_width(op), v).is_ok()
}

fn fld(c: &mut RefCore, o: &Op) -> bool {
    let v = c.mem.read(c.x(o.rs1).wrapping_add(o.imm), 8);
    v.map(|v| c.set_f(o.rd, v)).is_ok()
}

fn fsd(c: &mut RefCore, o: &Op) -> bool {
    c.mem.write(c.x(o.rs1).wrapping_add(o.imm), 8, c.f(o.rs2)).is_ok()
}

fn fp<const K: usize>(c: &mut RefCore, o: &Op) -> bool {
    c.set_f(o.rd, exec::fp_op(FpOp::ALL[K], c.f(o.rs1), c.f(o.rs2)));
    true
}

fn fcmp<const K: usize>(c: &mut RefCore, o: &Op) -> bool {
    c.set_x(o.rd, exec::fcmp(FCmpOp::ALL[K], c.f(o.rs1), c.f(o.rs2)) as u64);
    true
}

fn fcvt_l_d<const K: usize>(c: &mut RefCore, o: &Op) -> bool {
    c.set_x(o.rd, exec::fcvt_l_d(c.f(o.rs1), Rounding::ALL[K]));
    true
}

fn fcvt_d_l(c: &mut RefCore, o: &Op) -> bool {
    c.set_f(o.rd, exec::fcvt_d_l(c.x(o.rs1)));
    true
}

fn fmv_x_d(c: &mut RefCore, o: &Op) -> bool {
    c.set_x(o.rd, c.f(o.rs1));
    true
}

fn fmv_d_x(c: &mut RefCore, o: &Op) -> bool {
    c.set_f(o.rd, c.x(o.rs1));
    true
}

fn setmask(c: &mut RefCore, o: &Op) -> bool {
    c.set_mask(o.bid, c.x(o.rs1));
    true
}

fn jte_flush(c: &mut RefCore, _: &Op) -> bool {
    c.flush_rop();
    true
}

/// One handler per operation, indexed like the operation's `ALL` table.
macro_rules! handlers {
    ($f:ident: $($k:literal)*) => {
        [$($f::<$k> as Handler),*]
    };
}

const ALU_RR: [Handler; 26] =
    handlers!(alu_rr: 0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25);
const ALU_RI: [Handler; 26] =
    handlers!(alu_ri: 0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25);
const LOAD: [Handler; 7] = handlers!(load: 0 1 2 3 4 5 6);
const LOAD_OP: [Handler; 7] = handlers!(load_op: 0 1 2 3 4 5 6);
const STORE: [Handler; 4] = handlers!(store: 0 1 2 3);
const FP: [Handler; 10] = handlers!(fp: 0 1 2 3 4 5 6 7 8 9);
const FCMP: [Handler; 3] = handlers!(fcmp: 0 1 2);
const FCVT_L_D: [Handler; 3] = handlers!(fcvt_l_d: 0 1 2);
