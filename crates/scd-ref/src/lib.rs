#![warn(missing_docs)]

//! # scd-ref — the architectural oracle
//!
//! A timing-free reference ISS for the scd-isa subset: no pipeline, no
//! caches, no predictors. It runs two ways over one set of semantics:
//! [`RefCore::step`] executes one instruction and reports its
//! architectural effects (the lockstep driver), and
//! [`RefCore::run`] executes the guest as threaded code — pre-decoded
//! straight runs chained by index — for standalone runs
//! and fast-forward. Every data result comes from the same
//! [`scd_isa::exec`] semantics table the cycle model uses, so the two
//! executors cannot drift apart on value semantics — any lockstep
//! divergence is by construction a *plumbing* bug (register file,
//! memory, control flow, SCD state), never a table disagreement.
//!
//! ## One guest state
//!
//! The crate owns the guest state both executors run over:
//! [`ArchState`] (registers, PC, SCD register sets) and [`GuestMemory`]
//! (segments, their write high-water marks, the one fault check). The
//! cycle model keeps a `RefCore` over its own state and runs sampled
//! fast-forward legs with [`RefCore::run`] in place, so nothing is
//! copied or handed across at a leg boundary. The lockstep oracle
//! stays independent: it gets its own clone of the state and decodes
//! its own text from the memory words ([`RefCore::from_state`]), and
//! instruction and SCD semantics are written separately here and in
//! the cycle model.
//!
//! The crate also hosts the seeded random-program generator ([`gen`]) and
//! the on-disk reproducer corpus format ([`corpus`]) used by `scd-cli fuzz`.
//!
//! ## Micro-architecture-dependent control flow
//!
//! `bop` is the one instruction whose *architectural* outcome depends on
//! micro-architectural state (a JTE hit redirects, a miss falls through —
//! Section III of the paper). The reference core therefore accepts a
//! per-step [`BopHint`] so a lockstep driver can replay the DUT's observed
//! hit/miss pattern; the oracle still independently computes the *target*
//! of a claimed hit from its own architectural `(bid, Rop)` → target map
//! (trained on retired `jru`s) and rejects hits the SCD register state
//! cannot justify. Running standalone ([`RefCore::run`]) uses
//! [`BopHint::Auto`]: hit whenever the oracle itself could.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use scd_isa::{exec, Inst, Program, Reg};

/// A multiply-xor hasher for the `(bid, Rop)` JTE key. The default
/// SipHash is DoS-hardened, which the oracle does not need — keys come
/// from the guest's own jump tables — and its latency shows up directly
/// in the dispatch-heavy fast path.
#[derive(Default)]
struct JteHasher(u64);

impl Hasher for JteHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u8(b);
        }
    }
    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.write_u64(v as u64);
    }
    #[inline]
    fn write_u64(&mut self, v: u64) {
        let x = (self.0 ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = x ^ (x >> 32);
    }
}

type JteMap = HashMap<(u8, u64), u64, BuildHasherDefault<JteHasher>>;

pub mod corpus;
pub mod gen;
mod mem;
mod threaded;

pub use mem::{GuestMemory, MemFault};
use threaded::Text;

/// Number of SCD branch-id register sets (Table I of the paper).
pub const MAX_BRANCH_IDS: usize = 4;

/// One SCD branch-id register set: `Rop[bid]`, its valid bit, and
/// `Rmask[bid]` (Table I of the paper).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScdRegs {
    /// `Rop[bid].v`: the opcode register holds a value a `bop` may use.
    pub rop_v: bool,
    /// `Rop[bid]`: the masked opcode the last `<load>.op` loaded.
    pub rop_d: u64,
    /// `Rmask[bid]`, set by `setmask`.
    pub rmask: u64,
}

/// The architectural register state of the paper's machine: integer
/// and FP register files, PC and the SCD register sets. Guest memory
/// is the other half of the guest state ([`GuestMemory`]). The cycle
/// model and the reference core run over one `ArchState`; timing state
/// (operand readiness, pipeline bookkeeping) lives beside it in the
/// cycle model.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ArchState {
    /// Integer register file (x0 held at zero by every writer).
    pub regs: [u64; 32],
    /// FP register file (raw f64 bits).
    pub fregs: [u64; 32],
    /// Current PC.
    pub pc: u64,
    /// SCD register sets; only the first `branch_ids` are live.
    pub scd: [ScdRegs; MAX_BRANCH_IDS],
}

/// Why the reference core stopped or refused to step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefError {
    /// Memory access outside any segment (or straddling a segment end).
    Mem {
        /// PC of the faulting instruction.
        pc: u64,
        /// The access that faulted.
        fault: MemFault,
    },
    /// PC left the text section or lost 4-byte alignment.
    PcOutOfRange {
        /// The bad PC.
        pc: u64,
    },
    /// The word at PC did not decode (possible with [`RefCore::from_state`]).
    BadInst {
        /// PC of the undecodable word.
        pc: u64,
    },
    /// `ebreak` or an unknown `ecall` service — a guest trap.
    Break {
        /// PC of the trapping instruction.
        pc: u64,
    },
    /// A [`BopHint::Hit`] was asserted for a `(bid, Rop)` pair the oracle's
    /// architectural JTE map has never seen a `jru` train. The DUT's BTB
    /// claims a jump-table entry that architecturally cannot exist.
    BopUntrained {
        /// PC of the `bop`.
        pc: u64,
        /// Branch id (already reduced mod `nbids`).
        bid: u8,
        /// The masked opcode value the hit was keyed on.
        rop_d: u64,
    },
    /// A [`BopHint::Hit`] was asserted while `Rop[bid].v` is clear. A real
    /// SCD front-end can only hit on a valid opcode register (Section III).
    BopNotValid {
        /// PC of the `bop`.
        pc: u64,
        /// Branch id (already reduced mod `nbids`).
        bid: u8,
    },
    /// [`RefCore::run`] hit its instruction budget.
    InstLimit {
        /// The budget that was exhausted.
        limit: u64,
    },
}

impl std::fmt::Display for RefError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            RefError::Mem { pc, fault } => write!(f, "ref: {fault} (pc {pc:#x})"),
            RefError::PcOutOfRange { pc } => write!(f, "ref: pc out of range: {pc:#x}"),
            RefError::BadInst { pc } => write!(f, "ref: undecodable word at {pc:#x}"),
            RefError::Break { pc } => write!(f, "ref: guest trap at {pc:#x}"),
            RefError::BopUntrained { pc, bid, rop_d } => {
                write!(f, "ref: bop hit at {pc:#x} on untrained (bid {bid}, rop {rop_d:#x})")
            }
            RefError::BopNotValid { pc, bid } => {
                write!(f, "ref: bop hit at {pc:#x} with Rop[{bid}].v clear")
            }
            RefError::InstLimit { limit } => write!(f, "ref: instruction limit {limit} reached"),
        }
    }
}

impl std::error::Error for RefError {}

/// The architectural effects of one retired instruction, shaped to match
/// the cycle model's `ArchInfo` trace record field-for-field.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepArch {
    /// PC the instruction retired at.
    pub pc: u64,
    /// PC of the next instruction.
    pub next_pc: u64,
    /// Integer writeback `(reg index, value)`, if any (x0 included, value 0).
    pub wx: Option<(u8, u64)>,
    /// FP writeback `(reg index, raw bits)`, if any.
    pub wf: Option<(u8, u64)>,
    /// Data-memory effective address, if the instruction accessed memory.
    pub ea: Option<u64>,
    /// Store data after width truncation, if the instruction stored.
    pub store: Option<u64>,
    /// `Some(code)` when this instruction was the halting `ecall`.
    pub exited: Option<u64>,
}

/// How to resolve a `bop` whose outcome is micro-architectural.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BopHint {
    /// Hit iff the oracle itself could: `Rop[bid].v` set and the
    /// architectural JTE map knows the target. Used standalone.
    Auto,
    /// The DUT observed a JTE hit; the oracle validates and follows it.
    Hit,
    /// The DUT observed a miss (or fall-through); the oracle falls through.
    Miss,
}

/// The timing-free reference core.
///
/// State is exactly the architectural state of the paper's machine —
/// [`ArchState`] and [`GuestMemory`] — plus the guest's output, a
/// retirement count, and the architectural JTE map `(bid, Rop) →
/// target` that a `jru` retirement defines (the BTB-resident JTEs of
/// the cycle model are a lossy cache of this map; the map itself never
/// evicts).
#[derive(Debug, Clone)]
pub struct RefCore {
    /// Registers, PC and SCD register sets.
    pub arch: ArchState,
    /// Guest memory.
    pub mem: GuestMemory,
    /// Bytes the guest printed via the `ecall` putchar service.
    pub output: Vec<u8>,
    /// Instructions retired so far.
    pub instructions: u64,
    text: Arc<Text>,
    jte_map: JteMap,
    scd_enabled: bool,
    nbids: usize,
}

impl RefCore {
    /// Builds a core from an assembled [`Program`]: text at
    /// `program.text_base`, rodata mapped when non-empty, PC at the text
    /// base, all registers zero.
    pub fn from_program(program: &Program, scd_enabled: bool, nbids: usize) -> Self {
        let text = Text::new(program.text_base, program.insts.iter().copied().map(Some).collect());
        let mem = GuestMemory::from_program(program);
        let arch = ArchState { pc: program.text_base, ..ArchState::default() };
        RefCore::with_text(text, mem, arch, scd_enabled, nbids)
    }

    /// Builds a core over captured guest state — the lockstep driver
    /// uses this to snapshot an already-set-up DUT (whose setup may have
    /// mapped extra segments and preloaded registers). The text is
    /// decoded from the words of the segment named `text`; words that
    /// fail to decode become holes that fault with
    /// [`RefError::BadInst`] only if reached.
    pub fn from_state(mem: GuestMemory, arch: ArchState, scd_enabled: bool, nbids: usize) -> Self {
        let (base, words) = mem
            .segments()
            .find(|&(name, ..)| name == "text")
            .map_or((0, &[][..]), |(_, base, data)| (base, data));
        let insts = words
            .chunks_exact(4)
            .map(|c| scd_isa::decode(u32::from_le_bytes([c[0], c[1], c[2], c[3]])).ok())
            .collect();
        RefCore::with_text(Text::new(base, insts), mem, arch, scd_enabled, nbids)
    }

    fn with_text(
        text: Text,
        mem: GuestMemory,
        arch: ArchState,
        scd_enabled: bool,
        nbids: usize,
    ) -> Self {
        RefCore {
            arch,
            mem,
            output: Vec::new(),
            instructions: 0,
            text: Arc::new(text),
            jte_map: JteMap::default(),
            scd_enabled,
            nbids: nbids.clamp(1, MAX_BRANCH_IDS),
        }
    }

    /// What a [`BopHint::Auto`] `bop` on `bid` would resolve to right
    /// now: `Some(target)` for a hit, `None` for a fall-through.
    #[inline]
    pub fn bop_auto_target(&self, bid: u8) -> Option<u64> {
        let bid = self.bid(bid);
        let s = self.arch.scd[bid];
        if self.scd_enabled && s.rop_v {
            self.jte_map.get(&(bid as u8, s.rop_d)).copied()
        } else {
            None
        }
    }

    /// The decoded instruction at `pc`, if `pc` is in text and decodable.
    pub fn inst_at(&self, pc: u64) -> Option<Inst> {
        self.text.inst(self.text.index(pc)?)
    }

    /// Clears every `Rop[bid].v` — the architectural effect of
    /// `jte.flush` and of the cycle model's emulated context-switch flush.
    /// The JTE *map* is untouched: it is architectural ground truth, not a
    /// cache.
    pub fn flush_rop(&mut self) {
        for s in &mut self.arch.scd {
            s.rop_v = false;
        }
    }

    /// Forgets every `(bid, Rop) → target` pair `jru`s have trained, as
    /// a newly built core starts. The cycle model's sampled
    /// fast-forward starts each leg this way.
    pub fn clear_jte_map(&mut self) {
        self.jte_map.clear();
    }

    #[inline]
    fn wx(&mut self, r: Reg, v: u64) {
        if !r.is_zero() {
            self.arch.regs[r.index()] = v;
        }
    }

    /// `bid` reduced to a live SCD register set.
    #[inline(always)]
    fn bid(&self, bid: u8) -> usize {
        let bid = bid as usize;
        if bid < self.nbids {
            bid
        } else {
            bid % self.nbids
        }
    }

    /// `setmask`: `Rmask[bid] <- v`.
    #[inline(always)]
    fn set_mask(&mut self, bid: u8, v: u64) {
        let bid = self.bid(bid);
        self.arch.scd[bid].rmask = v;
    }

    /// The SCD side effect of a `<load>.op` that loaded `v`:
    /// `Rop[bid] <- v & Rmask[bid]`, valid.
    #[inline(always)]
    fn load_op_commit(&mut self, bid: u8, v: u64) {
        let bid = self.bid(bid);
        let s = &mut self.arch.scd[bid];
        s.rop_d = v & s.rmask;
        s.rop_v = true;
    }

    /// The SCD side effect of a `bop` that redirects: `Rop[bid]` is
    /// consumed.
    #[inline(always)]
    fn bop_follow(&mut self, bid: u8) {
        let bid = self.bid(bid);
        self.arch.scd[bid].rop_v = false;
    }

    /// `jru` to register value `rs1`: trains the JTE map on a valid
    /// `Rop[bid]` (last write wins, exactly like the cycle model's
    /// update-in-place JTE insert), consumes it, and returns the target.
    #[inline(always)]
    fn jru_train(&mut self, bid: u8, rs1: u64) -> u64 {
        let bid = self.bid(bid);
        let target = rs1 & !1;
        if self.scd_enabled && self.arch.scd[bid].rop_v {
            self.jte_map.insert((bid as u8, self.arch.scd[bid].rop_d), target);
            self.arch.scd[bid].rop_v = false;
        }
        target
    }

    /// Executes one instruction at the current PC and returns its
    /// architectural effects. `hint` resolves `bop` (see [`BopHint`]).
    ///
    /// # Errors
    /// Any [`RefError`]; the core state is unspecified after an error.
    #[inline]
    pub fn step(&mut self, hint: BopHint) -> Result<StepArch, RefError> {
        let mut out = StepArch::default();
        self.step_impl::<true>(hint, &mut out)?;
        Ok(out)
    }

    /// The one-instruction execution body behind [`RefCore::step`] and
    /// the irregular cases of [`RefCore::run`] (`ecall`, `ebreak`,
    /// holes, faults, bad pcs). `TRACE` selects (at monomorphization
    /// time) whether the [`StepArch`] record is populated. Returns the
    /// exit code when this instruction was the halting `ecall`.
    #[inline(always)]
    fn step_impl<const TRACE: bool>(
        &mut self,
        hint: BopHint,
        out: &mut StepArch,
    ) -> Result<Option<u64>, RefError> {
        let pc = self.arch.pc;
        let idx = self.text.index(pc).ok_or(RefError::PcOutOfRange { pc })?;
        let inst = self.text.inst(idx).ok_or(RefError::BadInst { pc })?;
        let fault = |fault| RefError::Mem { pc, fault };

        let mut next_pc = pc + 4;
        let mut ea = None;
        let mut store = None;
        let mut exited = None;

        match inst {
            Inst::Lui { rd, imm } => self.wx(rd, imm as u64),
            Inst::Auipc { rd, imm } => self.wx(rd, pc.wrapping_add(imm as u64)),
            Inst::Jal { rd, offset } => {
                next_pc = pc.wrapping_add(offset as u64);
                self.wx(rd, pc + 4);
            }
            Inst::Jalr { rd, rs1, offset } => {
                // Target before writeback: `jalr ra, 0(ra)` must use the
                // incoming ra.
                next_pc = self.arch.regs[rs1.index()].wrapping_add(offset as u64) & !1;
                self.wx(rd, pc + 4);
            }
            Inst::Branch { op, rs1, rs2, offset } => {
                let x = &self.arch.regs;
                if exec::branch_taken(op, x[rs1.index()], x[rs2.index()]) {
                    next_pc = pc.wrapping_add(offset as u64);
                }
            }
            Inst::Load { op, rd, rs1, offset } => {
                let addr = self.arch.regs[rs1.index()].wrapping_add(offset as u64);
                ea = Some(addr);
                let raw = self.mem.read(addr, exec::load_width(op)).map_err(fault)?;
                self.wx(rd, exec::load_extend(op, raw));
            }
            Inst::Store { op, rs2, rs1, offset } => {
                let addr = self.arch.regs[rs1.index()].wrapping_add(offset as u64);
                ea = Some(addr);
                let v = exec::store_truncate(op, self.arch.regs[rs2.index()]);
                store = Some(v);
                self.mem.write(addr, exec::store_width(op), v).map_err(fault)?;
            }
            Inst::OpImm { op, rd, rs1, imm } => {
                let v = exec::alu(op, self.arch.regs[rs1.index()], imm as u64);
                self.wx(rd, v);
            }
            Inst::Op { op, rd, rs1, rs2 } => {
                let v = exec::alu(op, self.arch.regs[rs1.index()], self.arch.regs[rs2.index()]);
                self.wx(rd, v);
            }
            Inst::Fld { rd, rs1, offset } => {
                let addr = self.arch.regs[rs1.index()].wrapping_add(offset as u64);
                ea = Some(addr);
                self.arch.fregs[rd.index()] = self.mem.read(addr, 8).map_err(fault)?;
            }
            Inst::Fsd { rs2, rs1, offset } => {
                let addr = self.arch.regs[rs1.index()].wrapping_add(offset as u64);
                ea = Some(addr);
                let v = self.arch.fregs[rs2.index()];
                store = Some(v);
                self.mem.write(addr, 8, v).map_err(fault)?;
            }
            Inst::FOp { op, rd, rs1, rs2 } => {
                let f = &self.arch.fregs;
                self.arch.fregs[rd.index()] = exec::fp_op(op, f[rs1.index()], f[rs2.index()]);
            }
            Inst::FCmp { op, rd, rs1, rs2 } => {
                let f = &self.arch.fregs;
                let v = exec::fcmp(op, f[rs1.index()], f[rs2.index()]);
                self.wx(rd, v as u64);
            }
            Inst::FcvtLD { rd, rs1, rm } => {
                self.wx(rd, exec::fcvt_l_d(self.arch.fregs[rs1.index()], rm));
            }
            Inst::FcvtDL { rd, rs1 } => {
                self.arch.fregs[rd.index()] = exec::fcvt_d_l(self.arch.regs[rs1.index()]);
            }
            Inst::FmvXD { rd, rs1 } => self.wx(rd, self.arch.fregs[rs1.index()]),
            Inst::FmvDX { rd, rs1 } => self.arch.fregs[rd.index()] = self.arch.regs[rs1.index()],
            Inst::Ecall => match self.arch.regs[Reg::A7.index()] {
                0 => exited = Some(self.arch.regs[Reg::A0.index()]),
                1 => self.output.push(self.arch.regs[Reg::A0.index()] as u8),
                _ => return Err(RefError::Break { pc }),
            },
            Inst::Ebreak => return Err(RefError::Break { pc }),
            Inst::Fence => {}

            // ---- SCD extension ----
            Inst::SetMask { bid, rs1 } => self.set_mask(bid, self.arch.regs[rs1.index()]),
            Inst::Bop { bid } => {
                let target = match hint {
                    BopHint::Auto => self.bop_auto_target(bid),
                    BopHint::Hit => {
                        let b = self.bid(bid);
                        if !self.arch.scd[b].rop_v {
                            return Err(RefError::BopNotValid { pc, bid: b as u8 });
                        }
                        let rop_d = self.arch.scd[b].rop_d;
                        Some(
                            self.jte_map
                                .get(&(b as u8, rop_d))
                                .copied()
                                .ok_or(RefError::BopUntrained { pc, bid: b as u8, rop_d })?,
                        )
                    }
                    BopHint::Miss => None,
                };
                if let Some(t) = target {
                    next_pc = t;
                    self.bop_follow(bid);
                }
            }
            Inst::Jru { bid, rs1 } => next_pc = self.jru_train(bid, self.arch.regs[rs1.index()]),
            Inst::JteFlush => self.flush_rop(),
            Inst::LoadOp { op, bid, rd, rs1, offset } => {
                let addr = self.arch.regs[rs1.index()].wrapping_add(offset as u64);
                ea = Some(addr);
                let raw = self.mem.read(addr, exec::load_width(op)).map_err(fault)?;
                let v = exec::load_extend(op, raw);
                self.wx(rd, v);
                self.load_op_commit(bid, v);
            }
        }

        if TRACE {
            // Writebacks are re-read from the register files (not captured
            // at the write) to mirror how the cycle model builds ArchInfo
            // in its retire stage — including x0 reading back as 0.
            *out = StepArch {
                pc,
                next_pc,
                wx: inst.def_xreg().map(|r| (r.index() as u8, self.arch.regs[r.index()])),
                wf: inst.def_freg().map(|r| (r.index() as u8, self.arch.fregs[r.index()])),
                ea,
                store,
                exited,
            };
        }
        self.instructions += 1;
        // A halted core's pc rests on its halting `ecall`, as the cycle
        // model's does.
        if exited.is_none() {
            self.arch.pc = next_pc;
        }
        Ok(exited)
    }

    /// Runs standalone ([`BopHint::Auto`]) until the guest exits, a guest
    /// error occurs, or the retirement count `instructions` reaches
    /// `max_insts`. This is the fast path: threaded code over the
    /// pre-decoded text, one budget check per straight run, with
    /// `step_impl` executing only the irregular instructions. The
    /// result — registers, memory, pc, count, output, SCD state, error —
    /// is exactly that of a [`RefCore::step`] loop.
    ///
    /// # Errors
    /// [`RefError::InstLimit`] on budget exhaustion, or any stepping error
    /// (with `pc` and `instructions` at the faulting instruction).
    pub fn run(&mut self, max_insts: u64) -> Result<u64, RefError> {
        let text = Arc::clone(&self.text);
        let mut scratch = StepArch::default();
        while self.instructions < max_insts {
            self.run_blocks(&text, max_insts);
            if self.instructions >= max_insts {
                break;
            }
            if let Some(code) = self.step_impl::<false>(BopHint::Auto, &mut scratch)? {
                return Ok(code);
            }
        }
        Err(RefError::InstLimit { limit: max_insts })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scd_isa::{Asm, LoadOp};

    fn asm() -> Asm {
        Asm::new(0x1_0000)
    }

    fn halt(a: &mut Asm, code: i64) {
        a.li(Reg::A0, code);
        a.li(Reg::A7, 0);
        a.ecall();
    }

    #[test]
    fn straight_line_alu_and_exit() {
        let mut a = asm();
        a.li(Reg::T0, 20);
        a.li(Reg::T1, 22);
        a.add(Reg::A0, Reg::T0, Reg::T1);
        a.li(Reg::A7, 0);
        a.ecall();
        let p = a.finish().unwrap();
        let mut c = RefCore::from_program(&p, false, 4);
        assert_eq!(c.run(100).unwrap(), 42);
    }

    #[test]
    fn x0_stays_zero_and_reads_back_zero_in_arch() {
        let mut a = asm();
        a.li(Reg::T0, 7);
        a.add(Reg::ZERO, Reg::T0, Reg::T0);
        halt(&mut a, 0);
        let p = a.finish().unwrap();
        let mut c = RefCore::from_program(&p, false, 4);
        // li expands to one or two insts; step until we see the add's arch.
        let mut saw = false;
        for _ in 0..10 {
            let arch = c.step(BopHint::Auto).unwrap();
            if arch.wx == Some((0, 0)) {
                saw = true;
            }
            if arch.exited.is_some() {
                break;
            }
        }
        assert!(saw, "add to x0 should report wx=(0,0)");
        assert_eq!(c.arch.regs[0], 0);
    }

    #[test]
    fn scd_hint_loop_trains_then_hits() {
        // A two-handler dispatch loop: lbu.op fetches an opcode (one per
        // 8-byte rodata word), jru trains the JTE map, and on later visits
        // bop (Auto) hits.
        let mut a = asm();
        a.la(Reg::S0, "bytes");
        a.la(Reg::S3, "table");
        a.li(Reg::T6, u8::MAX as i64);
        a.setmask(0, Reg::T6);
        a.li(Reg::S2, 0); // bytecode index
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
        halt(&mut a, 7);
        a.label("h1"); // opcode 1: advance and refetch
        a.addi(Reg::S2, Reg::S2, 1);
        a.j("fetch");
        a.ro_label("bytes");
        for b in [1u64, 1, 1, 0] {
            a.ro_word(b);
        }
        a.ro_label("table");
        a.ro_addr("h0");
        a.ro_addr("h1");
        let p = a.finish().unwrap();
        let mut c = RefCore::from_program(&p, true, 4);
        assert_eq!(c.run(10_000).unwrap(), 7);
        // The map learned both opcodes.
        assert_eq!(c.jte_map.len(), 2);
    }

    #[test]
    fn bop_hit_hint_is_validated() {
        let mut a = asm();
        a.bop(0);
        halt(&mut a, 0);
        let p = a.finish().unwrap();
        let mut c = RefCore::from_program(&p, true, 4);
        assert_eq!(c.step(BopHint::Hit), Err(RefError::BopNotValid { pc: 0x1_0000, bid: 0 }));
    }

    #[test]
    fn flush_rop_clears_valid_but_keeps_map() {
        let mut c = RefCore::from_program(
            &{
                let mut a = asm();
                a.nop();
                a.finish().unwrap()
            },
            true,
            4,
        );
        c.arch.scd[1].rop_v = true;
        c.jte_map.insert((1, 3), 0x1_0040);
        c.flush_rop();
        assert!(!c.arch.scd[1].rop_v);
        assert_eq!(c.jte_map.len(), 1);
    }

    #[test]
    fn memory_faults_are_reported() {
        let mut a = asm();
        a.li(Reg::T0, 0x9999);
        a.ld(Reg::T1, 0, Reg::T0);
        halt(&mut a, 0);
        let p = a.finish().unwrap();
        let mut c = RefCore::from_program(&p, false, 4);
        let e = c.run(100).unwrap_err();
        assert!(matches!(e, RefError::Mem { fault, .. } if !fault.write), "{e:?}");
    }

    #[test]
    fn accesses_wrapping_past_2_pow_64_fault() {
        for (width, store) in [(8u64, false), (8, true), (4, false), (2, true)] {
            let mut a = asm();
            a.li(Reg::T0, -(width as i64) / 2);
            let k = width.trailing_zeros() as usize;
            if store {
                a.store(scd_isa::StoreOp::ALL[k], Reg::T1, 0, Reg::T0);
            } else {
                a.load(LoadOp::ALL[k], Reg::T1, 0, Reg::T0);
            }
            halt(&mut a, 0);
            let p = a.finish().unwrap();
            let fault = RefError::Mem {
                pc: p.text_end() - 16,
                fault: MemFault { addr: (-(width as i64) / 2) as u64, size: width, write: store },
            };
            let mut stepped = RefCore::from_program(&p, false, 4);
            stepped.mem.add_segment("low", 0, 64);
            assert_eq!(stepped.step(BopHint::Auto).map(|_| ()), Ok(()));
            assert_eq!(stepped.step(BopHint::Auto), Err(fault));
            let mut ran = RefCore::from_program(&p, false, 4);
            ran.mem.add_segment("low", 0, 64);
            assert_eq!(ran.run(100), Err(fault));
        }
    }
}
