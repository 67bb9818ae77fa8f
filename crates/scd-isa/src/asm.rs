//! A small two-section (text + rodata) assembler used to author the guest
//! interpreter binaries.
//!
//! The builder records instructions with optional label fixups; `finish`
//! assigns addresses, resolves labels (branch/jump offsets, absolute
//! address materialization, jump-table words in rodata) and returns a
//! [`Program`] ready to be loaded into the simulator.
//!
//! Each label name is interned once into a dense `LabelId`; fixups and
//! rodata words carry the id, and `finish` resolves them through a table
//! indexed by id.

use crate::code::{encode, CodeError};
use crate::inst::{AluOp, BranchOp, Inst, LoadOp, StoreOp};
use crate::reg::{FReg, Reg};
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// A label's index in the order its name was first seen.
type LabelId = u32;

/// Label-dependent patch attached to an emitted instruction.
#[derive(Debug, Clone, Copy)]
enum Fixup {
    /// Conditional branch to a label: patch the B-type offset.
    Branch(LabelId),
    /// `jal` to a label: patch the J-type offset.
    Jal(LabelId),
    /// `lui rd, %hi(label)` with `+0x800` rounding.
    AbsHi(LabelId),
    /// `addiw rd, rd, %lo(label)`.
    AbsLo(LabelId),
}

/// An item in the read-only data section.
#[derive(Debug, Clone, Copy)]
enum RoItem {
    /// A literal 64-bit word.
    Word(u64),
    /// The absolute address of a text or rodata label.
    Addr(LabelId),
}

/// Where a label is defined: a text index, a rodata word index, or
/// (an error at `finish`) both.
#[derive(Debug, Clone, Copy, Default)]
struct LabelDef {
    text: Option<u32>,
    ro: Option<u32>,
}

/// 64-bit FNV-1a. Label names are short and come from the guest
/// builders, not from untrusted input, so the interner needs no keyed
/// hash.
#[derive(Debug, Clone, Copy)]
struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Error raised while assembling a program.
#[derive(Debug, Clone)]
pub enum AsmError {
    /// A referenced label was never defined.
    UndefinedLabel(String),
    /// A label was defined twice.
    DuplicateLabel(String),
    /// A resolved value did not fit the instruction encoding.
    Encode {
        /// Text index of the offending instruction.
        at: usize,
        /// The instruction after fixups.
        inst: Inst,
        /// The underlying encoding error.
        err: CodeError,
    },
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsmError::UndefinedLabel(l) => write!(f, "undefined label `{l}`"),
            AsmError::DuplicateLabel(l) => write!(f, "duplicate label `{l}`"),
            AsmError::Encode { at, inst, err } => {
                write!(f, "cannot encode `{inst}` at text index {at}: {err}")
            }
        }
    }
}

impl std::error::Error for AsmError {}

/// A fully assembled guest program.
#[derive(Debug, Clone)]
pub struct Program {
    /// Base address of the text section.
    pub text_base: u64,
    /// Encoded instruction words.
    pub words: Vec<u32>,
    /// The same instructions in decoded form (index = (pc-text_base)/4).
    /// Reference-counted so every machine built from this program shares
    /// one decoded copy instead of cloning it per simulation cell.
    pub insts: std::sync::Arc<[Inst]>,
    /// Base address of the read-only data section.
    pub rodata_base: u64,
    /// Read-only data bytes (jump tables etc.).
    pub rodata: Vec<u8>,
    /// Label name to absolute address.
    pub symbols: HashMap<String, u64>,
}

impl Program {
    /// Address of a label.
    ///
    /// # Panics
    /// Panics if the label does not exist (programming error in the guest
    /// builder, not a user input).
    pub fn sym(&self, name: &str) -> u64 {
        *self.symbols.get(name).unwrap_or_else(|| panic!("no symbol `{name}`"))
    }

    /// End address (exclusive) of the text section.
    pub fn text_end(&self) -> u64 {
        self.text_base + 4 * self.words.len() as u64
    }

    /// The half-open address range `[start, end)` between two labels.
    pub fn range(&self, start: &str, end: &str) -> (u64, u64) {
        (self.sym(start), self.sym(end))
    }

    /// Renders a disassembly listing of the text section.
    pub fn listing(&self) -> String {
        use std::fmt::Write as _;
        let mut rev: HashMap<u64, Vec<&str>> = HashMap::new();
        for (name, &addr) in &self.symbols {
            rev.entry(addr).or_default().push(name);
        }
        let mut out = String::new();
        for (i, inst) in self.insts.iter().enumerate() {
            let pc = self.text_base + 4 * i as u64;
            if let Some(names) = rev.get(&pc) {
                let mut names = names.clone();
                names.sort_unstable();
                for n in names {
                    let _ = writeln!(out, "{n}:");
                }
            }
            let _ = writeln!(out, "  {pc:#010x}:  {inst}");
        }
        out
    }
}

/// The assembler/builder. See the crate-level docs for an example.
#[derive(Debug)]
pub struct Asm {
    text_base: u64,
    /// The emitted instructions; label-dependent fields hold 0 until
    /// `finish` applies `fixups`.
    insts: Vec<Inst>,
    /// Label patches as (text index, patch), in text order.
    fixups: Vec<(u32, Fixup)>,
    /// Label name to id, the only copy of each name until `finish`
    /// moves it into [`Program::symbols`].
    ids: HashMap<String, LabelId, BuildHasherDefault<Fnv1a>>,
    /// Each label's definition, indexed by id.
    defs: Vec<LabelDef>,
    ro_items: Vec<RoItem>,
    error: Option<AsmError>,
}

impl Asm {
    /// Creates an assembler whose text section starts at `text_base`
    /// (must be 4-byte aligned).
    ///
    /// # Panics
    /// Panics if `text_base` is not 4-byte aligned.
    pub fn new(text_base: u64) -> Self {
        assert_eq!(text_base % 4, 0, "text base must be 4-byte aligned");
        Asm {
            text_base,
            insts: Vec::new(),
            fixups: Vec::new(),
            // The guest interpreters define a few hundred labels each.
            ids: HashMap::with_capacity_and_hasher(256, Default::default()),
            defs: Vec::with_capacity(256),
            ro_items: Vec::new(),
            error: None,
        }
    }

    /// Number of instructions emitted so far.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// True if no instructions were emitted yet.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Address the next emitted instruction will receive.
    pub fn here(&self) -> u64 {
        self.text_base + 4 * self.insts.len() as u64
    }

    fn set_err(&mut self, e: AsmError) {
        if self.error.is_none() {
            self.error = Some(e);
        }
    }

    /// The id of label `name`, interning it on first sight. Every
    /// label-taking method accepts a `&str` or a `String`; an owned
    /// name is moved into the table rather than copied.
    fn intern(&mut self, name: Cow<'_, str>) -> LabelId {
        if let Some(&id) = self.ids.get(&*name) {
            return id;
        }
        let id = LabelId::try_from(self.defs.len()).expect("fewer than 2^32 labels");
        self.ids.insert(name.into_owned(), id);
        self.defs.push(LabelDef::default());
        id
    }

    /// The name interned as `id`. A linear scan, for error paths only.
    fn name_of(&self, id: LabelId) -> String {
        let found = self.ids.iter().find(|&(_, &v)| v == id);
        found.map(|(name, _)| name.clone()).unwrap_or_default()
    }

    /// Defines a text label at the current position.
    pub fn label<'n>(&mut self, name: impl Into<Cow<'n, str>>) -> &mut Self {
        let (id, at) = (self.intern(name.into()), self.text_index());
        if self.defs[id as usize].text.replace(at).is_some() {
            self.set_err(AsmError::DuplicateLabel(self.name_of(id)));
        }
        self
    }

    /// The text index the next emitted instruction will receive.
    fn text_index(&self) -> u32 {
        u32::try_from(self.insts.len()).expect("fewer than 2^32 instructions")
    }

    /// Emits a raw instruction.
    pub fn inst(&mut self, inst: Inst) -> &mut Self {
        self.insts.push(inst);
        self
    }

    fn inst_fix(&mut self, inst: Inst, fix: Fixup) -> &mut Self {
        self.fixups.push((self.text_index(), fix));
        self.inst(inst)
    }

    // ---- integer ALU ----

    /// Emits `op`.
    pub fn op(&mut self, op: AluOp, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.inst(Inst::Op { op, rd, rs1, rs2 })
    }

    /// Emits `opi`.
    pub fn opi(&mut self, op: AluOp, rd: Reg, rs1: Reg, imm: i64) -> &mut Self {
        self.inst(Inst::OpImm { op, rd, rs1, imm })
    }

    /// Emits `add`.
    pub fn add(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.op(AluOp::Add, rd, rs1, rs2)
    }
    /// Emits `sub`.
    pub fn sub(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.op(AluOp::Sub, rd, rs1, rs2)
    }
    /// Emits `and`.
    pub fn and(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.op(AluOp::And, rd, rs1, rs2)
    }
    /// Emits `or`.
    pub fn or(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.op(AluOp::Or, rd, rs1, rs2)
    }
    /// Emits `xor`.
    pub fn xor(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.op(AluOp::Xor, rd, rs1, rs2)
    }
    /// Emits `sltu`.
    pub fn sltu(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.op(AluOp::Sltu, rd, rs1, rs2)
    }
    /// Emits `slt`.
    pub fn slt(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.op(AluOp::Slt, rd, rs1, rs2)
    }
    /// Emits `sll`.
    pub fn sll(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.op(AluOp::Sll, rd, rs1, rs2)
    }
    /// Emits `srl`.
    pub fn srl(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.op(AluOp::Srl, rd, rs1, rs2)
    }
    /// Emits `mul`.
    pub fn mul(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.op(AluOp::Mul, rd, rs1, rs2)
    }
    /// Emits `div`.
    pub fn div(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.op(AluOp::Div, rd, rs1, rs2)
    }
    /// Emits `rem`.
    pub fn rem(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.op(AluOp::Rem, rd, rs1, rs2)
    }
    /// Emits `remu`.
    pub fn remu(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.op(AluOp::Remu, rd, rs1, rs2)
    }

    /// Emits `addi`.
    pub fn addi(&mut self, rd: Reg, rs1: Reg, imm: i64) -> &mut Self {
        self.opi(AluOp::Add, rd, rs1, imm)
    }
    /// Emits `andi`.
    pub fn andi(&mut self, rd: Reg, rs1: Reg, imm: i64) -> &mut Self {
        self.opi(AluOp::And, rd, rs1, imm)
    }
    /// Emits `ori`.
    pub fn ori(&mut self, rd: Reg, rs1: Reg, imm: i64) -> &mut Self {
        self.opi(AluOp::Or, rd, rs1, imm)
    }
    /// Emits `xori`.
    pub fn xori(&mut self, rd: Reg, rs1: Reg, imm: i64) -> &mut Self {
        self.opi(AluOp::Xor, rd, rs1, imm)
    }
    /// Emits `slti`.
    pub fn slti(&mut self, rd: Reg, rs1: Reg, imm: i64) -> &mut Self {
        self.opi(AluOp::Slt, rd, rs1, imm)
    }
    /// Emits `sltiu`.
    pub fn sltiu(&mut self, rd: Reg, rs1: Reg, imm: i64) -> &mut Self {
        self.opi(AluOp::Sltu, rd, rs1, imm)
    }
    /// Emits `slli`.
    pub fn slli(&mut self, rd: Reg, rs1: Reg, sh: i64) -> &mut Self {
        self.opi(AluOp::Sll, rd, rs1, sh)
    }
    /// Emits `srli`.
    pub fn srli(&mut self, rd: Reg, rs1: Reg, sh: i64) -> &mut Self {
        self.opi(AluOp::Srl, rd, rs1, sh)
    }
    /// Emits `srai`.
    pub fn srai(&mut self, rd: Reg, rs1: Reg, sh: i64) -> &mut Self {
        self.opi(AluOp::Sra, rd, rs1, sh)
    }

    // ---- memory ----

    /// Emits `load`.
    pub fn load(&mut self, op: LoadOp, rd: Reg, offset: i64, rs1: Reg) -> &mut Self {
        self.inst(Inst::Load { op, rd, rs1, offset })
    }
    /// Emits `store`.
    pub fn store(&mut self, op: StoreOp, rs2: Reg, offset: i64, rs1: Reg) -> &mut Self {
        self.inst(Inst::Store { op, rs2, rs1, offset })
    }
    /// Emits `lb`.
    pub fn lb(&mut self, rd: Reg, offset: i64, rs1: Reg) -> &mut Self {
        self.load(LoadOp::Lb, rd, offset, rs1)
    }
    /// Emits `lbu`.
    pub fn lbu(&mut self, rd: Reg, offset: i64, rs1: Reg) -> &mut Self {
        self.load(LoadOp::Lbu, rd, offset, rs1)
    }
    /// Emits `lhu`.
    pub fn lhu(&mut self, rd: Reg, offset: i64, rs1: Reg) -> &mut Self {
        self.load(LoadOp::Lhu, rd, offset, rs1)
    }
    /// Emits `lh`.
    pub fn lh(&mut self, rd: Reg, offset: i64, rs1: Reg) -> &mut Self {
        self.load(LoadOp::Lh, rd, offset, rs1)
    }
    /// Emits `lw`.
    pub fn lw(&mut self, rd: Reg, offset: i64, rs1: Reg) -> &mut Self {
        self.load(LoadOp::Lw, rd, offset, rs1)
    }
    /// Emits `lwu`.
    pub fn lwu(&mut self, rd: Reg, offset: i64, rs1: Reg) -> &mut Self {
        self.load(LoadOp::Lwu, rd, offset, rs1)
    }
    /// Emits `ld`.
    pub fn ld(&mut self, rd: Reg, offset: i64, rs1: Reg) -> &mut Self {
        self.load(LoadOp::Ld, rd, offset, rs1)
    }
    /// Emits `sb`.
    pub fn sb(&mut self, rs2: Reg, offset: i64, rs1: Reg) -> &mut Self {
        self.store(StoreOp::Sb, rs2, offset, rs1)
    }
    /// Emits `sw`.
    pub fn sw(&mut self, rs2: Reg, offset: i64, rs1: Reg) -> &mut Self {
        self.store(StoreOp::Sw, rs2, offset, rs1)
    }
    /// Emits `sd`.
    pub fn sd(&mut self, rs2: Reg, offset: i64, rs1: Reg) -> &mut Self {
        self.store(StoreOp::Sd, rs2, offset, rs1)
    }
    /// Emits `fld`.
    pub fn fld(&mut self, rd: FReg, offset: i64, rs1: Reg) -> &mut Self {
        self.inst(Inst::Fld { rd, rs1, offset })
    }
    /// Emits `fsd`.
    pub fn fsd(&mut self, rs2: FReg, offset: i64, rs1: Reg) -> &mut Self {
        self.inst(Inst::Fsd { rs2, rs1, offset })
    }

    // ---- FP ----

    /// Emits `fop`.
    pub fn fop(&mut self, op: crate::inst::FpOp, rd: FReg, rs1: FReg, rs2: FReg) -> &mut Self {
        self.inst(Inst::FOp { op, rd, rs1, rs2 })
    }
    /// Emits `fadd`.
    pub fn fadd(&mut self, rd: FReg, rs1: FReg, rs2: FReg) -> &mut Self {
        self.fop(crate::inst::FpOp::FaddD, rd, rs1, rs2)
    }
    /// Emits `fsub`.
    pub fn fsub(&mut self, rd: FReg, rs1: FReg, rs2: FReg) -> &mut Self {
        self.fop(crate::inst::FpOp::FsubD, rd, rs1, rs2)
    }
    /// Emits `fmul`.
    pub fn fmul(&mut self, rd: FReg, rs1: FReg, rs2: FReg) -> &mut Self {
        self.fop(crate::inst::FpOp::FmulD, rd, rs1, rs2)
    }
    /// Emits `fdiv`.
    pub fn fdiv(&mut self, rd: FReg, rs1: FReg, rs2: FReg) -> &mut Self {
        self.fop(crate::inst::FpOp::FdivD, rd, rs1, rs2)
    }
    /// Emits `fsqrt`.
    pub fn fsqrt(&mut self, rd: FReg, rs1: FReg) -> &mut Self {
        self.fop(crate::inst::FpOp::FsqrtD, rd, rs1, FReg::FT0)
    }
    /// Emits `fcmp`.
    pub fn fcmp(&mut self, op: crate::inst::FCmpOp, rd: Reg, rs1: FReg, rs2: FReg) -> &mut Self {
        self.inst(Inst::FCmp { op, rd, rs1, rs2 })
    }
    /// Emits `feq`.
    pub fn feq(&mut self, rd: Reg, rs1: FReg, rs2: FReg) -> &mut Self {
        self.fcmp(crate::inst::FCmpOp::FeqD, rd, rs1, rs2)
    }
    /// Emits `flt`.
    pub fn flt(&mut self, rd: Reg, rs1: FReg, rs2: FReg) -> &mut Self {
        self.fcmp(crate::inst::FCmpOp::FltD, rd, rs1, rs2)
    }
    /// Emits `fle`.
    pub fn fle(&mut self, rd: Reg, rs1: FReg, rs2: FReg) -> &mut Self {
        self.fcmp(crate::inst::FCmpOp::FleD, rd, rs1, rs2)
    }
    /// Emits `fcvt.l.d`.
    pub fn fcvt_l_d(&mut self, rd: Reg, rs1: FReg, rm: crate::inst::Rounding) -> &mut Self {
        self.inst(Inst::FcvtLD { rd, rs1, rm })
    }
    /// Emits `fcvt.d.l`.
    pub fn fcvt_d_l(&mut self, rd: FReg, rs1: Reg) -> &mut Self {
        self.inst(Inst::FcvtDL { rd, rs1 })
    }
    /// Emits `fmv.x.d`.
    pub fn fmv_x_d(&mut self, rd: Reg, rs1: FReg) -> &mut Self {
        self.inst(Inst::FmvXD { rd, rs1 })
    }
    /// Emits `fmv.d.x`.
    pub fn fmv_d_x(&mut self, rd: FReg, rs1: Reg) -> &mut Self {
        self.inst(Inst::FmvDX { rd, rs1 })
    }

    // ---- control flow ----

    /// Conditional branch to a label (must resolve within ±4 KiB).
    pub fn br<'n>(
        &mut self,
        op: BranchOp,
        rs1: Reg,
        rs2: Reg,
        label: impl Into<Cow<'n, str>>,
    ) -> &mut Self {
        let id = self.intern(label.into());
        self.inst_fix(Inst::Branch { op, rs1, rs2, offset: 0 }, Fixup::Branch(id))
    }
    /// Emits `beq`.
    pub fn beq<'n>(&mut self, rs1: Reg, rs2: Reg, label: impl Into<Cow<'n, str>>) -> &mut Self {
        self.br(BranchOp::Beq, rs1, rs2, label)
    }
    /// Emits `bne`.
    pub fn bne<'n>(&mut self, rs1: Reg, rs2: Reg, label: impl Into<Cow<'n, str>>) -> &mut Self {
        self.br(BranchOp::Bne, rs1, rs2, label)
    }
    /// Emits `blt`.
    pub fn blt<'n>(&mut self, rs1: Reg, rs2: Reg, label: impl Into<Cow<'n, str>>) -> &mut Self {
        self.br(BranchOp::Blt, rs1, rs2, label)
    }
    /// Emits `bge`.
    pub fn bge<'n>(&mut self, rs1: Reg, rs2: Reg, label: impl Into<Cow<'n, str>>) -> &mut Self {
        self.br(BranchOp::Bge, rs1, rs2, label)
    }
    /// Emits `bltu`.
    pub fn bltu<'n>(&mut self, rs1: Reg, rs2: Reg, label: impl Into<Cow<'n, str>>) -> &mut Self {
        self.br(BranchOp::Bltu, rs1, rs2, label)
    }
    /// Emits `bgeu`.
    pub fn bgeu<'n>(&mut self, rs1: Reg, rs2: Reg, label: impl Into<Cow<'n, str>>) -> &mut Self {
        self.br(BranchOp::Bgeu, rs1, rs2, label)
    }
    /// Emits `beqz`.
    pub fn beqz<'n>(&mut self, rs1: Reg, label: impl Into<Cow<'n, str>>) -> &mut Self {
        self.beq(rs1, Reg::ZERO, label)
    }
    /// Emits `bnez`.
    pub fn bnez<'n>(&mut self, rs1: Reg, label: impl Into<Cow<'n, str>>) -> &mut Self {
        self.bne(rs1, Reg::ZERO, label)
    }

    /// Unconditional jump (`jal x0`) to a label (±1 MiB).
    pub fn j<'n>(&mut self, label: impl Into<Cow<'n, str>>) -> &mut Self {
        let id = self.intern(label.into());
        self.inst_fix(Inst::Jal { rd: Reg::ZERO, offset: 0 }, Fixup::Jal(id))
    }

    /// Call (`jal ra`) to a label.
    pub fn call<'n>(&mut self, label: impl Into<Cow<'n, str>>) -> &mut Self {
        let id = self.intern(label.into());
        self.inst_fix(Inst::Jal { rd: Reg::RA, offset: 0 }, Fixup::Jal(id))
    }

    /// Indirect jump through a register (`jalr x0, 0(rs1)`).
    pub fn jr(&mut self, rs1: Reg) -> &mut Self {
        self.inst(Inst::Jalr { rd: Reg::ZERO, rs1, offset: 0 })
    }

    /// Return (`jalr x0, 0(ra)`).
    pub fn ret(&mut self) -> &mut Self {
        self.jr(Reg::RA)
    }

    /// Emits `ecall`.
    pub fn ecall(&mut self) -> &mut Self {
        self.inst(Inst::Ecall)
    }
    /// Emits `nop`.
    pub fn nop(&mut self) -> &mut Self {
        self.addi(Reg::ZERO, Reg::ZERO, 0)
    }
    /// Emits `mv`.
    pub fn mv(&mut self, rd: Reg, rs1: Reg) -> &mut Self {
        self.addi(rd, rs1, 0)
    }

    // ---- SCD extension ----

    /// Emits `setmask`.
    pub fn setmask(&mut self, bid: u8, rs1: Reg) -> &mut Self {
        self.inst(Inst::SetMask { bid, rs1 })
    }
    /// Emits `bop`.
    pub fn bop(&mut self, bid: u8) -> &mut Self {
        self.inst(Inst::Bop { bid })
    }
    /// Emits `jru`.
    pub fn jru(&mut self, bid: u8, rs1: Reg) -> &mut Self {
        self.inst(Inst::Jru { bid, rs1 })
    }
    /// Emits `jte_flush`.
    pub fn jte_flush(&mut self) -> &mut Self {
        self.inst(Inst::JteFlush)
    }
    /// A load with the `.op` suffix (writes Rop\[bid\] with the masked value).
    pub fn load_op(&mut self, op: LoadOp, bid: u8, rd: Reg, offset: i64, rs1: Reg) -> &mut Self {
        self.inst(Inst::LoadOp { op, bid, rd, rs1, offset })
    }

    // ---- pseudo-instructions ----

    /// Materializes an arbitrary 64-bit constant into `rd`.
    pub fn li(&mut self, rd: Reg, value: i64) -> &mut Self {
        if (-2048..=2047).contains(&value) {
            return self.addi(rd, Reg::ZERO, value);
        }
        if value as i32 as i64 == value {
            // lui + addiw
            let lo = (value << 52) >> 52; // sign-extended low 12
            let hi = value - lo;
            // hi fits in the upper-20 immediate as a sign-extended 32-bit
            self.inst(Inst::Lui { rd, imm: hi as i32 as i64 });
            if lo != 0 {
                self.opi(AluOp::Addw, rd, rd, lo);
            }
            return self;
        }
        // If the value is a 32-bit-representable value shifted left, build
        // the base and shift.
        let tz = value.trailing_zeros().min(63);
        if tz > 0 && ((value >> tz) as i32 as i64) == (value >> tz) {
            self.li(rd, value >> tz);
            return self.slli(rd, rd, tz as i64);
        }
        // General case: recursive 12-bit chunks.
        let lo = (value << 52) >> 52;
        let hi = (value - lo) >> 12;
        self.li(rd, hi);
        self.slli(rd, rd, 12);
        if lo != 0 {
            self.addi(rd, rd, lo);
        }
        self
    }

    /// Loads the absolute address of a label into `rd` (`lui`+`addiw`).
    ///
    /// All guest addresses fit in 31 bits, so this is always two
    /// instructions.
    pub fn la<'n>(&mut self, rd: Reg, label: impl Into<Cow<'n, str>>) -> &mut Self {
        let id = self.intern(label.into());
        self.inst_fix(Inst::Lui { rd, imm: 0 }, Fixup::AbsHi(id));
        self.inst_fix(Inst::OpImm { op: AluOp::Addw, rd, rs1: rd, imm: 0 }, Fixup::AbsLo(id))
    }

    // ---- rodata ----

    /// Defines a label in the rodata section at the current rodata offset.
    pub fn ro_label<'n>(&mut self, name: impl Into<Cow<'n, str>>) -> &mut Self {
        let id = self.intern(name.into());
        let at = u32::try_from(self.ro_items.len()).expect("fewer than 2^32 rodata words");
        if self.defs[id as usize].ro.replace(at).is_some() {
            self.set_err(AsmError::DuplicateLabel(self.name_of(id)));
        }
        self
    }

    /// Emits a literal 64-bit rodata word.
    pub fn ro_word(&mut self, w: u64) -> &mut Self {
        self.ro_items.push(RoItem::Word(w));
        self
    }

    /// Emits the absolute address of a label as a 64-bit rodata word
    /// (the building block for software jump tables).
    pub fn ro_addr<'n>(&mut self, label: impl Into<Cow<'n, str>>) -> &mut Self {
        let id = self.intern(label.into());
        self.ro_items.push(RoItem::Addr(id));
        self
    }

    /// Resolves all labels and produces the final [`Program`].
    ///
    /// # Errors
    /// Returns an error for undefined/duplicate labels or out-of-range
    /// resolved offsets.
    pub fn finish(mut self) -> Result<Program, AsmError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        let text_base = self.text_base;
        let text_len = 4 * self.insts.len() as u64;
        // Keep rodata on its own cache lines / pages.
        let rodata_base = (text_base + text_len + 63) & !63;

        let mut names = vec![String::new(); self.defs.len()];
        for (name, id) in self.ids {
            names[id as usize] = name;
        }
        let mut addrs = Vec::with_capacity(self.defs.len());
        for (id, def) in self.defs.iter().enumerate() {
            addrs.push(match (def.text, def.ro) {
                (Some(_), Some(_)) => {
                    return Err(AsmError::DuplicateLabel(std::mem::take(&mut names[id])))
                }
                (Some(i), None) => Some(text_base + 4 * u64::from(i)),
                (None, Some(i)) => Some(rodata_base + 8 * u64::from(i)),
                (None, None) => None,
            });
        }
        let lookup = |id: LabelId| -> Result<u64, AsmError> {
            addrs[id as usize].ok_or_else(|| AsmError::UndefinedLabel(names[id as usize].clone()))
        };

        let mut fixups = self.fixups.iter().peekable();
        let mut words = Vec::with_capacity(self.insts.len());
        for (i, slot) in self.insts.iter_mut().enumerate() {
            if let Some(&(_, fix)) = fixups.next_if(|&&(at, _)| at as usize == i) {
                let pc = text_base + 4 * i as u64;
                // `%hi`/`%lo` split with `+0x800` rounding.
                let lo = |addr: u64| ((addr as i64) << 52) >> 52;
                *slot = match (fix, *slot) {
                    (Fixup::Branch(id), Inst::Branch { op, rs1, rs2, .. }) => {
                        let offset = lookup(id)?.wrapping_sub(pc) as i64;
                        Inst::Branch { op, rs1, rs2, offset }
                    }
                    (Fixup::Jal(id), Inst::Jal { rd, .. }) => {
                        Inst::Jal { rd, offset: lookup(id)?.wrapping_sub(pc) as i64 }
                    }
                    (Fixup::AbsHi(id), Inst::Lui { rd, .. }) => {
                        let addr = lookup(id)?;
                        Inst::Lui { rd, imm: (addr as i64 - lo(addr)) as i32 as i64 }
                    }
                    (Fixup::AbsLo(id), Inst::OpImm { op, rd, rs1, .. }) => {
                        Inst::OpImm { op, rd, rs1, imm: lo(lookup(id)?) }
                    }
                    (fix, inst) => unreachable!("{fix:?} fixup on `{inst}`"),
                };
            }
            let inst = *slot;
            words.push(encode(inst).map_err(|err| AsmError::Encode { at: i, inst, err })?);
        }

        let mut rodata = Vec::with_capacity(8 * self.ro_items.len());
        for &item in &self.ro_items {
            let w = match item {
                RoItem::Word(w) => w,
                RoItem::Addr(id) => lookup(id)?,
            };
            rodata.extend_from_slice(&w.to_le_bytes());
        }

        let mut symbols = HashMap::with_capacity(names.len());
        for (name, addr) in names.into_iter().zip(addrs) {
            if let Some(addr) = addr {
                symbols.insert(name, addr);
            }
        }
        Ok(Program { text_base, words, insts: self.insts.into(), rodata_base, rodata, symbols })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::Reg;

    #[test]
    fn labels_and_branches() {
        let mut a = Asm::new(0x1000);
        a.label("start");
        a.li(Reg::A0, 0);
        a.label("loop");
        a.addi(Reg::A0, Reg::A0, 1);
        a.slti(Reg::T0, Reg::A0, 10);
        a.bnez(Reg::T0, "loop");
        a.j("start");
        let p = a.finish().unwrap();
        assert_eq!(p.sym("start"), 0x1000);
        // li(0) is one addi
        assert_eq!(p.sym("loop"), 0x1004);
        // branch back: offset -8 from pc 0x100c
        match p.insts[3] {
            Inst::Branch { offset, .. } => assert_eq!(offset, -8),
            ref other => panic!("expected branch, got {other}"),
        }
        match p.insts[4] {
            Inst::Jal { offset, .. } => assert_eq!(offset, -0x10_i64),
            ref other => panic!("expected jal, got {other}"),
        }
    }

    #[test]
    fn forward_references_resolve() {
        let mut a = Asm::new(0x1000);
        a.beqz(Reg::A0, "done");
        a.j("done");
        a.call("fn");
        a.label("fn").ret();
        a.label("done").ecall();
        let p = a.finish().unwrap();
        assert_eq!(p.sym("done"), 0x1010);
        assert!(matches!(p.insts[0], Inst::Branch { offset: 16, .. }));
        assert!(matches!(p.insts[1], Inst::Jal { rd: Reg::ZERO, offset: 12 }));
        assert!(matches!(p.insts[2], Inst::Jal { rd: Reg::RA, offset: 4 }));
        assert_eq!(p.symbols.len(), 2);
    }

    fn error_of(build: fn(&mut Asm) -> &mut Asm) -> String {
        let mut a = Asm::new(0x1000);
        build(&mut a);
        a.finish().expect_err("must not assemble").to_string()
    }

    #[test]
    fn undefined_labels_are_reported_by_name() {
        assert_eq!(error_of(|a| a.j("nowhere")), "undefined label `nowhere`");
        assert_eq!(error_of(|a| a.la(Reg::A0, "far")), "undefined label `far`");
        assert_eq!(error_of(|a| a.nop().ro_addr("in_rodata")), "undefined label `in_rodata`");
        // The first unresolved reference in text order is the one named,
        // and text is resolved before rodata.
        let err = error_of(|a| a.ro_addr("in_rodata").bnez(Reg::A0, "second").j("first"));
        assert_eq!(err, "undefined label `second`");
    }

    #[test]
    fn duplicate_labels_are_reported_by_name() {
        assert_eq!(error_of(|a| a.label("x").nop().label("x")), "duplicate label `x`");
        assert_eq!(error_of(|a| a.ro_label("t").ro_word(0).ro_label("t")), "duplicate label `t`");
        // A label defined in text and in rodata collides too.
        let err = error_of(|a| a.label("jt").nop().ro_label("jt").ro_word(1));
        assert_eq!(err, "duplicate label `jt`");
        // A definition error wins over an unresolved reference.
        let err = error_of(|a| a.j("nowhere").label("x").label("y").label("x"));
        assert_eq!(err, "duplicate label `x`");
        let mut a = Asm::new(0x1000);
        a.label("x").label("x");
        assert!(matches!(a.finish(), Err(AsmError::DuplicateLabel(l)) if l == "x"));
    }

    #[test]
    fn rodata_jump_table() {
        let mut a = Asm::new(0x1000);
        a.label("h0").nop();
        a.label("h1").nop();
        a.ro_label("jt");
        a.ro_addr("h0");
        a.ro_addr("h1");
        a.ro_word(0xdead_beef);
        let p = a.finish().unwrap();
        let jt = p.sym("jt");
        assert_eq!(jt % 64, 0);
        assert_eq!(&p.rodata[0..8], &0x1000u64.to_le_bytes());
        assert_eq!(&p.rodata[8..16], &0x1004u64.to_le_bytes());
        assert_eq!(&p.rodata[16..24], &0xdead_beefu64.to_le_bytes());
    }

    #[test]
    fn la_materializes_address() {
        let mut a = Asm::new(0x1_0000);
        a.la(Reg::A0, "target");
        for _ in 0..10 {
            a.nop();
        }
        a.label("target").nop();
        let p = a.finish().unwrap();
        // Evaluate lui+addiw by hand.
        let (hi, lo) = match (p.insts[0], p.insts[1]) {
            (Inst::Lui { imm: hi, .. }, Inst::OpImm { imm: lo, .. }) => (hi, lo),
            _ => panic!("unexpected la expansion"),
        };
        let addr = ((hi + lo) as i32) as i64 as u64;
        assert_eq!(addr, p.sym("target"));
    }

    #[test]
    fn rodata_words_point_at_text_and_rodata_labels() {
        let mut a = Asm::new(0x2000);
        a.la(Reg::A0, "table");
        a.label("h").nop().ecall();
        a.ro_label("table").ro_addr("h").ro_addr("table").ro_addr("end");
        a.ro_label("end");
        let p = a.finish().unwrap();
        // 4 instructions end at 0x2010; rodata starts on the next 64-byte line.
        assert_eq!((p.sym("h"), p.sym("table"), p.sym("end")), (0x2008, 0x2040, 0x2058));
        let words: Vec<u64> =
            p.rodata.chunks(8).map(|c| u64::from_le_bytes(c.try_into().unwrap())).collect();
        assert_eq!(words, [0x2008, 0x2040, 0x2058]);
        assert_eq!(p.range("h", "table"), (0x2008, 0x2040));
    }

    #[test]
    fn listing_names_every_label_in_order() {
        let mut a = Asm::new(0x1000);
        a.label("zeta").label("alpha").nop();
        a.label("next").ecall();
        a.ro_label("data").ro_word(7);
        let p = a.finish().unwrap();
        assert_eq!(
            p.listing(),
            "alpha:\nzeta:\n  0x00001000:  addi zero, zero, 0\nnext:\n  0x00001004:  ecall\n"
        );
    }

    #[test]
    fn listing_contains_labels() {
        let mut a = Asm::new(0x1000);
        a.label("entry").nop().ecall();
        let p = a.finish().unwrap();
        let l = p.listing();
        assert!(l.contains("entry:"));
        assert!(l.contains("ecall"));
    }
}
