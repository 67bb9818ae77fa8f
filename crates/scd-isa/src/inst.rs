//! Instruction set definition: an RV64 subset plus the SCD extension of
//! Table I in the paper (`setmask`, `<load>.op`, `bop`, `jru`, `jte.flush`).

use crate::reg::{FReg, Reg};
use std::fmt;

/// Conditional-branch comparison, RV64 B-type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchOp {
    /// `beq` — branch if equal.
    Beq,
    /// `bne` — branch if not equal.
    Bne,
    /// `blt` — branch if less than (signed).
    Blt,
    /// `bge` — branch if greater or equal (signed).
    Bge,
    /// `bltu` — branch if less than (unsigned).
    Bltu,
    /// `bgeu` — branch if greater or equal (unsigned).
    Bgeu,
}

impl BranchOp {
    /// All comparison kinds.
    pub const ALL: [BranchOp; 6] = [
        BranchOp::Beq,
        BranchOp::Bne,
        BranchOp::Blt,
        BranchOp::Bge,
        BranchOp::Bltu,
        BranchOp::Bgeu,
    ];

    /// The funct3 field value of this operation.
    pub fn funct3(self) -> u32 {
        match self {
            BranchOp::Beq => 0b000,
            BranchOp::Bne => 0b001,
            BranchOp::Blt => 0b100,
            BranchOp::Bge => 0b101,
            BranchOp::Bltu => 0b110,
            BranchOp::Bgeu => 0b111,
        }
    }

    /// The assembly mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BranchOp::Beq => "beq",
            BranchOp::Bne => "bne",
            BranchOp::Blt => "blt",
            BranchOp::Bge => "bge",
            BranchOp::Bltu => "bltu",
            BranchOp::Bgeu => "bgeu",
        }
    }
}

/// Load width/signedness, RV64 I-type loads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoadOp {
    /// `lb` — load byte (sign-extended).
    Lb,
    /// `lh` — load halfword (sign-extended).
    Lh,
    /// `lw` — load word (sign-extended).
    Lw,
    /// `ld` — load doubleword.
    Ld,
    /// `lbu` — load byte (zero-extended).
    Lbu,
    /// `lhu` — load halfword (zero-extended).
    Lhu,
    /// `lwu` — load word (zero-extended).
    Lwu,
}

impl LoadOp {
    /// All load kinds.
    pub const ALL: [LoadOp; 7] =
        [LoadOp::Lb, LoadOp::Lh, LoadOp::Lw, LoadOp::Ld, LoadOp::Lbu, LoadOp::Lhu, LoadOp::Lwu];

    /// The funct3 field value of this operation.
    pub fn funct3(self) -> u32 {
        match self {
            LoadOp::Lb => 0b000,
            LoadOp::Lh => 0b001,
            LoadOp::Lw => 0b010,
            LoadOp::Ld => 0b011,
            LoadOp::Lbu => 0b100,
            LoadOp::Lhu => 0b101,
            LoadOp::Lwu => 0b110,
        }
    }

    /// Access size in bytes.
    pub fn size(self) -> u64 {
        match self {
            LoadOp::Lb | LoadOp::Lbu => 1,
            LoadOp::Lh | LoadOp::Lhu => 2,
            LoadOp::Lw | LoadOp::Lwu => 4,
            LoadOp::Ld => 8,
        }
    }

    /// The assembly mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            LoadOp::Lb => "lb",
            LoadOp::Lh => "lh",
            LoadOp::Lw => "lw",
            LoadOp::Ld => "ld",
            LoadOp::Lbu => "lbu",
            LoadOp::Lhu => "lhu",
            LoadOp::Lwu => "lwu",
        }
    }
}

/// Store width, RV64 S-type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StoreOp {
    /// `sb` — store byte.
    Sb,
    /// `sh` — store halfword.
    Sh,
    /// `sw` — store word.
    Sw,
    /// `sd` — store doubleword.
    Sd,
}

impl StoreOp {
    /// All store kinds.
    pub const ALL: [StoreOp; 4] = [StoreOp::Sb, StoreOp::Sh, StoreOp::Sw, StoreOp::Sd];

    /// The funct3 field value of this operation.
    pub fn funct3(self) -> u32 {
        match self {
            StoreOp::Sb => 0b000,
            StoreOp::Sh => 0b001,
            StoreOp::Sw => 0b010,
            StoreOp::Sd => 0b011,
        }
    }

    /// Access size in bytes.
    pub fn size(self) -> u64 {
        match self {
            StoreOp::Sb => 1,
            StoreOp::Sh => 2,
            StoreOp::Sw => 4,
            StoreOp::Sd => 8,
        }
    }

    /// The assembly mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            StoreOp::Sb => "sb",
            StoreOp::Sh => "sh",
            StoreOp::Sw => "sw",
            StoreOp::Sd => "sd",
        }
    }
}

/// Register-register / register-immediate integer ALU operation.
///
/// Not every member is legal in the immediate form; see
/// [`AluOp::has_imm_form`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// `add` — addition.
    Add,
    /// `sub` — subtraction.
    Sub,
    /// `sll` — shift left logical.
    Sll,
    /// `slt` — set if less than (signed).
    Slt,
    /// `sltu` — set if less than (unsigned).
    Sltu,
    /// `xor` — bitwise xor.
    Xor,
    /// `srl` — shift right logical.
    Srl,
    /// `sra` — shift right arithmetic.
    Sra,
    /// `or` — bitwise or.
    Or,
    /// `and` — bitwise and.
    And,
    // RV64 W (32-bit) forms
    /// `addw` — 32-bit addition (sign-extended).
    Addw,
    /// `subw` — 32-bit subtraction.
    Subw,
    /// `sllw` — 32-bit shift left.
    Sllw,
    /// `srlw` — 32-bit shift right logical.
    Srlw,
    /// `sraw` — 32-bit shift right arithmetic.
    Sraw,
    // M extension
    /// `mul` — multiply (low 64 bits).
    Mul,
    /// `mulh` — multiply high (signed x signed).
    Mulh,
    /// `mulhu` — multiply high (unsigned).
    Mulhu,
    /// `div` — signed division.
    Div,
    /// `divu` — unsigned division.
    Divu,
    /// `rem` — signed remainder.
    Rem,
    /// `remu` — unsigned remainder.
    Remu,
    /// `mulw` — 32-bit multiply.
    Mulw,
    /// `divw` — 32-bit signed division.
    Divw,
    /// `remw` — 32-bit signed remainder.
    Remw,
    /// `remuw` — 32-bit unsigned remainder.
    Remuw,
}

impl AluOp {
    /// All ALU operations.
    pub const ALL: [AluOp; 26] = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::Sll,
        AluOp::Slt,
        AluOp::Sltu,
        AluOp::Xor,
        AluOp::Srl,
        AluOp::Sra,
        AluOp::Or,
        AluOp::And,
        AluOp::Addw,
        AluOp::Subw,
        AluOp::Sllw,
        AluOp::Srlw,
        AluOp::Sraw,
        AluOp::Mul,
        AluOp::Mulh,
        AluOp::Mulhu,
        AluOp::Div,
        AluOp::Divu,
        AluOp::Rem,
        AluOp::Remu,
        AluOp::Mulw,
        AluOp::Divw,
        AluOp::Remw,
        AluOp::Remuw,
    ];

    /// Whether the operation exists in an OP-IMM encoding
    /// (`addi`, `slti`, ..., `slliw`).
    pub fn has_imm_form(self) -> bool {
        matches!(
            self,
            AluOp::Add
                | AluOp::Slt
                | AluOp::Sltu
                | AluOp::Xor
                | AluOp::Or
                | AluOp::And
                | AluOp::Sll
                | AluOp::Srl
                | AluOp::Sra
                | AluOp::Addw
                | AluOp::Sllw
                | AluOp::Srlw
                | AluOp::Sraw
        )
    }

    /// Whether the operation is a shift (immediate form uses a shamt).
    pub fn is_shift(self) -> bool {
        matches!(
            self,
            AluOp::Sll | AluOp::Srl | AluOp::Sra | AluOp::Sllw | AluOp::Srlw | AluOp::Sraw
        )
    }

    /// Whether this is a 32-bit (`*w`) operation.
    pub fn is_word(self) -> bool {
        matches!(
            self,
            AluOp::Addw
                | AluOp::Subw
                | AluOp::Sllw
                | AluOp::Srlw
                | AluOp::Sraw
                | AluOp::Mulw
                | AluOp::Divw
                | AluOp::Remw
                | AluOp::Remuw
        )
    }

    /// Whether this belongs to the M (multiply/divide) extension.
    pub fn is_muldiv(self) -> bool {
        matches!(
            self,
            AluOp::Mul
                | AluOp::Mulh
                | AluOp::Mulhu
                | AluOp::Div
                | AluOp::Divu
                | AluOp::Rem
                | AluOp::Remu
                | AluOp::Mulw
                | AluOp::Divw
                | AluOp::Remw
                | AluOp::Remuw
        )
    }

    /// The assembly mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::Sll => "sll",
            AluOp::Slt => "slt",
            AluOp::Sltu => "sltu",
            AluOp::Xor => "xor",
            AluOp::Srl => "srl",
            AluOp::Sra => "sra",
            AluOp::Or => "or",
            AluOp::And => "and",
            AluOp::Addw => "addw",
            AluOp::Subw => "subw",
            AluOp::Sllw => "sllw",
            AluOp::Srlw => "srlw",
            AluOp::Sraw => "sraw",
            AluOp::Mul => "mul",
            AluOp::Mulh => "mulh",
            AluOp::Mulhu => "mulhu",
            AluOp::Div => "div",
            AluOp::Divu => "divu",
            AluOp::Rem => "rem",
            AluOp::Remu => "remu",
            AluOp::Mulw => "mulw",
            AluOp::Divw => "divw",
            AluOp::Remw => "remw",
            AluOp::Remuw => "remuw",
        }
    }
}

/// Double-precision FP arithmetic (register-register, D extension).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FpOp {
    /// `fadd.d` — double-precision add.
    FaddD,
    /// `fsub.d` — double-precision subtract.
    FsubD,
    /// `fmul.d` — double-precision multiply.
    FmulD,
    /// `fdiv.d` — double-precision divide.
    FdivD,
    /// `fmin.d` — double-precision minimum.
    FminD,
    /// `fmax.d` — double-precision maximum.
    FmaxD,
    /// `fsgnj.d` — sign-injection (copy sign).
    FsgnjD,
    /// `fsgnjn.d` — sign-injection (negated sign).
    FsgnjnD,
    /// `fsgnjx.d` — sign-injection (xor sign).
    FsgnjxD,
    /// `fsqrt.d` — double-precision square root.
    FsqrtD,
}

impl FpOp {
    /// All FP operations.
    pub const ALL: [FpOp; 10] = [
        FpOp::FaddD,
        FpOp::FsubD,
        FpOp::FmulD,
        FpOp::FdivD,
        FpOp::FminD,
        FpOp::FmaxD,
        FpOp::FsgnjD,
        FpOp::FsgnjnD,
        FpOp::FsgnjxD,
        FpOp::FsqrtD,
    ];

    /// The assembly mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            FpOp::FaddD => "fadd.d",
            FpOp::FsubD => "fsub.d",
            FpOp::FmulD => "fmul.d",
            FpOp::FdivD => "fdiv.d",
            FpOp::FminD => "fmin.d",
            FpOp::FmaxD => "fmax.d",
            FpOp::FsgnjD => "fsgnj.d",
            FpOp::FsgnjnD => "fsgnjn.d",
            FpOp::FsgnjxD => "fsgnjx.d",
            FpOp::FsqrtD => "fsqrt.d",
        }
    }
}

/// FP compare writing an integer register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FCmpOp {
    /// FP compare: equal.
    FeqD,
    /// FP compare: less than.
    FltD,
    /// FP compare: less or equal.
    FleD,
}

impl FCmpOp {
    /// All FP comparisons.
    pub const ALL: [FCmpOp; 3] = [FCmpOp::FeqD, FCmpOp::FltD, FCmpOp::FleD];

    /// The assembly mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            FCmpOp::FeqD => "feq.d",
            FCmpOp::FltD => "flt.d",
            FCmpOp::FleD => "fle.d",
        }
    }
}

/// Rounding mode for `fcvt.l.d` (we only model the modes the guest uses).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rounding {
    /// Round to nearest, ties to even.
    Rne,
    /// Round towards zero (truncate).
    Rtz,
    /// Round down (floor).
    Rdn,
}

impl Rounding {
    /// All modeled rounding modes.
    pub const ALL: [Rounding; 3] = [Rounding::Rne, Rounding::Rtz, Rounding::Rdn];

    /// The rm field encoding.
    pub fn field(self) -> u32 {
        match self {
            Rounding::Rne => 0b000,
            Rounding::Rtz => 0b001,
            Rounding::Rdn => 0b010,
        }
    }
}

/// One decoded instruction of the simulated machine.
///
/// Field names follow RISC-V conventions (`rd` destination, `rs1`/`rs2`
/// sources, `imm`/`offset` immediates). The five SCD instructions
/// (Table I of the paper) carry a *branch ID* (`bid`) so that multiple
/// jump tables can be tracked simultaneously (Section IV, "Supporting
/// multiple jump tables").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // RISC-V field names are the documentation
pub enum Inst {
    /// `lui rd, imm` — load upper immediate.
    Lui { rd: Reg, imm: i64 },
    /// `auipc rd, imm` — add upper immediate to PC.
    Auipc { rd: Reg, imm: i64 },
    /// `jal rd, offset` — direct jump and link.
    Jal { rd: Reg, offset: i64 },
    /// `jalr rd, offset(rs1)` — indirect jump and link.
    Jalr { rd: Reg, rs1: Reg, offset: i64 },
    /// Conditional branch.
    Branch { op: BranchOp, rs1: Reg, rs2: Reg, offset: i64 },
    /// Memory load into an integer register.
    Load { op: LoadOp, rd: Reg, rs1: Reg, offset: i64 },
    /// Memory store from an integer register.
    Store { op: StoreOp, rs2: Reg, rs1: Reg, offset: i64 },
    /// Register-immediate ALU operation.
    OpImm { op: AluOp, rd: Reg, rs1: Reg, imm: i64 },
    /// Register-register ALU operation.
    Op { op: AluOp, rd: Reg, rs1: Reg, rs2: Reg },
    /// `fld fd, offset(rs1)` — FP load.
    Fld { rd: FReg, rs1: Reg, offset: i64 },
    /// `fsd fs2, offset(rs1)` — FP store.
    Fsd { rs2: FReg, rs1: Reg, offset: i64 },
    /// Double-precision FP arithmetic.
    FOp { op: FpOp, rd: FReg, rs1: FReg, rs2: FReg },
    /// FP comparison writing an integer register.
    FCmp { op: FCmpOp, rd: Reg, rs1: FReg, rs2: FReg },
    /// `fcvt.l.d rd, fs1, rm` — double to 64-bit signed integer.
    FcvtLD { rd: Reg, rs1: FReg, rm: Rounding },
    /// `fcvt.d.l fd, rs1` — 64-bit signed integer to double.
    FcvtDL { rd: FReg, rs1: Reg },
    /// `fmv.x.d rd, fs1` — raw bit move f-reg to x-reg.
    FmvXD { rd: Reg, rs1: FReg },
    /// `fmv.d.x fd, rs1` — raw bit move x-reg to f-reg.
    FmvDX { rd: FReg, rs1: Reg },
    /// Environment call: used as the guest's halt / host-service gateway.
    Ecall,
    /// Breakpoint: the guest interpreters use it as a trap on dynamic
    /// errors (the simulator reports it as [`a guest
    /// fault`](crate::inst::Inst::Ebreak)).
    Ebreak,
    /// Memory fence (a timing no-op in this model).
    Fence,

    // ---- SCD extension (Table I) ----
    /// `setmask` — Rmask\[bid\] <- rs1.
    SetMask { bid: u8, rs1: Reg },
    /// `bop` — branch-on-opcode: BTB lookup keyed by Rop\[bid\].
    Bop { bid: u8 },
    /// `jru` — jump-register-with-JTE-update.
    Jru { bid: u8, rs1: Reg },
    /// `jte.flush` — invalidate all JTEs in the BTB.
    JteFlush,
    /// A load with the `.op` suffix: also writes `result & Rmask\[bid\]`
    /// into Rop\[bid\] and sets Rop\[bid\].v.
    LoadOp { op: LoadOp, bid: u8, rd: Reg, rs1: Reg, offset: i64 },
}

impl Inst {
    /// True if the instruction can redirect control flow.
    pub fn is_control(&self) -> bool {
        matches!(
            self,
            Inst::Jal { .. }
                | Inst::Jalr { .. }
                | Inst::Branch { .. }
                | Inst::Bop { .. }
                | Inst::Jru { .. }
        )
    }

    /// True if the instruction reads memory.
    pub fn is_load(&self) -> bool {
        matches!(self, Inst::Load { .. } | Inst::Fld { .. } | Inst::LoadOp { .. })
    }

    /// True if the instruction writes memory.
    pub fn is_store(&self) -> bool {
        matches!(self, Inst::Store { .. } | Inst::Fsd { .. })
    }

    /// The destination integer register, if any (x0 returned as-is).
    pub fn def_xreg(&self) -> Option<Reg> {
        match *self {
            Inst::Lui { rd, .. }
            | Inst::Auipc { rd, .. }
            | Inst::Jal { rd, .. }
            | Inst::Jalr { rd, .. }
            | Inst::Load { rd, .. }
            | Inst::OpImm { rd, .. }
            | Inst::Op { rd, .. }
            | Inst::FCmp { rd, .. }
            | Inst::FcvtLD { rd, .. }
            | Inst::FmvXD { rd, .. }
            | Inst::LoadOp { rd, .. } => Some(rd),
            _ => None,
        }
    }

    /// The destination FP register, if any.
    pub fn def_freg(&self) -> Option<FReg> {
        match *self {
            Inst::Fld { rd, .. }
            | Inst::FOp { rd, .. }
            | Inst::FcvtDL { rd, .. }
            | Inst::FmvDX { rd, .. } => Some(rd),
            _ => None,
        }
    }

    /// Source integer registers (up to two).
    pub fn use_xregs(&self) -> [Option<Reg>; 2] {
        match *self {
            Inst::Jalr { rs1, .. }
            | Inst::Load { rs1, .. }
            | Inst::Fld { rs1, .. }
            | Inst::OpImm { rs1, .. }
            | Inst::FcvtDL { rs1, .. }
            | Inst::FmvDX { rs1, .. }
            | Inst::SetMask { rs1, .. }
            | Inst::Jru { rs1, .. }
            | Inst::LoadOp { rs1, .. } => [Some(rs1), None],
            Inst::Branch { rs1, rs2, .. } | Inst::Op { rs1, rs2, .. } => [Some(rs1), Some(rs2)],
            Inst::Store { rs1, rs2, .. } => [Some(rs1), Some(rs2)],
            Inst::Fsd { rs1, .. } => [Some(rs1), None],
            _ => [None, None],
        }
    }

    /// Source FP registers (up to two).
    pub fn use_fregs(&self) -> [Option<FReg>; 2] {
        match *self {
            Inst::FOp { rs1, rs2, .. } | Inst::FCmp { rs1, rs2, .. } => [Some(rs1), Some(rs2)],
            Inst::FcvtLD { rs1, .. } | Inst::FmvXD { rs1, .. } => [Some(rs1), None],
            Inst::Fsd { rs2, .. } => [Some(rs2), None],
            _ => [None, None],
        }
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Inst::Lui { rd, imm } => write!(f, "lui {rd}, {:#x}", (imm >> 12) & 0xfffff),
            Inst::Auipc { rd, imm } => write!(f, "auipc {rd}, {:#x}", (imm >> 12) & 0xfffff),
            Inst::Jal { rd, offset } => {
                if rd.is_zero() {
                    write!(f, "j {offset:+}")
                } else {
                    write!(f, "jal {rd}, {offset:+}")
                }
            }
            Inst::Jalr { rd, rs1, offset } => write!(f, "jalr {rd}, {offset}({rs1})"),
            Inst::Branch { op, rs1, rs2, offset } => {
                write!(f, "{} {rs1}, {rs2}, {offset:+}", op.mnemonic())
            }
            Inst::Load { op, rd, rs1, offset } => {
                write!(f, "{} {rd}, {offset}({rs1})", op.mnemonic())
            }
            Inst::Store { op, rs2, rs1, offset } => {
                write!(f, "{} {rs2}, {offset}({rs1})", op.mnemonic())
            }
            Inst::OpImm { op, rd, rs1, imm } => {
                let m = op.mnemonic();
                if op.is_word() {
                    // addiw, slliw, ... : immediate mnemonics insert the i
                    // before the trailing w.
                    let base = &m[..m.len() - 1];
                    write!(f, "{base}iw {rd}, {rs1}, {imm}")
                } else {
                    write!(f, "{m}i {rd}, {rs1}, {imm}")
                }
            }
            Inst::Op { op, rd, rs1, rs2 } => {
                write!(f, "{} {rd}, {rs1}, {rs2}", op.mnemonic())
            }
            Inst::Fld { rd, rs1, offset } => write!(f, "fld {rd}, {offset}({rs1})"),
            Inst::Fsd { rs2, rs1, offset } => write!(f, "fsd {rs2}, {offset}({rs1})"),
            Inst::FOp { op, rd, rs1, rs2 } => {
                if op == FpOp::FsqrtD {
                    write!(f, "fsqrt.d {rd}, {rs1}")
                } else {
                    write!(f, "{} {rd}, {rs1}, {rs2}", op.mnemonic())
                }
            }
            Inst::FCmp { op, rd, rs1, rs2 } => {
                write!(f, "{} {rd}, {rs1}, {rs2}", op.mnemonic())
            }
            Inst::FcvtLD { rd, rs1, rm } => write!(f, "fcvt.l.d {rd}, {rs1}, {rm:?}"),
            Inst::FcvtDL { rd, rs1 } => write!(f, "fcvt.d.l {rd}, {rs1}"),
            Inst::FmvXD { rd, rs1 } => write!(f, "fmv.x.d {rd}, {rs1}"),
            Inst::FmvDX { rd, rs1 } => write!(f, "fmv.d.x {rd}, {rs1}"),
            Inst::Ecall => write!(f, "ecall"),
            Inst::Ebreak => write!(f, "ebreak"),
            Inst::Fence => write!(f, "fence"),
            Inst::SetMask { bid, rs1 } => write!(f, "setmask.{bid} {rs1}"),
            Inst::Bop { bid } => write!(f, "bop.{bid}"),
            Inst::Jru { bid, rs1 } => write!(f, "jru.{bid} {rs1}"),
            Inst::JteFlush => write!(f, "jte.flush"),
            Inst::LoadOp { op, bid, rd, rs1, offset } => {
                write!(f, "{}.op.{bid} {rd}, {offset}({rs1})", op.mnemonic())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let i = Inst::OpImm { op: AluOp::Add, rd: Reg::A0, rs1: Reg::A1, imm: -4 };
        assert_eq!(i.to_string(), "addi a0, a1, -4");
        let i = Inst::OpImm { op: AluOp::Addw, rd: Reg::A0, rs1: Reg::A1, imm: 4 };
        assert_eq!(i.to_string(), "addiw a0, a1, 4");
        let i = Inst::Bop { bid: 0 };
        assert_eq!(i.to_string(), "bop.0");
        let i = Inst::LoadOp { op: LoadOp::Lw, bid: 1, rd: Reg::A0, rs1: Reg::T0, offset: 0 };
        assert_eq!(i.to_string(), "lw.op.1 a0, 0(t0)");
    }

    #[test]
    fn def_use_classification() {
        let i = Inst::Op { op: AluOp::Add, rd: Reg::A0, rs1: Reg::A1, rs2: Reg::A2 };
        assert_eq!(i.def_xreg(), Some(Reg::A0));
        assert_eq!(i.use_xregs(), [Some(Reg::A1), Some(Reg::A2)]);
        assert!(!i.is_control());
        assert!(Inst::Bop { bid: 0 }.is_control());
        assert!(Inst::Jru { bid: 0, rs1: Reg::T0 }.is_control());
        let ld = Inst::LoadOp { op: LoadOp::Lw, bid: 0, rd: Reg::A0, rs1: Reg::T0, offset: 0 };
        assert!(ld.is_load());
        assert_eq!(ld.def_xreg(), Some(Reg::A0));
    }

    #[test]
    fn imm_form_validity() {
        assert!(AluOp::Add.has_imm_form());
        assert!(!AluOp::Sub.has_imm_form());
        assert!(!AluOp::Mul.has_imm_form());
        assert!(AluOp::Sllw.has_imm_form());
        assert!(AluOp::Sllw.is_shift());
        assert!(AluOp::Remuw.is_word());
        assert!(AluOp::Remuw.is_muldiv());
    }
}
