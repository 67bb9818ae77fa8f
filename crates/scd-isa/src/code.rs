//! Binary encoding and decoding of instructions.
//!
//! Standard instructions use the real RISC-V encodings (R/I/S/B/U/J
//! formats). The SCD extension lives in the *custom-0* (`0001011`) and
//! *custom-1* (`0101011`) major opcodes:
//!
//! * custom-0, funct3 0/1/2/3 = `setmask` / `bop` / `jru` / `jte.flush`,
//!   with the branch ID in funct7.
//! * custom-1 = `.op`-suffixed loads; funct3 is the load width as in the
//!   standard LOAD opcode, the branch ID occupies imm\[11:10\] and the
//!   displacement the remaining imm\[9:0\] (0..=1023 — the guest
//!   interpreters only ever use small non-negative displacements here).

use crate::inst::*;
use crate::reg::{FReg, Reg};
use std::fmt;

const OPC_LUI: u32 = 0b0110111;
const OPC_AUIPC: u32 = 0b0010111;
const OPC_JAL: u32 = 0b1101111;
const OPC_JALR: u32 = 0b1100111;
const OPC_BRANCH: u32 = 0b1100011;
const OPC_LOAD: u32 = 0b0000011;
const OPC_STORE: u32 = 0b0100011;
const OPC_OPIMM: u32 = 0b0010011;
const OPC_OPIMM32: u32 = 0b0011011;
const OPC_OP: u32 = 0b0110011;
const OPC_OP32: u32 = 0b0111011;
const OPC_LOADFP: u32 = 0b0000111;
const OPC_STOREFP: u32 = 0b0100111;
const OPC_OPFP: u32 = 0b1010011;
const OPC_SYSTEM: u32 = 0b1110011;
const OPC_MISCMEM: u32 = 0b0001111;
const OPC_CUSTOM0: u32 = 0b0001011;
const OPC_CUSTOM1: u32 = 0b0101011;

/// Error produced when a 32-bit word does not decode to a known
/// instruction, or an instruction's fields do not fit its encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodeError {
    /// The word does not correspond to any instruction in the subset.
    Illegal {
        /// The offending instruction word.
        word: u32,
    },
    /// A field value cannot be represented in the encoding.
    FieldRange {
        /// Which field overflowed.
        what: &'static str,
        /// The out-of-range value.
        value: i64,
    },
}

impl fmt::Display for CodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodeError::Illegal { word } => write!(f, "illegal instruction word {word:#010x}"),
            CodeError::FieldRange { what, value } => {
                write!(f, "{what} value {value} does not fit its encoding")
            }
        }
    }
}

impl std::error::Error for CodeError {}

fn x(r: Reg) -> u32 {
    r.index() as u32
}
fn fr(r: FReg) -> u32 {
    r.index() as u32
}

fn check_range(what: &'static str, v: i64, lo: i64, hi: i64) -> Result<(), CodeError> {
    if v < lo || v > hi {
        return Err(CodeError::FieldRange { what, value: v });
    }
    Ok(())
}

fn enc_r(opcode: u32, funct3: u32, funct7: u32, rd: u32, rs1: u32, rs2: u32) -> u32 {
    (funct7 << 25) | (rs2 << 20) | (rs1 << 15) | (funct3 << 12) | (rd << 7) | opcode
}

fn enc_i(opcode: u32, funct3: u32, rd: u32, rs1: u32, imm: i64) -> u32 {
    let imm = (imm as u32) & 0xfff;
    (imm << 20) | (rs1 << 15) | (funct3 << 12) | (rd << 7) | opcode
}

fn enc_s(opcode: u32, funct3: u32, rs1: u32, rs2: u32, imm: i64) -> u32 {
    let imm = (imm as u32) & 0xfff;
    ((imm >> 5) << 25) | (rs2 << 20) | (rs1 << 15) | (funct3 << 12) | ((imm & 0x1f) << 7) | opcode
}

fn enc_b(opcode: u32, funct3: u32, rs1: u32, rs2: u32, off: i64) -> u32 {
    let imm = off as u32;
    let b12 = (imm >> 12) & 1;
    let b11 = (imm >> 11) & 1;
    let b10_5 = (imm >> 5) & 0x3f;
    let b4_1 = (imm >> 1) & 0xf;
    (b12 << 31)
        | (b10_5 << 25)
        | (rs2 << 20)
        | (rs1 << 15)
        | (funct3 << 12)
        | (b4_1 << 8)
        | (b11 << 7)
        | opcode
}

fn enc_u(opcode: u32, rd: u32, imm: i64) -> u32 {
    ((imm as u32) & 0xfffff000) | (rd << 7) | opcode
}

fn enc_j(opcode: u32, rd: u32, off: i64) -> u32 {
    let imm = off as u32;
    let b20 = (imm >> 20) & 1;
    let b19_12 = (imm >> 12) & 0xff;
    let b11 = (imm >> 11) & 1;
    let b10_1 = (imm >> 1) & 0x3ff;
    (b20 << 31) | (b10_1 << 21) | (b11 << 20) | (b19_12 << 12) | (rd << 7) | opcode
}

fn alu_functs(op: AluOp) -> (u32, u32) {
    // (funct3, funct7)
    match op {
        AluOp::Add | AluOp::Addw => (0b000, 0),
        AluOp::Sub | AluOp::Subw => (0b000, 0b0100000),
        AluOp::Sll | AluOp::Sllw => (0b001, 0),
        AluOp::Slt => (0b010, 0),
        AluOp::Sltu => (0b011, 0),
        AluOp::Xor => (0b100, 0),
        AluOp::Srl | AluOp::Srlw => (0b101, 0),
        AluOp::Sra | AluOp::Sraw => (0b101, 0b0100000),
        AluOp::Or => (0b110, 0),
        AluOp::And => (0b111, 0),
        AluOp::Mul | AluOp::Mulw => (0b000, 1),
        AluOp::Mulh => (0b001, 1),
        AluOp::Mulhu => (0b011, 1),
        AluOp::Div | AluOp::Divw => (0b100, 1),
        AluOp::Divu => (0b101, 1),
        AluOp::Rem | AluOp::Remw => (0b110, 1),
        AluOp::Remu | AluOp::Remuw => (0b111, 1),
    }
}

/// Encodes an instruction to its 32-bit word.
///
/// # Errors
/// Returns [`CodeError::FieldRange`] when an immediate or displacement does
/// not fit the instruction format (e.g. a branch offset beyond ±4 KiB).
pub fn encode(inst: Inst) -> Result<u32, CodeError> {
    Ok(match inst {
        Inst::Lui { rd, imm } => {
            check_range("lui imm", imm, -(1 << 31), (1 << 31) - 1)?;
            if imm & 0xfff != 0 {
                return Err(CodeError::FieldRange { what: "lui imm low bits", value: imm });
            }
            enc_u(OPC_LUI, x(rd), imm)
        }
        Inst::Auipc { rd, imm } => {
            if imm & 0xfff != 0 {
                return Err(CodeError::FieldRange { what: "auipc imm low bits", value: imm });
            }
            enc_u(OPC_AUIPC, x(rd), imm)
        }
        Inst::Jal { rd, offset } => {
            check_range("jal offset", offset, -(1 << 20), (1 << 20) - 2)?;
            if offset & 1 != 0 {
                return Err(CodeError::FieldRange { what: "jal offset alignment", value: offset });
            }
            enc_j(OPC_JAL, x(rd), offset)
        }
        Inst::Jalr { rd, rs1, offset } => {
            check_range("jalr offset", offset, -2048, 2047)?;
            enc_i(OPC_JALR, 0, x(rd), x(rs1), offset)
        }
        Inst::Branch { op, rs1, rs2, offset } => {
            check_range("branch offset", offset, -4096, 4094)?;
            if offset & 1 != 0 {
                return Err(CodeError::FieldRange {
                    what: "branch offset alignment",
                    value: offset,
                });
            }
            enc_b(OPC_BRANCH, op.funct3(), x(rs1), x(rs2), offset)
        }
        Inst::Load { op, rd, rs1, offset } => {
            check_range("load offset", offset, -2048, 2047)?;
            enc_i(OPC_LOAD, op.funct3(), x(rd), x(rs1), offset)
        }
        Inst::Store { op, rs2, rs1, offset } => {
            check_range("store offset", offset, -2048, 2047)?;
            enc_s(OPC_STORE, op.funct3(), x(rs1), x(rs2), offset)
        }
        Inst::OpImm { op, rd, rs1, imm } => {
            if !op.has_imm_form() {
                return Err(CodeError::FieldRange { what: "op without imm form", value: imm });
            }
            let (f3, f7) = alu_functs(op);
            let opcode = if op.is_word() { OPC_OPIMM32 } else { OPC_OPIMM };
            if op.is_shift() {
                let max = if op.is_word() { 31 } else { 63 };
                check_range("shamt", imm, 0, max)?;
                let hi = (f7 as i64) << 5;
                enc_i(opcode, f3, x(rd), x(rs1), hi | imm)
            } else {
                check_range("op imm", imm, -2048, 2047)?;
                enc_i(opcode, f3, x(rd), x(rs1), imm)
            }
        }
        Inst::Op { op, rd, rs1, rs2 } => {
            let (f3, f7) = alu_functs(op);
            let opcode = if op.is_word() { OPC_OP32 } else { OPC_OP };
            enc_r(opcode, f3, f7, x(rd), x(rs1), x(rs2))
        }
        Inst::Fld { rd, rs1, offset } => {
            check_range("fld offset", offset, -2048, 2047)?;
            enc_i(OPC_LOADFP, 0b011, fr(rd), x(rs1), offset)
        }
        Inst::Fsd { rs2, rs1, offset } => {
            check_range("fsd offset", offset, -2048, 2047)?;
            enc_s(OPC_STOREFP, 0b011, x(rs1), fr(rs2), offset)
        }
        Inst::FOp { op, rd, rs1, rs2 } => match op {
            FpOp::FaddD => enc_r(OPC_OPFP, 0b111, 0b0000001, fr(rd), fr(rs1), fr(rs2)),
            FpOp::FsubD => enc_r(OPC_OPFP, 0b111, 0b0000101, fr(rd), fr(rs1), fr(rs2)),
            FpOp::FmulD => enc_r(OPC_OPFP, 0b111, 0b0001001, fr(rd), fr(rs1), fr(rs2)),
            FpOp::FdivD => enc_r(OPC_OPFP, 0b111, 0b0001101, fr(rd), fr(rs1), fr(rs2)),
            FpOp::FsgnjD => enc_r(OPC_OPFP, 0b000, 0b0010001, fr(rd), fr(rs1), fr(rs2)),
            FpOp::FsgnjnD => enc_r(OPC_OPFP, 0b001, 0b0010001, fr(rd), fr(rs1), fr(rs2)),
            FpOp::FsgnjxD => enc_r(OPC_OPFP, 0b010, 0b0010001, fr(rd), fr(rs1), fr(rs2)),
            FpOp::FminD => enc_r(OPC_OPFP, 0b000, 0b0010101, fr(rd), fr(rs1), fr(rs2)),
            FpOp::FmaxD => enc_r(OPC_OPFP, 0b001, 0b0010101, fr(rd), fr(rs1), fr(rs2)),
            FpOp::FsqrtD => enc_r(OPC_OPFP, 0b111, 0b0101101, fr(rd), fr(rs1), 0),
        },
        Inst::FCmp { op, rd, rs1, rs2 } => {
            let f3 = match op {
                FCmpOp::FleD => 0b000,
                FCmpOp::FltD => 0b001,
                FCmpOp::FeqD => 0b010,
            };
            enc_r(OPC_OPFP, f3, 0b1010001, x(rd), fr(rs1), fr(rs2))
        }
        Inst::FcvtLD { rd, rs1, rm } => enc_r(OPC_OPFP, rm.field(), 0b1100001, x(rd), fr(rs1), 2),
        Inst::FcvtDL { rd, rs1 } => enc_r(OPC_OPFP, 0b111, 0b1101001, fr(rd), x(rs1), 2),
        Inst::FmvXD { rd, rs1 } => enc_r(OPC_OPFP, 0b000, 0b1110001, x(rd), fr(rs1), 0),
        Inst::FmvDX { rd, rs1 } => enc_r(OPC_OPFP, 0b000, 0b1111001, fr(rd), x(rs1), 0),
        Inst::Ecall => enc_i(OPC_SYSTEM, 0, 0, 0, 0),
        Inst::Ebreak => enc_i(OPC_SYSTEM, 0, 0, 0, 1),
        Inst::Fence => enc_i(OPC_MISCMEM, 0, 0, 0, 0),
        Inst::SetMask { bid, rs1 } => {
            check_range("branch id", bid as i64, 0, 3)?;
            enc_r(OPC_CUSTOM0, 0, bid as u32, 0, x(rs1), 0)
        }
        Inst::Bop { bid } => {
            check_range("branch id", bid as i64, 0, 3)?;
            enc_r(OPC_CUSTOM0, 1, bid as u32, 0, 0, 0)
        }
        Inst::Jru { bid, rs1 } => {
            check_range("branch id", bid as i64, 0, 3)?;
            enc_r(OPC_CUSTOM0, 2, bid as u32, 0, x(rs1), 0)
        }
        Inst::JteFlush => enc_r(OPC_CUSTOM0, 3, 0, 0, 0, 0),
        Inst::LoadOp { op, bid, rd, rs1, offset } => {
            check_range("branch id", bid as i64, 0, 3)?;
            check_range(".op load offset", offset, 0, 1023)?;
            let imm = ((bid as i64) << 10) | offset;
            enc_i(OPC_CUSTOM1, op.funct3(), x(rd), x(rs1), imm)
        }
    })
}

fn dec_i_imm(w: u32) -> i64 {
    ((w as i32) >> 20) as i64
}

fn dec_s_imm(w: u32) -> i64 {
    let hi = ((w as i32) >> 25) as i64; // sign-extended imm[11:5]
    let lo = ((w >> 7) & 0x1f) as i64;
    (hi << 5) | lo
}

fn dec_b_off(w: u32) -> i64 {
    let b12 = ((w as i32) >> 31) as i64; // sign
    let b11 = ((w >> 7) & 1) as i64;
    let b10_5 = ((w >> 25) & 0x3f) as i64;
    let b4_1 = ((w >> 8) & 0xf) as i64;
    (b12 << 12) | (b11 << 11) | (b10_5 << 5) | (b4_1 << 1)
}

fn dec_j_off(w: u32) -> i64 {
    let b20 = ((w as i32) >> 31) as i64; // sign
    let b19_12 = ((w >> 12) & 0xff) as i64;
    let b11 = ((w >> 20) & 1) as i64;
    let b10_1 = ((w >> 21) & 0x3ff) as i64;
    (b20 << 20) | (b19_12 << 12) | (b11 << 11) | (b10_1 << 1)
}

fn dec_reg(n: u32) -> Reg {
    Reg::new((n & 0x1f) as u8)
}
fn dec_freg(n: u32) -> FReg {
    FReg::new((n & 0x1f) as u8)
}

fn dec_load_op(f3: u32) -> Option<LoadOp> {
    Some(match f3 {
        0b000 => LoadOp::Lb,
        0b001 => LoadOp::Lh,
        0b010 => LoadOp::Lw,
        0b011 => LoadOp::Ld,
        0b100 => LoadOp::Lbu,
        0b101 => LoadOp::Lhu,
        0b110 => LoadOp::Lwu,
        _ => return None,
    })
}

/// Decodes a 32-bit instruction word.
///
/// # Errors
/// Returns [`CodeError::Illegal`] for words outside the implemented subset.
pub fn decode(w: u32) -> Result<Inst, CodeError> {
    let opcode = w & 0x7f;
    let rd = (w >> 7) & 0x1f;
    let f3 = (w >> 12) & 0x7;
    let rs1 = (w >> 15) & 0x1f;
    let rs2 = (w >> 20) & 0x1f;
    let f7 = (w >> 25) & 0x7f;
    let ill = || CodeError::Illegal { word: w };

    Ok(match opcode {
        OPC_LUI => Inst::Lui { rd: dec_reg(rd), imm: (w & 0xfffff000) as i32 as i64 },
        OPC_AUIPC => Inst::Auipc { rd: dec_reg(rd), imm: (w & 0xfffff000) as i32 as i64 },
        OPC_JAL => Inst::Jal { rd: dec_reg(rd), offset: dec_j_off(w) },
        OPC_JALR => {
            if f3 != 0 {
                return Err(ill());
            }
            Inst::Jalr { rd: dec_reg(rd), rs1: dec_reg(rs1), offset: dec_i_imm(w) }
        }
        OPC_BRANCH => {
            let op = BranchOp::ALL.into_iter().find(|b| b.funct3() == f3).ok_or_else(ill)?;
            Inst::Branch { op, rs1: dec_reg(rs1), rs2: dec_reg(rs2), offset: dec_b_off(w) }
        }
        OPC_LOAD => {
            let op = dec_load_op(f3).ok_or_else(ill)?;
            Inst::Load { op, rd: dec_reg(rd), rs1: dec_reg(rs1), offset: dec_i_imm(w) }
        }
        OPC_STORE => {
            let op = StoreOp::ALL.into_iter().find(|s| s.funct3() == f3).ok_or_else(ill)?;
            Inst::Store { op, rs2: dec_reg(rs2), rs1: dec_reg(rs1), offset: dec_s_imm(w) }
        }
        OPC_OPIMM | OPC_OPIMM32 => {
            let word = opcode == OPC_OPIMM32;
            let op = match (f3, word) {
                (0b000, false) => AluOp::Add,
                (0b000, true) => AluOp::Addw,
                (0b010, false) => AluOp::Slt,
                (0b011, false) => AluOp::Sltu,
                (0b100, false) => AluOp::Xor,
                (0b110, false) => AluOp::Or,
                (0b111, false) => AluOp::And,
                (0b001, false) => AluOp::Sll,
                (0b001, true) => AluOp::Sllw,
                (0b101, _) => {
                    let arith = (w >> 30) & 1 == 1;
                    match (arith, word) {
                        (false, false) => AluOp::Srl,
                        (true, false) => AluOp::Sra,
                        (false, true) => AluOp::Srlw,
                        (true, true) => AluOp::Sraw,
                    }
                }
                _ => return Err(ill()),
            };
            let imm = if op.is_shift() {
                let mask = if op.is_word() { 0x1f } else { 0x3f };
                dec_i_imm(w) & mask
            } else {
                dec_i_imm(w)
            };
            Inst::OpImm { op, rd: dec_reg(rd), rs1: dec_reg(rs1), imm }
        }
        OPC_OP | OPC_OP32 => {
            let word = opcode == OPC_OP32;
            let op = AluOp::ALL
                .into_iter()
                .filter(|o| o.is_word() == word)
                .find(|o| alu_functs(*o) == (f3, f7))
                .ok_or_else(ill)?;
            Inst::Op { op, rd: dec_reg(rd), rs1: dec_reg(rs1), rs2: dec_reg(rs2) }
        }
        OPC_LOADFP => {
            if f3 != 0b011 {
                return Err(ill());
            }
            Inst::Fld { rd: dec_freg(rd), rs1: dec_reg(rs1), offset: dec_i_imm(w) }
        }
        OPC_STOREFP => {
            if f3 != 0b011 {
                return Err(ill());
            }
            Inst::Fsd { rs2: dec_freg(rs2), rs1: dec_reg(rs1), offset: dec_s_imm(w) }
        }
        OPC_OPFP => match f7 {
            0b0000001 => Inst::FOp {
                op: FpOp::FaddD,
                rd: dec_freg(rd),
                rs1: dec_freg(rs1),
                rs2: dec_freg(rs2),
            },
            0b0000101 => Inst::FOp {
                op: FpOp::FsubD,
                rd: dec_freg(rd),
                rs1: dec_freg(rs1),
                rs2: dec_freg(rs2),
            },
            0b0001001 => Inst::FOp {
                op: FpOp::FmulD,
                rd: dec_freg(rd),
                rs1: dec_freg(rs1),
                rs2: dec_freg(rs2),
            },
            0b0001101 => Inst::FOp {
                op: FpOp::FdivD,
                rd: dec_freg(rd),
                rs1: dec_freg(rs1),
                rs2: dec_freg(rs2),
            },
            0b0101101 => {
                Inst::FOp { op: FpOp::FsqrtD, rd: dec_freg(rd), rs1: dec_freg(rs1), rs2: FReg::FT0 }
            }
            0b0010001 => {
                let op = match f3 {
                    0b000 => FpOp::FsgnjD,
                    0b001 => FpOp::FsgnjnD,
                    0b010 => FpOp::FsgnjxD,
                    _ => return Err(ill()),
                };
                Inst::FOp { op, rd: dec_freg(rd), rs1: dec_freg(rs1), rs2: dec_freg(rs2) }
            }
            0b0010101 => {
                let op = match f3 {
                    0b000 => FpOp::FminD,
                    0b001 => FpOp::FmaxD,
                    _ => return Err(ill()),
                };
                Inst::FOp { op, rd: dec_freg(rd), rs1: dec_freg(rs1), rs2: dec_freg(rs2) }
            }
            0b1010001 => {
                let op = match f3 {
                    0b000 => FCmpOp::FleD,
                    0b001 => FCmpOp::FltD,
                    0b010 => FCmpOp::FeqD,
                    _ => return Err(ill()),
                };
                Inst::FCmp { op, rd: dec_reg(rd), rs1: dec_freg(rs1), rs2: dec_freg(rs2) }
            }
            0b1100001 => {
                if rs2 != 2 {
                    return Err(ill());
                }
                let rm = Rounding::ALL.into_iter().find(|r| r.field() == f3).ok_or_else(ill)?;
                Inst::FcvtLD { rd: dec_reg(rd), rs1: dec_freg(rs1), rm }
            }
            0b1101001 => {
                if rs2 != 2 {
                    return Err(ill());
                }
                Inst::FcvtDL { rd: dec_freg(rd), rs1: dec_reg(rs1) }
            }
            0b1110001 => Inst::FmvXD { rd: dec_reg(rd), rs1: dec_freg(rs1) },
            0b1111001 => Inst::FmvDX { rd: dec_freg(rd), rs1: dec_reg(rs1) },
            _ => return Err(ill()),
        },
        OPC_SYSTEM => match (w >> 20) & 0xfff {
            0 => Inst::Ecall,
            1 => Inst::Ebreak,
            _ => return Err(ill()),
        },
        OPC_MISCMEM => Inst::Fence,
        OPC_CUSTOM0 => {
            // Branch IDs occupy funct7 but only 0..=3 are architected.
            if f3 < 3 && f7 > 3 {
                return Err(ill());
            }
            match f3 {
                0 => Inst::SetMask { bid: f7 as u8, rs1: dec_reg(rs1) },
                1 => Inst::Bop { bid: f7 as u8 },
                2 => Inst::Jru { bid: f7 as u8, rs1: dec_reg(rs1) },
                3 => Inst::JteFlush,
                _ => return Err(ill()),
            }
        }
        OPC_CUSTOM1 => {
            let op = dec_load_op(f3).ok_or_else(ill)?;
            let raw = (w >> 20) & 0xfff;
            let bid = ((raw >> 10) & 0x3) as u8;
            let offset = (raw & 0x3ff) as i64;
            Inst::LoadOp { op, bid, rd: dec_reg(rd), rs1: dec_reg(rs1), offset }
        }
        _ => return Err(ill()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::Reg;

    fn roundtrip(i: Inst) {
        let w = encode(i).unwrap_or_else(|e| panic!("encode {i}: {e}"));
        let back = decode(w).unwrap_or_else(|e| panic!("decode {i} ({w:#x}): {e}"));
        assert_eq!(i, back, "roundtrip failed for {i} (word {w:#010x})");
    }

    #[test]
    fn roundtrip_core() {
        roundtrip(Inst::Lui { rd: Reg::A0, imm: 0x12345 << 12 });
        roundtrip(Inst::Lui { rd: Reg::A0, imm: (-4096i64) & !0xfff });
        roundtrip(Inst::Auipc { rd: Reg::T0, imm: 0x1000 });
        roundtrip(Inst::Jal { rd: Reg::RA, offset: -2048 });
        roundtrip(Inst::Jal { rd: Reg::ZERO, offset: 4 });
        roundtrip(Inst::Jalr { rd: Reg::ZERO, rs1: Reg::T1, offset: 0 });
        for op in BranchOp::ALL {
            roundtrip(Inst::Branch { op, rs1: Reg::A0, rs2: Reg::A1, offset: -64 });
        }
        for op in LoadOp::ALL {
            roundtrip(Inst::Load { op, rd: Reg::A2, rs1: Reg::S1, offset: -8 });
        }
        for op in StoreOp::ALL {
            roundtrip(Inst::Store { op, rs2: Reg::A2, rs1: Reg::S1, offset: 40 });
        }
    }

    #[test]
    fn roundtrip_alu() {
        for op in AluOp::ALL {
            roundtrip(Inst::Op { op, rd: Reg::A0, rs1: Reg::A1, rs2: Reg::A2 });
            if op.has_imm_form() {
                let imm = if op.is_shift() { 13 } else { -7 };
                roundtrip(Inst::OpImm { op, rd: Reg::A0, rs1: Reg::A1, imm });
            }
        }
        roundtrip(Inst::OpImm { op: AluOp::Srl, rd: Reg::A0, rs1: Reg::A1, imm: 63 });
        roundtrip(Inst::OpImm { op: AluOp::Sra, rd: Reg::A0, rs1: Reg::A1, imm: 48 });
    }

    #[test]
    fn roundtrip_fp() {
        use crate::reg::FReg;
        roundtrip(Inst::Fld { rd: FReg::FA0, rs1: Reg::SP, offset: 16 });
        roundtrip(Inst::Fsd { rs2: FReg::FA1, rs1: Reg::SP, offset: -16 });
        for op in FpOp::ALL {
            roundtrip(Inst::FOp {
                op,
                rd: FReg::FT0,
                rs1: FReg::FT1,
                rs2: if op == FpOp::FsqrtD { FReg::FT0 } else { FReg::FT2 },
            });
        }
        for op in FCmpOp::ALL {
            roundtrip(Inst::FCmp { op, rd: Reg::A0, rs1: FReg::FA0, rs2: FReg::FA1 });
        }
        for rm in Rounding::ALL {
            roundtrip(Inst::FcvtLD { rd: Reg::A0, rs1: FReg::FA0, rm });
        }
        roundtrip(Inst::FcvtDL { rd: FReg::FA0, rs1: Reg::A0 });
        roundtrip(Inst::FmvXD { rd: Reg::A0, rs1: FReg::FA0 });
        roundtrip(Inst::FmvDX { rd: FReg::FA0, rs1: Reg::A0 });
    }

    #[test]
    fn roundtrip_scd() {
        for bid in 0..4u8 {
            roundtrip(Inst::SetMask { bid, rs1: Reg::A0 });
            roundtrip(Inst::Bop { bid });
            roundtrip(Inst::Jru { bid, rs1: Reg::T2 });
            roundtrip(Inst::LoadOp { op: LoadOp::Lw, bid, rd: Reg::A0, rs1: Reg::T0, offset: 12 });
            roundtrip(Inst::LoadOp {
                op: LoadOp::Lbu,
                bid,
                rd: Reg::A0,
                rs1: Reg::T0,
                offset: 1023,
            });
        }
        roundtrip(Inst::JteFlush);
        roundtrip(Inst::Ecall);
        roundtrip(Inst::Ebreak);
        roundtrip(Inst::Fence);
    }

    #[test]
    fn range_errors() {
        assert!(encode(Inst::Branch {
            op: BranchOp::Beq,
            rs1: Reg::A0,
            rs2: Reg::A1,
            offset: 5000
        })
        .is_err());
        assert!(encode(Inst::Branch { op: BranchOp::Beq, rs1: Reg::A0, rs2: Reg::A1, offset: 3 })
            .is_err());
        assert!(
            encode(Inst::Load { op: LoadOp::Lw, rd: Reg::A0, rs1: Reg::A1, offset: 3000 }).is_err()
        );
        assert!(encode(Inst::OpImm { op: AluOp::Sub, rd: Reg::A0, rs1: Reg::A1, imm: 1 }).is_err());
        assert!(encode(Inst::OpImm { op: AluOp::Sll, rd: Reg::A0, rs1: Reg::A1, imm: 64 }).is_err());
        assert!(encode(Inst::Bop { bid: 4 }).is_err());
        assert!(encode(Inst::LoadOp {
            op: LoadOp::Lw,
            bid: 0,
            rd: Reg::A0,
            rs1: Reg::A1,
            offset: 1024
        })
        .is_err());
    }

    #[test]
    fn illegal_words() {
        assert!(decode(0x0000_0000).is_err());
        assert!(decode(0xffff_ffff).is_err());
        // custom-0 with funct3 = 7 is unassigned
        assert!(decode(0x0000_700b).is_err());
    }
}
