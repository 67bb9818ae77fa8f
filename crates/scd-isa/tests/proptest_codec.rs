//! Property tests: every constructible instruction survives an
//! encode/decode roundtrip, and arbitrary words never panic the decoder.

use proptest::prelude::*;
use scd_isa::{
    decode, encode, AluOp, BranchOp, FCmpOp, FReg, FpOp, Inst, LoadOp, Reg, Rounding, StoreOp,
};

fn arb_reg() -> impl Strategy<Value = Reg> {
    (0u8..32).prop_map(Reg::new)
}

fn arb_freg() -> impl Strategy<Value = FReg> {
    (0u8..32).prop_map(FReg::new)
}

fn arb_inst() -> impl Strategy<Value = Inst> {
    prop_oneof![
        (arb_reg(), -524288i64..524287).prop_map(|(rd, i)| Inst::Lui { rd, imm: i << 12 }),
        (arb_reg(), -524288i64..524287).prop_map(|(rd, i)| Inst::Auipc { rd, imm: i << 12 }),
        (arb_reg(), -524288i64..524287).prop_map(|(rd, o)| Inst::Jal { rd, offset: o * 2 }),
        (arb_reg(), arb_reg(), -2048i64..=2047).prop_map(|(rd, rs1, offset)| Inst::Jalr {
            rd,
            rs1,
            offset
        }),
        (prop::sample::select(&BranchOp::ALL[..]), arb_reg(), arb_reg(), -2048i64..2047)
            .prop_map(|(op, rs1, rs2, o)| Inst::Branch { op, rs1, rs2, offset: o * 2 }),
        (prop::sample::select(&LoadOp::ALL[..]), arb_reg(), arb_reg(), -2048i64..=2047)
            .prop_map(|(op, rd, rs1, offset)| Inst::Load { op, rd, rs1, offset }),
        (prop::sample::select(&StoreOp::ALL[..]), arb_reg(), arb_reg(), -2048i64..=2047)
            .prop_map(|(op, rs2, rs1, offset)| Inst::Store { op, rs2, rs1, offset }),
        (prop::sample::select(&AluOp::ALL[..]), arb_reg(), arb_reg(), arb_reg())
            .prop_map(|(op, rd, rs1, rs2)| Inst::Op { op, rd, rs1, rs2 }),
        (
            prop::sample::select(
                AluOp::ALL
                    .into_iter()
                    .filter(|o| o.has_imm_form() && !o.is_shift())
                    .collect::<Vec<_>>()
            ),
            arb_reg(),
            arb_reg(),
            -2048i64..=2047
        )
            .prop_map(|(op, rd, rs1, imm)| Inst::OpImm { op, rd, rs1, imm }),
        (
            prop::sample::select(
                AluOp::ALL.into_iter().filter(|o| o.is_shift()).collect::<Vec<_>>()
            ),
            arb_reg(),
            arb_reg(),
            0i64..32
        )
            .prop_map(|(op, rd, rs1, imm)| Inst::OpImm { op, rd, rs1, imm }),
        (arb_freg(), arb_reg(), -2048i64..=2047).prop_map(|(rd, rs1, offset)| Inst::Fld {
            rd,
            rs1,
            offset
        }),
        (arb_freg(), arb_reg(), -2048i64..=2047).prop_map(|(rs2, rs1, offset)| Inst::Fsd {
            rs2,
            rs1,
            offset
        }),
        (prop::sample::select(&FpOp::ALL[..]), arb_freg(), arb_freg(), arb_freg()).prop_map(
            |(op, rd, rs1, rs2)| Inst::FOp {
                op,
                rd,
                rs1,
                rs2: if op == FpOp::FsqrtD { FReg::FT0 } else { rs2 }
            }
        ),
        (prop::sample::select(&FCmpOp::ALL[..]), arb_reg(), arb_freg(), arb_freg())
            .prop_map(|(op, rd, rs1, rs2)| Inst::FCmp { op, rd, rs1, rs2 }),
        (arb_reg(), arb_freg(), prop::sample::select(&Rounding::ALL[..]))
            .prop_map(|(rd, rs1, rm)| Inst::FcvtLD { rd, rs1, rm }),
        (arb_freg(), arb_reg()).prop_map(|(rd, rs1)| Inst::FcvtDL { rd, rs1 }),
        (arb_reg(), arb_freg()).prop_map(|(rd, rs1)| Inst::FmvXD { rd, rs1 }),
        (arb_freg(), arb_reg()).prop_map(|(rd, rs1)| Inst::FmvDX { rd, rs1 }),
        Just(Inst::Ecall),
        Just(Inst::Ebreak),
        Just(Inst::Fence),
        (0u8..4, arb_reg()).prop_map(|(bid, rs1)| Inst::SetMask { bid, rs1 }),
        (0u8..4).prop_map(|bid| Inst::Bop { bid }),
        (0u8..4, arb_reg()).prop_map(|(bid, rs1)| Inst::Jru { bid, rs1 }),
        Just(Inst::JteFlush),
        (prop::sample::select(&LoadOp::ALL[..]), 0u8..4, arb_reg(), arb_reg(), 0i64..=1023)
            .prop_map(|(op, bid, rd, rs1, offset)| Inst::LoadOp { op, bid, rd, rs1, offset }),
    ]
}

proptest! {
    #[test]
    fn encode_decode_roundtrip(inst in arb_inst()) {
        let w = encode(inst).expect("constructed within field ranges");
        let back = decode(w).expect("own encodings decode");
        prop_assert_eq!(inst, back);
    }

    #[test]
    fn decode_never_panics(w in any::<u32>()) {
        let _ = decode(w); // Ok or Err, never panic
    }

    #[test]
    fn decode_encode_refixes(w in any::<u32>()) {
        // Any word that decodes must re-encode to a word that decodes to
        // the same instruction (encodings are canonical modulo ignored
        // bits).
        if let Ok(inst) = decode(w) {
            let w2 = encode(inst).expect("decoded instructions re-encode");
            prop_assert_eq!(decode(w2).expect("canonical encoding decodes"), inst);
        }
    }
}
