//! Execution-level property tests: the assembler's pseudo-instructions
//! and the machine's ALU semantics are validated by actually *running*
//! randomly generated programs on the simulator.

use proptest::prelude::*;
use scd_isa::{AluOp, Asm, Reg};
use scd_sim::{Machine, SimConfig};

fn run_and_get_a0(build: impl FnOnce(&mut Asm)) -> u64 {
    let mut a = Asm::new(0x1_0000);
    build(&mut a);
    a.li(Reg::A7, 0);
    a.ecall();
    let p = a.finish().expect("assembles");
    let mut m = Machine::new(SimConfig::fpga_rocket(), &p);
    m.run(100_000).expect("halts").code
}

proptest! {
    #[test]
    fn li_materializes_any_i64(v in any::<i64>()) {
        let got = run_and_get_a0(|a| {
            a.li(Reg::A0, v);
        });
        prop_assert_eq!(got, v as u64, "li {} produced {:#x}", v, got);
    }

    #[test]
    fn li_then_arith_matches_host(x in any::<i64>(), y in any::<i64>()) {
        for (op, expect) in [
            (AluOp::Add, x.wrapping_add(y) as u64),
            (AluOp::Sub, x.wrapping_sub(y) as u64),
            (AluOp::Xor, (x ^ y) as u64),
            (AluOp::And, (x & y) as u64),
            (AluOp::Or, (x | y) as u64),
            (AluOp::Mul, x.wrapping_mul(y) as u64),
            (AluOp::Sltu, ((x as u64) < (y as u64)) as u64),
            (AluOp::Slt, (x < y) as u64),
        ] {
            let got = run_and_get_a0(|a| {
                a.li(Reg::T0, x);
                a.li(Reg::T1, y);
                a.op(op, Reg::A0, Reg::T0, Reg::T1);
            });
            prop_assert_eq!(got, expect, "{:?} of {} and {}", op, x, y);
        }
    }

    #[test]
    fn shifts_match_host(x in any::<i64>(), sh in 0i64..64) {
        let cases = [
            (AluOp::Sll, ((x as u64) << sh)),
            (AluOp::Srl, ((x as u64) >> sh)),
            (AluOp::Sra, (x >> sh) as u64),
        ];
        for (op, expect) in cases {
            let got = run_and_get_a0(|a| {
                a.li(Reg::T0, x);
                a.opi(op, Reg::A0, Reg::T0, sh);
            });
            prop_assert_eq!(got, expect, "{:?} {} by {}", op, x, sh);
        }
    }

    #[test]
    fn fp_roundtrip_matches_host(x in any::<f64>(), y in any::<f64>()) {
        // fadd through the register file must be bit-exact with host f64.
        prop_assume!((x.to_bits() >> 48) != 0xFFFF && (y.to_bits() >> 48) != 0xFFFF);
        let expect = (x + y).to_bits();
        let got = run_and_get_a0(|a| {
            a.li(Reg::T0, x.to_bits() as i64);
            a.li(Reg::T1, y.to_bits() as i64);
            a.fmv_d_x(scd_isa::FReg::FT0, Reg::T0);
            a.fmv_d_x(scd_isa::FReg::FT1, Reg::T1);
            a.fadd(scd_isa::FReg::FT2, scd_isa::FReg::FT0, scd_isa::FReg::FT1);
            a.fmv_x_d(Reg::A0, scd_isa::FReg::FT2);
        });
        // NaN payloads may differ in principle, but Rust and our model
        // both propagate the default quiet NaN for these inputs.
        if f64::from_bits(expect).is_nan() {
            prop_assert!(f64::from_bits(got).is_nan());
        } else {
            prop_assert_eq!(got, expect);
        }
    }
}

#[test]
fn store_load_roundtrip_through_mapped_segment() {
    let mut a = Asm::new(0x1_0000);
    a.li(Reg::T0, 0x10_0000);
    a.li(Reg::T1, -12345);
    a.sd(Reg::T1, 16, Reg::T0);
    a.ld(Reg::A0, 16, Reg::T0);
    a.li(Reg::A7, 0);
    a.ecall();
    let p = a.finish().expect("assembles");
    let mut m = Machine::new(SimConfig::fpga_rocket(), &p);
    m.map("data", 0x10_0000, 4096);
    assert_eq!(m.run(10_000).expect("halts").code, -12345i64 as u64);
}

// ---- robustness: random code must never panic the machine ----

fn arb_word() -> impl Strategy<Value = u32> {
    prop_oneof![
        any::<u32>(),
        // Bias towards decodable words: random fields on known opcodes.
        (
            any::<u32>(),
            prop::sample::select(vec![
                0b0110011u32,
                0b0010011,
                0b0000011,
                0b0100011,
                0b1100011,
                0b1101111,
                0b1100111,
                0b0110111,
                0b0001011,
                0b0101011,
                0b1010011,
            ])
        )
            .prop_map(|(r, opc)| (r & !0x7F) | opc),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn machine_never_panics_on_random_code(words in prop::collection::vec(arb_word(), 1..64)) {
        // Build a program from whatever subset of the words decodes;
        // append a halt so some runs terminate cleanly.
        let mut a = Asm::new(0x1_0000);
        let mut any_inst = false;
        for w in &words {
            if let Ok(inst) = scd_isa::decode(*w) {
                // Skip instructions the assembler would reject
                // (encode-decode canonicalization keeps them valid).
                if scd_isa::encode(inst).is_ok() {
                    a.inst(inst);
                    any_inst = true;
                }
            }
        }
        if !any_inst {
            a.nop();
        }
        a.li(Reg::A7, 0);
        a.li(Reg::A0, 0);
        a.ecall();
        let p = a.finish().expect("decoded instructions reassemble");
        let mut m = Machine::new(SimConfig::embedded_a5(), &p);
        m.map("data", 0x10_0000, 1 << 16);
        // Any outcome is acceptable except a panic: clean exit, memory
        // fault, runaway PC, ebreak, or exhausted budget.
        let _ = m.run(10_000);
    }
}
