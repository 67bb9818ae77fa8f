//! Pins every guest interpreter build of one fixed Luma program: both
//! VMs, all three dispatch schemes and three option sets. Each build's
//! instruction count and FNV-1a digests of its text words, its rodata
//! and its sorted `(symbol, address)` list are literal, so a change to
//! the assembler or the builders that moves a single word, byte or
//! label address fails here.

use scd_guest::{build_lvm_guest, build_svm_guest, layout, Guest, GuestOptions, Scheme, Vm};

const SOURCE: &str = "\
var s = 0;
for i = 1, N { s = s + i * 2.5; }
fn f(x) { if x < 2 { return x; } return f(x - 1) + f(x - 2); }
emit(s + f(10));
";

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn build(vm: Vm, scheme: Scheme, opts: GuestOptions) -> Guest {
    let script = luma::parse(SOURCE).expect("parses");
    let args = [("N", 50.0)];
    match vm {
        Vm::Lvm => {
            let (p, init) = luma::lvm::compile_lvm(&script, &args).expect("compiles");
            build_lvm_guest(&layout::build_lvm_image(&p, &init), scheme, opts)
        }
        Vm::Svm => {
            let (p, init) = luma::svm::compile_svm(&script, &args).expect("compiles");
            build_svm_guest(&layout::build_svm_image(&p, &init), scheme, opts)
        }
    }
}

/// `(instructions, words digest, rodata digest, symbols digest)`.
fn digest(g: &Guest) -> (usize, u64, u64, u64) {
    let p = &g.program;
    let words = p.words.iter().fold(FNV_OFFSET, |h, w| fnv1a(h, &w.to_le_bytes()));
    let mut syms: Vec<(&str, u64)> = p.symbols.iter().map(|(n, &a)| (n.as_str(), a)).collect();
    syms.sort_unstable();
    let symbols = syms
        .iter()
        .fold(FNV_OFFSET, |h, (n, a)| fnv1a(fnv1a(fnv1a(h, n.as_bytes()), &[0]), &a.to_le_bytes()));
    (p.words.len(), words, fnv1a(FNV_OFFSET, &p.rodata), symbols)
}

const OPTIONS: [(&str, GuestOptions); 3] = [
    ("default", GuestOptions { production_weight: true, scheduled_fetch: false }),
    ("lean", GuestOptions { production_weight: false, scheduled_fetch: false }),
    ("scheduled", GuestOptions { production_weight: true, scheduled_fetch: true }),
];

#[rustfmt::skip]
const PINS: &[(&str, usize, u64, u64, u64)] = &[
    ("lvm/baseline/default", 1157, 0x4b7659a9e2f9fa4e, 0x330a59fa7ff66309, 0x5cec45b6a556aeba),
    ("lvm/baseline/lean", 1133, 0xbd60c22b73847622, 0x01b2311c3acd07a4, 0x371b8f50a71f0da0),
    ("lvm/baseline/scheduled", 1157, 0x4b7659a9e2f9fa4e, 0x330a59fa7ff66309, 0x5cec45b6a556aeba),
    ("lvm/jump-threading/default", 2906, 0xc3e3826535c23898, 0xa944a9c9ae776b68, 0x1c309cf4449092da),
    ("lvm/jump-threading/lean", 1610, 0x6de2c995298f191e, 0x95587efe0a7b0ea3, 0xb75c62fa42941e5d),
    ("lvm/jump-threading/scheduled", 2906, 0xc3e3826535c23898, 0xa944a9c9ae776b68, 0x1c309cf4449092da),
    ("lvm/scd/default", 1161, 0x3a2ce1204433b79c, 0x29d7d24658e88888, 0xec286f4e1920fb5b),
    ("lvm/scd/lean", 1137, 0xd9f5462dce36e27a, 0xcd99d5c59f09b2fc, 0xd1dc0deea011b88d),
    ("lvm/scd/scheduled", 1161, 0x530e56a6fc057f8c, 0x29d7d24658e88888, 0xec286f4e1920fb5b),
    ("svm/baseline/default", 1721, 0x58ddb06cb0a71ae4, 0x345df8bc6bdf0265, 0x56782665fa930c8f),
    ("svm/baseline/lean", 977, 0x0d0c3006bb770a68, 0x08f4043022ed8634, 0xbe49108157e34b13),
    ("svm/baseline/scheduled", 1721, 0x58ddb06cb0a71ae4, 0x345df8bc6bdf0265, 0x56782665fa930c8f),
    ("svm/jump-threading/default", 2969, 0xe56d4ff10814ffc8, 0xed439dafda49cd85, 0xdff03f90a3e8595d),
    ("svm/jump-threading/lean", 1289, 0xf7c49ac8c2e041e6, 0xa70bdd8d6b41827d, 0xd66600ea875e883c),
    ("svm/jump-threading/scheduled", 2969, 0xe56d4ff10814ffc8, 0xed439dafda49cd85, 0xdff03f90a3e8595d),
    ("svm/scd/default", 1701, 0x0caa0cc80f4d2973, 0x5729ca73ec7c9266, 0x5ef0c57713517153),
    ("svm/scd/lean", 957, 0xc662a494d8a0f981, 0xaff2b699eed0fafe, 0x8ce5808ca2135538),
    ("svm/scd/scheduled", 1701, 0x0caa0cc80f4d2973, 0x5729ca73ec7c9266, 0x5ef0c57713517153),
];

#[test]
fn every_guest_build_is_pinned() {
    let mut got = Vec::new();
    for vm in Vm::ALL {
        for scheme in Scheme::ALL {
            for (opt, opts) in OPTIONS {
                let g = build(vm, scheme, opts);
                assert_eq!(g.program.insts.len(), g.program.words.len());
                let (n, w, r, s) = digest(&g);
                got.push((format!("{}/{}/{opt}", vm.name(), scheme.name()), n, w, r, s));
            }
        }
    }
    let rendered: Vec<String> = got
        .iter()
        .map(|(k, n, w, r, s)| format!("    ({k:?}, {n}, {w:#018x}, {r:#018x}, {s:#018x}),"))
        .collect();
    let want: Vec<String> = PINS
        .iter()
        .map(|(k, n, w, r, s)| format!("    ({k:?}, {n}, {w:#018x}, {r:#018x}, {s:#018x}),"))
        .collect();
    assert_eq!(rendered, want, "guest builds moved; now:\n{}", rendered.join("\n"));
}
