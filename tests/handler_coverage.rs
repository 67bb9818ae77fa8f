//! Exercises (nearly) every bytecode handler of both guest interpreters
//! with a kitchen-sink script, verifying coverage through the oracle's
//! dynamic opcode histogram and correctness through the usual
//! guest-vs-oracle checks.

use luma::lvm::bytecode::Op as LOp;
use luma::svm::bytecode::Op as SOp;
use scd_guest::{run_source, GuestOptions, Scheme, Vm};
use scd_sim::SimConfig;

/// Touches every language feature: literals, booleans, nil, globals,
/// locals, arrays (dynamic + literal), all arithmetic (register and
/// constant forms), comparisons in both orders, logic, unary ops,
/// builtins, numeric for (up and down), while + break, calls (named and
/// first-class), deep expressions, and early returns.
const KITCHEN_SINK: &str = "
    var g = 10;
    fn choose(c, x, y) {
        if c { return x; }
        return y;
    }
    fn poly(x) {
        return x * x * 1.5 - x / 2 + x % 3;
    }
    var a = array(8);
    var lit = [2, 4, 6];
    for i = 0, 7 { a[i] = poly(i + 0.5); }
    var total = 0;
    for i = 7, 0, -1 { total = total + a[i]; }
    emit(total);
    emit(len(a) + len(lit));
    var f = poly;
    emit(f(4));
    var i = 0;
    while true {
        i = i + 1;
        if i >= 5 and not (i == 7) { break; }
    }
    emit(i);
    emit(choose(i > 4, floor(2.9), sqrt(16)));
    emit(choose(nil == false, 1, 2));
    emit(min(abs(0 - 3), max(1, 2)));
    var flag = true;
    if flag != true { emit(0 - 1); } else { emit(42); }
    g = g + total * 0;
    emit(g <= 10);
    emit(g >= 11 or i < 100);
    lit[1] = lit[0] + lit[2];
    emit(lit[1]);

    # variable-variable arithmetic (register forms, incl. Mod/Div/Sub/Mul)
    var m = 17;
    var d = 5;
    emit(m % d);
    emit(m / d);
    emit(m - d);
    emit(m * d);
    emit(-m + -d);
    if m == d { emit(1); } else { emit(2); }
    if m != d { emit(3); } else { emit(4); }
    if m < d or d <= m { emit(5); }

    # wide literals and a big constant pool (PushInt16 / PushConst)
    var wide = 12345;
    emit(wide % 1000);
    emit(0.125 + 0.25 + 0.375 + 0.625 + 0.875 + 1.125 + 1.375 + 1.625 + 1.875 + 2.125);

    # deep local frames (GetLocal3.. / SetLocal2.. / GetLocal n8)
    fn many(p0, p1, p2, p3, p4, p5, p6, p7, p8, p9) {
        var l0 = p0 + p9;
        var l1 = p1 + p8;
        var l2 = p2 + p7;
        var l3 = p3 + p6;
        var l4 = p4 + p5;
        l2 = l2 * 2;
        l3 = l3 * 3;
        l4 = l4 * 4;
        return l0 + l1 + l2 + l3 + l4;
    }
    emit(many(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

    # bare return (no value)
    fn side(arr2) {
        arr2[0] = 99;
        return;
    }
    side(lit);
    emit(lit[0]);
";

#[test]
fn lvm_opcode_coverage_is_near_total() {
    let script = luma::parser::parse(KITCHEN_SINK).unwrap();
    let (p, init) = luma::lvm::compile_lvm(&script, &[]).unwrap();
    let result = luma::lvm::LvmInterp::new(&p, &init).run(1_000_000).unwrap();
    let missing: Vec<LOp> =
        LOp::ALL.into_iter().filter(|&op| result.op_counts[op as usize] == 0).collect();
    // A few opcodes are legitimately situational; everything else must
    // have executed.
    assert!(missing.len() <= 6, "too many unexercised LVM opcodes: {missing:?}");
    // The headline ones must always be covered.
    for op in [
        LOp::Move,
        LOp::LoadK,
        LOp::GetGlobal,
        LOp::SetGlobal,
        LOp::NewArr,
        LOp::NewArrI,
        LOp::GetIdx,
        LOp::SetIdx,
        LOp::Add,
        LOp::Mod,
        LOp::AddK,
        LOp::AddI,
        LOp::Jmp,
        LOp::Eq,
        LOp::Lt,
        LOp::TestT,
        LOp::TestF,
        LOp::Call,
        LOp::Return,
        LOp::ForPrep,
        LOp::ForLoop,
        LOp::Closure,
        LOp::CallB,
        LOp::Sqrt,
        LOp::Floor,
        LOp::Halt,
    ] {
        assert!(result.op_counts[op as usize] > 0, "{op:?} not exercised by the kitchen sink");
    }
}

#[test]
fn svm_opcode_coverage_is_near_total() {
    let script = luma::parser::parse(KITCHEN_SINK).unwrap();
    let (p, init) = luma::svm::compile_svm(&script, &[]).unwrap();
    let result = luma::svm::SvmInterp::new(&p, &init).run(1_000_000).unwrap();
    let mut missing = Vec::new();
    for n in 0..luma::svm::bytecode::NUM_IMPLEMENTED {
        let op = SOp::from_u8(n as u8).unwrap();
        // Nop exists for alignment/patching and is never emitted.
        if op != SOp::Nop && result.op_counts[n as usize] == 0 {
            missing.push(op);
        }
    }
    // Specialized forms beyond what this script needs may stay cold, but
    // the bulk must run.
    assert!(
        missing.len() <= 4,
        "too many unexercised SVM opcodes ({}): {missing:?}",
        missing.len()
    );
    for op in [
        SOp::PushConst,
        SOp::PushInt8,
        SOp::GetLocal0,
        SOp::SetLocal0,
        SOp::GetGlobal,
        SOp::SetGlobal,
        SOp::Add,
        SOp::Mod,
        SOp::Lt,
        SOp::Eq,
        SOp::Jump,
        SOp::JumpIfFalse,
        SOp::PushFn,
        SOp::Call,
        SOp::ReturnVal,
        SOp::NewArray,
        SOp::GetElem,
        SOp::SetElemI,
        SOp::Builtin,
        SOp::Inc,
        SOp::Halt,
    ] {
        assert!(
            result.op_counts[op as u8 as usize] > 0,
            "{op:?} not exercised by the kitchen sink"
        );
    }
}

#[test]
fn kitchen_sink_runs_on_guests_in_all_schemes() {
    for vm in Vm::ALL {
        for scheme in Scheme::ALL {
            // run_source validates checksum + dispatch count internally.
            run_source(
                SimConfig::embedded_a5(),
                vm,
                KITCHEN_SINK,
                &[],
                scheme,
                GuestOptions::default(),
                50_000_000,
            )
            .unwrap_or_else(|e| panic!("kitchen sink on {vm:?}/{scheme:?}: {e}"));
        }
    }
}

#[test]
fn kitchen_sink_oracles_agree() {
    let l = luma::lvm::run_source(KITCHEN_SINK, &[], 1_000_000).unwrap();
    let s = luma::svm::run_source(KITCHEN_SINK, &[], 1_000_000).unwrap();
    assert_eq!(l.checksum, s.checksum);
    assert_eq!(l.emitted, s.emitted);
}

// ---- exhaustive coverage: seed benchmarks ∪ seeded fuzz programs ----

/// SplitMix64 — the same stream construction as `scd_ref::gen`, local so
/// this tier-1 test does not depend on the oracle crate.
struct SrcRng(u64);

impl SrcRng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Generates one seeded, always-terminating Luma fuzz program. Each
/// program mixes randomized arithmetic/comparison/logic expressions,
/// arrays with constant and computed indexing, bounded loops, functions
/// (bare and valued returns, wide frames, first-class calls) and
/// builtins, so that across many seeds every compiler emission form —
/// including the specialized constant/local/index opcodes — gets hit.
fn gen_luma_source(seed: u64) -> String {
    use std::fmt::Write as _;
    let mut r = SrcRng(seed);
    let mut s = String::new();
    let lit = |r: &mut SrcRng| -> String {
        match r.below(4) {
            0 => format!("{}", r.below(100)),                 // i8-range int
            1 => format!("{}", 300 + r.below(20_000)),        // i16-range int
            2 => format!("{}.{}", r.below(50), r.below(100)), // const pool
            _ => format!("{}", r.below(10)),
        }
    };
    let vars = ["va", "vb", "vc", "vd"];
    for v in vars {
        let _ = writeln!(s, "var {v} = {};", lit(&mut r));
    }
    let _ = writeln!(s, "var arr = [{}, {}, {}];", lit(&mut r), lit(&mut r), lit(&mut r));
    let _ = writeln!(s, "var dyn2 = array({});", 2 + r.below(6));

    // A function with a wide frame (locals beyond the specialized
    // range) and a function with a bare return.
    let _ = writeln!(
        s,
        "fn wide(p0, p1, p2, p3, p4, p5, p6, p7, p8, p9) {{\n\
         var w0 = p0 + p{}; var w1 = p1 * p{}; var w2 = p2 - p{};\n\
         return w0 + w1 + w2 + p9;\n}}",
        2 + r.below(8),
        2 + r.below(8),
        2 + r.below(8),
    );
    let _ = writeln!(s, "fn bare(t) {{ t[{}] = {}; return; }}", r.below(3), lit(&mut r));

    let arith = ["+", "-", "*", "/", "%"];
    let cmp = ["==", "!=", "<", "<=", ">", ">="];
    for _ in 0..6 + r.below(6) {
        let a = vars[r.below(4) as usize];
        let b = vars[r.below(4) as usize];
        match r.below(10) {
            0 => {
                let _ = writeln!(
                    s,
                    "{a} = ({b} {} {}) {} {a};",
                    arith[r.below(5) as usize],
                    lit(&mut r),
                    arith[r.below(5) as usize],
                );
            }
            1 => {
                let _ = writeln!(
                    s,
                    "emit({a} {} {});",
                    cmp[r.below(6) as usize],
                    if r.below(2) == 0 { lit(&mut r) } else { b.to_string() },
                );
            }
            2 => {
                let _ = writeln!(s, "emit(-{a} + len(arr) - len(dyn2));");
            }
            3 => {
                let _ = writeln!(s, "arr[{}] = {a} + {};", r.below(3), lit(&mut r));
                let _ = writeln!(s, "emit(arr[{}]);", r.below(3));
            }
            4 => {
                let idx = r.below(3);
                let _ = writeln!(s, "var i{idx} = {idx};");
                let _ = writeln!(s, "arr[i{idx}] = arr[i{idx}] * {};", lit(&mut r));
            }
            5 => {
                let _ = writeln!(
                    s,
                    "if ({a} < {} and {b} >= 0) or not ({a} == {b}) {{ emit(1); }} \
                     else {{ emit({}); }}",
                    lit(&mut r),
                    lit(&mut r),
                );
            }
            6 => {
                let _ = writeln!(s, "for k = 0, {} {{ {a} = {a} + k; }}", 1 + r.below(8));
                let _ = writeln!(s, "for k = {}, 0, -1 {{ {b} = {b} - 1; }}", 1 + r.below(8));
            }
            7 => {
                let _ = writeln!(
                    s,
                    "var n = 0;\nwhile true {{ n = n + 1; if n >= {} {{ break; }} }}\nemit(n);",
                    1 + r.below(9),
                );
            }
            8 => {
                let _ = writeln!(
                    s,
                    "emit(wide({}, {}, {}, {}, 1, 2, 3, 4, 5, {}));",
                    lit(&mut r),
                    lit(&mut r),
                    lit(&mut r),
                    lit(&mut r),
                    lit(&mut r),
                );
                let _ = writeln!(s, "bare(arr);");
            }
            _ => {
                let _ =
                    writeln!(s, "emit(min(sqrt(abs({a})), max(floor({b}), {})));", lit(&mut r),);
                let _ = writeln!(s, "var maybe = nil; emit(maybe == nil); maybe = true;");
                let _ = writeln!(s, "emit(choosefn({a} > {b}));");
            }
        }
    }
    // choosefn used above may or may not be generated; always define it
    // (first-class function value + valued return on both paths).
    format!(
        "fn choosefn(c) {{ if c {{ return 1; }} return 0; }}\nvar fv = choosefn;\nemit(fv(true));\n{s}"
    )
}

/// Every handler of both interpreters must be reached by the union of
/// the seed benchmarks (tiny inputs) and 64 seeded fuzz programs. Fails
/// naming the cold opcodes. SVM `Nop` is excluded: it exists for
/// patching and is never emitted.
#[test]
fn all_handlers_reached_by_benchmarks_and_fuzz_union() {
    let mut lvm = vec![0u64; LOp::ALL.len()];
    let mut svm = vec![0u64; luma::svm::bytecode::NUM_IMPLEMENTED as usize];
    let mut absorb = |src: &str, args: &[(&str, f64)]| {
        let r = luma::lvm::run_source(src, args, 50_000_000)
            .unwrap_or_else(|e| panic!("lvm rejected a fuzz program: {e}\n{src}"));
        for (i, c) in r.op_counts.iter().enumerate() {
            lvm[i] += c;
        }
        let r = luma::svm::run_source(src, args, 50_000_000)
            .unwrap_or_else(|e| panic!("svm rejected a fuzz program: {e}\n{src}"));
        for (i, c) in r.op_counts.iter().enumerate() {
            if i < svm.len() {
                svm[i] += c;
            }
        }
    };
    for b in luma::scripts::BENCHMARKS {
        absorb(b.source, &[("N", b.tiny_arg)]);
    }
    for i in 0..64u64 {
        absorb(&gen_luma_source(0x5EED ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15)), &[]);
    }
    let lvm_missing: Vec<LOp> = LOp::ALL.into_iter().filter(|&op| lvm[op as usize] == 0).collect();
    let svm_missing: Vec<SOp> = (0..svm.len())
        .map(|n| SOp::from_u8(n as u8).unwrap())
        .filter(|&op| op != SOp::Nop && svm[op as u8 as usize] == 0)
        .collect();
    assert!(
        lvm_missing.is_empty() && svm_missing.is_empty(),
        "handlers never reached by benchmarks ∪ fuzz programs:\n  LVM: {lvm_missing:?}\n  SVM: {svm_missing:?}"
    );
}
