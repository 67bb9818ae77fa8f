//! Property tests over the language stack:
//!
//! * the LVM and SVM compilers + reference interpreters form a
//!   *differential pair* — random expression trees must evaluate
//!   identically on both VMs;
//! * the value model's invariants hold for arbitrary doubles.

use proptest::prelude::*;

// ---- value model ----

proptest! {
    #[test]
    fn every_f64_is_a_number_value(x in any::<f64>()) {
        // Any f64 produced by real arithmetic is storable. (Bit patterns
        // in the 0xFFFF box space are not produced by IEEE operations on
        // non-box inputs; we only assert over realistic values here.)
        prop_assume!((x.to_bits() >> 48) != 0xFFFF);
        let v = luma::value::num(x);
        prop_assert!(luma::value::is_num(v));
        if x.is_nan() {
            prop_assert!(luma::value::as_num(v).is_nan());
        } else {
            prop_assert_eq!(luma::value::as_num(v), x);
        }
    }

    #[test]
    fn checksum_folding_is_injective_in_last_step(a in any::<u64>(), b in any::<u64>(), h in any::<u64>()) {
        // For a fixed prefix h, different final values give different
        // checksums (xor with distinct values).
        prop_assume!(a != b);
        prop_assert_ne!(
            luma::value::checksum_step(h, a),
            luma::value::checksum_step(h, b)
        );
    }
}

// ---- differential expression evaluation ----

/// A random arithmetic expression over two variables, rendered as Luma
/// source. Division and modulo keep denominators away from zero-ish
/// values to avoid inf/NaN checksum ambiguity (those are exercised by
/// unit tests instead).
fn arb_expr(depth: u32) -> BoxedStrategy<String> {
    if depth == 0 {
        prop_oneof![
            (-100i32..100).prop_map(|n| format!("{n}")),
            Just("a".to_string()),
            Just("b".to_string()),
        ]
        .boxed()
    } else {
        let sub = arb_expr(depth - 1);
        prop_oneof![
            (sub.clone(), sub.clone()).prop_map(|(x, y)| format!("({x} + {y})")),
            (sub.clone(), sub.clone()).prop_map(|(x, y)| format!("({x} - {y})")),
            (sub.clone(), sub.clone()).prop_map(|(x, y)| format!("({x} * {y})")),
            (sub.clone(),).prop_map(|(x,)| format!("({x} / 7)")),
            (sub.clone(),).prop_map(|(x,)| format!("({x} % 13)")),
            (sub.clone(),).prop_map(|(x,)| format!("(0 - {x})")),
            (sub.clone(), sub.clone()).prop_map(|(x, y)| format!("min({x}, {y})")),
            (sub.clone(), sub).prop_map(|(x, y)| format!("max({x}, {y})")),
        ]
        .boxed()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lvm_and_svm_agree_on_random_expressions(
        e in arb_expr(4),
        a in -1000i32..1000,
        b in -1000i32..1000,
    ) {
        let src = format!("var a = {a}; var b = {b}; emit({e});");
        let l = luma::lvm::run_source(&src, &[], 1_000_000)
            .expect("LVM oracle evaluates");
        let s = luma::svm::run_source(&src, &[], 1_000_000)
            .expect("SVM oracle evaluates");
        prop_assert_eq!(l.checksum, s.checksum, "source: {}", src);
    }

    #[test]
    fn comparison_chains_agree(
        a in -50i32..50,
        b in -50i32..50,
        c in -50i32..50,
    ) {
        let src = format!(
            "var a = {a}; var b = {b}; var c = {c};
             if a < b and b <= c or a == c {{ emit(1); }} else {{ emit(2); }}
             if not (a > b) {{ emit(3); }} else {{ emit(4); }}
             emit(min(a, min(b, c)));"
        );
        let l = luma::lvm::run_source(&src, &[], 1_000_000).expect("LVM runs");
        let s = luma::svm::run_source(&src, &[], 1_000_000).expect("SVM runs");
        prop_assert_eq!(l.emitted, s.emitted);
    }

    #[test]
    fn loops_agree_for_any_bounds(
        start in -20i32..20,
        limit in -20i32..20,
        step in prop::sample::select(vec![-3i32, -2, -1, 1, 2, 3]),
    ) {
        let src = format!(
            "var s = 0; for i = {start}, {limit}, {step} {{ s = s + i; }} emit(s);"
        );
        let l = luma::lvm::run_source(&src, &[], 1_000_000).expect("LVM runs");
        let v = luma::svm::run_source(&src, &[], 1_000_000).expect("SVM runs");
        prop_assert_eq!(l.checksum, v.checksum, "source: {}", src);
    }

    #[test]
    fn array_fill_and_sum_agree(n in 1usize..40, stride in 1usize..5) {
        let src = format!(
            "var a = array({n});
             var i = 0;
             while i < {n} {{ a[i] = i * {stride}; i = i + 1; }}
             var s = 0;
             for j = 0, {n} - 1 {{ s = s + a[j]; }}
             emit(s); emit(len(a));"
        );
        let l = luma::lvm::run_source(&src, &[], 10_000_000).expect("LVM runs");
        let v = luma::svm::run_source(&src, &[], 10_000_000).expect("SVM runs");
        prop_assert_eq!(l.emitted, v.emitted);
    }
}
