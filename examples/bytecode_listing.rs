//! Shows a script compiled to both bytecode formats — the 32-bit
//! register words of LVM (the paper's Lua analogue) and the
//! variable-length byte stream of SVM (the SpiderMonkey analogue).
//!
//! ```text
//! cargo run --release --example bytecode_listing [path/to/script.luma]
//! ```

use scd::luma;

const DEFAULT: &str = "
    fn sum_to(n) {
        var s = 0;
        for i = 1, n { s = s + i; }
        return s;
    }
    emit(sum_to(N));
";

fn main() {
    let src = match std::env::args().nth(1) {
        Some(path) => std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(1);
        }),
        None => DEFAULT.to_string(),
    };
    let script = match luma::parser::parse(&src) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("parse error: {e}");
            std::process::exit(1);
        }
    };

    let (lvm, _) = luma::lvm::compile_lvm(&script, &[("N", 10.0)])
        .or_else(|_| luma::lvm::compile_lvm(&script, &[]))
        .expect("compiles for LVM");
    println!(
        "==== LVM ({} words, {} consts, {} functions) ====",
        lvm.code.len(),
        lvm.consts.len(),
        lvm.funcs.len()
    );
    print!("{}", luma::lvm::listing(&lvm));

    let (svm, _) = luma::svm::compile_svm(&script, &[("N", 10.0)])
        .or_else(|_| luma::svm::compile_svm(&script, &[]))
        .expect("compiles for SVM");
    println!(
        "\n==== SVM ({} bytes, {} consts, {} functions) ====",
        svm.code.len(),
        svm.consts.len(),
        svm.funcs.len()
    );
    print!("{}", luma::svm::listing(&svm));
}
