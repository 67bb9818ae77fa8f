//! Disassembler for SVM's variable-length bytecode.

use super::bytecode::{Op, SvmProgram};
use std::fmt::Write as _;

/// One decoded instruction: `(byte offset, length, rendered text)`.
pub type DisasmLine = (usize, usize, String);

/// Decodes the instruction at `off`, or `None` for a reserved opcode or
/// a truncated stream.
pub fn disasm_at(code: &[u8], off: usize) -> Option<DisasmLine> {
    let byte = *code.get(off)?;
    let op = Op::from_u8(byte)?;
    let len = op.length();
    if off + len > code.len() {
        return None;
    }
    let u8_at = |i: usize| code[off + i] as i64;
    let i8_at = |i: usize| code[off + i] as i8 as i64;
    let u16_at = |i: usize| u16::from_le_bytes([code[off + i], code[off + i + 1]]) as i64;
    let i16_at = |i: usize| i16::from_le_bytes([code[off + i], code[off + i + 1]]) as i64;

    let text = match op {
        Op::PushConst => format!("PushConst k{}", u16_at(1)),
        Op::PushInt8 => format!("PushInt8 {}", i8_at(1)),
        Op::PushInt16 => format!("PushInt16 {}", i16_at(1)),
        Op::GetLocal => format!("GetLocal {}", u8_at(1)),
        Op::SetLocal => format!("SetLocal {}", u8_at(1)),
        Op::GetGlobal => format!("GetGlobal g{}", u16_at(1)),
        Op::SetGlobal => format!("SetGlobal g{}", u16_at(1)),
        Op::PushFn => format!("PushFn f{}", u16_at(1)),
        Op::Call => format!("Call argc={}", u8_at(1)),
        Op::Builtin => format!("Builtin #{}", u8_at(1)),
        Op::GetElemI => format!("GetElemI [{}]", u8_at(1)),
        Op::SetElemI => format!("SetElemI [{}]", u8_at(1)),
        Op::Jump | Op::JumpIfFalse | Op::JumpIfTrue => {
            let rel = i16_at(1);
            let target = (off + len) as i64 + rel;
            format!("{op:?} -> {target:#06x} ({rel:+})")
        }
        _ => format!("{op:?}"),
    };
    Some((off, len, text))
}

/// Renders a full program listing, with function boundaries marked.
pub fn listing(p: &SvmProgram) -> String {
    let mut out = String::new();
    let mut starts: Vec<(u32, usize)> =
        p.funcs.iter().enumerate().map(|(i, f)| (f.code_off, i)).collect();
    starts.sort_unstable();
    let mut off = 0usize;
    while off < p.code.len() {
        for &(fo, fi) in &starts {
            if fo as usize == off {
                let f = p.funcs[fi];
                let _ = writeln!(out, "fn_{fi}:  # params={} locals={}", f.nparams, f.nlocals);
            }
        }
        match disasm_at(&p.code, off) {
            Some((_, len, text)) => {
                let _ = writeln!(out, "  {off:#06x}: {text}");
                off += len;
            }
            None => {
                let _ = writeln!(out, "  {off:#06x}: <reserved {:#04x}>", p.code[off]);
                off += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn program(src: &str) -> SvmProgram {
        crate::svm::compile_svm(&parse(src).unwrap(), &[]).unwrap().0
    }

    #[test]
    fn decodes_operands() {
        let p = program("fn f(x) { return x + 1; } emit(f(41));");
        let l = listing(&p);
        assert!(l.contains("PushFn f1"), "{l}");
        assert!(l.contains("Call argc=1"), "{l}");
        assert!(l.contains("Inc"), "{l}");
        assert!(l.contains("Halt"), "{l}");
        assert!(l.contains("fn_1:"), "{l}");
    }

    #[test]
    fn jump_targets_resolve() {
        let p = program("var i = 0; while i < 3 { i = i + 1; } emit(i);");
        let l = listing(&p);
        assert!(l.contains("JumpIfFalse ->"), "{l}");
        assert!(l.contains("Jump ->"), "{l}");
    }

    #[test]
    fn disasm_walks_whole_stream() {
        // Every benchmark's SVM code must decode cleanly from start to
        // end (no reserved bytes in compiler output).
        for b in &crate::scripts::BENCHMARKS {
            let script = parse(b.source).unwrap();
            let (p, _) = crate::svm::compile_svm(&script, &[("N", b.tiny_arg)])
                .or_else(|_| crate::svm::compile_svm(&script, &[]))
                .unwrap();
            let mut off = 0;
            while off < p.code.len() {
                let (_, len, _) = disasm_at(&p.code, off)
                    .unwrap_or_else(|| panic!("{}: reserved byte at {off}", b.name));
                off += len;
            }
        }
    }

    #[test]
    fn truncated_stream_returns_none() {
        // PushConst needs 2 operand bytes.
        let code = [Op::PushConst as u8, 0x01];
        assert!(disasm_at(&code, 0).is_none());
        assert!(disasm_at(&[], 0).is_none());
    }
}
