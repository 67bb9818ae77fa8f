//! Shared definitions for the guest interpreter builders.

use scd_isa::Reg;

/// A built guest interpreter: the assembled program plus the simulator
/// annotations (dispatch PC ranges, dispatch jump PCs, VBBI hints).
#[derive(Debug)]
pub struct Guest {
    /// The assembled interpreter binary.
    pub program: scd_isa::Program,
    /// Dispatch ranges / jump PCs / VBBI hints for the simulator.
    pub annotations: scd_sim::Annotations,
}

/// The label name made of `parts` followed by `n` in decimal, e.g.
/// `h_12`. A guest build names hundreds of labels, and writing the
/// digits by hand costs about a third of `format!`.
pub(crate) fn label_name(parts: &[&str], n: u32) -> String {
    let mut name = String::with_capacity(parts.iter().map(|p| p.len()).sum::<usize>() + 10);
    for p in parts {
        name.push_str(p);
    }
    push_decimal(&mut name, n);
    name
}

/// The label of builtin `id`'s arm in the dispatch tree numbered `tag`:
/// `prefix`, `id`, `_`, `tag`, e.g. `cb_3_41`.
pub(crate) fn arm_label(prefix: &str, id: u32, tag: u32) -> String {
    let mut name = String::with_capacity(prefix.len() + 21);
    name.push_str(prefix);
    push_decimal(&mut name, id);
    name.push('_');
    push_decimal(&mut name, tag);
    name
}

/// Appends `n` in decimal to `name`.
fn push_decimal(name: &mut String, n: u32) {
    let mut digits = [0u8; 10];
    let mut at = digits.len();
    let mut v = n;
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    name.push_str(std::str::from_utf8(&digits[at..]).expect("decimal digits are ASCII"));
}

/// Dispatch scheme of a guest interpreter build (the three bars of the
/// paper's Fig. 7, minus VBBI which is a *hardware* configuration run on
/// the Baseline binary).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(clippy::exhaustive_enums)]
pub enum Scheme {
    /// Canonical shared dispatcher with a jump table (Fig. 1a/b).
    Baseline,
    /// Jump threading: the dispatcher is replicated at the tail of every
    /// handler (Fig. 1c).
    Threaded,
    /// Short-Circuit Dispatch: `.op`-suffixed fetch, `bop` fast path,
    /// `jru` slow path (Fig. 4).
    Scd,
}

impl Scheme {
    /// All three schemes, in presentation order.
    pub const ALL: [Scheme; 3] = [Scheme::Baseline, Scheme::Threaded, Scheme::Scd];

    /// Short name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Scheme::Baseline => "baseline",
            Scheme::Threaded => "jump-threading",
            Scheme::Scd => "scd",
        }
    }
}

/// Build-time options for the guest interpreters.
#[derive(Debug, Clone, Copy)]
pub struct GuestOptions {
    /// Emit production-interpreter bookkeeping in the fetch block: a hook
    /// check (like Lua's `vmfetch` trace hook) and a retired-bytecode
    /// counter, plus a cold hook stub per fetch site. This is what gives
    /// the dispatcher its paper-like weight; disable for the "lean"
    /// ablation.
    pub production_weight: bool,
    /// Schedule the bookkeeping *between* the `.op` fetch and `bop`
    /// so Rop is ready by the time `bop` reaches fetch (removes the
    /// stall bubbles of Section III-B). Off by default: the paper's
    /// transformation keeps the hook check ahead of the fetch.
    pub scheduled_fetch: bool,
}

impl Default for GuestOptions {
    fn default() -> Self {
        GuestOptions { production_weight: true, scheduled_fetch: false }
    }
}

/// Register conventions shared by both guest interpreters.
///
/// | reg | LVM                      | SVM                       |
/// |-----|--------------------------|---------------------------|
/// | s0  | 0xFFFF3 (array-tag >>44) | same                      |
/// | s1  | virtual PC               | virtual PC (byte pointer) |
/// | s2  | frame base (R\[0\])      | locals base               |
/// | s3  | constants base           | operand stack pointer     |
/// | s4  | jump table base          | same                      |
/// | s5  | heap bump pointer        | same                      |
/// | s6  | frame-stack pointer      | same                      |
/// | s7  | globals base             | same                      |
/// | s8  | BOX (0xFFFF<<48) = nil   | same                      |
/// | s9  | function table base      | same                      |
/// | s10 | checksum accumulator     | same                      |
/// | s11 | bytecode base            | same                      |
/// | gp  | FALSE bits               | same                      |
/// | tp  | stack limit / VM control | same                      |
/// | a6  | —                        | constants base            |
pub mod regs {
    use super::Reg;
    /// Array-tag prefix constant (`0xFFFF3`).
    pub const TAG_ARR_HI: Reg = Reg::S0;
    /// Virtual program counter.
    pub const VPC: Reg = Reg::S1;
    /// Frame base (LVM) / locals base (SVM).
    pub const BASE: Reg = Reg::S2;
    /// Constant-pool base (LVM).
    pub const KBASE: Reg = Reg::S3;
    /// Operand stack pointer (SVM only; aliases KBASE, unused there).
    pub const SP: Reg = Reg::S3;
    /// Jump table base.
    pub const JT: Reg = Reg::S4;
    /// Heap bump pointer.
    pub const HEAP: Reg = Reg::S5;
    /// Call-frame stack pointer.
    pub const FRAMES: Reg = Reg::S6;
    /// Globals base.
    pub const GLOBALS: Reg = Reg::S7;
    /// The NaN-box prefix (also the `nil` bit pattern).
    pub const BOX: Reg = Reg::S8;
    /// Function table base.
    pub const FUNCTAB: Reg = Reg::S9;
    /// Checksum accumulator.
    pub const CHK: Reg = Reg::S10;
    /// Bytecode base address.
    pub const CODE: Reg = Reg::S11;
    /// The boxed `false` bit pattern.
    pub const FALSE: Reg = Reg::GP;
    /// VM control block pointer / value-stack limit.
    pub const CTL: Reg = Reg::TP;
    /// Constant-pool base (SVM).
    pub const SVM_KBASE: Reg = Reg::A6;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_names() {
        assert_eq!(Scheme::Baseline.name(), "baseline");
        assert_eq!(Scheme::Threaded.name(), "jump-threading");
        assert_eq!(Scheme::Scd.name(), "scd");
        assert_eq!(Scheme::ALL.len(), 3);
    }

    #[test]
    fn label_names_match_format() {
        for n in [0, 7, 10, 99, 1234, u32::MAX] {
            assert_eq!(label_name(&["h_"], n), format!("h_{n}"));
            assert_eq!(label_name(&["trap", "_"], n), format!("trap_{n}"));
        }
        assert_eq!(label_name(&[], 5), "5");
        for (id, tag) in [(0, 0), (3, 41), (9, u32::MAX)] {
            assert_eq!(arm_label("cb_", id, tag), format!("cb_{id}_{tag}"));
        }
    }

    #[test]
    fn default_options_are_production() {
        let o = GuestOptions::default();
        assert!(o.production_weight);
        assert!(!o.scheduled_fetch);
    }
}
