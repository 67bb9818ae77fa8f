//! Seeded random-program generator for differential fuzzing.
//!
//! Programs are *interpreter-shaped* on purpose: the SCD extension only
//! fires on the `<load>.op` / `bop` / `jru` dispatch idiom (Figure 1 of
//! the paper), so uniform random instruction soup would never exercise
//! the JTE path. Each generated program is a bytecode loop — a rodata
//! bytecode array, a software jump table, and `blocks` random handler
//! bodies — whose dispatch tail is exactly the paper's short-circuit
//! sequence, plus enough ALU / memory / FP / call noise in the handlers
//! to stress the rest of the architectural state.
//!
//! Determinism: the only entropy source is an explicit `u64` seed fed to
//! a splitmix64 stream. Same seed, same program, bit for bit.

use scd_isa::{Asm, FReg, LoadOp, Program, Reg, Rounding, StoreOp};

/// splitmix64: tiny, seedable, and good enough for program shapes.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Creates a stream from an explicit seed (no ambient entropy).
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// Next raw 64-bit value.
    #[allow(clippy::should_implement_trait)] // infallible, unlike Iterator::next
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// True with probability `num/den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }
}

/// Program-shape bias for the generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GenBias {
    /// Default interpreter shape: a dense opcode alphabet `1..=blocks`.
    Uniform,
    /// Adversarial BTB aliasing: opcodes stride by
    /// [`ALIAS_OPCODE_STRIDE`] so every JTE of a given bid folds into a
    /// single L0 set of the two-level BTB organization, and all four
    /// Rop masks are full-width so each hostile opcode stays a distinct
    /// JTE key.
    Aliasing,
}

/// Aliasing-bias opcode stride. Under the simulator's `arm_like`
/// two-level BTB geometry (32-entry 2-way L0 = 16 sets, fold width 8) a
/// JTE's raw key is `opcode ^ (bid << 56)`, whose 8-bit XOR-fold is
/// `opcode ^ bid` for opcodes below 256. A stride-16 opcode has a zero
/// low nibble, so the fold's low nibble — the L0 set index — is just
/// `bid`: every JTE of a given bid contends for one 2-way set. (The
/// geometry constants are restated here because scd-ref depends only on
/// scd-isa, not scd-sim.)
pub const ALIAS_OPCODE_STRIDE: u64 = 16;

/// Aliasing-bias block ceiling, keeping the largest opcode
/// (`blocks * 16 = 240`) below 256 so even the narrowest `.op` load
/// width reads the whole opcode.
const ALIAS_MAX_BLOCKS: u32 = 15;

/// Knobs for one generated program.
#[derive(Debug, Clone, Copy)]
pub struct GenConfig {
    /// Number of distinct handler blocks (= dynamic opcode alphabet).
    /// Clamped to `1..=200` (`1..=15` under the aliasing bias).
    /// Shrinking reduces this.
    pub blocks: u32,
    /// Outer iterations of the whole bytecode string.
    pub outer_iters: u32,
    /// Size of the scratch data segment in 8-byte words (power of two
    /// enforced).
    pub data_words: u32,
    /// The seed. The program is a pure function of this config.
    pub seed: u64,
    /// Program-shape bias.
    pub bias: GenBias,
}

impl GenConfig {
    /// The fuzzer's default shape for a given seed.
    pub fn from_seed(seed: u64) -> Self {
        let mut r = Rng::new(seed ^ 0xC0FF_EE00_D15E_A5E5);
        GenConfig {
            blocks: 2 + r.below(30) as u32,
            outer_iters: 2 + r.below(6) as u32,
            data_words: 64 << r.below(3),
            seed,
            bias: GenBias::Uniform,
        }
    }

    /// The adversarial-aliasing shape for a given seed: fewer handler
    /// blocks (the strided alphabet tops out at 15), a longer bytecode
    /// string and more outer iterations so the engineered BTB
    /// contention gets hot.
    pub fn aliasing_from_seed(seed: u64) -> Self {
        let mut r = Rng::new(seed ^ 0xA11A_5ED0_BAD5_EED5);
        GenConfig {
            blocks: 4 + r.below(12) as u32,
            outer_iters: 4 + r.below(8) as u32,
            data_words: 64 << r.below(3),
            seed,
            bias: GenBias::Aliasing,
        }
    }
}

/// A generated program plus the data segment it expects mapped.
#[derive(Debug, Clone)]
pub struct Generated {
    /// The assembled program (text + rodata).
    pub program: Program,
    /// Base of the zero-filled scratch segment the harness must map.
    pub data_base: u64,
    /// Size in bytes of that segment.
    pub data_size: u64,
}

/// Guest address of the scratch data segment.
pub const DATA_BASE: u64 = 0x10_0000;

// Register conventions inside generated programs (callee-saved so the
// occasional jal/ret pair can't clobber interpreter state):
//   s0 = data segment base     s1 = outer loop counter
//   s2 = bytecode index        s3 = jump table base
//   s4 = bytecode array base   a0 = running checksum
const DATA: Reg = Reg::S0;
const OUTER: Reg = Reg::S1;
const IDX: Reg = Reg::S2;
const TABLE: Reg = Reg::S3;
const CODE: Reg = Reg::S4;
const SUM: Reg = Reg::A0;

/// Scratch registers handler bodies may clobber freely.
const SCRATCH: [Reg; 5] = [Reg::T0, Reg::T1, Reg::T2, Reg::T4, Reg::T5];

/// Generates one program from `cfg`. Deterministic in `cfg`.
///
/// # Panics
/// Panics if assembly fails — that is a generator bug (offsets are sized
/// to stay in range), not a caller error.
pub fn generate(cfg: &GenConfig) -> Generated {
    let aliasing = cfg.bias == GenBias::Aliasing;
    let max_blocks = if aliasing { ALIAS_MAX_BLOCKS } else { 200 };
    // Opcode `j` dispatches handler `j` in uniform mode; the aliasing
    // bias spreads the alphabet to `j * stride` (jump-table slots
    // between strides fall back to handler 0, which uniform-mode
    // programs use as the string terminator and never reach here).
    let stride = if aliasing { ALIAS_OPCODE_STRIDE } else { 1 };
    let blocks = cfg.blocks.clamp(1, max_blocks) as u64;
    // Cap at 256 words so `addr_mask` (at most 2040) stays inside the
    // 12-bit signed immediate `andi` can encode.
    let data_words = (cfg.data_words.clamp(8, 256) as u64).next_power_of_two();
    let data_size = data_words * 8;
    // Mask producing 8-aligned in-segment offsets.
    let addr_mask = (data_size - 1) & !7;
    let mut r = Rng::new(cfg.seed);

    let mut a = Asm::new(0x1_0000);

    // ---- prologue ----
    a.la(DATA, "data_base_lit");
    a.ld(DATA, 0, DATA);
    a.li(OUTER, cfg.outer_iters.clamp(1, 64) as i64);
    a.la(TABLE, "table");
    a.la(CODE, "bytes");
    a.li(SUM, 0x5EED);
    // Rmask per bid: bid 2 and 3 get narrower masks so high block counts
    // alias distinct opcodes onto one Rop value — the JTE map and the BTB
    // must both tolerate that (lockstep follows the DUT's hit pattern).
    // The aliasing bias instead keeps every mask full-width: its strided
    // opcodes must reach the JTE key un-truncated so each (bid, opcode)
    // pair stays a distinct entry fighting for the same hashed set.
    let masks: [(u8, i64); 4] = if aliasing {
        [(0, 0xFF), (1, 0xFF), (2, 0xFF), (3, 0xFF)]
    } else {
        [(0, 0xFF), (1, 0xFF), (2, 0x3F), (3, 0x1F)]
    };
    for (bid, mask) in masks {
        a.li(Reg::T6, mask);
        a.setmask(bid, Reg::T6);
    }
    a.j("outer_head");

    // Exit sits right after the prologue so `beqz OUTER, exit` from
    // outer_head is a short backward-free branch well inside ±4 KiB.
    a.label("exit");
    a.li(Reg::A7, 0);
    a.ecall();

    a.label("outer_head");
    a.beqz(OUTER, "exit");
    a.addi(OUTER, OUTER, -1);
    a.li(IDX, 0);
    gen_dispatch(&mut a, &mut r, 0);

    // Handler 0 ends the bytecode string: back to the outer loop.
    a.label("handler0");
    a.j("outer_head");

    let mut uniq = 0u64;
    for h in 1..=blocks {
        a.label(format!("handler{h}"));
        gen_body(&mut a, &mut r, addr_mask, &mut uniq);
        // Advance the bytecode cursor and dispatch the next opcode with
        // this handler's bid (bids rotate so all four register sets and
        // both wide and narrow masks stay hot).
        a.addi(IDX, IDX, 1);
        gen_dispatch(&mut a, &mut r, (h % 4) as u8);
    }

    // ---- rodata ----
    a.ro_label("data_base_lit");
    a.ro_word(DATA_BASE);
    // Bytecode string: random opcodes 1..=blocks, handler 0 terminates.
    // One opcode per 8-byte word; the narrow loads in the dispatch tail
    // read the low byte(s).
    a.ro_label("bytes");
    // The aliasing bias runs a longer string: set thrash only shows
    // once the working set of strided opcodes cycles a few times.
    let len = if aliasing { 24 + r.below(40) } else { 4 + r.below(28) };
    for _ in 0..len {
        a.ro_word((1 + r.below(blocks)) * stride);
    }
    a.ro_word(0);
    a.ro_label("table");
    for idx in 0..=blocks * stride {
        let h = if idx % stride == 0 { idx / stride } else { 0 };
        a.ro_addr(format!("handler{h}"));
    }

    let program = a.finish().expect("generated program must assemble");
    Generated { program, data_base: DATA_BASE, data_size }
}

/// Emits the paper's dispatch tail: fetch the next opcode with a `.op`
/// load, `bop`, recompute the target from the software jump table, `jru`.
fn gen_dispatch(a: &mut Asm, r: &mut Rng, bid: u8) {
    a.slli(Reg::T0, IDX, 3);
    a.add(Reg::T0, CODE, Reg::T0);
    // Vary the load width: all see the same low byte (opcodes < 256 and
    // words are little-endian), but width variety exercises load_extend
    // on the .op path.
    let op = match r.below(3) {
        0 => LoadOp::Lbu,
        1 => LoadOp::Lhu,
        _ => LoadOp::Lwu,
    };
    a.load_op(op, bid, Reg::T1, 0, Reg::T0);
    a.bop(bid);
    a.slli(Reg::T2, Reg::T1, 3);
    a.add(Reg::T2, Reg::T2, TABLE);
    a.ld(Reg::T3, 0, Reg::T2);
    a.jru(bid, Reg::T3);
}

/// Emits one random handler body. Must preserve the interpreter registers
/// (DATA/OUTER/IDX/TABLE/CODE) and may do anything else architectural.
/// `uniq` numbers local labels so repeated shapes never collide.
fn gen_body(a: &mut Asm, r: &mut Rng, addr_mask: u64, uniq: &mut u64) {
    let n = 1 + r.below(8);
    for _ in 0..n {
        *uniq += 1;
        let h = *uniq;
        let rd = SCRATCH[r.below(SCRATCH.len() as u64) as usize];
        let rs = SCRATCH[r.below(SCRATCH.len() as u64) as usize];
        match r.below(12) {
            0 => {
                a.li(rd, (r.next() & 0x7FFF_FFFF) as i64 - 0x4000_0000);
            }
            1 => {
                a.add(rd, rs, SUM);
            }
            2 => {
                a.xor(rd, rs, rs);
                a.ori(rd, rd, (r.below(2047) as i64) + 1);
            }
            3 => {
                a.mul(rd, rs, SUM);
            }
            4 => {
                // div/rem with a possibly-zero divisor: the fixup
                // semantics (x/0 = -1, x%0 = x) must match bit-for-bit.
                if r.chance(1, 2) {
                    a.div(rd, SUM, rs);
                } else {
                    a.rem(rd, SUM, rs);
                }
            }
            5 => {
                // Masked store then load back.
                gen_addr(a, r, rd, addr_mask);
                let (st, ld) = match r.below(4) {
                    0 => (StoreOp::Sb, LoadOp::Lb),
                    1 => (StoreOp::Sh, LoadOp::Lh),
                    2 => (StoreOp::Sw, LoadOp::Lw),
                    _ => (StoreOp::Sd, LoadOp::Ld),
                };
                a.store(st, SUM, 0, rd);
                a.load(ld, rs, 0, rd);
            }
            6 => {
                // Sign-extending narrow load from the data segment.
                gen_addr(a, r, rd, addr_mask);
                a.lb(rs, 0, rd);
            }
            7 => {
                // FP round-trip: int -> double -> arithmetic -> int.
                a.fcvt_d_l(FReg::FT0, SUM);
                a.fcvt_d_l(FReg::FT1, rs);
                if r.chance(1, 2) {
                    a.fadd(FReg::FT2, FReg::FT0, FReg::FT1);
                } else {
                    a.fmul(FReg::FT2, FReg::FT0, FReg::FT1);
                }
                let rm = match r.below(3) {
                    0 => Rounding::Rne,
                    1 => Rounding::Rtz,
                    _ => Rounding::Rdn,
                };
                a.fcvt_l_d(rd, FReg::FT2, rm);
            }
            8 => {
                // Call/return through a tiny leaf: RAS + jalr traffic.
                a.call(format!("leaf{h}"));
                a.j(format!("after_leaf{h}"));
                a.label(format!("leaf{h}"));
                a.xori(Reg::T3, SUM, 0x155);
                a.ret();
                a.label(format!("after_leaf{h}"));
                a.add(rd, Reg::T3, rs);
            }
            9 => {
                // Small counted inner loop (conditional branch traffic).
                a.li(rd, (1 + r.below(6)) as i64);
                a.label(format!("inner{h}"));
                a.addi(rd, rd, -1);
                a.add(SUM, SUM, rd);
                a.bnez(rd, format!("inner{h}"));
            }
            10 => {
                // Occasional jte.flush mid-handler: every Rop valid bit
                // drops, so the very next dispatch must miss.
                if r.chance(1, 4) {
                    a.jte_flush();
                } else {
                    a.slli(rd, rs, r.below(63) as i64);
                }
            }
            _ => {
                a.srli(rd, SUM, r.below(63) as i64);
            }
        }
        // Fold the result into the checksum so divergent values cascade
        // into divergent control flow downstream.
        let rd2 = SCRATCH[r.below(SCRATCH.len() as u64) as usize];
        a.add(SUM, SUM, rd2);
    }
}

/// Emits `rd = DATA + (mix & addr_mask)` — an always-in-segment, 8-aligned
/// scratch address derived from the checksum.
fn gen_addr(a: &mut Asm, r: &mut Rng, rd: Reg, addr_mask: u64) {
    a.srli(rd, SUM, r.below(5) as i64);
    a.andi(rd, rd, addr_mask as i64);
    a.add(rd, DATA, rd);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BopHint, RefCore};

    #[test]
    fn same_seed_same_words() {
        let g1 = generate(&GenConfig::from_seed(42));
        let g2 = generate(&GenConfig::from_seed(42));
        assert_eq!(g1.program.words, g2.program.words);
        assert_eq!(g1.program.rodata, g2.program.rodata);
    }

    #[test]
    fn different_seeds_differ() {
        let g1 = generate(&GenConfig::from_seed(1));
        let g2 = generate(&GenConfig::from_seed(2));
        assert_ne!(g1.program.words, g2.program.words);
    }

    #[test]
    fn generated_programs_run_to_exit_on_the_ref() {
        for seed in 0..32u64 {
            let g = generate(&GenConfig::from_seed(seed));
            let mut c = RefCore::from_program(&g.program, true, 4);
            c.mem.add_segment("fuzzdata", g.data_base, g.data_size);
            match c.run(2_000_000) {
                Ok(_) => {}
                Err(e) => panic!("seed {seed}: {e}"),
            }
        }
    }

    #[test]
    fn aliasing_bias_is_deterministic_and_runs_to_exit() {
        let g1 = generate(&GenConfig::aliasing_from_seed(42));
        let g2 = generate(&GenConfig::aliasing_from_seed(42));
        assert_eq!(g1.program.words, g2.program.words);
        assert_eq!(g1.program.rodata, g2.program.rodata);
        for seed in 0..8u64 {
            let g = generate(&GenConfig::aliasing_from_seed(seed));
            let mut c = RefCore::from_program(&g.program, true, 4);
            c.mem.add_segment("fuzzdata", g.data_base, g.data_size);
            if let Err(e) = c.run(4_000_000) {
                panic!("aliasing seed {seed}: {e}");
            }
        }
    }

    #[test]
    fn aliasing_bias_differs_from_uniform() {
        let u = generate(&GenConfig::from_seed(5));
        let a = generate(&GenConfig::aliasing_from_seed(5));
        assert_ne!(u.program.words, a.program.words);
    }

    #[test]
    fn generated_programs_exercise_the_scd_idiom() {
        let g = generate(&GenConfig::from_seed(7));
        let mut c = RefCore::from_program(&g.program, true, 4);
        c.mem.add_segment("fuzzdata", g.data_base, g.data_size);
        let mut bops = 0u64;
        loop {
            let before_pc = c.arch.pc;
            let arch = c.step(BopHint::Auto).expect("runs clean");
            // Count bop retirements by decode class: a step whose pc
            // advanced non-sequentially from a bop site is fine too; we
            // just need evidence the idiom executes.
            let _ = before_pc;
            if let Some(i) = c.inst_at(arch.pc) {
                if matches!(i, scd_isa::Inst::Bop { .. }) {
                    bops += 1;
                }
            }
            if arch.exited.is_some() {
                break;
            }
            if c.instructions > 2_000_000 {
                panic!("runaway");
            }
        }
        assert!(bops > 10, "only {bops} bop retirements");
    }
}
