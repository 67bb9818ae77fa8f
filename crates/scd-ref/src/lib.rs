#![warn(missing_docs)]

//! # scd-ref — the architectural oracle
//!
//! A timing-free reference ISS for the scd-isa subset: no pipeline, no
//! caches, no predictors. It runs two ways over one set of semantics:
//! [`RefCore::step`] executes one instruction and reports its
//! architectural effects (the lockstep driver), and
//! [`RefCore::run`] executes the guest as threaded code — pre-decoded
//! straight runs chained by index, see [`Text`] — for standalone runs
//! and fast-forward. Every data result comes from the same
//! [`scd_isa::exec`] semantics table the cycle model uses, so the two
//! executors cannot drift apart on value semantics — any lockstep
//! divergence is by construction a *plumbing* bug (register file,
//! memory, control flow, SCD state), never a table disagreement.
//!
//! The crate also hosts the seeded random-program generator ([`gen`]) and
//! the on-disk reproducer corpus format ([`corpus`]) used by `scd-cli fuzz`.
//!
//! ## Micro-architecture-dependent control flow
//!
//! `bop` is the one instruction whose *architectural* outcome depends on
//! micro-architectural state (a JTE hit redirects, a miss falls through —
//! Section III of the paper). The reference core therefore accepts a
//! per-step [`BopHint`] so a lockstep driver can replay the DUT's observed
//! hit/miss pattern; the oracle still independently computes the *target*
//! of a claimed hit from its own architectural `(bid, Rop)` → target map
//! (trained on retired `jru`s) and rejects hits the SCD register state
//! cannot justify. Running standalone ([`RefCore::run`]) uses
//! [`BopHint::Auto`]: hit whenever the oracle itself could.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use scd_isa::{exec, Inst, Program, Reg};

/// A multiply-xor hasher for the `(bid, Rop)` JTE key. The default
/// SipHash is DoS-hardened, which the oracle does not need — keys come
/// from the guest's own jump tables — and its latency shows up directly
/// in the dispatch-heavy fast path.
#[derive(Default)]
struct JteHasher(u64);

impl Hasher for JteHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u8(b);
        }
    }
    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.write_u64(v as u64);
    }
    #[inline]
    fn write_u64(&mut self, v: u64) {
        let x = (self.0 ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = x ^ (x >> 32);
    }
}

type JteMap = HashMap<(u8, u64), u64, BuildHasherDefault<JteHasher>>;

pub mod corpus;
pub mod gen;
mod threaded;

pub use threaded::Text;

/// One SCD branch-id register set: `Rop[bid]`, its valid bit, and
/// `Rmask[bid]` (Table I of the paper).
#[derive(Debug, Clone, Copy, Default)]
struct ScdReg {
    rop_v: bool,
    rop_d: u64,
    rmask: u64,
}

/// A guest memory segment (base + backing bytes).
#[derive(Debug, Clone)]
pub struct Segment {
    /// Segment name (diagnostics only).
    pub name: String,
    /// Guest base address.
    pub base: u64,
    /// Backing bytes.
    pub data: Vec<u8>,
}

/// Why the reference core stopped or refused to step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefError {
    /// Memory access outside any segment (or straddling a segment end).
    Mem {
        /// PC of the faulting instruction.
        pc: u64,
        /// Faulting guest address.
        addr: u64,
        /// True for stores.
        write: bool,
    },
    /// PC left the text section or lost 4-byte alignment.
    PcOutOfRange {
        /// The bad PC.
        pc: u64,
    },
    /// The word at PC did not decode (possible with [`RefCore::from_state`]).
    BadInst {
        /// PC of the undecodable word.
        pc: u64,
    },
    /// `ebreak` or an unknown `ecall` service — a guest trap.
    Break {
        /// PC of the trapping instruction.
        pc: u64,
    },
    /// A [`BopHint::Hit`] was asserted for a `(bid, Rop)` pair the oracle's
    /// architectural JTE map has never seen a `jru` train. The DUT's BTB
    /// claims a jump-table entry that architecturally cannot exist.
    BopUntrained {
        /// PC of the `bop`.
        pc: u64,
        /// Branch id (already reduced mod `nbids`).
        bid: u8,
        /// The masked opcode value the hit was keyed on.
        rop_d: u64,
    },
    /// A [`BopHint::Hit`] was asserted while `Rop[bid].v` is clear. A real
    /// SCD front-end can only hit on a valid opcode register (Section III).
    BopNotValid {
        /// PC of the `bop`.
        pc: u64,
        /// Branch id (already reduced mod `nbids`).
        bid: u8,
    },
    /// [`RefCore::run`] hit its instruction budget.
    InstLimit {
        /// The budget that was exhausted.
        limit: u64,
    },
}

impl std::fmt::Display for RefError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            RefError::Mem { pc, addr, write } => write!(
                f,
                "ref: {} fault at {addr:#x} (pc {pc:#x})",
                if write { "store" } else { "load" }
            ),
            RefError::PcOutOfRange { pc } => write!(f, "ref: pc out of range: {pc:#x}"),
            RefError::BadInst { pc } => write!(f, "ref: undecodable word at {pc:#x}"),
            RefError::Break { pc } => write!(f, "ref: guest trap at {pc:#x}"),
            RefError::BopUntrained { pc, bid, rop_d } => write!(
                f,
                "ref: bop hit at {pc:#x} on untrained (bid {bid}, rop {rop_d:#x})"
            ),
            RefError::BopNotValid { pc, bid } => {
                write!(f, "ref: bop hit at {pc:#x} with Rop[{bid}].v clear")
            }
            RefError::InstLimit { limit } => write!(f, "ref: instruction limit {limit} reached"),
        }
    }
}

impl std::error::Error for RefError {}

/// The architectural effects of one retired instruction, shaped to match
/// the cycle model's `ArchInfo` trace record field-for-field.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepArch {
    /// PC the instruction retired at.
    pub pc: u64,
    /// PC of the next instruction.
    pub next_pc: u64,
    /// Integer writeback `(reg index, value)`, if any (x0 included, value 0).
    pub wx: Option<(u8, u64)>,
    /// FP writeback `(reg index, raw bits)`, if any.
    pub wf: Option<(u8, u64)>,
    /// Data-memory effective address, if the instruction accessed memory.
    pub ea: Option<u64>,
    /// Store data after width truncation, if the instruction stored.
    pub store: Option<u64>,
    /// `Some(code)` when this instruction was the halting `ecall`.
    pub exited: Option<u64>,
}

/// How to resolve a `bop` whose outcome is micro-architectural.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BopHint {
    /// Hit iff the oracle itself could: `Rop[bid].v` set and the
    /// architectural JTE map knows the target. Used standalone.
    Auto,
    /// The DUT observed a JTE hit; the oracle validates and follows it.
    Hit,
    /// The DUT observed a miss (or fall-through); the oracle falls through.
    Miss,
}

/// The timing-free reference core.
///
/// State is exactly the architectural state of the paper's machine: the
/// integer and FP register files, PC, guest memory, and the SCD register
/// sets — plus the architectural JTE map `(bid, Rop) → target` that a
/// `jru` retirement defines (the BTB-resident JTEs of the cycle model are
/// a lossy cache of this map; the map itself never evicts).
#[derive(Debug, Clone)]
pub struct RefCore {
    /// Integer register file (x0 held at zero by the writeback helper).
    pub regs: [u64; 32],
    /// FP register file (raw f64 bits).
    pub fregs: [u64; 32],
    /// Current PC.
    pub pc: u64,
    /// Bytes the guest printed via the `ecall` putchar service.
    pub output: Vec<u8>,
    /// Instructions retired so far.
    pub instructions: u64,
    text: Arc<Text>,
    segs: Vec<Segment>,
    /// Index of the segment the last access landed in (locality cache).
    last_seg: usize,
    /// Per-segment high-water mark of writes *made by this core* (bytes
    /// from the segment base). Owners of moved-in memory read it back
    /// via [`RefCore::seg_high_waters`] to keep snapshot scans bounded
    /// by written memory.
    seg_hw: Vec<usize>,
    scd: [ScdReg; 4],
    jte_map: JteMap,
    scd_enabled: bool,
    nbids: usize,
}

impl RefCore {
    /// Builds a core from an assembled [`Program`]: text at
    /// `program.text_base`, rodata mapped when non-empty, PC at the text
    /// base, all registers zero.
    pub fn from_program(program: &Program, scd_enabled: bool, nbids: usize) -> Self {
        let mut segs = vec![Segment {
            name: "text".to_string(),
            base: program.text_base,
            data: program.words.iter().flat_map(|w| w.to_le_bytes()).collect(),
        }];
        if !program.rodata.is_empty() {
            segs.push(Segment {
                name: "rodata".to_string(),
                base: program.rodata_base,
                data: program.rodata.clone(),
            });
        }
        let nseg = segs.len();
        RefCore {
            regs: [0; 32],
            fregs: [0; 32],
            pc: program.text_base,
            output: Vec::new(),
            instructions: 0,
            text: Arc::new(Text::new(
                program.text_base,
                program.insts.iter().copied().map(Some).collect(),
            )),
            segs,
            last_seg: 0,
            seg_hw: vec![0; nseg],
            scd: [ScdReg::default(); 4],
            jte_map: JteMap::default(),
            scd_enabled,
            nbids: nbids.clamp(1, 4),
        }
    }

    /// Builds a core from raw machine state — the lockstep driver uses
    /// this to snapshot an already-set-up DUT (whose setup may have mapped
    /// extra segments and preloaded registers). Text words that fail to
    /// decode become holes that fault with [`RefError::BadInst`] only if
    /// reached.
    #[allow(clippy::too_many_arguments)]
    pub fn from_state(
        text_base: u64,
        text: &[u8],
        segments: Vec<Segment>,
        regs: [u64; 32],
        fregs: [u64; 32],
        pc: u64,
        scd_enabled: bool,
        nbids: usize,
    ) -> Self {
        let insts = text
            .chunks_exact(4)
            .map(|c| scd_isa::decode(u32::from_le_bytes([c[0], c[1], c[2], c[3]])).ok())
            .collect();
        let mut segs = vec![Segment {
            name: "text".to_string(),
            base: text_base,
            data: text.to_vec(),
        }];
        segs.extend(segments.into_iter().filter(|s| s.base != text_base));
        let nseg = segs.len();
        RefCore {
            regs,
            fregs,
            pc,
            output: Vec::new(),
            instructions: 0,
            text: Arc::new(Text::new(text_base, insts)),
            segs,
            last_seg: 0,
            seg_hw: vec![0; nseg],
            scd: [ScdReg::default(); 4],
            jte_map: JteMap::default(),
            scd_enabled,
            nbids: nbids.clamp(1, 4),
        }
    }

    /// Builds a core around a shared pre-decoded [`Text`] and *moved-in*
    /// segments (the text segment included). The sampled fast-forward
    /// uses this to take ownership
    /// of the DUT's guest memory for the duration of a run — a 200 MB
    /// heap must not be cloned per run — and hand it back via
    /// [`RefCore::into_segments`]. The `Text` is built once per program
    /// and shared, so a core per interval leg costs only the state sync.
    #[allow(clippy::too_many_arguments)]
    pub fn from_owned_state(
        text: Arc<Text>,
        segments: Vec<Segment>,
        regs: [u64; 32],
        fregs: [u64; 32],
        pc: u64,
        scd_enabled: bool,
        nbids: usize,
    ) -> Self {
        let nseg = segments.len();
        RefCore {
            regs,
            fregs,
            pc,
            output: Vec::new(),
            instructions: 0,
            text,
            segs: segments,
            last_seg: 0,
            seg_hw: vec![0; nseg],
            scd: [ScdReg::default(); 4],
            jte_map: JteMap::default(),
            scd_enabled,
            nbids: nbids.clamp(1, 4),
        }
    }

    /// Per-segment high-water marks of the writes this core has made
    /// (bytes from each segment base), in segment order. An owner moving
    /// memory back out via [`RefCore::into_segments`] merges these into
    /// its own marks so snapshot scans stay bounded by written memory.
    pub fn seg_high_waters(&self) -> &[usize] {
        &self.seg_hw
    }

    /// Consumes the core and returns its segments in construction order.
    /// The counterpart of [`RefCore::from_owned_state`]: the fast-forward
    /// leg moves the guest memory back into the DUT when the leg ends.
    pub fn into_segments(self) -> Vec<Segment> {
        self.segs
    }

    /// What a [`BopHint::Auto`] `bop` on `bid` would resolve to right
    /// now: `Some(target)` for a hit, `None` for a fall-through.
    #[inline]
    pub fn bop_auto_target(&self, bid: u8) -> Option<u64> {
        let bid = self.bid(bid);
        if self.scd_enabled && self.scd[bid].rop_v {
            self.jte_map.get(&(bid as u8, self.scd[bid].rop_d)).copied()
        } else {
            None
        }
    }

    /// Maps an additional zero-filled segment (stacks, heap, fuzz data).
    pub fn map(&mut self, name: &str, base: u64, size: u64) {
        self.segs.push(Segment {
            name: name.to_string(),
            base,
            data: vec![0; size as usize],
        });
        self.seg_hw.push(0);
    }

    /// The decoded instruction at `pc`, if `pc` is in text and decodable.
    pub fn inst_at(&self, pc: u64) -> Option<Inst> {
        self.text.inst(self.text.index(pc)?)
    }

    /// Seeds one SCD register set from externally captured architectural
    /// state. [`RefCore::from_state`] zeroes the SCD registers, which is
    /// only correct when the snapshot was taken before the first
    /// retirement; a driver resuming from a mid-run state (the sampled
    /// fast-forward leg) must carry `Rop`/`Rmask` over or its
    /// `load_op` results and `jru` training would diverge from the DUT.
    pub fn seed_scd(&mut self, bid: usize, rop_v: bool, rop_d: u64, rmask: u64) {
        let s = &mut self.scd[bid % self.nbids.max(1)];
        s.rop_v = rop_v;
        s.rop_d = rop_d;
        s.rmask = rmask;
    }

    /// The full architectural SCD register view `(rop_v, rop_d, rmask)`
    /// for `bid`. The sampled simulator's fast-forward leg syncs these
    /// back into the cycle model when the reference core hands control
    /// (and the guest memory) back.
    pub fn scd_state(&self, bid: usize) -> (bool, u64, u64) {
        let s = &self.scd[bid % self.nbids.max(1)];
        (s.rop_v, s.rop_d, s.rmask)
    }

    /// Clears every `Rop[bid].v` — the architectural effect of
    /// `jte.flush` and of the cycle model's emulated context-switch flush.
    /// The JTE *map* is untouched: it is architectural ground truth, not a
    /// cache.
    pub fn flush_rop(&mut self) {
        for s in &mut self.scd {
            s.rop_v = false;
        }
    }

    #[inline]
    fn wx(&mut self, r: Reg, v: u64) {
        if !r.is_zero() {
            self.regs[r.index()] = v;
        }
    }

    /// `bid` reduced to a live SCD register set.
    #[inline(always)]
    fn bid(&self, bid: u8) -> usize {
        let bid = bid as usize;
        if bid < self.nbids {
            bid
        } else {
            bid % self.nbids
        }
    }

    /// `setmask`: `Rmask[bid] <- v`.
    #[inline(always)]
    fn set_mask(&mut self, bid: u8, v: u64) {
        let bid = self.bid(bid);
        self.scd[bid].rmask = v;
    }

    /// The SCD side effect of a `<load>.op` that loaded `v`:
    /// `Rop[bid] <- v & Rmask[bid]`, valid.
    #[inline(always)]
    fn load_op_commit(&mut self, bid: u8, v: u64) {
        let bid = self.bid(bid);
        let s = &mut self.scd[bid];
        s.rop_d = v & s.rmask;
        s.rop_v = true;
    }

    /// The SCD side effect of a `bop` that redirects: `Rop[bid]` is
    /// consumed.
    #[inline(always)]
    fn bop_follow(&mut self, bid: u8) {
        let bid = self.bid(bid);
        self.scd[bid].rop_v = false;
    }

    /// `jru` to register value `rs1`: trains the JTE map on a valid
    /// `Rop[bid]` (last write wins, exactly like the cycle model's
    /// update-in-place JTE insert), consumes it, and returns the target.
    #[inline(always)]
    fn jru_train(&mut self, bid: u8, rs1: u64) -> u64 {
        let bid = self.bid(bid);
        let target = rs1 & !1;
        if self.scd_enabled && self.scd[bid].rop_v {
            self.jte_map
                .insert((bid as u8, self.scd[bid].rop_d), target);
            self.scd[bid].rop_v = false;
        }
        target
    }

    /// The segment holding `[addr, addr + size)`, if one does. A range
    /// running past 2^64 fits none.
    fn find_seg(&mut self, addr: u64, size: u64) -> Option<usize> {
        let fits = |s: &Segment| {
            addr >= s.base
                && addr
                    .checked_add(size)
                    .is_some_and(|end| end <= s.base + s.data.len() as u64)
        };
        if let Some(s) = self.segs.get(self.last_seg) {
            if fits(s) {
                return Some(self.last_seg);
            }
        }
        let i = self.segs.iter().position(fits)?;
        self.last_seg = i;
        Some(i)
    }

    /// Reads `size` bytes little-endian, or `None` when unmapped.
    #[inline]
    fn read(&mut self, addr: u64, size: u64) -> Option<u64> {
        let i = self.find_seg(addr, size)?;
        let s = &self.segs[i];
        let off = (addr - s.base) as usize;
        let d = &s.data[off..off + size as usize];
        Some(match *d {
            [a] => a as u64,
            [a, b] => u16::from_le_bytes([a, b]) as u64,
            [a, b, c, e] => u32::from_le_bytes([a, b, c, e]) as u64,
            _ => u64::from_le_bytes(d.try_into().expect("widths are 1/2/4/8")),
        })
    }

    /// Writes `size` bytes little-endian, or `None` (writing nothing)
    /// when unmapped.
    #[inline]
    fn write(&mut self, addr: u64, size: u64, v: u64) -> Option<()> {
        let i = self.find_seg(addr, size)?;
        let s = &mut self.segs[i];
        let off = (addr - s.base) as usize;
        s.data[off..off + size as usize].copy_from_slice(&v.to_le_bytes()[..size as usize]);
        let end = off + size as usize;
        if end > self.seg_hw[i] {
            self.seg_hw[i] = end;
        }
        Some(())
    }

    /// Executes one instruction at the current PC and returns its
    /// architectural effects. `hint` resolves `bop` (see [`BopHint`]).
    ///
    /// # Errors
    /// Any [`RefError`]; the core state is unspecified after an error.
    #[inline]
    pub fn step(&mut self, hint: BopHint) -> Result<StepArch, RefError> {
        let mut out = StepArch::default();
        self.step_impl::<true>(hint, &mut out)?;
        Ok(out)
    }

    /// The one-instruction execution body behind [`RefCore::step`] and
    /// the irregular cases of [`RefCore::run`] (`ecall`, `ebreak`,
    /// holes, faults, bad pcs). `TRACE` selects (at monomorphization
    /// time) whether the [`StepArch`] record is populated. Returns the
    /// exit code when this instruction was the halting `ecall`.
    #[inline(always)]
    fn step_impl<const TRACE: bool>(
        &mut self,
        hint: BopHint,
        out: &mut StepArch,
    ) -> Result<Option<u64>, RefError> {
        let pc = self.pc;
        let idx = self.text.index(pc).ok_or(RefError::PcOutOfRange { pc })?;
        let inst = self.text.inst(idx).ok_or(RefError::BadInst { pc })?;
        let fault = |addr, write| RefError::Mem { pc, addr, write };

        let mut next_pc = pc + 4;
        let mut ea = None;
        let mut store = None;
        let mut exited = None;

        match inst {
            Inst::Lui { rd, imm } => self.wx(rd, imm as u64),
            Inst::Auipc { rd, imm } => self.wx(rd, pc.wrapping_add(imm as u64)),
            Inst::Jal { rd, offset } => {
                next_pc = pc.wrapping_add(offset as u64);
                self.wx(rd, pc + 4);
            }
            Inst::Jalr { rd, rs1, offset } => {
                // Target before writeback: `jalr ra, 0(ra)` must use the
                // incoming ra.
                next_pc = self.regs[rs1.index()].wrapping_add(offset as u64) & !1;
                self.wx(rd, pc + 4);
            }
            Inst::Branch {
                op,
                rs1,
                rs2,
                offset,
            } => {
                if exec::branch_taken(op, self.regs[rs1.index()], self.regs[rs2.index()]) {
                    next_pc = pc.wrapping_add(offset as u64);
                }
            }
            Inst::Load {
                op,
                rd,
                rs1,
                offset,
            } => {
                let addr = self.regs[rs1.index()].wrapping_add(offset as u64);
                ea = Some(addr);
                let raw = self
                    .read(addr, exec::load_width(op))
                    .ok_or(fault(addr, false))?;
                self.wx(rd, exec::load_extend(op, raw));
            }
            Inst::Store {
                op,
                rs2,
                rs1,
                offset,
            } => {
                let addr = self.regs[rs1.index()].wrapping_add(offset as u64);
                ea = Some(addr);
                let v = exec::store_truncate(op, self.regs[rs2.index()]);
                store = Some(v);
                self.write(addr, exec::store_width(op), v)
                    .ok_or(fault(addr, true))?;
            }
            Inst::OpImm { op, rd, rs1, imm } => {
                let v = exec::alu(op, self.regs[rs1.index()], imm as u64);
                self.wx(rd, v);
            }
            Inst::Op { op, rd, rs1, rs2 } => {
                let v = exec::alu(op, self.regs[rs1.index()], self.regs[rs2.index()]);
                self.wx(rd, v);
            }
            Inst::Fld { rd, rs1, offset } => {
                let addr = self.regs[rs1.index()].wrapping_add(offset as u64);
                ea = Some(addr);
                self.fregs[rd.index()] = self.read(addr, 8).ok_or(fault(addr, false))?;
            }
            Inst::Fsd { rs2, rs1, offset } => {
                let addr = self.regs[rs1.index()].wrapping_add(offset as u64);
                ea = Some(addr);
                let v = self.fregs[rs2.index()];
                store = Some(v);
                self.write(addr, 8, v).ok_or(fault(addr, true))?;
            }
            Inst::FOp { op, rd, rs1, rs2 } => {
                self.fregs[rd.index()] =
                    exec::fp_op(op, self.fregs[rs1.index()], self.fregs[rs2.index()]);
            }
            Inst::FCmp { op, rd, rs1, rs2 } => {
                let v = exec::fcmp(op, self.fregs[rs1.index()], self.fregs[rs2.index()]);
                self.wx(rd, v as u64);
            }
            Inst::FcvtLD { rd, rs1, rm } => {
                self.wx(rd, exec::fcvt_l_d(self.fregs[rs1.index()], rm));
            }
            Inst::FcvtDL { rd, rs1 } => {
                self.fregs[rd.index()] = exec::fcvt_d_l(self.regs[rs1.index()]);
            }
            Inst::FmvXD { rd, rs1 } => self.wx(rd, self.fregs[rs1.index()]),
            Inst::FmvDX { rd, rs1 } => self.fregs[rd.index()] = self.regs[rs1.index()],
            Inst::Ecall => match self.regs[Reg::A7.index()] {
                0 => exited = Some(self.regs[Reg::A0.index()]),
                1 => self.output.push(self.regs[Reg::A0.index()] as u8),
                _ => return Err(RefError::Break { pc }),
            },
            Inst::Ebreak => return Err(RefError::Break { pc }),
            Inst::Fence => {}

            // ---- SCD extension ----
            Inst::SetMask { bid, rs1 } => self.set_mask(bid, self.regs[rs1.index()]),
            Inst::Bop { bid } => {
                let target = match hint {
                    BopHint::Auto => self.bop_auto_target(bid),
                    BopHint::Hit => {
                        let b = self.bid(bid);
                        if !self.scd[b].rop_v {
                            return Err(RefError::BopNotValid { pc, bid: b as u8 });
                        }
                        let rop_d = self.scd[b].rop_d;
                        Some(self.jte_map.get(&(b as u8, rop_d)).copied().ok_or(
                            RefError::BopUntrained {
                                pc,
                                bid: b as u8,
                                rop_d,
                            },
                        )?)
                    }
                    BopHint::Miss => None,
                };
                if let Some(t) = target {
                    next_pc = t;
                    self.bop_follow(bid);
                }
            }
            Inst::Jru { bid, rs1 } => next_pc = self.jru_train(bid, self.regs[rs1.index()]),
            Inst::JteFlush => self.flush_rop(),
            Inst::LoadOp {
                op,
                bid,
                rd,
                rs1,
                offset,
            } => {
                let addr = self.regs[rs1.index()].wrapping_add(offset as u64);
                ea = Some(addr);
                let raw = self
                    .read(addr, exec::load_width(op))
                    .ok_or(fault(addr, false))?;
                let v = exec::load_extend(op, raw);
                self.wx(rd, v);
                self.load_op_commit(bid, v);
            }
        }

        if TRACE {
            // Writebacks are re-read from the register files (not captured
            // at the write) to mirror how the cycle model builds ArchInfo
            // in its retire stage — including x0 reading back as 0.
            *out = StepArch {
                pc,
                next_pc,
                wx: inst
                    .def_xreg()
                    .map(|r| (r.index() as u8, self.regs[r.index()])),
                wf: inst
                    .def_freg()
                    .map(|r| (r.index() as u8, self.fregs[r.index()])),
                ea,
                store,
                exited,
            };
        }
        self.instructions += 1;
        self.pc = next_pc;
        Ok(exited)
    }

    /// Runs standalone ([`BopHint::Auto`]) until the guest exits, a guest
    /// error occurs, or the retirement count `instructions` reaches
    /// `max_insts`. This is the fast path: threaded code over the
    /// pre-decoded [`Text`], one budget check per straight run, with
    /// `step_impl` executing only the irregular instructions. The
    /// result — registers, memory, pc, count, output, SCD state, error —
    /// is exactly that of a [`RefCore::step`] loop.
    ///
    /// # Errors
    /// [`RefError::InstLimit`] on budget exhaustion, or any stepping error
    /// (with `pc` and `instructions` at the faulting instruction).
    pub fn run(&mut self, max_insts: u64) -> Result<u64, RefError> {
        let text = Arc::clone(&self.text);
        let mut scratch = StepArch::default();
        while self.instructions < max_insts {
            self.run_blocks(&text, max_insts);
            if self.instructions >= max_insts {
                break;
            }
            if let Some(code) = self.step_impl::<false>(BopHint::Auto, &mut scratch)? {
                return Ok(code);
            }
        }
        Err(RefError::InstLimit { limit: max_insts })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scd_isa::{Asm, LoadOp};

    fn asm() -> Asm {
        Asm::new(0x1_0000)
    }

    fn halt(a: &mut Asm, code: i64) {
        a.li(Reg::A0, code);
        a.li(Reg::A7, 0);
        a.ecall();
    }

    #[test]
    fn straight_line_alu_and_exit() {
        let mut a = asm();
        a.li(Reg::T0, 20);
        a.li(Reg::T1, 22);
        a.add(Reg::A0, Reg::T0, Reg::T1);
        a.li(Reg::A7, 0);
        a.ecall();
        let p = a.finish().unwrap();
        let mut c = RefCore::from_program(&p, false, 4);
        assert_eq!(c.run(100).unwrap(), 42);
    }

    #[test]
    fn x0_stays_zero_and_reads_back_zero_in_arch() {
        let mut a = asm();
        a.li(Reg::T0, 7);
        a.add(Reg::ZERO, Reg::T0, Reg::T0);
        halt(&mut a, 0);
        let p = a.finish().unwrap();
        let mut c = RefCore::from_program(&p, false, 4);
        // li expands to one or two insts; step until we see the add's arch.
        let mut saw = false;
        for _ in 0..10 {
            let arch = c.step(BopHint::Auto).unwrap();
            if arch.wx == Some((0, 0)) {
                saw = true;
            }
            if arch.exited.is_some() {
                break;
            }
        }
        assert!(saw, "add to x0 should report wx=(0,0)");
        assert_eq!(c.regs[0], 0);
    }

    #[test]
    fn scd_hint_loop_trains_then_hits() {
        // A two-handler dispatch loop: lbu.op fetches an opcode (one per
        // 8-byte rodata word), jru trains the JTE map, and on later visits
        // bop (Auto) hits.
        let mut a = asm();
        a.la(Reg::S0, "bytes");
        a.la(Reg::S3, "table");
        a.li(Reg::T6, u8::MAX as i64);
        a.setmask(0, Reg::T6);
        a.li(Reg::S2, 0); // bytecode index
        a.label("fetch");
        a.slli(Reg::T0, Reg::S2, 3);
        a.add(Reg::T0, Reg::S0, Reg::T0);
        a.load_op(LoadOp::Lbu, 0, Reg::T1, 0, Reg::T0);
        a.bop(0);
        a.slli(Reg::T2, Reg::T1, 3);
        a.add(Reg::T2, Reg::T2, Reg::S3);
        a.ld(Reg::T3, 0, Reg::T2);
        a.jru(0, Reg::T3);
        a.label("h0"); // opcode 0: halt
        halt(&mut a, 7);
        a.label("h1"); // opcode 1: advance and refetch
        a.addi(Reg::S2, Reg::S2, 1);
        a.j("fetch");
        a.ro_label("bytes");
        for b in [1u64, 1, 1, 0] {
            a.ro_word(b);
        }
        a.ro_label("table");
        a.ro_addr("h0");
        a.ro_addr("h1");
        let p = a.finish().unwrap();
        let mut c = RefCore::from_program(&p, true, 4);
        assert_eq!(c.run(10_000).unwrap(), 7);
        // The map learned both opcodes.
        assert_eq!(c.jte_map.len(), 2);
    }

    #[test]
    fn bop_hit_hint_is_validated() {
        let mut a = asm();
        a.bop(0);
        halt(&mut a, 0);
        let p = a.finish().unwrap();
        let mut c = RefCore::from_program(&p, true, 4);
        assert_eq!(
            c.step(BopHint::Hit),
            Err(RefError::BopNotValid {
                pc: 0x1_0000,
                bid: 0
            })
        );
    }

    #[test]
    fn flush_rop_clears_valid_but_keeps_map() {
        let mut c = RefCore::from_program(
            &{
                let mut a = asm();
                a.nop();
                a.finish().unwrap()
            },
            true,
            4,
        );
        c.scd[1].rop_v = true;
        c.jte_map.insert((1, 3), 0x1_0040);
        c.flush_rop();
        assert!(!c.scd[1].rop_v);
        assert_eq!(c.jte_map.len(), 1);
    }

    #[test]
    fn memory_faults_are_reported() {
        let mut a = asm();
        a.li(Reg::T0, 0x9999);
        a.ld(Reg::T1, 0, Reg::T0);
        halt(&mut a, 0);
        let p = a.finish().unwrap();
        let mut c = RefCore::from_program(&p, false, 4);
        let e = c.run(100).unwrap_err();
        assert!(matches!(e, RefError::Mem { write: false, .. }), "{e:?}");
    }

    #[test]
    fn accesses_wrapping_past_2_pow_64_fault() {
        for (width, store) in [(8u64, false), (8, true), (4, false), (2, true)] {
            let mut a = asm();
            a.li(Reg::T0, -(width as i64) / 2);
            let k = width.trailing_zeros() as usize;
            if store {
                a.store(scd_isa::StoreOp::ALL[k], Reg::T1, 0, Reg::T0);
            } else {
                a.load(LoadOp::ALL[k], Reg::T1, 0, Reg::T0);
            }
            halt(&mut a, 0);
            let p = a.finish().unwrap();
            let fault = RefError::Mem {
                pc: p.text_end() - 16,
                addr: (-(width as i64) / 2) as u64,
                write: store,
            };
            let mut stepped = RefCore::from_program(&p, false, 4);
            stepped.map("low", 0, 64);
            assert_eq!(stepped.step(BopHint::Auto).map(|_| ()), Ok(()));
            assert_eq!(stepped.step(BopHint::Auto), Err(fault));
            let mut ran = RefCore::from_program(&p, false, 4);
            ran.map("low", 0, 64);
            assert_eq!(ran.run(100), Err(fault));
        }
    }
}
