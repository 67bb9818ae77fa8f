//! The simulated embedded core: functional execution of the RV64-subset
//! ISA plus a cycle-approximate in-order timing model.
//!
//! Timing follows the structure of small in-order cores (MinorCPU /
//! Rocket, Table II of the paper):
//!
//! * one issue slot per instruction (an optional second slot models the
//!   dual-issue A8-like core of Section VI-C2),
//! * per-register ready cycles model load-use and long-latency interlocks,
//! * the front end charges redirect penalties decided by the branch
//!   predictor complex (direction predictor + BTB + RAS, or VBBI),
//! * I/D cache, TLB and DRAM stalls are charged at the faulting
//!   instruction (blocking, as in-order cores do),
//! * `bop` implements the paper's stall scheme: fetch waits until Rop is
//!   available, then redirects through the BTB JTE with no bubble on hit.
//!
//! # Module map
//!
//! The machine is decomposed into pipeline-stage modules, one per
//! concern, all operating on the shared [`Machine`] state defined here:
//!
//! * [`frontend`](self) — fetch timing, the branch predictor complex
//!   (direction + BTB + RAS + VBBI/ITTAGE), redirects, and the SCD
//!   `bop`/JTE short-circuit and `jru` slow path;
//! * [`execute`](self) — functional ISA semantics, the issue/scoreboard
//!   model (dual-issue pairing, operand readiness);
//! * [`memory`](self) — D-cache / D-TLB / L2 / DRAM charging;
//! * [`retire`](self) — per-retirement statistics, trace-event emission,
//!   the stat-invariant checkpoint, and fault-injection hooks;
//! * [`state`](self) — run/exit types, guest annotations, profiling,
//!   and checkpoint snapshot/restore;
//! * [`sampling`](self) — the sampled scheduler: fast-forward on the
//!   `scd-ref` reference core, functional warming, measurement.
//!
//! Each retirement flows frontend → execute (→ memory for loads/stores)
//! → retire; [`Machine::run`] is the loop that sequences the stages.
//! The decomposition is purely structural: stage boundaries change
//! neither cycle charging order nor statistics (enforced bit-for-bit by
//! `tests/golden_stats.rs`).
//!
//! # One timing model
//!
//! There is exactly one copy of the per-instruction timing arms
//! (`execute_inst`) and one loop (`run_loop`), monomorphized three
//! ways: the fast loop for untraced runs, the observed loop when a
//! tracer, the invariant checker, profiling or a fault plan is
//! attached, and the warming loop ([`Machine::run_warming`]) that
//! updates structures with the clock frozen. The only other engine is
//! the reference core's fast-forward, which is timing-free. A
//! predictor, BTB or cache change is therefore written once.

mod execute;
mod frontend;
mod memory;
mod retire;
mod sampling;
mod state;
#[cfg(test)]
mod tests;

pub use state::{Annotations, Exit, Profile, SimError, VbbiHint, WatchdogKind};

use crate::btb::{Btb, BtbConfig};
use crate::cache::Cache;
use crate::config::{ScdConfig, SimConfig};
use crate::fault::{FaultEvent, FaultPlan};
use crate::ittage::Ittage;
use crate::predictor::{Direction, Ras};
use crate::stats::SimStats;
use crate::tlb::Tlb;
use crate::trace::{
    BopEvent, BranchEvent, DataAccess, FetchAccess, Inserts, InstClass, JteFlushEvent,
    RedirectEvent, SinkSlot, StatInvariants, TraceSink,
};
use scd_isa::{FReg, Inst, Program, Reg};
use scd_ref::{ArchState, GuestMemory, RefCore};

pub use scd_ref::MAX_BRANCH_IDS;

/// The timing state of one SCD branch id, beside its architectural
/// registers in [`ArchState::scd`].
#[derive(Debug, Clone, Copy, Default)]
struct ScdTiming {
    /// PC of the last `bop` on this branch id.
    rbop_pc: u64,
    /// Cycle at which Rop becomes visible to the fetch stage.
    rop_ready: u64,
}

/// The simulated machine.
#[derive(Debug)]
pub struct Machine {
    cfg: SimConfig,
    /// The decoded text, one [`Decoded`] entry per instruction (index =
    /// (pc - text_base) / 4): what the run loop reads per retirement.
    /// Built once, at construction.
    text: Box<[Decoded]>,
    text_base: u64,
    text_end: u64,

    /// The guest: registers, PC, SCD register sets, memory and output,
    /// held by the reference core that fast-forwards over them. The
    /// detailed loop reads and writes the same state, so a
    /// fast-forward leg runs `guest.run` in place.
    guest: RefCore,

    icache: Cache,
    dcache: Cache,
    l2: Option<Cache>,
    itlb: Tlb,
    dtlb: Tlb,
    direction: Direction,
    btb: Btb,
    /// CBT-style dedicated JTE table (Section VII comparison).
    jte_table: Option<Btb>,
    ras: Ras,
    ittage: Ittage,
    scd_timing: [ScdTiming; MAX_BRANCH_IDS],

    cycle: u64,
    /// Cycle each architectural register's value becomes available.
    /// Entry 32 is a scoreboard sentinel that stays 0 forever: absent
    /// source-operand slots in [`StaticInfo`] point at it so
    /// [`Machine::issue`] reads readiness branch-free.
    xready: [u64; 33],
    fready: [u64; 33],
    issued_this_cycle: usize,
    /// Bit of the previous instruction's integer destination (0 when it
    /// had none, or wrote x0) — the dual-issue RAW pairing hazard as a
    /// mask test.
    prev_def_mask: u32,
    prev_fdef_mask: u32,
    prev_was_mem: bool,

    ann: Annotations,
    next_flush_at: u64,
    profile: Option<Profile>,

    tracer: SinkSlot,
    invariants: Option<StatInvariants>,
    scratch: Scratch,

    fault_plan: Option<FaultPlan>,
    cycle_budget: Option<u64>,
    deadline: Option<std::time::Instant>,

    /// Fetch-streak fast path (untraced loops only): the I-cache block
    /// of the most recent fetch, and how many subsequent same-block
    /// fetches have been deferred — not yet applied to the I-cache /
    /// I-TLB MRU state and access counters. A streak of same-line
    /// fetches is all hits charging zero cycles, so deferring is
    /// state-exact once [`Machine::flush_fetch_streak`] materializes it
    /// (at every run-loop exit and before any non-streak fetch).
    fetch_blk: u64,
    fetch_streak: u64,

    /// Run statistics.
    pub stats: SimStats,
}

// The machine owns every piece of its state — including the trace sink,
// which is why `TraceSink: Send` — so whole runs can move to worker
// threads. Compile-time proof:
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Machine>();
};

/// Per-retirement attribution the timing helpers fill in; drained into a
/// [`crate::TraceEvent`] after each instruction.
#[derive(Debug, Clone, Copy, Default)]
struct Scratch {
    fetch: FetchAccess,
    data: Option<DataAccess>,
    branch: Option<BranchEvent>,
    redirect: Option<RedirectEvent>,
    bop: Option<BopEvent>,
    inserts: Inserts,
    flush: Option<JteFlushEvent>,
    fault: Option<FaultEvent>,
    /// Effective address of this retirement's load/store, captured at
    /// execute (the base register may be overwritten by the writeback,
    /// so it cannot be recomputed afterwards).
    ea: Option<u64>,
    /// Store data, truncated to the access width.
    store: Option<u64>,
}

/// One entry of the machine's decoded text: the instruction and its
/// static facts, side by side so one indexed load serves a retirement.
/// 32 bytes, aligned so no entry straddles a cache line.
#[derive(Debug, Clone, Copy)]
#[repr(align(32))]
struct Decoded {
    inst: Inst,
    info: StaticInfo,
}

const _: () = assert!(std::mem::size_of::<Decoded>() == 32);

/// [`StaticInfo::vbbi`] of an instruction with no VBBI hint.
const NO_HINT: u32 = u32::MAX;

/// A [`StaticInfo`] register slot with no register. It indexes the
/// always-ready scoreboard sentinel (entry 32 of the ready arrays), and
/// its [`reg_bit`] is 0.
const NO_REG: u8 = 32;

/// Bit `r` of a 32-bit register mask; 0 for [`NO_REG`].
#[inline]
fn reg_bit(r: u8) -> u32 {
    (1u64 << r) as u32
}

/// Static per-instruction metadata, precomputed once per (program,
/// annotations) pair so the per-retirement hot path replaces every
/// annotation-table search (dispatch ranges, dispatch jumps and VBBI
/// hints) and every decode-fact recomputation (`InstClass::of`,
/// `def_xreg`, `use_xregs`, ...) with one indexed load. Purely derived
/// state: it never appears in snapshots and cannot alter timing or
/// statistics.
#[derive(Debug, Clone, Copy)]
struct StaticInfo {
    /// Trace classification ([`InstClass::of`]).
    class: InstClass,
    /// The instruction's PC lies inside a dispatcher range.
    in_dispatch: bool,
    /// The instruction's PC is a registered dispatch jump.
    dispatch_jump: bool,
    /// Load or store (the dual-issue memory-port pairing hazard).
    is_mem: bool,
    /// Destination integer and FP register indices, [`NO_REG`] for none
    /// (an x0 destination stays 0).
    def_x: u8,
    def_f: u8,
    /// Source slots as indices into the 33-entry ready arrays
    /// ([`NO_REG`] for absent slots), so the scoreboard reads readiness
    /// without unpacking `Option`s.
    xsrc: [u8; 2],
    fsrc: [u8; 2],
    /// Index into [`Annotations::vbbi_hints`] of the hint registered on
    /// this (jump) PC, or [`NO_HINT`].
    vbbi: u32,
}

impl StaticInfo {
    /// The annotation-independent part; [`decode_text`] fills in the
    /// PC-dependent fields.
    fn of(inst: &Inst) -> Self {
        let mut xsrc = [NO_REG; 2];
        for (slot, r) in inst.use_xregs().into_iter().flatten().enumerate() {
            xsrc[slot] = r.index() as u8;
        }
        let mut fsrc = [NO_REG; 2];
        for (slot, r) in inst.use_fregs().into_iter().flatten().enumerate() {
            fsrc[slot] = r.index() as u8;
        }
        StaticInfo {
            class: InstClass::of(inst),
            in_dispatch: false,
            dispatch_jump: false,
            is_mem: inst.is_load() || inst.is_store(),
            def_x: inst.def_xreg().map_or(NO_REG, |r| r.index() as u8),
            def_f: inst.def_freg().map_or(NO_REG, |r| r.index() as u8),
            xsrc,
            fsrc,
            vbbi: NO_HINT,
        }
    }

    /// The destination integer register.
    fn def_x(&self) -> Option<Reg> {
        (self.def_x != NO_REG).then(|| Reg::new(self.def_x))
    }

    /// The destination FP register.
    fn def_f(&self) -> Option<FReg> {
        (self.def_f != NO_REG).then(|| FReg::new(self.def_f))
    }

    /// Source register bitmasks for the dual-issue pairing test (x0
    /// excluded: it never carries a RAW hazard).
    #[inline]
    fn src_x_mask(&self) -> u32 {
        (reg_bit(self.xsrc[0]) | reg_bit(self.xsrc[1])) & !1
    }

    #[inline]
    fn src_f_mask(&self) -> u32 {
        reg_bit(self.fsrc[0]) | reg_bit(self.fsrc[1])
    }

    /// Destination bitmasks (0 for none or x0), matched against the
    /// next instruction's source masks.
    #[inline]
    fn def_x_mask(&self) -> u32 {
        reg_bit(self.def_x) & !1
    }

    #[inline]
    fn def_f_mask(&self) -> u32 {
        reg_bit(self.def_f)
    }
}

/// Decodes `insts` (the text at `text_base`) into the run loop's table
/// in one forward merge over `ann`'s sorted tables, which must be
/// normalized ([`Annotations::normalize`]): dispatch ranges disjoint and
/// non-empty, jump and hint PCs unique.
fn decode_text(insts: &[Inst], text_base: u64, ann: &Annotations) -> Box<[Decoded]> {
    let (mut r, mut j, mut h) = (0, 0, 0);
    insts
        .iter()
        .enumerate()
        .map(|(i, &inst)| {
            let pc = text_base + 4 * i as u64;
            while ann.dispatch_ranges.get(r).is_some_and(|&(_, end)| end <= pc) {
                r += 1;
            }
            while ann.dispatch_jumps.get(j).is_some_and(|&p| p < pc) {
                j += 1;
            }
            while ann.vbbi_hints.get(h).is_some_and(|x| x.jump_pc < pc) {
                h += 1;
            }
            let mut info = StaticInfo::of(&inst);
            info.in_dispatch = ann.dispatch_ranges.get(r).is_some_and(|&(start, _)| start <= pc);
            info.dispatch_jump = ann.dispatch_jumps.get(j) == Some(&pc);
            if ann.vbbi_hints.get(h).is_some_and(|x| x.jump_pc == pc) {
                info.vbbi = u32::try_from(h).expect("fewer than 2^32 VBBI hints");
            }
            Decoded { inst, info }
        })
        .collect()
}

impl Machine {
    /// Builds a machine for `cfg`, loading `program`'s text and rodata,
    /// with no guest annotations.
    pub fn new(cfg: SimConfig, program: &Program) -> Self {
        Machine::with_annotations(cfg, program, Annotations::default())
    }

    /// Builds a machine for `cfg`, loading `program`'s text and rodata
    /// and installing the guest annotations `ann` (dispatch ranges,
    /// dispatch jumps, VBBI hints), which it normalizes
    /// ([`Annotations::normalize`]).
    pub fn with_annotations(cfg: SimConfig, program: &Program, mut ann: Annotations) -> Self {
        ann.normalize();
        let flush_at = cfg.scd.flush_interval.unwrap_or(u64::MAX);
        Machine {
            icache: Cache::new(cfg.icache),
            dcache: Cache::new(cfg.dcache),
            l2: cfg.l2.map(Cache::new),
            itlb: Tlb::new(cfg.itlb_entries),
            dtlb: Tlb::new(cfg.dtlb_entries),
            direction: Direction::new(cfg.direction),
            btb: Btb::new(cfg.btb),
            jte_table: cfg.scd.dedicated_jte_table.then(|| {
                Btb::new(BtbConfig::fully_assoc(
                    cfg.scd.jte_table_entries,
                    crate::cache::Replacement::Lru,
                ))
            }),
            ras: Ras::new(cfg.ras_entries),
            ittage: Ittage::new(),
            scd_timing: Default::default(),
            cycle: 0,
            xready: [0; 33],
            fready: [0; 33],
            issued_this_cycle: 0,
            prev_def_mask: 0,
            prev_fdef_mask: 0,
            prev_was_mem: false,
            text: decode_text(&program.insts, program.text_base, &ann),
            ann,
            next_flush_at: flush_at,
            profile: None,
            tracer: SinkSlot(None),
            // Debug builds self-check the counters by default; release
            // builds opt in via enable_invariants().
            invariants: cfg!(debug_assertions).then(|| StatInvariants::new(4096)),
            scratch: Scratch::default(),
            fault_plan: None,
            cycle_budget: None,
            deadline: None,
            fetch_blk: u64::MAX,
            fetch_streak: 0,
            stats: SimStats::default(),
            guest: RefCore::from_program(program, cfg.scd.enabled, cfg.scd.branch_ids),
            text_base: program.text_base,
            text_end: program.text_end(),
            cfg,
        }
    }

    /// Maps an additional zero-filled memory segment.
    pub fn map(&mut self, name: &'static str, base: u64, size: u64) {
        self.guest.mem.add_segment(name, base, size);
    }

    /// The guest's registers, PC and SCD register sets.
    pub fn arch(&self) -> &ArchState {
        &self.guest.arch
    }

    /// Guest memory.
    pub fn mem(&self) -> &GuestMemory {
        &self.guest.mem
    }

    /// Guest memory, for loading an image before the run.
    pub fn mem_mut(&mut self) -> &mut GuestMemory {
        &mut self.guest.mem
    }

    /// The static facts of the instruction at `pc`, which must lie
    /// inside the text section (the run loop bounds-checks before every
    /// retirement).
    #[inline]
    fn sinfo(&self, pc: u64) -> &StaticInfo {
        &self.text[((pc - self.text_base) / 4) as usize].info
    }

    /// The VBBI hint registered on the jump at `pc`, if any.
    #[inline]
    fn vbbi_hint(&self, pc: u64) -> Option<VbbiHint> {
        self.ann.vbbi_hints.get(self.sinfo(pc).vbbi as usize).copied()
    }

    /// The machine configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Read-only view of the BTB (for tests and diagnostics).
    pub fn btb(&self) -> &Btb {
        &self.btb
    }

    /// Enables per-PC profiling (retired instructions and attributed
    /// cycles per static instruction). Costs a little simulation speed.
    pub fn enable_profiling(&mut self) {
        self.profile = Some(Profile {
            text_base: self.text_base,
            insts: vec![0; self.text.len()],
            cycles: vec![0; self.text.len()],
        });
    }

    /// The collected profile, if profiling was enabled.
    pub fn profile(&self) -> Option<&Profile> {
        self.profile.as_ref()
    }

    /// Installs a trace sink receiving one [`crate::TraceEvent`] per
    /// retired instruction. Install before the first retirement so
    /// sequence numbers start at 0. The machine owns the sink for the
    /// duration of the run; recover it (and its accumulated state) with
    /// [`Machine::take_trace_sink`] + [`crate::downcast_sink`].
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.tracer.0 = Some(sink);
    }

    /// Removes and returns the installed trace sink, if any.
    pub fn take_trace_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        self.tracer.0.take()
    }

    /// Enables the cross-counter self-checker, asserting the stat
    /// identities every `every` retirements (default-on in debug builds
    /// with `every = 4096`). Must be enabled before the first retirement:
    /// the checker replays the event stream from scratch.
    pub fn enable_invariants(&mut self, every: u64) {
        assert_eq!(
            self.stats.instructions, 0,
            "invariants must be enabled before the first retirement"
        );
        self.invariants = Some(StatInvariants::new(every));
    }

    /// Disables the cross-counter self-checker.
    pub fn disable_invariants(&mut self) {
        self.invariants = None;
    }

    /// Arms a fault-injection plan. From the next `run` on, the plan
    /// injects micro-architectural faults at its scheduled instruction
    /// counts; every injection is recorded on that retirement's trace
    /// event. Faults only touch predictive state (BTB/JTE, RAS,
    /// predictors, cache/TLB tags), so architectural results must be
    /// unchanged — [`crate::diff_architectural`] checks exactly that.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault_plan = Some(plan);
    }

    /// The armed fault plan, if any (e.g. to read its injection count).
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault_plan.as_ref()
    }

    /// Aborts `run` with a [`SimError::Watchdog`] once the simulated
    /// cycle counter reaches `cycles`. Detects livelocked guests:
    /// retirement always advances the cycle counter, so a guest that
    /// never halts exhausts any finite cycle budget.
    pub fn set_cycle_budget(&mut self, cycles: u64) {
        self.cycle_budget = Some(cycles);
    }

    /// Sets a host wall-clock deadline `budget` from now. Every later
    /// `run`, `run_warming` or `run_sampled` call on this machine aborts
    /// with a [`SimError::Watchdog`] of kind
    /// [`WatchdogKind::WallClock`] once the deadline has passed, so the
    /// budget covers the whole run however many calls it takes (the
    /// chunks of a checkpointed run, the legs of a sampled one). The
    /// detailed and warming loops check it every 4096 retirements;
    /// `run_sampled` also checks it before each leg, since fast-forward
    /// legs never enter those loops.
    pub fn set_wall_budget(&mut self, budget: std::time::Duration) {
        self.deadline = Some(std::time::Instant::now() + budget);
    }

    /// `Err(Watchdog { kind: WallClock })` once the deadline set by
    /// [`Machine::set_wall_budget`] has passed.
    fn check_deadline(&mut self) -> Result<(), SimError> {
        if self.deadline.is_some_and(|d| std::time::Instant::now() >= d) {
            self.finalize_partial();
            return Err(SimError::Watchdog {
                kind: WatchdogKind::WallClock,
                instructions: self.stats.instructions,
                cycles: self.cycle,
            });
        }
        Ok(())
    }

    /// Compatibility entry point with no effect: every run takes the
    /// interleaved loop. Kept only for callers written against the
    /// former threaded replay engine.
    #[doc(hidden)]
    pub fn set_replay(&mut self, _replay: bool) {}

    /// Compatibility entry point with no effect; see
    /// [`Machine::set_replay`].
    #[doc(hidden)]
    pub fn force_replay(&mut self) {}

    /// The engine an untraced `run` takes: always `"interleaved"`.
    /// Compatibility entry point for perf records that name the engine.
    #[doc(hidden)]
    pub fn replay_engine(&self) -> &'static str {
        "interleaved"
    }

    /// Bytes the guest has written through the putchar `ecall` so far.
    /// (A successful exit takes the buffer; this view is for comparing
    /// partial runs.)
    pub fn output(&self) -> &[u8] {
        &self.guest.output
    }

    /// Runs until the guest halts via `ecall` (a7 = 0) or a limit/error.
    ///
    /// One loop iteration retires exactly one instruction, sequencing
    /// the stage modules: frontend (fetch timing), execute (issue +
    /// functional semantics, charging data-side stalls through the
    /// memory stage), then retire (stats, trace event, invariant
    /// checkpoint).
    ///
    /// Dispatches once per call onto one of two monomorphized loops: the
    /// *observed* loop (a tracer, the invariant checker, profiling or a
    /// fault plan is attached) carries full per-retirement attribution,
    /// while the fast loop skips every observer-only write. Both charge
    /// identical cycles and statistics — `tests/golden_stats.rs` holds
    /// the paths to bit-identical [`SimStats`].
    ///
    /// # Errors
    /// Returns [`SimError`] on memory faults, runaway PCs, `ebreak`, or
    /// when `max_insts` is exhausted.
    pub fn run(&mut self, max_insts: u64) -> Result<Exit, SimError> {
        let observed = self.tracer.0.is_some()
            || self.invariants.is_some()
            || self.profile.is_some()
            || self.fault_plan.is_some();
        if observed {
            self.run_impl::<true>(max_insts)
        } else {
            self.run_impl::<false>(max_insts)
        }
    }

    fn run_impl<const OBSERVED: bool>(&mut self, max_insts: u64) -> Result<Exit, SimError> {
        // Every exit (exit ecall, limit, watchdog, PC/memory error)
        // funnels through here so a pending fetch streak is always
        // materialized before the caller can observe stats or state.
        let r = self.run_loop::<OBSERVED, false>(max_insts);
        self.flush_fetch_streak();
        r
    }

    /// Runs in warming mode: the interleaved loop with the cycle clock
    /// frozen. Caches, TLBs, predictors, the BTB/JTE overlay and every
    /// statistics counter update exactly as in detailed mode, but no
    /// cycles are charged and the issue scoreboard is bypassed. The sampled scheduler uses this to repair
    /// micro-architectural state after a fast-forward leg; the counters
    /// it accumulates here are later overwritten by the scaled estimate.
    ///
    /// # Errors
    /// Same contract as [`Machine::run`]; `max_insts` is the same
    /// absolute retirement count.
    pub fn run_warming(&mut self, max_insts: u64) -> Result<Exit, SimError> {
        let r = self.run_loop::<false, true>(max_insts);
        self.flush_fetch_streak();
        r
    }

    fn run_loop<const OBSERVED: bool, const WARMING: bool>(
        &mut self,
        max_insts: u64,
    ) -> Result<Exit, SimError> {
        let scd_cfg: ScdConfig = self.cfg.scd;
        let nbids = scd_cfg.branch_ids.min(MAX_BRANCH_IDS);
        let cycle_budget = self.cycle_budget;
        let deadline = self.deadline;
        loop {
            if self.stats.instructions >= max_insts {
                self.finalize_partial();
                return Err(SimError::InstLimit { limit: max_insts });
            }
            if cycle_budget.is_some_and(|b| self.cycle >= b) {
                self.finalize_partial();
                return Err(SimError::Watchdog {
                    kind: WatchdogKind::Cycles,
                    instructions: self.stats.instructions,
                    cycles: self.cycle,
                });
            }
            if deadline.is_some() && self.stats.instructions.is_multiple_of(4096) {
                self.check_deadline()?;
            }
            let pc = self.guest.arch.pc;
            if pc < self.text_base || pc >= self.text_end || !pc.is_multiple_of(4) {
                return Err(SimError::PcOutOfRange { pc });
            }
            let idx = ((pc - self.text_base) / 4) as usize;
            let Decoded { inst, info: si } = self.text[idx];
            if OBSERVED {
                self.scratch = Scratch::default();
            }

            // ---- frontend + issue timing ----
            let cycle_before = self.cycle;
            if OBSERVED {
                self.fetch_timing::<OBSERVED, WARMING>(pc);
            } else {
                self.fetch_fast::<WARMING>(pc);
            }
            if !WARMING {
                self.issue(&si);
            }

            // ---- retire bookkeeping (counters, flush quantum, faults) ----
            self.begin_retirement::<OBSERVED>(si.in_dispatch, &scd_cfg);

            // ---- execute (functional semantics + per-class timing) ----
            let step = self.execute_inst::<OBSERVED, WARMING>(&inst, pc, nbids, &scd_cfg)?;

            if OBSERVED {
                if let Some(prof) = &mut self.profile {
                    prof.insts[idx] += 1;
                    prof.cycles[idx] += self.cycle - cycle_before;
                }

                // ---- trace emission + invariant checkpoint ----
                self.emit_retirement(&si, pc, cycle_before, step.next_pc, step.exit_code.is_some());
            }

            if let Some(code) = step.exit_code {
                self.finalize_partial();
                return Ok(Exit { code, output: std::mem::take(&mut self.guest.output) });
            }
            self.guest.arch.pc = step.next_pc;
        }
    }
}
