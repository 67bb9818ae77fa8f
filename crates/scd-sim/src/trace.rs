//! Structured retirement tracing and cross-counter self-checks.
//!
//! The machine can emit one [`TraceEvent`] per retired instruction,
//! carrying everything the timing model charged for it: the cycle
//! delta, fetch- and data-side miss attribution (L1/TLB/L2), branch
//! class and prediction outcome, front-end redirect cause and penalty,
//! `bop` outcome and Rop-wait stall, and every BTB/JTE insert or flush
//! the instruction performed.
//!
//! Two consumers are built in:
//!
//! * [`TraceSink`] implementations receive the live event stream.
//!   [`JsonlSink`] serializes each event as one JSON line (schema in
//!   `EXPERIMENTS.md`); [`VecSink`] buffers events for tests;
//!   [`CycleBreakdown`] aggregates the event stream into the
//!   dispatch-cycle decomposition behind the Fig. 7/10 discussion.
//! * [`StatInvariants`] replays the event stream into a second,
//!   independent [`SimStats`] via [`ReplayStats`] and asserts — every N
//!   instructions — that the replay matches the machine's live counters
//!   field for field, along with the cross-counter identities
//!   (`bop_hits + bop_misses == bop_executed`, cycle monotonicity,
//!   per-class branch counts summing to the total, and the JTE
//!   population identity checked against the BTB itself).
//!
//! The pair is the trustworthiness argument for the paper figures: the
//! per-event attribution and the aggregate counters are produced by
//! different code paths, so an accounting bug in either shows up as a
//! checkpoint panic instead of a silently wrong figure.

use crate::btb::{EntryKind, InsertOutcome};
use crate::fault::FaultEvent;
use crate::json::Zero::{Omitted, Required, Written};
use crate::json::{self, wire_names, Errors, Step, Wire, WireName};
use crate::stats::{BranchClass, SimStats, COUNTER_NAMES};
use scd_isa::Inst;

// ---------------------------------------------------------------------
// Event structure
// ---------------------------------------------------------------------

/// Coarse class of a retired instruction, for attribution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum InstClass {
    /// Integer ALU (including `lui`/`auipc` and immediates).
    Alu,
    /// Integer load.
    Load,
    /// Integer store.
    Store,
    /// FP load (`fld`).
    FpLoad,
    /// FP store (`fsd`).
    FpStore,
    /// FP arithmetic, compares and moves.
    Fp,
    /// Conditional branch.
    CondBranch,
    /// Direct jump (`jal`).
    Jal,
    /// Indirect jump (`jalr`).
    Jalr,
    /// Environment call.
    Ecall,
    /// Memory fence.
    Fence,
    /// SCD `setmask`.
    SetMask,
    /// SCD `bop`.
    Bop,
    /// SCD `jru`.
    Jru,
    /// SCD `jte.flush`.
    JteFlush,
    /// SCD `load_op`.
    LoadOp,
    /// Anything else (never retired today; reserved).
    #[default]
    Other,
}

impl InstClass {
    /// Classifies a decoded instruction.
    pub fn of(inst: &Inst) -> Self {
        match inst {
            Inst::Lui { .. } | Inst::Auipc { .. } | Inst::OpImm { .. } | Inst::Op { .. } => {
                InstClass::Alu
            }
            Inst::Jal { .. } => InstClass::Jal,
            Inst::Jalr { .. } => InstClass::Jalr,
            Inst::Branch { .. } => InstClass::CondBranch,
            Inst::Load { .. } => InstClass::Load,
            Inst::Store { .. } => InstClass::Store,
            Inst::Fld { .. } => InstClass::FpLoad,
            Inst::Fsd { .. } => InstClass::FpStore,
            Inst::FOp { .. }
            | Inst::FCmp { .. }
            | Inst::FcvtLD { .. }
            | Inst::FcvtDL { .. }
            | Inst::FmvXD { .. }
            | Inst::FmvDX { .. } => InstClass::Fp,
            Inst::Ecall => InstClass::Ecall,
            Inst::Fence => InstClass::Fence,
            Inst::SetMask { .. } => InstClass::SetMask,
            Inst::Bop { .. } => InstClass::Bop,
            Inst::Jru { .. } => InstClass::Jru,
            Inst::JteFlush => InstClass::JteFlush,
            Inst::LoadOp { .. } => InstClass::LoadOp,
            Inst::Ebreak => InstClass::Other,
        }
    }

    /// Wire name used in the JSONL encoding.
    pub fn name(self) -> &'static str {
        WireName::name(self)
    }

    /// Whether this class performs exactly one data-memory access.
    pub fn is_load(self) -> bool {
        matches!(self, InstClass::Load | InstClass::FpLoad | InstClass::LoadOp)
    }

    /// Whether this class performs exactly one data-memory write.
    pub fn is_store(self) -> bool {
        matches!(self, InstClass::Store | InstClass::FpStore)
    }
}

/// L2 outcome under an L1 miss.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct L2Access {
    /// The L2 also missed (DRAM was charged).
    pub miss: bool,
    /// A dirty L2 line was written back.
    pub writeback: bool,
}

/// Instruction-fetch attribution for one retirement.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FetchAccess {
    /// The I-TLB missed.
    pub itlb_miss: bool,
    /// The I-cache missed.
    pub icache_miss: bool,
    /// L2 outcome, when the I-cache missed and an L2 is configured.
    pub l2: Option<L2Access>,
    /// Cycles charged for fetch-side misses.
    pub penalty: u64,
}

/// Data-side attribution for one retirement (present only when misses
/// or writebacks occurred; the access itself is implied by the class).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DataAccess {
    /// The D-TLB missed.
    pub dtlb_miss: bool,
    /// The D-cache missed.
    pub dcache_miss: bool,
    /// A dirty D-cache line was written back.
    pub writeback: bool,
    /// L2 outcome, when the D-cache missed and an L2 is configured.
    pub l2: Option<L2Access>,
    /// Cycles charged for data-side misses.
    pub penalty: u64,
}

impl DataAccess {
    pub(crate) fn is_default(&self) -> bool {
        *self == DataAccess::default()
    }
}

/// Branch retirement outcome.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BranchEvent {
    /// The branch class.
    pub class: BranchClass,
    /// Whether the front end mispredicted it.
    pub mispredicted: bool,
}

/// Why the front end was redirected at this instruction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum RedirectCause {
    /// `jal` whose target was not in the BTB (decode redirect).
    #[default]
    JalMiss,
    /// Conditional branch mispredicted.
    CondMispredict,
    /// Indirect jump (or return) mispredicted.
    IndirectMispredict,
    /// `bop` short-circuit hit (charges the configured bubbles).
    BopHit,
}

/// A front-end redirect charged at this instruction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RedirectEvent {
    /// What caused it.
    pub cause: RedirectCause,
    /// Cycles charged (may be zero, e.g. zero-bubble `bop` hits).
    pub penalty: u64,
}

/// Outcome of one `bop` execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum BopOutcome {
    /// Short-circuited through a JTE hit.
    Hit,
    /// Rop was valid but the JTE lookup missed (slow path follows).
    JteMiss,
    /// Rop was not valid (no `load_op` since the last consume/flush).
    RopInvalid,
    /// Fall-through scheme: Rop was not yet available at fetch.
    NotReady,
    /// SCD disabled in this configuration.
    #[default]
    Disabled,
}

/// `bop` retirement details.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BopEvent {
    /// What the short-circuit attempt did.
    pub outcome: BopOutcome,
    /// Cycles stalled waiting for Rop (stall scheme only).
    pub stall: u64,
}

/// One BTB insert performed by this instruction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BtbInsertEvent {
    /// Key space of the inserted entry.
    pub key: EntryKind,
    /// What the BTB did with it.
    pub outcome: InsertOutcome,
}

/// Up to two BTB inserts for one retirement (a `jru` can install a JTE
/// and train the indirect predictor in the same instruction).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Inserts {
    slots: [Option<BtbInsertEvent>; 2],
}

impl Inserts {
    pub(crate) fn push(&mut self, ev: BtbInsertEvent) {
        for s in &mut self.slots {
            if s.is_none() {
                *s = Some(ev);
                return;
            }
        }
        debug_assert!(false, "more than two BTB inserts in one retirement");
    }

    /// Iterates the recorded inserts in order.
    pub fn iter(&self) -> impl Iterator<Item = &BtbInsertEvent> {
        self.slots.iter().flatten()
    }

    /// True when no insert was recorded.
    pub fn is_empty(&self) -> bool {
        self.slots[0].is_none()
    }
}

/// JTE flushes performed at this instruction (the periodic context-switch
/// flush and an explicit `jte.flush` can coincide).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JteFlushEvent {
    /// Number of flush operations.
    pub flushes: u64,
    /// Total JTE entries invalidated by them.
    pub flushed: u64,
}

/// The architectural side of one retirement: what the instruction
/// *computed*, as opposed to what it *cost*. This is the per-instruction
/// contract the lockstep oracle (`scd-sim::lockstep`, backed by the
/// `scd-ref` reference ISS) checks against the shared
/// [`scd_isa::exec`] semantics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArchInfo {
    /// Integer writeback: (register index, value after execute). Present
    /// for any class that defines an x-register; writes to `x0` report
    /// value 0.
    pub wx: Option<(u8, u64)>,
    /// FP writeback: (register index, raw bits after execute).
    pub wf: Option<(u8, u64)>,
    /// Effective address of a load, store or `<load>.op`.
    pub ea: Option<u64>,
    /// Store data, truncated to the access width.
    pub store: Option<u64>,
    /// Where fetch goes next after this retirement (for the final,
    /// halting retirement: the fall-through PC).
    pub next_pc: u64,
}

/// Everything the timing model charged for one retired instruction.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TraceEvent {
    /// Retirement index, starting at 0.
    pub seq: u64,
    /// PC of the instruction.
    pub pc: u64,
    /// Coarse instruction class.
    pub class: InstClass,
    /// Machine cycle after this retirement.
    pub cycle: u64,
    /// Cycles attributed to this instruction (delta from the previous
    /// retirement; 0 when dual-issued into an existing slot).
    pub cycles: u64,
    /// Whether the PC lies in a registered dispatcher range.
    pub dispatch: bool,
    /// Fetch-side miss attribution.
    pub fetch: FetchAccess,
    /// Data-side miss attribution (None when no miss/writeback; the
    /// access itself is implied by the class).
    pub data: Option<DataAccess>,
    /// Branch outcome, for branch-class instructions.
    pub branch: Option<BranchEvent>,
    /// Front-end redirect charged here.
    pub redirect: Option<RedirectEvent>,
    /// `bop` details (present exactly when `class == Bop`).
    pub bop: Option<BopEvent>,
    /// BTB/JTE inserts performed.
    pub inserts: Inserts,
    /// JTE flushes performed.
    pub flush: Option<JteFlushEvent>,
    /// Micro-architectural fault injected before this instruction (by a
    /// [`crate::FaultPlan`]). Carries the number of JTEs it evicted so
    /// replayed statistics stay balanced.
    pub fault: Option<FaultEvent>,
    /// Architectural retirement record (always captured by the machine;
    /// `None` only in hand-built or legacy events). Ignored by the
    /// statistics replay — no counter derives from it.
    pub arch: Option<ArchInfo>,
}

// ---------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------

/// Receives the retirement event stream from a [`crate::Machine`].
///
/// Sinks are `Send` so a machine (which owns its sink) can run on a
/// worker thread, and `Any` so a concrete sink handed to
/// [`crate::Machine::set_trace_sink`] can be recovered — with its
/// accumulated state — via [`crate::Machine::take_trace_sink`] plus
/// [`downcast_sink`] after the run. This replaces the old
/// `Rc<RefCell<...>>` sharing, which pinned every traced run to one
/// thread.
pub trait TraceSink: Send + std::any::Any {
    /// Called once per retired instruction, in retirement order.
    fn event(&mut self, ev: &TraceEvent);

    /// Called when the run completes (halt or instruction limit); flush
    /// buffered output here.
    fn finish(&mut self) {}
}

/// Recovers the concrete sink behind a [`Machine`](crate::Machine)'s
/// boxed [`TraceSink`], typically straight out of
/// [`take_trace_sink`](crate::Machine::take_trace_sink):
///
/// ```
/// # use scd_sim::{downcast_sink, CycleBreakdown, TraceSink};
/// let boxed: Box<dyn TraceSink> = Box::new(CycleBreakdown::default());
/// let breakdown: Box<CycleBreakdown> = downcast_sink(boxed).unwrap();
/// # let _ = breakdown;
/// ```
///
/// Returns `None` when the sink is some other type (the boxed sink is
/// consumed either way — misidentifying a sink is a caller bug, not a
/// state to recover from).
pub fn downcast_sink<T: TraceSink>(sink: Box<dyn TraceSink>) -> Option<Box<T>> {
    let any: Box<dyn std::any::Any> = sink;
    any.downcast::<T>().ok()
}

/// Buffers every event in memory; for tests and small runs.
#[derive(Debug, Default)]
pub struct VecSink {
    /// The collected events.
    pub events: Vec<TraceEvent>,
}

impl TraceSink for VecSink {
    fn event(&mut self, ev: &TraceEvent) {
        self.events.push(*ev);
    }
}

/// Keeps only the most recent `cap` events — a bounded window for
/// post-mortem dumps. The fault-injection differential guard installs
/// one on the faulted run so a divergence can dump the trace tail
/// without paying for a full-run trace.
#[derive(Debug)]
pub struct RingSink {
    cap: usize,
    buf: std::collections::VecDeque<TraceEvent>,
}

impl RingSink {
    /// Creates a ring buffer holding at most `cap` events.
    ///
    /// # Panics
    /// Panics if `cap` is zero.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "RingSink needs a nonzero capacity");
        RingSink { cap, buf: std::collections::VecDeque::with_capacity(cap) }
    }

    /// The buffered events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.buf.iter()
    }

    /// Number of buffered events (at most the capacity).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been buffered yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Serializes the window as JSONL, oldest event first.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in &self.buf {
            ev.write_json(&mut out);
            out.push('\n');
        }
        out
    }
}

impl TraceSink for RingSink {
    fn event(&mut self, ev: &TraceEvent) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
        }
        self.buf.push_back(*ev);
    }
}

/// Writes one JSON object per event, one per line (the `--trace` format;
/// schema documented in `EXPERIMENTS.md`).
#[derive(Debug)]
pub struct JsonlSink<W: std::io::Write> {
    w: W,
    line: String,
}

impl JsonlSink<std::io::BufWriter<std::fs::File>> {
    /// Creates (truncating) a JSONL trace file at `path`.
    ///
    /// # Errors
    /// Propagates the `File::create` error.
    pub fn create(path: &std::path::Path) -> std::io::Result<Self> {
        Ok(JsonlSink::new(std::io::BufWriter::new(std::fs::File::create(path)?)))
    }
}

impl<W: std::io::Write> JsonlSink<W> {
    /// Wraps an arbitrary writer.
    pub fn new(w: W) -> Self {
        JsonlSink { w, line: String::with_capacity(256) }
    }
}

impl<W: std::io::Write + Send + 'static> TraceSink for JsonlSink<W> {
    fn event(&mut self, ev: &TraceEvent) {
        self.line.clear();
        ev.write_json(&mut self.line);
        self.line.push('\n');
        self.w.write_all(self.line.as_bytes()).expect("trace write failed");
    }

    fn finish(&mut self) {
        self.w.flush().expect("trace flush failed");
    }
}

// ---------------------------------------------------------------------
// JSON encoding
// ---------------------------------------------------------------------

wire_names!(InstClass, "class",
    Alu => "alu", Load => "load", Store => "store", FpLoad => "fp_load", FpStore => "fp_store",
    Fp => "fp", CondBranch => "branch", Jal => "jal", Jalr => "jalr", Ecall => "ecall",
    Fence => "fence", SetMask => "setmask", Bop => "bop", Jru => "jru",
    JteFlush => "jte_flush", LoadOp => "load_op", Other => "other");
wire_names!(RedirectCause, "redirect cause",
    JalMiss => "jal_miss", CondMispredict => "cond_mispredict",
    IndirectMispredict => "indirect_mispredict", BopHit => "bop_hit");
wire_names!(BopOutcome, "bop outcome",
    Hit => "hit", JteMiss => "jte_miss", RopInvalid => "rop_invalid", NotReady => "not_ready",
    Disabled => "disabled");
wire_names!(BranchClass, "branch class",
    Conditional => "cond", Direct => "direct", Return => "ret",
    IndirectDispatch => "ind_dispatch", IndirectOther => "ind_other");
wire_names!(EntryKind, "key", Pc => "pc", Jte => "jte", Vbbi => "vbbi");
wire_names!(InsertOutcome, "insert outcome",
    Updated => "updated",
    Inserted { evicted: None, remote_jte_evicted: false } => "inserted",
    CapSkipped => "cap_skipped", Blocked => "blocked");

impl TraceEvent {
    /// Appends the one-line JSON encoding of this event to `out`, each
    /// field kept or omitted as the event's one field list (`walk`)
    /// declares.
    pub fn write_json(&self, out: &mut String) {
        let mut ev = *self;
        json::emit(out, |w| ev.walk(w));
    }

    /// The one-line JSON encoding of this event.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(160);
        self.write_json(&mut s);
        s
    }

    /// Parses an event from its JSONL line.
    ///
    /// # Errors
    /// Returns a description of the first syntactic or schema problem.
    pub fn from_json(line: &str) -> Result<TraceEvent, String> {
        let mut ev = TraceEvent::default();
        json::read(line, "event", Errors::Precise, |r| {
            // The class is checked first, before the numbers ahead of it
            // on the wire: of two bad fields, a bad class is the one
            // reported.
            r.name("class", &mut ev.class)?;
            ev.walk(r)
        })?;
        Ok(ev)
    }

    /// The event's one field list: each field's key, order and omission
    /// rule, for writing and reading alike. Flags and the fetch and
    /// data penalties are omitted when zero; `branch.mispredicted`,
    /// `redirect.penalty`, `bop.stall` and the `flush` counts are always
    /// written; `arch` fields are present by key, since their values may
    /// be 0.
    fn walk<W: Wire>(&mut self, w: &mut W) -> Step {
        w.num("seq", &mut self.seq, Required)?;
        w.num("pc", &mut self.pc, Required)?;
        w.name("class", &mut self.class)?;
        w.num("cycle", &mut self.cycle, Required)?;
        w.num("cycles", &mut self.cycles, Required)?;
        w.flag("dispatch", &mut self.dispatch, Omitted)?;
        let mut fetch = (self.fetch != FetchAccess::default()).then_some(self.fetch);
        w.opt("fetch", &mut fetch, |w, f| {
            w.flag("itlb_miss", &mut f.itlb_miss, Omitted)?;
            w.flag("icache_miss", &mut f.icache_miss, Omitted)?;
            w.opt("l2", &mut f.l2, walk_l2)?;
            w.num("penalty", &mut f.penalty, Omitted)
        })?;
        self.fetch = fetch.unwrap_or_default();
        w.opt("data", &mut self.data, |w, d| {
            w.flag("dtlb_miss", &mut d.dtlb_miss, Omitted)?;
            w.flag("dcache_miss", &mut d.dcache_miss, Omitted)?;
            w.flag("writeback", &mut d.writeback, Omitted)?;
            w.opt("l2", &mut d.l2, walk_l2)?;
            w.num("penalty", &mut d.penalty, Omitted)
        })?;
        w.opt("branch", &mut self.branch, |w, b| {
            w.name("class", &mut b.class)?;
            w.flag("mispredicted", &mut b.mispredicted, Written)
        })?;
        w.opt("redirect", &mut self.redirect, |w, r| {
            w.name("cause", &mut r.cause)?;
            w.num("penalty", &mut r.penalty, Written)
        })?;
        w.opt("bop", &mut self.bop, |w, b| {
            w.name("outcome", &mut b.outcome)?;
            w.num("stall", &mut b.stall, Written)
        })?;
        w.objects("inserts", "insert", true, &mut self.inserts.slots, |w, ins| {
            w.name("key", &mut ins.key)?;
            w.name("outcome", &mut ins.outcome)?;
            if let InsertOutcome::Inserted { evicted, remote_jte_evicted } = &mut ins.outcome {
                w.opt_name("evicted", evicted)?;
                w.flag("remote_jte_evicted", remote_jte_evicted, Omitted)?;
            }
            Ok(())
        })?;
        w.opt("flush", &mut self.flush, |w, f| {
            w.num("flushes", &mut f.flushes, Required)?;
            w.num("flushed", &mut f.flushed, Required)
        })?;
        w.opt("fault", &mut self.fault, |w, f| {
            w.name("kind", &mut f.kind)?;
            w.num("evicted", &mut f.evicted, Omitted)
        })?;
        w.opt("arch", &mut self.arch, |w, a| {
            // Written first, checked after the rest of `arch`.
            w.late(|w| w.num("next_pc", &mut a.next_pc, Required))?;
            w.pair("wx_r", "wx_v", &mut a.wx)?;
            w.pair("wf_r", "wf_v", &mut a.wf)?;
            w.opt_num("ea", &mut a.ea)?;
            w.opt_num("store", &mut a.store)
        })
    }
}

fn walk_l2<W: Wire>(w: &mut W, l2: &mut L2Access) -> Step {
    w.flag("miss", &mut l2.miss, Omitted)?;
    w.flag("writeback", &mut l2.writeback, Omitted)
}

// ---------------------------------------------------------------------
// Replay + invariants
// ---------------------------------------------------------------------

/// Rebuilds a [`SimStats`] from the event stream alone. Feeding it every
/// event of a run must reproduce the machine's own counters exactly —
/// that equivalence is what [`StatInvariants`] asserts and what the
/// JSONL round-trip test checks end to end.
#[derive(Debug, Default)]
pub struct ReplayStats {
    stats: SimStats,
    next_seq: u64,
    last_cycle: u64,
}

impl ReplayStats {
    /// Folds one event into the replayed statistics.
    ///
    /// # Panics
    /// Panics when the stream is out of order or the per-event cycle
    /// delta disagrees with the running cycle count (cycle
    /// monotonicity).
    pub fn observe(&mut self, ev: &TraceEvent) {
        assert_eq!(ev.seq, self.next_seq, "trace events out of order");
        self.next_seq += 1;
        assert!(
            ev.cycle >= self.last_cycle,
            "cycle count regressed at seq {}: {} -> {}",
            ev.seq,
            self.last_cycle,
            ev.cycle
        );
        assert_eq!(
            ev.cycles,
            ev.cycle - self.last_cycle,
            "seq {}: cycle delta disagrees with the running cycle count",
            ev.seq
        );
        self.last_cycle = ev.cycle;

        let s = &mut self.stats;
        s.instructions += 1;
        if ev.dispatch {
            s.dispatch_instructions += 1;
        }
        if ev.class.is_load() {
            s.loads += 1;
        }
        if ev.class.is_store() {
            s.stores += 1;
        }

        s.itlb.accesses += 1;
        s.itlb.misses += ev.fetch.itlb_miss as u64;
        s.icache.accesses += 1;
        s.icache.misses += ev.fetch.icache_miss as u64;
        if let Some(l2) = ev.fetch.l2 {
            s.l2.accesses += 1;
            s.l2.misses += l2.miss as u64;
            s.l2.writebacks += l2.writeback as u64;
        }
        if ev.class.is_load() || ev.class.is_store() {
            let d = ev.data.unwrap_or_default();
            s.dtlb.accesses += 1;
            s.dtlb.misses += d.dtlb_miss as u64;
            s.dcache.accesses += 1;
            s.dcache.misses += d.dcache_miss as u64;
            s.dcache.writebacks += d.writeback as u64;
            if let Some(l2) = d.l2 {
                s.l2.accesses += 1;
                s.l2.misses += l2.miss as u64;
                s.l2.writebacks += l2.writeback as u64;
            }
        }

        if let Some(b) = ev.branch {
            s.record_branch(b.class, b.mispredicted);
        }

        if ev.class == InstClass::Bop {
            let b = ev.bop.expect("bop retirement must carry a bop event");
            s.bop_executed += 1;
            if b.outcome == BopOutcome::Hit {
                s.bop_hits += 1;
            } else {
                s.bop_misses += 1;
            }
            s.bop_stall_cycles += b.stall;
        }
        if ev.class == InstClass::Jru {
            s.jru_executed += 1;
        }

        for ins in ev.inserts.iter() {
            let b = &mut s.btb;
            if ins.key == EntryKind::Jte {
                match ins.outcome {
                    InsertOutcome::Updated => {}
                    InsertOutcome::CapSkipped => b.jte_cap_skips += 1,
                    InsertOutcome::Blocked => {
                        panic!("seq {}: a JTE insert can never be blocked", ev.seq)
                    }
                    InsertOutcome::Inserted { evicted, remote_jte_evicted } => {
                        b.jte_inserts += 1;
                        match evicted {
                            Some(EntryKind::Jte) => b.jte_evictions += 1,
                            Some(_) => b.btb_evicted_by_jte += 1,
                            None => {}
                        }
                        b.jte_evictions += remote_jte_evicted as u64;
                    }
                }
            } else {
                match ins.outcome {
                    InsertOutcome::Blocked => b.btb_blocked_by_jte += 1,
                    InsertOutcome::Inserted { evicted, .. } => {
                        assert_ne!(
                            evicted,
                            Some(EntryKind::Jte),
                            "seq {}: a non-JTE insert can never evict a JTE",
                            ev.seq
                        );
                    }
                    _ => {}
                }
            }
        }
        if let Some(f) = ev.flush {
            s.btb.jte_flushes += f.flushes;
            s.btb.jte_flushed += f.flushed;
        }
        // Injected faults account their JTE losses as evictions, keeping
        // the resident-population identity balanced.
        if let Some(ft) = ev.fault {
            s.btb.jte_evictions += ft.evicted;
        }
    }

    /// The replayed statistics so far (`cycles` set from the last event).
    pub fn stats(&self) -> SimStats {
        let mut s = self.stats.clone();
        s.cycles = self.last_cycle;
        s
    }

    /// Number of events folded in.
    pub fn events(&self) -> u64 {
        self.next_seq
    }
}

/// Describes the first counter (by its dotted [`COUNTER_NAMES`] name) on
/// which two [`SimStats`] differ, or `None` when they are identical.
/// Used for readable invariant-failure panics.
pub fn diff_stats(live: &SimStats, replay: &SimStats) -> Option<String> {
    COUNTER_NAMES
        .iter()
        .zip(live.counters().into_iter().zip(replay.counters()))
        .find(|(_, (a, b))| a != b)
        .map(|(name, (a, b))| format!("{name}: live {a} vs replay {b}"))
}

/// Debug-mode cross-counter checker: replays the event stream and
/// asserts, every `every` retirements, that the replay matches the
/// machine's live counters and that the cross-counter identities hold.
#[derive(Debug)]
pub struct StatInvariants {
    every: u64,
    replay: ReplayStats,
}

impl StatInvariants {
    /// Checks at every multiple of `every` retired instructions (and at
    /// exit).
    pub fn new(every: u64) -> Self {
        StatInvariants { every: every.max(1), replay: ReplayStats::default() }
    }

    /// Folds one event into the shadow statistics.
    pub fn observe(&mut self, ev: &TraceEvent) {
        self.replay.observe(ev);
    }

    /// Whether a checkpoint is due after `instructions` retirements.
    pub fn due(&self, instructions: u64) -> bool {
        instructions.is_multiple_of(self.every)
    }

    /// Asserts every invariant against the machine's live state.
    /// `live` must carry the current cycle count and merged BTB stats;
    /// `resident_jtes` is the BTB's (plus any dedicated table's) current
    /// JTE population.
    ///
    /// # Panics
    /// Panics with the first violated identity.
    pub fn check(&self, live: &SimStats, resident_jtes: u64) {
        let replay = self.replay.stats();
        if let Some(d) = diff_stats(live, &replay) {
            panic!("stat invariant violated after {} instructions: {d}", live.instructions);
        }
        assert_eq!(
            live.bop_hits + live.bop_misses,
            live.bop_executed,
            "bop_hits + bop_misses != bop_executed"
        );
        let per_class = live.cond.executed
            + live.direct.executed
            + live.ret.executed
            + live.indirect_dispatch.executed
            + live.indirect_other.executed;
        let per_class_miss = live.total_mispredictions();
        assert!(
            per_class_miss <= per_class,
            "mispredictions ({per_class_miss}) exceed branches ({per_class})"
        );
        let derived = live
            .btb
            .jte_inserts
            .checked_sub(live.btb.jte_evictions + live.btb.jte_flushed)
            .expect("JTE losses cannot exceed inserts");
        assert_eq!(
            resident_jtes, derived,
            "resident JTEs diverged from insert/eviction/flush accounting"
        );
    }
}

/// Owner slot for the machine's optional sink (manual `Debug` because
/// trait objects aren't).
pub(crate) struct SinkSlot(pub(crate) Option<Box<dyn TraceSink>>);

impl std::fmt::Debug for SinkSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SinkSlot(installed: {})", self.0.is_some())
    }
}

// ---------------------------------------------------------------------
// Cycle breakdown (Fig. 7 / Fig. 10 attribution)
// ---------------------------------------------------------------------

/// Streams the event stream into the dispatch-cycle decomposition the
/// paper discusses around Fig. 7/10: where cycles go (issue vs. redirect
/// vs. fetch/data stalls vs. Rop waits), attributed from the *actual
/// charged penalties* of each retirement rather than from PC-range
/// profile heuristics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleBreakdown {
    /// Total cycles observed.
    pub total: u64,
    /// Issue slots and operand interlocks (residual after the explicit
    /// penalty categories below).
    pub issue: u64,
    /// Fetch-side stalls (I-cache/I-TLB misses, L2/DRAM).
    pub fetch_stall: u64,
    /// Data-side stalls (D-cache/D-TLB misses, L2/DRAM).
    pub data_stall: u64,
    /// Front-end redirect penalties (branch/jump mispredicts, `jal`
    /// decode redirects, `bop` bubbles).
    pub redirect: u64,
    /// Cycles stalled waiting for Rop at a `bop`.
    pub bop_stall: u64,
    /// Of `total`, cycles charged at dispatcher-range PCs.
    pub dispatch_total: u64,
    /// Of `redirect`, penalties charged at dispatcher-range PCs.
    pub dispatch_redirect: u64,
    /// Of `fetch_stall`, cycles charged at dispatcher-range PCs.
    pub dispatch_fetch_stall: u64,
    /// Events observed.
    pub events: u64,
}

impl CycleBreakdown {
    /// Folds one event into the decomposition.
    pub fn observe(&mut self, ev: &TraceEvent) {
        self.events += 1;
        self.total += ev.cycles;
        let redirect = ev.redirect.map_or(0, |r| r.penalty);
        let bop_stall = ev.bop.map_or(0, |b| b.stall);
        let data = ev.data.map_or(0, |d| d.penalty);
        let explicit = ev.fetch.penalty + data + redirect + bop_stall;
        self.fetch_stall += ev.fetch.penalty;
        self.data_stall += data;
        self.redirect += redirect;
        self.bop_stall += bop_stall;
        // Penalties are charged within the retirement's cycle delta, so
        // the residual is the issue slot plus operand interlocks.
        self.issue += ev.cycles.saturating_sub(explicit);
        if ev.dispatch {
            self.dispatch_total += ev.cycles;
            self.dispatch_redirect += redirect;
            self.dispatch_fetch_stall += ev.fetch.penalty;
        }
    }
}

impl TraceSink for CycleBreakdown {
    fn event(&mut self, ev: &TraceEvent) {
        self.observe(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultKind;

    /// The trace codec as it stood before the one-walk `write_json`/
    /// `from_json`, kept verbatim as the differential oracle.
    mod old {
        use super::super::*;
        use crate::fault::FaultKind;
        use crate::json::{self, Value};

        fn fault_kind_name(k: FaultKind) -> &'static str {
            match k {
                FaultKind::JteInvalidate => "jte_invalidate",
                FaultKind::BtbFlush => "btb_flush",
                FaultKind::BtbBitFlip => "btb_bit_flip",
                FaultKind::RasFlush => "ras_flush",
                FaultKind::CacheInvalidate => "cache_invalidate",
                FaultKind::TlbInvalidate => "tlb_invalidate",
                FaultKind::PredictorScramble => "predictor_scramble",
            }
        }

        fn fault_kind_from_name(s: &str) -> Option<FaultKind> {
            Some(match s {
                "jte_invalidate" => FaultKind::JteInvalidate,
                "btb_flush" => FaultKind::BtbFlush,
                "btb_bit_flip" => FaultKind::BtbBitFlip,
                "ras_flush" => FaultKind::RasFlush,
                "cache_invalidate" => FaultKind::CacheInvalidate,
                "tlb_invalidate" => FaultKind::TlbInvalidate,
                "predictor_scramble" => FaultKind::PredictorScramble,
                _ => return None,
            })
        }

        fn inst_class_name(c: InstClass) -> &'static str {
            match c {
                InstClass::Alu => "alu",
                InstClass::Load => "load",
                InstClass::Store => "store",
                InstClass::FpLoad => "fp_load",
                InstClass::FpStore => "fp_store",
                InstClass::Fp => "fp",
                InstClass::CondBranch => "branch",
                InstClass::Jal => "jal",
                InstClass::Jalr => "jalr",
                InstClass::Ecall => "ecall",
                InstClass::Fence => "fence",
                InstClass::SetMask => "setmask",
                InstClass::Bop => "bop",
                InstClass::Jru => "jru",
                InstClass::JteFlush => "jte_flush",
                InstClass::LoadOp => "load_op",
                InstClass::Other => "other",
            }
        }

        fn inst_class_from_name(s: &str) -> Option<InstClass> {
            Some(match s {
                "alu" => InstClass::Alu,
                "load" => InstClass::Load,
                "store" => InstClass::Store,
                "fp_load" => InstClass::FpLoad,
                "fp_store" => InstClass::FpStore,
                "fp" => InstClass::Fp,
                "branch" => InstClass::CondBranch,
                "jal" => InstClass::Jal,
                "jalr" => InstClass::Jalr,
                "ecall" => InstClass::Ecall,
                "fence" => InstClass::Fence,
                "setmask" => InstClass::SetMask,
                "bop" => InstClass::Bop,
                "jru" => InstClass::Jru,
                "jte_flush" => InstClass::JteFlush,
                "load_op" => InstClass::LoadOp,
                "other" => InstClass::Other,
                _ => return None,
            })
        }

        fn redirect_cause_name(c: RedirectCause) -> &'static str {
            match c {
                RedirectCause::JalMiss => "jal_miss",
                RedirectCause::CondMispredict => "cond_mispredict",
                RedirectCause::IndirectMispredict => "indirect_mispredict",
                RedirectCause::BopHit => "bop_hit",
            }
        }

        fn redirect_cause_from_name(s: &str) -> Option<RedirectCause> {
            Some(match s {
                "jal_miss" => RedirectCause::JalMiss,
                "cond_mispredict" => RedirectCause::CondMispredict,
                "indirect_mispredict" => RedirectCause::IndirectMispredict,
                "bop_hit" => RedirectCause::BopHit,
                _ => return None,
            })
        }

        fn bop_outcome_name(o: BopOutcome) -> &'static str {
            match o {
                BopOutcome::Hit => "hit",
                BopOutcome::JteMiss => "jte_miss",
                BopOutcome::RopInvalid => "rop_invalid",
                BopOutcome::NotReady => "not_ready",
                BopOutcome::Disabled => "disabled",
            }
        }

        fn bop_outcome_from_name(s: &str) -> Option<BopOutcome> {
            Some(match s {
                "hit" => BopOutcome::Hit,
                "jte_miss" => BopOutcome::JteMiss,
                "rop_invalid" => BopOutcome::RopInvalid,
                "not_ready" => BopOutcome::NotReady,
                "disabled" => BopOutcome::Disabled,
                _ => return None,
            })
        }

        fn kind_name(k: EntryKind) -> &'static str {
            match k {
                EntryKind::Pc => "pc",
                EntryKind::Jte => "jte",
                EntryKind::Vbbi => "vbbi",
            }
        }

        fn kind_from_name(s: &str) -> Option<EntryKind> {
            Some(match s {
                "pc" => EntryKind::Pc,
                "jte" => EntryKind::Jte,
                "vbbi" => EntryKind::Vbbi,
                _ => return None,
            })
        }

        fn branch_class_name(c: BranchClass) -> &'static str {
            match c {
                BranchClass::Conditional => "cond",
                BranchClass::Direct => "direct",
                BranchClass::Return => "ret",
                BranchClass::IndirectDispatch => "ind_dispatch",
                BranchClass::IndirectOther => "ind_other",
            }
        }

        fn branch_class_from_name(s: &str) -> Option<BranchClass> {
            Some(match s {
                "cond" => BranchClass::Conditional,
                "direct" => BranchClass::Direct,
                "ret" => BranchClass::Return,
                "ind_dispatch" => BranchClass::IndirectDispatch,
                "ind_other" => BranchClass::IndirectOther,
                _ => return None,
            })
        }

        /// Appends the one-line JSON encoding of this event to `out`.
        /// Optional sub-objects and false/zero flags are omitted.
        pub fn write_json(ev: &TraceEvent, out: &mut String) {
            use std::fmt::Write as _;
            let _ = write!(
                out,
                "{{\"seq\":{},\"pc\":{},\"class\":\"{}\",\"cycle\":{},\"cycles\":{}",
                ev.seq,
                ev.pc,
                inst_class_name(ev.class),
                ev.cycle,
                ev.cycles
            );
            if ev.dispatch {
                out.push_str(",\"dispatch\":true");
            }
            if ev.fetch != FetchAccess::default() {
                out.push_str(",\"fetch\":{");
                let mut first = true;
                json_flag(out, &mut first, "itlb_miss", ev.fetch.itlb_miss);
                json_flag(out, &mut first, "icache_miss", ev.fetch.icache_miss);
                json_l2(out, &mut first, ev.fetch.l2);
                json_num(out, &mut first, "penalty", ev.fetch.penalty);
                out.push('}');
            }
            if let Some(d) = &ev.data {
                out.push_str(",\"data\":{");
                let mut first = true;
                json_flag(out, &mut first, "dtlb_miss", d.dtlb_miss);
                json_flag(out, &mut first, "dcache_miss", d.dcache_miss);
                json_flag(out, &mut first, "writeback", d.writeback);
                json_l2(out, &mut first, d.l2);
                json_num(out, &mut first, "penalty", d.penalty);
                out.push('}');
            }
            if let Some(b) = &ev.branch {
                let _ = write!(
                    out,
                    ",\"branch\":{{\"class\":\"{}\",\"mispredicted\":{}}}",
                    branch_class_name(b.class),
                    b.mispredicted
                );
            }
            if let Some(r) = &ev.redirect {
                let _ = write!(
                    out,
                    ",\"redirect\":{{\"cause\":\"{}\",\"penalty\":{}}}",
                    redirect_cause_name(r.cause),
                    r.penalty
                );
            }
            if let Some(b) = &ev.bop {
                let _ = write!(
                    out,
                    ",\"bop\":{{\"outcome\":\"{}\",\"stall\":{}}}",
                    bop_outcome_name(b.outcome),
                    b.stall
                );
            }
            if !ev.inserts.is_empty() {
                out.push_str(",\"inserts\":[");
                for (i, ins) in ev.inserts.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{{\"key\":\"{}\",", kind_name(ins.key));
                    match ins.outcome {
                        InsertOutcome::Updated => out.push_str("\"outcome\":\"updated\"}"),
                        InsertOutcome::CapSkipped => out.push_str("\"outcome\":\"cap_skipped\"}"),
                        InsertOutcome::Blocked => out.push_str("\"outcome\":\"blocked\"}"),
                        InsertOutcome::Inserted { evicted, remote_jte_evicted } => {
                            out.push_str("\"outcome\":\"inserted\"");
                            if let Some(k) = evicted {
                                let _ = write!(out, ",\"evicted\":\"{}\"", kind_name(k));
                            }
                            if remote_jte_evicted {
                                out.push_str(",\"remote_jte_evicted\":true");
                            }
                            out.push('}');
                        }
                    }
                }
                out.push(']');
            }
            if let Some(f) = &ev.flush {
                let _ = write!(
                    out,
                    ",\"flush\":{{\"flushes\":{},\"flushed\":{}}}",
                    f.flushes, f.flushed
                );
            }
            if let Some(ft) = &ev.fault {
                let _ = write!(out, ",\"fault\":{{\"kind\":\"{}\"", fault_kind_name(ft.kind));
                if ft.evicted != 0 {
                    let _ = write!(out, ",\"evicted\":{}", ft.evicted);
                }
                out.push('}');
            }
            if let Some(a) = &ev.arch {
                // Values here can legitimately be 0, so presence is encoded
                // by the key, never elided like the flag helpers do.
                let _ = write!(out, ",\"arch\":{{\"next_pc\":{}", a.next_pc);
                if let Some((r, v)) = a.wx {
                    let _ = write!(out, ",\"wx_r\":{r},\"wx_v\":{v}");
                }
                if let Some((r, v)) = a.wf {
                    let _ = write!(out, ",\"wf_r\":{r},\"wf_v\":{v}");
                }
                if let Some(ea) = a.ea {
                    let _ = write!(out, ",\"ea\":{ea}");
                }
                if let Some(st) = a.store {
                    let _ = write!(out, ",\"store\":{st}");
                }
                out.push('}');
            }
            out.push('}');
        }

        /// The one-line JSON encoding of this event.
        pub fn to_json(ev: &TraceEvent) -> String {
            let mut s = String::with_capacity(160);
            write_json(ev, &mut s);
            s
        }

        /// Parses an event from its JSONL line.
        ///
        /// # Errors
        /// Returns a description of the first syntactic or schema problem.
        pub fn from_json(line: &str) -> Result<TraceEvent, String> {
            let v = json::parse(line)?;
            let obj = object(&v, "event")?;
            let class_name = get_str(obj, "class")?;
            let class = inst_class_from_name(class_name)
                .ok_or_else(|| format!("unknown class {class_name:?}"))?;
            let mut ev = TraceEvent {
                seq: get_num(obj, "seq")?,
                pc: get_num(obj, "pc")?,
                class,
                cycle: get_num(obj, "cycle")?,
                cycles: get_num(obj, "cycles")?,
                dispatch: get_flag(obj, "dispatch")?,
                fetch: FetchAccess::default(),
                data: None,
                branch: None,
                redirect: None,
                bop: None,
                inserts: Inserts::default(),
                flush: None,
                fault: None,
                arch: None,
            };
            if let Some(f) = obj.get("fetch") {
                let f = object(f, "fetch")?;
                ev.fetch = FetchAccess {
                    itlb_miss: get_flag(f, "itlb_miss")?,
                    icache_miss: get_flag(f, "icache_miss")?,
                    l2: get_l2(f)?,
                    penalty: get_num_or_zero(f, "penalty")?,
                };
            }
            if let Some(d) = obj.get("data") {
                let d = object(d, "data")?;
                ev.data = Some(DataAccess {
                    dtlb_miss: get_flag(d, "dtlb_miss")?,
                    dcache_miss: get_flag(d, "dcache_miss")?,
                    writeback: get_flag(d, "writeback")?,
                    l2: get_l2(d)?,
                    penalty: get_num_or_zero(d, "penalty")?,
                });
            }
            if let Some(b) = obj.get("branch") {
                let b = object(b, "branch")?;
                let name = get_str(b, "class")?;
                ev.branch = Some(BranchEvent {
                    class: branch_class_from_name(name)
                        .ok_or_else(|| format!("unknown branch class {name:?}"))?,
                    mispredicted: get_flag(b, "mispredicted")?,
                });
            }
            if let Some(r) = obj.get("redirect") {
                let r = object(r, "redirect")?;
                let name = get_str(r, "cause")?;
                ev.redirect = Some(RedirectEvent {
                    cause: redirect_cause_from_name(name)
                        .ok_or_else(|| format!("unknown redirect cause {name:?}"))?,
                    penalty: get_num_or_zero(r, "penalty")?,
                });
            }
            if let Some(b) = obj.get("bop") {
                let b = object(b, "bop")?;
                let name = get_str(b, "outcome")?;
                ev.bop = Some(BopEvent {
                    outcome: bop_outcome_from_name(name)
                        .ok_or_else(|| format!("unknown bop outcome {name:?}"))?,
                    stall: get_num_or_zero(b, "stall")?,
                });
            }
            if let Some(list) = obj.get("inserts") {
                let list = list.as_arr().ok_or("inserts must be an array")?;
                for item in list {
                    let item = object(item, "insert")?;
                    let key = get_str(item, "key")?;
                    let key = kind_from_name(key).ok_or_else(|| format!("unknown key {key:?}"))?;
                    let outcome =
                        match get_str(item, "outcome")? {
                            "updated" => InsertOutcome::Updated,
                            "cap_skipped" => InsertOutcome::CapSkipped,
                            "blocked" => InsertOutcome::Blocked,
                            "inserted" => InsertOutcome::Inserted {
                                evicted: match item.get("evicted") {
                                    Some(v) => {
                                        let name = v.as_str().ok_or("evicted must be a string")?;
                                        Some(kind_from_name(name).ok_or_else(|| {
                                            format!("unknown evicted kind {name:?}")
                                        })?)
                                    }
                                    None => None,
                                },
                                remote_jte_evicted: get_flag(item, "remote_jte_evicted")?,
                            },
                            other => return Err(format!("unknown insert outcome {other:?}")),
                        };
                    ev.inserts.push(BtbInsertEvent { key, outcome });
                }
            }
            if let Some(f) = obj.get("flush") {
                let f = object(f, "flush")?;
                ev.flush = Some(JteFlushEvent {
                    flushes: get_num(f, "flushes")?,
                    flushed: get_num(f, "flushed")?,
                });
            }
            if let Some(ft) = obj.get("fault") {
                let ft = object(ft, "fault")?;
                let name = get_str(ft, "kind")?;
                ev.fault = Some(FaultEvent {
                    kind: fault_kind_from_name(name)
                        .ok_or_else(|| format!("unknown fault kind {name:?}"))?,
                    evicted: get_num_or_zero(ft, "evicted")?,
                });
            }
            if let Some(a) = obj.get("arch") {
                let a = object(a, "arch")?;
                let pair = |rk: &str, vk: &str| -> Result<Option<(u8, u64)>, String> {
                    match get_opt_num(a, rk)? {
                        None => Ok(None),
                        Some(r) => {
                            let r = u8::try_from(r)
                                .map_err(|_| format!("field {rk:?} out of register range"))?;
                            Ok(Some((r, get_num(a, vk)?)))
                        }
                    }
                };
                ev.arch = Some(ArchInfo {
                    wx: pair("wx_r", "wx_v")?,
                    wf: pair("wf_r", "wf_v")?,
                    ea: get_opt_num(a, "ea")?,
                    store: get_opt_num(a, "store")?,
                    next_pc: get_num(a, "next_pc")?,
                });
            }
            Ok(ev)
        }

        fn json_flag(out: &mut String, first: &mut bool, name: &str, v: bool) {
            if v {
                if !*first {
                    out.push(',');
                }
                *first = false;
                out.push('"');
                out.push_str(name);
                out.push_str("\":true");
            }
        }

        fn json_num(out: &mut String, first: &mut bool, name: &str, v: u64) {
            use std::fmt::Write as _;
            if v != 0 {
                if !*first {
                    out.push(',');
                }
                *first = false;
                let _ = write!(out, "\"{name}\":{v}");
            }
        }

        fn json_l2(out: &mut String, first: &mut bool, l2: Option<L2Access>) {
            if let Some(l2) = l2 {
                if !*first {
                    out.push(',');
                }
                *first = false;
                out.push_str("\"l2\":{");
                let mut inner_first = true;
                json_flag(out, &mut inner_first, "miss", l2.miss);
                json_flag(out, &mut inner_first, "writeback", l2.writeback);
                out.push('}');
            }
        }

        /// `v` itself when it is a JSON object; `what` names it in the error.
        fn object<'a>(v: &'a Value, what: &str) -> Result<&'a Value, String> {
            match v {
                Value::Obj(_) => Ok(v),
                _ => Err(format!("{what} must be an object")),
            }
        }

        fn get_opt_num(obj: &Value, name: &str) -> Result<Option<u64>, String> {
            obj.get(name)
                .map(|v| v.as_u64().ok_or_else(|| format!("field {name:?} must be a number")))
                .transpose()
        }

        fn get_num(obj: &Value, name: &str) -> Result<u64, String> {
            get_opt_num(obj, name)?.ok_or_else(|| format!("missing field {name:?}"))
        }

        fn get_num_or_zero(obj: &Value, name: &str) -> Result<u64, String> {
            Ok(get_opt_num(obj, name)?.unwrap_or(0))
        }

        fn get_flag(obj: &Value, name: &str) -> Result<bool, String> {
            obj.get(name).map_or(Ok(false), |v| {
                v.as_bool().ok_or_else(|| format!("field {name:?} must be a bool"))
            })
        }

        fn get_str<'a>(obj: &'a Value, name: &str) -> Result<&'a str, String> {
            obj.get(name)
                .ok_or_else(|| format!("missing field {name:?}"))?
                .as_str()
                .ok_or_else(|| format!("field {name:?} must be a string"))
        }

        fn get_l2(obj: &Value) -> Result<Option<L2Access>, String> {
            match obj.get("l2") {
                None => Ok(None),
                Some(v) => {
                    let o = object(v, "l2")?;
                    Ok(Some(L2Access {
                        miss: get_flag(o, "miss")?,
                        writeback: get_flag(o, "writeback")?,
                    }))
                }
            }
        }
    }

    fn sample_events() -> Vec<TraceEvent> {
        let base = TraceEvent {
            seq: 0,
            pc: 0x1_0000,
            class: InstClass::Alu,
            cycle: 1,
            cycles: 1,
            dispatch: false,
            fetch: FetchAccess::default(),
            data: None,
            branch: None,
            redirect: None,
            bop: None,
            inserts: Inserts::default(),
            flush: None,
            fault: None,
            arch: None,
        };
        let mut load = TraceEvent {
            seq: 1,
            pc: 0x1_0004,
            class: InstClass::Load,
            cycle: 40,
            cycles: 39,
            dispatch: true,
            ..base
        };
        load.fetch = FetchAccess {
            itlb_miss: true,
            icache_miss: true,
            l2: Some(L2Access { miss: true, writeback: false }),
            penalty: 25,
        };
        load.data = Some(DataAccess {
            dtlb_miss: false,
            dcache_miss: true,
            writeback: true,
            l2: Some(L2Access { miss: false, writeback: true }),
            penalty: 8,
        });
        load.arch = Some(ArchInfo {
            wx: Some((10, 0xDEAD_BEEF)),
            wf: None,
            ea: Some(0x2_0008),
            store: None,
            next_pc: 0x1_0008,
        });
        let mut bop = TraceEvent {
            seq: 2,
            pc: 0x1_0008,
            class: InstClass::Bop,
            cycle: 45,
            cycles: 5,
            ..base
        };
        bop.bop = Some(BopEvent { outcome: BopOutcome::Hit, stall: 2 });
        bop.redirect = Some(RedirectEvent { cause: RedirectCause::BopHit, penalty: 1 });
        let mut jru = TraceEvent {
            seq: 3,
            pc: 0x1_000C,
            class: InstClass::Jru,
            cycle: 50,
            cycles: 5,
            ..base
        };
        jru.branch = Some(BranchEvent { class: BranchClass::IndirectDispatch, mispredicted: true });
        jru.redirect = Some(RedirectEvent { cause: RedirectCause::IndirectMispredict, penalty: 3 });
        jru.inserts.push(BtbInsertEvent {
            key: EntryKind::Jte,
            outcome: InsertOutcome::Inserted {
                evicted: Some(EntryKind::Pc),
                remote_jte_evicted: false,
            },
        });
        jru.inserts.push(BtbInsertEvent { key: EntryKind::Pc, outcome: InsertOutcome::Blocked });
        // Zero values must survive the roundtrip (presence is keyed, not
        // value-elided like the flag helpers).
        jru.arch = Some(ArchInfo {
            wx: Some((0, 0)),
            wf: Some((3, 0)),
            ea: None,
            store: Some(0),
            next_pc: 0x1_0040,
        });
        let mut flush = TraceEvent {
            seq: 4,
            pc: 0x1_0010,
            class: InstClass::JteFlush,
            cycle: 51,
            cycles: 1,
            ..base
        };
        flush.flush = Some(JteFlushEvent { flushes: 1, flushed: 4 });
        flush.fault = Some(FaultEvent { kind: FaultKind::JteInvalidate, evicted: 1 });
        vec![base, load, bop, jru, flush]
    }

    /// Events for the wire shapes a short run does not reach: a bare
    /// event, writebacks at every level, an empty `data` and `l2`, a
    /// `bop` hit, a blocked and a capped insert, an at-cap insert that
    /// also evicted a remote JTE, and a fault that evicted nothing.
    fn hand_built_events() -> Vec<TraceEvent> {
        let mut evs = sample_events();
        let mut odd = TraceEvent { seq: 5, pc: 0x1_0014, class: InstClass::Jalr, ..evs[0] };
        odd.data = Some(DataAccess::default());
        odd.fetch.l2 = Some(L2Access::default());
        odd.inserts
            .push(BtbInsertEvent { key: EntryKind::Jte, outcome: InsertOutcome::CapSkipped });
        odd.inserts.push(BtbInsertEvent {
            key: EntryKind::Jte,
            outcome: InsertOutcome::Inserted {
                evicted: Some(EntryKind::Jte),
                remote_jte_evicted: true,
            },
        });
        odd.fault = Some(FaultEvent { kind: FaultKind::PredictorScramble, evicted: 0 });
        odd.redirect = Some(RedirectEvent { cause: RedirectCause::CondMispredict, penalty: 0 });
        odd.branch = Some(BranchEvent { class: BranchClass::Return, mispredicted: false });
        let mut vbbi = TraceEvent { seq: 6, class: InstClass::LoadOp, ..evs[0] };
        vbbi.inserts.push(BtbInsertEvent {
            key: EntryKind::Vbbi,
            outcome: InsertOutcome::Inserted { evicted: None, remote_jte_evicted: true },
        });
        vbbi.bop = Some(BopEvent { outcome: BopOutcome::NotReady, stall: 0 });
        vbbi.flush = Some(JteFlushEvent { flushes: 0, flushed: 0 });
        evs.extend([odd, vbbi]);
        evs
    }

    #[test]
    fn hand_built_event_bytes_are_pinned() {
        let want = [
            r#"{"seq":0,"pc":65536,"class":"alu","cycle":1,"cycles":1}"#,
            r#"{"seq":1,"pc":65540,"class":"load","cycle":40,"cycles":39,"dispatch":true,"fetch":{"itlb_miss":true,"icache_miss":true,"l2":{"miss":true},"penalty":25},"data":{"dcache_miss":true,"writeback":true,"l2":{"writeback":true},"penalty":8},"arch":{"next_pc":65544,"wx_r":10,"wx_v":3735928559,"ea":131080}}"#,
            r#"{"seq":2,"pc":65544,"class":"bop","cycle":45,"cycles":5,"redirect":{"cause":"bop_hit","penalty":1},"bop":{"outcome":"hit","stall":2}}"#,
            r#"{"seq":3,"pc":65548,"class":"jru","cycle":50,"cycles":5,"branch":{"class":"ind_dispatch","mispredicted":true},"redirect":{"cause":"indirect_mispredict","penalty":3},"inserts":[{"key":"jte","outcome":"inserted","evicted":"pc"},{"key":"pc","outcome":"blocked"}],"arch":{"next_pc":65600,"wx_r":0,"wx_v":0,"wf_r":3,"wf_v":0,"store":0}}"#,
            r#"{"seq":4,"pc":65552,"class":"jte_flush","cycle":51,"cycles":1,"flush":{"flushes":1,"flushed":4},"fault":{"kind":"jte_invalidate","evicted":1}}"#,
            r#"{"seq":5,"pc":65556,"class":"jalr","cycle":1,"cycles":1,"fetch":{"l2":{}},"data":{},"branch":{"class":"ret","mispredicted":false},"redirect":{"cause":"cond_mispredict","penalty":0},"inserts":[{"key":"jte","outcome":"cap_skipped"},{"key":"jte","outcome":"inserted","evicted":"jte","remote_jte_evicted":true}],"fault":{"kind":"predictor_scramble"}}"#,
            r#"{"seq":6,"pc":65536,"class":"load_op","cycle":1,"cycles":1,"bop":{"outcome":"not_ready","stall":0},"inserts":[{"key":"vbbi","outcome":"inserted","remote_jte_evicted":true}],"flush":{"flushes":0,"flushed":0}}"#,
        ];
        let evs = hand_built_events();
        assert_eq!(evs.len(), want.len());
        for (ev, want) in evs.iter().zip(want) {
            assert_eq!(ev.to_json(), want);
            assert_eq!(TraceEvent::from_json(want).as_ref(), Ok(ev), "{want}");
        }
    }

    /// An event built from `words`: each optional part present or not,
    /// numbers zero, small, near 2^53 or huge, so every wire shape and
    /// omission rule comes up across cases.
    fn event_from(words: &[u64]) -> TraceEvent {
        let mut it = words.iter().copied().cycle();
        let mut next = move || it.next().expect("cycled");
        let num = |x: u64| match x % 4 {
            0 => 0,
            1 => x >> 58,
            2 => (1 << 53) + (x >> 60),
            _ => x,
        };
        fn pick<E: WireName>(x: u64) -> E {
            E::NAMES[(x % E::NAMES.len() as u64) as usize].0
        }
        let mut bits = next();
        let mut flag = move || {
            bits = bits.rotate_right(1);
            bits & 1 == 1
        };
        let mut ev = TraceEvent {
            seq: num(next()),
            pc: num(next()),
            class: pick(next()),
            cycle: num(next()),
            cycles: num(next()),
            dispatch: flag(),
            ..TraceEvent::default()
        };
        let l2 = |on: bool, miss: bool, writeback: bool| on.then_some(L2Access { miss, writeback });
        if flag() {
            ev.fetch = FetchAccess {
                itlb_miss: flag(),
                icache_miss: flag(),
                l2: l2(flag(), flag(), flag()),
                penalty: num(next()),
            };
        }
        if flag() {
            ev.data = Some(DataAccess {
                dtlb_miss: flag(),
                dcache_miss: flag(),
                writeback: flag(),
                l2: l2(flag(), flag(), flag()),
                penalty: num(next()),
            });
        }
        if flag() {
            ev.branch = Some(BranchEvent { class: pick(next()), mispredicted: flag() });
        }
        if flag() {
            ev.redirect = Some(RedirectEvent { cause: pick(next()), penalty: num(next()) });
        }
        if flag() {
            ev.bop = Some(BopEvent { outcome: pick(next()), stall: num(next()) });
        }
        for _ in 0..next() % 3 {
            let mut outcome = pick(next());
            if let InsertOutcome::Inserted { evicted, remote_jte_evicted } = &mut outcome {
                *evicted = flag().then(|| pick(next()));
                *remote_jte_evicted = flag();
            }
            ev.inserts.push(BtbInsertEvent { key: pick(next()), outcome });
        }
        if flag() {
            ev.flush = Some(JteFlushEvent { flushes: num(next()), flushed: num(next()) });
        }
        if flag() {
            ev.fault = Some(FaultEvent { kind: pick(next()), evicted: num(next()) });
        }
        if flag() {
            let pair = |on: bool, r: u64, v: u64| on.then_some(((r % 32) as u8, v));
            ev.arch = Some(ArchInfo {
                wx: pair(flag(), next(), num(next())),
                wf: pair(flag(), next(), num(next())),
                ea: flag().then(|| num(next())),
                store: flag().then(|| num(next())),
                next_pc: num(next()),
            });
        }
        ev
    }

    /// Byte ranges of the JSON tokens of `text`: strings, numbers and
    /// literals, and single punctuation bytes.
    fn tokens(text: &str) -> Vec<std::ops::Range<usize>> {
        let b = text.as_bytes();
        let word = |c: u8| c.is_ascii_alphanumeric() || b"+-.".contains(&c);
        let (mut out, mut i) = (Vec::new(), 0);
        while i < b.len() {
            let start = i;
            i += 1;
            if b[start] == b'"' {
                while b[i] != b'"' {
                    i += 1;
                }
                i += 1;
            } else if word(b[start]) {
                while i < b.len() && word(b[i]) {
                    i += 1;
                }
            }
            out.push(start..i);
        }
        out
    }

    /// Replacement tokens for the mutation sweep: every key and wire name
    /// of the schema, edge numbers, literals, punctuation, and deletion.
    fn trace_vocab() -> Vec<String> {
        let keys = "seq pc class cycle cycles dispatch fetch itlb_miss icache_miss l2 miss \
                    writeback penalty data dtlb_miss dcache_miss branch mispredicted redirect \
                    cause bop outcome stall inserts key evicted remote_jte_evicted flush flushes \
                    flushed fault kind arch next_pc wx_r wx_v wf_r wf_v ea store nope";
        let mut names: Vec<&str> = keys.split(' ').filter(|k| !k.is_empty()).collect();
        fn of<E: WireName>(names: &mut Vec<&str>) {
            names.extend(E::NAMES.iter().map(|&(_, n)| n));
        }
        of::<InstClass>(&mut names);
        of::<BranchClass>(&mut names);
        of::<RedirectCause>(&mut names);
        of::<BopOutcome>(&mut names);
        of::<EntryKind>(&mut names);
        of::<InsertOutcome>(&mut names);
        of::<FaultKind>(&mut names);
        let mut vocab: Vec<String> = names.iter().map(|n| format!("\"{n}\"")).collect();
        let other = "0 1 255 256 -1 1.5 1e2 9007199254740993 18446744073709551615 \
                     18446744073709551616 true false null { } [ ] , : {} []";
        vocab.extend(other.split(' ').filter(|t| !t.is_empty()).map(str::to_string));
        vocab.push(String::new());
        vocab
    }

    /// Old and new decode `line` to the same event or the same error
    /// text, and a decoded event encodes to the same bytes under both.
    fn same_decode(line: &str) -> Result<(), String> {
        let (old, new) = (old::from_json(line), TraceEvent::from_json(line));
        if old != new {
            return Err(format!("{line}\n old: {old:?}\n new: {new:?}"));
        }
        match new {
            Ok(ev) if old::to_json(&ev) != ev.to_json() => Err(format!("re-encoding {line}")),
            _ => Ok(()),
        }
    }

    /// `line` with token `t` replaced by `with`.
    fn mutated(line: &str, t: &std::ops::Range<usize>, with: &str) -> String {
        format!("{}{with}{}", &line[..t.start], &line[t.end..])
    }

    #[test]
    fn every_single_token_mutation_decodes_as_before() {
        let vocab = trace_vocab();
        for ev in hand_built_events() {
            let line = ev.to_json();
            for t in tokens(&line) {
                for with in &vocab {
                    same_decode(&mutated(&line, &t, with)).unwrap();
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Generated events encode to the old bytes, and their lines and
        /// random single-token mutations of them decode as before.
        #[test]
        fn codec_matches_the_old_codec(
            words in proptest::collection::vec(proptest::prelude::any::<u64>(), 16..48),
            picks in proptest::collection::vec(proptest::prelude::any::<u64>(), 8..9),
        ) {
            let ev = event_from(&words);
            let line = ev.to_json();
            proptest::prop_assert_eq!(&line, &old::to_json(&ev));
            proptest::prop_assert_eq!(TraceEvent::from_json(&line), Ok(ev));
            let vocab = trace_vocab();
            for (i, t) in tokens(&line).iter().enumerate() {
                let with = &vocab[(picks[i % picks.len()] >> (i % 7)) as usize % vocab.len()];
                let r = same_decode(&mutated(&line, t, with));
                proptest::prop_assert!(r.is_ok(), "{}", r.unwrap_err());
            }
        }
    }

    /// Every wire-name table: each variant round-trips through its name,
    /// no name is used twice, and an unknown name gives `None`. The tables
    /// list every variant, since `wire_names!` derives `name` as one
    /// exhaustive match over the same list.
    #[test]
    fn every_wire_name_table_round_trips() {
        fn check<E: WireName + PartialEq + std::fmt::Debug>() {
            let mut seen = std::collections::HashSet::new();
            for &(v, n) in E::NAMES {
                assert_eq!(v.name(), n);
                assert_eq!(E::from_name(n), Some(v), "{}", E::WHAT);
                assert!(seen.insert(n), "{} name {n:?} is used twice", E::WHAT);
            }
            assert_eq!(E::from_name("nope"), None, "{}", E::WHAT);
        }
        check::<InstClass>();
        check::<BranchClass>();
        check::<RedirectCause>();
        check::<BopOutcome>();
        check::<EntryKind>();
        check::<InsertOutcome>();
        check::<FaultKind>();
        // The public inherent wrappers read the same tables.
        for &(k, n) in <FaultKind as WireName>::NAMES {
            assert_eq!((k.name(), FaultKind::from_name(n)), (n, Some(k)));
        }
        assert_eq!(InstClass::JteFlush.name(), "jte_flush");
    }

    #[test]
    fn json_roundtrip_preserves_events() {
        for ev in sample_events() {
            let line = ev.to_json();
            let back = TraceEvent::from_json(&line).unwrap_or_else(|e| panic!("parse {line}: {e}"));
            assert_eq!(back, ev, "roundtrip of {line}");
        }
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(TraceEvent::from_json("not json").is_err());
        assert!(TraceEvent::from_json("{\"seq\":0}").is_err()); // missing fields
        assert!(TraceEvent::from_json(
            "{\"seq\":0,\"pc\":0,\"class\":\"nope\",\"cycle\":0,\"cycles\":0}"
        )
        .is_err());
        assert!(TraceEvent::from_json("{\"seq\":0}{").is_err()); // trailing
        assert!(TraceEvent::from_json("[1,2]").is_err()); // not an object

        // Counters are unsigned integers: a negative or fractional
        // number is a schema error, not a truncation.
        let line = |seq: &str| {
            format!("{{\"seq\":{seq},\"pc\":0,\"class\":\"alu\",\"cycle\":0,\"cycles\":0}}")
        };
        assert!(TraceEvent::from_json(&line("0")).is_ok());
        for seq in ["-1", "1.5"] {
            let err = TraceEvent::from_json(&line(seq)).expect_err(seq);
            assert!(err.contains("seq"), "{seq}: {err}");
        }
    }

    #[test]
    fn replay_aggregates_counters() {
        let mut r = ReplayStats::default();
        for ev in sample_events() {
            r.observe(&ev);
        }
        let s = r.stats();
        assert_eq!(s.instructions, 5);
        assert_eq!(s.cycles, 51);
        assert_eq!(s.loads, 1);
        assert_eq!(s.dispatch_instructions, 1);
        assert_eq!(s.icache.accesses, 5);
        assert_eq!(s.icache.misses, 1);
        assert_eq!(s.itlb.misses, 1);
        assert_eq!(s.dcache.accesses, 1);
        assert_eq!(s.dcache.misses, 1);
        assert_eq!(s.dcache.writebacks, 1);
        assert_eq!(s.l2.accesses, 2);
        assert_eq!(s.l2.misses, 1);
        assert_eq!(s.l2.writebacks, 1);
        assert_eq!(s.bop_executed, 1);
        assert_eq!(s.bop_hits, 1);
        assert_eq!(s.bop_misses, 0);
        assert_eq!(s.bop_stall_cycles, 2);
        assert_eq!(s.jru_executed, 1);
        assert_eq!(s.indirect_dispatch.executed, 1);
        assert_eq!(s.indirect_dispatch.mispredicted, 1);
        assert_eq!(s.btb.jte_inserts, 1);
        assert_eq!(s.btb.btb_evicted_by_jte, 1);
        assert_eq!(s.btb.btb_blocked_by_jte, 1);
        assert_eq!(s.btb.jte_flushes, 1);
        assert_eq!(s.btb.jte_flushed, 4);
        // The injected fault on the last event accounts its JTE loss.
        assert_eq!(s.btb.jte_evictions, 1);
    }

    #[test]
    fn ring_sink_keeps_tail() {
        let mut sink = RingSink::new(3);
        assert!(sink.is_empty());
        for ev in sample_events() {
            sink.event(&ev);
        }
        assert_eq!(sink.len(), 3);
        let seqs: Vec<u64> = sink.events().map(|e| e.seq).collect();
        assert_eq!(seqs, [2, 3, 4]);
        let jsonl = sink.to_jsonl();
        assert_eq!(jsonl.lines().count(), 3);
        let first = TraceEvent::from_json(jsonl.lines().next().unwrap()).unwrap();
        assert_eq!(first.seq, 2);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn replay_rejects_reordering() {
        let evs = sample_events();
        let mut r = ReplayStats::default();
        r.observe(&evs[1]);
    }

    #[test]
    fn diff_stats_pinpoints_field() {
        let a = SimStats::default();
        let mut b = SimStats::default();
        assert_eq!(diff_stats(&a, &b), None);
        b.bop_hits = 3;
        let d = diff_stats(&a, &b).expect("differs");
        assert!(d.contains("bop_hits"), "got {d}");
    }

    #[test]
    fn diff_stats_covers_tlb_writebacks() {
        let a = SimStats::default();
        let mut b = SimStats::default();
        b.dtlb.writebacks = 1;
        assert_eq!(diff_stats(&a, &b).as_deref(), Some("dtlb.writebacks: live 0 vs replay 1"));
        let mut b = SimStats::default();
        b.itlb.writebacks = 2;
        assert_eq!(diff_stats(&a, &b).as_deref(), Some("itlb.writebacks: live 0 vs replay 2"));
    }

    #[test]
    fn breakdown_decomposes_cycles() {
        let mut bd = CycleBreakdown::default();
        for ev in sample_events() {
            bd.observe(&ev);
        }
        assert_eq!(bd.events, 5);
        assert_eq!(bd.total, 51);
        assert_eq!(bd.fetch_stall, 25);
        assert_eq!(bd.data_stall, 8);
        assert_eq!(bd.redirect, 4);
        assert_eq!(bd.bop_stall, 2);
        // Components + residual == total.
        assert_eq!(
            bd.issue + bd.fetch_stall + bd.data_stall + bd.redirect + bd.bop_stall,
            bd.total
        );
        assert_eq!(bd.dispatch_total, 39);
    }

    #[test]
    fn vec_sink_collects() {
        let mut sink = VecSink::default();
        for ev in sample_events() {
            sink.event(&ev);
        }
        assert_eq!(sink.events.len(), 5);
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let mut sink = JsonlSink::new(Vec::new());
        for ev in sample_events() {
            sink.event(&ev);
        }
        sink.finish();
        let text = String::from_utf8(sink.w).unwrap();
        let mut r = ReplayStats::default();
        for line in text.lines() {
            r.observe(&TraceEvent::from_json(line).expect("parses"));
        }
        assert_eq!(r.events(), 5);
    }
}
