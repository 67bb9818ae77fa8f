//! Execute-ahead + timing replay: the decoupled, pipelined fast path.
//!
//! The interleaved run loop pays for functional execution and timing
//! bookkeeping on every retirement. This module splits them: the
//! `scd-ref` ISS (the *producer*, on its own thread) executes ahead
//! functionally and emits a compact retirement stream in fixed-size
//! batches, and the timing model (the *consumer*,
//! [`Machine::run_replay`]) drains them, charging cycles and statistics
//! without re-executing semantics. Every data result still comes from
//! the single `scd_isa::exec` semantics table — via the producer — so
//! the two paths cannot drift on values.
//!
//! # Ownership: the guest memory moves, it is not cloned
//!
//! The producer takes the machine's guest memory segments (a 200 MB
//! heap must not be cloned per run) and owns them for the duration.
//! The consumer never needs memory: loads take their values from the
//! record stream, and stores were already applied — to the very same
//! bytes — by the producer. Because the producer runs *ahead*, memory
//! transiently holds future stores; an **undo log** (old bytes of every
//! store, tagged with its retirement number) lets any early stop — a
//! watchdog, a mis-speculated `bop` — rewind memory to the consumer's
//! exact retirement before the segments move back into the machine.
//!
//! # Why the stream can be this small
//!
//! The consumer keeps its architectural registers *exact*: each record
//! carries the writeback value, effective address and store data, which
//! the consumer applies to its own register files. Everything else the
//! timing model needs (branch targets of direct jumps, `ecall` service
//! numbers, `setmask`/`jru` operands, VBBI hint values) it reads from
//! its own — exact — registers, precisely as the interleaved loop does.
//!
//! # Timing-dependent control flow: speculating through `bop`
//!
//! `bop` is the one instruction whose *architectural* outcome depends
//! on micro-architectural state — the BTB/JTE lookup (Section III of
//! the paper). The producer does not stop there (dispatch-heavy guests
//! hit a `bop` every ~30 instructions, which would chop the stream into
//! confetti); it *speculates* with its own architectural JTE map — a
//! superset of the DUT's BTB-resident JTEs, trained by the same `jru`
//! stream but never evicting — and records the predicted outcome. The
//! consumer resolves each `bop` with the real front end
//! ([`Machine::exec_bop`]) and verifies the prediction. On the rare
//! mismatch (an evicted DUT JTE, an unready `Rop` under the
//! fall-through scheme) it sends the producer a rollback: the producer
//! rewinds memory through the undo log, adopts the consumer's exact
//! register/SCD state, bumps the stream generation, and refills; the
//! consumer discards in-flight batches of the old generation. Under the
//! paper's stall scheme the architectural map and the DUT agree
//! essentially always (the pinned benchmarks measure 100.0% `bop` hit
//! rates), so batches run full and the two threads pipeline: wall time
//! approaches max(functional execution, timing model) instead of their
//! sum.
//!
//! # Why stats stay bit-identical
//!
//! The consumer performs, per retirement, exactly the calls of the
//! interleaved loop in the same order — `fetch_timing`, `issue`,
//! `begin_retirement`, then a timing twin of `execute_inst` whose arms
//! mirror the originals line for line with values sourced from the
//! record instead of computed. The emulated context-switch flush
//! quantum is instruction-count-keyed, so the producer mirrors it at
//! the same retirement numbers. The instruction limit needs no
//! per-record check: the producer emits no record past the budget, so
//! the limit can only fire at a batch boundary — the same retirement
//! number the interleaved loop stops at. Cycle and wall-clock watchdogs
//! *are* checked per record (they depend on consumer-side time), in the
//! interleaved loop's order, but only when a budget is armed.
//! `tests/golden_stats.rs` holds the paths to bit-identical
//! [`SimStats`](crate::SimStats).
//!
//! Because the consumer's architectural state is exact after every
//! drained record and teardown rewinds producer-side stores past the
//! consumer's point, *any* return from `run_replay` (exit, limit,
//! watchdog, fault) leaves a coherent machine: snapshots compose with
//! replay with no extra bookkeeping.

use super::execute::StepOut;
use super::{Exit, Machine, SimError, WatchdogKind};
use crate::config::ScdConfig;
use crate::mem::MemFault;
use crate::trace::InstClass;
use scd_isa::{exec, AluOp, FpOp, Inst, Reg};
use scd_ref::{BopHint, RefCore, RefError, Segment};
use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::Arc;

/// Records per batch. Sized so a batch amortizes the channel round-trip
/// while staying cache-resident through fill and drain.
pub(crate) const REPLAY_BATCH: usize = 1024;

/// Batches in flight between producer and consumer. Deep enough to ride
/// out scheduling hiccups; shallow enough that the undo log and the
/// rollback discard window stay small.
pub(super) const CHANNEL_DEPTH: usize = 4;

/// One retired instruction, as the producer saw it.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct ReplayRec {
    /// Index into the decoded text / static side-table.
    pub(super) idx: u32,
    /// Conditional branch outcome, or a speculated `bop`'s predicted
    /// hit. Carried explicitly: a taken branch with offset 4 lands on
    /// `pc + 4` exactly like a not-taken one, and inferring "taken" from
    /// `next_pc` would mistrain the direction predictor on that edge.
    taken: bool,
    /// Writeback value (integer or FP), or the resolved target for
    /// `jalr`/`jru`/`bop` (whose integer writeback is statically absent
    /// or `pc + 4`).
    pub(super) a: u64,
    /// Effective address of a memory access.
    pub(super) ea: u64,
    /// Store data (post width-truncation), or the masked `Rop` value for
    /// `load_op`.
    c: u64,
}

/// Why the producer stopped filling a batch.
#[derive(Debug, Clone, Copy)]
pub(super) enum Stop {
    /// Batch full; more instructions pending.
    Full,
    /// The guest's halting `ecall` is the last record in the batch — or,
    /// when the batch is empty, the guest halted inside the producer's
    /// no-record fast-forward span (the attached [`SyncArch`] carries
    /// the final state).
    Exit,
    /// The producer's instruction budget (the run's `max_insts`) is
    /// exhausted.
    Limit,
    /// The producer faulted at its current PC; no record was emitted for
    /// the faulting instruction.
    Err(RefError),
}

/// The producer's architectural state at its fast-forward → record
/// boundary, shipped to the consumer in the first batch of a warm leg.
/// The consumer adopts it exactly as the sampled scheduler's
/// fast-forward leg syncs the reference core back.
pub(super) struct SyncArch {
    pub(super) regs: [u64; 32],
    pub(super) fregs: [u64; 32],
    pub(super) pc: u64,
    /// Absolute retirement count at the boundary.
    pub(super) n: u64,
    pub(super) next_flush_at: u64,
    /// Guest output bytes emitted since the producer was built.
    pub(super) out: Vec<u8>,
    /// `(rop_v, rop_d, rmask)` per branch id.
    pub(super) scd: [(bool, u64, u64); super::MAX_BRANCH_IDS],
}

/// A fixed-size batch of retirement records, recycled through the
/// channel pair (boxed, so channel sends move a pointer, not 40 KiB).
pub(super) struct Batch {
    pub(super) recs: Box<[ReplayRec]>,
    pub(super) len: usize,
    pub(super) stop: Stop,
    /// Stream generation; bumped by every rollback so the consumer can
    /// discard batches speculated past a mispredicted `bop`.
    pub(super) gen: u32,
    /// Fast-forward → record boundary state, attached exactly once per
    /// producer (on the batch that crosses — or stops inside — the
    /// fast-forward span). Absent entirely when the producer records
    /// from its first instruction.
    pub(super) sync: Option<Box<SyncArch>>,
}

impl Batch {
    pub(super) fn new() -> Self {
        Batch {
            recs: vec![ReplayRec::default(); REPLAY_BATCH].into_boxed_slice(),
            len: 0,
            stop: Stop::Full,
            gen: 0,
            sync: None,
        }
    }
}

/// Which structure classes a warming-mode replay record updates. The
/// sampled warm leg turns each class on only for the tail of the leg
/// its [`SamplingPlan`](crate::SamplingPlan) window spans; detailed
/// replay passes [`WarmGates::ALL`] (and compiles every check away via
/// the `!WARMING ||` guards).
#[derive(Debug, Clone, Copy)]
pub(super) struct WarmGates {
    /// I$/I-TLB fetch touches and D$/D-TLB/L2 data touches.
    pub(super) cache: bool,
    /// PC-indexed BTB entries (direct jumps, conditional-branch targets).
    pub(super) btb: bool,
    /// Direction predictor, ITTAGE, RAS and indirect (`jalr`) traffic.
    pub(super) pred: bool,
}

impl WarmGates {
    pub(super) const ALL: WarmGates = WarmGates {
        cache: true,
        btb: true,
        pred: true,
    };
}

/// Old bytes of one producer-side store, for rollback.
struct UndoEnt {
    /// Retirement number (1-based, global) of the store.
    n: u64,
    addr: u64,
    width: u8,
    old: u64,
}

/// The consumer's exact architectural point, shipped to the producer on
/// rollback.
pub(super) struct SyncState {
    regs: [u64; 32],
    fregs: [u64; 32],
    pc: u64,
    /// Retirements completed (`stats.instructions`).
    n: u64,
    next_flush_at: u64,
    /// Guest output bytes emitted *since the producer was built*.
    out_len: usize,
    /// `(rop_v, rop_d, rmask)` per branch id.
    scd: [(bool, u64, u64); super::MAX_BRANCH_IDS],
}

/// Consumer → producer control messages.
pub(super) enum Down {
    /// A drained (or discarded) batch box, plus the consumer's
    /// retirement count — the producer prunes undo entries at or below
    /// it.
    Recycle(Box<Batch>, u64),
    /// A `bop` speculation failed: rewind to this exact state and refill
    /// under the next generation.
    Rollback(Box<SyncState>),
    /// The run is over at this retirement count: rewind memory past it
    /// and hand the segments back.
    Stop(u64),
}

/// The execute-ahead functional producer: an `scd-ref` core owning the
/// guest memory, plus the mirrored flush-quantum bookkeeping and the
/// store undo log.
pub(super) struct Producer {
    pub(super) core: RefCore,
    insts: Arc<[Inst]>,
    text_base: u64,
    text_end: u64,
    /// The run's total retirement budget (`max_insts`).
    max_insts: u64,
    /// Retirement count, continuing the machine's
    /// (`stats.instructions`).
    n: u64,
    /// Retirement number at which record emission starts. Instructions
    /// before it run producer-side at full functional speed with no
    /// records, no undo logging and no consumer involvement — the warm
    /// leg's fast-forward span. Pure replay sets it to the starting
    /// count (record everything).
    record_from: u64,
    /// Whether the fast-forward → record boundary state has already been
    /// shipped ([`Batch::sync`] is attached exactly once).
    sync_sent: bool,
    /// Mirror of the machine's instruction-count-keyed context-switch
    /// flush quantum: the consumer flushes (JTEs *and* `Rop` valid bits)
    /// in `begin_retirement`, so the producer must clear its own `Rop`
    /// valid bits at the same retirement numbers, *before* executing
    /// that retirement.
    next_flush_at: u64,
    flush_interval: u64,
    pub(super) gen: u32,
    nbids: usize,
    undo: VecDeque<UndoEnt>,
    /// Test hook mirrored from [`Machine::inject_replay_producer_panic`]:
    /// panic while filling the first batch.
    test_panic: bool,
}

impl Producer {
    /// Mirrors the consumer's `begin_retirement` flush quantum for
    /// retirement number `n` (1-based), before that retirement executes.
    #[inline]
    fn flush_quantum(&mut self, n: u64) {
        if n >= self.next_flush_at {
            self.core.flush_rop();
            self.next_flush_at += self.flush_interval;
        }
    }

    /// Logs the old bytes under an imminent store. An unmapped address
    /// is skipped: the step is about to fault without writing.
    #[inline]
    fn log_store(&mut self, addr: u64, width: u64) {
        if let Some(old) = self.core.read_mem(addr, width) {
            self.undo.push_back(UndoEnt {
                n: self.n + 1,
                addr,
                width: width as u8,
                old,
            });
        }
    }

    /// Drops undo entries for stores the consumer has already replayed.
    pub(super) fn prune_undo(&mut self, acked: u64) {
        while self.undo.front().is_some_and(|e| e.n <= acked) {
            self.undo.pop_front();
        }
    }

    /// Rewinds memory to retirement `n`: undoes every logged store past
    /// it, newest first.
    pub(super) fn unwind_to(&mut self, n: u64) {
        while self.undo.back().is_some_and(|e| e.n > n) {
            let e = self.undo.pop_back().expect("checked non-empty");
            self.core.write_mem(e.addr, e.width as u64, e.old);
        }
    }

    /// Adopts the consumer's exact state after a mis-speculated `bop`.
    /// The architectural JTE map is deliberately kept: it is monotone
    /// ground truth, and stale speculative entries can only cause
    /// another (caught) misprediction, never a wrong value.
    pub(super) fn rollback(&mut self, st: &SyncState) {
        self.unwind_to(st.n);
        self.core.regs = st.regs;
        self.core.fregs = st.fregs;
        self.core.pc = st.pc;
        self.core.instructions = st.n;
        self.core.output.truncate(st.out_len);
        for (bid, &(rop_v, rop_d, rmask)) in st.scd.iter().take(self.nbids).enumerate() {
            self.core.seed_scd(bid, rop_v, rop_d, rmask);
        }
        self.n = st.n;
        self.next_flush_at = st.next_flush_at;
        self.gen = self.gen.wrapping_add(1);
    }

    /// Captures the fast-forward → record boundary state into `b`,
    /// exactly once per producer.
    fn attach_sync(&mut self, b: &mut Batch) {
        if self.sync_sent {
            return;
        }
        self.sync_sent = true;
        let mut scd = [(false, 0u64, 0u64); super::MAX_BRANCH_IDS];
        for (bid, dst) in scd.iter_mut().take(self.nbids).enumerate() {
            *dst = self.core.scd_state(bid);
        }
        b.sync = Some(Box::new(SyncArch {
            regs: self.core.regs,
            fregs: self.core.fregs,
            pc: self.core.pc,
            n: self.n,
            next_flush_at: self.next_flush_at,
            out: self.core.output.clone(),
            scd,
        }));
    }

    /// Fills `b` with up to a batch of retirement records, stopping at
    /// the halting `ecall`, the instruction budget, or a guest fault.
    /// `bop`s are speculated through, not stopped at. A pending
    /// fast-forward span (`record_from` ahead of the current count) runs
    /// first, record-free, and ships its boundary state via
    /// [`Batch::sync`].
    pub(super) fn fill(&mut self, b: &mut Batch) -> Stop {
        if self.test_panic {
            panic!("test-injected replay producer panic");
        }
        b.len = 0;
        b.sync = None;
        // Fast-forward span (warm legs only): run the core at full
        // functional speed with no records, chunked at the flush-quantum
        // boundaries exactly as the sampled scheduler's fast-forward leg
        // chunks its runs. No undo logging: rollback targets can never
        // precede `record_from`.
        while self.n < self.record_from {
            if self.n >= self.max_insts {
                self.attach_sync(b);
                return Stop::Limit;
            }
            if self.n + 1 >= self.next_flush_at {
                self.core.flush_rop();
                self.next_flush_at = self.next_flush_at.saturating_add(self.flush_interval);
            }
            let stop = self
                .record_from
                .min(self.max_insts)
                .min(self.next_flush_at.saturating_sub(1));
            let before = self.core.instructions;
            let r = self.core.run(self.core.instructions + (stop - self.n));
            self.n += self.core.instructions - before;
            match r {
                Ok(_) => {
                    // The halting `ecall` retired inside the span; the
                    // consumer reconstructs the exit from the adopted
                    // registers.
                    self.attach_sync(b);
                    return Stop::Exit;
                }
                Err(RefError::InstLimit { .. }) => {}
                Err(e) => {
                    self.attach_sync(b);
                    return Stop::Err(e);
                }
            }
        }
        self.attach_sync(b);
        loop {
            if self.n >= self.max_insts {
                return Stop::Limit;
            }
            if b.len == b.recs.len() {
                return Stop::Full;
            }
            let pc = self.core.pc;
            if pc < self.text_base || pc >= self.text_end || !pc.is_multiple_of(4) {
                return Stop::Err(RefError::PcOutOfRange { pc });
            }
            let idx = ((pc - self.text_base) / 4) as usize;
            self.flush_quantum(self.n + 1);
            let inst = self.insts[idx];
            // Branch outcomes are captured *before* the step from the
            // source operands (see `ReplayRec::taken`); stores log
            // their old bytes; `bop`s speculate via the architectural
            // JTE map.
            let mut taken = false;
            let mut hint = BopHint::Miss;
            match inst {
                Inst::Branch { op, rs1, rs2, .. } => {
                    taken = exec::branch_taken(
                        op,
                        self.core.regs[rs1.index()],
                        self.core.regs[rs2.index()],
                    );
                }
                Inst::Bop { bid } => {
                    if let Some(t) = self.core.bop_auto_target(bid) {
                        taken = true;
                        hint = BopHint::Target(t);
                    }
                }
                Inst::Store {
                    op, rs1, offset, ..
                } => {
                    let addr = self.core.regs[rs1.index()].wrapping_add(offset as u64);
                    self.log_store(addr, exec::store_width(op));
                }
                Inst::Fsd { rs1, offset, .. } => {
                    let addr = self.core.regs[rs1.index()].wrapping_add(offset as u64);
                    self.log_store(addr, 8);
                }
                _ => {}
            }
            let sa = match self.core.step(hint) {
                Ok(sa) => sa,
                Err(e) => return Stop::Err(e),
            };
            self.n += 1;
            let rec = &mut b.recs[b.len];
            rec.idx = idx as u32;
            rec.taken = taken;
            rec.a = match inst {
                Inst::Jalr { .. } | Inst::Jru { .. } | Inst::Bop { .. } => sa.next_pc,
                _ => match (sa.wx, sa.wf) {
                    (Some((_, v)), _) => v,
                    (None, Some((_, v))) => v,
                    (None, None) => 0,
                },
            };
            rec.ea = sa.ea.unwrap_or(0);
            rec.c = match inst {
                Inst::LoadOp { bid, .. } => self.core.rop_d(bid as usize),
                _ => sa.store.unwrap_or(0),
            };
            b.len += 1;
            if sa.exited.is_some() {
                return Stop::Exit;
            }
        }
    }
}

/// Best-effort extraction of a panic payload's message (panics carry
/// `String` or `&'static str` in practice; anything else is opaque).
pub(super) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// The producer thread body: fill batches, ship them, obey control
/// messages. Returns the core (with the guest memory, rewound to
/// wherever the consumer stopped) for the machine to take back.
pub(super) fn producer_loop(
    mut p: Producer,
    work_tx: mpsc::SyncSender<Box<Batch>>,
    down_rx: mpsc::Receiver<Down>,
) -> RefCore {
    let mut free: Vec<Box<Batch>> = (0..CHANNEL_DEPTH + 1)
        .map(|_| Box::new(Batch::new()))
        .collect();
    // After a terminal batch (exit/limit/fault) the producer parks: only
    // a rollback (the terminal state was speculative) or a stop can
    // follow.
    let mut parked = false;
    loop {
        loop {
            let block = parked || free.is_empty();
            let msg = if block {
                match down_rx.recv() {
                    Ok(m) => m,
                    // Consumer hung up without a stop: panic unwind on
                    // its side. Abandon the run.
                    Err(_) => return p.core,
                }
            } else {
                match down_rx.try_recv() {
                    Ok(m) => m,
                    Err(_) => break,
                }
            };
            match msg {
                Down::Recycle(b, acked) => {
                    p.prune_undo(acked);
                    free.push(b);
                }
                Down::Rollback(st) => {
                    p.rollback(&st);
                    parked = false;
                }
                Down::Stop(n) => {
                    p.unwind_to(n);
                    return p.core;
                }
            }
        }
        let mut b = free.pop().expect("free batch after the drain loop");
        b.gen = p.gen;
        let stop = p.fill(&mut b);
        b.stop = stop;
        if work_tx.send(b).is_err() {
            return p.core;
        }
        if matches!(stop, Stop::Exit | Stop::Limit | Stop::Err(_)) {
            parked = true;
        }
    }
}

impl Machine {
    /// Builds the execute-ahead producer around the *moved* guest
    /// memory. `record_from` is the retirement number at which record
    /// emission starts: pure replay passes the current count (record
    /// everything), warm legs pass the fast-forward boundary.
    pub(super) fn make_producer(&mut self, max_insts: u64, record_from: u64) -> Producer {
        let scd_cfg: ScdConfig = self.cfg.scd;
        let nbids = scd_cfg.branch_ids.min(super::MAX_BRANCH_IDS);
        Producer {
            core: self.make_ref_core(),
            insts: Arc::clone(&self.insts),
            text_base: self.text_base,
            text_end: self.text_end,
            max_insts,
            n: self.stats.instructions,
            record_from,
            // A producer that records from its first instruction has no
            // fast-forward boundary to ship.
            sync_sent: record_from <= self.stats.instructions,
            next_flush_at: self.next_flush_at,
            flush_interval: scd_cfg.flush_interval.unwrap_or(u64::MAX),
            gen: 0,
            nbids,
            undo: VecDeque::new(),
            test_panic: self.test_producer_panic,
        }
    }

    /// A reference core at the machine's architectural state, owning the
    /// *moved* guest memory and sharing the threaded text (built on
    /// first use). The fast-forward leg and the replay producer both
    /// start here; [`Machine::take_back_core`] returns the memory.
    pub(super) fn make_ref_core(&mut self) -> RefCore {
        let scd_cfg: ScdConfig = self.cfg.scd;
        let nbids = scd_cfg.branch_ids.min(super::MAX_BRANCH_IDS);
        let segments: Vec<Segment> = self
            .mem
            .take_all_data()
            .into_iter()
            .map(|(name, base, data)| Segment {
                name: name.to_string(),
                base,
                data,
            })
            .collect();
        let (text_base, insts) = (self.text_base, &self.insts);
        let text = self.ff_text.get_or_insert_with(|| {
            Arc::new(scd_ref::Text::new(
                text_base,
                insts.iter().copied().map(Some).collect(),
            ))
        });
        let mut core = RefCore::from_owned_state(
            Arc::clone(text),
            segments,
            self.regs,
            self.fregs,
            self.pc,
            scd_cfg.enabled,
            scd_cfg.branch_ids,
        );
        // Only the first `nbids` SCD register sets are architecturally
        // live; seeding the dormant tail would alias into live slots
        // through the oracle's `bid % nbids` reduction.
        for (bid, s) in self.scd.iter().take(nbids).enumerate() {
            core.seed_scd(bid, s.rop_v, s.rop_d, s.rmask);
        }
        core
    }

    /// Takes the guest memory back from a finished reference core.
    pub(super) fn take_back_core(&mut self, core: RefCore) {
        let hws = core.seg_high_waters().to_vec();
        self.mem
            .put_back_data(core.into_segments().into_iter().map(|s| s.data).zip(hws));
    }

    /// The execute-ahead run loop: functionally identical to
    /// [`Machine::run`]'s interleaved loop (same `Exit`/`SimError`
    /// behavior, bit-identical `SimStats`), reached from `run` on
    /// untraced machines unless [`Machine::set_replay`]`(false)` pinned
    /// the interleaved reference loop.
    pub(super) fn run_replay(&mut self, max_insts: u64) -> Result<Exit, SimError> {
        let scd_cfg: ScdConfig = self.cfg.scd;
        let nbids = scd_cfg.branch_ids.min(super::MAX_BRANCH_IDS);
        let cycle_budget = self.cycle_budget;
        let wall_budget = self.wall_budget;
        let wall_start = std::time::Instant::now();
        let out_base = self.output.len();

        let producer = self.make_producer(max_insts, self.stats.instructions);
        let (work_tx, work_rx) = mpsc::sync_channel::<Box<Batch>>(CHANNEL_DEPTH);
        let (down_tx, down_rx) = mpsc::channel::<Down>();
        let thread = std::thread::spawn(move || producer_loop(producer, work_tx, down_rx));

        // The instruction limit fires only at batch boundaries (the
        // producer never emits past the budget); cycle/wall watchdogs
        // need the interleaved loop's per-retirement check, but only
        // when armed.
        let per_rec_watchdogs = cycle_budget.is_some() || wall_budget.is_some();
        let mut expected_gen = 0u32;
        let mut result: Option<Result<Exit, SimError>> = None;
        while result.is_none() {
            let mut batch = match work_rx.recv() {
                Ok(b) => b,
                // Producer panicked; the join below propagates it.
                Err(_) => break,
            };
            if batch.gen != expected_gen {
                // Speculated past a rolled-back bop; discard.
                let _ = down_tx.send(Down::Recycle(batch, self.stats.instructions));
                continue;
            }
            let stop = batch.stop;
            let mut rolled_back = false;
            for i in 0..batch.len {
                if per_rec_watchdogs {
                    if let Some(e) =
                        self.replay_watchdogs(max_insts, cycle_budget, wall_budget, &wall_start)
                    {
                        result = Some(Err(e));
                        break;
                    }
                }
                let rec = batch.recs[i];
                if self.static_info[rec.idx as usize].class == InstClass::Bop {
                    if !self.replay_bop::<false>(&rec, nbids, &scd_cfg, WarmGates::ALL) {
                        // Mis-speculated: the consumer (which just
                        // resolved the bop for real) is the exact point
                        // to restart from.
                        expected_gen = expected_gen.wrapping_add(1);
                        let st = Box::new(self.sync_state(out_base));
                        let _ = down_tx.send(Down::Rollback(st));
                        rolled_back = true;
                        break;
                    }
                    continue;
                }
                match self.replay_one::<false>(&rec, nbids, &scd_cfg, WarmGates::ALL) {
                    Ok(None) => {}
                    Ok(Some(exit)) => {
                        result = Some(Ok(exit));
                        break;
                    }
                    Err(e) => {
                        result = Some(Err(e));
                        break;
                    }
                }
            }
            batch.len = 0;
            let _ = down_tx.send(Down::Recycle(batch, self.stats.instructions));
            if rolled_back || result.is_some() {
                continue;
            }
            match stop {
                Stop::Full | Stop::Exit => {}
                Stop::Limit => {
                    // The producer's budget is the consumer's remaining
                    // instruction allowance, so the limit pre-check
                    // must fire here exactly as the interleaved loop's
                    // does.
                    let e = self
                        .replay_watchdogs(max_insts, cycle_budget, wall_budget, &wall_start)
                        .expect("producer stopped at the instruction limit");
                    result = Some(Err(e));
                }
                Stop::Err(e) => {
                    result = Some(Err(
                        match self.replay_watchdogs(
                            max_insts,
                            cycle_budget,
                            wall_budget,
                            &wall_start,
                        ) {
                            Some(w) => w,
                            None => self.replicate_error::<false>(e, &scd_cfg),
                        },
                    ));
                }
            }
        }

        // Teardown: stop the producer at the consumer's exact
        // retirement, drain it out of any blocked send, and take the
        // guest memory (rewound past that retirement) back.
        self.flush_fetch_streak();
        let _ = down_tx.send(Down::Stop(self.stats.instructions));
        while work_rx.recv().is_ok() {}
        let core = match thread.join() {
            Ok(core) => core,
            Err(payload) => {
                // The producer thread panicked. Contain it: its panic
                // becomes a typed error, never a re-panic — one bad cell
                // must not abort a whole batch driver. The producer owned
                // the guest memory, so the machine's contents are gone;
                // `SimError::ProducerPanic` documents that the machine
                // must be discarded.
                self.finalize_partial();
                return Err(SimError::ProducerPanic {
                    message: panic_message(&*payload),
                });
            }
        };
        self.take_back_core(core);
        match result {
            Some(r) => r,
            None => unreachable!("replay producer disconnected without a terminal batch"),
        }
    }

    /// Captures the consumer's exact architectural point for a producer
    /// rollback.
    pub(super) fn sync_state(&self, out_base: usize) -> SyncState {
        let mut scd = [(false, 0u64, 0u64); super::MAX_BRANCH_IDS];
        for (dst, s) in scd.iter_mut().zip(self.scd.iter()) {
            *dst = (s.rop_v, s.rop_d, s.rmask);
        }
        SyncState {
            regs: self.regs,
            fregs: self.fregs,
            pc: self.pc,
            n: self.stats.instructions,
            next_flush_at: self.next_flush_at,
            out_len: self.output.len() - out_base,
            scd,
        }
    }

    /// The interleaved loop's pre-retirement checks, in its order:
    /// instruction limit, then cycle watchdog, then (every 4096
    /// retirements) the wall-clock watchdog.
    pub(super) fn replay_watchdogs(
        &mut self,
        max_insts: u64,
        cycle_budget: Option<u64>,
        wall_budget: Option<std::time::Duration>,
        wall_start: &std::time::Instant,
    ) -> Option<SimError> {
        if self.stats.instructions >= max_insts {
            self.finalize_partial();
            return Some(SimError::InstLimit { limit: max_insts });
        }
        if cycle_budget.is_some_and(|b| self.cycle >= b) {
            self.finalize_partial();
            return Some(SimError::Watchdog {
                kind: WatchdogKind::Cycles,
                instructions: self.stats.instructions,
                cycles: self.cycle,
            });
        }
        if let Some(wall) = wall_budget {
            if self.stats.instructions.is_multiple_of(4096) && wall_start.elapsed() >= wall {
                self.finalize_partial();
                return Some(SimError::Watchdog {
                    kind: WatchdogKind::WallClock,
                    instructions: self.stats.instructions,
                    cycles: self.cycle,
                });
            }
        }
        None
    }

    /// Replays one recorded retirement: the interleaved loop's stage
    /// sequence with the execute stage's timing twin. Under `WARMING`
    /// this is the twin of `run_loop::<false, true>`: no issue
    /// scoreboard, `fetch_fast::<true>` (clock frozen), with `gates`
    /// selecting which structure classes actually update — uniform
    /// all-on gates leave state bit-identical to
    /// [`Machine::run_warming`].
    #[inline]
    pub(super) fn replay_one<const WARMING: bool>(
        &mut self,
        rec: &ReplayRec,
        nbids: usize,
        scd_cfg: &ScdConfig,
        gates: WarmGates,
    ) -> Result<Option<Exit>, SimError> {
        let idx = rec.idx as usize;
        let pc = self.text_base + 4 * idx as u64;
        debug_assert_eq!(pc, self.pc, "replay stream out of sync with consumer PC");
        let inst = self.insts[idx];
        let si = self.static_info[idx];
        if !WARMING || gates.cache {
            self.fetch_fast::<WARMING>(pc);
        }
        if !WARMING {
            self.issue(&si);
        }
        self.begin_retirement::<false>(si.in_dispatch, scd_cfg);
        let step = self.replay_inst::<WARMING>(&inst, pc, rec, nbids, scd_cfg, gates)?;
        if let Some(code) = step.exit_code {
            self.finalize_partial();
            return Ok(Some(Exit {
                code,
                output: std::mem::take(&mut self.output),
            }));
        }
        self.pc = step.next_pc;
        Ok(None)
    }

    /// Resolves a `bop` with the real front end (stall scheme, JTE
    /// lookup, redirect charging — all timing-dependent), retiring it
    /// exactly like the interleaved loop. Returns whether the producer's
    /// speculation matched the resolved outcome. `bop` resolution and
    /// JTE training are never gated off in warming mode: the producer's
    /// speculation is checked against the DUT's JTE overlay, and letting
    /// it go stale would turn warm legs into rollback storms.
    pub(super) fn replay_bop<const WARMING: bool>(
        &mut self,
        rec: &ReplayRec,
        nbids: usize,
        scd_cfg: &ScdConfig,
        gates: WarmGates,
    ) -> bool {
        let idx = rec.idx as usize;
        let pc = self.text_base + 4 * idx as u64;
        debug_assert_eq!(pc, self.pc, "replay stream out of sync with consumer PC");
        let si = self.static_info[idx];
        let bid = match self.insts[idx] {
            Inst::Bop { bid } => bid,
            _ => unreachable!("bop record for a non-bop instruction"),
        };
        if !WARMING || gates.cache {
            self.fetch_fast::<WARMING>(pc);
        }
        if !WARMING {
            self.issue(&si);
        }
        self.begin_retirement::<false>(si.in_dispatch, scd_cfg);
        let hits_before = self.stats.bop_hits;
        let mut next_pc = pc + 4;
        self.exec_bop::<false, WARMING>(bid, pc, &mut next_pc, scd_cfg, nbids);
        self.pc = next_pc;
        let hit = self.stats.bop_hits > hits_before;
        hit == rec.taken && next_pc == rec.a
    }

    /// The timing twin of `execute_inst`: every arm mirrors the original
    /// line for line — identical cycle charging, counter updates and
    /// predictor/BTB traffic — with data results applied from the record
    /// instead of computed. Loads skip the memory read entirely; stores
    /// skip the write too (the producer applied it to the shared, moved
    /// guest memory already) and charge timing only.
    ///
    /// Under `WARMING`, `gates` turns structure classes off for the head
    /// of a warm leg with per-structure windows: architectural effects
    /// (registers, counters, scoreboard stamps, SCD state) always apply,
    /// only the cache/BTB/predictor *touches* are withheld.
    fn replay_inst<const WARMING: bool>(
        &mut self,
        inst: &Inst,
        pc: u64,
        rec: &ReplayRec,
        nbids: usize,
        scd_cfg: &ScdConfig,
        gates: WarmGates,
    ) -> Result<StepOut, SimError> {
        let mut next_pc = pc + 4;
        let mut exit_code: Option<u64> = None;

        match *inst {
            Inst::Lui { rd, .. } | Inst::Auipc { rd, .. } => {
                self.wx(rd, rec.a);
                self.xready[rd.index()] = self.cycle + 1;
            }
            Inst::Jal { rd, offset } => {
                let target = pc.wrapping_add(offset as u64);
                self.wx(rd, pc + 4);
                self.xready[rd.index()] = self.cycle + 1;
                next_pc = target;
                if !WARMING || gates.btb {
                    self.replay_jal_predict::<WARMING>(pc, target);
                }
                if (!WARMING || gates.pred) && rd == Reg::RA {
                    self.ras.push(pc + 4);
                }
            }
            Inst::Jalr { rd, rs1, .. } => {
                let target = rec.a;
                self.wx(rd, pc + 4);
                self.xready[rd.index()] = self.cycle + 1;
                next_pc = target;
                if !WARMING || gates.pred {
                    self.account_indirect::<false, WARMING>(pc, rd, rs1, target);
                }
            }
            Inst::Branch { offset, .. } => {
                let taken = rec.taken;
                let target = pc.wrapping_add(offset as u64);
                if !WARMING || (gates.btb && gates.pred) {
                    self.replay_branch_predict::<WARMING>(pc, target, taken, &mut next_pc);
                } else {
                    // Split windows: train each structure alone, with
                    // the same update rules as the full arm.
                    use crate::btb::BtbKey;
                    if gates.pred {
                        self.direction.update(pc, taken);
                    }
                    if gates.btb {
                        let pred = self.btb.lookup_leveled(BtbKey::Pc(pc));
                        if taken && pred.map(|(t, _)| t) != Some(target) {
                            let _ = self.btb.insert(BtbKey::Pc(pc), target);
                        }
                    }
                    if taken {
                        next_pc = target;
                    }
                }
            }
            Inst::Load { rd, .. } => {
                let addr = rec.ea;
                self.wx(rd, rec.a);
                self.stats.loads += 1;
                if !WARMING || gates.cache {
                    self.data_timing::<false, WARMING>(addr, false);
                }
                self.xready[rd.index()] = self.cycle + 1 + self.cfg.load_use_penalty;
            }
            Inst::Store { .. } => {
                let addr = rec.ea;
                self.stats.stores += 1;
                if !WARMING || gates.cache {
                    self.data_timing::<false, WARMING>(addr, true);
                }
            }
            Inst::OpImm { rd, .. } => {
                self.wx(rd, rec.a);
                self.xready[rd.index()] = self.cycle + 1;
            }
            Inst::Op { op, rd, .. } => {
                self.wx(rd, rec.a);
                let lat = if op.is_muldiv() {
                    if matches!(op, AluOp::Mul | AluOp::Mulh | AluOp::Mulhu | AluOp::Mulw) {
                        self.cfg.mul_latency
                    } else {
                        self.cfg.div_latency
                    }
                } else {
                    1
                };
                self.xready[rd.index()] = self.cycle + lat;
            }
            Inst::Fld { rd, .. } => {
                let addr = rec.ea;
                self.fregs[rd.index()] = rec.a;
                self.stats.loads += 1;
                if !WARMING || gates.cache {
                    self.data_timing::<false, WARMING>(addr, false);
                }
                self.fready[rd.index()] = self.cycle + 1 + self.cfg.load_use_penalty;
            }
            Inst::Fsd { .. } => {
                let addr = rec.ea;
                self.stats.stores += 1;
                if !WARMING || gates.cache {
                    self.data_timing::<false, WARMING>(addr, true);
                }
            }
            Inst::FOp { op, rd, .. } => {
                self.fregs[rd.index()] = rec.a;
                let lat = match op {
                    FpOp::FdivD | FpOp::FsqrtD => self.cfg.fdiv_latency,
                    _ => self.cfg.fpu_latency,
                };
                self.fready[rd.index()] = self.cycle + lat;
            }
            Inst::FCmp { rd, .. } | Inst::FcvtLD { rd, .. } => {
                self.wx(rd, rec.a);
                self.xready[rd.index()] = self.cycle + self.cfg.fpu_latency;
            }
            Inst::FcvtDL { rd, .. } => {
                self.fregs[rd.index()] = rec.a;
                self.fready[rd.index()] = self.cycle + self.cfg.fpu_latency;
            }
            Inst::FmvXD { rd, .. } => {
                self.wx(rd, rec.a);
                self.xready[rd.index()] = self.cycle + 1;
            }
            Inst::FmvDX { rd, .. } => {
                self.fregs[rd.index()] = rec.a;
                self.fready[rd.index()] = self.cycle + 1;
            }
            Inst::Ecall => {
                // The consumer's registers are exact, so the service
                // dispatch reads them just like the interleaved loop.
                match self.regs[Reg::A7.index()] {
                    0 => exit_code = Some(self.regs[Reg::A0.index()]),
                    1 => self.output.push(self.regs[Reg::A0.index()] as u8),
                    _ => return Err(SimError::Break { pc }),
                }
            }
            Inst::Ebreak => return Err(SimError::Break { pc }),
            Inst::Fence => {}

            // ---- SCD extension ----
            Inst::SetMask { bid, rs1 } => {
                let bid = bid as usize % nbids.max(1);
                self.scd[bid].rmask = self.regs[rs1.index()];
            }
            Inst::Bop { .. } => {
                unreachable!("bop records are resolved by replay_bop, not replayed")
            }
            Inst::Jru { bid, rs1 } => {
                // Operand registers and SCD state are exact, so the slow
                // path (JTE training + indirect prediction) runs as-is.
                // With the predictor gated off, the JTE overlay still
                // trains (the `bop` speculation contract depends on it);
                // only the ITTAGE/BTB indirect accounting is withheld.
                next_pc = if !WARMING || gates.pred {
                    self.exec_jru::<false, WARMING>(bid, rs1, pc, scd_cfg, nbids)
                } else {
                    self.exec_jru_train_only(bid, rs1, pc, scd_cfg, nbids)
                };
                debug_assert_eq!(next_pc, rec.a, "jru target diverged from producer");
            }
            Inst::JteFlush => {
                let flushed = self.jte_flush();
                self.note_flush::<false>(flushed);
            }
            Inst::LoadOp { bid, rd, .. } => {
                let bid = bid as usize % nbids.max(1);
                let addr = rec.ea;
                self.wx(rd, rec.a);
                self.stats.loads += 1;
                if !WARMING || gates.cache {
                    self.data_timing::<false, WARMING>(addr, false);
                }
                let ready = self.cycle + 1 + self.cfg.load_use_penalty;
                self.xready[rd.index()] = ready;
                let s = &mut self.scd[bid];
                s.rop_d = rec.c;
                s.rop_v = true;
                s.rop_ready = ready;
            }
        }

        Ok(StepOut { next_pc, exit_code })
    }

    /// The `jal` arm's prediction/accounting, verbatim from
    /// `execute_inst`.
    fn replay_jal_predict<const WARMING: bool>(&mut self, pc: u64, target: u64) {
        use crate::btb::{BtbKey, EntryKind};
        use crate::stats::BranchClass;
        use crate::trace::RedirectCause;
        let pred = self.btb.lookup_leveled(BtbKey::Pc(pc));
        self.charge_l1_late_target::<WARMING>(pred.is_some_and(|(_, l1)| l1));
        let hit = pred.map(|(t, _)| t) == Some(target);
        if !hit {
            let out = self.btb.insert(BtbKey::Pc(pc), target);
            self.note_insert::<false>(EntryKind::Pc, out);
            self.redirect::<false, WARMING>(RedirectCause::JalMiss, self.cfg.jal_redirect_penalty);
        }
        self.note_branch::<false>(BranchClass::Direct, !hit);
    }

    /// The conditional-branch arm's prediction/accounting, verbatim from
    /// `execute_inst`, with the outcome supplied by the record.
    fn replay_branch_predict<const WARMING: bool>(
        &mut self,
        pc: u64,
        target: u64,
        taken: bool,
        next_pc: &mut u64,
    ) {
        use crate::btb::{BtbKey, EntryKind};
        use crate::stats::BranchClass;
        use crate::trace::RedirectCause;
        let dir_pred = self.direction.predict(pc);
        let pred = self.btb.lookup_leveled(BtbKey::Pc(pc));
        // Fetch acts on the BTB target only when the direction
        // predictor says taken; only then can L1 lateness bite.
        self.charge_l1_late_target::<WARMING>(dir_pred && pred.is_some_and(|(_, l1)| l1));
        let btb_hit = pred.map(|(t, _)| t) == Some(target);
        let pred_taken = dir_pred && btb_hit;
        let mispredicted = pred_taken != taken;
        self.direction.update(pc, taken);
        if taken {
            *next_pc = target;
            if !btb_hit {
                let out = self.btb.insert(BtbKey::Pc(pc), target);
                self.note_insert::<false>(EntryKind::Pc, out);
            }
        }
        self.note_branch::<false>(BranchClass::Conditional, mispredicted);
        if mispredicted {
            self.redirect::<false, WARMING>(
                RedirectCause::CondMispredict,
                self.cfg.branch_miss_penalty,
            );
        }
    }

    /// Reproduces a producer-detected guest error with the interleaved
    /// loop's exact partial charging: the bounds check precedes any
    /// timing, and a memory fault or trap retires its instruction
    /// (fetch + issue + `begin_retirement`) before erroring out of the
    /// execute stage.
    pub(super) fn replicate_error<const WARMING: bool>(
        &mut self,
        e: RefError,
        scd_cfg: &ScdConfig,
    ) -> SimError {
        match e {
            RefError::PcOutOfRange { pc } => SimError::PcOutOfRange { pc },
            RefError::Mem { pc, addr, write } => {
                let idx = ((pc - self.text_base) / 4) as usize;
                let si = self.static_info[idx];
                self.fetch_fast::<WARMING>(pc);
                if !WARMING {
                    self.issue(&si);
                }
                self.begin_retirement::<false>(si.in_dispatch, scd_cfg);
                let size = match self.insts[idx] {
                    Inst::Load { op, .. } | Inst::LoadOp { op, .. } => exec::load_width(op),
                    Inst::Store { op, .. } => exec::store_width(op),
                    Inst::Fld { .. } | Inst::Fsd { .. } => 8,
                    _ => unreachable!("memory fault on a non-memory instruction"),
                };
                SimError::Mem {
                    pc,
                    fault: MemFault { addr, size, write },
                }
            }
            RefError::Break { pc } => {
                let idx = ((pc - self.text_base) / 4) as usize;
                let si = self.static_info[idx];
                self.fetch_fast::<WARMING>(pc);
                if !WARMING {
                    self.issue(&si);
                }
                self.begin_retirement::<false>(si.in_dispatch, scd_cfg);
                SimError::Break { pc }
            }
            // `from_owned_state` reuses the machine's own decoded
            // instructions, and replay-mode `bop`s only ever carry
            // `Target`/`Miss` hints, so these are internal contract
            // violations, not guest errors.
            RefError::BadInst { pc } => unreachable!("producer failed to decode pc {pc:#x}"),
            RefError::BopUntrained { .. } | RefError::BopNotValid { .. } => {
                unreachable!("replay drives bops with Target/Miss hints")
            }
            RefError::InstLimit { .. } => unreachable!("producer budget is not an error"),
        }
    }
}
