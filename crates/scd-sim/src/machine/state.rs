//! Run/exit types, guest annotations, per-PC profiling, and the
//! checkpoint snapshot/restore implementation — everything about
//! describing and persisting a [`Machine`]'s state rather than
//! advancing it.

use super::{Machine, Scratch};
use crate::mem::MemFault;
use crate::snapshot::{self, Cursor, Snapshot, SnapshotError};
use scd_isa::Reg;

/// Guest-binary metadata used for statistics attribution and VBBI.
#[derive(Debug, Clone, Default)]
pub struct Annotations {
    /// PC ranges counted as dispatcher code (half-open), sorted.
    pub dispatch_ranges: Vec<(u64, u64)>,
    /// PCs of the dispatch indirect jumps (the `jmp`/`jru` of Fig. 1/4).
    pub dispatch_jumps: Vec<u64>,
    /// VBBI hint registrations: on the listed jump PCs the BTB is indexed
    /// by hash(PC, masked hint-register value).
    pub vbbi_hints: Vec<VbbiHint>,
}

impl Annotations {
    /// Sorts internal tables; call after populating the fields.
    pub fn normalize(&mut self) {
        self.dispatch_ranges.sort_unstable();
        self.dispatch_jumps.sort_unstable();
        self.vbbi_hints.sort_unstable_by_key(|h| h.jump_pc);
    }

    /// Whether `pc` lies inside any (normalized) dispatcher range. Only
    /// consulted when the static side-table is (re)built; the hot path
    /// reads the precomputed per-instruction bit instead.
    pub fn contains_dispatch(&self, pc: u64) -> bool {
        let i = self.dispatch_ranges.partition_point(|&(_, end)| end <= pc);
        self.dispatch_ranges.get(i).is_some_and(|&(start, _)| pc >= start)
    }
}

/// One VBBI hint registration (Section II-A / reference \[9\] in the paper).
#[derive(Debug, Clone, Copy)]
pub struct VbbiHint {
    /// PC of the indirect jump to predict with value-based indexing.
    pub jump_pc: u64,
    /// Register whose value correlates with the target (the opcode).
    pub hint_reg: Reg,
    /// Mask applied to the hint value.
    pub mask: u64,
}

/// Why a simulation run ended abnormally.
#[derive(Debug)]
pub enum SimError {
    /// Memory fault at `pc`.
    Mem {
        /// PC of the faulting instruction.
        pc: u64,
        /// The underlying access fault.
        fault: MemFault,
    },
    /// PC left the text section.
    PcOutOfRange {
        /// The runaway PC value.
        pc: u64,
    },
    /// The instruction-count budget was exhausted.
    InstLimit {
        /// The exhausted budget.
        limit: u64,
    },
    /// The guest executed `ebreak` (guest-side assertion failure).
    Break {
        /// PC of the `ebreak`.
        pc: u64,
    },
    /// A watchdog budget expired (see [`Machine::set_cycle_budget`] and
    /// [`Machine::set_wall_budget`]). Statistics are finalized for the
    /// partial run before this is returned.
    Watchdog {
        /// Which budget fired.
        kind: WatchdogKind,
        /// Instructions retired when the watchdog fired.
        instructions: u64,
        /// Simulated cycles elapsed when the watchdog fired.
        cycles: u64,
    },
}

/// Which watchdog budget expired.
///
/// Every loop iteration of [`Machine::run`] retires exactly one
/// instruction, so a guest that retires instructions without making
/// progress (a livelock: an interpreter loop that never reaches its
/// exit `ecall`) eventually exhausts the cycle budget; a simulator-side
/// hang would exhaust the wall-clock budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WatchdogKind {
    /// The simulated-cycle budget was exhausted.
    Cycles,
    /// The host wall-clock budget was exhausted.
    WallClock,
}

impl std::fmt::Display for WatchdogKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            WatchdogKind::Cycles => "cycle",
            WatchdogKind::WallClock => "wall-clock",
        })
    }
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Mem { pc, fault } => write!(f, "at pc {pc:#x}: {fault}"),
            SimError::PcOutOfRange { pc } => write!(f, "pc {pc:#x} outside text section"),
            SimError::InstLimit { limit } => write!(f, "instruction limit {limit} exhausted"),
            SimError::Break { pc } => write!(f, "ebreak at pc {pc:#x}"),
            SimError::Watchdog { kind, instructions, cycles } => write!(
                f,
                "{kind} watchdog fired after {instructions} instructions / {cycles} cycles"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// Successful run result.
#[derive(Debug, PartialEq, Eq)]
pub struct Exit {
    /// Value of `a0` at the halting `ecall`.
    pub code: u64,
    /// Bytes written through the putchar ecall.
    pub output: Vec<u8>,
}

/// Per-static-instruction profile collected by
/// [`Machine::enable_profiling`].
#[derive(Debug, Clone)]
pub struct Profile {
    pub(super) text_base: u64,
    pub(super) insts: Vec<u64>,
    pub(super) cycles: Vec<u64>,
}

impl Profile {
    /// Retired count for the instruction at `pc`.
    pub fn insts_at(&self, pc: u64) -> u64 {
        self.insts.get(((pc - self.text_base) / 4) as usize).copied().unwrap_or(0)
    }

    /// Cycles attributed to the instruction at `pc` (issue slot plus any
    /// stall it caused).
    pub fn cycles_at(&self, pc: u64) -> u64 {
        self.cycles.get(((pc - self.text_base) / 4) as usize).copied().unwrap_or(0)
    }

    /// The `n` hottest instructions by attributed cycles:
    /// `(pc, cycles, retired)`.
    pub fn hottest(&self, n: usize) -> Vec<(u64, u64, u64)> {
        let mut v: Vec<(u64, u64, u64)> = self
            .cycles
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (self.text_base + 4 * i as u64, c, self.insts[i]))
            .collect();
        v.sort_by_key(|&(_, c, _)| std::cmp::Reverse(c));
        v.truncate(n);
        v
    }

    /// Total cycles attributed over a half-open PC range.
    pub fn cycles_in_range(&self, start: u64, end: u64) -> u64 {
        let a = ((start.saturating_sub(self.text_base)) / 4) as usize;
        let b = (((end.saturating_sub(self.text_base)) / 4) as usize).min(self.cycles.len());
        self.cycles[a.min(b)..b].iter().sum()
    }
}

// ---- checkpoint / resume ----

impl Machine {
    /// Identifies the (config, program) pair a snapshot belongs to, so a
    /// restore into a differently-built machine is rejected instead of
    /// silently misinterpreting the word stream.
    fn fingerprint(&self) -> u64 {
        let mut h = snapshot::fnv1a(snapshot::FNV_OFFSET, format!("{:?}", self.cfg).as_bytes());
        h = snapshot::fnv1a(h, &self.text_base.to_le_bytes());
        h = snapshot::fnv1a(h, &self.text_end.to_le_bytes());
        snapshot::fnv1a(h, &(self.insts.len() as u64).to_le_bytes())
    }

    /// Captures the complete machine state — architectural (registers,
    /// PC, memory, guest output) and micro-architectural (caches, TLBs,
    /// predictors, BTB/JTE, SCD registers, pipeline scoreboard, and all
    /// statistics) — such that [`Machine::restore`] followed by `run`
    /// reproduces the uninterrupted run bit for bit, stats included.
    ///
    /// Not captured: trace sinks, the stat self-checker, profiling
    /// buffers, fault plans and watchdog budgets. Re-arm those on the
    /// restored machine if needed.
    pub fn snapshot(&self) -> Snapshot {
        let mut w = Vec::new();
        w.extend_from_slice(&self.regs);
        w.extend_from_slice(&self.fregs);
        w.push(self.pc);
        w.push(self.cycle);
        // Entry 32 of the ready arrays is the constant-zero scoreboard
        // sentinel — derived state, not snapshotted.
        w.extend_from_slice(&self.xready[..32]);
        w.extend_from_slice(&self.fready[..32]);
        w.push(self.issued_this_cycle as u64);
        w.push(self.prev_def_mask as u64);
        w.push(self.prev_fdef_mask as u64);
        w.push(self.prev_was_mem as u64);
        for s in &self.scd {
            w.push(s.rop_v as u64);
            w.push(s.rop_d);
            w.push(s.rmask);
            w.push(s.rbop_pc);
            w.push(s.rop_ready);
        }
        w.push(self.next_flush_at);
        snapshot::stats_to_words(&self.stats, &mut w);
        self.icache.snapshot_words(&mut w);
        self.dcache.snapshot_words(&mut w);
        match &self.l2 {
            Some(l2) => {
                w.push(1);
                l2.snapshot_words(&mut w);
            }
            None => w.push(0),
        }
        self.itlb.snapshot_words(&mut w);
        self.dtlb.snapshot_words(&mut w);
        self.direction.snapshot_words(&mut w);
        self.btb.snapshot_words(&mut w);
        match &self.jte_table {
            Some(t) => {
                w.push(1);
                t.snapshot_words(&mut w);
            }
            None => w.push(0),
        }
        self.ras.snapshot_words(&mut w);
        self.ittage.snapshot_words(&mut w);
        Snapshot {
            fingerprint: self.fingerprint(),
            words: w,
            segments: self.mem.snapshot_segments(),
            output: self.output.clone(),
        }
    }

    /// Restores a [`Machine::snapshot`] into this machine. The machine
    /// must have been built from the same configuration and program and
    /// have the same memory segments mapped.
    ///
    /// The stat self-checker is disarmed: it replays the event stream
    /// from instruction 0, which a mid-stream resume cannot provide.
    ///
    /// # Errors
    /// [`SnapshotError::Fingerprint`] when the snapshot belongs to a
    /// different (config, program) pair; [`SnapshotError::Format`] when
    /// the memory layout or optional structures do not line up.
    pub fn restore(&mut self, snap: &Snapshot) -> Result<(), SnapshotError> {
        let expected = self.fingerprint();
        if snap.fingerprint != expected {
            return Err(SnapshotError::Fingerprint { expected, found: snap.fingerprint });
        }
        self.mem.restore_segments(&snap.segments).map_err(SnapshotError::Format)?;
        let mut c = Cursor::new(&snap.words);
        for r in &mut self.regs {
            *r = c.next()?;
        }
        for r in &mut self.fregs {
            *r = c.next()?;
        }
        self.pc = c.next()?;
        self.cycle = c.next()?;
        for r in &mut self.xready[..32] {
            *r = c.next()?;
        }
        for r in &mut self.fready[..32] {
            *r = c.next()?;
        }
        self.issued_this_cycle = c.next()? as usize;
        self.prev_def_mask = c.next()? as u32;
        self.prev_fdef_mask = c.next()? as u32;
        self.prev_was_mem = c.next()? != 0;
        for s in &mut self.scd {
            s.rop_v = c.next()? != 0;
            s.rop_d = c.next()?;
            s.rmask = c.next()?;
            s.rbop_pc = c.next()?;
            s.rop_ready = c.next()?;
        }
        self.next_flush_at = c.next()?;
        self.stats = snapshot::stats_from_words(&mut c)?;
        self.icache.restore_words(&mut c)?;
        self.dcache.restore_words(&mut c)?;
        let have_l2 = c.next()? != 0;
        match (&mut self.l2, have_l2) {
            (Some(l2), true) => l2.restore_words(&mut c)?,
            (None, false) => {}
            _ => return Err(SnapshotError::Format("L2 presence mismatch".into())),
        }
        self.itlb.restore_words(&mut c)?;
        self.dtlb.restore_words(&mut c)?;
        self.direction.restore_words(&mut c)?;
        self.btb.restore_words(&mut c)?;
        let have_jt = c.next()? != 0;
        match (&mut self.jte_table, have_jt) {
            (Some(t), true) => t.restore_words(&mut c)?,
            (None, false) => {}
            _ => return Err(SnapshotError::Format("JTE-table presence mismatch".into())),
        }
        self.ras.restore_words(&mut c)?;
        self.ittage.restore_words(&mut c)?;
        if c.remaining() != 0 {
            return Err(SnapshotError::Format(format!(
                "{} unconsumed snapshot words",
                c.remaining()
            )));
        }
        self.output = snap.output.clone();
        self.scratch = Scratch::default();
        self.invariants = None;
        Ok(())
    }
}
