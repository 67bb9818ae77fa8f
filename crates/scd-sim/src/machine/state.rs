//! Run/exit types, guest annotations, per-PC profiling, and the
//! checkpoint snapshot/restore implementation — everything about
//! describing and persisting a [`Machine`]'s state rather than
//! advancing it.

use super::{Machine, Scratch};
use crate::snapshot::{self, Load, Save, Snapshot, SnapshotError, Walk};
use crate::{btb::Btb, cache::Cache};
use scd_isa::Reg;
use scd_ref::MemFault;

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
    /// Puts the tables in the form the machine decodes against: sorted
    /// dispatch ranges with empty ones dropped and overlapping ones
    /// merged (a PC counts as dispatcher code if any range holds it),
    /// sorted unique jump PCs, and one VBBI hint per jump PC (the first
    /// registered). The machine normalizes whatever it is given.
    pub fn normalize(&mut self) {
        self.dispatch_ranges.retain(|&(start, end)| start < end);
        self.dispatch_ranges.sort_unstable();
        self.dispatch_ranges.dedup_by(|next, prev| {
            let overlaps = next.0 < prev.1;
            if overlaps {
                prev.1 = prev.1.max(next.1);
            }
            overlaps
        });
        self.dispatch_jumps.sort_unstable();
        self.dispatch_jumps.dedup();
        self.vbbi_hints.sort_by_key(|h| h.jump_pc);
        self.vbbi_hints.dedup_by_key(|h| h.jump_pc);
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
        snapshot::fnv1a(h, &(self.text.len() as u64).to_le_bytes())
    }

    /// Captures the complete machine state — architectural (registers,
    /// PC, memory, guest output) and micro-architectural (caches, TLBs,
    /// predictors, BTB/JTE, SCD registers, pipeline scoreboard, and all
    /// statistics) — such that [`Machine::restore`] followed by `run`
    /// reproduces the uninterrupted run bit for bit, stats included.
    ///
    /// Takes `&mut self` because saving and restoring share one walk
    /// over the machine's fields; saving leaves every field unchanged.
    ///
    /// Not captured: trace sinks, the stat self-checker, profiling
    /// buffers, fault plans and watchdog budgets. Re-arm those on the
    /// restored machine if needed.
    pub fn snapshot(&mut self) -> Snapshot {
        let mut save = Save::default();
        self.walk(&mut save).expect("saving a machine cannot fail");
        Snapshot {
            fingerprint: self.fingerprint(),
            words: save.0,
            segments: self.guest.mem.snapshot_segments(),
            output: self.guest.output.clone(),
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
    /// the memory layout, a table's shape, an optional structure or an
    /// index word does not line up. A failed restore leaves the machine
    /// partly overwritten.
    pub fn restore(&mut self, snap: &Snapshot) -> Result<(), SnapshotError> {
        let expected = self.fingerprint();
        if snap.fingerprint != expected {
            return Err(SnapshotError::Fingerprint { expected, found: snap.fingerprint });
        }
        self.guest.mem.restore_segments(&snap.segments).map_err(SnapshotError::Format)?;
        let mut load = Load(&snap.words);
        self.walk(&mut load)?;
        if !load.0.is_empty() {
            return Err(SnapshotError::Format(format!("{} unconsumed words", load.0.len())));
        }
        self.guest.output = snap.output.clone();
        self.scratch = Scratch::default();
        self.invariants = None;
        Ok(())
    }

    /// The checkpoint walk over every timing-relevant field, in word
    /// order. Memory segments and guest output travel beside the words.
    pub(super) fn walk(&mut self, w: &mut impl Walk) -> Result<(), SnapshotError> {
        let arch = &mut self.guest.arch;
        // Entry 32 of the ready arrays is the constant-zero scoreboard
        // sentinel — derived state, not snapshotted.
        let core = arch.regs.iter_mut().chain(&mut arch.fregs);
        let scoreboard = self.xready[..32].iter_mut().chain(&mut self.fready[..32]);
        for r in core.chain([&mut arch.pc, &mut self.cycle]).chain(scoreboard) {
            w.word(r)?;
        }
        w.word(&mut self.issued_this_cycle)?;
        w.word(&mut self.prev_def_mask)?;
        w.word(&mut self.prev_fdef_mask)?;
        w.flags([&mut self.prev_was_mem], "previous-instruction flag")?;
        for (s, t) in arch.scd.iter_mut().zip(&mut self.scd_timing) {
            w.flags([&mut s.rop_v], "Rop.v")?;
            w.word(&mut s.rop_d)?;
            w.word(&mut s.rmask)?;
            w.word(&mut t.rbop_pc)?;
            w.word(&mut t.rop_ready)?;
        }
        w.word(&mut self.next_flush_at)?;
        self.stats.walk(w)?;
        self.icache.walk(w)?;
        self.dcache.walk(w)?;
        w.present(self.l2.as_mut(), "L2 presence", Cache::walk)?;
        self.itlb.walk(w)?;
        self.dtlb.walk(w)?;
        self.direction.walk(w)?;
        self.btb.walk(w)?;
        w.present(self.jte_table.as_mut(), "JTE-table presence", Btb::walk)?;
        self.ras.walk(w)?;
        self.ittage.walk(w)
    }
}
