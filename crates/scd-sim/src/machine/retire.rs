//! Retire stage: per-retirement statistics bookkeeping (counters, the
//! emulated context-switch flush quantum, fault injection), trace-event
//! emission, and the cross-counter invariant checkpoint. Also the
//! `note_*` hooks the other stages use to record what happened on the
//! current retirement.

use super::{Machine, StaticInfo};
use crate::btb::{EntryKind, InsertOutcome};
use crate::config::ScdConfig;
use crate::fault::{FaultEvent, FaultKind, FaultPlan};
use crate::stats::BranchClass;
use crate::trace::{ArchInfo, BranchEvent, BtbInsertEvent, JteFlushEvent, TraceEvent};

impl Machine {
    pub(super) fn note_branch<const OBSERVED: bool>(
        &mut self,
        class: BranchClass,
        mispredicted: bool,
    ) {
        self.stats.record_branch(class, mispredicted);
        if OBSERVED {
            self.scratch.branch = Some(BranchEvent { class, mispredicted });
        }
    }

    pub(super) fn note_insert<const OBSERVED: bool>(&mut self, key: EntryKind, outcome: InsertOutcome) {
        if OBSERVED {
            self.scratch.inserts.push(BtbInsertEvent { key, outcome });
        }
    }

    pub(super) fn note_flush<const OBSERVED: bool>(&mut self, flushed: u64) {
        if OBSERVED {
            let f = self.scratch.flush.get_or_insert(JteFlushEvent { flushes: 0, flushed: 0 });
            f.flushes += 1;
            f.flushed += flushed;
        }
    }

    /// Applies one injected fault, returning the number of JTEs it
    /// knocked out (accounted as evictions on both the live counters and
    /// the trace event, so the population identity stays balanced).
    fn inject_fault(&mut self, kind: FaultKind, plan: &mut FaultPlan) -> u64 {
        match kind {
            FaultKind::JteInvalidate => {
                let r = plan.rng().next();
                self.jtes().fault_invalidate_jte(r)
            }
            FaultKind::BtbFlush => {
                let mut evicted = self.btb.fault_flush_all();
                if let Some(t) = &mut self.jte_table {
                    evicted += t.fault_flush_all();
                }
                evicted
            }
            FaultKind::BtbBitFlip => {
                self.btb.fault_flip_bit(plan.rng().next());
                0
            }
            FaultKind::RasFlush => {
                self.ras.clear();
                0
            }
            FaultKind::CacheInvalidate => {
                self.icache.flush();
                self.dcache.flush();
                if let Some(l2) = &mut self.l2 {
                    l2.flush();
                }
                0
            }
            FaultKind::TlbInvalidate => {
                self.itlb.flush();
                self.dtlb.flush();
                0
            }
            FaultKind::PredictorScramble => {
                self.direction.scramble(plan.rng());
                self.ittage.scramble(plan.rng());
                0
            }
        }
    }

    /// Finalizes statistics for a run that ends without a guest exit
    /// (instruction limit or watchdog), leaving the machine re-runnable.
    pub(super) fn finalize_partial(&mut self) {
        self.stats.cycles = self.cycle;
        self.stats.btb = self.merged_btb_stats();
        if let Some(sink) = &mut self.tracer.0 {
            sink.finish();
        }
    }

    /// Retirement bookkeeping that precedes execution: counts the
    /// instruction (and its dispatcher attribution, precomputed in the
    /// static side-table), runs the emulated context-switch flush
    /// quantum, and fires due injected faults. A machine with an armed
    /// fault plan always runs the observed loop, so fault injection is
    /// compiled out of the fast path.
    pub(super) fn begin_retirement<const OBSERVED: bool>(
        &mut self,
        dispatch: bool,
        scd_cfg: &ScdConfig,
    ) {
        self.stats.instructions += 1;
        if dispatch {
            self.stats.dispatch_instructions += 1;
        }
        if self.stats.instructions >= self.next_flush_at {
            // Emulated context switch: the OS executes jte.flush
            // (Section IV).
            let flushed = self.jte_flush();
            self.note_flush::<OBSERVED>(flushed);
            self.next_flush_at += scd_cfg.flush_interval.unwrap_or(u64::MAX);
        }
        // Fault injection fires between retirements, before this
        // instruction executes; the plan is taken out of `self` for
        // the call so `inject_fault` can borrow the machine freely.
        if OBSERVED {
            if let Some(mut plan) = self.fault_plan.take() {
                if let Some(kind) = plan.due(self.stats.instructions) {
                    let evicted = self.inject_fault(kind, &mut plan);
                    self.scratch.fault = Some(FaultEvent { kind, evicted });
                }
                self.fault_plan = Some(plan);
            }
        }
    }

    /// Drains the retirement's scratch attribution into one
    /// [`TraceEvent`], feeds sink and self-checker, and runs the
    /// invariant checkpoint when due (always on the final retirement).
    /// Only called from the observed run loop; decode facts (class,
    /// def-regs, dispatcher attribution) come from the static
    /// side-table.
    pub(super) fn emit_retirement(
        &mut self,
        si: &StaticInfo,
        pc: u64,
        cycle_before: u64,
        next_pc: u64,
        exiting: bool,
    ) {
        if self.tracer.0.is_some() || self.invariants.is_some() {
            let arch = ArchInfo {
                wx: si.def_x.map(|r| (r.index() as u8, self.guest.arch.regs[r.index()])),
                wf: si.def_f.map(|r| (r.index() as u8, self.guest.arch.fregs[r.index()])),
                ea: self.scratch.ea,
                store: self.scratch.store,
                next_pc,
            };
            let ev = TraceEvent {
                seq: self.stats.instructions - 1,
                pc,
                class: si.class,
                cycle: self.cycle,
                cycles: self.cycle - cycle_before,
                dispatch: si.in_dispatch,
                fetch: self.scratch.fetch,
                data: self.scratch.data.filter(|d| !d.is_default()),
                branch: self.scratch.branch,
                redirect: self.scratch.redirect,
                bop: self.scratch.bop,
                inserts: self.scratch.inserts,
                flush: self.scratch.flush,
                fault: self.scratch.fault,
                arch: Some(arch),
            };
            if let Some(sink) = &mut self.tracer.0 {
                sink.event(&ev);
            }
            if let Some(inv) = &mut self.invariants {
                inv.observe(&ev);
            }
            let checkpoint = exiting
                || self.invariants.as_ref().is_some_and(|inv| inv.due(self.stats.instructions));
            if checkpoint && self.invariants.is_some() {
                let mut live = self.stats.clone();
                live.cycles = self.cycle;
                live.btb = self.merged_btb_stats();
                self.btb.assert_population_invariant();
                let mut resident = self.btb.resident_jtes() as u64;
                if let Some(t) = &self.jte_table {
                    t.assert_population_invariant();
                    resident += t.resident_jtes() as u64;
                }
                if let Some(inv) = &self.invariants {
                    inv.check(&live, resident);
                }
            }
        }
    }
}
