//! Front-end stage: instruction fetch timing and the branch predictor
//! complex — direction predictor, BTB, RAS, and the VBBI / ITTAGE
//! indirect predictors — plus the SCD short-circuit itself: `bop`
//! consulting the BTB-overlaid JTEs and the `jru` slow path that
//! trains them (Fig. 4 of the paper).
//!
//! Everything here decides *where fetch goes next* and charges the
//! redirect penalties for getting it wrong; functional semantics live
//! in [`super::execute`].

use super::Machine;
use crate::btb::{Btb, BtbKey, EntryKind};
use crate::config::{IndirectPredictor, ScdConfig};
use crate::stats::BranchClass;
use crate::trace::{BopEvent, BopOutcome, FetchAccess, RedirectCause, RedirectEvent};
use scd_isa::Reg;

impl Machine {
    /// Instruction fetch timing for the instruction at `pc`. Under
    /// `WARMING` the I-TLB / I-cache / L2 contents and statistics update
    /// exactly as in detailed mode, but no miss cycles are charged (the
    /// cycle clock is frozen for the whole warming stretch).
    pub(super) fn fetch_timing<const OBSERVED: bool, const WARMING: bool>(&mut self, pc: u64) {
        let mut f = FetchAccess::default();
        self.stats.itlb.accesses += 1;
        if !self.itlb.access(pc) {
            self.stats.itlb.misses += 1;
            f.itlb_miss = true;
            f.penalty += self.cfg.tlb_miss_penalty;
            if !WARMING {
                self.cycle += self.cfg.tlb_miss_penalty;
            }
        }
        self.stats.icache.accesses += 1;
        let a = self.icache.access(pc, false);
        if !a.hit {
            self.stats.icache.misses += 1;
            f.icache_miss = true;
            let (cost, l2) = self.l1_miss_cost(pc, false);
            f.l2 = l2;
            f.penalty += cost;
            if !WARMING {
                self.cycle += cost;
            }
        }
        if OBSERVED {
            self.scratch.fetch = f;
        }
    }

    /// Fetch timing for the untraced loops: consecutive fetches from
    /// the same I-cache line (which also means the same I-TLB page —
    /// a line never spans a page) are all hits charging zero cycles,
    /// so they collapse into a deferred counter instead of touching
    /// the cache/TLB models per retirement. Any other fetch first
    /// materializes the pending streak — preserving the exact
    /// access-ordering the interleaved loop would have produced — and
    /// takes the full [`Machine::fetch_timing`] path.
    #[inline]
    pub(super) fn fetch_fast<const WARMING: bool>(&mut self, pc: u64) {
        if self.icache.block_of(pc) == self.fetch_blk {
            self.fetch_streak += 1;
        } else {
            self.flush_fetch_streak();
            self.fetch_timing::<false, WARMING>(pc);
            self.fetch_blk = self.icache.block_of(pc);
        }
    }

    /// Materializes a pending fetch streak: `k` deferred same-line
    /// fetches become `k` I-TLB and I-cache accesses (all hits) and one
    /// collapsed MRU re-stamp on each structure's memo-resident entry.
    /// Called before any non-streak I-side access and at every run-loop
    /// exit, so callers never observe deferred state.
    pub(super) fn flush_fetch_streak(&mut self) {
        if self.fetch_streak > 0 {
            self.stats.itlb.accesses += self.fetch_streak;
            self.stats.icache.accesses += self.fetch_streak;
            self.itlb.bump_mru(self.fetch_streak);
            self.icache.bump_mru(self.fetch_streak);
            self.fetch_streak = 0;
        }
        self.fetch_blk = u64::MAX;
    }

    /// Charges a front-end redirect penalty and closes the issue group
    /// (a no-op under `WARMING`: predictor state was already updated by
    /// the caller; only the timing side is suppressed).
    pub(super) fn redirect<const OBSERVED: bool, const WARMING: bool>(
        &mut self,
        cause: RedirectCause,
        penalty: u64,
    ) {
        if !WARMING {
            self.cycle += penalty;
            self.issued_this_cycle = self.cfg.issue_width; // next inst starts a new cycle
        }
        if OBSERVED {
            debug_assert!(
                self.scratch.redirect.is_none(),
                "two redirects in one retirement"
            );
            self.scratch.redirect = Some(RedirectEvent { cause, penalty });
        }
    }

    /// Charges the extra fetch bubbles of a prediction served by the
    /// L1 bank of a two-level BTB (a no-op for the Ideal organization
    /// and under `WARMING`). The late target steers fetch correctly —
    /// no redirect event — it just arrives `l1_bubbles` cycles later
    /// than an L0 hit would have.
    pub(super) fn charge_l1_late_target<const WARMING: bool>(&mut self, from_l1: bool) {
        if !WARMING && from_l1 {
            self.cycle += self.btb.l1_hit_bubbles();
        }
    }

    fn branch_class(&self, pc: u64, rd: Reg, rs1: Reg) -> BranchClass {
        if self.sinfo(pc).dispatch_jump {
            BranchClass::IndirectDispatch
        } else if rs1 == Reg::RA && rd.is_zero() {
            BranchClass::Return
        } else {
            BranchClass::IndirectOther
        }
    }

    /// Predicts and accounts an indirect jump (`jalr`/`jru`) at `pc`
    /// resolving to `target`. Returns nothing; charges penalties.
    pub(super) fn account_indirect<const OBSERVED: bool, const WARMING: bool>(
        &mut self,
        pc: u64,
        rd: Reg,
        rs1: Reg,
        target: u64,
    ) {
        let class = self.branch_class(pc, rd, rs1);
        let mispredicted = match class {
            BranchClass::Return => {
                let pred = self.ras.pop();
                pred != Some(target)
            }
            _ if self.cfg.indirect == IndirectPredictor::Ittage => {
                // ITTAGE covers every indirect jump; the PC-indexed BTB
                // is its base component.
                let pred = self
                    .ittage
                    .predict(pc)
                    .or_else(|| self.btb.lookup(BtbKey::Pc(pc)));
                let miss = pred != Some(target);
                self.ittage.update(pc, target);
                if miss {
                    let out = self.btb.insert(BtbKey::Pc(pc), target);
                    self.note_insert::<OBSERVED>(EntryKind::Pc, out);
                }
                miss
            }
            _ => {
                // VBBI applies only on registered jump PCs under the Vbbi
                // configuration; everything else is PC-indexed.
                let vbbi = self.sinfo(pc).vbbi;
                let key = match (self.cfg.indirect, vbbi) {
                    (IndirectPredictor::Vbbi, Some(h)) => {
                        let hint = self.guest.arch.regs[h.hint_reg.index()] & h.mask;
                        // Warming freezes the cycle clock, which would
                        // make the hint look permanently not-ready and
                        // train the PC-indexed key instead; steady-state
                        // behavior (the thing warming is priming for) is
                        // the hint being available.
                        let ready = WARMING
                            || self.xready[h.hint_reg.index()] + self.cfg.fetch_lead <= self.cycle;
                        if ready {
                            BtbKey::Vbbi(vbbi_mix(pc, hint))
                        } else {
                            BtbKey::Pc(pc)
                        }
                    }
                    _ => BtbKey::Pc(pc),
                };
                let pred = self.btb.lookup_leveled(key);
                // Fetch steers to whatever target the BTB supplies; an
                // L1-served target arrives late whether or not it later
                // verifies.
                self.charge_l1_late_target::<WARMING>(pred.is_some_and(|(_, l1)| l1));
                let miss = pred.map(|(t, _)| t) != Some(target);
                if miss {
                    // Train with the resolved hint value (VBBI updates the
                    // BTB with the actual key at execute).
                    let update_key = match (self.cfg.indirect, vbbi) {
                        (IndirectPredictor::Vbbi, Some(h)) => {
                            let hint = self.guest.arch.regs[h.hint_reg.index()] & h.mask;
                            BtbKey::Vbbi(vbbi_mix(pc, hint))
                        }
                        _ => BtbKey::Pc(pc),
                    };
                    let out = self.btb.insert(update_key, target);
                    self.note_insert::<OBSERVED>(update_key.kind(), out);
                }
                miss
            }
        };
        if rd == Reg::RA {
            self.ras.push(pc + 4);
        }
        self.note_branch::<OBSERVED>(class, mispredicted);
        if mispredicted {
            self.redirect::<OBSERVED, WARMING>(
                RedirectCause::IndirectMispredict,
                self.cfg.branch_miss_penalty,
            );
        }
    }

    /// The JTE store: the dedicated table when there is one (always
    /// Ideal, so its hits are never `from_l1`), else the BTB the JTEs
    /// overlay, with whatever organization it has.
    #[inline]
    pub(super) fn jtes(&mut self) -> &mut Btb {
        self.jte_table.as_mut().unwrap_or(&mut self.btb)
    }

    pub(super) fn merged_btb_stats(&self) -> crate::btb::BtbStats {
        let mut s = self.btb.stats;
        if let Some(t) = &self.jte_table {
            for (sum, n) in s.counters_mut().into_iter().zip(t.stats.counters()) {
                *sum += n;
            }
        }
        s
    }

    pub(super) fn jte_flush(&mut self) -> u64 {
        let flushed = self.jtes().flush_jtes();
        for s in &mut self.guest.arch.scd {
            s.rop_v = false;
        }
        flushed
    }

    /// Executes `bop`: under the stall scheme fetch waits for Rop, then
    /// redirects through the matching JTE; under the fall-through scheme
    /// an unready Rop simply falls through to the slow path.
    ///
    /// Under `WARMING` the frozen cycle clock would make every Rop look
    /// permanently unready (stalling forever under the stall scheme,
    /// never short-circuiting under fall-through), so readiness checks
    /// are bypassed: a valid Rop consults the JTE directly, which is the
    /// steady-state behavior both schemes converge to and keeps the JTE
    /// consume-and-retrain cycle warm.
    pub(super) fn exec_bop<const OBSERVED: bool, const WARMING: bool>(
        &mut self,
        bid: u8,
        pc: u64,
        next_pc: &mut u64,
        scd_cfg: &ScdConfig,
        nbids: usize,
    ) {
        let bid = bid as usize % nbids.max(1);
        self.stats.bop_executed += 1;
        let s = self.guest.arch.scd[bid];
        let rop_ready = self.scd_timing[bid].rop_ready;
        let mut stall = 0;
        let stall_scheme = WARMING || scd_cfg.stall_on_unready;
        let outcome = if !scd_cfg.enabled {
            BopOutcome::Disabled
        } else if !s.rop_v {
            BopOutcome::RopInvalid
        } else if !stall_scheme && rop_ready + self.cfg.fetch_lead > self.cycle {
            // Fall-through scheme: only short-circuit when Rop
            // was already available at fetch.
            BopOutcome::NotReady
        } else {
            if stall_scheme && !WARMING {
                // Stall scheme: fetch waits until Rop is visible.
                let need = rop_ready + self.cfg.fetch_lead;
                if need > self.cycle {
                    stall = need - self.cycle;
                    self.stats.bop_stall_cycles += stall;
                    self.cycle = need;
                }
            }
            match self.jtes().lookup_leveled(BtbKey::Jte { bid: bid as u8, opcode: s.rop_d }) {
                Some((t, from_l1)) => {
                    *next_pc = t;
                    self.guest.arch.scd[bid].rop_v = false;
                    // A JTE served from L1 steers fetch correctly but
                    // late; its bubbles ride the same redirect charge.
                    let late = if from_l1 { self.btb.l1_hit_bubbles() } else { 0 };
                    self.redirect::<OBSERVED, WARMING>(
                        RedirectCause::BopHit,
                        scd_cfg.bop_hit_bubbles + late,
                    );
                    BopOutcome::Hit
                }
                None => BopOutcome::JteMiss,
            }
        };
        if outcome == BopOutcome::Hit {
            self.stats.bop_hits += 1;
        } else {
            self.stats.bop_misses += 1;
        }
        if OBSERVED {
            self.scratch.bop = Some(BopEvent { outcome, stall });
        }
        self.scd_timing[bid].rbop_pc = pc;
    }

    /// Executes `jru`: the dispatch slow path. Trains the JTE with the
    /// pending (opcode → target) pair when one is armed, then predicts
    /// and accounts the jump like any other indirect. Returns the
    /// resolved target.
    pub(super) fn exec_jru<const OBSERVED: bool, const WARMING: bool>(
        &mut self,
        bid: u8,
        rs1: Reg,
        pc: u64,
        scd_cfg: &ScdConfig,
        nbids: usize,
    ) -> u64 {
        let bid = bid as usize % nbids.max(1);
        self.stats.jru_executed += 1;
        let target = self.guest.arch.regs[rs1.index()] & !1;
        if scd_cfg.enabled && self.guest.arch.scd[bid].rop_v {
            let opcode = self.guest.arch.scd[bid].rop_d;
            let out = self.jtes().insert(BtbKey::Jte { bid: bid as u8, opcode }, target);
            self.note_insert::<OBSERVED>(EntryKind::Jte, out);
            self.guest.arch.scd[bid].rop_v = false;
        }
        self.account_indirect::<OBSERVED, WARMING>(pc, Reg::ZERO, rs1, target);
        target
    }
}

fn vbbi_mix(pc: u64, hint: u64) -> u64 {
    (pc >> 2) ^ hint.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_right(17)
}
