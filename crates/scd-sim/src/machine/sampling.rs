//! The sampled-simulation scheduler: drives the machine through the
//! fast-forward → warm → measure cadence of a
//! [`SamplingPlan`](crate::SamplingPlan) and produces the scaled
//! whole-run estimate.
//!
//! Mode seams:
//!
//! * *fast-forward* hands the guest (its memory moved, not copied) to
//!   the `scd-ref` reference core, which runs its pre-decoded threaded
//!   text, and syncs the architectural state back at the leg boundary;
//! * *warming* is the interleaved loop monomorphized with
//!   `WARMING = true`: caches, TLBs, predictors and the JTE overlay
//!   update while the clock stands still. The warm leg is one
//!   `run_warming` call that warms every structure for the plan's
//!   `warmup` retirements;
//! * *measure* is the stock detailed interleaved loop; its counter
//!   deltas feed the [`SampleAccum`](crate::SampleAccum).
//!
//! The emulated context-switch flush quantum is instruction-count
//! driven and mode-independent: the fast-forward leg chunks the
//! reference core's run at every `next_flush_at` boundary and applies
//! both the architectural (`Rop.v` clear) and micro-architectural (JTE
//! flush) effects exactly where the detailed loop would have.

use super::{Exit, Machine, SimError};
use crate::config::ScdConfig;
use crate::mem::MemFault;
use crate::sampling::{SampleAccum, SampleReport, SamplingPlan};
use crate::snapshot::Snapshot;
use crate::stats::SimStats;
use scd_isa::{exec, Inst};
use scd_ref::{RefCore, RefError, Segment};
use std::sync::Arc;

impl Machine {
    /// A reference core at the machine's architectural state, owning the
    /// *moved* guest memory and sharing the threaded text (built on
    /// first use); [`Machine::take_back_core`] returns the memory.
    fn make_ref_core(&mut self) -> RefCore {
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
    fn take_back_core(&mut self, core: RefCore) {
        let hws = core.seg_high_waters().to_vec();
        self.mem
            .put_back_data(core.into_segments().into_iter().map(|s| s.data).zip(hws));
    }

    /// Reproduces a reference-core guest error with the detailed loop's
    /// exact partial charging: the bounds check precedes any timing, and
    /// a memory fault or trap retires its instruction (fetch + issue +
    /// `begin_retirement`) before erroring out of the execute stage.
    fn replicate_error(&mut self, e: RefError, scd_cfg: &ScdConfig) -> SimError {
        let retire_faulting = |m: &mut Machine, pc: u64| {
            let idx = ((pc - m.text_base) / 4) as usize;
            let si = m.static_info[idx];
            m.fetch_fast::<false>(pc);
            m.issue(&si);
            m.begin_retirement::<false>(si.in_dispatch, scd_cfg);
            idx
        };
        match e {
            RefError::PcOutOfRange { pc } => SimError::PcOutOfRange { pc },
            RefError::Mem { pc, addr, write } => {
                let idx = retire_faulting(self, pc);
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
                retire_faulting(self, pc);
                SimError::Break { pc }
            }
            // `from_owned_state` reuses the machine's own decoded
            // instructions and `run` resolves `bop`s itself, so these
            // are internal contract violations, not guest errors.
            RefError::BadInst { pc } => unreachable!("reference core failed to decode pc {pc:#x}"),
            RefError::BopUntrained { .. } | RefError::BopNotValid { .. } => {
                unreachable!("fast-forward resolves bops itself")
            }
            RefError::InstLimit { .. } => unreachable!("leg budget is not an error"),
        }
    }

    /// Runs `insts` instructions in pure architectural fast-forward on
    /// the reference core, then syncs registers, PC, SCD state, guest
    /// output and memory back into the machine. Charges no cycles and
    /// touches no predictive structures (except the flush quantum's JTE
    /// flushes, which land exactly where detailed execution would put
    /// them). Returns the guest's exit code if it halted mid-leg.
    ///
    /// # Errors
    /// Guest faults are replicated with the interleaved loop's partial
    /// charging (see `replicate_error`).
    fn run_fastforward(&mut self, insts: u64) -> Result<Option<u64>, SimError> {
        if insts == 0 {
            return Ok(None);
        }
        let scd_cfg: ScdConfig = self.cfg.scd;
        let nbids = scd_cfg.branch_ids.min(super::MAX_BRANCH_IDS);
        let flush_interval = scd_cfg.flush_interval.unwrap_or(u64::MAX);
        let base = self.stats.instructions;
        let target = base + insts;

        let mut core = self.make_ref_core();

        // Run in chunks bounded by the flush quantum. `begin_retirement`
        // counts the instruction first and flushes when that (1-based)
        // number reaches `next_flush_at`, i.e. *before* the triggering
        // instruction executes — so here the flush fires once the next
        // instruction to execute would be number `next_flush_at`.
        let mut exited: Option<u64> = None;
        let mut fault: Option<scd_ref::RefError> = None;
        loop {
            let done = base + core.instructions;
            if done >= target {
                break;
            }
            if done + 1 >= self.next_flush_at {
                core.flush_rop();
                self.jte_flush();
                self.next_flush_at = self.next_flush_at.saturating_add(flush_interval);
            }
            let stop = target.min(self.next_flush_at.saturating_sub(1));
            match core.run(stop - base) {
                Ok(code) => {
                    exited = Some(code);
                    break;
                }
                Err(scd_ref::RefError::InstLimit { .. }) => {}
                Err(e) => {
                    fault = Some(e);
                    break;
                }
            }
        }

        // Sync the architectural state back. `rop_ready` is stamped with
        // the (frozen) current cycle: everything that happened during
        // fast-forward is architecturally settled by now.
        self.regs = core.regs;
        self.fregs = core.fregs;
        self.pc = core.pc;
        self.stats.instructions += core.instructions;
        self.output.extend_from_slice(&core.output);
        for (bid, s) in self.scd.iter_mut().take(nbids).enumerate() {
            let (rop_v, rop_d, rmask) = core.scd_state(bid);
            s.rop_v = rop_v;
            s.rop_d = rop_d;
            s.rmask = rmask;
            s.rop_ready = self.cycle;
        }
        self.take_back_core(core);

        match fault {
            Some(e) => {
                let err = self.replicate_error(e, &scd_cfg);
                self.flush_fetch_streak();
                Err(err)
            }
            None => Ok(exited),
        }
    }

    /// Runs the guest to completion (or `max_insts`) under `plan`'s
    /// fast-forward → warm → measure cadence, then overwrites
    /// `self.stats` with the measured windows scaled to the exact total
    /// instruction count. Guest output and exit code match full detail;
    /// timing counters are estimates whose dispersion the returned
    /// [`SampleReport`] quantifies.
    ///
    /// The instruction count is exact only for guests that never take a
    /// `bop` (SCD disabled). Fast-forward resolves every `bop` without
    /// the BTB, so it can short-circuit where the detailed core takes the
    /// `jru` slow path and vice versa: `lvm/binary-trees/9/scd` retires
    /// 65,579,815 instructions sampled against 65,571,863 in full detail.
    /// ROADMAP.md open item 1 tracks the fix.
    ///
    /// Requires a fresh, observer-free machine: the per-retirement
    /// observers (tracer, profiler, fault plans) assume they see every
    /// retirement in detailed mode, and the invariant checker's
    /// identities do not hold across mode seams — it is disarmed for the
    /// whole run, including in debug builds.
    ///
    /// If the guest exits before the first measured window completes,
    /// the run restores its initial snapshot and re-runs in exact full
    /// detail (`exact_fallback` in the report) — a guest that short is
    /// cheaper to simulate than to estimate badly.
    ///
    /// # Errors
    /// Same contract as [`Machine::run`]; on `InstLimit` the estimate is
    /// still applied to `self.stats` before the error propagates.
    pub fn run_sampled(
        &mut self,
        max_insts: u64,
        plan: &SamplingPlan,
    ) -> Result<(Exit, SampleReport), SimError> {
        assert_eq!(
            self.stats.instructions, 0,
            "run_sampled requires a fresh machine"
        );
        assert!(
            self.tracer.0.is_none() && self.profile.is_none() && self.fault_plan.is_none(),
            "run_sampled cannot carry per-retirement observers"
        );
        self.invariants = None;

        let initial = self.snapshot();
        let mut acc = SampleAccum::default();
        let mut ff_insts = 0u64;
        let mut warm_insts = 0u64;
        let mut exit: Option<Exit> = None;

        while exit.is_none() && self.stats.instructions < max_insts {
            // --- fast-forward to the next interval's warm point ---
            let ff = plan.skip().min(max_insts - self.stats.instructions);
            if ff > 0 {
                let before = self.stats.instructions;
                let code = self.run_fastforward(ff)?;
                ff_insts += self.stats.instructions - before;
                if let Some(code) = code {
                    exit = Some(Exit {
                        code,
                        output: std::mem::take(&mut self.output),
                    });
                    break;
                }
            }

            // --- functional warming ---
            if plan.warmup > 0 && self.stats.instructions < max_insts {
                let before = self.stats.instructions;
                let res = self.run_warming((before + plan.warmup).min(max_insts));
                warm_insts += self.stats.instructions - before;
                match res {
                    Ok(e) => {
                        exit = Some(e);
                        break;
                    }
                    Err(SimError::InstLimit { .. }) => {}
                    Err(e) => return Err(e),
                }
            }
            if self.stats.instructions >= max_insts {
                break;
            }

            // --- detailed measurement ---
            let until = (self.stats.instructions + plan.measure).min(max_insts);
            let before = self.stats.clone();
            let check = plan.self_check.then(|| self.snapshot());
            let res = self.run_impl::<false>(until);
            let delta = self.stats.delta_since(&before);
            match res {
                Ok(e) => exit = Some(e),
                Err(SimError::InstLimit { .. }) => {}
                Err(e) => return Err(e),
            }
            acc.record(&delta);
            if let Some(snap) = check {
                self.verify_measured_window(&snap, &before, &delta, until, exit.as_ref());
            }
        }

        let total = self.stats.instructions;
        if acc.intervals() == 0 {
            // Too short to sample: the guest exited (or the budget ran
            // out) before any measured window. Re-run exactly.
            self.restore(&initial)
                .expect("restoring a snapshot this run just took");
            let e = self.run(max_insts)?;
            let stats = &self.stats;
            let report = SampleReport {
                plan: *plan,
                intervals: 0,
                total_insts: stats.instructions,
                measured_insts: stats.instructions,
                measured_cycles: stats.cycles,
                ff_insts: 0,
                warm_insts: 0,
                cpi_mean: stats.cycles as f64 / stats.instructions.max(1) as f64,
                cpi_ci95: 0.0,
                cycles_est: stats.cycles,
                cycles_ci95: 0,
                exact_fallback: true,
            };
            return Ok((e, report));
        }

        let (est, cpi_mean, cpi_ci95) = acc.estimate(total);
        let report = SampleReport {
            plan: *plan,
            intervals: acc.intervals(),
            total_insts: total,
            measured_insts: acc.measured_insts(),
            measured_cycles: acc.measured_cycles(),
            ff_insts,
            warm_insts,
            cpi_mean,
            cpi_ci95,
            cycles_est: est.cycles,
            cycles_ci95: (cpi_ci95 * total as f64).round() as u64,
            exact_fallback: false,
        };
        self.stats = est;
        match exit {
            Some(e) => Ok((e, report)),
            None => {
                // Budget exhausted mid-run: same error surface as
                // `Machine::run`, with the estimate already applied.
                Err(SimError::InstLimit { limit: max_insts })
            }
        }
    }

    /// Compatibility entry point for the benchmark harness, which timed
    /// the former replay-driven warm drain through it. It now times the
    /// one warming loop: fast-forwards `ff` retirements, then warms
    /// every structure up to `warm_end` total retirements, and reports
    /// `(warm_retired, warm_seconds)`: the warm leg's own retirements
    /// and wall time. `_windows` is ignored; it is kept only for the
    /// callers' signature.
    ///
    /// # Errors
    /// Propagates watchdog/guest errors; reaching `warm_end` is the
    /// normal outcome and returns `Ok` (as does an early guest exit,
    /// with fewer retirements).
    #[doc(hidden)]
    pub fn warm_bench(
        &mut self,
        ff: u64,
        warm_end: u64,
        _windows: (u64, u64, u64),
    ) -> Result<(u64, f64), SimError> {
        if self.run_fastforward(ff)?.is_some() {
            return Ok((0, 0.0));
        }
        let n0 = self.stats.instructions;
        let t = std::time::Instant::now();
        if n0 < warm_end {
            match self.run_warming(warm_end) {
                Ok(_) | Err(SimError::InstLimit { .. }) => {}
                Err(e) => return Err(e),
            }
        }
        Ok((self.stats.instructions - n0, t.elapsed().as_secs_f64()))
    }

    /// The `self_check` paranoia pass: restore the pre-window snapshot,
    /// re-run the same measured window, and panic unless the second pass
    /// reproduced the first bit-for-bit (counter delta, exit behavior
    /// and full end-state snapshot). Leaves the machine in the same end
    /// state the first pass produced.
    fn verify_measured_window(
        &mut self,
        pre: &Snapshot,
        before: &SimStats,
        delta: &SimStats,
        until: u64,
        exit: Option<&Exit>,
    ) {
        let end = self.snapshot();
        self.restore(pre)
            .expect("restoring a snapshot this run just took");
        let res = self.run_impl::<false>(until);
        let delta2 = self.stats.delta_since(before);
        assert_eq!(
            &delta2, delta,
            "sampled self-check: re-running a measured window changed its stats delta"
        );
        match (res, exit) {
            (Ok(e2), Some(e1)) => assert_eq!(
                &e2, e1,
                "sampled self-check: re-running a measured window changed the guest exit"
            ),
            (Err(SimError::InstLimit { .. }), None) => {}
            (res, exit) => panic!(
                "sampled self-check: window replay diverged (first pass exit: {}, \
                 second pass: {res:?})",
                exit.is_some()
            ),
        }
        assert_eq!(
            self.snapshot().to_bytes(),
            end.to_bytes(),
            "sampled self-check: re-running a measured window changed the end state"
        );
    }
}
