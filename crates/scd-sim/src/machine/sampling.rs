//! The sampled-simulation scheduler: drives the machine through the
//! fast-forward → warm → measure cadence of a
//! [`SamplingPlan`](crate::SamplingPlan) and produces the scaled
//! whole-run estimate.
//!
//! Mode seams:
//!
//! * *fast-forward* runs the `scd-ref` reference core the machine keeps
//!   over its own guest state — one `ArchState`, one `GuestMemory` —
//!   on its pre-decoded threaded text. Nothing is copied or handed
//!   across at either end of the leg; the machine only counts the
//!   retirements and stamps `rop_ready`;
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
use crate::sampling::{SampleAccum, SampleReport, SamplingPlan};
use crate::snapshot::Snapshot;
use crate::stats::SimStats;
use scd_ref::RefError;

impl Machine {
    /// Reproduces a reference-core guest error with the detailed loop's
    /// exact partial charging: the bounds check precedes any timing, and
    /// a memory fault or trap retires its instruction (fetch + issue +
    /// `begin_retirement`) before erroring out of the execute stage.
    fn replicate_error(&mut self, e: RefError, scd_cfg: &ScdConfig) -> SimError {
        let mut retire_faulting = |pc: u64| {
            let si = self.static_info[((pc - self.text_base) / 4) as usize];
            self.fetch_fast::<false>(pc);
            self.issue(&si);
            self.begin_retirement::<false>(si.in_dispatch, scd_cfg);
        };
        match e {
            RefError::PcOutOfRange { pc } => SimError::PcOutOfRange { pc },
            RefError::Mem { pc, fault } => {
                retire_faulting(pc);
                SimError::Mem { pc, fault }
            }
            RefError::Break { pc } => {
                retire_faulting(pc);
                SimError::Break { pc }
            }
            // The guest core's text is the machine's own decoded
            // program and `run` resolves `bop`s itself, so these are
            // internal contract violations, not guest errors.
            RefError::BadInst { pc } => unreachable!("reference core failed to decode pc {pc:#x}"),
            RefError::BopUntrained { .. } | RefError::BopNotValid { .. } => {
                unreachable!("fast-forward resolves bops itself")
            }
            RefError::InstLimit { .. } => unreachable!("leg budget is not an error"),
        }
    }

    /// Runs `insts` instructions in pure architectural fast-forward: the
    /// reference core runs in place over the machine's registers, PC,
    /// SCD registers, memory and output. Charges no cycles and touches
    /// no predictive structures (except the flush quantum's JTE
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

        // Every leg starts from an empty `(bid, Rop)` map, so its `bop`s
        // can resolve differently from the detailed core's (ROADMAP.md
        // open item 1).
        self.guest.instructions = 0;
        self.guest.clear_jte_map();

        // Run in chunks bounded by the flush quantum. `begin_retirement`
        // counts the instruction first and flushes when that (1-based)
        // number reaches `next_flush_at`, i.e. *before* the triggering
        // instruction executes — so here the flush fires once the next
        // instruction to execute would be number `next_flush_at`.
        let outcome = loop {
            let done = base + self.guest.instructions;
            if done >= target {
                break Ok(None);
            }
            if done + 1 >= self.next_flush_at {
                self.jte_flush();
                self.next_flush_at = self.next_flush_at.saturating_add(flush_interval);
            }
            let stop = target.min(self.next_flush_at.saturating_sub(1));
            match self.guest.run(stop - base) {
                Ok(code) => break Ok(Some(code)),
                Err(RefError::InstLimit { .. }) => {}
                Err(e) => break Err(e),
            }
        };

        // `rop_ready` is stamped with the (frozen) current cycle:
        // everything that happened during fast-forward is
        // architecturally settled by now.
        self.stats.instructions += self.guest.instructions;
        for t in self.scd_timing.iter_mut().take(nbids) {
            t.rop_ready = self.cycle;
        }
        outcome.map_err(|e| {
            let err = self.replicate_error(e, &scd_cfg);
            self.flush_fetch_streak();
            err
        })
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
    /// A wall-clock deadline ([`Machine::set_wall_budget`]) is checked
    /// before every leg as well as inside the warm and measure loops.
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
                self.check_deadline()?;
                let before = self.stats.instructions;
                let code = self.run_fastforward(ff)?;
                ff_insts += self.stats.instructions - before;
                if let Some(code) = code {
                    exit = Some(Exit {
                        code,
                        output: std::mem::take(&mut self.guest.output),
                    });
                    break;
                }
            }

            // --- functional warming ---
            if plan.warmup > 0 && self.stats.instructions < max_insts {
                self.check_deadline()?;
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
            self.check_deadline()?;
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
