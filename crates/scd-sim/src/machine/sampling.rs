//! The sampled-simulation scheduler: drives the machine through the
//! fast-forward → warm → measure cadence of a
//! [`SamplingPlan`](crate::SamplingPlan) and produces the scaled
//! whole-run estimate.
//!
//! Mode seams:
//!
//! * *fast-forward* hands the guest to the `scd-ref` reference core
//!   (built like the execute-ahead replay producer, sharing its
//!   threaded text) and syncs the architectural state back at the leg
//!   boundary;
//! * *warming* updates caches, TLBs, predictors and the JTE overlay
//!   while the clock stands still, in one of two bit-identical engines
//!   picked once per run in [`Machine::run_sampled`]. The replay drain
//!   (`warm.rs`, via `warm_leg`) fuses the leg: the producer's core
//!   runs the fast-forward span record-free, then streams the warm
//!   span's retirements for the drain to apply. It takes every plan
//!   with per-structure windows, and uniform plans when the host can
//!   pipeline (`ReplayMode::Auto` with a spare CPU, or `Force`). On a
//!   single CPU or with replay off, uniform plans run
//!   `run_fastforward` followed by the interleaved loop monomorphized
//!   with `WARMING = true` ([`Machine::run_warming`]);
//! * *measure* is the stock detailed interleaved loop; its counter
//!   deltas feed the [`SampleAccum`](crate::SampleAccum).
//!
//! The emulated context-switch flush quantum is instruction-count
//! driven and mode-independent: the fast-forward leg chunks the
//! reference core's run at every `next_flush_at` boundary and applies
//! both the architectural (`Rop.v` clear) and micro-architectural (JTE
//! flush) effects exactly where the detailed loop would have.

use super::{Exit, Machine, ReplayMode, SimError};
use crate::config::ScdConfig;
use crate::sampling::{SampleAccum, SampleReport, SamplingPlan};
use crate::snapshot::Snapshot;
use crate::stats::SimStats;

impl Machine {
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

        // Same construction as the replay producer: move the guest
        // memory into the core, seed the live SCD register sets, share
        // the threaded text.
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
                let err = self.replicate_error::<false>(e, &scd_cfg);
                self.flush_fetch_streak();
                Err(err)
            }
            None => Ok(exited),
        }
    }

    /// Runs the guest to completion (or `max_insts`) under `plan`'s
    /// fast-forward → warm → measure cadence, then overwrites
    /// `self.stats` with the measured windows scaled to the exact total
    /// instruction count. Architectural results (registers, memory,
    /// guest output, exit code, instruction count) are exact; timing
    /// counters are estimates whose dispersion the returned
    /// [`SampleReport`] quantifies.
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

        // The warm leg's engine. Per-structure windows always take the
        // gated replay consumer — it is the only engine that implements
        // them (inline via `warm_leg_sync` on hosts with no core to
        // spare). Uniform plans take it only where it wins: when the
        // producer thread can overlap the leg's fast-forward span with
        // the previous drain (`Force`, or `Auto` on a pipelining host).
        // On a single CPU the producer and drain serialize and the
        // `run_fastforward` + `run_warming` cadence is cheaper, so
        // `Auto` falls back to it — the two cadences are bit-identical
        // either way, which `tests/warm_replay.rs` holds.
        let split_windows = plan.btb_warmup != plan.warmup || plan.pred_warmup != plan.warmup;
        let replay_warm = plan.warm_len() > 0
            && (split_windows
                || match self.replay {
                    ReplayMode::Off => false,
                    ReplayMode::Auto => super::host_can_pipeline(),
                    ReplayMode::Force => true,
                });

        while exit.is_none() && self.stats.instructions < max_insts {
            // --- fast-forward to the next interval's warm point ---
            let ff = plan.skip().min(max_insts - self.stats.instructions);
            if replay_warm {
                // --- fused fast-forward + replay-driven warming ---
                let n0 = self.stats.instructions;
                let warm_end = (n0 + ff).saturating_add(plan.warm_len()).min(max_insts);
                let out = self.warm_leg(
                    ff,
                    warm_end,
                    (plan.warmup, plan.btb_warmup, plan.pred_warmup),
                )?;
                ff_insts += out.ff_retired;
                warm_insts += out.warm_retired;
                if let Some(e) = out.exit {
                    exit = Some(e);
                    break;
                }
            } else {
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

                // --- interleaved functional warming ---
                if plan.warmup > 0 && self.stats.instructions < max_insts {
                    let before = self.stats.instructions;
                    let until = (before + plan.warmup).min(max_insts);
                    match self.run_warming(until) {
                        Ok(e) => {
                            warm_insts += self.stats.instructions - before;
                            exit = Some(e);
                            break;
                        }
                        Err(SimError::InstLimit { .. }) => {
                            warm_insts += self.stats.instructions - before;
                        }
                        Err(e) => return Err(e),
                    }
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
