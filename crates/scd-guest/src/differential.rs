//! The fault-injection differential guard.
//!
//! SCD's entire safety argument is that its micro-architectural state —
//! JTEs overlaid on the BTB, predictors, caches, TLBs — is a *hint*,
//! never an oracle: corrupting or losing any of it may change timing but
//! can never change what the guest computes. This module turns that
//! argument into an executable check. It runs the same guest twice, once
//! clean and once under a seeded [`FaultPlan`], validates both runs
//! against the host oracle, and then compares the two machines'
//! architectural state bit for bit with
//! [`scd_sim::diff_architectural`].
//!
//! On divergence the guard dumps the tail of the faulted run's trace (a
//! bounded [`RingSink`] window ending at the divergence) to a JSONL file
//! so the failure can be replayed and minimized offline.

use crate::runner::{GuestRun, RunRequest};
use scd_sim::report::take_and_dump;
use scd_sim::{diff_architectural, FaultPlan, LockstepSink, RingSink};
use std::fmt;
use std::path::PathBuf;

/// A passed differential check: both runs validated against the oracle
/// and their architectural state is bit-identical.
#[derive(Debug)]
pub struct DifferentialReport {
    /// The fault plan's name.
    pub plan: &'static str,
    /// Faults actually injected into the faulted run.
    pub injected: u64,
    /// The clean run's validated result.
    pub clean: GuestRun,
    /// The faulted run's validated result (timing stats may differ from
    /// `clean`; architectural results do not).
    pub faulted: GuestRun,
}

/// A failed differential check.
#[derive(Debug)]
pub enum DifferentialError {
    /// The guest would not load (parse/compile failure).
    Setup(String),
    /// The clean (no-fault) run itself failed — not a fault-injection
    /// finding, the baseline is broken.
    Clean(String),
    /// The faulted run trapped or failed oracle validation.
    Faulted {
        /// The fault plan's name.
        plan: &'static str,
        /// What went wrong.
        detail: String,
        /// Where the trace window was dumped, if writable.
        dump: Option<PathBuf>,
    },
    /// Both runs completed but architectural state differs — the
    /// hint-not-oracle property is violated.
    Divergence {
        /// The fault plan's name.
        plan: &'static str,
        /// First architectural difference found.
        detail: String,
        /// Where the trace window was dumped, if writable.
        dump: Option<PathBuf>,
    },
}

impl fmt::Display for DifferentialError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DifferentialError::Setup(e) => write!(f, "differential setup failed: {e}"),
            DifferentialError::Clean(e) => write!(f, "clean run failed: {e}"),
            DifferentialError::Faulted { plan, detail, dump } => {
                write!(f, "faulted run under plan `{plan}` failed: {detail}")?;
                if let Some(p) = dump {
                    write!(f, " (trace window: {})", p.display())?;
                }
                Ok(())
            }
            DifferentialError::Divergence { plan, detail, dump } => {
                write!(f, "architectural divergence under plan `{plan}`: {detail}")?;
                if let Some(p) = dump {
                    write!(f, " (trace window: {})", p.display())?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for DifferentialError {}

/// Runs `req` clean and under `plan`, proving the faulted run
/// architecturally identical.
///
/// The faulted machine carries a [`RingSink`] of the last `window`
/// retirement events (fault injections included); on any failure the
/// window is dumped next to the error. Timing statistics are allowed —
/// expected, even — to differ: a lost JTE sends its dispatch down the
/// slow path, so the faulted run retires *at least* as many instructions
/// as the clean one.
///
/// # Errors
/// Returns a [`DifferentialError`] describing the first failed stage.
pub fn differential_check(
    req: &RunRequest<'_>,
    plan: FaultPlan,
    window: usize,
) -> Result<DifferentialReport, DifferentialError> {
    let plan_name = plan.name();
    let max_insts = req.max_insts;

    // The clean run carries the architectural oracle: a lockstep
    // divergence here means the cycle model itself is wrong, which would
    // make the clean-vs-faulted comparison below meaningless.
    let mut clean = req.session().map_err(DifferentialError::Setup)?;
    clean.machine.set_trace_sink(Box::new(LockstepSink::new(&clean.machine)));
    let clean_run =
        clean.run_and_validate(max_insts).map_err(|e| DifferentialError::Clean(e.to_string()))?;
    if let Some(sink) =
        clean.machine.take_trace_sink().and_then(scd_sim::downcast_sink::<LockstepSink>)
    {
        if let Some(d) = sink.divergence() {
            let dump = sink.dump("clean-lockstep");
            let mut detail = format!("clean run diverged from the oracle: {d}");
            if let Some(p) = &dump {
                detail.push_str(&format!(" (trace window: {})", p.display()));
            }
            return Err(DifferentialError::Clean(detail));
        }
    }

    let mut faulted = req.session().map_err(DifferentialError::Setup)?;
    faulted.machine.set_trace_sink(Box::new(RingSink::new(window.max(1))));
    faulted.machine.set_fault_plan(plan);

    let faulted_run = match faulted.machine.run(max_insts) {
        Ok(exit) => match faulted.validate(&exit) {
            Ok(run) => run,
            Err(e) => {
                return Err(DifferentialError::Faulted {
                    plan: plan_name,
                    detail: e.to_string(),
                    dump: take_and_dump(plan_name, &mut faulted.machine),
                })
            }
        },
        Err(e) => {
            return Err(DifferentialError::Faulted {
                plan: plan_name,
                detail: e.to_string(),
                dump: take_and_dump(plan_name, &mut faulted.machine),
            })
        }
    };

    if let Some(detail) = diff_architectural(&clean.machine, &faulted.machine) {
        return Err(DifferentialError::Divergence {
            plan: plan_name,
            detail,
            dump: take_and_dump(plan_name, &mut faulted.machine),
        });
    }

    let injected = faulted.machine.fault_plan().map_or(0, |p| p.injected());
    Ok(DifferentialReport { plan: plan_name, injected, clean: clean_run, faulted: faulted_run })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Scheme;
    use crate::runner::Vm;

    const SRC: &str = "var s = 0; for i = 1, N { s = s + i * i % 13; } emit(s);";
    const N: [(&str, f64); 1] = [("N", 300.0)];

    fn req(vm: Vm) -> RunRequest<'static> {
        RunRequest::new(scd_sim::SimConfig::embedded_a5(), vm, SRC)
            .predefined(&N)
            .scheme(Scheme::Scd)
            .max_insts(200_000_000)
    }

    #[test]
    fn guard_passes_on_clean_guest() {
        for plan in FaultPlan::standard_plans(42) {
            let report = differential_check(&req(Vm::Lvm), plan, 256)
                .expect("fault injection must not change architectural results");
            assert!(report.injected > 0, "plan never fired; weaken the period");
            assert_eq!(report.clean.checksum, report.faulted.checksum);
        }
    }

    #[test]
    fn faults_never_shorten_the_retired_path() {
        let report = differential_check(&req(Vm::Svm), FaultPlan::jte_corruption(7), 256).unwrap();
        assert!(report.faulted.stats.instructions >= report.clean.stats.instructions);
    }
}
