//! Oracle-checked guest runs: lockstep co-simulation of a full VM
//! interpreter benchmark against the `scd-ref` architectural ISS.
//!
//! [`differential_check`](crate::differential_check) proves the *faulted*
//! machine matches the *clean* machine; this module proves the clean
//! machine matches the *architecture*. Together they close the loop: the
//! cycle model agrees with a 300-line interpreter that shares nothing
//! with it but the `scd_isa::exec` semantics table, and fault injection
//! cannot push it off that baseline.

use crate::runner::{GuestRun, RunRequest};
use scd_sim::LockstepSink;

/// A passed lockstep check.
#[derive(Debug)]
pub struct LockstepReport {
    /// The validated guest run (checksum already checked by the host
    /// oracle inside [`RunRequest::run_with`]'s validation).
    pub run: GuestRun,
    /// Retired instructions compared bit-for-bit against the reference.
    pub checked: u64,
}

/// Runs `req` with a [`LockstepSink`] installed and fails on the first
/// instruction whose architectural effects differ from the reference ISS.
///
/// # Errors
/// A human-readable message: guest setup/validation failure, or the first
/// lockstep divergence (with a trace-window dump path when writable).
pub fn lockstep_check(req: &RunRequest<'_>) -> Result<LockstepReport, String> {
    let mut run = req.run_with(|m| m.set_trace_sink(Box::new(LockstepSink::new(m))))?;
    let sink = run
        .take_sink::<LockstepSink>()
        .ok_or("lockstep sink went missing (machine replaced its tracer?)")?;
    if let Some(d) = sink.divergence() {
        let mut msg = d.to_string();
        if let Some(p) = sink.dump("lockstep") {
            msg.push_str(&format!(" (trace window: {})", p.display()));
        }
        return Err(msg);
    }
    if sink.checked() == 0 {
        return Err("lockstep checked zero instructions (no arch records in trace?)".to_string());
    }
    Ok(LockstepReport { checked: sink.checked(), run })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Scheme;
    use crate::runner::Vm;
    use scd_sim::SimConfig;

    const SRC: &str = "var s = 0; for i = 1, N { s = s + i * (i + 3) % 17; } emit(s);";
    const N: [(&str, f64); 1] = [("N", 200.0)];

    #[test]
    fn interpreter_guests_run_in_lockstep() {
        for vm in Vm::ALL {
            for scheme in [Scheme::Baseline, Scheme::Scd] {
                let req = RunRequest::new(SimConfig::embedded_a5(), vm, SRC)
                    .predefined(&N)
                    .scheme(scheme)
                    .max_insts(200_000_000);
                let report =
                    lockstep_check(&req).unwrap_or_else(|e| panic!("{vm:?}/{scheme:?}: {e}"));
                assert!(report.checked > 10_000, "{vm:?}/{scheme:?}: {}", report.checked);
                assert_eq!(report.checked, report.run.stats.instructions);
            }
        }
    }
}
