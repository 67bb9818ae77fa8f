//! Lockstep co-simulation against the architectural oracle.
//!
//! [`LockstepSink`] is a [`TraceSink`] that carries an `scd-ref`
//! [`RefCore`] snapshot of the machine's architectural state and steps it
//! once per retirement event, comparing every retired instruction's
//! `(pc, next_pc, writeback, effective address, store data)` against the
//! cycle model's [`ArchInfo`](crate::trace::ArchInfo) record. The cycle
//! model *drives*: its micro-architectural `bop` outcome (hit or miss —
//! legitimately timing-dependent, Section III of the paper) is replayed
//! into the oracle as a [`BopHint`], and the oracle independently
//! validates that a claimed hit is architecturally justified (valid
//! `Rop`, trained `(bid, Rop) → target` map) and lands on the
//! architecturally correct target. Everything else — every value,
//! every address, every non-`bop` control transfer — must match bit for
//! bit.
//!
//! The sink never aborts the run (sinks are observers); it records the
//! *first* divergence with a bounded window of preceding events and keeps
//! a count of instructions checked, and the harness fails after the run.
//! Fault-injected runs are lockstep-clean too: every modeled fault is an
//! invalidation (see [`crate::fault`]), which may flip future `bop` hits
//! to misses but can never invent a wrong target.

use crate::machine::Machine;
use crate::report;
use crate::trace::{BopOutcome, RingSink, TraceEvent, TraceSink};
use scd_ref::{BopHint, RefCore, RefError, StepArch};
use std::path::PathBuf;

/// How many trailing events the divergence window keeps.
const WINDOW: usize = 128;

/// The first lockstep mismatch between the cycle model and the oracle.
#[derive(Debug, Clone)]
pub struct LockstepDivergence {
    /// Retirement sequence number of the diverging instruction.
    pub seq: u64,
    /// Its PC (as reported by the cycle model).
    pub pc: u64,
    /// Which compared field diverged (`"pc"`, `"next_pc"`, `"wx"`, `"wf"`,
    /// `"ea"`, `"store"`, or `"ref"` for an oracle-side error).
    pub field: &'static str,
    /// Human-readable detail: both sides' values, or the oracle error.
    pub detail: String,
}

impl std::fmt::Display for LockstepDivergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "lockstep divergence at seq {} pc {:#x} ({}): {}",
            self.seq, self.pc, self.field, self.detail
        )
    }
}

/// A trace sink that co-simulates the reference ISS in lockstep.
#[derive(Debug)]
pub struct LockstepSink {
    core: RefCore,
    window: RingSink,
    divergence: Option<LockstepDivergence>,
    checked: u64,
    skipped: u64,
}

/// Snapshots `machine`'s architectural state (registers, PC, SCD
/// registers, every mapped segment, SCD enable/branch-id config) into a
/// fresh reference core with its own clone of that state, decoding its
/// own text from the memory words. Take the snapshot after guest setup
/// (image, stacks, entry registers) and before the first retirement.
pub fn snapshot_core(machine: &Machine) -> RefCore {
    let scd = &machine.config().scd;
    RefCore::from_state(machine.mem().clone(), machine.arch().clone(), scd.enabled, scd.branch_ids)
}

impl LockstepSink {
    /// Builds a sink around [`snapshot_core`]. Install the result with
    /// [`Machine::set_trace_sink`] *before* running.
    pub fn new(machine: &Machine) -> Self {
        let core = snapshot_core(machine);
        LockstepSink {
            core,
            window: RingSink::new(WINDOW),
            divergence: None,
            checked: 0,
            skipped: 0,
        }
    }

    /// The first divergence, if any.
    pub fn divergence(&self) -> Option<&LockstepDivergence> {
        self.divergence.as_ref()
    }

    /// Instructions compared so far (stops counting at the divergence).
    pub fn checked(&self) -> u64 {
        self.checked
    }

    /// Events that carried no architectural record (hand-built or legacy
    /// traces only; a live machine always attaches one).
    pub fn skipped(&self) -> u64 {
        self.skipped
    }

    /// Dumps the event window ending at the divergence to a JSONL file;
    /// `None` if nothing was buffered or the write failed.
    pub fn dump(&self, tag: &str) -> Option<PathBuf> {
        report::dump_window(tag, &self.window)
    }

    fn diverge(&mut self, ev: &TraceEvent, field: &'static str, detail: String) {
        self.divergence = Some(LockstepDivergence {
            seq: ev.seq,
            pc: ev.pc,
            field,
            detail: format!("{detail}; dut: {}", report::describe_event(ev)),
        });
    }

    fn check(&mut self, ev: &TraceEvent) {
        let Some(dut) = ev.arch else {
            self.skipped += 1;
            return;
        };
        // The emulated context-switch flush (and the `jte.flush`
        // instruction) invalidate every Rop *before* this retirement's
        // dispatch can use it; mirror that ordering. Re-flushing on the
        // `jte.flush` instruction itself is idempotent.
        if ev.flush.is_some() {
            self.core.flush_rop();
        }
        if self.core.arch.pc != ev.pc {
            let ref_pc = self.core.arch.pc;
            self.diverge(ev, "pc", format!("ref at {ref_pc:#x}, dut retired {:#x}", ev.pc));
            return;
        }
        let hint = match ev.bop.map(|b| b.outcome) {
            Some(BopOutcome::Hit) => BopHint::Hit,
            Some(_) => BopHint::Miss,
            None => BopHint::Miss,
        };
        let sa: StepArch = match self.core.step(hint) {
            Ok(sa) => sa,
            Err(e @ (RefError::BopUntrained { .. } | RefError::BopNotValid { .. })) => {
                self.diverge(ev, "ref", format!("dut bop hit rejected by oracle: {e}"));
                return;
            }
            Err(e) => {
                self.diverge(ev, "ref", format!("oracle failed to step: {e}"));
                return;
            }
        };
        let mism: Option<(&'static str, String)> = if sa.next_pc != dut.next_pc {
            Some(("next_pc", format!("ref {:#x}, dut {:#x}", sa.next_pc, dut.next_pc)))
        } else if sa.wx != dut.wx {
            Some(("wx", format!("ref {:?}, dut {:?}", sa.wx, dut.wx)))
        } else if sa.wf != dut.wf {
            Some(("wf", format!("ref {:?}, dut {:?}", sa.wf, dut.wf)))
        } else if sa.ea != dut.ea {
            Some(("ea", format!("ref {:?}, dut {:?}", sa.ea, dut.ea)))
        } else if sa.store != dut.store {
            Some(("store", format!("ref {:?}, dut {:?}", sa.store, dut.store)))
        } else {
            None
        };
        match mism {
            Some((field, detail)) => self.diverge(ev, field, detail),
            None => self.checked += 1,
        }
    }
}

impl TraceSink for LockstepSink {
    fn event(&mut self, ev: &TraceEvent) {
        self.window.event(ev);
        if self.divergence.is_none() {
            self.check(ev);
        }
    }

    fn finish(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::machine::{Machine, SimError};
    use crate::trace::downcast_sink;
    use scd_isa::{Asm, LoadOp, Reg};
    use scd_ref::MemFault;

    fn lockstep_run(program: &scd_isa::Program, cfg: SimConfig) -> Box<LockstepSink> {
        let mut m = Machine::new(cfg, program);
        m.set_trace_sink(Box::new(LockstepSink::new(&m)));
        m.run(1_000_000).expect("guest must exit");
        downcast_sink::<LockstepSink>(m.take_trace_sink().unwrap()).unwrap()
    }

    fn dispatch_program() -> scd_isa::Program {
        // The reference-ISS unit tests use the same shape; here the point
        // is running it on the *cycle model* with the oracle attached.
        let mut a = Asm::new(0x1_0000);
        a.la(Reg::S0, "bytes");
        a.la(Reg::S3, "table");
        a.li(Reg::T6, 0xFF);
        a.setmask(0, Reg::T6);
        a.li(Reg::S2, 0);
        a.label("fetch");
        a.slli(Reg::T0, Reg::S2, 3);
        a.add(Reg::T0, Reg::S0, Reg::T0);
        a.load_op(LoadOp::Lbu, 0, Reg::T1, 0, Reg::T0);
        a.bop(0);
        a.slli(Reg::T2, Reg::T1, 3);
        a.add(Reg::T2, Reg::T2, Reg::S3);
        a.ld(Reg::T3, 0, Reg::T2);
        a.jru(0, Reg::T3);
        a.label("h0");
        a.li(Reg::A0, 99);
        a.li(Reg::A7, 0);
        a.ecall();
        a.label("h1");
        a.addi(Reg::S2, Reg::S2, 1);
        a.j("fetch");
        a.ro_label("bytes");
        for b in [1u64, 1, 1, 1, 1, 1, 0] {
            a.ro_word(b);
        }
        a.ro_label("table");
        a.ro_addr("h0");
        a.ro_addr("h1");
        a.finish().unwrap()
    }

    #[test]
    fn dispatch_loop_is_lockstep_clean_with_scd() {
        let sink = lockstep_run(&dispatch_program(), SimConfig::embedded_a5());
        assert!(sink.divergence().is_none(), "{}", sink.divergence().unwrap());
        assert!(sink.checked() > 20, "only {} checked", sink.checked());
        assert_eq!(sink.skipped(), 0);
    }

    #[test]
    fn dispatch_loop_is_lockstep_clean_without_scd() {
        let mut cfg = SimConfig::embedded_a5();
        cfg.scd.enabled = false;
        let sink = lockstep_run(&dispatch_program(), cfg);
        assert!(sink.divergence().is_none(), "{}", sink.divergence().unwrap());
    }

    #[test]
    fn periodic_flush_stays_lockstep_clean() {
        let mut cfg = SimConfig::embedded_a5();
        cfg.scd.flush_interval = Some(16);
        let sink = lockstep_run(&dispatch_program(), cfg);
        assert!(sink.divergence().is_none(), "{}", sink.divergence().unwrap());
    }

    #[test]
    fn an_access_wrapping_past_2_pow_64_faults_alike_in_both_executors() {
        for store in [false, true] {
            let mut a = Asm::new(0x1_0000);
            a.li(Reg::T1, 3);
            a.li(Reg::T0, -8);
            if store {
                a.sd(Reg::T1, 0, Reg::T0);
            } else {
                a.ld(Reg::T1, 0, Reg::T0);
            }
            a.li(Reg::A7, 0);
            a.ecall();
            let p = a.finish().unwrap();
            let mut core = snapshot_core(&Machine::new(SimConfig::embedded_a5(), &p));
            let fault = MemFault { addr: u64::MAX - 7, size: 8, write: store };
            assert_eq!(core.run(1_000), Err(RefError::Mem { pc: core.arch.pc, fault }));
            // Traced (observed loop, oracle in lockstep) and untraced
            // (fast loop) runs of the cycle model.
            for traced in [true, false] {
                let mut m = Machine::new(SimConfig::embedded_a5(), &p);
                if traced {
                    m.set_trace_sink(Box::new(LockstepSink::new(&m)));
                }
                let dut = m.run(1_000).unwrap_err();
                let SimError::Mem { pc, fault: dut_fault } = dut else {
                    panic!("expected a memory fault, got {dut:?}");
                };
                assert_eq!((pc, dut_fault), (core.arch.pc, fault));
                // The cycle model counts the faulting instruction as
                // begun; the oracle stops before it.
                assert_eq!(m.stats.instructions, core.instructions + 1);
                if traced {
                    let sink = downcast_sink::<LockstepSink>(m.take_trace_sink().unwrap()).unwrap();
                    assert!(sink.divergence().is_none(), "{}", sink.divergence().unwrap());
                    assert_eq!(sink.checked(), core.instructions);
                }
            }
        }
    }

    #[test]
    fn a_wrong_writeback_is_caught() {
        // Feed the sink a hand-tampered event stream: run the machine
        // with a recording sink, corrupt one writeback value, replay.
        let p = dispatch_program();
        let mut m = Machine::new(SimConfig::embedded_a5(), &p);
        let mut sink = LockstepSink::new(&m);
        m.set_trace_sink(Box::new(crate::trace::VecSink::default()));
        m.run(1_000_000).unwrap();
        let events =
            downcast_sink::<crate::trace::VecSink>(m.take_trace_sink().unwrap()).unwrap().events;
        assert!(events.len() > 10);
        for (i, mut ev) in events.into_iter().enumerate() {
            if i == 7 {
                if let Some(a) = &mut ev.arch {
                    if let Some((_, v)) = &mut a.wx {
                        *v ^= 0x4;
                    } else {
                        a.wx = Some((31, 0xBAD));
                    }
                }
            }
            sink.event(&ev);
        }
        let d = sink.divergence().expect("tampered stream must diverge");
        assert_eq!(d.seq, 7);
        assert_eq!(d.field, "wx");
    }
}
