//! Deterministic µarch fault injection: the adversarial harness for the
//! paper's hint-not-oracle safety claim.
//!
//! SCD overlays jump table entries on the BTB as *prediction hints*: a
//! stale, evicted or corrupted JTE may cost cycles but must never change
//! what the interpreter computes. A [`FaultPlan`] makes that claim
//! testable by injecting seeded, reproducible microarchitectural faults
//! mid-run — JTE corruption (modeled as detected-parity invalidation),
//! whole-BTB flush storms, bit flips in verified-prediction entries,
//! cache/TLB invalidation and predictor-state scrambling. Every
//! injection is logged on the retiring instruction's [`crate::TraceEvent`]
//! with its JTE population delta, so [`crate::StatInvariants`] keeps
//! balancing during a faulted run.
//!
//! [`diff_architectural`] is the differential guard's comparator: after
//! running the same guest with and without a plan, it must report no
//! difference in registers, memory or guest output — only the timing
//! statistics may diverge.

use crate::json::WireName;
use crate::machine::Machine;

/// The fault classes a [`FaultPlan`] can inject.
///
/// Every kind is *architecturally safe by construction*: it only touches
/// state the pipeline verifies at execute (PC/VBBI predictions, the
/// direction predictor, ITTAGE, the RAS) or state whose loss is always
/// tolerated (JTEs, whose absence routes `bop` to the slow path; cache
/// and TLB contents, which are timing-only in this model). Arbitrary JTE
/// *target* corruption is deliberately not modeled: a `bop` hit commits
/// its target without verification, so silent payload corruption is
/// outside the paper's fault model — real BTBs protect the payload with
/// parity, and a detected error invalidates the entry, which is exactly
/// [`FaultKind::JteInvalidate`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FaultKind {
    /// Parity-detected corruption of one resident JTE: the entry is
    /// invalidated and counted as a JTE eviction.
    #[default]
    JteInvalidate,
    /// The whole BTB (and the dedicated JTE table, if configured) is
    /// invalidated, JTEs included.
    BtbFlush,
    /// One random bit flips in the key or target of a *verified*
    /// (non-JTE) BTB entry. The kind tag is never flipped, so the entry
    /// can only mispredict within its own verified key space.
    BtbBitFlip,
    /// The return-address stack empties.
    RasFlush,
    /// All caches (L1 I/D and L2 when present) are invalidated.
    CacheInvalidate,
    /// Both TLBs are invalidated.
    TlbInvalidate,
    /// Direction-predictor counters, global history and ITTAGE state are
    /// overwritten with pseudo-random garbage.
    PredictorScramble,
}

crate::json::wire_names!(FaultKind, "fault kind",
    JteInvalidate => "jte_invalidate", BtbFlush => "btb_flush", BtbBitFlip => "btb_bit_flip",
    RasFlush => "ras_flush", CacheInvalidate => "cache_invalidate",
    TlbInvalidate => "tlb_invalidate", PredictorScramble => "predictor_scramble");

impl FaultKind {
    /// Wire name used in the JSONL trace encoding.
    pub fn name(self) -> &'static str {
        WireName::name(self)
    }

    /// Parses a wire name back into a kind.
    pub fn from_name(s: &str) -> Option<Self> {
        WireName::from_name(s)
    }
}

/// Trace record of one injected fault, attached to the retiring
/// instruction's [`crate::TraceEvent`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultEvent {
    /// What was injected.
    pub kind: FaultKind,
    /// Resident JTEs the injection invalidated. The stat replay folds
    /// this into `jte_evictions`, keeping the JTE population identity
    /// balanced under fault injection.
    pub evicted: u64,
}

/// Deterministic xorshift64 stream shared by the plan's schedule and the
/// fault hooks it drives.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        // xorshift has a fixed point at 0; perturb and force non-zero.
        Rng((seed ^ 0x9E37_79B9_7F4A_7C15).max(1))
    }

    pub(crate) fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

/// A seeded, deterministic schedule of µarch fault injections.
///
/// The plan fires at most one fault every `period` retirements, picking
/// the kind pseudo-randomly from its kind set. Two runs of the same
/// guest with the same plan inject the identical fault sequence, so a
/// faulted run is exactly reproducible.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    name: &'static str,
    rng: Rng,
    period: u64,
    next_at: u64,
    kinds: Vec<FaultKind>,
    injected: u64,
}

impl FaultPlan {
    /// Builds a plan firing one fault from `kinds` every `period`
    /// retirements (the first after `period` instructions).
    ///
    /// # Panics
    /// Panics if `kinds` is empty.
    pub fn new(name: &'static str, seed: u64, period: u64, kinds: Vec<FaultKind>) -> Self {
        assert!(!kinds.is_empty(), "a fault plan needs at least one kind");
        let period = period.max(1);
        FaultPlan { name, rng: Rng::new(seed), period, next_at: period, kinds, injected: 0 }
    }

    /// Preset: JTE corruption — parity-detected JTE invalidations mixed
    /// with bit flips in verified BTB entries.
    pub fn jte_corruption(seed: u64) -> Self {
        FaultPlan::new(
            "jte-corruption",
            seed,
            2_500,
            vec![FaultKind::JteInvalidate, FaultKind::BtbBitFlip],
        )
    }

    /// Preset: BTB flush storm — repeated whole-BTB invalidations plus
    /// RAS drains and predictor scrambles.
    pub fn btb_flush_storm(seed: u64) -> Self {
        FaultPlan::new(
            "btb-flush-storm",
            seed,
            10_000,
            vec![FaultKind::BtbFlush, FaultKind::RasFlush, FaultKind::PredictorScramble],
        )
    }

    /// Preset: memory-system invalidation — cache and TLB flushes.
    pub fn memory_system(seed: u64) -> Self {
        FaultPlan::new(
            "memory-system",
            seed,
            15_000,
            vec![FaultKind::CacheInvalidate, FaultKind::TlbInvalidate],
        )
    }

    /// The three acceptance plans every guest must survive, seeded.
    pub fn standard_plans(seed: u64) -> Vec<FaultPlan> {
        vec![
            FaultPlan::jte_corruption(seed),
            FaultPlan::btb_flush_storm(seed),
            FaultPlan::memory_system(seed),
        ]
    }

    /// The plan's human-readable name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Faults injected so far.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Returns the fault kind to inject at this retirement, if one is
    /// due, and advances the schedule.
    pub(crate) fn due(&mut self, instructions: u64) -> Option<FaultKind> {
        if instructions < self.next_at {
            return None;
        }
        self.next_at += self.period;
        self.injected += 1;
        let idx = (self.rng.next() % self.kinds.len() as u64) as usize;
        Some(self.kinds[idx])
    }

    /// The plan's random stream, for the fault hooks.
    pub(crate) fn rng(&mut self) -> &mut Rng {
        &mut self.rng
    }
}

/// Compares the *architectural* state of two machines: integer and FP
/// register files, PC, guest output bytes, and every byte of every
/// memory segment. Returns a description of the first difference, or
/// `None` when the two machines computed bit-identical results.
///
/// Timing state (caches, predictors, cycle counts, statistics) is
/// deliberately ignored — that is exactly the state a fault plan is
/// allowed to perturb.
pub fn diff_architectural(a: &Machine, b: &Machine) -> Option<String> {
    let (x, y) = (a.arch(), b.arch());
    for i in 0..32 {
        if x.regs[i] != y.regs[i] {
            return Some(format!("x{i}: {:#x} vs {:#x}", x.regs[i], y.regs[i]));
        }
        if x.fregs[i] != y.fregs[i] {
            return Some(format!("f{i}: {:#x} vs {:#x}", x.fregs[i], y.fregs[i]));
        }
    }
    if x.pc != y.pc {
        return Some(format!("pc: {:#x} vs {:#x}", x.pc, y.pc));
    }
    if a.output() != b.output() {
        return Some(format!(
            "guest output differs: {} vs {} bytes",
            a.output().len(),
            b.output().len()
        ));
    }
    let mut sa = a.mem().segments();
    let mut sb = b.mem().segments();
    loop {
        match (sa.next(), sb.next()) {
            (None, None) => return None,
            (Some((name_a, base_a, data_a)), Some((name_b, base_b, data_b))) => {
                if name_a != name_b || base_a != base_b || data_a.len() != data_b.len() {
                    return Some(format!(
                        "segment layout differs: {name_a}@{base_a:#x} vs {name_b}@{base_b:#x}"
                    ));
                }
                if let Some(off) = (0..data_a.len()).find(|&i| data_a[i] != data_b[i]) {
                    return Some(format!(
                        "memory differs in {name_a} at {:#x}: {:#04x} vs {:#04x}",
                        base_a + off as u64,
                        data_a[off],
                        data_b[off]
                    ));
                }
            }
            _ => return Some("segment count differs".into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use scd_isa::{Asm, Inst, LoadOp, Reg};

    /// A compact SCD dispatcher guest: fills a bytecode array, runs a
    /// three-handler interpreter loop with `bop`/`jru`, halts with the
    /// accumulated checksum. Exercises JTEs, the BTB, RAS, caches and
    /// both predictors.
    fn dispatcher_program() -> scd_isa::Program {
        let mut a = Asm::new(0x1_0000);
        a.li(Reg::S1, 0x10_0000);
        a.li(Reg::T0, 0);
        a.li(Reg::T1, 400);
        a.label("fill");
        a.andi(Reg::T2, Reg::T0, 1);
        a.slli(Reg::T3, Reg::T0, 2);
        a.add(Reg::T3, Reg::T3, Reg::S1);
        a.sw(Reg::T2, 0, Reg::T3);
        a.addi(Reg::T0, Reg::T0, 1);
        a.bne(Reg::T0, Reg::T1, "fill");
        a.li(Reg::T2, 2);
        a.slli(Reg::T3, Reg::T0, 2);
        a.add(Reg::T3, Reg::T3, Reg::S1);
        a.sw(Reg::T2, 0, Reg::T3);

        a.li(Reg::T0, 0x3f);
        a.setmask(0, Reg::T0);
        a.li(Reg::A2, 0);
        a.la(Reg::S2, "jt");

        a.label("dispatch");
        a.load_op(LoadOp::Lw, 0, Reg::A0, 0, Reg::S1);
        a.addi(Reg::S1, Reg::S1, 4);
        a.bop(0);
        a.andi(Reg::A1, Reg::A0, 0x3f);
        a.sltiu(Reg::T3, Reg::A1, 3);
        a.beqz(Reg::T3, "bad");
        a.slli(Reg::T3, Reg::A1, 3);
        a.add(Reg::T3, Reg::T3, Reg::S2);
        a.ld(Reg::T4, 0, Reg::T3);
        a.jru(0, Reg::T4);

        a.label("h0");
        a.addi(Reg::A2, Reg::A2, 1);
        a.j("dispatch");
        a.label("h1");
        a.addi(Reg::A2, Reg::A2, 2);
        a.j("dispatch");
        a.label("h2");
        a.mv(Reg::A0, Reg::A2);
        a.li(Reg::A7, 0);
        a.ecall();
        a.label("bad");
        a.inst(Inst::Ebreak);

        a.ro_label("jt");
        a.ro_addr("h0");
        a.ro_addr("h1");
        a.ro_addr("h2");
        a.finish().expect("assemble")
    }

    fn run_dispatcher(plan: Option<FaultPlan>) -> Machine {
        let p = dispatcher_program();
        let mut m = Machine::new(SimConfig::embedded_a5(), &p);
        m.map("scratch", 0x10_0000, 0x1000);
        if let Some(plan) = plan {
            m.set_fault_plan(plan);
        }
        let exit = m.run(1_000_000).expect("guest halts");
        assert_eq!(exit.code, 600, "200 zeros (+1) and 200 ones (+2)");
        m
    }

    #[test]
    fn plans_are_deterministic() {
        let mut a = FaultPlan::jte_corruption(42);
        let mut b = FaultPlan::jte_corruption(42);
        let seq_a: Vec<_> = (0..50_000).filter_map(|i| a.due(i)).collect();
        let seq_b: Vec<_> = (0..50_000).filter_map(|i| b.due(i)).collect();
        assert!(!seq_a.is_empty());
        assert_eq!(seq_a, seq_b);
        // A different seed picks a different kind sequence eventually.
        let mut c = FaultPlan::jte_corruption(43);
        let seq_c: Vec<_> = (0..50_000).filter_map(|i| c.due(i)).collect();
        assert_eq!(seq_a.len(), seq_c.len(), "schedule is period-based");
    }

    #[test]
    fn faulted_run_is_architecturally_identical() {
        let clean = run_dispatcher(None);
        // Aggressive small periods so even this short guest sees every
        // fault kind several times. Debug assertions keep StatInvariants
        // checking the faulted run throughout.
        for (name, plan) in [
            (
                "jte",
                FaultPlan::new(
                    "t-jte",
                    7,
                    97,
                    vec![FaultKind::JteInvalidate, FaultKind::BtbBitFlip],
                ),
            ),
            (
                "flush",
                FaultPlan::new(
                    "t-flush",
                    7,
                    131,
                    vec![FaultKind::BtbFlush, FaultKind::RasFlush, FaultKind::PredictorScramble],
                ),
            ),
            (
                "mem",
                FaultPlan::new(
                    "t-mem",
                    7,
                    113,
                    vec![FaultKind::CacheInvalidate, FaultKind::TlbInvalidate],
                ),
            ),
        ] {
            let faulted = run_dispatcher(Some(plan));
            assert!(faulted.fault_plan().unwrap().injected() > 10, "{name}: plan fired");
            assert_eq!(
                diff_architectural(&clean, &faulted),
                None,
                "{name}: architectural state must be bit-identical"
            );
            // Retirement counts may differ — a lost JTE sends that
            // dispatch down the slow path (bounds check + table load +
            // jru), which is extra instructions with the same result.
            // Faults can only *lose* hints, so the faulted run never
            // retires fewer instructions than the clean one.
            assert!(
                faulted.stats.instructions >= clean.stats.instructions,
                "{name}: faults cannot shorten the retired path ({} < {})",
                faulted.stats.instructions,
                clean.stats.instructions
            );
        }
    }

    #[test]
    fn diff_architectural_spots_memory_difference() {
        let mut a = run_dispatcher(None);
        let b = run_dispatcher(None);
        assert_eq!(diff_architectural(&a, &b), None);
        a.mem_mut().write(0x10_0000, 1, 0xFF).unwrap();
        let d = diff_architectural(&a, &b).expect("differs");
        assert!(d.contains("scratch"), "got {d}");
    }
}
