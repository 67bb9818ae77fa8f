//! Execution statistics collected by the machine, with the derived
//! metrics the paper's figures report (speedup, MPKI, instruction
//! fractions).

use crate::btb::BtbStats;
use crate::snapshot::{SnapshotError, Walk};

/// Branch classes used for the Fig. 2 misprediction breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BranchClass {
    /// Conditional branch.
    Conditional,
    /// Direct unconditional jump (`jal`, including calls).
    Direct,
    /// Return (`jalr` through `ra`).
    Return,
    /// The interpreter's dispatch indirect jump (`jalr`/`jru` at a
    /// registered dispatch PC).
    IndirectDispatch,
    /// Any other indirect jump.
    IndirectOther,
}

/// Counters for one branch class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BranchCounters {
    /// Branches of this class retired.
    pub executed: u64,
    /// Of those, how many were mispredicted.
    pub mispredicted: u64,
}

/// Counters for one cache or TLB.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessCounters {
    /// Total accesses.
    pub accesses: u64,
    /// Misses.
    pub misses: u64,
    /// Dirty-line writebacks.
    pub writebacks: u64,
}

impl AccessCounters {
    /// Misses per kilo-instruction.
    pub fn mpki(&self, instructions: u64) -> f64 {
        if instructions == 0 {
            0.0
        } else {
            self.misses as f64 * 1000.0 / instructions as f64
        }
    }
}

/// Full statistics of one simulation run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Total cycles.
    pub cycles: u64,
    /// Total retired instructions.
    pub instructions: u64,
    /// Instructions retired from registered dispatcher PC ranges
    /// (Fig. 3).
    pub dispatch_instructions: u64,
    /// Loads retired.
    pub loads: u64,
    /// Stores retired.
    pub stores: u64,

    /// Conditional branches.
    pub cond: BranchCounters,
    /// Direct unconditional jumps.
    pub direct: BranchCounters,
    /// Returns.
    pub ret: BranchCounters,
    /// The interpreter's dispatch indirect jumps.
    pub indirect_dispatch: BranchCounters,
    /// Other indirect jumps.
    pub indirect_other: BranchCounters,

    /// `bop` executions.
    pub bop_executed: u64,
    /// `bop` fast-path hits (short-circuited dispatches).
    pub bop_hits: u64,
    /// `bop` executions that fell back to the slow path (JTE miss,
    /// invalid Rop, fall-through, or SCD disabled). Always satisfies
    /// `bop_hits + bop_misses == bop_executed`.
    pub bop_misses: u64,
    /// Cycles spent stalled waiting for Rop at fetch.
    pub bop_stall_cycles: u64,
    /// `jru` executions.
    pub jru_executed: u64,

    /// L1 instruction cache.
    pub icache: AccessCounters,
    /// L1 data cache.
    pub dcache: AccessCounters,
    /// Unified L2 (all-zero when absent).
    pub l2: AccessCounters,
    /// Instruction TLB.
    pub itlb: AccessCounters,
    /// Data TLB.
    pub dtlb: AccessCounters,

    /// BTB/JTE interaction counters.
    pub btb: BtbStats,
}

/// Generates the counter table from one list of counter paths:
/// [`COUNTER_NAMES`], [`SimStats::counters`] and
/// [`SimStats::counters_mut`], all in list order.
macro_rules! counter_table {
    ($($field:ident $(. $sub:ident)?),+ $(,)?) => {
        /// Number of raw counters in [`SimStats`].
        pub const NUM_COUNTERS: usize = [$(stringify!($field)),+].len();

        /// Dotted name of every counter (`cycles`, `cond.executed`,
        /// `btb.jte_flushed`, ...), in [`SimStats::counters`] order.
        pub const COUNTER_NAMES: [&str; NUM_COUNTERS] =
            [$(concat!(stringify!($field) $(, ".", stringify!($sub))?)),+];

        impl SimStats {
            /// Every raw counter, flattened in one fixed order: the
            /// counter table. Everything that walks the counters reads
            /// this order — the interval arithmetic below, the
            /// checkpoint word layout, the cache payload's `"stats"`
            /// object and `diff_stats` — so a new counter field is
            /// added in one place, the `counter_table!` list.
            pub fn counters(&self) -> [u64; NUM_COUNTERS] {
                [$(self.$field $(. $sub)?),+]
            }

            /// Mutable borrows of every counter, in
            /// [`SimStats::counters`] order.
            pub fn counters_mut(&mut self) -> [&mut u64; NUM_COUNTERS] {
                [$(&mut self.$field $(. $sub)?),+]
            }
        }
    };
}

counter_table!(
    cycles,
    instructions,
    dispatch_instructions,
    loads,
    stores,
    cond.executed,
    cond.mispredicted,
    direct.executed,
    direct.mispredicted,
    ret.executed,
    ret.mispredicted,
    indirect_dispatch.executed,
    indirect_dispatch.mispredicted,
    indirect_other.executed,
    indirect_other.mispredicted,
    bop_executed,
    bop_hits,
    bop_misses,
    bop_stall_cycles,
    jru_executed,
    icache.accesses,
    icache.misses,
    icache.writebacks,
    dcache.accesses,
    dcache.misses,
    dcache.writebacks,
    l2.accesses,
    l2.misses,
    l2.writebacks,
    itlb.accesses,
    itlb.misses,
    itlb.writebacks,
    dtlb.accesses,
    dtlb.misses,
    dtlb.writebacks,
    btb.jte_inserts,
    btb.jte_cap_skips,
    btb.btb_evicted_by_jte,
    btb.jte_evictions,
    btb.btb_blocked_by_jte,
    btb.jte_flushes,
    btb.jte_flushed,
);

// Every field of `SimStats` is a `u64` counter, so a field missing from
// the table above shows up as a size mismatch at compile time.
const _: () = assert!(std::mem::size_of::<SimStats>() == NUM_COUNTERS * 8);

impl SimStats {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Cycles per instruction.
    pub fn cpi(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.cycles as f64 / self.instructions as f64
        }
    }

    /// Accounts one retired branch of `class`.
    pub fn record_branch(&mut self, class: BranchClass, mispredicted: bool) {
        let c = match class {
            BranchClass::Conditional => &mut self.cond,
            BranchClass::Direct => &mut self.direct,
            BranchClass::Return => &mut self.ret,
            BranchClass::IndirectDispatch => &mut self.indirect_dispatch,
            BranchClass::IndirectOther => &mut self.indirect_other,
        };
        c.executed += 1;
        c.mispredicted += mispredicted as u64;
    }

    /// The checkpoint walk: every counter, in counter-table order.
    pub(crate) fn walk(&mut self, w: &mut impl Walk) -> Result<(), SnapshotError> {
        self.counters_mut().into_iter().try_for_each(|c| w.word(c))
    }

    /// Total branch mispredictions across classes.
    pub fn total_mispredictions(&self) -> u64 {
        self.cond.mispredicted
            + self.direct.mispredicted
            + self.ret.mispredicted
            + self.indirect_dispatch.mispredicted
            + self.indirect_other.mispredicted
    }

    /// Branch misses per kilo-instruction (Fig. 9).
    pub fn branch_mpki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.total_mispredictions() as f64 * 1000.0 / self.instructions as f64
        }
    }

    /// MPKI contributed by the dispatch indirect jump alone (Fig. 2).
    pub fn dispatch_mpki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.indirect_dispatch.mispredicted as f64 * 1000.0 / self.instructions as f64
        }
    }

    /// I-cache misses per kilo-instruction (Fig. 10).
    pub fn icache_mpki(&self) -> f64 {
        self.icache.mpki(self.instructions)
    }

    /// Fraction of dynamic instructions spent in the dispatcher (Fig. 3).
    pub fn dispatch_fraction(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.dispatch_instructions as f64 / self.instructions as f64
        }
    }

    /// Counter-wise `self − base`. Both views must come from the same
    /// monotone run (`base` earlier), which every counter here is;
    /// saturating guards against misuse rather than wrapping.
    pub fn delta_since(&self, base: &SimStats) -> SimStats {
        let mut d = SimStats::default();
        let a = self.counters();
        let b = base.counters();
        for (dst, (x, y)) in d.counters_mut().into_iter().zip(a.into_iter().zip(b)) {
            *dst = x.saturating_sub(y);
        }
        d
    }

    /// Counter-wise `self += other` (per-interval accumulation).
    pub fn accumulate(&mut self, other: &SimStats) {
        let o = other.counters();
        for (dst, v) in self.counters_mut().into_iter().zip(o) {
            *dst += v;
        }
    }

    /// Counter-wise scaling by `num / den` with u128 intermediates and
    /// round-to-nearest — the sampled-run extrapolation from measured
    /// windows to the whole run.
    pub fn scaled(&self, num: u64, den: u64) -> SimStats {
        let den = den.max(1) as u128;
        let mut s = SimStats::default();
        let a = self.counters();
        for (dst, v) in s.counters_mut().into_iter().zip(a) {
            *dst = ((v as u128 * num as u128 + den / 2) / den) as u64;
        }
        s
    }
}

/// Geometric mean helper for the paper's GEOMEAN rows.
///
/// Total on every input: non-positive values have no logarithm, so they
/// are skipped rather than poisoning the mean, and `None` comes back
/// when nothing contributes (empty slice, or all values non-positive).
/// Speedups and normalized ratios are positive by construction, so a
/// skipped value usually means a bug upstream — worth a caller-side
/// check — but an aggregation driver fed an empty or degenerate cell
/// must not panic mid-sweep.
pub fn geomean(values: &[f64]) -> Option<f64> {
    debug_assert!(
        values.iter().all(|v| v.is_finite()),
        "geomean given non-finite value in {values:?}"
    );
    let mut log_sum = 0.0;
    let mut n = 0u32;
    for &v in values {
        if v > 0.0 {
            log_sum += v.ln();
            n += 1;
        }
    }
    (n > 0).then(|| (log_sum / f64::from(n)).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics() {
        let mut s = SimStats {
            cycles: 2000,
            instructions: 1000,
            ..Default::default()
        };
        s.record_branch(BranchClass::IndirectDispatch, true);
        s.record_branch(BranchClass::IndirectDispatch, false);
        s.record_branch(BranchClass::Conditional, true);
        assert_eq!(s.total_mispredictions(), 2);
        assert!((s.branch_mpki() - 2.0).abs() < 1e-12);
        assert!((s.dispatch_mpki() - 1.0).abs() < 1e-12);
        assert!((s.ipc() - 0.5).abs() < 1e-12);
        assert!((s.cpi() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn dispatch_fraction() {
        let s = SimStats {
            instructions: 400,
            dispatch_instructions: 100,
            ..Default::default()
        };
        assert!((s.dispatch_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn geomean_basic() {
        assert!((geomean(&[1.0, 4.0]).unwrap() - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]).unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_is_total() {
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[0.0, -3.0]), None);
        // Non-positive values are skipped, not averaged in as garbage.
        assert!((geomean(&[0.0, 2.0, 8.0]).unwrap() - 4.0).abs() < 1e-12);
        assert!((geomean(&[-1.0, 5.0]).unwrap() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn interval_arithmetic_round_trips() {
        let mut base = SimStats {
            cycles: 100,
            instructions: 50,
            ..Default::default()
        };
        base.icache.accesses = 40;
        base.btb.jte_inserts = 7;
        let mut later = SimStats {
            cycles: 260,
            instructions: 130,
            ..Default::default()
        };
        later.icache.accesses = 90;
        later.btb.jte_inserts = 19;
        let d = later.delta_since(&base);
        assert_eq!(d.cycles, 160);
        assert_eq!(d.instructions, 80);
        assert_eq!(d.icache.accesses, 50);
        assert_eq!(d.btb.jte_inserts, 12);
        let mut re = base.clone();
        re.accumulate(&d);
        assert_eq!(re, later);
        // Scaling rounds to nearest.
        let s = d.scaled(3, 2);
        assert_eq!(s.cycles, 240);
        assert_eq!(s.btb.jte_inserts, 18);
        assert_eq!(d.scaled(1, 3).instructions, 27); // 80/3 = 26.67 → 27
    }

    #[test]
    fn access_mpki() {
        let a = AccessCounters {
            accesses: 100,
            misses: 5,
            writebacks: 0,
        };
        assert!((a.mpki(1000) - 5.0).abs() < 1e-12);
        assert_eq!(a.mpki(0), 0.0);
    }
}
