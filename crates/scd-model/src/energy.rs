//! Activity-based energy model: dynamic energy from the simulator's
//! event counts plus leakage over runtime. This grounds the Table V EDP
//! number in *measured activity* rather than a constant-power
//! assumption, and directly captures the paper's Section II-B
//! observation that a short-circuited dispatch also skips ~10 cache
//! accesses' worth of energy per bytecode.

use scd_sim::SimStats;

/// Per-event energies (picojoules) for a 40 nm embedded core, and
/// leakage power. Values are textbook-scale estimates (small L1 SRAM
/// access ≈ 10–25 pJ at 40 nm, ALU op ≈ 2–6 pJ, DRAM access ≈ nJ-class
/// charged partially to the core boundary); the *relative* energy
/// between schemes is what the reproduction relies on.
#[derive(Debug, Clone, Copy)]
pub struct EnergyParams {
    /// Base per-instruction pipeline energy (fetch/decode/regfile/ALU).
    pub inst_pj: f64,
    /// L1 instruction cache access.
    pub icache_access_pj: f64,
    /// L1 data cache access.
    pub dcache_access_pj: f64,
    /// L1 miss serviced from memory (controller + IO at core boundary).
    pub dram_access_pj: f64,
    /// BTB lookup or insert.
    pub btb_access_pj: f64,
    /// TLB lookup.
    pub tlb_access_pj: f64,
    /// Pipeline flush (mispredict recovery).
    pub flush_pj: f64,
    /// Leakage + clock-tree power in milliwatts.
    pub leakage_mw: f64,
    /// Core clock in Hz (for converting cycles to seconds).
    pub freq_hz: f64,
}

impl Default for EnergyParams {
    fn default() -> Self {
        // 40 nm embedded class at the FPGA-config's synthesized 500 MHz.
        EnergyParams {
            inst_pj: 6.0,
            icache_access_pj: 14.0,
            dcache_access_pj: 16.0,
            dram_access_pj: 600.0,
            btb_access_pj: 2.5,
            tlb_access_pj: 1.2,
            flush_pj: 18.0,
            leakage_mw: 4.0,
            freq_hz: 500e6,
        }
    }
}

/// Energy breakdown of one run.
#[derive(Debug, Clone, Copy)]
pub struct EnergyEstimate {
    /// Activity energy in microjoules.
    pub dynamic_uj: f64,
    /// Leakage + clock energy in microjoules.
    pub leakage_uj: f64,
    /// Runtime in seconds at the configured clock.
    pub runtime_s: f64,
}

impl EnergyEstimate {
    /// Total energy in microjoules.
    pub fn total_uj(&self) -> f64 {
        self.dynamic_uj + self.leakage_uj
    }

    /// Energy-delay product in microjoule-seconds.
    pub fn edp(&self) -> f64 {
        self.total_uj() * self.runtime_s
    }
}

/// Computes the energy of a run from its statistics.
pub fn energy_of_run(stats: &SimStats, p: &EnergyParams) -> EnergyEstimate {
    let branches = stats.cond.executed
        + stats.direct.executed
        + stats.ret.executed
        + stats.indirect_dispatch.executed
        + stats.indirect_other.executed;
    let dynamic_pj = stats.instructions as f64 * p.inst_pj
        + stats.icache.accesses as f64 * p.icache_access_pj
        + stats.dcache.accesses as f64 * p.dcache_access_pj
        + (stats.icache.misses + stats.dcache.misses + stats.l2.misses) as f64 * p.dram_access_pj
        + (branches + stats.bop_executed + stats.btb.jte_inserts) as f64 * p.btb_access_pj
        + (stats.itlb.accesses + stats.dtlb.accesses) as f64 * p.tlb_access_pj
        + stats.total_mispredictions() as f64 * p.flush_pj;
    let runtime_s = stats.cycles as f64 / p.freq_hz;
    EnergyEstimate {
        dynamic_uj: dynamic_pj / 1e6,
        leakage_uj: p.leakage_mw * runtime_s * 1e3, // mW * s = mJ -> uJ
        runtime_s,
    }
}

/// EDP improvement of `fast` over `base` (positive = better).
pub fn edp_improvement_measured(base: &SimStats, fast: &SimStats, p: &EnergyParams) -> f64 {
    1.0 - energy_of_run(fast, p).edp() / energy_of_run(base, p).edp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(insts: u64, cycles: u64, mispred: u64) -> SimStats {
        let mut s = SimStats { instructions: insts, cycles, ..Default::default() };
        s.icache.accesses = insts;
        s.dcache.accesses = insts / 3;
        for _ in 0..mispred {
            s.record_branch(scd_sim::BranchClass::IndirectDispatch, true);
        }
        s
    }

    #[test]
    fn energy_scales_with_activity() {
        let p = EnergyParams::default();
        let small = energy_of_run(&stats(1_000, 1_500, 10), &p);
        let big = energy_of_run(&stats(10_000, 15_000, 100), &p);
        assert!(big.total_uj() > small.total_uj() * 9.0);
        assert!(big.runtime_s > small.runtime_s * 9.0);
    }

    #[test]
    fn fewer_instructions_and_cycles_improve_edp() {
        let p = EnergyParams::default();
        let base = stats(10_000, 15_000, 300);
        let scd = stats(8_200, 12_000, 30);
        let imp = edp_improvement_measured(&base, &scd, &p);
        assert!(imp > 0.2 && imp < 0.7, "implausible EDP improvement {imp}");
    }

    #[test]
    fn leakage_dominates_idle_runs() {
        let p = EnergyParams::default();
        // Very long run with almost no activity: leakage wins.
        let mut s = SimStats { instructions: 10, cycles: 100_000_000, ..Default::default() };
        s.icache.accesses = 10;
        let e = energy_of_run(&s, &p);
        assert!(e.leakage_uj > e.dynamic_uj * 100.0);
    }

    #[test]
    fn edp_is_energy_times_delay() {
        let p = EnergyParams::default();
        let e = energy_of_run(&stats(1_000, 2_000, 5), &p);
        assert!((e.edp() - e.total_uj() * e.runtime_s).abs() < 1e-12);
    }
}
