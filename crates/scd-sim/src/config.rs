//! Machine configurations, mirroring Table II of the paper.

use crate::btb::{BtbConfig, TwoLevelBtbConfig};
use crate::cache::{CacheConfig, Replacement};
use crate::predictor::DirectionConfig;

/// How indirect jumps (`jalr`) are predicted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndirectPredictor {
    /// Conventional PC-indexed BTB (the paper's baseline).
    BtbPc,
    /// Value-Based BTB Indexing (Farooq et al., HPCA'10): registered
    /// dispatch jumps index the BTB with hash(PC, hint value).
    Vbbi,
    /// ITTAGE (Seznec & Michaud): tagged geometric-history target
    /// prediction for all indirect jumps (related-work comparison).
    Ittage,
}

/// SCD-specific knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScdConfig {
    /// If false, `bop` always falls through and `jru` behaves like a plain
    /// indirect jump (lets SCD binaries run on a non-SCD core).
    pub enabled: bool,
    /// Fetch stalls until Rop is available (the paper's default second
    /// scheme). If false, an unready `bop` simply falls through to the
    /// slow path (the paper's first scheme).
    pub stall_on_unready: bool,
    /// Extra bubbles charged on a `bop` hit (0 = BTB redirects next-PC
    /// selection in the fetch stage, as in Figure 5).
    pub bop_hit_bubbles: u64,
    /// Number of simultaneously tracked jump tables (branch IDs),
    /// Section IV.
    pub branch_ids: usize,
    /// If set, all JTEs (and Rop valid bits) are flushed every N
    /// instructions, emulating OS context switches (Section IV).
    pub flush_interval: Option<u64>,
    /// Store JTEs in a dedicated table instead of overlaying the BTB —
    /// the Case Block Table organization of Kaeli & Emma that the paper
    /// contrasts against (same dispatch behaviour, extra hardware, no
    /// BTB contention).
    pub dedicated_jte_table: bool,
    /// Size of the dedicated table when enabled.
    pub jte_table_entries: usize,
}

impl Default for ScdConfig {
    fn default() -> Self {
        ScdConfig {
            enabled: true,
            stall_on_unready: true,
            bop_hit_bubbles: 0,
            branch_ids: 4,
            flush_interval: None,
            dedicated_jte_table: false,
            jte_table_entries: 64,
        }
    }
}

/// Full machine configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Human-readable name for reports.
    pub name: &'static str,
    /// Instructions issued per cycle (1 = A5/Rocket, 2 = A8-like).
    pub issue_width: usize,
    /// Pipeline stages between fetch and operand read; governs how early
    /// Rop / VBBI hints must be ready at fetch.
    pub fetch_lead: u64,
    /// Penalty for a mispredicted branch (redirect from execute).
    pub branch_miss_penalty: u64,
    /// Penalty when a direct jump misses the BTB (redirect from decode).
    pub jal_redirect_penalty: u64,
    /// Direction predictor.
    pub direction: DirectionConfig,
    /// BTB geometry.
    pub btb: BtbConfig,
    /// Return address stack depth.
    pub ras_entries: usize,
    /// Indirect-jump prediction scheme.
    pub indirect: IndirectPredictor,
    /// L1 instruction cache.
    pub icache: CacheConfig,
    /// L1 data cache.
    pub dcache: CacheConfig,
    /// Optional unified L2.
    pub l2: Option<CacheConfig>,
    /// L1-miss, L2-hit latency (cycles).
    pub l2_latency: u64,
    /// Instruction TLB entries.
    pub itlb_entries: usize,
    /// Data TLB entries.
    pub dtlb_entries: usize,
    /// TLB miss (page walk) penalty in cycles.
    pub tlb_miss_penalty: u64,
    /// Memory access latency in core cycles (L2 miss or L1 miss without L2).
    pub dram_latency: u64,
    /// Extra cycles before a load's value can feed a dependent
    /// instruction (L1 hit latency - 1).
    pub load_use_penalty: u64,
    /// Integer multiply latency.
    pub mul_latency: u64,
    /// Integer divide latency.
    pub div_latency: u64,
    /// FP add/sub/mul/compare/convert latency.
    pub fpu_latency: u64,
    /// FP divide / sqrt latency.
    pub fdiv_latency: u64,
    /// SCD extension knobs.
    pub scd: ScdConfig,
}

impl SimConfig {
    /// The paper's *Simulator* column of Table II: gem5 MinorCPU modeling
    /// an ARM Cortex-A5-class single-issue in-order core at 1 GHz.
    pub fn embedded_a5() -> Self {
        SimConfig {
            name: "embedded-a5",
            issue_width: 1,
            fetch_lead: 2,
            branch_miss_penalty: 3,
            jal_redirect_penalty: 1,
            direction: DirectionConfig::Tournament { global_entries: 512, local_entries: 128 },
            btb: BtbConfig::set_assoc(256, 2, Replacement::RoundRobin),
            ras_entries: 8,
            indirect: IndirectPredictor::BtbPc,
            icache: CacheConfig {
                size: 16 * 1024,
                ways: 2,
                line: 64,
                replacement: Replacement::Lru,
            },
            dcache: CacheConfig {
                size: 32 * 1024,
                ways: 4,
                line: 64,
                replacement: Replacement::Lru,
            },
            l2: None,
            l2_latency: 8,
            itlb_entries: 10,
            dtlb_entries: 10,
            tlb_miss_penalty: 20,
            dram_latency: 60,
            load_use_penalty: 2,
            mul_latency: 3,
            div_latency: 20,
            fpu_latency: 4,
            fdiv_latency: 18,
            scd: ScdConfig::default(),
        }
    }

    /// The paper's *FPGA* column of Table II: RISC-V Rocket, 5-stage,
    /// 50 MHz (memory is relatively close at that clock).
    pub fn fpga_rocket() -> Self {
        SimConfig {
            name: "fpga-rocket",
            issue_width: 1,
            fetch_lead: 2,
            branch_miss_penalty: 2,
            jal_redirect_penalty: 1,
            direction: DirectionConfig::Gshare { entries: 128 },
            btb: BtbConfig::fully_assoc(62, Replacement::Lru),
            ras_entries: 2,
            indirect: IndirectPredictor::BtbPc,
            icache: CacheConfig {
                size: 16 * 1024,
                ways: 4,
                line: 64,
                replacement: Replacement::Lru,
            },
            dcache: CacheConfig {
                size: 16 * 1024,
                ways: 4,
                line: 64,
                replacement: Replacement::Lru,
            },
            l2: None,
            l2_latency: 6,
            itlb_entries: 8,
            dtlb_entries: 8,
            tlb_miss_penalty: 12,
            dram_latency: 20,
            load_use_penalty: 1,
            mul_latency: 3,
            div_latency: 20,
            fpu_latency: 4,
            fdiv_latency: 18,
            scd: ScdConfig::default(),
        }
    }

    /// The higher-end in-order core of Section VI-C2 (Cortex-A8-like):
    /// dual issue, 32 KB 4-way I$, 256 KB L2, 512-entry BTB.
    pub fn highend_a8() -> Self {
        let mut c = SimConfig::embedded_a5();
        c.name = "highend-a8";
        c.issue_width = 2;
        c.icache =
            CacheConfig { size: 32 * 1024, ways: 4, line: 64, replacement: Replacement::Lru };
        c.btb = BtbConfig::set_assoc(512, 2, Replacement::RoundRobin);
        c.l2 = Some(CacheConfig {
            size: 256 * 1024,
            ways: 8,
            line: 64,
            replacement: Replacement::Lru,
        });
        c.l2_latency = 8;
        c.dram_latency = 90;
        c
    }

    /// Returns a copy with a different BTB entry count (sensitivity study,
    /// Fig. 11a-b).
    pub fn with_btb_entries(mut self, entries: usize) -> Self {
        self.btb.entries = entries;
        self
    }

    /// Returns a copy with a JTE cap (sensitivity study, Fig. 11c-d).
    pub fn with_jte_cap(mut self, cap: Option<usize>) -> Self {
        self.btb.jte_cap = cap;
        self
    }

    /// Returns a copy using the VBBI indirect predictor.
    pub fn with_vbbi(mut self) -> Self {
        self.indirect = IndirectPredictor::Vbbi;
        self
    }

    /// Returns a copy using the ITTAGE indirect predictor.
    pub fn with_ittage(mut self) -> Self {
        self.indirect = IndirectPredictor::Ittage;
        self
    }

    /// Returns a copy with SCD disabled in hardware.
    pub fn without_scd(mut self) -> Self {
        self.scd.enabled = false;
        self
    }

    /// Returns a copy using a dedicated (CBT-style) jump-table-entry
    /// table instead of the BTB overlay.
    pub fn with_dedicated_jte_table(mut self, entries: usize) -> Self {
        self.scd.dedicated_jte_table = true;
        self.scd.jte_table_entries = entries;
        self
    }

    /// Returns a copy using the realistic two-level BTB organization
    /// (extension study; DESIGN.md "Two-level BTB"). The replacement
    /// policy and JTE cap of the current BTB carry over.
    pub fn with_two_level_btb(mut self, tl: TwoLevelBtbConfig) -> Self {
        let mut btb = BtbConfig::two_level(tl, self.btb.replacement);
        btb.jte_cap = self.btb.jte_cap;
        self.btb = btb;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_table_ii() {
        let a5 = SimConfig::embedded_a5();
        assert_eq!(a5.btb.entries, 256);
        assert_eq!(a5.btb.ways, 2);
        assert_eq!(a5.branch_miss_penalty, 3);
        assert_eq!(a5.ras_entries, 8);
        assert_eq!(a5.icache.size, 16 * 1024);
        assert_eq!(a5.dcache.size, 32 * 1024);

        let fpga = SimConfig::fpga_rocket();
        assert_eq!(fpga.btb.entries, 62);
        assert_eq!(fpga.btb.ways, 0); // fully associative
        assert_eq!(fpga.branch_miss_penalty, 2);
        assert_eq!(fpga.ras_entries, 2);
        assert!(matches!(fpga.direction, DirectionConfig::Gshare { entries: 128 }));

        let a8 = SimConfig::highend_a8();
        assert_eq!(a8.issue_width, 2);
        assert_eq!(a8.btb.entries, 512);
        assert!(a8.l2.is_some());
    }

    #[test]
    fn builder_modifiers() {
        let c = SimConfig::embedded_a5().with_btb_entries(64).with_jte_cap(Some(4)).with_vbbi();
        assert_eq!(c.btb.entries, 64);
        assert_eq!(c.btb.jte_cap, Some(4));
        assert_eq!(c.indirect, IndirectPredictor::Vbbi);
        assert!(!SimConfig::embedded_a5().without_scd().scd.enabled);
    }
}
