//! Memory stage: D-cache / D-TLB access charging and the shared L1-miss
//! path through the optional L2 to DRAM. Fetch-side charging lives in
//! [`super::frontend`] (it is part of fetch timing) but funnels through
//! the same [`Machine::l1_miss_cost`] so both sides price misses
//! identically.

use super::Machine;
use crate::trace::{DataAccess, L2Access};

impl Machine {
    /// Cost of an L1 miss (L2 hit or DRAM), updating L2 stats. Also
    /// reports the L2 outcome for trace attribution.
    pub(super) fn l1_miss_cost(&mut self, addr: u64, write: bool) -> (u64, Option<L2Access>) {
        match &mut self.l2 {
            Some(l2) => {
                self.stats.l2.accesses += 1;
                let a = l2.access(addr, write);
                if a.writeback {
                    self.stats.l2.writebacks += 1;
                }
                let ev = L2Access { miss: !a.hit, writeback: a.writeback };
                if a.hit {
                    (self.cfg.l2_latency, Some(ev))
                } else {
                    self.stats.l2.misses += 1;
                    (self.cfg.l2_latency + self.cfg.dram_latency, Some(ev))
                }
            }
            None => (self.cfg.dram_latency, None),
        }
    }

    /// Data access timing; charges miss cycles and records attribution.
    /// Under `WARMING` the D-TLB / D-cache / L2 contents and statistics
    /// update exactly as in detailed mode, but no cycles are charged.
    pub(super) fn data_timing<const OBSERVED: bool, const WARMING: bool>(
        &mut self,
        addr: u64,
        write: bool,
    ) {
        let mut d = DataAccess::default();
        self.stats.dtlb.accesses += 1;
        if !self.dtlb.access(addr) {
            self.stats.dtlb.misses += 1;
            d.dtlb_miss = true;
            d.penalty += self.cfg.tlb_miss_penalty;
            if !WARMING {
                self.cycle += self.cfg.tlb_miss_penalty;
            }
        }
        self.stats.dcache.accesses += 1;
        let a = self.dcache.access(addr, write);
        if a.writeback {
            self.stats.dcache.writebacks += 1;
            d.writeback = true;
        }
        if !a.hit {
            self.stats.dcache.misses += 1;
            d.dcache_miss = true;
            let (cost, l2) = self.l1_miss_cost(addr, write);
            d.l2 = l2;
            d.penalty += cost;
            if !WARMING {
                self.cycle += cost;
            }
        }
        if OBSERVED {
            self.scratch.data = Some(d);
        }
    }
}
