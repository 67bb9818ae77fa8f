//! A small fully-associative TLB model with LRU replacement.
//!
//! The guest runs on an identity mapping (no page tables); the TLB exists
//! purely to charge realistic miss penalties on first touch of each page,
//! as in the paper's gem5 and Rocket configurations (8–10 entries).

use crate::snapshot::{SnapshotError, Walk};

const PAGE_SHIFT: u32 = 12;

#[derive(Debug, Clone, Copy, Default)]
struct TlbEntry {
    valid: bool,
    vpn: u64,
    lru: u64,
}

/// Fully-associative translation lookaside buffer.
#[derive(Debug)]
pub struct Tlb {
    entries: Vec<TlbEntry>,
    tick: u64,
    /// MRU memo: page and entry index of the most recent access, so the
    /// (overwhelmingly common) same-page streak skips the associative
    /// scan. State-faithful: `tick` and `lru` update exactly as the scan
    /// would, and the memoized entry cannot have been replaced because
    /// every access refreshes the memo. Invalidated by [`Tlb::flush`]
    /// and snapshot restore.
    last_vpn: u64,
    last_idx: usize,
}

impl Tlb {
    /// Creates a TLB with `entries` slots.
    ///
    /// # Panics
    /// Panics if `entries` is zero.
    pub fn new(entries: usize) -> Self {
        assert!(entries > 0, "TLB needs at least one entry");
        Tlb { entries: vec![TlbEntry::default(); entries], tick: 0, last_vpn: u64::MAX, last_idx: 0 }
    }

    /// Looks up the page containing `addr`, filling on miss.
    /// Returns `true` on hit.
    ///
    /// The hit scan does nothing but compare tags, so the (vastly more
    /// common) hit path stays branch-light; victim selection is deferred
    /// to a second pass taken only on a miss. Both passes observe the
    /// same entry state, so replacement decisions are unchanged.
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        self.tick += 1;
        let vpn = addr >> PAGE_SHIFT;
        if vpn == self.last_vpn {
            self.entries[self.last_idx].lru = self.tick;
            return true;
        }
        for (i, e) in self.entries.iter_mut().enumerate() {
            if e.valid && e.vpn == vpn {
                e.lru = self.tick;
                self.last_vpn = vpn;
                self.last_idx = i;
                return true;
            }
        }
        self.fill(vpn)
    }

    /// Miss path: picks the LRU (or first invalid) victim and fills it.
    #[cold]
    fn fill(&mut self, vpn: u64) -> bool {
        let mut victim = 0;
        let mut best = u64::MAX;
        for (i, e) in self.entries.iter().enumerate() {
            let score = if e.valid { e.lru } else { 0 };
            if score < best {
                best = score;
                victim = i;
            }
        }
        self.entries[victim] = TlbEntry { valid: true, vpn, lru: self.tick };
        self.last_vpn = vpn;
        self.last_idx = victim;
        false
    }

    /// Applies `k` deferred same-page touches to the memo-resident
    /// entry in one step — bit-identical to `k` [`Tlb::access`] calls
    /// on the memoized page (each a hit re-stamping the same entry's
    /// `lru`). Companion to [`crate::cache::Cache::bump_mru`]: an
    /// I-cache line never spans a page, so the machine's fetch streak
    /// covers both structures.
    #[inline]
    pub(crate) fn bump_mru(&mut self, k: u64) {
        debug_assert_ne!(self.last_vpn, u64::MAX, "bump_mru without an armed memo");
        self.tick += k;
        self.entries[self.last_idx].lru = self.tick;
    }

    /// Invalidates all entries.
    pub fn flush(&mut self) {
        for e in &mut self.entries {
            e.valid = false;
        }
        self.last_vpn = u64::MAX;
    }

    /// The checkpoint walk. Loading invalidates the MRU memo.
    pub(crate) fn walk(&mut self, w: &mut impl Walk) -> Result<(), SnapshotError> {
        w.shape(self.entries.len(), "TLB size")?;
        for e in &mut self.entries {
            w.flags([&mut e.valid], "TLB entry flags")?;
            w.word(&mut e.vpn)?;
            w.word(&mut e.lru)?;
        }
        w.word(&mut self.tick)?;
        if w.loading() {
            self.last_vpn = u64::MAX;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_page_hits() {
        let mut t = Tlb::new(2);
        assert!(!t.access(0x1000));
        assert!(t.access(0x1ffc));
        assert!(!t.access(0x2000));
        assert!(t.access(0x1004));
    }

    #[test]
    fn lru_replacement() {
        let mut t = Tlb::new(2);
        t.access(0x1000);
        t.access(0x2000);
        t.access(0x1000); // 0x2000 becomes LRU
        assert!(!t.access(0x3000)); // evicts 0x2000
        assert!(t.access(0x1000));
        assert!(!t.access(0x2000));
    }

    #[test]
    fn flush_clears() {
        let mut t = Tlb::new(4);
        t.access(0x1000);
        t.flush();
        assert!(!t.access(0x1000));
    }
}
