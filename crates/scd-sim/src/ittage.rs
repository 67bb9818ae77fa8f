//! ITTAGE — the Indirect Target TAGE predictor (Seznec & Michaud),
//! which the paper's related-work section cites as the most accurate
//! indirect-branch predictor. Included as an extra comparison point
//! beyond VBBI: like all history-based predictors it can learn dispatch
//! targets, but it still leaves the dispatcher's redundant computation
//! in place — SCD's actual target.
//!
//! This is a compact implementation: a set of tagged tables indexed by
//! hashes of the PC and geometrically longer slices of the taken-target
//! history, with provider/alternate selection, useful bits and
//! confidence counters.

use crate::predictor::Counter2;
use crate::snapshot::{SnapshotError, Walk};

#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    valid: bool,
    tag: u16,
    target: u64,
    conf: Counter2,
    useful: bool,
}

#[derive(Debug)]
struct Table {
    entries: Vec<Entry>,
    hist_bits: u32,
}

/// The ITTAGE predictor.
#[derive(Debug)]
pub struct Ittage {
    tables: Vec<Table>,
    /// Path/target history: low bits of recent indirect targets.
    history: u128,
    /// Allocation tie-breaker.
    clock: u64,
}

/// Geometric history lengths (in bits of target history).
const HIST_LENGTHS: [u32; 4] = [8, 24, 56, 120];
const TABLE_ENTRIES: usize = 256;

impl Default for Ittage {
    fn default() -> Self {
        Ittage::new()
    }
}

impl Ittage {
    /// Creates an ITTAGE with four 256-entry tagged tables.
    pub fn new() -> Self {
        Ittage {
            tables: HIST_LENGTHS
                .iter()
                .map(|&hist_bits| Table {
                    entries: vec![Entry::default(); TABLE_ENTRIES],
                    hist_bits,
                })
                .collect(),
            history: 0,
            clock: 0,
        }
    }

    fn fold(history: u128, bits: u32) -> u64 {
        let mask = if bits >= 128 { u128::MAX } else { (1u128 << bits) - 1 };
        let mut h = history & mask;
        let mut out = 0u64;
        while h != 0 {
            out ^= (h & 0xFFFF) as u64;
            h >>= 16;
        }
        out
    }

    fn index_tag(&self, ti: usize, pc: u64) -> (usize, u16) {
        let folded = Self::fold(self.history, self.tables[ti].hist_bits);
        // Index and tag use independent mixes so every table spreads a
        // PC's history contexts across its whole set.
        let idx_mix = (pc >> 2) ^ folded ^ (folded >> 7) ^ (ti as u64).wrapping_mul(0x9E37_79B9);
        let index = (idx_mix as usize) & (TABLE_ENTRIES - 1);
        let tag_mix = (pc >> 2).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ folded.wrapping_mul(0x85EB_CA77_C2B2_AE63 ^ ti as u64);
        let tag = ((tag_mix >> 24) & 0xFFFF) as u16;
        (index, tag)
    }

    /// Longest-history matching entry, if any: (table, index).
    fn provider(&self, pc: u64) -> Option<(usize, usize)> {
        for ti in (0..self.tables.len()).rev() {
            let (idx, tag) = self.index_tag(ti, pc);
            let e = &self.tables[ti].entries[idx];
            if e.valid && e.tag == tag {
                return Some((ti, idx));
            }
        }
        None
    }

    /// Predicts the target of the indirect jump at `pc` (None = no
    /// tagged component hits; fall back to the BTB).
    pub fn predict(&self, pc: u64) -> Option<u64> {
        self.provider(pc).map(|(ti, idx)| self.tables[ti].entries[idx].target)
    }

    /// Trains with the resolved target and advances the history.
    pub fn update(&mut self, pc: u64, target: u64) {
        self.clock += 1;
        let provider = self.provider(pc);
        let correct =
            provider.is_some_and(|(ti, idx)| self.tables[ti].entries[idx].target == target);

        match provider {
            Some((ti, idx)) if correct => {
                let e = &mut self.tables[ti].entries[idx];
                e.conf.update(true);
                e.useful = true;
            }
            Some((ti, idx)) => {
                // Wrong provider: decay confidence; replace the target
                // once confidence is gone; try to allocate a
                // longer-history entry.
                {
                    let e = &mut self.tables[ti].entries[idx];
                    e.conf.update(false);
                    if !e.conf.taken() {
                        e.target = target;
                        e.useful = false;
                    }
                }
                self.allocate(ti + 1, pc, target);
            }
            None => {
                self.allocate(0, pc, target);
            }
        }

        // Target history: fold in a couple of bits mixed from across the
        // taken target's address.
        let bits = ((target >> 2) ^ (target >> 7) ^ (target >> 12)) & 0x3;
        self.history = (self.history << 2) | bits as u128;
    }

    /// Allocates an entry in some table with history >= `from`,
    /// preferring non-useful victims.
    fn allocate(&mut self, from: usize, pc: u64, target: u64) {
        for ti in from..self.tables.len() {
            let (idx, tag) = self.index_tag(ti, pc);
            let e = &mut self.tables[ti].entries[idx];
            if !e.valid || !e.useful || self.clock.is_multiple_of(17) {
                *e = Entry {
                    valid: true,
                    tag,
                    target,
                    conf: Counter2::weakly_taken(),
                    useful: false,
                };
                return;
            }
            // Aging: failed allocation attempts erode usefulness.
            e.useful = false;
        }
    }

    /// Fault hook: corrupts the predictor wholesale — random confidence,
    /// flipped target bits in valid entries, scrambled history. ITTAGE
    /// predictions are verified at execute, so this is timing-only
    /// state.
    pub(crate) fn scramble(&mut self, rng: &mut crate::fault::Rng) {
        for t in &mut self.tables {
            for e in &mut t.entries {
                if e.valid {
                    e.conf = Counter2::ALL[(rng.next() & 3) as usize];
                    e.target ^= rng.next() & 0xFFFC; // keep 4-byte alignment
                    e.useful = rng.next() & 1 != 0;
                }
            }
        }
        self.history ^= ((rng.next() as u128) << 64) | rng.next() as u128;
    }

    /// The checkpoint walk. An entry's `valid` and `useful` bits share
    /// a word with its confidence above them.
    pub(crate) fn walk(&mut self, w: &mut impl Walk) -> Result<(), SnapshotError> {
        w.shape(self.tables.len(), "ITTAGE table count")?;
        for t in &mut self.tables {
            w.shape(t.entries.len(), "ITTAGE table size")?;
            for e in &mut t.entries {
                let flags = [&mut e.valid, &mut e.useful];
                w.tag(&mut e.conf, &Counter2::ALL, flags, "ITTAGE confidence")?;
                w.word(&mut e.tag)?;
                w.word(&mut e.target)?;
            }
        }
        let (mut hi, mut lo) = ((self.history >> 64) as u64, self.history as u64);
        w.word(&mut hi)?;
        w.word(&mut lo)?;
        self.history = (hi as u128) << 64 | lo as u128;
        w.word(&mut self.clock)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_single_target() {
        let mut p = Ittage::new();
        let pc = 0x1000;
        for _ in 0..8 {
            p.update(pc, 0x2000);
        }
        assert_eq!(p.predict(pc), Some(0x2000));
    }

    #[test]
    fn learns_history_correlated_targets() {
        // A 2-periodic target pattern: plain BTB caps at 50%, ITTAGE
        // should learn it through the target history.
        let mut p = Ittage::new();
        let pc = 0x1000;
        let targets = [0x2000u64, 0x3000];
        let mut correct = 0;
        let mut total = 0;
        for i in 0..4000usize {
            let t = targets[i % 2];
            if i >= 2000 {
                total += 1;
                if p.predict(pc) == Some(t) {
                    correct += 1;
                }
            }
            p.update(pc, t);
        }
        assert!(
            correct * 10 >= total * 8,
            "ITTAGE should learn a periodic pattern: {correct}/{total}"
        );
    }

    #[test]
    fn cold_predicts_none() {
        let p = Ittage::new();
        assert_eq!(p.predict(0x1234), None);
    }

    #[test]
    fn distinct_pcs_do_not_interfere_destructively() {
        // Two monomorphic jumps trained in an interleaved loop: after
        // warm-up, both must predict correctly almost always.
        let mut p = Ittage::new();
        let mut correct = 0;
        let mut total = 0;
        for i in 0..400 {
            for (pc, t) in [(0x1000u64, 0xAAAAu64), (0x2000, 0xBBBB)] {
                if i >= 200 {
                    total += 1;
                    if p.predict(pc) == Some(t) {
                        correct += 1;
                    }
                }
                p.update(pc, t);
            }
        }
        assert!(
            correct * 10 >= total * 9,
            "interleaved monomorphic jumps should predict: {correct}/{total}"
        );
    }

    #[test]
    fn fold_covers_all_history_bits() {
        let h = 1u128 << 100;
        assert_ne!(Ittage::fold(h, 120), 0);
        assert_eq!(Ittage::fold(h, 56), 0); // outside the window
    }
}
