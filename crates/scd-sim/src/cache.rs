//! Set-associative cache tag model (timing only — data lives in
//! [`crate::GuestMemory`]).

use crate::snapshot::{SnapshotError, Walk};

/// Replacement policy for caches and the BTB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Replacement {
    /// Least-recently-used.
    Lru,
    /// Round-robin (as in the paper's simulator BTB configuration).
    RoundRobin,
}

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size: u64,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes.
    pub line: u64,
    /// Replacement policy.
    pub replacement: Replacement,
}

impl CacheConfig {
    /// A convenience constructor with 64-byte lines and LRU replacement.
    pub fn new(size: u64, ways: usize) -> Self {
        CacheConfig { size, ways, line: 64, replacement: Replacement::Lru }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        (self.size / (self.line * self.ways as u64)) as usize
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    valid: bool,
    dirty: bool,
    tag: u64,
    lru: u64,
}

/// Outcome of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheAccess {
    /// The access hit in the cache.
    pub hit: bool,
    /// A dirty line was evicted (write-back traffic).
    pub writeback: bool,
}

/// A set-associative, write-back, write-allocate cache tag array.
#[derive(Debug)]
pub struct Cache {
    cfg: CacheConfig,
    sets: usize,
    lines: Vec<Line>,
    rr_next: Vec<usize>,
    tick: u64,
    line_shift: u32,
    /// MRU memo: block address and absolute line index of the most
    /// recent access. Accesses are strongly streaky (16 sequential
    /// fetches share an I-line; interpreter data reuses a few D-lines),
    /// so a repeat of the last block skips the set scan. Pure fast path:
    /// `tick`, `lru` and `dirty` update exactly as the scan would, and
    /// the memoized line cannot have been evicted because every access
    /// (the only thing that replaces lines) refreshes the memo.
    /// Invalidated by [`Cache::flush`] and snapshot restore.
    last_blk: u64,
    last_idx: usize,
}

impl Cache {
    /// Builds a cache from its configuration.
    ///
    /// # Panics
    /// Panics if the geometry is degenerate (zero sets/ways, or a line
    /// size that is not a power of two).
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(cfg.line.is_power_of_two(), "line size must be a power of two");
        assert!(cfg.ways > 0, "cache must have at least one way");
        let sets = cfg.sets();
        assert!(sets > 0, "cache must have at least one set");
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        Cache {
            cfg,
            sets,
            lines: vec![Line::default(); sets * cfg.ways],
            rr_next: vec![0; sets],
            tick: 0,
            line_shift: cfg.line.trailing_zeros(),
            last_blk: u64::MAX,
            last_idx: 0,
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    #[inline]
    fn index_tag(&self, addr: u64) -> (usize, u64) {
        let blk = addr >> self.line_shift;
        ((blk as usize) & (self.sets - 1), blk >> self.sets.trailing_zeros())
    }

    /// Performs one access; allocates on miss.
    #[inline]
    pub fn access(&mut self, addr: u64, write: bool) -> CacheAccess {
        self.tick += 1;
        let blk = addr >> self.line_shift;
        if blk == self.last_blk {
            let line = &mut self.lines[self.last_idx];
            line.lru = self.tick;
            line.dirty |= write;
            return CacheAccess { hit: true, writeback: false };
        }
        self.access_slow(addr, blk, write)
    }

    fn access_slow(&mut self, addr: u64, blk: u64, write: bool) -> CacheAccess {
        let (set, tag) = self.index_tag(addr);
        let base = set * self.cfg.ways;
        let ways = &mut self.lines[base..base + self.cfg.ways];
        for (i, line) in ways.iter_mut().enumerate() {
            if line.valid && line.tag == tag {
                line.lru = self.tick;
                line.dirty |= write;
                self.last_blk = blk;
                self.last_idx = base + i;
                return CacheAccess { hit: true, writeback: false };
            }
        }
        // Miss: pick a victim.
        let victim = match self.cfg.replacement {
            Replacement::Lru => {
                let mut v = 0;
                let mut best = u64::MAX;
                for (i, line) in ways.iter().enumerate() {
                    if !line.valid {
                        v = i;
                        break;
                    }
                    if line.lru < best {
                        best = line.lru;
                        v = i;
                    }
                }
                v
            }
            Replacement::RoundRobin => {
                let v = self.rr_next[set];
                self.rr_next[set] = (v + 1) % self.cfg.ways;
                v
            }
        };
        let writeback = ways[victim].valid && ways[victim].dirty;
        ways[victim] = Line { valid: true, dirty: write, tag, lru: self.tick };
        self.last_blk = blk;
        self.last_idx = base + victim;
        CacheAccess { hit: false, writeback }
    }

    /// Block number of `addr` (the memo key used by [`Cache::access`]).
    #[inline]
    pub(crate) fn block_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    /// Applies `k` deferred same-block touches to the memo-resident
    /// line in one step: `tick` advances by `k` and the line becomes
    /// MRU at the final tick — bit-identical to `k` [`Cache::access`]
    /// calls on the memoized block (each of which would hit and only
    /// re-stamp the same line's `lru`). The machine's fetch-streak fast
    /// path batches consecutive same-line fetches through this.
    #[inline]
    pub(crate) fn bump_mru(&mut self, k: u64) {
        debug_assert_ne!(self.last_blk, u64::MAX, "bump_mru without an armed memo");
        self.tick += k;
        self.lines[self.last_idx].lru = self.tick;
    }

    /// Invalidates every line (used by tests, context-switch modeling
    /// and the cache-invalidation fault hook).
    pub fn flush(&mut self) {
        for l in &mut self.lines {
            *l = Line::default();
        }
        self.last_blk = u64::MAX;
    }

    /// The checkpoint walk. Loading invalidates the MRU memo.
    pub(crate) fn walk(&mut self, w: &mut impl Walk) -> Result<(), SnapshotError> {
        w.shape(self.lines.len(), "cache line count")?;
        for l in &mut self.lines {
            w.flags([&mut l.valid, &mut l.dirty], "cache line flags")?;
            w.word(&mut l.tag)?;
            w.word(&mut l.lru)?;
        }
        w.shape(self.rr_next.len(), "cache set count")?;
        for v in &mut self.rr_next {
            w.index(v, self.cfg.ways, "cache round-robin way")?;
        }
        w.word(&mut self.tick)?;
        if w.loading() {
            self.last_blk = u64::MAX;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets x 2 ways x 64B lines = 256 B
        Cache::new(CacheConfig { size: 256, ways: 2, line: 64, replacement: Replacement::Lru })
    }

    #[test]
    fn hit_after_fill() {
        let mut c = tiny();
        assert!(!c.access(0x0, false).hit);
        assert!(c.access(0x0, false).hit);
        assert!(c.access(0x3f, false).hit); // same line
        assert!(!c.access(0x40, false).hit); // next line, other set
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Set 0 holds lines with addr bits [6]=0: 0x000, 0x080, 0x100 map to set 0.
        c.access(0x000, false);
        c.access(0x080, false);
        c.access(0x000, false); // touch 0x000, making 0x080 LRU
        assert!(!c.access(0x100, false).hit); // evicts 0x080
        assert!(c.access(0x000, false).hit);
        assert!(!c.access(0x080, false).hit);
    }

    #[test]
    fn dirty_writeback_reported() {
        let mut c = tiny();
        c.access(0x000, true); // dirty
        c.access(0x080, false);
        let a = c.access(0x100, false); // evicts 0x000 (LRU, dirty)
        assert!(!a.hit);
        assert!(a.writeback);
    }

    #[test]
    fn round_robin_cycles_ways() {
        let mut c = Cache::new(CacheConfig {
            size: 256,
            ways: 2,
            line: 64,
            replacement: Replacement::RoundRobin,
        });
        c.access(0x000, false); // way 0
        c.access(0x080, false); // way 1
        c.access(0x100, false); // way 0 evicted
        assert!(c.access(0x080, false).hit);
        assert!(!c.access(0x000, false).hit);
    }

    #[test]
    fn flush_invalidates() {
        let mut c = tiny();
        c.access(0x0, false);
        c.flush();
        assert!(!c.access(0x0, false).hit);
    }

    #[test]
    fn sets_computed() {
        let cfg = CacheConfig::new(16 * 1024, 2);
        assert_eq!(cfg.sets(), 128);
    }
}
