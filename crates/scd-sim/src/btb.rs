//! Branch target buffer with the SCD jump-table-entry (JTE) overlay.
//!
//! Each entry carries a kind tag (Section III-B of the paper extends the
//! J/B flag): `Pc` entries are conventional PC-indexed target
//! predictions, `Jte` entries cache software jump-table entries keyed by
//! `(branch id, opcode)`, and `Vbbi` entries are keyed by a hash of
//! (PC, hint value). The tag participates in tag match, so the three key
//! spaces can never satisfy each other's lookups even when their raw key
//! bits collide.
//!
//! The replacement policy implements the paper's default: an incoming
//! JTE may evict a `Pc`/`Vbbi` entry but those can never evict a JTE,
//! and an optional cap bounds the number of resident JTEs (Section IV /
//! Fig. 11c-d).
//!
//! ## JTE cap semantics
//!
//! `jte_cap` is a **global** bound on resident JTEs across all sets, not
//! a per-set quota. While at the cap, an incoming JTE must displace
//! another JTE so the population stays bounded:
//!
//! 1. if its own set holds a JTE, the replacement policy picks among
//!    those ways (ordinary same-set replacement);
//! 2. otherwise the globally least-recently-used JTE (in whatever set)
//!    is invalidated first, and the insert then proceeds in its own set
//!    under the normal no-cap priority rules.
//!
//! Rule 2 fixes a seed defect where an at-cap insert whose set held no
//! JTE was silently dropped forever — even when the set had invalid
//! ways — permanently locking the cap's population into whichever sets
//! filled first. A JTE insert is now only ever dropped when `jte_cap`
//! is `Some(0)`.
//!
//! ## Two-level organization
//!
//! `BtbOrg::TwoLevel` replaces the idealized single table with the
//! hierarchy observed in real Arm frontends (Yavarzadeh et al., arXiv
//! 2412.05413): a small zero-bubble L0 backed by a larger L1 whose
//! predictions cost extra fetch bubbles, with XOR-folded hashed index
//! and (for verified entry kinds) partial tags. See
//! [`TwoLevelBtbConfig`] for the hash functions and
//! [`Btb::lookup_leveled`] / [`Btb::insert`] for the movement rules:
//!
//! * Lookups probe L0 then L1. An L1 hit is promoted into the entry's
//!   L0 set only when that set has a free way; otherwise it stays in
//!   L1. Lookups never displace a valid entry, so the trace-event
//!   stat reconstruction (`ReplayStats`) stays exact.
//! * Inserts fill L0. The replaced L0 victim demotes into its own
//!   hashed L1 set under the same JTE-priority rules; at most one
//!   entry is lost per insert and it is reported through the existing
//!   [`InsertOutcome`] fields. The hierarchy is exclusive.
//! * `jte_cap` bounds resident JTEs across *both* levels; the at-cap
//!   global-LRU displacement searches both banks.

use crate::cache::Replacement;
use std::fmt;

/// BTB organization: the paper's idealized single table, or a
/// realistic two-level hierarchy with hashed index/tag functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BtbOrg {
    /// Single set-associative (or fully-associative) table indexed by
    /// the low key bits with full tags — the organization every paper
    /// figure uses.
    Ideal,
    /// Small L0 backed by a larger L1, both indexed by an XOR-fold of
    /// the key (extension study; module docs).
    TwoLevel(TwoLevelBtbConfig),
}

/// Geometry and hash parameters of the two-level organization.
///
/// Both banks index with `xor_fold(raw_key, fold_bits) & (sets - 1)`.
/// `Pc`/`Vbbi` entries store only `xor_fold(raw_key, tag_bits)` worth
/// of tag, so distinct branches can alias — those predictions are
/// verified at execute, so aliasing costs cycles, never correctness.
/// `Jte` entries keep their full key: a `bop` hit consumes the cached
/// target *unverified*, so a partial tag would change architectural
/// behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TwoLevelBtbConfig {
    /// L0 bank size in entries.
    pub l0_entries: usize,
    /// L0 associativity; `0` means fully associative.
    pub l0_ways: usize,
    /// L1 bank size in entries.
    pub l1_entries: usize,
    /// L1 associativity; `0` means fully associative.
    pub l1_ways: usize,
    /// XOR-fold chunk width for the set-index hash.
    pub fold_bits: u32,
    /// XOR-fold chunk width for the stored `Pc`/`Vbbi` tag.
    pub tag_bits: u32,
    /// Extra fetch bubbles when a prediction is served from L1.
    pub l1_bubbles: u64,
}

/// XOR-folds `v` into `bits`-wide chunks: the classic cheap BTB index
/// hash (chunk i is `v >> (i * bits)`, all chunks XORed together).
pub fn xor_fold(v: u64, bits: u32) -> u64 {
    debug_assert!((1..64).contains(&bits), "fold width must be 1..=63 bits");
    let mask = (1u64 << bits) - 1;
    let mut v = v;
    let mut acc = 0;
    while v != 0 {
        acc ^= v & mask;
        v >>= bits;
    }
    acc
}

impl TwoLevelBtbConfig {
    /// The default geometry of the study: a 32-entry 2-way L0 over a
    /// 512-entry 4-way L1, 8-bit folded index, 14-bit folded tags, two
    /// bubbles per L1-served prediction — the shape (though not the
    /// exact dimensions) reverse-engineered from Cortex/Neoverse
    /// frontends in arXiv 2412.05413.
    pub fn arm_like() -> Self {
        TwoLevelBtbConfig {
            l0_entries: 32,
            l0_ways: 2,
            l1_entries: 512,
            l1_ways: 4,
            fold_bits: 8,
            tag_bits: 14,
            l1_bubbles: 2,
        }
    }

    /// Returns a copy with a different index-hash fold width.
    pub fn with_fold_bits(mut self, bits: u32) -> Self {
        self.fold_bits = bits;
        self
    }

    /// Number of L0 sets.
    pub fn l0_sets(&self) -> usize {
        self.l0_entries / eff_ways(self.l0_entries, self.l0_ways)
    }

    /// Number of L1 sets.
    pub fn l1_sets(&self) -> usize {
        self.l1_entries / eff_ways(self.l1_entries, self.l1_ways)
    }

    /// L0 set index of a raw key (see [`BtbKey::raw`]).
    pub fn l0_index(&self, raw: u64) -> usize {
        (xor_fold(raw, self.fold_bits) as usize) & (self.l0_sets() - 1)
    }

    /// L1 set index of a raw key.
    pub fn l1_index(&self, raw: u64) -> usize {
        (xor_fold(raw, self.fold_bits) as usize) & (self.l1_sets() - 1)
    }

    /// The stored tag for a raw key: folded for verified kinds, full
    /// for `Jte` (see the type docs).
    pub fn tag_of(&self, kind: EntryKind, raw: u64) -> u64 {
        if kind == EntryKind::Jte {
            raw
        } else {
            xor_fold(raw, self.tag_bits)
        }
    }

    /// True when two raw keys of the same kind are indistinguishable
    /// to this organization at *both* levels (same hashed L1 set —
    /// which implies the same L0 set — and equal stored tags). The
    /// adversarial fuzz bias engineers key sets in one such class.
    pub fn aliases(&self, kind: EntryKind, a: u64, b: u64) -> bool {
        self.l1_index(a) == self.l1_index(b) && self.tag_of(kind, a) == self.tag_of(kind, b)
    }

    fn validate(&self) {
        assert!(
            (1..64).contains(&self.fold_bits) && (1..64).contains(&self.tag_bits),
            "fold/tag widths must be 1..=63 bits"
        );
        assert!(
            self.l0_sets() <= self.l1_sets(),
            "L0 must not have more sets than L1 (promotion index consistency)"
        );
        assert!(
            self.l1_sets() <= 1usize << self.fold_bits.min(63),
            "the folded index must cover the L1 set count"
        );
    }
}

fn eff_ways(entries: usize, ways: usize) -> usize {
    if ways == 0 {
        entries
    } else {
        ways
    }
}

/// BTB geometry and policy.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct BtbConfig {
    /// Total number of entries (both banks combined for `TwoLevel`).
    pub entries: usize,
    /// Associativity; `0` means fully associative. For `TwoLevel` this
    /// mirrors the L1 associativity and only informs the area model —
    /// the banks carry their own geometry.
    pub ways: usize,
    /// Replacement policy within a set (both banks for `TwoLevel`).
    pub replacement: Replacement,
    /// Maximum number of resident JTEs across all sets — and, for
    /// `TwoLevel`, across both banks (`None` = unbounded). See the
    /// module docs for the at-cap displacement rules.
    pub jte_cap: Option<usize>,
    /// Table organization.
    pub org: BtbOrg,
}

// Hand-written so the `Ideal` organization renders exactly as it did
// before `org` existed: the snapshot fingerprint and the result-cache
// manifest both hash `{:?}` of the config, so the derived form would
// have invalidated every pre-existing golden and cached result. A
// `TwoLevel` organization appends the field, keeping distinct
// organizations distinct in cache keys.
impl fmt::Debug for BtbConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_struct("BtbConfig");
        d.field("entries", &self.entries)
            .field("ways", &self.ways)
            .field("replacement", &self.replacement)
            .field("jte_cap", &self.jte_cap);
        if let BtbOrg::TwoLevel(tl) = self.org {
            d.field("org", &BtbOrg::TwoLevel(tl));
        }
        d.finish()
    }
}

impl BtbConfig {
    /// Set-associative BTB (paper simulator config: 256 entries, 2-way,
    /// round-robin).
    pub fn set_assoc(entries: usize, ways: usize, replacement: Replacement) -> Self {
        BtbConfig { entries, ways, replacement, jte_cap: None, org: BtbOrg::Ideal }
    }

    /// Fully-associative BTB (paper FPGA config: 62 entries, LRU).
    pub fn fully_assoc(entries: usize, replacement: Replacement) -> Self {
        BtbConfig { entries, ways: 0, replacement, jte_cap: None, org: BtbOrg::Ideal }
    }

    /// Two-level BTB (extension study; module docs). `entries`/`ways`
    /// summarize the combined capacity for the area model.
    pub fn two_level(tl: TwoLevelBtbConfig, replacement: Replacement) -> Self {
        BtbConfig {
            entries: tl.l0_entries + tl.l1_entries,
            ways: tl.l1_ways,
            replacement,
            jte_cap: None,
            org: BtbOrg::TwoLevel(tl),
        }
    }

    fn effective_ways(&self) -> usize {
        eff_ways(self.entries, self.ways)
    }
}

/// Which key space a BTB entry belongs to. Stored in the entry and
/// matched on lookup, so raw key collisions across spaces are inert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryKind {
    /// Conventional PC-indexed entry.
    Pc,
    /// SCD jump table entry.
    Jte,
    /// VBBI entry (hash of PC and hint value).
    Vbbi,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    valid: bool,
    kind: EntryKind,
    key: u64,
    target: u64,
    lru: u64,
}

impl Default for Entry {
    fn default() -> Self {
        Entry { valid: false, kind: EntryKind::Pc, key: 0, target: 0, lru: 0 }
    }
}

/// Declares [`BtbStats`] from one list of counters, with
/// [`BtbStats::counters`] and [`BtbStats::counters_mut`] walking them in
/// list order: the BTB's checkpoint words and the merge of the dedicated
/// JTE table's counters both derive from the list.
macro_rules! btb_counters {
    ($($(#[doc = $doc:literal])+ $field:ident,)+) => {
        /// Counters for BTB/JTE interaction, surfaced into `SimStats`.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct BtbStats {
            $($(#[doc = $doc])+ pub $field: u64,)+
        }

        impl BtbStats {
            /// Every counter, in declaration order.
            pub fn counters(&self) -> [u64; BTB_COUNTERS] {
                [$(self.$field),+]
            }

            /// Mutable borrows of every counter, in declaration order.
            pub fn counters_mut(&mut self) -> [&mut u64; BTB_COUNTERS] {
                [$(&mut self.$field),+]
            }
        }

        const BTB_COUNTERS: usize = [$(stringify!($field)),+].len();
    };
}

btb_counters! {
    /// JTE insertions performed (fresh entries; in-place target updates
    /// are not counted).
    jte_inserts,
    /// JTE insertions dropped because of the JTE cap (only possible
    /// with `jte_cap == Some(0)`).
    jte_cap_skips,
    /// Valid `Pc`/`Vbbi` entries evicted by an incoming JTE.
    btb_evicted_by_jte,
    /// Resident JTEs displaced by an insert (same-set replacement or
    /// the at-cap global eviction).
    jte_evictions,
    /// `Pc`/`Vbbi` insertions skipped because every way held a JTE.
    btb_blocked_by_jte,
    /// `jte.flush` invocations.
    jte_flushes,
    /// JTE entries invalidated by `jte.flush` invocations.
    jte_flushed,
}

/// What [`Btb::insert`] did, for per-event tracing and invariant
/// checking. Together with the inserted key's kind this determines the
/// exact [`BtbStats`] delta of the call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// Tag match: the existing entry's target was refreshed in place.
    Updated,
    /// A new entry was written.
    Inserted {
        /// Kind of the valid entry this insert displaced in its own
        /// set, if any.
        evicted: Option<EntryKind>,
        /// True when the at-cap rule additionally invalidated the
        /// globally least-recently-used JTE in another set.
        remote_jte_evicted: bool,
    },
    /// A JTE insert was dropped: the cap is in force and there is no
    /// resident JTE to displace (`jte_cap == Some(0)`).
    CapSkipped,
    /// A `Pc`/`Vbbi` insert found every candidate way holding a JTE.
    Blocked,
}

/// Diagnostic counters specific to the two-level organization. Kept
/// out of [`BtbStats`] deliberately: that struct is pinned into
/// `SimStats` goldens and reconstructed from trace insert events, and
/// these counters move on *lookups* (hits, promotions), which emit no
/// events.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TwoLevelStats {
    /// Lookups served by the L0 bank.
    pub l0_hits: u64,
    /// Lookups served by the L1 bank (each costs `l1_bubbles`).
    pub l1_hits: u64,
    /// L1 hits moved up into a free L0 way.
    pub promotions: u64,
    /// L0 victims moved down into their hashed L1 set.
    pub demotions: u64,
    /// L0 victims dropped because every way of their L1 set held a
    /// JTE the victim was not allowed to displace.
    pub demotion_drops: u64,
}

/// The valid entries of one bank, as `(kind, key, target)` triples
/// (see [`Btb::snapshot`] / [`Btb::snapshot_levels`]).
pub type LevelSnapshot = Vec<(EntryKind, u64, u64)>;

/// One bank (level) of the two-level organization. Same entry format
/// and replacement machinery as the Ideal table; only indexing and
/// tagging differ, and those live in [`TwoLevelBtbConfig`].
#[derive(Debug)]
struct Bank {
    sets: usize,
    ways: usize,
    entries: Vec<Entry>,
    rr_next: Vec<usize>,
}

impl Bank {
    fn new(entries: usize, ways: usize) -> Self {
        let ways = eff_ways(entries, ways);
        assert!(ways > 0 && entries > 0, "two-level BTB banks must be non-empty");
        assert_eq!(entries % ways, 0, "bank entries must divide into ways");
        let sets = entries / ways;
        assert!(sets.is_power_of_two(), "bank set count must be a power of two");
        Bank { sets, ways, entries: vec![Entry::default(); entries], rr_next: vec![0; sets] }
    }

    fn set_range(&self, set: usize) -> std::ops::Range<usize> {
        debug_assert!(set < self.sets);
        let base = set * self.ways;
        base..base + self.ways
    }

    /// Victim way within `set` under the priority filter `allowed`,
    /// mirroring the Ideal victim-selection rules. Returns an absolute
    /// entry index.
    fn pick_victim(
        &mut self,
        set: usize,
        replacement: Replacement,
        allowed: impl Fn(&Entry) -> bool,
    ) -> Option<usize> {
        let r = self.set_range(set);
        match replacement {
            Replacement::Lru => {
                let mut best: Option<(usize, u64)> = None;
                for (i, e) in self.entries[r.clone()].iter().enumerate() {
                    if !allowed(e) {
                        continue;
                    }
                    let score = if e.valid { e.lru } else { 0 };
                    if best.is_none_or(|(_, b)| score < b) {
                        best = Some((i, score));
                    }
                }
                best.map(|(i, _)| r.start + i)
            }
            Replacement::RoundRobin => {
                let start = self.rr_next[set];
                for k in 0..self.ways {
                    let i = (start + k) % self.ways;
                    if allowed(&self.entries[r.start + i]) {
                        self.rr_next[set] = (i + 1) % self.ways;
                        return Some(r.start + i);
                    }
                }
                None
            }
        }
    }
}

/// Live state of the two-level organization.
#[derive(Debug)]
struct TwoLevelState {
    tl: TwoLevelBtbConfig,
    l0: Bank,
    l1: Bank,
    stats: TwoLevelStats,
}

/// The branch target buffer.
#[derive(Debug)]
pub struct Btb {
    cfg: BtbConfig,
    sets: usize,
    ways: usize,
    entries: Vec<Entry>,
    rr_next: Vec<usize>,
    tick: u64,
    jte_count: usize,
    /// Two-level banks; `None` for the Ideal organization (whose state
    /// lives in `entries`/`rr_next` above, byte-compatible with every
    /// pre-existing snapshot).
    two: Option<TwoLevelState>,
    /// Interaction counters.
    pub stats: BtbStats,
}

/// Key space separator so PC keys, JTE keys and VBBI keys never collide.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BtbKey {
    /// Conventional PC-indexed entry.
    Pc(u64),
    /// SCD jump table entry: (branch id, opcode).
    Jte {
        /// Branch ID (Section IV, multiple jump tables).
        bid: u8,
        /// The masked opcode value from Rop.
        opcode: u64,
    },
    /// VBBI entry: hash of (PC, hint value).
    Vbbi(u64),
}

impl BtbKey {
    /// The key space this key lives in.
    pub fn kind(self) -> EntryKind {
        self.raw().1
    }

    /// The raw index/tag bits and kind of this key — what the table
    /// actually stores and hashes. Public so tests and the adversarial
    /// program generator can reason about collision classes.
    pub fn raw(self) -> (u64, EntryKind) {
        match self {
            // PCs are 4-byte aligned; drop the known-zero bits for indexing.
            BtbKey::Pc(pc) => (pc >> 2, EntryKind::Pc),
            BtbKey::Jte { bid, opcode } => (opcode ^ ((bid as u64) << 56), EntryKind::Jte),
            BtbKey::Vbbi(h) => (h, EntryKind::Vbbi),
        }
    }
}

impl Btb {
    /// Builds a BTB from its configuration.
    ///
    /// # Panics
    /// Panics if `entries` is not divisible into power-of-two sets.
    pub fn new(cfg: BtbConfig) -> Self {
        if let BtbOrg::TwoLevel(tl) = cfg.org {
            tl.validate();
            let l0 = Bank::new(tl.l0_entries, tl.l0_ways);
            let l1 = Bank::new(tl.l1_entries, tl.l1_ways);
            return Btb {
                cfg,
                sets: 0,
                ways: 0,
                entries: Vec::new(),
                rr_next: Vec::new(),
                tick: 0,
                jte_count: 0,
                two: Some(TwoLevelState { tl, l0, l1, stats: TwoLevelStats::default() }),
                stats: BtbStats::default(),
            };
        }
        let ways = cfg.effective_ways();
        assert!(ways > 0 && cfg.entries > 0, "BTB must be non-empty");
        assert_eq!(cfg.entries % ways, 0, "entries must divide into ways");
        let sets = cfg.entries / ways;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        Btb {
            cfg,
            sets,
            ways,
            entries: vec![Entry::default(); cfg.entries],
            rr_next: vec![0; sets],
            tick: 0,
            jte_count: 0,
            two: None,
            stats: BtbStats::default(),
        }
    }

    /// The configuration this BTB was built with.
    pub fn config(&self) -> &BtbConfig {
        &self.cfg
    }

    /// Number of currently resident JTEs.
    pub fn resident_jtes(&self) -> usize {
        self.jte_count
    }

    #[inline]
    fn set_of(&self, raw: u64) -> usize {
        (raw as usize) & (self.sets - 1)
    }

    /// Looks up a key; returns the cached target on hit and refreshes LRU.
    #[inline]
    pub fn lookup(&mut self, key: BtbKey) -> Option<u64> {
        self.lookup_leveled(key).map(|(t, _)| t)
    }

    /// Looks up a key, reporting which level served the hit:
    /// `(target, from_l1)`. `from_l1` is always false for the Ideal
    /// organization; when true, consuming the prediction costs
    /// [`Btb::l1_hit_bubbles`] extra fetch bubbles.
    #[inline]
    pub fn lookup_leveled(&mut self, key: BtbKey) -> Option<(u64, bool)> {
        self.tick += 1;
        let (raw, kind) = key.raw();
        if self.two.is_some() {
            return self.lookup_two_level(raw, kind);
        }
        let set = self.set_of(raw);
        let base = set * self.ways;
        for e in &mut self.entries[base..base + self.ways] {
            if e.valid && e.kind == kind && e.key == raw {
                e.lru = self.tick;
                return Some((e.target, false));
            }
        }
        None
    }

    /// Two-level probe: L0, then L1. An L1 hit promotes into a free
    /// way of the entry's L0 set when one exists; a busy set leaves
    /// the entry in L1 (paying the bubble again next time) so that
    /// lookups never displace a valid entry — the trace-replay stat
    /// reconstruction relies on lookups being loss-free.
    fn lookup_two_level(&mut self, raw: u64, kind: EntryKind) -> Option<(u64, bool)> {
        let tick = self.tick;
        let t = self.two.as_mut().expect("two-level state");
        let tl = t.tl;
        let tag = tl.tag_of(kind, raw);
        let r0 = t.l0.set_range(tl.l0_index(raw));
        for e in &mut t.l0.entries[r0.clone()] {
            if e.valid && e.kind == kind && tl.tag_of(e.kind, e.key) == tag {
                e.lru = tick;
                t.stats.l0_hits += 1;
                return Some((e.target, false));
            }
        }
        let r1 = t.l1.set_range(tl.l1_index(raw));
        let hit = t.l1.entries[r1.clone()]
            .iter()
            .position(|e| e.valid && e.kind == kind && tl.tag_of(e.kind, e.key) == tag)
            .map(|i| r1.start + i)?;
        t.stats.l1_hits += 1;
        // An L1-set hit implies equal folded indices, and L0 has no
        // more sets than L1 (validated), so the probe's L0 set is also
        // the entry's own L0 set — the promotion lands where a future
        // probe of this key will look.
        if let Some(w) = t.l0.entries[r0.clone()].iter().position(|e| !e.valid) {
            let mut e = t.l1.entries[hit];
            t.l1.entries[hit].valid = false;
            e.lru = tick;
            t.l0.entries[r0.start + w] = e;
            t.stats.promotions += 1;
            Some((e.target, true))
        } else {
            t.l1.entries[hit].lru = tick;
            Some((t.l1.entries[hit].target, true))
        }
    }

    /// Inserts or updates an entry for `key`, reporting what happened.
    pub fn insert(&mut self, key: BtbKey, target: u64) -> InsertOutcome {
        self.tick += 1;
        let (raw, kind) = key.raw();
        if self.two.is_some() {
            return self.insert_two_level(raw, kind, target);
        }
        let is_jte = kind == EntryKind::Jte;
        let set = self.set_of(raw);
        let base = set * self.ways;

        // Update in place on tag match (population unchanged, so the cap
        // never applies here).
        for e in &mut self.entries[base..base + self.ways] {
            if e.valid && e.kind == kind && e.key == raw {
                e.target = target;
                e.lru = self.tick;
                return InsertOutcome::Updated;
            }
        }

        let at_cap = is_jte && self.cfg.jte_cap.is_some_and(|cap| self.jte_count >= cap);
        let own_set_has_jte = self.entries[base..base + self.ways]
            .iter()
            .any(|e| e.valid && e.kind == EntryKind::Jte);

        // At the cap with no JTE in our own set: make room by evicting
        // the globally least-recently-used JTE, then insert under the
        // normal rules (module docs, rule 2).
        let mut remote_jte_evicted = false;
        let at_cap = if at_cap && !own_set_has_jte {
            let victim = self
                .entries
                .iter()
                .enumerate()
                .filter(|(_, e)| e.valid && e.kind == EntryKind::Jte)
                .min_by_key(|(_, e)| e.lru)
                .map(|(i, _)| i);
            match victim {
                Some(i) => {
                    self.entries[i].valid = false;
                    self.jte_count -= 1;
                    self.stats.jte_evictions += 1;
                    remote_jte_evicted = true;
                    false
                }
                None => {
                    // cap == 0: there is no JTE anywhere to displace.
                    self.stats.jte_cap_skips += 1;
                    return InsertOutcome::CapSkipped;
                }
            }
        } else {
            at_cap
        };

        // Choose a victim way subject to the priority rules.
        let allowed = |e: &Entry| -> bool {
            if !e.valid {
                // An invalid way is always usable, except that a JTE at
                // cap must replace another JTE to keep the population
                // bounded (only reachable when the set holds one).
                return !at_cap;
            }
            if is_jte {
                if at_cap {
                    e.kind == EntryKind::Jte
                } else {
                    true // JTE priority: may evict anything
                }
            } else {
                e.kind != EntryKind::Jte // Pc/Vbbi entries never evict JTEs
            }
        };

        let ways = &self.entries[base..base + self.ways];
        let victim = match self.cfg.replacement {
            Replacement::Lru => {
                let mut best: Option<(usize, u64)> = None;
                for (i, e) in ways.iter().enumerate() {
                    if !allowed(e) {
                        continue;
                    }
                    let score = if e.valid { e.lru } else { 0 };
                    if best.is_none_or(|(_, b)| score < b) {
                        best = Some((i, score));
                    }
                }
                best.map(|(i, _)| i)
            }
            Replacement::RoundRobin => {
                let start = self.rr_next[set];
                let mut found = None;
                for k in 0..self.ways {
                    let i = (start + k) % self.ways;
                    if allowed(&ways[i]) {
                        found = Some(i);
                        self.rr_next[set] = (i + 1) % self.ways;
                        break;
                    }
                }
                found
            }
        };

        let Some(victim) = victim else {
            debug_assert!(!is_jte, "a JTE insert always finds a victim once under the cap");
            self.stats.btb_blocked_by_jte += 1;
            return InsertOutcome::Blocked;
        };

        let old = self.entries[base + victim];
        let evicted = old.valid.then_some(old.kind);
        if old.valid {
            if old.kind == EntryKind::Jte {
                self.jte_count -= 1;
                self.stats.jte_evictions += 1;
            } else if is_jte {
                self.stats.btb_evicted_by_jte += 1;
            }
        }
        if is_jte {
            self.jte_count += 1;
            self.stats.jte_inserts += 1;
        }
        self.entries[base + victim] = Entry { valid: true, kind, key: raw, target, lru: self.tick };
        InsertOutcome::Inserted { evicted, remote_jte_evicted }
    }

    /// Two-level insert: new entries fill L0; the replaced L0 victim
    /// demotes into its own hashed L1 set under the victim's priority
    /// rules. The chain loses at most one entry (the L1 demotion
    /// victim, or a demotion-blocked drop), reported as `evicted` —
    /// exactly the shape the trace-event stat reconstruction expects.
    /// Priority propagates: a `Pc`/`Vbbi` insert can only displace a
    /// `Pc`/`Vbbi` L0 victim, whose demotion again cannot displace a
    /// JTE, so a non-JTE insert never chain-loses a JTE.
    fn insert_two_level(&mut self, raw: u64, kind: EntryKind, target: u64) -> InsertOutcome {
        let is_jte = kind == EntryKind::Jte;
        let tick = self.tick;
        let cap = self.cfg.jte_cap;
        let replacement = self.cfg.replacement;
        let t = self.two.as_mut().expect("two-level state");
        let tl = t.tl;
        let tag = tl.tag_of(kind, raw);
        let s0 = tl.l0_index(raw);
        let s1 = tl.l1_index(raw);

        // Update in place on tag match in either level (population
        // unchanged, so the cap never applies here).
        for (bank, set) in [(&mut t.l0, s0), (&mut t.l1, s1)] {
            let r = bank.set_range(set);
            for e in &mut bank.entries[r] {
                if e.valid && e.kind == kind && tl.tag_of(e.kind, e.key) == tag {
                    e.target = target;
                    e.lru = tick;
                    return InsertOutcome::Updated;
                }
            }
        }

        let at_cap = is_jte && cap.is_some_and(|c| self.jte_count >= c);
        let r0 = t.l0.set_range(s0);
        let own_set_has_jte =
            t.l0.entries[r0].iter().any(|e| e.valid && e.kind == EntryKind::Jte);

        // At the cap with no JTE in the destination L0 set: evict the
        // globally least-recently-used JTE — in either bank — then
        // insert under the normal rules (module docs, rule 2).
        let mut remote_jte_evicted = false;
        let at_cap = if at_cap && !own_set_has_jte {
            let victim = t
                .l0
                .entries
                .iter_mut()
                .chain(t.l1.entries.iter_mut())
                .filter(|e| e.valid && e.kind == EntryKind::Jte)
                .min_by_key(|e| e.lru);
            match victim {
                Some(e) => {
                    e.valid = false;
                    self.jte_count -= 1;
                    self.stats.jte_evictions += 1;
                    remote_jte_evicted = true;
                    false
                }
                None => {
                    // cap == 0: there is no JTE anywhere to displace.
                    self.stats.jte_cap_skips += 1;
                    return InsertOutcome::CapSkipped;
                }
            }
        } else {
            at_cap
        };

        // L0 victim under the same priority rules as the Ideal insert.
        let allowed = |e: &Entry| -> bool {
            if !e.valid {
                return !at_cap;
            }
            if is_jte {
                if at_cap {
                    e.kind == EntryKind::Jte
                } else {
                    true
                }
            } else {
                e.kind != EntryKind::Jte
            }
        };
        let Some(v0) = t.l0.pick_victim(s0, replacement, allowed) else {
            debug_assert!(!is_jte, "a JTE insert always finds a victim once under the cap");
            self.stats.btb_blocked_by_jte += 1;
            return InsertOutcome::Blocked;
        };

        let old = t.l0.entries[v0];
        let mut lost: Option<Entry> = None;
        if old.valid {
            if at_cap {
                // Same-set at-cap JTE replacement: the old JTE is
                // displaced outright, keeping the population at the cap.
                debug_assert_eq!(old.kind, EntryKind::Jte);
                lost = Some(old);
            } else {
                // Demote the L0 victim into its own hashed L1 set.
                let d_allowed = |e: &Entry| -> bool {
                    !e.valid || old.kind == EntryKind::Jte || e.kind != EntryKind::Jte
                };
                match t.l1.pick_victim(tl.l1_index(old.key), replacement, d_allowed) {
                    Some(v1) => {
                        let dv = t.l1.entries[v1];
                        if dv.valid {
                            lost = Some(dv);
                        }
                        t.l1.entries[v1] = old;
                        t.stats.demotions += 1;
                    }
                    None => {
                        // Every way of the demotion set holds a JTE the
                        // Pc/Vbbi victim may not displace: it is dropped.
                        lost = Some(old);
                        t.stats.demotion_drops += 1;
                    }
                }
            }
        }

        let evicted = lost.map(|e| e.kind);
        if let Some(e) = lost {
            if e.kind == EntryKind::Jte {
                self.jte_count -= 1;
                self.stats.jte_evictions += 1;
            } else if is_jte {
                self.stats.btb_evicted_by_jte += 1;
            }
        }
        if is_jte {
            self.jte_count += 1;
            self.stats.jte_inserts += 1;
        }
        let t = self.two.as_mut().expect("two-level state");
        t.l0.entries[v0] = Entry { valid: true, kind, key: raw, target, lru: tick };
        InsertOutcome::Inserted { evicted, remote_jte_evicted }
    }

    /// Every entry slot, in a stable order: the Ideal array, then (for
    /// two-level) L0 followed by L1. Exactly one of those is non-empty.
    fn all_entries(&self) -> impl Iterator<Item = &Entry> + '_ {
        self.entries
            .iter()
            .chain(self.two.iter().flat_map(|t| t.l0.entries.iter().chain(t.l1.entries.iter())))
    }

    fn all_entries_mut(&mut self) -> impl Iterator<Item = &mut Entry> + '_ {
        self.entries.iter_mut().chain(
            self.two
                .iter_mut()
                .flat_map(|t| t.l0.entries.iter_mut().chain(t.l1.entries.iter_mut())),
        )
    }

    /// A snapshot of the valid entries: `(kind, key, target)`, in
    /// array order (L0 before L1 for the two-level organization). For
    /// diagnostics and the Fig. 6 walk-through.
    pub fn snapshot(&self) -> LevelSnapshot {
        self.all_entries().filter(|e| e.valid).map(|e| (e.kind, e.key, e.target)).collect()
    }

    /// Valid entries split by level: `(l0, l1)`. The Ideal
    /// organization reports everything in the first list. For the
    /// two-level exclusivity/inclusion proptests.
    pub fn snapshot_levels(&self) -> (LevelSnapshot, LevelSnapshot) {
        let collect = |es: &[Entry]| {
            es.iter().filter(|e| e.valid).map(|e| (e.kind, e.key, e.target)).collect()
        };
        match &self.two {
            Some(t) => (collect(&t.l0.entries), collect(&t.l1.entries)),
            None => (collect(&self.entries), Vec::new()),
        }
    }

    /// Extra fetch bubbles charged when a prediction is served by the
    /// L1 bank of a two-level organization (0 for Ideal).
    pub fn l1_hit_bubbles(&self) -> u64 {
        self.two.as_ref().map_or(0, |t| t.tl.l1_bubbles)
    }

    /// Two-level diagnostic counters; `None` for the Ideal organization.
    pub fn two_level_stats(&self) -> Option<TwoLevelStats> {
        self.two.as_ref().map(|t| t.stats)
    }

    /// `jte.flush`: invalidates every JTE but leaves other entries
    /// intact. Returns the number of entries invalidated.
    pub fn flush_jtes(&mut self) -> u64 {
        let mut flushed = 0;
        for e in self.all_entries_mut() {
            if e.valid && e.kind == EntryKind::Jte {
                e.valid = false;
                flushed += 1;
            }
        }
        self.jte_count = 0;
        self.stats.jte_flushes += 1;
        self.stats.jte_flushed += flushed;
        flushed
    }

    /// Checks the population identity `resident JTEs == inserts -
    /// evictions - flush losses` against the counters; used by the
    /// stat-invariant checker.
    ///
    /// # Panics
    /// Panics (with both sides of the identity) when it is violated.
    pub fn assert_population_invariant(&self) {
        let derived = self
            .stats
            .jte_inserts
            .checked_sub(self.stats.jte_evictions + self.stats.jte_flushed)
            .expect("JTE losses cannot exceed inserts");
        assert_eq!(
            self.jte_count as u64, derived,
            "resident JTEs diverged from insert/eviction/flush accounting"
        );
        debug_assert_eq!(
            self.jte_count,
            self.all_entries().filter(|e| e.valid && e.kind == EntryKind::Jte).count(),
            "cached JTE population diverged from the entry array"
        );
    }

    // ---- fault-injection hooks (crate::fault) ----

    /// Fault hook: invalidates one pseudo-randomly chosen resident JTE,
    /// modeling parity-detected corruption. The loss is counted as a JTE
    /// eviction so the population identity keeps balancing. Returns the
    /// number of JTEs invalidated (0 or 1).
    pub(crate) fn fault_invalidate_jte(&mut self, r: u64) -> u64 {
        let resident = self.all_entries().filter(|e| e.valid && e.kind == EntryKind::Jte).count();
        if resident == 0 {
            return 0;
        }
        let pick = (r % resident as u64) as usize;
        let e = self
            .all_entries_mut()
            .filter(|e| e.valid && e.kind == EntryKind::Jte)
            .nth(pick)
            .expect("pick < resident count");
        e.valid = false;
        self.jte_count -= 1;
        self.stats.jte_evictions += 1;
        1
    }

    /// Fault hook: invalidates every entry. Resident JTEs lost this way
    /// are counted as JTE evictions (they were not `jte.flush`ed);
    /// `Pc`/`Vbbi` entries have no population counters and simply
    /// vanish. Returns the number of JTEs lost.
    pub(crate) fn fault_flush_all(&mut self) -> u64 {
        let mut lost = 0;
        for e in self.all_entries_mut() {
            if e.valid && e.kind == EntryKind::Jte {
                lost += 1;
            }
            e.valid = false;
        }
        self.jte_count = 0;
        self.stats.jte_evictions += lost;
        lost
    }

    /// Fault hook: flips one pseudo-random bit in the key or target of a
    /// pseudo-randomly chosen valid **non-JTE** entry. Those entries
    /// hold verified predictions (resolved at execute), so the flip can
    /// only cost cycles. The kind tag is never touched — a corrupted
    /// entry can never cross into the unverified JTE key space.
    pub(crate) fn fault_flip_bit(&mut self, r: u64) {
        let candidates = self.all_entries().filter(|e| e.valid && e.kind != EntryKind::Jte).count();
        if candidates == 0 {
            return;
        }
        let pick = (r % candidates as u64) as usize;
        let e = self
            .all_entries_mut()
            .filter(|e| e.valid && e.kind != EntryKind::Jte)
            .nth(pick)
            .expect("pick < candidate count");
        let bit = (r >> 32) % 128;
        if bit < 64 {
            e.key ^= 1 << bit;
        } else {
            e.target ^= 1 << (bit - 64);
        }
    }

    // ---- checkpoint codec (crate::snapshot) ----

    pub(crate) fn snapshot_words(&self, out: &mut Vec<u64>) {
        // The Ideal layout (one entry array + RR state + scalar tail)
        // is byte-identical to every pre-two-level snapshot; the
        // two-level layout writes both banks in L0, L1 order and
        // appends its diagnostic counters after the shared tail.
        match &self.two {
            Some(t) => {
                snapshot_entry_words(&t.l0.entries, &t.l0.rr_next, out);
                snapshot_entry_words(&t.l1.entries, &t.l1.rr_next, out);
            }
            None => snapshot_entry_words(&self.entries, &self.rr_next, out),
        }
        out.push(self.tick);
        out.push(self.jte_count as u64);
        out.extend_from_slice(&self.stats.counters());
        if let Some(t) = &self.two {
            let ts = &t.stats;
            out.extend_from_slice(&[
                ts.l0_hits,
                ts.l1_hits,
                ts.promotions,
                ts.demotions,
                ts.demotion_drops,
            ]);
        }
    }

    pub(crate) fn restore_words(
        &mut self,
        c: &mut crate::snapshot::Cursor,
    ) -> Result<(), crate::SnapshotError> {
        match &mut self.two {
            Some(t) => {
                restore_entry_words(&mut t.l0.entries, &mut t.l0.rr_next, c)?;
                restore_entry_words(&mut t.l1.entries, &mut t.l1.rr_next, c)?;
            }
            None => restore_entry_words(&mut self.entries, &mut self.rr_next, c)?,
        }
        self.tick = c.next()?;
        self.jte_count = c.next()? as usize;
        for counter in self.stats.counters_mut() {
            *counter = c.next()?;
        }
        if let Some(t) = &mut self.two {
            let ts = &mut t.stats;
            ts.l0_hits = c.next()?;
            ts.l1_hits = c.next()?;
            ts.promotions = c.next()?;
            ts.demotions = c.next()?;
            ts.demotion_drops = c.next()?;
        }
        Ok(())
    }
}

fn snapshot_entry_words(entries: &[Entry], rr_next: &[usize], out: &mut Vec<u64>) {
    out.push(entries.len() as u64);
    for e in entries {
        let kind = match e.kind {
            EntryKind::Pc => 0u64,
            EntryKind::Jte => 1,
            EntryKind::Vbbi => 2,
        };
        out.push(e.valid as u64 | (kind << 1));
        out.push(e.key);
        out.push(e.target);
        out.push(e.lru);
    }
    out.push(rr_next.len() as u64);
    out.extend(rr_next.iter().map(|&v| v as u64));
}

fn restore_entry_words(
    entries: &mut [Entry],
    rr_next: &mut [usize],
    c: &mut crate::snapshot::Cursor,
) -> Result<(), crate::SnapshotError> {
    let n = c.next()? as usize;
    crate::snapshot::check(n == entries.len(), "snapshot BTB geometry mismatch")?;
    for e in entries {
        let flags = c.next()?;
        e.valid = flags & 1 != 0;
        e.kind = match flags >> 1 {
            0 => EntryKind::Pc,
            1 => EntryKind::Jte,
            2 => EntryKind::Vbbi,
            _ => {
                return Err(crate::SnapshotError::Format(
                    "snapshot holds unknown BTB entry kind".into(),
                ))
            }
        };
        e.key = c.next()?;
        e.target = c.next()?;
        e.lru = c.next()?;
    }
    let nrr = c.next()? as usize;
    crate::snapshot::check(nrr == rr_next.len(), "snapshot BTB set-count mismatch")?;
    for v in rr_next {
        *v = c.next()? as usize;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn btb(entries: usize, ways: usize) -> Btb {
        Btb::new(BtbConfig::set_assoc(entries, ways, Replacement::Lru))
    }

    #[test]
    fn pc_lookup_roundtrip() {
        let mut b = btb(8, 2);
        assert_eq!(b.lookup(BtbKey::Pc(0x1000)), None);
        assert!(matches!(
            b.insert(BtbKey::Pc(0x1000), 0x2000),
            InsertOutcome::Inserted { evicted: None, .. }
        ));
        assert_eq!(b.lookup(BtbKey::Pc(0x1000)), Some(0x2000));
        assert_eq!(b.insert(BtbKey::Pc(0x1000), 0x3000), InsertOutcome::Updated);
        assert_eq!(b.lookup(BtbKey::Pc(0x1000)), Some(0x3000));
    }

    #[test]
    fn jte_and_pc_do_not_alias() {
        let mut b = btb(8, 2);
        b.insert(BtbKey::Jte { bid: 0, opcode: 5 }, 0xAAAA);
        // A PC whose raw key equals the JTE's raw key must not hit it.
        assert_eq!(b.lookup(BtbKey::Pc(5 << 2)), None);
        assert_eq!(b.lookup(BtbKey::Jte { bid: 0, opcode: 5 }), Some(0xAAAA));
        // Different branch id: different entry.
        assert_eq!(b.lookup(BtbKey::Jte { bid: 1, opcode: 5 }), None);
    }

    #[test]
    fn jte_evicts_btb_but_not_vice_versa() {
        // One set of 2 ways.
        let mut b = btb(2, 2);
        b.insert(BtbKey::Pc(0x1000), 1);
        b.insert(BtbKey::Pc(0x2000), 2);
        // JTE insertion must evict one of the B entries.
        let out = b.insert(BtbKey::Jte { bid: 0, opcode: 9 }, 3);
        assert_eq!(
            out,
            InsertOutcome::Inserted { evicted: Some(EntryKind::Pc), remote_jte_evicted: false }
        );
        assert_eq!(b.resident_jtes(), 1);
        assert_eq!(b.stats.btb_evicted_by_jte, 1);
        // Fill the other way with a JTE too.
        b.insert(BtbKey::Jte { bid: 0, opcode: 10 }, 4);
        assert_eq!(b.resident_jtes(), 2);
        // Now a B entry cannot get in.
        assert_eq!(b.insert(BtbKey::Pc(0x3000), 5), InsertOutcome::Blocked);
        assert_eq!(b.lookup(BtbKey::Pc(0x3000)), None);
        assert_eq!(b.stats.btb_blocked_by_jte, 1);
        assert_eq!(b.lookup(BtbKey::Jte { bid: 0, opcode: 9 }), Some(3));
        assert_eq!(b.lookup(BtbKey::Jte { bid: 0, opcode: 10 }), Some(4));
    }

    #[test]
    fn jte_cap_enforced() {
        let mut cfg = BtbConfig::fully_assoc(8, Replacement::Lru);
        cfg.jte_cap = Some(2);
        let mut b = Btb::new(cfg);
        b.insert(BtbKey::Jte { bid: 0, opcode: 1 }, 1);
        b.insert(BtbKey::Jte { bid: 0, opcode: 2 }, 2);
        assert_eq!(b.resident_jtes(), 2);
        // Third JTE replaces an existing one (LRU: opcode 1), keeping count at cap.
        b.insert(BtbKey::Jte { bid: 0, opcode: 3 }, 3);
        assert_eq!(b.resident_jtes(), 2);
        assert_eq!(b.lookup(BtbKey::Jte { bid: 0, opcode: 3 }), Some(3));
        assert_eq!(b.lookup(BtbKey::Jte { bid: 0, opcode: 1 }), None);
        b.assert_population_invariant();
    }

    #[test]
    fn at_cap_insert_into_jteless_set_displaces_global_lru() {
        // 4 sets x 2 ways. Cap of 1: the first JTE lands in set 1; a
        // second JTE whose key maps to set 2 must displace it rather
        // than being dropped forever (the seed defect).
        let mut cfg = BtbConfig::set_assoc(8, 2, Replacement::Lru);
        cfg.jte_cap = Some(1);
        let mut b = Btb::new(cfg);
        assert!(matches!(
            b.insert(BtbKey::Jte { bid: 0, opcode: 1 }, 0x100),
            InsertOutcome::Inserted { evicted: None, remote_jte_evicted: false }
        ));
        assert_eq!(b.resident_jtes(), 1);
        let out = b.insert(BtbKey::Jte { bid: 0, opcode: 2 }, 0x200);
        assert_eq!(out, InsertOutcome::Inserted { evicted: None, remote_jte_evicted: true });
        assert_eq!(b.resident_jtes(), 1);
        assert_eq!(b.lookup(BtbKey::Jte { bid: 0, opcode: 2 }), Some(0x200));
        assert_eq!(b.lookup(BtbKey::Jte { bid: 0, opcode: 1 }), None);
        assert_eq!(b.stats.jte_cap_skips, 0);
        assert_eq!(b.stats.jte_evictions, 1);
        assert_eq!(b.stats.jte_inserts, 2);
        b.assert_population_invariant();
    }

    #[test]
    fn zero_cap_drops_every_jte() {
        let mut cfg = BtbConfig::set_assoc(8, 2, Replacement::Lru);
        cfg.jte_cap = Some(0);
        let mut b = Btb::new(cfg);
        assert_eq!(b.insert(BtbKey::Jte { bid: 0, opcode: 1 }, 1), InsertOutcome::CapSkipped);
        assert_eq!(b.resident_jtes(), 0);
        assert_eq!(b.stats.jte_cap_skips, 1);
        assert_eq!(b.lookup(BtbKey::Jte { bid: 0, opcode: 1 }), None);
        b.assert_population_invariant();
    }

    #[test]
    fn flush_jtes_spares_btb_entries() {
        let mut b = btb(8, 2);
        b.insert(BtbKey::Pc(0x1000), 1);
        b.insert(BtbKey::Jte { bid: 0, opcode: 7 }, 2);
        assert_eq!(b.flush_jtes(), 1);
        assert_eq!(b.lookup(BtbKey::Jte { bid: 0, opcode: 7 }), None);
        assert_eq!(b.lookup(BtbKey::Pc(0x1000)), Some(1));
        assert_eq!(b.resident_jtes(), 0);
        assert_eq!(b.stats.jte_flushes, 1);
        assert_eq!(b.stats.jte_flushed, 1);
        b.assert_population_invariant();
    }

    #[test]
    fn fully_assoc_lru() {
        let mut b = Btb::new(BtbConfig::fully_assoc(2, Replacement::Lru));
        b.insert(BtbKey::Pc(0x1000), 1);
        b.insert(BtbKey::Pc(0x2000), 2);
        let _ = b.lookup(BtbKey::Pc(0x1000)); // refresh
        b.insert(BtbKey::Pc(0x3000), 3); // evicts 0x2000
        assert_eq!(b.lookup(BtbKey::Pc(0x1000)), Some(1));
        assert_eq!(b.lookup(BtbKey::Pc(0x2000)), None);
        assert_eq!(b.lookup(BtbKey::Pc(0x3000)), Some(3));
    }

    #[test]
    fn round_robin_respects_jte_priority() {
        let mut b = Btb::new(BtbConfig::set_assoc(2, 2, Replacement::RoundRobin));
        b.insert(BtbKey::Jte { bid: 0, opcode: 1 }, 1);
        b.insert(BtbKey::Pc(0x1000), 2);
        // RR pointer may point at the JTE way, but a B insert must skip it.
        b.insert(BtbKey::Pc(0x2000), 3);
        assert_eq!(b.lookup(BtbKey::Jte { bid: 0, opcode: 1 }), Some(1));
    }

    #[test]
    fn snapshot_reports_valid_entries() {
        let mut b = btb(8, 2);
        b.insert(BtbKey::Pc(0x1000), 0x2000);
        b.insert(BtbKey::Jte { bid: 0, opcode: 5 }, 0x3000);
        let snap = b.snapshot();
        assert_eq!(snap.len(), 2);
        assert!(snap.iter().any(|&(k, _, t)| k == EntryKind::Jte && t == 0x3000));
        assert!(snap.iter().any(|&(k, _, t)| k == EntryKind::Pc && t == 0x2000));
    }

    #[test]
    fn vbbi_keys_are_separate() {
        let mut b = btb(8, 2);
        b.insert(BtbKey::Vbbi(0x123), 7);
        assert_eq!(b.lookup(BtbKey::Vbbi(0x123)), Some(7));
        // Raw key bits collide with Pc(0x123 << 2), but the kind tag
        // keeps the spaces isolated: a VBBI entry must never satisfy a
        // plain PC lookup (it would corrupt direct-branch prediction).
        assert_eq!(b.lookup(BtbKey::Pc(0x123 << 2)), None);
        // And vice versa: a PC entry never satisfies a VBBI lookup.
        b.insert(BtbKey::Pc(0x777 << 2), 9);
        assert_eq!(b.lookup(BtbKey::Vbbi(0x777)), None);
    }

    #[test]
    fn population_invariant_over_mixed_workout() {
        let mut cfg = BtbConfig::set_assoc(16, 2, Replacement::RoundRobin);
        cfg.jte_cap = Some(3);
        let mut b = Btb::new(cfg);
        for i in 0..200u64 {
            match i % 5 {
                0 | 1 => {
                    b.insert(BtbKey::Jte { bid: (i % 2) as u8, opcode: i % 23 }, i);
                }
                2 => {
                    b.insert(BtbKey::Pc(4 * (i % 64)), i);
                }
                3 => {
                    b.insert(BtbKey::Vbbi(i % 41), i);
                }
                _ => {
                    if i % 60 == 4 {
                        b.flush_jtes();
                    } else {
                        let _ = b.lookup(BtbKey::Jte { bid: 0, opcode: i % 23 });
                    }
                }
            }
            assert!(b.resident_jtes() <= 3);
            b.assert_population_invariant();
        }
    }

    #[test]
    fn fault_hooks_keep_population_identity() {
        let mut b = btb(8, 2);
        b.insert(BtbKey::Jte { bid: 0, opcode: 1 }, 0x10);
        b.insert(BtbKey::Jte { bid: 0, opcode: 2 }, 0x20);
        b.insert(BtbKey::Pc(0x1000), 0x30);
        assert_eq!(b.fault_invalidate_jte(7), 1);
        assert_eq!(b.resident_jtes(), 1);
        assert_eq!(b.stats.jte_evictions, 1);
        b.assert_population_invariant();
        assert_eq!(b.fault_flush_all(), 1);
        assert_eq!(b.resident_jtes(), 0);
        assert_eq!(b.stats.jte_evictions, 2);
        assert!(b.snapshot().is_empty());
        b.assert_population_invariant();
        // Nothing left: both hooks are no-ops now.
        assert_eq!(b.fault_invalidate_jte(3), 0);
        b.fault_flip_bit(99);
        b.assert_population_invariant();
    }

    #[test]
    fn fault_bit_flip_never_touches_jtes() {
        let mut b = btb(2, 2);
        b.insert(BtbKey::Jte { bid: 0, opcode: 5 }, 0xAAAA);
        b.insert(BtbKey::Pc(0x1000), 0x2000);
        for r in 0..64u64 {
            b.fault_flip_bit(r.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        }
        // The JTE is untouched; the Pc entry may have any key/target but
        // is still tagged Pc.
        assert_eq!(b.lookup(BtbKey::Jte { bid: 0, opcode: 5 }), Some(0xAAAA));
        assert_eq!(b.resident_jtes(), 1);
        b.assert_population_invariant();
    }

    #[test]
    fn snapshot_words_roundtrip() {
        let mut b = btb(8, 2);
        b.insert(BtbKey::Jte { bid: 0, opcode: 1 }, 0x10);
        b.insert(BtbKey::Pc(0x1000), 0x30);
        b.insert(BtbKey::Vbbi(0x55), 0x40);
        b.flush_jtes();
        let mut w = Vec::new();
        b.snapshot_words(&mut w);
        let mut b2 = btb(8, 2);
        let mut c = crate::snapshot::Cursor::new(&w);
        b2.restore_words(&mut c).expect("roundtrip restore succeeds");
        assert_eq!(c.remaining(), 0);
        assert_eq!(b2.stats, b.stats);
        assert_eq!(b2.resident_jtes(), b.resident_jtes());
        assert_eq!(b2.snapshot(), b.snapshot());
        assert_eq!(b2.lookup(BtbKey::Pc(0x1000)), Some(0x30));
        b2.assert_population_invariant();
    }

    // ---- two-level organization ----

    /// Tiny two-level geometry for deterministic tests: 2-set × 2-way
    /// L0, 4-set × 2-way L1, 4-bit fold (identity for raws < 16).
    fn tl_btb() -> Btb {
        let tl = TwoLevelBtbConfig {
            l0_entries: 4,
            l0_ways: 2,
            l1_entries: 8,
            l1_ways: 2,
            fold_bits: 4,
            tag_bits: 8,
            l1_bubbles: 2,
        };
        Btb::new(BtbConfig::two_level(tl, Replacement::Lru))
    }

    #[test]
    fn xor_fold_xors_chunks() {
        assert_eq!(xor_fold(0, 8), 0);
        assert_eq!(xor_fold(0xAB, 8), 0xAB);
        assert_eq!(xor_fold(0x12_34, 8), 0x12 ^ 0x34);
        assert_eq!(xor_fold((3u64 << 56) | 7, 8), 3 ^ 7);
        assert_eq!(xor_fold(0b1_0110, 4), 0b0110 ^ 1);
    }

    #[test]
    fn two_level_demotes_then_promotes() {
        let mut b = tl_btb();
        assert_eq!(b.l1_hit_bubbles(), 2);
        // Fill L0 set 0 with a Pc and a Jte, then push a second Pc in:
        // the old Pc demotes to L1 (its own hashed set).
        b.insert(BtbKey::Pc(0), 0xA0); // raw 0 -> L0 set 0
        b.insert(BtbKey::Jte { bid: 0, opcode: 2 }, 0xB0); // raw 2 -> set 0
        let out = b.insert(BtbKey::Pc(2 << 2), 0xA2); // raw 2 -> set 0
        assert_eq!(out, InsertOutcome::Inserted { evicted: None, remote_jte_evicted: false });
        assert_eq!(b.two_level_stats().unwrap().demotions, 1);
        // The demoted entry answers from L1, flagged as such.
        assert_eq!(b.lookup_leveled(BtbKey::Pc(0)), Some((0xA0, true)));
        // L0 set 0 is full, so the hit did not promote.
        assert_eq!(b.two_level_stats().unwrap().promotions, 0);
        // Flushing the JTE frees a way; the next L1 hit promotes.
        b.flush_jtes();
        assert_eq!(b.lookup_leveled(BtbKey::Pc(0)), Some((0xA0, true)));
        assert_eq!(b.two_level_stats().unwrap().promotions, 1);
        assert_eq!(b.lookup_leveled(BtbKey::Pc(0)), Some((0xA0, false)));
        // Exclusive hierarchy: the promoted entry left L1.
        let (l0, l1) = b.snapshot_levels();
        assert!(l0.iter().any(|&(k, r, _)| k == EntryKind::Pc && r == 0));
        assert!(l1.iter().all(|&(k, r, _)| !(k == EntryKind::Pc && r == 0)));
        b.assert_population_invariant();
    }

    #[test]
    fn two_level_partial_tags_alias_pc_but_not_jte() {
        let mut b = tl_btb();
        // Raws 0x004 and 0x400 collide: fold-4 index 4 for both
        // (0x400's nibbles 4,0,0 XOR to 4) and fold-8 tag 4 for both
        // (0x400's bytes 0x04,0x00 XOR to 4).
        let a = 0x004u64;
        let c = 0x400u64;
        let tl = match b.config().org {
            BtbOrg::TwoLevel(tl) => tl,
            BtbOrg::Ideal => unreachable!(),
        };
        assert!(tl.aliases(EntryKind::Pc, a, c), "test keys must collide under the hash");
        assert!(!tl.aliases(EntryKind::Jte, a, c), "JTE tags are full keys");
        b.insert(BtbKey::Pc(a << 2), 0xAAAA);
        // The aliased Pc lookup hits the other key's entry: verified
        // predictions may alias (cycles, not correctness).
        assert_eq!(b.lookup(BtbKey::Pc(c << 2)), Some(0xAAAA));
        // JTEs store the full key: no alias, ever.
        b.insert(BtbKey::Jte { bid: 0, opcode: a }, 0xBBBB);
        assert_eq!(b.lookup(BtbKey::Jte { bid: 0, opcode: c }), None);
        assert_eq!(b.lookup(BtbKey::Jte { bid: 0, opcode: a }), Some(0xBBBB));
        b.assert_population_invariant();
    }

    #[test]
    fn two_level_at_cap_displaces_jte_across_banks() {
        let tl = TwoLevelBtbConfig {
            l0_entries: 4,
            l0_ways: 2,
            l1_entries: 8,
            l1_ways: 2,
            fold_bits: 4,
            tag_bits: 8,
            l1_bubbles: 2,
        };
        let mut cfg = BtbConfig::two_level(tl, Replacement::Lru);
        cfg.jte_cap = Some(3);
        let mut b = Btb::new(cfg);
        // Three JTEs in L0 set 0; the third displaces the oldest into
        // L1 (a demotion, not an eviction: all three stay resident).
        b.insert(BtbKey::Jte { bid: 0, opcode: 2 }, 0x20);
        b.insert(BtbKey::Jte { bid: 0, opcode: 4 }, 0x40);
        b.insert(BtbKey::Jte { bid: 0, opcode: 6 }, 0x60);
        assert_eq!(b.resident_jtes(), 3);
        let (_, l1) = b.snapshot_levels();
        assert!(l1.iter().any(|&(k, _, _)| k == EntryKind::Jte), "oldest JTE demoted to L1");
        // A fourth JTE into the *other* L0 set is at cap with no JTE
        // in its own set: the global-LRU rule must find the demoted
        // victim down in L1 and displace it there.
        let out = b.insert(BtbKey::Jte { bid: 0, opcode: 3 }, 0x30);
        assert_eq!(out, InsertOutcome::Inserted { evicted: None, remote_jte_evicted: true });
        assert_eq!(b.resident_jtes(), 3);
        assert_eq!(b.lookup(BtbKey::Jte { bid: 0, opcode: 2 }), None, "global LRU was in L1");
        assert_eq!(b.stats.jte_evictions, 1);
        b.assert_population_invariant();
    }

    #[test]
    fn two_level_demotion_blocked_by_jte_drops_victim() {
        // Fully-associative single-set L0 so a Pc victim's demotion
        // target set can be packed with JTEs first.
        let tl = TwoLevelBtbConfig {
            l0_entries: 2,
            l0_ways: 0,
            l1_entries: 8,
            l1_ways: 2,
            fold_bits: 4,
            tag_bits: 8,
            l1_bubbles: 2,
        };
        let mut b = Btb::new(BtbConfig::two_level(tl, Replacement::Lru));
        // Opcodes 4, 8, 68 (=0x44), 132 (=0x84) all fold to L1 set 0.
        b.insert(BtbKey::Jte { bid: 0, opcode: 4 }, 1);
        b.insert(BtbKey::Jte { bid: 0, opcode: 8 }, 2);
        b.insert(BtbKey::Jte { bid: 0, opcode: 68 }, 3); // demotes op 4
        b.insert(BtbKey::Jte { bid: 0, opcode: 132 }, 4); // demotes op 8
        let (_, l1) = b.snapshot_levels();
        assert_eq!(l1.len(), 2, "L1 set 0 packed with two JTEs");
        // Free one L0 way so a Pc can get in at all.
        assert_eq!(b.fault_invalidate_jte(0), 1);
        b.insert(BtbKey::Pc(4 << 2), 0xA4); // raw 4 -> L1 set 0 on demotion
        // Pushing a second Pc evicts the first, whose demotion set is
        // all-JTE: the victim is dropped and counted.
        let out = b.insert(BtbKey::Pc(68 << 2), 0xA68);
        assert_eq!(
            out,
            InsertOutcome::Inserted { evicted: Some(EntryKind::Pc), remote_jte_evicted: false }
        );
        assert_eq!(b.two_level_stats().unwrap().demotion_drops, 1);
        assert_eq!(b.lookup(BtbKey::Pc(4 << 2)), None, "dropped victim must not hit");
        assert_eq!(b.lookup(BtbKey::Pc(68 << 2)), Some(0xA68));
        b.assert_population_invariant();
    }

    #[test]
    fn two_level_snapshot_words_roundtrip() {
        let mut b = tl_btb();
        b.insert(BtbKey::Jte { bid: 0, opcode: 1 }, 0x10);
        b.insert(BtbKey::Pc(0), 0x30);
        b.insert(BtbKey::Pc(2 << 2), 0x32);
        b.insert(BtbKey::Pc(4 << 2), 0x34); // forces a demotion
        b.insert(BtbKey::Vbbi(0x55), 0x40);
        let _ = b.lookup_leveled(BtbKey::Pc(0));
        let mut w = Vec::new();
        b.snapshot_words(&mut w);
        let mut b2 = tl_btb();
        let mut c = crate::snapshot::Cursor::new(&w);
        b2.restore_words(&mut c).expect("roundtrip restore succeeds");
        assert_eq!(c.remaining(), 0);
        assert_eq!(b2.stats, b.stats);
        assert_eq!(b2.two_level_stats(), b.two_level_stats());
        assert_eq!(b2.resident_jtes(), b.resident_jtes());
        assert_eq!(b2.snapshot_levels(), b.snapshot_levels());
        b2.assert_population_invariant();
        // An Ideal snapshot cannot restore into a two-level BTB.
        let mut w2 = Vec::new();
        btb(8, 2).snapshot_words(&mut w2);
        let mut c2 = crate::snapshot::Cursor::new(&w2);
        assert!(tl_btb().restore_words(&mut c2).is_err());
    }
}
