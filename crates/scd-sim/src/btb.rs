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
//! [`TwoLevelBtbConfig`] for the hash functions. Entries move between
//! the levels as follows:
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
//!
//! ## One bank type
//!
//! Both organizations are built from one set-associative `Bank`, and the
//! Ideal table is its one-bank case: there is one tag match, one victim
//! choice (the LRU and round-robin scans under the JTE-priority filter),
//! one at-cap global-LRU search and one loss account, shared by both.
//! What differs per organization is only what really differs:
//!
//! * Ideal: the low raw-key bits index the set and the full key tags
//!   the entry;
//! * two-level: the XOR-fold index and tag, L1→L0 promotion on lookup
//!   and L0→L1 demotion on insert.
//!
//! The index/tag pair is a type parameter of the probe, so the Ideal
//! probe compiles to a plain full-key compare. A checkpoint writes each
//! bank in order, so the Ideal layout is unchanged.

use crate::cache::Replacement;
use crate::snapshot::{SnapshotError, Walk};
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

    /// L1 set index of a raw key (see [`BtbKey::raw`]).
    pub fn l1_index(&self, raw: u64) -> usize {
        self.set(raw, self.l1_sets())
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
}

/// Which key space a BTB entry belongs to. Stored in the entry and
/// matched on lookup, so raw key collisions across spaces are inert.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum EntryKind {
    /// Conventional PC-indexed entry.
    #[default]
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

/// Declares a BTB counter struct from one list of counters, with
/// `counters` and `counters_mut` walking them in list order: the BTB's
/// checkpoint words and the merge of the dedicated JTE table's
/// counters both derive from the list.
macro_rules! btb_counters {
    (
        $(#[doc = $sdoc:literal])+
        $name:ident { $($(#[doc = $doc:literal])+ $field:ident,)+ }
    ) => {
        $(#[doc = $sdoc])+
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct $name {
            $($(#[doc = $doc])+ pub $field: u64,)+
        }

        impl $name {
            const LEN: usize = [$(stringify!($field)),+].len();

            /// Every counter, in declaration order.
            pub fn counters(&self) -> [u64; Self::LEN] {
                [$(self.$field),+]
            }

            /// Mutable borrows of every counter, in declaration order.
            pub fn counters_mut(&mut self) -> [&mut u64; Self::LEN] {
                [$(&mut self.$field),+]
            }
        }
    };
}

btb_counters! {
    /// Counters for BTB/JTE interaction, surfaced into `SimStats`.
    BtbStats {
        /// JTE insertions performed (fresh entries; in-place target
        /// updates are not counted).
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
}

/// What [`Btb::insert`] did, for per-event tracing and invariant
/// checking. Together with the inserted key's kind this determines the
/// exact [`BtbStats`] delta of the call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum InsertOutcome {
    /// Tag match: the existing entry's target was refreshed in place.
    #[default]
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

btb_counters! {
    /// Diagnostic counters specific to the two-level organization. Kept
    /// out of [`BtbStats`] deliberately: that struct is pinned into
    /// `SimStats` goldens and reconstructed from trace insert events, and
    /// these counters move on *lookups* (hits, promotions), which emit no
    /// events.
    TwoLevelStats {
        /// Lookups served by the L0 bank.
        l0_hits,
        /// Lookups served by the L1 bank (each costs `l1_bubbles`).
        l1_hits,
        /// L1 hits moved up into a free L0 way.
        promotions,
        /// L0 victims moved down into their hashed L1 set.
        demotions,
        /// L0 victims dropped because every way of their L1 set held a
        /// JTE the victim was not allowed to displace.
        demotion_drops,
    }
}

/// The valid entries of one bank, as `(kind, key, target)` triples
/// (see [`Btb::snapshot`] / [`Btb::snapshot_levels`]).
pub type LevelSnapshot = Vec<(EntryKind, u64, u64)>;

/// Where a key lives in a bank and what its entry is matched by: the
/// only thing the two organizations do differently inside a bank.
/// Generic callers are monomorphized per organization, so the Ideal
/// probe stays a plain full-key compare.
trait Hashing: Copy {
    /// Set index of `raw` in a bank of `sets` sets (a power of two).
    fn set(self, raw: u64, sets: usize) -> usize;
    /// The stored tag of a `kind` key.
    fn tag(self, kind: EntryKind, raw: u64) -> u64;
}

/// The Ideal organization: the low key bits index, the full key tags.
#[derive(Clone, Copy)]
struct RawKey;

impl Hashing for RawKey {
    #[inline]
    fn set(self, raw: u64, sets: usize) -> usize {
        (raw as usize) & (sets - 1)
    }

    #[inline]
    fn tag(self, _: EntryKind, raw: u64) -> u64 {
        raw
    }
}

impl Hashing for TwoLevelBtbConfig {
    #[inline]
    fn set(self, raw: u64, sets: usize) -> usize {
        (xor_fold(raw, self.fold_bits) as usize) & (sets - 1)
    }

    #[inline]
    fn tag(self, kind: EntryKind, raw: u64) -> u64 {
        self.tag_of(kind, raw)
    }
}

/// One set-associative bank: the whole Ideal table, or one level of
/// the two-level organization.
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
        assert!(ways > 0 && entries > 0, "BTB banks must be non-empty");
        assert_eq!(entries % ways, 0, "bank entries must divide into ways");
        let sets = entries / ways;
        assert!(sets.is_power_of_two(), "bank set count must be a power of two");
        Bank { sets, ways, entries: vec![Entry::default(); entries], rr_next: vec![0; sets] }
    }

    #[inline]
    fn set_range(&self, set: usize) -> std::ops::Range<usize> {
        debug_assert!(set < self.sets);
        let base = set * self.ways;
        base..base + self.ways
    }

    /// Absolute index of the valid `kind` entry whose stored tag matches
    /// `raw`'s, probing only `raw`'s own set.
    #[inline]
    fn find(&self, h: impl Hashing, kind: EntryKind, raw: u64) -> Option<usize> {
        let r = self.set_range(h.set(raw, self.sets));
        let tag = h.tag(kind, raw);
        self.entries[r.clone()]
            .iter()
            .position(|e| e.valid && e.kind == kind && h.tag(e.kind, e.key) == tag)
            .map(|i| r.start + i)
    }

    /// Victim way within `set` for an incoming `kind` entry, by the LRU
    /// or round-robin scan under the JTE-priority rules. `at_cap` is
    /// true for a JTE insert at the JTE cap. Returns an absolute entry
    /// index.
    fn pick_victim(
        &mut self,
        set: usize,
        replacement: Replacement,
        kind: EntryKind,
        at_cap: bool,
    ) -> Option<usize> {
        let allowed = |e: &Entry| -> bool {
            if !e.valid {
                // An invalid way is always usable, except that a JTE at
                // cap must replace another JTE to keep the population
                // bounded (only reachable when the set holds one).
                return !at_cap;
            }
            if kind == EntryKind::Jte {
                if at_cap {
                    e.kind == EntryKind::Jte
                } else {
                    true // JTE priority: may evict anything
                }
            } else {
                e.kind != EntryKind::Jte // Pc/Vbbi entries never evict JTEs
            }
        };
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

    /// The checkpoint walk. An entry's valid bit shares a word with its
    /// kind above it.
    fn walk(&mut self, w: &mut impl Walk) -> Result<(), SnapshotError> {
        const KINDS: [EntryKind; 3] = [EntryKind::Pc, EntryKind::Jte, EntryKind::Vbbi];
        w.shape(self.entries.len(), "BTB bank size")?;
        for e in &mut self.entries {
            w.tag(&mut e.kind, &KINDS, [&mut e.valid], "BTB entry kind")?;
            w.word(&mut e.key)?;
            w.word(&mut e.target)?;
            w.word(&mut e.lru)?;
        }
        w.shape(self.rr_next.len(), "BTB set count")?;
        for v in &mut self.rr_next {
            w.index(v, self.ways, "BTB round-robin way")?;
        }
        Ok(())
    }
}

/// What the two-level organization adds to the one-bank table.
#[derive(Debug)]
struct TwoLevelState {
    tl: TwoLevelBtbConfig,
    l1: Bank,
    stats: TwoLevelStats,
}

impl TwoLevelState {
    /// Probes L1 after an L0 miss. A hit promotes into a free way of the
    /// entry's L0 set when one exists; a busy set leaves the entry in L1
    /// (paying the bubble again next time) so that lookups never
    /// displace a valid entry — the trace-replay stat reconstruction
    /// relies on lookups being loss-free.
    fn lookup_l1(
        &mut self,
        l0: &mut Bank,
        raw: u64,
        kind: EntryKind,
        tick: u64,
    ) -> Option<(u64, bool)> {
        let hit = self.l1.find(self.tl, kind, raw)?;
        self.stats.l1_hits += 1;
        // An L1-set hit implies equal folded indices, and L0 has no
        // more sets than L1 (validated), so the probe's L0 set is also
        // the entry's own L0 set — the promotion lands where a future
        // probe of this key will look.
        let r0 = l0.set_range(self.tl.set(raw, l0.sets));
        if let Some(w) = l0.entries[r0.clone()].iter().position(|e| !e.valid) {
            let mut e = self.l1.entries[hit];
            self.l1.entries[hit].valid = false;
            e.lru = tick;
            l0.entries[r0.start + w] = e;
            self.stats.promotions += 1;
            Some((e.target, true))
        } else {
            self.l1.entries[hit].lru = tick;
            Some((self.l1.entries[hit].target, true))
        }
    }

    /// Moves a displaced L0 entry into its own hashed L1 set under its
    /// priority rules. Returns the entry lost on the way: the L1 victim,
    /// or `old` itself when every way of that set holds a JTE it may not
    /// displace.
    fn demote(&mut self, old: Entry, replacement: Replacement) -> Option<Entry> {
        match self.l1.pick_victim(self.tl.l1_index(old.key), replacement, old.kind, false) {
            Some(v) => {
                let displaced = std::mem::replace(&mut self.l1.entries[v], old);
                self.stats.demotions += 1;
                displaced.valid.then_some(displaced)
            }
            None => {
                self.stats.demotion_drops += 1;
                Some(old)
            }
        }
    }
}

/// The branch target buffer.
#[derive(Debug)]
pub struct Btb {
    cfg: BtbConfig,
    /// The Ideal table, or the two-level organization's L0.
    l0: Bank,
    /// The L1 bank and its counters; `None` for the Ideal organization.
    two: Option<TwoLevelState>,
    tick: u64,
    jte_count: usize,
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
    /// Panics if a bank's entries do not divide into power-of-two sets,
    /// or if a two-level configuration fails its hash checks.
    pub fn new(cfg: BtbConfig) -> Self {
        let (l0, two) = match cfg.org {
            BtbOrg::Ideal => (Bank::new(cfg.entries, cfg.ways), None),
            BtbOrg::TwoLevel(tl) => {
                tl.validate();
                let l1 = Bank::new(tl.l1_entries, tl.l1_ways);
                let two = TwoLevelState { tl, l1, stats: TwoLevelStats::default() };
                (Bank::new(tl.l0_entries, tl.l0_ways), Some(two))
            }
        };
        Btb { cfg, l0, two, tick: 0, jte_count: 0, stats: BtbStats::default() }
    }

    /// The configuration this BTB was built with.
    pub fn config(&self) -> &BtbConfig {
        &self.cfg
    }

    /// Number of currently resident JTEs.
    pub fn resident_jtes(&self) -> usize {
        self.jte_count
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
        let tick = self.tick;
        let (raw, kind) = key.raw();
        let hit = match &self.two {
            None => self.l0.find(RawKey, kind, raw),
            Some(t) => self.l0.find(t.tl, kind, raw),
        };
        let Some(i) = hit else {
            return self.two.as_mut()?.lookup_l1(&mut self.l0, raw, kind, tick);
        };
        if let Some(t) = &mut self.two {
            t.stats.l0_hits += 1;
        }
        let e = &mut self.l0.entries[i];
        e.lru = tick;
        Some((e.target, false))
    }

    /// Inserts or updates an entry for `key`, reporting what happened.
    pub fn insert(&mut self, key: BtbKey, target: u64) -> InsertOutcome {
        self.tick += 1;
        let (raw, kind) = key.raw();
        match &self.two {
            None => self.insert_in(RawKey, raw, kind, target),
            Some(t) => self.insert_in(t.tl, raw, kind, target),
        }
    }

    /// The insert. A new entry fills its L0 set (the whole table, for
    /// Ideal). For two-level, the replaced L0 victim demotes into its
    /// own hashed L1 set under the victim's priority rules; the chain
    /// loses at most one entry (the L1 demotion victim, or a
    /// demotion-blocked drop), reported as `evicted` — exactly the
    /// shape the trace-event stat reconstruction expects. Priority
    /// propagates: a `Pc`/`Vbbi` insert can only displace a `Pc`/`Vbbi`
    /// L0 victim, whose demotion again cannot displace a JTE, so a
    /// non-JTE insert never chain-loses a JTE.
    fn insert_in(
        &mut self,
        h: impl Hashing,
        raw: u64,
        kind: EntryKind,
        target: u64,
    ) -> InsertOutcome {
        let is_jte = kind == EntryKind::Jte;
        let tick = self.tick;

        // Update in place on tag match in any bank (population
        // unchanged, so the cap never applies here).
        for bank in self.banks_mut() {
            if let Some(i) = bank.find(h, kind, raw) {
                let e = &mut bank.entries[i];
                e.target = target;
                e.lru = tick;
                return InsertOutcome::Updated;
            }
        }

        let set = h.set(raw, self.l0.sets);
        let at_cap = is_jte && self.cfg.jte_cap.is_some_and(|cap| self.jte_count >= cap);
        let own_set_has_jte = self.l0.entries[self.l0.set_range(set)]
            .iter()
            .any(|e| e.valid && e.kind == EntryKind::Jte);

        // At the cap with no JTE in the destination set: make room by
        // evicting the globally least-recently-used JTE — in any bank —
        // then insert under the normal rules (module docs, rule 2).
        let mut remote_jte_evicted = false;
        let at_cap = if at_cap && !own_set_has_jte {
            let victim = self
                .all_entries_mut()
                .filter(|e| e.valid && e.kind == EntryKind::Jte)
                .min_by_key(|e| e.lru);
            let Some(e) = victim else {
                // cap == 0: there is no JTE anywhere to displace.
                self.stats.jte_cap_skips += 1;
                return InsertOutcome::CapSkipped;
            };
            e.valid = false;
            self.account_loss(EntryKind::Jte, is_jte);
            remote_jte_evicted = true;
            false
        } else {
            at_cap
        };

        let Some(victim) = self.l0.pick_victim(set, self.cfg.replacement, kind, at_cap) else {
            debug_assert!(!is_jte, "a JTE insert always finds a victim once under the cap");
            self.stats.btb_blocked_by_jte += 1;
            return InsertOutcome::Blocked;
        };

        // The displaced entry is lost outright in a one-bank table and
        // by a same-set at-cap JTE replacement (which keeps the
        // population at the cap); otherwise it demotes into L1.
        let old = self.l0.entries[victim];
        let lost = match &mut self.two {
            Some(t) if old.valid && !at_cap => t.demote(old, self.cfg.replacement),
            _ => old.valid.then_some(old),
        };
        debug_assert!(!at_cap || lost.is_some_and(|e| e.kind == EntryKind::Jte));
        let evicted = lost.map(|e| e.kind);
        if let Some(kind) = evicted {
            self.account_loss(kind, is_jte);
        }
        if is_jte {
            self.jte_count += 1;
            self.stats.jte_inserts += 1;
        }
        self.l0.entries[victim] = Entry { valid: true, kind, key: raw, target, lru: tick };
        InsertOutcome::Inserted { evicted, remote_jte_evicted }
    }

    /// Accounts one valid `kind` entry lost to an insert (of a JTE when
    /// `by_jte`) or to a fault.
    fn account_loss(&mut self, kind: EntryKind, by_jte: bool) {
        if kind == EntryKind::Jte {
            self.jte_count -= 1;
            self.stats.jte_evictions += 1;
        } else if by_jte {
            self.stats.btb_evicted_by_jte += 1;
        }
    }

    /// Every bank, in checkpoint order: L0 (the whole Ideal table),
    /// then L1.
    fn banks(&self) -> impl Iterator<Item = &Bank> + '_ {
        std::iter::once(&self.l0).chain(self.two.iter().map(|t| &t.l1))
    }

    fn banks_mut(&mut self) -> impl Iterator<Item = &mut Bank> + '_ {
        std::iter::once(&mut self.l0).chain(self.two.iter_mut().map(|t| &mut t.l1))
    }

    /// Every entry slot, in bank order.
    fn all_entries(&self) -> impl Iterator<Item = &Entry> + '_ {
        self.banks().flat_map(|b| b.entries.iter())
    }

    fn all_entries_mut(&mut self) -> impl Iterator<Item = &mut Entry> + '_ {
        self.banks_mut().flat_map(|b| b.entries.iter_mut())
    }

    /// Resident JTEs, counted in the entry array (`jte_count` caches it).
    fn count_jtes(&self) -> usize {
        self.all_entries().filter(|e| e.valid && e.kind == EntryKind::Jte).count()
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
        let mut levels = self.banks().map(|b| {
            b.entries.iter().filter(|e| e.valid).map(|e| (e.kind, e.key, e.target)).collect()
        });
        (levels.next().unwrap_or_default(), levels.next().unwrap_or_default())
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
            self.count_jtes(),
            "cached JTE population diverged from the entry array"
        );
    }

    // ---- fault-injection hooks (crate::fault) ----

    /// Fault hook: invalidates one pseudo-randomly chosen resident JTE,
    /// modeling parity-detected corruption. The loss is counted as a JTE
    /// eviction so the population identity keeps balancing. Returns the
    /// number of JTEs invalidated (0 or 1).
    pub(crate) fn fault_invalidate_jte(&mut self, r: u64) -> u64 {
        let resident = self.count_jtes();
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
        self.account_loss(EntryKind::Jte, false);
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

    /// The checkpoint walk: each bank in order, then the scalar tail,
    /// so the Ideal layout is byte-identical to every pre-two-level
    /// snapshot and the two-level organization appends its diagnostic
    /// counters. Load rejects a JTE count that disagrees with the
    /// resident JTEs.
    pub(crate) fn walk(&mut self, w: &mut impl Walk) -> Result<(), SnapshotError> {
        for bank in self.banks_mut() {
            bank.walk(w)?;
        }
        w.word(&mut self.tick)?;
        w.word(&mut self.jte_count)?;
        w.check(|| self.jte_count == self.count_jtes(), "JTE count")?;
        let two = self.two.as_mut().map(|t| t.stats.counters_mut());
        for c in self.stats.counters_mut().into_iter().chain(two.into_iter().flatten()) {
            w.word(c)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{Load, Save};

    /// The checkpoint words of `b`, saved through its walk.
    fn saved_words(b: &mut Btb) -> Vec<u64> {
        let mut save = Save::default();
        b.walk(&mut save).expect("saving cannot fail");
        save.0
    }

    /// Loads `words` into `b` through its walk, returning the count of
    /// words left over.
    fn load_words(b: &mut Btb, words: &[u64]) -> Result<usize, SnapshotError> {
        let mut load = Load(words);
        b.walk(&mut load)?;
        Ok(load.0.len())
    }

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
    fn checkpoint_walk_roundtrip() {
        let mut b = btb(8, 2);
        b.insert(BtbKey::Jte { bid: 0, opcode: 1 }, 0x10);
        b.insert(BtbKey::Pc(0x1000), 0x30);
        b.insert(BtbKey::Vbbi(0x55), 0x40);
        b.flush_jtes();
        let w = saved_words(&mut b);
        let mut b2 = btb(8, 2);
        assert_eq!(load_words(&mut b2, &w), Ok(0), "roundtrip restore succeeds");
        assert_eq!(b2.stats, b.stats);
        assert_eq!(b2.resident_jtes(), b.resident_jtes());
        assert_eq!(b2.snapshot(), b.snapshot());
        assert_eq!(b2.lookup(BtbKey::Pc(0x1000)), Some(0x30));
        b2.assert_population_invariant();
    }

    /// Drives a seeded stream of 10,000 mixed inserts, lookups,
    /// `jte.flush`es and fault hooks through a BTB built from `cfg`,
    /// checking the population identity after every step. Returns an
    /// FNV-1a digest of every call's result (its `Debug` text), the
    /// checkpoint word count and the FNV-1a hash of the words, the
    /// [`BtbStats`] counters in declaration order, and the
    /// [`TwoLevelStats`] counters (`l0_hits` … `demotion_drops`).
    fn drive_pinned_stream(cfg: BtbConfig) -> (u64, usize, u64, [u64; 7], Option<[u64; 5]>) {
        use crate::snapshot::{fnv1a, FNV_OFFSET};
        let mut b = Btb::new(cfg);
        let mut x = 0x5EED_0000_0000_0001u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut digest = FNV_OFFSET;
        for _ in 0..10_000 {
            let r = next();
            let key = match r % 3 {
                0 => BtbKey::Pc(4 * ((r >> 8) % 256)),
                1 => BtbKey::Jte { bid: ((r >> 8) % 2) as u8, opcode: (r >> 16) % 32 },
                _ => BtbKey::Vbbi((r >> 8) % 512),
            };
            let result = match (r >> 40) % 1000 {
                0..=449 => format!("{:?}", b.insert(key, r >> 20)),
                450..=979 => format!("{:?}", b.lookup_leveled(key)),
                980..=984 => format!("flush {}", b.flush_jtes()),
                985..=989 => format!("invalidate {}", b.fault_invalidate_jte(next())),
                990..=997 => {
                    b.fault_flip_bit(next());
                    "flip".to_string()
                }
                _ => format!("flush all {}", b.fault_flush_all()),
            };
            digest = fnv1a(digest, result.as_bytes());
            b.assert_population_invariant();
        }
        let w = saved_words(&mut b);
        let bytes: Vec<u8> = w.iter().flat_map(|v| v.to_le_bytes()).collect();
        let two = b
            .two_level_stats()
            .map(|t| [t.l0_hits, t.l1_hits, t.promotions, t.demotions, t.demotion_drops]);
        (digest, w.len(), fnv1a(FNV_OFFSET, &bytes), b.stats.counters(), two)
    }

    /// Pins the BTB's observable behaviour in literals for both
    /// organizations: every insert outcome and lookup result, the
    /// checkpoint words, and the counters. Any change to victim choice,
    /// the JTE-priority filter, the cap rules, promotion/demotion or the
    /// checkpoint layout moves at least one of these.
    #[test]
    fn mixed_stream_is_pinned_for_every_organization() {
        let tiny = TwoLevelBtbConfig {
            l0_entries: 4,
            l0_ways: 2,
            l1_entries: 8,
            l1_ways: 2,
            fold_bits: 4,
            tag_bits: 8,
            l1_bubbles: 2,
        };
        let capped = |mut cfg: BtbConfig, cap| {
            cfg.jte_cap = cap;
            cfg
        };
        let cases = [
            capped(BtbConfig::set_assoc(64, 2, Replacement::RoundRobin), Some(4)),
            BtbConfig::fully_assoc(32, Replacement::Lru),
            capped(
                BtbConfig::two_level(TwoLevelBtbConfig::arm_like(), Replacement::RoundRobin),
                Some(4),
            ),
            capped(BtbConfig::two_level(tiny, Replacement::Lru), Some(3)),
            capped(BtbConfig::two_level(tiny, Replacement::Lru), Some(0)),
            BtbConfig::two_level(tiny, Replacement::RoundRobin),
        ];
        let pinned = [
            (
                0xfbca_2a28_900a_613a,
                299,
                0xe4d3_a894_4d0c_fbf4,
                [1422, 0, 714, 1251, 1, 49, 170],
                None,
            ),
            (
                0x7ff6_2e5c_8eb7_c377,
                140,
                0x889e_d7f5_4ba3_183e,
                [1271, 0, 337, 794, 0, 49, 476],
                None,
            ),
            (
                0x1084_aa56_3583_3980,
                2338,
                0x064f_9d4b_74c1_6ae7,
                [1426, 0, 22, 1254, 6, 49, 171],
                Some([195, 561, 211, 2328, 0]),
            ),
            (
                0x92b8_9afb_4cb5_0865,
                72,
                0xc591_f11c_d367_2c0c,
                [1443, 0, 126, 1312, 532, 49, 130],
                Some([71, 60, 1, 2469, 0]),
            ),
            (
                0xb9b2_028f_1fe0_36ae,
                72,
                0xb4a7_e8fb_bd0d_0d5d,
                [0, 1502, 0, 0, 0, 49, 0],
                Some([30, 48, 0, 2875, 0]),
            ),
            (
                0x6888_3719_0955_b760,
                72,
                0xc7a3_cf64_e481_45f9,
                [1306, 0, 321, 902, 2170, 49, 403],
                Some([101, 155, 1, 1823, 70]),
            ),
        ];
        for (cfg, want) in cases.into_iter().zip(pinned) {
            assert_eq!(drive_pinned_stream(cfg), want, "{cfg:?}");
        }
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
    fn two_level_checkpoint_walk_roundtrip() {
        let mut b = tl_btb();
        b.insert(BtbKey::Jte { bid: 0, opcode: 1 }, 0x10);
        b.insert(BtbKey::Pc(0), 0x30);
        b.insert(BtbKey::Pc(2 << 2), 0x32);
        b.insert(BtbKey::Pc(4 << 2), 0x34); // forces a demotion
        b.insert(BtbKey::Vbbi(0x55), 0x40);
        let _ = b.lookup_leveled(BtbKey::Pc(0));
        let w = saved_words(&mut b);
        let mut b2 = tl_btb();
        assert_eq!(load_words(&mut b2, &w), Ok(0), "roundtrip restore succeeds");
        assert_eq!(b2.stats, b.stats);
        assert_eq!(b2.two_level_stats(), b.two_level_stats());
        assert_eq!(b2.resident_jtes(), b.resident_jtes());
        assert_eq!(b2.snapshot_levels(), b.snapshot_levels());
        b2.assert_population_invariant();
        // An Ideal snapshot cannot restore into a two-level BTB.
        let w2 = saved_words(&mut btb(8, 2));
        assert!(load_words(&mut tl_btb(), &w2).is_err());
    }
}
