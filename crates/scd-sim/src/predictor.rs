//! Branch *direction* predictors and the return-address stack.
//!
//! Two direction predictors are modeled, matching Table II of the paper:
//! a tournament predictor (512-entry global, 128-entry local, as in the
//! gem5 MinorCPU / Cortex-A5 configuration) and a small gshare (128-entry,
//! as in the Rocket FPGA configuration).

use crate::snapshot::{SnapshotError, Walk};

/// Saturating 2-bit counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter2(u8);

impl Counter2 {
    /// Initialized to weakly-taken.
    pub fn weakly_taken() -> Self {
        Counter2(2)
    }

    /// Predicted direction.
    #[inline]
    pub fn taken(self) -> bool {
        self.0 >= 2
    }

    /// Trains the counter toward the observed direction.
    #[inline]
    pub fn update(&mut self, taken: bool) {
        if taken {
            self.0 = (self.0 + 1).min(3);
        } else {
            self.0 = self.0.saturating_sub(1);
        }
    }

    /// Every counter value, in raw order: a checkpoint stores a counter
    /// as its position here, and the fault hooks draw from it.
    pub(crate) const ALL: [Counter2; 4] = [Counter2(0), Counter2(1), Counter2(2), Counter2(3)];
}

/// Configuration for a direction predictor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirectionConfig {
    /// Tournament of a GHR-indexed global table and a PC-indexed local
    /// table, with a PC-indexed chooser.
    Tournament {
        /// Entries in the global (and chooser) tables.
        global_entries: usize,
        /// Entries in the local table.
        local_entries: usize,
    },
    /// gshare: one table indexed by PC xor global history.
    Gshare {
        /// Table entries.
        entries: usize,
    },
}

/// A trainable direction predictor.
#[derive(Debug)]
#[allow(missing_docs)] // fields mirror DirectionConfig
pub enum Direction {
    /// Tournament predictor state.
    Tournament { global: Vec<Counter2>, local: Vec<Counter2>, chooser: Vec<Counter2>, ghr: u64 },
    /// gshare predictor state.
    Gshare { table: Vec<Counter2>, ghr: u64 },
}

impl Direction {
    /// Builds a predictor from its configuration.
    ///
    /// # Panics
    /// Panics if a table size is zero or not a power of two.
    pub fn new(cfg: DirectionConfig) -> Self {
        let check = |n: usize| {
            assert!(n > 0 && n.is_power_of_two(), "table size must be a power of two");
            n
        };
        match cfg {
            DirectionConfig::Tournament { global_entries, local_entries } => {
                Direction::Tournament {
                    global: vec![Counter2::weakly_taken(); check(global_entries)],
                    local: vec![Counter2::weakly_taken(); check(local_entries)],
                    chooser: vec![Counter2::weakly_taken(); check(global_entries)],
                    ghr: 0,
                }
            }
            DirectionConfig::Gshare { entries } => {
                Direction::Gshare { table: vec![Counter2::weakly_taken(); check(entries)], ghr: 0 }
            }
        }
    }

    /// Predicts the direction of the conditional branch at `pc`.
    #[inline]
    pub fn predict(&self, pc: u64) -> bool {
        match self {
            Direction::Tournament { global, local, chooser, ghr } => {
                let gi = ((pc >> 2) ^ ghr) as usize & (global.len() - 1);
                let li = (pc >> 2) as usize & (local.len() - 1);
                let ci = (pc >> 2) as usize & (chooser.len() - 1);
                if chooser[ci].taken() {
                    global[gi].taken()
                } else {
                    local[li].taken()
                }
            }
            Direction::Gshare { table, ghr } => {
                let i = ((pc >> 2) ^ ghr) as usize & (table.len() - 1);
                table[i].taken()
            }
        }
    }

    /// Trains the predictor with the resolved outcome.
    #[inline]
    pub fn update(&mut self, pc: u64, taken: bool) {
        match self {
            Direction::Tournament { global, local, chooser, ghr } => {
                let gi = ((pc >> 2) ^ *ghr) as usize & (global.len() - 1);
                let li = (pc >> 2) as usize & (local.len() - 1);
                let ci = (pc >> 2) as usize & (chooser.len() - 1);
                let g_correct = global[gi].taken() == taken;
                let l_correct = local[li].taken() == taken;
                if g_correct != l_correct {
                    chooser[ci].update(g_correct);
                }
                global[gi].update(taken);
                local[li].update(taken);
                *ghr = (*ghr << 1) | taken as u64;
            }
            Direction::Gshare { table, ghr } => {
                let i = ((pc >> 2) ^ *ghr) as usize & (table.len() - 1);
                table[i].update(taken);
                *ghr = (*ghr << 1) | taken as u64;
            }
        }
    }

    /// Fault hook: overwrites every counter and the global history with
    /// pseudo-random garbage. Direction predictions are resolved at
    /// execute, so this is timing-only state.
    pub(crate) fn scramble(&mut self, rng: &mut crate::fault::Rng) {
        let scramble_table = |t: &mut Vec<Counter2>, rng: &mut crate::fault::Rng| {
            for c in t.iter_mut() {
                *c = Counter2::ALL[(rng.next() & 3) as usize];
            }
        };
        match self {
            Direction::Tournament { global, local, chooser, ghr } => {
                scramble_table(global, rng);
                scramble_table(local, rng);
                scramble_table(chooser, rng);
                *ghr = rng.next();
            }
            Direction::Gshare { table, ghr } => {
                scramble_table(table, rng);
                *ghr = rng.next();
            }
        }
    }

    /// The checkpoint walk: the variant, each table, then the history.
    pub(crate) fn walk(&mut self, w: &mut impl Walk) -> Result<(), SnapshotError> {
        w.shape(matches!(self, Direction::Gshare { .. }) as usize, "predictor variant")?;
        let (tables, ghr) = match self {
            Direction::Tournament { global, local, chooser, ghr } => {
                ([Some(global), Some(local), Some(chooser)], ghr)
            }
            Direction::Gshare { table, ghr } => ([Some(table), None, None], ghr),
        };
        for t in tables.into_iter().flatten() {
            w.shape(t.len(), "predictor table size")?;
            for c in t.iter_mut() {
                w.tag(c, &Counter2::ALL, [], "predictor counter")?;
            }
        }
        w.word(ghr)
    }
}

/// Return-address stack (circular; overflow overwrites the oldest entry,
/// as in real small cores).
#[derive(Debug)]
pub struct Ras {
    stack: Vec<u64>,
    top: usize,
    depth: usize,
}

impl Ras {
    /// Creates a RAS with `entries` slots.
    ///
    /// # Panics
    /// Panics if `entries` is zero.
    pub fn new(entries: usize) -> Self {
        assert!(entries > 0, "RAS needs at least one entry");
        Ras { stack: vec![0; entries], top: 0, depth: 0 }
    }

    /// Pushes a return address (on calls).
    #[inline]
    pub fn push(&mut self, addr: u64) {
        self.top = (self.top + 1) % self.stack.len();
        self.stack[self.top] = addr;
        self.depth = (self.depth + 1).min(self.stack.len());
    }

    /// Pops the predicted return address (on returns); `None` when empty.
    #[inline]
    pub fn pop(&mut self) -> Option<u64> {
        if self.depth == 0 {
            return None;
        }
        let v = self.stack[self.top];
        self.top = (self.top + self.stack.len() - 1) % self.stack.len();
        self.depth -= 1;
        Some(v)
    }

    /// Fault hook: empties the stack. Return predictions are verified at
    /// execute, so a drained RAS only costs mispredict penalties.
    pub(crate) fn clear(&mut self) {
        self.top = 0;
        self.depth = 0;
    }

    /// The checkpoint walk. Load rejects a `top` or `depth` that
    /// would index past the stack.
    pub(crate) fn walk(&mut self, w: &mut impl Walk) -> Result<(), SnapshotError> {
        w.shape(self.stack.len(), "RAS size")?;
        for v in &mut self.stack {
            w.word(v)?;
        }
        w.index(&mut self.top, self.stack.len(), "RAS top")?;
        w.index(&mut self.depth, self.stack.len() + 1, "RAS depth")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_saturates() {
        let mut c = Counter2::default();
        assert!(!c.taken());
        c.update(true);
        c.update(true);
        assert!(c.taken());
        c.update(true);
        c.update(true);
        c.update(false);
        assert!(c.taken()); // 3 -> 2, still taken
        c.update(false);
        assert!(!c.taken());
    }

    #[test]
    fn gshare_learns_always_taken() {
        let mut p = Direction::new(DirectionConfig::Gshare { entries: 128 });
        let pc = 0x1000;
        for _ in 0..8 {
            let pred = p.predict(pc);
            p.update(pc, true);
            let _ = pred;
        }
        assert!(p.predict(pc));
    }

    #[test]
    fn tournament_learns_alternating_via_global() {
        let mut p =
            Direction::new(DirectionConfig::Tournament { global_entries: 512, local_entries: 128 });
        let pc = 0x2000;
        // Alternating pattern: global history should capture it.
        let mut correct = 0;
        let mut total = 0;
        for i in 0..200 {
            let taken = i % 2 == 0;
            if i >= 100 {
                total += 1;
                if p.predict(pc) == taken {
                    correct += 1;
                }
            }
            p.update(pc, taken);
        }
        assert!(
            correct * 10 >= total * 9,
            "tournament should learn alternation: {correct}/{total}"
        );
    }

    #[test]
    fn ras_lifo() {
        let mut r = Ras::new(4);
        r.push(0x10);
        r.push(0x20);
        assert_eq!(r.pop(), Some(0x20));
        assert_eq!(r.pop(), Some(0x10));
        assert_eq!(r.pop(), None);
    }

    #[test]
    fn ras_overflow_wraps() {
        let mut r = Ras::new(2);
        r.push(1);
        r.push(2);
        r.push(3); // overwrites 1
        assert_eq!(r.pop(), Some(3));
        assert_eq!(r.pop(), Some(2));
        assert_eq!(r.pop(), None);
    }
}
