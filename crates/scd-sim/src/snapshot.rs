//! Whole-machine checkpointing: serialize core *and* µarch state so a
//! run can be interrupted and resumed with bit-identical results.
//!
//! [`crate::Machine::snapshot`] captures everything timing-relevant —
//! register files, PC, cycle count, scoreboard, SCD operand registers,
//! statistics, caches, TLBs, BTB/JTE tables, RAS, both predictors and
//! all memory segments — into a [`Snapshot`]. Restoring it into a
//! machine built from the *same* config and program (checked via a
//! fingerprint) and continuing the run reproduces the uninterrupted
//! run's [`crate::SimStats`] exactly; a test asserts this.
//!
//! Each checkpointed structure (the machine, caches, TLBs, direction
//! predictor, RAS, ITTAGE, BTB banks, the stats block) lists its saved
//! fields once, in one `walk` over a `Walk`er: `Save` appends them to
//! the word stream and `Load` overwrites them from it, so the save and
//! restore orders cannot drift apart.
//!
//! The byte encoding ([`Snapshot::to_bytes`]/[`Snapshot::from_bytes`])
//! is a self-contained little-endian format (magic `SCDCKPT2`) with no
//! external dependencies, used by `scd-cli run --checkpoint-every` /
//! `--resume`.
//!
//! Memory segments are stored *zero-trimmed*: each entry records the
//! segment's full size plus only the bytes up to its last non-zero one,
//! and restore zero-fills the tail. Guests map a ~200 MB mostly
//! untouched heap, and the sampled-simulation scheduler snapshots at
//! every run start — cloning all of it made a snapshot cost more than
//! the intervals it protects. Trimming is semantically invisible (the
//! machine zero-initializes segments) and shrinks both in-memory
//! snapshots and checkpoint files by orders of magnitude.

use std::fmt;

/// Magic prefix of the checkpoint byte format. `SCDCKPT1` stored full
/// segment images; the zero-trimmed `SCDCKPT2` is not
/// backwards-compatible, and old checkpoint files are rejected with a
/// bad-magic error rather than misread.
const MAGIC: &[u8; 8] = b"SCDCKPT2";

/// Error decoding or restoring a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The byte stream is not a well-formed checkpoint.
    Format(String),
    /// The checkpoint was taken from a different config/program.
    Fingerprint {
        /// Fingerprint of the machine being restored into.
        expected: u64,
        /// Fingerprint recorded in the snapshot.
        found: u64,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Format(m) => write!(f, "malformed checkpoint: {m}"),
            SnapshotError::Fingerprint { expected, found } => write!(
                f,
                "checkpoint is for a different config/program \
                 (machine fingerprint {expected:#018x}, snapshot {found:#018x})"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// A point-in-time capture of a [`crate::Machine`]'s complete state.
///
/// Opaque by design: the only consumers are
/// [`crate::Machine::restore`] and the byte codec. The capture excludes
/// the trace sink, profiler and invariant checker (observers, not
/// state) and any installed fault plan; restoring disables invariant
/// checking on the target machine because the replay checker assumes it
/// observed the run from instruction zero.
#[derive(Debug, Clone)]
pub struct Snapshot {
    pub(crate) fingerprint: u64,
    /// All scalar core + µarch state, in the order of the machine's
    /// checkpoint walk.
    pub(crate) words: Vec<u64>,
    /// Memory segments as (name, base, full size, zero-trimmed data):
    /// `data` holds the segment's bytes up to its last non-zero one, and
    /// everything from `data.len()` to `size` is implicitly zero.
    pub(crate) segments: Vec<(String, u64, u64, Vec<u8>)>,
    /// Guest output bytes emitted so far.
    pub(crate) output: Vec<u8>,
}

impl Snapshot {
    /// The config/program fingerprint this snapshot was taken from.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Serializes the snapshot into the `SCDCKPT2` byte format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        push_u64(&mut out, self.fingerprint);
        push_u64(&mut out, self.words.len() as u64);
        for &w in &self.words {
            push_u64(&mut out, w);
        }
        push_bytes(&mut out, &self.output);
        push_u64(&mut out, self.segments.len() as u64);
        for (name, base, size, data) in &self.segments {
            push_bytes(&mut out, name.as_bytes());
            push_u64(&mut out, *base);
            push_u64(&mut out, *size);
            push_bytes(&mut out, data);
        }
        out
    }

    /// Parses a snapshot back from bytes produced by [`Self::to_bytes`].
    ///
    /// # Errors
    /// Returns [`SnapshotError::Format`] on truncated or malformed
    /// input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
        let mut r = Reader { bytes, pos: 0 };
        let magic = r.take(8)?;
        if magic != MAGIC {
            return Err(SnapshotError::Format("bad magic".into()));
        }
        let fingerprint = r.u64()?;
        let nwords = r.u64()? as usize;
        if nwords > bytes.len() / 8 {
            return Err(SnapshotError::Format("word count exceeds input".into()));
        }
        let mut words = Vec::with_capacity(nwords);
        for _ in 0..nwords {
            words.push(r.u64()?);
        }
        let output = r.bytes_field()?.to_vec();
        let nsegs = r.u64()? as usize;
        if nsegs > bytes.len() {
            return Err(SnapshotError::Format("segment count exceeds input".into()));
        }
        let mut segments = Vec::with_capacity(nsegs);
        for _ in 0..nsegs {
            let name = String::from_utf8(r.bytes_field()?.to_vec())
                .map_err(|_| SnapshotError::Format("segment name not utf-8".into()))?;
            let base = r.u64()?;
            let size = r.u64()?;
            let data = r.bytes_field()?.to_vec();
            if data.len() as u64 > size {
                return Err(SnapshotError::Format(format!(
                    "segment {name} carries {} bytes but declares size {size}",
                    data.len()
                )));
            }
            segments.push((name, base, size, data));
        }
        if r.pos != bytes.len() {
            return Err(SnapshotError::Format("trailing bytes".into()));
        }
        Ok(Snapshot {
            fingerprint,
            words,
            segments,
            output,
        })
    }
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_bytes(out: &mut Vec<u8>, b: &[u8]) {
    push_u64(out, b.len() as u64);
    out.extend_from_slice(b);
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| SnapshotError::Format("truncated".into()))?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn bytes_field(&mut self) -> Result<&'a [u8], SnapshotError> {
        let n = self.u64()? as usize;
        self.take(n)
    }
}

/// A walk over checkpointed fields in word order (module docs).
///
/// Loading checks every word that shapes or indexes the machine —
/// table lengths, presence words, enum tags, flag bits, indices — and
/// returns [`SnapshotError::Format`] when one disagrees: the
/// fingerprint covers only the (config, program) pair, so a truncated
/// or bit-flipped checkpoint file can pass it. That is a bad input, not
/// an internal bug, and callers surface it as the documented
/// checkpoint error instead of panicking later. Saving skips the checks
/// and leaves every field unchanged.
pub(crate) trait Walk: Sized {
    /// True for [`Load`]: checks and load-only effects run only then.
    fn loading(&self) -> bool;

    /// Saves `*v`, or overwrites it with the next word of the stream.
    fn raw(&mut self, v: &mut u64) -> Result<(), SnapshotError>;

    /// Fails a load unless `ok()` holds for the `what` just walked;
    /// saving skips it.
    fn check(&self, ok: impl FnOnce() -> bool, what: &str) -> Result<(), SnapshotError> {
        if self.loading() && !ok() {
            return Err(SnapshotError::Format(format!("snapshot {what} is invalid")));
        }
        Ok(())
    }

    /// One whole-word integer field. Load rejects a word that does not
    /// fit `T`.
    fn word<T>(&mut self, v: &mut T) -> Result<(), SnapshotError>
    where
        T: Copy + TryFrom<u64> + TryInto<u64>,
    {
        let mut w = (*v).try_into().ok().expect("every field fits a word");
        self.raw(&mut w)?;
        *v = T::try_from(w)
            .map_err(|_| SnapshotError::Format(format!("snapshot word {w:#x} out of range")))?;
        Ok(())
    }

    /// A word fixed by the config — a table length, a presence bit, the
    /// predictor variant: written on save, checked on load.
    fn shape(&mut self, n: usize, what: &str) -> Result<(), SnapshotError> {
        let mut w = n;
        self.word(&mut w)?;
        self.check(|| w == n, what)
    }

    /// An index into a table of `bound` slots. Load rejects `*v >= bound`.
    fn index(&mut self, v: &mut usize, bound: usize, what: &str) -> Result<(), SnapshotError> {
        self.word(v)?;
        self.check(|| *v < bound, what)
    }

    /// Flag bits packed into one word, `bits[i]` at bit `i`. Load
    /// rejects any other bit.
    fn flags<const N: usize>(
        &mut self,
        bits: [&mut bool; N],
        what: &str,
    ) -> Result<(), SnapshotError> {
        self.tag(&mut (), &[()], bits, what)
    }

    /// An enum, as its position in `variants`, above `bits` packed as by
    /// [`Walk::flags`]. Load rejects a position past the end.
    fn tag<T: Copy + PartialEq, const N: usize>(
        &mut self,
        v: &mut T,
        variants: &[T],
        bits: [&mut bool; N],
        what: &str,
    ) -> Result<(), SnapshotError> {
        let pos = variants.iter().position(|x| x == v).expect("a value is one of its variants");
        let mut w = (pos as u64) << N;
        for (i, b) in bits.iter().enumerate() {
            w |= (**b as u64) << i;
        }
        self.raw(&mut w)?;
        let pos = (w >> N) as usize;
        self.check(|| pos < variants.len(), what)?;
        for (i, b) in bits.into_iter().enumerate() {
            *b = w >> i & 1 != 0;
        }
        *v = variants[pos];
        Ok(())
    }

    /// A presence word for an optional structure, then the structure.
    /// Load rejects a presence that differs from the machine's.
    fn present<T>(
        &mut self,
        v: Option<&mut T>,
        what: &str,
        walk: impl FnOnce(&mut T, &mut Self) -> Result<(), SnapshotError>,
    ) -> Result<(), SnapshotError> {
        self.shape(v.is_some() as usize, what)?;
        v.map_or(Ok(()), |v| walk(v, self))
    }
}

/// The saving walk: appends every walked word to the stream.
#[derive(Default)]
pub(crate) struct Save(pub(crate) Vec<u64>);

impl Walk for Save {
    fn loading(&self) -> bool {
        false
    }

    fn raw(&mut self, v: &mut u64) -> Result<(), SnapshotError> {
        self.0.push(*v);
        Ok(())
    }
}

/// The loading walk: overwrites every walked field from the stream,
/// which holds the words not yet walked. Running out of words is a
/// [`SnapshotError::Format`].
pub(crate) struct Load<'a>(pub(crate) &'a [u64]);

impl Walk for Load<'_> {
    fn loading(&self) -> bool {
        true
    }

    fn raw(&mut self, v: &mut u64) -> Result<(), SnapshotError> {
        let (&w, rest) = self
            .0
            .split_first()
            .ok_or_else(|| SnapshotError::Format("snapshot word stream exhausted".into()))?;
        (*v, self.0) = (w, rest);
        Ok(())
    }
}

/// FNV-1a offset basis.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One FNV-1a folding step over a byte slice, chained via `init`.
pub(crate) fn fnv1a(init: u64, bytes: &[u8]) -> u64 {
    let mut h = init;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::SimStats;

    /// The words of `s`, saved through its walk.
    fn stats_words(mut s: SimStats) -> Vec<u64> {
        let mut save = Save::default();
        s.walk(&mut save).unwrap();
        save.0
    }

    /// Loads a [`SimStats`] from `words` through its walk, returning it
    /// with the count of words left over.
    fn load_stats(words: &[u64]) -> Result<(SimStats, usize), SnapshotError> {
        let mut s = SimStats::default();
        let mut load = Load(words);
        s.walk(&mut load)?;
        Ok((s, load.0.len()))
    }

    #[test]
    fn byte_roundtrip() {
        let snap = Snapshot {
            fingerprint: 0xfeed_beef,
            words: vec![1, 2, 3, u64::MAX],
            segments: vec![
                ("text".into(), 0x1000, 3, vec![1, 2, 3]),
                ("heap".into(), 0x4000, 0x100, vec![]),
            ],
            output: vec![b'h', b'i'],
        };
        let bytes = snap.to_bytes();
        let back = Snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back.fingerprint, snap.fingerprint);
        assert_eq!(back.words, snap.words);
        assert_eq!(back.segments, snap.segments);
        assert_eq!(back.output, snap.output);
    }

    #[test]
    fn malformed_bytes_error() {
        assert!(Snapshot::from_bytes(b"").is_err());
        assert!(Snapshot::from_bytes(b"NOTCKPT0").is_err());
        let snap = Snapshot {
            fingerprint: 1,
            words: vec![7],
            segments: vec![],
            output: vec![],
        };
        let mut bytes = snap.to_bytes();
        bytes.truncate(bytes.len() - 1);
        assert!(Snapshot::from_bytes(&bytes).is_err());
        // Trailing garbage is rejected too.
        let mut bytes = snap.to_bytes();
        bytes.push(0);
        assert!(Snapshot::from_bytes(&bytes).is_err());
    }

    #[test]
    fn oversized_segment_data_is_rejected() {
        let snap = Snapshot {
            fingerprint: 1,
            words: vec![],
            segments: vec![("a".into(), 0, 2, vec![1, 2, 3])],
            output: vec![],
        };
        assert!(matches!(
            Snapshot::from_bytes(&snap.to_bytes()),
            Err(SnapshotError::Format(_))
        ));
    }

    #[test]
    #[allow(clippy::field_reassign_with_default)]
    fn stats_words_roundtrip() {
        let mut s = SimStats::default();
        s.cycles = 123;
        s.instructions = 45;
        s.cond.executed = 6;
        s.cond.mispredicted = 2;
        s.bop_hits = 9;
        s.l2.misses = 3;
        s.btb.jte_evictions = 8;
        assert_eq!(load_stats(&stats_words(s.clone())), Ok((s, 0)));
    }

    /// Checkpoints written by any earlier build must restore unchanged,
    /// so the word layout of the stats block is pinned literally. Every
    /// counter is set by name to a distinct value.
    #[test]
    fn stats_word_layout_is_pinned() {
        let s = SimStats {
            cycles: 101,
            instructions: 102,
            dispatch_instructions: 103,
            loads: 104,
            stores: 105,
            cond: crate::BranchCounters {
                executed: 106,
                mispredicted: 107,
            },
            direct: crate::BranchCounters {
                executed: 108,
                mispredicted: 109,
            },
            ret: crate::BranchCounters {
                executed: 110,
                mispredicted: 111,
            },
            indirect_dispatch: crate::BranchCounters {
                executed: 112,
                mispredicted: 113,
            },
            indirect_other: crate::BranchCounters {
                executed: 114,
                mispredicted: 115,
            },
            bop_executed: 116,
            bop_hits: 117,
            bop_misses: 118,
            bop_stall_cycles: 119,
            jru_executed: 120,
            icache: crate::AccessCounters {
                accesses: 121,
                misses: 122,
                writebacks: 123,
            },
            dcache: crate::AccessCounters {
                accesses: 124,
                misses: 125,
                writebacks: 126,
            },
            l2: crate::AccessCounters {
                accesses: 127,
                misses: 128,
                writebacks: 129,
            },
            itlb: crate::AccessCounters {
                accesses: 130,
                misses: 131,
                writebacks: 132,
            },
            dtlb: crate::AccessCounters {
                accesses: 133,
                misses: 134,
                writebacks: 135,
            },
            btb: crate::BtbStats {
                jte_inserts: 136,
                jte_cap_skips: 137,
                btb_evicted_by_jte: 138,
                jte_evictions: 139,
                btb_blocked_by_jte: 140,
                jte_flushes: 141,
                jte_flushed: 142,
            },
        };
        let mut w = vec![7];
        w.extend(stats_words(s.clone()));
        assert_eq!(
            w,
            [
                7, 101, 102, 103, 104, 105, 106, 107, 108, 109, 110, 111, 112, 113, 114, 115, 116,
                117, 118, 119, 120, 121, 122, 123, 124, 125, 126, 127, 128, 129, 130, 131, 132,
                133, 134, 135, 136, 137, 138, 139, 140, 141, 142,
            ]
        );
        assert_eq!(load_stats(&w[1..]), Ok((s, 0)));
    }

    #[test]
    fn exhausted_word_stream_is_a_typed_error() {
        let w = vec![1u64, 2];
        let mut load = Load(&w);
        let mut v = 0u64;
        assert_eq!(load.word(&mut v).map(|()| v), Ok(1));
        assert_eq!(load.word(&mut v).map(|()| v), Ok(2));
        assert!(matches!(load.word(&mut v), Err(SnapshotError::Format(_))));
        // A truncated word stream must fail the full stats decode the
        // same way, not panic.
        assert!(matches!(load_stats(&w), Err(SnapshotError::Format(_))));
    }
}
