//! Sparse, segment-based guest physical memory.
//!
//! The guest address space is a handful of disjoint segments (text, rodata,
//! image, stacks, heap). Accesses outside any segment or straddling a
//! segment end are reported as faults.

use std::fmt;

/// A memory access fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemFault {
    /// Faulting guest address.
    pub addr: u64,
    /// Access size in bytes.
    pub size: u64,
    /// True for stores.
    pub write: bool,
}

impl fmt::Display for MemFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} fault at {:#x} ({} bytes)",
            if self.write { "store" } else { "load" },
            self.addr,
            self.size
        )
    }
}

impl std::error::Error for MemFault {}

#[derive(Debug)]
struct Segment {
    name: &'static str,
    base: u64,
    data: Vec<u8>,
    /// Bytes-written high-water mark: every write through this memory
    /// raises it, so `data[hw..]` is untouched since mapping — i.e.
    /// still zero. The snapshot codec scans only `data[..hw]` for the
    /// live extent, keeping snapshot cost proportional to *written*
    /// memory: a mostly-untouched 192 MiB heap is neither scanned (which
    /// would soft-fault every page in) nor cloned.
    hw: usize,
}

impl Segment {
    /// Whether `[addr, addr + size)` lies inside this segment. A range
    /// running past 2^64 lies inside none.
    #[inline]
    fn holds(&self, addr: u64, size: u64) -> bool {
        addr >= self.base
            && addr
                .checked_add(size)
                .is_some_and(|end| end <= self.base + self.data.len() as u64)
    }
}

/// Segmented guest memory.
#[derive(Debug, Default)]
pub struct Memory {
    segments: Vec<Segment>,
    /// Index of the segment the last access resolved to. Guest accesses
    /// are strongly local (the hot interpreter state lives in one or two
    /// segments), so checking it first skips the linear segment scan on
    /// nearly every access. Pure lookup cache: segments are disjoint, so
    /// the resolved segment is independent of probe order.
    last_seg: std::cell::Cell<usize>,
}

impl Memory {
    /// Creates an empty memory with no segments.
    pub fn new() -> Self {
        Memory::default()
    }

    /// Adds a zero-filled segment.
    ///
    /// # Panics
    /// Panics if the new segment overlaps an existing one.
    pub fn add_segment(&mut self, name: &'static str, base: u64, size: u64) {
        for s in &self.segments {
            let s_end = s.base + s.data.len() as u64;
            assert!(
                base + size <= s.base || base >= s_end,
                "segment {name} [{base:#x},{:#x}) overlaps {} [{:#x},{s_end:#x})",
                base + size,
                s.name,
                s.base
            );
        }
        self.segments.push(Segment {
            name,
            base,
            data: vec![0; size as usize],
            hw: 0,
        });
    }

    /// Copies `bytes` into memory at `addr` (must be within one segment).
    ///
    /// # Panics
    /// Panics if the destination range is unmapped; loading an image into
    /// unmapped memory is a harness bug, not a guest error.
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        let seg = self
            .segments
            .iter_mut()
            .find(|s| s.holds(addr, bytes.len() as u64))
            .unwrap_or_else(|| panic!("write_bytes to unmapped {addr:#x}"));
        let off = (addr - seg.base) as usize;
        seg.data[off..off + bytes.len()].copy_from_slice(bytes);
        seg.hw = seg.hw.max(off + bytes.len());
    }

    #[inline]
    fn locate(&self, addr: u64, size: u64) -> Option<(usize, usize)> {
        let hint = self.last_seg.get();
        if let Some(s) = self.segments.get(hint) {
            if s.holds(addr, size) {
                return Some((hint, (addr - s.base) as usize));
            }
        }
        for (i, s) in self.segments.iter().enumerate() {
            if s.holds(addr, size) {
                self.last_seg.set(i);
                return Some((i, (addr - s.base) as usize));
            }
        }
        None
    }

    /// Reads `SIZE` bytes little-endian.
    #[inline]
    pub fn read<const SIZE: usize>(&self, addr: u64) -> Result<[u8; SIZE], MemFault> {
        let (seg, off) = self.locate(addr, SIZE as u64).ok_or(MemFault {
            addr,
            size: SIZE as u64,
            write: false,
        })?;
        let mut out = [0u8; SIZE];
        out.copy_from_slice(&self.segments[seg].data[off..off + SIZE]);
        Ok(out)
    }

    /// Writes `SIZE` bytes little-endian.
    #[inline]
    pub fn write<const SIZE: usize>(
        &mut self,
        addr: u64,
        bytes: [u8; SIZE],
    ) -> Result<(), MemFault> {
        let (seg, off) = self.locate(addr, SIZE as u64).ok_or(MemFault {
            addr,
            size: SIZE as u64,
            write: true,
        })?;
        let s = &mut self.segments[seg];
        s.data[off..off + SIZE].copy_from_slice(&bytes);
        if off + SIZE > s.hw {
            s.hw = off + SIZE;
        }
        Ok(())
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u64) -> Result<u8, MemFault> {
        Ok(self.read::<1>(addr)?[0])
    }
    /// Reads a little-endian u16.
    pub fn read_u16(&self, addr: u64) -> Result<u16, MemFault> {
        Ok(u16::from_le_bytes(self.read::<2>(addr)?))
    }
    /// Reads a little-endian u32.
    pub fn read_u32(&self, addr: u64) -> Result<u32, MemFault> {
        Ok(u32::from_le_bytes(self.read::<4>(addr)?))
    }
    /// Reads a little-endian u64.
    pub fn read_u64(&self, addr: u64) -> Result<u64, MemFault> {
        Ok(u64::from_le_bytes(self.read::<8>(addr)?))
    }
    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u64, v: u8) -> Result<(), MemFault> {
        self.write::<1>(addr, [v])
    }
    /// Writes a little-endian u16.
    pub fn write_u16(&mut self, addr: u64, v: u16) -> Result<(), MemFault> {
        self.write::<2>(addr, v.to_le_bytes())
    }
    /// Writes a little-endian u32.
    pub fn write_u32(&mut self, addr: u64, v: u32) -> Result<(), MemFault> {
        self.write::<4>(addr, v.to_le_bytes())
    }
    /// Writes a little-endian u64.
    pub fn write_u64(&mut self, addr: u64, v: u64) -> Result<(), MemFault> {
        self.write::<8>(addr, v.to_le_bytes())
    }

    /// Iterates the mapped segments as `(name, base, data)`, in mapping
    /// order. Used by the fault-injection differential guard to compare
    /// whole memories byte for byte.
    pub fn segments(&self) -> impl Iterator<Item = (&'static str, u64, &[u8])> {
        self.segments
            .iter()
            .map(|s| (s.name, s.base, s.data.as_slice()))
    }

    // ---- fast-forward hand-off (crate::machine::sampling) ----

    /// Moves the backing bytes of every segment out (leaving empty
    /// vectors behind), for the reference core to own during a
    /// fast-forward leg. The machine's memory is unusable until
    /// [`Memory::put_back_data`] restores it; nothing runs on the
    /// machine in between.
    pub(crate) fn take_all_data(&mut self) -> Vec<(&'static str, u64, Vec<u8>)> {
        self.segments
            .iter_mut()
            .map(|s| (s.name, s.base, std::mem::take(&mut s.data)))
            .collect()
    }

    /// Restores segment data moved out by [`Memory::take_all_data`], in
    /// the same order, merging in each segment's write high-water mark as
    /// observed by the core that owned the memory (see
    /// [`RefCore::seg_high_waters`](scd_ref::RefCore::seg_high_waters)).
    pub(crate) fn put_back_data(&mut self, data: impl Iterator<Item = (Vec<u8>, usize)>) {
        let mut n = 0;
        for (s, (d, hw)) in self.segments.iter_mut().zip(data) {
            debug_assert!(s.data.is_empty(), "segment {} was not taken", s.name);
            s.data = d;
            s.hw = s.hw.max(hw);
            n += 1;
        }
        assert_eq!(
            n,
            self.segments.len(),
            "fast-forward returned a different segment count"
        );
    }

    // ---- checkpoint codec (crate::snapshot) ----

    /// Captures every segment zero-trimmed: (name, base, full size,
    /// bytes up to the last non-zero one). Guests map a ~200 MB mostly
    /// untouched heap; cloning only the live prefix keeps snapshots —
    /// which the sampled-simulation scheduler takes at every run start —
    /// proportional to touched memory, not mapped memory.
    pub(crate) fn snapshot_segments(&self) -> Vec<(String, u64, u64, Vec<u8>)> {
        self.segments
            .iter()
            .map(|s| {
                let live = trimmed_len(&s.data[..s.hw]);
                (
                    s.name.to_string(),
                    s.base,
                    s.data.len() as u64,
                    s.data[..live].to_vec(),
                )
            })
            .collect()
    }

    /// Restores segment contents from a snapshot, zero-filling each
    /// segment's trimmed tail. The target memory must have the identical
    /// layout (same machine config and program).
    pub(crate) fn restore_segments(
        &mut self,
        segs: &[(String, u64, u64, Vec<u8>)],
    ) -> Result<(), String> {
        if segs.len() != self.segments.len() {
            return Err(format!(
                "snapshot has {} segments, machine has {}",
                segs.len(),
                self.segments.len()
            ));
        }
        for (s, (name, base, size, data)) in self.segments.iter_mut().zip(segs) {
            if s.name != name || s.base != *base || s.data.len() as u64 != *size {
                return Err(format!(
                    "segment mismatch: machine {}@{:#x}+{:#x}, snapshot {}@{:#x}+{:#x}",
                    s.name,
                    s.base,
                    s.data.len(),
                    name,
                    base,
                    size
                ));
            }
            // Zero only up to the written extent: everything past it is
            // still zero, and blanket-filling a mostly-untouched 192 MiB
            // heap would materialize every shared zero page. After the
            // restore, writes resume from the snapshot's live prefix.
            s.data[..data.len()].copy_from_slice(data);
            if s.hw > data.len() {
                s.data[data.len()..s.hw].fill(0);
            }
            s.hw = data.len();
        }
        Ok(())
    }
}

/// Length of `data` up to and including its last non-zero byte. Scans
/// backwards in 64-byte strides, OR-reducing eight words per stride so
/// the inner loop vectorizes: untouched pages of a freshly mapped
/// segment are kernel-shared zero pages, so the scan over the common
/// mostly-zero heap runs at cache speed — a fraction of cloning it.
fn trimmed_len(data: &[u8]) -> usize {
    const STRIDE: usize = 64;
    let blocks = data.len() / STRIDE;
    let (body, tail) = data.split_at(blocks * STRIDE);
    if let Some(p) = tail.iter().rposition(|&b| b != 0) {
        return body.len() + p + 1;
    }
    for b in (0..blocks).rev() {
        let chunk = &body[b * STRIDE..(b + 1) * STRIDE];
        let mut or = 0u64;
        for w in chunk.chunks_exact(8) {
            or |= u64::from_le_bytes(w.try_into().expect("8-byte word"));
        }
        if or != 0 {
            let last = chunk.iter().rposition(|&x| x != 0).expect("non-zero block");
            return b * STRIDE + last + 1;
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_rw() {
        let mut m = Memory::new();
        m.add_segment("a", 0x1000, 0x100);
        m.write_u64(0x1000, 0xdead_beef_cafe_f00d).unwrap();
        assert_eq!(m.read_u64(0x1000).unwrap(), 0xdead_beef_cafe_f00d);
        assert_eq!(m.read_u8(0x1000).unwrap(), 0x0d);
        assert_eq!(m.read_u32(0x1004).unwrap(), 0xdead_beef);
    }

    #[test]
    fn faults_outside_segments() {
        let mut m = Memory::new();
        m.add_segment("a", 0x1000, 0x100);
        assert!(m.read_u8(0xfff).is_err());
        assert!(m.read_u64(0x10fc).is_err()); // straddles the end
        assert!(m.write_u8(0x1100, 1).is_err());
        let f = m.read_u32(0x5000).unwrap_err();
        assert_eq!(f.addr, 0x5000);
        assert!(!f.write);
    }

    #[test]
    fn accesses_wrapping_past_2_pow_64_fault() {
        let mut m = Memory::new();
        m.add_segment("a", 0, 0x100);
        let f = m.read_u64(u64::MAX - 7).unwrap_err();
        assert_eq!((f.addr, f.write), (u64::MAX - 7, false));
        assert!(m.read_u32(u64::MAX - 1).is_err());
        assert!(m.write_u64(u64::MAX - 3, 1).is_err());
        assert!(m.read_u8(u64::MAX).is_err());
    }

    #[test]
    #[should_panic(expected = "write_bytes to unmapped")]
    fn write_bytes_wrapping_past_2_pow_64_panics_as_unmapped() {
        let mut m = Memory::new();
        m.add_segment("a", 0, 0x100);
        m.write_bytes(u64::MAX - 1, &[1, 2, 3, 4]);
    }

    #[test]
    #[should_panic]
    fn overlap_panics() {
        let mut m = Memory::new();
        m.add_segment("a", 0x1000, 0x100);
        m.add_segment("b", 0x1080, 0x100);
    }

    #[test]
    fn multiple_segments() {
        let mut m = Memory::new();
        m.add_segment("lo", 0x1000, 0x100);
        m.add_segment("hi", 0x8000_0000, 0x100);
        m.write_u32(0x8000_0000, 7).unwrap();
        m.write_u32(0x1000, 9).unwrap();
        assert_eq!(m.read_u32(0x8000_0000).unwrap(), 7);
        assert_eq!(m.read_u32(0x1000).unwrap(), 9);
    }

    #[test]
    fn write_bytes_bulk() {
        let mut m = Memory::new();
        m.add_segment("a", 0, 16);
        m.write_bytes(4, &[1, 2, 3, 4]);
        assert_eq!(m.read_u32(4).unwrap(), 0x04030201);
    }

    #[test]
    fn trimmed_len_finds_the_last_nonzero_byte() {
        assert_eq!(trimmed_len(&[]), 0);
        assert_eq!(trimmed_len(&[0; 64]), 0);
        assert_eq!(trimmed_len(&[1]), 1);
        let mut d = vec![0u8; 100];
        d[0] = 5;
        assert_eq!(trimmed_len(&d), 1);
        d[41] = 7; // mid-word, word-aligned scan must find the byte
        assert_eq!(trimmed_len(&d), 42);
        d[97] = 1; // in the sub-word tail
        assert_eq!(trimmed_len(&d), 98);
    }

    #[test]
    fn snapshot_segments_trim_and_restore_refills_tails() {
        let mut m = Memory::new();
        m.add_segment("a", 0x1000, 0x100);
        m.write_u32(0x1004, 0xdead_beef).unwrap();
        let snap = m.snapshot_segments();
        assert_eq!(snap[0].2, 0x100, "full size recorded");
        assert_eq!(snap[0].3.len(), 8, "data trimmed to the live prefix");
        // Dirty a byte past the trim point, then restore: the tail must
        // come back zero, not keep the dirt.
        m.write_u8(0x10f0, 0xaa).unwrap();
        m.restore_segments(&snap).unwrap();
        assert_eq!(m.read_u8(0x10f0).unwrap(), 0);
        assert_eq!(m.read_u32(0x1004).unwrap(), 0xdead_beef);
    }
}
