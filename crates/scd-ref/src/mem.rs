//! Sparse, segment-based guest memory: the one memory both executors
//! run over.
//!
//! The guest address space is a handful of disjoint segments (text,
//! rodata, image, stacks, heap). Accesses outside any segment or
//! straddling a segment end are reported as faults.

use std::cell::Cell;
use std::fmt;

use scd_isa::Program;

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
    data: Pages,
    /// Bytes-written high-water mark: every write through this memory
    /// raises it, so `data[hw..]` is untouched since mapping — i.e.
    /// still zero. The snapshot codec scans only `data[..hw]` for the
    /// live extent, keeping snapshot cost proportional to *written*
    /// memory: a mostly-untouched 192 MiB heap is neither scanned (which
    /// would soft-fault every page in) nor cloned.
    hw: usize,
}

impl Clone for Segment {
    /// Copies only the written prefix `..hw`: everything past it is
    /// zero, as the fresh pages of the clone already are.
    fn clone(&self) -> Self {
        let mut data = Pages::zeroed(self.data.len());
        data[..self.hw].copy_from_slice(&self.data[..self.hw]);
        Segment { name: self.name, base: self.base, data, hw: self.hw }
    }
}

impl Segment {
    /// Whether `[addr, addr + size)` lies inside this segment. A range
    /// running past 2^64 lies inside none.
    #[inline]
    fn holds(&self, addr: u64, size: u64) -> bool {
        addr >= self.base
            && addr.checked_add(size).is_some_and(|end| end <= self.base + self.data.len() as u64)
    }
}

/// Segmented guest memory.
#[derive(Debug, Clone, Default)]
pub struct GuestMemory {
    segments: Vec<Segment>,
    /// Index of the segment the last access resolved to. Guest accesses
    /// are strongly local (the hot interpreter state lives in one or two
    /// segments), so checking it first skips the linear segment scan on
    /// nearly every access. Pure lookup cache: segments are disjoint, so
    /// the resolved segment is independent of probe order.
    last_seg: Cell<usize>,
}

impl GuestMemory {
    /// Creates an empty memory with no segments.
    pub fn new() -> Self {
        GuestMemory::default()
    }

    /// A memory holding `program`: its text words in a `text` segment
    /// at `text_base`, and its rodata in a `rodata` segment when there
    /// is any.
    pub fn from_program(program: &Program) -> Self {
        let mut mem = GuestMemory::new();
        let text: Vec<u8> = program.words.iter().flat_map(|w| w.to_le_bytes()).collect();
        mem.add_segment("text", program.text_base, text.len() as u64);
        mem.write_bytes(program.text_base, &text);
        if !program.rodata.is_empty() {
            mem.add_segment("rodata", program.rodata_base, program.rodata.len() as u64);
            mem.write_bytes(program.rodata_base, &program.rodata);
        }
        mem
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
        self.segments.push(Segment { name, base, data: Pages::zeroed(size as usize), hw: 0 });
    }

    /// Copies `bytes` into memory at `addr` (must be within one segment).
    ///
    /// # Panics
    /// Panics if the destination range is unmapped; loading an image into
    /// unmapped memory is a harness bug, not a guest error.
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        let (seg, off) = self
            .locate(addr, bytes.len() as u64)
            .unwrap_or_else(|| panic!("write_bytes to unmapped {addr:#x}"));
        let s = &mut self.segments[seg];
        s.data[off..off + bytes.len()].copy_from_slice(bytes);
        s.hw = s.hw.max(off + bytes.len());
    }

    /// The segment holding `[addr, addr + size)` and the offset of
    /// `addr` in it.
    #[inline]
    fn locate(&self, addr: u64, size: u64) -> Option<(usize, usize)> {
        let hint = self.last_seg.get();
        if let Some(s) = self.segments.get(hint) {
            if s.holds(addr, size) {
                return Some((hint, (addr - s.base) as usize));
            }
        }
        let i = self.segments.iter().position(|s| s.holds(addr, size))?;
        self.last_seg.set(i);
        Some((i, (addr - self.segments[i].base) as usize))
    }

    /// Reads `size` (1, 2, 4 or 8) bytes little-endian, zero-extended.
    ///
    /// # Errors
    /// A [`MemFault`] when the range is not inside one segment.
    #[inline]
    pub fn read(&self, addr: u64, size: u64) -> Result<u64, MemFault> {
        let (seg, off) = self.locate(addr, size).ok_or(MemFault { addr, size, write: false })?;
        let d = &self.segments[seg].data[off..off + size as usize];
        Ok(match *d {
            [a] => a as u64,
            [a, b] => u16::from_le_bytes([a, b]) as u64,
            [a, b, c, e] => u32::from_le_bytes([a, b, c, e]) as u64,
            _ => u64::from_le_bytes(d.try_into().expect("widths are 1/2/4/8")),
        })
    }

    /// Writes the low `size` (1, 2, 4 or 8) bytes of `v` little-endian.
    ///
    /// # Errors
    /// A [`MemFault`], writing nothing, when the range is not inside one
    /// segment.
    #[inline]
    pub fn write(&mut self, addr: u64, size: u64, v: u64) -> Result<(), MemFault> {
        let (seg, off) = self.locate(addr, size).ok_or(MemFault { addr, size, write: true })?;
        let s = &mut self.segments[seg];
        let end = off + size as usize;
        s.data[off..end].copy_from_slice(&v.to_le_bytes()[..size as usize]);
        if end > s.hw {
            s.hw = end;
        }
        Ok(())
    }

    /// Iterates the mapped segments as `(name, base, data)`, in mapping
    /// order.
    pub fn segments(&self) -> impl Iterator<Item = (&'static str, u64, &[u8])> {
        self.segments.iter().map(|s| (s.name, s.base, &s.data[..]))
    }

    /// Captures every segment zero-trimmed: (name, base, full size,
    /// bytes up to the last non-zero one). Guests map a ~200 MB mostly
    /// untouched heap; cloning only the live prefix keeps checkpoints —
    /// which the sampled-simulation scheduler takes at every run start —
    /// proportional to touched memory, not mapped memory.
    pub fn snapshot_segments(&self) -> Vec<(String, u64, u64, Vec<u8>)> {
        self.segments
            .iter()
            .map(|s| {
                let live = trimmed_len(&s.data[..s.hw]);
                (s.name.to_string(), s.base, s.data.len() as u64, s.data[..live].to_vec())
            })
            .collect()
    }

    /// Restores segment contents captured by
    /// [`GuestMemory::snapshot_segments`], zero-filling each segment's
    /// trimmed tail.
    ///
    /// # Errors
    /// A description of the first mismatch when the layout differs
    /// (segment count, or any segment's name, base or size).
    pub fn restore_segments(&mut self, segs: &[(String, u64, u64, Vec<u8>)]) -> Result<(), String> {
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

/// A segment's bytes: zero when created, owned, and dereferencing to
/// `[u8]`. On Linux each segment is a private anonymous mapping of its
/// own, so a page costs memory only once touched and a dropped segment
/// goes straight back to the kernel. (A `vec![0; n]` can instead be
/// served from recycled heap that `calloc` must clear first: a ~200 MiB
/// guest heap then costs a memset of every page on each set-up.)
/// Elsewhere it is a plain zeroed `Vec`.
#[cfg(all(target_os = "linux", not(any(target_arch = "mips", target_arch = "mips64"))))]
mod pages {
    use std::ffi::c_void;
    use std::ops::{Deref, DerefMut};
    use std::ptr::NonNull;

    /// `PROT_READ | PROT_WRITE`.
    const PROT_RW: i32 = 0x1 | 0x2;
    /// `MAP_PRIVATE | MAP_ANONYMOUS` (MIPS numbers the flag differently
    /// and keeps the `Vec` fallback).
    const MAP_PRIVATE_ANON: i32 = 0x02 | 0x20;

    extern "C" {
        /// `mmap(2)`, reached through the libc `std` already links. The
        /// offset is a C `long` on every Linux ABI.
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            off: isize,
        ) -> *mut c_void;
        /// `munmap(2)`.
        fn munmap(addr: *mut c_void, len: usize) -> i32;
    }

    /// `len` bytes of one anonymous mapping, unmapped on drop.
    pub(super) struct Pages {
        ptr: NonNull<u8>,
        len: usize,
    }

    // SAFETY: `Pages` owns its mapping exclusively, as a `Vec<u8>` owns
    // its buffer: shared references hand out only `&[u8]`, and mutation
    // needs `&mut Pages`.
    unsafe impl Send for Pages {}
    // SAFETY: as above; `&Pages` permits reads only.
    unsafe impl Sync for Pages {}

    impl Pages {
        /// `len` zero bytes.
        ///
        /// # Panics
        /// Aborts through the allocation-error handler when the kernel
        /// refuses the mapping, as `vec![0; len]` would.
        pub(super) fn zeroed(len: usize) -> Pages {
            if len == 0 {
                return Pages { ptr: NonNull::dangling(), len };
            }
            // SAFETY: no address hint and no file: the kernel picks a
            // fresh range that aliases no Rust object, and fills it with
            // zeros on first touch.
            let p = unsafe { mmap(std::ptr::null_mut(), len, PROT_RW, MAP_PRIVATE_ANON, -1, 0) };
            // `MAP_FAILED` is `(void *)-1`; without `MAP_FIXED` a
            // success is never null.
            match NonNull::new(p.cast::<u8>()) {
                Some(ptr) if p as isize != -1 => Pages { ptr, len },
                _ => std::alloc::handle_alloc_error(
                    std::alloc::Layout::array::<u8>(len).expect("segment size fits a layout"),
                ),
            }
        }
    }

    impl Drop for Pages {
        fn drop(&mut self) {
            if self.len > 0 {
                // SAFETY: `ptr..ptr + len` is the mapping `zeroed` made,
                // unmapped only here; no borrow of it outlives `self`.
                unsafe {
                    munmap(self.ptr.as_ptr().cast(), self.len);
                }
            }
        }
    }

    impl Deref for Pages {
        type Target = [u8];
        fn deref(&self) -> &[u8] {
            // SAFETY: the mapping is `len` readable, initialized bytes
            // (dangling but never read when `len` is 0) and lives as long
            // as `self`; `&self` rules out a concurrent `&mut`.
            unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
        }
    }

    impl DerefMut for Pages {
        fn deref_mut(&mut self) -> &mut [u8] {
            // SAFETY: as in `deref`, and `&mut self` makes this the only
            // reference to the bytes.
            unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
        }
    }
}

#[cfg(not(all(target_os = "linux", not(any(target_arch = "mips", target_arch = "mips64")))))]
mod pages {
    use std::ops::{Deref, DerefMut};

    /// `len` zeroed heap bytes.
    pub(super) struct Pages(Vec<u8>);

    impl Pages {
        pub(super) fn zeroed(len: usize) -> Pages {
            Pages(vec![0; len])
        }
    }

    impl Deref for Pages {
        type Target = [u8];
        fn deref(&self) -> &[u8] {
            &self.0
        }
    }

    impl DerefMut for Pages {
        fn deref_mut(&mut self) -> &mut [u8] {
            &mut self.0
        }
    }
}

use pages::Pages;

impl fmt::Debug for Pages {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
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
        let mut m = GuestMemory::new();
        m.add_segment("a", 0x1000, 0x100);
        m.write(0x1000, 8, 0xdead_beef_cafe_f00d).unwrap();
        assert_eq!(m.read(0x1000, 8).unwrap(), 0xdead_beef_cafe_f00d);
        assert_eq!(m.read(0x1000, 1).unwrap(), 0x0d);
        assert_eq!(m.read(0x1002, 2).unwrap(), 0xcafe);
        assert_eq!(m.read(0x1004, 4).unwrap(), 0xdead_beef);
        m.write(0x1000, 2, 0x1234_5678).unwrap();
        assert_eq!(m.read(0x1000, 4).unwrap(), 0xcafe_5678, "two bytes");
    }

    #[test]
    fn faults_outside_segments() {
        let mut m = GuestMemory::new();
        m.add_segment("a", 0x1000, 0x100);
        assert!(m.read(0xfff, 1).is_err());
        assert!(m.read(0x10fc, 8).is_err()); // straddles the end
        assert!(m.write(0x1100, 1, 1).is_err());
        let f = m.read(0x5000, 4).unwrap_err();
        assert_eq!((f.addr, f.size, f.write), (0x5000, 4, false));
    }

    #[test]
    fn accesses_wrapping_past_2_pow_64_fault() {
        let mut m = GuestMemory::new();
        m.add_segment("a", 0, 0x100);
        let f = m.read(u64::MAX - 7, 8).unwrap_err();
        assert_eq!((f.addr, f.write), (u64::MAX - 7, false));
        assert!(m.read(u64::MAX - 1, 4).is_err());
        assert!(m.write(u64::MAX - 3, 8, 1).is_err());
        assert!(m.read(u64::MAX, 1).is_err());
    }

    #[test]
    #[should_panic(expected = "write_bytes to unmapped")]
    fn write_bytes_wrapping_past_2_pow_64_panics_as_unmapped() {
        let mut m = GuestMemory::new();
        m.add_segment("a", 0, 0x100);
        m.write_bytes(u64::MAX - 1, &[1, 2, 3, 4]);
    }

    #[test]
    #[should_panic]
    fn overlap_panics() {
        let mut m = GuestMemory::new();
        m.add_segment("a", 0x1000, 0x100);
        m.add_segment("b", 0x1080, 0x100);
    }

    #[test]
    fn multiple_segments() {
        let mut m = GuestMemory::new();
        m.add_segment("lo", 0x1000, 0x100);
        m.add_segment("hi", 0x8000_0000, 0x100);
        m.write(0x8000_0000, 4, 7).unwrap();
        m.write(0x1000, 4, 9).unwrap();
        assert_eq!(m.read(0x8000_0000, 4).unwrap(), 7);
        assert_eq!(m.read(0x1000, 4).unwrap(), 9);
    }

    #[test]
    fn write_bytes_bulk() {
        let mut m = GuestMemory::new();
        m.add_segment("a", 0, 16);
        m.write_bytes(4, &[1, 2, 3, 4]);
        assert_eq!(m.read(4, 4).unwrap(), 0x04030201);
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
    fn clones_and_empty_segments_keep_every_byte() {
        let mut m = GuestMemory::new();
        m.add_segment("big", 0x1000_0000, 64 << 20);
        m.add_segment("empty", 0x100, 0);
        m.write(0x1000_0000 + 12345, 8, 0x0102_0304_0506_0708).unwrap();
        let c = m.clone();
        assert!(m.segments().eq(c.segments()));
        assert_eq!(c.read(0x1000_0000 + 12345, 8).unwrap(), 0x0102_0304_0506_0708);
        assert_eq!(c.read(0x1000_0000 + (64 << 20) - 8, 8).unwrap(), 0);
        assert!(c.read(0x100, 1).is_err(), "an empty segment holds nothing");
    }

    #[test]
    fn snapshot_segments_trim_and_restore_refills_tails() {
        let mut m = GuestMemory::new();
        m.add_segment("a", 0x1000, 0x100);
        m.write(0x1004, 4, 0xdead_beef).unwrap();
        let snap = m.snapshot_segments();
        assert_eq!(snap[0].2, 0x100, "full size recorded");
        assert_eq!(snap[0].3.len(), 8, "data trimmed to the live prefix");
        // Dirty a byte past the trim point, then restore: the tail must
        // come back zero, not keep the dirt.
        m.write(0x10f0, 1, 0xaa).unwrap();
        m.restore_segments(&snap).unwrap();
        assert_eq!(m.read(0x10f0, 1).unwrap(), 0);
        assert_eq!(m.read(0x1004, 4).unwrap(), 0xdead_beef);
    }
}
