//! The crash-safe content-addressed on-disk result cache.
//!
//! ## Layout
//!
//! ```text
//! <root>/
//!   packs/<stamp>-<pid>-<n>.pack   append-only record files, one per writer
//! ```
//!
//! Every [`Cache`] that stores appends to a pack of its own, created on
//! its first [`Cache::store`]; packs written by earlier or concurrent
//! writers are only read. `<key>` below is the raw 32-byte SHA-256 of
//! the client's canonical manifest (see `RunRequest::cache_manifest` in
//! `scd-guest`); the API speaks its lowercase hex form.
//!
//! ## Record format
//!
//! A pack is a sequence of records, each a 56-byte head followed by the
//! payload:
//!
//! ```text
//! key      32 bytes raw SHA-256 key
//! magic    4 bytes  "SCDC"
//! version  u32 LE   record-format version (2)
//! len      u64 LE   payload length in bytes
//! fnv      u64 LE   FNV-1a over the key, then the payload
//! payload  len bytes
//! ```
//!
//! The checksum covers the key, so a flipped key bit can never serve
//! one job's result under another job's key.
//!
//! ## Durability and visibility
//!
//! [`Cache::store`] appends one record under a mutex and `fdatasync`s
//! the pack before it returns, so an acknowledged store survives a host
//! crash; the pack's directory entry is synced once, when the pack is
//! created. [`Cache::open`] indexes every record in every pack, checking
//! only the framing (magic, version, lengths). A record that runs past
//! the end of its pack is the torn tail of a killed writer: it ends that
//! pack's scan and is counted in [`CacheStats::recovered`]. Entries
//! another process stores after this one opened become visible at the
//! next open.
//!
//! ## Degradation, not panics
//!
//! [`Cache::load`] reads the record with one positioned read and
//! verifies it in full. Any failure — bad magic, version skew, a short
//! read, a checksum mismatch — counts as quarantined and reports a miss,
//! so the client recomputes and stores; the fresh record in the
//! writer's own pack then wins, now and at every later open. The bad
//! bytes stay in place as evidence. Corruption can cost time, never
//! correctness and never a crash.

use std::fs::{self, File, OpenOptions};
use std::io::{self, BufReader, Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{SystemTime, UNIX_EPOCH};

/// Record magic.
const MAGIC: [u8; 4] = *b"SCDC";
/// Record format version (1 was the one-file-per-entry layout).
const VERSION: u32 = 2;
/// Raw key size in bytes.
const KEY: usize = 32;
/// Record head size: the key, then magic, version, length and checksum.
const HEAD: usize = KEY + 24;
/// Index slots at open, at least: room for a batch of fresh stores
/// before the table first grows.
const MIN_SLOTS: usize = 1024;

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over `bytes`, continuing from `h` (the same construction
/// `scd-sim`'s snapshot fingerprint uses; cheap, and plenty against
/// torn writes and bit rot — this is an integrity check, not an
/// authenticity one).
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// A record's checksum: FNV-1a over its key, then its payload.
fn checksum(key: &[u8; KEY], payload: &[u8]) -> u64 {
    fnv1a(fnv1a(FNV_OFFSET, key), payload)
}

/// The raw key of a 64-digit hex key; `None` for anything else.
fn parse_key(hex: &str) -> Option<[u8; KEY]> {
    let digits = hex.as_bytes();
    if digits.len() != 2 * KEY {
        return None;
    }
    let nibble = |c: u8| (c as char).to_digit(16).map(|d| d as u8);
    let mut key = [0u8; KEY];
    for (k, pair) in key.iter_mut().zip(digits.chunks_exact(2)) {
        *k = nibble(pair[0])? << 4 | nibble(pair[1])?;
    }
    Some(key)
}

/// Counters describing what the cache did, all monotonic. Shared
/// (`&Cache`) across worker threads, hence atomics.
#[derive(Debug, Default)]
pub struct CacheStats {
    /// Successful loads.
    pub hits: AtomicU64,
    /// Absent entries.
    pub misses: AtomicU64,
    /// Entries written.
    pub stores: AtomicU64,
    /// Records that failed verification (at load) or framing (at open).
    pub quarantined: AtomicU64,
    /// Torn pack tails skipped at open (killed-writer recovery).
    pub recovered: AtomicU64,
}

impl CacheStats {
    /// Hit rate over all lookups, in `[0, 1]`; `None` before any lookup.
    pub fn hit_rate(&self) -> Option<f64> {
        let hits = self.hits.load(Ordering::Relaxed);
        let total =
            hits + self.misses.load(Ordering::Relaxed) + self.quarantined.load(Ordering::Relaxed);
        (total > 0).then(|| hits as f64 / total as f64)
    }

    /// One-line end-of-run summary of every counter — the canonical
    /// form both `scd serve` and `sweep --cache` print behind their
    /// `--cache-stats` flags.
    pub fn summary(&self) -> String {
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        format!(
            "{} hit(s), {} miss(es), {} store(s), {} quarantined, {} recovered",
            get(&self.hits),
            get(&self.misses),
            get(&self.stores),
            get(&self.quarantined),
            get(&self.recovered),
        )
    }
}

fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

/// Where one record lives: its pack (an index into the open packs), the
/// offset of its head and its payload length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Loc {
    off: u64,
    pack: u32,
    len: u32,
}

/// `Loc::pack` of a slot that holds no key.
const VACANT: u32 = u32::MAX;
/// `Loc::pack` of a key whose record failed verification; it loads as a
/// miss until a fresh store replaces it.
const QUARANTINED: u32 = u32::MAX - 1;

/// One index slot: a fixed-size key and its location, so the index
/// makes no heap allocation per entry.
#[derive(Clone, Copy)]
struct Slot {
    key: [u8; KEY],
    loc: Loc,
}

const EMPTY: Slot = Slot { key: [0; KEY], loc: Loc { off: 0, pack: VACANT, len: 0 } };

/// An open-addressed (linear probing) map from raw key to record
/// location. Keys are SHA-256 digests, so their first eight bytes are
/// already a uniform hash. Sized once at open; it doubles only when a
/// batch stores more than three quarters of its slots.
struct Index {
    slots: Vec<Slot>,
    used: usize,
}

impl Index {
    fn with_records(records: usize) -> Index {
        let n = (2 * records).max(MIN_SLOTS).next_power_of_two();
        Index { slots: vec![EMPTY; n], used: 0 }
    }

    /// The slot holding `key`, or the vacant slot where it belongs.
    fn probe(&self, key: &[u8; KEY]) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = u64::from_le_bytes(key[..8].try_into().expect("8 bytes")) as usize & mask;
        loop {
            let s = &self.slots[i];
            if s.loc.pack == VACANT || s.key == *key {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// The location of `key`'s record; `None` when absent or
    /// quarantined.
    fn get(&self, key: &[u8; KEY]) -> Option<Loc> {
        let loc = self.slots[self.probe(key)].loc;
        (loc.pack < QUARANTINED).then_some(loc)
    }

    fn insert(&mut self, key: [u8; KEY], loc: Loc) {
        if 4 * (self.used + 1) > 3 * self.slots.len() {
            let grown = vec![EMPTY; 2 * self.slots.len()];
            let old = std::mem::replace(&mut self.slots, grown);
            self.used = 0;
            for s in old.into_iter().filter(|s| s.loc.pack != VACANT) {
                self.insert(s.key, s.loc);
            }
        }
        let i = self.probe(&key);
        if self.slots[i].loc.pack == VACANT {
            self.used += 1;
        }
        self.slots[i] = Slot { key, loc };
    }
}

/// The index and every pack it points into.
struct Packs {
    index: Index,
    files: Vec<Arc<File>>,
}

/// This cache's own pack, created by the first store.
struct Writer {
    pack: u32,
    file: Arc<File>,
    /// Bytes acknowledged so far: where the next record goes.
    end: u64,
    /// The record being appended, reused across stores.
    buf: Vec<u8>,
}

/// A content-addressed result cache rooted at one directory.
pub struct Cache {
    root: PathBuf,
    packs: Mutex<Packs>,
    writer: Mutex<Option<Writer>>,
    /// What the cache has done so far.
    pub stats: CacheStats,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Every critical section leaves the guarded state consistent, so a
    // panic elsewhere while it was held poisons nothing that matters.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Reads `buf.len()` bytes at `off`, from any thread at once.
#[cfg(unix)]
fn read_at(file: &File, buf: &mut [u8], off: u64) -> io::Result<()> {
    std::os::unix::fs::FileExt::read_exact_at(file, buf, off)
}

/// Reads `buf.len()` bytes at `off`, from any thread at once.
#[cfg(windows)]
fn read_at(file: &File, mut buf: &mut [u8], mut off: u64) -> io::Result<()> {
    while !buf.is_empty() {
        match std::os::windows::fs::FileExt::seek_read(file, buf, off) {
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => {
                buf = &mut buf[n..];
                off += n as u64;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// A record head, parsed.
struct Head {
    key: [u8; KEY],
    /// Magic and version are this format's.
    framed: bool,
    len: u64,
    fnv: u64,
}

fn parse_head(b: &[u8]) -> Head {
    let word = |at: usize| u64::from_le_bytes(b[at..at + 8].try_into().expect("8 bytes"));
    let version = u32::from_le_bytes(b[KEY + 4..KEY + 8].try_into().expect("4 bytes"));
    Head {
        key: b[..KEY].try_into().expect("key bytes"),
        framed: b[KEY..KEY + 4] == MAGIC && version == VERSION,
        len: word(KEY + 8),
        fnv: word(KEY + 16),
    }
}

/// Indexes the well-framed records of one pack into `out`, stopping at
/// a torn tail (counted recovered), a broken frame (counted
/// quarantined) or an I/O error (the rest of the pack reads as misses).
fn scan(file: &File, pack: u32, out: &mut Vec<([u8; KEY], Loc)>, stats: &CacheStats) {
    let Ok(size) = file.metadata().map(|m| m.len()) else {
        return;
    };
    let mut r = BufReader::with_capacity(1 << 16, file);
    let mut buf = [0u8; HEAD];
    let mut off = 0u64;
    while off < size {
        if size - off < HEAD as u64 {
            bump(&stats.recovered);
            return;
        }
        if r.read_exact(&mut buf).is_err() {
            return;
        }
        let head = parse_head(&buf);
        if !head.framed {
            bump(&stats.quarantined);
            return;
        }
        let end = (off + HEAD as u64).checked_add(head.len);
        if end.is_none_or(|end| end > size) {
            bump(&stats.recovered);
            return;
        }
        let Ok(len) = u32::try_from(head.len) else {
            bump(&stats.quarantined);
            return;
        };
        out.push((head.key, Loc { off, pack, len }));
        if r.seek_relative(i64::from(len)).is_err() {
            return;
        }
        off += HEAD as u64 + u64::from(len);
    }
}

/// Reads the record at `loc` and verifies it in full against `key`,
/// returning the record with its payload at `HEAD..`.
fn read_record(file: &File, key: &[u8; KEY], loc: Loc) -> io::Result<Vec<u8>> {
    let mut rec = vec![0u8; HEAD + loc.len as usize];
    read_at(file, &mut rec, loc.off)?;
    let head = parse_head(&rec);
    let ok = head.key == *key
        && head.framed
        && head.len == u64::from(loc.len)
        && head.fnv == checksum(key, &rec[HEAD..]);
    if !ok {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "record fails verification"));
    }
    Ok(rec)
}

impl Cache {
    /// Opens (creating if needed) the cache at `root` and indexes every
    /// record of every pack under it.
    ///
    /// # Errors
    /// I/O errors creating or listing `packs/`. A pack that cannot be
    /// read costs its entries, not the open.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Cache> {
        let root = root.into();
        let dir = root.join("packs");
        fs::create_dir_all(&dir)?;
        let mut names = Vec::new();
        for entry in fs::read_dir(&dir)? {
            let path = entry?.path();
            if path.extension().is_some_and(|e| e == "pack") {
                names.push(path);
            }
        }
        // Name order is creation order for packs of one host clock,
        // which keeps the index deterministic.
        names.sort();
        let stats = CacheStats::default();
        let mut files = Vec::new();
        let mut found = Vec::new();
        for path in names {
            let Ok(file) = File::open(&path) else {
                continue;
            };
            let pack = u32::try_from(files.len()).expect("fewer than 2^32 packs");
            scan(&file, pack, &mut found, &stats);
            files.push(Arc::new(file));
        }
        let mut index = Index::with_records(found.len());
        for (key, loc) in found {
            // A key recorded twice (a recompute after a quarantine, or
            // two writers racing on one job) keeps a copy that verifies.
            let keep = index
                .get(&key)
                .is_some_and(|old| read_record(&files[old.pack as usize], &key, old).is_ok());
            if !keep {
                index.insert(key, loc);
            }
        }
        Ok(Cache {
            root,
            packs: Mutex::new(Packs { index, files }),
            writer: Mutex::new(None),
            stats,
        })
    }

    /// The cache's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Derives the cache key for a canonical manifest.
    pub fn key(manifest: &str) -> String {
        crate::sha256::sha256_hex(manifest.as_bytes())
    }

    /// Loads and verifies the payload stored under `key`. Absent
    /// entries are a plain miss; records failing verification are
    /// counted quarantined and also reported as a miss, so the caller's
    /// only obligation is to recompute and [`Cache::store`].
    pub fn load(&self, key: &str) -> Option<Vec<u8>> {
        let found = parse_key(key).and_then(|raw| {
            let packs = lock(&self.packs);
            let loc = packs.index.get(&raw)?;
            Some((raw, loc, Arc::clone(&packs.files[loc.pack as usize])))
        });
        let Some((raw, loc, file)) = found else {
            bump(&self.stats.misses);
            return None;
        };
        match read_record(&file, &raw, loc) {
            Ok(mut rec) => {
                bump(&self.stats.hits);
                rec.drain(..HEAD);
                Some(rec)
            }
            // Unreadable (permissions, I/O error): degrade to a miss
            // and leave the record indexed.
            Err(e)
                if e.kind() != io::ErrorKind::InvalidData
                    && e.kind() != io::ErrorKind::UnexpectedEof =>
            {
                bump(&self.stats.misses);
                None
            }
            Err(_) => {
                let mut packs = lock(&self.packs);
                // A store racing this load may already have replaced
                // the record; only the bad one is set aside.
                if packs.index.get(&raw) == Some(loc) {
                    packs.index.insert(raw, Loc { pack: QUARANTINED, ..loc });
                }
                bump(&self.stats.quarantined);
                None
            }
        }
    }

    /// Creates this cache's own pack and registers it with the index.
    fn create_pack(&self) -> io::Result<Writer> {
        let dir = self.root.join("packs");
        let stamp = SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_nanos());
        let pid = std::process::id();
        let mut n = 0u32;
        let file = loop {
            let path = dir.join(format!("{stamp:020}-{pid}-{n}.pack"));
            match OpenOptions::new().read(true).append(true).create_new(true).open(&path) {
                Ok(f) => break f,
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => n += 1,
                Err(e) => return Err(e),
            }
        };
        // The pack's directory entry must be durable before any record
        // in it is acknowledged.
        #[cfg(unix)]
        File::open(&dir)?.sync_all()?;
        let file = Arc::new(file);
        let mut packs = lock(&self.packs);
        let pack = u32::try_from(packs.files.len())
            .ok()
            .filter(|&p| p < QUARANTINED)
            .ok_or_else(|| io::Error::other("too many packs"))?;
        packs.files.push(Arc::clone(&file));
        Ok(Writer { pack, file, end: 0, buf: Vec::new() })
    }

    /// Stores `payload` under `key`: one record appended to this
    /// cache's pack and synced before returning. Safe to call
    /// concurrently for distinct or identical keys (the last store
    /// wins; the payloads are identical by construction since keys are
    /// content hashes of the inputs).
    ///
    /// # Errors
    /// A key that is not 64 hex digits, a payload of 4 GiB or more, or
    /// I/O errors creating, appending or syncing the pack. A pack whose
    /// append failed is never appended to again.
    pub fn store(&self, key: &str, payload: &[u8]) -> io::Result<()> {
        let raw = parse_key(key).ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, format!("bad cache key {key:?}"))
        })?;
        let len = u32::try_from(payload.len())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "payload of 4 GiB or more"))?;
        let mut writer = lock(&self.writer);
        if writer.is_none() {
            *writer = Some(self.create_pack()?);
        }
        let w = writer.as_mut().expect("the pack was just created");
        w.buf.clear();
        w.buf.extend_from_slice(&raw);
        w.buf.extend_from_slice(&MAGIC);
        w.buf.extend_from_slice(&VERSION.to_le_bytes());
        w.buf.extend_from_slice(&u64::from(len).to_le_bytes());
        w.buf.extend_from_slice(&checksum(&raw, payload).to_le_bytes());
        w.buf.extend_from_slice(payload);
        if let Err(e) = (&*w.file).write_all(&w.buf).and_then(|()| w.file.sync_data()) {
            // Cut the partial record off if possible; either way the
            // next store starts a fresh pack.
            let _ = w.file.set_len(w.end);
            *writer = None;
            return Err(e);
        }
        let loc = Loc { off: w.end, pack: w.pack, len };
        w.end += w.buf.len() as u64;
        lock(&self.packs).index.insert(raw, loc);
        bump(&self.stats.stores);
        Ok(())
    }

    /// Kept for callers that end a batch with it. Every acknowledged
    /// store is already synced, and each pack's directory entry was
    /// synced when it was created, so there is nothing left to flush.
    pub fn flush(&self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A unique scratch directory per test, cleaned up on drop.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            static SEQ: AtomicU64 = AtomicU64::new(0);
            let n = SEQ.fetch_add(1, Ordering::Relaxed);
            let dir = std::env::temp_dir()
                .join(format!("scd-serve-test-{tag}-{}-{n}", std::process::id()));
            fs::create_dir_all(&dir).expect("create temp dir");
            TempDir(dir)
        }

        fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn stat(a: &AtomicU64) -> u64 {
        a.load(Ordering::Relaxed)
    }

    /// The pack files under `dir`, in name order.
    fn packs(dir: &Path) -> Vec<PathBuf> {
        let mut v: Vec<PathBuf> = fs::read_dir(dir.join("packs"))
            .expect("packs dir")
            .map(|e| e.expect("dir entry").path())
            .collect();
        v.sort();
        v
    }

    /// The only pack under `dir`.
    fn only_pack(dir: &Path) -> PathBuf {
        let mut v = packs(dir);
        assert_eq!(v.len(), 1, "one writer, one pack");
        v.remove(0)
    }

    /// Rewrites byte `at` of `path` through `f`.
    fn poke(path: &Path, at: usize, f: impl FnOnce(u8) -> u8) {
        let mut bytes = fs::read(path).expect("read pack");
        bytes[at] = f(bytes[at]);
        fs::write(path, &bytes).expect("write pack");
    }

    /// `n` stored entries of distinct sizes, as (key, payload).
    fn entries(n: usize) -> Vec<(String, Vec<u8>)> {
        (0..n).map(|i| (Cache::key(&format!("entry {i}")), vec![i as u8; 10 + i * 3])).collect()
    }

    #[test]
    fn roundtrip() {
        let dir = TempDir::new("roundtrip");
        let cache = Cache::open(dir.path()).expect("open");
        let key = Cache::key("manifest-a");
        assert_eq!(cache.load(&key), None);
        cache.store(&key, b"hello payload").expect("store");
        assert_eq!(cache.load(&key).as_deref(), Some(&b"hello payload"[..]));
        assert_eq!(stat(&cache.stats.hits), 1);
        assert_eq!(stat(&cache.stats.misses), 1);
        assert_eq!(stat(&cache.stats.stores), 1);
    }

    #[test]
    fn distinct_manifests_distinct_keys() {
        assert_ne!(Cache::key("a"), Cache::key("b"));
        assert_eq!(Cache::key("a"), Cache::key("a"));
    }

    #[test]
    fn empty_payload_roundtrips() {
        let dir = TempDir::new("empty");
        let cache = Cache::open(dir.path()).expect("open");
        let key = Cache::key("empty");
        cache.store(&key, b"").expect("store");
        assert_eq!(cache.load(&key).as_deref(), Some(&b""[..]));
    }

    #[test]
    fn keys_must_be_sha256_hex() {
        let dir = TempDir::new("badkey");
        let cache = Cache::open(dir.path()).expect("open");
        let key = Cache::key("k");
        assert_eq!(parse_key(&key.to_uppercase()), parse_key(&key));
        for bad in ["", "abc", &key[1..], &format!("{}g", &key[1..])] {
            assert!(cache.store(bad, b"p").is_err(), "{bad:?} must not store");
            assert_eq!(cache.load(bad), None);
        }
        assert!(packs(dir.path()).is_empty(), "no pack for a refused store");
    }

    #[test]
    fn index_grows_past_its_initial_size() {
        assert_eq!(std::mem::size_of::<Slot>(), 48, "index bytes per slot");
        let mut index = Index::with_records(0);
        let n = 3 * MIN_SLOTS;
        let key = |i: usize| parse_key(&Cache::key(&i.to_string())).expect("hex key");
        for i in 0..n {
            index.insert(key(i), Loc { off: i as u64, pack: 0, len: 1 });
        }
        assert!(index.slots.len() >= 4 * MIN_SLOTS);
        for i in 0..n {
            assert_eq!(index.get(&key(i)).map(|l| l.off), Some(i as u64));
        }
        assert_eq!(index.get(&key(n)), None);
    }

    /// Acknowledged stores survive a crash that loses whatever the
    /// writer had not yet synced: here, a partial record after them.
    #[test]
    fn acknowledged_stores_survive_a_lost_tail() {
        let dir = TempDir::new("durable");
        let all = entries(20);
        {
            let cache = Cache::open(dir.path()).expect("open");
            for (k, p) in &all {
                cache.store(k, p).expect("store");
            }
        }
        // The unsynced bytes of a 21st store: its head and half its
        // payload.
        let lost = Cache::key("lost");
        let raw = parse_key(&lost).expect("hex key");
        let mut partial = raw.to_vec();
        partial.extend_from_slice(&MAGIC);
        partial.extend_from_slice(&VERSION.to_le_bytes());
        partial.extend_from_slice(&100u64.to_le_bytes());
        partial.extend_from_slice(&checksum(&raw, &[7; 100]).to_le_bytes());
        partial.extend_from_slice(&[7; 50]);
        let pack = only_pack(dir.path());
        let mut f = OpenOptions::new().append(true).open(&pack).expect("open pack");
        f.write_all(&partial).expect("append partial record");
        drop(f);

        let cache = Cache::open(dir.path()).expect("reopen");
        assert_eq!(stat(&cache.stats.recovered), 1);
        for (k, p) in &all {
            assert_eq!(cache.load(k).as_ref(), Some(p));
        }
        assert_eq!(cache.load(&lost), None, "a partial record is never served");
        assert_eq!(stat(&cache.stats.quarantined), 0);
    }

    #[test]
    fn torn_tail_is_never_served_and_is_recomputable() {
        for cut in [1, HEAD - 1, HEAD, HEAD + 4] {
            let dir = TempDir::new("torn");
            let (a, b) = (Cache::key("a"), Cache::key("b"));
            {
                let cache = Cache::open(dir.path()).expect("open");
                cache.store(&a, b"first").expect("store");
                cache.store(&b, b"second payload").expect("store");
            }
            // Keep `cut` bytes of the second record.
            let pack = only_pack(dir.path());
            let bytes = fs::read(&pack).expect("read pack");
            fs::write(&pack, &bytes[..HEAD + 5 + cut]).expect("truncate");

            let cache = Cache::open(dir.path()).expect("reopen");
            assert_eq!(stat(&cache.stats.recovered), 1, "cut {cut}");
            assert_eq!(cache.load(&a).as_deref(), Some(&b"first"[..]));
            assert_eq!(cache.load(&b), None, "cut {cut}: torn record served");
            cache.store(&b, b"second payload").expect("re-store");
            assert_eq!(cache.load(&b).as_deref(), Some(&b"second payload"[..]));
            assert_eq!(packs(dir.path()).len(), 2, "old packs are never appended to");
        }
    }

    #[test]
    fn payload_bit_flip_is_quarantined_and_the_recompute_wins() {
        let dir = TempDir::new("bitflip");
        let key = Cache::key("flip-me");
        {
            let cache = Cache::open(dir.path()).expect("open");
            cache.store(&key, b"payload under test").expect("store");
        }
        let pack = only_pack(dir.path());
        let last = fs::metadata(&pack).expect("stat pack").len() as usize - 1;
        poke(&pack, last, |b| b ^ 0x40);
        let evidence = fs::read(&pack).expect("read pack");

        let cache = Cache::open(dir.path()).expect("reopen");
        assert_eq!(cache.load(&key), None, "bit-flipped entry must read as a miss");
        assert_eq!(stat(&cache.stats.quarantined), 1);
        assert_eq!(cache.load(&key), None, "still a miss until recomputed");
        assert_eq!(stat(&cache.stats.quarantined), 1, "quarantined once");
        assert_eq!(stat(&cache.stats.misses), 1);
        cache.store(&key, b"payload under test").expect("re-store");
        assert_eq!(cache.load(&key).as_deref(), Some(&b"payload under test"[..]));
        let now = fs::read(&pack).expect("read pack");
        assert_eq!(now, evidence, "the bad bytes stay as evidence");
        drop(cache);

        // Both copies are indexed at the next open; the one that
        // verifies is served.
        let cache = Cache::open(dir.path()).expect("reopen again");
        assert_eq!(cache.load(&key).as_deref(), Some(&b"payload under test"[..]));
        assert_eq!(stat(&cache.stats.quarantined), 0);
    }

    #[test]
    fn key_bit_flip_is_served_under_neither_key() {
        let dir = TempDir::new("keyflip");
        let key = Cache::key("keyed");
        {
            let cache = Cache::open(dir.path()).expect("open");
            cache.store(&key, b"one job's result").expect("store");
        }
        poke(&only_pack(dir.path()), 5, |b| b ^ 0x01);
        let mut flipped = parse_key(&key).expect("hex key");
        flipped[5] ^= 0x01;
        let flipped: String = flipped.iter().map(|b| format!("{b:02x}")).collect();

        let cache = Cache::open(dir.path()).expect("reopen");
        assert_eq!(cache.load(&key), None, "the original key lost its record");
        assert_eq!(cache.load(&flipped), None, "the flipped key must not serve it");
        assert_eq!(stat(&cache.stats.quarantined), 1);
    }

    #[test]
    fn header_corruptions_are_quarantined() {
        // Each mutation targets a different head field: magic, version,
        // declared length (7 becomes 6, so the record still frames).
        type Mutation = (&'static str, usize, fn(u8) -> u8);
        let cases: [Mutation; 3] = [
            ("magic", KEY, |_| b'X'),
            ("version", KEY + 4, |_| 0xee),
            ("declared length", KEY + 8, |b| b ^ 0x01),
        ];
        for (what, at, mutate) in cases {
            let dir = TempDir::new("header");
            let key = Cache::key(what);
            {
                let cache = Cache::open(dir.path()).expect("open");
                cache.store(&key, b"payload").expect("store");
            }
            poke(&only_pack(dir.path()), at, mutate);
            let cache = Cache::open(dir.path()).expect("reopen");
            assert_eq!(cache.load(&key), None, "{what} corruption must miss");
            assert_eq!(stat(&cache.stats.quarantined), 1, "{what} must quarantine");
            cache.store(&key, b"payload").expect("recompute");
            assert_eq!(cache.load(&key).as_deref(), Some(&b"payload"[..]), "{what}");
        }
    }

    #[test]
    fn packs_path_that_is_a_file_fails_the_store() {
        let dir = TempDir::new("storefail");
        let cache = Cache::open(dir.path()).expect("open");
        fs::remove_dir(dir.path().join("packs")).expect("remove packs");
        fs::write(dir.path().join("packs"), b"not a directory").expect("block packs");
        let key = Cache::key("blocked");
        assert!(cache.store(&key, b"payload").is_err());
        assert!(cache.store(&key, b"payload").is_err(), "and again");
        assert_eq!(cache.load(&key), None);
        assert_eq!(stat(&cache.stats.stores), 0);
    }

    #[test]
    fn concurrent_stores_and_loads_lose_nothing() {
        let dir = TempDir::new("concurrent");
        let cache = Cache::open(dir.path()).expect("open");
        let all = entries(64);
        std::thread::scope(|s| {
            for t in 0..8 {
                let (cache, all) = (&cache, &all);
                s.spawn(move || {
                    // Each thread stores its own eight entries and
                    // stores again, and loads, four shared ones.
                    for i in (t * 8..t * 8 + 8).chain(0..4) {
                        let (k, p) = &all[i];
                        cache.store(k, p).expect("store");
                        assert_eq!(cache.load(k).as_ref(), Some(p));
                    }
                });
            }
        });
        assert_eq!(stat(&cache.stats.quarantined), 0);
        assert_eq!(stat(&cache.stats.stores), 8 * 12);
        drop(cache);
        let cache = Cache::open(dir.path()).expect("reopen");
        for (k, p) in &all {
            assert_eq!(cache.load(k).as_ref(), Some(p));
        }
        assert_eq!(stat(&cache.stats.quarantined), 0);
    }

    #[test]
    fn two_writers_keep_their_own_packs() {
        let dir = TempDir::new("twowriters");
        let (one, two) = (entries(6), entries(12).split_off(6));
        let a = Cache::open(dir.path()).expect("open a");
        let b = Cache::open(dir.path()).expect("open b");
        for ((ka, pa), (kb, pb)) in one.iter().zip(&two) {
            a.store(ka, pa).expect("store a");
            b.store(kb, pb).expect("store b");
        }
        assert_eq!(packs(dir.path()).len(), 2, "one pack per writer");
        assert_eq!(a.load(&two[0].0), None, "visible at the next open, not at once");
        drop((a, b));
        for _ in 0..2 {
            let c = Cache::open(dir.path()).expect("reopen");
            for (k, p) in one.iter().chain(&two) {
                assert_eq!(c.load(k).as_ref(), Some(p));
            }
        }
    }

    #[test]
    fn flush_is_safe_to_call() {
        let dir = TempDir::new("flush");
        let cache = Cache::open(dir.path()).expect("open");
        cache.store(&Cache::key("x"), b"p").expect("store");
        cache.flush();
    }
}
