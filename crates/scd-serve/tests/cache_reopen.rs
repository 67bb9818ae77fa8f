//! Reopen pins for the result cache, through its public API only:
//! whatever one `Cache` acknowledged must load after it is dropped and
//! the directory is opened again.

use scd_serve::Cache;
use std::path::PathBuf;

/// A unique scratch directory per test, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir =
            std::env::temp_dir().join(format!("scd-cache-reopen-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Payload `i`: its length and bytes both vary with `i`, and one is
/// empty.
fn payload(i: usize) -> Vec<u8> {
    (0..(i * 37) % 3000).map(|j| (i * 131 + j * 7) as u8).collect()
}

#[test]
fn every_stored_entry_loads_after_reopen() {
    const N: usize = 300;
    let dir = TempDir::new("all");
    let keys: Vec<String> = (0..N).map(|i| Cache::key(&format!("entry {i}"))).collect();
    {
        let cache = Cache::open(&dir.0).expect("open");
        for (i, key) in keys.iter().enumerate() {
            cache.store(key, &payload(i)).expect("store");
        }
        cache.flush();
    }
    let cache = Cache::open(&dir.0).expect("reopen");
    for (i, key) in keys.iter().enumerate() {
        assert_eq!(cache.load(key), Some(payload(i)), "entry {i}");
    }
    assert_eq!(cache.load(&Cache::key("never stored")), None);
    let hits = cache.stats.hits.load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(hits, N as u64);
}
