//! Pins what the result cache hands back for the sweep's three kinds of
//! cell (full detail, traced, sampled), through the public `Cache` API
//! only: stored under the serve job's key, the cache dropped and the
//! directory reopened, each entry must load as exactly the bytes
//! `payload::encode` gives for the computed run.

use luma::scripts::BENCHMARKS;
use scd_bench::sweep::RunMatrix;
use scd_bench::{ArgScale, Variant};
use scd_guest::Vm;
use scd_serve::{parse_jobs, payload, Cache};
use scd_sim::{SamplingPlan, SimConfig};

/// FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

#[test]
fn reopened_cache_returns_the_encoded_runs() {
    let dir = std::env::temp_dir().join(format!("scd-bench-cache-pins-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let a5 = SimConfig::embedded_a5();
    let b = &BENCHMARKS[0];

    let mut m = RunMatrix::new();
    let detailed = m.variant(&a5, Vm::Lvm, b, ArgScale::Tiny, Variant::Baseline, false);
    let traced = m.variant(&a5, Vm::Svm, b, ArgScale::Tiny, Variant::Scd, true);
    let full = m.run(2, false);
    let mut m = RunMatrix::new();
    m.set_sample(Some(SamplingPlan::parse("60k:10k:6k").expect("valid plan")));
    let sampled = m.variant(&a5, Vm::Lvm, b, ArgScale::Tiny, Variant::Scd, false);
    let smp = m.run(1, false);
    let runs = [full.get(detailed), full.get(traced), smp.get(sampled)];

    let (name, arg) = (b.name, ArgScale::Tiny.arg(b));
    let common = format!(
        "\"bench\": \"{name}\", \"cfg\": \"embedded_a5\", \"predefined\": {{\"N\": {arg}}}"
    );
    let text = format!(
        "{{{common}, \"vm\": \"lvm\", \"scheme\": \"baseline\"}}\n\
         {{{common}, \"vm\": \"svm\", \"scheme\": \"scd\", \"traced\": true}}\n\
         {{{common}, \"vm\": \"lvm\", \"scheme\": \"scd\", \"sample\": \"60k:10k:6k\"}}\n"
    );
    let jobs = parse_jobs(&text).expect("jobs parse");
    let keys: Vec<String> = jobs.iter().map(|j| Cache::key(&j.cache_manifest())).collect();
    let encoded: Vec<String> = runs.iter().map(|r| payload::encode(r)).collect();

    {
        let cache = Cache::open(&dir).expect("open cache");
        for (key, bytes) in keys.iter().zip(&encoded) {
            cache.store(key, bytes.as_bytes()).expect("store");
        }
    }
    let cache = Cache::open(&dir).expect("reopen cache");
    let mut digests = Vec::new();
    for ((key, bytes), job) in keys.iter().zip(&encoded).zip(&jobs) {
        let got = cache.load(key).unwrap_or_else(|| panic!("{}: entry lost", job.id));
        assert_eq!(got, bytes.as_bytes(), "{}: loaded bytes differ", job.id);
        digests.push(fnv1a(&got));
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        digests,
        [0x8333_6e63_e251_0991, 0xb6f9_3099_7f67_559a, 0x84f3_5a55_524a_a780],
        "payload digests moved"
    );
}
