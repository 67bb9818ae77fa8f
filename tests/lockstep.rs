//! Tier-1 lockstep gates: the pinned reproducer corpus replays clean
//! against the architectural oracle under every SCD variant, and a real
//! interpreter guest co-simulates divergence-free end to end.

use scd_ref::corpus;
use scd_sim::{downcast_sink, LockstepSink, Machine, SimConfig, SimError, TwoLevelBtbConfig};

/// The three SCD configurations the fuzz harness exercises — mirrored
/// here so a committed reproducer is replayed exactly as it was found —
/// plus the realistic two-level BTB organization, which the pinned
/// adversarial-aliasing programs (`alias*.repro`) were engineered to
/// stress. Timing differs there; architectural lockstep must not.
fn variant_configs() -> [(&'static str, SimConfig); 4] {
    let stall = SimConfig::embedded_a5();
    let mut fallthrough = SimConfig::embedded_a5();
    fallthrough.scd.stall_on_unready = false;
    let mut off = SimConfig::embedded_a5();
    off.scd.enabled = false;
    let two_level = SimConfig::embedded_a5().with_two_level_btb(TwoLevelBtbConfig::arm_like());
    [
        ("scd-stall", stall),
        ("scd-fallthrough", fallthrough),
        ("scd-off", off),
        ("scd-two-level", two_level),
    ]
}

fn corpus_paths() -> Vec<std::path::PathBuf> {
    let dir = std::path::Path::new("tests/golden/lockstep");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("corpus dir exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "repro"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "the pinned corpus must not be empty");
    paths
}

#[test]
fn pinned_corpus_replays_lockstep_clean() {
    let paths = corpus_paths();

    for path in &paths {
        let text = std::fs::read_to_string(path).expect("readable reproducer");
        let repro = corpus::load(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        for (variant, cfg) in variant_configs() {
            let mut m = Machine::new(cfg, &repro.program);
            m.map("fuzzdata", repro.data_base, repro.data_size);
            m.set_trace_sink(Box::new(LockstepSink::new(&m)));
            let run = m.run(2_000_000);
            let sink = downcast_sink::<LockstepSink>(m.take_trace_sink().unwrap()).unwrap();
            if let Some(d) = sink.divergence() {
                panic!("{} [{variant}]: {d}", path.display());
            }
            match run {
                Ok(_) | Err(SimError::InstLimit { .. }) => {}
                Err(e) => panic!("{} [{variant}]: simulator error: {e}", path.display()),
            }
            assert!(
                sink.checked() > 100,
                "{} [{variant}]: only {} instructions checked",
                path.display(),
                sink.checked()
            );
        }
    }
}

/// The corpus through both monomorphizations of the run loop: every
/// program that once exposed a simulator/oracle divergence (bop
/// barriers, faults, watchdog limits) must finish with the same outcome
/// and bit-identical `SimStats` on the fast loop as on the observed
/// loop.
#[test]
fn pinned_corpus_fast_matches_observed() {
    for path in &corpus_paths() {
        let text = std::fs::read_to_string(path).expect("readable reproducer");
        let repro = corpus::load(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        for (variant, cfg) in variant_configs() {
            let run_mode = |observed: bool| {
                let mut m = Machine::new(cfg.clone(), &repro.program);
                m.map("fuzzdata", repro.data_base, repro.data_size);
                if observed {
                    m.enable_invariants(4096);
                } else {
                    m.disable_invariants();
                }
                let run = m.run(2_000_000);
                (format!("{run:?}"), format!("{:?}", m.stats))
            };
            assert_eq!(
                run_mode(false),
                run_mode(true),
                "{} [{variant}]: fast loop diverged from observed loop",
                path.display()
            );
        }
    }
}
