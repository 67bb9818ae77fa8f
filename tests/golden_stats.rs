//! Refactor-equivalence golden: a pinned subset of the run matrix
//! (3 benchmarks × 2 VMs × Baseline/SCD × embedded-a5/fpga-rocket, tiny
//! inputs) must produce `SimStats`, the event-derived `CycleBreakdown`
//! and the snapshot config fingerprint **bit-identical** to the
//! committed golden file. Any change to the simulator's timing — however
//! it is reorganized internally — trips this test.
//!
//! Regenerate after an *intentional* timing change with:
//!
//! ```text
//! SCD_BLESS=1 cargo test -q --test golden_stats
//! ```

use luma::scripts::BENCHMARKS;
use scd_guest::{GuestOptions, Scheme, Session, Vm};
use scd_sim::{BtbOrg, CycleBreakdown, SimConfig, TwoLevelBtbConfig};
use std::fmt::Write as _;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/golden_stats.json");
const GOLDEN_TWO_LEVEL: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/golden_stats_two_level.json");
const BENCHES: [&str; 3] = ["fibo", "random", "spectral-norm"];

fn configs() -> [SimConfig; 2] {
    [SimConfig::embedded_a5(), SimConfig::fpga_rocket()]
}

/// Runs the pinned matrix and renders every record into the canonical
/// golden-file text. The `Debug` formatting of `SimStats` and
/// `CycleBreakdown` spells out every counter, so string equality is
/// field-for-field bit equality.
fn render_current() -> String {
    let mut out = String::from("[\n");
    let mut first = true;
    for cfg in configs() {
        for vm in Vm::ALL {
            for name in BENCHES {
                let b = BENCHMARKS.iter().find(|b| b.name == name).expect("pinned benchmark");
                for scheme in [Scheme::Baseline, Scheme::Scd] {
                    let key = format!("{}/{}/{}/{}", cfg.name, vm.name(), name, scheme.name());
                    let mut session = Session::from_source(
                        cfg.clone(),
                        vm,
                        b.source,
                        &[("N", b.tiny_arg)],
                        scheme,
                        GuestOptions::default(),
                    )
                    .unwrap_or_else(|e| panic!("{key}: {e}"));
                    let fingerprint = session.machine.snapshot().fingerprint();
                    session.machine.set_trace_sink(Box::new(CycleBreakdown::default()));
                    let run =
                        session.run_and_validate(u64::MAX).unwrap_or_else(|e| panic!("{key}: {e}"));
                    let breakdown = session
                        .machine
                        .take_trace_sink()
                        .and_then(scd_sim::downcast_sink::<CycleBreakdown>)
                        .expect("breakdown sink comes back out");
                    if !first {
                        out.push_str(",\n");
                    }
                    first = false;
                    let _ = write!(
                        out,
                        "  {{\n    \"key\": \"{key}\",\n    \"fingerprint\": \
                         \"{fingerprint:#018x}\",\n    \"stats\": \"{:?}\",\n    \
                         \"breakdown\": \"{:?}\"\n  }}",
                        run.stats, breakdown,
                    );
                }
            }
        }
    }
    out.push_str("\n]\n");
    out
}

/// The monomorphized fast run loop (no tracer, no invariants, no
/// profile, no fault plan) must be *statistically invisible*: every
/// `SimStats` counter it produces is bit-identical to the fully
/// observed loop's. This is the contract that lets the sweep run
/// untraced for speed while the goldens are pinned through the traced
/// path.
#[test]
fn fast_and_observed_loops_agree_bit_for_bit() {
    for cfg in configs() {
        for scheme in Scheme::ALL {
            let b = BENCHMARKS.iter().find(|b| b.name == "fibo").expect("pinned benchmark");
            let key = format!("{}/{}", cfg.name, scheme.name());
            let build = || {
                Session::from_source(
                    cfg.clone(),
                    Vm::ALL[0],
                    b.source,
                    &[("N", b.tiny_arg)],
                    scheme,
                    GuestOptions::default(),
                )
                .unwrap_or_else(|e| panic!("{key}: {e}"))
            };

            // Fast path: strip every observer (debug builds auto-arm
            // the invariant checker, so drop it explicitly).
            let mut fast = build();
            fast.machine.disable_invariants();
            let fast_run = fast.machine.run(u64::MAX).unwrap_or_else(|e| panic!("{key} fast: {e}"));
            let fast_stats = fast.machine.stats.clone();

            // Observed path: tracer + invariant checkpoints armed.
            let mut obs = build();
            obs.machine.enable_invariants(4096);
            obs.machine.set_trace_sink(Box::new(CycleBreakdown::default()));
            let obs_run = obs.machine.run(u64::MAX).unwrap_or_else(|e| panic!("{key} obs: {e}"));
            let obs_stats = obs.machine.stats.clone();

            assert_eq!(fast_run, obs_run, "{key}: exit state diverged");
            assert_eq!(
                format!("{fast_stats:?}"),
                format!("{obs_stats:?}"),
                "{key}: fast-loop SimStats diverged from observed loop"
            );
        }
    }
}

fn check_golden(golden_path: &str, current: &str) {
    if std::env::var_os("SCD_BLESS").is_some() {
        std::fs::create_dir_all(std::path::Path::new(golden_path).parent().unwrap())
            .expect("golden dir");
        std::fs::write(golden_path, current).expect("write golden");
        eprintln!("blessed {golden_path}");
        return;
    }
    let committed = std::fs::read_to_string(golden_path)
        .expect("golden file committed (regenerate with SCD_BLESS=1)");
    if current != committed {
        for (i, (c, g)) in current.lines().zip(committed.lines()).enumerate() {
            if c != g {
                panic!(
                    "golden stats diverge at line {} —\n  current:  {c}\n  golden:   {g}\n\
                     If this timing change is intentional, regenerate with \
                     SCD_BLESS=1 cargo test -q --test golden_stats",
                    i + 1
                );
            }
        }
        panic!("golden stats diverge in record count (current vs committed golden)");
    }
}

#[test]
fn pinned_matrix_matches_golden() {
    // Both pinned presets carry the Ideal organization, so this matrix
    // — and its committed golden — is untouched by the two-level code
    // path. Guard that explicitly before the byte comparison.
    for cfg in configs() {
        assert_eq!(cfg.btb.org, BtbOrg::Ideal, "{}: preset must stay Ideal-org", cfg.name);
    }
    check_golden(GOLDEN, &render_current());
}

/// Runs `fibo` under the realistic two-level BTB (ARM-like L0+L1,
/// XOR-folded indices) for all three dispatch schemes and renders the
/// records, including the organization's own counters.
fn render_two_level() -> String {
    let cfg = SimConfig::embedded_a5().with_two_level_btb(TwoLevelBtbConfig::arm_like());
    let b = BENCHMARKS.iter().find(|b| b.name == "fibo").expect("pinned benchmark");
    let mut out = String::from("[\n");
    let mut first = true;
    for scheme in Scheme::ALL {
        let key = format!("{}+two-level/lvm/fibo/{}", cfg.name, scheme.name());
        let mut session = Session::from_source(
            cfg.clone(),
            Vm::ALL[0],
            b.source,
            &[("N", b.tiny_arg)],
            scheme,
            GuestOptions::default(),
        )
        .unwrap_or_else(|e| panic!("{key}: {e}"));
        let fingerprint = session.machine.snapshot().fingerprint();
        session.machine.set_trace_sink(Box::new(CycleBreakdown::default()));
        let run = session.run_and_validate(u64::MAX).unwrap_or_else(|e| panic!("{key}: {e}"));
        let breakdown = session
            .machine
            .take_trace_sink()
            .and_then(scd_sim::downcast_sink::<CycleBreakdown>)
            .expect("breakdown sink comes back out");
        let tl = session.machine.btb().two_level_stats().expect("two-level org is active");
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let _ = write!(
            out,
            "  {{\n    \"key\": \"{key}\",\n    \"fingerprint\": \
             \"{fingerprint:#018x}\",\n    \"stats\": \"{:?}\",\n    \
             \"breakdown\": \"{:?}\",\n    \"two_level\": \"{tl:?}\"\n  }}",
            run.stats, breakdown,
        );
    }
    out.push_str("\n]\n");
    out
}

/// The two-level organization is deterministic (two fresh runs of the
/// matrix render byte-identically) and pinned: `SimStats`, the event
/// breakdown, the config fingerprint — which must differ from the
/// Ideal-org fingerprint of the same preset — and the L0/L1 motion
/// counters all match the committed golden.
#[test]
fn two_level_btb_stats_are_deterministic() {
    let current = render_two_level();
    assert_eq!(current, render_two_level(), "two-level stats drift run to run");
    let ideal = SimConfig::embedded_a5();
    let two = SimConfig::embedded_a5().with_two_level_btb(TwoLevelBtbConfig::arm_like());
    assert_ne!(
        format!("{:?}", ideal.btb),
        format!("{:?}", two.btb),
        "two-level configs must not collide with Ideal cache/snapshot keys"
    );
    check_golden(GOLDEN_TWO_LEVEL, &current);
}
