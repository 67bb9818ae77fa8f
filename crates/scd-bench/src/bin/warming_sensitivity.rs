//! Warming-window sensitivity: how short can the functional-warming
//! window get before the sampled estimate drifts?
//!
//! ```text
//! cargo run --release -p scd-bench --bin warming_sensitivity            # committed scale
//! cargo run --release -p scd-bench --bin warming_sensitivity -- --quick # CI-sized
//! ```
//!
//! Two structurally diverse benchmarks (fibo: recursion + dispatch
//! pressure; spectral-norm: FP + array traffic) run on the embedded-a5
//! / LVM / SCD corner, full detail first (the reference cycle count at
//! a fixed instruction budget), then sampled under a grid of warm
//! windows. Each window warms every structure (caches, TLBs, BTB,
//! predictors, JTE overlay) for its whole length.
//!
//! Each row reports the estimated-cycles drift against the full-detail
//! reference. The committed `results/warming_sensitivity.txt` is the
//! qualification evidence behind the default `--sample default` plan:
//! drift flattens once the window reaches ~20k retirements, so the
//! default plan warms for 20k.

use luma::scripts::BENCHMARKS;
use scd_bench::write_artifact;
use scd_guest::{RunRequest, Scheme, Vm};
use scd_sim::{SamplingPlan, SimConfig};
use std::fmt::Write as _;
use std::process::exit;

/// The two qualification benchmarks.
const BENCHES: [&str; 2] = ["fibo", "spectral-norm"];

/// Swept window lengths, shortest first.
const WINDOWS: [u64; 6] = [1_000, 5_000, 10_000, 20_000, 50_000, 100_000];

const OUT: &str = "results/warming_sensitivity.txt";

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    // Quick mode shrinks the budget, not the grid: the point of the CI
    // run is exercising every window, not reproducing the numbers.
    let (budget, period, measure) =
        if quick { (4_000_000, 250_000, 10_000) } else { (40_000_000, 1_000_000, 20_000) };
    let cfg = SimConfig::embedded_a5();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Warming-window sensitivity [embedded-a5, LVM, scd scheme]\n\
         budget {budget} insts, period {period}, measure {measure}\n\
         drift = |estimated - full-detail cycles| / full-detail cycles\n"
    );

    for name in BENCHES {
        let b = BENCHMARKS.iter().find(|b| b.name == name).expect("pinned benchmark");
        let arg = if quick { b.tiny_arg } else { b.sim_arg };
        let predefined = [("N", arg)];
        let req = RunRequest::new(cfg.clone(), Vm::Lvm, b.source)
            .predefined(&predefined)
            .scheme(Scheme::Scd)
            .max_insts(budget);

        let full = run(&req, None);
        let _ = writeln!(out, "{name}: full-detail reference {full} cycles");
        let _ =
            writeln!(out, "  {:<12}{:>10}{:>16}{:>10}", "sweep", "window", "cycles-est", "drift%");

        for w in WINDOWS {
            let plan = SamplingPlan::new(period, w, measure).unwrap_or_else(|e| die(&e));
            row(&mut out, w, run(&req, Some(plan)), full);
        }
        out.push('\n');
    }

    print!("{out}");
    if quick {
        eprintln!("warming_sensitivity: quick run, not overwriting {OUT}");
    } else {
        write_artifact(OUT, &out);
        eprintln!("warming_sensitivity: wrote {OUT}");
    }
}

/// Runs the request (sampled under `plan`, or full detail) and returns
/// total cycles — estimated for sampled runs, exact for full detail.
fn run(req: &RunRequest<'_>, plan: Option<SamplingPlan>) -> u64 {
    let r =
        req.clone().sample(plan).run_with(|m| m.disable_invariants()).unwrap_or_else(|e| die(&e));
    r.stats.cycles
}

/// One table row; every window warms all structures, hence `uniform`.
fn row(out: &mut String, window: u64, est: u64, full: u64) {
    let drift = 100.0 * (est as f64 - full as f64).abs() / full as f64;
    let _ = writeln!(out, "  {:<12}{window:>10}{est:>16}{drift:>10.3}", "uniform");
}

fn die(msg: &str) -> ! {
    eprintln!("warming_sensitivity: {msg}");
    exit(1);
}
