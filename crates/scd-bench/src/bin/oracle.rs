//! Architectural-oracle matrix: lockstep co-simulation plus the
//! reference-ISS speed measurement.
//!
//! Two halves:
//!
//! 1. **Lockstep matrix** — three structurally diverse seed benchmarks ×
//!    both VMs × {baseline, scd} × {embedded_a5, fpga_rocket}, each run
//!    with a [`scd_sim::LockstepSink`] attached. Every retired
//!    instruction's architectural effects must match the `scd-ref` ISS
//!    bit for bit; any divergence fails the binary. The rendered report
//!    (`results/oracle.txt`) contains only deterministic quantities
//!    (instructions checked per cell), so it is byte-stable across hosts.
//!
//! 2. **Speed** — for each (benchmark, vm), the cycle model (no sink)
//!    and the reference ISS each run the same loaded guest standalone,
//!    and host inst/s are compared. The reference core exists so future
//!    sampled-simulation PRs can fast-forward through billions of
//!    instructions; the ≥50x target is recorded in `BENCH_oracle.json`
//!    (host timings live only there, never in `results/`).
//!
//! ```text
//! cargo run --release -p scd-bench --bin oracle             # sim-scale
//! cargo run -p scd-bench --bin oracle -- --quick            # tiny inputs
//! cargo run --release -p scd-bench --bin oracle -- --threads 4
//! ```

use scd_bench::{arg_scale_from_cli, emit_report, parallel_map, threads_from_cli, ArgScale};
use scd_guest::{lockstep_check, RunRequest, Scheme, Vm};
use scd_sim::lockstep::snapshot_core;
use scd_sim::SimConfig;
use std::fmt::Write as _;
use std::time::Instant;

/// Structurally diverse seed benchmarks: pointer-chasing allocation,
/// FP-heavy arithmetic, and table/string-heavy dispatch.
const BENCHES: [&str; 3] = ["binary-trees", "mandelbrot", "k-nucleotide"];

const MAX_INSTS: u64 = 2_000_000_000;

fn config(name: &str) -> SimConfig {
    match name {
        "a5" => SimConfig::embedded_a5(),
        "rocket" => SimConfig::fpga_rocket(),
        other => unreachable!("unknown config {other}"),
    }
}

fn main() {
    let scale = arg_scale_from_cli(ArgScale::Sim);
    let threads = threads_from_cli();

    let benches: Vec<_> =
        luma::scripts::BENCHMARKS.iter().filter(|b| BENCHES.contains(&b.name)).collect();
    assert_eq!(benches.len(), BENCHES.len(), "seed benchmark went missing");

    // ---- lockstep matrix ----
    let mut work = Vec::new();
    for b in &benches {
        for vm in [Vm::Lvm, Vm::Svm] {
            for scheme in [Scheme::Baseline, Scheme::Scd] {
                for cfg_name in ["a5", "rocket"] {
                    work.push((*b, vm, scheme, cfg_name));
                }
            }
        }
    }

    let rows = parallel_map(&work, threads, |(b, vm, scheme, cfg_name)| {
        let args = [("N", scale.arg(b))];
        let req = RunRequest::new(config(cfg_name), *vm, b.source)
            .predefined(&args)
            .scheme(*scheme)
            .max_insts(MAX_INSTS);
        let t0 = Instant::now();
        match lockstep_check(&req) {
            Ok(r) => {
                let line = format!(
                    "{:<14}{:<5}{:<10}{:<8}{:>14}{:>13}",
                    b.name,
                    vm.name(),
                    scheme.name(),
                    cfg_name,
                    r.checked,
                    0,
                );
                (line, t0.elapsed(), r.checked, false)
            }
            Err(e) => {
                let line = format!(
                    "{:<14}{:<5}{:<10}{:<8}  FAILED: {e}",
                    b.name,
                    vm.name(),
                    scheme.name(),
                    cfg_name
                );
                (line, t0.elapsed(), 0, true)
            }
        }
    });

    let mut out = String::new();
    let _ = writeln!(out, "Architectural-oracle lockstep matrix ({scale:?})");
    let _ = writeln!(
        out,
        "{:<14}{:<5}{:<10}{:<8}{:>14}{:>13}",
        "benchmark", "vm", "scheme", "config", "checked-insts", "divergences"
    );
    let mut failures = 0u32;
    for (line, _, _, failed) in &rows {
        let _ = writeln!(out, "{line}");
        failures += u32::from(*failed);
    }
    let _ = writeln!(out, "\ndivergences: {failures}");
    emit_report("oracle", &out);

    // ---- reference-ISS speed ----
    // Scd scheme on embedded_a5: the configuration every later
    // sampled-simulation PR will fast-forward under.
    let mut speed = Vec::new();
    for b in &benches {
        for vm in [Vm::Lvm, Vm::Svm] {
            let args = [("N", scale.arg(b))];
            let req = RunRequest::new(SimConfig::embedded_a5(), vm, b.source)
                .predefined(&args)
                .scheme(Scheme::Scd)
                .max_insts(MAX_INSTS);

            let mut sess = req.session().expect("guest builds");
            let t0 = Instant::now();
            let exit = sess.machine.run(MAX_INSTS).expect("cycle model runs");
            let machine_wall = t0.elapsed().as_secs_f64();
            let machine_insts = sess.machine.stats.instructions;

            let mut core = snapshot_core(&req.session().expect("guest builds").machine);
            let t0 = Instant::now();
            let code = core
                .run(MAX_INSTS)
                .unwrap_or_else(|e| panic!("{}/{}: reference ISS failed: {e}", b.name, vm.name()));
            let ref_wall = t0.elapsed().as_secs_f64();
            let ref_insts = core.instructions;
            assert_eq!(
                code,
                exit.code,
                "{}/{}: executors disagree on the exit checksum",
                b.name,
                vm.name()
            );

            let machine_ips = machine_insts as f64 / machine_wall.max(1e-9);
            let ref_ips = ref_insts as f64 / ref_wall.max(1e-9);
            eprintln!(
                "speed {:<14}{:<5} machine {:>7.2} Minst/s, ref {:>8.2} Minst/s, {:>6.1}x",
                b.name,
                vm.name(),
                machine_ips / 1e6,
                ref_ips / 1e6,
                ref_ips / machine_ips
            );
            speed.push((b.name, vm.name(), machine_insts, machine_ips, ref_insts, ref_ips));
        }
    }

    let min_speedup = speed.iter().map(|(_, _, _, m, _, r)| r / m).fold(f64::INFINITY, f64::min);
    let json = bench_json(&rows, &work, &speed, min_speedup, scale);
    scd_bench::write_artifact("BENCH_oracle.json", &json);
    eprintln!("oracle: min ref-vs-machine speedup {min_speedup:.1}x -> BENCH_oracle.json");

    if failures > 0 {
        std::process::exit(1);
    }
}

type LockstepRow = (String, std::time::Duration, u64, bool);
type SpeedRow = (&'static str, &'static str, u64, f64, u64, f64);

/// Hand-rolled JSON (workspace rule: no serde). Host timings and the
/// speedup distribution live here; `results/oracle.txt` stays
/// deterministic.
fn bench_json(
    rows: &[LockstepRow],
    work: &[(&luma::scripts::Benchmark, Vm, Scheme, &'static str)],
    speed: &[SpeedRow],
    min_speedup: f64,
    scale: ArgScale,
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema\": \"scd-oracle-bench-v1\",");
    let _ = writeln!(s, "  \"scale\": \"{scale:?}\",");
    let _ = writeln!(s, "  \"min_ref_speedup\": {min_speedup:.3},");
    s.push_str("  \"lockstep\": [\n");
    for (i, ((b, vm, scheme, cfg), (_, wall, checked, failed))) in work.iter().zip(rows).enumerate()
    {
        let _ = write!(
            s,
            "    {{\"bench\": \"{}\", \"vm\": \"{}\", \"scheme\": \"{}\", \"config\": \"{cfg}\", \
             \"checked\": {checked}, \"diverged\": {failed}, \"wall_ms\": {:.3}}}",
            b.name,
            vm.name(),
            scheme.name(),
            wall.as_secs_f64() * 1e3,
        );
        s.push_str(if i + 1 == rows.len() { "\n" } else { ",\n" });
    }
    s.push_str("  ],\n");
    s.push_str("  \"speed\": [\n");
    for (i, (bench, vm, mi, mips, ri, rips)) in speed.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"bench\": \"{bench}\", \"vm\": \"{vm}\", \
             \"machine_insts\": {mi}, \"machine_inst_per_s\": {mips:.0}, \
             \"ref_insts\": {ri}, \"ref_inst_per_s\": {rips:.0}, \
             \"speedup\": {:.3}}}",
            rips / mips,
        );
        s.push_str(if i + 1 == speed.len() { "\n" } else { ",\n" });
    }
    s.push_str("  ]\n}\n");
    s
}
