//! Simulator-perf harness: measures the *simulator's own* throughput
//! (guest instructions retired per host second) on a fixed workload
//! matrix, so every PR records the cycle model's speed trajectory the
//! same way `BENCH_sweep.json` records the sweep's.
//!
//! ```text
//! cargo run --release -p scd-bench --bin simperf                    # full budget
//! cargo run --release -p scd-bench --bin simperf -- --quick         # CI-sized
//! cargo run --release -p scd-bench --bin simperf -- --ref old.json  # embed speedups
//! cargo run --release -p scd-bench --bin simperf -- --quick --check BENCH_simperf.json
//! ```
//!
//! The matrix is the golden-stats trio (fibo / random / spectral-norm)
//! x both VMs x all three dispatch schemes x {embedded-a5, fpga-rocket}
//! — 36 cells. Each cell loads a fresh session, disables the invariant
//! checker and runs *untraced* (the machine's fast loop) under a fixed
//! retired-instruction budget, so host wall time is the only free
//! variable. Output goes to `BENCH_simperf.json` (hand-rolled JSON,
//! schema in EXPERIMENTS.md).
//!
//! After the detailed matrix, the warming loop (`Machine::run_warming`,
//! the sampled scheduler's warm leg) is timed on the same trio
//! (embedded-a5, LVM, SCD), one cell per benchmark. The record carries
//! their geomean as `warming_mips` — `--check` holds it to the same
//! regression floor as the detailed cells, so a slow warming loop
//! cannot quietly eat the sampled sweep's duty-cycle budget.
//!
//! Each cell also times the fast-forward engine: `RefCore::run` from the
//! cell's initial state (snapshotted before the detailed run) under the
//! same budget. The v4 record carries the per-cell `refcore_mips` and
//! their geomean `ref_mips`, floored by `--check` like `warming_mips`,
//! so a fast-forward slip fails the perf smoke too.
//!
//! `--ref FILE` copies per-cell `mips` from an earlier record into the
//! output as `base_mips` plus a per-cell and geomean `speedup` — the
//! honest before/after record for optimization PRs. `--check FILE`
//! compares the current run against a committed record and exits
//! non-zero only when a cell *regresses* below `0.70x` its reference
//! throughput (generous, sized for noisy 1-core CI runners); being
//! faster never fails.

use luma::scripts::BENCHMARKS;
use scd_guest::{GuestOptions, Scheme, Session, Vm};
use scd_ref::RefError;
use scd_sim::json::{self, Value};
use scd_sim::{geomean, lockstep, SimConfig, SimError};
use std::fmt::Write as _;
use std::process::exit;
use std::time::Instant;

/// The pinned golden-stats benchmark trio — cheap, structurally diverse
/// (recursion, RNG + array traffic, FP-heavy).
const BENCHES: [&str; 3] = ["fibo", "random", "spectral-norm"];

/// Retired-instruction budget per cell.
const FULL_BUDGET: u64 = 20_000_000;
const QUICK_BUDGET: u64 = 2_000_000;

const OUT: &str = "BENCH_simperf.json";

struct Cell {
    preset: &'static str,
    vm: Vm,
    bench: &'static str,
    scheme: Scheme,
    insts: u64,
    wall_s: f64,
    /// Instructions and wall time of `RefCore::run` on the same cell.
    ref_insts: u64,
    ref_wall_s: f64,
}

impl Cell {
    fn key(&self) -> String {
        format!("{}/{}/{}/{}", self.preset, self.vm.name(), self.bench, self.scheme.name())
    }

    fn mips(&self) -> f64 {
        self.insts as f64 / self.wall_s.max(1e-12) / 1e6
    }

    fn ref_mips(&self) -> f64 {
        self.ref_insts as f64 / self.ref_wall_s.max(1e-12) / 1e6
    }
}

/// One warming-loop measurement.
struct WarmCell {
    bench: &'static str,
    insts: u64,
    wall_s: f64,
}

impl WarmCell {
    fn mips(&self) -> f64 {
        self.insts as f64 / self.wall_s.max(1e-12) / 1e6
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let has = |f: &str| argv.iter().any(|a| a == f);
    let arg_of = |f: &str| argv.iter().position(|a| a == f).and_then(|i| argv.get(i + 1)).cloned();
    let quick = has("--quick");
    let budget = if quick { QUICK_BUDGET } else { FULL_BUDGET };
    let reference = arg_of("--ref").map(|p| load_record(&p));
    let check = arg_of("--check").map(|p| load_record(&p));

    let configs = [SimConfig::embedded_a5(), SimConfig::fpga_rocket()];
    let mut cells = Vec::new();
    // A broken cell must not torpedo the cells already measured: record
    // the failure, finish the matrix so the full picture is reported,
    // then exit non-zero.
    let mut failures: Vec<String> = Vec::new();
    eprintln!("simperf: {} cells, {budget} insts each", configs.len() * 2 * 3 * BENCHES.len());
    for cfg in &configs {
        for vm in Vm::ALL {
            for name in BENCHES {
                let b = BENCHMARKS.iter().find(|b| b.name == name).expect("pinned benchmark");
                for scheme in Scheme::ALL {
                    let key = format!("{}/{}/{name}/{}", cfg.name, vm.name(), scheme.name());
                    let mut session = match Session::from_source(
                        cfg.clone(),
                        vm,
                        b.source,
                        &[("N", b.sim_arg)],
                        scheme,
                        GuestOptions::default(),
                    ) {
                        Ok(s) => s,
                        Err(e) => {
                            eprintln!("  {key}: FAILED to load: {e}");
                            failures.push(format!("{key}: {e}"));
                            continue;
                        }
                    };
                    // Untraced, uninstrumented: the release fast path.
                    session.machine.disable_invariants();
                    let mut core = lockstep::snapshot_core(&session.machine);
                    let started = Instant::now();
                    match session.machine.run(budget) {
                        Ok(_) | Err(SimError::InstLimit { .. }) => {}
                        Err(e) => {
                            eprintln!("  {key}: FAILED: {e}");
                            failures.push(format!("{key}: {e}"));
                            continue;
                        }
                    }
                    let wall_s = started.elapsed().as_secs_f64();
                    // The fast-forward engine on the same cell and budget.
                    let started = Instant::now();
                    match core.run(budget) {
                        Ok(_) | Err(RefError::InstLimit { .. }) => {}
                        Err(e) => {
                            eprintln!("  {key}: RefCore FAILED: {e}");
                            failures.push(format!("{key} RefCore: {e}"));
                            continue;
                        }
                    }
                    let cell = Cell {
                        preset: cfg.name,
                        vm,
                        bench: name,
                        scheme,
                        insts: session.machine.stats.instructions,
                        wall_s,
                        ref_insts: core.instructions,
                        ref_wall_s: started.elapsed().as_secs_f64(),
                    };
                    eprintln!(
                        "  {:<44} {:>8.2} Minst/s  (RefCore {:.2})",
                        cell.key(),
                        cell.mips(),
                        cell.ref_mips()
                    );
                    cells.push(cell);
                }
            }
        }
    }

    // Warming-loop throughput on the embedded-a5 / LVM / SCD corner of
    // the trio: the rate of the sampled scheduler's warm legs.
    let mut warm_cells: Vec<WarmCell> = Vec::new();
    eprintln!("simperf: warming loop, {budget} insts each");
    for name in BENCHES {
        let b = BENCHMARKS.iter().find(|b| b.name == name).expect("pinned benchmark");
        let key = format!("embedded-a5/lvm/{name}/scd warming");
        let mut session = match Session::from_source(
            SimConfig::embedded_a5(),
            Vm::Lvm,
            b.source,
            &[("N", b.sim_arg)],
            Scheme::Scd,
            GuestOptions::default(),
        ) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("  {key}: FAILED to load: {e}");
                failures.push(format!("{key}: {e}"));
                continue;
            }
        };
        session.machine.disable_invariants();
        let started = Instant::now();
        match session.machine.run_warming(budget) {
            Ok(_) | Err(SimError::InstLimit { .. }) => {}
            Err(e) => {
                eprintln!("  {key}: FAILED: {e}");
                failures.push(format!("{key}: {e}"));
                continue;
            }
        }
        let cell = WarmCell {
            bench: name,
            insts: session.machine.stats.instructions,
            wall_s: started.elapsed().as_secs_f64(),
        };
        eprintln!("  {key:<44} {:>8.2} Minst/s", cell.mips());
        warm_cells.push(cell);
    }

    if !failures.is_empty() {
        eprintln!("simperf: {} cell(s) failed:", failures.len());
        for f in &failures {
            eprintln!("  {f}");
        }
        exit(1);
    }

    let mips: Vec<f64> = cells.iter().map(Cell::mips).collect();
    let g = geomean(&mips).unwrap_or_else(|| {
        eprintln!("simperf: no valid throughput measurements — cannot compute geomean");
        exit(1);
    });
    eprintln!("simperf: geomean {g:.2} Minst/s over {} cells", cells.len());
    let ref_mips = ref_geomean(&cells);
    eprintln!("simperf: RefCore fast-forward geomean {ref_mips:.2} Minst/s");
    let warming_mips = warm_geomean(&warm_cells);
    eprintln!("simperf: warming geomean {warming_mips:.2} Minst/s");

    if let Some(baseline) = check {
        exit(run_check(&cells, warming_mips, ref_mips, &baseline));
    }

    let json = render_json(
        &cells,
        &warm_cells,
        quick,
        budget,
        reference.as_ref().map(|r| r.cells.as_slice()),
    );
    scd_bench::write_artifact(OUT, &json);
    eprintln!("simperf: wrote {OUT}");
}

/// Geomean `RefCore::run` throughput over the detailed matrix.
fn ref_geomean(cells: &[Cell]) -> f64 {
    let mips: Vec<f64> = cells.iter().map(Cell::ref_mips).collect();
    geomean(&mips).unwrap_or_else(|| {
        eprintln!("simperf: no RefCore measurements — cannot compute geomean");
        exit(1);
    })
}

/// Geomean throughput of the warming-loop cells.
fn warm_geomean(cells: &[WarmCell]) -> f64 {
    let mips: Vec<f64> = cells.iter().map(WarmCell::mips).collect();
    geomean(&mips).unwrap_or_else(|| {
        eprintln!("simperf: no warming measurements — cannot compute geomean");
        exit(1);
    })
}

/// Compares this run against a committed record; only regressions fail.
/// The warming-loop geomean and the RefCore fast-forward geomean are
/// held to the same floor as the detailed cells (a baseline that lacks
/// the field skips that leg).
fn run_check(cells: &[Cell], warming_mips: f64, ref_mips: f64, baseline: &Record) -> i32 {
    const TOLERANCE: f64 = 0.70;
    let mut bad = 0u32;
    let mut matched = 0u32;
    for c in cells {
        let key = c.key();
        let Some((_, base_mips)) = baseline.cells.iter().find(|(k, _)| *k == key) else {
            continue;
        };
        matched += 1;
        let now = c.mips();
        if now < base_mips * TOLERANCE {
            eprintln!(
                "simperf --check: REGRESSION {key}: {now:.2} Minst/s < {TOLERANCE} x \
                 baseline {base_mips:.2}"
            );
            bad += 1;
        }
    }
    if matched == 0 {
        eprintln!("simperf --check: no cells matched the baseline record");
        return 1;
    }
    for (what, now, base) in [
        ("warming loop", warming_mips, baseline.warming_mips),
        ("RefCore fast-forward", ref_mips, baseline.ref_mips),
    ] {
        if let Some(base) = base {
            if now < base * TOLERANCE {
                eprintln!(
                    "simperf --check: REGRESSION {what}: {now:.2} Minst/s < \
                     {TOLERANCE} x baseline {base:.2}"
                );
                bad += 1;
            }
        }
    }
    if bad == 0 {
        eprintln!("simperf --check: {matched} cells within tolerance of the committed baseline");
        0
    } else {
        1
    }
}

fn render_json(
    cells: &[Cell],
    warm_cells: &[WarmCell],
    quick: bool,
    budget: u64,
    reference: Option<&[(String, f64)]>,
) -> String {
    // v2 added "host_cpus". v4 added the RefCore fast-forward rate:
    // per-cell "refcore_mips", their geomean "ref_mips" (a --check
    // floor), and the per-cell --ref field "base_mips". v5 drops the
    // threaded replay engine: no "replay_mode", and the "warming" array
    // and its "warming_mips" geomean (a --check floor) time the one
    // warming loop.
    let host_cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema\": \"scd-simperf-v5\",");
    let _ = writeln!(s, "  \"quick\": {quick},");
    let _ = writeln!(s, "  \"budget_insts\": {budget},");
    let _ = writeln!(s, "  \"host_cpus\": {host_cpus},");
    let mips: Vec<f64> = cells.iter().map(Cell::mips).collect();
    // A record with a zero geomean would make a later `--check` or
    // `--ref` comparison pass or fail spuriously: refuse to write one.
    let g = geomean(&mips).unwrap_or_else(|| {
        eprintln!("simperf: empty cell set — refusing to write a record with no geomean");
        exit(1);
    });
    let _ = writeln!(s, "  \"geomean_mips\": {g:.3},");
    let _ = writeln!(s, "  \"ref_mips\": {:.3},", ref_geomean(cells));
    let _ = writeln!(s, "  \"warming_mips\": {:.3},", warm_geomean(warm_cells));
    let mut speedups = Vec::new();
    if let Some(r) = reference {
        for c in cells {
            if let Some((_, m)) = r.iter().find(|(k, _)| *k == c.key()) {
                speedups.push(c.mips() / m.max(1e-12));
            }
        }
        let gs = geomean(&speedups).unwrap_or_else(|| {
            eprintln!(
                "simperf: --ref record shares no cell keys with this run — \
                 speedup would be meaningless"
            );
            exit(1);
        });
        let _ = writeln!(s, "  \"geomean_speedup_vs_ref\": {gs:.3},");
    }
    s.push_str("  \"warming\": [\n");
    let nw = warm_cells.len();
    for (i, c) in warm_cells.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"bench\": \"{}\", \"insts\": {}, \"wall_ms\": {:.3}, \"warm_mips\": {:.3}}}",
            c.bench,
            c.insts,
            c.wall_s * 1e3,
            c.mips(),
        );
        s.push_str(if i + 1 == nw { "\n" } else { ",\n" });
    }
    s.push_str("  ],\n");
    s.push_str("  \"cells\": [\n");
    let n = cells.len();
    for (i, c) in cells.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"key\": \"{}\", \"preset\": \"{}\", \"vm\": \"{}\", \"bench\": \"{}\", \
             \"scheme\": \"{}\", \"insts\": {}, \"wall_ms\": {:.3}, \"mips\": {:.3}, \
             \"refcore_mips\": {:.3}",
            c.key(),
            c.preset,
            c.vm.name(),
            c.bench,
            c.scheme.name(),
            c.insts,
            c.wall_s * 1e3,
            c.mips(),
            c.ref_mips(),
        );
        if let Some(r) = reference {
            if let Some((_, m)) = r.iter().find(|(k, _)| *k == c.key()) {
                let _ = write!(
                    s,
                    ", \"base_mips\": {:.3}, \"speedup\": {:.3}",
                    m,
                    c.mips() / m.max(1e-12)
                );
            }
        }
        s.push('}');
        s.push_str(if i + 1 == n { "\n" } else { ",\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

/// A committed record, as far as `--ref` and `--check` need it.
#[derive(Debug)]
struct Record {
    /// `(key, mips)` per detailed cell.
    cells: Vec<(String, f64)>,
    /// Warming-loop geomean.
    warming_mips: Option<f64>,
    /// RefCore fast-forward geomean (v4 and later).
    ref_mips: Option<f64>,
}

/// Loads a committed record. An unreadable file exits 70; a malformed
/// one exits 1.
fn load_record(path: &str) -> Record {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("simperf: cannot read reference record {path}: {e}");
        exit(70);
    });
    parse_record(&text).unwrap_or_else(|e| {
        eprintln!("simperf: reference record {path} is malformed: {e}");
        exit(1);
    })
}

/// Reads `(key, mips)` from every entry of the `"cells"` array, plus the
/// top-level `warming_mips` and `ref_mips` geomeans (absent from older
/// records, in which case that floor is skipped). Only the top-level
/// geomeans count: v3 cells written with `--ref` carry a per-cell
/// `ref_mips` of another meaning.
///
/// Strict where it matters: every cell must carry a key and a finite,
/// positive `mips` number, and there must be at least one cell. Silently
/// skipping a cell would shrink the baseline and let a regressed cell
/// dodge the `--check` gate.
fn parse_record(text: &str) -> Result<Record, String> {
    let v = json::parse(text)?;
    let rate = |v: &Value, name: &str| {
        v.get(name).and_then(Value::as_f64).filter(|m| m.is_finite() && *m > 0.0)
    };
    let cells = v
        .get("cells")
        .and_then(Value::as_arr)
        .ok_or("no \"cells\" array")?
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let key = c
                .get("key")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("cell {i} has no \"key\""))?;
            // `mips` is the cell's own measurement, not `base_mips`,
            // `refcore_mips` or a v3 `ref_mips`.
            let mips = rate(c, "mips")
                .ok_or_else(|| format!("cell \"{key}\" has a missing or invalid \"mips\" field"))?;
            Ok((key.to_string(), mips))
        })
        .collect::<Result<Vec<_>, String>>()?;
    if cells.is_empty() {
        return Err("it contains no cells".to_string());
    }
    Ok(Record { cells, warming_mips: rate(&v, "warming_mips"), ref_mips: rate(&v, "ref_mips") })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_record_parses() {
        let r = parse_record(include_str!("../../../../BENCH_simperf.json")).expect("parses");
        assert_eq!(r.cells.len(), 36);
        assert_eq!(r.ref_mips, Some(218.942));
        assert_eq!(r.warming_mips, Some(57.463));
        assert!(r.cells.iter().all(|(k, m)| k.contains('/') && *m > 0.0));
    }

    #[test]
    fn malformed_records_are_rejected() {
        let ok = r#"{"ref_mips": 2.5, "cells": [{"key": "a/lvm/fibo/scd", "mips": 1.5}]}"#;
        let r = parse_record(ok).expect("well-formed record");
        assert_eq!(r.cells, [("a/lvm/fibo/scd".to_string(), 1.5)]);
        assert_eq!((r.ref_mips, r.warming_mips), (Some(2.5), None));
        let no_mips = r#"{"cells": [{"key": "a/lvm/fibo/scd", "base_mips": 1.5}]}"#;
        let no_cells = r#"{"ref_mips": 2.5, "cells": []}"#;
        for (bad, what) in
            [(no_mips, "mips"), (no_cells, "no cells"), (&ok[..ok.len() - 3], "expected ','")]
        {
            let err = parse_record(bad).expect_err(bad);
            assert!(err.contains(what), "{bad}: {err}");
        }
    }
}
