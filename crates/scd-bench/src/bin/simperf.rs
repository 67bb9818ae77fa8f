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
//! cargo run --release -p scd-bench --bin simperf -- --interleaved   # reference loop
//! ```
//!
//! The matrix is the golden-stats trio (fibo / random / spectral-norm)
//! x both VMs x all three dispatch schemes x {embedded-a5, fpga-rocket}
//! — 36 cells. Each cell loads a fresh session, disables the invariant
//! checker and runs *untraced* under a fixed retired-instruction budget,
//! so host wall time is the only free variable. Untraced runs take the
//! execute-ahead replay loop by default; `--interleaved` pins the
//! interleaved reference loop instead (the pre-replay measurement mode,
//! kept for apples-to-apples comparisons). Output goes to
//! `BENCH_simperf.json` (hand-rolled JSON, schema in EXPERIMENTS.md).
//!
//! After the detailed matrix, the warming engines are measured on the
//! same trio (embedded-a5, LVM, SCD). Four cells per benchmark:
//! "drain" (the replay warming consumer alone, all structures on — its
//! marginal cost on a pipelining host), "drain-gated" (the consumer on
//! a split-window leg, cache on only for the last fifth), "replay"
//! (the engine end-to-end: producer + consumer, which a 1-CPU host
//! serializes) and "detailed" (the `WARMING=true` interleaved loop the
//! engine replaced). The v3 record carries the drain geomean as
//! `warming_mips` — `--check` holds it to the same regression floor as
//! the detailed cells, so a slow warming engine cannot quietly eat the
//! sampled sweep's duty-cycle budget.
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
        format!(
            "{}/{}/{}/{}",
            self.preset,
            self.vm.name(),
            self.bench,
            self.scheme.name()
        )
    }

    fn mips(&self) -> f64 {
        self.insts as f64 / self.wall_s.max(1e-12) / 1e6
    }

    fn ref_mips(&self) -> f64 {
        self.ref_insts as f64 / self.ref_wall_s.max(1e-12) / 1e6
    }
}

/// One warming-engine measurement: the same benchmark warmed by one of
/// the replay-consumer configurations, the end-to-end replay engine, or
/// the detailed-loop warmer.
struct WarmCell {
    bench: &'static str,
    engine: &'static str,
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
    let arg_of = |f: &str| {
        argv.iter()
            .position(|a| a == f)
            .and_then(|i| argv.get(i + 1))
            .cloned()
    };
    let quick = has("--quick");
    let interleaved = has("--interleaved");
    let budget = if quick { QUICK_BUDGET } else { FULL_BUDGET };
    let reference = arg_of("--ref").map(|p| load_record(&p));
    let check = arg_of("--check").map(|p| load_record(&p));

    let configs = [SimConfig::embedded_a5(), SimConfig::fpga_rocket()];
    let mut cells = Vec::new();
    // Which engine the untraced fast path actually resolves to on this
    // host (ReplayMode::Auto consults host parallelism), recorded so a
    // throughput record names the loop that produced it.
    let mut replay_mode = "unknown";
    // A broken cell must not torpedo the cells already measured: record
    // the failure, finish the matrix so the full picture is reported,
    // then exit non-zero.
    let mut failures: Vec<String> = Vec::new();
    eprintln!(
        "simperf: {} cells, {budget} insts each{}",
        configs.len() * 2 * 3 * BENCHES.len(),
        if interleaved {
            " (interleaved reference loop)"
        } else {
            ""
        }
    );
    for cfg in &configs {
        for vm in Vm::ALL {
            for name in BENCHES {
                let b = BENCHMARKS
                    .iter()
                    .find(|b| b.name == name)
                    .expect("pinned benchmark");
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
                    session.machine.set_replay(!interleaved);
                    replay_mode = session.machine.replay_engine();
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

    // Warming-engine throughput: the replay-driven warmer vs the
    // detailed-loop warmer it replaced, on the embedded-a5 / LVM / SCD
    // corner of the trio. Both warm the same structures to the same
    // bits (tests/warm_replay.rs holds them identical); the ratio is
    // the duty-cycle headroom sampled sweeps get back.
    let mut warm_cells: Vec<WarmCell> = Vec::new();
    eprintln!("simperf: warming engines, {budget} insts each");
    for name in BENCHES {
        let b = BENCHMARKS
            .iter()
            .find(|b| b.name == name)
            .expect("pinned benchmark");
        for engine in ["drain", "drain-gated", "replay", "detailed"] {
            let key = format!("embedded-a5/lvm/{name}/scd warming/{engine}");
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
            // "drain" times the warming consumer alone via the
            // measurement hook — the leg's marginal cost on a
            // pipelining host, where producer fill overlaps the
            // fast-forward work the schedule owes anyway.
            // "drain-gated" is the same consumer on a split-window
            // leg (cache on only for the last fifth, BTB/predictors
            // the whole leg): the shape a predictor-conservative plan
            // takes, and what per-structure windows make cheap.
            // "replay" is the engine end-to-end (producer + drain,
            // serialized on a 1-CPU host); "detailed" is the
            // WARMING=true interleaved loop both replaced.
            let (insts, wall_s) = match engine {
                "drain" | "drain-gated" => {
                    let windows = if engine == "drain-gated" {
                        (budget / 5, u64::MAX, u64::MAX)
                    } else {
                        (u64::MAX, u64::MAX, u64::MAX)
                    };
                    match session.machine.warm_bench(0, budget, windows) {
                        Ok((n, drain_s)) => (n, drain_s),
                        Err(e) => {
                            eprintln!("  {key}: FAILED: {e}");
                            failures.push(format!("{key}: {e}"));
                            continue;
                        }
                    }
                }
                _ => {
                    let r = match engine {
                        "replay" => session.machine.run_warming_replay(budget),
                        _ => session.machine.run_warming(budget),
                    };
                    match r {
                        Ok(_) | Err(SimError::InstLimit { .. }) => {}
                        Err(e) => {
                            eprintln!("  {key}: FAILED: {e}");
                            failures.push(format!("{key}: {e}"));
                            continue;
                        }
                    }
                    (
                        session.machine.stats.instructions,
                        started.elapsed().as_secs_f64(),
                    )
                }
            };
            let cell = WarmCell {
                bench: name,
                engine,
                insts,
                wall_s,
            };
            eprintln!("  {key:<44} {:>8.2} Minst/s", cell.mips());
            warm_cells.push(cell);
        }
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
    let warming_mips = warm_geomean(&warm_cells, "drain");
    let warming_detailed = warm_geomean(&warm_cells, "detailed");
    eprintln!(
        "simperf: warming geomean {warming_mips:.2} Minst/s drain vs \
         {warming_detailed:.2} detailed ({:.2}x)",
        warming_mips / warming_detailed.max(1e-12)
    );

    if let Some(baseline) = check {
        exit(run_check(&cells, warming_mips, ref_mips, &baseline));
    }

    let json = render_json(
        &cells,
        &warm_cells,
        quick,
        budget,
        replay_mode,
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

/// Geomean throughput of one warming engine's cells.
fn warm_geomean(cells: &[WarmCell], engine: &str) -> f64 {
    let mips: Vec<f64> = cells
        .iter()
        .filter(|c| c.engine == engine)
        .map(WarmCell::mips)
        .collect();
    geomean(&mips).unwrap_or_else(|| {
        eprintln!("simperf: no {engine} warming measurements — cannot compute geomean");
        exit(1);
    })
}

/// Compares this run against a committed record; only regressions fail.
/// The drain-rate warming geomean and the RefCore fast-forward geomean
/// are held to the same floor as the detailed cells (a baseline older
/// than v3 / v4 lacks the field, and that leg is skipped).
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
        ("warming engine", warming_mips, baseline.warming_mips),
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
    replay_mode: &str,
    reference: Option<&[(String, f64)]>,
) -> String {
    // v2 added "host_cpus" and "replay_mode": throughput numbers are
    // meaningless without knowing how parallel the host was and which
    // run loop (replay vs interleaved) produced them. v3 adds the
    // warming-engine leg: "warming_mips" (the drain-rate geomean — the
    // consumer's marginal cost, and the --check floor), its
    // detailed-loop counterpart and the per-cell "warming" array
    // (which also carries the gated-drain and end-to-end rates). v4 adds
    // the RefCore fast-forward rate: per-cell "refcore_mips", their
    // geomean "ref_mips" (a --check floor), and renames the per-cell
    // --ref field to "base_mips" so "ref" means RefCore throughout.
    let host_cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema\": \"scd-simperf-v4\",");
    let _ = writeln!(s, "  \"quick\": {quick},");
    let _ = writeln!(s, "  \"budget_insts\": {budget},");
    let _ = writeln!(s, "  \"host_cpus\": {host_cpus},");
    let _ = writeln!(s, "  \"replay_mode\": \"{replay_mode}\",");
    let mips: Vec<f64> = cells.iter().map(Cell::mips).collect();
    // A record with a zero geomean would make a later `--check` or
    // `--ref` comparison pass or fail spuriously: refuse to write one.
    let g = geomean(&mips).unwrap_or_else(|| {
        eprintln!("simperf: empty cell set — refusing to write a record with no geomean");
        exit(1);
    });
    let _ = writeln!(s, "  \"geomean_mips\": {g:.3},");
    let _ = writeln!(s, "  \"ref_mips\": {:.3},", ref_geomean(cells));
    let warming = warm_geomean(warm_cells, "drain");
    let warming_detailed = warm_geomean(warm_cells, "detailed");
    let _ = writeln!(s, "  \"warming_mips\": {warming:.3},");
    let _ = writeln!(s, "  \"warming_detailed_mips\": {warming_detailed:.3},");
    let _ = writeln!(
        s,
        "  \"warming_speedup\": {:.3},",
        warming / warming_detailed.max(1e-12)
    );
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
            "    {{\"bench\": \"{}\", \"engine\": \"{}\", \"insts\": {}, \
             \"wall_ms\": {:.3}, \"warm_mips\": {:.3}}}",
            c.bench,
            c.engine,
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
struct Record {
    /// `(key, mips)` per detailed cell.
    cells: Vec<(String, f64)>,
    /// Drain-rate warming geomean (v3 and later).
    warming_mips: Option<f64>,
    /// RefCore fast-forward geomean (v4 and later).
    ref_mips: Option<f64>,
}

/// Minimal reader for this tool's own output format: pulls
/// `(key, mips)` pairs out of the `"cells"` array, one cell per line,
/// plus the top-level `warming_mips` and `ref_mips` geomeans (absent
/// from pre-v3 / pre-v4 records, in which case that floor is skipped).
/// Only a line *starting* with a top-level field counts: v3 cells
/// written with `--ref` carry a per-cell `ref_mips` of another meaning.
/// Not a JSON parser — it only needs to round-trip what
/// [`render_json`] writes (the workspace is serde-free by design).
///
/// Strict where it matters: a line that names a cell (`"key"` present)
/// must carry a well-formed, finite, positive `mips` number. Silently
/// skipping such a line would shrink the baseline and let a regressed
/// cell dodge the `--check` gate.
fn load_record(path: &str) -> Record {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("simperf: cannot read reference record {path}: {e}");
        exit(70);
    });
    let top_level = |name: &str| {
        let pat = format!("\"{name}\": ");
        text.lines()
            .map(str::trim_start)
            .filter(|l| l.starts_with(&pat))
            .find_map(|l| field_num(l, name))
            .filter(|m| m.is_finite() && *m > 0.0)
    };
    let mut out = Vec::new();
    for line in text.lines() {
        let Some(key) = field_str(line, "key") else {
            continue;
        };
        // `mips` must be the cell's own measurement, not `base_mips`,
        // `refcore_mips` or a v3 `ref_mips`.
        let mips = match field_num(line, "mips") {
            Some(m) if m.is_finite() && m > 0.0 => m,
            _ => {
                eprintln!(
                    "simperf: reference record {path} is malformed: cell \"{key}\" \
                     has a missing or invalid \"mips\" field:\n  {line}"
                );
                exit(1);
            }
        };
        out.push((key, mips));
    }
    if out.is_empty() {
        eprintln!("simperf: reference record {path} contains no cells");
        exit(1);
    }
    Record {
        cells: out,
        warming_mips: top_level("warming_mips"),
        ref_mips: top_level("ref_mips"),
    }
}

fn field_str(line: &str, name: &str) -> Option<String> {
    let pat = format!("\"{name}\": \"");
    let start = line.find(&pat)? + pat.len();
    let end = line[start..].find('"')?;
    Some(line[start..start + end].to_string())
}

/// Scans the number following `"name": `. Accepts only the shapes
/// [`render_json`] emits — an optional minus, digits, an optional
/// fractional part — and rejects empty or trailing-garbage matches
/// (`parse` refuses forms like `1.2.3` or `-`), returning `None` so the
/// caller can treat the record as malformed rather than reading 0.0.
fn field_num(line: &str, name: &str) -> Option<f64> {
    let pat = format!("\"{name}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    if end == 0 {
        return None;
    }
    rest[..end].parse().ok().filter(|v: &f64| v.is_finite())
}
