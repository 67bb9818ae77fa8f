//! The one-stop evaluation driver: regenerates every figure and table
//! from a single deduplicated run matrix, executed in parallel.
//!
//! ```text
//! cargo run --release -p scd-bench --bin sweep                    # everything
//! cargo run --release -p scd-bench --bin sweep -- --list          # report index
//! cargo run --release -p scd-bench --bin sweep -- --only fig7,table4
//! cargo run --release -p scd-bench --bin sweep -- --threads 4
//! cargo run --release -p scd-bench --bin sweep -- --quick         # tiny inputs
//! cargo run --release -p scd-bench --bin sweep -- --smoke         # CI drift gate
//! cargo run --release -p scd-bench --bin sweep -- --smoke --bless # re-pin goldens
//! cargo run --release -p scd-bench --bin sweep -- --cache DIR     # persistent results
//! cargo run --release -p scd-bench --bin sweep -- --sample 1M:100k:50k  # interval sampling
//! cargo run --release -p scd-bench --bin sweep -- --sample default # qualified default plan
//! cargo run --release -p scd-bench --bin sweep -- --sample-gate   # sampled-vs-full gate
//! ```
//!
//! With `--cache DIR`, every cell first consults the content-addressed
//! on-disk cache shared with `scd serve` (see `scd-serve`), and a
//! SIGINT drains in-flight cells — committing their entries — before
//! exiting 130, so a rerun resumes as cache hits. `--expect-warm`
//! additionally fails the run (exit 1) when fewer than 95% of cells
//! hit: the CI cache-roundtrip gate. `--cache-stats` prints the cache's
//! end-of-run counter summary (hits/misses/stores/quarantined/
//! recovered) to stderr.
//!
//! With `--sample PERIOD:WARMUP:MEASURE`, every cell
//! runs under interval sampling (see EXPERIMENTS.md): cycle counts become statistical estimates, so the
//! rendered tables are fast previews written to `results/sampled/`
//! (never the committed `results/` files), and the host-performance
//! record goes to `BENCH_sweep_sampled.json` — including the speedup
//! against the committed full-detail `BENCH_sweep.json` wall time.
//! The literal plan `default` resolves to the qualified default plan
//! (the one `--sample-gate` holds to ≤1% headline drift). Traced
//! reports (fig7, fig10) are skipped: their cells must run full detail
//! anyway, which would cap the sweep speedup well below its target.
//! Sampled cells cache under distinct keys; `--sample` is rejected
//! alongside `--smoke` (the golden gate pins full-detail bytes).
//!
//! `--sample-gate` is the CI accuracy gate for the sampling machinery:
//! it runs the Table IV/V headline matrix twice — full detail and
//! sampled — and fails (exit 1) when any headline geomean ratio drifts
//! by more than 1% relative, reporting the measured simulation speedup
//! alongside.
//!
//! Without `--smoke`, every selected report is rendered to stdout and
//! `results/<name>.txt`, and host-performance accounting is written to
//! `BENCH_sweep.json` (see EXPERIMENTS.md for the schema).
//!
//! With `--smoke`, a small fixed report subset runs on tiny inputs and
//! each rendered report is byte-compared against the pinned golden in
//! `tests/golden/sweep_smoke/`; any drift exits non-zero. This is the
//! CI gate that catches unintended changes to simulator timing or
//! table formatting. `--bless` re-pins the goldens after an intended
//! change. The smoke gate also co-simulates one benchmark against the
//! `scd-ref` architectural oracle (both VMs x both schemes) so a
//! timing-model change that silently corrupts architectural state
//! cannot slip through on a day the formatted numbers happen to match.

use scd_bench::figures::{self, Render, Report, REPORTS};
use scd_bench::{
    emit_report, emit_report_to, threads_from_cli, write_artifact, ArgScale, EdpHeadline,
    RunMatrix, SweepError, SweepResults, Table4Headline, Variant,
};
use scd_guest::{lockstep_check, RunRequest, Scheme, Vm};
use scd_serve::{install_sigint_flag, Cache, EXIT_SIGINT};
use scd_sim::json::{self, Value};
use scd_sim::{SamplingPlan, SimConfig};
use std::fmt::Write as _;
use std::process::exit;
use std::sync::atomic::Ordering;

/// Reports the `--smoke` gate runs: cheap, structurally diverse (a
/// hand-rolled table, an arithmetic-mean table, the full
/// two-VM/four-variant matrix through `format_table`, and the BTB
/// organization study with its JTE caps, two-level banks and aliasing
/// section), and overlapping enough to exercise cell deduplication.
const SMOKE_REPORTS: [&str; 4] = ["fig2", "fig3", "fig9", "btb_levels"];
const SMOKE_GOLDEN_DIR: &str = "tests/golden/sweep_smoke";

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let has = |f: &str| argv.iter().any(|a| a == f);
    if has("--list") {
        for r in REPORTS {
            println!("{:<10} {:?}  {}", r.name, r.default_scale, r.title);
        }
        return;
    }
    let smoke = has("--smoke");
    let quick = has("--quick") || smoke;
    let bless = has("--bless");
    let threads = threads_from_cli();
    let sample = parse_sample(&argv, quick);

    if has("--sample-gate") {
        sample_gate(threads, quick, sample);
        return;
    }
    if sample.is_some() && smoke {
        eprintln!("--sample is incompatible with --smoke (goldens pin full-detail bytes)");
        exit(2);
    }

    let only = parse_only(&argv);
    let mut selected: Vec<&Report> = match &only {
        Some(names) => names
            .iter()
            .map(|n| {
                figures::report(n).unwrap_or_else(|| {
                    eprintln!("unknown report `{n}`; see --list");
                    exit(2);
                })
            })
            .collect(),
        None if smoke => SMOKE_REPORTS
            .iter()
            .map(|n| figures::report(n).expect("smoke report"))
            .collect(),
        None => REPORTS.iter().collect(),
    };
    if sample.is_some() {
        // Traced cells always run full detail (the trace consumers need
        // every retirement), so keeping fig7/fig10 in a sampled sweep
        // would spend ~20% of the full-detail wall for previews that
        // sampling cannot accelerate. Skip them instead.
        let skipped: Vec<&str> = selected
            .iter()
            .filter(|r| r.traced)
            .map(|r| r.name)
            .collect();
        if !skipped.is_empty() {
            eprintln!(
                "sweep: skipping traced report(s) {} — their cells need full-detail \
                 trace collection; rerun without --sample to regenerate them",
                skipped.join(", ")
            );
            selected.retain(|r| !r.traced);
        }
        if selected.is_empty() {
            eprintln!("sweep: nothing to run — every selected report is traced");
            exit(2);
        }
    }

    let mut m = RunMatrix::new();
    m.set_sample(sample);
    if let Some(p) = &sample {
        eprintln!(
            "sweep: interval sampling (plan {p}) — cycle counts are estimates; \
             rendered tables are previews, not committed artifacts"
        );
    }
    let plans: Vec<(&Report, Box<dyn Render>)> = selected
        .iter()
        .map(|rep| {
            let scale = if quick {
                ArgScale::Tiny
            } else {
                rep.default_scale
            };
            (*rep, (rep.plan)(&mut m, scale))
        })
        .collect();

    eprintln!(
        "sweep: {} report(s), {} unique cells ({} requested, {:.2}x dedup), {threads} thread(s)",
        plans.len(),
        m.len(),
        m.requested(),
        m.requested() as f64 / m.len().max(1) as f64
    );

    let expect_warm = has("--expect-warm");
    let cache_dir = parse_cache(&argv);
    if expect_warm && cache_dir.is_none() {
        eprintln!("--expect-warm requires --cache DIR");
        exit(2);
    }
    let cache = cache_dir.map(|dir| {
        Cache::open(&dir).unwrap_or_else(|e| {
            eprintln!("sweep: cannot open cache {dir}: {e}");
            exit(70);
        })
    });

    let results = match &cache {
        None => m.run(threads, true),
        Some(c) => {
            // SIGINT becomes a drain: in-flight cells finish and commit
            // their cache entries, then the sweep exits 130 and a rerun
            // resumes as hits. Only armed when a cache makes the drain
            // worth something; without one, Ctrl-C keeps its default
            // kill semantics.
            let interrupt = install_sigint_flag();
            match m.run_cached(threads, true, Some(c), Some(interrupt)) {
                Ok(r) => {
                    c.flush();
                    report_cache(c, expect_warm, has("--cache-stats"));
                    r
                }
                Err(SweepError::Interrupted) => {
                    c.flush();
                    eprintln!(
                        "sweep: interrupted; {} cell(s) served from cache, {} newly \
                         cached — rerun with the same --cache to resume",
                        c.stats.hits.load(Ordering::SeqCst),
                        c.stats.stores.load(Ordering::SeqCst),
                    );
                    exit(EXIT_SIGINT);
                }
                Err(e) => {
                    eprintln!("sweep: {e}");
                    exit(70);
                }
            }
        }
    };

    let mut drifted = 0u32;
    for (rep, plan) in &plans {
        let body = plan.render(&results);
        if smoke {
            drifted += u32::from(!check_smoke(rep.name, &body, bless));
        } else if sample.is_some() {
            emit_report_to("results/sampled", rep.name, &body);
        } else {
            emit_report(rep.name, &body);
        }
    }

    if !smoke {
        let report_names: Vec<&str> = plans.iter().map(|(r, _)| r.name).collect();
        let json = bench_json(&results, threads, &report_names, quick, sample.as_ref());
        // Sampled runs keep their own perf record so the committed
        // full-detail BENCH_sweep.json (the reference wall time the
        // sampled speedup is quoted against) is never overwritten by a
        // preview pass.
        let artifact = if sample.is_some() {
            "BENCH_sweep_sampled.json"
        } else {
            "BENCH_sweep.json"
        };
        write_artifact(artifact, &json);
        let wall = results.wall.as_secs_f64();
        let total_insts: u64 = results
            .iter()
            .map(|(_, _, out)| out.run.stats.instructions)
            .sum();
        let unique_s = results.serial_unique().as_secs_f64();
        eprintln!(
            "sweep: {} cells in {wall:.1}s wall ({:.1}s summed cell time, {:.1}s dedup-unaware \
             sequential estimate) -> {artifact}",
            results.len(),
            unique_s,
            results.serial_requested().as_secs_f64(),
        );
        eprintln!(
            "sweep: simulated {:.1}M guest instructions at {:.2} Minst/s aggregate",
            total_insts as f64 / 1e6,
            total_insts as f64 / 1e6 / unique_s.max(1e-9),
        );
    }
    if smoke && !lockstep_smoke() {
        exit(1);
    }
    if drifted > 0 {
        eprintln!("sweep --smoke: {drifted} report(s) drifted from pinned goldens");
        exit(1);
    }
}

/// The `--smoke` oracle gate: one benchmark on tiny inputs, both VMs x
/// both dispatch schemes, lockstep-checked against the reference ISS.
/// Returns false (and reports) on any divergence.
fn lockstep_smoke() -> bool {
    let bench = luma::scripts::BENCHMARKS
        .iter()
        .find(|b| b.name == "binary-trees")
        .expect("seed benchmark went missing");
    let args = [("N", ArgScale::Tiny.arg(bench))];
    let mut ok = true;
    let mut checked = 0u64;
    for vm in [Vm::Lvm, Vm::Svm] {
        for scheme in [Scheme::Baseline, Scheme::Scd] {
            let req = RunRequest::new(SimConfig::embedded_a5(), vm, bench.source)
                .predefined(&args)
                .scheme(scheme)
                .max_insts(100_000_000);
            match lockstep_check(&req) {
                Ok(r) => checked += r.checked,
                Err(e) => {
                    eprintln!(
                        "sweep --smoke: lockstep {}/{}/{}: {e}",
                        bench.name,
                        vm.name(),
                        scheme.name()
                    );
                    ok = false;
                }
            }
        }
    }
    if ok {
        eprintln!("sweep --smoke: lockstep oracle clean ({checked} instructions checked)");
    }
    ok
}

/// Parses `--cache DIR` / `--cache=DIR`. Exits 2 when the flag is
/// present but the directory is missing.
fn parse_cache(argv: &[String]) -> Option<String> {
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        if a == "--cache" {
            return match it.next() {
                Some(dir) => Some(dir.clone()),
                None => {
                    eprintln!("--cache requires a directory argument");
                    exit(2);
                }
            };
        }
        if let Some(dir) = a.strip_prefix("--cache=") {
            return Some(dir.to_string());
        }
    }
    None
}

/// Reports cache effectiveness (`--cache-stats`, the shared
/// [`scd_serve::CacheStats::summary`] formatter) and enforces
/// `--expect-warm` (≥95% of cells served from the cache, the CI
/// roundtrip gate — enforced whether or not the summary prints).
fn report_cache(c: &Cache, expect_warm: bool, cache_stats: bool) {
    if cache_stats {
        let mut line = format!("sweep: cache {}", c.stats.summary());
        if let Some(rate) = c.stats.hit_rate() {
            let _ = write!(line, " ({:.1}% hit rate)", 100.0 * rate);
        }
        eprintln!("{line}");
    }
    if expect_warm && !c.stats.hit_rate().is_some_and(|r| r >= 0.95) {
        eprintln!("sweep: --expect-warm: hit rate below 95% — cache keys drifted or cold");
        exit(1);
    }
}

/// Parses `--sample PLAN` / `--sample=PLAN`. The literal plan `default`
/// resolves to the qualified default plan for the current input scale
/// (the same plan `--sample-gate` qualifies). Exits 2 on a malformed
/// plan.
fn parse_sample(argv: &[String], quick: bool) -> Option<SamplingPlan> {
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let plan = if a == "--sample" {
            match it.next() {
                Some(p) => p.clone(),
                None => {
                    eprintln!("--sample requires a PERIOD:WARMUP:MEASURE argument (or `default`)");
                    exit(2);
                }
            }
        } else if let Some(p) = a.strip_prefix("--sample=") {
            p.to_string()
        } else {
            continue;
        };
        if plan == "default" {
            return Some(default_gate_plan(quick));
        }
        return match SamplingPlan::parse(&plan) {
            Ok(p) => Some(p),
            Err(e) => {
                eprintln!("--sample {plan}: {e}");
                exit(2);
            }
        };
    }
    None
}

/// The qualified default plans (`--sample default`, and what
/// `--sample-gate` runs when no explicit plan is given): scaled to the
/// guest lengths of each input scale so the measured fraction stays
/// small enough to demonstrate a real speedup while keeping enough
/// intervals for tight estimates. The warm window is grounded in the
/// warming sensitivity study — see [`SamplingPlan::qualified_default`].
fn default_gate_plan(quick: bool) -> SamplingPlan {
    SamplingPlan::qualified_default(quick)
}

/// The `--sample-gate` accuracy gate: runs the Table IV/V headline
/// matrix (all benchmarks × baseline/jump-threading/SCD on the Rocket
/// configuration) full-detail and sampled, then compares the six
/// headline geomean ratios the tables print. Any relative drift above
/// 1% fails the gate — the bound under which every percentage in the
/// committed tables is reproduced to the displayed precision.
fn sample_gate(threads: usize, quick: bool, plan: Option<SamplingPlan>) {
    let plan = plan.unwrap_or_else(|| default_gate_plan(quick));
    let scale = if quick { ArgScale::Tiny } else { ArgScale::Sim };
    eprintln!(
        "sweep: sample gate — Table IV/V headline matrix, full detail vs plan {plan} \
         ({scale:?} inputs, {threads} thread(s))"
    );
    let full = gate_headlines(threads, scale, None);
    let sampled = gate_headlines(threads, scale, Some(plan));

    let pairs = || {
        full.table4.named().into_iter().chain(full.edp.named()).zip(
            sampled
                .table4
                .named()
                .into_iter()
                .chain(sampled.edp.named()),
        )
    };
    let mut drifted = 0u32;
    let mut worst = 0.0f64;
    for ((name, f), (_, s)) in pairs() {
        let drift = (s - f).abs() / f.abs().max(1e-12);
        worst = worst.max(drift);
        let ok = drift <= 0.01;
        drifted += u32::from(!ok);
        eprintln!(
            "  {name:<34} full {f:.6}  sampled {s:.6}  drift {:>6.3}%{}",
            100.0 * drift,
            if ok { "" } else { "  EXCEEDS 1%" }
        );
    }
    let full_s = full.serial.max(1e-9);
    let sampled_s = sampled.serial.max(1e-9);
    eprintln!(
        "sweep: sample gate: {:.1}s full vs {:.1}s sampled summed cell time \
         ({:.2}x speedup), worst headline drift {:.3}%",
        full_s,
        sampled_s,
        full_s / sampled_s,
        100.0 * worst
    );
    if drifted > 0 {
        eprintln!("sweep: sample gate: {drifted} headline ratio(s) drifted beyond 1%");
        exit(1);
    }
    eprintln!("sweep: sample gate clean");
}

/// Headline numbers of one gate pass (full detail or sampled), plus the
/// summed per-cell host time the pass cost.
struct GateHeadlines {
    table4: Table4Headline,
    edp: EdpHeadline,
    serial: f64,
}

fn gate_headlines(threads: usize, scale: ArgScale, sample: Option<SamplingPlan>) -> GateHeadlines {
    let cfg = SimConfig::fpga_rocket();
    let mut m = RunMatrix::new();
    m.set_sample(sample);
    let rows: Vec<_> = luma::scripts::BENCHMARKS
        .iter()
        .map(|b| {
            (
                m.variant(&cfg, Vm::Lvm, b, scale, Variant::Baseline, false),
                m.variant(&cfg, Vm::Lvm, b, scale, Variant::JumpThreading, false),
                m.variant(&cfg, Vm::Lvm, b, scale, Variant::Scd, false),
            )
        })
        .collect();
    let r = m.run(threads, true);
    let table4 = Table4Headline::compute(
        rows.iter()
            .map(|&(b, j, s)| (&r.get(b).stats, &r.get(j).stats, &r.get(s).stats)),
    );
    let edp = EdpHeadline::compute(
        rows.iter()
            .map(|&(b, _, s)| (&r.get(b).stats, &r.get(s).stats)),
        scd_model::table_v(&cfg).power_increase,
    );
    GateHeadlines {
        table4,
        edp,
        serial: r.serial_unique().as_secs_f64(),
    }
}

/// Parses `--only a,b` / `--only=a,b` into a name list.
fn parse_only(argv: &[String]) -> Option<Vec<String>> {
    let mut sel = None;
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let list = if a == "--only" {
            it.next().cloned()
        } else {
            a.strip_prefix("--only=").map(str::to_string)
        };
        if let Some(list) = list {
            sel = Some(
                list.split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect(),
            );
        }
    }
    sel
}

/// Compares one rendered report against its pinned smoke golden (or
/// re-pins it under `--bless`). Returns whether the report is clean.
fn check_smoke(name: &str, body: &str, bless: bool) -> bool {
    let path = std::path::Path::new(SMOKE_GOLDEN_DIR).join(format!("{name}.txt"));
    if bless {
        write_artifact(&path, body);
        eprintln!("  blessed {}", path.display());
        return true;
    }
    match std::fs::read_to_string(&path) {
        Ok(golden) if golden == body => {
            eprintln!("  {name:<10} matches {}", path.display());
            true
        }
        Ok(golden) => {
            eprintln!("  {name:<10} DRIFTED from {}", path.display());
            print_first_diff(&golden, body);
            false
        }
        Err(e) => {
            eprintln!("  {name:<10} golden unreadable ({e}); regenerate with --smoke --bless");
            false
        }
    }
}

fn print_first_diff(golden: &str, got: &str) {
    for (i, (g, n)) in golden.lines().zip(got.lines()).enumerate() {
        if g != n {
            eprintln!("    first differing line {}:", i + 1);
            eprintln!("    - {g}");
            eprintln!("    + {n}");
            return;
        }
    }
    eprintln!(
        "    outputs differ in length: golden {} vs rendered {} lines",
        golden.lines().count(),
        got.lines().count()
    );
}

/// A sweep record on disk (the committed full-detail `BENCH_sweep.json`,
/// or the sampled record a run is about to replace), if it exists and
/// parses.
fn read_record(path: &str) -> Option<Value> {
    json::parse(&std::fs::read_to_string(path).ok()?).ok()
}

/// The record's top-level `wall_ms`.
fn record_wall(record: &Value) -> Option<f64> {
    record.get("wall_ms").and_then(Value::as_f64)
}

/// Host-performance record: what the sweep cost and what sharing one
/// deduplicated matrix across figures saved. Durations are host
/// wall-clock milliseconds; `serial_requested_ms` is the dedup-unaware
/// estimate (each cell's runtime weighted by how many reports asked for
/// it) — the cost of the old one-binary-per-figure flow on one thread.
fn bench_json(
    r: &SweepResults,
    threads: usize,
    reports: &[&str],
    quick: bool,
    sample: Option<&SamplingPlan>,
) -> String {
    let wall_ms = r.wall.as_secs_f64() * 1e3;
    let unique_ms = r.serial_unique().as_secs_f64() * 1e3;
    let requested_ms = r.serial_requested().as_secs_f64() * 1e3;
    // Aggregate simulator throughput: total guest instructions retired
    // per second of summed per-cell wall time. The per-cell `mips`
    // fields below give the same ratio cell by cell, so simulator-perf
    // regressions can be localized to a preset/VM/scheme corner.
    let total_insts: u64 = r.iter().map(|(_, _, out)| out.run.stats.instructions).sum();
    let aggregate_mips = total_insts as f64 / 1e6 / (unique_ms / 1e3).max(1e-9);
    // v3 adds "host_cpus": wall times are only comparable between runs
    // on the same host.
    let host_cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let reports_line = format!(
        "\"reports\": [{}],",
        reports
            .iter()
            .map(|n| format!("\"{n}\""))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema\": \"scd-sweep-bench-v3\",");
    let _ = writeln!(s, "  \"host_cpus\": {host_cpus},");
    let _ = writeln!(s, "  \"threads\": {threads},");
    let _ = writeln!(s, "  \"quick\": {quick},");
    if let Some(p) = sample {
        // Only sampled records carry the plan: an absent key marks the
        // cycle counts below as exact, and full-detail records stay
        // byte-identical to pre-sampling ones. When the committed
        // full-detail record is on disk, quote the end-to-end speedup
        // against its wall time — the headline number the sampling
        // machinery exists to produce.
        let _ = writeln!(s, "  \"sample\": \"{p}\",");
        // Only full-scale runs are comparable to the committed record:
        // a --quick pass runs tiny inputs and would quote a nonsense
        // thousand-fold "speedup".
        let full = read_record("BENCH_sweep.json");
        if let Some(full_ms) = full.as_ref().and_then(record_wall).filter(|_| !quick) {
            let _ = writeln!(s, "  \"full_detail_wall_ms\": {full_ms:.3},");
            let _ = writeln!(
                s,
                "  \"speedup_vs_full_detail\": {:.3},",
                full_ms / wall_ms.max(1e-9)
            );
        }
        // The sampled record this run replaces, when it covers the same
        // plan and reports: running the previous build's sweep first on
        // the same host makes this a same-host before/after.
        let prev = read_record("BENCH_sweep_sampled.json").filter(|prev| {
            prev.get("sample").and_then(Value::as_str) == Some(p.to_string().as_str())
                && prev
                    .get("reports")
                    .and_then(Value::as_arr)
                    .is_some_and(|names| {
                        names
                            .iter()
                            .map(Value::as_str)
                            .eq(reports.iter().map(|r| Some(*r)))
                    })
        });
        if let Some(prev_ms) = prev.as_ref().and_then(record_wall).filter(|_| !quick) {
            let _ = writeln!(s, "  \"previous_wall_ms\": {prev_ms:.3},");
            let _ = writeln!(
                s,
                "  \"speedup_vs_previous\": {:.3},",
                prev_ms / wall_ms.max(1e-9)
            );
        }
    }
    let _ = writeln!(s, "  {reports_line}");
    let _ = writeln!(s, "  \"cells\": {},", r.len());
    let _ = writeln!(
        s,
        "  \"cells_requested\": {},",
        r.iter().map(|(_, h, _)| h).sum::<usize>()
    );
    let _ = writeln!(s, "  \"wall_ms\": {wall_ms:.3},");
    let _ = writeln!(s, "  \"serial_unique_ms\": {unique_ms:.3},");
    let _ = writeln!(s, "  \"serial_requested_ms\": {requested_ms:.3},");
    let _ = writeln!(
        s,
        "  \"parallel_speedup\": {:.3},",
        unique_ms / wall_ms.max(1e-9)
    );
    let _ = writeln!(
        s,
        "  \"dedup_speedup\": {:.3},",
        requested_ms / unique_ms.max(1e-9)
    );
    let _ = writeln!(
        s,
        "  \"speedup_vs_sequential_bins\": {:.3},",
        requested_ms / wall_ms.max(1e-9)
    );
    let _ = writeln!(s, "  \"total_instructions\": {total_insts},");
    let _ = writeln!(s, "  \"aggregate_mips\": {aggregate_mips:.2},");
    s.push_str("  \"per_cell\": [\n");
    let n = r.len();
    for (i, (spec, hits, out)) in r.iter().enumerate() {
        let stats = &out.run.stats;
        let _ = write!(
            s,
            "    {{\"bench\": \"{}\", \"vm\": \"{}\", \"scheme\": \"{}\", \"arg\": {}, \
             \"traced\": {}, \"hits\": {hits}, \"wall_ms\": {:.3}, \"cycles\": {}, \
             \"instructions\": {}, \"ipc\": {:.4}, \"mips\": {:.2}}}",
            spec.bench.name,
            spec.vm.name(),
            spec.scheme.name(),
            spec.arg,
            spec.traced,
            out.wall.as_secs_f64() * 1e3,
            stats.cycles,
            stats.instructions,
            stats.ipc(),
            stats.instructions as f64 / 1e6 / out.wall.as_secs_f64().max(1e-9),
        );
        s.push_str(if i + 1 == n { "\n" } else { ",\n" });
    }
    s.push_str("  ]\n}\n");
    s
}
