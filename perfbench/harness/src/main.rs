//! perfbench — end-to-end and per-layer host-time benchmark of the SCD
//! reproduction. See `perfbench/README.md`.
//!
//! ```text
//! perfbench run   --workload detailed|sampled|serve --seed N --seconds S --trace 0|1
//! perfbench regen --workload W        # rewrite perfbench/reference/W.txt
//! perfbench setup --workload W --seed N   # one set-up round (a child of run)
//! ```
//!
//! `run` prints one `perfbench-record {...}` line with host and engine
//! facts, then, as its last line, the result object
//! `{"correct", "attempted", "failed", "metrics"}`. It exits non-zero
//! when any cell or job fails or differs from the reference.

mod gen;
mod host;
mod probe;
mod reference;
mod run;
mod spans;
mod stats;

use gen::{Btb, Cell};
use reference::{Expect, Table};
use run::{Pass, Sample};
use scd_sim::{SampleReport, SamplingPlan};
use spans::Spans;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

struct Opts {
    cmd: String,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    refdir: PathBuf,
    workdir: PathBuf,
}

fn parse_opts() -> Result<Opts, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cmd = argv
        .first()
        .cloned()
        .ok_or("usage: perfbench run|regen ...")?;
    let arg = |f: &str| {
        argv.iter()
            .position(|a| a == f)
            .and_then(|i| argv.get(i + 1))
            .cloned()
    };
    let get = |f: &str, default: &str| arg(f).unwrap_or_else(|| default.to_string());
    let workload = arg("--workload").ok_or("--workload is required")?;
    if gen::pass_fn(&workload).is_none() {
        return Err(format!(
            "unknown workload {workload:?} (detailed, sampled, serve)"
        ));
    }
    let seconds: f64 = get("--seconds", "10")
        .parse()
        .map_err(|_| "bad --seconds")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Opts {
        cmd,
        workload,
        seed: get("--seed", "1").parse().map_err(|_| "bad --seed")?,
        seconds,
        trace: get("--trace", "0") == "1",
        refdir: PathBuf::from(get("--refdir", "perfbench/reference")),
        workdir: PathBuf::from(get("--workdir", ".bench_build/perfbench")),
    })
}

fn main() -> ExitCode {
    let opts = match parse_opts() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let res = match opts.cmd.as_str() {
        "run" => run_workload(&opts),
        "setup" => setup_round(&opts),
        "regen" => regen(&opts),
        other => Err(format!("unknown command {other:?}")),
    };
    match res {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Sets up and runs one pass of `workload` over `cells`.
fn one_pass(
    workload: &str,
    cells: Vec<Cell>,
    o: &Opts,
    refs: &Table,
    tag: &str,
    sp: &mut Spans,
) -> Pass {
    run::run(
        run::prepare(workload, || cells, &o.workdir, tag, sp),
        refs,
        sp,
    )
}

/// Set-up rounds: before every timed pass, a child process times
/// set-ups until their thread CPU time adds up to [`SETUP_ROUND_S`], at
/// least [`SETUP_ROUND_REPS`] of them. `setup_s` is the median over every
/// round of the run. One set-up takes 5–15 ms, and the host's speed
/// drifts by up to 2× over seconds to minutes, so set-ups are sampled
/// across the whole run, as the timed passes are.
const SETUP_ROUND_S: f64 = 0.2;
const SETUP_ROUND_REPS: u64 = 4;

/// `perfbench setup`: one set-up round. Times set-ups of passes 0, 1,
/// 2, ... of the seed and prints their thread CPU times (`setup_s`),
/// their wall times (`setup_wall_s`) and the peak resident set.
///
/// It runs in a child process of `run`, and every set-up stays alive
/// until the last one is timed. Freeing sessions lets glibc raise its
/// mmap threshold, after which the program's zeroed segment buffers
/// come from recycled heap memory and must be cleared: set-ups then
/// take up to twice as long, from a point that differs from run to run.
/// A fresh process that frees nothing measures set-up as a run's first
/// pass sees it, and its exit hands the memory back.
fn setup_round(o: &Opts) -> Result<bool, String> {
    std::fs::create_dir_all(&o.workdir)
        .map_err(|e| format!("creating {}: {e}", o.workdir.display()))?;
    let pass_fn = gen::pass_fn(&o.workload).expect("checked");
    let mut off = Spans::new(false);
    let mut held: Vec<run::Prepared> = Vec::new();
    let mut cpu = 0.0;
    while (held.len() as u64) < SETUP_ROUND_REPS || cpu < SETUP_ROUND_S {
        let p = held.len() as u64;
        let rep = run::prepare(
            &o.workload,
            || pass_fn(o.seed, p),
            &o.workdir,
            &format!("s{p}"),
            &mut off,
        );
        if let Some(e) = rep.error() {
            return Err(format!("set-up of pass {p}: {e}"));
        }
        cpu += rep.setup_s;
        held.push(rep);
    }
    let list = |f: fn(&run::Prepared) -> f64| {
        held.iter()
            .map(|h| f(h).to_string())
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("setup_s {}", list(|h| h.setup_s));
    println!("setup_wall_s {}", list(|h| h.setup_wall_s));
    println!("peak_rss_mb {}", host::peak_rss_mb());
    Ok(true)
}

/// Set-up times gathered from the rounds of one run.
#[derive(Default)]
struct Setups {
    cpu_s: Vec<f64>,
    wall_s: Vec<f64>,
    peak_rss_mb: f64,
}

impl Setups {
    /// Runs one set-up round in a child process and waits for it.
    fn round(&mut self, o: &Opts) -> Result<(), String> {
        let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
        let out = std::process::Command::new(exe)
            .arg("setup")
            .args(["--workload", &o.workload, "--seed", &o.seed.to_string()])
            .arg("--workdir")
            .arg(&o.workdir)
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("set-up round: {e}"))?;
        if !out.status.success() {
            return Err(format!("set-up round failed ({})", out.status));
        }
        let text = String::from_utf8_lossy(&out.stdout);
        let values = |key: &str| -> Vec<f64> {
            text.lines()
                .find_map(|l| l.strip_prefix(key))
                .map(|v| {
                    v.split_whitespace()
                        .filter_map(|x| x.parse().ok())
                        .collect()
                })
                .unwrap_or_default()
        };
        let cpu = values("setup_s ");
        if cpu.is_empty() {
            return Err("set-up round printed no times".into());
        }
        self.cpu_s.extend(cpu);
        self.wall_s.extend(values("setup_wall_s "));
        self.peak_rss_mb = values("peak_rss_mb ")
            .into_iter()
            .fold(self.peak_rss_mb, f64::max);
        Ok(())
    }
}

/// A metric value with its unit, in output order.
type Metrics = Vec<(&'static str, f64, &'static str)>;

fn run_workload(o: &Opts) -> Result<bool, String> {
    let refs = reference::load(&o.refdir, &o.workload)?;
    std::fs::create_dir_all(&o.workdir)
        .map_err(|e| format!("creating {}: {e}", o.workdir.display()))?;
    let pass_fn = gen::pass_fn(&o.workload).expect("checked");
    let budget = Duration::from_secs_f64(o.seconds);
    let start = Instant::now();

    let mut passes: Vec<Pass> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    let mut attempted = 0usize;
    let metrics: Metrics;
    let mut facts = String::new();

    if !o.trace {
        let mut off = Spans::new(false);
        let prepare = |p: u64, sp: &mut Spans| {
            run::prepare(
                &o.workload,
                || pass_fn(o.seed, p),
                &o.workdir,
                &p.to_string(),
                sp,
            )
        };
        let mut setups = Setups::default();
        let mut in_setup = Duration::ZERO;
        let mut p = 0;
        let mut first_pass_rss = 0.0;
        while p == 0 || start.elapsed() - in_setup < budget {
            let t = Instant::now();
            if let Err(e) = setups.round(o) {
                attempted += 1;
                failures.push(e);
            }
            in_setup += t.elapsed();
            passes.push(run::run(prepare(p, &mut off), &refs, &mut off));
            if p == 0 {
                first_pass_rss = host::peak_rss_mb();
            }
            p += 1;
        }
        let list: Vec<String> = setups.cpu_s.iter().map(f64::to_string).collect();
        let _ = write!(
            facts,
            ", \"setup_reps_s\": [{}], \"setup_wall_s_median\": {}, \"setup_peak_rss_mb\": {}",
            list.join(", "),
            med(setups.wall_s.iter().copied()),
            setups.peak_rss_mb
        );
        let setup_s = med(setups.cpu_s.iter().copied());
        metrics = end_to_end(setup_s, &passes, first_pass_rss);
    } else {
        // Untraced and traced passes alternate over the same cells: the
        // traced one gives the spans, the pair gives the overhead.
        let mut off = Spans::new(false);
        let mut sp = Spans::new(true);
        let mut overhead = Vec::new();
        let mut traced: Vec<Pass> = Vec::new();
        let mut p = 0;
        while p == 0 || start.elapsed() < budget {
            let cells = pass_fn(o.seed, p);
            let w = o.workload.as_str();
            let u = one_pass(w, cells.clone(), o, &refs, &format!("{p}u"), &mut off);
            let t = one_pass(w, cells, o, &refs, &format!("{p}t"), &mut sp);
            overhead.push((t.host_s() / u.host_s() - 1.0) * 100.0);
            passes.push(u);
            traced.push(t);
            p += 1;
        }
        let first = pass_fn(o.seed, 0);
        let (probed, checked) = probes(o, &first, &refs, &mut sp)?;
        let samples = match o.workload.as_str() {
            "sampled" => traced.iter().flat_map(|t| t.samples.clone()).collect(),
            _ => probed,
        };
        let driver_passes: Vec<&Pass> = match o.workload.as_str() {
            "serve" => traced.iter().collect(),
            _ => checked.iter().collect(),
        };
        for d in &checked {
            failures.extend(d.failures.iter().cloned());
            attempted += d.attempted;
        }
        metrics = per_layer(&sp, &samples, &driver_passes, &overhead, &mut facts);
        passes.extend(traced);
    }

    for p in &passes {
        attempted += p.attempted;
        failures.extend(p.failures.iter().cloned());
    }
    for f in failures.iter().take(20) {
        eprintln!("perfbench: FAILED {f}");
    }
    println!("perfbench-record {}", record(o, &passes, &facts));
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{",
        failures.is_empty(),
        failures.len()
    );
    for (i, (name, v, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            finite(*v)
        );
    }
    out.push_str("}}");
    println!("{out}");
    Ok(failures.is_empty())
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

fn med(v: impl IntoIterator<Item = f64>) -> f64 {
    let v: Vec<f64> = v.into_iter().collect();
    stats::median(&v).unwrap_or(0.0)
}

/// The timed metrics use each pass's [`Pass::host_s`], and job latencies
/// are scaled by their pass's `host_s / wall_s`. `peak_rss_mb` is the
/// peak through the first pass's set-up and run (the set-up rounds run
/// in child processes): over later passes it grows by anything from 0
/// to ~140 MiB from run to run of the same seed, so the whole-run peak
/// only goes in the record.
fn end_to_end(setup_s: f64, passes: &[Pass], first_pass_rss: f64) -> Metrics {
    let job_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.job_ms.iter().map(move |ms| ms * p.host_s() / p.wall_s))
        .collect();
    vec![
        ("setup_s", setup_s, "s"),
        ("wall_s", med(passes.iter().map(Pass::host_s)), "s"),
        ("cpu_s", med(passes.iter().map(|p| p.cpu_s)), "s"),
        ("peak_rss_mb", first_pass_rss, "MiB"),
        (
            "sim_mips",
            med(passes.iter().map(|p| p.insts as f64 / p.host_s() / 1e6)),
            "Minst/s",
        ),
        (
            "jobs_per_s",
            med(passes.iter().map(|p| p.attempted as f64 / p.host_s())),
            "1/s",
        ),
        ("job_p50_ms", stats::median(&job_ms).unwrap_or(0.0), "ms"),
    ]
}

/// Runs the per-layer probes on a few of the first pass's cells.
/// Returns the sampling samples (empty for `sampled`, whose traced
/// passes supply them) and the probe passes whose results were checked
/// against the reference: a serve-driver pass on `detailed` and
/// `sampled`, a cell pass on `serve`.
fn probes(
    o: &Opts,
    first: &[Cell],
    refs: &Table,
    sp: &mut Spans,
) -> Result<(Vec<Sample>, Vec<Pass>), String> {
    let plain: Vec<Cell> = first
        .iter()
        .filter(|c| !c.traced && c.btb == Btb::Ideal && c.program != gen::DETAILED_KNUC.0)
        .filter(|c| o.workload == "sampled" || c.sample.is_none())
        .cloned()
        .collect();
    let take = |n: usize| plain.iter().take(n).cloned().collect::<Vec<_>>();
    let exact = |c: &Cell| refs.get(&c.key()).map(|e| e.cycles);
    let mut samples = Vec::new();
    let mut checked = Vec::new();
    match o.workload.as_str() {
        "detailed" => {
            probe::layers(&take(3), 2_000_000, &o.workdir, sp, false)?;
            checked.push(one_pass("serve", twice(&take(3)), o, refs, "probe", sp));
            let plan = SamplingPlan::qualified_default(false);
            samples = probe::sampling(&take(2), plan, exact, sp)?;
        }
        "sampled" => {
            probe::layers(&take(3), 4_000_000, &o.workdir, sp, true)?;
            checked.push(one_pass("serve", twice(&take(2)), o, refs, "probe", sp));
        }
        _ => {
            let cells = take(6);
            probe::layers(&cells, 2_000_000, &o.workdir, sp, false)?;
            let mut full = cells.clone();
            full[0].traced = true;
            checked.push(one_pass("cells", full, o, refs, "probe", sp));
            samples = probe::sampling(&cells, gen::serve_plan(), exact, sp)?;
        }
    }
    Ok((samples, checked))
}

fn twice(cells: &[Cell]) -> Vec<Cell> {
    cells.iter().chain(cells).cloned().collect()
}

fn per_layer(
    sp: &Spans,
    samples: &[Sample],
    driver: &[&Pass],
    overhead: &[f64],
    facts: &mut String,
) -> Metrics {
    let ms = |n: &str| sp.median(n).map_or(0.0, |s| s * 1e3);
    let us = |n: &str| sp.median(n).map_or(0.0, |s| s * 1e6);
    let count = |n: &str| sp.counts.get(n).copied().unwrap_or(0) as f64;
    let total = |f: fn(&SampleReport) -> u64| samples.iter().map(|(_, r, _)| f(r)).sum::<u64>();
    let (ff, warm, measured, all) = (
        total(|r| r.ff_insts),
        total(|r| r.warm_insts),
        total(|r| r.measured_insts),
        total(|r| r.total_insts).max(1),
    );
    let frac = |n: u64| n as f64 / all as f64;
    let errs: Vec<f64> = samples
        .iter()
        .map(|(_, r, x)| (r.cycles_est as f64 - *x as f64).abs() / *x as f64 * 100.0)
        .collect();
    let covered = samples
        .iter()
        .filter(|(_, r, x)| r.cycles_est.abs_diff(*x) <= r.cycles_ci95)
        .count();
    let attribution = stats::Attribution::new(
        sp.total("sampling.run"),
        (ff, warm, measured),
        (
            sp.mrate("ref") * 1e6,
            sp.mrate("warm.drain") * 1e6,
            sp.mrate("machine.interleaved") * 1e6,
        ),
    );
    let replay_wall = sp.total("machine.replay");
    let hits: usize = driver.iter().map(|p| p.hits).sum();
    let jobs: usize = driver.iter().map(|p| p.attempted).sum();
    let job_ms: Vec<f64> = driver
        .iter()
        .flat_map(|p| p.job_ms.iter().copied())
        .collect();
    let (tail_p, tail) = [99.0, 90.0, 50.0]
        .iter()
        .find_map(|&p| stats::tail(&job_ms, p).map(|v| (p, v)))
        .unwrap_or((100.0, job_ms.iter().copied().fold(0.0, f64::max)));
    let _ = write!(
        facts,
        ", \"driver_jobs\": {}, \"driver_job_tail_percentile\": {tail_p}, \
         \"sampled_cells\": {}",
        job_ms.len(),
        samples.len()
    );
    vec![
        ("luma.compile_ms", ms("luma.compile"), "ms"),
        ("luma.oracle_ms", ms("luma.oracle"), "ms"),
        ("guest.build_ms", ms("guest.build"), "ms"),
        ("guest.session_ms", ms("guest.session"), "ms"),
        ("guest.validate_ms", ms("guest.validate"), "ms"),
        ("ref.mips", sp.mrate("ref"), "Minst/s"),
        (
            "machine.default_mips",
            sp.mrate("machine.default"),
            "Minst/s",
        ),
        (
            "machine.engine_replay_cells",
            count("machine.engine_replay_cells"),
            "count",
        ),
        (
            "machine.interleaved_mips",
            sp.mrate("machine.interleaved"),
            "Minst/s",
        ),
        ("machine.replay_mips", sp.mrate("machine.replay"), "Minst/s"),
        (
            "machine.replay_cpu_ratio",
            if replay_wall > 0.0 {
                sp.total("machine.replay_cpu") / replay_wall
            } else {
                0.0
            },
            "ratio",
        ),
        (
            "machine.observed_mips",
            sp.mrate("machine.observed"),
            "Minst/s",
        ),
        ("warm.drain_mips", sp.mrate("warm.drain"), "Minst/s"),
        (
            "warm.interleaved_mips",
            sp.mrate("warm.interleaved"),
            "Minst/s",
        ),
        ("sampling.ff_frac", frac(ff), "frac"),
        ("sampling.warm_frac", frac(warm), "frac"),
        ("sampling.measure_frac", frac(measured), "frac"),
        (
            "sampling.intervals_min",
            samples
                .iter()
                .filter(|(_, r, _)| !r.exact_fallback)
                .map(|(_, r, _)| r.intervals)
                .min()
                .unwrap_or(0) as f64,
            "count",
        ),
        (
            "sampling.exact_fallbacks",
            samples.iter().filter(|(_, r, _)| r.exact_fallback).count() as f64,
            "count",
        ),
        ("sampling.cycle_err_pct", mean(&errs), "%"),
        ("sampling.headline_err_pct", headline_err_pct(samples), "%"),
        (
            "sampling.ci_coverage",
            covered as f64 / samples.len().max(1) as f64,
            "frac",
        ),
        ("sampling.timed_s", sp.total("sampling.run"), "s"),
        ("sampling.ff_s", attribution.ff_s, "s"),
        ("sampling.warm_s", attribution.warm_s, "s"),
        ("sampling.measure_s", attribution.measure_s, "s"),
        ("sampling.attributed_s", attribution.attributed_s(), "s"),
        ("sampling.unattributed_s", attribution.unattributed_s, "s"),
        ("snapshot.take_ms", ms("snapshot.take"), "ms"),
        ("snapshot.restore_ms", ms("snapshot.restore"), "ms"),
        (
            "snapshot.bytes",
            count("snapshot.bytes") / count("snapshot.count").max(1.0),
            "bytes",
        ),
        ("cache.load_us_p50", us("cache.load"), "us"),
        ("cache.store_ms_p50", ms("cache.store"), "ms"),
        ("cache.hit_frac", hits as f64 / jobs.max(1) as f64, "frac"),
        (
            "cache.quarantined",
            driver.iter().map(|p| p.quarantined).sum::<u64>() as f64,
            "count",
        ),
        ("payload.encode_us", us("payload.encode"), "us"),
        ("payload.decode_us", us("payload.decode"), "us"),
        ("driver.hit_ms_p50", ms("driver.hit"), "ms"),
        ("driver.miss_ms_p50", ms("driver.miss"), "ms"),
        ("driver.job_tail_ms", tail, "ms"),
        (
            "driver.retries",
            driver.iter().map(|p| p.retries).sum::<u64>() as f64,
            "count",
        ),
        ("trace.overhead_pct", med(overhead.iter().copied()), "%"),
    ]
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Error of the SCD-vs-baseline geomean speedup, estimated vs exact,
/// over the baseline/SCD pairs among `samples`.
fn headline_err_pct(samples: &[Sample]) -> f64 {
    let mut pairs: BTreeMap<String, [Option<(u64, u64)>; 2]> = BTreeMap::new();
    for (c, r, x) in samples {
        let slot = match c.scheme {
            scd_guest::Scheme::Baseline => 0,
            scd_guest::Scheme::Scd => 1,
            scd_guest::Scheme::Threaded => continue,
        };
        let group = Cell {
            scheme: scd_guest::Scheme::Baseline,
            ..c.clone()
        }
        .key();
        pairs.entry(group).or_default()[slot] = Some((r.cycles_est, *x));
    }
    let (mut est, mut exact) = (Vec::new(), Vec::new());
    for [b, s] in pairs.values() {
        if let (Some((be, bx)), Some((se, sx))) = (b, s) {
            est.push(*be as f64 / *se as f64);
            exact.push(*bx as f64 / *sx as f64);
        }
    }
    match (stats::geomean(&est), stats::geomean(&exact)) {
        (Some(e), Some(x)) => (e / x - 1.0).abs() * 100.0,
        _ => 0.0,
    }
}

/// Host and engine facts, per-pass figures and sample counts: the
/// context without which records from different hosts or engine choices
/// would be compared by mistake.
fn record(o: &Opts, passes: &[Pass], facts: &str) -> String {
    let mut engines: BTreeMap<&str, usize> = BTreeMap::new();
    let mut cell_engines: BTreeMap<&str, &str> = BTreeMap::new();
    for p in passes {
        for (k, e) in &p.engines {
            *engines.entry(e).or_default() += 1;
            cell_engines.insert(k, e);
        }
    }
    let list = |f: fn(&Pass) -> f64| {
        passes
            .iter()
            .map(|p| f(p).to_string())
            .collect::<Vec<_>>()
            .join(", ")
    };
    let jobs: usize = passes.iter().map(|p| p.job_ms.len()).sum();
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \
         \"driver_threads\": 1, \"passes\": {}, \"pass_setup_s\": [{}], \"wall_s\": [{}], \
         \"steal_s\": [{}], \"host_s\": [{}], \"cpu_s\": [{}], \
         \"peak_rss_mb_run\": {}, \"job_p50_samples\": {jobs}, \"engines\": {{",
        o.workload,
        o.seed,
        o.seconds,
        u8::from(o.trace),
        host::nproc(),
        passes.len(),
        list(|p| p.setup_s),
        list(|p| p.wall_s),
        list(|p| p.steal_s),
        list(Pass::host_s),
        list(|p| p.cpu_s),
        host::peak_rss_mb(),
    );
    let mut sep = "";
    for (e, n) in &engines {
        let _ = write!(s, "{sep}\"{e}\": {n}");
        sep = ", ";
    }
    s.push_str("}, \"cell_engines\": {");
    sep = "";
    for (k, e) in &cell_engines {
        let _ = write!(s, "{sep}\"{k}\": \"{e}\"");
        sep = ", ";
    }
    s.push('}');
    s.push_str(facts);
    s.push('}');
    s
}

/// Recomputes the reference for every cell `workload` can draw.
fn regen(o: &Opts) -> Result<bool, String> {
    let cells = gen::universe(&o.workload).expect("checked");
    let mut table = Table::new();
    let started = Instant::now();
    for (i, c) in cells.iter().enumerate() {
        let exact = full_detail(c)?;
        let e = match &c.sample {
            None => exact,
            Some(plan) => {
                let mut e = sampled(c, plan)?;
                e.exact = Some(exact.cycles);
                e
            }
        };
        eprintln!(
            "[{:>4}/{}] {:>7.1}s {}",
            i + 1,
            cells.len(),
            started.elapsed().as_secs_f64(),
            c.key()
        );
        table.insert(c.key(), e);
    }
    let path = o.refdir.join(format!("{}.txt", o.workload));
    let mut text = format!(
        "# perfbench reference for the {} workload: expected result of every cell\n\
         # it can draw. Regenerate: perfbench regen --workload {}\n",
        o.workload, o.workload
    );
    text.push_str(&reference::render(&table));
    std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("wrote {} ({} cells)", path.display(), table.len());
    Ok(true)
}

fn full_detail(c: &Cell) -> Result<Expect, String> {
    let mut s = c.session()?;
    s.machine.disable_invariants();
    let run = s
        .run_and_validate(u64::MAX)
        .map_err(|e| format!("{}: {e}", c.key()))?;
    Ok(Expect::observed(run.checksum, &run.stats, None))
}

fn sampled(c: &Cell, plan: &SamplingPlan) -> Result<Expect, String> {
    let mut s = c.session()?;
    let run = s
        .run_sampled_and_validate(u64::MAX, plan)
        .map_err(|e| format!("{}: {e}", c.key()))?;
    Ok(Expect::observed(
        run.checksum,
        &run.stats,
        run.sample.as_ref(),
    ))
}
