//! Runs one pass of a workload through the program's public entry
//! points: `RunRequest::session` → `Machine::run` / `Machine::run_sampled`
//! → `Session::validate` for cells, `run_batch` + `simulate_job` for
//! serve jobs. Every result is checked against the reference table.

use crate::gen::Cell;
use crate::host;
use crate::reference::{Expect, Table};
use crate::spans::Spans;
use scd_guest::Session;
use scd_serve::{parse_jobs, run_batch, simulate_job, Cache, JobOutcome, JobSpec};
use scd_sim::{downcast_sink, CycleBreakdown, SampleReport};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::sync::Mutex;
use std::time::Instant;

/// Invariant-checker stride for traced cells (the sweep's release
/// setting).
const INVARIANT_STRIDE: u64 = 1 << 16;

/// A sampled cell's report with the cell's exact full-detail cycles.
pub type Sample = (Cell, SampleReport, u64);

/// What one pass measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// The pass's set-up ([`Prepared::setup_s`]).
    pub setup_s: f64,
    /// The timed phase.
    pub wall_s: f64,
    /// Process CPU (user + sys, every thread) over the timed phase.
    pub cpu_s: f64,
    /// Host CPU time stolen by other guests during the timed phase.
    pub steal_s: f64,
    /// Guest instructions retired in the timed phase (fast-forwarded,
    /// warmed and measured ones for sampled runs; cache hits retire none).
    pub insts: u64,
    /// Per-cell / per-job latency, ms.
    pub job_ms: Vec<f64>,
    pub attempted: usize,
    pub failures: Vec<String>,
    /// Resolved engine per untraced cell (`Machine::replay_engine`).
    pub engines: BTreeMap<String, &'static str>,
    /// Sampled cells: (cell, report, exact cycles from the reference).
    pub samples: Vec<Sample>,
    /// Serve: cache hits and driver retries.
    pub hits: usize,
    pub retries: u64,
    pub quarantined: u64,
}

impl Pass {
    /// The timed phase minus the delay that CPU time stolen by the
    /// hypervisor caused meanwhile ([`host::stretch_s`]), never below the
    /// CPU time spread over every CPU. On a shared host steal comes in
    /// bursts lasting tens of seconds and stretches a pass by about one
    /// busy CPU's share of it: taking that out cuts the run-to-run spread
    /// of the timed metrics several-fold.
    pub fn host_s(&self) -> f64 {
        let stretch = host::stretch_s(self.wall_s, self.cpu_s, self.steal_s);
        (self.wall_s - stretch).max(self.cpu_s / host::nproc() as f64)
    }
}

/// A pass whose inputs are built and whose timed phase has not run.
pub struct Prepared {
    cells: Vec<Cell>,
    work: Result<Work, String>,
    /// CPU time the set-up took on the calling thread: input generation,
    /// eager session builds (cells) or rendering and parsing the job file
    /// and `Cache::open` (serve). Wall time where the thread's CPU time
    /// cannot be read.
    pub setup_s: f64,
    /// Wall time of the same set-up.
    pub setup_wall_s: f64,
}

enum Work {
    Cells(Vec<Result<Session, String>>),
    Serve {
        jobs: Vec<JobSpec>,
        cache: Cache,
        dir: CacheDir,
    },
}

/// A pass's serve cache directory, removed when dropped, so a prepared
/// pass that never runs leaves nothing behind.
struct CacheDir(PathBuf);

impl Drop for CacheDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Sets up one pass over `cells` (generated inside the timed set-up).
/// For `serve` the job file is written and parsed and a fresh cache
/// opened under `workdir`; for any other workload every session is
/// built eagerly.
pub fn prepare(
    workload: &str,
    cells: impl FnOnce() -> Vec<Cell>,
    workdir: &Path,
    tag: &str,
    spans: &mut Spans,
) -> Prepared {
    let t0 = Instant::now();
    let cpu0 = host::thread_cpu_s();
    let cells = cells();
    let work = if workload == "serve" {
        prepare_serve(&cells, workdir, tag)
    } else {
        let sessions = cells
            .iter()
            .map(|c| spans.time("guest.session", || c.session()))
            .collect();
        Ok(Work::Cells(sessions))
    };
    let setup_wall_s = t0.elapsed().as_secs_f64();
    let setup_s = match (cpu0, host::thread_cpu_s()) {
        (Some(a), Some(b)) => b - a,
        _ => setup_wall_s,
    };
    Prepared {
        cells,
        work,
        setup_s,
        setup_wall_s,
    }
}

impl Prepared {
    /// Why the set-up failed, if it did.
    pub fn error(&self) -> Option<&str> {
        self.work.as_ref().err().map(String::as_str)
    }
}

fn prepare_serve(cells: &[Cell], workdir: &Path, tag: &str) -> Result<Work, String> {
    let dir = CacheDir(workdir.join(format!("serve-cache-{}-{tag}", std::process::id())));
    let _ = std::fs::remove_dir_all(&dir.0);
    let jobs = parse_jobs(&jobs_jsonl(cells)).map_err(|e| format!("job file: {e}"))?;
    if jobs.len() != cells.len() {
        return Err(format!("parsed {} of {} jobs", jobs.len(), cells.len()));
    }
    let cache = Cache::open(&dir.0).map_err(|e| format!("cache open {}: {e}", dir.0.display()))?;
    Ok(Work::Serve { jobs, cache, dir })
}

/// Runs the timed phase of a prepared pass and checks every result
/// against `refs`.
pub fn run(p: Prepared, refs: &Table, spans: &mut Spans) -> Pass {
    let mut pass = Pass {
        setup_s: p.setup_s,
        ..Pass::default()
    };
    match p.work {
        Ok(Work::Cells(sessions)) => run_cells(&p.cells, sessions, refs, spans, &mut pass),
        Ok(Work::Serve {
            jobs,
            cache,
            dir: _dir,
        }) => {
            run_serve(&p.cells, &jobs, &cache, refs, spans, &mut pass);
        }
        Err(e) => {
            pass.attempted += 1;
            pass.failures.push(e);
        }
    }
    pass
}

fn run_cells(
    cells: &[Cell],
    sessions: Vec<Result<Session, String>>,
    refs: &Table,
    spans: &mut Spans,
    pass: &mut Pass,
) {
    let (cpu0, steal0) = (host::cpu_s(), host::steal_s());
    let t1 = Instant::now();
    for (cell, session) in cells.iter().zip(sessions) {
        let tj = Instant::now();
        let res = session.and_then(|s| run_cell(cell, s, refs, spans, pass));
        pass.job_ms.push(tj.elapsed().as_secs_f64() * 1e3);
        pass.attempted += 1;
        if let Err(e) = res {
            pass.failures.push(format!("{}: {e}", cell.key()));
        }
    }
    pass.wall_s = t1.elapsed().as_secs_f64();
    pass.cpu_s = host::cpu_s() - cpu0;
    pass.steal_s = host::steal_s() - steal0;
}

fn run_cell(
    cell: &Cell,
    mut s: Session,
    refs: &Table,
    spans: &mut Spans,
    pass: &mut Pass,
) -> Result<(), String> {
    let expect = refs
        .get(&cell.key())
        .ok_or("no reference entry (regenerate the reference)")?;
    let m = &mut s.machine;
    let (exit, report) = if let Some(plan) = &cell.sample {
        let t = Instant::now();
        let (exit, report) = m.run_sampled(u64::MAX, plan).map_err(|e| e.to_string())?;
        spans.add(
            "sampling.run",
            t.elapsed().as_secs_f64(),
            report.total_insts,
        );
        pass.insts += report.total_insts;
        (exit, Some(report))
    } else {
        let span = if cell.traced {
            m.enable_invariants(INVARIANT_STRIDE);
            m.set_trace_sink(Box::new(CycleBreakdown::default()));
            "machine.observed"
        } else {
            m.disable_invariants();
            pass.engines.insert(cell.key(), m.replay_engine());
            if m.replay_engine() == "replay" {
                spans.count("machine.engine_replay_cells", 1);
            }
            "machine.default"
        };
        let t = Instant::now();
        let exit = m.run(u64::MAX).map_err(|e| e.to_string())?;
        spans.add(span, t.elapsed().as_secs_f64(), m.stats.instructions);
        pass.insts += m.stats.instructions;
        (exit, None)
    };
    let run = spans
        .time("guest.validate", || s.validate(&exit))
        .map_err(|e| e.to_string())?;
    if cell.traced {
        let sink = s.machine.take_trace_sink();
        let b = sink
            .and_then(downcast_sink::<CycleBreakdown>)
            .ok_or("traced cell lost its cycle breakdown")?;
        if b.total != run.stats.cycles {
            return Err(format!(
                "breakdown total {} != cycles {}",
                b.total, run.stats.cycles
            ));
        }
    }
    let got = Expect::observed(run.checksum, &run.stats, report.as_ref());
    if !expect.matches(&got) {
        return Err(format!("stats differ from the reference: {got:?}"));
    }
    if let (Some(r), Some(exact)) = (report, expect.exact) {
        pass.samples.push((cell.clone(), r, exact));
    }
    Ok(())
}

/// The serve job file for `cells`: the JSONL a `scd serve` client sends.
pub fn jobs_jsonl(cells: &[Cell]) -> String {
    let mut out = String::new();
    for (i, c) in cells.iter().enumerate() {
        let cfg = match c.preset {
            crate::gen::Preset::A5 => "embedded_a5",
            crate::gen::Preset::Rocket => "fpga_rocket",
        };
        let _ = write!(
            out,
            "{{\"id\":\"j{i}\",\"bench\":\"{}\",\"vm\":\"{}\",\"scheme\":\"{}\",\"cfg\":\"{cfg}\",\
             \"predefined\":{{\"N\":{}}}",
            c.program,
            c.vm.name(),
            c.scheme.name(),
            c.n
        );
        if c.traced {
            out.push_str(",\"traced\":true");
        }
        if let Some(plan) = &c.sample {
            let _ = write!(out, ",\"sample\":\"{plan}\"");
        }
        out.push_str("}\n");
    }
    out
}

/// The timed phase of a serve pass: the jobs on one worker against the
/// pass's fresh cache.
fn run_serve(
    cells: &[Cell],
    jobs: &[JobSpec],
    cache: &Cache,
    refs: &Table,
    spans: &mut Spans,
    pass: &mut Pass,
) {
    let interrupt = AtomicBool::new(false);
    let job_s = Mutex::new(0.0f64);
    let (cpu0, steal0) = (host::cpu_s(), host::steal_s());
    let t1 = Instant::now();
    run_batch(
        jobs,
        1,
        &interrupt,
        |job| {
            let t = Instant::now();
            let r = simulate_job(job, Some(cache), None);
            *job_s.lock().expect("latency cell is never poisoned") += t.elapsed().as_secs_f64();
            r
        },
        |i, _job, outcome| {
            let secs = std::mem::take(&mut *job_s.lock().expect("latency cell is never poisoned"));
            pass.job_ms.push(secs * 1e3);
            pass.attempted += 1;
            let cell = &cells[i];
            if let Err(e) = check_job(cell, outcome, refs, secs, spans, pass) {
                pass.failures
                    .push(format!("{} ({}): {e}", cell.key(), jobs[i].id));
            }
        },
    );
    cache.flush();
    pass.wall_s = t1.elapsed().as_secs_f64();
    pass.cpu_s = host::cpu_s() - cpu0;
    pass.steal_s = host::steal_s() - steal0;
    pass.quarantined = cache
        .stats
        .quarantined
        .load(std::sync::atomic::Ordering::Relaxed);
}

fn check_job(
    cell: &Cell,
    outcome: &JobOutcome,
    refs: &Table,
    secs: f64,
    spans: &mut Spans,
    pass: &mut Pass,
) -> Result<(), String> {
    let done = match outcome {
        JobOutcome::Done(d) => d,
        JobOutcome::Failed { error, .. } => return Err(error.message()),
        JobOutcome::Cancelled => return Err("cancelled".into()),
    };
    pass.retries += u64::from(done.attempts - 1);
    let run = &done.run;
    if done.cached {
        pass.hits += 1;
        spans.add("driver.hit", secs, 0);
    } else {
        let insts = run
            .sample
            .as_ref()
            .map_or(run.stats.instructions, |r| r.total_insts);
        pass.insts += insts;
        spans.add("driver.miss", secs, insts);
    }
    let expect = refs
        .get(&cell.key())
        .ok_or("no reference entry (regenerate the reference)")?;
    if cell.traced && run.breakdown.is_none() {
        return Err("traced job came back without a breakdown".into());
    }
    if cell.sample.is_some() != run.sample.is_some() {
        return Err("sampled-ness of the result differs from the job".into());
    }
    let got = Expect::observed(run.checksum, &run.stats, run.sample.as_ref());
    if !expect.matches(&got) {
        return Err(format!("stats differ from the reference: {got:?}"));
    }
    if let (Some(r), Some(exact)) = (&run.sample, expect.exact) {
        if !done.cached {
            pass.samples.push((cell.clone(), r.clone(), exact));
        }
    }
    Ok(())
}
