//! Per-layer probes for the traced run: each times one layer's public
//! entry point in isolation on a few of the workload's own cells, so
//! every layer gets a rate or a latency on every workload, including
//! layers the workload's own path reaches only indirectly.

use crate::gen::Cell;
use crate::host;
use crate::run::Sample;
use crate::spans::Spans;
use scd_guest::{layout, GuestRun, Vm};
use scd_serve::payload;
use scd_serve::{Cache, CachedRun};
use scd_sim::{lockstep, CycleBreakdown, SamplingPlan, SimError};
use std::path::Path;
use std::time::Instant;

/// Invariant stride for observed-loop probes (the sweep's setting).
const INVARIANT_STRIDE: u64 = 1 << 16;
/// Payload / cache operations per probe cell (they take microseconds).
const IO_REPS: usize = 16;

/// Runs to `budget` retirements; hitting the budget or an early guest
/// exit both count as success.
fn run_to(m: &mut scd_sim::Machine, budget: u64) -> Result<(), String> {
    match m.run(budget) {
        Ok(_) | Err(SimError::InstLimit { .. }) => Ok(()),
        Err(e) => Err(e.to_string()),
    }
}

/// Compile, guest build, oracle, RefCore, the three detailed engines,
/// both warming engines, snapshot/restore and payload/cache I/O, each
/// capped at `budget` retirements per cell.
pub fn layers(
    cells: &[Cell],
    budget: u64,
    workdir: &Path,
    sp: &mut Spans,
    with_default: bool,
) -> Result<(), String> {
    let io_dir = workdir.join(format!("probe-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&io_dir);
    let cache = Cache::open(&io_dir).map_err(|e| format!("probe cache: {e}"))?;
    let res = cells
        .iter()
        .try_for_each(|c| layers_one(c, budget, &cache, sp, with_default));
    let _ = std::fs::remove_dir_all(&io_dir);
    res
}

fn layers_one(
    cell: &Cell,
    budget: u64,
    cache: &Cache,
    sp: &mut Spans,
    with_default: bool,
) -> Result<(), String> {
    let args = [("N", cell.n)];
    let src = cell.bench().source;
    let opts = Default::default();
    match cell.vm {
        Vm::Lvm => {
            let (p, init) = sp.time("luma.compile", || {
                let script = luma::parse(src).map_err(|e| e.to_string())?;
                luma::lvm::compile_lvm(&script, &args).map_err(|e| e.to_string())
            })?;
            sp.time("guest.build", || {
                let img = layout::build_lvm_image(&p, &init);
                scd_guest::build_lvm_guest(&img, cell.scheme, opts)
            });
            sp.time("luma.oracle", || {
                luma::lvm::LvmInterp::new(&p, &init).run(u64::MAX)
            })
            .map_err(|e| e.to_string())?;
        }
        Vm::Svm => {
            let (p, init) = sp.time("luma.compile", || {
                let script = luma::parse(src).map_err(|e| e.to_string())?;
                luma::svm::compile_svm(&script, &args).map_err(|e| e.to_string())
            })?;
            sp.time("guest.build", || {
                let img = layout::build_svm_image(&p, &init);
                scd_guest::build_svm_guest(&img, cell.scheme, opts)
            });
            sp.time("luma.oracle", || {
                luma::svm::SvmInterp::new(&p, &init).run(u64::MAX)
            })
            .map_err(|e| e.to_string())?;
        }
    }

    // RefCore ISS, as the fast-forward leg and the replay producer use it.
    let s = cell.session()?;
    let mut core = lockstep::snapshot_core(&s.machine);
    drop(s);
    let t = Instant::now();
    match core.run(budget) {
        Ok(_) | Err(scd_ref::RefError::InstLimit { .. }) => {}
        Err(e) => return Err(format!("refcore: {e}")),
    }
    sp.add("ref", t.elapsed().as_secs_f64(), core.instructions);

    // The detailed engines.
    let mut s = cell.session()?;
    s.machine.disable_invariants();
    s.machine.set_replay(false);
    let t = Instant::now();
    run_to(&mut s.machine, budget)?;
    sp.add(
        "machine.interleaved",
        t.elapsed().as_secs_f64(),
        s.machine.stats.instructions,
    );

    if host::nproc() >= 2 {
        let mut s = cell.session()?;
        s.machine.disable_invariants();
        s.machine.force_replay();
        let cpu0 = host::cpu_s();
        let t = Instant::now();
        run_to(&mut s.machine, budget)?;
        let wall = t.elapsed().as_secs_f64();
        sp.add("machine.replay", wall, s.machine.stats.instructions);
        sp.add("machine.replay_cpu", host::cpu_s() - cpu0, 0);
    }

    if with_default {
        let mut s = cell.session()?;
        s.machine.disable_invariants();
        if s.machine.replay_engine() == "replay" {
            sp.count("machine.engine_replay_cells", 1);
        }
        let t = Instant::now();
        run_to(&mut s.machine, budget)?;
        sp.add(
            "machine.default",
            t.elapsed().as_secs_f64(),
            s.machine.stats.instructions,
        );

        let mut s = cell.session()?;
        s.machine.enable_invariants(INVARIANT_STRIDE);
        s.machine
            .set_trace_sink(Box::new(CycleBreakdown::default()));
        let t = Instant::now();
        run_to(&mut s.machine, budget)?;
        sp.add(
            "machine.observed",
            t.elapsed().as_secs_f64(),
            s.machine.stats.instructions,
        );
    }

    // Warming: the replay-driven drain (consumer time only) and the
    // interleaved WARMING loop.
    let mut s = cell.session()?;
    s.machine.disable_invariants();
    let (n, drain_s) = s
        .machine
        .warm_bench(0, budget, (u64::MAX, u64::MAX, u64::MAX))
        .map_err(|e| format!("warm_bench: {e}"))?;
    sp.add("warm.drain", drain_s, n);

    let mut s = cell.session()?;
    s.machine.disable_invariants();
    let t = Instant::now();
    match s.machine.run_warming(budget) {
        Ok(_) | Err(SimError::InstLimit { .. }) => {}
        Err(e) => return Err(format!("run_warming: {e}")),
    }
    sp.add(
        "warm.interleaved",
        t.elapsed().as_secs_f64(),
        s.machine.stats.instructions,
    );

    // Snapshot half-way, run on, restore.
    let mut s = cell.session()?;
    let m = &mut s.machine;
    m.disable_invariants();
    run_to(m, budget / 2)?;
    let snap = sp.time("snapshot.take", || m.snapshot());
    sp.count("snapshot.bytes", snap.to_bytes().len() as u64);
    sp.count("snapshot.count", 1);
    run_to(m, budget)?;
    sp.time("snapshot.restore", || m.restore(&snap))
        .map_err(|e| format!("restore: {e}"))?;

    // Result payload codec and cache I/O on this cell's stats.
    let run = GuestRun {
        checksum: 0,
        dispatches: 0,
        stats: m.stats.clone(),
        sink: None,
        sample: None,
    };
    let cached = CachedRun::from_run(&run, None);
    for rep in 0..IO_REPS {
        let text = sp.time("payload.encode", || payload::encode(&cached));
        sp.time("payload.decode", || payload::decode(&text))
            .map_err(|e| format!("payload decode: {e}"))?;
        let key = Cache::key(&format!("{} {rep}", cell.key()));
        sp.time("cache.store", || cache.store(&key, text.as_bytes()))
            .map_err(|e| format!("cache store: {e}"))?;
        sp.time("cache.load", || cache.load(&key))
            .ok_or("cache load missed a stored entry")?;
    }
    Ok(())
}

/// Runs `cells` sampled under `plan` (each as its baseline/SCD pair),
/// recording `sampling.run` spans and `(cell, report, exact)` samples;
/// `exact` looks up a cell's full-detail cycles.
pub fn sampling(
    cells: &[Cell],
    plan: SamplingPlan,
    exact: impl Fn(&Cell) -> Option<u64>,
    sp: &mut Spans,
) -> Result<Vec<Sample>, String> {
    let mut out = Vec::new();
    for base in cells {
        for scheme in [scd_guest::Scheme::Baseline, scd_guest::Scheme::Scd] {
            let c = Cell {
                scheme,
                traced: false,
                sample: None,
                ..base.clone()
            };
            let x = exact(&c).ok_or_else(|| format!("{}: no exact reference", c.key()))?;
            let mut s = c.session()?;
            let t = Instant::now();
            let (exit, report) = s
                .machine
                .run_sampled(u64::MAX, &plan)
                .map_err(|e| format!("{}: {e}", c.key()))?;
            sp.add(
                "sampling.run",
                t.elapsed().as_secs_f64(),
                report.total_insts,
            );
            s.validate(&exit).map_err(|e| format!("{}: {e}", c.key()))?;
            out.push((
                Cell {
                    sample: Some(plan),
                    ..c
                },
                report,
                x,
            ));
        }
    }
    Ok(out)
}
