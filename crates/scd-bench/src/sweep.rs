//! The shared run matrix behind every figure and table.
//!
//! Historically each `scd-bench` binary re-ran its own slice of the
//! evaluation matrix (benchmark × VM × scheme × `SimConfig`), so
//! regenerating the full evaluation re-simulated heavily overlapping
//! cell sets strictly sequentially. This module splits *planning* from
//! *execution*:
//!
//! 1. every figure contributes the cells it needs to one [`RunMatrix`]
//!    builder, which deduplicates them by their full identity
//!    (configuration, VM, benchmark, input, scheme, build options);
//! 2. [`RunMatrix::run`] executes the unique cells on a work-stealing
//!    pool of plain `std::thread::scope` workers (the `Machine` stack is
//!    `Send`, asserted at compile time in `scd-sim`), with results
//!    written into per-cell slots so the reduction order — and therefore
//!    every rendered byte — is deterministic regardless of thread count;
//! 3. figures render from the shared [`SweepResults`] via stable
//!    [`CellId`] handles.
//!
//! Untraced cells run uninstrumented on the machine's fast loop (oracle
//! checksum validation still gates every cell), or under interval
//! sampling when the matrix has a plan. Traced cells carry a
//! [`CycleBreakdown`] sink and the invariant checker armed at
//! [`INVARIANT_STRIDE`](crate), which selects the observed loop. The
//! two loops produce bit-identical statistics (`tests/golden_stats.rs`)
//! and the trace layer is stat-invariant, so a cell shared between a
//! traced and an untraced consumer is run once, traced, and both read
//! identical statistics. Each cell is one thread: a sweep at
//! `--threads N` keeps at most `N` CPUs busy.

use crate::{ArgScale, Variant, INVARIANT_STRIDE};
use luma::scripts::{Benchmark, BENCHMARKS};
use scd_guest::{GuestOptions, GuestRun, RunRequest, Scheme, Vm};
use scd_serve::{manifest_for, panic_message, payload, Cache, CachedRun};
use scd_sim::{CycleBreakdown, SamplingPlan, SimConfig};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Stable handle to one cell of a [`RunMatrix`] / [`SweepResults`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellId(usize);

/// Everything that identifies one simulation cell of the evaluation
/// matrix. Two cells with equal identity (everything but `traced`) are
/// deduplicated into one run.
#[derive(Debug, Clone)]
pub struct CellSpec {
    /// Simulated-core configuration (already variant-adjusted).
    pub cfg: SimConfig,
    /// Guest VM.
    pub vm: Vm,
    /// Corpus benchmark.
    pub bench: &'static Benchmark,
    /// Value bound to `N`.
    pub arg: f64,
    /// Interpreter dispatch scheme.
    pub scheme: Scheme,
    /// Interpreter build options.
    pub opts: GuestOptions,
    /// Whether any consumer needs the cycle decomposition of this cell.
    pub traced: bool,
}

impl CellSpec {
    /// Dedup key: the full cell identity minus `traced` (tracing is
    /// stat-invariant, so it widens a cell rather than splitting it).
    fn key(&self) -> String {
        format!(
            "{:?}|{:?}|{}|{:016x}|{:?}|{:?}",
            self.cfg,
            self.vm,
            self.bench.name,
            self.arg.to_bits(),
            self.scheme,
            self.opts
        )
    }
}

/// One executed cell: the validated run, its optional cycle
/// decomposition, and how long it took on the host.
pub struct CellOut {
    /// The oracle-validated run.
    pub run: GuestRun,
    /// Event-derived cycle decomposition (`None` for untraced cells).
    pub breakdown: Option<CycleBreakdown>,
    /// Host wall-clock time this cell took to simulate.
    pub wall: Duration,
}

/// Deduplicating builder for the evaluation run matrix.
#[derive(Default)]
pub struct RunMatrix {
    cells: Vec<CellSpec>,
    /// How many times each unique cell was requested.
    hits: Vec<usize>,
    index: HashMap<String, usize>,
    /// Run every *untraced* cell under interval sampling with this plan.
    sample: Option<SamplingPlan>,
}

impl RunMatrix {
    /// An empty matrix.
    pub fn new() -> Self {
        Self::default()
    }

    /// Unique cells planned so far.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether no cells are planned.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Total cell *requests* (before deduplication); the ratio to
    /// [`RunMatrix::len`] is the work the shared matrix saves.
    pub fn requested(&self) -> usize {
        self.hits.iter().sum()
    }

    /// Runs every *untraced* cell under interval sampling with `plan`:
    /// fast-forward / functionally warm / measure, with cycle counts
    /// statistically estimated instead of fully simulated (architectural
    /// results stay exact and oracle-validated). Traced cells always run
    /// full detail — a cycle decomposition sampled from a fraction of
    /// the run would be a fragment, not an estimate. The plan joins each
    /// sampled cell's cache manifest, so sampled and full-detail entries
    /// never collide in a shared `--cache` directory.
    pub fn set_sample(&mut self, plan: Option<SamplingPlan>) {
        self.sample = plan;
    }

    /// Plans `spec`, returning the id of the (possibly pre-existing)
    /// unique cell. A traced request upgrades an untraced cell.
    pub fn cell(&mut self, spec: CellSpec) -> CellId {
        let key = spec.key();
        match self.index.get(&key) {
            Some(&i) => {
                self.cells[i].traced |= spec.traced;
                self.hits[i] += 1;
                CellId(i)
            }
            None => {
                let i = self.cells.len();
                self.index.insert(key, i);
                self.cells.push(spec);
                self.hits.push(1);
                CellId(i)
            }
        }
    }

    /// Plans one benchmark under one Fig. 7 [`Variant`] (the variant
    /// picks both the scheme and the hardware configuration).
    pub fn variant(
        &mut self,
        base_cfg: &SimConfig,
        vm: Vm,
        bench: &'static Benchmark,
        scale: ArgScale,
        v: Variant,
        traced: bool,
    ) -> CellId {
        self.cell(CellSpec {
            cfg: v.configure(base_cfg),
            vm,
            bench,
            arg: scale.arg(bench),
            scheme: v.scheme(),
            opts: GuestOptions::default(),
            traced,
        })
    }

    /// Executes every unique cell on `threads` worker threads and
    /// returns the result set. Cell results land in planning order, so
    /// downstream rendering is deterministic for any thread count.
    ///
    /// # Panics
    /// Panics if any cell fails oracle validation — a harness run must
    /// never silently produce numbers from a wrong execution.
    pub fn run(self, threads: usize, progress: bool) -> SweepResults {
        match self.run_cached(threads, progress, None, None) {
            Ok(r) => r,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`RunMatrix::run`] with the robustness knobs exposed: an optional
    /// persistent result [`Cache`] (entries are keyed through
    /// [`manifest_for`], so they interoperate with `scd serve`) and an
    /// optional interrupt flag. When the flag becomes true, in-flight
    /// cells finish — and commit their cache entries — but no new cell
    /// is claimed, and the sweep returns [`SweepError::Interrupted`]; a
    /// rerun against the same cache resumes as hits.
    ///
    /// # Errors
    /// [`SweepError::Cell`] on the first cell that fails to compile,
    /// validate or persist (including a worker panic, which no longer
    /// takes the rest of the matrix down with it);
    /// [`SweepError::Interrupted`] when cut short.
    pub fn run_cached(
        self,
        threads: usize,
        progress: bool,
        cache: Option<&Cache>,
        interrupt: Option<&AtomicBool>,
    ) -> Result<SweepResults, SweepError> {
        let started = Instant::now();
        let total = self.cells.len();
        let done = AtomicUsize::new(0);
        let sample = self.sample;
        let outs = try_parallel_map(&self.cells, threads, interrupt, |spec| {
            let out = run_cell(spec, sample.as_ref(), cache);
            if progress {
                let d = done.fetch_add(1, Ordering::Relaxed) + 1;
                let status = match &out {
                    Ok(cell) => format!("{:.2}s", cell.wall.as_secs_f64()),
                    Err(_) => "FAILED".to_string(),
                };
                eprintln!(
                    "  [{d}/{total}] {} [{} / {}] {status}",
                    spec.bench.name,
                    spec.vm.name(),
                    spec.scheme.name(),
                );
            }
            out
        });
        let mut cells = Vec::with_capacity(outs.len());
        for (i, out) in outs.into_iter().enumerate() {
            let spec = &self.cells[i];
            let label = format!(
                "{} [{} / {}]",
                spec.bench.name,
                spec.vm.name(),
                spec.scheme.name()
            );
            match out {
                MapOutcome::Done(Ok(cell)) => cells.push(cell),
                MapOutcome::Done(Err(msg)) => return Err(SweepError::Cell(msg)),
                MapOutcome::Panicked(msg) => {
                    return Err(SweepError::Cell(format!("{label}: worker panicked: {msg}")))
                }
                MapOutcome::Cancelled => return Err(SweepError::Interrupted),
            }
        }
        Ok(SweepResults {
            specs: self.cells,
            hits: self.hits,
            cells,
            wall: started.elapsed(),
        })
    }
}

/// Why a [`RunMatrix::run_cached`] sweep did not produce results.
#[derive(Debug)]
pub enum SweepError {
    /// A cell failed to compile, validate, or persist its cache entry
    /// (message includes the cell label), or its worker panicked.
    Cell(String),
    /// The interrupt flag was raised before every cell ran; completed
    /// cells have already committed their cache entries.
    Interrupted,
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::Cell(msg) => f.write_str(msg),
            SweepError::Interrupted => f.write_str("sweep interrupted before completion"),
        }
    }
}

impl std::error::Error for SweepError {}

/// Runs one cell, oracle-validated, through the optional persistent
/// cache. Traced cells run the observed loop with invariants armed;
/// untraced cells run uninstrumented on the fast loop, or under
/// interval sampling when the matrix has a plan.
fn run_cell(
    spec: &CellSpec,
    sample: Option<&SamplingPlan>,
    cache: Option<&Cache>,
) -> Result<CellOut, String> {
    let started = Instant::now();
    let label = format!(
        "{} [{} / {}]",
        spec.bench.name,
        spec.vm.name(),
        spec.scheme.name()
    );
    let args = [("N", spec.arg)];
    // Traced cells ignore the matrix sampling plan: the cycle breakdown
    // is a per-retirement observation, meaningless over a sampled run.
    let sample = if spec.traced { None } else { sample };
    let req = RunRequest::new(spec.cfg.clone(), spec.vm, spec.bench.source)
        .predefined(&args)
        .scheme(spec.scheme)
        .opts(spec.opts)
        .sample(sample.cloned());
    // The sampling plan is in the key (via the request manifest):
    // sampled cycle counts are estimates and must never masquerade as
    // exact.
    let key = cache.map(|_| Cache::key(&manifest_for(&req, spec.traced)));
    if let (Some(c), Some(key)) = (cache, key.as_deref()) {
        if let Some(bytes) = c.load(key) {
            // Checksum passed but the payload may predate a format
            // change (or lack the breakdown this consumer needs); any
            // such mismatch degrades to recompute, never a failure.
            let decoded = std::str::from_utf8(&bytes)
                .map_err(|e| e.to_string())
                .and_then(payload::decode);
            if let Ok(cached) = decoded {
                if (!spec.traced || cached.breakdown.is_some())
                    && sample.is_some() == cached.sample.is_some()
                {
                    let breakdown = cached.breakdown;
                    return Ok(CellOut {
                        run: cached.to_run(),
                        breakdown,
                        wall: started.elapsed(),
                    });
                }
            }
        }
    }
    let mut run = req
        .run_with(|m| {
            if spec.traced {
                m.enable_invariants(INVARIANT_STRIDE);
            } else {
                // The fast loop (debug builds otherwise auto-arm the
                // invariant observer).
                m.disable_invariants();
            }
            if spec.traced {
                m.set_trace_sink(Box::new(CycleBreakdown::default()));
            }
        })
        .map_err(|e| format!("{label}: {e}"))?;
    let breakdown = match spec.traced {
        true => Some(
            *run.take_sink::<CycleBreakdown>()
                .ok_or_else(|| format!("{label}: breakdown sink did not come back"))?,
        ),
        false => None,
    };
    if let (Some(c), Some(key)) = (cache, key.as_deref()) {
        let text = payload::encode(&CachedRun::from_run(&run, breakdown.as_ref()));
        c.store(key, text.as_bytes())
            .map_err(|e| format!("{label}: cache store under {}: {e}", c.root().display()))?;
    }
    Ok(CellOut {
        run,
        breakdown,
        wall: started.elapsed(),
    })
}

/// What happened to one item of a [`try_parallel_map`].
#[derive(Debug)]
pub enum MapOutcome<U> {
    /// The worker completed and produced a value.
    Done(U),
    /// The worker panicked on this item; the panic message is preserved
    /// and the rest of the map kept running.
    Panicked(String),
    /// The item was never claimed because `cancel` became true first.
    Cancelled,
}

/// Order-preserving parallel map over a slice using scoped threads: a
/// shared atomic cursor hands out indices, each worker writes its result
/// into the slot for the index it claimed, and the output order matches
/// the input order exactly. With `threads <= 1` it degenerates to a
/// plain sequential map (no pool, no locks).
///
/// Each item is computed under `catch_unwind` *before* its slot mutex
/// is taken, so a panicking worker yields [`MapOutcome::Panicked`] for
/// that one item instead of poisoning the slot and aborting the whole
/// map — the historical failure mode where one bad cell cost the rest
/// of an hours-long matrix. When `cancel` flips to true, workers stop
/// claiming and the unclaimed tail comes back [`MapOutcome::Cancelled`];
/// claims are monotonic, so cancelled items always form a suffix of the
/// per-worker claim order (with one thread, of the whole output).
pub fn try_parallel_map<T, U, F>(
    items: &[T],
    threads: usize,
    cancel: Option<&AtomicBool>,
    f: F,
) -> Vec<MapOutcome<U>>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let cancelled = || cancel.is_some_and(|c| c.load(Ordering::SeqCst));
    let run_one = |item: &T| match catch_unwind(AssertUnwindSafe(|| f(item))) {
        Ok(v) => MapOutcome::Done(v),
        Err(payload) => MapOutcome::Panicked(panic_message(payload)),
    };
    let threads = threads.clamp(1, items.len().max(1));
    if threads == 1 {
        return items
            .iter()
            .map(|item| {
                if cancelled() {
                    MapOutcome::Cancelled
                } else {
                    run_one(item)
                }
            })
            .collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<MapOutcome<U>>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                if cancelled() {
                    break;
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let out = run_one(item);
                match slots[i].lock() {
                    Ok(mut slot) => *slot = Some(out),
                    // Unreachable now that nothing panics while holding
                    // the lock, but if that ever regresses the result
                    // still lands instead of cascading the poison.
                    Err(poisoned) => *poisoned.into_inner() = Some(out),
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .unwrap_or(MapOutcome::Cancelled)
        })
        .collect()
}

/// Infallible wrapper over [`try_parallel_map`]: returns the mapped
/// values in input order.
///
/// # Panics
/// Re-raises the first worker panic — but only after every other item
/// has completed, so one bad item no longer discards the rest of the
/// computation mid-flight.
pub fn parallel_map<T, U, F>(items: &[T], threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let mut first_panic = None;
    let results: Vec<U> = try_parallel_map(items, threads, None, f)
        .into_iter()
        .filter_map(|o| match o {
            MapOutcome::Done(v) => Some(v),
            MapOutcome::Panicked(msg) => {
                first_panic.get_or_insert(msg);
                None
            }
            MapOutcome::Cancelled => unreachable!("no cancel flag was passed"),
        })
        .collect();
    match first_panic {
        None => results,
        Some(msg) => panic!("parallel_map worker panicked: {msg}"),
    }
}

/// The executed matrix: one [`CellOut`] per unique planned cell, plus
/// the wall-clock accounting the sweep driver reports.
pub struct SweepResults {
    specs: Vec<CellSpec>,
    hits: Vec<usize>,
    cells: Vec<CellOut>,
    /// Wall-clock time of the whole (parallel) execution.
    pub wall: Duration,
}

impl SweepResults {
    /// Number of executed cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the matrix was empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The validated run of `id`.
    pub fn get(&self, id: CellId) -> &GuestRun {
        &self.cells[id.0].run
    }

    /// The cycle decomposition of `id`.
    ///
    /// # Panics
    /// Panics when the cell was planned untraced.
    pub fn breakdown(&self, id: CellId) -> &CycleBreakdown {
        self.cells[id.0]
            .breakdown
            .as_ref()
            .expect("cell was planned traced")
    }

    /// Sum of per-cell host runtimes: what the deduplicated matrix would
    /// cost on one thread.
    pub fn serial_unique(&self) -> Duration {
        self.cells.iter().map(|c| c.wall).sum()
    }

    /// Dedup-unaware sequential estimate: per-cell runtime weighted by
    /// how many times the cell was requested — what the old one-binary-
    /// per-figure flow would have simulated.
    pub fn serial_requested(&self) -> Duration {
        self.cells
            .iter()
            .zip(&self.hits)
            .map(|(c, &h)| c.wall * u32::try_from(h).unwrap_or(u32::MAX))
            .sum()
    }

    /// Iterates `(spec, times-requested, result)` in planning order.
    pub fn iter(&self) -> impl Iterator<Item = (&CellSpec, usize, &CellOut)> {
        self.specs
            .iter()
            .zip(&self.hits)
            .zip(&self.cells)
            .map(|((s, &h), c)| (s, h, c))
    }
}

/// The planned form of the old `run_matrix` helper: all benchmarks ×
/// the given variants for one VM/configuration, resolvable into a
/// [`Matrix`] view once the sweep has run.
pub struct MatrixPlan {
    /// The VM the matrix covers.
    pub vm: Vm,
    rows: Vec<(&'static Benchmark, Vec<(Variant, CellId)>)>,
}

/// Plans the full benchmark matrix for one VM.
pub fn plan_matrix(
    m: &mut RunMatrix,
    base_cfg: &SimConfig,
    vm: Vm,
    scale: ArgScale,
    variants: &[Variant],
    traced: bool,
) -> MatrixPlan {
    let rows = BENCHMARKS
        .iter()
        .map(|b| {
            let cells = variants
                .iter()
                .map(|&v| (v, m.variant(base_cfg, vm, b, scale, v, traced)))
                .collect();
            (b, cells)
        })
        .collect();
    MatrixPlan { vm, rows }
}

impl MatrixPlan {
    /// Resolves the plan against executed results into the borrowing
    /// [`Matrix`] view the table formatters consume.
    pub fn resolve<'r>(&self, r: &'r SweepResults) -> Matrix<'r> {
        Matrix {
            vm: self.vm,
            rows: self
                .rows
                .iter()
                .map(|(b, cells)| MatrixRow {
                    bench: b,
                    cells: cells.clone(),
                    results: r,
                })
                .collect(),
        }
    }
}

/// A complete matrix of executed runs for one VM and configuration,
/// borrowing from [`SweepResults`].
pub struct Matrix<'r> {
    /// The VM the matrix covers.
    pub vm: Vm,
    /// One row per benchmark.
    pub rows: Vec<MatrixRow<'r>>,
}

/// All variants of one benchmark.
pub struct MatrixRow<'r> {
    /// The benchmark.
    pub bench: &'static Benchmark,
    cells: Vec<(Variant, CellId)>,
    results: &'r SweepResults,
}

impl<'r> MatrixRow<'r> {
    fn id(&self, v: Variant) -> CellId {
        self.cells
            .iter()
            .find(|(vv, _)| *vv == v)
            .expect("variant present")
            .1
    }

    /// The validated run of variant `v`.
    pub fn get(&self, v: Variant) -> &'r GuestRun {
        self.results.get(self.id(v))
    }

    /// The event-derived cycle decomposition for `v`.
    ///
    /// # Panics
    /// Panics when the matrix was planned untraced.
    pub fn breakdown(&self, v: Variant) -> &'r CycleBreakdown {
        self.results.breakdown(self.id(v))
    }

    /// Speedup of `v` over the baseline (1.0 = no change).
    pub fn speedup(&self, v: Variant) -> f64 {
        self.get(Variant::Baseline).stats.cycles as f64 / self.get(v).stats.cycles as f64
    }

    /// Dynamic instruction count of `v` normalized to baseline.
    pub fn norm_insts(&self, v: Variant) -> f64 {
        self.get(v).stats.instructions as f64
            / self.get(Variant::Baseline).stats.instructions as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_collapses_identical_cells() {
        let a5 = SimConfig::embedded_a5();
        let mut m = RunMatrix::new();
        let b = &BENCHMARKS[0];
        let a = m.variant(&a5, Vm::Lvm, b, ArgScale::Tiny, Variant::Baseline, false);
        let c = m.variant(&a5, Vm::Lvm, b, ArgScale::Tiny, Variant::Baseline, true);
        assert_eq!(a, c, "identical cells must deduplicate");
        assert_eq!(m.len(), 1);
        assert_eq!(m.requested(), 2);
        // The traced request upgraded the shared cell.
        assert!(m.cells[0].traced);
        // A different scheme is a different cell.
        let d = m.variant(&a5, Vm::Lvm, b, ArgScale::Tiny, Variant::Scd, false);
        assert_ne!(a, d);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn parallel_map_is_order_preserving() {
        let items: Vec<u64> = (0..97).collect();
        let seq: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 7] {
            assert_eq!(parallel_map(&items, threads, |x| x * x), seq);
        }
    }

    #[test]
    fn try_parallel_map_isolates_worker_panics() {
        let items: Vec<u64> = (0..16).collect();
        for threads in [1, 4] {
            let outs = try_parallel_map(&items, threads, None, |&x| {
                if x == 7 {
                    panic!("boom at {x}");
                }
                x * 2
            });
            assert_eq!(outs.len(), items.len());
            for (i, o) in outs.iter().enumerate() {
                match o {
                    MapOutcome::Done(v) => {
                        assert_ne!(i, 7, "threads={threads}: item 7 must not succeed");
                        assert_eq!(*v, items[i] * 2);
                    }
                    MapOutcome::Panicked(msg) => {
                        assert_eq!(i, 7, "threads={threads}: only item 7 panics");
                        assert!(msg.contains("boom at 7"), "payload preserved: {msg}");
                    }
                    MapOutcome::Cancelled => panic!("nothing was cancelled"),
                }
            }
        }
    }

    #[test]
    fn parallel_map_finishes_other_items_before_reraising() {
        let items: Vec<u64> = (0..8).collect();
        let completed = AtomicUsize::new(0);
        let err = catch_unwind(AssertUnwindSafe(|| {
            parallel_map(&items, 4, |&x| {
                if x == 3 {
                    panic!("injected cell failure");
                }
                completed.fetch_add(1, Ordering::SeqCst);
                x
            })
        }))
        .expect_err("the worker panic must surface");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            msg.contains("injected cell failure"),
            "message preserved: {msg}"
        );
        assert_eq!(
            completed.load(Ordering::SeqCst),
            7,
            "the other items still ran"
        );
    }

    #[test]
    fn cancel_flag_stops_claiming_new_items() {
        let items: Vec<u64> = (0..6).collect();
        let cancel = AtomicBool::new(false);
        let outs = try_parallel_map(&items, 1, Some(&cancel), |&x| {
            if x == 1 {
                cancel.store(true, Ordering::SeqCst);
            }
            x
        });
        assert!(matches!(outs[0], MapOutcome::Done(0)));
        assert!(
            matches!(outs[1], MapOutcome::Done(1)),
            "the in-flight item finishes"
        );
        for (i, o) in outs.iter().enumerate().skip(2) {
            assert!(
                matches!(o, MapOutcome::Cancelled),
                "item {i} must be cancelled"
            );
        }
    }

    /// End-to-end for the persistent cache: a cold sweep populates it, a
    /// warm sweep reproduces every number from it without simulating,
    /// and a corrupted entry quarantines and recomputes to the same
    /// values — the satellite guarantee that cache damage costs time,
    /// never correctness.
    #[test]
    fn warm_cache_reproduces_cold_results_and_survives_corruption() {
        let dir = std::env::temp_dir().join(format!("scd-sweep-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let a5 = SimConfig::embedded_a5();
        type Snapshot = Vec<(u64, u64, scd_sim::SimStats, CycleBreakdown)>;
        let sweep = |cache: &Cache| -> Snapshot {
            let mut m = RunMatrix::new();
            let plan = plan_matrix(
                &mut m,
                &a5,
                Vm::Lvm,
                ArgScale::Tiny,
                &[Variant::Baseline, Variant::Scd],
                true,
            );
            let r = m
                .run_cached(2, false, Some(cache), None)
                .expect("sweep clean");
            let matrix = plan.resolve(&r);
            let mut snap = Vec::new();
            for row in &matrix.rows {
                for v in [Variant::Baseline, Variant::Scd] {
                    let run = row.get(v);
                    snap.push((
                        run.checksum,
                        run.dispatches,
                        run.stats.clone(),
                        *row.breakdown(v),
                    ));
                }
            }
            snap
        };
        let stat = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::SeqCst);

        let cold_cache = Cache::open(&dir).expect("open cache");
        let cold = sweep(&cold_cache);
        let cells = stat(&cold_cache.stats.stores);
        assert!(cells > 0, "cold sweep must populate the cache");
        assert_eq!(stat(&cold_cache.stats.hits), 0);

        let warm_cache = Cache::open(&dir).expect("reopen cache");
        let warm = sweep(&warm_cache);
        assert_eq!(cold, warm, "warm results must be bit-identical to cold");
        assert_eq!(stat(&warm_cache.stats.hits), cells, "every cell must hit");
        assert_eq!(stat(&warm_cache.stats.misses), 0);

        // Truncate one committed entry mid-payload: quarantined, that
        // one cell recomputes, and the numbers still match.
        let victim = first_object(&dir);
        let bytes = std::fs::read(&victim).expect("read entry");
        std::fs::write(&victim, &bytes[..bytes.len() / 2]).expect("truncate entry");
        let hurt_cache = Cache::open(&dir).expect("reopen cache");
        let healed = sweep(&hurt_cache);
        assert_eq!(cold, healed, "recomputed results must be bit-identical");
        assert_eq!(stat(&hurt_cache.stats.quarantined), 1);
        assert_eq!(
            stat(&hurt_cache.stats.misses),
            0,
            "quarantines are counted apart"
        );
        assert_eq!(stat(&hurt_cache.stats.hits), cells - 1);
        assert_eq!(
            stat(&hurt_cache.stats.stores),
            1,
            "the healed entry is re-committed"
        );

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A sampled matrix validates every cell against the oracle, caches
    /// under keys disjoint from full-detail entries, and resumes warm
    /// with the sample report intact — the sweep-layer guarantees of the
    /// sampling tentpole.
    #[test]
    fn sampled_matrix_validates_and_caches_separately() {
        let dir = std::env::temp_dir().join(format!(
            "scd-sweep-sample-cache-test-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let a5 = SimConfig::embedded_a5();
        let plan = SamplingPlan::parse("60k:10k:6k").expect("valid plan");
        let sweep = |sample: Option<SamplingPlan>, cache: &Cache| {
            let mut m = RunMatrix::new();
            m.set_sample(sample);
            let p = plan_matrix(
                &mut m,
                &a5,
                Vm::Lvm,
                ArgScale::Tiny,
                &[Variant::Baseline, Variant::Scd],
                false,
            );
            let r = m
                .run_cached(2, false, Some(cache), None)
                .expect("sweep clean");
            let matrix = p.resolve(&r);
            let mut snap = Vec::new();
            for row in &matrix.rows {
                for v in [Variant::Baseline, Variant::Scd] {
                    let run = row.get(v);
                    snap.push((run.checksum, run.dispatches, run.sample.is_some()));
                }
            }
            snap
        };
        let stat = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::SeqCst);

        let det_cache = Cache::open(&dir).expect("open cache");
        let det = sweep(None, &det_cache);
        let cells = stat(&det_cache.stats.stores);
        assert!(cells > 0);
        assert!(det.iter().all(|&(_, _, sampled)| !sampled));

        // The sampled sweep shares the cache directory but must not see
        // a single full-detail entry as a hit (the plan splits the key).
        let smp_cache = Cache::open(&dir).expect("reopen cache");
        let smp = sweep(Some(plan), &smp_cache);
        assert_eq!(
            stat(&smp_cache.stats.hits),
            0,
            "plans must split cache keys"
        );
        assert_eq!(stat(&smp_cache.stats.stores), cells);
        assert!(smp.iter().all(|&(_, _, sampled)| sampled));
        // Architectural results are exact under sampling: checksums and
        // dispatch counts match the full-detail run bit for bit.
        let arch = |s: &[(u64, u64, bool)]| s.iter().map(|&(c, d, _)| (c, d)).collect::<Vec<_>>();
        assert_eq!(arch(&det), arch(&smp));

        // Warm rerun of the sampled matrix: every cell hits, with the
        // sample report still attached.
        let warm_cache = Cache::open(&dir).expect("reopen cache");
        let warm = sweep(Some(plan), &warm_cache);
        assert_eq!(
            stat(&warm_cache.stats.hits),
            cells,
            "every sampled cell must hit"
        );
        assert_eq!(smp, warm);

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// First committed entry file under `<dir>/objects/<fan-out>/`.
    fn first_object(dir: &std::path::Path) -> std::path::PathBuf {
        let objects = dir.join("objects");
        for sub in std::fs::read_dir(&objects).expect("objects dir") {
            let sub = sub.expect("dir entry").path();
            if !sub.is_dir() {
                continue;
            }
            if let Some(f) = std::fs::read_dir(&sub).expect("fan-out dir").next() {
                return f.expect("dir entry").path();
            }
        }
        panic!("no committed cache entries under {}", objects.display());
    }

    #[test]
    fn sweep_matches_direct_runs_any_thread_count() {
        let a5 = SimConfig::embedded_a5();
        let plan_and_run = |threads: usize| {
            let mut m = RunMatrix::new();
            let plan = plan_matrix(
                &mut m,
                &a5,
                Vm::Lvm,
                ArgScale::Tiny,
                &[Variant::Baseline, Variant::Scd],
                true,
            );
            let r = m.run(threads, false);
            let matrix = plan.resolve(&r);
            let speedups: Vec<f64> = matrix
                .rows
                .iter()
                .map(|row| row.speedup(Variant::Scd))
                .collect();
            let events: Vec<u64> = matrix
                .rows
                .iter()
                .map(|row| row.breakdown(Variant::Scd).events)
                .collect();
            (speedups, events)
        };
        let one = plan_and_run(1);
        let four = plan_and_run(4);
        assert_eq!(one, four, "thread count must not change any result");
        // SCD wins on geomean even at tiny scale.
        let g = scd_sim::geomean(&one.0).expect("positive speedups");
        assert!(g > 1.0, "geomean speedup {g} <= 1");
    }
}
