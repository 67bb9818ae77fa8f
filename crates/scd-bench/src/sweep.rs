//! The shared run matrix behind every figure and table.
//!
//! Historically each `scd-bench` binary re-ran its own slice of the
//! evaluation matrix (benchmark × VM × scheme × `SimConfig`), so
//! regenerating the full evaluation re-simulated heavily overlapping
//! cell sets strictly sequentially. This module splits *planning* from
//! *execution*:
//!
//! 1. every figure contributes the cells it needs to one [`RunMatrix`]
//!    builder, which deduplicates them by their full identity — the
//!    cache manifest of the cell's job, minus the trace flag;
//! 2. [`RunMatrix::run`] turns each unique cell into an `scd-serve`
//!    [`JobSpec`] and runs the batch through the serve driver
//!    ([`run_batch`] with [`simulate_job`] as the runner): the same
//!    pool, cache lookup, oracle validation, panic isolation and retry
//!    that `scd serve` uses. Outcomes arrive in planning order, so the
//!    reduction order — and therefore every rendered byte — is
//!    deterministic regardless of thread count;
//! 3. figures render from the shared [`SweepResults`] via stable
//!    [`CellId`] handles.
//!
//! Untraced cells run uninstrumented on the machine's fast loop (oracle
//! checksum validation still gates every cell), or under interval
//! sampling when the matrix has a plan. Traced cells carry a
//! [`CycleBreakdown`] sink and the invariant checker armed, which
//! selects the observed loop. The two loops produce bit-identical
//! statistics (`tests/golden_stats.rs`) and the trace layer is
//! stat-invariant, so a cell shared between a traced and an untraced
//! consumer is run once, traced, and both read identical statistics.
//! Each cell is one thread: a sweep at `--threads N` keeps at most `N`
//! CPUs busy.

use crate::{ArgScale, Variant};
use luma::scripts::{Benchmark, BENCHMARKS};
use scd_guest::{GuestOptions, Scheme, Vm};
use scd_serve::{
    panic_message, run_batch, simulate_job, Cache, CachedRun, JobDone, JobOutcome, JobSpec,
};
use scd_sim::{CycleBreakdown, SamplingPlan, SimConfig};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
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
    /// Progress and error label: `bench [vm / scheme]`.
    fn label(&self) -> String {
        format!("{} [{} / {}]", self.bench.name, self.vm.name(), self.scheme.name())
    }

    /// The serve job that runs this cell. A traced cell always runs full
    /// detail: the cycle breakdown is a per-retirement observation, a
    /// fragment over a sampled run, and the driver would drop it.
    fn job(&self, sample: Option<SamplingPlan>) -> JobSpec {
        JobSpec {
            id: self.label(),
            vm: self.vm,
            scheme: self.scheme,
            cfg: self.cfg.clone(),
            src: self.bench.source.to_string(),
            predefined: vec![("N".to_string(), self.arg)],
            max_insts: u64::MAX,
            opts: self.opts,
            traced: self.traced,
            sample: if self.traced { None } else { sample },
        }
    }

    /// Dedup key: the cell's job manifest with `traced` left out
    /// (tracing is stat-invariant, so it widens a cell rather than
    /// splitting it).
    fn key(&self) -> String {
        let mut job = self.job(None);
        job.traced = false;
        job.cache_manifest()
    }
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
    /// persistent result [`Cache`] (the cells run as serve jobs, so
    /// their entries interoperate with `scd serve`) and an optional
    /// interrupt flag. When the flag becomes true, in-flight cells
    /// finish — and commit their cache entries — but no new cell is
    /// claimed, and the sweep returns [`SweepError::Interrupted`]; a
    /// rerun against the same cache resumes as hits.
    ///
    /// # Errors
    /// [`SweepError::Cell`] on the first cell that fails to compile,
    /// validate or persist, or whose worker panicked, after the serve
    /// driver's one retry of panics and I/O failures;
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
        let jobs: Vec<JobSpec> = self.cells.iter().map(|c| c.job(self.sample)).collect();
        // Without a caller's flag nothing ever interrupts the batch, so
        // Ctrl-C keeps its default kill.
        let never = AtomicBool::new(false);
        let done = AtomicUsize::new(0);
        let runner = |job: &JobSpec| {
            let out = simulate_job(job, cache, None);
            if progress {
                match &out {
                    Ok(d) => {
                        let n = done.fetch_add(1, Ordering::Relaxed) + 1;
                        eprintln!("  [{n}/{total}] {} {:.2}s", job.id, d.wall.as_secs_f64());
                    }
                    Err(e) => eprintln!("  {} FAILED: {}", job.id, e.message()),
                }
            }
            out
        };
        let mut cells = Vec::with_capacity(total);
        let mut failure = None;
        run_batch(&jobs, threads, interrupt.unwrap_or(&never), runner, |_, job, outcome| {
            match outcome {
                JobOutcome::Done(d) => cells.push((**d).clone()),
                JobOutcome::Failed { error, .. } => {
                    let msg = format!("{}: {} failure: {}", job.id, error.kind(), error.message());
                    failure.get_or_insert(SweepError::Cell(msg));
                }
                JobOutcome::Cancelled => {
                    failure.get_or_insert(SweepError::Interrupted);
                }
            }
        });
        if let Some(e) = failure {
            return Err(e);
        }
        Ok(SweepResults { specs: self.cells, hits: self.hits, cells, wall: started.elapsed() })
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

/// Order-preserving parallel map over a slice using scoped threads: a
/// shared atomic cursor hands out indices, the calling thread works
/// alongside `threads - 1` spawned ones, and the output order matches
/// the input order exactly. With `threads <= 1` nothing is spawned.
///
/// # Panics
/// Each item runs under `catch_unwind`, so one bad item does not stop
/// the others: the first worker panic (in input order) is re-raised,
/// with its original message, only after every other item completed.
pub fn parallel_map<T, U, F>(items: &[T], threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else {
                return done;
            };
            done.push((i, catch_unwind(AssertUnwindSafe(|| f(item)))));
        }
    };
    let threads = threads.clamp(1, items.len().max(1));
    let mut done = std::thread::scope(|s| {
        let spawned: Vec<_> = (1..threads).map(|_| s.spawn(work)).collect();
        let mut done = work();
        for h in spawned {
            done.extend(h.join().expect("items panic inside catch_unwind"));
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    let mut first_panic = None;
    let results = done
        .into_iter()
        .filter_map(|(_, out)| match out {
            Ok(v) => Some(v),
            Err(payload) => {
                first_panic.get_or_insert_with(|| panic_message(payload));
                None
            }
        })
        .collect();
    match first_panic {
        None => results,
        Some(msg) => panic!("parallel_map worker panicked: {msg}"),
    }
}

/// The executed matrix: one serve [`JobDone`] per unique planned cell,
/// plus the wall-clock accounting the sweep driver reports.
pub struct SweepResults {
    specs: Vec<CellSpec>,
    hits: Vec<usize>,
    cells: Vec<JobDone>,
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
    pub fn get(&self, id: CellId) -> &CachedRun {
        &self.cells[id.0].run
    }

    /// The cycle decomposition of `id`.
    ///
    /// # Panics
    /// Panics when the cell was planned untraced.
    pub fn breakdown(&self, id: CellId) -> &CycleBreakdown {
        self.cells[id.0].run.breakdown.as_ref().expect("cell was planned traced")
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
    pub fn iter(&self) -> impl Iterator<Item = (&CellSpec, usize, &JobDone)> {
        self.specs.iter().zip(&self.hits).zip(&self.cells).map(|((s, &h), c)| (s, h, c))
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
                .map(|(b, cells)| MatrixRow { bench: b, cells: cells.clone(), results: r })
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
        self.cells.iter().find(|(vv, _)| *vv == v).expect("variant present").1
    }

    /// The validated run of variant `v`.
    pub fn get(&self, v: Variant) -> &'r CachedRun {
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
        assert!(msg.contains("injected cell failure"), "message preserved: {msg}");
        assert_eq!(completed.load(Ordering::SeqCst), 7, "the other items still ran");
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
            let r = m.run_cached(2, false, Some(cache), None).expect("sweep clean");
            let matrix = plan.resolve(&r);
            let mut snap = Vec::new();
            for row in &matrix.rows {
                for v in [Variant::Baseline, Variant::Scd] {
                    let run = row.get(v);
                    snap.push((run.checksum, run.dispatches, run.stats.clone(), *row.breakdown(v)));
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

        // Flip one payload byte of one committed record: quarantined,
        // that one cell recomputes, and the numbers still match.
        flip_first_payload_byte(&dir);
        let hurt_cache = Cache::open(&dir).expect("reopen cache");
        let healed = sweep(&hurt_cache);
        assert_eq!(cold, healed, "recomputed results must be bit-identical");
        assert_eq!(stat(&hurt_cache.stats.quarantined), 1);
        assert_eq!(stat(&hurt_cache.stats.misses), 0, "quarantines are counted apart");
        assert_eq!(stat(&hurt_cache.stats.hits), cells - 1);
        assert_eq!(stat(&hurt_cache.stats.stores), 1, "the healed entry is re-committed");

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A sampled matrix validates every cell against the oracle, caches
    /// under keys disjoint from full-detail entries, and resumes warm
    /// with the sample report intact — the sweep-layer guarantees of the
    /// sampling tentpole.
    #[test]
    fn sampled_matrix_validates_and_caches_separately() {
        let dir = std::env::temp_dir()
            .join(format!("scd-sweep-sample-cache-test-{}", std::process::id()));
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
            let r = m.run_cached(2, false, Some(cache), None).expect("sweep clean");
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
        assert_eq!(stat(&smp_cache.stats.hits), 0, "plans must split cache keys");
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
        assert_eq!(stat(&warm_cache.stats.hits), cells, "every sampled cell must hit");
        assert_eq!(smp, warm);

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The sweep and `scd serve` share one cache. For a full-detail, a
    /// traced and a sampled sweep cell, the JSONL job a user would write
    /// for the same run is answered from the entry the sweep stored,
    /// equal to the sweep's result field for field.
    #[test]
    fn sweep_cache_serves_serve_jobs() {
        let dir = std::env::temp_dir()
            .join(format!("scd-sweep-serve-interop-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let a5 = SimConfig::embedded_a5();
        let b = &BENCHMARKS[0];
        let cache = Cache::open(&dir).expect("open cache");

        let mut m = RunMatrix::new();
        let detailed = m.variant(&a5, Vm::Lvm, b, ArgScale::Tiny, Variant::Baseline, false);
        let traced = m.variant(&a5, Vm::Svm, b, ArgScale::Tiny, Variant::Scd, true);
        let full = m.run_cached(2, false, Some(&cache), None).expect("sweep clean");
        let mut m = RunMatrix::new();
        m.set_sample(Some(SamplingPlan::parse("60k:10k:6k").expect("valid plan")));
        let sampled = m.variant(&a5, Vm::Lvm, b, ArgScale::Tiny, Variant::Scd, false);
        let smp = m.run_cached(1, false, Some(&cache), None).expect("sweep clean");
        assert!(full.get(traced).breakdown.is_some());
        assert!(smp.get(sampled).sample.is_some());

        let (name, arg) = (b.name, ArgScale::Tiny.arg(b));
        let common = format!(
            "\"bench\": \"{name}\", \"cfg\": \"embedded_a5\", \"predefined\": {{\"N\": {arg}}}"
        );
        let text = format!(
            "{{{common}, \"vm\": \"lvm\", \"scheme\": \"baseline\"}}\n\
             {{{common}, \"vm\": \"svm\", \"scheme\": \"scd\", \"traced\": true}}\n\
             {{{common}, \"vm\": \"lvm\", \"scheme\": \"scd\", \"sample\": \"60k:10k:6k\"}}\n"
        );
        let jobs = scd_serve::parse_jobs(&text).expect("jobs parse");
        let want = [full.get(detailed), full.get(traced), smp.get(sampled)];
        assert_eq!(jobs.len(), want.len());
        let serve_cache = Cache::open(&dir).expect("reopen cache");
        for (job, want) in jobs.iter().zip(want) {
            let done = simulate_job(job, Some(&serve_cache), None).expect("job runs");
            assert!(done.cached, "{}: serve must hit the sweep's entry", job.id);
            assert_eq!(&done.run, want, "{}: cached run differs", job.id);
        }
        assert_eq!(serve_cache.stats.misses.load(Ordering::SeqCst), 0);

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Flips the first payload byte of the first record of the first
    /// pack under `<dir>/packs/` (a record's payload follows its 32-byte
    /// key and 24-byte header).
    fn flip_first_payload_byte(dir: &std::path::Path) {
        let mut packs: Vec<_> = std::fs::read_dir(dir.join("packs"))
            .expect("packs dir")
            .map(|e| e.expect("dir entry").path())
            .collect();
        packs.sort();
        let pack = packs.first().expect("a committed pack");
        let mut bytes = std::fs::read(pack).expect("read pack");
        bytes[56] ^= 0x01;
        std::fs::write(pack, &bytes).expect("write pack");
    }

    /// The cache's contents do not depend on the thread count: the tiny
    /// matrix run at 1 and at 3 threads into two fresh caches stores
    /// every cell under the same key with the same bytes.
    #[test]
    fn cache_contents_are_thread_count_invariant() {
        let a5 = SimConfig::embedded_a5();
        let plan = |m: &mut RunMatrix| {
            plan_matrix(m, &a5, Vm::Lvm, ArgScale::Tiny, &[Variant::Baseline, Variant::Scd], false);
        };
        let mut probe = RunMatrix::new();
        plan(&mut probe);
        let keys: Vec<String> =
            probe.cells.iter().map(|c| Cache::key(&c.job(probe.sample).cache_manifest())).collect();
        let caches: Vec<(std::path::PathBuf, Cache)> = [1, 3]
            .into_iter()
            .map(|threads| {
                let dir = std::env::temp_dir()
                    .join(format!("scd-sweep-threads-{threads}-test-{}", std::process::id()));
                let _ = std::fs::remove_dir_all(&dir);
                let cache = Cache::open(&dir).expect("open cache");
                let mut m = RunMatrix::new();
                plan(&mut m);
                m.run_cached(threads, false, Some(&cache), None).expect("sweep clean");
                assert_eq!(
                    cache.stats.stores.load(Ordering::SeqCst),
                    keys.len() as u64,
                    "{threads} thread(s): one store per cell"
                );
                (dir, cache)
            })
            .collect();
        for key in &keys {
            let one = caches[0].1.load(key).expect("stored at 1 thread");
            let three = caches[1].1.load(key).expect("stored at 3 threads");
            assert!(one == three, "{key}: bytes differ between thread counts");
        }
        for (dir, _) in caches {
            let _ = std::fs::remove_dir_all(dir);
        }
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
            let speedups: Vec<f64> =
                matrix.rows.iter().map(|row| row.speedup(Variant::Scd)).collect();
            let events: Vec<u64> =
                matrix.rows.iter().map(|row| row.breakdown(Variant::Scd).events).collect();
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
