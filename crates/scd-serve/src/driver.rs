//! The panic-isolated batch driver: a worker pool that streams job
//! outcomes in input order with backpressure, survives worker panics,
//! retries transient failures once, and drains cleanly on interrupt.
//!
//! This is the one pool that runs simulation cells: `scd serve` batches
//! and the `scd-bench` figure sweep both hand their jobs to [`run_batch`]
//! with [`simulate_job`] as the runner, so cache lookup, validation,
//! panic isolation and retry behave the same for both. Results stream
//! as they complete (bounded channel, reorder buffer), and the pool
//! keeps going when a worker dies. The two properties that make
//! interruption safe:
//!
//! - workers check the interrupt flag *before* claiming an index, and
//!   the shared cursor hands indices out monotonically — so the claimed
//!   set is always a contiguous prefix and every unclaimed job is
//!   reported [`JobOutcome::Cancelled`] rather than silently dropped;
//! - in-flight jobs run to completion (and commit their cache entries)
//!   before the drain finishes, so an interrupted batch resumes as
//!   cache hits.

use crate::cache::Cache;
use crate::jobs::{JobDone, JobError, JobOutcome, JobSpec};
use crate::payload::{self, CachedRun};
use scd_guest::GuestError;
use scd_sim::{downcast_sink, CycleBreakdown, SimError, WatchdogKind};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Stride for the stat-invariant checker on traced jobs, the sweep's
/// traced figure cells included. Those run in release builds, where the
/// checker is otherwise off, so every decomposed figure comes from a
/// run whose counters passed the cross-checks.
const INVARIANT_STRIDE: u64 = 1 << 16;

/// What a finished batch looked like.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct BatchSummary {
    /// Jobs that completed and validated.
    pub ok: usize,
    /// Jobs that failed (after any retry).
    pub failed: usize,
    /// Jobs never started because the batch was interrupted.
    pub cancelled: usize,
}

impl BatchSummary {
    /// Whether the batch was cut short.
    pub fn interrupted(&self) -> bool {
        self.cancelled > 0
    }
}

/// Extracts a printable message from a panic payload (the
/// `catch_unwind` error value). Shared with `scd-bench`'s `parallel_map`
/// so both report worker panics the same way.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Runs `runner` once per job on `threads` workers, delivering every
/// outcome to `emit` **in input order** (a reorder buffer over a
/// bounded channel: slow consumers exert backpressure on the pool).
///
/// Panic isolation and retry live here, wrapped around `runner`: a
/// panicking worker yields [`JobError::Panic`] for that job and the
/// pool keeps going; transient failures (panics, I/O) get exactly one
/// retry, deterministic failures none. When `interrupt` becomes true,
/// workers stop claiming new jobs, in-flight jobs finish, and every
/// unclaimed job is emitted as [`JobOutcome::Cancelled`].
pub fn run_batch<F>(
    jobs: &[JobSpec],
    threads: usize,
    interrupt: &AtomicBool,
    runner: F,
    mut emit: impl FnMut(usize, &JobSpec, &JobOutcome),
) -> BatchSummary
where
    F: Fn(&JobSpec) -> Result<JobDone, JobError> + Sync,
{
    let attempt = |job: &JobSpec| -> JobOutcome {
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            let error = match catch_unwind(AssertUnwindSafe(|| runner(job))) {
                Ok(Ok(mut done)) => {
                    done.attempts = attempts;
                    return JobOutcome::Done(Box::new(done));
                }
                Ok(Err(e)) => e,
                Err(payload) => JobError::Panic(panic_message(payload)),
            };
            if attempts >= 2 || !error.transient() {
                return JobOutcome::Failed { error, attempts };
            }
        }
    };

    let mut summary = BatchSummary::default();
    let mut tally = |o: &JobOutcome| match o {
        JobOutcome::Done(_) => summary.ok += 1,
        JobOutcome::Failed { .. } => summary.failed += 1,
        JobOutcome::Cancelled => summary.cancelled += 1,
    };

    let threads = threads.clamp(1, jobs.len().max(1));
    if threads == 1 {
        for (i, job) in jobs.iter().enumerate() {
            let outcome =
                if interrupt.load(Ordering::SeqCst) { JobOutcome::Cancelled } else { attempt(job) };
            tally(&outcome);
            emit(i, job, &outcome);
        }
        return summary;
    }

    let cursor = AtomicUsize::new(0);
    // Bounded: a consumer that falls behind stalls the pool instead of
    // letting results pile up unboundedly.
    let (tx, rx) = mpsc::sync_channel::<(usize, JobOutcome)>(2 * threads);
    std::thread::scope(|s| {
        for _ in 0..threads {
            let tx = tx.clone();
            let cursor = &cursor;
            let attempt = &attempt;
            s.spawn(move || loop {
                if interrupt.load(Ordering::SeqCst) {
                    break;
                }
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(job) = jobs.get(i) else { break };
                if tx.send((i, attempt(job))).is_err() {
                    break;
                }
            });
        }
        drop(tx);

        // Reorder: outcomes surface in input order no matter which
        // worker finished first.
        let mut next = 0usize;
        let mut pending = BTreeMap::new();
        for (i, outcome) in rx {
            pending.insert(i, outcome);
            while let Some(outcome) = pending.remove(&next) {
                tally(&outcome);
                emit(next, &jobs[next], &outcome);
                next += 1;
            }
        }
        // Claims are a contiguous prefix (interrupt is checked before
        // each claim), so everything left is unclaimed → cancelled.
        debug_assert!(pending.is_empty(), "non-contiguous claim set");
        for (i, job) in jobs.iter().enumerate().skip(next) {
            let outcome = JobOutcome::Cancelled;
            tally(&outcome);
            emit(i, job, &outcome);
        }
    });
    summary
}

/// Runs one job for real: cache lookup, simulate + oracle-validate on
/// miss, cache store. This is the `runner` the `scd serve` subcommand
/// passes to [`run_batch`].
///
/// # Errors
/// [`JobError`] describing the failure; [`JobError::Io`] (a failed
/// cache store) is transient and will be retried once by the driver.
pub fn simulate_job(
    job: &JobSpec,
    cache: Option<&Cache>,
    timeout: Option<Duration>,
) -> Result<JobDone, JobError> {
    let started = Instant::now();
    let key = cache.map(|_| Cache::key(&job.cache_manifest())).unwrap_or_default();
    if let Some(c) = cache {
        if let Some(bytes) = c.load(&key) {
            // The checksum passed but the payload may still predate a
            // format change; a decode failure (or a breakdown missing
            // where the job needs one) degrades to recompute.
            if let Ok(run) =
                std::str::from_utf8(&bytes).map_err(|e| e.to_string()).and_then(payload::decode)
            {
                // A traced job needs a breakdown; a sampled job needs a
                // sample report (and a detailed job must not get one) —
                // the manifests already keep these apart, so this only
                // guards against entries that predate a format change.
                if (!job.traced || run.breakdown.is_some())
                    && (job.sample.is_some() == run.sample.is_some())
                {
                    return Ok(JobDone {
                        key,
                        cached: true,
                        attempts: 1,
                        run,
                        wall: started.elapsed(),
                    });
                }
            }
        }
    }

    let run = compute_job(job, timeout)?;
    if let Some(c) = cache {
        let text = payload::encode(&run);
        c.store(&key, text.as_bytes())
            .map_err(|e| JobError::Io(format!("cache store {}: {e}", c.root().display())))?;
    }
    Ok(JobDone { key, cached: false, attempts: 1, run, wall: started.elapsed() })
}

/// Simulates and oracle-validates one job (no cache involvement).
fn compute_job(job: &JobSpec, timeout: Option<Duration>) -> Result<CachedRun, JobError> {
    job.with_request(|req| {
        let mut session = req.session().map_err(JobError::Compile)?;
        let m = &mut session.machine;
        if job.traced {
            m.enable_invariants(INVARIANT_STRIDE);
            m.set_trace_sink(Box::new(CycleBreakdown::default()));
        } else {
            // Uninstrumented: the fast loop, or the sampled scheduler,
            // which forbids per-retirement observers.
            m.disable_invariants();
        }
        if let Some(t) = timeout {
            m.set_wall_budget(t);
        }
        let run = match &job.sample {
            Some(plan) => session.run_sampled_and_validate(job.max_insts, plan),
            None => session.run_and_validate(job.max_insts),
        };
        let run = match run {
            Ok(run) => run,
            Err(GuestError::Sim(SimError::Watchdog { kind: WatchdogKind::WallClock, .. })) => {
                return Err(JobError::Timeout(timeout.unwrap_or_default()))
            }
            Err(e) => return Err(JobError::Guest(e.to_string())),
        };
        let breakdown = if job.traced {
            let sink = session
                .machine
                .take_trace_sink()
                .and_then(downcast_sink::<CycleBreakdown>)
                .ok_or_else(|| {
                    JobError::Guest("trace sink did not come back from the machine".to_string())
                })?;
            Some(*sink)
        } else {
            None
        };
        Ok(CachedRun::from_run(&run, breakdown.as_ref()))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use scd_guest::{GuestOptions, Scheme, Vm};
    use scd_sim::{SimConfig, SimStats};
    use std::sync::atomic::AtomicU32;
    use std::sync::Mutex;

    fn job(id: &str) -> JobSpec {
        JobSpec {
            id: id.to_string(),
            vm: Vm::Lvm,
            scheme: Scheme::Scd,
            cfg: SimConfig::embedded_a5(),
            src: "emit(1);".to_string(),
            predefined: Vec::new(),
            max_insts: u64::MAX,
            opts: GuestOptions::default(),
            traced: false,
            sample: None,
        }
    }

    fn done() -> JobDone {
        JobDone {
            key: String::new(),
            cached: false,
            attempts: 1,
            run: CachedRun {
                checksum: 0,
                dispatches: 0,
                stats: SimStats::default(),
                breakdown: None,
                sample: None,
            },
            wall: Duration::ZERO,
        }
    }

    fn collect(
        jobs: &[JobSpec],
        threads: usize,
        interrupt: &AtomicBool,
        runner: impl Fn(&JobSpec) -> Result<JobDone, JobError> + Sync,
    ) -> (BatchSummary, Vec<(usize, JobOutcome)>) {
        let mut seen = Vec::new();
        let summary =
            run_batch(jobs, threads, interrupt, runner, |i, _, o| seen.push((i, o.clone())));
        (summary, seen)
    }

    #[test]
    fn sampled_job_times_out() {
        // Hundreds of millions of guest instructions: the timeout must
        // fire during the sampled run's fast-forward legs.
        let mut j = job("long");
        j.src = "var s = 0; for i = 1, 100000000 { s = s + i % 7; } emit(s);".to_string();
        j.sample = Some(scd_sim::SamplingPlan::new(1_000_000, 20_000, 20_000).unwrap());
        match simulate_job(&j, None, Some(Duration::from_millis(50))) {
            Err(JobError::Timeout(t)) => assert_eq!(t, Duration::from_millis(50)),
            other => panic!("expected a timeout, got {other:?}"),
        }
    }

    #[test]
    fn panicking_worker_is_isolated_per_job() {
        let jobs: Vec<JobSpec> = ["a", "bad", "c", "d"].map(job).to_vec();
        for threads in [1, 3] {
            let (summary, seen) = collect(&jobs, threads, &AtomicBool::new(false), |j| {
                if j.id == "bad" {
                    panic!("injected worker panic for {}", j.id);
                }
                Ok(done())
            });
            assert_eq!(summary, BatchSummary { ok: 3, failed: 1, cancelled: 0 });
            let order: Vec<usize> = seen.iter().map(|(i, _)| *i).collect();
            assert_eq!(order, vec![0, 1, 2, 3], "threads={threads}: order must be input order");
            match &seen[1].1 {
                JobOutcome::Failed { error: JobError::Panic(msg), attempts: 2 } => {
                    assert!(msg.contains("injected worker panic"), "payload kept: {msg}");
                }
                other => panic!("want Panic after one retry, got {other:?}"),
            }
        }
    }

    #[test]
    fn transient_failure_gets_exactly_one_retry() {
        let jobs = vec![job("flaky")];
        let calls = AtomicU32::new(0);
        let (summary, seen) = collect(&jobs, 1, &AtomicBool::new(false), |_| {
            if calls.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("first attempt dies");
            }
            Ok(done())
        });
        assert_eq!(calls.load(Ordering::SeqCst), 2);
        assert_eq!(summary.ok, 1);
        match &seen[0].1 {
            JobOutcome::Done(d) => assert_eq!(d.attempts, 2),
            other => panic!("want Done on retry, got {other:?}"),
        }
    }

    #[test]
    fn deterministic_failures_are_not_retried() {
        let jobs = vec![job("broken")];
        let calls = AtomicU32::new(0);
        let (summary, seen) = collect(&jobs, 1, &AtomicBool::new(false), |_| {
            calls.fetch_add(1, Ordering::SeqCst);
            Err(JobError::Guest("checksum mismatch".to_string()))
        });
        assert_eq!(calls.load(Ordering::SeqCst), 1, "guest errors repeat; don't retry them");
        assert_eq!(summary.failed, 1);
        assert!(matches!(
            &seen[0].1,
            JobOutcome::Failed { error: JobError::Guest(_), attempts: 1 }
        ));
    }

    #[test]
    fn io_failures_are_retried_panics_preserved() {
        let jobs = vec![job("io")];
        let calls = AtomicU32::new(0);
        let (_, seen) = collect(&jobs, 1, &AtomicBool::new(false), |_| {
            calls.fetch_add(1, Ordering::SeqCst);
            Err(JobError::Io("disk full".to_string()))
        });
        assert_eq!(calls.load(Ordering::SeqCst), 2, "I/O errors are transient: one retry");
        assert!(matches!(&seen[0].1, JobOutcome::Failed { error: JobError::Io(_), attempts: 2 }));
    }

    #[test]
    fn interrupt_cancels_unclaimed_jobs() {
        let jobs: Vec<JobSpec> = (0..6).map(|i| job(&format!("j{i}"))).collect();
        let interrupt = AtomicBool::new(false);
        let started = Mutex::new(Vec::new());
        let (summary, seen) = collect(&jobs, 1, &interrupt, |j| {
            started.lock().unwrap().push(j.id.clone());
            if j.id == "j1" {
                // Simulate SIGINT arriving while job 1 runs.
                interrupt.store(true, Ordering::SeqCst);
            }
            Ok(done())
        });
        assert_eq!(summary, BatchSummary { ok: 2, failed: 0, cancelled: 4 });
        assert!(summary.interrupted());
        assert_eq!(*started.lock().unwrap(), vec!["j0", "j1"], "in-flight jobs finish");
        for (i, o) in &seen[2..] {
            assert!(matches!(o, JobOutcome::Cancelled), "job {i} must be cancelled");
        }
    }

    #[test]
    fn interrupt_with_pool_reports_every_job() {
        // With several workers the exact cut point varies; the contract
        // is: every job gets exactly one outcome, in input order, and
        // claimed ∪ cancelled covers the batch.
        let jobs: Vec<JobSpec> = (0..32).map(|i| job(&format!("j{i}"))).collect();
        let interrupt = AtomicBool::new(false);
        let (summary, seen) = collect(&jobs, 4, &interrupt, |j| {
            if j.id == "j3" {
                interrupt.store(true, Ordering::SeqCst);
            }
            Ok(done())
        });
        assert_eq!(seen.len(), jobs.len());
        let order: Vec<usize> = seen.iter().map(|(i, _)| *i).collect();
        assert_eq!(order, (0..jobs.len()).collect::<Vec<_>>());
        assert_eq!(summary.ok + summary.failed + summary.cancelled, jobs.len());
        assert!(summary.cancelled > 0, "interrupt must cancel the tail");
        // Cancelled outcomes form a suffix: claims are a contiguous
        // prefix by construction.
        let first_cancelled = seen
            .iter()
            .position(|(_, o)| matches!(o, JobOutcome::Cancelled))
            .expect("some job cancelled");
        for (i, o) in &seen[first_cancelled..] {
            assert!(matches!(o, JobOutcome::Cancelled), "job {i} in the cancelled suffix");
        }
    }

    #[test]
    fn pool_preserves_input_order_under_contention() {
        let jobs: Vec<JobSpec> = (0..64).map(|i| job(&format!("j{i}"))).collect();
        let (summary, seen) = collect(&jobs, 8, &AtomicBool::new(false), |j| {
            // Vary the work so completion order scrambles.
            let spin = j.id.len() * 1000;
            std::hint::black_box((0..spin).sum::<usize>());
            Ok(done())
        });
        assert_eq!(summary.ok, 64);
        let order: Vec<usize> = seen.iter().map(|(i, _)| *i).collect();
        assert_eq!(order, (0..64).collect::<Vec<_>>());
    }
}
