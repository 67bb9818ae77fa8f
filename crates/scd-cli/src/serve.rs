//! `scd serve` — the crash-safe batch front end over `scd-serve`.
//!
//! Reads a JSONL job file (one simulation request per line, see
//! `scd_serve::jobs`), runs the batch on a panic-isolated worker pool,
//! and streams one JSONL result line per job to stdout **in input
//! order** as results become available. With `--cache DIR` every job
//! first consults the content-addressed on-disk result cache (shared
//! with `sweep --cache`); completed jobs commit their entries even when
//! the batch is later interrupted. `--cache-stats` prints the cache's
//! end-of-run counter summary (hits/misses/stores/quarantined/
//! recovered) to stderr.
//!
//! A first SIGINT drains in-flight jobs — their result lines still
//! stream out and their cache entries commit — marks the unclaimed tail
//! `cancelled`, flushes the cache, and exits 130. A second SIGINT kills
//! the process (default disposition is restored by the handler).
//!
//! Exit codes: 0 every job ok, 1 some job failed (the batch still ran
//! to completion), 2 usage or malformed job file, 70 harness I/O
//! failure, 130 interrupted.

use crate::{usage, EXIT_INTERNAL};
use scd_serve::{
    install_sigint_flag, parse_jobs, render_result, run_batch, simulate_job, Cache, JobOutcome,
    EXIT_SIGINT,
};
use std::io::Write as _;
use std::process::exit;
use std::time::{Duration, Instant};

/// Some jobs failed; their result lines carry the error details.
const EXIT_JOBS_FAILED: i32 = 1;

struct ServeOpts {
    jobs: String,
    cache: Option<String>,
    cache_stats: bool,
    threads: usize,
    timeout: Option<Duration>,
}

fn parse_serve_opts(mut argv: impl Iterator<Item = String>) -> ServeOpts {
    let mut jobs = None;
    let mut cache = None;
    let mut cache_stats = false;
    let mut threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut timeout = None;
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--jobs" => jobs = Some(argv.next().unwrap_or_else(|| usage())),
            "--cache" => cache = Some(argv.next().unwrap_or_else(|| usage())),
            "--cache-stats" => cache_stats = true,
            "--threads" => {
                let v = argv.next().unwrap_or_else(|| usage());
                threads = v.parse::<usize>().ok().filter(|&n| n > 0).unwrap_or_else(|| usage());
            }
            "--timeout" => {
                let v = argv.next().unwrap_or_else(|| usage());
                let secs: f64 = v.parse().unwrap_or_else(|_| usage());
                if !secs.is_finite() || secs <= 0.0 {
                    usage();
                }
                timeout = Some(Duration::from_secs_f64(secs));
            }
            _ => usage(),
        }
    }
    ServeOpts { jobs: jobs.unwrap_or_else(|| usage()), cache, cache_stats, threads, timeout }
}

pub(crate) fn cmd_serve(argv: impl Iterator<Item = String>) {
    let o = parse_serve_opts(argv);
    let text = std::fs::read_to_string(&o.jobs).unwrap_or_else(|e| {
        eprintln!("cannot read jobs file {}: {e}", o.jobs);
        exit(EXIT_INTERNAL);
    });
    let jobs = parse_jobs(&text).unwrap_or_else(|e| {
        eprintln!("bad jobs file {}: {e}", o.jobs);
        exit(2);
    });
    if jobs.is_empty() {
        eprintln!("{}: no jobs", o.jobs);
        return;
    }
    let cache = o.cache.as_ref().map(|dir| {
        Cache::open(dir).unwrap_or_else(|e| {
            eprintln!("cannot open cache {dir}: {e}");
            exit(EXIT_INTERNAL);
        })
    });

    let interrupt = install_sigint_flag();
    let started = Instant::now();
    eprintln!(
        "serve: {} job(s), {} thread(s){}{}",
        jobs.len(),
        o.threads,
        o.timeout.map(|t| format!(", {:.0}s/job timeout", t.as_secs_f64())).unwrap_or_default(),
        o.cache.as_ref().map(|d| format!(", cache {d}")).unwrap_or_default(),
    );

    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let summary = run_batch(
        &jobs,
        o.threads,
        interrupt,
        |job| simulate_job(job, cache.as_ref(), o.timeout),
        |_, job, outcome| {
            // Stream: each line is flushed so a consumer (or a crash
            // post-mortem) sees every completed job immediately.
            let line = render_result(job, outcome);
            if writeln!(out, "{line}").and_then(|_| out.flush()).is_err() {
                // stdout is gone (broken pipe); nothing left to serve.
                exit(EXIT_INTERNAL);
            }
            if let JobOutcome::Failed { error, .. } = outcome {
                eprintln!("serve: job {} failed ({}): {}", job.id, error.kind(), error.message());
            }
        },
    );

    if let Some(c) = &cache {
        c.flush();
        if o.cache_stats {
            eprintln!("serve: cache {}", c.stats.summary());
        }
    }
    eprintln!(
        "serve: {} ok, {} failed, {} cancelled in {:.1}s",
        summary.ok,
        summary.failed,
        summary.cancelled,
        started.elapsed().as_secs_f64()
    );
    if summary.interrupted() {
        exit(EXIT_SIGINT);
    }
    if summary.failed > 0 {
        exit(EXIT_JOBS_FAILED);
    }
}
