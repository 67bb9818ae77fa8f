#![warn(missing_docs)]

//! # scd-serve — crash-safe batch simulation with a persistent result cache
//!
//! ROADMAP item 3: generalize the sweep's in-process deduplication
//! (1,111 requested cells → 594 simulated) into a persistent,
//! many-client service layer. The crate has two halves:
//!
//! - **[`cache`]** — a content-addressed on-disk store keyed by the
//!   SHA-256 of a run's canonical manifest (program source, `SimConfig`,
//!   scheme, inputs — see `RunRequest::cache_manifest` in `scd-guest`).
//!   Entries commit via temp-file + atomic rename behind a
//!   length-and-checksum header; corruption quarantines and recomputes,
//!   a killed writer's leftovers are swept on the next open. Crashes
//!   and bit rot cost time, never correctness and never a panic.
//! - **[`driver`]** — a panic-isolated worker pool that streams job
//!   outcomes in input order with backpressure, retries transient
//!   failures once, enforces a per-job wall-clock watchdog through the
//!   simulator's own budget mechanism, and drains in-flight jobs on
//!   interrupt so a Ctrl-C'd batch resumes as cache hits.
//!
//! The `scd serve --jobs file.jsonl` subcommand is the CLI client; the
//! sweep driver in `scd-bench` is the library client: it turns every
//! figure cell into a [`JobSpec`] and runs it through [`run_batch`] and
//! [`simulate_job`] (with the cache opt-in via `--cache DIR`). Both
//! derive keys through [`JobSpec::cache_manifest`], so their entries
//! interoperate: a sweep warms the cache for serve jobs and vice versa
//! (pinned by `sweep_cache_serves_serve_jobs` in `scd-bench`).
//!
//! Everything is hand-rolled on `std` only (the workspace builds
//! offline): [`sha256`] for keys, [`signal`] for SIGINT-as-a-flag via
//! the already-linked libc. Job files and payloads are read with
//! [`scd_sim::json`], the workspace's one JSON parser, and a payload's
//! `"stats"` object follows `scd_sim`'s counter table
//! ([`scd_sim::COUNTER_NAMES`]), so no counter list is kept here.

pub mod cache;
pub mod driver;
pub mod jobs;
pub mod payload;
pub mod sha256;
pub mod signal;

pub use cache::{Cache, CacheStats};
pub use driver::{panic_message, run_batch, simulate_job, BatchSummary};
pub use jobs::{parse_jobs, render_result, JobDone, JobError, JobOutcome, JobSpec};
pub use payload::CachedRun;
pub use signal::{install_sigint_flag, restore_default_sigpipe, EXIT_SIGINT};
