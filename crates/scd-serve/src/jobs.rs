//! Job specifications and result lines for the batch driver.
//!
//! A jobs file is JSONL: one job object per line, blank lines and
//! `#`-prefixed comment lines skipped. Example:
//!
//! ```text
//! {"id": "fib-scd", "bench": "recursive-fib", "vm": "lvm", "scheme": "scd", "predefined": {"N": 15}}
//! {"src": "var s=0; for i=1,N { s=s+i; } emit(s);", "vm": "svm", "scheme": "baseline", "predefined": {"N": 100}}
//! ```
//!
//! Fields: `bench` (corpus name from Table III) *or* `src` (inline Luma
//! source); `vm` (`lvm`/`svm`); `scheme` (`baseline`, `threaded`,
//! `scd`); optional `id` (defaults to the line number), `cfg`
//! (`embedded_a5` default, `fpga_rocket`, `highend_a8`), `predefined`
//! (object of numbers), `max_insts`, `production_weight`,
//! `scheduled_fetch`, `traced` (collect a cycle decomposition),
//! `sample` (`"default"` for the qualified default plan, or a
//! `"period:warmup:measure"` sampling plan, e.g.
//! `"1M:50k:20k"` — runs the job under interval sampling; incompatible
//! with `traced`).
//!
//! Results stream back as JSONL, one line per job in input order — see
//! [`render_result`].

use crate::json::{self, push_str_literal, Value};
use crate::payload::CachedRun;
use scd_guest::{GuestOptions, RunRequest, Scheme, Vm};
use scd_sim::{SamplingPlan, SimConfig};
use std::fmt::Write as _;
use std::time::Duration;

/// One parsed job: a fully resolved run request in owned form.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Client-chosen id echoed on the result line.
    pub id: String,
    /// Guest VM.
    pub vm: Vm,
    /// Dispatch scheme.
    pub scheme: Scheme,
    /// Simulated-core configuration.
    pub cfg: SimConfig,
    /// Luma source (inline, or resolved from the corpus `bench` name).
    pub src: String,
    /// Predefined variables, in job-file order.
    pub predefined: Vec<(String, f64)>,
    /// Retired-instruction budget.
    pub max_insts: u64,
    /// Interpreter build options.
    pub opts: GuestOptions,
    /// Whether to collect (and cache) a cycle decomposition.
    pub traced: bool,
    /// Interval-sampling plan (`None` runs full detail).
    pub sample: Option<SamplingPlan>,
}

impl JobSpec {
    /// Parses one JSONL job line (`line_no` is 1-based, used for the
    /// default id and error context).
    ///
    /// # Errors
    /// A description of the malformed line.
    pub fn parse(line: &str, line_no: usize) -> Result<JobSpec, String> {
        let v = json::parse(line).map_err(|e| format!("line {line_no}: {e}"))?;
        Self::from_value(&v, line_no).map_err(|e| format!("line {line_no}: {e}"))
    }

    fn from_value(v: &Value, line_no: usize) -> Result<JobSpec, String> {
        let id = match v.get("id") {
            Some(val) => val.as_str().ok_or("'id' must be a string")?.to_string(),
            None => format!("job-{line_no}"),
        };
        let vm = match v.get("vm").and_then(Value::as_str) {
            Some("lvm") => Vm::Lvm,
            Some("svm") => Vm::Svm,
            Some(other) => return Err(format!("unknown vm '{other}' (want lvm or svm)")),
            None => return Err("missing field 'vm'".to_string()),
        };
        let scheme = match v.get("scheme").and_then(Value::as_str) {
            Some("baseline") => Scheme::Baseline,
            Some("threaded" | "jump-threading") => Scheme::Threaded,
            Some("scd") => Scheme::Scd,
            Some(other) => return Err(format!("unknown scheme '{other}'")),
            None => return Err("missing field 'scheme'".to_string()),
        };
        let cfg = match v.get("cfg").and_then(Value::as_str) {
            None | Some("embedded_a5") => SimConfig::embedded_a5(),
            Some("fpga_rocket") => SimConfig::fpga_rocket(),
            Some("highend_a8") => SimConfig::highend_a8(),
            Some(other) => return Err(format!("unknown cfg '{other}'")),
        };
        let src = match (v.get("src"), v.get("bench")) {
            (Some(_), Some(_)) => return Err("give 'src' or 'bench', not both".to_string()),
            (Some(s), None) => s.as_str().ok_or("'src' must be a string")?.to_string(),
            (None, Some(b)) => {
                let name = b.as_str().ok_or("'bench' must be a string")?;
                luma::scripts::BENCHMARKS
                    .iter()
                    .find(|bm| bm.name == name)
                    .ok_or_else(|| format!("unknown benchmark '{name}'"))?
                    .source
                    .to_string()
            }
            (None, None) => return Err("missing 'src' or 'bench'".to_string()),
        };
        let mut predefined = Vec::new();
        if let Some(p) = v.get("predefined") {
            let Value::Obj(fields) = p else {
                return Err("'predefined' must be an object of numbers".to_string());
            };
            for (k, val) in fields {
                let num = val
                    .as_f64()
                    .ok_or_else(|| format!("predefined '{k}' must be a number"))?;
                predefined.push((k.clone(), num));
            }
        }
        let max_insts = match v.get("max_insts") {
            Some(m) => m
                .as_u64()
                .ok_or("'max_insts' must be an unsigned integer")?,
            None => u64::MAX,
        };
        let mut opts = GuestOptions::default();
        if let Some(b) = v.get("production_weight") {
            opts.production_weight = b.as_bool().ok_or("'production_weight' must be a bool")?;
        }
        if let Some(b) = v.get("scheduled_fetch") {
            opts.scheduled_fetch = b.as_bool().ok_or("'scheduled_fetch' must be a bool")?;
        }
        let traced = match v.get("traced") {
            Some(b) => b.as_bool().ok_or("'traced' must be a bool")?,
            None => false,
        };
        let sample = match v.get("sample") {
            Some(s) => {
                let plan = s
                    .as_str()
                    .ok_or("'sample' must be a period:warmup:measure string or \"default\"")?;
                Some(if plan == "default" {
                    SamplingPlan::qualified_default(false)
                } else {
                    SamplingPlan::parse(plan)?
                })
            }
            None => None,
        };
        if traced && sample.is_some() {
            // The trace sink is a per-retirement observer; sampled runs
            // cannot carry those (and a sampled breakdown would be a
            // fragment, not the whole-run decomposition callers expect).
            return Err("a job cannot be both traced and sampled".to_string());
        }
        Ok(JobSpec {
            id,
            vm,
            scheme,
            cfg,
            src,
            predefined,
            max_insts,
            opts,
            traced,
            sample,
        })
    }

    /// Runs `f` with the borrowed [`RunRequest`] view of this job.
    pub fn with_request<R>(&self, f: impl FnOnce(&RunRequest<'_>) -> R) -> R {
        let pre: Vec<(&str, f64)> = self
            .predefined
            .iter()
            .map(|(k, v)| (k.as_str(), *v))
            .collect();
        let req = RunRequest::new(self.cfg.clone(), self.vm, &self.src)
            .predefined(&pre)
            .scheme(self.scheme)
            .opts(self.opts)
            .max_insts(self.max_insts)
            .sample(self.sample);
        f(&req)
    }

    /// The cache manifest for this job: the request identity plus the
    /// trace discriminator (a traced entry carries a breakdown the
    /// untraced one does not, so they address different entries).
    pub fn cache_manifest(&self) -> String {
        self.with_request(|req| crate::driver::manifest_for(req, self.traced))
    }
}

/// Parses a whole jobs file (JSONL; blank and `#` comment lines are
/// skipped).
///
/// # Errors
/// The first malformed line, with its line number.
pub fn parse_jobs(text: &str) -> Result<Vec<JobSpec>, String> {
    let mut jobs = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        jobs.push(JobSpec::parse(trimmed, i + 1)?);
    }
    Ok(jobs)
}

/// Why a job failed. `transient()` failures get one retry; the rest are
/// deterministic and retrying would only repeat them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The job line or its program failed to parse/compile.
    Compile(String),
    /// The simulated run faulted or failed oracle validation.
    Guest(String),
    /// The per-job wall-clock watchdog fired.
    Timeout(Duration),
    /// The worker panicked (payload preserved).
    Panic(String),
    /// Host-side I/O failed (e.g. writing a cache entry).
    Io(String),
}

impl JobError {
    /// Whether one bounded retry is worth attempting.
    pub fn transient(&self) -> bool {
        matches!(self, JobError::Panic(_) | JobError::Io(_))
    }

    /// Stable machine-readable kind tag for result lines.
    pub fn kind(&self) -> &'static str {
        match self {
            JobError::Compile(_) => "compile",
            JobError::Guest(_) => "guest",
            JobError::Timeout(_) => "timeout",
            JobError::Panic(_) => "panic",
            JobError::Io(_) => "io",
        }
    }

    /// Human-readable detail.
    pub fn message(&self) -> String {
        match self {
            JobError::Compile(m) | JobError::Guest(m) | JobError::Panic(m) | JobError::Io(m) => {
                m.clone()
            }
            JobError::Timeout(d) => format!("wall-clock watchdog fired after {d:?}"),
        }
    }
}

/// One finished job as the driver reports it.
#[derive(Debug, Clone)]
pub struct JobDone {
    /// Cache key the result lives under (empty when no cache).
    pub key: String,
    /// Whether the result came from the cache.
    pub cached: bool,
    /// Attempts taken (2 = one retry).
    pub attempts: u32,
    /// The validated run.
    pub run: CachedRun,
    /// Host wall-clock time spent on this job.
    pub wall: Duration,
}

/// Terminal state of one job in the result stream.
#[derive(Debug, Clone)]
pub enum JobOutcome {
    /// Completed and validated. Boxed: a done job carries the full
    /// cached-run payload, dwarfing the other variants.
    Done(Box<JobDone>),
    /// Failed (after any retry).
    Failed {
        /// The final error.
        error: JobError,
        /// Attempts taken.
        attempts: u32,
    },
    /// Never claimed: the batch was interrupted first.
    Cancelled,
}

/// Renders one result line (no trailing newline) for `job`.
pub fn render_result(job: &JobSpec, outcome: &JobOutcome) -> String {
    let mut out = String::with_capacity(160);
    out.push_str("{\"id\":");
    push_str_literal(&mut out, &job.id);
    match outcome {
        JobOutcome::Done(done) => {
            out.push_str(",\"status\":\"ok\"");
            if !done.key.is_empty() {
                out.push_str(",\"key\":");
                push_str_literal(&mut out, &done.key);
            }
            let s = &done.run.stats;
            let _ = write!(
                out,
                ",\"cached\":{},\"attempts\":{},\"checksum\":{},\"dispatches\":{},\
                 \"cycles\":{},\"instructions\":{},\"wall_ms\":{}",
                done.cached,
                done.attempts,
                done.run.checksum,
                done.run.dispatches,
                s.cycles,
                s.instructions,
                done.wall.as_millis()
            );
            if let Some(r) = &done.run.sample {
                let _ = write!(
                    out,
                    ",\"sampled\":true,\"intervals\":{},\"cycles_ci95\":{},\"exact_fallback\":{}",
                    r.intervals, r.cycles_ci95, r.exact_fallback
                );
            }
        }
        JobOutcome::Failed { error, attempts } => {
            let _ = write!(out, ",\"status\":\"error\",\"kind\":\"{}\"", error.kind());
            out.push_str(",\"message\":");
            push_str_literal(&mut out, &error.message());
            let _ = write!(out, ",\"attempts\":{attempts}");
        }
        JobOutcome::Cancelled => out.push_str(",\"status\":\"cancelled\""),
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_inline_job() {
        let j = JobSpec::parse(r#"{"src": "emit(1);", "vm": "lvm", "scheme": "scd"}"#, 3)
            .expect("parse");
        assert_eq!(j.id, "job-3");
        assert_eq!(j.vm, Vm::Lvm);
        assert_eq!(j.scheme, Scheme::Scd);
        assert_eq!(j.max_insts, u64::MAX);
        assert!(!j.traced);
    }

    #[test]
    fn parses_corpus_bench_job() {
        let line = r#"{"id": "bt", "bench": "binary-trees", "vm": "svm", "scheme": "baseline",
                       "predefined": {"N": 4}, "max_insts": 1000000, "traced": true}"#;
        let j = JobSpec::parse(line, 1).expect("parse");
        assert_eq!(j.id, "bt");
        assert!(j.src.contains("emit"), "corpus source resolved");
        assert_eq!(j.predefined, vec![("N".to_string(), 4.0)]);
        assert_eq!(j.max_insts, 1_000_000);
        assert!(j.traced);
    }

    #[test]
    fn parses_sampled_job() {
        let line = r#"{"src": "emit(1);", "vm": "lvm", "scheme": "scd", "sample": "1M:50k:20k"}"#;
        let j = JobSpec::parse(line, 1).expect("parse");
        let plan = j.sample.expect("plan parsed");
        assert_eq!(
            (plan.period, plan.warmup, plan.measure),
            (1_000_000, 50_000, 20_000)
        );
        assert!(!plan.self_check, "jobs never opt into the paranoia pass");
    }

    #[test]
    fn sample_default_resolves_qualified_plan() {
        let line = r#"{"src": "emit(1);", "vm": "lvm", "scheme": "scd", "sample": "default"}"#;
        let j = JobSpec::parse(line, 1).expect("parse");
        assert_eq!(
            j.sample.expect("plan resolved"),
            SamplingPlan::qualified_default(false)
        );
    }

    #[test]
    fn rejects_malformed_jobs() {
        for (line, why) in [
            ("{}", "missing vm"),
            (r#"{"vm": "lvm", "scheme": "scd"}"#, "missing src/bench"),
            (
                r#"{"src": "x", "bench": "y", "vm": "lvm", "scheme": "scd"}"#,
                "both src and bench",
            ),
            (
                r#"{"src": "x", "vm": "jvm", "scheme": "scd"}"#,
                "unknown vm",
            ),
            (
                r#"{"src": "x", "vm": "lvm", "scheme": "direct"}"#,
                "unknown scheme",
            ),
            (
                r#"{"bench": "no-such-bench", "vm": "lvm", "scheme": "scd"}"#,
                "unknown bench",
            ),
            (
                r#"{"src": "x", "vm": "lvm", "scheme": "scd", "cfg": "cray-1"}"#,
                "unknown cfg",
            ),
            (
                r#"{"src": "x", "vm": "lvm", "scheme": "scd", "sample": "1M:50k"}"#,
                "bad plan",
            ),
            (
                r#"{"src": "x", "vm": "lvm", "scheme": "scd", "sample": "1M:20k/BTB=30k,PRED=80k:20k"}"#,
                "retired per-structure window syntax",
            ),
            (
                r#"{"src": "x", "vm": "lvm", "scheme": "scd", "sample": "1M:50k:20k", "traced": true}"#,
                "traced and sampled",
            ),
            ("not json at all", "not json"),
        ] {
            assert!(JobSpec::parse(line, 1).is_err(), "must reject: {why}");
        }
    }

    #[test]
    fn jobs_file_skips_blanks_and_comments() {
        let text =
            "\n# a comment\n{\"src\": \"emit(1);\", \"vm\": \"lvm\", \"scheme\": \"scd\"}\n\n";
        let jobs = parse_jobs(text).expect("parse");
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].id, "job-3", "ids come from real line numbers");
    }

    #[test]
    fn manifest_distinguishes_what_it_must() {
        let base = r#"{"src": "emit(N);", "vm": "lvm", "scheme": "scd", "predefined": {"N": 1}}"#;
        let j = JobSpec::parse(base, 1).expect("parse");
        let m = j.cache_manifest();

        // Same identity, different id: the id is presentation, not
        // identity — it must NOT split the cache entry.
        let mut same = j.clone();
        same.id = "renamed".to_string();
        assert_eq!(m, same.cache_manifest());

        // Every identity field must split the entry.
        let mut other = j.clone();
        other.scheme = Scheme::Baseline;
        assert_ne!(m, other.cache_manifest());
        let mut other = j.clone();
        other.vm = Vm::Svm;
        assert_ne!(m, other.cache_manifest());
        let mut other = j.clone();
        other.predefined[0].1 = 2.0;
        assert_ne!(m, other.cache_manifest());
        let mut other = j.clone();
        other.src.push(' ');
        assert_ne!(m, other.cache_manifest());
        let mut other = j.clone();
        other.max_insts = 10;
        assert_ne!(m, other.cache_manifest());
        let mut other = j.clone();
        other.traced = true;
        assert_ne!(m, other.cache_manifest());
        let mut other = j.clone();
        other.opts.production_weight = false;
        assert_ne!(m, other.cache_manifest());
        let mut other = j.clone();
        other.cfg = SimConfig::highend_a8();
        assert_ne!(m, other.cache_manifest());

        // A sampled run estimates, a detailed run measures: the plan
        // must split the entry, and different plans must not collide.
        let mut sampled = j.clone();
        sampled.sample = Some(SamplingPlan::parse("1M:50k:20k").unwrap());
        assert_ne!(m, sampled.cache_manifest());
        let mut other_plan = j.clone();
        other_plan.sample = Some(SamplingPlan::parse("1M:50k:10k").unwrap());
        assert_ne!(sampled.cache_manifest(), other_plan.cache_manifest());
        // ...while `self_check` never does (it cannot change results).
        let mut checked = sampled.clone();
        checked.sample.as_mut().unwrap().self_check = true;
        assert_eq!(sampled.cache_manifest(), checked.cache_manifest());
    }

    #[test]
    fn result_lines_are_valid_json() {
        let j = JobSpec::parse(r#"{"src": "emit(1);", "vm": "lvm", "scheme": "scd"}"#, 1)
            .expect("parse");
        let outcomes = [
            JobOutcome::Failed {
                error: JobError::Panic("index out of bounds: \"quoted\"\nline2".to_string()),
                attempts: 2,
            },
            JobOutcome::Cancelled,
        ];
        for o in &outcomes {
            let line = render_result(&j, o);
            let v = json::parse(&line).expect("result line parses");
            assert_eq!(v.get("id").and_then(Value::as_str), Some("job-1"));
        }
    }
}
