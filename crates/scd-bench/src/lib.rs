//! # scd-bench — the paper-experiment harness
//!
//! One `sweep` driver regenerates the whole evaluation section — every
//! figure and table — from a single deduplicated, parallel run matrix:
//!
//! ```text
//! cargo run --release -p scd-bench --bin sweep                  # everything
//! cargo run --release -p scd-bench --bin sweep -- --only fig7,table4
//! cargo run --release -p scd-bench --bin sweep -- --threads 4
//! cargo run --release -p scd-bench --bin sweep -- --smoke       # CI drift gate
//! ```
//!
//! One figure is `sweep --only <name>`: the cells it needs are planned
//! into a [`sweep::RunMatrix`], executed in parallel, and
//! rendered by the per-figure renderers in [`figures`].
//!
//! This library holds the shared machinery: the deduplicating run-matrix
//! builder and parallel executor ([`sweep`]), the per-figure planners
//! and renderers ([`figures`]), and the table formatting below.

use luma::scripts::Benchmark;
use scd_guest::Scheme;
use scd_sim::{geomean, CycleBreakdown, SimConfig};

pub mod figures;
pub mod headline;
pub mod sweep;

pub use headline::{EdpHeadline, Table4Headline};
pub use sweep::{
    parallel_map, plan_matrix, CellId, CellSpec, Matrix, MatrixPlan, MatrixRow, RunMatrix,
    SweepError, SweepResults,
};

/// The four bars of Fig. 7: three software schemes plus the VBBI
/// hardware predictor (which runs the *baseline* binary).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    Baseline,
    JumpThreading,
    Vbbi,
    Scd,
}

impl Variant {
    pub const ALL: [Variant; 4] =
        [Variant::Baseline, Variant::JumpThreading, Variant::Vbbi, Variant::Scd];

    pub fn name(self) -> &'static str {
        match self {
            Variant::Baseline => "baseline",
            Variant::JumpThreading => "jump-threading",
            Variant::Vbbi => "vbbi",
            Variant::Scd => "scd",
        }
    }

    /// The guest build this variant runs.
    pub fn scheme(self) -> Scheme {
        match self {
            Variant::Baseline | Variant::Vbbi => Scheme::Baseline,
            Variant::JumpThreading => Scheme::Threaded,
            Variant::Scd => Scheme::Scd,
        }
    }

    /// The hardware configuration this variant needs, derived from a
    /// base configuration.
    pub fn configure(self, base: &SimConfig) -> SimConfig {
        match self {
            Variant::Vbbi => base.clone().with_vbbi(),
            _ => base.clone(),
        }
    }
}

/// Input scale for a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArgScale {
    /// Table III "Simulator" column (scaled).
    Sim,
    /// Table III "FPGA" column (scaled).
    Fpga,
    /// Tiny smoke-test inputs.
    Tiny,
}

impl ArgScale {
    pub fn arg(self, b: &Benchmark) -> f64 {
        match self {
            ArgScale::Sim => b.sim_arg,
            ArgScale::Fpga => b.fpga_arg,
            ArgScale::Tiny => b.tiny_arg,
        }
    }
}

/// Formats a per-benchmark table: one metric column per variant, with a
/// GEOMEAN row (matching the paper's figures). Metrics that can be zero
/// (MPKI) fall back to an arithmetic mean for the summary row.
pub fn format_table(
    title: &str,
    matrix: &Matrix<'_>,
    variants: &[Variant],
    metric: impl Fn(&MatrixRow<'_>, Variant) -> f64,
    unit: &str,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{title} [{}]", matrix.vm.name());
    let _ = write!(out, "{:<18}", "benchmark");
    for v in variants {
        let _ = write!(out, "{:>16}", v.name());
    }
    let _ = writeln!(out, "  ({unit})");
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); variants.len()];
    for row in &matrix.rows {
        let _ = write!(out, "{:<18}", row.bench.name);
        for (i, &v) in variants.iter().enumerate() {
            let x = metric(row, v);
            cols[i].push(x);
            let _ = write!(out, "{x:>16.3}");
        }
        let _ = writeln!(out);
    }
    let _ = write!(out, "{:<18}", "MEAN");
    for c in &cols {
        match geomean(c) {
            Some(g) if c.iter().all(|&x| x > 0.0) => {
                let _ = write!(out, "{g:>16.3}");
            }
            _ => {
                let mean = c.iter().sum::<f64>() / c.len() as f64;
                let _ = write!(out, "{mean:>16.3}");
            }
        }
    }
    out.push('\n');
    out
}

/// Sums the event-derived decompositions of one variant across every
/// benchmark of a traced matrix.
pub fn aggregate_breakdown(matrix: &Matrix<'_>, v: Variant) -> CycleBreakdown {
    let mut agg = CycleBreakdown::default();
    for row in &matrix.rows {
        let b = row.breakdown(v);
        agg.total += b.total;
        agg.issue += b.issue;
        agg.fetch_stall += b.fetch_stall;
        agg.data_stall += b.data_stall;
        agg.redirect += b.redirect;
        agg.bop_stall += b.bop_stall;
        agg.dispatch_total += b.dispatch_total;
        agg.dispatch_redirect += b.dispatch_redirect;
        agg.dispatch_fetch_stall += b.dispatch_fetch_stall;
        agg.events += b.events;
    }
    agg
}

/// Formats the aggregated cycle decomposition per variant: where every
/// simulated cycle went, attributed from the per-retirement events of
/// the same runs that produced the headline table.
pub fn format_breakdown(title: &str, matrix: &Matrix<'_>, variants: &[Variant]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{title} [{}]", matrix.vm.name());
    let _ = writeln!(
        out,
        "{:<16}{:>12}{:>9}{:>9}{:>9}{:>10}{:>9}{:>11}{:>12}",
        "variant",
        "cycles",
        "issue%",
        "fetch%",
        "data%",
        "redir%",
        "bop%",
        "dispatch%",
        "disp-redir%"
    );
    for &v in variants {
        let b = aggregate_breakdown(matrix, v);
        let pct = |x: u64| 100.0 * x as f64 / b.total.max(1) as f64;
        let _ = writeln!(
            out,
            "{:<16}{:>12}{:>9.1}{:>9.1}{:>9.1}{:>10.1}{:>9.1}{:>11.1}{:>12.1}",
            v.name(),
            b.total,
            pct(b.issue),
            pct(b.fetch_stall),
            pct(b.data_stall),
            pct(b.redirect),
            pct(b.bop_stall),
            pct(b.dispatch_total),
            100.0 * b.dispatch_redirect as f64 / b.redirect.max(1) as f64,
        );
    }
    out
}

/// Writes a harness artifact (report, bench record, golden), failing
/// loudly: a run must not exit 0 while silently dropping the file it
/// was asked to produce. Creates parent directories as needed; any I/O
/// failure is reported and exits 70 (the harness-internal-error code
/// shared with the `scd` CLI).
pub fn write_artifact(path: impl AsRef<std::path::Path>, contents: &str) {
    let path = path.as_ref();
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            std::process::exit(70);
        }
    }
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("cannot write {}: {e}", path.display());
        std::process::exit(70);
    }
}

/// Prints a report to stdout and also writes it to `results/<name>.txt`
/// (exits 70 if the file cannot be written — historically the write
/// error was silently swallowed and a figure could vanish).
pub fn emit_report(name: &str, body: &str) {
    emit_report_to("results", name, body);
}

/// [`emit_report`] with an explicit output directory. Sampled sweeps
/// route their previews to `results/sampled/` so the committed
/// full-detail `results/` files are never overwritten by estimates.
pub fn emit_report_to(dir: &str, name: &str, body: &str) {
    println!("{body}");
    write_artifact(std::path::Path::new(dir).join(format!("{name}.txt")), body);
}

/// Parses a `--quick` flag from the command line (tiny inputs, for CI).
pub fn arg_scale_from_cli(default: ArgScale) -> ArgScale {
    if std::env::args().any(|a| a == "--quick") {
        ArgScale::Tiny
    } else {
        default
    }
}

/// Parses `--threads N` (or `--threads=N`) from the command line;
/// defaults to the host's available parallelism.
pub fn threads_from_cli() -> usize {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--threads" {
            if let Some(n) = args.next().and_then(|s| s.parse::<usize>().ok()) {
                return n.max(1);
            }
        } else if let Some(n) = a.strip_prefix("--threads=").and_then(|s| s.parse::<usize>().ok()) {
            return n.max(1);
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;
    use scd_guest::Vm;

    #[test]
    fn variant_wiring() {
        assert_eq!(Variant::Vbbi.scheme(), Scheme::Baseline);
        assert_eq!(Variant::Scd.scheme(), Scheme::Scd);
        let cfg = Variant::Vbbi.configure(&SimConfig::embedded_a5());
        assert_eq!(cfg.indirect, scd_sim::IndirectPredictor::Vbbi);
        let cfg = Variant::Scd.configure(&SimConfig::embedded_a5());
        assert_eq!(cfg.indirect, scd_sim::IndirectPredictor::BtbPc);
    }

    #[test]
    fn tiny_matrix_runs_and_formats() {
        let mut m = RunMatrix::new();
        let plan = plan_matrix(
            &mut m,
            &SimConfig::embedded_a5(),
            Vm::Lvm,
            ArgScale::Tiny,
            &[Variant::Baseline, Variant::Scd],
            false,
        );
        let r = m.run(2, false);
        let matrix = plan.resolve(&r);
        assert_eq!(matrix.rows.len(), 11);
        let t = format_table("test", &matrix, &[Variant::Scd], |r, v| r.speedup(v), "x");
        assert!(t.contains("MEAN"));
        assert!(t.contains("fibo"));
        // SCD wins on geomean even at tiny scale.
        let speedups: Vec<f64> = matrix.rows.iter().map(|r| r.speedup(Variant::Scd)).collect();
        assert!(geomean(&speedups).expect("positive speedups") > 1.0);
    }
}
