//! Offline stand-in for the [`criterion`](https://crates.io/crates/criterion)
//! benchmark harness, vendored so the workspace builds with no network
//! access. It implements the subset the `scd-bench` benches use —
//! `Criterion::bench_function`, `benchmark_group`, `Bencher::iter`, and
//! the `criterion_group!` / `criterion_main!` macros — with simple
//! wall-clock calibration instead of statistical analysis.
//!
//! When invoked with `--test` (as `cargo test` does for
//! `harness = false` bench targets) each benchmark body runs exactly
//! once, untimed, so test runs stay fast.

use std::time::{Duration, Instant};

/// Re-export matching criterion's public `black_box`.
pub use std::hint::black_box;

/// Target measurement time per benchmark.
const TARGET: Duration = Duration::from_millis(20);

/// The benchmark driver.
pub struct Criterion {
    test_mode: bool,
}

impl Criterion {
    /// Builds a driver; `--test` on the command line selects run-once
    /// test mode.
    pub fn new() -> Self {
        Criterion { test_mode: std::env::args().any(|a| a == "--test") }
    }

    /// Runs one named benchmark.
    pub fn bench_function(
        &mut self,
        name: impl AsRef<str>,
        mut f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let name = name.as_ref();
        let mut b = Bencher { test_mode: self.test_mode, ns_per_iter: 0.0 };
        f(&mut b);
        if self.test_mode {
            println!("test {name} ... ok (run once)");
        } else {
            println!("{name:<40} {:>12.1} ns/iter", b.ns_per_iter);
        }
        self
    }

    /// Starts a named group; member benchmarks get `group/`-prefixed
    /// names.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup { c: self, name: name.to_string() }
    }
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion::new()
    }
}

/// A named group of benchmarks.
pub struct BenchmarkGroup<'a> {
    c: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Runs one benchmark within the group.
    pub fn bench_function(
        &mut self,
        name: impl AsRef<str>,
        f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let full = format!("{}/{}", self.name, name.as_ref());
        self.c.bench_function(full, f);
        self
    }

    /// Sets the per-benchmark sample count (accepted for API
    /// compatibility; this harness sizes batches by wall-clock time).
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Ends the group (no-op; provided for API compatibility).
    pub fn finish(self) {}
}

/// Passed to each benchmark body; call [`Bencher::iter`] with the code
/// under test.
pub struct Bencher {
    test_mode: bool,
    ns_per_iter: f64,
}

impl Bencher {
    /// Measures `f`, doubling the batch size until the batch takes at
    /// least `TARGET` (20 ms) of wall-clock time.
    pub fn iter<R>(&mut self, mut f: impl FnMut() -> R) {
        if self.test_mode {
            black_box(f());
            return;
        }
        let mut n: u64 = 1;
        loop {
            let start = Instant::now();
            for _ in 0..n {
                black_box(f());
            }
            let elapsed = start.elapsed();
            if elapsed >= TARGET {
                self.ns_per_iter = elapsed.as_nanos() as f64 / n as f64;
                return;
            }
            n = n.saturating_mul(2);
        }
    }
}

/// Bundles benchmark functions into one group function, mirroring
/// criterion's macro of the same name.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($f:path),+ $(,)?) => {
        pub fn $group(c: &mut $crate::Criterion) {
            $($f(c);)+
        }
    };
}

/// Declares `main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::Criterion::new();
            $($group(&mut c);)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_measures_something() {
        let mut b = Bencher { test_mode: false, ns_per_iter: 0.0 };
        let mut acc = 0u64;
        b.iter(|| {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            acc
        });
        assert!(b.ns_per_iter > 0.0);
    }

    #[test]
    fn groups_compose() {
        let mut c = Criterion { test_mode: true };
        c.benchmark_group("g").bench_function("one", |b| b.iter(|| 1 + 1));
    }
}
