//! In-memory spans recorded by the benchmark around its calls into the
//! program's layers (never inside the program). Disabled spans cost one
//! branch, so the untraced runs that give the end-to-end metrics carry
//! no timing of their own beyond the per-job clock.

use std::collections::BTreeMap;
use std::time::Instant;

/// Durations and work counts per span name.
#[derive(Debug, Default)]
pub struct Spans {
    enabled: bool,
    /// Each call's duration in seconds.
    pub secs: BTreeMap<&'static str, Vec<f64>>,
    /// Work (instructions, bytes, ...) done under each span name.
    pub work: BTreeMap<&'static str, u64>,
    /// Plain event counts.
    pub counts: BTreeMap<&'static str, u64>,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            ..Spans::default()
        }
    }

    /// Times `f` under `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let t = Instant::now();
        let r = f();
        self.add(name, t.elapsed().as_secs_f64(), 0);
        r
    }

    /// Records a span measured by the caller, with the work it did.
    pub fn add(&mut self, name: &'static str, secs: f64, work: u64) {
        if self.enabled {
            self.secs.entry(name).or_default().push(secs);
            *self.work.entry(name).or_default() += work;
        }
    }

    pub fn count(&mut self, name: &'static str, n: u64) {
        if self.enabled {
            *self.counts.entry(name).or_default() += n;
        }
    }

    /// Total seconds under `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.secs.get(name).map_or(0.0, |v| v.iter().sum())
    }

    /// Median call duration under `name`, in seconds.
    pub fn median(&self, name: &str) -> Option<f64> {
        self.secs.get(name).and_then(|v| crate::stats::median(v))
    }

    /// Work per second under `name`, in millions (Minst/s for
    /// instruction counts); 0 when nothing ran.
    pub fn mrate(&self, name: &str) -> f64 {
        let t = self.total(name);
        if t > 0.0 {
            self.work.get(name).copied().unwrap_or(0) as f64 / t / 1e6
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_spans_record_nothing() {
        let mut s = Spans::new(false);
        assert_eq!(s.time("a", || 3), 3);
        s.add("b", 1.0, 5);
        s.count("c", 1);
        assert!(s.secs.is_empty() && s.work.is_empty() && s.counts.is_empty());
    }

    #[test]
    fn rates_and_medians() {
        let mut s = Spans::new(true);
        s.add("run", 1.0, 2_000_000);
        s.add("run", 3.0, 6_000_000);
        assert_eq!(s.mrate("run"), 2.0);
        assert_eq!(s.median("run"), Some(2.0));
        assert_eq!(s.mrate("none"), 0.0);
    }
}
