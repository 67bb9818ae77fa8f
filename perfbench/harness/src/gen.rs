//! Seeded workload generation. The program under test only ever sees
//! the cells and jobs built here; the same `(seed, pass)` always yields
//! byte-identical lists, and every cell is drawn from a
//! finite universe whose expected results live in `perfbench/reference/`.
//!
//! Each pass is a *balanced* draw: the multiset of (program, scheme,
//! VM) is fixed per pass index, so every seed asks for the same guest
//! work and run-to-run spread measures the host, not the draw. The seed
//! picks everything that does not change the amount of guest work: the
//! core preset, the BTB organization, which cells are traced or run
//! sampled, which serve jobs repeat, and the order.

use luma::scripts::{find, Benchmark};
use scd_guest::{Scheme, Vm};
use scd_sim::{SamplingPlan, SimConfig, TwoLevelBtbConfig};
use std::fmt::Write as _;

/// SplitMix64: tiny, seedable, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for one `(seed, pass, salt)` triple, so passes and
    /// workloads draw independently of each other.
    pub fn new(seed: u64, pass: u64, salt: u64) -> Rng {
        let mut r = Rng(seed ^ 0x9E37_79B9_7F4A_7C15);
        r.0 ^= r
            .next()
            .wrapping_add(pass.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.0 ^= r
            .next()
            .wrapping_add(salt.wrapping_mul(0x8CB9_2BA7_2F3D_8DD7));
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }

    /// `k` distinct indices of `0..n`, in draw order.
    pub fn pick(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..n).collect();
        self.shuffle(&mut idx);
        idx.truncate(k);
        idx
    }

    /// A vector of `n` flags with exactly `k` set, in random positions.
    pub fn flags(&mut self, n: usize, k: usize) -> Vec<bool> {
        let mut f = vec![false; n];
        for i in self.pick(n, k) {
            f[i] = true;
        }
        f
    }
}

/// Simulated-core preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preset {
    A5,
    Rocket,
}

/// BTB organization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Btb {
    Ideal,
    TwoLevel,
}

/// One guest run: a cell of the figure matrix (or a serve job's spec).
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    pub program: &'static str,
    pub n: f64,
    pub vm: Vm,
    pub scheme: Scheme,
    pub preset: Preset,
    pub btb: Btb,
    /// Run with the cycle-decomposition tracer and invariant checker,
    /// as the real sweep does for traced figures. Not part of the key:
    /// tracing never changes SimStats.
    pub traced: bool,
    /// Run under interval sampling with this plan (part of the key).
    pub sample: Option<SamplingPlan>,
}

impl Cell {
    fn new(program: &'static str, n: f64, vm: Vm, scheme: Scheme) -> Cell {
        Cell {
            program,
            n,
            vm,
            scheme,
            preset: Preset::A5,
            btb: Btb::Ideal,
            traced: false,
            sample: None,
        }
    }

    pub fn bench(&self) -> &'static Benchmark {
        find(self.program).expect("cell programs come from the corpus")
    }

    pub fn config(&self) -> SimConfig {
        let cfg = match self.preset {
            Preset::A5 => SimConfig::embedded_a5(),
            Preset::Rocket => SimConfig::fpga_rocket(),
        };
        match self.btb {
            Btb::Ideal => cfg,
            Btb::TwoLevel => cfg.with_two_level_btb(TwoLevelBtbConfig::arm_like()),
        }
    }

    /// Builds the cell's guest session through `RunRequest::session`.
    pub fn session(&self) -> Result<scd_guest::Session, String> {
        scd_guest::RunRequest::new(self.config(), self.vm, self.bench().source)
            .predefined(&[("N", self.n)])
            .scheme(self.scheme)
            .session()
    }

    /// Reference key: everything that determines the simulated result.
    pub fn key(&self) -> String {
        let preset = match self.preset {
            Preset::A5 => "a5",
            Preset::Rocket => "rocket",
        };
        let btb = match self.btb {
            Btb::Ideal => "ideal",
            Btb::TwoLevel => "two-level",
        };
        let mut k = format!(
            "{}/{}/{}/{}/{preset}/{btb}",
            self.vm.name(),
            self.program,
            self.n,
            self.scheme.name()
        );
        if let Some(plan) = &self.sample {
            let _ = write!(k, "/sample={plan}");
        }
        k
    }
}

const SALT_DETAILED: u64 = 1;
const SALT_SAMPLED: u64 = 2;
const SALT_SERVE: u64 = 3;

/// Dispatch-bound (fibo, ackermann) and D$-heavy (binary-trees) cells,
/// one step below Table III's simulator inputs so a pass of every
/// scheme × VM combination takes a few seconds.
pub const DETAILED_PROGRAMS: [(&str, f64); 3] =
    [("fibo", 20.0), ("ackermann", 4.0), ("binary-trees", 6.0)];
/// k-nucleotide at its smallest corpus input still retires 20-40M
/// instructions (its hash tables are cleared up front), so each pass
/// carries one LVM cell with a scheme rotating per pass.
pub const DETAILED_KNUC: (&str, f64) = ("k-nucleotide", 300.0);

/// One pass of the `detailed` workload: the 18 program × scheme × VM
/// cells of [`DETAILED_PROGRAMS`] plus one k-nucleotide cell, with half
/// the cells on each preset, 6 of 19 on the two-level BTB and 2 of the
/// 18 short cells traced (the real sweep traces 88 of 781, about 1 in 9).
pub fn detailed_pass(seed: u64, pass: u64) -> Vec<Cell> {
    let mut rng = Rng::new(seed, pass, SALT_DETAILED);
    let mut cells = Vec::new();
    for (program, n) in DETAILED_PROGRAMS {
        for vm in Vm::ALL {
            for scheme in Scheme::ALL {
                cells.push(Cell::new(program, n, vm, scheme));
            }
        }
    }
    let traced = rng.flags(cells.len(), 2);
    for (c, t) in cells.iter_mut().zip(traced) {
        c.traced = t;
    }
    let scheme = Scheme::ALL[(pass % 3) as usize];
    cells.push(Cell::new(DETAILED_KNUC.0, DETAILED_KNUC.1, Vm::Lvm, scheme));
    balance(&mut rng, &mut cells, 6);
    rng.shuffle(&mut cells);
    cells
}

/// Every cell the `detailed` workload can draw (its reference universe).
pub fn detailed_universe() -> Vec<Cell> {
    let mut base = Vec::new();
    for (program, n) in DETAILED_PROGRAMS {
        for vm in Vm::ALL {
            for scheme in Scheme::ALL {
                base.push(Cell::new(program, n, vm, scheme));
            }
        }
    }
    for scheme in Scheme::ALL {
        base.push(Cell::new(DETAILED_KNUC.0, DETAILED_KNUC.1, Vm::Lvm, scheme));
    }
    cross_presets_btbs(&base, &[Btb::Ideal, Btb::TwoLevel])
}

/// Inputs large enough for at least 30 intervals of the qualified
/// default plan (1M:20k:20k) on every scheme and VM.
pub const SAMPLED_PROGRAMS: [(&str, f64); 4] = [
    ("fibo", 25.0),
    ("ackermann", 6.0),
    ("binary-trees", 9.0),
    ("k-nucleotide", 3000.0),
];

/// One pass of the `sampled` workload: each program as a baseline/SCD
/// pair on one VM (rotating with the pass index) and one seeded preset,
/// so every pass yields four headline speedups.
pub fn sampled_pass(seed: u64, pass: u64) -> Vec<Cell> {
    let mut rng = Rng::new(seed, pass, SALT_SAMPLED);
    let plan = SamplingPlan::qualified_default(false);
    let rocket = rng.flags(SAMPLED_PROGRAMS.len(), SAMPLED_PROGRAMS.len() / 2);
    let mut cells = Vec::new();
    for (i, (program, n)) in SAMPLED_PROGRAMS.into_iter().enumerate() {
        let vm = Vm::ALL[((pass + i as u64) % 2) as usize];
        for scheme in [Scheme::Baseline, Scheme::Scd] {
            let mut c = Cell::new(program, n, vm, scheme);
            c.preset = if rocket[i] {
                Preset::Rocket
            } else {
                Preset::A5
            };
            c.sample = Some(plan);
            cells.push(c);
        }
    }
    rng.shuffle(&mut cells);
    cells
}

/// Every cell the `sampled` workload can draw.
pub fn sampled_universe() -> Vec<Cell> {
    let plan = SamplingPlan::qualified_default(false);
    let mut base = Vec::new();
    for (program, n) in SAMPLED_PROGRAMS {
        for vm in Vm::ALL {
            for scheme in [Scheme::Baseline, Scheme::Scd] {
                let mut c = Cell::new(program, n, vm, scheme);
                c.sample = Some(plan);
                base.push(c);
            }
        }
    }
    cross_presets_btbs(&base, &[Btb::Ideal])
}

/// Short serve jobs: per-job fixed costs (compile, guest build, oracle,
/// cache I/O) dominate the simulation itself.
pub const SERVE_PROGRAMS: [(&str, &[f64]); 9] = [
    (
        "fibo",
        &[5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0],
    ),
    (
        "random",
        &[
            50.0, 75.0, 100.0, 125.0, 150.0, 175.0, 200.0, 225.0, 250.0, 275.0, 300.0, 325.0,
            350.0, 375.0, 400.0,
        ],
    ),
    ("ackermann", &[1.0, 2.0]),
    ("binary-trees", &[1.0, 2.0, 3.0]),
    ("fannkuch-redux", &[2.0, 3.0, 4.0]),
    ("pidigits", &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
    ("spectral-norm", &[1.0, 2.0]),
    ("n-body", &[1.0, 2.0, 3.0]),
    ("mandelbrot", &[1.0, 2.0]),
];
/// Serve jobs that run sampled use this small plan so short guests
/// still produce several intervals.
pub fn serve_plan() -> SamplingPlan {
    SamplingPlan::new(20_000, 2_000, 2_000).expect("valid plan")
}
/// Jobs per pass that repeat an earlier job (cache hits): 45% of the
/// 1004, not 50%, so the median job latency falls among the fastest
/// ~9% of the 552 misses, not on the edge between hits and misses,
/// where it moved by up to 20% from run to run.
pub const SERVE_REPEATS: usize = 452;
/// Distinct jobs per pass that run traced / sampled.
pub const SERVE_TRACED: usize = 24;
pub const SERVE_SAMPLED: usize = 24;

fn serve_base() -> Vec<Cell> {
    let mut base = Vec::new();
    for (program, ns) in SERVE_PROGRAMS {
        for &n in ns {
            for vm in Vm::ALL {
                for scheme in Scheme::ALL {
                    base.push(Cell::new(program, n, vm, scheme));
                }
            }
        }
    }
    cross_presets_btbs(&base, &[Btb::Ideal])
}

/// One pass of the `serve` workload: every distinct job of the universe
/// once (a cache miss on the pass's fresh cache), [`SERVE_TRACED`] of
/// them traced and [`SERVE_SAMPLED`] sampled, plus [`SERVE_REPEATS`]
/// seeded repeats (cache hits), shuffled so each repeat follows its
/// first occurrence.
pub fn serve_pass(seed: u64, pass: u64) -> Vec<Cell> {
    let mut rng = Rng::new(seed, pass, SALT_SERVE);
    let mut distinct = serve_base();
    let special = rng.pick(distinct.len(), SERVE_TRACED + SERVE_SAMPLED);
    for (rank, &i) in special.iter().enumerate() {
        if rank < SERVE_TRACED {
            distinct[i].traced = true;
        } else {
            distinct[i].sample = Some(serve_plan());
        }
    }
    rng.shuffle(&mut distinct);
    // Interleave: each repeat is inserted at a random position after its
    // original's first occurrence.
    let mut jobs: Vec<Cell> = distinct.clone();
    for _ in 0..SERVE_REPEATS {
        let src = rng.below(distinct.len());
        let first = jobs
            .iter()
            .position(|c| *c == distinct[src])
            .expect("original is present");
        let at = first + 1 + rng.below(jobs.len() - first);
        jobs.insert(at, distinct[src].clone());
    }
    jobs
}

/// Every job the `serve` workload can draw: each base job untraced (a
/// traced job has the same SimStats) and sampled.
pub fn serve_universe() -> Vec<Cell> {
    let base = serve_base();
    let sampled = base.iter().map(|c| Cell {
        sample: Some(serve_plan()),
        ..c.clone()
    });
    base.iter().cloned().chain(sampled).collect()
}

/// Assigns presets half-and-half and the two-level BTB to `two_level`
/// cells, both at seeded positions.
fn balance(rng: &mut Rng, cells: &mut [Cell], two_level: usize) {
    let rocket = rng.flags(cells.len(), cells.len() / 2);
    let tl = rng.flags(cells.len(), two_level);
    for (i, c) in cells.iter_mut().enumerate() {
        c.preset = if rocket[i] {
            Preset::Rocket
        } else {
            Preset::A5
        };
        c.btb = if tl[i] { Btb::TwoLevel } else { Btb::Ideal };
    }
}

fn cross_presets_btbs(base: &[Cell], btbs: &[Btb]) -> Vec<Cell> {
    let mut out = Vec::new();
    for c in base {
        for preset in [Preset::A5, Preset::Rocket] {
            for &btb in btbs {
                out.push(Cell {
                    preset,
                    btb,
                    ..c.clone()
                });
            }
        }
    }
    out
}

/// The pass generator for a workload name.
pub fn pass_fn(workload: &str) -> Option<fn(u64, u64) -> Vec<Cell>> {
    match workload {
        "detailed" => Some(detailed_pass),
        "sampled" => Some(sampled_pass),
        "serve" => Some(serve_pass),
        _ => None,
    }
}

/// The reference universe for a workload name.
pub fn universe(workload: &str) -> Option<Vec<Cell>> {
    match workload {
        "detailed" => Some(detailed_universe()),
        "sampled" => Some(sampled_universe()),
        "serve" => Some(serve_universe()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// A cell list as text, one key per line with traced cells marked:
    /// the byte-level identity of a draw.
    fn render(cells: &[Cell]) -> String {
        let mut s = String::new();
        for c in cells {
            let _ = writeln!(s, "{}{}", c.key(), if c.traced { " traced" } else { "" });
        }
        s
    }

    #[test]
    fn same_seed_gives_byte_identical_lists() {
        for w in ["detailed", "sampled", "serve"] {
            let f = pass_fn(w).unwrap();
            for pass in 0..3 {
                assert_eq!(render(&f(7, pass)), render(&f(7, pass)), "{w} pass {pass}");
            }
            assert_ne!(render(&f(7, 0)), render(&f(8, 0)), "{w}: seeds must differ");
            assert_ne!(
                render(&f(7, 0)),
                render(&f(7, 1)),
                "{w}: passes must differ"
            );
        }
    }

    #[test]
    fn every_drawn_cell_is_in_the_reference_universe() {
        for w in ["detailed", "sampled", "serve"] {
            let keys: HashSet<String> = universe(w).unwrap().iter().map(Cell::key).collect();
            let f = pass_fn(w).unwrap();
            for seed in 0..20 {
                for pass in 0..4 {
                    for c in f(seed, pass) {
                        assert!(keys.contains(&c.key()), "{w}: {} not in universe", c.key());
                    }
                }
            }
        }
    }

    #[test]
    fn passes_do_the_same_guest_work_for_every_seed() {
        // What a pass simulates — (program, n, vm, scheme) — depends on
        // the pass index only, never on the seed; serve's first
        // occurrences cover its whole universe every pass.
        let work = |cells: &[Cell]| {
            let mut v: Vec<String> = cells
                .iter()
                .map(|c| format!("{} {} {} {}", c.program, c.n, c.vm.name(), c.scheme.name()))
                .collect();
            v.sort();
            v
        };
        for (a, b) in [((1, 0), (2, 0)), ((3, 4), (9, 4))] {
            assert_eq!(
                work(&detailed_pass(a.0, a.1)),
                work(&detailed_pass(b.0, b.1))
            );
            assert_eq!(work(&sampled_pass(a.0, a.1)), work(&sampled_pass(b.0, b.1)));
        }
        let mut distinct = work(&serve_pass(1, 0));
        distinct.dedup();
        let mut universe = work(&serve_base());
        universe.dedup();
        assert_eq!(distinct, universe);
    }

    #[test]
    fn serve_repeats_follow_their_first_occurrence_and_counts_hold() {
        let jobs = serve_pass(3, 0);
        assert!(jobs.len() >= 1000, "p99 needs at least 1000 jobs");
        let mut seen = HashSet::new();
        let mut repeats = 0;
        for c in &jobs {
            if !seen.insert(render(std::slice::from_ref(c))) {
                repeats += 1;
            }
        }
        assert_eq!(repeats, SERVE_REPEATS);
        assert!(jobs.iter().filter(|c| c.traced).count() >= SERVE_TRACED);
        assert!(jobs.iter().filter(|c| c.sample.is_some()).count() >= SERVE_SAMPLED);
    }

    #[test]
    fn detailed_pass_is_balanced() {
        for seed in 0..10 {
            let p = detailed_pass(seed, 0);
            assert_eq!(p.len(), 19);
            assert_eq!(p.iter().filter(|c| c.preset == Preset::Rocket).count(), 9);
            assert_eq!(p.iter().filter(|c| c.btb == Btb::TwoLevel).count(), 6);
            assert_eq!(p.iter().filter(|c| c.traced).count(), 2);
            assert!(p.iter().all(|c| !c.traced || c.program != DETAILED_KNUC.0));
        }
    }
}
