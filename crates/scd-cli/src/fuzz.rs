//! `scd fuzz` — differential fuzzing of the cycle model against the
//! architectural oracle.
//!
//! Each round: generate a seeded interpreter-shaped program
//! (`scd_ref::gen`), run it on the cycle model under three SCD variants
//! (stall scheme, fall-through scheme, SCD disabled) with a
//! [`LockstepSink`] attached, and fail on the first retired instruction
//! whose architectural effects differ from the reference ISS. The
//! `scd-off` variant also runs sampled (plan `400:50:50`: short legs,
//! so a generated program crosses many fast-forward seams) and fails on
//! any difference from its detailed run in outcome, instruction count,
//! registers, pc, output or memory: with SCD off nothing in the
//! instruction stream depends on the BTB, so the fast-forward legs must
//! be architecturally exact. On failure the program is shrunk
//! (regenerated with fewer handler blocks while the divergence
//! persists) and pinned as a `scd_ref::corpus` reproducer.
//!
//! Determinism: the program for index `i` depends only on
//! `base_seed` and `i`; results are aggregated in index order, so the
//! report is byte-identical for any `--threads` value.

use crate::{usage, EXIT_INTERNAL, EXIT_INVARIANT};
use scd_ref::corpus::{self, Repro};
use scd_ref::gen::{generate, GenBias, GenConfig, Rng};
use scd_sim::{
    diff_architectural, downcast_sink, LockstepSink, Machine, SamplingPlan, SimConfig, SimError,
};
use std::process::exit;

struct FuzzOpts {
    seed: u64,
    count: u64,
    threads: usize,
    max_insts: u64,
    bias: GenBias,
    save_failing: Option<String>,
    save_corpus: Option<String>,
    repro: Option<String>,
}

fn parse_fuzz_opts(mut argv: impl Iterator<Item = String>) -> FuzzOpts {
    let mut o = FuzzOpts {
        seed: 1,
        count: 64,
        threads: 1,
        max_insts: 2_000_000,
        bias: GenBias::Uniform,
        save_failing: None,
        save_corpus: None,
        repro: None,
    };
    let num = |s: Option<String>| s.and_then(|v| v.parse::<u64>().ok()).unwrap_or_else(|| usage());
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--seed" => o.seed = num(argv.next()),
            "--count" => o.count = num(argv.next()),
            "--threads" => o.threads = num(argv.next()).clamp(1, 64) as usize,
            "--max-insts" => o.max_insts = num(argv.next()),
            "--bias" => {
                o.bias = match argv.next().as_deref() {
                    Some("uniform") => GenBias::Uniform,
                    Some("aliasing") => GenBias::Aliasing,
                    _ => usage(),
                }
            }
            "--save-failing" => o.save_failing = Some(argv.next().unwrap_or_else(|| usage())),
            "--save-corpus" => o.save_corpus = Some(argv.next().unwrap_or_else(|| usage())),
            "--repro" => o.repro = Some(argv.next().unwrap_or_else(|| usage())),
            _ => usage(),
        }
    }
    o
}

/// The three SCD configurations every program runs under: the paper's
/// stall scheme, its fall-through scheme, and SCD off entirely.
const VARIANTS: [&str; 3] = ["scd-stall", "scd-fallthrough", "scd-off"];

fn variant_config(name: &str) -> SimConfig {
    let mut cfg = SimConfig::embedded_a5();
    match name {
        "scd-stall" => {}
        "scd-fallthrough" => cfg.scd.stall_on_unready = false,
        "scd-off" => cfg.scd.enabled = false,
        other => unreachable!("unknown variant {other}"),
    }
    cfg
}

/// One lockstep run of a pinned program (plus, for `scd-off`, the
/// sampled check). `Ok(checked)` counts compared instructions; `Err` is
/// a divergence or an unexpected simulator error.
fn run_one(repro: &Repro, variant: &str, max_insts: u64) -> Result<u64, String> {
    let cfg = variant_config(variant);
    let machine = || {
        let mut m = Machine::new(cfg.clone(), &repro.program);
        m.map("fuzzdata", repro.data_base, repro.data_size);
        m
    };
    let mut m = machine();
    m.set_trace_sink(Box::new(LockstepSink::new(&m)));
    let run = m.run(max_insts);
    let run_err = match &run {
        Ok(_) => None,
        // Budget exhaustion is a pass: everything retired so far was
        // compared, and generated programs are only *expected* — not
        // guaranteed — to exit within the budget.
        Err(SimError::InstLimit { .. }) => None,
        Err(e) => Some(e.to_string()),
    };
    let sink = m
        .take_trace_sink()
        .and_then(downcast_sink::<LockstepSink>)
        .ok_or("lockstep sink went missing")?;
    if let Some(d) = sink.divergence() {
        return Err(d.to_string());
    }
    if let Some(e) = run_err {
        return Err(format!("simulator error without divergence: {e}"));
    }
    if variant == "scd-off" {
        let mut sampled = machine();
        let plan = SamplingPlan::parse("400:50:50").expect("builtin plan");
        let ended = format!("{:?}", sampled.run_sampled(max_insts, &plan).map(|(exit, _)| exit));
        let n = sampled.stats.instructions;
        if ended != format!("{run:?}") || n != m.stats.instructions {
            return Err(format!(
                "sampled run ended {ended} after {n} instructions, detailed run {run:?} after {}",
                m.stats.instructions
            ));
        }
        if let Some(d) = diff_architectural(&m, &sampled) {
            return Err(format!("sampled run ended in a different state: {d}"));
        }
    }
    Ok(sink.checked())
}

/// Derives the generator seed for program index `i` — a splitmix stream
/// per index so neighbouring indices share no structure.
fn seed_for(base: u64, i: u64) -> u64 {
    Rng::new(base ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next()
}

/// The shape constructor for the selected bias.
fn config_for(bias: GenBias, seed: u64) -> GenConfig {
    match bias {
        GenBias::Uniform => GenConfig::from_seed(seed),
        GenBias::Aliasing => GenConfig::aliasing_from_seed(seed),
    }
}

fn repro_for(cfg: &GenConfig) -> Repro {
    let g = generate(cfg);
    Repro { seed: cfg.seed, program: g.program, data_base: g.data_base, data_size: g.data_size }
}

/// Shrinks a failing config: repeatedly halve, then decrement, the
/// handler-block count while the failure (any divergence, same variant)
/// persists. Returns the smallest still-failing config.
fn shrink(cfg: GenConfig, variant: &str, max_insts: u64) -> GenConfig {
    let still_fails =
        |c: &GenConfig| run_one(&repro_for(c), variant, max_insts).is_err();
    let mut best = cfg;
    loop {
        let mut reduced = false;
        let mut candidates = Vec::new();
        if best.blocks > 1 {
            candidates.push(GenConfig { blocks: best.blocks / 2, ..best });
            candidates.push(GenConfig { blocks: best.blocks - 1, ..best });
        }
        if best.outer_iters > 1 {
            candidates.push(GenConfig { outer_iters: 1, ..best });
        }
        for c in candidates {
            if still_fails(&c) {
                best = c;
                reduced = true;
                break;
            }
        }
        if !reduced {
            return best;
        }
    }
}

struct Failure {
    index: u64,
    seed: u64,
    variant: &'static str,
    detail: String,
    repro_path: Option<String>,
}

/// One per-index fuzz outcome: instructions checked, or the first
/// failing variant and its divergence detail.
type IndexResult = Result<u64, (&'static str, String)>;

/// Fuzzes indices `0..count`, each under all three variants. Returns
/// per-index results in index order regardless of thread count.
fn fuzz_all(o: &FuzzOpts) -> (u64, Vec<Failure>) {
    let indices: Vec<u64> = (0..o.count).collect();
    let results: Vec<(u64, IndexResult)> = if o.threads <= 1 {
        indices.iter().map(|&i| (i, fuzz_index(o, i))).collect()
    } else {
        std::thread::scope(|s| {
            let mut handles = Vec::new();
            for t in 0..o.threads {
                let chunk: Vec<u64> =
                    indices.iter().copied().filter(|i| (*i as usize) % o.threads == t).collect();
                handles.push(s.spawn(move || {
                    chunk.into_iter().map(|i| (i, fuzz_index(o, i))).collect::<Vec<_>>()
                }));
            }
            let mut all: Vec<_> =
                handles.into_iter().flat_map(|h| h.join().expect("fuzz worker panicked")).collect();
            all.sort_by_key(|(i, _)| *i);
            all
        })
    };

    let mut checked = 0u64;
    let mut failures = Vec::new();
    for (i, r) in results {
        match r {
            Ok(c) => checked += c,
            Err((variant, detail)) => {
                let seed = seed_for(o.seed, i);
                // Shrink and pin the reproducer (serial: failures are rare
                // and the corpus write must be race-free).
                let small = shrink(config_for(o.bias, seed), variant, o.max_insts);
                let repro = repro_for(&small);
                let repro_path = o.save_failing.as_ref().and_then(|dir| {
                    let path = format!("{dir}/fuzz-{i}-{variant}.repro");
                    std::fs::create_dir_all(dir).ok()?;
                    std::fs::write(&path, corpus::save(&repro)).ok()?;
                    Some(path)
                });
                failures.push(Failure { index: i, seed, variant, detail, repro_path });
            }
        }
    }
    (checked, failures)
}

/// All three variants for one index; first failing variant wins.
fn fuzz_index(o: &FuzzOpts, i: u64) -> IndexResult {
    let seed = seed_for(o.seed, i);
    let repro = repro_for(&config_for(o.bias, seed));
    let mut checked = 0u64;
    for variant in VARIANTS {
        match run_one(&repro, variant, o.max_insts) {
            Ok(c) => checked += c,
            Err(detail) => return Err((variant, detail)),
        }
    }
    Ok(checked)
}

fn cmd_repro(path: &str, max_insts: u64) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        exit(EXIT_INTERNAL);
    });
    let repro = corpus::load(&text).unwrap_or_else(|e| {
        eprintln!("bad reproducer {path}: {e}");
        exit(EXIT_INTERNAL);
    });
    let mut failed = false;
    for variant in VARIANTS {
        match run_one(&repro, variant, max_insts) {
            Ok(c) => println!("repro {path} [{variant}]: ok, {c} instructions lockstep-checked"),
            Err(d) => {
                println!("repro {path} [{variant}]: DIVERGENCE: {d}");
                failed = true;
            }
        }
    }
    exit(if failed { EXIT_INVARIANT } else { 0 });
}

/// Entry point for `scd fuzz`.
pub fn cmd_fuzz(argv: impl Iterator<Item = String>) {
    let o = parse_fuzz_opts(argv);
    if let Some(path) = &o.repro {
        cmd_repro(path, o.max_insts);
    }
    if let Some(dir) = &o.save_corpus {
        // Pin every generated program as a reproducer (used to refresh
        // `tests/golden/lockstep/`); the fuzz run below still executes.
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {dir}: {e}");
            exit(EXIT_INTERNAL);
        }
        let prefix = if o.bias == GenBias::Aliasing { "alias" } else { "seed" };
        for i in 0..o.count {
            let seed = seed_for(o.seed, i);
            let repro = repro_for(&config_for(o.bias, seed));
            let path = format!("{dir}/{prefix}{}-{i}.repro", o.seed);
            if let Err(e) = std::fs::write(&path, corpus::save(&repro)) {
                eprintln!("cannot write {path}: {e}");
                exit(EXIT_INTERNAL);
            }
        }
    }
    let (checked, failures) = fuzz_all(&o);
    println!(
        "fuzz{}: {} programs x {} variants, {} instructions lockstep-checked, {} failure{} (seed {})",
        if o.bias == GenBias::Aliasing { " [aliasing bias]" } else { "" },
        o.count,
        VARIANTS.len(),
        checked,
        failures.len(),
        if failures.len() == 1 { "" } else { "s" },
        o.seed,
    );
    for f in &failures {
        println!("  program {} (seed {:#x}) [{}]: {}", f.index, f.seed, f.variant, f.detail);
        if let Some(p) = &f.repro_path {
            println!("    reproducer: {p}");
        }
    }
    if !failures.is_empty() {
        exit(EXIT_INVARIANT);
    }
}
