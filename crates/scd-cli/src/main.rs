//! `scd` — the command-line front end of the Short-Circuit Dispatch
//! reproduction.
//!
//! ```text
//! scd run <script.luma> [--vm lvm|svm] [--scheme baseline|threaded|scd]
//!         [--config a5|rocket|a8] [--vbbi|--ittage] [--arg NAME=VALUE]...
//!         [--trace out.jsonl] [--fault-plan NAME[@SEED]]
//!         [--cycle-budget N] [--wall-budget SECS]
//!         [--checkpoint-every N] [--checkpoint-file F] [--resume F]
//!         [--sample default | PERIOD:WARMUP:MEASURE]
//! scd disasm <script.luma> [--vm lvm|svm]
//! scd listing [--scheme baseline|threaded|scd]     # guest interpreter asm
//! scd bench list                                    # benchmark corpus
//! scd model [--config a5|rocket|a8]                 # Table V area/power
//! scd serve --jobs batch.jsonl [--cache DIR] [--cache-stats] [--threads N]
//!           [--timeout SECS]
//! ```
//!
//! Exit codes: 0 success, 2 usage, 3 guest trap / simulator fault,
//! 4 watchdog budget exhausted, 5 invariant or oracle violation,
//! 70 internal error (I/O, bad checkpoint), 130 interrupted batch
//! (`scd serve` additionally exits 1 when some jobs failed).
//!
//! A closed stdout (`scd listing | head`) ends `scd` by `SIGPIPE`, as it
//! ends `cat` or `grep` (a shell reports status 141), never by a panic
//! with exit 101.

use scd_guest::{GuestError, GuestOptions, GuestRun, RunRequest, Scheme, Session, Vm};
use scd_sim::{FaultPlan, JsonlSink, SamplingPlan, SimConfig, SimError, Snapshot};
use std::process::exit;

mod fuzz;
mod serve;

/// The guest trapped or the simulator faulted.
const EXIT_GUEST_TRAP: i32 = 3;
/// A cycle or wall-clock watchdog budget was exhausted.
const EXIT_WATCHDOG: i32 = 4;
/// A statistics invariant or oracle check was violated.
const EXIT_INVARIANT: i32 = 5;
/// I/O failure, unreadable checkpoint, or other harness-side error.
const EXIT_INTERNAL: i32 = 70;

fn usage() -> ! {
    eprintln!(
        "usage:\n  scd run <script.luma> [--vm lvm|svm] [--scheme baseline|threaded|scd]\n\
         \x20         [--config a5|rocket|a8] [--vbbi|--ittage] [--arg NAME=VALUE]...\n\
         \x20         [--trace out.jsonl] [--fault-plan jte-corruption|btb-flush-storm|memory-system[@SEED]]\n\
         \x20         [--cycle-budget N] [--wall-budget SECS]\n\
         \x20         [--checkpoint-every N] [--checkpoint-file F] [--resume F]\n\
         \x20         [--sample default | PERIOD:WARMUP:MEASURE]\n\
         \x20 scd disasm <script.luma> [--vm lvm|svm]\n\
         \x20 scd listing [--scheme baseline|threaded|scd] [--vm lvm|svm]\n\
         \x20 scd bench list\n\
         \x20 scd model [--config a5|rocket|a8]\n\
         \x20 scd fuzz [--seed N] [--count N] [--threads N] [--max-insts N]\n\
         \x20         [--bias uniform|aliasing] [--save-failing DIR]\n\
         \x20         [--save-corpus DIR] [--repro FILE]\n\
         \x20 scd serve --jobs batch.jsonl [--cache DIR] [--cache-stats] [--threads N]\n\
         \x20          [--timeout SECS]\n\
         exit codes: 0 ok, 2 usage, 3 guest trap, 4 watchdog, 5 invariant, 70 internal,\n\
         \x20            130 interrupted batch"
    );
    exit(2);
}

struct Opts {
    path: Option<String>,
    vm: Vm,
    scheme: Scheme,
    cfg: SimConfig,
    args: Vec<(String, f64)>,
    trace: Option<String>,
    fault_plan: Option<FaultPlan>,
    cycle_budget: Option<u64>,
    wall_budget: Option<f64>,
    checkpoint_every: Option<u64>,
    checkpoint_file: String,
    resume: Option<String>,
    sample: Option<SamplingPlan>,
}

fn parse_fault_plan(spec: &str) -> Option<FaultPlan> {
    let (name, seed) = match spec.split_once('@') {
        Some((n, s)) => (n, s.parse::<u64>().ok()?),
        None => (spec, 0xC0FFEE),
    };
    match name {
        "jte-corruption" => Some(FaultPlan::jte_corruption(seed)),
        "btb-flush-storm" => Some(FaultPlan::btb_flush_storm(seed)),
        "memory-system" => Some(FaultPlan::memory_system(seed)),
        _ => None,
    }
}

fn parse_opts(mut argv: impl Iterator<Item = String>) -> Opts {
    let mut o = Opts {
        path: None,
        vm: Vm::Lvm,
        scheme: Scheme::Scd,
        cfg: SimConfig::embedded_a5(),
        args: Vec::new(),
        trace: None,
        fault_plan: None,
        cycle_budget: None,
        wall_budget: None,
        checkpoint_every: None,
        checkpoint_file: "scd.ckpt".to_string(),
        resume: None,
        sample: None,
    };
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--vm" => {
                o.vm = match argv.next().as_deref() {
                    Some("lvm") => Vm::Lvm,
                    Some("svm") => Vm::Svm,
                    _ => usage(),
                }
            }
            "--scheme" => {
                o.scheme = match argv.next().as_deref() {
                    Some("baseline") => Scheme::Baseline,
                    Some("threaded") => Scheme::Threaded,
                    Some("scd") => Scheme::Scd,
                    _ => usage(),
                }
            }
            "--config" => {
                o.cfg = match argv.next().as_deref() {
                    Some("a5") => SimConfig::embedded_a5(),
                    Some("rocket") => SimConfig::fpga_rocket(),
                    Some("a8") => SimConfig::highend_a8(),
                    _ => usage(),
                }
            }
            "--vbbi" => o.cfg = o.cfg.clone().with_vbbi(),
            "--ittage" => o.cfg = o.cfg.clone().with_ittage(),
            "--trace" => o.trace = Some(argv.next().unwrap_or_else(|| usage())),
            "--fault-plan" => {
                let spec = argv.next().unwrap_or_else(|| usage());
                o.fault_plan = Some(parse_fault_plan(&spec).unwrap_or_else(|| usage()));
            }
            "--cycle-budget" => {
                let v = argv.next().unwrap_or_else(|| usage());
                o.cycle_budget = Some(v.parse().unwrap_or_else(|_| usage()));
            }
            "--wall-budget" => {
                let v = argv.next().unwrap_or_else(|| usage());
                let secs: f64 = v.parse().unwrap_or_else(|_| usage());
                if !secs.is_finite() || secs < 0.0 {
                    usage();
                }
                o.wall_budget = Some(secs);
            }
            "--checkpoint-every" => {
                let v = argv.next().unwrap_or_else(|| usage());
                let n: u64 = v.parse().unwrap_or_else(|_| usage());
                if n == 0 {
                    usage();
                }
                o.checkpoint_every = Some(n);
            }
            "--checkpoint-file" => {
                o.checkpoint_file = argv.next().unwrap_or_else(|| usage());
            }
            "--resume" => o.resume = Some(argv.next().unwrap_or_else(|| usage())),
            "--sample" => {
                let spec = argv.next().unwrap_or_else(|| usage());
                o.sample = Some(if spec == "default" {
                    SamplingPlan::qualified_default(false)
                } else {
                    SamplingPlan::parse(&spec).unwrap_or_else(|e| {
                        eprintln!("{e}");
                        exit(2);
                    })
                });
            }
            "--arg" => {
                let kv = argv.next().unwrap_or_else(|| usage());
                let (k, v) = kv.split_once('=').unwrap_or_else(|| usage());
                let v: f64 = v.parse().unwrap_or_else(|_| usage());
                o.args.push((k.to_string(), v));
            }
            _ if o.path.is_none() && !a.starts_with('-') => o.path = Some(a),
            _ => usage(),
        }
    }
    o
}

fn read_script(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        exit(EXIT_INTERNAL);
    })
}

/// Why a run ended without a validated result.
enum RunFailure {
    /// The guest trapped, a budget expired, or oracle validation failed.
    Guest(GuestError),
    /// The checkpoint file could not be written.
    Io(String),
}

/// Drives the machine to completion, snapshotting every `every` guest
/// instructions. Checkpointing works by running in bounded chunks: the
/// instruction limit passed to [`scd_sim::Machine::run`] is absolute, so
/// each chunk ends in `SimError::InstLimit`, we persist a snapshot, and
/// re-enter the (restart-safe) run loop.
fn run_with_checkpoints(
    session: &mut Session,
    every: Option<u64>,
    file: &str,
) -> Result<GuestRun, RunFailure> {
    loop {
        let limit = every.map_or(u64::MAX, |n| {
            session.machine.stats.instructions.saturating_add(n)
        });
        match session.machine.run(limit) {
            Ok(exit) => return session.validate(&exit).map_err(RunFailure::Guest),
            Err(SimError::InstLimit { .. }) if every.is_some() => {
                let bytes = session.machine.snapshot().to_bytes();
                std::fs::write(file, &bytes)
                    .map_err(|e| RunFailure::Io(format!("cannot write checkpoint {file}: {e}")))?;
                eprintln!(
                    "checkpoint: {} instructions -> {file}",
                    session.machine.stats.instructions
                );
            }
            Err(e) => return Err(RunFailure::Guest(GuestError::Sim(e))),
        }
    }
}

fn print_header(o: &Opts) {
    println!("config        : {}", o.cfg.name);
    println!("vm / scheme   : {} / {}", o.vm.name(), o.scheme.name());
}

fn print_stats(o: &Opts, stats: &scd_sim::SimStats) {
    println!("instructions  : {}", stats.instructions);
    println!("cycles        : {}", stats.cycles);
    println!("IPC           : {:.3}", stats.ipc());
    println!("branch MPKI   : {:.2}", stats.branch_mpki());
    if o.scheme == Scheme::Scd {
        println!(
            "bop hit rate  : {:.1}%",
            100.0 * stats.bop_hits as f64 / stats.bop_executed.max(1) as f64
        );
    }
}

fn cmd_run(o: Opts) {
    let path = o.path.clone().unwrap_or_else(|| usage());
    if o.sample.is_some()
        && (o.trace.is_some()
            || o.fault_plan.is_some()
            || o.checkpoint_every.is_some()
            || o.resume.is_some())
    {
        // Sampled runs forbid per-retirement observers, and the mode
        // seams make mid-run checkpoints meaningless to a resumer.
        eprintln!(
            "--sample is incompatible with --trace, --fault-plan, --checkpoint-every \
             and --resume"
        );
        exit(2);
    }
    let src = read_script(&path);
    let args: Vec<(&str, f64)> = o.args.iter().map(|(k, v)| (k.as_str(), *v)).collect();

    let req = RunRequest::new(o.cfg.clone(), o.vm, &src)
        .predefined(&args)
        .scheme(o.scheme);
    let mut session = match req.session() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            exit(EXIT_GUEST_TRAP);
        }
    };
    if let Some(tp) = &o.trace {
        let sink = JsonlSink::create(std::path::Path::new(tp)).unwrap_or_else(|e| {
            eprintln!("cannot create trace file {tp}: {e}");
            exit(EXIT_INTERNAL);
        });
        session.machine.set_trace_sink(Box::new(sink));
    }
    if let Some(plan) = o.fault_plan.clone() {
        eprintln!("fault plan: {}", plan.name());
        session.machine.set_fault_plan(plan);
    }
    if let Some(c) = o.cycle_budget {
        session.machine.set_cycle_budget(c);
    }
    if let Some(s) = o.wall_budget {
        session
            .machine
            .set_wall_budget(std::time::Duration::from_secs_f64(s));
    }
    if let Some(plan) = &o.sample {
        session.machine.disable_invariants();
        match session.run_sampled_and_validate(u64::MAX, plan) {
            Ok(run) => {
                let r = run.sample.as_ref().expect("sampled run carries a report");
                print_header(&o);
                println!("checksum      : {:#018x} (oracle-validated)", run.checksum);
                println!("bytecodes     : {}", run.dispatches);
                print_stats(&o, &run.stats);
                if r.exact_fallback {
                    println!("sampling      : exact fallback (guest too short for plan {plan})");
                } else {
                    println!(
                        "sampling      : {} interval(s) under plan {plan}",
                        r.intervals
                    );
                    println!(
                        "cycles (est)  : {} ± {} (95% CI)",
                        r.cycles_est, r.cycles_ci95
                    );
                    println!("CPI (est)     : {:.4} ± {:.4}", r.cpi_mean, r.cpi_ci95);
                }
            }
            Err(e) => {
                eprintln!("error: {e}");
                exit(match &e {
                    GuestError::Sim(SimError::Watchdog { .. }) => EXIT_WATCHDOG,
                    GuestError::Sim(_) => EXIT_GUEST_TRAP,
                    GuestError::ChecksumMismatch { .. } | GuestError::DispatchMismatch { .. } => {
                        EXIT_INVARIANT
                    }
                });
            }
        }
        return;
    }
    if let Some(rp) = &o.resume {
        let bytes = std::fs::read(rp).unwrap_or_else(|e| {
            eprintln!("cannot read checkpoint {rp}: {e}");
            exit(EXIT_INTERNAL);
        });
        let snap = Snapshot::from_bytes(&bytes).unwrap_or_else(|e| {
            eprintln!("bad checkpoint {rp}: {e}");
            exit(EXIT_INTERNAL);
        });
        if let Err(e) = session.machine.restore(&snap) {
            eprintln!("cannot resume from {rp}: {e}");
            exit(EXIT_INTERNAL);
        }
        eprintln!(
            "resumed {rp} at instruction {}",
            session.machine.stats.instructions
        );
    }

    // StatInvariants failures surface as panics deep in the simulator;
    // catch them so they map to a distinct exit code instead of an abort.
    let every = o.checkpoint_every;
    let file = o.checkpoint_file.clone();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_with_checkpoints(&mut session, every, &file)
    }));
    match outcome {
        Ok(Ok(run)) => {
            print_header(&o);
            println!("checksum      : {:#018x} (oracle-validated)", run.checksum);
            println!("bytecodes     : {}", run.dispatches);
            print_stats(&o, &run.stats);
            if let Some(p) = session.machine.fault_plan() {
                println!("faults        : {} injected ({})", p.injected(), p.name());
            }
        }
        Ok(Err(RunFailure::Io(msg))) => {
            eprintln!("error: {msg}");
            exit(EXIT_INTERNAL);
        }
        Ok(Err(RunFailure::Guest(e))) => {
            print_header(&o);
            print_stats(&o, &session.machine.stats);
            eprintln!("error: {e}");
            exit(match &e {
                GuestError::Sim(SimError::Watchdog { .. }) => EXIT_WATCHDOG,
                GuestError::Sim(_) => EXIT_GUEST_TRAP,
                GuestError::ChecksumMismatch { .. } | GuestError::DispatchMismatch { .. } => {
                    EXIT_INVARIANT
                }
            });
        }
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "non-string panic payload".to_string());
            eprintln!("invariant violation: {msg}");
            exit(EXIT_INVARIANT);
        }
    }
}

fn cmd_disasm(o: Opts) {
    let path = o.path.clone().unwrap_or_else(|| usage());
    let src = read_script(&path);
    let script = match luma::parser::parse(&src) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("parse error: {e}");
            exit(1);
        }
    };
    let args: Vec<(&str, f64)> = o.args.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    match o.vm {
        Vm::Lvm => match luma::lvm::compile_lvm(&script, &args) {
            Ok((p, _)) => print!("{}", luma::lvm::listing(&p)),
            Err(e) => {
                eprintln!("{e}");
                exit(1);
            }
        },
        Vm::Svm => match luma::svm::compile_svm(&script, &args) {
            Ok((p, _)) => print!("{}", luma::svm::listing(&p)),
            Err(e) => {
                eprintln!("{e}");
                exit(1);
            }
        },
    }
}

fn cmd_listing(o: Opts) {
    // Assemble the guest interpreter for a trivial image and print it.
    let script = luma::parser::parse("emit(1);").expect("trivial script");
    match o.vm {
        Vm::Lvm => {
            let (p, init) = luma::lvm::compile_lvm(&script, &[]).expect("compiles");
            let img = scd_guest::build_lvm_image(&p, &init);
            let g = scd_guest::build_lvm_guest(&img, o.scheme, GuestOptions::default());
            print!("{}", g.program.listing());
        }
        Vm::Svm => {
            let (p, init) = luma::svm::compile_svm(&script, &[]).expect("compiles");
            let img = scd_guest::build_svm_image(&p, &init);
            let g = scd_guest::build_svm_guest(&img, o.scheme, GuestOptions::default());
            print!("{}", g.program.listing());
        }
    }
}

fn cmd_bench_list() {
    println!(
        "{:<18} {:>8} {:>9} {:>7}  description",
        "name", "sim-N", "fpga-N", "tiny-N"
    );
    for b in &luma::scripts::BENCHMARKS {
        println!(
            "{:<18} {:>8} {:>9} {:>7}  {}",
            b.name, b.sim_arg, b.fpga_arg, b.tiny_arg, b.description
        );
    }
}

fn cmd_model(o: Opts) {
    let t = scd_model::table_v(&o.cfg);
    print!("{}", t.baseline.render(Some(&t.scd)));
    println!("\narea increase : {:+.2}%", 100.0 * t.area_increase);
    println!("power increase: {:+.2}%", 100.0 * t.power_increase);
}

fn main() {
    scd_serve::restore_default_sigpipe();
    let mut argv = std::env::args().skip(1);
    match argv.next().as_deref() {
        Some("run") => cmd_run(parse_opts(argv)),
        Some("disasm") => cmd_disasm(parse_opts(argv)),
        Some("listing") => cmd_listing(parse_opts(argv)),
        Some("bench") => match argv.next().as_deref() {
            Some("list") => cmd_bench_list(),
            _ => usage(),
        },
        Some("model") => cmd_model(parse_opts(argv)),
        Some("fuzz") => fuzz::cmd_fuzz(argv),
        Some("serve") => serve::cmd_serve(argv),
        _ => usage(),
    }
}
