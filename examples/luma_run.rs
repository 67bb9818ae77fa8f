//! Run an arbitrary Luma script file through the full stack: compile,
//! simulate under a chosen VM/scheme/core, validate against the oracle
//! and print statistics.
//!
//! ```text
//! cargo run --release --example luma_run -- path/to/script.luma \
//!     [--vm lvm|svm] [--scheme baseline|threaded|scd] \
//!     [--config a5|rocket|a8] [--arg N=123]
//! ```

use scd::scd_guest::{run_source, GuestOptions, Scheme, Vm};
use scd::scd_sim::SimConfig;

fn usage() -> ! {
    eprintln!(
        "usage: luma_run <script.luma> [--vm lvm|svm] [--scheme baseline|threaded|scd] \
         [--config a5|rocket|a8] [--arg NAME=VALUE]..."
    );
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut path = None;
    let mut vm = Vm::Lvm;
    let mut scheme = Scheme::Scd;
    let mut cfg = SimConfig::embedded_a5();
    let mut predefined: Vec<(String, f64)> = Vec::new();

    while let Some(a) = args.next() {
        match a.as_str() {
            "--vm" => {
                vm = match args.next().as_deref() {
                    Some("lvm") => Vm::Lvm,
                    Some("svm") => Vm::Svm,
                    _ => usage(),
                }
            }
            "--scheme" => {
                scheme = match args.next().as_deref() {
                    Some("baseline") => Scheme::Baseline,
                    Some("threaded") => Scheme::Threaded,
                    Some("scd") => Scheme::Scd,
                    _ => usage(),
                }
            }
            "--config" => {
                cfg = match args.next().as_deref() {
                    Some("a5") => SimConfig::embedded_a5(),
                    Some("rocket") => SimConfig::fpga_rocket(),
                    Some("a8") => SimConfig::highend_a8(),
                    _ => usage(),
                }
            }
            "--arg" => {
                let kv = args.next().unwrap_or_else(|| usage());
                let (k, v) = kv.split_once('=').unwrap_or_else(|| usage());
                let v: f64 = v.parse().unwrap_or_else(|_| usage());
                predefined.push((k.to_string(), v));
            }
            _ if path.is_none() => path = Some(a),
            _ => usage(),
        }
    }
    let path = path.unwrap_or_else(|| usage());
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(1);
    });
    let predefined: Vec<(&str, f64)> = predefined.iter().map(|(k, v)| (k.as_str(), *v)).collect();

    match run_source(cfg.clone(), vm, &src, &predefined, scheme, GuestOptions::default(), u64::MAX)
    {
        Ok(run) => {
            println!("config        : {}", cfg.name);
            println!("vm / scheme   : {} / {}", vm.name(), scheme.name());
            println!("checksum      : {:#018x}", run.checksum);
            println!("bytecodes     : {}", run.dispatches);
            println!("instructions  : {}", run.stats.instructions);
            println!("cycles        : {}", run.stats.cycles);
            println!("IPC           : {:.3}", run.stats.ipc());
            println!("branch MPKI   : {:.2}", run.stats.branch_mpki());
            println!(
                "I$ / D$ MPKI  : {:.2} / {:.2}",
                run.stats.icache_mpki(),
                run.stats.dcache.mpki(run.stats.instructions)
            );
            if scheme == Scheme::Scd {
                println!(
                    "bop hit rate  : {:.1}% ({} stall cycles)",
                    100.0 * run.stats.bop_hits as f64 / run.stats.bop_executed.max(1) as f64,
                    run.stats.bop_stall_cycles
                );
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
