//! Profiles a benchmark on the simulated core and prints where cycles
//! go — dispatcher vs handlers, plus the hottest individual
//! instructions with symbolized labels. This is the tooling view behind
//! the paper's Fig. 3.
//!
//! ```text
//! cargo run --release --example profile -- [benchmark] [baseline|scd]
//! ```

use scd::luma;
use scd::scd_guest::{self, GuestOptions, Scheme};
use scd::scd_sim::{Machine, SimConfig};

fn main() {
    let mut args = std::env::args().skip(1);
    let bench = args.next().unwrap_or_else(|| "n-sieve".to_string());
    let scheme = match args.next().as_deref() {
        Some("baseline") | None => Scheme::Baseline,
        Some("scd") => Scheme::Scd,
        Some("threaded") => Scheme::Threaded,
        other => {
            eprintln!("unknown scheme {other:?}");
            std::process::exit(2);
        }
    };
    let b = luma::scripts::find(&bench).unwrap_or_else(|| {
        eprintln!(
            "unknown benchmark `{bench}`; available: {}",
            luma::scripts::BENCHMARKS.iter().map(|b| b.name).collect::<Vec<_>>().join(", ")
        );
        std::process::exit(2);
    });

    let script = luma::parser::parse(b.source).expect("benchmark parses");
    let (p, init) = luma::lvm::compile_lvm(&script, &[("N", b.tiny_arg)]).expect("compiles");
    let img = scd_guest::build_lvm_image(&p, &init);
    let guest = scd_guest::build_lvm_guest(&img, scheme, GuestOptions::default());

    let mut m = Machine::new(SimConfig::embedded_a5(), &guest.program);
    m.set_annotations(guest.annotations.clone());
    m.enable_profiling();
    m.map("image", scd_guest::layout::IMAGE_BASE, (img.bytes.len() as u64 + 4095) & !4095);
    m.mem_mut().write_bytes(scd_guest::layout::IMAGE_BASE, &img.bytes);
    m.map("globals", scd_guest::layout::GLOBALS_BASE, 1 << 20);
    for (i, g) in img.global_init.iter().enumerate() {
        m.mem_mut().write(scd_guest::layout::GLOBALS_BASE + 8 * i as u64, 8, *g).expect("mapped");
    }
    m.map(
        "vstack+ctl",
        scd_guest::layout::VSTACK_BASE,
        scd_guest::layout::VSTACK_SIZE + scd_guest::layout::VMCTL_SIZE,
    );
    m.map("frames", scd_guest::layout::FRAME_BASE, scd_guest::layout::FRAME_SIZE);
    m.map("heap", scd_guest::layout::HEAP_BASE, scd_guest::layout::HEAP_SIZE);
    m.run(u64::MAX).expect("benchmark completes");

    let profile = m.profile().expect("profiling enabled").clone();
    println!(
        "{bench} [{}]: {} insts, {} cycles, IPC {:.3}\n",
        scheme.name(),
        m.stats.instructions,
        m.stats.cycles,
        m.stats.ipc()
    );

    // Cycle share of the dispatcher.
    let dispatch_cycles: u64 = guest
        .annotations
        .dispatch_ranges
        .iter()
        .map(|&(a, b2)| profile.cycles_in_range(a, b2 + 4))
        .sum();
    println!(
        "dispatcher cycles: {} ({:.1}% of total)",
        dispatch_cycles,
        100.0 * dispatch_cycles as f64 / m.stats.cycles as f64
    );

    // Per-opcode handler cycle shares, symbolized via h_<n> labels.
    let mut handlers: Vec<(String, u64)> = Vec::new();
    let mut bounds: Vec<(u64, String)> = guest
        .program
        .symbols
        .iter()
        .filter(|(k, _)| k.starts_with("h_"))
        .map(|(k, &v)| (v, k.clone()))
        .collect();
    bounds.sort_unstable();
    for w in 0..bounds.len() {
        let start = bounds[w].0;
        let end = bounds.get(w + 1).map(|b| b.0).unwrap_or(guest.program.text_end());
        let c = profile.cycles_in_range(start, end);
        if c > 0 {
            let opnum: usize = bounds[w].1[2..].parse().unwrap_or(999);
            let name = luma::lvm::Op::ALL
                .get(opnum)
                .map(|o| format!("{o:?}"))
                .unwrap_or_else(|| bounds[w].1.clone());
            handlers.push((name, c));
        }
    }
    handlers.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
    println!("\nhottest handlers:");
    for (name, c) in handlers.iter().take(10) {
        println!("  {name:<12} {c:>12} cycles ({:.1}%)", 100.0 * *c as f64 / m.stats.cycles as f64);
    }

    println!("\nhottest instructions:");
    for (pc, cycles, retired) in profile.hottest(12) {
        let idx = ((pc - guest.program.text_base) / 4) as usize;
        println!(
            "  {pc:#010x}: {:<28} {cycles:>10} cycles, {retired:>9} retired",
            guest.program.insts[idx].to_string()
        );
    }
}
