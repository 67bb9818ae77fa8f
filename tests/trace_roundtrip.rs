//! End-to-end check of the trace layer's central guarantee: the JSONL
//! event stream written by `--trace` is parseable, and replaying it
//! through [`ReplayStats`] reproduces the machine's own [`SimStats`]
//! exactly, field for field. This is the same code path `scd-cli run
//! --trace out.jsonl` uses.

use scd_guest::{run_source_with, GuestOptions, Scheme, Vm};
use scd_sim::{diff_stats, FaultKind, FaultPlan, JsonlSink, ReplayStats, TraceEvent, VecSink};

const SRC: &str = "var s = 0; \
                   for i = 1, 120 { if s % 3 == 0 { s = s + i * 2; } else { s = s - i; } } \
                   emit(s);";

fn trace_file(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("scd-trace-{tag}-{}.jsonl", std::process::id()))
}

#[test]
fn jsonl_trace_replays_to_exact_stats() {
    for (vm, scheme) in
        [(Vm::Lvm, Scheme::Scd), (Vm::Svm, Scheme::Scd), (Vm::Lvm, Scheme::Baseline)]
    {
        let path = trace_file(&format!("{}-{}", vm.name(), scheme.name()));
        let run = run_source_with(
            scd_sim::SimConfig::embedded_a5(),
            vm,
            SRC,
            &[],
            scheme,
            GuestOptions::default(),
            u64::MAX,
            |m| {
                m.set_trace_sink(Box::new(JsonlSink::create(&path).expect("temp file")));
            },
        )
        .expect("program runs");

        let text = std::fs::read_to_string(&path).expect("trace written");
        let _ = std::fs::remove_file(&path);
        let mut replay = ReplayStats::default();
        for (i, line) in text.lines().enumerate() {
            let ev = TraceEvent::from_json(line)
                .unwrap_or_else(|e| panic!("line {}: {e}\n{line}", i + 1));
            replay.observe(&ev);
        }
        assert_eq!(replay.events(), run.stats.instructions, "one event per retirement");
        let replayed = replay.stats();
        if let Some(d) = diff_stats(&run.stats, &replayed) {
            panic!("replayed stats diverge [{} / {}]: {d}", vm.name(), scheme.name());
        }
        assert_eq!(replayed, run.stats);
    }
}

#[test]
fn vec_sink_matches_jsonl_sink() {
    // The in-memory sink sees the identical event stream the JSONL file
    // encodes (sanity for tests that skip the filesystem). The machine
    // owns the sink for the duration of the run and hands it back with
    // the `GuestRun` — no sharing.
    let mut run = run_source_with(
        scd_sim::SimConfig::embedded_a5(),
        Vm::Lvm,
        SRC,
        &[],
        Scheme::Scd,
        GuestOptions::default(),
        u64::MAX,
        |m| {
            m.set_trace_sink(Box::new(VecSink::default()));
        },
    )
    .expect("program runs");
    let events = run.take_sink::<VecSink>().expect("sink comes back with the run").events;
    assert!(!events.is_empty());
    for ev in &events {
        let back = TraceEvent::from_json(&ev.to_json()).expect("roundtrip");
        assert_eq!(&back, ev);
    }
}

/// The `--trace` JSONL of a short SCD run on the A8 preset, which has an
/// L2, with a JTE flush every 700 retirements and a fault every 300: its
/// lines carry fetch and data misses with L2 outcomes, branches,
/// redirects, `bop`, one and two BTB inserts, flushes, faults with and
/// without evictions, and every kind of arch record.
fn pinned_run_trace() -> String {
    const PIN_SRC: &str = "var s = 0; \
                           for i = 1, 40 { if s % 3 == 0 { s = s + i * 2; } else { s = s - i; } } \
                           emit(s);";
    let mut cfg = scd_sim::SimConfig::highend_a8();
    cfg.scd.flush_interval = Some(700);
    let kinds = vec![
        FaultKind::JteInvalidate,
        FaultKind::BtbFlush,
        FaultKind::RasFlush,
        FaultKind::CacheInvalidate,
    ];
    let path = trace_file("pinned");
    run_source_with(
        cfg,
        Vm::Lvm,
        PIN_SRC,
        &[],
        Scheme::Scd,
        GuestOptions::default(),
        u64::MAX,
        |m| {
            m.set_trace_sink(Box::new(JsonlSink::create(&path).expect("temp file")));
            m.set_fault_plan(FaultPlan::new("pinned", 3, 300, kinds));
        },
    )
    .expect("program runs");
    let text = std::fs::read_to_string(&path).expect("trace written");
    let _ = std::fs::remove_file(&path);
    text
}

/// 64-bit FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

#[test]
fn jsonl_trace_bytes_are_pinned() {
    // The first line to carry each sub-object or field kind, literally.
    const LINES: [(usize, &str); 11] = [
        (
            0,
            r#"{"seq":0,"pc":65536,"class":"alu","cycle":119,"cycles":119,"fetch":{"itlb_miss":true,"icache_miss":true,"l2":{"miss":true},"penalty":118},"arch":{"next_pc":65540,"wx_r":8,"wx_v":1048576}}"#,
        ),
        (
            23,
            r#"{"seq":23,"pc":65628,"class":"jal","cycle":231,"cycles":2,"branch":{"class":"direct","mispredicted":true},"redirect":{"cause":"jal_miss","penalty":1},"inserts":[{"key":"pc","outcome":"inserted"}],"arch":{"next_pc":65632,"wx_r":0,"wx_v":0}}"#,
        ),
        (
            24,
            r#"{"seq":24,"pc":65632,"class":"load","cycle":350,"cycles":119,"dispatch":true,"data":{"dtlb_miss":true,"dcache_miss":true,"l2":{"miss":true},"penalty":118},"arch":{"next_pc":65636,"wx_r":31,"wx_v":0,"ea":809500672}}"#,
        ),
        (
            28,
            r#"{"seq":28,"pc":65648,"class":"store","cycle":357,"cycles":1,"dispatch":true,"arch":{"next_pc":65652,"ea":809500680,"store":1}}"#,
        ),
        (
            31,
            r#"{"seq":31,"pc":65660,"class":"bop","cycle":481,"cycles":5,"dispatch":true,"bop":{"outcome":"jte_miss","stall":4},"arch":{"next_pc":65664}}"#,
        ),
        (
            38,
            r#"{"seq":38,"pc":65688,"class":"jru","cycle":707,"cycles":6,"dispatch":true,"branch":{"class":"ind_dispatch","mispredicted":true},"redirect":{"cause":"indirect_mispredict","penalty":3},"inserts":[{"key":"jte","outcome":"inserted"},{"key":"pc","outcome":"inserted"}],"arch":{"next_pc":65920}}"#,
        ),
        (
            43,
            r#"{"seq":43,"pc":65936,"class":"fp","cycle":809,"cycles":1,"arch":{"next_pc":65940,"wf_r":0,"wf_v":0}}"#,
        ),
        (
            299,
            r#"{"seq":299,"pc":65660,"class":"bop","cycle":2480,"cycles":5,"dispatch":true,"bop":{"outcome":"jte_miss","stall":4},"fault":{"kind":"ras_flush"},"arch":{"next_pc":65664}}"#,
        ),
        (
            599,
            r#"{"seq":599,"pc":68444,"class":"alu","cycle":4154,"cycles":1,"fault":{"kind":"jte_invalidate","evicted":1},"arch":{"next_pc":68448,"wx_r":6,"wx_v":8}}"#,
        ),
        (
            699,
            r#"{"seq":699,"pc":65644,"class":"alu","cycle":4473,"cycles":3,"dispatch":true,"flush":{"flushes":1,"flushed":11},"arch":{"next_pc":65648,"wx_r":31,"wx_v":24}}"#,
        ),
        (
            933,
            r#"{"seq":933,"pc":65688,"class":"jru","cycle":5781,"cycles":6,"dispatch":true,"branch":{"class":"ind_dispatch","mispredicted":true},"redirect":{"cause":"indirect_mispredict","penalty":3},"inserts":[{"key":"jte","outcome":"inserted","evicted":"pc"},{"key":"pc","outcome":"updated"}],"arch":{"next_pc":67672}}"#,
        ),
    ];
    let text = pinned_run_trace();
    let lines: Vec<&str> = text.lines().collect();
    for (seq, want) in LINES {
        assert_eq!(lines[seq], want, "line {seq}");
    }
    for key in
        ["fetch", "l2", "data", "branch", "redirect", "bop", "inserts", "flush", "fault", "arch"]
    {
        let key = format!("\"{key}\":");
        assert!(LINES.iter().any(|(_, l)| l.contains(&key)), "no pinned line carries {key}");
    }
    // Every other byte, by length and hash; and each line reads back to
    // an event that writes the same line.
    assert_eq!((lines.len(), text.len()), (11453, 1531592));
    assert_eq!(fnv1a(text.as_bytes()), 0xb64ebf2878582476);
    for line in &lines {
        let ev = TraceEvent::from_json(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        assert_eq!(ev.to_json(), *line);
    }
}
