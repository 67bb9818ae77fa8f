//! Shared divergence-report plumbing.
//!
//! Both differential guards — fault injection (`scd-guest`) and lockstep
//! co-simulation ([`crate::lockstep`]) — end the same way on failure: a
//! bounded window of retirement-trace events is dumped to a JSONL file so
//! the failure can be replayed and minimized offline. This module owns
//! that tail so the two guards render findings identically.

use crate::machine::Machine;
use crate::trace::{downcast_sink, RingSink, TraceEvent};
use std::path::PathBuf;

/// Writes the ring window to `scd-divergence-<tag>.jsonl` in the system
/// temp directory; returns `None` when the buffer is empty or the write
/// fails (a guard's verdict never depends on the dump succeeding).
pub fn dump_window(tag: &str, ring: &RingSink) -> Option<PathBuf> {
    if ring.is_empty() {
        return None;
    }
    let path = std::env::temp_dir().join(format!("scd-divergence-{tag}.jsonl"));
    std::fs::write(&path, ring.to_jsonl()).ok()?;
    Some(path)
}

/// Takes a [`RingSink`] back out of a machine (the machine owns its sink;
/// the window is recovered, not shared) and dumps it via [`dump_window`].
pub fn take_and_dump(tag: &str, machine: &mut Machine) -> Option<PathBuf> {
    let ring = machine.take_trace_sink().and_then(downcast_sink::<RingSink>)?;
    dump_window(tag, &ring)
}

/// Renders one retirement event as a single human-readable line for
/// divergence details (`seq`, `pc`, class, and the architectural record
/// when present).
pub fn describe_event(ev: &TraceEvent) -> String {
    let mut s = format!("seq {} pc {:#x} [{:?}]", ev.seq, ev.pc, ev.class);
    if let Some(a) = ev.arch {
        s.push_str(&format!(" -> {:#x}", a.next_pc));
        if let Some((r, v)) = a.wx {
            s.push_str(&format!(" x{r}={v:#x}"));
        }
        if let Some((r, v)) = a.wf {
            s.push_str(&format!(" f{r}={v:#x}"));
        }
        if let Some(ea) = a.ea {
            s.push_str(&format!(" ea={ea:#x}"));
        }
        if let Some(st) = a.store {
            s.push_str(&format!(" store={st:#x}"));
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{ArchInfo, FetchAccess, Inserts, InstClass};

    fn ev() -> TraceEvent {
        TraceEvent {
            seq: 3,
            pc: 0x1_0000,
            class: InstClass::Alu,
            cycle: 10,
            cycles: 1,
            dispatch: false,
            fetch: FetchAccess::default(),
            data: None,
            branch: None,
            redirect: None,
            bop: None,
            inserts: Inserts::default(),
            flush: None,
            fault: None,
            arch: Some(ArchInfo {
                wx: Some((5, 0xAB)),
                wf: None,
                ea: Some(0x2_0000),
                store: None,
                next_pc: 0x1_0004,
            }),
        }
    }

    #[test]
    fn describe_mentions_the_arch_record() {
        let s = describe_event(&ev());
        assert!(s.contains("pc 0x10000"), "{s}");
        assert!(s.contains("x5=0xab"), "{s}");
        assert!(s.contains("ea=0x20000"), "{s}");
    }

    #[test]
    fn empty_ring_dumps_nothing() {
        assert!(dump_window("report-test-empty", &RingSink::new(8)).is_none());
    }
}
