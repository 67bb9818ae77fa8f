#![warn(missing_docs)]

//! # scd-sim — the embedded-processor simulator
//!
//! A cycle-approximate model of the small in-order cores evaluated in the
//! paper (Table II): single- or dual-issue, shallow pipeline, tournament
//! or gshare direction prediction, a branch target buffer with the SCD
//! jump-table-entry overlay, return-address stack, VBBI, L1 I/D caches,
//! TLBs and a flat DRAM latency.
//!
//! ```
//! use scd_isa::{Asm, Reg};
//! use scd_sim::{Machine, SimConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut a = Asm::new(0x1_0000);
//! a.li(Reg::A0, 6);
//! a.slli(Reg::A0, Reg::A0, 3); // 48
//! a.li(Reg::A7, 0);
//! a.ecall(); // halt with code in a0
//! let program = a.finish()?;
//!
//! let mut m = Machine::new(SimConfig::embedded_a5(), &program);
//! let exit = m.run(1_000)?;
//! assert_eq!(exit.code, 48);
//! assert!(m.stats.cycles > 0);
//! # Ok(())
//! # }
//! ```

pub mod btb;
pub mod cache;
pub mod config;
pub mod fault;
pub mod ittage;
pub mod json;
pub mod lockstep;
pub mod machine;
pub mod predictor;
pub mod report;
pub mod sampling;
pub mod snapshot;
pub mod stats;
pub mod tlb;
pub mod trace;

pub use btb::{
    xor_fold, Btb, BtbConfig, BtbKey, BtbOrg, BtbStats, EntryKind, InsertOutcome,
    TwoLevelBtbConfig, TwoLevelStats,
};
pub use cache::{Cache, CacheAccess, CacheConfig, Replacement};
pub use config::{IndirectPredictor, ScdConfig, SimConfig};
pub use fault::{diff_architectural, FaultEvent, FaultKind, FaultPlan};
pub use ittage::Ittage;
pub use lockstep::{LockstepDivergence, LockstepSink};
pub use machine::{
    Annotations, Exit, Machine, Profile, SimError, VbbiHint, WatchdogKind, MAX_BRANCH_IDS,
};
pub use predictor::{Direction, DirectionConfig, Ras};
pub use sampling::{mean_ci95, SampleAccum, SampleReport, SamplingPlan};
pub use scd_ref::{ArchState, GuestMemory, MemFault};
pub use snapshot::{Snapshot, SnapshotError};
pub use stats::{geomean, AccessCounters, BranchClass, BranchCounters, SimStats, COUNTER_NAMES};
pub use tlb::Tlb;
pub use trace::{
    diff_stats, downcast_sink, ArchInfo, BopEvent, BopOutcome, BranchEvent, BtbInsertEvent,
    CycleBreakdown, DataAccess, FetchAccess, Inserts, InstClass, JsonlSink, JteFlushEvent,
    L2Access, RedirectCause, RedirectEvent, ReplayStats, RingSink, StatInvariants, TraceEvent,
    TraceSink, VecSink,
};
