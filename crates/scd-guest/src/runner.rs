//! Builds a machine, loads a guest interpreter + program image, runs to
//! completion and validates the result against the host oracle.

use crate::common::{Guest, GuestOptions, Scheme};
use crate::layout::{self, Image};
use luma::lvm::LvmProgram;
use luma::svm::SvmProgram;
use scd_sim::{
    downcast_sink, Exit, Machine, SampleReport, SamplingPlan, SimConfig, SimError, SimStats,
    TraceSink,
};
use std::fmt;

/// Which guest VM to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Vm {
    /// Register-based, Lua-like (47 opcodes).
    Lvm,
    /// Stack-based, SpiderMonkey-like (229-opcode space).
    Svm,
}

impl Vm {
    /// Both VMs, in the paper's presentation order.
    pub const ALL: [Vm; 2] = [Vm::Lvm, Vm::Svm];

    /// Report name, using the paper's language labels.
    pub fn name(self) -> &'static str {
        match self {
            Vm::Lvm => "lvm",
            Vm::Svm => "svm",
        }
    }
}

/// Error from a guest run.
#[derive(Debug)]
pub enum GuestError {
    /// The simulated machine faulted.
    Sim(SimError),
    /// The guest finished but its checksum differs from the oracle's.
    ChecksumMismatch {
        /// The guest's checksum.
        guest: u64,
        /// The oracle's checksum.
        oracle: u64,
    },
    /// The guest's retired-bytecode count differs from the oracle's.
    DispatchMismatch {
        /// The guest's retired-bytecode count.
        guest: u64,
        /// The oracle's bytecode count.
        oracle: u64,
    },
}

impl fmt::Display for GuestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GuestError::Sim(e) => write!(f, "simulation error: {e}"),
            GuestError::ChecksumMismatch { guest, oracle } => {
                write!(f, "checksum mismatch: guest {guest:#x}, oracle {oracle:#x}")
            }
            GuestError::DispatchMismatch { guest, oracle } => {
                write!(f, "dispatch-count mismatch: guest {guest}, oracle {oracle}")
            }
        }
    }
}

impl std::error::Error for GuestError {}

impl From<SimError> for GuestError {
    fn from(e: SimError) -> Self {
        GuestError::Sim(e)
    }
}

/// Result of a validated guest run.
pub struct GuestRun {
    /// The `emit` checksum computed by the guest.
    pub checksum: u64,
    /// Bytecodes dispatched (from the guest's own retired counter).
    pub dispatches: u64,
    /// Full simulator statistics.
    pub stats: SimStats,
    /// The trace sink the setup hook installed, handed back with its
    /// accumulated state once the machine is done with it (`None` when
    /// no sink was installed, or when the caller still holds the
    /// [`Session`] and can take it from the machine directly). Owned,
    /// not shared: this is what lets traced runs execute on worker
    /// threads.
    pub sink: Option<Box<dyn TraceSink>>,
    /// Sampling metadata when the run executed in sampled mode (`stats`
    /// then holds the scaled estimate; checksum and dispatch count stay
    /// exact either way).
    pub sample: Option<SampleReport>,
}

impl GuestRun {
    /// Takes the run's sink back as its concrete type (consuming the
    /// sink either way — see [`downcast_sink`]).
    pub fn take_sink<T: TraceSink>(&mut self) -> Option<Box<T>> {
        self.sink.take().and_then(downcast_sink::<T>)
    }
}

impl fmt::Debug for GuestRun {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GuestRun")
            .field("checksum", &self.checksum)
            .field("dispatches", &self.dispatches)
            .field("stats", &self.stats)
            .field("sink", &self.sink.as_ref().map(|_| "<trace sink>"))
            .finish()
    }
}

/// Builds a machine with the guest interpreter installed and the
/// program image, globals, stacks and heap mapped — loaded but not yet
/// run.
fn build_machine(cfg: SimConfig, guest: &Guest, img: &Image) -> Machine {
    let mut m = Machine::new(cfg, &guest.program);
    m.set_annotations(guest.annotations.clone());
    m.map(
        "image",
        layout::IMAGE_BASE,
        (img.bytes.len() as u64 + 4095) & !4095,
    );
    m.mem_mut().write_bytes(layout::IMAGE_BASE, &img.bytes);
    m.map("globals", layout::GLOBALS_BASE, 1 << 20);
    for (i, g) in img.global_init.iter().enumerate() {
        m.mem_mut()
            .write(layout::GLOBALS_BASE + 8 * i as u64, 8, *g)
            .expect("globals segment mapped");
    }
    m.map(
        "vstack+ctl",
        layout::VSTACK_BASE,
        layout::VSTACK_SIZE + layout::VMCTL_SIZE,
    );
    m.map("frames", layout::FRAME_BASE, layout::FRAME_SIZE);
    m.map("heap", layout::HEAP_BASE, layout::HEAP_SIZE);
    m
}

/// The compiled guest program plus everything the oracle needs.
enum Compiled {
    Lvm {
        /// Register-VM bytecode.
        program: LvmProgram,
        /// Initial global values.
        init: Vec<u64>,
    },
    Svm {
        /// Stack-VM bytecode.
        program: SvmProgram,
        /// Initial global values.
        init: Vec<u64>,
    },
}

/// A loaded guest run whose [`Machine`] is exposed for stepwise control.
///
/// Where [`run_source`] runs a guest in one shot, a `Session` separates
/// *loading* from *running* so the caller can install fault plans, trace
/// sinks, watchdog budgets or checkpoints on [`Session::machine`] before
/// (or between) runs, then have the result checked against the host
/// oracle with [`Session::validate`].
pub struct Session {
    /// The fully loaded simulated machine. Drive it directly:
    /// `machine.set_fault_plan(..)`, `machine.snapshot()`,
    /// `machine.run(..)`, ...
    pub machine: Machine,
    compiled: Compiled,
    opts: GuestOptions,
}

impl Session {
    /// Parses and compiles `src` for `vm`, builds the guest interpreter
    /// under `scheme` and loads everything into a fresh machine.
    ///
    /// # Errors
    /// Returns a string describing parse or compile errors.
    pub fn from_source(
        cfg: SimConfig,
        vm: Vm,
        src: &str,
        predefined: &[(&str, f64)],
        scheme: Scheme,
        opts: GuestOptions,
    ) -> Result<Session, String> {
        let script = luma::parser::parse(src).map_err(|e| e.to_string())?;
        let (compiled, img, guest) = match vm {
            Vm::Lvm => {
                let (p, init) =
                    luma::lvm::compile_lvm(&script, predefined).map_err(|e| e.to_string())?;
                let img = layout::build_lvm_image(&p, &init);
                let guest = crate::lvm::build_lvm_guest(&img, scheme, opts);
                (Compiled::Lvm { program: p, init }, img, guest)
            }
            Vm::Svm => {
                let (p, init) =
                    luma::svm::compile_svm(&script, predefined).map_err(|e| e.to_string())?;
                let img = layout::build_svm_image(&p, &init);
                let guest = crate::svm::build_svm_guest(&img, scheme, opts);
                (Compiled::Svm { program: p, init }, img, guest)
            }
        };
        Ok(Session {
            machine: build_machine(cfg, &guest, &img),
            compiled,
            opts,
        })
    }

    /// Runs the machine to completion and validates the result; the
    /// one-shot convenience over [`Session::validate`].
    ///
    /// # Errors
    /// Returns [`GuestError`] on simulator faults or oracle mismatches.
    pub fn run_and_validate(&mut self, max_insts: u64) -> Result<GuestRun, GuestError> {
        let exit = self.machine.run(max_insts)?;
        self.validate(&exit)
    }

    /// Checks a completed run (its halting [`Exit`]) against the host
    /// oracle: the `emit` checksum must match, and with production
    /// weight the retired-dispatch count must too.
    ///
    /// # Errors
    /// Returns [`GuestError::ChecksumMismatch`] or
    /// [`GuestError::DispatchMismatch`] when the guest and oracle
    /// disagree.
    pub fn validate(&mut self, exit: &Exit) -> Result<GuestRun, GuestError> {
        let checksum = exit.code;
        let dispatches = self
            .machine
            .mem()
            .read(layout::VMCTL_BASE + layout::CTL_DISPATCH_COUNT as u64, 8)
            .expect("ctl mapped");
        let oracle = match &self.compiled {
            Compiled::Lvm { program, init } => luma::lvm::LvmInterp::new(program, init)
                .run(u64::MAX)
                .expect("oracle agrees the program terminates"),
            Compiled::Svm { program, init } => luma::svm::SvmInterp::new(program, init)
                .run(u64::MAX)
                .expect("oracle agrees the program terminates"),
        };
        if oracle.checksum != checksum {
            return Err(GuestError::ChecksumMismatch {
                guest: checksum,
                oracle: oracle.checksum,
            });
        }
        if self.opts.production_weight && dispatches != oracle.steps {
            return Err(GuestError::DispatchMismatch {
                guest: dispatches,
                oracle: oracle.steps,
            });
        }
        // The sink (if any) stays on the machine: the caller holds the
        // session and takes it from there.
        Ok(GuestRun {
            checksum,
            dispatches,
            stats: self.machine.stats.clone(),
            sink: None,
            sample: None,
        })
    }

    /// Runs the machine in sampled mode (fast-forward → warm → measure
    /// under `plan`) and validates the architectural results against the
    /// oracle exactly as [`Session::run_and_validate`] does — checksum
    /// and dispatch counts are exact in every execution mode, only the
    /// timing counters are estimates. The returned run carries the
    /// [`SampleReport`] and its `stats` hold the scaled estimate.
    ///
    /// # Errors
    /// Returns [`GuestError`] on simulator faults or oracle mismatches.
    pub fn run_sampled_and_validate(
        &mut self,
        max_insts: u64,
        plan: &SamplingPlan,
    ) -> Result<GuestRun, GuestError> {
        let (exit, report) = self.machine.run_sampled(max_insts, plan)?;
        let mut run = self.validate(&exit)?;
        run.sample = Some(report);
        Ok(run)
    }
}

/// Everything that identifies one guest run — one *cell* of the paper's
/// run matrix: hardware configuration, VM, program, inputs, dispatch
/// scheme, build options and instruction budget.
///
/// [`run_source`] threads these through as positional arguments, which
/// was tolerable for two call sites and is not for a sweep driver that
/// builds hundreds of cells. A `RunRequest` is the named bundle: build
/// it once, then [`RunRequest::run`] it, open a
/// [`Session`](RunRequest::session) for stepwise control, or hand it to
/// [`differential_check`](crate::differential_check) for the fault
/// guard.
#[derive(Debug, Clone)]
pub struct RunRequest<'a> {
    /// Simulated-core configuration.
    pub cfg: SimConfig,
    /// Which guest VM interprets the program.
    pub vm: Vm,
    /// Benchmark source text.
    pub src: &'a str,
    /// Predefined variables (e.g. `[("N", 1000.0)]`).
    pub predefined: &'a [(&'a str, f64)],
    /// Dispatch scheme of the interpreter build.
    pub scheme: Scheme,
    /// Interpreter build options.
    pub opts: GuestOptions,
    /// Retired-instruction budget (`u64::MAX` = unbounded).
    pub max_insts: u64,
    /// Run in sampled mode under this plan instead of full detail.
    pub sample: Option<SamplingPlan>,
}

impl<'a> RunRequest<'a> {
    /// A request with the common defaults: no predefined variables,
    /// baseline scheme, default build options, unbounded budget.
    pub fn new(cfg: SimConfig, vm: Vm, src: &'a str) -> Self {
        RunRequest {
            cfg,
            vm,
            src,
            predefined: &[],
            scheme: Scheme::Baseline,
            opts: GuestOptions::default(),
            max_insts: u64::MAX,
            sample: None,
        }
    }

    /// Sets the predefined variables.
    #[must_use]
    pub fn predefined(mut self, predefined: &'a [(&'a str, f64)]) -> Self {
        self.predefined = predefined;
        self
    }

    /// Sets the dispatch scheme.
    #[must_use]
    pub fn scheme(mut self, scheme: Scheme) -> Self {
        self.scheme = scheme;
        self
    }

    /// Sets the interpreter build options.
    #[must_use]
    pub fn opts(mut self, opts: GuestOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Sets the retired-instruction budget.
    #[must_use]
    pub fn max_insts(mut self, max_insts: u64) -> Self {
        self.max_insts = max_insts;
        self
    }

    /// Selects sampled execution under `plan` (`None` = full detail).
    #[must_use]
    pub fn sample(mut self, plan: Option<SamplingPlan>) -> Self {
        self.sample = plan;
        self
    }

    /// The canonical identity manifest for content-addressed result
    /// caching: a versioned, deterministic text rendering of everything
    /// that can change the simulated outcome — the full [`SimConfig`]
    /// (its `Debug` form, the same canonicalization the snapshot
    /// fingerprint relies on), VM, dispatch scheme, build options,
    /// instruction budget, the predefined variables (f64s by bit
    /// pattern, so `-0.0` and NaN payloads stay distinct) and the
    /// program source itself. Cache layers hash this text to derive the
    /// entry key; the leading version line must be bumped whenever the
    /// simulator's timing model changes meaning without any field here
    /// changing, which invalidates every stale entry at once.
    pub fn cache_manifest(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        s.push_str("scd-run-request-v1\n");
        let _ = writeln!(s, "cfg {:?}", self.cfg);
        let _ = writeln!(s, "vm {}", self.vm.name());
        let _ = writeln!(s, "scheme {}", self.scheme.name());
        let _ = writeln!(s, "opts {:?}", self.opts);
        let _ = writeln!(s, "max_insts {}", self.max_insts);
        // Only present for sampled runs, so every full-detail manifest
        // (and thus every existing cache entry) is byte-identical to
        // what it was before sampling existed.
        if let Some(plan) = &self.sample {
            let _ = writeln!(s, "{}", plan.manifest());
        }
        let _ = writeln!(s, "predefined {}", self.predefined.len());
        for (k, v) in self.predefined {
            let _ = writeln!(s, "  {} {:#018x}", k, v.to_bits());
        }
        let _ = writeln!(s, "src {}", self.src.len());
        s.push_str(self.src);
        s
    }

    /// Loads the request into a [`Session`] (machine built, not run).
    ///
    /// # Errors
    /// Returns a string describing parse or compile errors.
    pub fn session(&self) -> Result<Session, String> {
        Session::from_source(
            self.cfg.clone(),
            self.vm,
            self.src,
            self.predefined,
            self.scheme,
            self.opts,
        )
    }

    /// Runs the request end to end and validates against the oracle.
    ///
    /// # Errors
    /// Returns a string describing parse/compile errors or a
    /// [`GuestError`].
    pub fn run(&self) -> Result<GuestRun, String> {
        self.run_with(|_| {})
    }

    /// [`RunRequest::run`] with a `setup` hook run on the machine just
    /// before execution — the place to install a trace sink or tune the
    /// invariant checker.
    ///
    /// # Errors
    /// Returns a string describing parse/compile errors or a
    /// [`GuestError`].
    pub fn run_with(&self, setup: impl FnOnce(&mut Machine)) -> Result<GuestRun, String> {
        let mut session = self.session()?;
        setup(&mut session.machine);
        let mut run = match &self.sample {
            Some(plan) => session.run_sampled_and_validate(self.max_insts, plan),
            None => session.run_and_validate(self.max_insts),
        }
        .map_err(|e| e.to_string())?;
        run.sink = session.machine.take_trace_sink();
        Ok(run)
    }
}

/// Compiles a benchmark source for the given VM and runs it end to end.
///
/// # Errors
/// Returns a string describing parse/compile errors or a [`GuestError`].
pub fn run_source(
    cfg: SimConfig,
    vm: Vm,
    src: &str,
    predefined: &[(&str, f64)],
    scheme: Scheme,
    opts: GuestOptions,
    max_insts: u64,
) -> Result<GuestRun, String> {
    run_source_with(cfg, vm, src, predefined, scheme, opts, max_insts, |_| {})
}

/// [`run_source`] with a `setup` hook run on the machine just before
/// execution — the place to install a trace sink or tune the invariant
/// checker.
///
/// # Errors
/// Returns a string describing parse/compile errors or a [`GuestError`].
#[allow(clippy::too_many_arguments)]
pub fn run_source_with(
    cfg: SimConfig,
    vm: Vm,
    src: &str,
    predefined: &[(&str, f64)],
    scheme: Scheme,
    opts: GuestOptions,
    max_insts: u64,
    setup: impl FnOnce(&mut Machine),
) -> Result<GuestRun, String> {
    RunRequest::new(cfg, vm, src)
        .predefined(predefined)
        .scheme(scheme)
        .opts(opts)
        .max_insts(max_insts)
        .run_with(setup)
}
