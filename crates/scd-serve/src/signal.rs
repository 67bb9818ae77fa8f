//! SIGINT-as-a-flag and the default SIGPIPE disposition, with no
//! signal-handling dependency.
//!
//! The workspace builds offline (no `libc`/`signal-hook` crates), so
//! the handler is registered through the C `signal(2)` symbol that
//! `std` already links against. The handler body does the only thing
//! that is async-signal-safe *and* useful here: store into a static
//! atomic. Everyone else — the batch driver, the sweep — polls the
//! flag at claim boundaries and drains.
//!
//! On non-Unix targets [`install_sigint_flag`] degrades to a flag that
//! never fires (Ctrl-C then terminates the process with the platform
//! default, exactly the pre-PR behavior).

use std::sync::atomic::AtomicBool;

/// Set by the handler on the first SIGINT.
static INTERRUPTED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod imp {
    use super::INTERRUPTED;
    use std::sync::atomic::Ordering;

    /// `SIGINT` on every Unix this workspace targets.
    const SIGINT: i32 = 2;
    /// `SIGPIPE` on every Unix this workspace targets.
    const SIGPIPE: i32 = 13;
    /// `SIG_DFL`: restore default disposition.
    const SIG_DFL: usize = 0;

    extern "C" {
        /// `signal(2)`, reached through the libc `std` already links.
        fn signal(signum: i32, handler: usize) -> usize;
    }

    /// The handler: record the interrupt, then restore the default
    /// disposition so a *second* Ctrl-C kills a wedged drain instead of
    /// being swallowed.
    extern "C" fn on_sigint(_sig: i32) {
        INTERRUPTED.store(true, Ordering::SeqCst);
        unsafe {
            signal(SIGINT, SIG_DFL);
        }
    }

    pub(super) fn install() {
        unsafe {
            signal(SIGINT, on_sigint as extern "C" fn(i32) as usize);
        }
    }

    pub(super) fn default_sigpipe() {
        // SAFETY: `signal` with a valid signal number and `SIG_DFL`
        // installs no handler code, so nothing here can run in signal
        // context.
        unsafe {
            signal(SIGPIPE, SIG_DFL);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    pub(super) fn install() {}
    pub(super) fn default_sigpipe() {}
}

/// Installs the SIGINT handler (idempotent) and returns the flag it
/// sets. Poll it at work-claim boundaries; once true, drain and exit
/// with the conventional `130`.
pub fn install_sigint_flag() -> &'static AtomicBool {
    imp::install();
    &INTERRUPTED
}

/// Restores the default `SIGPIPE` disposition, which the Rust runtime
/// sets to "ignore" before `main`. A command-line tool whose stdout
/// reader goes away (`scd listing | head`) is then ended by the signal,
/// as `cat` and `grep` are, instead of panicking on the failed write.
pub fn restore_default_sigpipe() {
    imp::default_sigpipe();
}

/// The conventional exit code for "terminated by SIGINT" (128 + 2).
pub const EXIT_SIGINT: i32 = 130;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    #[cfg(unix)]
    #[test]
    fn flag_observes_a_real_sigint() {
        // `raise(2)` delivers synchronously to this thread, so this is
        // deterministic, not a sleep-and-hope test. Restore the handler
        // afterwards (it resets itself to SIG_DFL on delivery) so a
        // stray Ctrl-C in a test run still behaves.
        extern "C" {
            fn raise(sig: i32) -> i32;
        }
        let flag = install_sigint_flag();
        assert!(!flag.load(Ordering::SeqCst));
        unsafe {
            raise(2);
        }
        assert!(flag.load(Ordering::SeqCst), "handler must record the SIGINT");
        // Re-arm for any other test (or harness) relying on defaults.
        INTERRUPTED.store(false, Ordering::SeqCst);
    }
}
