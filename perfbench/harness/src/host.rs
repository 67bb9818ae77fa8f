//! Host facts on Linux: process CPU time, hypervisor steal and peak
//! resident set from `/proc`, and the calling thread's CPU clock.

/// `/proc` reports CPU time in USER_HZ ticks, fixed at 100 by the Linux
/// user-space ABI.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds of this process, all threads included
/// (so the replay producer thread shows up here).
pub fn cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesized command name; utime and stime are
    // fields 14 and 15 of the full line, i.e. 12 and 13 after ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (tick(11) + tick(12)) / USER_HZ
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads /proc and uses the 64-bit Linux `timespec` layout");

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// `CLOCK_THREAD_CPUTIME_ID` in Linux's `<time.h>`.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU seconds the calling thread has run, to the nanosecond. With
/// paravirtual time accounting the kernel leaves out the time the
/// hypervisor stole from the thread's CPU, so this is the thread's own
/// work only. `/proc/thread-self/schedstat` would avoid the FFI, but it
/// lags the running thread by up to a scheduler tick (4 ms).
pub fn thread_cpu_s() -> Option<f64> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec with the C layout of
    // 64-bit Linux, and the clock id is a constant the kernel accepts.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    (rc == 0).then_some(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
}

/// CPU seconds the hypervisor gave to other guests while this host's
/// CPUs had work (`steal` in `/proc/stat`, all CPUs). Time-sharing with
/// neighbours shows up here rather than in this process's CPU time.
pub fn steal_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse::<f64>().ok())
        .map_or(0.0, |t| t / USER_HZ)
}

/// How much longer a timed phase of `wall_s` ran because `steal_s` of
/// CPU time (summed over every CPU) was stolen meanwhile, given the
/// process's CPU time `cpu_s` (which leaves steal out).
///
/// Steal builds up only on CPUs that have work. A process that keeps `k`
/// CPUs busy on average, `k = cpu_s / (wall_s - stretch)`, collects the
/// steal of all `k` of them but is delayed by one CPU's share, so
/// `stretch = steal_s / k`, which solves to
/// `steal_s * wall_s / (cpu_s + steal_s)`. It is capped at `steal_s`:
/// a process that sleeps part of the phase (`k < 1`) is delayed by at
/// most what was stolen.
pub fn stretch_s(wall_s: f64, cpu_s: f64, steal_s: f64) -> f64 {
    if steal_s <= 0.0 {
        return 0.0;
    }
    (steal_s * wall_s / (cpu_s + steal_s)).min(steal_s)
}

/// Peak resident set size of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_plausible() {
        let t = std::time::Instant::now();
        let mut x = 0u64;
        while t.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(cpu_s() > 0.0);
        let thread = thread_cpu_s().expect("the thread CPU clock is readable");
        assert!(thread > 0.0 && thread < cpu_s() + 1.0);
        assert!(peak_rss_mb() > 0.0);
        assert!(nproc() >= 1);
    }

    #[test]
    fn stretch_counts_one_cpus_share_of_the_steal() {
        // One busy thread for 10 s, 2 s of it stolen: all of it delays.
        assert!((stretch_s(10.0, 8.0, 2.0) - 2.0).abs() < 1e-12);
        // Two busy threads (a replay producer beside the main loop), each
        // CPU losing 2 s of a 10 s phase: 4 s of steal, but the phase
        // is only 2 s longer.
        assert!((stretch_s(10.0, 16.0, 4.0) - 2.0).abs() < 1e-12);
        // A second thread busy half the time, steal 1 s per busy CPU.
        // k = 13.5 / 9 = 1.5 CPUs, steal 1.5 s, stretch 1 s.
        assert!((stretch_s(10.0, 13.5, 1.5) - 1.0).abs() < 1e-12);
        // A mostly sleeping process is delayed by at most what was stolen.
        assert_eq!(stretch_s(10.0, 1.0, 0.5), 0.5);
        assert_eq!(stretch_s(10.0, 8.0, 0.0), 0.0);
    }
}
