//! What the harness reads from the operating system: process CPU time,
//! peak resident set and the load average.

use std::time::Duration;

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod cpu_clock {
    use std::time::Duration;

    /// `struct timespec` on 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }

    pub fn process_cpu() -> Option<Duration> {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `clock_gettime` is the libc function std already links;
        // `ts` is a live, writable `timespec` of the layout 64-bit Linux
        // uses, and the call writes nothing else.
        let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
        (rc == 0).then(|| Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32))
    }
}

/// CPU time (user + system, every thread) this process has used so far.
/// `None` where the clock is unavailable; callers fall back to wall time.
pub fn process_cpu() -> Option<Duration> {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        cpu_clock::process_cpu()
    }
    #[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
    {
        None
    }
}

/// Peak resident set (`VmHWM`) in MiB, from `/proc/self/status`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The 1-minute load average, from `/proc/loadavg`.
pub fn loadavg1() -> Option<f64> {
    std::fs::read_to_string("/proc/loadavg")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// CPU time used while `f` ran (wall time where there is no CPU clock).
pub fn cpu_during<T>(f: impl FnOnce() -> T) -> (Duration, T) {
    let wall = std::time::Instant::now();
    let before = process_cpu();
    let out = f();
    let used = match (before, process_cpu()) {
        (Some(a), Some(b)) => b.saturating_sub(a),
        _ => wall.elapsed(),
    };
    (used, out)
}
