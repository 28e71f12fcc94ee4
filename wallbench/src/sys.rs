//! Process and thread resource readings (Linux, 64-bit): `getrusage`, the
//! per-thread CPU clock, and the peak resident set size.

use std::time::Duration;

#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

#[repr(C)]
#[derive(Clone, Copy, Default)]
struct RawRusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    // maxrss, ixrss, idrss, isrss, minflt, majflt, nswap, inblock,
    // oublock, msgsnd, msgrcv, nsignals, nvcsw, nivcsw
    rest: [i64; 14],
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RawRusage) -> i32;
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// Whole-process resource usage at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// User CPU time.
    pub user: Duration,
    /// System CPU time.
    pub sys: Duration,
    /// Voluntary context switches.
    pub vol_switches: u64,
    /// Involuntary context switches.
    pub invol_switches: u64,
}

impl Usage {
    /// Reads the calling process's usage.
    pub fn now() -> Usage {
        let mut raw = RawRusage::default();
        // SAFETY: `raw` is a valid, writable `struct rusage` of the Linux
        // 64-bit layout (two timevals followed by fourteen longs), and
        // RUSAGE_SELF is a valid `who`.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut raw) };
        assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
        let tv = |t: Timeval| Duration::new(t.tv_sec as u64, (t.tv_usec * 1000) as u32);
        Usage {
            user: tv(raw.ru_utime),
            sys: tv(raw.ru_stime),
            vol_switches: raw.rest[12] as u64,
            invol_switches: raw.rest[13] as u64,
        }
    }

    /// User plus system CPU time.
    pub fn cpu(&self) -> Duration {
        self.user + self.sys
    }

    /// The usage accrued between `earlier` and `self`.
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            user: self.user.saturating_sub(earlier.user),
            sys: self.sys.saturating_sub(earlier.sys),
            vol_switches: self.vol_switches - earlier.vol_switches,
            invol_switches: self.invol_switches - earlier.invol_switches,
        }
    }
}

/// CPU time consumed so far by the calling thread.
pub fn thread_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) and CLOCK_THREAD_CPUTIME_ID is a valid clock.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// The machine's CPU time so far as (stolen, total) clock ticks summed
/// over every CPU, from the aggregate `cpu` line of `/proc/stat`. Stolen
/// ticks are those in which the hypervisor ran something else on a virtual
/// CPU that had work. `None` where the file cannot be read or parsed.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user and nice.
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    (ticks.len() == 8).then(|| (ticks[7], ticks.iter().sum()))
}

/// Peak resident set size of this process image (`VmHWM`), in MiB.
/// `getrusage`'s `ru_maxrss` is not used: Linux carries it across `exec`,
/// so under `cargo run` it reports the launcher's footprint when that is
/// larger.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("reading /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}
