//! Process resource accounting: CPU time and peak resident memory from
//! `getrusage(2)`, and the machine's core count.

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux (every `long` field is 64 bits).
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    ru_ixrss: i64,
    ru_idrss: i64,
    ru_isrss: i64,
    ru_minflt: i64,
    ru_majflt: i64,
    ru_nswap: i64,
    ru_inblock: i64,
    ru_oublock: i64,
    ru_msgsnd: i64,
    ru_msgrcv: i64,
    ru_nsignals: i64,
    ru_nvcsw: i64,
    ru_nivcsw: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;

/// One `getrusage` reading.
#[derive(Clone, Copy, Debug)]
pub struct Usage {
    /// User + system CPU seconds.
    pub cpu_s: f64,
    /// Peak resident set in KiB (for children: the largest reaped
    /// descendant).
    pub maxrss_kib: i64,
}

fn read(who: i32) -> Usage {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a properly aligned, writable `struct rusage` with the
    // 64-bit Linux layout, and `who` is one of the two documented selectors.
    let rc = unsafe { getrusage(who, &mut ru) };
    assert_eq!(rc, 0, "getrusage({who}) failed");
    let secs = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
    Usage {
        cpu_s: secs(&ru.ru_utime) + secs(&ru.ru_stime),
        maxrss_kib: ru.ru_maxrss,
    }
}

/// This process, all threads.
pub fn self_usage() -> Usage {
    read(RUSAGE_SELF)
}

/// Every reaped descendant of this process.
pub fn children_usage() -> Usage {
    read(RUSAGE_CHILDREN)
}

/// CPU seconds of this process plus its reaped descendants.
pub fn total_cpu_s() -> f64 {
    self_usage().cpu_s + children_usage().cpu_s
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}
