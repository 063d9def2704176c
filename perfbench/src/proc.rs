//! Child processes measured by the kernel's own accounting.
//!
//! `std::process::Child::wait` discards the `rusage` the kernel keeps
//! for a reaped child, and that record is the only exact source of a
//! child's peak RSS and CPU time.  This module reaps children with
//! `wait4(2)` instead, and reads the benchmark's own usage with
//! `getrusage(2)` for the in-process traced runs.  The declarations
//! below are the glibc/Linux x86-64 and aarch64 ABI.

use std::io::Read;
use std::process::{Child, Command, Stdio};
use std::time::Instant;

#[repr(C)]
#[derive(Default, Clone, Copy)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` as Linux lays it out on 64-bit targets.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kb: i64,
    _rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn getrusage(who: i32, rusage: *mut Rusage) -> i32;
    fn malloc_trim(pad: usize) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// `cpu_set_t`: 1024 CPU bits.
type CpuSet = [u64; 16];

fn set_affinity(mask: &CpuSet) -> std::io::Result<()> {
    // SAFETY: `mask` is a live `cpu_set_t`-sized buffer and the size
    // passed is its size; pid 0 names this thread.
    let r = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), mask.as_ptr()) };
    if r == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}

/// Runs `f` with this thread pinned to the lowest CPU it may use, so
/// every child spawned inside starts there too, then restores the mask.
///
/// Start-up costs of a millisecond depend on which CPU they run on (two
/// vCPUs of one VM were measured 40 % apart), and a child starts on its
/// parent's CPU.  Pinning the set-up samples takes that placement out of
/// `setup_s`.  Measured workload processes are never pinned, so their
/// threads may use every CPU.
pub fn on_first_cpu<R>(f: impl FnOnce() -> R) -> std::io::Result<R> {
    let mut all: CpuSet = [0; 16];
    // SAFETY: as in `set_affinity`; the call writes at most `size` bytes
    // into `all`.
    let r = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), all.as_mut_ptr()) };
    if r != 0 {
        return Err(std::io::Error::last_os_error());
    }
    let (word, bits) = all
        .iter()
        .enumerate()
        .find(|(_, w)| **w != 0)
        .expect("a thread may run on some CPU");
    let mut first: CpuSet = [0; 16];
    first[word] = 1 << bits.trailing_zeros();
    set_affinity(&first)?;
    let out = f();
    set_affinity(&all)?;
    Ok(out)
}

const RUSAGE_SELF: i32 = 0;
const EINTR: i32 = 4;

fn secs(t: Timeval) -> f64 {
    t.sec as f64 + t.usec as f64 * 1e-6
}

/// How a reaped child ended and what it cost.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// Whether it exited normally with code 0.
    pub success: bool,
    /// Peak resident set, MiB.
    pub peak_rss_mb: f64,
    /// User plus system CPU time, seconds.
    pub cpu_s: f64,
}

/// Reaps `child` with `wait4`, blocking until it ends.  `child` must not
/// have been waited on already; afterwards it must not be waited on
/// again (the kernel no longer knows the pid).
pub fn reap(child: &Child) -> std::io::Result<Usage> {
    let pid = i32::try_from(child.id()).expect("Linux pids fit in i32");
    let mut status = 0i32;
    let mut ru = Rusage::default();
    loop {
        // SAFETY: `status` and `ru` are live, writable and laid out as
        // the kernel's `int` and `struct rusage` on this target; `pid`
        // names a child of this process that nothing else reaps.
        let r = unsafe { wait4(pid, &mut status, 0, &mut ru) };
        if r == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.raw_os_error() != Some(EINTR) {
            return Err(err);
        }
    }
    // WIFEXITED && WEXITSTATUS == 0.
    let success = status & 0x7f == 0 && (status >> 8) & 0xff == 0;
    Ok(Usage {
        success,
        peak_rss_mb: ru.maxrss_kb as f64 / 1024.0,
        cpu_s: secs(ru.utime) + secs(ru.stime),
    })
}

/// User plus system CPU time this process (all threads) has used.
pub fn self_cpu_s() -> f64 {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a live, writable `struct rusage`; RUSAGE_SELF is a
    // valid `who` and the call writes nothing else.
    let r = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(r, 0, "getrusage(RUSAGE_SELF) cannot fail");
    secs(ru.utime) + secs(ru.stime)
}

/// Lowers this process's peak-RSS mark to its current RSS.
///
/// A child spawned from this process inherits this process's peak RSS
/// into its own `ru_maxrss` when it execs, so the mark must be small
/// before every spawn whose peak RSS is reported.  Free heap pages go
/// back to the kernel first, so the current RSS is small too.
pub fn reset_peak_rss() -> std::io::Result<()> {
    // SAFETY: malloc_trim only releases free heap memory; it takes no
    // pointers and is safe to call at any time.
    unsafe { malloc_trim(0) };
    std::fs::write("/proc/self/clear_refs", "5")
}

/// One finished run of a command.
#[derive(Debug)]
pub struct Run {
    /// Spawn to reap, seconds.
    pub wall_s: f64,
    /// Everything the child wrote to stdout.
    pub stdout: Vec<u8>,
    /// Kernel accounting of the child.
    pub usage: Usage,
}

/// Runs `cmd` to completion with stdout captured and stderr passed
/// through, timing it from spawn to reap.
pub fn run(cmd: &mut Command) -> std::io::Result<Run> {
    reset_peak_rss()?;
    let t0 = Instant::now();
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()?;
    let mut stdout = Vec::new();
    let read = child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_end(&mut stdout);
    let usage = reap(&child)?;
    let wall_s = t0.elapsed().as_secs_f64();
    read?;
    Ok(Run {
        wall_s,
        stdout,
        usage,
    })
}
