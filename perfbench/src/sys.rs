//! Process resource accounting the standard library does not expose:
//! CPU time and peak resident set of this process (`getrusage`) and of a
//! child reaped with `wait4`. Linux, 64-bit targets only.

use std::io;
use std::time::Duration;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads rusage through the 64-bit Linux ABI");

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of the 64-bit Linux ABI: two timevals, then 14 longs
/// of which only the first (`ru_maxrss`, in KiB) is read here.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    _rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// CPU time and peak resident set of a process.
#[derive(Clone, Copy, Debug)]
pub struct Usage {
    /// User plus system CPU time.
    pub cpu: Duration,
    /// Peak resident set in MiB.
    pub max_rss_mb: f64,
}

impl From<&Rusage> for Usage {
    fn from(r: &Rusage) -> Usage {
        let micros = |t: &Timeval| t.sec as u64 * 1_000_000 + t.usec as u64;
        Usage {
            cpu: Duration::from_micros(micros(&r.utime) + micros(&r.stime)),
            max_rss_mb: r.maxrss as f64 / 1024.0,
        }
    }
}

/// Usage of this process so far (all threads).
pub fn self_usage() -> Usage {
    let mut r = Rusage::default();
    // SAFETY: `r` is a live, writable `struct rusage` of the layout the
    // 64-bit Linux ABI defines; getrusage writes only inside it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut r) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with valid arguments"
    );
    Usage::from(&r)
}

/// Peak resident set of this process's own address space in MiB
/// (`VmHWM`). Unlike `ru_maxrss` it starts afresh at `exec`, so it does
/// not carry the peak of whatever ran the process (`cargo run` holds
/// twice the benchmark's own).
pub fn self_peak_rss_mb() -> io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::other("no VmHWM line in /proc/self/status"))
}

/// How a reaped child ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Exit {
    /// Normal exit with this code.
    Code(i32),
    /// Killed by this signal.
    Signal(i32),
}

/// Waits for child `pid` to end and returns its exit and resource usage.
/// The caller must not also reap the child through `std::process::Child`.
pub fn wait_child(pid: u32) -> io::Result<(Exit, Usage)> {
    let pid = i32::try_from(pid).map_err(|_| io::Error::other("pid out of range"))?;
    let mut status = 0i32;
    let mut r = Rusage::default();
    loop {
        // SAFETY: `status` and `r` are live, writable locals of the types
        // wait4 expects; it writes only inside them.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut r) };
        if rc == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let exit = if status & 0x7f == 0 {
        Exit::Code((status >> 8) & 0xff)
    } else {
        Exit::Signal(status & 0x7f)
    };
    Ok((exit, Usage::from(&r)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_usage_grows_with_work() {
        let before = self_usage();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        let after = self_usage();
        assert!(after.cpu > before.cpu);
        assert!(after.max_rss_mb > 0.0);
        let own = self_peak_rss_mb().unwrap();
        assert!(own > 0.0 && own <= after.max_rss_mb);
    }

    // The children are reaped by `wait_child`, which clippy cannot see.
    #[allow(clippy::zombie_processes)]
    #[test]
    fn wait_child_reports_exit_code_and_signal() {
        let child = std::process::Command::new("sh")
            .args(["-c", "exit 7"])
            .spawn()
            .unwrap();
        assert_eq!(wait_child(child.id()).unwrap().0, Exit::Code(7));
        let child = std::process::Command::new("sh")
            .args(["-c", "kill -9 $$"])
            .spawn()
            .unwrap();
        assert_eq!(wait_child(child.id()).unwrap().0, Exit::Signal(9));
    }
}
