//! The few Linux calls the benchmark needs and `std` lacks: CPU time and
//! peak RSS (`getrusage`), reaping a child with its resource usage
//! (`wait4`), and the kernel release (`uname`).

use std::io;
use std::process::Child;
use std::time::{Duration, Instant};

#[repr(C)]
#[derive(Default, Clone, Copy)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` as laid out on 64-bit Linux.
#[repr(C)]
#[derive(Default, Clone, Copy)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    rest: [i64; 13],
}

#[repr(C)]
struct Utsname {
    fields: [[u8; 65]; 6],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut Rusage) -> i32;
    fn uname(buf: *mut Utsname) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const WNOHANG: i32 = 1;

/// CPU seconds and peak RSS of a process.
#[derive(Clone, Copy, Debug, Default)]
pub struct Usage {
    /// User plus system CPU seconds.
    pub cpu_s: f64,
    /// Peak resident set size in bytes.
    pub maxrss_bytes: u64,
}

impl From<Rusage> for Usage {
    fn from(r: Rusage) -> Usage {
        let secs = |t: Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
        Usage {
            cpu_s: secs(r.ru_utime) + secs(r.ru_stime),
            // Linux reports ru_maxrss in KiB.
            maxrss_bytes: r.ru_maxrss.max(0) as u64 * 1024,
        }
    }
}

/// Resource usage of the calling process so far.
pub fn self_usage() -> Usage {
    let mut r = Rusage::default();
    // SAFETY: `r` is a valid, writable `struct rusage` for the duration of
    // the call, and RUSAGE_SELF is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut r) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    r.into()
}

/// Reaps `child` within `timeout`, returning its exit code (`None` when
/// killed by a signal) and its resource usage. On timeout the child is
/// killed and reaped before the error returns, so no process outlives
/// the call either way.
pub fn reap(child: &mut Child, timeout: Duration) -> io::Result<(Option<i32>, Usage)> {
    let pid = child.id() as i32;
    let deadline = Instant::now() + timeout;
    let mut killed = false;
    loop {
        let mut status = 0i32;
        let mut r = Rusage::default();
        // SAFETY: `status` and `r` are valid and writable for the call;
        // `pid` is our own unreaped child.
        let rc = unsafe { wait4(pid, &mut status, WNOHANG, &mut r) };
        if rc == pid {
            let code = if status & 0x7f == 0 {
                Some((status >> 8) & 0xff)
            } else {
                None
            };
            if killed {
                return Err(io::Error::other(format!(
                    "process {pid} did not exit within {timeout:?} and was killed"
                )));
            }
            return Ok((code, r.into()));
        }
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        if !killed && Instant::now() >= deadline {
            // Not yet reaped, so the pid is still ours to signal.
            child.kill()?;
            killed = true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The kernel release string, as `uname -r` prints it.
pub fn kernel_release() -> String {
    let mut u = Utsname {
        fields: [[0; 65]; 6],
    };
    // SAFETY: `u` is a valid, writable `struct utsname` (six 65-byte
    // fields on Linux) for the duration of the call.
    if unsafe { uname(&mut u) } != 0 {
        return "unknown".to_string();
    }
    let release = &u.fields[2];
    let len = release
        .iter()
        .position(|&b| b == 0)
        .unwrap_or(release.len());
    String::from_utf8_lossy(&release[..len]).into_owned()
}
