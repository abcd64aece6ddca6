//! What the harness reads from the host: CPU time, peak memory, core
//! count, a calibration loop, and where its output files go.

use std::path::PathBuf;
use std::time::Instant;

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    rest: [i64; 14],
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
}

/// CPU nanoseconds this process has used so far, all threads, from the
/// scheduler's own run-time accounting: fine enough to charge a 1 ms
/// unit, which the tick-sampled user/sys split of `getrusage` is not.
pub fn process_cpu_ns() -> u64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut time = Timespec::default();
    // SAFETY: `time` is a live, writable `struct timespec` of 64-bit
    // Linux; the call writes only that struct and keeps no pointer.
    let status = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut time) };
    assert_eq!(status, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    time.tv_sec as u64 * 1_000_000_000 + time.tv_nsec as u64
}

/// Process CPU time so far, all threads (ended ones included).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CpuTime {
    pub user_s: f64,
    pub sys_s: f64,
}

impl CpuTime {
    pub fn now() -> CpuTime {
        const RUSAGE_SELF: i32 = 0;
        let mut usage = Rusage::default();
        // SAFETY: `usage` is a live, writable value whose layout matches
        // the C `struct rusage` of 64-bit Linux (the only target the
        // reactor crate, and with it this harness, builds on); the call
        // writes at most that struct and keeps no pointer.
        let status = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
        assert_eq!(status, 0, "getrusage(RUSAGE_SELF) failed");
        let seconds = |t: Timeval| t.tv_sec as f64 + t.tv_usec as f64 / 1e6;
        CpuTime {
            user_s: seconds(usage.ru_utime),
            sys_s: seconds(usage.ru_stime),
        }
    }

    pub fn since(self, earlier: CpuTime) -> CpuTime {
        CpuTime {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
        }
    }

    pub fn total_s(self) -> f64 {
        self.user_s + self.sys_s
    }
}

fn status_kib(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// Peak resident set of this process (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM:").expect("VmHWM in /proc/self/status") as f64 / 1024.0
}

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Times a fixed pure-CPU loop (≈20 ms on the reference host) and returns
/// nanoseconds: printed before and after each window, so a neighbour that
/// slowed the host shows beside the numbers it bent.
pub fn calibrate_ns() -> f64 {
    let start = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..20_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    start.elapsed().as_nanos() as f64
}

/// Directory for everything a run writes: traces and the journal.  Inside
/// the package's own `target/`, which the root `.gitignore` covers.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join("harness-out")
}

/// The file system a directory lives on, as `/proc/mounts` names it.
pub fn fs_type_of(dir: &std::path::Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, mount, fs) = (fields.next()?, fields.next()?, fields.next()?);
            dir.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

/// The commit the working tree is at, when the harness runs inside a git
/// checkout (the benchmark driver's copy is not one).
pub fn git_sha() -> String {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..");
    let head = std::fs::read_to_string(root.join(".git/HEAD")).unwrap_or_default();
    let head = head.trim();
    let sha = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(root.join(".git").join(reference))
            .map(|s| s.trim().to_string())
            .unwrap_or_default(),
        None => head.to_string(),
    };
    if sha.is_empty() {
        "unknown".to_string()
    } else {
        sha
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        let before = CpuTime::now();
        calibrate_ns();
        calibrate_ns();
        let spent = CpuTime::now().since(before);
        assert!(spent.total_s() > 0.0);
        assert!(spent.user_s >= 0.0 && spent.sys_s >= 0.0);
    }

    #[test]
    fn process_cpu_clock_advances_with_work() {
        let before = process_cpu_ns();
        calibrate_ns();
        assert!(process_cpu_ns() > before);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mib() > 0.0);
        assert!(nproc() >= 1);
    }
}
