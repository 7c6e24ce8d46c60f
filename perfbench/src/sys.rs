//! Readings the benchmark takes from the operating system: process CPU
//! time, peak resident set, and the host fingerprint.

use std::path::Path;

extern "C" {
    fn sysconf(name: i32) -> i64;
    fn malloc_trim(pad: usize) -> i32;
}

/// `_SC_CLK_TCK` on Linux.
const SC_CLK_TCK: i32 = 2;

/// User + system CPU time of the whole process so far, in ms, from
/// `/proc/self/stat`.
pub fn process_cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name start at field 3.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    // utime is field 14 and stime field 15.
    let total = ticks(14 - 3) + ticks(15 - 3);
    // SAFETY: sysconf has no preconditions.
    let hz = unsafe { sysconf(SC_CLK_TCK) }.max(1);
    total as f64 * 1e3 / hz as f64
}

/// Returns freed heap memory to the kernel, then resets the process's peak
/// resident set (`VmHWM`) to its current size, so memory that set-up
/// allocated and freed does not count. Returns false where the kernel
/// refuses the reset.
pub fn reset_peak_rss() -> bool {
    // SAFETY: malloc_trim only releases free memory of the C allocator,
    // which backs Rust's default global allocator here.
    unsafe { malloc_trim(0) };
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set since start or the last reset, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// `nproc`, CPU model, kernel, and the filesystem `dir` lives on.
pub fn host_fingerprint(dir: &Path) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_owned(), |s| s.trim().to_owned());
    format!(
        "nproc={nproc} cpu=\"{cpu}\" kernel={kernel} data_fs={}",
        filesystem_of(dir)
    )
}

/// Type of the filesystem mounted at the longest prefix of `dir`.
fn filesystem_of(dir: &Path) -> String {
    let dir = std::fs::canonicalize(dir).unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, fs) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(point).then(|| (point.len(), fs.to_owned()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_owned(), |(_, fs)| fs)
}
