//! Process and host readings from `/proc`: resident memory, CPU time and
//! the hypervisor's steal ticks. Diagnostics and memory metrics only; a
//! reading that cannot be taken comes back as 0.

use std::fs;

/// A `kB` field of `/proc/self/status` (`VmRSS`, `VmHWM`), in MiB.
fn status_mib(field: &str) -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Resident memory now, MiB.
pub fn rss_mib() -> f64 {
    status_mib("VmRSS")
}

/// Peak resident memory of this process so far, MiB.
pub fn rss_peak_mib() -> f64 {
    status_mib("VmHWM")
}

/// User plus system CPU time of this process (all threads), seconds.
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// Host-wide steal ticks (the eighth value of `/proc/stat`'s `cpu` line):
/// time the hypervisor ran someone else while this guest wanted the CPU.
pub fn steal_ticks() -> u64 {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

/// CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
