//! Host and process counters read from `/proc`.
//!
//! Every reader returns `None` when the file is missing or malformed, so the
//! benchmark still runs (reporting zeros) on hosts without procfs.

use std::fs;

/// Clock ticks per second of `/proc/*/stat` time fields (`USER_HZ`, 100 on
/// every mainstream Linux target).
const USER_HZ: f64 = 100.0;

/// Host-wide CPU time counters from the first line of `/proc/stat`, in
/// clock ticks.
#[derive(Debug, Clone, Copy)]
pub struct HostCpu {
    steal: u64,
    total: u64,
}

impl HostCpu {
    /// Reads the aggregate `cpu` line.
    pub fn read() -> Option<HostCpu> {
        let stat = fs::read_to_string("/proc/stat").ok()?;
        let fields: Vec<u64> = stat
            .lines()
            .next()?
            .strip_prefix("cpu ")?
            .split_whitespace()
            .map(str::parse)
            .collect::<Result<_, _>>()
            .ok()?;
        // user nice system idle iowait irq softirq steal [guest guest_nice];
        // guest time is already included in user/nice.
        let steal = *fields.get(7)?;
        let total = fields.iter().take(8).sum();
        Some(HostCpu { steal, total })
    }

    /// Fraction of host CPU time stolen by the hypervisor between `earlier`
    /// and `self`.
    pub fn steal_frac_since(self, earlier: HostCpu) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        crate::stats::ratio(
            self.steal.saturating_sub(earlier.steal) as f64,
            total as f64,
        )
    }
}

/// User plus system CPU seconds consumed by this process (all threads,
/// exited ones included).
pub fn process_cpu_seconds() -> Option<f64> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    // The command name may contain spaces; fields resume after its ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After ')': state is field 3 of stat(5), so utime (14) and stime (15)
    // sit at offsets 11 and 12.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}
