//! DRAM access statistics.

/// Counters accumulated by a [`Dram`](crate::Dram) device.
///
/// The sanitization cost model (TAB-B in the experiment index) is built on the
/// distinction between *owner writes* (normal traffic) and *scrub writes*
/// (sanitizer traffic): a policy's overhead is the scrub traffic it generates.
/// The byte/op counters are **fan-out independent**: a bank-parallel scrub or
/// scrape records exactly the same bytes and operation count as its
/// sequential twin, so campaign results stay worker-count independent.  The
/// only parallel-specific fields are the telemetry counters
/// ([`DramStats::parallel_scrub_ops`], [`DramStats::peak_scrub_workers`]),
/// which report how much work actually fanned out across bank shards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramStats {
    bytes_written: u64,
    bytes_scrubbed: u64,
    write_ops: u64,
    scrub_ops: u64,
    parallel_scrub_ops: u64,
    peak_scrub_workers: u64,
}

impl DramStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        DramStats::default()
    }

    /// Total bytes written by owners (non-scrub traffic).
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Total bytes cleared by sanitizers.
    pub fn bytes_scrubbed(&self) -> u64 {
        self.bytes_scrubbed
    }

    /// Number of owner write operations.
    pub fn write_ops(&self) -> u64 {
        self.write_ops
    }

    /// Number of scrub operations.
    pub fn scrub_ops(&self) -> u64 {
        self.scrub_ops
    }

    /// Number of scrub operations that actually fanned out over more than one
    /// bank-shard worker (telemetry; excluded from equivalence comparisons of
    /// the byte/op counters above).
    pub fn parallel_scrub_ops(&self) -> u64 {
        self.parallel_scrub_ops
    }

    /// Largest worker pool any bank-parallel scrub on this device used.
    pub fn peak_scrub_workers(&self) -> u64 {
        self.peak_scrub_workers
    }

    /// The fan-out-independent projection of the counters: everything that
    /// must be identical between the flat, sharded-sequential and
    /// bank-parallel execution paths.
    pub fn deterministic_view(&self) -> (u64, u64, u64, u64) {
        (
            self.bytes_written,
            self.bytes_scrubbed,
            self.write_ops,
            self.scrub_ops,
        )
    }

    pub(crate) fn record_write(&mut self, bytes: u64) {
        self.bytes_written += bytes;
        self.write_ops += 1;
    }

    pub(crate) fn record_scrub(&mut self, bytes: u64) {
        self.bytes_scrubbed += bytes;
        self.scrub_ops += 1;
    }

    pub(crate) fn record_parallel_scrub(&mut self, workers: usize) {
        self.parallel_scrub_ops += 1;
        self.peak_scrub_workers = self.peak_scrub_workers.max(workers as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_start_at_zero() {
        let s = DramStats::new();
        assert_eq!(s.bytes_written(), 0);
        assert_eq!(s.bytes_scrubbed(), 0);
        assert_eq!(s.write_ops(), 0);
        assert_eq!(s.scrub_ops(), 0);
    }

    #[test]
    fn record_accumulates() {
        let mut s = DramStats::new();
        s.record_write(10);
        s.record_write(5);
        s.record_scrub(3);
        assert_eq!(s.bytes_written(), 15);
        assert_eq!(s.write_ops(), 2);
        assert_eq!(s.bytes_scrubbed(), 3);
        assert_eq!(s.scrub_ops(), 1);
    }

    #[test]
    fn parallel_telemetry_is_separate_from_the_deterministic_view() {
        let mut s = DramStats::new();
        s.record_scrub(100);
        let view_before = s.deterministic_view();
        s.record_parallel_scrub(4);
        s.record_parallel_scrub(2);
        assert_eq!(s.parallel_scrub_ops(), 2);
        assert_eq!(s.peak_scrub_workers(), 4);
        // Fan-out telemetry never moves the deterministic counters.
        assert_eq!(s.deterministic_view(), view_before);
        assert_eq!(s.deterministic_view(), (0, 100, 0, 1));
    }
}
