//! DRAM access statistics.

/// Counters accumulated by a [`Dram`](crate::Dram) device.
///
/// The sanitization cost model (TAB-B in the experiment index) is built on the
/// distinction between *owner writes* (normal traffic) and *scrub writes*
/// (sanitizer traffic): a policy's overhead is the scrub traffic it generates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramStats {
    bytes_written: u64,
    bytes_scrubbed: u64,
    write_ops: u64,
    scrub_ops: u64,
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

    pub(crate) fn record_write(&mut self, bytes: u64) {
        self.bytes_written += bytes;
        self.write_ops += 1;
    }

    pub(crate) fn record_scrub(&mut self, bytes: u64) {
        self.bytes_scrubbed += bytes;
        self.scrub_ops += 1;
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
}
