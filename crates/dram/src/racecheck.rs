//! Shadow-state disjointness checker for the campaign engine's parallel work.
//!
//! The streaming campaign collector claims cell blocks under a mutex, so its
//! workers are data-race-free *by construction*.  Nothing in the types,
//! however, checks that the *logical intervals* those claims are meant to
//! cover — cell indexes — actually partition the matrix without cross-worker
//! overlap introduced by an arithmetic slip.
//!
//! This module is that check.  Behind the `race-check` feature (release
//! builds are untouched), each parallel operation records one
//! `(worker, interval)` pair per piece of work into an [`AccessLog`] and
//! asserts **cross-worker disjointness** when the scope joins.  The global
//! counters ([`stats`]) let the differential and determinism suites assert
//! that the checker really ran over their workloads and found zero overlaps
//! — turning "the tests happened to pass" into "every interval the workers
//! touched was provably private to one worker".
//!
//! Interval units are per-operation (documented at each call site; the
//! streaming engine logs cell indexes).  Logs from different operations are
//! never mixed, so the units never collide.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Operations whose interval sets were checked (one per [`AccessLog`]
/// finished).
static OPS_CHECKED: AtomicU64 = AtomicU64::new(0);
/// Total `(worker, interval)` pairs recorded across all logs.
static INTERVALS_RECORDED: AtomicU64 = AtomicU64::new(0);
/// Cross-worker overlaps detected (incremented before the panic, so a
/// supervising harness can still read a non-zero count).
static OVERLAPS_FOUND: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the global race-check counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RaceCheckStats {
    /// Parallel operations whose access logs were verified.
    pub ops_checked: u64,
    /// Intervals recorded across those operations.
    pub intervals_recorded: u64,
    /// Cross-worker overlaps found (always 0 unless an assertion fired).
    pub overlaps_found: u64,
}

/// Reads the global counters (monotonic over the process lifetime).
pub fn stats() -> RaceCheckStats {
    RaceCheckStats {
        ops_checked: OPS_CHECKED.load(Ordering::Relaxed),
        intervals_recorded: INTERVALS_RECORDED.load(Ordering::Relaxed),
        overlaps_found: OVERLAPS_FOUND.load(Ordering::Relaxed),
    }
}

/// Shadow log of one parallel operation: every `(worker, interval)` access
/// the operation's workers performed, checked for cross-worker disjointness
/// by [`AccessLog::finish`].
#[derive(Debug)]
pub struct AccessLog {
    /// Operation name, used in the overlap panic message.
    op: &'static str,
    intervals: Mutex<Vec<(usize, Range<u64>)>>,
}

impl AccessLog {
    /// Opens a log for one parallel operation.
    pub fn new(op: &'static str) -> Self {
        AccessLog {
            op,
            intervals: Mutex::new(Vec::new()),
        }
    }

    /// Records that `worker` is about to touch `interval` (empty intervals
    /// are ignored).  Units are whatever the operation chose; they only have
    /// to be consistent within one log.
    pub fn record(&self, worker: usize, interval: Range<u64>) {
        if interval.is_empty() {
            return;
        }
        self.intervals
            .lock()
            .expect("race-check log poisoned")
            .push((worker, interval));
    }

    /// Verifies the recorded intervals: no interval of one worker may
    /// intersect an interval of a different worker.
    ///
    /// # Panics
    ///
    /// Panics (after bumping the overlap counter) on the first cross-worker
    /// overlap, naming the operation, both workers and both intervals.
    pub fn finish(self) {
        let mut intervals = self
            .intervals
            .into_inner()
            .expect("race-check log poisoned");
        intervals.sort_by_key(|(_, range)| (range.start, range.end));
        // Sweep with the latest-ending predecessor: after sorting by start,
        // any overlap must involve the interval with the maximal end seen so
        // far.  Same-worker overlap is legal (a worker may revisit its own
        // allotment); only cross-worker intersection is a race.
        let mut max_end: Option<(usize, Range<u64>)> = None;
        for (worker, range) in &intervals {
            if let Some((prev_worker, prev_range)) = &max_end {
                if range.start < prev_range.end && worker != prev_worker {
                    OVERLAPS_FOUND.fetch_add(1, Ordering::Relaxed);
                    panic!(
                        "race-check: {op}: worker {w1} interval {r1:?} overlaps \
                         worker {w2} interval {r2:?}",
                        op = self.op,
                        w1 = prev_worker,
                        r1 = prev_range,
                        w2 = worker,
                        r2 = range,
                    );
                }
            }
            if max_end
                .as_ref()
                .is_none_or(|(_, prev)| range.end > prev.end)
            {
                max_end = Some((*worker, range.clone()));
            }
        }
        OPS_CHECKED.fetch_add(1, Ordering::Relaxed);
        INTERVALS_RECORDED.fetch_add(intervals.len() as u64, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disjoint_intervals_pass_and_count() {
        let before = stats();
        let log = AccessLog::new("test::disjoint");
        log.record(0, 0..10);
        log.record(1, 10..20);
        log.record(2, 25..30);
        log.record(0, 20..25);
        log.record(3, 40..40); // empty: ignored
        log.finish();
        let after = stats();
        assert_eq!(after.ops_checked, before.ops_checked + 1);
        assert_eq!(after.intervals_recorded, before.intervals_recorded + 4);
        assert_eq!(after.overlaps_found, before.overlaps_found);
    }

    #[test]
    fn same_worker_overlap_is_legal() {
        let log = AccessLog::new("test::same-worker");
        log.record(5, 0..100);
        log.record(5, 50..60);
        log.finish();
    }

    #[test]
    fn cross_worker_overlap_panics_and_counts() {
        let before = stats();
        let result = std::panic::catch_unwind(|| {
            let log = AccessLog::new("test::overlap");
            log.record(0, 0..10);
            log.record(1, 9..12);
            log.finish();
        });
        assert!(result.is_err(), "cross-worker overlap must panic");
        assert_eq!(stats().overlaps_found, before.overlaps_found + 1);
    }

    #[test]
    fn containment_across_a_gap_is_still_detected() {
        // Sorted by start: (0, 0..100), (1, 10..20), (0, 30..40).  A naive
        // adjacent-pair sweep would compare 10..20 with 30..40 and miss that
        // 30..40 sits inside worker 1's 0..100 — the max-end sweep does not.
        let result = std::panic::catch_unwind(|| {
            let log = AccessLog::new("test::containment");
            log.record(1, 0..100);
            log.record(1, 10..20);
            log.record(0, 30..40);
            log.finish();
        });
        assert!(
            result.is_err(),
            "contained cross-worker interval must panic"
        );
    }
}
