//! Marker scanning: locating `FFFF FFFF` / `5555 5555` runs in the dump.
//!
//! The paper finds the corrupted input image by searching the hexdump for the
//! `FFFF FFFF` identifier (Figure 12), and learns the image's offset offline
//! by searching for `5555 5555` in a profiling run.  This module provides the
//! run-length scanner behind both steps.
//!
//! Both markers repeat one byte, and both steps only want runs of at least
//! `min_len` bytes, so the scan is a stride probe: it reads one byte per
//! `min_len` until a probe lands on the marker byte, and only then measures
//! the run around the hit, a word (eight bytes) at a time backward and
//! forward across segment seams.  Where the marker is absent, the scan reads
//! one byte in `min_len` instead of every byte.

use std::ops::ControlFlow;

use zynq_dram::ScrapeView;

use crate::dump::MemoryDump;

/// The corrupted-image marker word (`0xFFFFFF` pixels produce all-0xFF bytes).
pub const CORRUPTED_MARKER: u32 = 0xFFFF_FFFF;

/// The offline-profiling sentinel word (`0x555555` pixels).
pub const SENTINEL_MARKER: u32 = 0x5555_5555;

/// A maximal run of a repeated marker word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MarkerRun {
    /// Byte offset of the run within the dump.
    pub offset: u64,
    /// Length of the run in bytes.
    pub len: u64,
}

impl MarkerRun {
    /// One past the last byte of the run.
    pub fn end(&self) -> u64 {
        self.offset + self.len
    }
}

/// Finds maximal runs of `marker` (repeated little-endian 32-bit words) that
/// are at least `min_len` bytes long.
pub fn marker_runs(dump: &MemoryDump, marker: u32, min_len: u64) -> Vec<MarkerRun> {
    marker_runs_view(&dump.as_view(), marker, min_len)
}

/// [`marker_runs`] over a borrowed [`ScrapeView`] — the zero-copy scan the
/// view-based pipeline uses (the dump form delegates here, so both paths run
/// the identical algorithm).
pub fn marker_runs_view(view: &ScrapeView<'_>, marker: u32, min_len: u64) -> Vec<MarkerRun> {
    let mut runs = Vec::new();
    let _ = for_each_run(view, marker, min_len, &mut |run| {
        runs.push(run);
        ControlFlow::Continue(())
    });
    runs
}

/// Calls `visit` on each maximal run of `marker` of at least `min_len`
/// bytes, in offset order, until it breaks.
fn for_each_run(
    view: &ScrapeView<'_>,
    marker: u32,
    min_len: u64,
    visit: &mut impl FnMut(MarkerRun) -> ControlFlow<()>,
) -> ControlFlow<()> {
    let pattern = marker.to_le_bytes();
    let [first, ..] = pattern;
    if pattern.iter().all(|&b| b == first) {
        // Runs of a repeated byte are not word-quantized in the dump, so the
        // word-based scan below would miss a maximal run of 1–3 bytes even at
        // `min_len < 4`.  Measure byte runs instead; maximal runs of >= 4
        // bytes come out identical to the word scan.
        return uniform_byte_runs(view, first, min_len, visit);
    }
    let len = view.len();
    let mut i = 0usize;
    while i + 4 <= len {
        if view.eq_at(i, &pattern) {
            let start = i;
            while view.eq_at(i, &pattern) {
                i += 4;
            }
            let run_len = (i - start) as u64;
            if run_len >= min_len {
                visit(MarkerRun {
                    offset: start as u64,
                    len: run_len,
                })?;
            }
        } else {
            i += 1;
        }
    }
    ControlFlow::Continue(())
}

/// Maximal runs of the repeated byte `value`, at least `min_len` bytes long
/// (runs may straddle any number of segment boundaries).
///
/// A stride probe: every run starting before `from` is settled and byte
/// `from - 1` is not `value`, so any maximal run of at least `stride =
/// max(min_len, 1)` bytes that starts at or after `from` covers byte
/// `from + stride - 1`.  One byte per stride is read until a probe hits
/// `value`; only then is the run around the hit measured.
fn uniform_byte_runs(
    view: &ScrapeView<'_>,
    value: u8,
    min_len: u64,
    visit: &mut impl FnMut(MarkerRun) -> ControlFlow<()>,
) -> ControlFlow<()> {
    let Ok(stride) = usize::try_from(min_len.max(1)) else {
        return ControlFlow::Continue(());
    };
    let mut from = 0usize;
    while let Some(probe) = from.checked_add(stride - 1).filter(|&p| p < view.len()) {
        if view.byte_at(probe) != value {
            from = probe + 1;
            continue;
        }
        let (start, end) = (run_start(view, probe, value), run_end(view, probe, value));
        let run_len = (end - start) as u64;
        if run_len >= min_len {
            visit(MarkerRun {
                offset: start as u64,
                len: run_len,
            })?;
        }
        // Byte `end` is not `value` (or `end` is the view's length).
        from = end + 1;
    }
    ControlFlow::Continue(())
}

/// The first offset at or after `i` whose byte is not `value`, or the
/// view's length.
fn run_end(view: &ScrapeView<'_>, mut i: usize, value: u8) -> usize {
    while let Some((start, segment)) = view.segment_at(i) {
        let rest = segment.get(i - start..).unwrap_or_default();
        match find_other(rest, value) {
            Some(k) => return i + k,
            None if rest.is_empty() => break,
            None => i += rest.len(),
        }
    }
    i
}

/// One past the last offset before `i` whose byte is not `value`, or zero.
fn run_start(view: &ScrapeView<'_>, mut i: usize, value: u8) -> usize {
    while let Some((start, segment)) = i.checked_sub(1).and_then(|last| view.segment_at(last)) {
        match rfind_other(segment.get(..i - start).unwrap_or_default(), value) {
            Some(k) => return start + k + 1,
            None => i = start,
        }
    }
    i
}

/// Index of the first byte of `bytes` that differs from `value`: the lowest
/// non-zero byte of each little-endian word XOR `value` splatted to a word.
fn find_other(bytes: &[u8], value: u8) -> Option<usize> {
    let splat = u64::from_le_bytes([value; 8]);
    let mut words = bytes.chunks_exact(8);
    let mut base = 0usize;
    for word in &mut words {
        let diff = u64::from_le_bytes(word.try_into().unwrap_or_default()) ^ splat;
        if diff != 0 {
            return Some(base + diff.trailing_zeros() as usize / 8);
        }
        base += 8;
    }
    words
        .remainder()
        .iter()
        .position(|&b| b != value)
        .map(|i| base + i)
}

/// Index of the last byte of `bytes` that differs from `value`: the highest
/// non-zero byte of each word XOR the splat, walking words from the end.
fn rfind_other(bytes: &[u8], value: u8) -> Option<usize> {
    let splat = u64::from_le_bytes([value; 8]);
    let mut words = bytes.rchunks_exact(8);
    let mut end = bytes.len();
    for word in &mut words {
        end -= 8;
        let diff = u64::from_le_bytes(word.try_into().unwrap_or_default()) ^ splat;
        if diff != 0 {
            return Some(end + 7 - diff.leading_zeros() as usize / 8);
        }
    }
    words.remainder().iter().rposition(|&b| b != value)
}

/// The first marker run of at least `min_len` bytes, if any.
///
/// The paper uses the first occurrence as the image's starting offset.  The
/// scan stops at that run.
pub fn first_marker_offset(dump: &MemoryDump, marker: u32, min_len: u64) -> Option<u64> {
    let mut first = None;
    let _ = for_each_run(&dump.as_view(), marker, min_len, &mut |run| {
        first = Some(run.offset);
        ControlFlow::Break(())
    });
    first
}

/// Total number of marker bytes in the dump (a coarse "how much of the image
/// survived" measure used by the defense experiments).
pub fn marker_bytes(dump: &MemoryDump, marker: u32) -> u64 {
    marker_runs(dump, marker, 4).iter().map(|r| r.len).sum()
}

#[cfg(test)]
#[allow(clippy::cast_possible_truncation, clippy::indexing_slicing)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use zynq_dram::PhysAddr;
    use zynq_mmu::VirtAddr;

    fn dump_of(bytes: Vec<u8>) -> MemoryDump {
        MemoryDump::from_contiguous(VirtAddr::new(0), PhysAddr::new(0), bytes)
    }

    #[test]
    fn finds_a_single_run_at_the_right_offset() {
        let mut bytes = vec![0u8; 100];
        bytes.extend_from_slice(&[0xFF; 64]);
        bytes.extend_from_slice(&[0u8; 36]);
        let dump = dump_of(bytes);
        let runs = marker_runs(&dump, CORRUPTED_MARKER, 16);
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].offset, 100);
        assert_eq!(runs[0].len, 64);
        assert_eq!(runs[0].end(), 164);
        assert_eq!(first_marker_offset(&dump, CORRUPTED_MARKER, 16), Some(100));
        assert_eq!(marker_bytes(&dump, CORRUPTED_MARKER), 64);
    }

    #[test]
    fn respects_min_len_and_multiple_runs() {
        let mut bytes = vec![0u8; 16];
        bytes.extend_from_slice(&[0x55; 8]); // short run
        bytes.extend_from_slice(&[0u8; 16]);
        bytes.extend_from_slice(&[0x55; 32]); // long run
        let dump = dump_of(bytes);
        let long_only = marker_runs(&dump, SENTINEL_MARKER, 16);
        assert_eq!(long_only.len(), 1);
        assert_eq!(long_only[0].offset, 40);
        let all = marker_runs(&dump, SENTINEL_MARKER, 4);
        assert_eq!(all.len(), 2);
        assert_eq!(marker_bytes(&dump, SENTINEL_MARKER), 40);
    }

    #[test]
    fn unaligned_run_is_still_found() {
        let mut bytes = vec![0u8; 3];
        bytes.extend_from_slice(&[0xFF; 20]);
        bytes.push(0);
        let dump = dump_of(bytes);
        let runs = marker_runs(&dump, CORRUPTED_MARKER, 8);
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].offset, 3);
        assert_eq!(runs[0].len, 20);
    }

    #[test]
    fn no_marker_means_no_runs() {
        let dump = dump_of(vec![0u8; 256]);
        assert!(marker_runs(&dump, CORRUPTED_MARKER, 4).is_empty());
        assert!(first_marker_offset(&dump, CORRUPTED_MARKER, 4).is_none());
        assert_eq!(marker_bytes(&dump, CORRUPTED_MARKER), 0);
        // Empty dump.
        assert!(marker_runs(&dump_of(Vec::new()), CORRUPTED_MARKER, 4).is_empty());
    }

    #[test]
    fn distinct_markers_do_not_interfere() {
        let mut bytes = vec![0xFFu8; 16];
        bytes.extend_from_slice(&[0x55; 16]);
        let dump = dump_of(bytes);
        assert_eq!(first_marker_offset(&dump, CORRUPTED_MARKER, 8), Some(0));
        assert_eq!(first_marker_offset(&dump, SENTINEL_MARKER, 8), Some(16));
    }

    #[test]
    fn chunked_view_scan_matches_the_owned_scan() {
        // Runs straddling chunk boundaries must be found identically whether
        // the bytes live in one owned buffer or a multi-segment view.
        let mut bytes = vec![0u8; 50];
        bytes.extend_from_slice(&[0xFF; 100]); // spans the 64-byte boundary
        bytes.extend_from_slice(&[0u8; 42]);
        bytes.extend_from_slice(&[0x55; 19]); // unaligned tail run
        let dump = dump_of(bytes.clone());

        let mut view = ScrapeView::with_unit(64);
        for chunk in bytes.chunks(64) {
            view.push_chunk(chunk);
        }
        for (marker, min_len) in [(CORRUPTED_MARKER, 16), (SENTINEL_MARKER, 4)] {
            assert_eq!(
                marker_runs_view(&view, marker, min_len),
                marker_runs(&dump, marker, min_len),
                "marker {marker:08x}"
            );
        }
    }

    #[test]
    fn uniform_runs_shorter_than_a_word_are_found_at_small_min_len() {
        // Regression: the word-quantized scan missed maximal uniform runs of
        // 1–3 bytes even when `min_len < 4`.
        let mut bytes = vec![0u8; 8];
        bytes.extend_from_slice(&[0xFF; 3]);
        bytes.extend_from_slice(&[0u8; 5]);
        bytes.push(0xFF);
        bytes.extend_from_slice(&[0u8; 7]);
        let dump = dump_of(bytes);
        let runs = marker_runs(&dump, CORRUPTED_MARKER, 2);
        assert_eq!(
            runs,
            vec![MarkerRun { offset: 8, len: 3 }],
            "the 3-byte run clears min_len=2, the single byte does not"
        );
        let ones = marker_runs(&dump, CORRUPTED_MARKER, 1);
        assert_eq!(
            ones,
            vec![
                MarkerRun { offset: 8, len: 3 },
                MarkerRun { offset: 16, len: 1 },
            ]
        );
        // min_len >= 4 still sees nothing here.
        assert!(marker_runs(&dump, CORRUPTED_MARKER, 4).is_empty());
    }

    #[test]
    fn short_uniform_run_at_the_dump_tail_is_found() {
        let mut bytes = vec![0u8; 6];
        bytes.extend_from_slice(&[0x55; 2]);
        let dump = dump_of(bytes);
        assert_eq!(
            marker_runs(&dump, SENTINEL_MARKER, 2),
            vec![MarkerRun { offset: 6, len: 2 }]
        );
    }

    #[test]
    fn non_repeating_marker_word_matches_exact_sequences_only() {
        // A marker whose bytes are not all identical (regression for the
        // tail-extension logic).
        let marker = 0x0102_0304u32;
        let mut bytes = marker.to_le_bytes().repeat(3);
        bytes.push(0x04);
        let dump = dump_of(bytes);
        let runs = marker_runs(&dump, marker, 4);
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].len, 12);
    }

    /// Byte-at-a-time reference for the uniform-byte scan.
    fn naive_uniform_runs(bytes: &[u8], value: u8, min_len: u64) -> Vec<MarkerRun> {
        let mut runs = Vec::new();
        let mut i = 0;
        while i < bytes.len() {
            if bytes[i] == value {
                let start = i;
                while i < bytes.len() && bytes[i] == value {
                    i += 1;
                }
                let len = (i - start) as u64;
                if len >= min_len {
                    runs.push(MarkerRun {
                        offset: start as u64,
                        len,
                    });
                }
            } else {
                i += 1;
            }
        }
        runs
    }

    proptest! {
        /// The stride-probe scan finds exactly the runs a byte-by-byte scan
        /// finds, and never panics, on arbitrary bytes under arbitrary
        /// segmentation (any head length, then chunks of any unit from one
        /// byte to a page, with runs straddling the seams), at any
        /// threshold from 0 to `u64::MAX`, and for any marker word.
        #[test]
        fn prop_word_scan_matches_byte_scan_on_any_segmentation(
            bytes in proptest::collection::vec(
                // Mostly marker bytes, so runs of every length show up.
                (0u16..700).prop_map(|v| match v {
                    0..=255 => v as u8,
                    256..=399 => 0xFF,
                    400..=549 => 0x55,
                    _ => 0,
                }),
                0..300,
            ),
            head in any::<usize>(),
            unit_shift in 0u32..13,
            small_min_len in 0u64..12,
            huge_min_len in any::<u64>(),
            pick_huge in any::<bool>(),
            any_marker in any::<u32>(),
        ) {
            let min_len = if pick_huge { huge_min_len } else { small_min_len };
            let (head, tail) = bytes.split_at(head % (bytes.len() + 1));
            let mut view = ScrapeView::with_unit(1 << unit_shift);
            view.set_head(head);
            for chunk in tail.chunks(1 << unit_shift) {
                view.push_chunk(chunk);
            }
            for (marker, value) in [(CORRUPTED_MARKER, 0xFF), (SENTINEL_MARKER, 0x55)] {
                prop_assert_eq!(
                    marker_runs_view(&view, marker, min_len),
                    naive_uniform_runs(&bytes, value, min_len)
                );
            }
            let _ = marker_runs_view(&view, any_marker, min_len);
        }
    }
}
