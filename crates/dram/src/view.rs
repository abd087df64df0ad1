//! Zero-copy scrape views: borrowed, gap-aware windows over the DRAM arena.
//!
//! A [`ScrapeView`] is a page-table-like sequence of `&[u8]` slices — an
//! optional *head* of any length followed by uniform power-of-two *unit*
//! chunks (only the last may be shorter) — referencing the arena directly,
//! with never-written regions aliasing one shared static zero chunk.  A
//! scrape inside the arena's span is a head alone: one borrowed segment.  The uniform
//! grid makes random access pure shift/mask arithmetic, so the analysis
//! stages can run their original byte-level algorithms over the view without
//! ever assembling an owned copy of the scraped range.
//!
//! Views are produced by [`Dram::scrape_view`](crate::Dram::scrape_view)
//! (only under the perfect remanence model — decay requires an owned
//! transform) and can be stitched (per-page scrapes) or padded with zeros
//! (window-end clamping) by the consumer via [`ScrapeView::append`] and
//! [`ScrapeView::push_zeros`].
//!
//! Searching is one streaming pass: [`ScrapeView::find`] and the
//! multi-pattern [`Matcher`] walk
//! [`ScrapeView::segments`] in order and carry their automaton state across
//! each seam, so a match may straddle any number of segments and no bytes
//! are copied to bridge them.

// Lint audit: indexes and slice bounds here are established by the
// surrounding length checks / loop invariants before use.
#![allow(clippy::indexing_slicing)]

use crate::addr::PAGE_SIZE;
use crate::search::Matcher;

/// [`PAGE_SIZE`] as a `usize` length.  The compile-time guard makes the
/// cast provably lossless on every supported target, so this is the one
/// place the module converts between the two widths.
#[allow(clippy::cast_possible_truncation)]
const PAGE_USIZE: usize = {
    assert!(PAGE_SIZE <= u32::MAX as u64, "page size fits usize");
    PAGE_SIZE as usize
};

/// One shared all-zero chunk backing every gap in every view.  `PAGE_SIZE`
/// bytes is enough for any unit: units are at most a page.
static ZERO: [u8; PAGE_USIZE] = [0u8; PAGE_USIZE];

/// A borrowed static zero slice of `len` bytes (`len <= PAGE_SIZE`), used
/// for never-written memory, missing pages and padding.
pub fn zero_chunk(len: usize) -> &'static [u8] {
    &ZERO[..len]
}

/// A borrowed, zero-copy byte view over non-contiguous memory.
///
/// Layout: an arbitrary-length `head` segment, then chunks of exactly
/// `unit` bytes each (a power of two), except the final chunk which may be
/// partial.  Byte `i` is located in O(1): in the head if `i < head.len()`,
/// otherwise in chunk `(i - head.len()) >> unit_shift`.
#[derive(Debug, Clone)]
pub struct ScrapeView<'a> {
    /// Leading segment of arbitrary length (empty when the view starts on a
    /// unit boundary).
    head: &'a [u8],
    /// Uniform `unit`-sized chunks; only the last may be shorter.
    chunks: Vec<&'a [u8]>,
    unit_shift: u32,
    len: usize,
}

impl<'a> ScrapeView<'a> {
    /// Creates an empty view with the given chunk unit (a power of two, at
    /// most [`PAGE_SIZE`]).
    pub fn with_unit(unit: usize) -> Self {
        assert!(
            unit.is_power_of_two() && unit <= PAGE_USIZE,
            "view unit must be a power of two no larger than a page"
        );
        ScrapeView {
            head: &[],
            chunks: Vec::new(),
            unit_shift: unit.trailing_zeros(),
            len: 0,
        }
    }

    /// Wraps one contiguous slice as a single-segment view (the delegation
    /// path that lets owned [`MemoryDump`]-style buffers reuse the
    /// view-based analysis cores verbatim).
    ///
    /// [`MemoryDump`]: https://docs.rs/msa-core
    pub fn from_slice(bytes: &'a [u8]) -> Self {
        ScrapeView {
            head: bytes,
            chunks: Vec::new(),
            unit_shift: PAGE_USIZE.trailing_zeros(),
            len: bytes.len(),
        }
    }

    /// The uniform chunk size in bytes.
    pub fn unit(&self) -> usize {
        1 << self.unit_shift
    }

    /// Total number of bytes the view covers.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the view covers no bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets the leading partial segment.  Only valid before any chunk has
    /// been pushed on an empty view.
    pub fn set_head(&mut self, head: &'a [u8]) {
        debug_assert!(self.len == 0 && self.chunks.is_empty());
        self.len = head.len();
        self.head = head;
    }

    /// Appends one chunk (at most `unit` bytes).  A shorter chunk seals the
    /// view: only the final chunk may be partial, which is what keeps the
    /// grid uniform.
    pub fn push_chunk(&mut self, chunk: &'a [u8]) {
        debug_assert!(chunk.len() <= self.unit());
        debug_assert!(
            self.chunks.last().is_none_or(|c| c.len() == self.unit()),
            "only the final chunk of a view may be partial"
        );
        self.len += chunk.len();
        self.chunks.push(chunk);
    }

    /// Appends `len` zero bytes as shared zero chunks (gap pages, window-end
    /// padding).
    pub fn push_zeros(&mut self, mut len: usize) {
        while len > 0 {
            let chunk = len.min(self.unit());
            self.push_chunk(zero_chunk(chunk));
            len -= chunk;
        }
    }

    /// Appends the bytes of `other` (same unit) to this view, cut into
    /// unit chunks.  Used to stitch per-page scrape views into one heap
    /// view; only the final chunk of the result may be partial.
    pub fn append(&mut self, other: ScrapeView<'a>) {
        debug_assert_eq!(other.unit_shift, self.unit_shift, "mismatched view units");
        for segment in other.segments() {
            for chunk in segment.chunks(self.unit()) {
                self.push_chunk(chunk);
            }
        }
    }

    /// The byte at offset `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn byte_at(&self, i: usize) -> u8 {
        if i < self.head.len() {
            return self.head[i];
        }
        let j = i - self.head.len();
        self.chunks[j >> self.unit_shift][j & (self.unit() - 1)]
    }

    /// The segment holding byte `i`, with the offset of its first byte
    /// (`None` when `i >= self.len()`).
    pub fn segment_at(&self, i: usize) -> Option<(usize, &'a [u8])> {
        if i >= self.len {
            return None;
        }
        if i < self.head.len() {
            return Some((0, self.head));
        }
        let chunk = (i - self.head.len()) >> self.unit_shift;
        let start = self.head.len() + (chunk << self.unit_shift);
        Some((start, self.chunks[chunk]))
    }

    /// `true` when the bytes at `[i, i + bytes.len())` equal `bytes`
    /// (`false` whenever the range runs past the end of the view).
    #[inline]
    pub fn eq_at(&self, i: usize, bytes: &[u8]) -> bool {
        match self.try_borrow(i, bytes.len()) {
            Some(slice) => slice == bytes,
            None => {
                i.checked_add(bytes.len())
                    .is_some_and(|end| end <= self.len)
                    && bytes
                        .iter()
                        .enumerate()
                        .all(|(k, &b)| self.byte_at(i + k) == b)
            }
        }
    }

    /// Borrows `[offset, offset + len)` when the range lies entirely inside
    /// one segment; `None` when it straddles a boundary (or is out of range).
    pub fn try_borrow(&self, offset: usize, len: usize) -> Option<&'a [u8]> {
        let end = offset.checked_add(len)?;
        if end > self.len {
            return None;
        }
        if end <= self.head.len() {
            return Some(&self.head[offset..end]);
        }
        if offset < self.head.len() {
            return None;
        }
        let j = offset - self.head.len();
        let chunk = self.chunks[j >> self.unit_shift];
        let within = j & (self.unit() - 1);
        if within + len <= chunk.len() {
            Some(&chunk[within..within + len])
        } else {
            None
        }
    }

    /// Copies `[offset, offset + buf.len())` into `buf`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the view.
    pub fn copy_into(&self, offset: usize, buf: &mut [u8]) {
        let end = offset.checked_add(buf.len());
        assert!(
            end.is_some_and(|end| end <= self.len),
            "copy_into out of range"
        );
        let mut cursor = 0usize;
        for segment in self.segments_from(offset) {
            if cursor == buf.len() {
                break;
            }
            let take = segment.len().min(buf.len() - cursor);
            buf[cursor..cursor + take].copy_from_slice(&segment[..take]);
            cursor += take;
        }
        debug_assert_eq!(cursor, buf.len());
    }

    /// Copies `[offset, offset + len)` out into an owned vector, or `None`
    /// when the range exceeds the view (mirrors `MemoryDump::slice`).
    pub fn to_vec_range(&self, offset: usize, len: usize) -> Option<Vec<u8>> {
        if offset.checked_add(len)? > self.len {
            return None;
        }
        if let Some(slice) = self.try_borrow(offset, len) {
            return Some(slice.to_vec());
        }
        let mut out = vec![0u8; len];
        self.copy_into(offset, &mut out);
        Some(out)
    }

    /// Copies the whole view into one owned vector.
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.len];
        self.copy_into(0, &mut out);
        out
    }

    /// The non-empty segments (head, then chunks) in offset order.
    pub fn segments(&self) -> impl Iterator<Item = &'a [u8]> + '_ {
        std::iter::once(self.head)
            .chain(self.chunks.iter().copied())
            .filter(|s| !s.is_empty())
    }

    /// The non-empty segments starting from global offset `offset`: the
    /// first yielded segment begins exactly at `offset`.
    fn segments_from(&self, offset: usize) -> impl Iterator<Item = &'a [u8]> + '_ {
        let head_len = self.head.len();
        let unit = self.unit();
        let (first, skip, within) = if offset < head_len {
            (Some(&self.head[offset..]), 0, 0)
        } else {
            let j = offset - head_len;
            (None, j >> self.unit_shift, j & (unit - 1))
        };
        first
            .into_iter()
            .chain(
                self.chunks
                    .iter()
                    .skip(skip)
                    .enumerate()
                    .map(move |(i, &chunk)| {
                        if i == 0 && first.is_none() {
                            &chunk[within.min(chunk.len())..]
                        } else {
                            chunk
                        }
                    }),
            )
            .filter(|s| !s.is_empty())
    }

    /// Offset of the first occurrence of `needle` (`None` for an empty
    /// needle): earliest-match identical to
    /// `self.to_vec().windows(n).position(..)`.  The needle runs as a
    /// one-pattern [`Matcher`] in a single pass over the segments, carrying
    /// its match state across every seam, so no byte is copied.
    pub fn find(&self, needle: &[u8]) -> Option<usize> {
        Matcher::new([needle]).first_match(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a view over `data` split into `unit` chunks with an optional
    /// head of `head_len` bytes.
    fn chunked<'a>(data: &'a [u8], head_len: usize, unit: usize) -> ScrapeView<'a> {
        let mut view = ScrapeView::with_unit(unit);
        if head_len > 0 {
            view.set_head(&data[..head_len]);
        }
        let mut cursor = head_len;
        while cursor < data.len() {
            let chunk = unit.min(data.len() - cursor);
            view.push_chunk(&data[cursor..cursor + chunk]);
            cursor += chunk;
        }
        view
    }

    #[test]
    fn page_sized_units_sit_exactly_on_the_accepted_boundary() {
        // `PAGE_USIZE` is the compile-time-checked image of `PAGE_SIZE`:
        // a full-page unit is legal, a full-page zero chunk exists, and
        // both agree with the `u64` constant they were derived from.
        assert_eq!(PAGE_USIZE as u64, PAGE_SIZE);
        let view = ScrapeView::with_unit(PAGE_USIZE);
        assert_eq!(view.len(), 0);
        let zeros = zero_chunk(PAGE_USIZE);
        assert_eq!(zeros.len(), PAGE_USIZE);
        assert!(zeros.iter().all(|&b| b == 0));
    }

    #[test]
    #[should_panic(expected = "view unit must be a power of two")]
    fn oversized_units_are_rejected() {
        let _ = ScrapeView::with_unit(PAGE_USIZE * 2);
    }

    fn sample(len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| u8::try_from(i * 7 % 251).expect("residue below 251"))
            .collect()
    }

    #[test]
    fn byte_access_matches_the_flat_buffer() {
        let data = sample(1000);
        for (head, unit) in [(0, 64), (13, 64), (63, 64), (0, 256), (100, 128)] {
            let view = chunked(&data, head, unit);
            assert_eq!(view.len(), data.len());
            for (i, &expected) in data.iter().enumerate() {
                assert_eq!(view.byte_at(i), expected, "head={head} unit={unit} i={i}");
            }
            assert_eq!(view.to_vec(), data);
            for i in 0..data.len() {
                let (start, segment) = view.segment_at(i).expect("in range");
                assert!(start <= i && i < start + segment.len());
                assert_eq!(segment, &data[start..start + segment.len()]);
            }
            assert!(view.segment_at(data.len()).is_none());
        }
    }

    #[test]
    fn try_borrow_only_within_one_segment() {
        let data = sample(256);
        let view = chunked(&data, 10, 64);
        assert_eq!(view.try_borrow(0, 10).unwrap(), &data[..10]);
        assert_eq!(view.try_borrow(10, 64).unwrap(), &data[10..74]);
        assert!(view.try_borrow(8, 8).is_none(), "straddles head/chunk");
        assert!(view.try_borrow(70, 10).is_none(), "straddles chunks");
        assert!(view.try_borrow(250, 10).is_none(), "past the end");
        assert_eq!(view.to_vec_range(8, 8).unwrap(), &data[8..16]);
        assert!(view.to_vec_range(250, 10).is_none());
    }

    #[test]
    fn find_matches_owned_search_across_boundaries() {
        let mut data = sample(512);
        // Plant needles straddling the head/chunk and chunk/chunk borders.
        data[60..68].copy_from_slice(b"NEEDLE-A");
        data[124..132].copy_from_slice(b"NEEDLE-B");
        let view = chunked(&data, 3, 64);
        for needle in [&b"NEEDLE-A"[..], b"NEEDLE-B", b"EDLE", b"absent!"] {
            let expected = data.windows(needle.len()).position(|w| w == needle);
            assert_eq!(view.find(needle), expected, "needle {needle:?}");
        }
        // First-match order: duplicate needle, earliest offset wins.
        let first = data.windows(4).position(|w| w == &data[60..64]).unwrap();
        assert_eq!(view.find(&data[60..64]).unwrap(), first);
    }

    #[test]
    fn eq_at_and_zero_padding() {
        // Padding always starts on a unit boundary (the clamped window end
        // is page-aligned), so the last data chunk is full when zeros follow.
        let data = sample(128);
        let mut view = chunked(&data, 0, 64);
        view.push_zeros(150);
        assert_eq!(view.len(), 278);
        assert!(view.eq_at(0, &[data[0], data[1], data[2], data[3]]));
        assert!(view.eq_at(130, &[0, 0, 0, 0]));
        assert!(view.eq_at(126, &[data[126], data[127], 0, 0]), "straddle");
        assert!(!view.eq_at(276, &[0, 0, 0, 0]), "past the end is false");
        let flat = view.to_vec();
        assert_eq!(&flat[..128], &data[..]);
        assert!(flat[128..].iter().all(|&b| b == 0));
    }

    #[test]
    fn copy_into_rejects_offsets_that_overflow_the_bounds_check() {
        // Regression: the bounds check used unchecked `offset + buf.len()`,
        // which wraps in release builds for near-`usize::MAX` offsets and let
        // the assert pass before an out-of-range walk.
        let data = sample(64);
        let view = chunked(&data, 0, 64);
        let mut buf = [0u8; 8];
        let overflowing = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            view.copy_into(usize::MAX - 4, &mut buf);
        }));
        assert!(overflowing.is_err(), "wrapping offset must still panic");
        // The same range is a clean `None` on the non-panicking path.
        assert!(view.to_vec_range(usize::MAX - 4, 8).is_none());
        // In-range copies are unaffected.
        view.copy_into(4, &mut buf);
        assert_eq!(&buf, &data[4..12]);
    }

    #[test]
    fn append_stitches_unit_aligned_views() {
        let a = sample(128);
        let b = sample(100);
        let mut view = chunked(&a, 0, 64);
        view.append(chunked(&b, 0, 64));
        let mut expected = a.clone();
        expected.extend_from_slice(&b);
        assert_eq!(view.to_vec(), expected);
    }
}
