//! The scraped memory dump.

// Lint audit: address arithmetic here is bounds-checked against the
// DRAM window before any narrowing cast or direct index; offsets are
// derived from validated window-relative coordinates.
#![allow(clippy::cast_possible_truncation, clippy::indexing_slicing)]

use zynq_dram::{PhysAddr, ScrapeView, PAGE_SIZE};
use zynq_mmu::VirtAddr;

use crate::hexdump::HexDump;

/// The data recovered from the victim's heap, reassembled in virtual-address
/// order (the order the paper's hexdump file uses).
///
/// A dump records, per page, which physical frame the bytes came from (if
/// any) so experiments can reason about coverage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryDump {
    heap_start: VirtAddr,
    bytes: Vec<u8>,
    page_sources: Vec<Option<PhysAddr>>,
}

impl MemoryDump {
    /// Assembles a dump from per-page captures.
    ///
    /// `pages` holds, for each heap page in order, the physical address the
    /// page was read from and its bytes, or `None` when the page could not be
    /// captured (it then reads as zeros).
    ///
    /// # Panics
    ///
    /// Panics if a captured page is not exactly [`PAGE_SIZE`] bytes.
    pub fn from_pages(heap_start: VirtAddr, pages: Vec<Option<(PhysAddr, Vec<u8>)>>) -> Self {
        let mut bytes = Vec::with_capacity(pages.len() * PAGE_SIZE as usize);
        let mut sources = Vec::with_capacity(pages.len());
        for page in pages {
            match page {
                Some((pa, data)) => {
                    assert_eq!(
                        data.len(),
                        PAGE_SIZE as usize,
                        "captured page must be PAGE_SIZE bytes"
                    );
                    bytes.extend_from_slice(&data);
                    sources.push(Some(pa));
                }
                None => {
                    bytes.extend(std::iter::repeat_n(0u8, PAGE_SIZE as usize));
                    sources.push(None);
                }
            }
        }
        MemoryDump {
            heap_start,
            bytes,
            page_sources: sources,
        }
    }

    /// Assembles a dump from one contiguous physical read (the paper's
    /// endpoint-based method).
    pub fn from_contiguous(heap_start: VirtAddr, phys_start: PhysAddr, bytes: Vec<u8>) -> Self {
        let page_count = bytes.len().div_ceil(PAGE_SIZE as usize);
        let sources = (0..page_count)
            .map(|i| Some(phys_start + (i as u64) * PAGE_SIZE))
            .collect();
        MemoryDump {
            heap_start,
            bytes,
            page_sources: sources,
        }
    }

    /// An empty dump (used when scraping was denied or produced nothing).
    pub fn empty(heap_start: VirtAddr) -> Self {
        MemoryDump {
            heap_start,
            bytes: Vec::new(),
            page_sources: Vec::new(),
        }
    }

    /// Virtual address the dump starts at (the victim's heap base).
    pub fn heap_start(&self) -> VirtAddr {
        self.heap_start
    }

    /// The dump's bytes, in virtual-address order.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The dump as a single-segment [`ScrapeView`], so owned dumps run
    /// through the same view-based analysis cores the zero-copy path uses.
    pub fn as_view(&self) -> ScrapeView<'_> {
        ScrapeView::from_slice(&self.bytes)
    }

    /// Length of the dump in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Returns `true` if nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Number of pages that were actually captured from physical memory.
    pub fn captured_pages(&self) -> usize {
        self.page_sources.iter().filter(|s| s.is_some()).count()
    }

    /// Number of pages that could not be captured.
    pub fn missing_pages(&self) -> usize {
        self.page_sources.iter().filter(|s| s.is_none()).count()
    }

    /// Physical source of each page, in order.
    pub fn page_sources(&self) -> &[Option<PhysAddr>] {
        &self.page_sources
    }

    /// Fraction of pages captured (1.0 when nothing is missing; 0.0 for an
    /// empty dump).
    pub fn coverage(&self) -> f64 {
        if self.page_sources.is_empty() {
            return 0.0;
        }
        self.captured_pages() as f64 / self.page_sources.len() as f64
    }

    /// The bytes at heap-relative `offset`, if the dump extends that far.
    pub fn slice(&self, offset: u64, len: usize) -> Option<&[u8]> {
        let start = usize::try_from(offset).ok()?;
        let end = start.checked_add(len)?;
        self.bytes.get(start..end)
    }

    /// Overlays a page of bytes recovered from a second residue substrate
    /// (the compressed swap store) onto the dump at heap-relative page
    /// `page_index`, filling only the positions the DRAM scrape left as
    /// zero: scraped DRAM residue always wins, so under zero-on-free the
    /// swapped-out plaintext slots in exactly where the scrub erased it.
    ///
    /// Returns the number of bytes filled in.  Pages beyond the dump's end
    /// (or offsets that overflow) contribute nothing.
    pub fn overlay_page(&mut self, page_index: u64, bytes: &[u8]) -> usize {
        let Some(offset) = page_index
            .checked_mul(PAGE_SIZE)
            .and_then(|o| usize::try_from(o).ok())
        else {
            return 0;
        };
        if offset >= self.bytes.len() {
            return 0;
        }
        let window = &mut self.bytes[offset..];
        let mut filled = 0;
        for (slot, &b) in window.iter_mut().zip(bytes) {
            if *slot == 0 && b != 0 {
                *slot = b;
                filled += 1;
            }
        }
        filled
    }

    /// Builds the hexdump view of the data (the `<pid>_hexdump.log` file the
    /// paper's scripts produce).
    pub fn to_hexdump(&self) -> HexDump {
        HexDump::new(self.bytes.clone())
    }

    /// Extracts printable ASCII strings of at least `min_len` characters.
    pub fn ascii_strings(&self, min_len: usize) -> Vec<String> {
        let mut out = Vec::new();
        let mut current = String::new();
        for &byte in &self.bytes {
            if (0x20..0x7f).contains(&byte) {
                current.push(byte as char);
            } else {
                if current.len() >= min_len {
                    out.push(std::mem::take(&mut current));
                } else {
                    current.clear();
                }
            }
        }
        if current.len() >= min_len {
            out.push(current);
        }
        out
    }
}

/// The zero-copy counterpart of [`MemoryDump`]: the victim's heap as a
/// borrowed [`ScrapeView`] over the DRAM bank arenas, plus the same per-page
/// coverage accounting the owned dump records.
///
/// Produced by [`crate::scrape::scrape_heap_view`] when the board's remanence
/// model permits borrowed reads; the analysis stages consume the view
/// directly, so the scrape-and-analyse hot path never assembles an owned
/// byte buffer.
#[derive(Debug, Clone)]
pub struct HeapView<'a> {
    heap_start: VirtAddr,
    view: ScrapeView<'a>,
    pages_captured: usize,
    pages_total: usize,
}

impl<'a> HeapView<'a> {
    /// Wraps a scraped view with its page-coverage accounting.
    pub fn new(
        heap_start: VirtAddr,
        view: ScrapeView<'a>,
        pages_captured: usize,
        pages_total: usize,
    ) -> Self {
        HeapView {
            heap_start,
            view,
            pages_captured,
            pages_total,
        }
    }

    /// An empty view (zero-length heap), mirroring [`MemoryDump::empty`].
    pub fn empty(heap_start: VirtAddr) -> Self {
        HeapView {
            heap_start,
            view: ScrapeView::from_slice(&[]),
            pages_captured: 0,
            pages_total: 0,
        }
    }

    /// Virtual address the view starts at (the victim's heap base).
    pub fn heap_start(&self) -> VirtAddr {
        self.heap_start
    }

    /// The underlying borrowed byte view.
    pub fn view(&self) -> &ScrapeView<'a> {
        &self.view
    }

    /// Length of the viewed heap in bytes.
    pub fn len(&self) -> usize {
        self.view.len()
    }

    /// Returns `true` if nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.view.is_empty()
    }

    /// Number of pages actually captured from physical memory.
    pub fn captured_pages(&self) -> usize {
        self.pages_captured
    }

    /// Number of pages that could not be captured.
    pub fn missing_pages(&self) -> usize {
        self.pages_total - self.pages_captured
    }

    /// Fraction of pages captured, with the same convention as
    /// [`MemoryDump::coverage`] (0.0 for an empty view).
    pub fn coverage(&self) -> f64 {
        if self.pages_total == 0 {
            return 0.0;
        }
        self.pages_captured as f64 / self.pages_total as f64
    }

    /// Materializes the view into an owned [`MemoryDump`]-style byte buffer
    /// (serialization, hexdump export — the cold paths).
    pub fn to_bytes(&self) -> Vec<u8> {
        self.view.to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page_of(byte: u8) -> Vec<u8> {
        vec![byte; PAGE_SIZE as usize]
    }

    #[test]
    fn as_view_mirrors_the_owned_bytes() {
        let dump =
            MemoryDump::from_contiguous(VirtAddr::new(0), PhysAddr::new(0), (0u8..=255).collect());
        let view = dump.as_view();
        assert_eq!(view.len(), dump.len());
        assert_eq!(view.to_vec(), dump.as_bytes());
    }

    #[test]
    fn heap_view_coverage_mirrors_memory_dump() {
        let empty = HeapView::empty(VirtAddr::new(0x1000));
        assert!(empty.is_empty());
        assert_eq!(empty.len(), 0);
        assert_eq!(empty.coverage(), 0.0);
        assert_eq!(empty.heap_start(), VirtAddr::new(0x1000));

        let backing = vec![7u8; 2 * PAGE_SIZE as usize];
        let hv = HeapView::new(VirtAddr::new(0), ScrapeView::from_slice(&backing), 1, 2);
        assert_eq!(hv.captured_pages(), 1);
        assert_eq!(hv.missing_pages(), 1);
        assert!((hv.coverage() - 0.5).abs() < 1e-9);
        assert_eq!(hv.to_bytes(), backing);
    }

    #[test]
    fn from_pages_assembles_in_order_with_gaps_as_zero() {
        let pa = PhysAddr::new(0x6_0000_0000);
        let dump = MemoryDump::from_pages(
            VirtAddr::new(0xaaaa_ee77_5000),
            vec![
                Some((pa, page_of(0xAA))),
                None,
                Some((pa + 2 * PAGE_SIZE, page_of(0xBB))),
            ],
        );
        assert_eq!(dump.len(), 3 * PAGE_SIZE as usize);
        assert_eq!(dump.as_bytes()[0], 0xAA);
        assert_eq!(dump.as_bytes()[PAGE_SIZE as usize], 0x00);
        assert_eq!(dump.as_bytes()[2 * PAGE_SIZE as usize], 0xBB);
        assert_eq!(dump.captured_pages(), 2);
        assert_eq!(dump.missing_pages(), 1);
        assert!((dump.coverage() - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(dump.page_sources()[1], None);
        assert!(!dump.is_empty());
    }

    #[test]
    #[should_panic(expected = "PAGE_SIZE")]
    fn from_pages_rejects_short_pages() {
        let _ = MemoryDump::from_pages(
            VirtAddr::new(0),
            vec![Some((PhysAddr::new(0), vec![0u8; 10]))],
        );
    }

    #[test]
    fn from_contiguous_records_sources() {
        let dump = MemoryDump::from_contiguous(
            VirtAddr::new(0x1000),
            PhysAddr::new(0x6_0000_0000),
            vec![0u8; (2 * PAGE_SIZE + 100) as usize],
        );
        assert_eq!(dump.captured_pages(), 3);
        assert_eq!(dump.missing_pages(), 0);
        assert_eq!(dump.coverage(), 1.0);
        assert_eq!(
            dump.page_sources()[1],
            Some(PhysAddr::new(0x6_0000_0000) + PAGE_SIZE)
        );
    }

    #[test]
    fn empty_dump() {
        let dump = MemoryDump::empty(VirtAddr::new(0x1000));
        assert!(dump.is_empty());
        assert_eq!(dump.len(), 0);
        assert_eq!(dump.coverage(), 0.0);
        assert_eq!(dump.heap_start(), VirtAddr::new(0x1000));
        assert!(dump.slice(0, 1).is_none());
    }

    #[test]
    fn slice_bounds() {
        let dump =
            MemoryDump::from_contiguous(VirtAddr::new(0), PhysAddr::new(0), (0u8..=255).collect());
        assert_eq!(dump.slice(10, 3), Some(&[10u8, 11, 12][..]));
        assert!(dump.slice(250, 10).is_none());
        assert!(dump.slice(u64::MAX, 1).is_none());
        // Offsets wider than usize must be a clean `None` via `try_from`,
        // never a silent truncation back into range (`as usize` would map
        // 2^32 to 0 on a 32-bit target and return the dump's first bytes).
        assert!(dump.slice(u64::MAX, 0).is_none());
        assert!(dump.slice(u64::MAX - 255, 256).is_none());
    }

    #[test]
    fn overlay_page_fills_only_scrubbed_bytes() {
        let mut bytes = vec![0u8; 2 * PAGE_SIZE as usize];
        bytes[0] = 0xAA; // surviving DRAM residue must win
        let mut dump = MemoryDump::from_contiguous(VirtAddr::new(0), PhysAddr::new(0), bytes);

        let mut swapped = vec![0u8; PAGE_SIZE as usize];
        swapped[0] = 0x11;
        swapped[1] = 0x22;
        let filled = dump.overlay_page(0, &swapped);
        assert_eq!(filled, 1);
        assert_eq!(dump.as_bytes()[0], 0xAA);
        assert_eq!(dump.as_bytes()[1], 0x22);

        // Second page fills cleanly; a short source page fills a short run.
        assert_eq!(dump.overlay_page(1, &[0x33, 0x00, 0x44]), 2);
        assert_eq!(dump.as_bytes()[PAGE_SIZE as usize], 0x33);
        assert_eq!(dump.as_bytes()[PAGE_SIZE as usize + 2], 0x44);

        // Out-of-range and overflowing page indices are inert.
        assert_eq!(dump.overlay_page(2, &swapped), 0);
        assert_eq!(dump.overlay_page(u64::MAX, &swapped), 0);
        assert_eq!(MemoryDump::empty(VirtAddr::new(0)).overlay_page(0, &[1]), 0);
    }

    #[test]
    fn ascii_strings_extraction() {
        let mut bytes = vec![0u8; 8];
        bytes.extend_from_slice(b"resnet50_pt");
        bytes.push(0);
        bytes.extend_from_slice(b"ab");
        bytes.push(0);
        bytes.extend_from_slice(b"vitis_ai_library");
        let dump = MemoryDump::from_contiguous(VirtAddr::new(0), PhysAddr::new(0), bytes);
        let strings = dump.ascii_strings(4);
        assert_eq!(
            strings,
            vec!["resnet50_pt".to_string(), "vitis_ai_library".to_string()]
        );
        // Lower threshold picks up the short string too.
        assert!(dump.ascii_strings(2).contains(&"ab".to_string()));
    }

    #[test]
    fn hexdump_view_matches_bytes() {
        let dump = MemoryDump::from_contiguous(
            VirtAddr::new(0),
            PhysAddr::new(0),
            b"resnet50_pt".to_vec(),
        );
        let hex = dump.to_hexdump();
        assert_eq!(hex.as_bytes(), dump.as_bytes());
        assert_eq!(hex.grep("resnet50").len(), 1);
    }
}
