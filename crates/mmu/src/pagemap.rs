//! The Linux `/proc/<pid>/pagemap` entry format.
//!
//! The paper's attack converts virtual to physical addresses by reading the
//! victim's `pagemap` file from the debugger.  Each 64-bit little-endian entry
//! describes one virtual page:
//!
//! ```text
//! bit  63     page present
//! bit  62     page swapped
//! bit  61     page is a file-mapped page or shared anonymous page
//! bit  56     page exclusively mapped
//! bit  55     PTE is soft-dirty
//! bits 54-0   page frame number (PFN) when present
//! ```
//!
//! [`PagemapEntry`] encodes and decodes that format bit-exactly, so the
//! attacker-side translator in `msa-core` parses the same representation the
//! real attack parses.

// Lint audit: indexes and slice bounds here are established by the
// surrounding length checks / loop invariants before use.
#![allow(clippy::indexing_slicing)]

use zynq_dram::FrameNumber;

const PRESENT_BIT: u64 = 1 << 63;
const SWAPPED_BIT: u64 = 1 << 62;
const FILE_SHARED_BIT: u64 = 1 << 61;
const EXCLUSIVE_BIT: u64 = 1 << 56;
const SOFT_DIRTY_BIT: u64 = 1 << 55;
const PFN_MASK: u64 = (1 << 55) - 1;

/// One 64-bit `/proc/<pid>/pagemap` entry.
///
/// # Example
///
/// ```
/// use zynq_dram::FrameNumber;
/// use zynq_mmu::PagemapEntry;
///
/// let entry = PagemapEntry::present(FrameNumber::new(0x61c6d));
/// let raw = entry.to_raw();
/// let back = PagemapEntry::from_raw(raw);
/// assert!(back.is_present());
/// assert_eq!(back.frame_number(), Some(FrameNumber::new(0x61c6d)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct PagemapEntry {
    raw: u64,
}

impl PagemapEntry {
    /// An entry describing an unmapped (not present) page.
    pub const fn absent() -> Self {
        PagemapEntry { raw: 0 }
    }

    /// An entry describing a present page backed by `frame`, exclusively
    /// mapped (the common case for heap pages).
    pub fn present(frame: FrameNumber) -> Self {
        PagemapEntry {
            raw: PRESENT_BIT | EXCLUSIVE_BIT | (frame.as_u64() & PFN_MASK),
        }
    }

    /// Reconstructs an entry from its raw 64-bit representation.
    pub const fn from_raw(raw: u64) -> Self {
        PagemapEntry { raw }
    }

    /// Returns the raw 64-bit representation (what the `pagemap` file holds).
    pub const fn to_raw(self) -> u64 {
        self.raw
    }

    /// Returns the little-endian byte representation as stored in the file.
    pub const fn to_le_bytes(self) -> [u8; 8] {
        self.raw.to_le_bytes()
    }

    /// Parses an entry from its little-endian byte representation.
    pub const fn from_le_bytes(bytes: [u8; 8]) -> Self {
        PagemapEntry {
            raw: u64::from_le_bytes(bytes),
        }
    }

    /// `true` if the page is present in physical memory.
    pub const fn is_present(self) -> bool {
        self.raw & PRESENT_BIT != 0
    }

    /// `true` if the page has been swapped out.
    pub const fn is_swapped(self) -> bool {
        self.raw & SWAPPED_BIT != 0
    }

    /// `true` if the page is file-backed or shared.
    pub const fn is_file_or_shared(self) -> bool {
        self.raw & FILE_SHARED_BIT != 0
    }

    /// `true` if the page is exclusively mapped.
    pub const fn is_exclusive(self) -> bool {
        self.raw & EXCLUSIVE_BIT != 0
    }

    /// `true` if the PTE is soft-dirty.
    pub const fn is_soft_dirty(self) -> bool {
        self.raw & SOFT_DIRTY_BIT != 0
    }

    /// Returns the physical frame number if the page is present.
    pub fn frame_number(self) -> Option<FrameNumber> {
        if self.is_present() {
            Some(FrameNumber::new(self.raw & PFN_MASK))
        } else {
            None
        }
    }

    /// Marks the entry soft-dirty (used by tests exercising flag round-trips).
    pub const fn with_soft_dirty(self) -> Self {
        PagemapEntry {
            raw: self.raw | SOFT_DIRTY_BIT,
        }
    }

    /// Marks the entry as file-backed/shared.
    pub const fn with_file_or_shared(self) -> Self {
        PagemapEntry {
            raw: self.raw | FILE_SHARED_BIT,
        }
    }
}

/// Serializes a slice of entries to the binary layout of a `pagemap` file
/// region (consecutive little-endian 64-bit words).
pub fn encode_entries(entries: &[PagemapEntry]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(entries.len() * 8);
    for entry in entries {
        bytes.extend_from_slice(&entry.to_le_bytes());
    }
    bytes
}

/// Parses the binary contents of a `pagemap` region back into entries.
///
/// Trailing bytes that do not form a whole entry are ignored, matching the
/// behaviour of a short read.
pub fn decode_entries(bytes: &[u8]) -> Vec<PagemapEntry> {
    bytes
        .chunks_exact(8)
        .map(|chunk| {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(chunk);
            PagemapEntry::from_le_bytes(buf)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn present_entry_roundtrip() {
        let entry = PagemapEntry::present(FrameNumber::new(0x61c6d));
        assert!(entry.is_present());
        assert!(entry.is_exclusive());
        assert!(!entry.is_swapped());
        assert!(!entry.is_soft_dirty());
        assert!(!entry.is_file_or_shared());
        assert_eq!(entry.frame_number(), Some(FrameNumber::new(0x61c6d)));
        assert_eq!(PagemapEntry::from_raw(entry.to_raw()), entry);
    }

    #[test]
    fn absent_entry_has_no_frame() {
        let entry = PagemapEntry::absent();
        assert!(!entry.is_present());
        assert!(entry.frame_number().is_none());
        assert_eq!(entry.to_raw(), 0);
        assert_eq!(PagemapEntry::default(), entry);
    }

    #[test]
    fn flag_builders_set_expected_bits() {
        let entry = PagemapEntry::present(FrameNumber::new(1))
            .with_soft_dirty()
            .with_file_or_shared();
        assert!(entry.is_soft_dirty());
        assert!(entry.is_file_or_shared());
        assert_eq!(entry.frame_number(), Some(FrameNumber::new(1)));
    }

    #[test]
    fn byte_encoding_is_little_endian() {
        let entry = PagemapEntry::present(FrameNumber::new(0x0102_0304));
        let bytes = entry.to_le_bytes();
        assert_eq!(bytes[0], 0x04);
        assert_eq!(bytes[1], 0x03);
        assert_eq!(PagemapEntry::from_le_bytes(bytes), entry);
    }

    #[test]
    fn encode_decode_region_roundtrip() {
        let entries = vec![
            PagemapEntry::absent(),
            PagemapEntry::present(FrameNumber::new(7)),
            PagemapEntry::present(FrameNumber::new(0x61c6d)).with_soft_dirty(),
        ];
        let bytes = encode_entries(&entries);
        assert_eq!(bytes.len(), 24);
        assert_eq!(decode_entries(&bytes), entries);
    }

    #[test]
    fn decode_ignores_trailing_partial_entry() {
        let mut bytes = encode_entries(&[PagemapEntry::present(FrameNumber::new(3))]);
        bytes.extend_from_slice(&[0xAA, 0xBB, 0xCC]);
        let decoded = decode_entries(&bytes);
        assert_eq!(decoded.len(), 1);
        assert_eq!(decoded[0].frame_number(), Some(FrameNumber::new(3)));
    }

    proptest! {
        #[test]
        fn prop_raw_roundtrip(raw in any::<u64>()) {
            let entry = PagemapEntry::from_raw(raw);
            prop_assert_eq!(entry.to_raw(), raw);
            prop_assert_eq!(PagemapEntry::from_le_bytes(entry.to_le_bytes()), entry);
        }

        #[test]
        fn prop_present_preserves_pfn(pfn in 0u64..(1 << 55)) {
            let entry = PagemapEntry::present(FrameNumber::new(pfn));
            prop_assert_eq!(entry.frame_number(), Some(FrameNumber::new(pfn)));
        }

        #[test]
        fn prop_encode_decode_roundtrip(pfns in proptest::collection::vec(0u64..(1 << 55), 0..64)) {
            let entries: Vec<PagemapEntry> = pfns.iter().map(|p| PagemapEntry::present(FrameNumber::new(*p))).collect();
            prop_assert_eq!(decode_entries(&encode_entries(&entries)), entries);
        }
    }
}
