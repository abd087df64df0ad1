//! Virtual address and page-number newtypes.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

use zynq_dram::PAGE_SIZE;

/// A virtual address in a process's address space.
///
/// Printed in the bare-hex style `/proc/<pid>/maps` uses
/// (e.g. `aaaaee775000`).
///
/// # Example
///
/// ```
/// use zynq_mmu::VirtAddr;
///
/// let va = VirtAddr::new(0xaaaa_ee77_5000);
/// assert_eq!(format!("{va}"), "aaaaee775000");
/// assert_eq!(va.page_offset(), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtAddr(u64);

impl VirtAddr {
    /// Creates a virtual address from a raw value.
    pub const fn new(raw: u64) -> Self {
        VirtAddr(raw)
    }

    /// Returns the raw address value.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Returns the virtual page containing this address.
    pub const fn page_number(self) -> PageNumber {
        PageNumber(self.0 / PAGE_SIZE)
    }

    /// Returns the offset of this address within its page.
    pub const fn page_offset(self) -> u64 {
        self.0 % PAGE_SIZE
    }

    /// Rounds down to the containing page boundary.
    pub const fn align_down(self) -> VirtAddr {
        VirtAddr(self.0 - self.0 % PAGE_SIZE)
    }

    /// Rounds up to the next page boundary (identity if aligned).
    pub const fn align_up(self) -> VirtAddr {
        let rem = self.0 % PAGE_SIZE;
        if rem == 0 {
            self
        } else {
            VirtAddr(self.0 + (PAGE_SIZE - rem))
        }
    }

    /// Returns `true` if the address is page-aligned.
    pub const fn is_aligned(self) -> bool {
        self.0.is_multiple_of(PAGE_SIZE)
    }

    /// Byte distance from `other` to `self`.
    ///
    /// # Panics
    ///
    /// Panics if `other > self`.
    pub fn offset_from(self, other: VirtAddr) -> u64 {
        self.0
            .checked_sub(other.0)
            .expect("offset_from: other is above self")
    }

    /// Checked addition of a byte offset.
    pub fn checked_add(self, offset: u64) -> Option<VirtAddr> {
        self.0.checked_add(offset).map(VirtAddr)
    }
}

impl fmt::Display for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:x}", self.0)
    }
}

impl fmt::LowerHex for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<u64> for VirtAddr {
    fn from(raw: u64) -> Self {
        VirtAddr(raw)
    }
}

impl From<VirtAddr> for u64 {
    fn from(va: VirtAddr) -> Self {
        va.0
    }
}

impl Add<u64> for VirtAddr {
    type Output = VirtAddr;

    fn add(self, rhs: u64) -> VirtAddr {
        VirtAddr(self.0 + rhs)
    }
}

impl AddAssign<u64> for VirtAddr {
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub<u64> for VirtAddr {
    type Output = VirtAddr;

    fn sub(self, rhs: u64) -> VirtAddr {
        VirtAddr(self.0 - rhs)
    }
}

/// A virtual page number (virtual address divided by the page size).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PageNumber(u64);

impl PageNumber {
    /// Creates a page number from a raw value.
    pub const fn new(raw: u64) -> Self {
        PageNumber(raw)
    }

    /// Returns the raw page number.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Returns the first address of the page.
    pub const fn base_address(self) -> VirtAddr {
        VirtAddr(self.0 * PAGE_SIZE)
    }

    /// Returns the page immediately after this one.
    pub const fn next(self) -> PageNumber {
        PageNumber(self.0 + 1)
    }

    /// Index into the level-`level` page table for this page
    /// (level 0 is the root; 9 bits per level, ARMv8 4 KiB granule).
    pub const fn table_index(self, level: usize) -> usize {
        let shift = 9 * (3 - level);
        ((self.0 >> shift) & 0x1ff) as usize
    }
}

impl fmt::Display for PageNumber {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vpn:{:#x}", self.0)
    }
}

impl From<u64> for PageNumber {
    fn from(raw: u64) -> Self {
        PageNumber(raw)
    }
}

impl From<PageNumber> for u64 {
    fn from(p: PageNumber) -> Self {
        p.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_maps_file_style() {
        assert_eq!(VirtAddr::new(0xaaaa_ee77_5000).to_string(), "aaaaee775000");
        assert_eq!(format!("{:x}", VirtAddr::new(0xff)), "ff");
    }

    #[test]
    fn page_decomposition_roundtrip() {
        let va = VirtAddr::new(0xaaaa_ee77_5123);
        assert_eq!(va.page_offset(), 0x123);
        assert_eq!(va.page_number().base_address() + va.page_offset(), va);
        assert_eq!(va.align_down().page_offset(), 0);
        assert_eq!(va.align_up(), VirtAddr::new(0xaaaa_ee77_6000));
        assert!(va.align_down().is_aligned());
    }

    #[test]
    fn arithmetic() {
        let va = VirtAddr::new(0x1000);
        assert_eq!((va + 0x20).offset_from(va), 0x20);
        assert_eq!(va + 0x20 - 0x20, va);
        assert_eq!(VirtAddr::from(3u64).as_u64(), 3);
        assert_eq!(u64::from(VirtAddr::new(9)), 9);
        assert!(VirtAddr::new(u64::MAX).checked_add(1).is_none());
        let mut v = va;
        v += 4;
        assert_eq!(v.as_u64(), 0x1004);
    }

    #[test]
    #[should_panic(expected = "offset_from")]
    fn offset_from_panics_backwards() {
        let _ = VirtAddr::new(0).offset_from(VirtAddr::new(1));
    }

    #[test]
    fn table_indices_cover_all_levels() {
        // Construct a page number with distinct 9-bit groups.
        let raw = (1u64 << 27) | (2 << 18) | (3 << 9) | 4;
        let page = PageNumber::new(raw);
        assert_eq!(page.table_index(0), 1);
        assert_eq!(page.table_index(1), 2);
        assert_eq!(page.table_index(2), 3);
        assert_eq!(page.table_index(3), 4);
    }

    #[test]
    fn page_number_helpers() {
        let p = PageNumber::new(10);
        assert_eq!(p.base_address(), VirtAddr::new(10 * PAGE_SIZE));
        assert_eq!(p.next().as_u64(), 11);
        assert_eq!(p.to_string(), "vpn:0xa");
        assert_eq!(u64::from(PageNumber::from(6u64)), 6);
    }
}
