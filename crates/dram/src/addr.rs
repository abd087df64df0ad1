//! Physical address and frame-number newtypes.
//!
//! The attack reasons about *physical* DRAM locations (the values produced by
//! the paper's `virtual_to_physical` helper and consumed by `devmem`), so the
//! address types live in the DRAM crate and are re-used by every layer above.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Size of a physical frame / virtual page in bytes (4 KiB, the granule used
/// by PetaLinux on the Cortex-A53 cluster of the ZCU104).
pub const PAGE_SIZE: u64 = 4096;

/// A physical address in the board's DRAM address map.
///
/// Printed in hexadecimal, matching the `devmem 0x61c6d730` style output the
/// paper shows in Figures 8 and 10.
///
/// # Example
///
/// ```
/// use zynq_dram::PhysAddr;
///
/// let pa = PhysAddr::new(0x61c6_d730);
/// assert_eq!(format!("{pa}"), "0x61c6d730");
/// assert_eq!(pa.frame_number().as_u64(), 0x61c6_d730 / 4096);
/// assert_eq!(pa.page_offset(), 0x730);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PhysAddr(u64);

impl PhysAddr {
    /// Creates a physical address from a raw value.
    pub const fn new(raw: u64) -> Self {
        PhysAddr(raw)
    }

    /// Returns the raw address value.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Returns the frame containing this address.
    pub const fn frame_number(self) -> FrameNumber {
        FrameNumber(self.0 / PAGE_SIZE)
    }

    /// Returns the offset of this address within its frame.
    pub const fn page_offset(self) -> u64 {
        self.0 % PAGE_SIZE
    }

    /// Rounds the address down to the containing frame boundary.
    pub const fn align_down(self) -> PhysAddr {
        PhysAddr(self.0 - self.0 % PAGE_SIZE)
    }

    /// Rounds the address up to the next frame boundary (identity if already
    /// aligned).
    pub const fn align_up(self) -> PhysAddr {
        let rem = self.0 % PAGE_SIZE;
        if rem == 0 {
            self
        } else {
            PhysAddr(self.0 + (PAGE_SIZE - rem))
        }
    }

    /// Returns `true` if the address is frame-aligned.
    pub const fn is_aligned(self) -> bool {
        self.0.is_multiple_of(PAGE_SIZE)
    }

    /// Checked addition of a byte offset.
    pub fn checked_add(self, offset: u64) -> Option<PhysAddr> {
        self.0.checked_add(offset).map(PhysAddr)
    }

    /// Byte distance from `other` to `self`.
    ///
    /// # Panics
    ///
    /// Panics if `other > self`.
    pub fn offset_from(self, other: PhysAddr) -> u64 {
        self.0
            .checked_sub(other.0)
            .expect("offset_from: other is above self")
    }
}

impl fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::LowerHex for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::UpperHex for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&self.0, f)
    }
}

impl From<u64> for PhysAddr {
    fn from(raw: u64) -> Self {
        PhysAddr(raw)
    }
}

impl From<PhysAddr> for u64 {
    fn from(pa: PhysAddr) -> Self {
        pa.0
    }
}

impl Add<u64> for PhysAddr {
    type Output = PhysAddr;

    fn add(self, rhs: u64) -> PhysAddr {
        PhysAddr(self.0 + rhs)
    }
}

impl AddAssign<u64> for PhysAddr {
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub<u64> for PhysAddr {
    type Output = PhysAddr;

    fn sub(self, rhs: u64) -> PhysAddr {
        PhysAddr(self.0 - rhs)
    }
}

/// A physical frame number (physical address divided by [`PAGE_SIZE`]).
///
/// Frame numbers are what Linux's `/proc/<pid>/pagemap` exposes as PFNs; the
/// attacker-side translator reconstructs physical addresses from them.
///
/// # Example
///
/// ```
/// use zynq_dram::{FrameNumber, PhysAddr};
///
/// let frame = FrameNumber::new(0x61c6d);
/// assert_eq!(frame.base_address(), PhysAddr::new(0x61c6d000));
/// assert_eq!(frame.next().as_u64(), 0x61c6e);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct FrameNumber(u64);

impl FrameNumber {
    /// Creates a frame number from a raw value.
    pub const fn new(raw: u64) -> Self {
        FrameNumber(raw)
    }

    /// Returns the raw frame number.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Returns the physical address of the first byte of the frame.
    pub const fn base_address(self) -> PhysAddr {
        PhysAddr(self.0 * PAGE_SIZE)
    }

    /// Returns the frame immediately after this one.
    pub const fn next(self) -> FrameNumber {
        FrameNumber(self.0 + 1)
    }
}

impl fmt::Display for FrameNumber {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pfn:{:#x}", self.0)
    }
}

impl From<u64> for FrameNumber {
    fn from(raw: u64) -> Self {
        FrameNumber(raw)
    }
}

impl From<FrameNumber> for u64 {
    fn from(f: FrameNumber) -> Self {
        f.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn phys_addr_display_is_devmem_style_hex() {
        assert_eq!(PhysAddr::new(0x61c6_d730).to_string(), "0x61c6d730");
        assert_eq!(format!("{:x}", PhysAddr::new(0xABCD)), "abcd");
        assert_eq!(format!("{:X}", PhysAddr::new(0xabcd)), "ABCD");
    }

    #[test]
    fn frame_and_offset_decomposition() {
        let pa = PhysAddr::new(3 * PAGE_SIZE + 17);
        assert_eq!(pa.frame_number(), FrameNumber::new(3));
        assert_eq!(pa.page_offset(), 17);
        assert_eq!(pa.frame_number().base_address() + pa.page_offset(), pa);
    }

    #[test]
    fn alignment_helpers() {
        let pa = PhysAddr::new(PAGE_SIZE + 1);
        assert_eq!(pa.align_down(), PhysAddr::new(PAGE_SIZE));
        assert_eq!(pa.align_up(), PhysAddr::new(2 * PAGE_SIZE));
        let aligned = PhysAddr::new(2 * PAGE_SIZE);
        assert!(aligned.is_aligned());
        assert_eq!(aligned.align_up(), aligned);
        assert_eq!(aligned.align_down(), aligned);
    }

    #[test]
    fn arithmetic_and_conversions() {
        let pa = PhysAddr::new(0x1000);
        assert_eq!((pa + 0x730).as_u64(), 0x1730);
        assert_eq!((pa + 0x730).offset_from(pa), 0x730);
        assert_eq!(PhysAddr::from(7u64).as_u64(), 7);
        assert_eq!(u64::from(PhysAddr::new(9)), 9);
        let mut pa2 = pa;
        pa2 += 8;
        assert_eq!(pa2, PhysAddr::new(0x1008));
        assert_eq!(pa2 - 8, pa);
    }

    #[test]
    fn checked_add_detects_overflow() {
        assert!(PhysAddr::new(u64::MAX).checked_add(1).is_none());
        assert_eq!(PhysAddr::new(10).checked_add(5), Some(PhysAddr::new(15)));
    }

    #[test]
    #[should_panic(expected = "offset_from")]
    fn offset_from_panics_when_negative() {
        let _ = PhysAddr::new(0).offset_from(PhysAddr::new(1));
    }

    #[test]
    fn frame_number_roundtrip() {
        let frame = FrameNumber::new(42);
        assert_eq!(frame.base_address().frame_number(), frame);
        assert_eq!(frame.next(), FrameNumber::new(43));
        assert_eq!(frame.to_string(), "pfn:0x2a");
        assert_eq!(u64::from(FrameNumber::from(5u64)), 5);
    }

    proptest! {
        #[test]
        fn prop_frame_offset_decomposition_roundtrips(raw in any::<u64>()) {
            // frame * PAGE_SIZE + offset reconstructs the address exactly.
            let pa = PhysAddr::new(raw);
            prop_assert_eq!(
                pa.frame_number().base_address() + pa.page_offset(),
                pa
            );
            prop_assert!(pa.page_offset() < PAGE_SIZE);
            prop_assert_eq!(pa.frame_number().base_address().page_offset(), 0);
        }

        #[test]
        fn prop_alignment_brackets_the_address(raw in 0u64..(u64::MAX - PAGE_SIZE)) {
            let pa = PhysAddr::new(raw);
            let down = pa.align_down();
            let up = pa.align_up();
            prop_assert!(down.is_aligned());
            prop_assert!(up.is_aligned());
            prop_assert!(down <= pa);
            prop_assert!(pa <= up);
            prop_assert!(up.as_u64() - down.as_u64() <= PAGE_SIZE);
            prop_assert_eq!(down == up, pa.is_aligned());
            prop_assert_eq!(down, pa.frame_number().base_address());
        }

        #[test]
        fn prop_addition_and_offset_from_are_inverses(base in 0u64..(1u64 << 48), delta in 0u64..(1u64 << 16)) {
            let pa = PhysAddr::new(base);
            prop_assert_eq!((pa + delta).offset_from(pa), delta);
            prop_assert_eq!(pa.checked_add(delta), Some(pa + delta));
            prop_assert_eq!((pa + delta) - delta, pa);
        }

        #[test]
        fn prop_frame_base_is_monotone_and_page_strided(raw in 0u64..(u64::MAX / PAGE_SIZE)) {
            let frame = FrameNumber::new(raw);
            prop_assert_eq!(frame.base_address().frame_number(), frame);
            prop_assert_eq!(
                frame.next().base_address().offset_from(frame.base_address()),
                PAGE_SIZE
            );
        }
    }
}
