//! DRAM geometry and address-window configuration.
//!
//! The ZCU104 exposes its processing-system DDR4 to software through two
//! windows: the low 2 GiB window starting at `0x0000_0000` and (on boards
//! with more memory or with the PL DDR) a high window.  The paper's
//! `devmem` reads land around `0x6_1c6d_0000`, i.e. inside a high window, so
//! the default configuration places a 2 GiB window at `0x6_0000_0000` in
//! addition to the low window — frames handed to user processes are drawn
//! from the high window, matching the addresses the paper reports.

use crate::addr::{FrameNumber, PhysAddr, PAGE_SIZE};

/// Geometry of one DDR device/channel used for address interleaving.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DdrGeometry {
    /// log2 of the number of byte columns per row.
    pub column_bits: u32,
    /// log2 of the number of banks per bank group.
    pub bank_bits: u32,
    /// log2 of the number of bank groups.
    pub bank_group_bits: u32,
    /// log2 of the number of rows per bank.
    pub row_bits: u32,
    /// log2 of the number of ranks.
    pub rank_bits: u32,
}

impl DdrGeometry {
    /// DDR4 geometry matching the ZCU104's 2 GiB SODIMM
    /// (1 rank, 4 bank groups, 4 banks/group, 2^15 rows, 1 KiB columns... the
    /// exact part is not security-relevant; what matters is that rows and
    /// banks are much larger than a 4 KiB frame).
    pub const fn ddr4_2gib() -> Self {
        DdrGeometry {
            column_bits: 10,
            bank_bits: 2,
            bank_group_bits: 2,
            row_bits: 16,
            rank_bits: 1,
        }
    }

    /// Total number of addressable bytes described by this geometry.
    pub const fn capacity(&self) -> u64 {
        1u64 << (self.column_bits
            + self.bank_bits
            + self.bank_group_bits
            + self.row_bits
            + self.rank_bits)
    }

    /// Bytes per DRAM row (the unit RowClone-style bulk initialization works on).
    pub const fn row_bytes(&self) -> u64 {
        1u64 << self.column_bits
    }

    /// Bytes per bank (the unit RowReset-style initialization works on).
    pub const fn bank_bytes(&self) -> u64 {
        1u64 << (self.column_bits + self.row_bits)
    }

    /// Number of distinct banks (ranks × bank groups × banks per group).
    pub const fn bank_count(&self) -> u64 {
        1u64 << (self.bank_bits + self.bank_group_bits + self.rank_bits)
    }

    /// The flat bank id (rank, bank group, bank — the
    /// [`DdrCoordinates::bank_id`](crate::DdrCoordinates::bank_id) packing)
    /// holding a given global bank stripe (window offset / [`row_bytes`]).
    ///
    /// This is the single definition of the stripe → bank routing; the
    /// mapping layer and the sharded store both delegate here.  A total
    /// function — out-of-geometry stripe indices wrap via the bit masks.
    ///
    /// [`row_bytes`]: DdrGeometry::row_bytes
    pub const fn bank_of_stripe(&self, stripe: u64) -> u64 {
        let bank_group = stripe & ((1 << self.bank_group_bits) - 1);
        let bank = (stripe >> self.bank_group_bits) & ((1 << self.bank_bits) - 1);
        let rank = (stripe >> (self.bank_group_bits + self.bank_bits + self.row_bits))
            & ((1 << self.rank_bits) - 1);
        (rank << (self.bank_group_bits + self.bank_bits)) | (bank_group << self.bank_bits) | bank
    }

    /// The position of `stripe` within its bank: the row index, extended by
    /// the window-wrap overflow (window offsets past one full geometry reuse
    /// the bank bits and continue at the next `2^row_bits` block).
    ///
    /// Together with [`bank_of_stripe`](DdrGeometry::bank_of_stripe) this
    /// forms a bijection — `(bank id, ordinal)` identifies a stripe uniquely,
    /// inverted by [`stripe_of_ordinal`](DdrGeometry::stripe_of_ordinal) —
    /// and for a fixed bank the stripe index is *strictly increasing* in the
    /// ordinal, so the stripes of any contiguous window range occupy one
    /// contiguous ordinal interval per bank.  The arena-backed store keys its
    /// per-bank slabs by this ordinal, which is what turns stripe addressing
    /// into pure offset arithmetic.
    pub const fn ordinal_of_stripe(&self, stripe: u64) -> u64 {
        let bb = self.bank_group_bits + self.bank_bits;
        let row = (stripe >> bb) & ((1 << self.row_bits) - 1);
        let overflow = stripe >> (bb + self.row_bits + self.rank_bits);
        row | (overflow << self.row_bits)
    }

    /// Inverse of the `(bank_of_stripe, ordinal_of_stripe)` pair: rebuilds
    /// the global stripe index from a flat bank id and a per-bank ordinal.
    pub const fn stripe_of_ordinal(&self, bank_id: u64, ordinal: u64) -> u64 {
        let bb = self.bank_group_bits + self.bank_bits;
        let bank_group = (bank_id >> self.bank_bits) & ((1 << self.bank_group_bits) - 1);
        let bank = bank_id & ((1 << self.bank_bits) - 1);
        let rank = bank_id >> (self.bank_group_bits + self.bank_bits);
        let row = ordinal & ((1 << self.row_bits) - 1);
        let overflow = ordinal >> self.row_bits;
        bank_group
            | (bank << self.bank_group_bits)
            | (row << bb)
            | (rank << (bb + self.row_bits))
            | (overflow << (bb + self.row_bits + self.rank_bits))
    }
}

impl Default for DdrGeometry {
    fn default() -> Self {
        DdrGeometry::ddr4_2gib()
    }
}

/// Which board preset a configuration was derived from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum BoardModel {
    /// Zynq UltraScale+ MPSoC ZCU104 (the paper's primary target).
    Zcu104,
    /// Zynq UltraScale+ MPSoC ZCU102 (the paper's generalizability target).
    Zcu102,
    /// A custom, user-supplied configuration.
    Custom,
}

impl std::fmt::Display for BoardModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BoardModel::Zcu104 => write!(f, "ZCU104"),
            BoardModel::Zcu102 => write!(f, "ZCU102"),
            BoardModel::Custom => write!(f, "custom"),
        }
    }
}

/// Configuration of the simulated local DRAM: where the user-visible window
/// starts, how large it is, and the DDR geometry behind it.
///
/// # Example
///
/// ```
/// use zynq_dram::DramConfig;
///
/// let cfg = DramConfig::zcu104();
/// assert_eq!(cfg.base().as_u64(), 0x6_0000_0000);
/// assert!(cfg.contains(cfg.base()));
/// assert!(!cfg.contains(cfg.end()));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    board: BoardModel,
    base: PhysAddr,
    capacity: u64,
    geometry: DdrGeometry,
}

impl DramConfig {
    /// Configuration of the ZCU104's user-frame DDR window: 2 GiB starting at
    /// `0x6_0000_0000`, which is the window the paper's physical addresses
    /// (`0x61c6d730`…) fall into.
    pub fn zcu104() -> Self {
        DramConfig {
            board: BoardModel::Zcu104,
            base: PhysAddr::new(0x6_0000_0000),
            capacity: 2 * 1024 * 1024 * 1024,
            geometry: DdrGeometry::ddr4_2gib(),
        }
    }

    /// Configuration of the ZCU102 (4 GiB window at the same high base).
    pub fn zcu102() -> Self {
        DramConfig {
            board: BoardModel::Zcu102,
            base: PhysAddr::new(0x6_0000_0000),
            capacity: 4 * 1024 * 1024 * 1024,
            geometry: DdrGeometry {
                row_bits: 17,
                ..DdrGeometry::ddr4_2gib()
            },
        }
    }

    /// Creates a custom configuration.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not page aligned, or `capacity` is zero or not a
    /// multiple of the page size.
    pub fn custom(base: PhysAddr, capacity: u64, geometry: DdrGeometry) -> Self {
        assert!(base.is_aligned(), "DRAM base must be page aligned");
        assert!(capacity > 0, "DRAM capacity must be non-zero");
        assert_eq!(
            capacity % PAGE_SIZE,
            0,
            "DRAM capacity must be page-multiple"
        );
        DramConfig {
            board: BoardModel::Custom,
            base,
            capacity,
            geometry,
        }
    }

    /// A small window useful for fast tests (16 MiB).
    pub fn tiny_for_tests() -> Self {
        DramConfig::custom(
            PhysAddr::new(0x6_0000_0000),
            16 * 1024 * 1024,
            DdrGeometry::ddr4_2gib(),
        )
    }

    /// The board preset this configuration corresponds to.
    pub fn board(&self) -> BoardModel {
        self.board
    }

    /// First physical address of the window.
    pub fn base(&self) -> PhysAddr {
        self.base
    }

    /// Size of the window in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// One-past-the-end physical address of the window.
    pub fn end(&self) -> PhysAddr {
        self.base + self.capacity
    }

    /// DDR geometry used for bank/row mapping.
    pub fn geometry(&self) -> DdrGeometry {
        self.geometry
    }

    /// Number of page frames in the window.
    pub fn frame_count(&self) -> u64 {
        self.capacity / PAGE_SIZE
    }

    /// First frame of the window.
    pub fn first_frame(&self) -> FrameNumber {
        self.base.frame_number()
    }

    /// Returns `true` if `addr` lies inside the window.
    pub fn contains(&self, addr: PhysAddr) -> bool {
        addr >= self.base && addr < self.end()
    }

    /// Returns `true` if the `len`-byte access starting at `addr` lies fully
    /// inside the window.
    pub fn contains_range(&self, addr: PhysAddr, len: u64) -> bool {
        if len == 0 {
            return self.contains(addr) || addr == self.end();
        }
        match addr.checked_add(len - 1) {
            Some(last) => self.contains(addr) && self.contains(last),
            None => false,
        }
    }

    /// Returns `true` if `frame` lies inside the window.
    pub fn contains_frame(&self, frame: FrameNumber) -> bool {
        self.contains(frame.base_address())
    }
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig::zcu104()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zcu104_window_covers_paper_addresses() {
        let cfg = DramConfig::zcu104();
        // The paper's devmem reads: 0x61c6d730 is printed truncated, the full
        // heap range ends at 0x61ec5e220 which only makes sense in a >32-bit
        // window; both fall in the configured high window when offset by the
        // 0x6_0000_0000 base.
        assert!(cfg.contains(PhysAddr::new(0x6_1c6d_0730)));
        assert!(cfg.contains(PhysAddr::new(0x6_1ec5_e220)));
        assert_eq!(cfg.board(), BoardModel::Zcu104);
        assert_eq!(cfg.board().to_string(), "ZCU104");
    }

    #[test]
    fn zcu102_is_larger_than_zcu104() {
        assert!(DramConfig::zcu102().capacity() > DramConfig::zcu104().capacity());
        assert_eq!(DramConfig::zcu102().board(), BoardModel::Zcu102);
    }

    #[test]
    fn geometry_capacity_matches_bit_widths() {
        let g = DdrGeometry::ddr4_2gib();
        assert_eq!(g.capacity(), 2 * 1024 * 1024 * 1024);
        assert_eq!(g.row_bytes(), 1024);
        assert_eq!(g.bank_bytes(), 1024 * 65536);
    }

    #[test]
    fn stripe_ordinal_is_a_bijection_per_bank() {
        let geometries = [
            DdrGeometry::ddr4_2gib(),
            // The differential-harness shapes: ranked small rows, stripe ==
            // page, stripe > page, and the tiny wrap-around geometry.
            DdrGeometry {
                column_bits: 8,
                bank_bits: 2,
                bank_group_bits: 2,
                row_bits: 9,
                rank_bits: 1,
            },
            DdrGeometry {
                column_bits: 12,
                bank_bits: 1,
                bank_group_bits: 1,
                row_bits: 8,
                rank_bits: 0,
            },
            DdrGeometry {
                column_bits: 13,
                bank_bits: 2,
                bank_group_bits: 1,
                row_bits: 6,
                rank_bits: 0,
            },
            DdrGeometry {
                column_bits: 6,
                bank_bits: 1,
                bank_group_bits: 1,
                row_bits: 4,
                rank_bits: 0,
            },
        ];
        for g in geometries {
            // Every stripe round-trips through its (bank, ordinal) pair —
            // deliberately past one full geometry so the overflow (window
            // wrap) bits are exercised.
            for stripe in 0..8192u64 {
                let bank = g.bank_of_stripe(stripe);
                let ordinal = g.ordinal_of_stripe(stripe);
                assert!(bank < g.bank_count());
                assert_eq!(g.stripe_of_ordinal(bank, ordinal), stripe);
            }
            // Per bank, ordinals enumerate that bank's stripes in strictly
            // increasing stripe order (the arena's contiguity guarantee).
            for bank in 0..g.bank_count() {
                let mut previous = None;
                for ordinal in 0..512u64 {
                    let stripe = g.stripe_of_ordinal(bank, ordinal);
                    assert_eq!(g.bank_of_stripe(stripe), bank);
                    assert_eq!(g.ordinal_of_stripe(stripe), ordinal);
                    if let Some(p) = previous {
                        assert!(stripe > p, "stripe index must grow with the ordinal");
                    }
                    previous = Some(stripe);
                }
            }
        }
    }

    #[test]
    fn contains_range_edges() {
        let cfg = DramConfig::tiny_for_tests();
        let base = cfg.base();
        assert!(cfg.contains_range(base, cfg.capacity()));
        assert!(!cfg.contains_range(base, cfg.capacity() + 1));
        assert!(cfg.contains_range(cfg.end() - 4, 4));
        assert!(!cfg.contains_range(cfg.end() - 3, 4));
        assert!(cfg.contains_range(cfg.end(), 0));
        assert!(!cfg.contains_range(PhysAddr::new(u64::MAX), 4));
    }

    #[test]
    fn frame_accessors() {
        let cfg = DramConfig::tiny_for_tests();
        assert_eq!(cfg.frame_count(), 16 * 1024 * 1024 / PAGE_SIZE);
        assert!(cfg.contains_frame(cfg.first_frame()));
        assert_eq!(cfg.first_frame().base_address(), cfg.base());
    }

    #[test]
    #[should_panic(expected = "page aligned")]
    fn custom_rejects_unaligned_base() {
        let _ = DramConfig::custom(PhysAddr::new(123), PAGE_SIZE, DdrGeometry::default());
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn custom_rejects_zero_capacity() {
        let _ = DramConfig::custom(PhysAddr::new(0), 0, DdrGeometry::default());
    }

    #[test]
    fn default_is_zcu104() {
        assert_eq!(DramConfig::default(), DramConfig::zcu104());
        assert_eq!(DdrGeometry::default(), DdrGeometry::ddr4_2gib());
    }
}
