//! DDR controller address interleaving.
//!
//! The memory scraping attack itself only needs byte-addressable physical
//! memory, but the *defenses* discussed in the paper's related-work section
//! (RowClone bulk zeroing, RowReset bank initialization) operate on DRAM rows
//! and banks.  [`DdrMapping`] converts between a flat physical address inside
//! the DRAM window and the `(rank, bank group, bank, row, column)` coordinates
//! those mechanisms work on, using the row-interleaved mapping commonly used
//! by the Zynq UltraScale+ DDR controller:
//!
//! ```text
//! address bits (low → high): column | bank group | bank | row | rank
//! ```
//!
//! Because the column bits are the *low* bits, every naturally aligned
//! `row_bytes`-sized block of the window (a **bank stripe**) lives entirely
//! inside one bank, and consecutive stripes rotate through the bank groups.
//! [`DdrMapping::bank_of_stripe`] routes a stripe to its bank — the
//! partition the sharded [`Dram`](crate::Dram) store is built on.
//!
//! Every entry point rejects out-of-window addresses with the typed
//! [`DramError::OutsideWindow`] error (decompose and the bulk span paths
//! used to disagree: decompose returned `None` while `bank_addresses`
//! happily produced spans past the window end that callers had to filter).

// Lint audit: indexes and slice bounds here are established by the
// surrounding length checks / loop invariants before use.
#![allow(clippy::indexing_slicing)]

use crate::addr::PhysAddr;
use crate::config::{DdrGeometry, DramConfig};
use crate::error::DramError;

/// Decomposed DRAM coordinates of a physical address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DdrCoordinates {
    /// Rank index.
    pub rank: u64,
    /// Bank group index.
    pub bank_group: u64,
    /// Bank index within the bank group.
    pub bank: u64,
    /// Row index within the bank.
    pub row: u64,
    /// Byte column within the row.
    pub column: u64,
}

impl DdrCoordinates {
    /// Returns a flat identifier of the (rank, bank group, bank) triple,
    /// useful for grouping rows by bank.
    pub fn bank_id(&self, geometry: &DdrGeometry) -> u64 {
        (self.rank << (geometry.bank_group_bits + geometry.bank_bits))
            | (self.bank_group << geometry.bank_bits)
            | self.bank
    }

    /// Returns a flat identifier of the (bank, row) pair, useful for grouping
    /// addresses by DRAM row.
    pub fn row_id(&self, geometry: &DdrGeometry) -> u64 {
        (self.bank_id(geometry) << geometry.row_bits) | self.row
    }
}

/// Translator between window-relative physical addresses and DDR coordinates.
///
/// # Example
///
/// ```
/// use zynq_dram::{DdrMapping, DramConfig};
///
/// let cfg = DramConfig::zcu104();
/// let mapping = DdrMapping::new(cfg);
/// let addr = cfg.base() + 0x1_2345;
/// let coords = mapping.decompose(addr).expect("inside window");
/// assert_eq!(mapping.compose(coords), addr);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DdrMapping {
    config: DramConfig,
}

impl DdrMapping {
    /// Creates a mapping for the given DRAM configuration.
    pub fn new(config: DramConfig) -> Self {
        DdrMapping { config }
    }

    /// The configuration this mapping was built from.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// Number of distinct banks addressed by the geometry
    /// (ranks × bank groups × banks per group).
    pub fn bank_count(&self) -> u64 {
        self.config.geometry().bank_count()
    }

    /// Bytes per bank stripe: the longest naturally aligned block that is
    /// guaranteed to live inside a single bank (one DRAM row).
    pub fn stripe_bytes(&self) -> u64 {
        self.config.geometry().row_bytes()
    }

    /// The bank holding a given global stripe (window offset / stripe bytes).
    ///
    /// Delegates to [`DdrGeometry::bank_of_stripe`] — a total function, so
    /// the store can route every stripe to exactly one bank shard without an
    /// in-window check on the hot path.  For in-window addresses it agrees
    /// with [`DdrCoordinates::bank_id`] of any address in the stripe.
    pub fn bank_of_stripe(&self, stripe: u64) -> u64 {
        self.config.geometry().bank_of_stripe(stripe)
    }

    /// The bank containing `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::OutsideWindow`] if `addr` is outside the window.
    pub fn bank_of(&self, addr: PhysAddr) -> Result<u64, DramError> {
        if !self.config.contains(addr) {
            return Err(DramError::OutsideWindow { addr });
        }
        Ok(self.bank_of_stripe(addr.offset_from(self.config.base()) / self.stripe_bytes()))
    }

    /// Decomposes a physical address into DDR coordinates.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::OutsideWindow`] if the address is outside the
    /// DRAM window.
    pub fn decompose(&self, addr: PhysAddr) -> Result<DdrCoordinates, DramError> {
        if !self.config.contains(addr) {
            return Err(DramError::OutsideWindow { addr });
        }
        let g = self.config.geometry();
        let mut rel = addr.offset_from(self.config.base());

        let column = rel & ((1 << g.column_bits) - 1);
        rel >>= g.column_bits;
        let bank_group = rel & ((1 << g.bank_group_bits) - 1);
        rel >>= g.bank_group_bits;
        let bank = rel & ((1 << g.bank_bits) - 1);
        rel >>= g.bank_bits;
        let row = rel & ((1 << g.row_bits) - 1);
        rel >>= g.row_bits;
        let rank = rel & ((1 << g.rank_bits) - 1);

        Ok(DdrCoordinates {
            rank,
            bank_group,
            bank,
            row,
            column,
        })
    }

    /// Composes DDR coordinates back into a physical address.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate exceeds the geometry's bit width.
    pub fn compose(&self, coords: DdrCoordinates) -> PhysAddr {
        let g = self.config.geometry();
        assert!(coords.column < (1 << g.column_bits), "column out of range");
        assert!(
            coords.bank_group < (1 << g.bank_group_bits),
            "bank group out of range"
        );
        assert!(coords.bank < (1 << g.bank_bits), "bank out of range");
        assert!(coords.row < (1 << g.row_bits), "row out of range");
        assert!(coords.rank < (1 << g.rank_bits), "rank out of range");

        let mut rel = coords.rank;
        rel = (rel << g.row_bits) | coords.row;
        rel = (rel << g.bank_bits) | coords.bank;
        rel = (rel << g.bank_group_bits) | coords.bank_group;
        rel = (rel << g.column_bits) | coords.column;
        self.config.base() + rel
    }

    /// Returns the inclusive start and exclusive end of the DRAM row
    /// containing `addr`, clipped to the window end (tiny test windows can be
    /// smaller than one full row).
    ///
    /// This is the span a RowClone-style bulk zero would clear.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::OutsideWindow`] if `addr` is outside the window.
    pub fn row_span(&self, addr: PhysAddr) -> Result<(PhysAddr, PhysAddr), DramError> {
        let g = self.config.geometry();
        let coords = self.decompose(addr)?;
        let start = self.compose(DdrCoordinates {
            column: 0,
            ..coords
        });
        let end = (start + g.row_bytes()).min(self.config.end());
        Ok((start, end))
    }

    /// Returns the inclusive start and exclusive end of the contiguous span
    /// mapped to the bank containing `addr`.
    ///
    /// Because the row bits sit above the bank bits in this interleaving, a
    /// single bank does **not** form one contiguous span; this method returns
    /// the span of the *row-group stripe* the address falls into (one row's
    /// worth of bytes).  Use [`DdrMapping::bank_addresses`] to enumerate a
    /// whole bank.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::OutsideWindow`] if `addr` is outside the window.
    pub fn bank_stripe_span(&self, addr: PhysAddr) -> Result<(PhysAddr, PhysAddr), DramError> {
        self.row_span(addr)
    }

    /// Iterates over the span of every row belonging to the bank that
    /// contains `addr`, **restricted to the configured window**: rows that a
    /// small window does not reach are omitted, and the final row is clipped
    /// to the window end, so callers can scrub every returned span without
    /// re-checking bounds.
    ///
    /// This is the set of spans a RowReset-style bank initialization clears.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::OutsideWindow`] if `addr` is outside the window
    /// (the same rejection [`DdrMapping::decompose`] applies — the two paths
    /// used to disagree, with the bulk path emitting out-of-window spans).
    pub fn bank_addresses(&self, addr: PhysAddr) -> Result<Vec<(PhysAddr, PhysAddr)>, DramError> {
        let g = self.config.geometry();
        let coords = self.decompose(addr)?;
        let rows = 1u64 << g.row_bits;
        let end = self.config.end();
        let mut spans = Vec::new();
        for row in 0..rows {
            let start = self.compose(DdrCoordinates {
                column: 0,
                row,
                ..coords
            });
            if start >= end {
                continue;
            }
            spans.push((start, (start + g.row_bytes()).min(end)));
        }
        Ok(spans)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn mapping() -> DdrMapping {
        DdrMapping::new(DramConfig::zcu104())
    }

    #[test]
    fn decompose_base_is_all_zero() {
        let m = mapping();
        let c = m.decompose(m.config().base()).unwrap();
        assert_eq!(
            c,
            DdrCoordinates {
                rank: 0,
                bank_group: 0,
                bank: 0,
                row: 0,
                column: 0
            }
        );
    }

    #[test]
    fn decompose_outside_window_is_a_typed_error() {
        let m = mapping();
        assert!(matches!(
            m.decompose(PhysAddr::new(0)),
            Err(DramError::OutsideWindow { .. })
        ));
        assert!(matches!(
            m.decompose(m.config().end()),
            Err(DramError::OutsideWindow { .. })
        ));
    }

    #[test]
    fn every_entry_point_rejects_the_window_end_identically() {
        // The satellite fix: decompose and the bulk paths must agree on the
        // window edge.  The last in-window byte succeeds everywhere; the
        // one-past-the-end address fails everywhere with the same error.
        let m = mapping();
        let last = m.config().end() - 1;
        assert!(m.decompose(last).is_ok());
        assert!(m.row_span(last).is_ok());
        assert!(m.bank_stripe_span(last).is_ok());
        assert!(m.bank_addresses(last).is_ok());
        assert!(m.bank_of(last).is_ok());

        let past = m.config().end();
        assert!(matches!(
            m.decompose(past),
            Err(DramError::OutsideWindow { addr }) if addr == past
        ));
        assert!(matches!(
            m.row_span(past),
            Err(DramError::OutsideWindow { .. })
        ));
        assert!(matches!(
            m.bank_stripe_span(past),
            Err(DramError::OutsideWindow { .. })
        ));
        assert!(matches!(
            m.bank_addresses(past),
            Err(DramError::OutsideWindow { .. })
        ));
        assert!(matches!(
            m.bank_of(past),
            Err(DramError::OutsideWindow { .. })
        ));
    }

    #[test]
    fn row_and_bank_spans_are_clipped_to_the_window() {
        // A window smaller than one bank: every span the mapping hands out
        // must already be scrubable without a bounds re-check.
        let cfg = DramConfig::tiny_for_tests();
        let m = DdrMapping::new(cfg);
        let spans = m.bank_addresses(cfg.base()).unwrap();
        assert!(!spans.is_empty());
        for (start, end) in &spans {
            assert!(*start < *end, "spans are non-empty");
            assert!(cfg.contains(*start));
            assert!(cfg.contains(*end - 1));
        }
        let (rs, re) = m.row_span(cfg.end() - 1).unwrap();
        assert!(cfg.contains(rs) && re <= cfg.end());
    }

    #[test]
    fn compose_decompose_roundtrip_on_fixed_points() {
        let m = mapping();
        for offset in [0u64, 1, 1023, 1024, 4096, 0x1_2345, 0x7fff_ffff] {
            let addr = m.config().base() + offset;
            let coords = m.decompose(addr).unwrap();
            assert_eq!(m.compose(coords), addr, "offset {offset:#x}");
        }
    }

    #[test]
    fn row_span_contains_address_and_has_row_size() {
        let m = mapping();
        let addr = m.config().base() + 0x1_2345;
        let (start, end) = m.row_span(addr).unwrap();
        assert!(start <= addr && addr < end);
        assert_eq!(end.offset_from(start), m.config().geometry().row_bytes());
    }

    #[test]
    fn bank_addresses_enumerates_every_row_once() {
        let cfg = DramConfig::custom(
            PhysAddr::new(0x6_0000_0000),
            1 << 20,
            DdrGeometry {
                column_bits: 6,
                bank_bits: 1,
                bank_group_bits: 1,
                row_bits: 4,
                rank_bits: 0,
            },
        );
        let m = DdrMapping::new(cfg);
        let addr = cfg.base() + 5;
        let spans = m.bank_addresses(addr).unwrap();
        assert_eq!(spans.len(), 16);
        let g = cfg.geometry();
        let bank = m.decompose(addr).unwrap().bank_id(&g);
        for (start, end) in &spans {
            assert_eq!(end.offset_from(*start), g.row_bytes());
            assert_eq!(m.decompose(*start).unwrap().bank_id(&g), bank);
        }
        // All spans are distinct.
        let mut starts: Vec<_> = spans.iter().map(|(s, _)| s.as_u64()).collect();
        starts.sort_unstable();
        starts.dedup();
        assert_eq!(starts.len(), 16);
    }

    #[test]
    fn bank_and_row_ids_are_stable() {
        let m = mapping();
        let g = m.config().geometry();
        let a = m.config().base() + 10;
        let b = m.config().base() + 20;
        let ca = m.decompose(a).unwrap();
        let cb = m.decompose(b).unwrap();
        // Same row (both in column range of row 0, bank 0).
        assert_eq!(ca.row_id(&g), cb.row_id(&g));
        assert_eq!(ca.bank_id(&g), cb.bank_id(&g));
    }

    #[test]
    fn bank_count_and_stripe_bytes_follow_the_geometry() {
        let m = mapping();
        let g = m.config().geometry();
        assert_eq!(
            m.bank_count(),
            1 << (g.bank_bits + g.bank_group_bits + g.rank_bits)
        );
        assert_eq!(m.stripe_bytes(), g.row_bytes());
    }

    #[test]
    #[should_panic(expected = "column out of range")]
    fn compose_rejects_out_of_range_column() {
        let m = mapping();
        let mut c = m.decompose(m.config().base()).unwrap();
        c.column = u64::MAX;
        let _ = m.compose(c);
    }

    /// Every board configuration a campaign can put cells on — the geometry
    /// properties below must hold on all of them, not just the ZCU104.
    fn all_board_configs() -> Vec<DramConfig> {
        vec![
            DramConfig::zcu104(),
            DramConfig::zcu102(),
            DramConfig::tiny_for_tests(),
            // A 64 MiB window whose geometry covers it exactly (26 bits).
            DramConfig::custom(
                PhysAddr::new(0x6_0000_0000),
                64 * 1024 * 1024,
                DdrGeometry {
                    column_bits: 8,
                    bank_bits: 2,
                    bank_group_bits: 2,
                    row_bits: 13,
                    rank_bits: 1,
                },
            ),
            // Stripes as large as a page, single rank, few banks.
            DramConfig::custom(
                PhysAddr::new(0x6_0000_0000),
                8 * 1024 * 1024,
                DdrGeometry {
                    column_bits: 12,
                    bank_bits: 1,
                    bank_group_bits: 1,
                    row_bits: 9,
                    rank_bits: 0,
                },
            ),
        ]
    }

    proptest! {
        #[test]
        fn prop_decompose_compose_roundtrip_on_all_boards(raw in any::<u64>()) {
            for cfg in all_board_configs() {
                let m = DdrMapping::new(cfg);
                let addr = cfg.base() + raw % cfg.capacity();
                let coords = m.decompose(addr).unwrap();
                prop_assert_eq!(m.compose(coords), addr, "config {:?}", cfg.board());
            }
        }

        #[test]
        fn prop_coordinates_within_geometry_on_all_boards(raw in any::<u64>()) {
            for cfg in all_board_configs() {
                let m = DdrMapping::new(cfg);
                let g = cfg.geometry();
                let coords = m.decompose(cfg.base() + raw % cfg.capacity()).unwrap();
                prop_assert!(coords.column < (1 << g.column_bits));
                prop_assert!(coords.bank < (1 << g.bank_bits));
                prop_assert!(coords.bank_group < (1 << g.bank_group_bits));
                prop_assert!(coords.row < (1 << g.row_bits));
                prop_assert!(coords.rank < (1 << g.rank_bits));
            }
        }

        /// Bank decomposition is a partition: every in-window address maps to
        /// exactly one bank, and that bank agrees between the stripe-level
        /// routing function and the full coordinate decomposition.
        #[test]
        fn prop_every_address_maps_to_exactly_one_bank(raw in any::<u64>()) {
            for cfg in all_board_configs() {
                let m = DdrMapping::new(cfg);
                let g = cfg.geometry();
                let addr = cfg.base() + raw % cfg.capacity();
                let via_coords = m.decompose(addr).unwrap().bank_id(&g);
                let via_stripe =
                    m.bank_of_stripe(addr.offset_from(cfg.base()) / m.stripe_bytes());
                prop_assert_eq!(via_coords, via_stripe, "config {:?}", cfg.board());
                prop_assert_eq!(m.bank_of(addr).unwrap(), via_coords);
                prop_assert!(via_coords < m.bank_count());
            }
        }

        #[test]
        fn prop_same_row_shares_row_id(offset in 0u64..(2u64*1024*1024*1024 - 1024), delta in 0u64..1024) {
            let m = mapping();
            let g = m.config().geometry();
            let a = m.config().base() + (offset / 1024) * 1024;
            let b = a + delta;
            let ca = m.decompose(a).unwrap();
            let cb = m.decompose(b).unwrap();
            prop_assert_eq!(ca.row_id(&g), cb.row_id(&g));
        }

        #[test]
        fn prop_row_span_contains_address_on_all_boards(raw in any::<u64>()) {
            for cfg in all_board_configs() {
                let m = DdrMapping::new(cfg);
                let addr = cfg.base() + raw % cfg.capacity();
                let (start, end) = m.row_span(addr).unwrap();
                prop_assert!(start <= addr && addr < end);
                prop_assert!(end.offset_from(start) <= cfg.geometry().row_bytes());
                // Every byte of the span shares the address's row identity.
                let g = cfg.geometry();
                let row = m.decompose(addr).unwrap().row_id(&g);
                prop_assert_eq!(m.decompose(start).unwrap().row_id(&g), row);
                prop_assert_eq!(m.decompose(end - 1).unwrap().row_id(&g), row);
            }
        }

        #[test]
        fn prop_outside_window_never_decomposes(raw in any::<u64>()) {
            for cfg in all_board_configs() {
                let m = DdrMapping::new(cfg);
                let below = PhysAddr::new(raw % cfg.base().as_u64());
                prop_assert!(m.decompose(below).is_err());
                if let Some(above) = cfg.end().checked_add(raw % (1u64 << 32)) {
                    prop_assert!(m.decompose(above).is_err());
                }
            }
        }

        /// The arena addressing the bank shards use is pinned to the DDR
        /// mapping: every in-window address lands in exactly one bank slab
        /// at exactly one offset.  The (bank, ordinal) pair roundtrips to
        /// the stripe the mapping routes the address to, same-bank ordinals
        /// are dense (no slab byte is shared or skipped), and the bank
        /// agrees with the coordinate-level decomposition.
        #[test]
        fn prop_every_address_lands_in_exactly_one_arena_slot(raw in any::<u64>()) {
            for cfg in all_board_configs() {
                let m = DdrMapping::new(cfg);
                let g = cfg.geometry();
                let sb = m.stripe_bytes();
                let addr = cfg.base() + raw % cfg.capacity();
                let stripe = addr.offset_from(cfg.base()) / sb;
                let bank = g.bank_of_stripe(stripe);
                let ordinal = g.ordinal_of_stripe(stripe);
                prop_assert_eq!(bank, m.bank_of(addr).unwrap(), "config {:?}", cfg.board());
                prop_assert_eq!(g.stripe_of_ordinal(bank, ordinal), stripe);
                // Ordinals are dense per bank: the next ordinal names the
                // next stripe of the same bank, and no stripe in between
                // belongs to this bank.
                let next = g.stripe_of_ordinal(bank, ordinal + 1);
                prop_assert!(next > stripe);
                prop_assert_eq!(g.bank_of_stripe(next), bank);
                prop_assert_eq!(g.ordinal_of_stripe(next), ordinal + 1);
                if next - stripe <= 256 {
                    for between in (stripe + 1)..next {
                        prop_assert!(g.bank_of_stripe(between) != bank);
                    }
                }
            }
        }

        /// Walking a range stripe by stripe maps it into arena terms
        /// losslessly: each stripe's piece of the range occupies one
        /// contiguous slab-offset range of its bank's arena, and across the
        /// whole range each byte claims exactly one (bank, slab offset) slot.
        #[test]
        fn prop_bank_chunks_map_to_disjoint_arena_ranges(raw in any::<u64>(), span in 1u64..(64 * 1024)) {
            for cfg in all_board_configs() {
                let m = DdrMapping::new(cfg);
                let g = cfg.geometry();
                let sb = m.stripe_bytes();
                let len = span.min(cfg.capacity());
                let start = raw % (cfg.capacity() - len + 1);
                // Per bank: the covered slab ranges, as (start, end) offsets.
                let mut ranges: std::collections::HashMap<u64, Vec<(u64, u64)>> =
                    std::collections::HashMap::new();
                let mut covered = 0u64;
                let mut rel = start;
                while rel < start + len {
                    let stripe = rel / sb;
                    let piece = (sb - rel % sb).min(start + len - rel);
                    let bank = m.bank_of_stripe(stripe);
                    // The whole piece is in the bank the coordinate
                    // decomposition assigns.
                    let first = m.decompose(cfg.base() + rel).unwrap().bank_id(&g);
                    let last = m.decompose(cfg.base() + rel + piece - 1).unwrap().bank_id(&g);
                    prop_assert_eq!(first, bank, "config {:?}", cfg.board());
                    prop_assert_eq!(last, bank);
                    // Within a stripe, slab offsets advance densely with the
                    // address, so the piece is one contiguous slab range.
                    let slab_start = g.ordinal_of_stripe(stripe) * sb + rel % sb;
                    ranges
                        .entry(bank)
                        .or_default()
                        .push((slab_start, slab_start + piece));
                    covered += piece;
                    rel += piece;
                }
                prop_assert_eq!(covered, len, "pieces cover the range exactly");
                for (bank, mut bank_ranges) in ranges {
                    bank_ranges.sort_unstable();
                    for pair in bank_ranges.windows(2) {
                        prop_assert!(
                            pair[0].1 <= pair[1].0,
                            "bank {} slab ranges overlap: {:?}",
                            bank,
                            pair
                        );
                    }
                }
            }
        }
    }
}
