//! Differential harness: the arena-backed DRAM store is observationally
//! identical to the frame map it replaced.
//!
//! `FlatDram` below re-implements the frame-map store verbatim (one sparse
//! `HashMap` of page-sized frames, ownership tagged per frame, stats counted
//! per operation).  The harness then drives the *same seeded operation
//! sequences* — writes, fills, scrubs and scrapes deliberately crossing
//! frame, stripe and arena-span boundaries — against the reference and the
//! arena store, asserting byte-identical contents, identical ownership
//! transitions and identical `DramStats` counters throughout.

// Lint audit: address arithmetic here is bounds-checked against the
// DRAM window before any narrowing cast or direct index; offsets are
// derived from validated window-relative coordinates.
#![allow(clippy::cast_possible_truncation, clippy::indexing_slicing)]

use std::collections::HashMap;

use fpga_msa::dram::config::DdrGeometry;
use fpga_msa::dram::{Dram, DramConfig, DramError, DramStats, OwnerTag, PhysAddr, PAGE_SIZE};

/// splitmix64 — the workspace's standard deterministic sequence generator.
fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The pre-sharding store: a verbatim re-implementation of the old flat
/// `Dram` semantics, kept here as the reference model.
struct FlatDram {
    config: DramConfig,
    frames: HashMap<u64, Box<[u8]>>,
    ownership: HashMap<u64, (OwnerTag, bool)>,
    bytes_written: u64,
    bytes_scrubbed: u64,
    write_ops: u64,
    scrub_ops: u64,
}

impl FlatDram {
    fn new(config: DramConfig) -> Self {
        FlatDram {
            config,
            frames: HashMap::new(),
            ownership: HashMap::new(),
            bytes_written: 0,
            bytes_scrubbed: 0,
            write_ops: 0,
            scrub_ops: 0,
        }
    }

    fn frame_index(&self, addr: PhysAddr) -> u64 {
        addr.offset_from(self.config.base()) / PAGE_SIZE
    }

    fn check_range(&self, addr: PhysAddr, len: u64) -> Result<(), ()> {
        if len > 0 && addr.checked_add(len - 1).is_none() {
            return Err(());
        }
        if !self.config.contains_range(addr, len.max(1)) {
            return Err(());
        }
        Ok(())
    }

    fn frame_mut(&mut self, idx: u64) -> &mut Box<[u8]> {
        self.frames
            .entry(idx)
            .or_insert_with(|| vec![0u8; PAGE_SIZE as usize].into_boxed_slice())
    }

    fn read_bytes(&self, addr: PhysAddr, buf: &mut [u8]) -> Result<(), ()> {
        self.check_range(addr, buf.len() as u64)?;
        let mut cursor = 0usize;
        while cursor < buf.len() {
            let a = addr + cursor as u64;
            let offset = a.page_offset() as usize;
            let chunk = (PAGE_SIZE as usize - offset).min(buf.len() - cursor);
            let dst = &mut buf[cursor..cursor + chunk];
            match self.frames.get(&self.frame_index(a)) {
                Some(frame) => dst.copy_from_slice(&frame[offset..offset + chunk]),
                None => dst.fill(0),
            }
            cursor += chunk;
        }
        Ok(())
    }

    fn write_bytes(&mut self, addr: PhysAddr, data: &[u8], owner: OwnerTag) -> Result<(), ()> {
        self.check_range(addr, data.len() as u64)?;
        let mut cursor = 0usize;
        while cursor < data.len() {
            let a = addr + cursor as u64;
            let idx = self.frame_index(a);
            let offset = a.page_offset() as usize;
            let chunk = (PAGE_SIZE as usize - offset).min(data.len() - cursor);
            self.frame_mut(idx)[offset..offset + chunk]
                .copy_from_slice(&data[cursor..cursor + chunk]);
            self.ownership.insert(idx, (owner, true));
            cursor += chunk;
        }
        self.bytes_written += data.len() as u64;
        self.write_ops += 1;
        Ok(())
    }

    fn fill(&mut self, addr: PhysAddr, len: u64, byte: u8, owner: OwnerTag) -> Result<(), ()> {
        if len == 0 {
            return Err(());
        }
        self.check_range(addr, len)?;
        let mut cursor = 0u64;
        while cursor < len {
            let a = addr + cursor;
            let idx = self.frame_index(a);
            let offset = a.page_offset() as usize;
            let chunk = (PAGE_SIZE - offset as u64).min(len - cursor) as usize;
            self.frame_mut(idx)[offset..offset + chunk].fill(byte);
            self.ownership.insert(idx, (owner, true));
            cursor += chunk as u64;
        }
        self.bytes_written += len;
        self.write_ops += 1;
        Ok(())
    }

    fn scrub_range(&mut self, addr: PhysAddr, len: u64) -> Result<(), ()> {
        if len == 0 {
            return Err(());
        }
        self.check_range(addr, len)?;
        let mut cursor = 0u64;
        while cursor < len {
            let a = addr + cursor;
            let idx = self.frame_index(a);
            let offset = a.page_offset() as usize;
            let chunk = (PAGE_SIZE - offset as u64).min(len - cursor) as usize;
            let empty = match self.frames.get_mut(&idx) {
                Some(frame) => {
                    frame[offset..offset + chunk].fill(0);
                    chunk == PAGE_SIZE as usize || frame.iter().all(|&b| b == 0)
                }
                None => true,
            };
            if empty {
                self.ownership.remove(&idx);
            }
            cursor += chunk as u64;
        }
        self.bytes_scrubbed += len;
        self.scrub_ops += 1;
        Ok(())
    }

    fn retire_owner(&mut self, owner: OwnerTag) -> usize {
        let mut count = 0;
        for record in self.ownership.values_mut() {
            if record.0 == owner && record.1 {
                record.1 = false;
                count += 1;
            }
        }
        count
    }

    fn residue_bytes(&self) -> u64 {
        self.ownership
            .iter()
            .filter(|(_, rec)| !rec.1)
            .map(|(idx, _)| {
                self.frames
                    .get(idx)
                    .map(|f| f.iter().filter(|&&b| b != 0).count() as u64)
                    .unwrap_or(0)
            })
            .sum()
    }
}

/// The geometries the harness sweeps: the paper boards' DDR4 interleaving
/// plus degenerate shapes (stripe == page, stripe > page, geometry smaller
/// than the window) that stress the splitting and masking paths.
fn harness_configs() -> Vec<(&'static str, DramConfig)> {
    let base = PhysAddr::new(0x6_0000_0000);
    vec![
        ("tiny-ddr4", DramConfig::tiny_for_tests()),
        (
            "small-rows-ranked",
            DramConfig::custom(
                base,
                4 * 1024 * 1024,
                DdrGeometry {
                    column_bits: 8,
                    bank_bits: 2,
                    bank_group_bits: 2,
                    row_bits: 9,
                    rank_bits: 1,
                },
            ),
        ),
        (
            "stripe-equals-page",
            DramConfig::custom(
                base,
                4 * 1024 * 1024,
                DdrGeometry {
                    column_bits: 12,
                    bank_bits: 1,
                    bank_group_bits: 1,
                    row_bits: 8,
                    rank_bits: 0,
                },
            ),
        ),
        (
            "stripe-larger-than-page",
            DramConfig::custom(
                base,
                4 * 1024 * 1024,
                DdrGeometry {
                    column_bits: 13,
                    bank_bits: 2,
                    bank_group_bits: 1,
                    row_bits: 6,
                    rank_bits: 0,
                },
            ),
        ),
        (
            "window-larger-than-geometry",
            // The geometry addresses 4 KiB; the 1 MiB window wraps its bank
            // bits many times over (the masking path).
            DramConfig::custom(
                base,
                1024 * 1024,
                DdrGeometry {
                    column_bits: 6,
                    bank_bits: 1,
                    bank_group_bits: 1,
                    row_bits: 4,
                    rank_bits: 0,
                },
            ),
        ),
    ]
}

/// The four `DramStats` counters, in the order `FlatDram` keeps them.
fn counters(stats: &DramStats) -> (u64, u64, u64, u64) {
    (
        stats.bytes_written(),
        stats.bytes_scrubbed(),
        stats.write_ops(),
        stats.scrub_ops(),
    )
}

/// One differential run: `ops` seeded operations applied in lockstep to the
/// flat reference and the sharded store, with equivalence asserted after
/// every mutation.
fn run_differential(name: &str, config: DramConfig, seed: u64, ops: usize) {
    let mut rng = seed;
    let mut flat = FlatDram::new(config);
    let mut sharded = Dram::new(config);

    let capacity = config.capacity();
    let base = config.base();
    let owners: [OwnerTag; 3] = [OwnerTag::new(10), OwnerTag::new(20), OwnerTag::new(30)];
    // Boundary-heavy span lengths: up to 4 stripes / pages plus change, so
    // requests regularly straddle frame, bank, bank-group and rank borders.
    let max_span = (4 * PAGE_SIZE)
        .max(4 * sharded.stripe_bytes())
        .min(capacity);

    for step in 0..ops {
        let op = splitmix64(&mut rng) % 6;
        let len = 1 + splitmix64(&mut rng) % max_span;
        let addr = base + splitmix64(&mut rng) % (capacity - len + 1);
        let owner = owners[(splitmix64(&mut rng) % owners.len() as u64) as usize];
        let ctx = format!("{name}: step {step} op {op} addr {addr} len {len}");

        match op {
            0 => {
                let byte = (splitmix64(&mut rng) & 0xFF) as u8;
                let data: Vec<u8> = (0..len).map(|i| byte ^ (i % 253) as u8).collect();
                flat.write_bytes(addr, &data, owner).unwrap();
                sharded.write_bytes(addr, &data, owner).unwrap();
            }
            1 => {
                let byte = (splitmix64(&mut rng) & 0xFF) as u8;
                flat.fill(addr, len, byte, owner).unwrap();
                sharded.fill(addr, len, byte, owner).unwrap();
            }
            2 => {
                flat.scrub_range(addr, len).unwrap();
                sharded.scrub_range(addr, len).unwrap();
            }
            3 => {
                let value = (splitmix64(&mut rng) & 0xFF) as u8;
                flat.write_bytes(addr, &[value], owner).unwrap();
                sharded.write_u8(addr, value, owner).unwrap();
            }
            4 => {
                let retired_flat = flat.retire_owner(owner);
                let retired_sharded = sharded.retire_owner(owner);
                assert_eq!(retired_flat, retired_sharded, "{ctx}");
            }
            _ => {
                // Read comparison: flat read vs sharded read of the same
                // range.
                let mut a = vec![0u8; len as usize];
                let mut b = vec![0u8; len as usize];
                flat.read_bytes(addr, &mut a).unwrap();
                sharded.read_bytes(addr, &mut b).unwrap();
                assert_eq!(a, b, "{ctx}");
            }
        }

        // Cheap invariant after every step; the byte-scan invariants
        // (residue accounting) run periodically, and the expensive
        // full-window sweep once at the end.
        assert_eq!(
            flat.frames.len(),
            sharded.materialized_frames(),
            "{ctx}: materialized frames"
        );
        if step % 32 == 31 {
            assert_eq!(flat.residue_bytes(), sharded.residue_bytes(), "{ctx}");
        }
    }
    assert_eq!(flat.residue_bytes(), sharded.residue_bytes(), "{name}");

    // Full-window byte sweep: every byte of the window agrees.
    let mut flat_view = vec![0u8; capacity as usize];
    let mut sharded_view = vec![0u8; capacity as usize];
    flat.read_bytes(base, &mut flat_view).unwrap();
    sharded.read_bytes(base, &mut sharded_view).unwrap();
    assert_eq!(flat_view, sharded_view, "{name}: window contents");

    // Ownership records agree frame by frame.
    for idx in 0..(capacity / PAGE_SIZE) {
        let frame = (base + idx * PAGE_SIZE).frame_number();
        let flat_rec = flat.ownership.get(&idx).copied();
        let sharded_rec = sharded.frame_ownership(frame).map(|r| (r.owner, r.live));
        assert_eq!(flat_rec, sharded_rec, "{name}: ownership of frame {idx}");
    }

    // DramStats counters: the sharded store counts exactly like the flat one.
    let (written, scrubbed, write_ops, scrub_ops) = counters(sharded.stats());
    assert_eq!(written, flat.bytes_written, "{name}: bytes written");
    assert_eq!(scrubbed, flat.bytes_scrubbed, "{name}: bytes scrubbed");
    assert_eq!(write_ops, flat.write_ops, "{name}: write ops");
    assert_eq!(scrub_ops, flat.scrub_ops, "{name}: scrub ops");
}

#[test]
fn seeded_sequences_are_byte_identical_across_stores() {
    for (name, config) in harness_configs() {
        run_differential(name, config, 0x5EED_0001, 400);
    }
}

#[test]
fn a_second_seed_hits_different_interleavings() {
    for (name, config) in harness_configs() {
        run_differential(name, config, 0xBA2C_CAFE_0002, 250);
    }
}

#[test]
fn sparse_windows_keep_arena_memory_proportional_to_touched_stripes() {
    // A small write cluster deep inside an otherwise untouched window: the
    // arena store must stay byte-identical to the flat reference while its
    // slab footprint tracks the touched stripes, not the window span.  Two
    // inputs: two islands written upward, and scattered islands that grow
    // the span downward, then upward, then lose one island to a scrub.
    for (name, config) in harness_configs() {
        for scattered in [false, true] {
            sparse_window(name, config, scattered);
        }
    }
}

fn sparse_window(name: &str, config: DramConfig, scattered: bool) {
    let mut flat = FlatDram::new(config);
    let mut arena = Dram::new(config);
    let owner = OwnerTag::new(42);
    let sb = config.geometry().row_bytes();
    let base = config.base();
    let capacity = config.capacity();

    // Islands of two stripes each, a few stripes apart, at ~3/4 of
    // the window (nowhere near the arena's natural starting point).
    let island = 2 * sb;
    let first = (3 * capacity / 4 / sb) * sb;
    let second = first + 8 * sb;
    assert!(second + island <= capacity, "{name}: window too small");
    let islands = if scattered {
        // Whole arena granules apart, so each write grows the span.
        let granule = sb.max(PAGE_SIZE);
        vec![first, first - 6 * granule, first + 12 * granule]
    } else {
        vec![first, second]
    };
    let mut rng = 0xA12A_0007u64;
    for &offset in &islands {
        let data: Vec<u8> = (0..island).map(|_| splitmix64(&mut rng) as u8).collect();
        flat.write_bytes(base + offset, &data, owner).unwrap();
        arena.write_bytes(base + offset, &data, owner).unwrap();
    }
    if scattered {
        // Scrubbing zeroes bytes but keeps the stripes materialized.
        flat.scrub_range(base + first + sb / 2, sb).unwrap();
        arena.scrub_range(base + first + sb / 2, sb).unwrap();
        assert_eq!(flat.residue_bytes(), arena.residue_bytes(), "{name}");
        for &offset in &islands {
            let frame = (base + offset).frame_number();
            let idx = frame.as_u64() - config.first_frame().as_u64();
            let flat_rec = flat.ownership.get(&idx).copied();
            let arena_rec = arena.frame_ownership(frame).map(|r| (r.owner, r.live));
            assert_eq!(flat_rec, arena_rec, "{name}: ownership of frame {idx}");
        }
    }

    // Byte identity over the islands, their surroundings, and cold
    // regions far away at both ends of the window.
    let probe_len = (12 * sb).min(capacity) as usize;
    let low = islands.iter().min().unwrap();
    for probe in [0, low.saturating_sub(sb), capacity - probe_len as u64] {
        let mut a = vec![0u8; probe_len];
        let mut b = vec![0u8; probe_len];
        flat.read_bytes(base + probe, &mut a).unwrap();
        arena.read_bytes(base + probe, &mut b).unwrap();
        assert_eq!(a, b, "{name}: probe at +{probe:#x}");
    }
    // And the whole cluster, across every edge the span grew through.
    let high = islands.iter().max().unwrap() + island;
    let (from, to) = (low.saturating_sub(sb), (high + sb).min(capacity));
    let mut a = vec![0u8; (to - from) as usize];
    let mut b = vec![0u8; (to - from) as usize];
    flat.read_bytes(base + from, &mut a).unwrap();
    arena.read_bytes(base + from, &mut b).unwrap();
    assert_eq!(a, b, "{name}: cluster +{from:#x}..+{to:#x}");

    // Footprint: exactly the touched stripes are materialized, the
    // slabs cover them, and the total arena extent stays a small
    // multiple of the touched cluster — far below the window capacity.
    let touched = islands.len() as u64 * island / sb;
    assert_eq!(arena.materialized_stripes() as u64, touched, "{name}");
    assert!(
        arena.arena_bytes() >= touched * sb,
        "{name}: slabs must cover the touched stripes"
    );
    assert!(
        arena.arena_bytes() <= capacity / 8,
        "{name}: arena {} bytes for {} touched stripes of {} bytes in a {} byte window",
        arena.arena_bytes(),
        touched,
        sb,
        capacity
    );
}

#[test]
fn rejected_operations_leave_all_stores_untouched() {
    let config = DramConfig::tiny_for_tests();
    let mut flat = FlatDram::new(config);
    let mut sharded = Dram::new(config);
    let base = config.base();
    let owner = OwnerTag::new(7);

    flat.fill(base, PAGE_SIZE, 0xEE, owner).unwrap();
    sharded.fill(base, PAGE_SIZE, 0xEE, owner).unwrap();
    let stats_before = *sharded.stats();

    // The same invalid requests fail on both stores...
    assert!(flat.fill(base, 0, 0, owner).is_err());
    assert!(matches!(
        sharded.fill(base, 0, 0, owner),
        Err(DramError::EmptyRange { .. })
    ));
    assert!(flat.scrub_range(base, u64::MAX).is_err());
    assert!(sharded.scrub_range(base, u64::MAX).is_err());
    assert!(flat.write_bytes(config.end(), &[1], owner).is_err());
    assert!(sharded.write_bytes(config.end(), &[1], owner).is_err());

    // ...and nothing moved: contents and counters still agree.
    let mut a = vec![0u8; PAGE_SIZE as usize];
    let mut b = vec![0u8; PAGE_SIZE as usize];
    flat.read_bytes(base, &mut a).unwrap();
    sharded.read_bytes(base, &mut b).unwrap();
    assert_eq!(a, b);
    assert_eq!(*sharded.stats(), stats_before);
    assert_eq!(
        counters(sharded.stats()),
        (
            flat.bytes_written,
            flat.bytes_scrubbed,
            flat.write_ops,
            flat.scrub_ops
        )
    );
}
