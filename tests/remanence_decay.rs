//! Remanence decay invariants, pinned as properties.
//!
//! The decay view ([`fpga_msa::dram::RemanenceModel`]) must never be able to
//! change the science except by *removing* information from terminated
//! residue:
//!
//! 1. **Monotone** — decay never creates residue bytes: a decayed read is a
//!    bitwise subset of the raw store, and reads at later logical ticks are
//!    bitwise subsets of earlier reads.
//! 2. **Scoped** — frames held by a live owner are returned raw at every
//!    tick, under every model.
//! 3. **Fusion sound** — OR-fusing a multi-snapshot read sequence
//!    ([`fpga_msa::msa::analysis::reconstruct::fuse_snapshots`]) is a
//!    bitwise superset of every single snapshot and a bitwise subset of the
//!    raw residue: fusion can only undo decay, never invent bytes.  When
//!    nothing writes into the read range between snapshots, the fused dump
//!    equals the first snapshot.
//!
//! These are the device-level guarantees the campaign determinism suite
//! builds on when it sweeps the remanence axis across pool workers.

// Lint audit: address arithmetic here is bounds-checked against the
// DRAM window before any narrowing cast or direct index; offsets are
// derived from validated window-relative coordinates.
#![allow(clippy::cast_possible_truncation, clippy::indexing_slicing)]

use fpga_msa::dram::{Dram, DramConfig, OwnerTag, RemanenceModel, PAGE_SIZE};
use fpga_msa::msa::analysis::reconstruct::fuse_snapshots;
use proptest::prelude::*;

const VICTIM: OwnerTag = OwnerTag::new(1391);
const LIVE: OwnerTag = OwnerTag::new(77);

/// The swept models, with parameters derived from a test-case byte.
fn model_from(selector: u8, parameter: u64) -> RemanenceModel {
    match selector % 3 {
        0 => RemanenceModel::Exponential {
            half_life_ticks: parameter % 32,
        },
        1 => RemanenceModel::BitFlip {
            rate_ppm: (parameter % 900_000).max(1_000),
        },
        _ => RemanenceModel::Perfect,
    }
}

/// A device with `frames` of victim residue, one live neighbour frame after
/// them, and the given decay model/seed active.
fn decaying_board(model: RemanenceModel, seed: u64, frames: u64) -> (Dram, u64) {
    let mut dram = Dram::new(DramConfig::tiny_for_tests());
    dram.set_remanence(model);
    dram.set_remanence_seed(seed);
    let base = dram.config().base();
    for i in 0..frames {
        let fill = 0x11u8.wrapping_mul(i as u8 + 1).max(1);
        dram.fill(base + i * PAGE_SIZE, PAGE_SIZE, fill, VICTIM)
            .unwrap();
    }
    dram.fill(base + frames * PAGE_SIZE, PAGE_SIZE, 0xAB, LIVE)
        .unwrap();
    dram.retire_owner(VICTIM);
    (dram, frames * PAGE_SIZE)
}

proptest! {
    /// Monotone over raw content and over time: every decayed read is a
    /// bitwise subset of the raw store, and later reads are subsets of
    /// earlier ones.
    #[test]
    fn decay_is_monotone_and_never_creates_residue(
        selector in any::<u8>(),
        parameter in any::<u64>(),
        seed in any::<u64>(),
        ticks in proptest::collection::vec(0u64..24, 1..6),
    ) {
        let model = model_from(selector, parameter);
        let (mut dram, residue_len) = decaying_board(model, seed, 3);
        let base = dram.config().base();

        let mut raw = vec![0u8; residue_len as usize];
        // At tick zero nothing has decayed: the read *is* the raw store.
        dram.read_bytes(base, &mut raw).unwrap();
        prop_assert!(raw.iter().all(|&b| b != 0));

        let mut previous = raw.clone();
        for t in ticks {
            dram.advance_remanence(t);
            let mut now = vec![0u8; residue_len as usize];
            dram.read_bytes(base, &mut now).unwrap();
            for (i, (n, p)) in now.iter().zip(&previous).enumerate() {
                // Subset of the previous read (monotone over time) — which
                // transitively makes it a subset of the raw bytes.
                prop_assert_eq!(n & p, *n, "byte {} regrew under {}", i, model);
            }
            previous = now;
        }

        // The raw store itself never mutated, whatever the view says.
        prop_assert_eq!(dram.residue_bytes(), residue_len);
        let decay = dram.residue_decay(Some(VICTIM));
        prop_assert_eq!(decay.raw_bytes, residue_len);
        prop_assert_eq!(
            decay.surviving_bytes as usize,
            previous.iter().filter(|&&b| b != 0).count()
        );
    }

    /// Live owners' frames never decay, under any model, at any tick.
    #[test]
    fn decay_never_touches_live_owners(
        selector in any::<u8>(),
        parameter in any::<u64>(),
        seed in any::<u64>(),
        ticks in 0u64..10_000,
    ) {
        let model = model_from(selector, parameter);
        let (mut dram, residue_len) = decaying_board(model, seed, 2);
        let base = dram.config().base();
        dram.advance_remanence(ticks);

        let mut live = vec![0u8; PAGE_SIZE as usize];
        dram.read_bytes(base + residue_len, &mut live).unwrap();
        prop_assert!(live.iter().all(|&b| b == 0xAB));
        prop_assert_eq!(dram.read_u8(base + residue_len).unwrap(), 0xAB);

        // A revived owner re-writing a residue frame makes it live again —
        // and immune to decay from that moment on.
        dram.fill(base, PAGE_SIZE, 0x3C, LIVE).unwrap();
        dram.advance_remanence(10_000);
        prop_assert_eq!(dram.read_u8(base).unwrap(), 0x3C);
    }

    /// Fusing an N-snapshot read sequence is sound: every fused byte is a
    /// bitwise superset of each individual snapshot (fusion never loses a
    /// bit any read captured) and a bitwise subset of the raw residue
    /// (fusion never invents a bit the victim never wrote).  With monotone
    /// decay the fusion collapses to the earliest snapshot exactly — the
    /// fact that lets immutable scrape paths degenerate
    /// `ScrapeMode::MultiSnapshot` to a single read.  Live traffic outside
    /// the read range (the neighbour owner rewriting its own frame between
    /// snapshots) does not change that.
    #[test]
    fn snapshot_fusion_is_a_superset_of_reads_and_subset_of_raw(
        selector in any::<u8>(),
        parameter in any::<u64>(),
        seed in any::<u64>(),
        start_tick in 0u64..24,
        snapshots in 1usize..6,
    ) {
        let model = model_from(selector, parameter);
        let (mut dram, residue_len) = decaying_board(model, seed, 3);
        let base = dram.config().base();

        // Tick zero: the read *is* the raw residue.
        let mut raw = vec![0u8; residue_len as usize];
        dram.read_bytes(base, &mut raw).unwrap();

        dram.advance_remanence(start_tick);
        let mut reads = Vec::new();
        for i in 0..snapshots {
            if i > 0 {
                dram.advance_remanence(1);
                dram.fill(base + residue_len, PAGE_SIZE, i as u8, LIVE).unwrap();
            }
            let mut buf = vec![0u8; residue_len as usize];
            dram.read_bytes(base, &mut buf).unwrap();
            reads.push(buf);
        }

        let fused = fuse_snapshots(&reads);
        prop_assert_eq!(fused.len(), raw.len());
        for (i, read) in reads.iter().enumerate() {
            for (j, (f, r)) in fused.iter().zip(read).enumerate() {
                prop_assert_eq!(f & r, *r, "snapshot {} byte {} lost in fusion", i, j);
            }
        }
        for (j, (f, r)) in fused.iter().zip(&raw).enumerate() {
            prop_assert_eq!(f & r, *f, "fused byte {} exceeds the raw residue", j);
        }
        // Nothing wrote into the read range between snapshots and decay is
        // monotone, so the OR of the sequence is its earliest read.
        prop_assert_eq!(&fused, &reads[0]);
    }

    /// The perfect model is bit-exact with a device that has no remanence
    /// configured at all, at every tick — the guarantee that keeps every
    /// pre-remanence golden file valid.
    #[test]
    fn perfect_model_is_indistinguishable_from_no_model(
        seed in any::<u64>(),
        ticks in 0u64..1_000,
    ) {
        let (mut with_model, residue_len) =
            decaying_board(RemanenceModel::Perfect, seed, 3);
        with_model.advance_remanence(ticks);
        let (baseline, _) = decaying_board(RemanenceModel::Perfect, 0, 3);

        let base = baseline.config().base();
        let len = (residue_len + PAGE_SIZE) as usize;
        let mut a = vec![0u8; len];
        let mut b = vec![0u8; len];
        with_model.read_bytes(base, &mut a).unwrap();
        baseline.read_bytes(base, &mut b).unwrap();
        prop_assert_eq!(a, b);
        prop_assert_eq!(with_model.residue_decay(None).bits_flipped, 0);
    }
}
