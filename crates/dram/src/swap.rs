//! zram-style compressed swap: a second residue substrate.
//!
//! The base attack scrapes DRAM *frames*, and every sanitize policy so far
//! scrubs frames.  Real PetaLinux images ship a compressed in-memory swap
//! device (zram): under memory pressure the kernel compresses cold pages
//! into slots of a dedicated store.  Pages swapped out before a process
//! terminates leave their bytes in the *compressed* store, where frame
//! scrubbing never reaches them — a leak channel that forces both the
//! attacker and the defenses to reason about a second backing store.
//!
//! [`SwapStore`] models that device: page-sized slots compressed with a
//! deterministic PackBits-style RLE codec ([`compress_page`] /
//! [`decompress_page`]), each slot carrying its own ownership/residue tag
//! and its own remanence decay state.  The encoder emits greedy longest-run
//! tokens and finds each run with a word-wise scan for the next pair of
//! equal adjacent bytes; slot decay draws are indexed by compressed byte, so
//! that token stream is part of the pinned behaviour.  The decay clock is
//! logical, advanced in lock-step with the DRAM device's
//! ([`crate::Dram::advance_remanence`]), so swap residue decays replayably
//! and worker-count independently, exactly like frame residue.

// Lint audit: indexes and slice bounds here are established by the
// surrounding length checks / loop invariants before use.
#![allow(clippy::indexing_slicing)]

use crate::addr::PAGE_SIZE;
use crate::device::OwnerTag;
use crate::remanence::{
    cell_hash_in_stripe, nonzero_bytes, splitmix64, stripe_hash, RemanenceModel,
};

/// Longest run one repeat token can encode.
const MAX_RUN: usize = 128;
/// Longest literal chunk one literal token can carry.
const MAX_LITERAL: usize = 128;

/// Compresses a page with a PackBits-style run-length codec.
///
/// Token stream: a header byte `n <= 127` is followed by `n + 1` literal
/// bytes; a header byte `n >= 129` repeats the following byte `257 - n`
/// times (runs of 2..=128).  Header `128` is never emitted.  The codec is
/// deterministic (greedy longest-run), so identical pages always produce
/// identical slots — a requirement for the golden-pinned experiments.
///
/// A run starts exactly where two adjacent bytes are equal, so the encoder
/// scans for the next equal pair eight bytes at a time
/// (`next_equal_pair`), measures the run there a word at a time (capped
/// at 128 bytes, after which the scan resumes) and flushes everything
/// before it as literal tokens in bulk.
pub fn compress_page(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 4 + 8);
    let mut cursor = 0usize;
    while let Some(start) = next_equal_pair(data, cursor) {
        flush_literals(&mut out, &data[cursor..start]);
        let run = run_len(&data[start..]);
        // `2 <= run <= MAX_RUN = 128`, so the token is in `129..=255`.
        let token = u8::try_from(257 - run).expect("run token fits a byte");
        out.push(token);
        out.push(data[start]);
        cursor = start + run;
    }
    flush_literals(&mut out, &data[cursor..]);
    out
}

/// The eight bytes at `at` as one little-endian word.
fn word_at(data: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(data[at..at + 8].try_into().expect("eight-byte window"))
}

/// The first index `j >= from` with `data[j] == data[j + 1]`.
///
/// Word-wise: the XOR of the eight bytes at `i` with the eight at `i + 1`
/// has a zero byte exactly at each equal pair, and the has-zero-byte test
/// flags the lowest such byte exactly (a borrow can only set false flags
/// above a true zero).  The last few bytes are scanned one at a time.
fn next_equal_pair(data: &[u8], from: usize) -> Option<usize> {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGHS: u64 = 0x8080_8080_8080_8080;
    let mut i = from;
    while i + 9 <= data.len() {
        let x = word_at(data, i) ^ word_at(data, i + 1);
        let zero = x.wrapping_sub(ONES) & !x & HIGHS;
        if zero != 0 {
            return Some(i + (zero.trailing_zeros() / 8) as usize);
        }
        i += 8;
    }
    (i..data.len().saturating_sub(1)).find(|&j| data[j] == data[j + 1])
}

/// Length of the run of `data[0]` that opens `data`, capped at `MAX_RUN`:
/// whole words first, then the bytes of the last partial word.
fn run_len(data: &[u8]) -> usize {
    let limit = data.len().min(MAX_RUN);
    let byte = data[0];
    let pattern = u64::from_le_bytes([byte; 8]);
    let mut n = 0usize;
    while n + 8 <= limit {
        let diff = word_at(data, n) ^ pattern;
        if diff != 0 {
            return n + (diff.trailing_zeros() / 8) as usize;
        }
        n += 8;
    }
    n + data[n..limit].iter().take_while(|&&b| b == byte).count()
}

fn flush_literals(out: &mut Vec<u8>, mut literals: &[u8]) {
    while !literals.is_empty() {
        let chunk = literals.len().min(MAX_LITERAL);
        // `1 <= chunk <= MAX_LITERAL = 128`, so the token is in `0..=127`.
        let token = u8::try_from(chunk - 1).expect("literal token fits a byte");
        out.push(token);
        out.extend_from_slice(&literals[..chunk]);
        literals = &literals[chunk..];
    }
}

/// Decompresses a [`compress_page`] token stream back to `raw_len` bytes.
///
/// Truncated or damaged streams (a scrubbed or decayed slot) decode as far
/// as they can and zero-pad the tail — the attacker-facing behavior: a
/// partially destroyed slot yields partial plaintext, never a panic.
pub fn decompress_page(data: &[u8], raw_len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(raw_len);
    let mut cursor = 0usize;
    while cursor < data.len() && out.len() < raw_len {
        let header = data[cursor] as usize;
        cursor += 1;
        if header <= 127 {
            let take = (header + 1)
                .min(data.len() - cursor)
                .min(raw_len - out.len());
            out.extend_from_slice(&data[cursor..cursor + take]);
            cursor += header + 1;
        } else if header >= 129 {
            if cursor >= data.len() {
                break;
            }
            let byte = data[cursor];
            cursor += 1;
            let count = (257 - header).min(raw_len - out.len());
            out.resize(out.len() + count, byte);
        }
        // header == 128: reserved no-op.
    }
    out.resize(raw_len, 0);
    out
}

/// One compressed page slot.
#[derive(Debug, Clone)]
pub struct SwapSlot {
    owner: OwnerTag,
    /// `true` while the owning process is alive; `false` once it has
    /// terminated (the slot then holds *swap residue*).
    live: bool,
    /// Heap page index the slot was swapped out from (page offset from the
    /// owner's heap base), so the attacker can place recovered plaintext.
    page_index: u64,
    compressed: Vec<u8>,
    raw_len: usize,
    /// Logical tick at which the slot became residue; decay elapses from
    /// here.  Meaningless while `live`.
    retired_tick: u64,
    /// A scrubbed slot keeps its accounting but yields nothing.
    scrubbed: bool,
}

impl SwapSlot {
    /// The entity that swapped the page out.
    pub fn owner(&self) -> OwnerTag {
        self.owner
    }

    /// `true` while the owning process is alive.
    pub fn is_live(&self) -> bool {
        self.live
    }

    /// Heap page index the slot was swapped out from.
    pub fn page_index(&self) -> u64 {
        self.page_index
    }

    /// Uncompressed length of the slot's page.
    pub fn raw_len(&self) -> usize {
        self.raw_len
    }

    /// Compressed length of the slot (0 after a scrub).
    pub fn compressed_len(&self) -> usize {
        self.compressed.len()
    }

    /// `true` once a swap-aware sanitizer has destroyed the slot's data.
    pub fn is_scrubbed(&self) -> bool {
        self.scrubbed
    }
}

/// The compressed swap device: an append-only run of page slots with their
/// own ownership/residue tags and their own remanence decay state.
///
/// # Example
///
/// ```
/// use zynq_dram::swap::SwapStore;
/// use zynq_dram::OwnerTag;
///
/// let mut swap = SwapStore::new();
/// let owner = OwnerTag::new(1391);
/// swap.swap_out(owner, 0, &[0xAB; 4096]);
/// swap.retire_owner(owner);
/// assert_eq!(swap.residue_slots().count(), 1);
/// let page = swap.read_slot(0).unwrap();
/// assert!(page.iter().all(|&b| b == 0xAB));
/// ```
#[derive(Debug, Clone, Default)]
pub struct SwapStore {
    slots: Vec<SwapSlot>,
    /// How swap residue decays over logical ticks — the store's *own* decay
    /// model: compressed slots sit in refreshed DRAM cells managed by the
    /// zram driver, so their retention differs from raw frame residue.
    remanence: RemanenceModel,
    seed: u64,
    tick: u64,
}

impl SwapStore {
    /// Creates an empty store (perfect retention, tick zero).
    pub fn new() -> Self {
        SwapStore::default()
    }

    /// Sets the swap store's remanence decay model (default
    /// [`RemanenceModel::Perfect`]).
    pub fn set_remanence(&mut self, model: RemanenceModel) {
        self.remanence = model;
    }

    /// Seeds the per-slot decay draws.
    pub fn set_seed(&mut self, seed: u64) {
        self.seed = seed;
    }

    /// The active decay model.
    pub fn remanence(&self) -> RemanenceModel {
        self.remanence
    }

    /// Advances the store's logical decay clock by `ticks` (driven in
    /// lock-step with the DRAM device clock).
    pub fn advance(&mut self, ticks: u64) {
        self.tick += ticks;
    }

    /// The current logical decay tick.
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Compresses `bytes` (one page, at most [`PAGE_SIZE`] bytes) into a new
    /// live slot owned by `owner`, returning the slot id.
    pub fn swap_out(&mut self, owner: OwnerTag, page_index: u64, bytes: &[u8]) -> usize {
        debug_assert!(bytes.len() as u64 <= PAGE_SIZE, "swap slots are page-sized");
        // A slot lives as long as the store, so it keeps no spare capacity.
        let mut compressed = compress_page(bytes);
        compressed.shrink_to_fit();
        let slot = SwapSlot {
            owner,
            live: true,
            page_index,
            compressed,
            raw_len: bytes.len(),
            retired_tick: 0,
            scrubbed: false,
        };
        self.slots.push(slot);
        self.slots.len() - 1
    }

    /// Marks every live slot owned by `owner` as residue, opening its decay
    /// epoch at the current tick.  Returns the number of slots retired.
    pub fn retire_owner(&mut self, owner: OwnerTag) -> usize {
        let tick = self.tick;
        let mut retired = 0;
        for slot in &mut self.slots {
            if slot.owner == owner && slot.live {
                slot.live = false;
                slot.retired_tick = tick;
                retired += 1;
            }
        }
        retired
    }

    /// Destroys and frees the data of every slot owned by `owner` (live or
    /// residue): the swap-scrub sanitizers.  Returns `(slots_scrubbed,
    /// bytes_scrubbed)` where the byte count is the uncompressed page bytes
    /// destroyed.
    pub fn scrub_owner(&mut self, owner: OwnerTag) -> (usize, u64) {
        let mut slots = 0usize;
        let mut bytes = 0u64;
        for slot in &mut self.slots {
            if slot.owner == owner && !slot.scrubbed {
                slot.compressed = Vec::new();
                slot.scrubbed = true;
                slots += 1;
                bytes += slot.raw_len as u64;
            }
        }
        (slots, bytes)
    }

    /// Total number of slots ever swapped out (scrubbed slots included).
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// The slot with id `id`, if it exists.
    pub fn slot(&self, id: usize) -> Option<&SwapSlot> {
        self.slots.get(id)
    }

    /// Iterates over residue slots: owner terminated, data not yet scrubbed.
    /// This is the attacker's swap-store read surface.
    pub fn residue_slots(&self) -> impl Iterator<Item = (usize, &SwapSlot)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, slot)| !slot.live && !slot.scrubbed)
    }

    /// Decompresses slot `id` through the decay view.
    ///
    /// Returns `None` for unknown or scrubbed slots.  Residue slots decay:
    /// each *compressed* byte survives per the store's [`RemanenceModel`]
    /// (damaged token streams then decode to partial plaintext, the way a
    /// real compressed store amplifies cell loss).  Live slots and residue
    /// under [`RemanenceModel::Perfect`] read back bit-exactly.
    pub fn read_slot(&self, id: usize) -> Option<Vec<u8>> {
        let slot = self.slots.get(id)?;
        if slot.scrubbed {
            return None;
        }
        if slot.live || self.remanence.is_perfect() {
            return Some(decompress_page(&slot.compressed, slot.raw_len));
        }
        let curve = self
            .remanence
            .curve(self.tick.saturating_sub(slot.retired_tick));
        if curve.is_identity() {
            return Some(decompress_page(&slot.compressed, slot.raw_len));
        }
        // The slot id stands in for the stripe coordinate; the salt keeps
        // swap draws disjoint from the frame-residue draws at the same seed.
        let stripe = splitmix64(id as u64 ^ 0x5A5A_C0DE_0015_0CA7);
        let stripe_draw = stripe_hash(self.seed, stripe);
        let decayed: Vec<u8> = (0u64..)
            .zip(&slot.compressed)
            .map(|(i, &byte)| curve.apply(byte, cell_hash_in_stripe(stripe_draw, i)))
            .collect();
        Some(decompress_page(&decayed, slot.raw_len))
    }

    /// Uncompressed residue bytes still recoverable from the store,
    /// optionally restricted to one owner: the sum over residue slots of the
    /// non-zero bytes their (decayed) decompression yields.
    pub fn residue_bytes(&self, owner: Option<OwnerTag>) -> u64 {
        self.residue_slots()
            .filter(|(_, slot)| owner.is_none_or(|o| slot.owner == o))
            .filter_map(|(id, _)| self.read_slot(id))
            .map(|page| nonzero_bytes(&page))
            .sum()
    }

    /// Compressed bytes currently held across all unscrubbed slots.
    pub fn compressed_bytes(&self) -> u64 {
        self.slots.iter().map(|s| s.compressed.len() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time encoder the word-wise pair scan replaced, kept as
    /// the reference: slot decay draws are indexed by compressed byte, so
    /// the token stream itself must not change.
    fn bytewise_compress_page(data: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        let mut literal_start = 0usize;
        let mut cursor = 0usize;
        while cursor < data.len() {
            let byte = data[cursor];
            let mut run = 1usize;
            while run < MAX_RUN && cursor + run < data.len() && data[cursor + run] == byte {
                run += 1;
            }
            if run >= 2 {
                flush_literals(&mut out, &data[literal_start..cursor]);
                out.push(u8::try_from(257 - run).unwrap());
                out.push(byte);
                cursor += run;
                literal_start = cursor;
            } else {
                cursor += 1;
            }
        }
        flush_literals(&mut out, &data[literal_start..]);
        out
    }

    /// Bytes `i` with no two adjacent equal (and never `0xEE`).
    fn distinct_bytes(len: usize) -> impl Iterator<Item = u8> {
        (0..len).map(|i| u8::try_from(i % 200).unwrap())
    }

    #[test]
    fn encoder_matches_reference_for_a_pair_at_every_word_position() {
        // One equal pair at every position of pages up to 40 bytes long,
        // including the last two bytes and lengths 1, 8 and 9, where the
        // word scan hands over to the byte tail.
        for len in 0..=40usize {
            let plain: Vec<u8> = distinct_bytes(len).collect();
            assert_eq!(compress_page(&plain), bytewise_compress_page(&plain));
            for pair in 0..len.saturating_sub(1) {
                let mut data = plain.clone();
                data[pair + 1] = data[pair];
                assert_eq!(
                    compress_page(&data),
                    bytewise_compress_page(&data),
                    "len {len}, pair at {pair}"
                );
            }
        }
    }

    #[test]
    fn encoder_matches_reference_for_runs_across_the_cap_and_word_edges() {
        // Runs of 1..=300 bytes (straddling the 128-byte cap twice) starting
        // at every offset of a word, followed by 0..=9 literal bytes.
        for offset in 0..=9usize {
            for run in 1..=300usize {
                for tail in 0..=9usize {
                    let data: Vec<u8> = distinct_bytes(offset)
                        .chain(std::iter::repeat_n(0xEE, run))
                        .chain(distinct_bytes(tail).map(|b| b + 1))
                        .collect();
                    assert_eq!(
                        compress_page(&data),
                        bytewise_compress_page(&data),
                        "offset {offset}, run {run}, tail {tail}"
                    );
                }
            }
        }
    }

    #[test]
    fn run_tokens_round_trip_at_both_length_boundaries() {
        // The run token is `257 - run` for `2 <= run <= MAX_RUN`: the
        // checked conversion covers exactly `129..=255`.  Exercise both
        // ends, plus a run one past `MAX_RUN` (which must split).
        for run in [2usize, MAX_RUN, MAX_RUN + 1] {
            let data = vec![0xA5u8; run];
            let packed = compress_page(&data);
            let expected_token = u8::try_from(257 - run.min(MAX_RUN)).unwrap();
            assert_eq!(packed[0], expected_token, "run {run}");
            assert_eq!(decompress_page(&packed, run), data, "run {run}");
        }
    }

    #[test]
    fn literal_tokens_round_trip_at_both_length_boundaries() {
        // The literal token is `chunk - 1` for `1 <= chunk <= MAX_LITERAL`:
        // exactly `0..=127`.  A single literal, a full chunk and a chunk
        // that must split all round-trip.
        for len in [1usize, MAX_LITERAL, MAX_LITERAL + 1] {
            let data: Vec<u8> = (0..len)
                .map(|i| u8::try_from(i % 251).expect("residue below 251"))
                .collect();
            let packed = compress_page(&data);
            let expected_token = u8::try_from(len.min(MAX_LITERAL) - 1).unwrap();
            assert_eq!(packed[0], expected_token, "len {len}");
            assert_eq!(decompress_page(&packed, len), data, "len {len}");
        }
    }

    #[test]
    fn codec_round_trips_runs_and_literals() {
        for data in [
            vec![],
            vec![7u8],
            vec![0u8; 4096],
            vec![0xABu8; 300],
            (0..=255u8).collect::<Vec<u8>>(),
            [vec![1u8; 200], (0..100u8).collect(), vec![9u8; 3]].concat(),
        ] {
            let packed = compress_page(&data);
            assert_eq!(decompress_page(&packed, data.len()), data);
        }
    }

    #[test]
    fn runs_compress_well_and_literals_stay_bounded() {
        let zeros = compress_page(&vec![0u8; 4096]);
        assert!(zeros.len() <= 2 * 4096usize.div_ceil(MAX_RUN));
        let noise: Vec<u8> = (0..4096u32)
            .map(|i| u8::try_from(i % 251).expect("residue below 251"))
            .collect();
        let packed = compress_page(&noise);
        // Worst case: one header byte per 128 literals.
        assert!(packed.len() <= noise.len() + noise.len().div_ceil(MAX_LITERAL));
    }

    #[test]
    fn truncated_streams_decode_with_zero_padding() {
        let data = vec![0x5Au8; 256];
        let packed = compress_page(&data);
        let cut = &packed[..packed.len() / 2];
        let out = decompress_page(cut, data.len());
        assert_eq!(out.len(), data.len());
        assert!(out.ends_with(&[0, 0, 0, 0]));
    }

    #[test]
    fn store_lifecycle_tracks_ownership_and_residue() {
        let mut swap = SwapStore::new();
        let victim = OwnerTag::new(1391);
        let other = OwnerTag::new(1392);
        let id = swap.swap_out(victim, 3, &[0xEE; 4096]);
        swap.swap_out(other, 0, &[0x11; 4096]);
        assert_eq!(swap.slot_count(), 2);
        assert_eq!(swap.residue_slots().count(), 0);
        assert!(swap.slot(id).unwrap().is_live());
        assert_eq!(swap.slot(id).unwrap().page_index(), 3);

        assert_eq!(swap.retire_owner(victim), 1);
        assert_eq!(swap.residue_slots().count(), 1);
        assert_eq!(swap.residue_bytes(Some(victim)), 4096);
        assert_eq!(swap.residue_bytes(Some(other)), 0);
        assert_eq!(swap.residue_bytes(None), 4096);
        let page = swap.read_slot(id).unwrap();
        assert!(page.iter().all(|&b| b == 0xEE));

        let (slots, bytes) = swap.scrub_owner(victim);
        assert_eq!((slots, bytes), (1, 4096));
        assert_eq!(swap.residue_slots().count(), 0);
        assert_eq!(swap.residue_bytes(None), 0);
        assert!(swap.read_slot(id).is_none());
        assert!(swap.slot(id).unwrap().is_scrubbed());
        // Scrubbing again is a no-op.
        assert_eq!(swap.scrub_owner(victim), (0, 0));
    }

    #[test]
    fn residue_decays_on_logical_ticks_only() {
        let mut swap = SwapStore::new();
        swap.set_remanence(RemanenceModel::Exponential { half_life_ticks: 1 });
        swap.set_seed(77);
        let owner = OwnerTag::new(9);
        let id = swap.swap_out(owner, 0, &[0xC3; 4096]);
        swap.retire_owner(owner);
        // No ticks elapsed: bit-exact.
        assert_eq!(swap.residue_bytes(None), 4096);
        swap.advance(32);
        let decayed = swap.residue_bytes(None);
        assert!(decayed < 4096, "residue must decay, got {decayed}");
        // Replayable: the same state reads the same bytes.
        assert_eq!(swap.residue_bytes(None), decayed);
        // Live slots never decay.
        let live = swap.swap_out(OwnerTag::new(10), 1, &[0xC3; 4096]);
        swap.advance(1000);
        assert!(swap.read_slot(live).unwrap().iter().all(|&b| b == 0xC3));
        let _ = id;
    }

    proptest! {
        #[test]
        fn prop_codec_round_trips(data in proptest::collection::vec(any::<u8>(), 0..1024)) {
            let packed = compress_page(&data);
            prop_assert_eq!(decompress_page(&packed, data.len()), data);
        }

        #[test]
        fn prop_encoder_matches_bytewise_reference(data in proptest::collection::vec(any::<u8>(), 0usize..4097)) {
            prop_assert_eq!(compress_page(&data), bytewise_compress_page(&data));
        }

        #[test]
        fn prop_encoder_matches_reference_on_low_alphabets(
            alphabet in 0usize..3,
            raw in proptest::collection::vec(any::<u8>(), 0usize..4097),
        ) {
            // 2, 3 and 16 symbols: short runs everywhere, often several per word.
            let symbols = [2u8, 3, 16][alphabet];
            let data: Vec<u8> = raw.iter().map(|b| b % symbols).collect();
            prop_assert_eq!(compress_page(&data), bytewise_compress_page(&data));
        }

        #[test]
        fn prop_encoder_matches_reference_on_run_heavy_pages(
            runs in proptest::collection::vec(any::<u64>(), 1usize..64),
            len in 0usize..4097,
        ) {
            // Each draw is one run: a byte from a 4-symbol alphabet (so
            // neighbouring runs sometimes merge) and a length that is often
            // at the 128-byte cap or an 8-byte word edge.
            const EDGES: [usize; 12] = [1, 2, 7, 8, 9, 15, 16, 127, 128, 129, 256, 257];
            let mut data = Vec::new();
            for draw in runs {
                let byte = (draw & 3) as u8;
                let pick = ((draw >> 8) % 24) as usize;
                let run = EDGES.get(pick).copied().unwrap_or((draw >> 16) as usize % 300 + 1);
                data.extend(std::iter::repeat_n(byte, run));
            }
            data.truncate(len);
            prop_assert_eq!(compress_page(&data), bytewise_compress_page(&data));
        }

        #[test]
        fn prop_runs_shrink(byte in any::<u8>(), len in 1usize..4096) {
            let data = vec![byte; len];
            let packed = compress_page(&data);
            prop_assert!(packed.len() <= 2 * len.div_ceil(MAX_RUN));
        }
    }
}
