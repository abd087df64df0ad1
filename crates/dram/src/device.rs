//! The DRAM device: byte-accurate storage plus residue (ownership) tracking.
//!
//! # Arena-backed bank shards
//!
//! Storage is sharded by DRAM bank: the window is cut into naturally aligned
//! *bank stripes* (one DRAM row, [`DdrMapping::stripe_bytes`] bytes), each of
//! which lives wholly inside one bank of the interleaved geometry.  Each bank
//! shard stores its stripes in a single contiguous **arena**: one lazily
//! grown `Vec<u8>` slab indexed by the bank-local stripe *ordinal*
//! ([`DdrGeometry::ordinal_of_stripe`](crate::config::DdrGeometry::ordinal_of_stripe)),
//! plus a compact stripe-presence bitmap.  Stripe addressing is pure offset
//! arithmetic — no per-stripe map lookups on any hot path — so bulk reads
//! ([`Dram::read_bytes`]) collapse to straight `copy_from_slice` calls,
//! scrubbing ([`Dram::scrub_range`]) collapses to `fill` over a contiguous
//! slab range per bank, and [`Dram::scrape_view`] can hand out *borrowed*
//! zero-copy views of the arenas.  Sparse never-written regions still cost
//! nothing: slabs grow from fresh zeroed (lazily committed) allocations, and
//! stripes outside every slab span read as zero.
//!
//! All accesses are split at bank boundaries and routed through the
//! bank-local shards; each path walks the range once, sequentially.
//!
//! The arena store is observationally identical to the flat frame map that
//! preceded the sharded designs — same bytes, same ownership transitions,
//! same [`DramStats`] counters — which is pinned by the differential harness
//! in `tests/dram_sharding_equivalence.rs`.

// Lint audit: address arithmetic here is bounds-checked against the
// DRAM window before any narrowing cast or direct index; offsets are
// derived from validated window-relative coordinates.
#![allow(clippy::cast_possible_truncation, clippy::indexing_slicing)]

use std::collections::{HashMap, HashSet};
use std::fmt;

use crate::addr::{FrameNumber, PhysAddr, PAGE_SIZE};
use crate::config::{DdrGeometry, DramConfig};
use crate::error::DramError;
use crate::mapping::DdrMapping;
use crate::remanence::{
    decay_masks, nonzero_bytes, splitmix64, stripe_hash, DecayCurve, RemanenceModel, ResidueDecay,
};
use crate::stats::DramStats;
use crate::swap::SwapStore;
use crate::view::{zero_chunk, ScrapeView};

/// Identifies the software entity (in practice: a process id) that owns the
/// data stored in a frame.
///
/// The tag is how the simulator models *memory residue*: when a process
/// terminates without sanitization its frames keep their bytes and keep their
/// tag, but the tag is marked "dead" — exactly the state the memory scraping
/// attack exploits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OwnerTag(u32);

impl OwnerTag {
    /// Creates an owner tag from a raw identifier (e.g. a pid).
    pub const fn new(raw: u32) -> Self {
        OwnerTag(raw)
    }

    /// Returns the raw identifier.
    pub const fn as_u32(self) -> u32 {
        self.0
    }
}

impl fmt::Display for OwnerTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "owner:{}", self.0)
    }
}

impl From<u32> for OwnerTag {
    fn from(raw: u32) -> Self {
        OwnerTag(raw)
    }
}

/// Ownership state of one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameOwnership {
    /// The entity that last wrote the frame.
    pub owner: OwnerTag,
    /// `true` while the owning process is alive; `false` once it has
    /// terminated (the frame then holds *residue*).
    pub live: bool,
}

/// One bank's shard of the backing store: a contiguous arena of this bank's
/// stripes, indexed by bank-local stripe *ordinal*
/// ([`DdrGeometry::ordinal_of_stripe`]), plus the bank-local remanence decay
/// state.
///
/// The slab covers the ordinal span `[span_lo, span_lo + span)` and is grown
/// (never shrunk) when a write lands outside it.  Growth allocates a *fresh*
/// zeroed vector and copies the old slab over: fresh zeroed allocations come
/// from the allocator as untouched, lazily committed pages, so a wide span
/// over a sparsely written bank costs address space, not resident memory.
/// Inside the span, stripe addressing is pure offset arithmetic:
/// `(ordinal - span_lo) * stripe_bytes`.
#[derive(Debug, Clone, Default)]
struct BankShard {
    /// The bank's stripe arena, `span * stripe_bytes` bytes.
    slab: Vec<u8>,
    /// First stripe ordinal covered by the slab.
    span_lo: u64,
    /// Presence bitmap over the span: bit `i` means ordinal `span_lo + i`
    /// has been *written* at least once.  Scrubs zero bytes but never clear
    /// bits, mirroring the materialization semantics of the map-backed store
    /// this arena replaced.
    present: Vec<u64>,
    /// Number of set bits in `present` (the per-bank utilization count).
    present_count: usize,
    /// Remanence decay origins: for each decay granule (one DRAM row clipped
    /// to a frame — see [`Dram::decay_granule_bytes`]) of this bank currently
    /// holding residue, the logical tick at which its owner terminated.
    /// Empty — and never consulted — under [`RemanenceModel::Perfect`].
    decay_origins: HashMap<u64, u64>,
}

impl BankShard {
    /// Number of stripes covered by the slab.
    fn span(&self, sb: usize) -> u64 {
        (self.slab.len() / sb) as u64
    }

    fn covers(&self, ordinal: u64, sb: usize) -> bool {
        ordinal >= self.span_lo && ordinal - self.span_lo < self.span(sb)
    }

    /// Borrows the stripe at `ordinal` if the slab covers it.  Covered but
    /// never-written stripes are all-zero, so reading them through the slab
    /// is indistinguishable from the implicit zeros outside the span.
    fn stripe(&self, ordinal: u64, sb: usize) -> Option<&[u8]> {
        if !self.covers(ordinal, sb) {
            return None;
        }
        let offset = (ordinal - self.span_lo) as usize * sb;
        Some(&self.slab[offset..offset + sb])
    }

    /// Mutably borrows the stripe at `ordinal`, growing the slab to cover it
    /// and marking it present (written at least once).
    fn stripe_mut(&mut self, ordinal: u64, sb: usize, ordinal_bound: u64) -> &mut [u8] {
        self.ensure_covers(ordinal, sb, ordinal_bound);
        let index = (ordinal - self.span_lo) as usize;
        let word = &mut self.present[index / 64];
        let bit = 1u64 << (index % 64);
        if *word & bit == 0 {
            *word |= bit;
            self.present_count += 1;
        }
        let offset = index * sb;
        &mut self.slab[offset..offset + sb]
    }

    fn ensure_covers(&mut self, ordinal: u64, sb: usize, ordinal_bound: u64) {
        let span = self.span(sb);
        if span == 0 {
            self.span_lo = ordinal;
            self.slab = vec![0u8; sb];
            self.present = vec![0u64; 1];
            return;
        }
        if self.covers(ordinal, sb) {
            return;
        }
        // Geometric over-growth on the side being extended, so a sweep of
        // scattered writes costs O(log n) reallocations, clamped to the
        // ordinals the window can actually produce.
        let mut new_lo = self.span_lo;
        let mut new_hi = self.span_lo + span;
        if ordinal < self.span_lo {
            new_lo = ordinal.saturating_sub(span);
        } else {
            new_hi = (ordinal + 1)
                .saturating_add(span)
                .min(ordinal_bound)
                .max(ordinal + 1);
        }
        self.grow(new_lo, new_hi, sb);
    }

    /// Reallocates the slab to cover `[new_lo, new_hi)`: a fresh zeroed
    /// allocation with the old contents (and presence bits) shifted in.
    fn grow(&mut self, new_lo: u64, new_hi: u64, sb: usize) {
        let old_span = self.span(sb) as usize;
        let new_span = (new_hi - new_lo) as usize;
        let shift = (self.span_lo - new_lo) as usize;
        let mut slab = vec![0u8; new_span * sb];
        slab[shift * sb..shift * sb + self.slab.len()].copy_from_slice(&self.slab);
        let mut present = vec![0u64; new_span.div_ceil(64)];
        for index in 0..old_span {
            if self.present[index / 64] >> (index % 64) & 1 == 1 {
                let moved = index + shift;
                present[moved / 64] |= 1 << (moved % 64);
            }
        }
        self.slab = slab;
        self.present = present;
        self.span_lo = new_lo;
    }

    /// Zeroes the covered intersection of ordinals `[lo, hi)` with the span
    /// in one contiguous slab `fill` — the arena's collapsed scrub.
    fn zero_ordinals(&mut self, lo: u64, hi: u64, sb: usize) {
        let from = lo.max(self.span_lo);
        let to = hi.min(self.span_lo + self.span(sb));
        if from >= to {
            return;
        }
        let a = (from - self.span_lo) as usize * sb;
        let b = (to - self.span_lo) as usize * sb;
        self.slab[a..b].fill(0);
    }

    /// Zeroes bytes `[from, to)` within the stripe at `ordinal`, if covered
    /// (absent stripes are already zero and are not materialized).
    fn zero_partial(&mut self, ordinal: u64, from: usize, to: usize, sb: usize) {
        if !self.covers(ordinal, sb) {
            return;
        }
        let offset = (ordinal - self.span_lo) as usize * sb;
        self.slab[offset + from..offset + to].fill(0);
    }
}

/// Zeroes the intersection of window offsets `[rel_start, rel_end)` with one
/// bank's arena: the partially covered head/tail stripes individually, and
/// every fully covered stripe as part of a single contiguous
/// ordinal-interval `fill`.  For a fixed bank the stripes of a window range
/// occupy one contiguous ordinal interval
/// ([`DdrGeometry::stripe_of_ordinal`] is strictly increasing per bank), so
/// the interval endpoints are found by binary search.
fn scrub_shard_range(
    shard: &mut BankShard,
    geometry: &DdrGeometry,
    bank_id: u64,
    sb: u64,
    rel_start: u64,
    rel_end: u64,
    ordinal_bound: u64,
) {
    let sbu = sb as usize;
    let head = rel_start / sb;
    let head_end = ((head + 1) * sb).min(rel_end);
    if (!rel_start.is_multiple_of(sb) || head_end < (head + 1) * sb)
        && geometry.bank_of_stripe(head) == bank_id
    {
        shard.zero_partial(
            geometry.ordinal_of_stripe(head),
            (rel_start - head * sb) as usize,
            (head_end - head * sb) as usize,
            sbu,
        );
    }
    let tail = (rel_end - 1) / sb;
    if !rel_end.is_multiple_of(sb) && tail != head && geometry.bank_of_stripe(tail) == bank_id {
        shard.zero_partial(
            geometry.ordinal_of_stripe(tail),
            0,
            (rel_end - tail * sb) as usize,
            sbu,
        );
    }
    let first_full = rel_start.div_ceil(sb);
    let end_full = rel_end / sb;
    if first_full >= end_full {
        return;
    }
    let lo = ordinal_lower_bound(geometry, bank_id, first_full, ordinal_bound);
    let hi = ordinal_lower_bound(geometry, bank_id, end_full, ordinal_bound);
    shard.zero_ordinals(lo, hi, sbu);
}

/// Smallest ordinal `o` in `[0, bound)` with
/// `stripe_of_ordinal(bank_id, o) >= stripe`, or `bound` when none exists
/// (valid because the stripe index is strictly increasing in the ordinal for
/// a fixed bank).
fn ordinal_lower_bound(geometry: &DdrGeometry, bank_id: u64, stripe: u64, bound: u64) -> u64 {
    let (mut lo, mut hi) = (0u64, bound);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if geometry.stripe_of_ordinal(bank_id, mid) < stripe {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// The simulated DRAM device.
///
/// Storage is sparse and bank-sharded: bank stripes are materialized on first
/// write, so a 2 GiB window costs memory proportional to the bytes actually
/// touched, and very large boards no longer serialize every access on one
/// flat frame map.
///
/// # Example
///
/// ```
/// use zynq_dram::{Dram, DramConfig, OwnerTag};
///
/// # fn main() -> Result<(), zynq_dram::DramError> {
/// let mut dram = Dram::new(DramConfig::tiny_for_tests());
/// let addr = dram.config().base() + 0x40;
/// dram.write_u64(addr, 0xDEAD_BEEF_F00D_CAFE, OwnerTag::new(7))?;
/// assert_eq!(dram.read_u64(addr)?, 0xDEAD_BEEF_F00D_CAFE);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Dram {
    config: DramConfig,
    /// Bytes per bank stripe (one DRAM row); every stripe lives in one bank.
    stripe_bytes: u64,
    /// One arena shard per (rank, bank group, bank), indexed by flat bank id.
    banks: Vec<BankShard>,
    /// Exclusive upper bound of the stripe ordinals the window can produce
    /// (identical for every bank); clamps geometric slab growth.
    ordinal_bound: u64,
    /// Frames that have been materialized (written at least once).
    materialized: HashSet<u64>,
    ownership: HashMap<u64, FrameOwnership>,
    stats: DramStats,
    /// How residue decays over logical ticks ([`RemanenceModel::Perfect`]
    /// keeps the pre-remanence behavior bit-exactly).
    remanence: RemanenceModel,
    /// Seed of the per-cell decay draws (the campaign threads the cell seed
    /// here, so decay is replayable per cell).
    remanence_seed: u64,
    /// The device's logical decay clock — advanced by the kernel on scenario
    /// steps and churned scrape chunks, never by wall clock.
    remanence_tick: u64,
    /// The board's compressed swap device (zram-style).  Lives beside the
    /// frame store so sanitize policies — which receive `&mut Dram` — can
    /// reach both substrates; its decay clock advances in lock-step with
    /// [`Dram::advance_remanence`].
    swap: SwapStore,
}

impl Dram {
    /// Creates an empty (all-zero) DRAM with the given configuration.
    pub fn new(config: DramConfig) -> Self {
        let mapping = DdrMapping::new(config);
        let bank_count = mapping.bank_count() as usize;
        let geometry = config.geometry();
        // Upper-bound the ordinals reachable from the window: the last
        // stripe's overflow bits cap the wrap count, and within one wrap the
        // row bits cap the ordinal.
        let last_stripe = (config.capacity() - 1) / mapping.stripe_bytes();
        let wrap_shift =
            geometry.bank_group_bits + geometry.bank_bits + geometry.row_bits + geometry.rank_bits;
        let ordinal_bound = ((last_stripe >> wrap_shift) + 1) << geometry.row_bits;
        Dram {
            config,
            stripe_bytes: mapping.stripe_bytes(),
            banks: vec![BankShard::default(); bank_count],
            ordinal_bound,
            materialized: HashSet::new(),
            ownership: HashMap::new(),
            stats: DramStats::default(),
            remanence: RemanenceModel::Perfect,
            remanence_seed: 0,
            remanence_tick: 0,
            swap: SwapStore::new(),
        }
    }

    /// Sets the remanence decay model (default [`RemanenceModel::Perfect`]).
    pub fn set_remanence(&mut self, model: RemanenceModel) {
        self.remanence = model;
    }

    /// Seeds the per-cell decay draws (the campaign engine passes the cell
    /// seed, making decayed scrapes replayable per cell).  The swap store's
    /// draws are derived from the same seed through a salt, so the two
    /// substrates decay independently but replay together.
    pub fn set_remanence_seed(&mut self, seed: u64) {
        self.remanence_seed = seed;
        self.swap.set_seed(splitmix64(seed ^ 0x51AB_5107_0000_5EED));
    }

    /// The active remanence decay model.
    pub fn remanence(&self) -> RemanenceModel {
        self.remanence
    }

    /// The current logical decay tick.
    pub fn remanence_tick(&self) -> u64 {
        self.remanence_tick
    }

    /// Advances the logical decay clock by `ticks`.
    ///
    /// Ticks are *logical* — the kernel advances them on scenario steps
    /// (spawns, writes, terminations) and on churned scrape chunks, never on
    /// wall clock, so 1-worker and N-worker campaign runs see identical decay.
    /// Nothing is mutated here: decay is applied lazily, as a pure view, when
    /// non-owned residue is read.
    pub fn advance_remanence(&mut self, ticks: u64) {
        self.remanence_tick += ticks;
        self.swap.advance(ticks);
    }

    /// The board's compressed swap device.
    pub fn swap_store(&self) -> &SwapStore {
        &self.swap
    }

    /// Mutable access to the compressed swap device (kernel swap-out paths
    /// and swap-aware sanitizers).
    pub fn swap_store_mut(&mut self) -> &mut SwapStore {
        &mut self.swap
    }

    /// The configuration this device was built with.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// Access statistics accumulated so far.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Resets the access statistics without touching memory contents.
    pub fn reset_stats(&mut self) {
        self.stats = DramStats::default();
    }

    /// Number of bank shards backing the store
    /// (ranks × bank groups × banks per group).
    pub fn bank_count(&self) -> usize {
        self.banks.len()
    }

    /// Bytes per bank stripe — the granularity at which requests are split
    /// across bank shards (one DRAM row).
    pub fn stripe_bytes(&self) -> u64 {
        self.stripe_bytes
    }

    /// Total number of materialized bank stripes across all shards.
    pub fn materialized_stripes(&self) -> usize {
        self.banks.iter().map(|b| b.present_count).sum()
    }

    /// Total bytes of slab address space reserved across all bank arenas.
    ///
    /// This measures the *virtual* extent of the ordinal spans — growth
    /// allocates fresh zeroed (lazily committed) memory, so the resident
    /// cost tracks the bytes actually written — and is what the sparse-window
    /// equivalence test pins as proportional to the touched region rather
    /// than the window size.
    pub fn arena_bytes(&self) -> u64 {
        self.banks.iter().map(|b| b.slab.len() as u64).sum()
    }

    fn frame_index(&self, addr: PhysAddr) -> u64 {
        addr.offset_from(self.config.base()) / PAGE_SIZE
    }

    /// The bank shard holding `stripe` (the single
    /// [`DdrGeometry::bank_of_stripe`](crate::config::DdrGeometry::bank_of_stripe)
    /// routing definition, shared with the mapping layer).
    fn stripe_bank(&self, stripe: u64) -> usize {
        self.config.geometry().bank_of_stripe(stripe) as usize
    }

    fn stripe(&self, stripe: u64) -> Option<&[u8]> {
        let geometry = self.config.geometry();
        self.banks[geometry.bank_of_stripe(stripe) as usize].stripe(
            geometry.ordinal_of_stripe(stripe),
            self.stripe_bytes as usize,
        )
    }

    fn stripe_mut(&mut self, stripe: u64) -> &mut [u8] {
        let geometry = self.config.geometry();
        let sb = self.stripe_bytes as usize;
        let bound = self.ordinal_bound;
        self.banks[geometry.bank_of_stripe(stripe) as usize].stripe_mut(
            geometry.ordinal_of_stripe(stripe),
            sb,
            bound,
        )
    }

    /// Bytes per decay granule: one DRAM row clipped to a frame.  Residue
    /// transitions (termination, re-ownership, scrubbing) are frame-granular
    /// and stripes are the shard-routing unit, so the granule — the largest
    /// block contained in exactly one frame *and* one stripe — is the exact
    /// granularity at which decay epochs can open and close.  On the real
    /// geometries (row ≤ page) this is simply the bank stripe; only the
    /// synthetic stripe-larger-than-page test geometries clip it.
    fn decay_granule_bytes(&self) -> u64 {
        self.stripe_bytes.min(PAGE_SIZE)
    }

    /// Global decay-granule indices covering frame `idx` (each granule lies
    /// entirely inside the frame — both are powers of two).
    fn frame_decay_granules(&self, idx: u64) -> std::ops::Range<u64> {
        let g = self.decay_granule_bytes();
        (idx * PAGE_SIZE / g)..((idx + 1) * PAGE_SIZE / g)
    }

    /// The bank shard holding a decay granule's origin record (the bank of
    /// the stripe the granule belongs to).
    fn granule_bank(&self, granule: u64) -> usize {
        self.stripe_bank(granule * self.decay_granule_bytes() / self.stripe_bytes)
    }

    /// Records the residue origin of every decay granule of frame `idx`
    /// (called when the frame's owner terminates).  Granules are contained
    /// in the frame, so the frame's termination tick *is* their epoch —
    /// including when an earlier epoch's stale record is being replaced
    /// after the frame was re-owned and retired again.
    fn stamp_decay_origins(&mut self, idx: u64) {
        let tick = self.remanence_tick;
        for granule in self.frame_decay_granules(idx) {
            let bank = self.granule_bank(granule);
            self.banks[bank].decay_origins.insert(granule, tick);
        }
    }

    /// Drops the decay origins of frame `idx`'s granules (called when the
    /// frame stops being residue: re-owned by a live writer or scrubbed
    /// clean).  Exact in every geometry, since a granule never straddles
    /// frames.
    fn clear_decay_origins(&mut self, idx: u64) {
        for granule in self.frame_decay_granules(idx) {
            let bank = self.granule_bank(granule);
            self.banks[bank].decay_origins.remove(&granule);
        }
    }

    /// The one remanence decay kernel: calls `apply(pos, raw, masks)` for
    /// every residue chunk of `[addr, addr + len)` that decays at one of
    /// `ticks` consecutive ticks from now, with the chunk's offset in the
    /// range, its raw bytes and one row of masks per tick ([`decay_masks`]);
    /// everything else reads raw.  Chunks stay inside one frame (residue
    /// gating) and one stripe (hash coordinates), hence one decay granule.
    /// Nothing runs under [`RemanenceModel::Perfect`], and nothing is
    /// allocated before the first decaying chunk.
    fn decay_sweep(
        &self,
        addr: PhysAddr,
        len: usize,
        ticks: usize,
        mut apply: impl FnMut(usize, &[u8], &[u8]),
    ) {
        if self.remanence.is_perfect() {
            return;
        }
        let start = addr.offset_from(self.config.base());
        let sb = self.stripe_bytes;
        let granule_bytes = self.decay_granule_bytes();
        let now = self.remanence_tick;
        let (mut curves, mut hashes, mut masks) = (Vec::new(), Vec::new(), Vec::new());
        let mut pos = 0usize;
        while pos < len {
            let rel = start + pos as u64;
            let chunk = (PAGE_SIZE - rel % PAGE_SIZE)
                .min(sb - rel % sb)
                .min((len - pos) as u64) as usize;
            let stripe = rel / sb;
            let residue = self
                .ownership
                .get(&(rel / PAGE_SIZE))
                .is_some_and(|rec| !rec.live);
            let origins = &self.banks[self.stripe_bank(stripe)].decay_origins;
            let origin = origins.get(&(rel / granule_bytes)).filter(|_| residue);
            if let (Some(&origin), Some(stripe_bytes)) = (origin, self.stripe(stripe)) {
                curves.clear();
                curves.extend(
                    (now..)
                        .take(ticks)
                        .map(|tick| self.remanence.curve(tick.saturating_sub(origin))),
                );
                if !curves.iter().all(DecayCurve::is_identity) {
                    let first = rel % sb;
                    let raw = &stripe_bytes[first as usize..first as usize + chunk];
                    let stripe_draw = stripe_hash(self.remanence_seed, stripe);
                    decay_masks(raw, stripe_draw, first, &curves, &mut hashes, &mut masks);
                    apply(pos, raw, &masks);
                }
            }
            pos += chunk;
        }
    }

    /// Decays `reads`, raw copies of one range at `addr`, to the range as
    /// read `i` ticks from now.
    fn apply_decay<B: AsMut<[u8]>>(&self, addr: PhysAddr, reads: &mut [B]) {
        let ticks = reads.len();
        let len = reads.first_mut().map_or(0, |read| read.as_mut().len());
        self.decay_sweep(addr, len, ticks, |pos, raw, masks| {
            for (read, row) in reads.iter_mut().zip(masks.chunks_exact(raw.len())) {
                let out = &mut read.as_mut()[pos..pos + raw.len()];
                for (byte, mask) in out.iter_mut().zip(row) {
                    *byte &= mask;
                }
            }
        });
    }

    fn check_range(&self, addr: PhysAddr, len: u64) -> Result<(), DramError> {
        if len > 0 && addr.checked_add(len - 1).is_none() {
            return Err(DramError::LengthOverflow { addr, len });
        }
        if !self.config.contains_range(addr, len.max(1)) {
            return Err(DramError::OutOfRange { addr, len });
        }
        Ok(())
    }

    fn check_aligned(&self, addr: PhysAddr, align: u64) -> Result<(), DramError> {
        if !addr.as_u64().is_multiple_of(align) {
            return Err(DramError::Misaligned {
                addr,
                required: align,
            });
        }
        Ok(())
    }

    /// Reads a single byte.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::OutOfRange`] if the address is outside the window.
    pub fn read_u8(&self, addr: PhysAddr) -> Result<u8, DramError> {
        let mut byte = [0u8];
        self.read_bytes(addr, &mut byte)?;
        Ok(byte[0])
    }

    /// Reads `buf.len()` bytes starting at `addr`.
    ///
    /// Unmaterialized stripes read as zero, matching DRAM that has been
    /// initialized once at power-on.  Bytes belonging to terminated-process
    /// residue are returned through the remanence decay view (a pure,
    /// non-mutating transformation; inert under [`RemanenceModel::Perfect`]).
    ///
    /// # Errors
    ///
    /// Returns [`DramError::OutOfRange`] if any byte falls outside the window.
    pub fn read_bytes(&self, addr: PhysAddr, buf: &mut [u8]) -> Result<(), DramError> {
        self.check_range(addr, buf.len() as u64)?;
        self.read_bytes_unchecked(addr, buf);
        self.apply_decay(addr, &mut [buf]);
        Ok(())
    }

    /// Reads `len` bytes at `addr` at `ticks` consecutive ticks in one decay
    /// sweep: read `i` is [`Dram::read_bytes`] after `i` more ticks.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::OutOfRange`] if any byte falls outside the window.
    pub fn read_ticks(
        &self,
        addr: PhysAddr,
        len: usize,
        ticks: usize,
    ) -> Result<Vec<Vec<u8>>, DramError> {
        self.check_range(addr, len as u64)?;
        let mut raw = vec![0u8; len];
        self.read_bytes_unchecked(addr, &mut raw);
        let mut reads = vec![raw; ticks];
        self.apply_decay(addr, &mut reads);
        Ok(reads)
    }

    /// The raw (pre-decay) bulk read: one shard lookup per touched bank
    /// stripe, bulk-copying stripe-sized chunks.
    fn read_bytes_unchecked(&self, addr: PhysAddr, buf: &mut [u8]) {
        let base = self.config.base();
        let sb = self.stripe_bytes;
        let mut cursor = 0usize;
        while cursor < buf.len() {
            let rel = (addr + cursor as u64).offset_from(base);
            let offset = (rel % sb) as usize;
            let chunk = (sb as usize - offset).min(buf.len() - cursor);
            let dst = &mut buf[cursor..cursor + chunk];
            match self.stripe(rel / sb) {
                Some(stripe) => dst.copy_from_slice(&stripe[offset..offset + chunk]),
                None => dst.fill(0),
            }
            cursor += chunk;
        }
    }

    /// Reads a naturally aligned little-endian 32-bit word (the access
    /// `devmem <addr>` performs).
    ///
    /// # Errors
    ///
    /// Returns [`DramError::Misaligned`] if `addr` is not 4-byte aligned and
    /// [`DramError::OutOfRange`] if the word crosses the window boundary.
    pub fn read_u32(&self, addr: PhysAddr) -> Result<u32, DramError> {
        self.check_aligned(addr, 4)?;
        let mut buf = [0u8; 4];
        self.read_bytes(addr, &mut buf)?;
        Ok(u32::from_le_bytes(buf))
    }

    /// Reads a naturally aligned little-endian 64-bit word.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::Misaligned`] if `addr` is not 8-byte aligned and
    /// [`DramError::OutOfRange`] if the word crosses the window boundary.
    pub fn read_u64(&self, addr: PhysAddr) -> Result<u64, DramError> {
        self.check_aligned(addr, 8)?;
        let mut buf = [0u8; 8];
        self.read_bytes(addr, &mut buf)?;
        Ok(u64::from_le_bytes(buf))
    }

    /// `true` when [`Dram::scrape_view`] will hand out borrowed views —
    /// i.e. the remanence model is perfect, so reads need no owned decay
    /// transform.  Callers use this to pick the zero-copy path up front
    /// without issuing a speculative read.
    pub fn supports_borrowed_reads(&self) -> bool {
        self.remanence.is_perfect()
    }

    /// Borrows a zero-copy [`ScrapeView`] of `[addr, addr + len)` straight
    /// out of the bank arenas: no bytes are copied, and regions outside
    /// every slab span alias a shared static zero chunk.
    ///
    /// Returns `Ok(None)` when the remanence model is not
    /// [`RemanenceModel::Perfect`]: decayed reads must materialize an owned
    /// transform of the residue, so callers fall back to
    /// [`Dram::read_bytes`].  Under the perfect model the view is
    /// byte-identical to [`Dram::read_bytes`] over the same range.
    pub fn scrape_view(
        &self,
        addr: PhysAddr,
        len: u64,
    ) -> Result<Option<ScrapeView<'_>>, DramError> {
        self.check_range(addr, len)?;
        if !self.remanence.is_perfect() {
            return Ok(None);
        }
        let unit = self.stripe_bytes.min(PAGE_SIZE);
        let mut view = ScrapeView::with_unit(unit as usize);
        let rel = addr.offset_from(self.config.base());
        // Partial head up to the next unit boundary.  Units never straddle a
        // stripe: the unit divides the stripe size (both are powers of two,
        // unit the smaller) and the window base is page-aligned.
        let mut cursor = 0u64;
        if !rel.is_multiple_of(unit) {
            let head_len = (unit - rel % unit).min(len);
            view.set_head(self.unit_slice(rel, head_len as usize));
            cursor = head_len;
        }
        while cursor < len {
            let chunk = unit.min(len - cursor) as usize;
            view.push_chunk(self.unit_slice(rel + cursor, chunk));
            cursor += chunk as u64;
        }
        Ok(Some(view))
    }

    /// A borrowed `len`-byte slice at window offset `rel`; the caller
    /// guarantees the range lies inside one unit (hence one stripe).  Absent
    /// stripes alias the shared zero chunk.
    fn unit_slice(&self, rel: u64, len: usize) -> &[u8] {
        let sb = self.stripe_bytes;
        match self.stripe(rel / sb) {
            Some(stripe) => {
                let offset = (rel % sb) as usize;
                &stripe[offset..offset + len]
            }
            None => zero_chunk(len),
        }
    }

    fn tag_frame(&mut self, idx: u64, owner: OwnerTag) {
        self.ownership
            .insert(idx, FrameOwnership { owner, live: true });
    }

    /// Tags and materializes every frame overlapping `[addr, addr + len)`,
    /// preserving the frame-granular ownership semantics of the flat store.
    fn tag_written_frames(&mut self, addr: PhysAddr, len: u64, owner: OwnerTag) {
        if len == 0 {
            return;
        }
        let first = self.frame_index(addr);
        let last = self.frame_index(addr + (len - 1));
        let track_decay = !self.remanence.is_perfect();
        for idx in first..=last {
            self.materialized.insert(idx);
            self.tag_frame(idx, owner);
            if track_decay {
                // The frame is live again: it is no longer residue, so its
                // decay epoch ends.
                self.clear_decay_origins(idx);
            }
        }
    }

    /// Writes a single byte on behalf of `owner`.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::OutOfRange`] if the address is outside the window.
    pub fn write_u8(
        &mut self,
        addr: PhysAddr,
        value: u8,
        owner: OwnerTag,
    ) -> Result<(), DramError> {
        self.check_range(addr, 1)?;
        let rel = addr.offset_from(self.config.base());
        let offset = (rel % self.stripe_bytes) as usize;
        self.stripe_mut(rel / self.stripe_bytes)[offset] = value;
        self.tag_written_frames(addr, 1, owner);
        self.stats.record_write(1);
        Ok(())
    }

    /// Writes `data` starting at `addr` on behalf of `owner`.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::OutOfRange`] if any byte falls outside the window.
    pub fn write_bytes(
        &mut self,
        addr: PhysAddr,
        data: &[u8],
        owner: OwnerTag,
    ) -> Result<(), DramError> {
        self.check_range(addr, data.len() as u64)?;
        // One shard materialization per touched bank stripe, bulk-copying
        // stripe-sized chunks; ownership stays frame-granular.
        let base = self.config.base();
        let sb = self.stripe_bytes;
        let mut cursor = 0usize;
        while cursor < data.len() {
            let rel = (addr + cursor as u64).offset_from(base);
            let offset = (rel % sb) as usize;
            let chunk = (sb as usize - offset).min(data.len() - cursor);
            self.stripe_mut(rel / sb)[offset..offset + chunk]
                .copy_from_slice(&data[cursor..cursor + chunk]);
            cursor += chunk;
        }
        self.tag_written_frames(addr, data.len() as u64, owner);
        self.stats.record_write(data.len() as u64);
        Ok(())
    }

    /// Writes a naturally aligned little-endian 32-bit word.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::Misaligned`] or [`DramError::OutOfRange`] under
    /// the same conditions as [`Dram::read_u32`].
    pub fn write_u32(
        &mut self,
        addr: PhysAddr,
        value: u32,
        owner: OwnerTag,
    ) -> Result<(), DramError> {
        self.check_aligned(addr, 4)?;
        self.write_bytes(addr, &value.to_le_bytes(), owner)
    }

    /// Writes a naturally aligned little-endian 64-bit word.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::Misaligned`] or [`DramError::OutOfRange`] under
    /// the same conditions as [`Dram::read_u64`].
    pub fn write_u64(
        &mut self,
        addr: PhysAddr,
        value: u64,
        owner: OwnerTag,
    ) -> Result<(), DramError> {
        self.check_aligned(addr, 8)?;
        self.write_bytes(addr, &value.to_le_bytes(), owner)
    }

    /// Fills `len` bytes starting at `addr` with `byte` on behalf of `owner`.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::OutOfRange`] if the range leaves the window and
    /// [`DramError::EmptyRange`] when `len` is zero (almost always an
    /// end-before-start range computed by the caller).
    pub fn fill(
        &mut self,
        addr: PhysAddr,
        len: u64,
        byte: u8,
        owner: OwnerTag,
    ) -> Result<(), DramError> {
        if len == 0 {
            return Err(DramError::EmptyRange { addr });
        }
        self.check_range(addr, len)?;
        let base = self.config.base();
        let sb = self.stripe_bytes;
        let mut cursor = 0u64;
        while cursor < len {
            let rel = (addr + cursor).offset_from(base);
            let offset = (rel % sb) as usize;
            let chunk = ((sb - offset as u64).min(len - cursor)) as usize;
            self.stripe_mut(rel / sb)[offset..offset + chunk].fill(byte);
            cursor += chunk as u64;
        }
        self.tag_written_frames(addr, len, owner);
        self.stats.record_write(len);
        Ok(())
    }

    /// Zeroes the covered slices of every *materialized* stripe in
    /// `[addr, addr + len)`; stripes outside every slab span are already
    /// zero.  Small ranges walk their few stripes directly (O(1) offset
    /// arithmetic each); large ranges collapse to one contiguous slab `fill`
    /// per bank over the fully covered interior.
    fn zero_stripes(&mut self, addr: PhysAddr, len: u64) {
        let sb = self.stripe_bytes;
        let rel_start = addr.offset_from(self.config.base());
        let rel_end = rel_start + len;
        let geometry = self.config.geometry();
        let stripes = rel_end.div_ceil(sb) - rel_start / sb;
        if stripes <= 2 * self.banks.len() as u64 {
            let mut cursor = 0u64;
            while cursor < len {
                let rel = rel_start + cursor;
                let offset = (rel % sb) as usize;
                let chunk = ((sb - offset as u64).min(len - cursor)) as usize;
                let stripe = rel / sb;
                self.banks[geometry.bank_of_stripe(stripe) as usize].zero_partial(
                    geometry.ordinal_of_stripe(stripe),
                    offset,
                    offset + chunk,
                    sb as usize,
                );
                cursor += chunk as u64;
            }
            return;
        }
        let bound = self.ordinal_bound;
        for (bank_id, shard) in self.banks.iter_mut().enumerate() {
            scrub_shard_range(
                shard,
                &geometry,
                bank_id as u64,
                sb,
                rel_start,
                rel_end,
                bound,
            );
        }
    }

    /// Drops the ownership record of every frame in `[addr, addr + len)` that
    /// the scrub left entirely zero (row- or bank-granular sanitizers clear a
    /// frame across several sub-page calls; the attribution should disappear
    /// once nothing of the owner's data remains).
    fn drop_zeroed_ownership(&mut self, addr: PhysAddr, len: u64) {
        let first = self.frame_index(addr);
        let last = self.frame_index(addr + (len - 1));
        let rel_start = addr.offset_from(self.config.base());
        let rel_end = rel_start + len;
        let track_decay = !self.remanence.is_perfect();
        for idx in first..=last {
            // A frame fully covered by the scrub is zero by construction; a
            // partially covered one must be scanned.
            let fully_covered = idx * PAGE_SIZE >= rel_start && (idx + 1) * PAGE_SIZE <= rel_end;
            if fully_covered || self.frame_nonzero_bytes(idx) == 0 {
                self.ownership.remove(&idx);
                if track_decay {
                    // Scrubbed clean: nothing left to decay.
                    self.clear_decay_origins(idx);
                }
            }
        }
    }

    /// Zeroes `len` bytes starting at `addr` **as a sanitizer** (the write is
    /// counted as scrubbing, not as an owner write, and the ownership record
    /// of frames left entirely zero is removed).
    ///
    /// # Errors
    ///
    /// Returns [`DramError::OutOfRange`] if the range leaves the window and
    /// [`DramError::EmptyRange`] when `len` is zero — a sanitizer asked to
    /// scrub nothing is a caller bug (typically an end-before-start span) and
    /// must not be recorded as a successful scrub.
    pub fn scrub_range(&mut self, addr: PhysAddr, len: u64) -> Result<(), DramError> {
        if len == 0 {
            return Err(DramError::EmptyRange { addr });
        }
        self.check_range(addr, len)?;
        self.zero_stripes(addr, len);
        self.drop_zeroed_ownership(addr, len);
        self.stats.record_scrub(len);
        Ok(())
    }

    /// Marks every live frame owned by `owner` as dead (terminated-process
    /// residue) without clearing any data.
    ///
    /// Under a non-perfect [`RemanenceModel`] this also opens the decay epoch
    /// of every stripe the retired frames touch: the residue starts decaying
    /// from the current logical tick.
    ///
    /// Returns the number of frames transitioned to the residue state.
    pub fn retire_owner(&mut self, owner: OwnerTag) -> usize {
        let mut retired = Vec::new();
        for (idx, record) in self.ownership.iter_mut() {
            if record.owner == owner && record.live {
                record.live = false;
                retired.push(*idx);
            }
        }
        if !self.remanence.is_perfect() {
            for idx in &retired {
                self.stamp_decay_origins(*idx);
            }
        }
        retired.len()
    }

    /// Returns the ownership record of a frame, if any entity has written it.
    pub fn frame_ownership(&self, frame: FrameNumber) -> Option<FrameOwnership> {
        if !self.config.contains_frame(frame) {
            return None;
        }
        let idx = frame.as_u64() - self.config.first_frame().as_u64();
        self.ownership.get(&idx).copied()
    }

    /// Iterates over the frames currently attributed to `owner`
    /// (live or residue).
    pub fn frames_owned_by(&self, owner: OwnerTag) -> impl Iterator<Item = FrameNumber> + '_ {
        let first = self.config.first_frame().as_u64();
        self.ownership
            .iter()
            .filter(move |(_, rec)| rec.owner == owner)
            .map(move |(idx, _)| FrameNumber::new(first + idx))
    }

    /// Iterates over all residue frames: frames whose owner has terminated
    /// but whose data has not been sanitized.
    pub fn residue_frames(&self) -> impl Iterator<Item = (FrameNumber, OwnerTag)> + '_ {
        let first = self.config.first_frame().as_u64();
        self.ownership
            .iter()
            .filter(|(_, rec)| !rec.live)
            .map(move |(idx, rec)| (FrameNumber::new(first + idx), rec.owner))
    }

    /// The stored pieces of frame `idx`, each with its offset in the frame
    /// and its bytes borrowed from the stripe that holds it.  Absent stripes
    /// read as zero and are skipped.
    fn frame_pieces(&self, idx: u64) -> impl Iterator<Item = (usize, &[u8])> + '_ {
        let sb = self.stripe_bytes;
        let piece = sb.min(PAGE_SIZE);
        (0..PAGE_SIZE / piece).filter_map(move |i| {
            let rel = idx * PAGE_SIZE + i * piece;
            let first = (rel % sb) as usize;
            let stripe = self.stripe(rel / sb)?;
            Some(((i * piece) as usize, &stripe[first..first + piece as usize]))
        })
    }

    /// Non-zero bytes of frame `idx`, counted in place on the stripe slices
    /// that hold it, with no copy.
    fn frame_nonzero_bytes(&self, idx: u64) -> u64 {
        self.frame_pieces(idx)
            .map(|(_, bytes)| nonzero_bytes(bytes))
            .sum()
    }

    /// Total number of bytes that differ from zero in residue frames.
    ///
    /// This is the quantity the defense experiments report as "recoverable
    /// residue".  It counts the *raw* store, before the remanence decay view
    /// — use [`Dram::residue_decay`] for the decayed (attacker-visible)
    /// fidelity.
    pub fn residue_bytes(&self) -> u64 {
        self.ownership
            .iter()
            .filter(|(_, rec)| !rec.live)
            .map(|(idx, _)| self.frame_nonzero_bytes(*idx))
            .sum()
    }

    /// Measures how much of the residue the remanence decay view still
    /// exposes, optionally restricted to one owner's residue frames.
    ///
    /// Each residue frame is read through one decay sweep of its own and
    /// compared with its raw bytes ([`ResidueDecay`]'s tally): `raw_bytes`
    /// counts non-zero residue bytes before decay, `surviving_bytes` those
    /// still non-zero through the view, and `bits_flipped` every bit the
    /// view lost.  Under [`RemanenceModel::Perfect`] the view is the
    /// identity, so only the raw bytes are counted (in place, no copy) and
    /// `bits_flipped` is always zero.
    pub fn residue_decay(&self, owner: Option<OwnerTag>) -> ResidueDecay {
        self.residue_tally(owner, self.config.base(), &[])
    }

    /// [`Dram::residue_decay`] taken from a read the caller already holds:
    /// `read` must be what [`Dram::read_bytes`] returns for
    /// `[addr, addr + read.len())` at the current tick (for example the
    /// last snapshot of a multi-snapshot scrape).  Residue frames wholly
    /// inside it are tallied by comparing their raw bytes with the read,
    /// with no decay draws; the others take their own sweep.  The counts
    /// are identical to [`Dram::residue_decay`]'s, which debug builds
    /// check.
    pub fn residue_decay_from_read(
        &self,
        owner: Option<OwnerTag>,
        addr: PhysAddr,
        read: &[u8],
    ) -> ResidueDecay {
        let decay = self.residue_tally(owner, addr, read);
        debug_assert_eq!(
            decay,
            self.residue_decay(owner),
            "residue tally from the read at {addr}"
        );
        decay
    }

    /// The counts of [`Dram::residue_decay_from_read`]; with an empty
    /// `read`, every residue frame takes its own sweep.
    fn residue_tally(&self, owner: Option<OwnerTag>, addr: PhysAddr, read: &[u8]) -> ResidueDecay {
        let frames = self
            .ownership
            .iter()
            .filter(|(_, rec)| !rec.live && owner.is_none_or(|o| rec.owner == o));
        if self.remanence.is_perfect() {
            let bytes = frames.map(|(&idx, _)| self.frame_nonzero_bytes(idx)).sum();
            return ResidueDecay {
                raw_bytes: bytes,
                surviving_bytes: bytes,
                bits_flipped: 0,
            };
        }
        let mut decay = ResidueDecay::default();
        let mut swept = Vec::new();
        for (&idx, _) in frames {
            let frame_addr = self.config.base() + idx * PAGE_SIZE;
            let in_read = (frame_addr >= addr)
                .then(|| frame_addr.offset_from(addr) as usize)
                .and_then(|offset| read.get(offset..offset + PAGE_SIZE as usize));
            let seen = match in_read {
                Some(seen) => seen,
                None => {
                    swept.resize(PAGE_SIZE as usize, 0);
                    self.read_bytes_unchecked(frame_addr, &mut swept);
                    self.apply_decay(frame_addr, std::slice::from_mut(&mut swept));
                    &swept[..]
                }
            };
            for (offset, raw) in self.frame_pieces(idx) {
                decay.tally(raw, &seen[offset..offset + raw.len()]);
            }
        }
        decay
    }

    /// Number of frames that have been materialized (written at least once).
    pub fn materialized_frames(&self) -> usize {
        self.materialized.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn dram() -> Dram {
        Dram::new(DramConfig::tiny_for_tests())
    }

    #[test]
    fn unwritten_memory_reads_zero() {
        let d = dram();
        let base = d.config().base();
        assert_eq!(d.read_u8(base).unwrap(), 0);
        assert_eq!(d.read_u32(base).unwrap(), 0);
        assert_eq!(d.read_u64(base).unwrap(), 0);
    }

    #[test]
    fn write_then_read_roundtrip() {
        let mut d = dram();
        let base = d.config().base();
        let owner = OwnerTag::new(1391);
        d.write_u32(base + 4, 0xF7F5_F8FD, owner).unwrap();
        assert_eq!(d.read_u32(base + 4).unwrap(), 0xF7F5_F8FD);
        d.write_u64(base + 8, 0x0102_0304_0506_0708, owner).unwrap();
        assert_eq!(d.read_u64(base + 8).unwrap(), 0x0102_0304_0506_0708);
        d.write_u8(base, 0xAB, owner).unwrap();
        assert_eq!(d.read_u8(base).unwrap(), 0xAB);
    }

    #[test]
    fn bytes_roundtrip_across_frame_boundary() {
        let mut d = dram();
        let owner = OwnerTag::new(1);
        let addr = d.config().base() + PAGE_SIZE - 3;
        let data = [1u8, 2, 3, 4, 5, 6, 7];
        d.write_bytes(addr, &data, owner).unwrap();
        let mut back = [0u8; 7];
        d.read_bytes(addr, &mut back).unwrap();
        assert_eq!(back, data);
        assert_eq!(d.materialized_frames(), 2);
    }

    #[test]
    fn bytes_roundtrip_across_bank_boundaries() {
        // A write spanning several bank stripes lands in several shards and
        // reads back bit-exactly.
        let mut d = dram();
        let owner = OwnerTag::new(9);
        let sb = d.stripe_bytes();
        let addr = d.config().base() + sb - 5;
        let data: Vec<u8> = (0..(3 * sb + 10)).map(|i| (i % 251) as u8 + 1).collect();
        d.write_bytes(addr, &data, owner).unwrap();
        let mut back = vec![0u8; data.len()];
        d.read_bytes(addr, &mut back).unwrap();
        assert_eq!(back, data);
        // The stripes really are distributed over more than one bank shard.
        let rel = addr.offset_from(d.config().base());
        let mut banks: Vec<usize> = (rel / sb..=(rel + data.len() as u64 - 1) / sb)
            .map(|stripe| d.stripe_bank(stripe))
            .collect();
        banks.sort_unstable();
        banks.dedup();
        assert!(
            banks.len() > 1,
            "expected multiple bank shards, got {banks:?}"
        );
        assert!(d.materialized_stripes() >= 4);
    }

    #[test]
    fn bank_shard_layout_matches_the_mapping() {
        let d = dram();
        let mapping = DdrMapping::new(*d.config());
        assert_eq!(d.bank_count() as u64, mapping.bank_count());
        assert_eq!(d.stripe_bytes(), mapping.stripe_bytes());
        for stripe in 0..256 {
            assert_eq!(d.stripe_bank(stripe) as u64, mapping.bank_of_stripe(stripe));
        }
    }

    #[test]
    fn misaligned_word_access_is_rejected() {
        let mut d = dram();
        let base = d.config().base();
        assert!(matches!(
            d.read_u32(base + 1),
            Err(DramError::Misaligned { required: 4, .. })
        ));
        assert!(matches!(
            d.write_u64(base + 4, 0, OwnerTag::new(1)),
            Err(DramError::Misaligned { required: 8, .. })
        ));
    }

    #[test]
    fn out_of_range_access_is_rejected() {
        let mut d = dram();
        let below = PhysAddr::new(0x1000);
        assert!(matches!(
            d.read_u8(below),
            Err(DramError::OutOfRange { .. })
        ));
        let end = d.config().end();
        assert!(matches!(
            d.write_u32(end, 1, OwnerTag::new(1)),
            Err(DramError::OutOfRange { .. })
        ));
        // Access straddling the end.
        let mut buf = [0u8; 8];
        assert!(d.read_bytes(end - 4, &mut buf).is_err());
    }

    #[test]
    fn ownership_tracking_and_retire() {
        let mut d = dram();
        let owner = OwnerTag::new(1391);
        let other = OwnerTag::new(2000);
        let base = d.config().base();
        d.write_bytes(base, &[0xAA; 64], owner).unwrap();
        d.write_bytes(base + PAGE_SIZE, &[0xBB; 64], other).unwrap();

        assert_eq!(d.frames_owned_by(owner).count(), 1);
        let rec = d.frame_ownership(base.frame_number()).unwrap();
        assert_eq!(rec.owner, owner);
        assert!(rec.live);

        assert_eq!(d.retire_owner(owner), 1);
        let rec = d.frame_ownership(base.frame_number()).unwrap();
        assert!(!rec.live);
        // Residue only reports the dead owner's frames.
        let residues: Vec<_> = d.residue_frames().collect();
        assert_eq!(residues.len(), 1);
        assert_eq!(residues[0].1, owner);
        assert_eq!(d.residue_bytes(), 64);
    }

    #[test]
    fn retire_is_idempotent_and_scoped() {
        let mut d = dram();
        let owner = OwnerTag::new(5);
        d.write_u8(d.config().base(), 1, owner).unwrap();
        assert_eq!(d.retire_owner(owner), 1);
        assert_eq!(d.retire_owner(owner), 0);
        assert_eq!(d.retire_owner(OwnerTag::new(99)), 0);
    }

    #[test]
    fn scrub_clears_data_and_ownership() {
        let mut d = dram();
        let owner = OwnerTag::new(1391);
        let base = d.config().base();
        d.fill(base, 2 * PAGE_SIZE, 0xFF, owner).unwrap();
        d.retire_owner(owner);
        assert!(d.residue_bytes() > 0);

        d.scrub_range(base, 2 * PAGE_SIZE).unwrap();
        assert_eq!(d.read_u8(base).unwrap(), 0);
        assert_eq!(d.read_u8(base + 2 * PAGE_SIZE - 1).unwrap(), 0);
        assert_eq!(d.residue_bytes(), 0);
        assert!(d.frame_ownership(base.frame_number()).is_none());
    }

    #[test]
    fn partial_scrub_keeps_frame_ownership() {
        let mut d = dram();
        let owner = OwnerTag::new(7);
        let base = d.config().base();
        d.fill(base, PAGE_SIZE, 0xFF, owner).unwrap();
        // Scrub only half the frame: data cleared, but the frame is still
        // attributed (it still holds the other half of the owner's bytes).
        d.scrub_range(base, PAGE_SIZE / 2).unwrap();
        assert_eq!(d.read_u8(base).unwrap(), 0);
        assert_eq!(d.read_u8(base + PAGE_SIZE - 1).unwrap(), 0xFF);
        assert!(d.frame_ownership(base.frame_number()).is_some());
    }

    #[test]
    fn zero_length_fill_and_scrub_are_rejected() {
        let mut d = dram();
        let base = d.config().base();
        assert!(matches!(
            d.fill(base, 0, 0xFF, OwnerTag::new(1)),
            Err(DramError::EmptyRange { .. })
        ));
        assert!(matches!(
            d.scrub_range(base, 0),
            Err(DramError::EmptyRange { .. })
        ));
        // Nothing was recorded for the rejected calls.
        assert_eq!(d.stats().bytes_written(), 0);
        assert_eq!(d.stats().bytes_scrubbed(), 0);
        assert_eq!(d.materialized_frames(), 0);
    }

    #[test]
    fn end_before_start_ranges_are_rejected() {
        // A caller computing `len = end - start` with wrapped arithmetic gets
        // a huge length; the window check must reject it rather than scrub an
        // unintended span.
        let mut d = dram();
        let start = d.config().base() + PAGE_SIZE;
        let wrapped = (0u64).wrapping_sub(PAGE_SIZE); // "end - start" underflow
        assert!(matches!(
            d.scrub_range(start, wrapped),
            Err(DramError::OutOfRange { .. }) | Err(DramError::LengthOverflow { .. })
        ));
        assert!(matches!(
            d.fill(start, wrapped, 0xAB, OwnerTag::new(1)),
            Err(DramError::OutOfRange { .. }) | Err(DramError::LengthOverflow { .. })
        ));
        // A length that overflows the address space itself.
        assert!(matches!(
            d.scrub_range(start, u64::MAX),
            Err(DramError::LengthOverflow { .. })
        ));
    }

    #[test]
    fn empty_bulk_copies_remain_harmless_noops() {
        // The bulk read/write paths (one shard lookup per touched stripe)
        // accept zero-length buffers: reading or writing nothing is
        // well-defined and callers (page loops) reach it naturally at range
        // edges.
        let mut d = dram();
        let base = d.config().base();
        d.write_bytes(base, &[], OwnerTag::new(1)).unwrap();
        let mut empty: [u8; 0] = [];
        d.read_bytes(base, &mut empty).unwrap();
        assert_eq!(d.materialized_frames(), 0);
        assert!(d.frame_ownership(base.frame_number()).is_none());
        // At the last valid byte of the window, too.
        d.write_bytes(d.config().end() - 1, &[], OwnerTag::new(1))
            .unwrap();
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let mut d = dram();
        let base = d.config().base();
        d.write_bytes(base, &[1, 2, 3], OwnerTag::new(1)).unwrap();
        d.scrub_range(base, 3).unwrap();
        assert_eq!(d.stats().bytes_written(), 3);
        assert_eq!(d.stats().bytes_scrubbed(), 3);
        d.reset_stats();
        assert_eq!(d.stats().bytes_written(), 0);
    }

    #[test]
    fn scrape_view_is_byte_identical_to_read_bytes() {
        let mut d = dram();
        let base = d.config().base();
        let data: Vec<u8> = (0..6 * PAGE_SIZE + 991).map(|i| (i % 255) as u8).collect();
        d.write_bytes(base + 17, &data, OwnerTag::new(3)).unwrap();
        let cases = [
            (0u64, 8 * PAGE_SIZE),
            (5, 3),
            (17, 4 * PAGE_SIZE + 100),
            (PAGE_SIZE - 1, 2),
            (123, 0),
        ];
        for (start, len) in cases {
            let mut owned = vec![0u8; len as usize];
            d.read_bytes(base + start, &mut owned).unwrap();
            let view = d.scrape_view(base + start, len).unwrap().unwrap();
            assert_eq!(view.len() as u64, len);
            assert_eq!(view.to_vec(), owned, "start={start} len={len}");
        }
        // The same range checks as the owned read apply.
        assert!(matches!(
            d.scrape_view(d.config().end(), 1),
            Err(DramError::OutOfRange { .. })
        ));
    }

    #[test]
    fn scrape_view_declines_under_decaying_remanence() {
        let mut d = dram();
        d.set_remanence(RemanenceModel::Exponential { half_life_ticks: 2 });
        let base = d.config().base();
        assert!(d.scrape_view(base, PAGE_SIZE).unwrap().is_none());
        d.set_remanence(RemanenceModel::Perfect);
        assert!(d.scrape_view(base, PAGE_SIZE).unwrap().is_some());
    }

    #[test]
    fn arena_memory_is_proportional_to_touched_stripes() {
        // A dense 64 KiB island in the 16 MiB window: the per-bank slabs
        // must cover (a slack multiple of) the island, not the window.
        let mut d = dram();
        let base = d.config().base();
        let island = 64 * 1024u64;
        d.fill(base + 4 * 1024 * 1024, island, 0xEE, OwnerTag::new(1))
            .unwrap();
        let arena = d.arena_bytes();
        assert!(arena >= island, "slabs must cover the written bytes");
        assert!(
            arena < d.config().capacity() / 16,
            "arena ({arena} B) must stay proportional to the touched region"
        );
        assert_eq!(
            d.materialized_stripes() as u64,
            island / d.stripe_bytes(),
            "presence counts exactly the written stripes"
        );
    }

    /// A device with decaying remanence, a retired victim and a live
    /// neighbour, for the decay-view tests below.
    fn decaying_dram(model: RemanenceModel) -> (Dram, PhysAddr, PhysAddr) {
        let mut d = dram();
        d.set_remanence(model);
        d.set_remanence_seed(0x5EED);
        let victim = OwnerTag::new(1391);
        let live = OwnerTag::new(77);
        let base = d.config().base();
        let neighbour = base + 4 * PAGE_SIZE;
        d.fill(base, 3 * PAGE_SIZE, 0xEE, victim).unwrap();
        d.fill(neighbour, PAGE_SIZE, 0xAB, live).unwrap();
        d.retire_owner(victim);
        (d, base, neighbour)
    }

    #[test]
    fn perfect_remanence_changes_nothing() {
        let (d, base, _) = decaying_dram(RemanenceModel::Perfect);
        let mut d = d;
        d.advance_remanence(1_000);
        assert_eq!(d.read_u8(base).unwrap(), 0xEE);
        let mut buf = vec![0u8; 3 * PAGE_SIZE as usize];
        d.read_bytes(base, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0xEE));
        assert_eq!(d.residue_decay(None).bits_flipped, 0);
        assert_eq!(d.residue_decay(None).survival_rate(), 1.0);
    }

    #[test]
    fn residue_decays_over_logical_ticks_but_live_data_never_does() {
        let (mut d, base, neighbour) =
            decaying_dram(RemanenceModel::Exponential { half_life_ticks: 2 });
        // At the moment of termination nothing has decayed yet.
        let mut before = vec![0u8; 3 * PAGE_SIZE as usize];
        d.read_bytes(base, &mut before).unwrap();
        assert!(before.iter().all(|&b| b == 0xEE));

        d.advance_remanence(4);
        let mut after = vec![0u8; 3 * PAGE_SIZE as usize];
        d.read_bytes(base, &mut after).unwrap();
        let survivors = after.iter().filter(|&&b| b != 0).count();
        assert!(survivors > 0, "some residue survives two half-lives");
        assert!(
            survivors < after.len(),
            "some residue decays after two half-lives"
        );
        // Decayed bytes read zero; surviving bytes read raw.
        assert!(after.iter().all(|&b| b == 0 || b == 0xEE));

        // The live neighbour is untouched at every tick.
        let mut live = vec![0u8; PAGE_SIZE as usize];
        d.read_bytes(neighbour, &mut live).unwrap();
        assert!(live.iter().all(|&b| b == 0xAB));

        // The raw store never mutated: ground-truth residue is still intact.
        assert_eq!(d.residue_bytes(), 3 * PAGE_SIZE);
        let decay = d.residue_decay(Some(OwnerTag::new(1391)));
        assert_eq!(decay.raw_bytes, 3 * PAGE_SIZE);
        assert_eq!(decay.surviving_bytes, survivors as u64);
        assert!(decay.bits_flipped > 0);
        assert!(decay.survival_rate() < 1.0);
    }

    #[test]
    fn decay_is_monotone_and_creates_no_bits() {
        let (mut d, base, _) = decaying_dram(RemanenceModel::BitFlip { rate_ppm: 150_000 });
        let len = 3 * PAGE_SIZE as usize;
        let mut previous = vec![0u8; len];
        d.read_bytes(base, &mut previous).unwrap();
        for _ in 0..5 {
            d.advance_remanence(3);
            let mut now = vec![0u8; len];
            d.read_bytes(base, &mut now).unwrap();
            for (n, p) in now.iter().zip(&previous) {
                assert_eq!(n & p, *n, "bits only ever discharge");
            }
            previous = now;
        }
    }

    #[test]
    fn rewriting_residue_resets_its_decay_epoch() {
        let (mut d, base, _) = decaying_dram(RemanenceModel::Exponential { half_life_ticks: 1 });
        d.advance_remanence(64);
        // Long after termination everything has decayed away...
        assert_eq!(d.residue_decay(None).surviving_bytes, 0);
        // ...but a new owner writing the frame gets its own data back raw,
        // and a fresh retirement decays from the *new* origin, not the old.
        let successor = OwnerTag::new(2000);
        d.fill(base, PAGE_SIZE, 0xC4, successor).unwrap();
        assert_eq!(d.read_u8(base).unwrap(), 0xC4);
        d.retire_owner(successor);
        assert_eq!(d.read_u8(base).unwrap(), 0xC4, "no ticks elapsed yet");
        let fresh = d.residue_decay(Some(successor));
        assert_eq!(fresh.surviving_bytes, fresh.raw_bytes);
    }

    #[test]
    fn decay_epoch_resets_even_when_stripes_are_larger_than_frames() {
        // Regression: with a row larger than a page (stripe > frame), the
        // decay state used to be keyed per stripe and the stale origin of a
        // long-dead victim was never cleared when a successor re-owned the
        // frame — so the successor's *fresh* residue read as fully decayed.
        // Decay state is granule-keyed (stripe clipped to a frame), making
        // the epoch reset exact in every geometry.
        use crate::config::DdrGeometry;
        let config = DramConfig::custom(
            PhysAddr::new(0x6_0000_0000),
            8 * 1024 * 1024,
            DdrGeometry {
                column_bits: 13, // 8 KiB rows: one stripe spans two frames
                bank_bits: 1,
                bank_group_bits: 1,
                row_bits: 8,
                rank_bits: 0,
            },
        );
        let mut d = Dram::new(config);
        assert!(d.stripe_bytes() > PAGE_SIZE);
        d.set_remanence(RemanenceModel::Exponential { half_life_ticks: 1 });
        d.set_remanence_seed(7);
        let base = d.config().base();
        let victim = OwnerTag::new(1391);
        d.fill(base, 2 * PAGE_SIZE, 0xEE, victim).unwrap();
        d.retire_owner(victim);
        d.advance_remanence(64);
        assert_eq!(d.residue_decay(None).surviving_bytes, 0);

        // A successor re-owns only the stripe's first frame and terminates
        // immediately: its residue must read fully intact (fresh epoch)...
        let successor = OwnerTag::new(2000);
        d.fill(base, PAGE_SIZE, 0xC4, successor).unwrap();
        d.retire_owner(successor);
        assert_eq!(d.read_u8(base).unwrap(), 0xC4);
        let fresh = d.residue_decay(Some(successor));
        assert_eq!(fresh.surviving_bytes, fresh.raw_bytes);
        assert_eq!(fresh.raw_bytes, PAGE_SIZE);
        // ...while the victim's other frame in the same stripe keeps its old
        // epoch and stays decayed away.
        assert_eq!(d.residue_decay(Some(victim)).surviving_bytes, 0);
        assert_eq!(d.read_u8(base + PAGE_SIZE).unwrap(), 0);
    }

    #[test]
    fn scrubbing_residue_clears_its_decay_state() {
        let (mut d, base, _) = decaying_dram(RemanenceModel::BitFlip { rate_ppm: 500_000 });
        d.advance_remanence(2);
        assert!(d.residue_decay(None).bits_flipped > 0);
        d.scrub_range(base, 3 * PAGE_SIZE).unwrap();
        let after = d.residue_decay(None);
        assert_eq!(after, ResidueDecay::default());
        assert_eq!(after.survival_rate(), 1.0);
    }

    #[test]
    fn remanence_accessors_and_defaults() {
        let mut d = dram();
        assert_eq!(d.remanence(), RemanenceModel::Perfect);
        assert_eq!(d.remanence_tick(), 0);
        d.set_remanence(RemanenceModel::Exponential { half_life_ticks: 9 });
        d.advance_remanence(3);
        d.advance_remanence(4);
        assert_eq!(
            d.remanence(),
            RemanenceModel::Exponential { half_life_ticks: 9 }
        );
        assert_eq!(d.remanence_tick(), 7);
    }

    #[test]
    fn owner_tag_display_and_conversion() {
        let tag = OwnerTag::from(42u32);
        assert_eq!(tag.as_u32(), 42);
        assert_eq!(tag.to_string(), "owner:42");
    }

    #[test]
    fn frame_ownership_outside_window_is_none() {
        let d = dram();
        assert!(d.frame_ownership(FrameNumber::new(0)).is_none());
    }

    proptest! {
        #[test]
        fn prop_write_read_roundtrip(offset in 0u64..(16*1024*1024 - 64), data in proptest::collection::vec(any::<u8>(), 1..64)) {
            let mut d = dram();
            let addr = d.config().base() + offset;
            d.write_bytes(addr, &data, OwnerTag::new(1)).unwrap();
            let mut back = vec![0u8; data.len()];
            d.read_bytes(addr, &mut back).unwrap();
            prop_assert_eq!(back, data);
        }

        #[test]
        fn prop_u32_roundtrip_little_endian(offset in (0u64..(16*1024*1024/4 - 1)).prop_map(|o| o * 4), value in any::<u32>()) {
            let mut d = dram();
            let addr = d.config().base() + offset;
            d.write_u32(addr, value, OwnerTag::new(1)).unwrap();
            prop_assert_eq!(d.read_u32(addr).unwrap(), value);
            // Byte-level view agrees with LE encoding.
            let mut bytes = [0u8; 4];
            d.read_bytes(addr, &mut bytes).unwrap();
            prop_assert_eq!(bytes, value.to_le_bytes());
        }

        /// A decayed bulk read is byte-identical to reading each byte on
        /// its own, and to `cell_hash` applied per byte, whatever range it
        /// covers: the stripe half of the hash is hoisted per chunk, so
        /// every chunk start and stripe seam must compose to the same draws.
        #[test]
        fn prop_decayed_bulk_read_matches_per_byte_draws(
            start in 0u64..(3 * PAGE_SIZE),
            len in 1u64..2048,
            ticks in 1u64..12,
            bitflip in any::<bool>(),
        ) {
            let model = if bitflip {
                RemanenceModel::BitFlip { rate_ppm: 200_000 }
            } else {
                RemanenceModel::Exponential { half_life_ticks: 3 }
            };
            let (mut d, base, _) = decaying_dram(model);
            d.advance_remanence(ticks);
            let addr = base + start;
            let len = len.min(5 * PAGE_SIZE - start);
            let mut bulk = vec![0u8; len as usize];
            d.read_bytes(addr, &mut bulk).unwrap();
            let curve = model.curve(ticks);
            for (i, &byte) in bulk.iter().enumerate() {
                let at = addr + i as u64;
                prop_assert_eq!(d.read_u8(at).unwrap(), byte);
                let rel = at.offset_from(base);
                let expected = if rel < 3 * PAGE_SIZE {
                    let sb = d.stripe_bytes();
                    curve.apply(0xEE, crate::remanence::cell_hash(0x5EED, rel / sb, rel % sb))
                } else if rel >= 4 * PAGE_SIZE {
                    0xAB
                } else {
                    0
                };
                prop_assert_eq!(byte, expected, "offset {}", rel);
            }
        }

        /// The in-place frame count over stripe slices equals a count of the
        /// frame read back, whether a stripe is smaller than a page (the
        /// tiny board) or spans two frames (8 KiB rows).
        #[test]
        fn prop_frame_nonzero_bytes_counts_the_frame_read_back(
            offsets in proptest::collection::vec(0u64..(4 * PAGE_SIZE), 0..6),
            lens in proptest::collection::vec(1u64..700, 6..7),
            data in proptest::collection::vec(any::<u8>(), 700..701),
            wide_rows in any::<bool>(),
        ) {
            let config = if wide_rows {
                DramConfig::custom(
                    PhysAddr::new(0x6_0000_0000),
                    8 * 1024 * 1024,
                    crate::config::DdrGeometry {
                        column_bits: 13, // 8 KiB rows: one stripe spans two frames
                        bank_bits: 1,
                        bank_group_bits: 1,
                        row_bits: 8,
                        rank_bits: 0,
                    },
                )
            } else {
                DramConfig::tiny_for_tests()
            };
            let mut d = Dram::new(config);
            let base = d.config().base();
            for (&offset, &len) in offsets.iter().zip(&lens) {
                d.write_bytes(base + offset, &data[..len as usize], OwnerTag::new(9)).unwrap();
            }
            for idx in 0..5 {
                let mut frame = vec![0u8; PAGE_SIZE as usize];
                d.read_bytes(base + idx * PAGE_SIZE, &mut frame).unwrap();
                let naive = frame.iter().filter(|&&b| b != 0).count() as u64;
                prop_assert_eq!(d.frame_nonzero_bytes(idx), naive, "frame {}", idx);
            }
        }

        #[test]
        fn prop_scrub_always_zeroes(offset in 0u64..(16*1024*1024 - 256), len in 1u64..256) {
            let mut d = dram();
            let addr = d.config().base() + offset;
            d.fill(addr, len, 0xEE, OwnerTag::new(3)).unwrap();
            d.scrub_range(addr, len).unwrap();
            let mut back = vec![0u8; len as usize];
            d.read_bytes(addr, &mut back).unwrap();
            prop_assert!(back.iter().all(|&b| b == 0));
        }
    }
}
