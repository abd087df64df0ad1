//! The DRAM device: byte-accurate storage plus residue (ownership) tracking.
//!
//! # One flat arena
//!
//! Storage is one grow-on-demand arena indexed by window offset, the way a
//! `devmem` sweep sees physical memory: a single `Vec<u8>` slab covering
//! the part of the window that has been written, plus a presence bitmap
//! over its *stripes* (one DRAM row, [`DdrMapping::stripe_bytes`] bytes).
//! A contiguous read ([`Dram::read_bytes`]), write, fill or scrub
//! ([`Dram::scrub_range`]) inside the span is one slice operation, and
//! [`Dram::scrape_view`] over an in-span range borrows one zero-copy
//! segment.  Bytes outside the span read as zero.
//!
//! The span grows geometrically toward a write that lands outside it.  A
//! slab of up to `IN_PLACE_BYTES` (16 MiB) grows upward by reallocation.  Any
//! other growth moves the slab into a fresh zeroed allocation, which the
//! allocator hands out as untouched, lazily committed pages, and copies
//! over only the stripes the presence bitmap marks as written: a wide span
//! over sparsely written memory (a randomized frame layout) costs address
//! space, not resident memory.
//!
//! The DDR geometry is kept only where the model needs it: the stripe is
//! the coordinate of the remanence draws ([`stripe_hash`]), and the
//! sanitizers map rows and banks through [`DdrMapping`].
//!
//! The arena is observationally identical to the flat frame map that
//! preceded it — same bytes, same ownership transitions, same
//! [`DramStats`] counters — which is pinned by the differential harness in
//! `tests/dram_sharding_equivalence.rs`.

// Lint audit: address arithmetic here is bounds-checked against the
// DRAM window before any narrowing cast or direct index; offsets are
// derived from validated window-relative coordinates.
#![allow(clippy::cast_possible_truncation, clippy::indexing_slicing)]

use std::collections::{HashMap, HashSet};
use std::fmt;

use crate::addr::{FrameNumber, PhysAddr, PAGE_SIZE};
use crate::config::DramConfig;
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

/// Largest slab that grows upward in place; larger ones move into a fresh
/// zeroed (lazily committed) allocation that receives only written stripes.
const IN_PLACE_BYTES: u64 = 16 << 20;

/// The backing store: one slab holding window offsets
/// `[lo, lo + slab.len())`, grown (never shrunk) when a write lands outside
/// it.  Both ends of the span are multiples of `align`, the larger of a
/// stripe and a page, so every stripe and every frame lies wholly inside or
/// wholly outside it.
#[derive(Debug, Clone)]
struct Arena {
    slab: Vec<u8>,
    /// Window offset of `slab[0]`.
    lo: u64,
    /// Bytes per stripe, the unit of the presence bitmap.
    stripe_bytes: u64,
    /// Granule of the span's ends.
    align: u64,
    /// The window capacity rounded up to `align`; clamps geometric growth.
    bound: u64,
    /// Presence bitmap over the span: bit `i` means stripe
    /// `lo / stripe_bytes + i` has been *written* at least once.  Scrubs
    /// zero bytes but never clear bits.
    present: Vec<u64>,
    /// Number of set bits in `present`.
    present_count: usize,
}

impl Arena {
    fn new(stripe_bytes: u64, capacity: u64) -> Self {
        let align = stripe_bytes.max(PAGE_SIZE);
        Arena {
            slab: Vec::new(),
            lo: 0,
            stripe_bytes,
            align,
            bound: capacity.next_multiple_of(align),
            present: Vec::new(),
            present_count: 0,
        }
    }

    /// One past the last window offset of the span.
    fn hi(&self) -> u64 {
        self.lo + self.slab.len() as u64
    }

    /// The part of `[rel, rel + len)` inside the span, as window offsets
    /// `[a, b)`; `None` when the two do not meet.
    fn clip(&self, rel: u64, len: u64) -> Option<(u64, u64)> {
        let (a, b) = (rel.max(self.lo), (rel + len).min(self.hi()));
        (a < b).then_some((a, b))
    }

    /// Borrows window offsets `[a, b)`, which must lie inside the span.
    fn bytes(&self, a: u64, b: u64) -> &[u8] {
        &self.slab[(a - self.lo) as usize..(b - self.lo) as usize]
    }

    /// Borrows `[rel, rel + len)` if the span covers it.
    fn get(&self, rel: u64, len: u64) -> Option<&[u8]> {
        (self.clip(rel, len) == Some((rel, rel + len))).then(|| self.bytes(rel, rel + len))
    }

    /// Copies `[rel, rel + buf.len())` into `buf`, zeros outside the span.
    fn read(&self, rel: u64, buf: &mut [u8]) {
        let Some((a, b)) = self.clip(rel, buf.len() as u64) else {
            buf.fill(0);
            return;
        };
        let (from, to) = ((a - rel) as usize, (b - rel) as usize);
        buf[..from].fill(0);
        buf[from..to].copy_from_slice(self.bytes(a, b));
        buf[to..].fill(0);
    }

    /// Mutably borrows `[rel, rel + len)`, growing the span to cover it and
    /// marking its stripes written.
    fn write(&mut self, rel: u64, len: u64) -> &mut [u8] {
        if len == 0 {
            return &mut [];
        }
        self.cover(rel, rel + len);
        let (from, to) = (rel - self.lo, rel + len - self.lo);
        for index in from / self.stripe_bytes..to.div_ceil(self.stripe_bytes) {
            let (word, bit) = (&mut self.present[index as usize / 64], 1u64 << (index % 64));
            if *word & bit == 0 {
                *word |= bit;
                self.present_count += 1;
            }
        }
        &mut self.slab[from as usize..to as usize]
    }

    /// Zeroes the part of `[rel, rel + len)` inside the span; the rest is
    /// zero already.
    fn zero(&mut self, rel: u64, len: u64) {
        if let Some((a, b)) = self.clip(rel, len) {
            self.slab[(a - self.lo) as usize..(b - self.lo) as usize].fill(0);
        }
    }

    /// Grows the span to cover window offsets `[from, to)`, with geometric
    /// over-growth on each side being extended (so a sweep of scattered
    /// writes costs O(log n) reallocations), clamped to the window.
    fn cover(&mut self, from: u64, to: u64) {
        let from = from - from % self.align;
        let to = to.next_multiple_of(self.align);
        if self.slab.is_empty() {
            self.lo = from;
            self.grow(from, to);
            return;
        }
        let (lo, hi) = (self.lo, self.hi());
        if from >= lo && to <= hi {
            return;
        }
        let span = hi - lo;
        let new_lo = if from < lo {
            from.saturating_sub(span)
        } else {
            lo
        };
        let new_hi = if to > hi {
            (to + span).min(self.bound)
        } else {
            hi
        };
        if new_lo == lo && new_hi - lo <= IN_PLACE_BYTES {
            // Upward growth of a small slab reallocates it, in place where
            // the allocator can, rather than holding two slabs at once.
            self.slab.resize((new_hi - lo) as usize, 0);
            let stripes = ((new_hi - lo) / self.stripe_bytes) as usize;
            self.present.resize(stripes.div_ceil(64), 0);
        } else {
            self.grow(new_lo, new_hi);
        }
    }

    /// Moves the slab to cover `[new_lo, new_hi)`: a fresh zeroed
    /// allocation that receives only the written stripes (and their
    /// presence bits), so the pages of never-written stripes stay
    /// uncommitted.
    fn grow(&mut self, new_lo: u64, new_hi: u64) {
        let sb = self.stripe_bytes as usize;
        let shift = ((self.lo - new_lo) / self.stripe_bytes) as usize;
        let stripes = ((new_hi - new_lo) / self.stripe_bytes) as usize;
        let mut slab = vec![0u8; (new_hi - new_lo) as usize];
        let mut present = vec![0u64; stripes.div_ceil(64)];
        for (w, &word) in self.present.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let old = w * 64 + bits.trailing_zeros() as usize;
                let new = old + shift;
                bits &= bits - 1;
                present[new / 64] |= 1 << (new % 64);
                slab[new * sb..(new + 1) * sb]
                    .copy_from_slice(&self.slab[old * sb..(old + 1) * sb]);
            }
        }
        self.slab = slab;
        self.present = present;
        self.lo = new_lo;
    }
}

/// The simulated DRAM device.
///
/// Storage is sparse: the arena covers only the span that has been
/// written, so a 2 GiB window costs memory proportional to the bytes
/// actually touched.
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
    arena: Arena,
    /// Frames that have been materialized (written at least once).
    materialized: HashSet<u64>,
    ownership: HashMap<u64, FrameOwnership>,
    /// Remanence decay origins: for each decay granule (one DRAM row
    /// clipped to a frame — see [`Dram::decay_granule_bytes`]) currently
    /// holding residue, the logical tick at which its owner terminated.
    /// Empty — and never consulted — under [`RemanenceModel::Perfect`].
    decay_origins: HashMap<u64, u64>,
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
        Dram {
            config,
            arena: Arena::new(DdrMapping::new(config).stripe_bytes(), config.capacity()),
            materialized: HashSet::new(),
            ownership: HashMap::new(),
            decay_origins: HashMap::new(),
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

    /// Bytes per stripe (one DRAM row): the coordinate of the remanence
    /// draws and the unit in which the arena records written memory.
    pub fn stripe_bytes(&self) -> u64 {
        self.arena.stripe_bytes
    }

    /// Number of stripes written at least once.
    pub fn materialized_stripes(&self) -> usize {
        self.arena.present_count
    }

    /// Bytes of address space the arena spans.
    ///
    /// This measures the *virtual* extent of the span — growth allocates
    /// fresh zeroed (lazily committed) memory and copies only written
    /// stripes, so the resident cost tracks the bytes actually written —
    /// and is what the sparse-window equivalence test pins as proportional
    /// to the touched region rather than the window size.
    pub fn arena_bytes(&self) -> u64 {
        self.arena.slab.len() as u64
    }

    fn frame_index(&self, addr: PhysAddr) -> u64 {
        addr.offset_from(self.config.base()) / PAGE_SIZE
    }

    /// Bytes per decay granule: one DRAM row clipped to a frame.  Residue
    /// transitions (termination, re-ownership, scrubbing) are frame-granular
    /// and the stripe is the coordinate of the decay draws, so the granule
    /// — the largest block contained in exactly one frame *and* one stripe
    /// — is the exact granularity at which decay epochs can open and close.
    /// On the real geometries (row ≤ page) this is simply the stripe; only
    /// the synthetic stripe-larger-than-page test geometries clip it.
    fn decay_granule_bytes(&self) -> u64 {
        self.stripe_bytes().min(PAGE_SIZE)
    }

    /// Global decay-granule indices covering frame `idx` (each granule lies
    /// entirely inside the frame — both are powers of two).
    fn frame_decay_granules(&self, idx: u64) -> std::ops::Range<u64> {
        let g = self.decay_granule_bytes();
        (idx * PAGE_SIZE / g)..((idx + 1) * PAGE_SIZE / g)
    }

    /// Records the residue origin of every decay granule of frame `idx`
    /// (called when the frame's owner terminates).  Granules are contained
    /// in the frame, so the frame's termination tick *is* their epoch —
    /// including when an earlier epoch's stale record is being replaced
    /// after the frame was re-owned and retired again.
    fn stamp_decay_origins(&mut self, idx: u64) {
        let tick = self.remanence_tick;
        for granule in self.frame_decay_granules(idx) {
            self.decay_origins.insert(granule, tick);
        }
    }

    /// Drops the decay origins of frame `idx`'s granules (called when the
    /// frame stops being residue: re-owned by a live writer or scrubbed
    /// clean).  Exact in every geometry, since a granule never straddles
    /// frames.
    fn clear_decay_origins(&mut self, idx: u64) {
        for granule in self.frame_decay_granules(idx) {
            self.decay_origins.remove(&granule);
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
        let sb = self.stripe_bytes();
        let granule_bytes = self.decay_granule_bytes();
        let now = self.remanence_tick;
        let (mut curves, mut hashes, mut masks) = (Vec::new(), Vec::new(), Vec::new());
        let mut pos = 0usize;
        while pos < len {
            let rel = start + pos as u64;
            let chunk = (PAGE_SIZE - rel % PAGE_SIZE)
                .min(sb - rel % sb)
                .min((len - pos) as u64);
            let residue = self
                .ownership
                .get(&(rel / PAGE_SIZE))
                .is_some_and(|rec| !rec.live);
            let origin = self
                .decay_origins
                .get(&(rel / granule_bytes))
                .filter(|_| residue);
            if let (Some(&origin), Some(raw)) = (origin, self.arena.get(rel, chunk)) {
                curves.clear();
                curves.extend(
                    (now..)
                        .take(ticks)
                        .map(|tick| self.remanence.curve(tick.saturating_sub(origin))),
                );
                if !curves.iter().all(DecayCurve::is_identity) {
                    let stripe_draw = stripe_hash(self.remanence_seed, rel / sb);
                    decay_masks(raw, stripe_draw, rel % sb, &curves, &mut hashes, &mut masks);
                    apply(pos, raw, &masks);
                }
            }
            pos += chunk as usize;
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

    /// The raw (pre-decay) bulk read: one copy out of the arena.
    fn read_bytes_unchecked(&self, addr: PhysAddr, buf: &mut [u8]) {
        self.arena.read(addr.offset_from(self.config.base()), buf);
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
    /// out of the arena: no bytes are copied, the in-span part is one
    /// borrowed segment, and the rest aliases a shared static zero chunk.
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
        let rel = addr.offset_from(self.config.base());
        let mut view = ScrapeView::with_unit(PAGE_SIZE as usize);
        let tail = match self.arena.clip(rel, len) {
            None => len,
            Some((a, b)) => {
                if a == rel {
                    view.set_head(self.arena.bytes(a, b));
                } else {
                    // Zeros up to the span, which starts on a page boundary,
                    // then the in-span bytes page by page to keep the grid.
                    let head = (PAGE_SIZE - rel % PAGE_SIZE).min(a - rel);
                    view.set_head(zero_chunk(head as usize));
                    view.push_zeros((a - rel - head) as usize);
                    for page in self.arena.bytes(a, b).chunks(PAGE_SIZE as usize) {
                        view.push_chunk(page);
                    }
                }
                rel + len - b
            }
        };
        view.push_zeros(tail as usize);
        Ok(Some(view))
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
        self.write_bytes(addr, &[value], owner)
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
        let rel = addr.offset_from(self.config.base());
        self.arena
            .write(rel, data.len() as u64)
            .copy_from_slice(data);
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
        let rel = addr.offset_from(self.config.base());
        self.arena.write(rel, len).fill(byte);
        self.tag_written_frames(addr, len, owner);
        self.stats.record_write(len);
        Ok(())
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
        self.arena.zero(addr.offset_from(self.config.base()), len);
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

    /// The stored bytes of frame `idx`, borrowed from the arena; `None`
    /// when the frame lies outside the span (it reads as zero).
    fn frame_bytes(&self, idx: u64) -> Option<&[u8]> {
        self.arena.get(idx * PAGE_SIZE, PAGE_SIZE)
    }

    /// Non-zero bytes of frame `idx`, counted in place, with no copy.
    fn frame_nonzero_bytes(&self, idx: u64) -> u64 {
        self.frame_bytes(idx).map_or(0, nonzero_bytes)
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
            if let Some(raw) = self.frame_bytes(idx) {
                decay.tally(raw, seen);
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
        // A write spanning several stripes of different banks reads back
        // bit-exactly.
        let mut d = dram();
        let owner = OwnerTag::new(9);
        let sb = d.stripe_bytes();
        let addr = d.config().base() + sb - 5;
        let data: Vec<u8> = (0..(3 * sb + 10)).map(|i| (i % 251) as u8 + 1).collect();
        d.write_bytes(addr, &data, owner).unwrap();
        let mut back = vec![0u8; data.len()];
        d.read_bytes(addr, &mut back).unwrap();
        assert_eq!(back, data);
        // The stripes really are distributed over more than one bank.
        let mapping = DdrMapping::new(*d.config());
        let rel = addr.offset_from(d.config().base());
        let mut banks: Vec<u64> = (rel / sb..=(rel + data.len() as u64 - 1) / sb)
            .map(|stripe| mapping.bank_of_stripe(stripe))
            .collect();
        banks.sort_unstable();
        banks.dedup();
        assert!(banks.len() > 1, "expected multiple banks, got {banks:?}");
        assert!(d.materialized_stripes() >= 4);
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
        fn check(d: &Dram, start: u64, len: u64) {
            let mut owned = vec![0u8; len as usize];
            d.read_bytes(d.config().base() + start, &mut owned).unwrap();
            let view = d
                .scrape_view(d.config().base() + start, len)
                .unwrap()
                .unwrap();
            assert_eq!(view.len() as u64, len);
            assert_eq!(view.to_vec(), owned, "start={start} len={len}");
        }
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
            check(&d, start, len);
        }
        // An in-span range is one borrowed segment.
        let view = d.scrape_view(base + 17, 4 * PAGE_SIZE).unwrap().unwrap();
        assert_eq!(view.segments().count(), 1);

        // Ranges straddling the arena's low and high edges and the window
        // end, with the span `[5, 8)` pages and the window's last page.
        let mut d = dram();
        let capacity = d.config().capacity();
        d.write_bytes(
            base + 5 * PAGE_SIZE + 100,
            &data[..2 * PAGE_SIZE as usize],
            OwnerTag::new(4),
        )
        .unwrap();
        d.write_bytes(d.config().end() - 50, &data[..50], OwnerTag::new(4))
            .unwrap();
        let cases = [
            (4 * PAGE_SIZE + 7, 2 * PAGE_SIZE),
            (7 * PAGE_SIZE + 9, 3 * PAGE_SIZE),
            (3 * PAGE_SIZE + 1, 6 * PAGE_SIZE),
            (5 * PAGE_SIZE, 3 * PAGE_SIZE),
            (capacity - 3 * PAGE_SIZE - 1, 3 * PAGE_SIZE + 1),
            (capacity - 60, 60),
        ];
        for (start, len) in cases {
            check(&d, start, len);
        }
        // Per-page views stitch into the heap-order concatenation.
        let pages = [6u64, 2, 7, 5, capacity / PAGE_SIZE - 1];
        let mut stitched = ScrapeView::with_unit(PAGE_SIZE as usize);
        let mut owned = Vec::new();
        for page in pages {
            let addr = base + page * PAGE_SIZE;
            stitched.append(d.scrape_view(addr, PAGE_SIZE).unwrap().unwrap());
            let mut frame = vec![0u8; PAGE_SIZE as usize];
            d.read_bytes(addr, &mut frame).unwrap();
            owned.extend_from_slice(&frame);
        }
        assert_eq!(stitched.to_vec(), owned);
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
        // A dense 64 KiB island in the 16 MiB window: the arena must cover
        // (a slack multiple of) the island, not the window.
        let mut d = dram();
        let base = d.config().base();
        let island = 64 * 1024u64;
        d.fill(base + 4 * 1024 * 1024, island, 0xEE, OwnerTag::new(1))
            .unwrap();
        let arena = d.arena_bytes();
        assert!(arena >= island, "the arena must cover the written bytes");
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
