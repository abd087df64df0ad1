//! Decay-tolerant reconstruction: recovering signal a single exact-matching
//! pass writes off.
//!
//! The remanence axis ([`zynq_dram::RemanenceModel`]) degrades residue by
//! clearing bits — whole bytes under `Exponential`, individual bits under
//! `BitFlip` — and the exact-matching analysis loses the victim the moment a
//! single signature byte or image row is touched.  The paper's attacker (and
//! Pentimento's) instead accumulates weak analog signals across repeated
//! reads.  This module implements that accumulation as three cooperating
//! recoverers:
//!
//! 1. **Snapshot fusion** ([`fuse_snapshots`]): the same physical range is
//!    scraped N times across revival windows and OR-fused per bit.  Decay
//!    only ever *clears* bits, so the fusion is sound — a set bit in any
//!    snapshot was a set bit in the raw residue.
//! 2. **Fuzzy model identification** ([`fuzzy_identify_view`]): signature
//!    strings are scored by bit-level consistency instead of exact equality,
//!    so [`crate::SignatureDb`] still names the model after decay has clipped
//!    bits out of the library-path strings.  Every pattern of the database is
//!    compiled once, next to its exact-match automaton, into one
//!    bit-parallel Shift-And automaton (Baeza-Yates–Gonnet, the `agrep`
//!    automaton): a single pass over the view's segments, carrying its state
//!    across every seam, finds the windows consistent with some pattern, and
//!    only those are scored.  A *kill byte*, a bit subset of no pattern byte
//!    (every byte >= 0x80 for ASCII patterns), zeroes the state, so the pass
//!    skips the state update for it.  The match distance is threaded into
//!    [`ModelMatch::fuzzy_distance`].
//! 3. **Entropy-guided image repair** ([`entropy_image_offset`],
//!    [`repair_image`]): entropy region classes locate the image run when
//!    neither profile nor marker offset survives, and flipped pixels are
//!    interpolated from their neighbors before `recovery_rate` scoring.  The
//!    repair decides eight bytes of a `u64` at once with byte-lane (SWAR)
//!    arithmetic and iterates to a fixpoint over a dirty set: after one
//!    full pass, only bytes that changed and their same-channel neighbors
//!    are revisited.

use vitis_ai_sim::Image;
use zynq_dram::ScrapeView;

use crate::analysis::entropy::{classify_regions_view, RegionClass, DEFAULT_WINDOW};
use crate::signature::{ModelMatch, SignatureDb};

/// Minimum number of exactly-surviving non-zero pattern bytes a fuzzy window
/// must contain: consistency alone is too weak (an all-zero window is
/// consistent with everything).
pub const MIN_EXACT_BYTES: usize = 4;

/// Minimum fraction of the pattern's set bits that must survive in the
/// window for a fuzzy match to count.
pub const MIN_BIT_EVIDENCE: f64 = 0.35;

/// Maximum neighbor-interpolation passes [`repair_image`] runs before giving
/// up on reaching a fixpoint.
const MAX_REPAIR_PASSES: usize = 4;

/// OR-fuses N snapshots of the same physical range into one byte vector.
///
/// Sound under every shipped decay model: [`zynq_dram::RemanenceModel`] decay
/// only ever clears bits, so any bit set in any snapshot was genuinely set in
/// the raw residue.  The fused byte is therefore a bitwise superset of every
/// individual snapshot and a subset of the undecayed residue.
///
/// The result has the length of the longest snapshot; shorter snapshots
/// contribute zeros past their end.  An empty slice fuses to an empty vector.
pub fn fuse_snapshots(snapshots: &[Vec<u8>]) -> Vec<u8> {
    let len = snapshots.iter().map(Vec::len).max().unwrap_or(0);
    let mut fused = vec![0u8; len];
    for snapshot in snapshots {
        for (acc, byte) in fused.iter_mut().zip(snapshot) {
            *acc |= byte;
        }
    }
    fused
}

/// Scores `pattern` against every window of `bytes` with decay-aware
/// consistency, returning the best (smallest) match distance found.
///
/// A window byte `w` is *consistent* with a pattern byte `p` when
/// `w & !p == 0` — every surviving bit agrees, and missing bits are treated
/// as erasures (decay clears bits, never sets them).  A window qualifies
/// when it is consistent throughout, keeps at least [`MIN_EXACT_BYTES`]
/// non-zero pattern bytes fully intact, and retains at least
/// [`MIN_BIT_EVIDENCE`] of the pattern's set bits.  The distance is the
/// fraction of pattern bits missing from the window (0.0 = exact match).
///
/// This is the one-pattern case of the scan [`fuzzy_identify_view`] runs.
pub fn fuzzy_scan(bytes: &[u8], pattern: &[u8]) -> Option<f64> {
    ShiftAnd::new([pattern])
        .best_distances(&ScrapeView::from_slice(bytes))
        .pop()
        .flatten()
}

/// One window's decay-aware score against the pattern (see [`fuzzy_scan`]).
fn score_window(window: &[u8], pattern: &[u8]) -> Option<f64> {
    let mut exact_nonzero = 0usize;
    let mut surviving_bits = 0u32;
    let mut total_bits = 0u32;
    for (&w, &p) in window.iter().zip(pattern) {
        if w & !p != 0 {
            return None;
        }
        if w == p && p != 0 {
            exact_nonzero += 1;
        }
        surviving_bits += (w & p).count_ones();
        total_bits += p.count_ones();
    }
    let evidence = f64::from(surviving_bits) / f64::from(total_bits);
    if exact_nonzero < MIN_EXACT_BYTES || evidence < MIN_BIT_EVIDENCE {
        return None;
    }
    Some(1.0 - evidence)
}

/// A set of patterns compiled into one bit-parallel Shift-And automaton
/// (Baeza-Yates–Gonnet) for the decay-aware consistency test of
/// [`fuzzy_scan`].
///
/// The patterns are packed end to end into a state of `words` `u64` words:
/// byte `j` of a pattern is one bit, and the shift carries from word to
/// word.  Bit `j` of `B[w]` is set when byte `w` is a bitwise subset of
/// pattern byte `j` (`w & !p_j == 0`), so after the update
/// `D = ((D << 1) | starts) & B[w]` bit `j` says "the last `j + 1` bytes are
/// consistent with the pattern's first `j + 1`".  A pattern's last bit
/// marks a consistent window; only those windows (with at least
/// [`MIN_EXACT_BYTES`] non-zero bytes) reach [`score_window`].  Empty and
/// all-zero patterns are not packed: they never match.
#[derive(Clone)]
pub(crate) struct ShiftAnd {
    /// The patterns as given, indexed like [`ShiftAnd::best_distances`].
    patterns: Vec<Box<[u8]>>,
    /// State words; zero when no pattern is packed.
    words: usize,
    /// `table[w * words..(w + 1) * words]` is `B[w]`.
    table: Vec<u64>,
    /// The bit of each packed pattern's first byte.
    starts: Vec<u64>,
    /// The bit of each packed pattern's last byte.
    ends: Vec<u64>,
    /// Per state bit: the pattern whose last byte it is.
    owner: Vec<usize>,
    /// `kill[w]`: `B[w]` is all zero, i.e. byte `w` is a bit subset of no
    /// pattern byte (every byte >= 0x80 for ASCII patterns).  Such a byte
    /// clears the state and fires nothing.
    kill: [bool; 256],
    /// Length of the longest packed pattern.
    longest: usize,
}

impl ShiftAnd {
    /// Packs `patterns` and builds the 256-entry byte table.
    pub(crate) fn new<P: AsRef<[u8]>>(patterns: impl IntoIterator<Item = P>) -> ShiftAnd {
        let patterns: Vec<Box<[u8]>> = patterns.into_iter().map(|p| p.as_ref().into()).collect();
        let packed = |p: &[u8]| p.iter().any(|&b| b != 0);
        let bits: usize = patterns.iter().filter(|p| packed(p)).map(|p| p.len()).sum();
        let words = bits.div_ceil(64);
        let mut table = vec![0u64; 256 * words];
        let mut starts = vec![0u64; words];
        let mut ends = vec![0u64; words];
        let mut owner = vec![usize::MAX; words * 64];
        let set = |mask: &mut [u64], bit: usize| {
            if let Some(word) = mask.get_mut(bit / 64) {
                *word |= 1 << (bit % 64);
            }
        };
        let mut first = 0usize;
        let mut longest = 0usize;
        for (index, pattern) in patterns.iter().enumerate() {
            if !packed(pattern) {
                continue;
            }
            longest = longest.max(pattern.len());
            set(&mut starts, first);
            let last = first + pattern.len() - 1;
            set(&mut ends, last);
            if let Some(slot) = owner.get_mut(last) {
                *slot = index;
            }
            for (j, &p) in pattern.iter().enumerate() {
                // The bytes consistent with `p` are exactly its bit subsets;
                // walk them from `p` down to zero.
                let mut w = p;
                loop {
                    set(&mut table, usize::from(w) * words * 64 + first + j);
                    if w == 0 {
                        break;
                    }
                    w = (w - 1) & p;
                }
            }
            first = last + 1;
        }
        let mut kill = [false; 256];
        for (killed, row) in kill.iter_mut().zip(table.chunks_exact(words.max(1))) {
            *killed = row.iter().all(|&b| b == 0);
        }
        ShiftAnd {
            patterns,
            words,
            table,
            starts,
            ends,
            owner,
            kill,
            longest,
        }
    }

    /// The best (smallest) [`fuzzy_scan`] distance of every pattern over
    /// `view`, in one pass: entry `i` is pattern `i`'s, `None` when no
    /// window qualifies.
    ///
    /// The walk visits the view's segments in offset order and carries the
    /// automaton state, and the positions of the last [`MIN_EXACT_BYTES`]
    /// non-zero bytes, across every seam.  Once a zero run is as long as the
    /// longest pattern, the state is saturated and no window ending in the
    /// run holds a non-zero byte, so the rest of the run is skipped.  A kill
    /// byte (see [`ShiftAnd::kill`]) only zeroes the state, once per run of
    /// kill bytes, and ends the zero run.  It is left out of the recent
    /// non-zero bytes: no window holding it fires, so the count stays exact
    /// for every window that does.
    pub(crate) fn best_distances(&self, view: &ScrapeView<'_>) -> Vec<Option<f64>> {
        let mut best: Vec<Option<f64>> = vec![None; self.patterns.len()];
        if self.words == 0 {
            return best;
        }
        let mut state = vec![0u64; self.words];
        // The state is known to be all zero (after a kill byte).
        let mut dead = true;
        // Global offsets + 1 of the last non-zero, non-kill bytes (0 = none
        // yet); `recent[next]` is the oldest of them.
        let mut recent = [0usize; MIN_EXACT_BYTES];
        let mut next = 0usize;
        let mut zeros = 0usize;
        let mut pos = 0usize;
        let mut window = Vec::new();
        for segment in view.segments() {
            let mut bytes = segment.iter();
            while let Some(&byte) = bytes.next() {
                if self.kill.get(usize::from(byte)).copied().unwrap_or(false) {
                    if !dead {
                        state.fill(0);
                        dead = true;
                    }
                    zeros = 0;
                    pos += 1;
                    continue;
                }
                dead = false;
                let row = self
                    .table
                    .chunks_exact(self.words)
                    .nth(usize::from(byte))
                    .unwrap_or_default();
                let mut carry = 0u64;
                let mut fired = 0u64;
                for (((d, &b), &start), &end) in
                    state.iter_mut().zip(row).zip(&self.starts).zip(&self.ends)
                {
                    let shifted = (*d << 1) | carry | start;
                    carry = *d >> 63;
                    *d = shifted & b;
                    fired |= *d & end;
                }
                if byte == 0 {
                    zeros += 1;
                } else {
                    zeros = 0;
                    if let Some(slot) = recent.get_mut(next) {
                        *slot = pos + 1;
                    }
                    next = (next + 1) % MIN_EXACT_BYTES;
                }
                // A window of length `m` ending here and holding no kill
                // byte holds at least `MIN_EXACT_BYTES` non-zero bytes iff
                // `m >= need`.
                let oldest = recent.get(next).copied().unwrap_or(0);
                let need = pos + 2 - oldest;
                if fired != 0 && oldest != 0 && need <= self.longest {
                    self.score_ends(view, pos, need, &state, &mut best, &mut window);
                }
                pos += 1;
                if zeros >= self.longest {
                    let rest = bytes.as_slice();
                    let skip = rest.iter().position(|&b| b != 0).unwrap_or(rest.len());
                    bytes = rest.get(skip..).unwrap_or_default().iter();
                    pos += skip;
                    zeros += skip;
                }
            }
        }
        best
    }

    /// Scores every pattern whose consistent window ends at `pos` and is at
    /// least `need` bytes long, folding the distances into `best`.
    fn score_ends(
        &self,
        view: &ScrapeView<'_>,
        pos: usize,
        need: usize,
        state: &[u64],
        best: &mut [Option<f64>],
        window: &mut Vec<u8>,
    ) {
        for (w, (&d, &end)) in state.iter().zip(&self.ends).enumerate() {
            let mut fired = d & end;
            while fired != 0 {
                let bit = w * 64 + fired.trailing_zeros() as usize;
                fired &= fired - 1;
                let Some(&index) = self.owner.get(bit) else {
                    continue;
                };
                let (Some(pattern), Some(slot)) = (self.patterns.get(index), best.get_mut(index))
                else {
                    continue;
                };
                if pattern.len() < need || *slot == Some(0.0) {
                    continue;
                }
                let start = pos + 1 - pattern.len();
                let bytes = match view.try_borrow(start, pattern.len()) {
                    Some(bytes) => bytes,
                    None => {
                        window.resize(pattern.len(), 0);
                        view.copy_into(start, window);
                        window.as_slice()
                    }
                };
                if let Some(distance) = score_window(bytes, pattern) {
                    if slot.is_none_or(|b| distance < b) {
                        *slot = Some(distance);
                    }
                }
            }
        }
    }
}

/// The tables are a function of the patterns; print the patterns only.
impl std::fmt::Debug for ShiftAnd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShiftAnd")
            .field("patterns", &self.patterns.len())
            .field("words", &self.words)
            .finish_non_exhaustive()
    }
}

/// Decay-tolerant model identification: scores every signature in `db`
/// against the view with the [`fuzzy_scan`] test and returns the best match,
/// if any pattern still carries enough bit evidence.
///
/// One Shift-And pass over the view scores every pattern of the database
/// (see the module docs).  The returned match reports how many patterns
/// matched fuzzily (`hits`) and the mean match distance across them
/// ([`ModelMatch::fuzzy_distance`], `Some(0.0)` when the surviving fragments
/// were exact).  Ties are broken toward the smaller distance.
pub fn fuzzy_identify_view(view: &ScrapeView<'_>, db: &SignatureDb) -> Option<ModelMatch> {
    let mut best = db.fuzzy_automaton().best_distances(view).into_iter();
    let mut matches: Vec<ModelMatch> = db
        .signatures()
        .iter()
        .filter_map(|sig| {
            let distances: Vec<f64> = best.by_ref().take(sig.patterns.len()).flatten().collect();
            if distances.is_empty() {
                return None;
            }
            let mean = distances.iter().sum::<f64>() / distances.len() as f64;
            Some(ModelMatch {
                model: sig.model,
                hits: distances.len(),
                total_patterns: sig.patterns.len(),
                fuzzy_distance: Some(mean),
            })
        })
        .collect();
    matches.sort_by(|a, b| {
        b.confidence()
            .partial_cmp(&a.confidence())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| {
                a.fuzzy_distance
                    .partial_cmp(&b.fuzzy_distance)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
    });
    matches.into_iter().next()
}

/// Entropy-guided image location: the heap-relative offset of the longest
/// run of image-like windows (non-zero filler or structured data) big enough
/// to hold an `image_len`-byte image.
///
/// This is the last-resort offset source when decay has destroyed both the
/// profile match and the marker runs: an input image survives as a long
/// stretch of windows that are neither zero, text, nor high-entropy weights.
/// Returns `None` when no candidate run is long enough.
pub fn entropy_image_offset(view: &ScrapeView<'_>, image_len: usize) -> Option<u64> {
    let regions = classify_regions_view(view, DEFAULT_WINDOW);
    let image_like = |class: RegionClass| {
        matches!(
            class,
            RegionClass::Filler { value: _ } | RegionClass::Structured
        )
    };
    let mut best: Option<(u64, usize)> = None;
    let mut run: Option<(u64, usize)> = None;
    for region in &regions {
        if image_like(region.class) {
            let (_, len) = run.get_or_insert((region.offset, 0));
            *len += region.len;
        } else if let Some(candidate) = run.take() {
            if candidate.1 >= image_len && best.is_none_or(|b| candidate.1 > b.1) {
                best = Some(candidate);
            }
        }
    }
    if let Some(candidate) = run {
        if candidate.1 >= image_len && best.is_none_or(|b| candidate.1 > b.1) {
            best = Some(candidate);
        }
    }
    best.map(|(offset, _)| offset)
}

/// Repairs decay damage in a reconstructed image by neighbor interpolation,
/// running up to `MAX_REPAIR_PASSES` passes or until a fixpoint.
///
/// Two conservative repairs, both gated so an undamaged image passes through
/// bit-identical:
///
/// * an **erased** channel byte (0, the `Exponential` signature) is restored
///   only when at least two of its 4-neighbors agree *exactly* on a non-zero
///   value — natural gradients rarely produce exact agreement, so solid
///   regions heal while photo detail is left alone;
/// * a **clipped** byte (`BitFlip`) is promoted to the strict-majority bit
///   consensus of its non-zero neighbors only when it is a bitwise subset of
///   that consensus — i.e. only bits that decay could have cleared are ever
///   re-set, never bits the neighbors disagree on.
///
/// Every pass reads the previous pass's pixels (Jacobi order).  A byte's
/// repair is a function of its own and its same-channel 4-neighbors'
/// values, and a repair always changes the byte, so a byte none of whose
/// inputs changed in pass `k` is left alone by pass `k + 1`.  The first
/// pass therefore visits every byte and each later pass only the bytes that
/// changed in the pass before and their neighbors, tracked in `u64`
/// bitmaps; the result is the same as revisiting the whole image.
pub fn repair_image(image: &Image) -> Image {
    let width = image.width() as usize;
    let height = image.height() as usize;
    if width == 0 || height == 0 {
        return image.clone();
    }
    let stride = width * 3;
    // `previous` holds pass k's pixels and `pixels` receives pass k + 1's;
    // after each pass it is copied back.
    let mut previous = image.as_bytes().to_vec();
    let mut pixels = previous.clone();
    let words = pixels.len().div_ceil(64);
    let mut visit = vec![u64::MAX; words];
    let mut changed = vec![0u64; words];
    for _ in 0..MAX_REPAIR_PASSES {
        if !repair_pass(&previous, &mut pixels, stride, &visit, &mut changed) {
            break;
        }
        previous.copy_from_slice(&pixels);
        visit.copy_from_slice(&changed);
        for shift in [3, stride] {
            or_shifted_up(&mut visit, &changed, shift);
            or_shifted_down(&mut visit, &changed, shift);
        }
        changed.fill(0);
    }
    Image::from_raw(image.width(), image.height(), pixels)
}

/// One Jacobi pass over the `stride`-byte rows of `previous`: repairs the
/// bytes set in `visit` into `pixels` (equal to `previous` on entry) and
/// marks the ones it changed in `changed`; `true` when any did.
///
/// Each row is walked one little-endian word (eight byte lanes) at a time;
/// the same-channel left and right neighbors are the row's bytes three to
/// either side, so their words are the row word shifted by three bytes.
/// [`repair_lanes`] decides all eight lanes at once, and the changed lanes
/// go back with one masked word store.
fn repair_pass(
    previous: &[u8],
    pixels: &mut [u8],
    stride: usize,
    visit: &[u64],
    changed: &mut [u64],
) -> bool {
    let mut any = false;
    let mut row_start = 0usize;
    for row in previous.chunks_exact(stride) {
        let up = row_start
            .checked_sub(stride)
            .and_then(|start| previous.get(start..row_start));
        let down = previous.get(row_start + stride..row_start + 2 * stride);
        // Neighbors past a row's ends or above the first and below the last
        // row read as zero, which is how a zero (erased) neighbor votes: not
        // at all.
        let mut before = 0u64;
        let mut own = word_at(row, 0);
        for k in (0..stride).step_by(8) {
            let after = word_at(row, k + 8);
            let (i, lanes) = (row_start + k, (stride - k).min(8));
            let visiting = spread(bits_at(visit, i, lanes));
            if visiting != 0 {
                let left = (own << 24) | (before >> 40);
                let right = (own >> 24) | (after << 40);
                let above = up.map_or(0, |up| word_at(up, k));
                let below = down.map_or(0, |down| word_at(down, k));
                // A lane none of whose neighbors has a bit it lacks cannot
                // be repaired.
                let open = nonzero_bytes((left | right | above | below) & !own) & visiting;
                let (value, repaired) = repair_lanes(own, [left, right, above, below], open);
                if repaired != 0 {
                    let mask = (repaired >> 7) * 0xFF;
                    let word = ((own & !mask) | (value & mask)).to_le_bytes();
                    for (out, byte) in pixels.iter_mut().skip(i).zip(word).take(lanes) {
                        *out = byte;
                    }
                    or_bits_at(changed, i, lane_bits(repaired));
                    any = true;
                }
            }
            before = own;
            own = after;
        }
        row_start += stride;
    }
    any
}

/// Up to eight bytes of `bytes` from `start` as a little-endian word, zero
/// past the end.
fn word_at(bytes: &[u8], start: usize) -> u64 {
    if let Some(word) = bytes
        .get(start..start + 8)
        .and_then(|w| <[u8; 8]>::try_from(w).ok())
    {
        return u64::from_le_bytes(word);
    }
    bytes
        .get(start..)
        .unwrap_or_default()
        .iter()
        .take(8)
        .enumerate()
        .fold(0, |word, (lane, &b)| word | u64::from(b) << (8 * lane))
}

/// Bits `i..i + lanes` of a bitmap (`lanes <= 8`), as the low bits of a
/// word.
fn bits_at(bits: &[u64], i: usize, lanes: usize) -> u64 {
    let (word, shift) = (i >> 6, i & 63);
    let low = bits.get(word).copied().unwrap_or(0) >> shift;
    let high = match shift {
        0 => 0,
        _ => bits.get(word + 1).copied().unwrap_or(0) << (64 - shift),
    };
    (low | high) & ((1 << lanes) - 1)
}

/// ORs the low eight bits of `lanes` into bits `i..i + 8` of a bitmap.
fn or_bits_at(bits: &mut [u64], i: usize, lanes: u64) {
    let (word, shift) = (i >> 6, i & 63);
    if let Some(out) = bits.get_mut(word) {
        *out |= lanes << shift;
    }
    if let (57..=63, Some(out)) = (shift, bits.get_mut(word + 1)) {
        *out |= lanes >> (64 - shift);
    }
}

const LOW7: u64 = u64::from_le_bytes([0x7F; 8]);
const HIGHS: u64 = !LOW7;

/// `0x80` in every byte of `word` that is non-zero, `0` elsewhere.
fn nonzero_bytes(word: u64) -> u64 {
    (((word & LOW7) + LOW7) | word) & HIGHS
}

/// `0x80` in lane `l` for each set bit `l` of the low eight bits of `bits`.
fn spread(bits: u64) -> u64 {
    nonzero_bytes(((bits & 0xFF) * 0x0101_0101_0101_0101) & 0x8040_2010_0804_0201)
}

/// The inverse of [`spread`]: bit `l` for each lane `l` holding `0x80`.
fn lane_bits(flags: u64) -> u64 {
    (flags >> 7).wrapping_mul(0x0102_0408_1020_4080) >> 56
}

/// `0x80` in every lane where byte `x >= y` (unsigned): the low seven bits
/// compare through a lane-local subtraction that cannot borrow across
/// lanes, and the top bits decide where they differ.
fn ge_bytes(x: u64, y: u64) -> u64 {
    let low = (x | HIGHS) - (y & LOW7);
    ((x & !y) | (!(x ^ y) & low)) & HIGHS
}

/// The set-bit count of every byte lane.
fn popcount_bytes(x: u64) -> u64 {
    const FIVES: u64 = u64::from_le_bytes([0x55; 8]);
    const THREES: u64 = u64::from_le_bytes([0x33; 8]);
    const LOW4: u64 = u64::from_le_bytes([0x0F; 8]);
    let x = x - ((x >> 1) & FIVES);
    let x = (x & THREES) + ((x >> 2) & THREES);
    (x + (x >> 4)) & LOW4
}

/// `x` in the lanes where `flags` holds `0x80`, `y` in the others.
fn blend(flags: u64, x: u64, y: u64) -> u64 {
    let mask = (flags >> 7) * 0xFF;
    (x & mask) | (y & !mask)
}

/// `0x80` in every lane where bytes `x` and `y` are equal.
fn eq_bytes(x: u64, y: u64) -> u64 {
    HIGHS & !nonzero_bytes(x ^ y)
}

/// The [`repair_image`] rule for the eight byte lanes of `own` at once
/// (SWAR), given the four neighbor words (zero where a neighbor is absent;
/// a zero neighbor has no vote): the repaired value of every lane and
/// `0x80` in each lane of `open` the rule changes.  Each half of the rule
/// runs only when some open lane needs it.
fn repair_lanes(own: u64, neighbors: [u64; 4], open: u64) -> (u64, u64) {
    let mut out = (0, 0);
    if open & nonzero_bytes(own) != 0 {
        out = clipped_lanes(own, neighbors);
    }
    if open & !nonzero_bytes(own) != 0 {
        let (value, erased) = erased_lanes(own, neighbors);
        out = (blend(erased, value, out.0), out.1 | erased);
    }
    (out.0, out.1 & open)
}

/// The clipped-byte repair: the strict-majority bit consensus of the
/// non-zero neighbors — both of two, two of three, three of four — taken
/// only when the non-zero `own` could be a decayed form of it.  Zero
/// neighbors carry no bits, so short of four non-zero neighbors it is "at
/// least two of the four", which is empty (and rejected) under one.
fn clipped_lanes(own: u64, [a, b, c, d]: [u64; 4]) -> (u64, u64) {
    let nz = nonzero_bytes;
    let at_least_two = (a & b) | (c & d) | ((a | b) & (c | d));
    let at_least_three = (a & b & (c | d)) | (c & d & (a | b));
    let consensus = blend(nz(a) & nz(b) & nz(c) & nz(d), at_least_three, at_least_two);
    let repaired = nz(own) & !nz(own & !consensus) & nz(own ^ consensus);
    (consensus, repaired)
}

/// The erased-byte repair: the non-zero neighbor value with the most votes,
/// at least two; between two pairs, more set bits win, then the larger
/// value.  A value held by three or more neighbors is `a`'s or else `b`'s.
/// Without one there are at most two pairs: `a`'s, and one among `b`, `c`,
/// `d`, whose value then differs from `a`.
fn erased_lanes(own: u64, [a, b, c, d]: [u64; 4]) -> (u64, u64) {
    let (nz, eq) = (nonzero_bytes, eq_bytes);
    let (ab, ac, ad, bc, bd, cd) = (eq(a, b), eq(a, c), eq(a, d), eq(b, c), eq(b, d), eq(c, d));
    let a_three = (ab & ac) | (ab & ad) | (ac & ad);
    let three = a_three | (bc & bd);
    let three_value = blend(a_three, a, b);
    let other = blend(bc | bd, b, c);
    let a_pair = (ab | ac | ad) & !three & nz(a);
    let other_pair = (bc | bd | cd) & !three & nz(other);
    let mut a_wins = a_pair & !other_pair;
    if a_pair & other_pair != 0 {
        let (a_bits, other_bits) = (popcount_bytes(a), popcount_bytes(other));
        let a_outranks = (HIGHS & !ge_bytes(other_bits, a_bits))
            | (eq(a_bits, other_bits) & HIGHS & !ge_bytes(other, a));
        a_wins |= a_pair & other_pair & a_outranks;
    }
    let value = blend(three, three_value, blend(a_wins, a, other));
    let repaired = HIGHS & !nz(own) & ((three & nz(three_value)) | a_pair | other_pair);
    (value, repaired)
}

/// ORs `src` moved `shift` bits toward higher indices into `dst`.
fn or_shifted_up(dst: &mut [u64], src: &[u64], shift: usize) {
    let (words, bits) = (shift / 64, shift % 64);
    for (w, out) in dst.iter_mut().enumerate().skip(words) {
        let lo = src.get(w - words).copied().unwrap_or(0);
        let carry = match (bits, (w - words).checked_sub(1)) {
            (1..=63, Some(below)) => src.get(below).copied().unwrap_or(0) >> (64 - bits),
            _ => 0,
        };
        *out |= (lo << bits) | carry;
    }
}

/// ORs `src` moved `shift` bits toward lower indices into `dst`.
fn or_shifted_down(dst: &mut [u64], src: &[u64], shift: usize) {
    let (words, bits) = (shift / 64, shift % 64);
    for (w, out) in dst.iter_mut().enumerate() {
        let hi = src.get(w + words).copied().unwrap_or(0);
        let carry = match bits {
            1..=63 => src.get(w + words + 1).copied().unwrap_or(0) << (64 - bits),
            _ => 0,
        };
        *out |= (hi >> bits) | carry;
    }
}

#[cfg(test)]
#[allow(clippy::cast_possible_truncation, clippy::indexing_slicing)]
mod tests {
    use super::*;
    use vitis_ai_sim::ModelKind;

    fn view_of(bytes: &[u8]) -> ScrapeView<'_> {
        ScrapeView::from_slice(bytes)
    }

    #[test]
    fn or_fusion_is_a_superset_of_every_snapshot() {
        let snaps = vec![
            vec![0b1010_0000, 0x00, 0xFF],
            vec![0b0000_1010, 0x0F, 0x0F],
            vec![0b1000_0001, 0x00],
        ];
        let fused = fuse_snapshots(&snaps);
        assert_eq!(fused, vec![0b1010_1011, 0x0F, 0xFF]);
        for snap in &snaps {
            for (f, s) in fused.iter().zip(snap) {
                assert_eq!(s & !f, 0, "snapshot bit missing from fusion");
            }
        }
        assert!(fuse_snapshots(&[]).is_empty());
    }

    #[test]
    fn fuzzy_scan_finds_exact_and_byte_erased_patterns() {
        let pattern = b"vitis_ai_library/models/resnet50_pt";
        let mut dump = vec![0u8; 256];
        dump[64..64 + pattern.len()].copy_from_slice(pattern);
        assert_eq!(fuzzy_scan(&dump, pattern), Some(0.0));

        // Clear every third byte (Exponential-style whole-byte erasure).
        for (i, byte) in dump[64..64 + pattern.len()].iter_mut().enumerate() {
            if i % 3 == 0 {
                *byte = 0;
            }
        }
        let distance = fuzzy_scan(&dump, pattern).expect("erasures still match");
        assert!(distance > 0.0 && distance < 0.5, "{distance}");
    }

    #[test]
    fn fuzzy_scan_survives_bit_clipping_but_rejects_noise_and_blanks() {
        let pattern = b"vitis_ai_library/models/yolov3";
        let mut dump = vec![0u8; 512];
        dump[100..100 + pattern.len()].copy_from_slice(pattern);
        // Clip one bit out of every second byte (BitFlip-style).
        for (i, byte) in dump[100..100 + pattern.len()].iter_mut().enumerate() {
            if i % 2 == 0 {
                *byte &= !(1 << (i % 8));
            }
        }
        let distance = fuzzy_scan(&dump, pattern).expect("clipped bits still match");
        assert!(distance > 0.0, "some bits are genuinely missing");

        // An all-zero dump is consistent with everything but carries no
        // evidence; conflicting bytes are rejected outright.
        assert_eq!(fuzzy_scan(&vec![0u8; 256], pattern), None);
        let conflicting = vec![0xAAu8; 256];
        assert_eq!(fuzzy_scan(&conflicting, pattern), None);
        // Degenerate inputs.
        assert_eq!(fuzzy_scan(&[], pattern), None);
        assert_eq!(fuzzy_scan(&dump, &[]), None);
        assert_eq!(fuzzy_scan(&dump, &[0u8; 8]), None);
    }

    #[test]
    fn fuzzy_identification_names_the_model_after_decay() {
        let db = SignatureDb::standard();
        let mut dump = vec![0u8; 2048];
        let path = b"vitis_ai_library/models/resnet50_pt";
        dump[300..300 + path.len()].copy_from_slice(path);
        let name = b"resnet50_pt";
        dump[900..900 + name.len()].copy_from_slice(name);
        // Erase 40% of the path bytes — exact matching is now hopeless.
        for (i, byte) in dump[300..300 + path.len()].iter_mut().enumerate() {
            if i % 5 < 2 {
                *byte = 0;
            }
        }
        let matched = fuzzy_identify_view(&view_of(&dump), &db).expect("fuzzy match");
        assert_eq!(matched.model, ModelKind::Resnet50Pt);
        assert!(matched.hits >= 2, "{}", matched.hits);
        let distance = matched.fuzzy_distance.expect("fuzzy path sets distance");
        assert!(distance > 0.0 && distance < 0.5, "{distance}");

        // Nothing survives on a scrubbed board.
        assert_eq!(fuzzy_identify_view(&view_of(&[0u8; 1024]), &db), None);
    }

    #[test]
    fn entropy_offset_locates_the_image_run() {
        // Layout: text page, weights-like noise, then a long filler run (the
        // corrupted image), then zeros.
        let mut dump = Vec::new();
        dump.extend_from_slice(
            &b"vitis_ai_library/models/resnet50_pt "
                .iter()
                .copied()
                .cycle()
                .take(2048)
                .collect::<Vec<_>>(),
        );
        let mut state = 0x1234_5678u32;
        dump.extend((0..4096).map(|_| {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            (state >> 24) as u8
        }));
        let image_start = dump.len() as u64;
        dump.extend_from_slice(&[0xFFu8; 8192]);
        dump.extend_from_slice(&[0u8; 4096]);

        let offset = entropy_image_offset(&view_of(&dump), 8192).expect("image run found");
        assert_eq!(offset, image_start);
        // A run requirement longer than anything present yields None.
        assert_eq!(entropy_image_offset(&view_of(&dump), dump.len() + 1), None);
    }

    #[test]
    fn repair_heals_erasures_and_clipped_bits_in_a_solid_image() {
        // Ground truth: the corrupted marker image (solid 0xFF).
        let truth = Image::corrupted(16, 16);

        // Exponential-style damage: erase 40% of channel bytes.
        let mut erased = truth.as_bytes().to_vec();
        for (i, byte) in erased.iter_mut().enumerate() {
            if i % 5 < 2 {
                *byte = 0;
            }
        }
        let damaged = Image::reconstruct(16, 16, &erased).unwrap();
        assert!(damaged.pixel_recovery_rate(&truth) < 0.5);
        let repaired = repair_image(&damaged);
        assert_eq!(repaired.pixel_recovery_rate(&truth), 1.0);

        // BitFlip-style damage: clear one hash-picked bit in two thirds of
        // the bytes (decay draws per-cell hashes, so damaged bits are
        // uncorrelated between neighboring pixels).
        let mut clipped = truth.as_bytes().to_vec();
        for (i, byte) in clipped.iter_mut().enumerate() {
            let hash = (i as u32).wrapping_mul(0x9E37_79B9);
            if !hash.is_multiple_of(3) {
                *byte &= !(1 << (hash >> 28 & 7));
            }
        }
        let damaged = Image::reconstruct(16, 16, &clipped).unwrap();
        assert!(damaged.pixel_recovery_rate(&truth) < 0.5);
        let repaired = repair_image(&damaged);
        assert!(repaired.pixel_recovery_rate(&truth) > 0.95);
    }

    /// The scalar repair rule, one byte and its four neighbors at a time
    /// (zero where a neighbor is absent).
    fn repair_byte(own: u8, neighbors: [u8; 4]) -> Option<u8> {
        if own == 0 {
            // Erased byte: restore only an exact >= 2 neighbor agreement,
            // ranked by votes, then surviving bits, then value.
            let rank = |value: u8| {
                let votes: u32 = neighbors.iter().map(|&n| u32::from(n == value)).sum();
                if value != 0 && votes >= 2 {
                    votes << 16 | value.count_ones() << 8 | u32::from(value)
                } else {
                    0
                }
            };
            let best = neighbors.iter().map(|&n| rank(n)).max().unwrap_or(0);
            return (best != 0).then_some(best as u8);
        }
        let [a, b, c, d] = neighbors;
        let consensus = match neighbors.iter().filter(|&&n| n != 0).count() {
            0 | 1 => return None,
            4 => (a & b & (c | d)) | (c & d & (a | b)),
            _ => (a & b) | (c & d) | ((a | b) & (c | d)),
        };
        (own & !consensus == 0 && own != consensus).then_some(consensus)
    }

    #[test]
    fn every_lane_of_the_word_rule_matches_the_scalar_rule() {
        // Every (own, left, right, above, below) over zero, all ones, single
        // bits, and pairs that tie on set bits, so that erased bytes meet
        // every agreement shape (pairs, two pairs, triples) and clipped
        // bytes every majority; eight combinations per word, in every lane.
        const ALPHABET: [u8; 14] = [
            0, 0xFF, 0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x0F, 0xF0, 0x7F, 0xFE,
        ];
        let n = ALPHABET.len();
        let combos = n.pow(5);
        let combo = |k: usize| -> [u8; 5] {
            std::array::from_fn(|slot| ALPHABET[k / n.pow(slot as u32) % n])
        };
        for first in (0..combos).step_by(8) {
            let mut words = [0u64; 5];
            for lane in 0..8 {
                // Rotate the combination order so each lands in every lane.
                let k = (first + (lane * 5 + first / 8) % 8) % combos;
                for (word, byte) in words.iter_mut().zip(combo(k)) {
                    *word |= u64::from(byte) << (8 * lane);
                }
            }
            let [own, a, b, c, d] = words;
            let (value, repaired) = repair_lanes(own, [a, b, c, d], HIGHS);
            for lane in 0..8 {
                let byte = |word: u64| (word >> (8 * lane)) as u8;
                let expected = repair_byte(byte(own), [byte(a), byte(b), byte(c), byte(d)]);
                let got = (repaired >> (8 * lane + 7) & 1 == 1).then(|| byte(value));
                assert_eq!(
                    got,
                    expected,
                    "own {:02x} neighbors {:02x?}",
                    byte(own),
                    [byte(a), byte(b), byte(c), byte(d)]
                );
            }
        }
    }

    #[test]
    fn repair_is_identity_on_undamaged_images() {
        let solid = Image::corrupted(8, 8);
        assert_eq!(repair_image(&solid), solid);
        let sentinel = Image::profiling_sentinel(8, 8);
        assert_eq!(repair_image(&sentinel), sentinel);
    }

    #[test]
    fn repair_never_clears_a_surviving_bit() {
        // Decay-damaged photo: whatever repair does, it must only ever add
        // bits back, never destroy surviving signal.
        let photo = Image::sample_photo(12, 12);
        let mut damaged = photo.as_bytes().to_vec();
        for (i, byte) in damaged.iter_mut().enumerate() {
            if i % 7 == 0 {
                *byte = 0;
            }
        }
        let damaged = Image::reconstruct(12, 12, &damaged).unwrap();
        let repaired = repair_image(&damaged);
        for (d, r) in damaged.as_bytes().iter().zip(repaired.as_bytes()) {
            assert_eq!(d & !r, 0, "repair cleared a surviving bit");
        }
    }
}
